//! The `repro_all --verify` sign-off stage.
//!
//! Two sub-stages, both riding the lane-parallel verification engine:
//!
//! 1. **Equivalence sign-off** — every optimized/lookup architecture of a
//!    set of representative workloads is miter-checked against its
//!    unoptimized reference netlist via
//!    [`printed_core::signoff`] (256 input vectors per settle pass);
//! 2. **Fault grading** — the Table-VII-style manufacturing-test
//!    workload (bespoke depth-4 Har/Cardio trees fed their own test-set
//!    vectors) is stuck-at graded by cone-limited fault propagation,
//!    timing `faults_per_sec`.
//!
//! The returned [`VerifyReport`] lands in the `repro_all --json` report;
//! `repro_all` exits nonzero if any check found a counter-example.

use ml::synth::Application;
use printed_core::flow::{SvmFlow, TreeArch, TreeFlow};
use printed_core::signoff::{SignoffRecord, SignoffStatus};
use serde::Serialize;

use crate::workloads::{tree_test_vectors, SEED};
use crate::{fmt3, Table};

/// Exhaustive-enumeration cutoff (total input bits) for sign-off checks.
const EXHAUSTIVE_LIMIT: u32 = 16;

/// One timed fault-grading run in the JSON report.
#[derive(Debug, Clone, Serialize)]
pub struct FaultGradeRecord {
    /// Workload name (e.g. `"har-dt4"`).
    pub design: String,
    /// Single-stuck-at fault sites graded.
    pub sites: usize,
    /// Sites the vector set detected.
    pub detected: usize,
    /// `detected / sites`.
    pub coverage: f64,
    /// Test vectors applied.
    pub vectors: usize,
    /// Wall-clock seconds of the grading.
    pub seconds: f64,
    /// Throughput (`sites / seconds`).
    pub faults_per_sec: f64,
}

/// The `--verify` section of the `repro_all --json` report.
#[derive(Debug, Clone, Serialize)]
pub struct VerifyReport {
    /// Equivalence sign-off outcomes.
    pub equivalence: Vec<SignoffRecord>,
    /// Fault-grading outcomes.
    pub fault_grading: Vec<FaultGradeRecord>,
    /// Sign-off checks that did **not** pass (counter-example, port
    /// mismatch, or a check that could not run).
    pub counter_examples: usize,
    /// Aggregate equivalence throughput (total vectors / total seconds).
    pub vectors_per_sec: f64,
    /// Aggregate fault-grading throughput (total sites / total seconds).
    pub faults_per_sec: f64,
}

impl VerifyReport {
    /// True when every sign-off check passed.
    pub fn passed(&self) -> bool {
        self.counter_examples == 0
    }
}

fn status_cell(status: &SignoffStatus) -> String {
    match status {
        SignoffStatus::Pass => "pass".into(),
        SignoffStatus::CounterExample(v) => format!("COUNTER-EXAMPLE {v:?}"),
        SignoffStatus::PortMismatch(msg) => format!("PORT-MISMATCH: {msg}"),
        SignoffStatus::Unchecked(msg) => format!("UNCHECKED: {msg}"),
    }
}

/// Runs both sign-off sub-stages, returning printable tables and the
/// JSON report section. The trees are one easy, one hard and one ordinal
/// dataset at a realistic depth, plus a shallow tree (shallow trees
/// stress the constant folding hardest — most of the netlist collapses);
/// checks sample 4,096 vectors where exhaustive enumeration does not
/// apply, and fault grading feeds each tree 150 test-set rows.
pub fn run_verify() -> (Vec<Table>, VerifyReport) {
    let trees = [
        (Application::Har, 4),
        (Application::Cardio, 4),
        (Application::RedWine, 4),
        (Application::Pendigits, 2),
    ];
    run_configured(
        &trees,
        &[Application::RedWine, Application::Cardio],
        4096,
        150,
    )
}

/// [`run_verify`] with every workload knob explicit, so the unit test
/// can sign off a reduced workload at debug-build speed.
fn run_configured(
    trees: &[(Application, usize)],
    svms: &[Application],
    samples: usize,
    rows: usize,
) -> (Vec<Table>, VerifyReport) {
    // Stage 1: equivalence sign-off of every architecture pair.
    let mut equivalence: Vec<SignoffRecord> = Vec::new();
    for &(app, depth) in trees {
        let flow = TreeFlow::new(app, depth, SEED);
        equivalence.extend(flow.signoff(EXHAUSTIVE_LIMIT, samples));
    }
    for &app in svms {
        let flow = SvmFlow::new(app, SEED);
        equivalence.extend(flow.signoff(EXHAUSTIVE_LIMIT, samples));
    }

    let mut eq_table = Table::new(
        "Verify: equivalence sign-off (optimized vs unoptimized reference)",
        &[
            "design",
            "check",
            "status",
            "mode",
            "vectors",
            "seconds",
            "vectors/sec",
        ],
    );
    for r in &equivalence {
        eq_table.row(vec![
            r.design.clone(),
            r.check.clone(),
            status_cell(&r.status),
            if r.exhaustive {
                "exhaustive".into()
            } else {
                "sampled".into()
            },
            r.vectors.to_string(),
            format!("{:.3}", r.seconds),
            fmt3(r.vectors_per_sec),
        ]);
    }

    // Stage 2: fault grading of the Table-VII manufacturing-test workload.
    let mut fault_grading: Vec<FaultGradeRecord> = Vec::new();
    for app in [Application::Har, Application::Cardio] {
        let flow = TreeFlow::new(app, 4, SEED);
        let module = flow.module(TreeArch::BespokeParallel).expect("digital");
        let vectors = tree_test_vectors(&flow, rows);
        let (cov, seconds) = exec::time(|| netlist::fault_coverage(&module, &vectors));
        fault_grading.push(FaultGradeRecord {
            design: format!("{}-dt4", app.name()),
            sites: cov.total,
            detected: cov.detected,
            coverage: cov.coverage(),
            vectors: vectors.len(),
            seconds,
            faults_per_sec: if seconds > 0.0 {
                cov.total as f64 / seconds
            } else {
                0.0
            },
        });
    }

    let mut fault_table = Table::new(
        "Verify: stuck-at fault grading (lane-parallel cone propagation)",
        &[
            "design",
            "sites",
            "detected",
            "coverage",
            "vectors",
            "seconds",
            "faults/sec",
        ],
    );
    for r in &fault_grading {
        fault_table.row(vec![
            r.design.clone(),
            r.sites.to_string(),
            r.detected.to_string(),
            fmt3(r.coverage),
            r.vectors.to_string(),
            format!("{:.3}", r.seconds),
            fmt3(r.faults_per_sec),
        ]);
    }

    let counter_examples = equivalence.iter().filter(|r| !r.passed()).count();
    let eq_secs: f64 = equivalence.iter().map(|r| r.seconds).sum();
    let eq_vecs: usize = equivalence.iter().map(|r| r.vectors).sum();
    let fg_secs: f64 = fault_grading.iter().map(|r| r.seconds).sum();
    let fg_sites: usize = fault_grading.iter().map(|r| r.sites).sum();
    let report = VerifyReport {
        equivalence,
        fault_grading,
        counter_examples,
        vectors_per_sec: if eq_secs > 0.0 {
            eq_vecs as f64 / eq_secs
        } else {
            0.0
        },
        faults_per_sec: if fg_secs > 0.0 {
            fg_sites as f64 / fg_secs
        } else {
            0.0
        },
    };
    (vec![eq_table, fault_table], report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_stage_finds_no_counterexamples() {
        let (tables, report) =
            run_configured(&[(Application::Har, 3)], &[Application::RedWine], 256, 30);
        assert_eq!(tables.len(), 2);
        assert!(report.passed(), "{:?}", report.equivalence);
        assert!(report.vectors_per_sec > 0.0);
        assert!(report.faults_per_sec > 0.0);
        assert_eq!(
            report.equivalence.len(),
            4 + 3,
            "1 tree workload x 4 checks + 1 svm workload x 3 checks"
        );
        assert_eq!(report.fault_grading.len(), 2);
        assert!(report.fault_grading.iter().all(|r| r.coverage > 0.1));
    }
}
