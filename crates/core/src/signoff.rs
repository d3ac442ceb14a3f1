//! Flow-level equivalence sign-off (`repro_all --verify`).
//!
//! The paper signs off its bespoke and lookup rewrites with logic
//! equivalence checking before committing a design to foil. This module
//! is the flow-level analogue: every optimized/lookup architecture a
//! [`crate::flow::TreeFlow`] / [`crate::flow::SvmFlow`] can generate is
//! miter-checked against its *unoptimized reference* netlist (the raw
//! structural generator output, before [`netlist::optimize`] and ROM
//! folding), and the lookup tree is additionally cross-checked against
//! the bespoke tree — two independent generators that must implement the
//! same trained model. Port-shape mismatches and checks that cannot run
//! are *reported* (not panicked) so one bad architecture cannot abort a
//! whole reproduction run.

use exec::time;
use netlist::{check_equivalence, Equivalence, Module, SimError};
use serde::Serialize;

use crate::bespoke::{bespoke_parallel, bespoke_parallel_raw, bespoke_svm, bespoke_svm_raw};
use crate::flow::{SvmFlow, TreeFlow};
use crate::lookup::{
    lookup_parallel, lookup_parallel_raw, lookup_svm, lookup_svm_raw, LookupConfig,
};

/// How one sign-off check ended.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum SignoffStatus {
    /// The pair agreed on every tried vector.
    Pass,
    /// A distinguishing input vector was found (values per input port).
    CounterExample(Vec<u64>),
    /// The two netlists do not even share a port shape.
    PortMismatch(String),
    /// The check could not run for another reason (a sequential or
    /// invalid module, or a sampled check given no samples): the pair is
    /// not verified.
    Unchecked(String),
}

/// One timed equivalence check of the sign-off stage.
#[derive(Debug, Clone, Serialize)]
pub struct SignoffRecord {
    /// Workload name (e.g. `"har-dt4"`).
    pub design: String,
    /// What was compared (e.g. `"bespoke-parallel vs raw"`).
    pub check: String,
    /// Verdict.
    pub status: SignoffStatus,
    /// True when the whole input space was enumerated.
    pub exhaustive: bool,
    /// Input vectors evaluated.
    pub vectors: usize,
    /// Wall-clock seconds of the check.
    pub seconds: f64,
    /// Throughput (`vectors / seconds`).
    pub vectors_per_sec: f64,
}

impl SignoffRecord {
    /// True only for [`SignoffStatus::Pass`]. A port mismatch or an
    /// unchecked pair also counts as a failure: the architectures were
    /// not shown equivalent.
    pub fn passed(&self) -> bool {
        matches!(self.status, SignoffStatus::Pass)
    }
}

/// Runs one timed equivalence check between `reference` and `candidate`.
///
/// The underlying engine compiles the miter once and replays it over
/// 256-lane shards; in the observability report the one-off tape build
/// shows up under `netlist.sim.compile` and the settle volume under the
/// `netlist.sim.settles` / `netlist.sim.vectors` counters, so compile
/// time and simulation time are separable per check.
pub fn signoff_pair(
    design: &str,
    check: &str,
    reference: &Module,
    candidate: &Module,
    exhaustive_limit: u32,
    samples: usize,
) -> SignoffRecord {
    let _span = obs::span("core.signoff.pair");
    let (verdict, seconds) =
        time(|| check_equivalence(reference, candidate, exhaustive_limit, samples));
    let (status, exhaustive, vectors) = match verdict {
        Ok(Equivalence::Equivalent {
            vectors,
            exhaustive,
        }) => (SignoffStatus::Pass, exhaustive, vectors),
        Ok(Equivalence::CounterExample(v)) => (SignoffStatus::CounterExample(v), false, 0),
        Err(err @ (SimError::PortCount { .. } | SimError::PortShape { .. })) => {
            (SignoffStatus::PortMismatch(err.to_string()), false, 0)
        }
        Err(err) => (SignoffStatus::Unchecked(err.to_string()), false, 0),
    };
    SignoffRecord {
        design: design.to_string(),
        check: check.to_string(),
        status,
        exhaustive,
        vectors,
        seconds,
        vectors_per_sec: if seconds > 0.0 {
            vectors as f64 / seconds
        } else {
            0.0
        },
    }
}

impl TreeFlow {
    /// Equivalence sign-off of every optimized/lookup tree architecture:
    /// each against its unoptimized reference, plus the lookup engine
    /// against the bespoke engine (independent generators, same model).
    pub fn signoff(&self, exhaustive_limit: u32, samples: usize) -> Vec<SignoffRecord> {
        let design = format!("{}-dt{}", self.app.name(), self.depth);
        let bespoke = bespoke_parallel(&self.qt);
        let mut records = vec![signoff_pair(
            &design,
            "bespoke-parallel vs raw",
            &bespoke_parallel_raw(&self.qt),
            &bespoke,
            exhaustive_limit,
            samples,
        )];
        let baseline = lookup_parallel(&self.qt, LookupConfig::baseline());
        let lookup = lookup_parallel(&self.qt, LookupConfig::optimized());
        for (tag, config, module) in [
            ("lookup-baseline", LookupConfig::baseline(), &baseline),
            ("lookup-optimized", LookupConfig::optimized(), &lookup),
        ] {
            records.push(signoff_pair(
                &design,
                &format!("{tag} vs raw"),
                &lookup_parallel_raw(&self.qt, config),
                module,
                exhaustive_limit,
                samples,
            ));
        }
        records.push(signoff_pair(
            &design,
            "lookup vs bespoke",
            &bespoke,
            &lookup,
            exhaustive_limit,
            samples,
        ));
        records
    }
}

impl SvmFlow {
    /// Equivalence sign-off of every optimized/lookup SVM architecture
    /// against its unoptimized reference.
    pub fn signoff(&self, exhaustive_limit: u32, samples: usize) -> Vec<SignoffRecord> {
        let design = format!("{}-svm", self.app.name());
        let mut records = vec![signoff_pair(
            &design,
            "bespoke vs raw",
            &bespoke_svm_raw(&self.qs),
            &bespoke_svm(&self.qs),
            exhaustive_limit,
            samples,
        )];
        for (tag, config) in [
            ("lookup-baseline", LookupConfig::baseline()),
            ("lookup-optimized", LookupConfig::optimized()),
        ] {
            records.push(signoff_pair(
                &design,
                &format!("{tag} vs raw"),
                &lookup_svm_raw(&self.qs, config),
                &lookup_svm(&self.qs, config),
                exhaustive_limit,
                samples,
            ));
        }
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml::synth::Application;

    #[test]
    fn tree_signoff_passes_on_a_real_workload() {
        let flow = TreeFlow::new(Application::Har, 3, 7);
        let records = flow.signoff(16, 400);
        assert_eq!(records.len(), 4);
        for r in &records {
            assert!(r.passed(), "{}: {} -> {:?}", r.design, r.check, r.status);
            assert!(r.vectors > 0);
        }
    }

    #[test]
    fn svm_signoff_passes_on_a_real_workload() {
        let flow = SvmFlow::new(Application::RedWine, 7);
        let records = flow.signoff(16, 200);
        assert_eq!(records.len(), 3);
        for r in &records {
            assert!(r.passed(), "{}: {} -> {:?}", r.design, r.check, r.status);
        }
    }

    #[test]
    fn divergent_modules_report_a_counterexample_not_a_panic() {
        use netlist::NetlistBuilder;
        let build = |tau: u64| {
            let mut b = NetlistBuilder::new("n");
            let x = b.input("x", 4);
            let t = b.const_word(tau, 4);
            let le = netlist::comb::unsigned_le(&mut b, &x, &t);
            b.output("le", &[le]);
            b.finish()
        };
        let r = signoff_pair("t", "a vs b", &build(3), &build(9), 8, 0);
        assert!(!r.passed());
        assert!(matches!(r.status, SignoffStatus::CounterExample(_)));
    }

    #[test]
    fn mismatched_shapes_are_reported_as_such() {
        use netlist::NetlistBuilder;
        let mut b1 = NetlistBuilder::new("a");
        let x = b1.input("x", 2);
        b1.output("o", &[x[0]]);
        let mut b2 = NetlistBuilder::new("b");
        let y = b2.input("x", 3);
        b2.output("o", &[y[0]]);
        let r = signoff_pair("t", "a vs b", &b1.finish(), &b2.finish(), 8, 0);
        assert!(matches!(r.status, SignoffStatus::PortMismatch(_)));
    }

    #[test]
    fn sequential_pairs_are_unchecked_not_mismatched() {
        use netlist::NetlistBuilder;
        let build = || {
            let mut b = NetlistBuilder::new("seq");
            let x = b.input("x", 1);
            let q = b.dff(x[0], false);
            b.output("q", &[q]);
            b.finish()
        };
        let r = signoff_pair("t", "a vs b", &build(), &build(), 8, 16);
        assert!(!r.passed());
        match &r.status {
            SignoffStatus::Unchecked(msg) => assert!(msg.contains("sequential"), "{msg}"),
            other => panic!("want Unchecked, got {other:?}"),
        }
    }

    #[test]
    fn a_sampled_check_without_samples_is_unchecked() {
        use netlist::NetlistBuilder;
        let build = || {
            let mut b = NetlistBuilder::new("wide");
            let x = b.input("x", 12);
            let t = b.const_word(100, 12);
            let le = netlist::comb::unsigned_le(&mut b, &x, &t);
            b.output("le", &[le]);
            b.finish()
        };
        let r = signoff_pair("t", "a vs b", &build(), &build(), 8, 0);
        assert!(!r.passed());
        assert_eq!(r.vectors, 0);
        assert!(
            matches!(r.status, SignoffStatus::Unchecked(_)),
            "{:?}",
            r.status
        );
    }
}
