//! Shared workload construction for the table/figure regenerators.

use std::sync::atomic::{AtomicBool, Ordering};

use ml::synth::Application;
use printed_core::flow::{SvmFlow, TreeFlow};

/// The seed every reproduction run uses (deterministic results).
pub const SEED: u64 = 7;

/// Tree depths swept by the paper (DT-1/2/4/8).
pub const DEPTHS: [usize; 4] = [1, 2, 4, 8];

/// Process-wide smoke-mode switch (`repro_all --smoke`): every experiment
/// still runs and emits its tables, but over reduced workloads —
/// [`quick_apps`] instead of all seven datasets, a two-point depth sweep,
/// and smaller Monte Carlo / vector budgets. CI uses this to validate the
/// whole harness end-to-end in minutes rather than regenerating the full
/// paper numbers.
static SMOKE: AtomicBool = AtomicBool::new(false);

/// Turns smoke mode on or off for the whole process.
pub fn set_smoke(on: bool) {
    SMOKE.store(on, Ordering::Relaxed);
}

/// True when the process runs in smoke mode.
pub fn smoke() -> bool {
    SMOKE.load(Ordering::Relaxed)
}

/// The datasets in play: all seven, or the quick trio in smoke mode.
pub fn apps() -> Vec<Application> {
    if smoke() {
        quick_apps().to_vec()
    } else {
        Application::ALL.to_vec()
    }
}

/// The depth sweep: the paper's DT-1/2/4/8, thinned to {1, 4} in smoke
/// mode (one trivial and one realistic depth).
pub fn depths() -> Vec<usize> {
    if smoke() {
        vec![1, 4]
    } else {
        DEPTHS.to_vec()
    }
}

/// The deep-tree configurations the lookup figures target ({4, 8}; just
/// {4} in smoke mode).
pub fn deep_depths() -> Vec<usize> {
    if smoke() {
        vec![4]
    } else {
        vec![4, 8]
    }
}

/// Monte Carlo trials per variation point (16; 4 in smoke mode).
pub fn mc_trials() -> usize {
    if smoke() {
        4
    } else {
        16
    }
}

/// Caps a test-row / vector budget in smoke mode.
pub fn row_cap(full: usize) -> usize {
    if smoke() {
        full.min(30)
    } else {
        full
    }
}

/// Builds tree workloads for every benchmark dataset at `depth`.
pub fn tree_flows(depth: usize) -> Vec<TreeFlow> {
    apps()
        .into_iter()
        .map(|app| TreeFlow::new(app, depth, SEED))
        .collect()
}

/// Builds SVM workloads for every benchmark dataset.
pub fn svm_flows() -> Vec<SvmFlow> {
    apps()
        .into_iter()
        .map(|app| SvmFlow::new(app, SEED))
        .collect()
}

/// A fast subset (the smoke-mode datasets): one easy, one hard, one
/// ordinal dataset.
pub fn quick_apps() -> [Application; 3] {
    [Application::Har, Application::Cardio, Application::RedWine]
}

/// The Table-VII-style manufacturing-test stimulus for a tree workload:
/// up to `rows` real test-set rows (they exercise the trained decision
/// paths) plus per-feature min/max corner vectors (they toggle every
/// comparator). Shared by the fault-coverage ablation and the `--verify`
/// fault-grading stage so they both grade the same vector set.
pub fn tree_test_vectors(flow: &TreeFlow, rows: usize) -> Vec<Vec<u64>> {
    let used = flow.qt.used_features();
    let mut vectors: Vec<Vec<u64>> = flow
        .test
        .x
        .iter()
        .take(rows)
        .map(|row| {
            let codes = flow.fq.code_row(row);
            used.iter().map(|&f| codes[f]).collect()
        })
        .collect();
    let max_code = (1u64 << flow.choice.bits) - 1;
    for f in 0..used.len() {
        for corner in [0, max_code] {
            let mut v: Vec<u64> = vec![max_code / 2; used.len()];
            v[f] = corner;
            vectors.push(v);
        }
    }
    vectors
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that read or toggle the process-wide smoke flag.
    static SMOKE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn quick_apps_are_distinct() {
        let a = quick_apps();
        assert_ne!(a[0], a[1]);
        assert_ne!(a[1], a[2]);
    }

    #[test]
    fn tree_flows_cover_all_applications() {
        let _guard = SMOKE_LOCK.lock().unwrap();
        let flows = tree_flows(1);
        assert_eq!(flows.len(), 7);
        assert!(flows.iter().all(|f| f.depth == 1));
    }

    #[test]
    fn smoke_mode_shrinks_every_workload_knob() {
        let _guard = SMOKE_LOCK.lock().unwrap();
        assert!(!smoke(), "smoke must default to off");
        assert_eq!(apps().len(), 7);
        assert_eq!(depths(), vec![1, 2, 4, 8]);
        set_smoke(true);
        assert_eq!(apps(), quick_apps().to_vec());
        assert_eq!(depths(), vec![1, 4]);
        assert_eq!(deep_depths(), vec![4]);
        assert_eq!(mc_trials(), 4);
        assert_eq!(row_cap(150), 30);
        assert_eq!(row_cap(10), 10);
        set_smoke(false);
        assert_eq!(mc_trials(), 16);
        assert_eq!(row_cap(150), 150);
    }
}
