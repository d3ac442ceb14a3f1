//! Shared workload construction for the table/figure regenerators.

use ml::synth::Application;
use printed_core::flow::{SvmFlow, TreeFlow};

/// The seed every reproduction run uses (deterministic results).
pub const SEED: u64 = 7;

/// Tree depths swept by the paper (DT-1/2/4/8).
pub const DEPTHS: [usize; 4] = [1, 2, 4, 8];

/// Builds tree workloads for every benchmark dataset at `depth`.
pub fn tree_flows(depth: usize) -> Vec<TreeFlow> {
    Application::ALL
        .into_iter()
        .map(|app| TreeFlow::new(app, depth, SEED))
        .collect()
}

/// Builds SVM workloads for every benchmark dataset.
pub fn svm_flows() -> Vec<SvmFlow> {
    Application::ALL
        .into_iter()
        .map(|app| SvmFlow::new(app, SEED))
        .collect()
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

    #[test]
    fn tree_flows_cover_all_applications() {
        let flows = tree_flows(1);
        assert_eq!(flows.len(), 7);
        assert!(flows.iter().all(|f| f.depth == 1));
    }
}
