//! Shared workload construction for the table/figure regenerators.

use ml::synth::Application;
use printed_core::flow::{SvmFlow, TreeFlow};
use printed_core::tree_inputs;

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

/// The Table-VII-style manufacturing-test stimulus for a tree workload's
/// bespoke parallel engine: up to `rows` real test-set rows (they
/// exercise the trained decision paths) plus per-feature min/max corner
/// vectors (they toggle every comparator). Shared by the fault-coverage
/// ablation and the `--verify` fault-grading stage so they both grade
/// the same vector set.
pub fn tree_test_vectors(flow: &TreeFlow, rows: usize) -> Vec<Vec<u64>> {
    let used = flow.qt.used_features();
    let inputs = |codes: &[u64]| tree_inputs(&flow.qt, codes, used.len());
    let rows = flow.test.x.iter().take(rows);
    let mut vectors: Vec<Vec<u64>> = rows.map(|row| inputs(&flow.fq.code_row(row))).collect();
    let max_code = (1u64 << flow.choice.bits) - 1;
    for &f in &used {
        for corner in [0, max_code] {
            let mut codes = vec![max_code / 2; flow.test.n_features()];
            codes[f] = corner;
            vectors.push(inputs(&codes));
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
