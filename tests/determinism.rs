//! Thread-count invariance of the parallel Monte Carlo and fault-sim
//! paths: the same root seed must produce bit-identical results whether
//! the work pool runs on one thread or many. Both sweeps draw their
//! randomness from per-task `exec::task_seed` streams keyed by trial /
//! site index, so sharding must never change what any task computes —
//! only who computes it.

use printed_ml::analog;
use printed_ml::exec::with_threads;
use printed_ml::ml::quant::{FeatureQuantizer, QuantizedTree};
use printed_ml::ml::synth::Application;
use printed_ml::ml::tree::{DecisionTree, TreeParams};
use printed_ml::netlist;

#[test]
fn variation_sweep_is_identical_at_any_thread_count() {
    let data = Application::Har.generate(7);
    let (train, test) = data.split(0.7, 42);
    let tree = DecisionTree::fit(&train, TreeParams::with_depth(4));
    let fq = FeatureQuantizer::fit(&train, 6);
    let qt = QuantizedTree::from_tree(&tree, &fq);
    let rows: Vec<Vec<u64>> = test.x.iter().take(60).map(|r| fq.code_row(r)).collect();
    let sweep = || analog::variation_sweep(&qt, &rows, &[0.05, 0.2], 8, 7);
    let serial = with_threads(1, sweep);
    let four = with_threads(4, sweep);
    let many = with_threads(16, sweep);
    assert_eq!(serial, four);
    assert_eq!(serial, many);
    // And the seed still matters: a different root seed moves the sweep.
    let other = with_threads(4, || {
        analog::variation_sweep(&qt, &rows, &[0.05, 0.2], 8, 8)
    });
    assert_ne!(serial, other);
}

#[test]
fn fault_coverage_is_identical_at_any_thread_count() {
    use printed_ml::core::flow::{TreeArch, TreeFlow};
    use printed_ml::core::tree_inputs;
    let flow = TreeFlow::new(Application::Cardio, 4, 7);
    let module = flow
        .module(TreeArch::BespokeParallel)
        .expect("digital tree");
    let vectors: Vec<Vec<u64>> = flow
        .coded_rows(40)
        .iter()
        .map(|codes| tree_inputs(&flow.qt, codes, module.inputs.len()))
        .collect();
    let run = || netlist::fault_coverage(&module, &vectors);
    let serial = with_threads(1, run);
    let four = with_threads(4, run);
    let many = with_threads(16, run);
    assert_eq!(serial, four);
    assert_eq!(serial, many);
    assert_eq!(serial.detected + serial.undetected.len(), serial.total);
}
