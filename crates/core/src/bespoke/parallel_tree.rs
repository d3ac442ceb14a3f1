//! Bespoke maximally parallel decision trees (§IV-A, Fig. 4b, Fig. 7).
//!
//! The trained thresholds are hardwired as constants into the node
//! comparators and the class labels as constants into the selection tree,
//! the threshold/feature registers are deleted (inputs connect straight to
//! their feature ports), and logic optimization collapses everything the
//! constants imply. This is the architecture behind the paper's headline:
//! 48.9× lower area and 75.6× lower power than conventional parallel
//! trees in EGT, and — unlike the conventional case — *strictly better*
//! than its serial sibling.

use ml::quant::{QNode, QuantizedTree};
use netlist::builder::NetlistBuilder;
use netlist::comb::unsigned_gt;
use netlist::ir::{Module, Signal};
use netlist::optimize;

use crate::ceil_log2;
use crate::ports::tree_ports;

/// Generates the bespoke parallel tree for `tree` (post-optimization).
///
/// Ports: `f{slot}` for each *used* feature (slot order =
/// [`QuantizedTree::used_features`] order; see [`crate::ports`]) and the
/// `class` output.
pub fn bespoke_parallel(tree: &QuantizedTree) -> Module {
    let _span = obs::span("gen.bespoke_parallel_tree");
    crate::record_generated(optimize(&bespoke_parallel_raw(tree)))
}

/// The unoptimized bespoke parallel tree — the sign-off *reference*: the
/// `--verify` flow equivalence-checks [`bespoke_parallel`]'s rewritten
/// netlist against this structural original.
pub fn bespoke_parallel_raw(tree: &QuantizedTree) -> Module {
    let mut b = NetlistBuilder::new("bespoke_parallel_tree");
    let ports = tree_ports(&mut b, tree);
    let class_bits = ceil_log2(tree.n_classes());
    let class = select_class(
        &mut b,
        tree,
        0,
        class_bits,
        "select",
        &mut |b, _, feature, threshold| {
            b.push_region("compare");
            let r = compare(b, &ports[&feature], threshold);
            b.pop_region();
            r
        },
    );
    b.output("class", &class);
    b.finish()
}

/// The hardwired node comparator `x > τ`.
pub(crate) fn compare(b: &mut NetlistBuilder, x: &[Signal], threshold: u64) -> Signal {
    let tau = b.const_word(threshold, x.len());
    unsigned_gt(b, x, &tau)
}

/// Emits the class-select mux tree of `tree`'s subtree at `node` (0 for
/// the whole tree) and returns its `class_bits`-wide class word: leaves
/// are constant class codes, and each split muxes its right subtree's
/// word over its left one when its decision bit is set.
///
/// `decide(b, node, feature, threshold)` makes a split's decision bit; it
/// runs before the split's subtrees are emitted. The muxes are tagged
/// `mux_region`.
pub(crate) fn select_class<F>(
    b: &mut NetlistBuilder,
    tree: &QuantizedTree,
    node: usize,
    class_bits: usize,
    mux_region: &str,
    decide: &mut F,
) -> Vec<Signal>
where
    F: FnMut(&mut NetlistBuilder, usize, usize, u64) -> Signal,
{
    match tree.nodes()[node] {
        QNode::Leaf { class } => b.const_word(class as u64, class_bits),
        QNode::Split {
            feature,
            threshold,
            left,
            right,
        } => {
            let r = decide(b, node, feature, threshold);
            let l = select_class(b, tree, left, class_bits, mux_region, decide);
            let rgt = select_class(b, tree, right, class_bits, mux_region, decide);
            b.push_region(mux_region);
            let out = b.mux_word(r, &l, &rgt);
            b.pop_region();
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conventional::parallel_tree::{generate as gen_conv, ParallelTreeSpec};
    use crate::ports::tree_inputs;
    use ml::quant::FeatureQuantizer;
    use ml::synth::Application;
    use ml::tree::{DecisionTree, TreeParams};
    use netlist::analyze;
    use netlist::sim::Simulator;
    use pdk::{CellLibrary, Technology};

    fn setup(
        app: Application,
        depth: usize,
        bits: usize,
    ) -> (QuantizedTree, FeatureQuantizer, ml::Dataset) {
        let data = app.generate(7);
        let (train, test) = data.split(0.7, 42);
        let tree = DecisionTree::fit(&train, TreeParams::with_depth(depth));
        let fq = FeatureQuantizer::fit(&train, bits);
        (QuantizedTree::from_tree(&tree, &fq), fq, test)
    }

    fn check_equivalence(app: Application, depth: usize, bits: usize, samples: usize) {
        let (qt, fq, test) = setup(app, depth, bits);
        let module = bespoke_parallel(&qt);
        let mut sim = Simulator::new(&module);
        for row in test.x.iter().take(samples) {
            let codes = fq.code_row(row);
            let inputs = tree_inputs(&qt, &codes, module.inputs.len());
            let class = qt.predict(&codes) as u64;
            assert_eq!(sim.try_apply(&inputs, 0), Ok(vec![class]));
        }
    }

    #[test]
    fn bespoke_parallel_matches_software_tree() {
        check_equivalence(Application::Cardio, 4, 8, 150);
        check_equivalence(Application::Pendigits, 6, 8, 100);
        check_equivalence(Application::Har, 4, 4, 100);
    }

    #[test]
    fn bespoke_parallel_crushes_conventional_parallel() {
        // Fig. 7: the EGT averages are 3.9× delay, 48.9× area, 75.6×
        // power. Check we land in the right decade for one benchmark.
        let lib = CellLibrary::for_technology(Technology::Egt);
        let (qt, _, _) = setup(Application::Cardio, 4, 8);
        let conv = analyze(&gen_conv(&ParallelTreeSpec::conventional(4)), &lib);
        let besp = analyze(&bespoke_parallel(&qt), &lib);
        let area_x = conv.area.ratio(besp.area);
        let power_x = conv.power.ratio(besp.power);
        let delay_x = conv.delay.ratio(besp.delay);
        assert!(area_x > 10.0, "area improvement only {area_x}x");
        assert!(power_x > 15.0, "power improvement only {power_x}x");
        assert!(delay_x > 1.0, "delay improvement only {delay_x}x");
    }

    #[test]
    fn bespoke_parallel_beats_bespoke_serial_strictly() {
        // §IV-A: "unlike conventional counterparts, parallel bespoke trees
        // are strictly better than serial bespoke trees" (serial pays ROM
        // + mux + multi-cycle latency; parallel folds everything).
        let lib = CellLibrary::for_technology(Technology::Egt);
        let (qt, _, _) = setup(Application::Pendigits, 4, 8);
        let par = analyze(&bespoke_parallel(&qt), &lib);
        let (spec, serial) = crate::bespoke::serial_tree::bespoke_serial(&qt);
        let ser = analyze(&serial, &lib);
        assert!(par.area < ser.area);
        assert!(par.power < ser.power);
        assert!(par.latency(1) < ser.latency(spec.depth));
    }

    #[test]
    fn no_registers_survive() {
        let (qt, _, _) = setup(Application::GasId, 4, 8);
        let module = bespoke_parallel(&qt);
        assert_eq!(module.dff_count(), 0);
        assert!(module.is_combinational());
    }

    #[test]
    fn single_leaf_tree_reduces_to_constants() {
        let data = Application::Har.generate(7);
        let tree = DecisionTree::fit(&data, TreeParams::with_depth(0));
        let fq = FeatureQuantizer::fit(&data, 8);
        let qt = QuantizedTree::from_tree(&tree, &fq);
        let module = bespoke_parallel(&qt);
        assert_eq!(module.gate_count(), 0);
    }
}
