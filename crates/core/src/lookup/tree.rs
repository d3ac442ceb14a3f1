//! Lookup-based maximally parallel decision trees (§V-A, Figs. 8–10).
//!
//! Every comparator of the bespoke parallel tree is replaced by one column
//! of a per-feature lookup table: all nodes that test feature `f` share a
//! single ROM addressed by `f`'s code, so the expensive decoder is paid
//! once per feature ("decoder reuse"). Shallow trees have too little
//! sharing to win; deep trees amortize beautifully — exactly Fig. 9's
//! pattern.

use ml::quant::QuantizedTree;
use netlist::builder::NetlistBuilder;
use netlist::ir::Module;
use netlist::optimize;

use super::{lookup_decisions, LookupConfig};
use crate::bespoke::parallel_tree::select_class;
use crate::ceil_log2;
use crate::ports::tree_ports;

/// Generates the lookup-based parallel tree (post-optimization).
///
/// Ports are identical to
/// [`crate::bespoke::parallel_tree::bespoke_parallel`]: `f{slot}` per used
/// feature and a `class` output.
pub fn lookup_parallel(tree: &QuantizedTree, config: LookupConfig) -> Module {
    let _span = obs::span("gen.lookup_parallel_tree");
    crate::record_generated(optimize(&lookup_parallel_raw(tree, config)))
}

/// The unoptimized lookup-based parallel tree — the sign-off *reference*
/// the `--verify` flow equivalence-checks [`lookup_parallel`]'s rewritten
/// netlist against.
pub fn lookup_parallel_raw(tree: &QuantizedTree, config: LookupConfig) -> Module {
    let mut b = NetlistBuilder::new("lookup_parallel_tree");
    let ports = tree_ports(&mut b, tree);
    let decision = lookup_decisions(&mut b, std::slice::from_ref(tree), |f| &ports[&f], config);
    let class_bits = ceil_log2(tree.n_classes());
    let class = select_class(
        &mut b,
        tree,
        0,
        class_bits,
        "select",
        &mut |_, node, _, _| decision[0][node],
    );
    b.output("class", &class);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bespoke::parallel_tree::bespoke_parallel;
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

    fn check_equivalence(app: Application, depth: usize, bits: usize, config: LookupConfig) {
        let (qt, fq, test) = setup(app, depth, bits);
        let module = lookup_parallel(&qt, config);
        let mut sim = Simulator::new(&module);
        for row in test.x.iter().take(100) {
            let codes = fq.code_row(row);
            let inputs = tree_inputs(&qt, &codes, module.inputs.len());
            let class = qt.predict(&codes) as u64;
            assert_eq!(sim.try_apply(&inputs, 0), Ok(vec![class]));
        }
    }

    #[test]
    fn lookup_tree_matches_software_tree() {
        check_equivalence(Application::Pendigits, 6, 4, LookupConfig::baseline());
        check_equivalence(Application::Pendigits, 6, 4, LookupConfig::optimized());
        check_equivalence(Application::Cardio, 4, 8, LookupConfig::optimized());
    }

    #[test]
    fn deep_trees_benefit_shallow_trees_do_not() {
        // Fig. 9's pattern: decoder reuse needs many comparisons per
        // feature.
        let lib = CellLibrary::for_technology(Technology::Egt);
        let (deep, _, _) = setup(Application::Pendigits, 8, 4);
        let (shallow, _, _) = setup(Application::Pendigits, 1, 4);
        let ratio = |qt: &QuantizedTree| {
            let besp = analyze(&bespoke_parallel(qt), &lib);
            let lut = analyze(&lookup_parallel(qt, LookupConfig::optimized()), &lib);
            besp.area.ratio(lut.area)
        };
        let deep_gain = ratio(&deep);
        let shallow_gain = ratio(&shallow);
        assert!(
            deep_gain > shallow_gain,
            "deep {deep_gain} vs shallow {shallow_gain}"
        );
        assert!(deep_gain > 1.0, "deep trees should win: {deep_gain}");
        assert!(
            shallow_gain < 1.0,
            "shallow trees should lose: {shallow_gain}"
        );
    }

    #[test]
    fn optimizations_improve_on_baseline_lookup() {
        // Fig. 10 vs Fig. 9: dots + constant columns increase the area
        // benefit.
        let lib = CellLibrary::for_technology(Technology::Egt);
        let (qt, _, _) = setup(Application::Pendigits, 8, 4);
        let base = analyze(&lookup_parallel(&qt, LookupConfig::baseline()), &lib);
        let opt = analyze(&lookup_parallel(&qt, LookupConfig::optimized()), &lib);
        assert!(opt.area < base.area, "opt {} base {}", opt.area, base.area);
        assert!(opt.power <= base.power);
    }

    #[test]
    fn cnt_lookup_saves_power_but_explodes_area() {
        // §V-A: CNT ROM bits are larger than CNT logic but cheaper in
        // power → lookup trees in CNT trade 69× area for 76% power.
        let lib = CellLibrary::for_technology(Technology::CntTft);
        let (qt, _, _) = setup(Application::Pendigits, 8, 4);
        let besp = analyze(&bespoke_parallel(&qt), &lib);
        let lut = analyze(&lookup_parallel(&qt, LookupConfig::baseline()), &lib);
        assert!(lut.area > besp.area * 2.0, "area should blow up in CNT");
        assert!(lut.power < besp.power, "power should improve in CNT");
    }
}
