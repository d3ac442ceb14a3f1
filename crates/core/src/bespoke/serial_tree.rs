//! Bespoke serial decision trees (§IV-A, Fig. 4a, Fig. 6).
//!
//! The serial engine re-dimensioned around one trained model: the input
//! mux shrinks to the features the tree actually tests, the shift register
//! to the tree's true depth, threshold ROM entries to the widest trained
//! threshold, and the class ROM to the real class count. The datapath
//! width comes from the per-application bit-width search (§IV-A picks the
//! narrowest of 4/8/12/16 that preserves accuracy).

use ml::quant::QuantizedTree;
use netlist::ir::Module;
use netlist::optimize;
use pdk::rom::RomStyle;

use crate::ceil_log2;
use crate::conventional::serial_tree::{generate, program, SerialTreeSpec};

/// Derives the bespoke engine dimensions for a trained tree.
pub fn bespoke_spec(tree: &QuantizedTree) -> SerialTreeSpec {
    let (splits, _) = tree.heap_layout();
    let max_tau = splits.iter().map(|s| s.2).max().unwrap_or(0);
    let tau_bits = (64 - max_tau.leading_zeros() as usize)
        .max(1)
        .min(tree.bits());
    SerialTreeSpec {
        depth: tree.depth().max(1),
        width: tree.bits(),
        n_features: tree.used_features().len().max(1),
        class_bits: ceil_log2(tree.n_classes()),
        tau_bits,
        input_registers: false,
        rom_style: RomStyle::Crossbar,
    }
}

/// Generates the bespoke serial engine for `tree` and runs logic
/// optimization over it.
pub fn bespoke_serial(tree: &QuantizedTree) -> (SerialTreeSpec, Module) {
    let _span = obs::span("gen.bespoke_serial_tree");
    let spec = bespoke_spec(tree);
    let prog = program(tree, &spec);
    let module = crate::record_generated(optimize(&generate(&spec, &prog)));
    (spec, module)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conventional::serial_tree::SerialTreeSpec as Spec;
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

    /// Runs `samples` test rows through `tree`'s bespoke serial engine,
    /// `spec.depth` clocks each, against the software tree; `class` and
    /// `done` are the outputs.
    fn check_engine(
        tree: &QuantizedTree,
        fq: &FeatureQuantizer,
        test: &ml::Dataset,
        samples: usize,
    ) {
        let (spec, module) = bespoke_serial(tree);
        let mut sim = Simulator::new(&module);
        for row in test.x.iter().take(samples) {
            let codes = fq.code_row(row);
            let inputs = tree_inputs(tree, &codes, spec.n_features);
            let class = tree.predict(&codes) as u64;
            assert_eq!(sim.try_apply(&inputs, spec.depth), Ok(vec![class, 1]));
        }
    }

    #[test]
    fn bespoke_serial_matches_software_tree() {
        let (qt, fq, test) = setup(Application::RedWine, 4, 8);
        check_engine(&qt, &fq, &test, 120);
    }

    #[test]
    fn bespoke_serial_is_cheaper_than_conventional_serial() {
        // Fig. 6: ~37% area and ~22% power improvement on average in EGT.
        let lib = CellLibrary::for_technology(Technology::Egt);
        let (qt, _, _) = setup(Application::Cardio, 4, 8);
        let conv_spec = Spec::conventional(4);
        let conv = analyze(
            &crate::conventional::serial_tree::generate(
                &conv_spec,
                &crate::conventional::serial_tree::program(&qt, &conv_spec),
            ),
            &lib,
        );
        let (_, module) = bespoke_serial(&qt);
        let besp = analyze(&module, &lib);
        assert!(
            besp.area < conv.area,
            "bespoke {} vs conv {}",
            besp.area,
            conv.area
        );
        assert!(besp.power < conv.power);
    }

    #[test]
    fn spec_shrinks_to_the_model() {
        let (qt, _, _) = setup(Application::Har, 4, 8);
        let spec = bespoke_spec(&qt);
        assert_eq!(spec.depth, qt.depth());
        assert_eq!(spec.n_features, qt.used_features().len());
        assert!(spec.class_bits <= 3); // 5 classes
        assert!(spec.tau_bits <= 8);
    }

    #[test]
    fn narrow_width_trees_build_and_verify() {
        let (qt, fq, test) = setup(Application::Har, 2, 4);
        assert_eq!(bespoke_spec(&qt).width, 4);
        check_engine(&qt, &fq, &test, 60);
    }
}
