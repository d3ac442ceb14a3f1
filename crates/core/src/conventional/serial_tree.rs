//! Conventional **serial** decision trees (§III-A.1, Fig. 2a, Table III).
//!
//! One comparator, two ROMs (thresholds + classes) and a shift register
//! tracking the working node. The architecture is *general-purpose*: it is
//! sized for a full tree of the requested depth and a fixed feature count
//! and bit width; the trained model lives entirely in ROM contents, so the
//! same silicon — or rather, the same printed sheet — serves any tree of
//! that shape.

use ml::quant::QuantizedTree;
use netlist::builder::NetlistBuilder;
use netlist::comb::unsigned_gt;
use netlist::ir::{Module, Signal};
use netlist::seq::shift_register;
use pdk::rom::RomStyle;

/// Structural parameters of a serial tree engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SerialTreeSpec {
    /// Tree depth the engine is sized for.
    pub depth: usize,
    /// Feature / threshold bit width.
    pub width: usize,
    /// Number of feature input ports (the input mux size).
    pub n_features: usize,
    /// Class-label width in bits.
    pub class_bits: usize,
    /// Threshold ROM entry width (bespoke engines shrink this to the
    /// widest trained threshold; conventional engines use `width`).
    pub tau_bits: usize,
    /// Input feature registers (conventional engines buffer their inputs).
    pub input_registers: bool,
    /// ROM implementation style.
    pub rom_style: RomStyle,
}

impl SerialTreeSpec {
    /// The paper's conventional configuration for depth `d`: 8-bit data,
    /// `min(2^d − 1, 14)` features (14 is the average unique-feature count
    /// across the benchmark datasets), 5-bit class labels, crossbar ROMs.
    /// Features feed the mux directly (Fig. 2a); input registers are an
    /// option for sensor front-ends that need them, but they add a load
    /// cycle and Table III's small logic gate counts show the paper's
    /// engine does without.
    pub fn conventional(depth: usize) -> Self {
        SerialTreeSpec {
            depth,
            width: 8,
            n_features: ((1usize << depth) - 1).clamp(1, 14),
            class_bits: 5,
            tau_bits: 8,
            input_registers: false,
            rom_style: RomStyle::Crossbar,
        }
    }
}

/// ROM contents compiled from a trained tree (or zeros for a blank
/// general-purpose engine).
#[derive(Debug, Clone, PartialEq)]
pub struct SerialTreeProgram {
    /// Threshold ROM: `2^(depth+1)` words of `[τ | feature_select]`.
    pub threshold_rom: Vec<u64>,
    /// Class ROM: `2^depth` words of class labels.
    pub class_rom: Vec<u64>,
}

/// Compiles a quantized tree onto a serial engine of `spec`.
///
/// Unbalanced trees are handled entirely in the class ROM: every address
/// whose leading path bits pass through a leaf stores that leaf's class,
/// so whatever the shift register accumulates after reaching the leaf is
/// harmless (threshold entries below a leaf are don't-care).
///
/// # Panics
/// Panics if the tree is deeper than the engine or uses a feature index
/// outside the engine's mux, or a class outside `class_bits`.
pub fn program(tree: &QuantizedTree, spec: &SerialTreeSpec) -> SerialTreeProgram {
    assert!(tree.depth() <= spec.depth, "tree deeper than engine");
    let max_tau = (1u64 << spec.tau_bits) - 1;
    let mut threshold_rom = vec![max_tau; 1 << (spec.depth + 1)];
    let (splits, leaves) = tree.heap_layout();
    // Feature indices are remapped onto the engine's mux inputs in the
    // slot order of `crate::ports`: slot `k` is the `k`-th used feature.
    let slots = tree.used_features();
    assert!(
        slots.len() <= spec.n_features,
        "tree uses more features than the engine has"
    );
    for (pos, feature, tau) in &splits {
        assert!(*tau <= max_tau);
        let slot = slots
            .iter()
            .position(|f| f == feature)
            .expect("feature in the slot list") as u64;
        threshold_rom[*pos] = tau | (slot << spec.tau_bits);
    }
    let mut class_rom = vec![0u64; 1 << spec.depth];
    for (pos, depth, class) in &leaves {
        assert!(
            (*class as u64) < (1 << spec.class_bits),
            "class exceeds class_bits"
        );
        let path = pos - (1 << depth);
        let shift = spec.depth - depth;
        // Fill the whole block reachable below this leaf.
        for junk in 0..(1usize << shift) {
            class_rom[(path << shift) | junk] = *class as u64;
        }
    }
    SerialTreeProgram {
        threshold_rom,
        class_rom,
    }
}

/// Feature-select field width.
fn feature_bits(n_features: usize) -> usize {
    if n_features <= 1 {
        1
    } else {
        (usize::BITS - (n_features - 1).leading_zeros()) as usize
    }
}

/// Generates the serial tree engine netlist.
///
/// Ports: inputs `f0..f{n-1}` (one per feature, `width` bits) and a
/// combinational output `class`; plus `done` (the shift register's MSB).
/// One inference takes `spec.depth` clock cycles after reset.
pub fn generate(spec: &SerialTreeSpec, prog: &SerialTreeProgram) -> Module {
    let _span = obs::span("gen.conv_serial_tree");
    let mut b = NetlistBuilder::new(format!("serial_tree_d{}", spec.depth));
    let fbits = feature_bits(spec.n_features);

    // Feature inputs (optionally registered).
    let mut features: Vec<Vec<Signal>> = (0..spec.n_features)
        .map(|i| b.input(format!("f{i}"), spec.width))
        .collect();
    if spec.input_registers {
        features = features.iter().map(|f| b.register(f, 0)).collect();
    }

    // Shift register: depth+1 bits, seeded with 1 at the LSB. Its stage-0
    // D is the comparison result, which itself depends on the register's Q
    // values; build the chain with a placeholder D and close the loop with
    // `set_dff_input` once the comparator exists (the DFF breaks the
    // combinational cycle).
    let sr = shift_register(&mut b, Signal::ZERO, spec.depth + 1, 1);

    // Threshold ROM addressed by the full shift-register value.
    let rom_word = b.rom(
        &sr,
        prog.threshold_rom.clone(),
        spec.tau_bits + fbits,
        spec.rom_style,
    );
    let (tau, fsel) = rom_word.split_at(spec.tau_bits);

    // Input feature mux.
    let selected = b.mux_tree(fsel, &features);

    // The single comparator: r = selected > τ (go right). A narrower τ
    // field is zero-extended with constants, which the optimizer folds in
    // bespoke builds.
    let mut tau_ext = tau.to_vec();
    tau_ext.resize(spec.width, Signal::ZERO);
    let r = unsigned_gt(&mut b, &selected, &tau_ext);

    // Close the shift-register loop: stage 0 captures r each cycle.
    b.set_dff_input(sr[0], r);

    // Class ROM addressed by the path bits (SR low `depth` bits).
    let class = b.rom(
        &sr[..spec.depth],
        prog.class_rom.clone(),
        spec.class_bits,
        spec.rom_style,
    );

    b.output("class", &class);
    b.output("done", &[sr[spec.depth]]);
    crate::record_generated(b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ports::tree_inputs;
    use ml::quant::{FeatureQuantizer, QuantizedTree};
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

    /// Runs one inference on the engine simulator; unused mux slots
    /// read zero. The engine's outputs are `class` and `done`.
    fn infer(sim: &mut Simulator, qt: &QuantizedTree, codes: &[u64], spec: &SerialTreeSpec) -> u64 {
        let inputs = tree_inputs(qt, codes, spec.n_features);
        let outputs = sim
            .try_apply(&inputs, spec.depth)
            .expect("one value per slot");
        assert_eq!(outputs[1], 1, "done must assert after depth cycles");
        outputs[0]
    }

    #[test]
    fn serial_engine_matches_software_tree() {
        let (qt, fq, test) = setup(Application::Cardio, 4, 8);
        let spec = SerialTreeSpec::conventional(4);
        let prog = program(&qt, &spec);
        let module = generate(&spec, &prog);
        let mut sim = Simulator::new(&module);
        for row in test.x.iter().take(120) {
            let codes = fq.code_row(row);
            let hw = infer(&mut sim, &qt, &codes, &spec);
            assert_eq!(hw as usize, qt.predict(&codes));
        }
    }

    #[test]
    fn unbalanced_trees_park_on_the_correct_leaf() {
        // HAR trees stop early on pure nodes: exercise the "route left
        // under a leaf" ROM filling.
        let (qt, fq, test) = setup(Application::Har, 4, 8);
        assert!(qt.comparison_count() < 15, "want an unbalanced tree");
        let spec = SerialTreeSpec::conventional(4);
        let prog = program(&qt, &spec);
        let module = generate(&spec, &prog);
        let mut sim = Simulator::new(&module);
        for row in test.x.iter().take(120) {
            let codes = fq.code_row(row);
            assert_eq!(
                infer(&mut sim, &qt, &codes, &spec) as usize,
                qt.predict(&codes)
            );
        }
    }

    #[test]
    fn deeper_engines_cost_more_in_memory() {
        let lib = CellLibrary::for_technology(Technology::Egt);
        let cost = |d: usize| {
            let spec = SerialTreeSpec::conventional(d);
            let prog = SerialTreeProgram {
                threshold_rom: vec![0; 1 << (d + 1)],
                class_rom: vec![0; 1 << d],
            };
            analyze(&generate(&spec, &prog), &lib)
        };
        let c1 = cost(1);
        let c8 = cost(8);
        assert!(c8.rom_area > c1.rom_area * 10.0);
        assert!(c8.area > c1.area);
    }

    #[test]
    fn engine_has_exactly_one_comparator_worth_of_logic() {
        // The serial architecture's defining property: logic cost is
        // dominated by a single comparator + mux regardless of depth.
        let lib = CellLibrary::for_technology(Technology::Egt);
        let logic_area = |d: usize| {
            let spec = SerialTreeSpec::conventional(d);
            let prog = SerialTreeProgram {
                threshold_rom: vec![0; 1 << (d + 1)],
                class_rom: vec![0; 1 << d],
            };
            analyze(&generate(&spec, &prog), &lib).logic_area
        };
        // Logic grows slowly with depth (wider SR + bigger mux), far from
        // the 2^d explosion of the parallel tree.
        assert!(logic_area(8).ratio(logic_area(4)) < 3.0);
    }

    #[test]
    #[should_panic(expected = "deeper than engine")]
    fn overdeep_trees_are_rejected() {
        let (qt, _, _) = setup(Application::Pendigits, 6, 8);
        assert!(qt.depth() > 2);
        program(&qt, &SerialTreeSpec::conventional(2));
    }
}
