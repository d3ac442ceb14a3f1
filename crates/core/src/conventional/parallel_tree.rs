//! Conventional **maximally parallel** decision trees (§III-A.1, Fig. 2b,
//! Table IV).
//!
//! One comparator plus two registers (threshold and input feature) per
//! node of a *full* tree of the requested depth, class-label registers for
//! every leaf, and a mux tree steered by the comparison results. All
//! comparisons evaluate concurrently — 1.32× faster than the serial tree
//! on average, at 20× the area and 8× the power in EGT.

use netlist::builder::NetlistBuilder;
use netlist::comb::unsigned_gt;
use netlist::ir::{Module, Signal};

/// Structural parameters of a conventional parallel tree engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelTreeSpec {
    /// Full-tree depth the engine is sized for.
    pub depth: usize,
    /// Feature / threshold bit width.
    pub width: usize,
    /// Number of feature input ports.
    pub n_features: usize,
    /// Class-label width in bits.
    pub class_bits: usize,
}

impl ParallelTreeSpec {
    /// The paper's conventional configuration for depth `d` (8-bit data,
    /// `min(2^d − 1, 14)` features, 5-bit class labels).
    pub fn conventional(depth: usize) -> Self {
        ParallelTreeSpec {
            depth,
            width: 8,
            n_features: ((1usize << depth) - 1).clamp(1, 14),
            class_bits: 5,
        }
    }
}

/// Generates the conventional parallel tree engine.
///
/// Ports: `f0..f{n-1}` feature inputs, `thr{node}` threshold-load inputs
/// (captured into the per-node threshold registers each cycle),
/// `cls{leaf}` class-label-load inputs, and the combinational `class`
/// output. Nodes are numbered in heap order (root = 1); leaves 0-indexed
/// left to right.
pub fn generate(spec: &ParallelTreeSpec) -> Module {
    let _span = obs::span("gen.conv_parallel_tree");
    let mut b = NetlistBuilder::new(format!("parallel_tree_d{}", spec.depth));
    let features: Vec<Vec<Signal>> = (0..spec.n_features)
        .map(|i| b.input(format!("f{i}"), spec.width))
        .collect();

    let n_nodes = (1usize << spec.depth) - 1;
    let n_leaves = 1usize << spec.depth;

    // Per node: threshold register + input feature register + comparator.
    // Node i (heap position i+1) observes feature port (i % n_features) —
    // the generic engine wires a fixed round-robin; a trained model is
    // loaded purely through the threshold/class registers.
    let mut decisions = Vec::with_capacity(n_nodes);
    for node in 0..n_nodes {
        let thr_in = b.input(format!("thr{node}"), spec.width);
        let thr = b.register(&thr_in, 0);
        let feat = b.register(&features[node % spec.n_features], 0);
        decisions.push(unsigned_gt(&mut b, &feat, &thr));
    }

    // Class-label registers.
    let classes: Vec<Vec<Signal>> = (0..n_leaves)
        .map(|leaf| {
            let d = b.input(format!("cls{leaf}"), spec.class_bits);
            b.register(&d, 0)
        })
        .collect();

    // Mux tree steered by per-node decisions: heap node p selects between
    // its left (decision 0) and right subtrees.
    fn select(
        b: &mut NetlistBuilder,
        pos: usize,
        depth_left: usize,
        decisions: &[Signal],
        classes: &[Vec<Signal>],
        first_leaf: usize,
    ) -> Vec<Signal> {
        if depth_left == 0 {
            return classes[pos - first_leaf].clone();
        }
        let d = decisions[pos - 1];
        let left = select(b, pos * 2, depth_left - 1, decisions, classes, first_leaf);
        let right = select(
            b,
            pos * 2 + 1,
            depth_left - 1,
            decisions,
            classes,
            first_leaf,
        );
        b.mux_word(d, &left, &right)
    }
    let class = select(&mut b, 1, spec.depth, &decisions, &classes, n_leaves);
    b.output("class", &class);
    crate::record_generated(b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::analyze;
    use netlist::sim::Simulator;
    use pdk::{CellLibrary, Technology};

    #[test]
    fn engine_evaluates_a_loaded_tree() {
        // Depth-2 engine: nodes 1..=3, leaves 0..=3. Load a tree over
        // feature port 0 (root) and ports 1, 2 (children).
        let spec = ParallelTreeSpec {
            depth: 2,
            width: 8,
            n_features: 3,
            class_bits: 5,
        };
        let m = generate(&spec);
        let mut sim = Simulator::new(&m);
        // Ports `f0..f2`, `thr0..thr2`, `cls0..cls3`. Thresholds: root
        // (node 0, feature 0) at 100; node 1 (feature 1) at 50; node 2
        // (feature 2) at 150. Leaves 0..=3 carry classes 10..=13.
        let mut check = |f0: u64, f1: u64, f2: u64, expect: u64| {
            let vector = [f0, f1, f2, 100, 50, 150, 10, 11, 12, 13];
            // One clock loads the registers.
            let class = sim.try_apply(&vector, 1);
            assert_eq!(class, Ok(vec![expect]), "f=({f0},{f1},{f2})");
        };
        // f0 <= 100 -> left subtree (node 1 on f1): f1 <= 50 -> leaf 0.
        check(80, 40, 0, 10);
        check(80, 60, 0, 11);
        // f0 > 100 -> right subtree (node 2 on f2).
        check(120, 0, 140, 12);
        check(120, 0, 160, 13);
    }

    #[test]
    fn area_explodes_with_depth() {
        // Table IV vs Table III: the parallel engine is ~20x bigger than
        // serial at the same depth because every node carries registers.
        let lib = CellLibrary::for_technology(Technology::Egt);
        let a = |d: usize| analyze(&generate(&ParallelTreeSpec::conventional(d)), &lib);
        let a2 = a(2);
        let a4 = a(4);
        let a6 = a(6);
        assert!(a4.area.ratio(a2.area) > 3.0);
        assert!(a6.area.ratio(a4.area) > 3.0);
        assert!(a4.dff_count > 15 * 16); // 2 8-bit registers per node
    }

    #[test]
    fn parallel_is_faster_than_depth_scaled_serial() {
        // The whole point of the parallel tree: single-cycle evaluation.
        use crate::conventional::serial_tree::{
            generate as gen_serial, SerialTreeProgram, SerialTreeSpec,
        };
        let lib = CellLibrary::for_technology(Technology::Egt);
        let d = 4;
        let par = analyze(&generate(&ParallelTreeSpec::conventional(d)), &lib);
        let spec = SerialTreeSpec::conventional(d);
        let prog = SerialTreeProgram {
            threshold_rom: vec![0; 1 << (d + 1)],
            class_rom: vec![0; 1 << d],
        };
        let ser = analyze(&gen_serial(&spec, &prog), &lib);
        // One combinational pass beats depth cycles of the serial engine.
        assert!(par.latency(1) < ser.latency(d));
    }

    #[test]
    fn gate_count_matches_full_tree_structure() {
        let spec = ParallelTreeSpec::conventional(3);
        let m = generate(&spec);
        // 7 comparators, 7 x 2 x 8 data DFFs + 8 x 5 class DFFs.
        assert_eq!(m.dff_count(), 7 * 2 * 8 + 8 * 5);
    }
}
