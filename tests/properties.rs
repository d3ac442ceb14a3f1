//! Property-based tests over the core invariants of the reproduction.
//!
//! * hardware/software equivalence holds for *arbitrary* trained models,
//!   not just the seven benchmark datasets;
//! * the logic optimizer never changes a circuit's function;
//! * quantization is monotone;
//! * constant multipliers agree with integer multiplication for any
//!   coefficient.
//!
//! Each property runs over a fixed batch of pseudo-random cases drawn
//! from per-case deterministic seed streams (`exec::task_seed`), so a
//! failure reproduces exactly from the printed case index.

use exec::rng::StdRng;
use exec::task_seed;

use printed_ml::core::bespoke::{bespoke_parallel, bespoke_svm};
use printed_ml::core::lookup::{lookup_parallel, LookupConfig};
use printed_ml::ml::quant::{FeatureQuantizer, QuantizedSvm, QuantizedTree};
use printed_ml::ml::tree::{DecisionTree, TreeParams};
use printed_ml::ml::{Dataset, SvmRegressor};
use printed_ml::netlist::arith::const_multiply;
use printed_ml::netlist::builder::NetlistBuilder;
use printed_ml::netlist::ir::Signal;
use printed_ml::netlist::{optimize, Simulator};
use printed_ml::pdk::CellKind;

/// Runs `check` on `cases` deterministic pseudo-random cases.
fn cases(root: u64, count: u64, mut check: impl FnMut(u64, &mut StdRng)) {
    for i in 0..count {
        let mut rng = StdRng::seed_from_u64(task_seed(root, i));
        check(i, &mut rng);
    }
}

/// A small random labelled dataset (2-4 features, 2-4 classes).
fn random_dataset(rng: &mut StdRng) -> Dataset {
    let n_features = rng.gen_range(2usize..=4);
    let n_classes = rng.gen_range(2usize..=4);
    let n_samples = rng.gen_range(20usize..=60);
    let mut x = Vec::with_capacity(n_samples);
    let mut y = Vec::with_capacity(n_samples);
    for _ in 0..n_samples {
        let label = rng.gen_range(0usize..n_classes);
        let row: Vec<f64> = (0..n_features)
            .map(|f| rng.gen_range(-2.0f64..2.0) + (label as f64) * 0.4 * ((f % 2) as f64))
            .collect();
        x.push(row);
        y.push(label);
    }
    Dataset::new("prop", x, y, n_classes)
}

/// A random combinational DAG mixing constants and nets.
fn random_circuit(
    rng: &mut StdRng,
    n_gates: usize,
    n_inputs: usize,
    n_outputs: usize,
) -> printed_ml::netlist::Module {
    let mut b = NetlistBuilder::new("random");
    let inputs = b.input("x", n_inputs);
    let mut pool: Vec<Signal> = inputs.clone();
    pool.push(Signal::ZERO);
    pool.push(Signal::ONE);
    let kinds = [
        CellKind::Inv,
        CellKind::And2,
        CellKind::Or2,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Mux2,
        CellKind::Buf,
    ];
    for _ in 0..n_gates {
        let kind = kinds[rng.gen_range(0usize..kinds.len())];
        let ins: Vec<Signal> = (0..kind.input_count())
            .map(|_| pool[rng.gen_range(0usize..pool.len())])
            .collect();
        let out = b.gate(kind, &ins);
        pool.push(out);
    }
    let outs: Vec<Signal> = pool.iter().rev().take(n_outputs).copied().collect();
    b.output("o", &outs);
    b.finish()
}

#[test]
fn bespoke_parallel_equals_model_on_random_datasets() {
    cases(0xB15_0001, 24, |case, rng| {
        let data = random_dataset(rng);
        let depth = rng.gen_range(1usize..=4);
        let bits = rng.gen_range(3usize..=8);
        let tree = DecisionTree::fit(&data, TreeParams::with_depth(depth));
        let fq = FeatureQuantizer::fit(&data, bits);
        let qt = QuantizedTree::from_tree(&tree, &fq);
        let module = bespoke_parallel(&qt);
        let mut sim = Simulator::new(&module);
        let used = qt.used_features();
        for row in data.x.iter().take(30) {
            let codes = fq.code_row(row);
            for (slot, &f) in used.iter().enumerate() {
                sim.set(&format!("f{slot}"), codes[f]);
            }
            sim.settle();
            assert_eq!(sim.get("class") as usize, qt.predict(&codes), "case {case}");
        }
    });
}

#[test]
fn lookup_tree_equals_model_on_random_datasets() {
    cases(0xB15_0002, 24, |case, rng| {
        let data = random_dataset(rng);
        let depth = rng.gen_range(1usize..=4);
        let tree = DecisionTree::fit(&data, TreeParams::with_depth(depth));
        let fq = FeatureQuantizer::fit(&data, 4);
        let qt = QuantizedTree::from_tree(&tree, &fq);
        let module = lookup_parallel(&qt, LookupConfig::optimized());
        let mut sim = Simulator::new(&module);
        let used = qt.used_features();
        for row in data.x.iter().take(30) {
            let codes = fq.code_row(row);
            for (slot, &f) in used.iter().enumerate() {
                sim.set(&format!("f{slot}"), codes[f]);
            }
            sim.settle();
            assert_eq!(sim.get("class") as usize, qt.predict(&codes), "case {case}");
        }
    });
}

#[test]
fn bespoke_svm_equals_model_on_random_datasets() {
    cases(0xB15_0003, 24, |case, rng| {
        let data = random_dataset(rng);
        let svm = SvmRegressor::fit(&data, 60, 1e-3);
        let fq = FeatureQuantizer::fit(&data, 6);
        let qs = QuantizedSvm::from_svm(&svm, &fq);
        let module = bespoke_svm(&qs);
        let mut sim = Simulator::new(&module);
        for row in data.x.iter().take(25) {
            let codes = fq.code_row(row);
            for &(f, _) in qs.pos_terms().iter().chain(qs.neg_terms()) {
                sim.set(&format!("x{f}"), codes[f]);
            }
            sim.settle();
            assert_eq!(sim.get("class") as usize, qs.predict(&codes), "case {case}");
        }
    });
}

#[test]
fn optimizer_preserves_function_of_random_circuits() {
    cases(0xB15_0004, 24, |case, rng| {
        let n_gates = rng.gen_range(4usize..40);
        let n_inputs = rng.gen_range(2usize..6);
        let original = random_circuit(rng, n_gates, n_inputs, 4);
        let optimized = optimize(&original);
        assert!(
            optimized.gate_count() <= original.gate_count(),
            "case {case}"
        );
        let mut s0 = Simulator::new(&original);
        let mut s1 = Simulator::new(&optimized);
        for v in 0..(1u64 << n_inputs) {
            s0.set("x", v);
            s1.set("x", v);
            s0.settle();
            s1.settle();
            assert_eq!(s0.get("o"), s1.get("o"), "case {case} input {v}");
        }
    });
}

/// The worklist optimizer must be equivalence-preserving on the module
/// family the flows actually feed it: raw bespoke tree and SVM netlists
/// for arbitrary trained models, checked with the lane-parallel miter
/// (`verify::check_equivalence`) rather than a hand-rolled simulation
/// loop. Seeds come from `exec`'s SplitMix64 task streams, so every case
/// reproduces from its printed index at any thread count.
#[test]
fn optimizer_is_equivalence_preserving_on_bespoke_models() {
    use printed_ml::core::bespoke::{bespoke_parallel_raw, bespoke_svm_raw};
    use printed_ml::netlist::{check_equivalence, Equivalence};
    cases(0xB15_000B, 10, |case, rng| {
        let data = random_dataset(rng);
        let raw = if case % 2 == 0 {
            let depth = rng.gen_range(1usize..=4);
            let bits = rng.gen_range(3usize..=6);
            let tree = DecisionTree::fit(&data, TreeParams::with_depth(depth));
            let fq = FeatureQuantizer::fit(&data, bits);
            bespoke_parallel_raw(&QuantizedTree::from_tree(&tree, &fq))
        } else {
            let svm = SvmRegressor::fit(&data, 60, 1e-3);
            let fq = FeatureQuantizer::fit(&data, 5);
            bespoke_svm_raw(&QuantizedSvm::from_svm(&svm, &fq))
        };
        let optimized = optimize(&raw);
        assert!(optimized.gate_count() <= raw.gate_count(), "case {case}");
        let verdict = check_equivalence(&raw, &optimized, 14, 512).expect("comparable ports");
        match verdict {
            Equivalence::Equivalent { vectors, .. } => {
                assert!(vectors > 0, "case {case}: no vectors tried")
            }
            Equivalence::CounterExample(v) => {
                panic!("case {case}: optimizer changed function at {v:?}")
            }
        }
    });
}

#[test]
fn quantizer_is_monotone_and_bounded() {
    cases(0xB15_0005, 24, |case, rng| {
        let n_values = rng.gen_range(10usize..40);
        let bits = rng.gen_range(2usize..=12);
        let values: Vec<f64> = (0..n_values).map(|_| rng.gen_range(-1e3f64..1e3)).collect();
        let rows: Vec<Vec<f64>> = values.iter().map(|&v| vec![v]).collect();
        let labels = vec![0usize; rows.len()];
        let data = Dataset::new("q", rows, labels, 1);
        let fq = FeatureQuantizer::fit(&data, bits);
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let codes: Vec<u64> = sorted.iter().map(|&v| fq.code(0, v)).collect();
        for pair in codes.windows(2) {
            assert!(
                pair[0] <= pair[1],
                "case {case}: quantizer must be monotone"
            );
        }
        assert!(codes.iter().all(|&c| c <= fq.max_code()), "case {case}");
        // Extremes hit the rails.
        assert_eq!(codes[0], 0, "case {case}");
        assert_eq!(*codes.last().unwrap(), fq.max_code(), "case {case}");
    });
}

#[test]
fn const_multiplier_is_exact_for_any_coefficient() {
    cases(0xB15_0006, 40, |case, rng| {
        let k = rng.gen_range(0u64..1000);
        let x = rng.gen_range(0u64..256);
        let mut b = NetlistBuilder::new("cm");
        let xin = b.input("x", 8);
        let p = const_multiply(&mut b, &xin, k);
        b.output("p", &p);
        let m = b.finish();
        let mut sim = Simulator::new(&m);
        sim.set("x", x);
        sim.settle();
        let width = m.output("p").unwrap().width().min(63);
        let mask = (1u64 << width) - 1;
        assert_eq!(sim.get("p"), (x * k) & mask, "case {case}: k={k} x={x}");
    });
}

/// A 64-lane compiled kernel (`WideSim<1>`) over `m`.
fn narrow_sim(m: &printed_ml::netlist::Module) -> printed_ml::netlist::WideSim<1> {
    use printed_ml::netlist::{CompiledNetlist, WideSim};
    WideSim::new(std::sync::Arc::new(CompiledNetlist::compile(m)))
}

#[test]
fn wide_sim_matches_scalar_on_random_circuits() {
    cases(0xB15_0007, 16, |case, rng| {
        let n_gates = rng.gen_range(4usize..30);
        let n_inputs = rng.gen_range(2usize..6);
        let m = random_circuit(rng, n_gates, n_inputs, 3);
        let vectors: Vec<u64> = (0..(1u64 << n_inputs)).collect();
        let mut narrow = narrow_sim(&m);
        narrow.set_lanes("x", &vectors);
        narrow.settle();
        let got = narrow.lanes("o", vectors.len());
        let mut scalar = Simulator::new(&m);
        for (lane, &v) in vectors.iter().enumerate() {
            scalar.set("x", v);
            scalar.settle();
            assert_eq!(got[lane], scalar.get("o"), "case {case} v={v}");
        }
    });
}

#[test]
fn wide_sim_matches_scalar_at_every_lane_count() {
    // Partial words (lane counts below 64) must behave exactly like the
    // scalar simulator — bit 63 included (the sampled-mode mask bug
    // regression).
    cases(0xB15_000A, 4, |case, rng| {
        let n_gates = rng.gen_range(8usize..30);
        let n_inputs = rng.gen_range(2usize..6);
        let m = random_circuit(rng, n_gates, n_inputs, 3);
        let mut narrow = narrow_sim(&m);
        let mut scalar = Simulator::new(&m);
        for lanes in 1usize..=64 {
            let vectors: Vec<u64> = (0..lanes)
                .map(|_| rng.gen_range(0u64..(1u64 << n_inputs)))
                .collect();
            narrow.set_lanes("x", &vectors);
            narrow.settle();
            let got = narrow.lanes("o", lanes);
            for (lane, &v) in vectors.iter().enumerate() {
                scalar.set("x", v);
                scalar.settle();
                assert_eq!(
                    got[lane],
                    scalar.get("o"),
                    "case {case} lanes={lanes} lane={lane} v={v}"
                );
            }
        }
    });
}

/// The boundary lane counts of the compiled wide kernel: a single lane,
/// one bit either side of every word boundary, and the full 256-lane
/// width of `WideSim<4>`. Each packing must agree bit-for-bit with the
/// scalar simulator.
#[test]
fn wide_sim_matches_scalar_at_boundary_lane_counts() {
    use printed_ml::netlist::{CompiledNetlist, WideSim};
    use std::sync::Arc;
    cases(0xB15_000C, 4, |case, rng| {
        let n_gates = rng.gen_range(8usize..30);
        let n_inputs = rng.gen_range(2usize..6);
        let m = random_circuit(rng, n_gates, n_inputs, 3);
        let mut wide: WideSim<4> = WideSim::new(Arc::new(CompiledNetlist::compile(&m)));
        let mut scalar = Simulator::new(&m);
        for lanes in [1usize, 63, 64, 65, 255, 256] {
            let vectors: Vec<Vec<u64>> = (0..lanes)
                .map(|_| vec![rng.gen_range(0u64..(1u64 << n_inputs))])
                .collect();
            let image = wide.pack_vectors(&vectors);
            wide.load_packed(&image);
            wide.settle();
            let got = wide.lanes("o", lanes);
            for (lane, v) in vectors.iter().enumerate() {
                scalar.set("x", v[0]);
                scalar.settle();
                assert_eq!(
                    got[lane],
                    scalar.get("o"),
                    "case {case} lanes={lanes} lane={lane} v={}",
                    v[0]
                );
            }
        }
    });
}

/// In-place fault injection in the compiled kernel must behave exactly
/// like structurally rewriting the netlist (`faults::inject`) and
/// simulating the mutated module scalar-style — at every boundary lane
/// count, for stuck-at-0 and stuck-at-1 sites alike.
#[test]
fn wide_sim_matches_scalar_under_injected_faults() {
    use printed_ml::netlist::faults::{fault_sites, inject};
    use printed_ml::netlist::{CompiledNetlist, WideSim};
    use std::sync::Arc;
    cases(0xB15_000D, 3, |case, rng| {
        let n_inputs = rng.gen_range(2usize..5);
        let n_gates = rng.gen_range(8usize..24);
        let m = random_circuit(rng, n_gates, n_inputs, 2);
        let mut wide: WideSim<4> = WideSim::new(Arc::new(CompiledNetlist::compile(&m)));
        let sites = fault_sites(&m);
        // Sample up to 8 sites; the kernel's own unit tests sweep all of
        // them on a fixed circuit, this property varies the circuit.
        let stride = sites.len().div_ceil(8).max(1);
        for fault in sites.iter().step_by(stride) {
            let faulty = inject(&m, *fault);
            let mut scalar = Simulator::new(&faulty);
            wide.inject_fault(fault.net, fault.stuck_at);
            for lanes in [1usize, 63, 64, 65, 255, 256] {
                let vectors: Vec<Vec<u64>> = (0..lanes)
                    .map(|_| vec![rng.gen_range(0u64..(1u64 << n_inputs))])
                    .collect();
                let image = wide.pack_vectors(&vectors);
                wide.load_packed(&image);
                wide.settle();
                let got = wide.lanes("o", lanes);
                for (lane, v) in vectors.iter().enumerate() {
                    scalar.set("x", v[0]);
                    scalar.settle();
                    assert_eq!(
                        got[lane],
                        scalar.get("o"),
                        "case {case} fault={fault:?} lanes={lanes} lane={lane}"
                    );
                }
            }
            wide.clear_fault();
        }
    });
}

/// The verification entry points shard their work over the pool but
/// share one compiled tape; the verdicts (and every counted vector) must
/// be identical at any worker count.
#[test]
fn verification_is_identical_at_1_4_and_8_threads() {
    use printed_ml::exec::with_threads;
    use printed_ml::netlist::{check_equivalence, fault_coverage};
    cases(0xB15_000E, 3, |case, rng| {
        let n_inputs = rng.gen_range(3usize..6);
        let n_gates = rng.gen_range(10usize..40);
        let m = random_circuit(rng, n_gates, n_inputs, 3);
        let optimized = optimize(&m);
        let vectors: Vec<Vec<u64>> = (0..96)
            .map(|_| vec![rng.gen_range(0u64..(1u64 << n_inputs))])
            .collect();
        let run = || {
            (
                check_equivalence(&m, &optimized, 10, 300).expect("comparable ports"),
                fault_coverage(&m, &vectors),
            )
        };
        let one = with_threads(1, run);
        let four = with_threads(4, run);
        let eight = with_threads(8, run);
        assert_eq!(one, four, "case {case}");
        assert_eq!(one, eight, "case {case}");
    });
}

#[test]
fn forest_hardware_matches_model_on_random_datasets() {
    use printed_ml::core::bespoke_forest;
    use printed_ml::ml::forest::{ForestParams, RandomForest};
    use printed_ml::ml::quant::QuantizedForest;
    cases(0xB15_0008, 16, |case, rng| {
        let data = random_dataset(rng);
        let forest = RandomForest::fit(
            &data,
            ForestParams {
                n_trees: 3,
                tree: TreeParams::with_depth(3),
                seed: 5,
            },
        );
        let fq = FeatureQuantizer::fit(&data, 5);
        let qf = QuantizedForest::from_forest(&forest, &fq);
        let module = bespoke_forest(&qf);
        let mut sim = Simulator::new(&module);
        for row in data.x.iter().take(20) {
            let codes = fq.code_row(row);
            for &f in &qf.used_features() {
                sim.set(&format!("f{f}"), codes[f]);
            }
            sim.settle();
            assert_eq!(sim.get("class") as usize, qf.predict(&codes), "case {case}");
        }
    });
}

#[test]
fn serial_tree_matches_parallel_tree_on_random_datasets() {
    use printed_ml::core::bespoke::bespoke_serial;
    cases(0xB15_0009, 16, |case, rng| {
        let data = random_dataset(rng);
        let depth = rng.gen_range(1usize..=3);
        let tree = DecisionTree::fit(&data, TreeParams::with_depth(depth));
        let fq = FeatureQuantizer::fit(&data, 4);
        let qt = QuantizedTree::from_tree(&tree, &fq);
        let parallel = bespoke_parallel(&qt);
        let (spec, serial) = bespoke_serial(&qt);
        let mut psim = Simulator::new(&parallel);
        let mut ssim = Simulator::new(&serial);
        let used = qt.used_features();
        for row in data.x.iter().take(20) {
            let codes = fq.code_row(row);
            for (slot, &f) in used.iter().enumerate() {
                psim.set(&format!("f{slot}"), codes[f]);
            }
            psim.settle();
            ssim.reset();
            for (slot, &f) in used.iter().enumerate() {
                ssim.set(&format!("f{slot}"), codes[f]);
            }
            for _ in 0..spec.depth {
                ssim.step();
            }
            ssim.settle();
            assert_eq!(psim.get("class"), ssim.get("class"), "case {case}");
        }
    });
}
