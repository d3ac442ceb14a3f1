//! Property-based tests over the core invariants of the reproduction.
//!
//! * every circuit generated from an *arbitrary* trained model computes
//!   that model's prediction, not just on the seven benchmark datasets;
//! * the logic optimizer never changes a circuit's function;
//! * the compiled kernel agrees with the scalar simulator at every lane
//!   count, and the fault grader with clone injection at every site;
//! * quantization is monotone;
//! * constant multipliers agree with integer multiplication for any
//!   coefficient.
//!
//! Random modules and datasets come from `check::gen`, the engine,
//! optimizer and whole-model properties are fixed seed blocks of
//! `check`'s oracles, and the per-family model properties use the model
//! oracle's comparison (`circuit_matches_model`). Each case draws its seed from a per-case deterministic
//! stream (`exec::task_seed`), so a failure reproduces exactly from the
//! printed case index.

use std::sync::Arc;

use check::oracle::{circuit_matches_model, run_oracle, Model};
use check::{gen, OracleKind};
use exec::rng::StdRng;
use exec::task_seed;

use printed_ml::core::bespoke::{bespoke_parallel, bespoke_serial, bespoke_svm};
use printed_ml::core::lookup::lookup_parallel;
use printed_ml::core::{bespoke_forest, LookupConfig, SvmFlow};
use printed_ml::ml::forest::{ForestParams, RandomForest};
use printed_ml::ml::quant::{FeatureQuantizer, QuantizedForest, QuantizedSvm, QuantizedTree};
use printed_ml::ml::tree::{DecisionTree, TreeParams};
use printed_ml::ml::{Dataset, SvmRegressor};
use printed_ml::netlist::arith::const_multiply;
use printed_ml::netlist::builder::NetlistBuilder;
use printed_ml::netlist::{optimize, CompiledNetlist, Module, RomInstance, Simulator, WideSim};

/// Runs `check` on `cases` deterministic pseudo-random cases.
fn cases(root: u64, count: u64, mut check: impl FnMut(u64, &mut StdRng)) {
    for i in 0..count {
        let mut rng = StdRng::seed_from_u64(task_seed(root, i));
        check(i, &mut rng);
    }
}

/// Runs `count` cases of the `kind` oracle on the `root` seed stream;
/// every case must agree.
fn oracle_block(kind: OracleKind, root: u64, count: u64) {
    for i in 0..count {
        let seed = task_seed(root, i);
        if let Err(e) = run_oracle(kind, seed) {
            panic!("{} case {i} (seed {seed:#x}): {e}", kind.name());
        }
    }
}

/// The scalar reference's outputs for each vector.
fn scalar_outputs(m: &Module, vectors: &[Vec<u64>]) -> Vec<Vec<u64>> {
    let mut sim = Simulator::try_new(m).expect("generated modules simulate");
    let apply = |v: &Vec<u64>| sim.try_apply(v, 0).expect("vectors fit the ports");
    vectors.iter().map(apply).collect()
}

/// A compiled kernel of `64 * W` lanes over `m`.
fn compiled<const W: usize>(m: &Module) -> WideSim<W> {
    let tape = CompiledNetlist::try_compile(m).expect("generated modules compile");
    WideSim::new(Arc::new(tape))
}

/// The compiled kernel's outputs for its first `lanes` lanes, one row
/// per lane.
fn lane_outputs<const W: usize>(sim: &WideSim<W>, m: &Module, lanes: usize) -> Vec<Vec<u64>> {
    let columns: Vec<Vec<u64>> = m
        .outputs
        .iter()
        .map(|p| sim.try_lanes(&p.name, lanes).expect("output port"))
        .collect();
    (0..lanes)
        .map(|lane| columns.iter().map(|c| c[lane]).collect())
        .collect()
}

/// A `check::gen` dataset's tree of depth 1 to `max_depth`, quantized
/// at `bits`, and the dataset's rows coded for it.
fn fitted_tree(rng: &mut StdRng, max_depth: usize, bits: usize) -> (QuantizedTree, Vec<Vec<u64>>) {
    let data = gen::random_dataset(rng.next_u64());
    let depth = rng.gen_range(1..=max_depth);
    let tree = DecisionTree::fit(&data, TreeParams::with_depth(depth));
    let fq = FeatureQuantizer::fit(&data, bits);
    (QuantizedTree::from_tree(&tree, &fq), coded_rows(&data, &fq))
}

/// Every row of `data`, coded by `fq`.
fn coded_rows(data: &Dataset, fq: &FeatureQuantizer) -> Vec<Vec<u64>> {
    data.x.iter().map(|row| fq.code_row(row)).collect()
}

/// The classes `module`, generated from `model`, computes at `cycles`
/// cycles per row; each must equal the model's prediction (`check`'s
/// model-oracle comparison).
fn classes(
    case: u64,
    model: Model<'_>,
    rows: &[Vec<u64>],
    module: &Module,
    cycles: usize,
) -> Vec<u64> {
    circuit_matches_model(model, &module.name, module, cycles, rows)
        .unwrap_or_else(|e| panic!("case {case}: {e}"))
}

/// Every digital tree, SVM and forest generator against its quantized
/// model (`check`'s model oracle).
#[test]
fn generated_circuits_match_their_models() {
    oracle_block(OracleKind::Model, 0xB15_0001, 24);
}

#[test]
fn bespoke_parallel_equals_model_on_random_datasets() {
    cases(0xB15_0001, 24, |case, rng| {
        let bits = rng.gen_range(3usize..=8);
        let (qt, rows) = fitted_tree(rng, 4, bits);
        classes(case, Model::Tree(&qt), &rows, &bespoke_parallel(&qt), 1);
    });
}

#[test]
fn lookup_tree_equals_model_on_random_datasets() {
    cases(0xB15_0002, 24, |case, rng| {
        let (qt, rows) = fitted_tree(rng, 4, 4);
        for config in [LookupConfig::baseline(), LookupConfig::optimized()] {
            classes(
                case,
                Model::Tree(&qt),
                &rows,
                &lookup_parallel(&qt, config),
                1,
            );
        }
    });
}

#[test]
fn bespoke_svm_equals_model_on_random_datasets() {
    cases(0xB15_0003, 24, |case, rng| {
        let data = gen::random_dataset(rng.next_u64());
        let fq = FeatureQuantizer::fit(&data, 6);
        let qs = QuantizedSvm::from_svm(&SvmRegressor::fit(&data, 60, 1e-3), &fq);
        let (rows, module) = (coded_rows(&data, &fq), bespoke_svm(&qs));
        classes(case, Model::Svm(&qs), &rows, &module, SvmFlow::CYCLES);
    });
}

#[test]
fn forest_hardware_matches_model_on_random_datasets() {
    cases(0xB15_0008, 16, |case, rng| {
        let data = gen::random_dataset(rng.next_u64());
        let (tree, fq) = (TreeParams::with_depth(3), FeatureQuantizer::fit(&data, 5));
        let forest = RandomForest::fit(
            &data,
            ForestParams {
                n_trees: 3,
                tree,
                seed: 5,
            },
        );
        let qf = QuantizedForest::from_forest(&forest, &fq);
        classes(
            case,
            Model::Forest(&qf),
            &coded_rows(&data, &fq),
            &bespoke_forest(&qf),
            1,
        );
    });
}

/// Both bespoke trees must compute the model's class, so each other's.
#[test]
fn serial_tree_matches_parallel_tree_on_random_datasets() {
    cases(0xB15_0009, 16, |case, rng| {
        let (qt, rows) = fitted_tree(rng, 3, 4);
        let (spec, serial) = bespoke_serial(&qt);
        let parallel = classes(case, Model::Tree(&qt), &rows, &bespoke_parallel(&qt), 1);
        let serial = classes(case, Model::Tree(&qt), &rows, &serial, spec.depth);
        assert_eq!(parallel, serial, "case {case}");
    });
}

#[test]
fn optimizer_preserves_function_of_random_circuits() {
    oracle_block(OracleKind::Optimizer, 0xB15_0004, 24);
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
        let data = gen::random_dataset(rng.next_u64());
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
        let width = m.output("p").unwrap().width().min(63);
        let mask = (1u64 << width) - 1;
        let got = Simulator::try_new(&m).and_then(|mut sim| sim.try_apply(&[x], 0));
        assert_eq!(got, Ok(vec![(x * k) & mask]), "case {case}: k={k} x={x}");
    });
}

#[test]
fn wide_sim_matches_scalar_on_random_circuits() {
    oracle_block(OracleKind::Engines, 0xB15_0007, 16);
}

#[test]
fn wide_sim_matches_scalar_at_every_lane_count() {
    // Partial words (lane counts below 64) must behave exactly like the
    // scalar simulator — bit 63 included (the sampled-mode mask bug
    // regression).
    for case in 0..4 {
        let seed = task_seed(0xB15_000A, case);
        let m = gen::random_module(seed);
        let mut narrow = compiled::<1>(&m);
        for lanes in 1usize..=64 {
            let vectors = gen::random_vectors(task_seed(seed, lanes as u64), &m, lanes);
            let image = narrow.try_pack_vectors(&vectors).unwrap();
            narrow.try_load_packed(&image).unwrap();
            narrow.settle();
            let got = lane_outputs(&narrow, &m, lanes);
            assert_eq!(
                got,
                scalar_outputs(&m, &vectors),
                "case {case} lanes={lanes}"
            );
        }
    }
}

/// The boundary lane counts of the compiled wide kernel: a single lane,
/// one bit either side of every word boundary, and the full 256-lane
/// width of `WideSim<4>`. Each packing must agree bit-for-bit with the
/// scalar simulator.
#[test]
fn wide_sim_matches_scalar_at_boundary_lane_counts() {
    for case in 0..4 {
        let seed = task_seed(0xB15_000C, case);
        let m = gen::random_module(seed);
        let mut wide = compiled::<4>(&m);
        for lanes in [1usize, 63, 64, 65, 255, 256] {
            let vectors = gen::random_vectors(task_seed(seed, lanes as u64), &m, lanes);
            let image = wide.try_pack_vectors(&vectors).unwrap();
            wide.try_load_packed(&image).unwrap();
            wide.settle();
            let got = lane_outputs(&wide, &m, lanes);
            assert_eq!(
                got,
                scalar_outputs(&m, &vectors),
                "case {case} lanes={lanes}"
            );
        }
    }
}

/// The fault grader's per-site verdicts must equal clone injection
/// (`faults::inject`) simulated on the scalar reference: a site counts as
/// detected iff some vector changes an output. The circuits are the
/// first of the seed block with no ROM, with a ROM the kernel evaluates
/// bitwise (1–3 address bits) and with one it evaluates per lane,
/// and the vector counts cover one lane, partial words, exactly one
/// 256-lane chunk and several chunks (faults dropped after an early
/// chunk must stay detected).
#[test]
fn fault_verdicts_match_clone_injection_per_site() {
    use printed_ml::netlist::faults::{fault_sites, inject};
    use printed_ml::netlist::try_fault_coverage;
    let rom_class = |m: &Module| {
        let wide = |r: &RomInstance| gen::WIDE_ROM_ADDR_BITS.contains(&r.addr.len());
        m.roms.first().map(wide)
    };
    let mut seen = Vec::new();
    for i in 0.. {
        let seed = task_seed(0xB15_000D, i);
        let m = gen::random_module(seed);
        if seen.contains(&rom_class(&m)) {
            continue;
        }
        seen.push(rom_class(&m));
        let vectors = gen::random_vectors(seed, &m, 600);
        let good = scalar_outputs(&m, &vectors);
        // The first vector that detects each site, if any does.
        let first_detection: Vec<_> = fault_sites(&m)
            .into_iter()
            .map(|fault| {
                let bad = scalar_outputs(&inject(&m, fault), &vectors);
                (fault, bad.iter().zip(&good).position(|(b, g)| b != g))
            })
            .collect();
        for count in [1usize, 63, 65, 256, 257, 600] {
            let cov = try_fault_coverage(&m, &vectors[..count]).unwrap();
            assert_eq!(cov.total, first_detection.len());
            for (fault, first) in &first_detection {
                assert_eq!(
                    !cov.undetected.contains(fault),
                    first.is_some_and(|v| v < count),
                    "case {i} vectors={count} fault={fault:?}"
                );
            }
        }
        if seen.len() == 3 {
            break;
        }
    }
}

/// The verification entry points shard their work over the pool but
/// share one compiled tape; the verdicts (and every counted vector) must
/// be identical at any worker count.
#[test]
fn verification_is_identical_at_1_4_and_8_threads() {
    use printed_ml::exec::with_threads;
    use printed_ml::netlist::{check_equivalence, try_fault_coverage};
    for case in 0..3 {
        let seed = task_seed(0xB15_000E, case);
        let m = gen::random_module(seed);
        let optimized = optimize(&m);
        let vectors = gen::random_vectors(seed, &m, 96);
        let run = || {
            (
                check_equivalence(&m, &optimized, 10, 300),
                try_fault_coverage(&m, &vectors),
            )
        };
        let one = with_threads(1, run);
        assert!(one.0.is_ok() && one.1.is_ok(), "case {case}: {one:?}");
        assert_eq!(one, with_threads(4, run), "case {case}");
        assert_eq!(one, with_threads(8, run), "case {case}");
    }
}
