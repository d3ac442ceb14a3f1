//! Property tests for the compiled lane-batched variation engine
//! (`analog::compile`): every report must be **bit-identical** to the
//! preserved scalar oracle (`analog::variation::reference`) across
//! trial counts that straddle the 64-trial lane-block boundary and
//! across thread counts, for both the tree and SVM sweeps. Each check
//! runs one sweep over all its sigmas, so the tape and row binding the
//! sweep shares across sigma points is what gets checked.

use printed_ml::analog::compile::{CompiledSvmVariation, CompiledTreeVariation};
use printed_ml::analog::variation::{
    expected_tree_agreement, reference, svm_variation_sweep, variation_sweep, VariationError,
    VariationReport,
};
use printed_ml::core::flow::{SvmFlow, TreeFlow};
use printed_ml::exec::rng::StdRng;
use printed_ml::exec::{parallel_map, with_threads};
use printed_ml::ml::data::Standardizer;
use printed_ml::ml::quant::{FeatureQuantizer, QuantizedSvm, QuantizedTree};
use printed_ml::ml::synth::Application;
use printed_ml::ml::tree::{DecisionTree, TreeParams};
use printed_ml::ml::SvmRegressor;

/// Trial counts straddling the lane-block boundary: a partial block, a
/// single full block, and a full block plus a one-lane remainder.
const TRIALS: [usize; 4] = [1, 5, 64, 65];
const THREADS: [usize; 3] = [1, 4, 8];

fn tree_workload(app: Application, depth: usize, bits: usize) -> (QuantizedTree, Vec<Vec<u64>>) {
    let data = app.generate(7);
    let (train, test) = data.split(0.7, 42);
    let tree = DecisionTree::fit(&train, TreeParams::with_depth(depth));
    let fq = FeatureQuantizer::fit(&train, bits);
    let qt = QuantizedTree::from_tree(&tree, &fq);
    let rows: Vec<Vec<u64>> = test.x.iter().take(50).map(|r| fq.code_row(r)).collect();
    (qt, rows)
}

fn svm_workload() -> (QuantizedSvm, Vec<Vec<u64>>) {
    svm_workload_at(8, 60)
}

fn svm_workload_at(bits: usize, n_rows: usize) -> (QuantizedSvm, Vec<Vec<u64>>) {
    let data = Application::RedWine.generate(7);
    let (train, test) = data.split(0.7, 42);
    let s = Standardizer::fit(&train);
    let (train, test) = (s.transform(&train), s.transform(&test));
    let svm = SvmRegressor::fit(&train, 150, 1e-4);
    let fq = FeatureQuantizer::fit(&train, bits);
    let qs = QuantizedSvm::from_svm(&svm, &fq);
    let rows: Vec<Vec<u64>> = test.x.iter().take(n_rows).map(|r| fq.code_row(r)).collect();
    assert_eq!(rows.len(), n_rows, "test split too small");
    (qs, rows)
}

/// The scalar oracle's report at each of `sigmas`.
fn oracle(sigmas: &[f64], one: impl Fn(f64) -> VariationReport) -> Vec<VariationReport> {
    sigmas.iter().map(|&sigma| one(sigma)).collect()
}

#[test]
fn compiled_tree_reports_are_bit_identical_to_reference() {
    let (qt, rows) = tree_workload(Application::Har, 4, 6);
    let sigmas = [0.05, 0.3];
    for trials in TRIALS {
        let oracle = oracle(&sigmas, |sigma| {
            reference::analyze_tree_variation(&qt, &rows, sigma, trials, 9)
        });
        for threads in THREADS {
            let compiled = with_threads(threads, || {
                variation_sweep(&qt, &rows, &sigmas, trials, 9).unwrap()
            });
            assert_eq!(compiled, oracle, "tree trials {trials} threads {threads}");
        }
    }
}

#[test]
fn compiled_tree_matches_reference_on_a_deep_tree() {
    // A deep tree has many splits off each trial's paths, so its lanes
    // draw only part of the tape. At sigma 1 most lanes also leave the
    // nominal path, so nearly every walk forks its lane mask.
    let (qt, rows) = tree_workload(Application::Pendigits, 8, 6);
    let splits = CompiledTreeVariation::compile(&qt).split_count();
    assert!(splits > 32, "want a deep tree, got {splits} splits");
    let sigmas = [0.1, 1.0];
    for trials in [5, 65] {
        let oracle = oracle(&sigmas, |sigma| {
            reference::analyze_tree_variation(&qt, &rows, sigma, trials, 21)
        });
        for threads in THREADS {
            let compiled = with_threads(threads, || {
                variation_sweep(&qt, &rows, &sigmas, trials, 21).unwrap()
            });
            assert_eq!(
                compiled, oracle,
                "deep tree trials {trials} threads {threads}"
            );
        }
    }
}

#[test]
fn compiled_svm_reports_are_bit_identical_to_reference() {
    // The 4-bit quantizer gives each feature at most 16 voltage levels
    // over 120 rows, so its crossbars divide once per level, not per row.
    let sigmas = [0.02, 0.3];
    for (bits, n_rows) in [(8, 60), (4, 120)] {
        let (qs, rows) = svm_workload_at(bits, n_rows);
        for trials in TRIALS {
            let oracle = oracle(&sigmas, |sigma| {
                reference::analyze_svm_variation(&qs, 11, &rows, sigma, trials, 5)
            });
            for threads in THREADS {
                let compiled = with_threads(threads, || {
                    svm_variation_sweep(&qs, 11, &rows, &sigmas, trials, 5).unwrap()
                });
                assert_eq!(
                    compiled, oracle,
                    "{bits}-bit svm trials {trials} threads {threads}"
                );
            }
        }
    }
}

/// `n` of `rows` drawn with replacement, as the `perf` benchmark samples
/// its evaluation rows: most of them more than once.
fn with_replacement(rows: &[Vec<u64>], n: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| rows[rng.gen_range(0..rows.len())].clone())
        .collect()
}

#[test]
fn duplicate_rows_count_by_multiplicity_in_both_engines() {
    // Each engine binds a distinct row once and weighs its agreement by
    // its multiplicity; the reference evaluates every row.
    let (qt, rows) = tree_workload(Application::Har, 4, 6);
    let tree_rows = with_replacement(&rows[..20], 60, 1);
    let (qs, rows) = svm_workload_at(8, 30);
    let svm_rows = with_replacement(&rows, 90, 2);
    for rows in [&tree_rows, &svm_rows] {
        let distinct: std::collections::HashSet<&Vec<u64>> = rows.iter().collect();
        assert!(distinct.len() * 3 < rows.len() * 2, "too few duplicates");
    }
    let sigmas = [0.05, 0.3];
    for trials in [5, 65] {
        let tree_oracle = oracle(&sigmas, |sigma| {
            reference::analyze_tree_variation(&qt, &tree_rows, sigma, trials, 13)
        });
        let svm_oracle = oracle(&sigmas, |sigma| {
            reference::analyze_svm_variation(&qs, 11, &svm_rows, sigma, trials, 13)
        });
        for threads in THREADS {
            let (tree, svm) = with_threads(threads, || {
                (
                    variation_sweep(&qt, &tree_rows, &sigmas, trials, 13).unwrap(),
                    svm_variation_sweep(&qs, 11, &svm_rows, &sigmas, trials, 13).unwrap(),
                )
            });
            assert_eq!(tree, tree_oracle, "tree trials {trials} threads {threads}");
            assert_eq!(svm, svm_oracle, "svm trials {trials} threads {threads}");
        }
    }
    let engine = CompiledSvmVariation::compile(&qs, 11);
    assert_eq!(engine.bind(&svm_rows).len(), svm_rows.len());
}

#[test]
fn zero_sigma_agreement_is_perfect_in_both_engines() {
    let (qt, rows) = tree_workload(Application::Har, 4, 6);
    let oracle = reference::analyze_tree_variation(&qt, &rows, 0.0, 65, 3);
    let compiled = variation_sweep(&qt, &rows, &[0.0], 65, 3).unwrap();
    assert_eq!(compiled, [oracle]);
    assert_eq!(compiled[0].mean_agreement, 1.0);
    assert_eq!(compiled[0].worst_agreement, 1.0);

    let (qs, svm_rows) = svm_workload();
    let oracle = reference::analyze_svm_variation(&qs, 11, &svm_rows, 0.0, 65, 3);
    let compiled = svm_variation_sweep(&qs, 11, &svm_rows, &[0.0], 65, 3).unwrap();
    assert_eq!(compiled, [oracle]);
    assert_eq!(compiled[0].mean_agreement, 1.0);
    assert_eq!(compiled[0].worst_agreement, 1.0);
}

#[test]
fn flow_sweeps_reject_bad_input_with_typed_errors() {
    // Each of these used to panic in a pool worker or an `assert!`.
    let tree = TreeFlow::new(Application::Har, 2, 7);
    assert!(matches!(
        tree.variation_sweep(&[f64::NAN], 8, 10, 7),
        Err(VariationError::BadSigma(s)) if s.is_nan()
    ));
    assert_eq!(
        tree.variation_sweep(&[0.1, -0.5], 8, 10, 7),
        Err(VariationError::BadSigma(-0.5))
    );
    assert_eq!(
        tree.variation_sweep(&[0.1], 0, 10, 7),
        Err(VariationError::NoTrials)
    );
    assert_eq!(
        tree.variation_sweep(&[0.1], 8, 0, 7),
        Err(VariationError::NoRows)
    );

    let svm = SvmFlow::new(Application::RedWine, 7);
    assert_eq!(
        svm.variation_sweep(&[200.0], 8, 10, 7),
        Err(VariationError::BadSvmSigma(200.0))
    );
    assert_eq!(
        svm.variation_sweep(&[0.1], 0, 10, 7),
        Err(VariationError::NoTrials)
    );
    assert_eq!(
        svm.variation_sweep(&[0.1], 8, 0, 7),
        Err(VariationError::NoRows)
    );
    assert!(svm.variation_sweep(&[0.0, 10.0], 8, 10, 7).is_ok());
    // A feature count below the crossbar's highest row plus one used to
    // panic with an index out of bounds in `AnalogSvm::from_svm`.
    let terms = svm.qs.pos_terms().iter().chain(svm.qs.neg_terms());
    let need = terms.map(|&(f, _)| f + 1).max().unwrap();
    assert!(need > 3, "the crossbar reads only features 0..{need}");
    let err = svm_variation_sweep(&svm.qs, 3, &svm.coded_rows(10), &[0.1], 8, 7).unwrap_err();
    assert_eq!(
        err,
        VariationError::FewFeatures {
            n_features: 3,
            need
        }
    );
    assert_eq!(
        err.to_string(),
        format!("SVM declares 3 features, its crossbar reads {need}")
    );
}

#[test]
fn bound_rows_are_reusable_across_sigmas_and_seeds() {
    let (qs, rows) = svm_workload();
    let engine = CompiledSvmVariation::compile(&qs, 11);
    let bound = engine.bind(&rows);
    assert_eq!(bound.len(), rows.len());
    for (sigma, seed) in [(0.05, 1u64), (0.2, 9)] {
        assert_eq!(
            engine.analyze(&bound, sigma, 10, seed),
            reference::analyze_svm_variation(&qs, 11, &rows, sigma, 10, seed),
            "sigma {sigma} seed {seed}"
        );
    }
}

#[test]
fn short_rows_are_typed_errors_and_ragged_svm_rows_run() {
    // Each of these used to panic inside `bind` or the crossbar.
    let (qt, rows) = tree_workload(Application::Har, 4, 6);
    let need = qt.used_features().last().unwrap() + 1;
    let mut short = rows.clone();
    short[3].truncate(need - 1);
    assert_eq!(
        variation_sweep(&qt, &short, &[0.1], 4, 1),
        Err(VariationError::ShortRow {
            row: 3,
            len: need - 1,
            need
        })
    );
    // Codes past the last feature a split reads are never read.
    let mut trimmed = rows.clone();
    trimmed[3].truncate(need);
    assert_eq!(
        variation_sweep(&qt, &trimmed, &[0.1], 65, 1),
        variation_sweep(&qt, &rows, &[0.1], 65, 1)
    );

    let (qs, rows) = svm_workload();
    let terms = qs.pos_terms().iter().chain(qs.neg_terms());
    let need = terms.map(|&(f, _)| f + 1).max().unwrap();
    let mut short = rows.clone();
    short[0].truncate(need - 1);
    let err = svm_variation_sweep(&qs, 11, &short, &[0.1], 4, 1).unwrap_err();
    assert_eq!(
        err,
        VariationError::ShortRow {
            row: 0,
            len: need - 1,
            need
        }
    );
    assert_eq!(
        err.to_string(),
        format!("row 0 has {} feature codes, need {need}", need - 1)
    );
    // Ragged rows that cover the crossbar run, bit-identical to the
    // reference, which reads each row on its own.
    let mut ragged = rows.clone();
    ragged[1].extend([3, 1, 4]);
    ragged[2].truncate(need);
    let sweep = svm_variation_sweep(&qs, 11, &ragged, &[0.1], 65, 1).unwrap();
    assert_eq!(
        sweep,
        [reference::analyze_svm_variation(
            &qs, 11, &ragged, 0.1, 65, 1
        )]
    );
    assert_eq!(
        sweep,
        svm_variation_sweep(&qs, 11, &rows, &[0.1], 65, 1).unwrap()
    );
}

#[test]
fn tree_means_lie_within_five_standard_errors_of_the_closed_form() {
    // The `perf` benchmark's variation trees: every application at
    // depths 4 and 8, at its three sigmas. The closed form draws no
    // random numbers, so it checks the engine's log-domain decisions
    // from outside the shared RNG stream.
    //
    // The standard error comes from the trials' own spread: 16 sweeps of
    // one 64-trial lane block each, at seeds 7 to 22, are 16 independent
    // batch means, whose sample variance over 16 estimates the variance
    // of their overall mean. A one-trial sweep costs about as much as a
    // whole block, so per-trial sweeps would take ~50x as long.
    const SIGMAS: [f64; 3] = [0.05, 0.1, 0.2];
    const BATCHES: u64 = 16;
    const BATCH_TRIALS: usize = 64;
    for app in Application::ALL {
        for depth in [4, 8] {
            let flow = TreeFlow::new(app, depth, 7);
            let rows = flow.coded_rows(100);
            let engine = CompiledTreeVariation::compile(&flow.qt);
            let bound = engine.bind(&rows);
            // One missed row in one trial: the finest step the mean takes.
            let resolution = 1.0 / (rows.len() * BATCH_TRIALS * BATCHES as usize) as f64;
            for sigma in SIGMAS {
                let seeds: Vec<u64> = (7..7 + BATCHES).collect();
                let batches = parallel_map(&seeds, |_, &seed| {
                    engine
                        .analyze(&bound, sigma, BATCH_TRIALS, seed)
                        .mean_agreement
                });
                let n = BATCHES as f64;
                let mean = batches.iter().sum::<f64>() / n;
                let var = batches.iter().map(|b| (b - mean).powi(2)).sum::<f64>() / (n - 1.0);
                let tolerance = 5.0 * (var / n).sqrt() + resolution;
                let m = expected_tree_agreement(&flow.qt, &rows, sigma).unwrap();
                let gap = (mean - m).abs();
                assert!(
                    gap <= tolerance,
                    "{app:?} DT-{depth} sigma {sigma}: Monte-Carlo {mean} vs exact {m} \
                     (gap {gap:e} > {tolerance:e})"
                );
            }
        }
    }
}
