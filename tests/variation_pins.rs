//! Pins the analog Monte-Carlo reports of the `perf` benchmark's
//! `variation` models, bit for bit.
//!
//! The compiled variation engine (`analog::compile`) is rewritten for
//! speed from time to time; each rewrite must draw the same numbers and
//! do the same floating-point work, so no report may move. The models
//! are the benchmark's 21: seed-7 `TreeFlow`s at depths 4 and 8 and a
//! seed-7 `SvmFlow` for every application, each evaluated on 100 test
//! rows drawn with replacement by seed 7. Each model is swept over the
//! benchmark's sigmas at 130 trials (two full 64-trial lane blocks and a
//! remainder, which keeps the debug-build runtime small), and the test
//! pins `f64::to_bits` of every report's mean and worst agreement.

use printed_ml::analog::variation::{svm_variation_sweep, variation_sweep};
use printed_ml::analog::VariationReport;
use printed_ml::cache;
use printed_ml::core::flow::{SvmFlow, TreeFlow};
use printed_ml::exec::rng::StdRng;
use printed_ml::ml::data::Dataset;
use printed_ml::ml::quant::FeatureQuantizer;
use printed_ml::ml::synth::Application;

/// Model, row-sampling and Monte-Carlo seed.
const SEED: u64 = 7;
/// Sampled test rows every trial evaluates.
const ROWS: usize = 100;
/// Relative print-variation sigmas swept per model.
const SIGMAS: [f64; 3] = [0.05, 0.1, 0.2];
/// Monte-Carlo trials per sigma point.
const TRIALS: usize = 130;

/// `(model, [(mean bits, worst bits); SIGMAS.len()])`.
type Pin = (String, [(u64, u64); 3]);

const PINNED: &[(&str, [(u64, u64); 3])] = &[
    (
        "arrhythmia/DT-4",
        [
            (0x3ff0000000000000, 0x3ff0000000000000),
            (0x3feff68c359025d1, 0x3fee666666666666),
            (0x3fee91e170028545, 0x3fe947ae147ae148),
        ],
    ),
    (
        "arrhythmia/DT-8",
        [
            (0x3ff0000000000000, 0x3ff0000000000000),
            (0x3feff3659cc03268, 0x3fee666666666666),
            (0x3fee10b2f6b48a02, 0x3fe947ae147ae148),
        ],
    ),
    (
        "arrhythmia/SVM",
        [
            (0x3feba54202349e2a, 0x3fe7ae147ae147ae),
            (0x3fe7ad73291e1705, 0x3fe3d70a3d70a3d7),
            (0x3fe3b5a450078fd3, 0x3fe0000000000000),
        ],
    ),
    (
        "cardio/DT-4",
        [
            (0x3fefec77195d1aec, 0x3fef5c28f5c28f5c),
            (0x3fefb5a450078fd1, 0x3feeb851eb851eb8),
            (0x3fef5b87a3ff5ea5, 0x3fee147ae147ae14),
        ],
    ),
    (
        "cardio/DT-8",
        [
            (0x3feff181a776a05d, 0x3fefae147ae147ae),
            (0x3fefce37c4c3fa4f, 0x3fef0a3d70a3d70a),
            (0x3fef6e6f38df1310, 0x3fee666666666666),
        ],
    ),
    (
        "cardio/SVM",
        [
            (0x3feffd7ab8f33d49, 0x3fef5c28f5c28f5c),
            (0x3fefe445f273a21c, 0x3fef5c28f5c28f5c),
            (0x3fef99ea427b31ec, 0x3feeb851eb851eb8),
        ],
    ),
    (
        "gasid/DT-4",
        [
            (0x3fefbd34252dd7f0, 0x3fef0a3d70a3d70a),
            (0x3fef91b91b91b914, 0x3fee666666666666),
            (0x3fef0cc2b7b099b9, 0x3fed70a3d70a3d71),
        ],
    ),
    (
        "gasid/DT-8",
        [
            (0x3fefab8f33d484ec, 0x3fef0a3d70a3d70a),
            (0x3fef7a684a5baff4, 0x3fee666666666666),
            (0x3feeff8702ad9b76, 0x3fed70a3d70a3d71),
        ],
    ),
    (
        "gasid/SVM",
        [
            (0x3feff222f939d10c, 0x3fef5c28f5c28f5c),
            (0x3fefc2e0050a8e1a, 0x3fee666666666666),
            (0x3fef72d8753567ce, 0x3feccccccccccccd),
        ],
    ),
    (
        "har/DT-4",
        [
            (0x3feffa54202349e0, 0x3fef5c28f5c28f5c),
            (0x3fefc0fc0fc0fc0c, 0x3fef0a3d70a3d70a),
            (0x3fef62762762761e, 0x3fee147ae147ae14),
        ],
    ),
    (
        "har/DT-8",
        [
            (0x3feff0e055b36fad, 0x3fef5c28f5c28f5c),
            (0x3fef962257e80dd9, 0x3fee666666666666),
            (0x3fef0532e28a5197, 0x3fee147ae147ae14),
        ],
    ),
    (
        "har/SVM",
        [
            (0x3fef659cc0326988, 0x3fed70a3d70a3d71),
            (0x3fee82c1c5b5f4f7, 0x3fe8f5c28f5c28f6),
            (0x3fec9190c720ecf1, 0x3fe3851eb851eb85),
        ],
    ),
    (
        "pendigits/DT-4",
        [
            (0x3fef33333333332c, 0x3fee147ae147ae14),
            (0x3fee35e0ceb0c218, 0x3feb851eb851eb85),
            (0x3fec7febd5c799ec, 0x3fe851eb851eb852),
        ],
    ),
    (
        "pendigits/DT-8",
        [
            (0x3fef0d640973ca6d, 0x3fed1eb851eb851f),
            (0x3fedf77e3034eed7, 0x3fec28f5c28f5c29),
            (0x3febe11f59a3aeb9, 0x3fe8f5c28f5c28f6),
        ],
    ),
    (
        "pendigits/SVM",
        [
            (0x3fef112bf406ee7e, 0x3feae147ae147ae1),
            (0x3fedba5e353f7cec, 0x3fe8000000000000),
            (0x3fead22803c7ea93, 0x3fe147ae147ae148),
        ],
    ),
    (
        "redwine/DT-4",
        [
            (0x3ff0000000000000, 0x3ff0000000000000),
            (0x3feff03f03f03f04, 0x3feccccccccccccd),
            (0x3feda30d640973c9, 0x3fe47ae147ae147b),
        ],
    ),
    (
        "redwine/DT-8",
        [
            (0x3fedf962257e80e2, 0x3fec7ae147ae147b),
            (0x3fec2a386615bd85, 0x3fe8f5c28f5c28f6),
            (0x3fe947ae147ae146, 0x3fe51eb851eb851f),
        ],
    ),
    (
        "redwine/SVM",
        [
            (0x3fef53f7ced9167e, 0x3fed70a3d70a3d71),
            (0x3fee711cd45ca1f0, 0x3fea8f5c28f5c28f),
            (0x3fec4ec4ec4ec4ee, 0x3fe47ae147ae147b),
        ],
    ),
    (
        "whitewine/DT-4",
        [
            (0x3fef099c1ee0a659, 0x3fedc28f5c28f5c3),
            (0x3fedd392fbbf181c, 0x3feb333333333333),
            (0x3feb7ed186b204b9, 0x3fe8000000000000),
        ],
    ),
    (
        "whitewine/DT-8",
        [
            (0x3fee17a17a17a17c, 0x3febd70a3d70a3d7),
            (0x3fec16af7f72d875, 0x3fe8a3d70a3d70a4),
            (0x3fe85d4344d8248f, 0x3fe428f5c28f5c29),
        ],
    ),
    (
        "whitewine/SVM",
        [
            (0x3fee3d70a3d70a41, 0x3febd70a3d70a3d7),
            (0x3fecad4ad4ad4ad6, 0x3fe8000000000000),
            (0x3fe9aa9d392fbbf3, 0x3fe0f5c28f5c28f6),
        ],
    ),
];

/// `n` test rows drawn with replacement by `seed`, quantized to codes.
fn sampled_rows(test: &Dataset, fq: &FeatureQuantizer, n: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| fq.code_row(&test.x[rng.gen_range(0..test.x.len())]))
        .collect()
}

fn pin(name: String, reports: &[VariationReport]) -> Pin {
    let bits: Vec<(u64, u64)> = reports
        .iter()
        .map(|r| (r.mean_agreement.to_bits(), r.worst_agreement.to_bits()))
        .collect();
    (name, bits.try_into().expect("one report per sigma"))
}

#[test]
fn variation_reports_are_pinned_bit_for_bit() {
    cache::set_enabled(false);
    let mut got: Vec<Pin> = Vec::new();
    for app in Application::ALL {
        for depth in [4, 8] {
            let flow = TreeFlow::new(app, depth, SEED);
            let rows = sampled_rows(&flow.test, &flow.fq, ROWS, SEED);
            let reports = variation_sweep(&flow.qt, &rows, &SIGMAS, TRIALS, SEED).unwrap();
            got.push(pin(format!("{}/DT-{depth}", app.name()), &reports));
        }
        let flow = SvmFlow::new(app, SEED);
        let rows = sampled_rows(&flow.test, &flow.fq, ROWS, SEED);
        let reports =
            svm_variation_sweep(&flow.qs, flow.n_features, &rows, &SIGMAS, TRIALS, SEED).unwrap();
        got.push(pin(format!("{}/SVM", app.name()), &reports));
    }
    let pinned: Vec<Pin> = PINNED
        .iter()
        .map(|(name, bits)| (name.to_string(), *bits))
        .collect();
    assert_eq!(got, pinned, "a variation report moved:\n{got:#x?}");
}
