//! Pins the trained models of Table II's algorithm comparison, bit for
//! bit, on every application.
//!
//! The trainers are rewritten for speed from time to time; each rewrite
//! must do the same floating-point work in the same order, so the models
//! it returns (and every accuracy and op count downstream) cannot move.
//! This test follows Table II's protocol — `generate(7)`, a 70/30 split
//! with seed 42, standardization on the training part — and pins a
//! 64-bit digest of each model's serialized form, which hashes every
//! `f64` by its bits. The MLPs and LR run shortened schedules to keep
//! the test cheap; a short schedule exercises the same code path.
//!
//! The CART split-search tallies are pinned too: a faster split search
//! must still score the same candidates at the same nodes. The test
//! lives in its own binary because the `obs` counters are process-wide.

use printed_ml::cache;
use printed_ml::ml::data::Standardizer;
use printed_ml::ml::forest::{ForestParams, RandomForest};
use printed_ml::ml::linear::LogisticRegression;
use printed_ml::ml::mlp::{Mlp, MlpParams};
use printed_ml::ml::synth::Application;
use printed_ml::ml::tree::{DecisionTree, TreeParams};
use printed_ml::obs;

/// Model order of each pinned row.
const MODELS: [&str; 8] = [
    "DT-1", "DT-2", "DT-4", "DT-8", "RF-2", "MLP-1", "MLP-3", "LR",
];

/// `(application, digests in MODELS order)`, in `Application::ALL` order.
type Pin = (&'static str, [u64; 8]);

const PINNED: &[Pin] = &[
    (
        "arrhythmia",
        [
            0x7e39f1b3566e903b,
            0x3896161c95242e3f,
            0xbc5c71b6517ef7b7,
            0x2b290cb176075244,
            0xe2cd8742b3a73f7c,
            0x071d01c5ccfdcae7,
            0x3412aa707686c970,
            0xa6dc70ea058d2099,
        ],
    ),
    (
        "cardio",
        [
            0x4b476d372fdd1ea8,
            0x901796ec43ec7f9a,
            0xba68be6ab340c34f,
            0x446c4adb09260f32,
            0x872f6baba27297bf,
            0x6e1d910234204e65,
            0xbb879d806c87d08b,
            0x3558d15ff825b055,
        ],
    ),
    (
        "gasid",
        [
            0x51615a2898cdfe34,
            0xeea4821f21a1102c,
            0x85dc3185439baee7,
            0x94754a2c88a31c33,
            0x3792168386d9338f,
            0x9173ec1d027bfbcc,
            0x30467b2fd765540b,
            0x1f292302464a340d,
        ],
    ),
    (
        "har",
        [
            0xff76af3fb0f2498d,
            0x5e0888f3291658cb,
            0x91eae3bc41a5960a,
            0x315aea1ecd030e7c,
            0x26f73b89cd144aac,
            0x3805e98a88bc39d7,
            0x25656e3e1ff50a8d,
            0x80e67c50285b14bd,
        ],
    ),
    (
        "pendigits",
        [
            0x8d7182e032c4f644,
            0x886bcad4cbc75ede,
            0x541d5100de96be4a,
            0x81507981da39a5a1,
            0x7c13ab59e64f6dc7,
            0x70f57a9d27b20628,
            0x8bd53e5bbdeabde6,
            0x02475e8033569484,
        ],
    ),
    (
        "redwine",
        [
            0xba80eef8aef1f469,
            0x9638af6ff03c55f5,
            0xa932ab7e815d0a0e,
            0xdc6caa20965ee38d,
            0x35b13699dea68352,
            0x39176906baee0ebb,
            0x92beceeb53057834,
            0x5b85ac386a8f0803,
        ],
    ),
    (
        "whitewine",
        [
            0x9cae240bec663fd7,
            0xc5f230d738e105c5,
            0x754057b466b38082,
            0xd062bc4778ceccf7,
            0x32a6fb3efd12b9ed,
            0xf5e63f83a054e29e,
            0x6f7a5b6dc1c3c5c3,
            0x69f24f747bf3a16a,
        ],
    ),
];

/// `(ml.cart.nodes, ml.cart.split_candidates)` over all the fits above.
const PINNED_CART: (u64, u64) = (4810, 1_038_906);

/// A 64-bit digest of a model's serialized form (floats hash by bits).
fn digest<T: serde::Serialize>(model: &T) -> u64 {
    let key = cache::key_for_serialized("ml.pins", model);
    u64::from_le_bytes(key.0[..8].try_into().expect("16-byte key"))
}

fn short(params: MlpParams) -> MlpParams {
    MlpParams {
        epochs: 2,
        ..params
    }
}

#[test]
fn table2_models_are_pinned_bit_for_bit() {
    cache::set_enabled(false);
    obs::set_enabled(true);
    let nodes0 = obs::counter_value("ml.cart.nodes");
    let cands0 = obs::counter_value("ml.cart.split_candidates");
    let got: Vec<Pin> = Application::ALL
        .iter()
        .map(|app| {
            let data = app.generate(7);
            let (train, _) = data.split(0.7, 42);
            let train = Standardizer::fit(&train).transform(&train);
            let tree = |d| digest(&DecisionTree::fit(&train, TreeParams::with_depth(d)));
            (
                app.name(),
                [
                    tree(1),
                    tree(2),
                    tree(4),
                    tree(8),
                    digest(&RandomForest::fit(&train, ForestParams::paper(2))),
                    digest(&Mlp::fit(&train, &short(MlpParams::mlp1()))),
                    digest(&Mlp::fit(&train, &short(MlpParams::mlp3()))),
                    digest(&LogisticRegression::fit(&train, 5, 0.5)),
                ],
            )
        })
        .collect();
    let cart = (
        obs::counter_value("ml.cart.nodes") - nodes0,
        obs::counter_value("ml.cart.split_candidates") - cands0,
    );
    assert_eq!(
        got, PINNED,
        "a trained model moved ({MODELS:?}):\n{got:#x?}"
    );
    assert_eq!(cart, PINNED_CART, "the CART split search moved: {cart:?}");
}

/// `(application, [MLP-1, MLP-3, LR] digests)` at Table II's full
/// schedules: MLP-1 60 epochs, MLP-3 80, LR 150.
const PINNED_FULL: &[(&str, [u64; 3])] = &[
    (
        "cardio",
        [0x10d6fc6c314c5bc4, 0x6e854af901168f2f, 0x8773a26781e038c9],
    ),
    (
        "redwine",
        [0x0fcb7735d4e89f0f, 0x698edebf5b9501de, 0x1fe1e5b2e11049cd],
    ),
];

/// The pins above run two to five epochs; these run the schedules
/// Table II trains, so a drift that only builds up over many epochs
/// still shows at full precision rather than in a 3-decimal accuracy.
#[test]
fn table2_full_schedules_are_pinned_bit_for_bit() {
    cache::set_enabled(false);
    let got: Vec<(&str, [u64; 3])> = [Application::Cardio, Application::RedWine]
        .iter()
        .map(|app| {
            let data = app.generate(7);
            let (train, _) = data.split(0.7, 42);
            let train = Standardizer::fit(&train).transform(&train);
            (
                app.name(),
                [
                    digest(&Mlp::fit(&train, &MlpParams::mlp1())),
                    digest(&Mlp::fit(&train, &MlpParams::mlp3())),
                    digest(&LogisticRegression::fit(&train, 150, 0.5)),
                ],
            )
        })
        .collect();
    assert_eq!(
        got, PINNED_FULL,
        "a full-schedule model moved ([MLP-1, MLP-3, LR]):\n{got:#x?}"
    );
}
