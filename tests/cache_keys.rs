//! Pins the on-disk key of every memoized pipeline stage.
//!
//! A key that drifts silently orphans every entry users already have on
//! disk, and a key that loses an input would serve wrong artifacts. So a
//! key may move only when its input encoding changes on purpose, and
//! the change is recorded in CHANGES.md; the orphaned entries are then
//! never served (`printed-ml cache clear` removes them). The `ml.*` keys
//! last moved when `Dataset` started hashing its content through
//! `StableHasher::write_words`. [`cache::SCHEMA`] is bumped when a
//! stored value's encoding or a producer's meaning changes, not for a
//! moved key. This test drives each cached domain once with small fixed
//! inputs against a fresh disk store and compares the sorted
//! `<domain>/<key>.json` listing with a pinned list.
//!
//! It lives in its own test binary because the cache configuration is
//! process-global.

use std::path::Path;

use printed_ml::cache;
use printed_ml::core::conventional::svm::SvmSpec;
use printed_ml::core::flow::{ForestFlow, SvmArch, SvmFlow, TreeArch, TreeFlow};
use printed_ml::ml::data::Dataset;
use printed_ml::ml::linear::{LogisticRegression, SvmClassifier};
use printed_ml::ml::mlp::{Mlp, MlpParams};
use printed_ml::ml::synth::Application;
use printed_ml::netlist::analyze;
use printed_ml::pdk::{CellLibrary, Technology};

/// A tiny hand-written dataset, so the `ml.*` keys below depend on
/// nothing but the hash encoding.
fn toy() -> Dataset {
    let x: Vec<Vec<f64>> = (0..12)
        .map(|i| vec![f64::from(i) * 0.25 - 1.5, f64::from(i % 4) - 1.0])
        .collect();
    let y: Vec<usize> = (0..12).map(|i| i % 3).collect();
    Dataset::new("toy", x, y, 3)
}

/// Every `<domain>/<key>.json` entry under the store, sorted.
fn listing(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let schema = root.join(cache::SCHEMA);
    for dir in std::fs::read_dir(&schema).expect("store exists").flatten() {
        let domain = dir.file_name().to_string_lossy().into_owned();
        for file in std::fs::read_dir(dir.path()).expect("domain dir").flatten() {
            out.push(format!("{domain}/{}", file.file_name().to_string_lossy()));
        }
    }
    out.sort();
    out
}

const PINNED: &[&str] = &[
    "core.conv_svm.ppa/6f2b38e30c687381a222a95ed182f607.json",
    "core.flow.forest/4f018266824485cb3dd0838155024769.json",
    "core.flow.svm/63a339c541452297e6857ed4c275ca0e.json",
    "core.flow.svm_report/1e2652c667582408e3b5264896e1bc41.json",
    "core.flow.test/2c4afe445ab0416a8723bb6690e9e5e7.json",
    "core.flow.tree/06a11f2d3d4bb1cde153f4ba93dd0d17.json",
    "core.flow.tree_report/54eacda8a2b1ec57dc2ac7febdae8d9d.json",
    "core.forest.ppa/18fec0175eba69f3e434ca16bc639062.json",
    "ml.forest.fit/425267bc396064dc6fe615cab16396b1.json",
    "ml.lr.fit/06ac177285786523685cc0ad26d49fc3.json",
    "ml.mlp.fit/e8a1e3077e9f36cbd315d43674149eeb.json",
    "ml.svm.fit/f544353baf3aa1ce0ca94f2197f80532.json",
    "ml.svmc.fit/a06e62e39faa427a07af96895932e5ab.json",
    "ml.tree.fit/ea1088890914a9df7caf059aafe571ab.json",
];

#[test]
fn every_cached_domain_keeps_its_key() {
    assert_eq!(cache::SCHEMA, "cache-v1");
    let root = std::env::temp_dir().join(format!("printed_ml_cache_keys_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    cache::set_disk_root(Some(root.clone()));
    cache::set_enabled(true);

    // The flows, which also fire ml.tree.fit, ml.svm.fit and
    // ml.forest.fit underneath, one report of each flow kind, one of
    // Table V's conventional SVM widths and one priced forest engine.
    let tree = TreeFlow::new(Application::Har, 2, 7);
    tree.report(TreeArch::BespokeParallel, Technology::Egt);
    SvmFlow::new(Application::Har, 7).report(SvmArch::Bespoke, Technology::Egt);
    let forest = ForestFlow::new(Application::Har, 2, 7);
    bench::experiments::tables::conv_svm_ppa(&SvmSpec::conventional(4));
    bench::experiments::ablations::forest_ppa(&forest.qf);

    // The remaining trainers, on fixed toy data.
    let data = toy();
    SvmClassifier::fit(&data, 2, 0.01, 7);
    LogisticRegression::fit(&data, 2, 0.1);
    let mlp = MlpParams {
        hidden: vec![3, 2],
        epochs: 2,
        lr: 0.05,
        seed: 7,
    };
    Mlp::fit(&data, &mlp);
    // Flow reports, Table V's pricing and the forest-scaling ablation's
    // engines are memoized, keyed by the model or spec they are built
    // from. `optimize` and `analyze` of a
    // bare netlist are not, since keying a netlist costs more than
    // redoing either: this call must add no entry.
    let module = tree.module(TreeArch::BespokeParallel).expect("digital");
    analyze(&module, &CellLibrary::for_technology(Technology::CntTft));

    let got = listing(&root);
    let embedded = embedded_splits(&root, &got);
    cache::set_enabled(false);
    cache::set_disk_root(None);
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(
        got, PINNED,
        "a cache key moved; re-pin only for a deliberate input-encoding change"
    );
    assert!(
        embedded.is_empty(),
        "flow entries embed their test split (stored once under core.flow.test): {embedded:?}"
    );
}

/// The `core.flow.*` model entries of `listing` that carry a `test`
/// field.
fn embedded_splits(root: &Path, listing: &[String]) -> Vec<String> {
    let schema = root.join(cache::SCHEMA);
    let models = listing
        .iter()
        .filter(|e| e.starts_with("core.flow.") && !e.starts_with("core.flow.test/"));
    models
        .filter(|entry| {
            let body = std::fs::read_to_string(schema.join(entry)).expect("entry reads");
            let value: serde::Value = serde_json::from_str(&body).expect("entry parses");
            value.get("test").is_some()
        })
        .cloned()
        .collect()
}
