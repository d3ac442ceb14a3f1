//! The forest-scaling ablation prices each bespoke forest engine through
//! `core.forest.ppa`, keyed by the quantized forest and the technology,
//! never by the netlist. The key must cover everything the engine is
//! generated from.
//!
//! Pendigits' RF-1/2/4/8 prefix forests, the RF-4 forest with each
//! member in turn swapped for one outside it, and the RF-2 forest with
//! ports one bit wider are priced three ways: with the cache off, into
//! an empty store, and from that store after its memory tier is dropped.
//! All three must serialize identically, and every forest must get an
//! entry of its own, so a key that skipped a tree or the width would
//! serve one forest another's report.
//!
//! It lives in its own test binary because the cache configuration is
//! process-global.

use std::path::Path;

use printed_ml::cache;
use printed_ml::ml::forest::{ForestParams, RandomForest};
use printed_ml::ml::quant::{FeatureQuantizer, QuantizedForest, QuantizedTree};
use printed_ml::ml::synth::Application;
use printed_ml::obs;
use serde::{Deserialize, Serialize, Value};

use bench::experiments::ablations::forest_ppa;

/// A forest of `trees` voting over `n_classes` at `bits` per feature.
fn assemble(trees: &[QuantizedTree], n_classes: usize, bits: usize) -> QuantizedForest {
    let value = Value::Object(vec![
        (
            "trees".into(),
            Value::Array(trees.iter().map(Serialize::to_value).collect()),
        ),
        ("n_classes".into(), n_classes.to_value()),
        ("bits".into(), bits.to_value()),
    ]);
    QuantizedForest::from_value(&value).expect("a forest decodes")
}

/// Every forest the test prices, built with the cache off.
fn forests() -> Vec<QuantizedForest> {
    let (train, _) = Application::Pendigits.split(7);
    let fq = FeatureQuantizer::fit(&train, 8);
    let rf8 = RandomForest::fit(&train, ForestParams::paper(8));
    let all = QuantizedForest::from_forest(&rf8, &fq);
    let (trees, n_classes, bits) = (all.trees(), all.n_classes(), all.bits());
    let mut out: Vec<QuantizedForest> = [1, 2, 4, 8]
        .into_iter()
        .map(|n| QuantizedForest::from_forest(&rf8.prefix(n), &fq))
        .collect();
    for i in 0..4 {
        let mut swapped = trees[..4].to_vec();
        swapped[i] = trees[4 + i].clone();
        out.push(assemble(&swapped, n_classes, bits));
    }
    out.push(assemble(&trees[..2], n_classes, bits + 1));
    for (i, a) in out.iter().enumerate() {
        assert!(!out[..i].contains(a), "forest {i} repeats an earlier one");
    }
    out
}

fn prices(forests: &[QuantizedForest]) -> Vec<String> {
    let price = |qf| serde_json::to_string(&forest_ppa(qf)).expect("Ppa encodes");
    forests.iter().map(price).collect()
}

/// Entries stored under `core.forest.ppa`.
fn entries(root: &Path) -> usize {
    let dir = root.join(cache::SCHEMA).join("core.forest.ppa");
    std::fs::read_dir(dir).map_or(0, |d| d.flatten().count())
}

#[test]
fn every_forest_is_priced_under_its_own_key() {
    cache::set_enabled(false);
    let forests = forests();
    let off = prices(&forests);

    let root = std::env::temp_dir().join(format!("printed_ml_forest_keys_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    obs::set_enabled(true);
    cache::set_disk_root(Some(root.clone()));
    cache::set_enabled(true);
    cache::clear_memory();
    let cold = prices(&forests);
    let stored = entries(&root);
    cache::clear_memory();
    let hits = obs::report().counter("cache.disk_hits");
    let warm = prices(&forests);
    let warm_hits = obs::report().counter("cache.disk_hits") - hits;
    cache::set_enabled(false);
    cache::set_disk_root(None);
    let _ = std::fs::remove_dir_all(&root);

    assert_eq!(cold, off, "a cold store priced a forest differently");
    assert_eq!(warm, off, "a warm store served a forest another's report");
    assert_eq!(stored, forests.len(), "forests shared a key");
    assert_eq!(
        warm_hits,
        forests.len() as u64,
        "warm pass missed the store"
    );
}
