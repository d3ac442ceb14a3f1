//! Flow reports are memoized under a key of everything they read, not
//! of the flow's `(app, depth, seed)` recipe: a flow's fields are public,
//! so a caller may swap a model in.
//!
//! One tree flow and one SVM flow price every architecture in every
//! technology (analog in EGT only) three ways: with the cache off, into
//! an empty store, and from that store after its memory tier is dropped.
//! All three must serialize identically, and every `(arch, tech)` pair
//! must get an entry of its own, so a configuration field the key missed
//! would be served another configuration's report. Then each flow has a
//! model swapped for another one, and every report of the swapped flow
//! must be priced afresh and stored under a new key.
//!
//! It lives in its own test binary because the cache configuration is
//! process-global.

use std::path::{Path, PathBuf};

use printed_ml::analog::{AnalogTreeConfig, ThresholdEncoding};
use printed_ml::cache;
use printed_ml::core::flow::{SvmArch, SvmFlow, TreeArch, TreeFlow};
use printed_ml::core::LookupConfig;
use printed_ml::ml::synth::Application;
use printed_ml::pdk::Technology;

/// All four lookup configurations.
fn lookups() -> impl Iterator<Item = LookupConfig> {
    [false, true]
        .into_iter()
        .flat_map(|eliminate_constant_columns| {
            [false, true].map(|bespoke_dots| LookupConfig {
                eliminate_constant_columns,
                bespoke_dots,
            })
        })
}

/// Every tree architecture with every configuration, each in every
/// technology it can be priced in.
fn tree_designs() -> Vec<(TreeArch, Technology)> {
    let digital = [
        TreeArch::ConventionalSerial,
        TreeArch::ConventionalParallel,
        TreeArch::BespokeSerial,
        TreeArch::BespokeParallel,
    ]
    .into_iter()
    .chain(lookups().map(TreeArch::Lookup));
    let analog = [
        ThresholdEncoding::PaperLinear,
        ThresholdEncoding::Calibrated,
    ]
    .into_iter()
    .flat_map(|encoding| {
        [false, true].map(|buffers| TreeArch::Analog(AnalogTreeConfig { encoding, buffers }))
    });
    digital
        .flat_map(|arch| Technology::ALL.map(|tech| (arch, tech)))
        .chain(analog.map(|arch| (arch, Technology::Egt)))
        .collect()
}

/// Every SVM architecture with every configuration, each in every
/// technology it can be priced in.
fn svm_designs() -> Vec<(SvmArch, Technology)> {
    [SvmArch::Conventional, SvmArch::Bespoke]
        .into_iter()
        .chain(lookups().map(SvmArch::Lookup))
        .flat_map(|arch| Technology::ALL.map(|tech| (arch, tech)))
        .chain([(SvmArch::Analog, Technology::Egt)])
        .collect()
}

fn tree_reports(flow: &TreeFlow) -> Vec<String> {
    let report = |&(arch, tech): &(TreeArch, Technology)| flow.report(arch, tech);
    tree_designs().iter().map(report).map(json).collect()
}

fn svm_reports(flow: &SvmFlow) -> Vec<String> {
    let report = |&(arch, tech): &(SvmArch, Technology)| flow.report(arch, tech);
    svm_designs().iter().map(report).map(json).collect()
}

fn json<T: serde::Serialize>(report: T) -> String {
    serde_json::to_string(&report).expect("a report serializes")
}

/// Number of entries stored under `domain`.
fn entries(root: &Path, domain: &str) -> usize {
    let dir = root.join(cache::SCHEMA).join(domain);
    std::fs::read_dir(dir).map_or(0, Iterator::count)
}

/// Checks that `price` agrees with the cache off, cold and warm, that
/// the cold pass stores `designs` entries under `domain` and the warm
/// pass none, and returns the cache-off reports.
fn off_cold_warm(
    root: &Path,
    domain: &str,
    designs: usize,
    price: impl Fn() -> Vec<String>,
) -> Vec<String> {
    cache::set_enabled(false);
    let off = price();
    cache::set_enabled(true);
    let before = entries(root, domain);
    let cold = price();
    assert_eq!(
        entries(root, domain),
        before + designs,
        "{domain}: one entry per design"
    );
    cache::clear_memory();
    let warm = price();
    assert_eq!(
        entries(root, domain),
        before + designs,
        "{domain}: a warm pass stores nothing"
    );
    assert_eq!(
        cold, off,
        "{domain}: a cold report differs from the uncached one"
    );
    assert_eq!(
        warm, off,
        "{domain}: a stored report differs from the uncached one"
    );
    off
}

#[test]
fn reports_are_keyed_by_everything_they_read() {
    let root: PathBuf =
        std::env::temp_dir().join(format!("printed_ml_report_keys_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    cache::set_disk_root(Some(root.clone()));

    let tree = TreeFlow::new(Application::Cardio, 4, 7);
    let shallow = TreeFlow::new(Application::Cardio, 2, 7);
    let svm = SvmFlow::new(Application::RedWine, 7);
    let other_svm = SvmFlow::new(Application::RedWine, 3);
    assert_ne!(tree.qt, shallow.qt);
    assert_ne!(tree.conv_qt, shallow.conv_qt);
    assert_ne!(svm.qs, other_svm.qs);

    let tree_domain = "core.flow.tree_report";
    let n = tree_designs().len();
    let base = off_cold_warm(&root, tree_domain, n, || tree_reports(&tree));
    let swapped_qt = TreeFlow {
        qt: shallow.qt.clone(),
        ..tree.clone()
    };
    let got = off_cold_warm(&root, tree_domain, n, || tree_reports(&swapped_qt));
    assert_ne!(got, base, "swapping qt changed no report");
    let swapped_conv_qt = TreeFlow {
        conv_qt: shallow.conv_qt.clone(),
        ..tree.clone()
    };
    off_cold_warm(&root, tree_domain, n, || tree_reports(&swapped_conv_qt));

    let svm_domain = "core.flow.svm_report";
    let n = svm_designs().len();
    let base = off_cold_warm(&root, svm_domain, n, || svm_reports(&svm));
    let swapped_qs = SvmFlow {
        qs: other_svm.qs.clone(),
        ..svm.clone()
    };
    let got = off_cold_warm(&root, svm_domain, n, || svm_reports(&swapped_qs));
    assert_ne!(got, base, "swapping qs changed no report");

    cache::set_enabled(false);
    cache::set_disk_root(None);
    let _ = std::fs::remove_dir_all(&root);
}
