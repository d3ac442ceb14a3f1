//! Regenerators for the paper's Figures 3, 6–7, 9–13, 16–17 and 19.

use analog::tree::AnalogTreeConfig;
use ml::synth::Application;
use pdk::Technology;
use printed_core::flow::{SvmArch, TreeArch, TreeFlow};
use printed_core::powerfit::{assign_sets, summarize};
use printed_core::report::{DesignReport, Improvement};
use printed_core::LookupConfig;

use crate::workloads::{svm_flows, tree_flows, DEPTHS, SEED};
use crate::{fmt3, fmt_ratio, Table};

/// Builds a per-dataset ratio figure: `arch` normalized against
/// `baseline` in `tech`, one row per (dataset, depth), plus the AVERAGE
/// and MEDIAN rows. Trees that fold to a constant show as `const` rows
/// and stay out of both.
pub fn tree_ratio_figure(
    title: &str,
    depths: &[usize],
    arch: TreeArch,
    baseline: TreeArch,
    tech: Technology,
) -> Table {
    let mut t = Table::new(title, &["dataset", "depth", "delay", "area", "power"]);
    let mut improvements = Vec::new();
    for &depth in depths {
        for flow in tree_flows(depth) {
            let base = flow.report(baseline, tech);
            let this = flow.report(arch, tech);
            if this.area.is_zero() || this.power.is_zero() {
                // A tree that trains to a single class folds to a constant:
                // no hardware at all. Report it but keep it out of the mean
                // (an infinite ratio would swamp everything).
                t.row(vec![
                    flow.app.name().into(),
                    depth.to_string(),
                    "const".into(),
                    "const".into(),
                    "const".into(),
                ]);
                continue;
            }
            let imp = this.improvement_over(&base);
            improvements.push(imp);
            t.row(vec![
                flow.app.name().into(),
                depth.to_string(),
                fmt_ratio(imp.delay),
                fmt_ratio(imp.area),
                fmt_ratio(imp.power),
            ]);
        }
    }
    summary_rows(&mut t, &improvements, &["-"]);
    t
}

/// The SVM counterpart of [`tree_ratio_figure`]: one row per dataset,
/// plus the AVERAGE and MEDIAN rows.
pub fn svm_ratio_figure(title: &str, arch: SvmArch, baseline: SvmArch, tech: Technology) -> Table {
    let mut t = Table::new(title, &["dataset", "delay", "area", "power"]);
    let mut improvements = Vec::new();
    for flow in svm_flows() {
        let base = flow.report(baseline, tech);
        let this = flow.report(arch, tech);
        let imp = this.improvement_over(&base);
        improvements.push(imp);
        t.row(vec![
            flow.app.name().into(),
            fmt_ratio(imp.delay),
            fmt_ratio(imp.area),
            fmt_ratio(imp.power),
        ]);
    }
    summary_rows(&mut t, &improvements, &[]);
    t
}

/// Appends a ratio figure's AVERAGE and MEDIAN rows; `keys` fills the
/// key columns between the label and the ratios.
fn summary_rows(t: &mut Table, improvements: &[Improvement], keys: &[&str]) {
    for (label, imp) in [
        ("AVERAGE", Improvement::mean(improvements)),
        ("MEDIAN", Improvement::median(improvements)),
    ] {
        let mut row = vec![label.to_string()];
        row.extend(keys.iter().map(|k| k.to_string()));
        row.extend([imp.delay, imp.area, imp.power].map(fmt_ratio));
        t.row(row);
    }
}

fn feasibility_table(title: &str, reports: Vec<DesignReport>) -> Table {
    let rows = assign_sets(&reports);
    let mut t = Table::new(title, &["design", "power", "powered by"]);
    for row in &rows {
        t.row(vec![
            row.design.clone(),
            format!("{} mW", fmt3(row.power_mw)),
            row.feasibility.source_name().into(),
        ]);
    }
    for (source, count) in summarize(&rows) {
        t.row(vec![
            format!("[set] {source}"),
            String::new(),
            count.to_string(),
        ]);
    }
    t
}

/// Fig. 3: which printed sources can power *conventional* EGT trees.
pub fn fig3() -> Vec<Table> {
    let mut reports = Vec::new();
    for depth in DEPTHS {
        // Use cardio as the representative loaded model; conventional
        // engine cost is model-independent.
        let flow = TreeFlow::new(Application::Cardio, depth, SEED);
        let mut s = flow.report(TreeArch::ConventionalSerial, Technology::Egt);
        s.name = format!("SDT-{depth}");
        let mut p = flow.report(TreeArch::ConventionalParallel, Technology::Egt);
        p.name = format!("PDT-{depth}");
        reports.push(s);
        reports.push(p);
    }
    vec![feasibility_table(
        "Fig. 3: power feasibility of conventional EGT decision trees",
        reports,
    )]
}

/// Fig. 6: bespoke serial trees vs conventional serial trees (EGT).
pub fn fig6() -> Vec<Table> {
    vec![tree_ratio_figure(
        "Fig. 6: bespoke serial trees normalized against conventional serial (EGT)",
        &DEPTHS,
        TreeArch::BespokeSerial,
        TreeArch::ConventionalSerial,
        Technology::Egt,
    )]
}

/// Fig. 7: bespoke parallel trees vs conventional parallel trees (EGT).
pub fn fig7() -> Vec<Table> {
    vec![tree_ratio_figure(
        "Fig. 7: bespoke parallel trees normalized against conventional parallel (EGT)",
        &DEPTHS,
        TreeArch::BespokeParallel,
        TreeArch::ConventionalParallel,
        Technology::Egt,
    )]
}

/// Fig. 9: lookup-based parallel trees vs bespoke parallel trees (EGT).
pub fn fig9() -> Vec<Table> {
    // Lookup replacement targets trees with enough comparisons per
    // feature to amortize the decoder; the paper's Fig. 9 designs are the
    // deep-tree configurations.
    vec![tree_ratio_figure(
        "Fig. 9: lookup-based parallel trees normalized against bespoke parallel (EGT)",
        &[4, 8],
        TreeArch::Lookup(LookupConfig::baseline()),
        TreeArch::BespokeParallel,
        Technology::Egt,
    )]
}

/// Fig. 10: lookup trees with constant-column elimination + dot ROMs.
pub fn fig10() -> Vec<Table> {
    vec![tree_ratio_figure(
        "Fig. 10: optimized lookup trees (const-column + dots) vs bespoke parallel (EGT)",
        &[4, 8],
        TreeArch::Lookup(LookupConfig::optimized()),
        TreeArch::BespokeParallel,
        Technology::Egt,
    )]
}

/// Fig. 11: bespoke SVMs vs conventional SVMs (EGT).
pub fn fig11() -> Vec<Table> {
    vec![svm_ratio_figure(
        "Fig. 11: bespoke SVMs normalized against conventional SVMs (EGT)",
        SvmArch::Bespoke,
        SvmArch::Conventional,
        Technology::Egt,
    )]
}

/// Fig. 12: lookup-based SVMs vs bespoke SVMs (EGT).
pub fn fig12() -> Vec<Table> {
    vec![svm_ratio_figure(
        "Fig. 12: lookup-based SVMs normalized against bespoke SVMs (EGT)",
        SvmArch::Lookup(LookupConfig::baseline()),
        SvmArch::Bespoke,
        Technology::Egt,
    )]
}

/// Fig. 13: optimized lookup SVMs vs bespoke SVMs (EGT).
pub fn fig13() -> Vec<Table> {
    vec![svm_ratio_figure(
        "Fig. 13: optimized lookup SVMs (const-column + dots) vs bespoke SVMs (EGT)",
        SvmArch::Lookup(LookupConfig::optimized()),
        SvmArch::Bespoke,
        Technology::Egt,
    )]
}

/// Fig. 16: analog trees vs bespoke parallel digital trees (EGT).
pub fn fig16() -> Vec<Table> {
    vec![tree_ratio_figure(
        "Fig. 16: analog trees normalized against bespoke parallel digital trees (EGT)",
        &DEPTHS,
        TreeArch::Analog(AnalogTreeConfig::default()),
        TreeArch::BespokeParallel,
        Technology::Egt,
    )]
}

/// Fig. 17: analog SVMs vs bespoke SVMs (EGT).
pub fn fig17() -> Vec<Table> {
    vec![svm_ratio_figure(
        "Fig. 17: analog SVMs normalized against bespoke SVMs (EGT)",
        SvmArch::Analog,
        SvmArch::Bespoke,
        Technology::Egt,
    )]
}

/// Fig. 19: power feasibility of the optimized (bespoke / lookup / analog)
/// classifiers across all datasets.
pub fn fig19() -> Vec<Table> {
    let mut reports = Vec::new();
    for depth in [4usize] {
        for flow in tree_flows(depth) {
            for (tag, arch) in [
                ("DTd-bespoke", TreeArch::BespokeParallel),
                ("DTd-lookup", TreeArch::Lookup(LookupConfig::optimized())),
                ("DTa", TreeArch::Analog(AnalogTreeConfig::default())),
            ] {
                let mut r = flow.report(arch, Technology::Egt);
                r.name = format!("{} {tag}-{depth}", flow.app.name());
                reports.push(r);
            }
        }
    }
    for flow in svm_flows() {
        for (tag, arch) in [
            ("SVMd-bespoke", SvmArch::Bespoke),
            ("SVMa", SvmArch::Analog),
        ] {
            let mut r = flow.report(arch, Technology::Egt);
            r.name = format!("{} {tag}", flow.app.name());
            reports.push(r);
        }
    }
    vec![feasibility_table(
        "Fig. 19: power feasibility of optimized printed classifiers (EGT)",
        reports,
    )]
}
