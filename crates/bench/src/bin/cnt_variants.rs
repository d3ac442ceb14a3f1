//! CNT-TFT counterparts of Figs. 6/7/11 — quoted in the paper's prose as
//! "(not shown)": bespoke serial 1.02x/1.33x/1.26x, bespoke parallel
//! 6.6x/62.6x/27.3x, bespoke SVM 1.7x/16x/8.96x (delay/area/power
//! averages). Pass `--json PATH` to dump machine-readable results.

use bench::experiments::figures::{svm_ratio_figure, tree_ratio_figure};
use bench::maybe_write_json;
use pdk::Technology;
use printed_core::flow::{SvmArch, TreeArch};

fn main() {
    let tech = Technology::CntTft;
    let tables = [
        tree_ratio_figure(
            "CNT-TFT: bespoke serial vs conventional serial (paper avg 1.02x/1.33x/1.26x)",
            &[2, 4, 8],
            TreeArch::BespokeSerial,
            TreeArch::ConventionalSerial,
            tech,
        ),
        tree_ratio_figure(
            "CNT-TFT: bespoke parallel vs conventional parallel (paper avg 6.6x/62.6x/27.3x)",
            &[2, 4, 8],
            TreeArch::BespokeParallel,
            TreeArch::ConventionalParallel,
            tech,
        ),
        svm_ratio_figure(
            "CNT-TFT: bespoke SVM vs conventional SVM (paper avg 1.7x/16x/8.96x)",
            SvmArch::Bespoke,
            SvmArch::Conventional,
            tech,
        ),
    ];
    for t in &tables {
        print!("{t}");
    }
    maybe_write_json(&tables);
}
