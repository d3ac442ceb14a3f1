//! CNT-TFT counterparts of Figs. 6/7/11 — quoted in the paper's prose as
//! "(not shown)": bespoke serial 1.02x/1.33x/1.26x, bespoke parallel
//! 6.6x/62.6x/27.3x, bespoke SVM 1.7x/16x/8.96x (delay/area/power
//! averages). Pass `--json PATH` to dump machine-readable results.
//!
//! Arguments are checked before any work starts: an unknown flag or a
//! `--json` without a path exits 2 with usage, and a report that cannot
//! be written exits 1.

use bench::experiments::figures::{svm_ratio_figure, tree_ratio_figure};
use pdk::Technology;
use printed_core::flow::{SvmArch, TreeArch};

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: cnt_variants [--json PATH]");
    std::process::exit(2);
}

fn main() {
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => {
                let Some(path) = args.next() else {
                    usage_error("--json requires a path");
                };
                json_path = Some(path);
            }
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }

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
    if let Some(path) = json_path {
        let body = serde_json::to_string_pretty(&tables).expect("serialize tables");
        if let Err(err) = std::fs::write(&path, body) {
            eprintln!("error: cannot write {path}: {err}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
}
