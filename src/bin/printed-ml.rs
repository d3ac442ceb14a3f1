//! `printed-ml` — command-line front end for the classifier generator.
//!
//! The flow a downstream user actually wants: pick a dataset (or bring
//! your own via the library), pick an architecture and technology, get a
//! PPA report, a power-source verdict, and optionally the Verilog plus a
//! self-checking testbench.
//!
//! ```text
//! printed-ml list
//! printed-ml report    --app cardio --depth 4 --arch bespoke-parallel --tech egt
//! printed-ml generate  --app cardio --depth 4 --arch bespoke-parallel \
//!                      --verilog tree.v --testbench tb.v
//! printed-ml sweep     --app redwine --depth 4
//! ```

#![allow(clippy::print_literal)] // aligned table headers

use std::collections::HashMap;
use std::process::ExitCode;

use printed_ml::analog::{check_sigma, AnalogTreeConfig};
use printed_ml::core::flow::{SvmArch, SvmFlow, TreeArch, TreeFlow};
use printed_ml::core::LookupConfig;
use printed_ml::ml::synth::Application;
use printed_ml::netlist::{to_testbench, to_verilog};
use printed_ml::pdk::Technology;

fn usage() -> &'static str {
    "printed-ml — printed machine-learning classifier generator\n\
     \n\
     USAGE:\n\
       printed-ml list\n\
       printed-ml report    --app <dataset> [--depth N] [--arch ARCH] [--tech TECH] [--svm]\n\
       printed-ml generate  --app <dataset> [--depth N] [--arch ARCH] [--svm]\n\
                            [--verilog PATH] [--testbench PATH]\n\
       printed-ml sweep     --app <dataset> [--depth N] [--tech TECH]\n\
       printed-ml variation --app <dataset> [--depth N] [--svm] [--sigmas S1,S2,..]\n\
                            [--trials N] [--rows N] [--seed N]\n\
       printed-ml cache     stats | clear\n\
     \n\
     ARCH (trees): conv-serial | conv-parallel | bespoke-serial |\n\
                   bespoke-parallel | lookup | lookup-opt | analog\n\
     ARCH (--svm): conv | bespoke | lookup | lookup-opt | analog\n\
     TECH:         egt | cnt | tsmc40\n\
     \n\
     Defaults: --depth 4 (1 to 16), --arch bespoke-parallel (trees) /\n\
               bespoke (svm), --tech egt, seed 7; variation: --sigmas\n\
               0.02,0.05,0.1,0.2, --trials 100, --rows 100. Each sigma\n\
               must be finite and at least 0, and at most 10 with --svm:\n\
               past that a crossbar weight's log-normal print factor can\n\
               overflow or vanish.\n\
     \n\
     Each command takes only the flags its line above names, plus\n\
     --no-cache; any other flag is rejected.\n\
     \n\
     Trained models and flow builds are memoized in a content-addressed\n\
     cache (bench/out/cache/ by default; override with PRINTED_ML_CACHE_DIR).\n\
     Disable per run with --no-cache; inspect with `cache stats`, wipe with\n\
     `cache clear`."
}

/// The flags `command`'s usage line names; every command also takes
/// `--no-cache`.
fn command_flags(command: &str) -> &'static [&'static str] {
    match command {
        "report" => &["app", "depth", "arch", "tech", "svm"],
        "generate" => &["app", "depth", "arch", "svm", "verilog", "testbench"],
        "sweep" => &["app", "depth", "tech"],
        _ => &["app", "depth", "svm", "sigmas", "trials", "rows", "seed"],
    }
}

fn parse_flags(command: &str, args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            if name != "no-cache" && !command_flags(command).contains(&name) {
                return Err(format!("`{command}` takes no --{name} flag"));
            }
            if name == "svm" || name == "no-cache" {
                flags.insert(name.to_string(), "true".to_string());
                i += 1;
            } else {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("--{name} requires a value"))?;
                flags.insert(name.to_string(), value.clone());
                i += 2;
            }
        } else {
            return Err(format!("unexpected argument {a}"));
        }
    }
    Ok(flags)
}

fn parse_app(flags: &HashMap<String, String>) -> Result<Application, String> {
    let name = flags.get("app").ok_or("--app is required")?;
    Application::ALL
        .into_iter()
        .find(|a| a.name() == name.as_str())
        .ok_or_else(|| {
            format!(
                "unknown dataset {name}; available: {}",
                Application::ALL.map(|a| a.name()).join(" ")
            )
        })
}

/// Deepest tree the CLI trains: the conventional parallel tree doubles
/// per level, and depth 16 (about 4.3 M gates on `har`) is the deepest
/// that still builds.
const MAX_DEPTH: usize = 16;

fn parse_depth(d: &str) -> Result<usize, String> {
    match d.parse() {
        Ok(depth) if (1..=MAX_DEPTH).contains(&depth) => Ok(depth),
        _ => Err(format!("bad depth {d}: expected 1..={MAX_DEPTH}")),
    }
}

fn parse_tech(flags: &HashMap<String, String>) -> Result<Technology, String> {
    match flags.get("tech").map(String::as_str).unwrap_or("egt") {
        "egt" => Ok(Technology::Egt),
        "cnt" | "cnt-tft" => Ok(Technology::CntTft),
        "tsmc40" | "si" | "silicon" => Ok(Technology::Tsmc40),
        other => Err(format!("unknown technology {other}")),
    }
}

fn parse_tree_arch(name: &str) -> Result<TreeArch, String> {
    Ok(match name {
        "conv-serial" => TreeArch::ConventionalSerial,
        "conv-parallel" => TreeArch::ConventionalParallel,
        "bespoke-serial" => TreeArch::BespokeSerial,
        "bespoke-parallel" => TreeArch::BespokeParallel,
        "lookup" => TreeArch::Lookup(LookupConfig::baseline()),
        "lookup-opt" => TreeArch::Lookup(LookupConfig::optimized()),
        "analog" => TreeArch::Analog(AnalogTreeConfig::default()),
        other => return Err(format!("unknown tree architecture {other}")),
    })
}

fn parse_svm_arch(name: &str) -> Result<SvmArch, String> {
    Ok(match name {
        "conv" => SvmArch::Conventional,
        "bespoke" => SvmArch::Bespoke,
        "lookup" => SvmArch::Lookup(LookupConfig::baseline()),
        "lookup-opt" => SvmArch::Lookup(LookupConfig::optimized()),
        "analog" => SvmArch::Analog,
        other => return Err(format!("unknown svm architecture {other}")),
    })
}

/// The paper's analog engines exist in EGT only; reject other
/// technologies before training anything.
fn egt_only_if_analog(analog: bool, tech: Technology) -> Result<(), String> {
    if analog && tech != Technology::Egt {
        return Err(format!(
            "analog designs are EGT-only; {tech} was requested (use --tech egt)"
        ));
    }
    Ok(())
}

/// One line naming a trained tree: requested depth, nodes and width.
fn tree_model(flow: &TreeFlow) -> String {
    let (nodes, bits) = (flow.qt.comparison_count(), flow.choice.bits);
    format!("DT-{}, {nodes} nodes, {bits} bits", flow.depth)
}

/// One line naming a trained SVM: terms and width.
fn svm_model(flow: &SvmFlow) -> String {
    let (terms, bits) = (flow.qs.mac_count(), flow.choice.bits);
    format!("SVM-R, {terms} terms, {bits} bits")
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        println!("{}", usage());
        return Ok(());
    };
    match command.as_str() {
        "list" => {
            println!("datasets:");
            for app in Application::ALL {
                let d = app.generate(7);
                println!(
                    "  {:<11} {:>4} features, {:>2} classes, {:>5} samples",
                    app.name(),
                    d.n_features(),
                    d.n_classes,
                    d.len()
                );
            }
            Ok(())
        }
        "cache" => {
            // Point at the store without enabling lookups: stats/clear
            // are administrative.
            let root = printed_ml::cache::default_disk_root();
            printed_ml::cache::set_disk_root(Some(root.clone()));
            let root = root.display();
            match args.get(1).map(String::as_str) {
                Some("stats") => {
                    match printed_ml::cache::disk_stats() {
                        Some(stats) if !stats.is_empty() => {
                            println!("{:<20} {:>8} {:>12}", "domain", "entries", "bytes");
                            let (mut entries, mut bytes) = (0, 0);
                            for d in &stats {
                                println!("{:<20} {:>8} {:>12}", d.domain, d.entries, d.bytes);
                                entries += d.entries;
                                bytes += d.bytes;
                            }
                            println!("{:<20} {:>8} {:>12}", "total", entries, bytes);
                        }
                        _ => println!("cache at {root} is empty"),
                    }
                    Ok(())
                }
                Some("clear") => {
                    let removed =
                        printed_ml::cache::clear().map_err(|e| format!("clearing {root}: {e}"))?;
                    println!("removed {removed} entries from {root}");
                    Ok(())
                }
                other => Err(format!(
                    "cache takes `stats` or `clear`, got {}",
                    other.unwrap_or("nothing")
                )),
            }
        }
        "report" | "generate" | "sweep" | "variation" => {
            let flags = parse_flags(command, &args[1..])?;
            if !flags.contains_key("no-cache") {
                printed_ml::cache::enable_default();
            }
            let app = parse_app(&flags)?;
            let depth = flags
                .get("depth")
                .map(|d| parse_depth(d))
                .transpose()?
                .unwrap_or(4);
            let tech = parse_tech(&flags)?;
            let is_svm = flags.contains_key("svm");
            let arch = flags.get("arch").map(String::as_str);
            match command.as_str() {
                "report" => {
                    let r = if is_svm {
                        let arch = parse_svm_arch(arch.unwrap_or("bespoke"))?;
                        egt_only_if_analog(arch == SvmArch::Analog, tech)?;
                        let flow = SvmFlow::new(app, 7);
                        let accuracy = flow.choice.accuracy;
                        println!("model: {}, accuracy {accuracy:.3}", svm_model(&flow));
                        flow.report(arch, tech)
                    } else {
                        let arch = parse_tree_arch(arch.unwrap_or("bespoke-parallel"))?;
                        egt_only_if_analog(matches!(arch, TreeArch::Analog(_)), tech)?;
                        let flow = TreeFlow::new(app, depth, 7);
                        let accuracy = flow.choice.accuracy;
                        println!("model: {}, accuracy {accuracy:.3}", tree_model(&flow));
                        flow.report(arch, tech)
                    };
                    println!("{r}");
                    println!("power: {}", r.feasibility());
                    Ok(())
                }
                "generate" => {
                    let (module, cycles) = if is_svm {
                        let arch = parse_svm_arch(arch.unwrap_or("bespoke"))?;
                        (SvmFlow::new(app, 7).module(arch), SvmFlow::CYCLES)
                    } else {
                        let arch = parse_tree_arch(arch.unwrap_or("bespoke-parallel"))?;
                        let flow = TreeFlow::new(app, depth, 7);
                        (flow.module(arch), flow.cycles(arch))
                    };
                    let module = module.ok_or("analog designs have no netlist; use `report`")?;
                    println!(
                        "generated {}: {} gates, {} ROMs, {} nets",
                        module.name,
                        module.gate_count(),
                        module.roms.len(),
                        module.net_count()
                    );
                    if let Some(path) = flags.get("verilog") {
                        std::fs::write(path, to_verilog(&module))
                            .map_err(|e| format!("writing {path}: {e}"))?;
                        println!("wrote {path}");
                    }
                    if let Some(path) = flags.get("testbench") {
                        // A small smoke set: all zeros, every port at its
                        // maximum, then six ramps reduced to each port's
                        // own range.
                        let vectors: Vec<Vec<u64>> = (0..8u64)
                            .map(|k| {
                                module
                                    .inputs
                                    .iter()
                                    .enumerate()
                                    .map(|(i, p)| {
                                        let max = u64::MAX >> (64 - p.width().clamp(1, 64));
                                        match k {
                                            0 => 0,
                                            1 => max,
                                            _ => (k * 37 + i as u64 * 11) & max,
                                        }
                                    })
                                    .collect()
                            })
                            .collect();
                        std::fs::write(path, to_testbench(&module, &vectors, cycles))
                            .map_err(|e| format!("writing {path}: {e}"))?;
                        println!("wrote {path}");
                    }
                    Ok(())
                }
                "sweep" => {
                    let flow = TreeFlow::new(app, depth, 7);
                    println!(
                        "{:<18} {:<9} {:>12} {:>12} {:>12}  {}",
                        "architecture", "tech", "latency", "area", "power", "powered by"
                    );
                    for (name, arch) in [
                        ("conv-serial", TreeArch::ConventionalSerial),
                        ("conv-parallel", TreeArch::ConventionalParallel),
                        ("bespoke-serial", TreeArch::BespokeSerial),
                        ("bespoke-parallel", TreeArch::BespokeParallel),
                        ("lookup-opt", TreeArch::Lookup(LookupConfig::optimized())),
                        ("analog", TreeArch::Analog(AnalogTreeConfig::default())),
                    ] {
                        // The analog engine exists in EGT only.
                        let analog = matches!(arch, TreeArch::Analog(_));
                        let t = if analog { Technology::Egt } else { tech };
                        let r = flow.report(arch, t);
                        println!(
                            "{:<18} {:<9} {:>12} {:>12} {:>12}  {}",
                            name,
                            t.to_string(),
                            r.latency.to_string(),
                            r.area.to_string(),
                            r.power.to_string(),
                            r.feasibility().source_name()
                        );
                    }
                    Ok(())
                }
                "variation" => {
                    // Checked here too, so a bad sigma fails before training.
                    let sigmas: Vec<f64> = flags
                        .get("sigmas")
                        .map(String::as_str)
                        .unwrap_or("0.02,0.05,0.1,0.2")
                        .split(',')
                        .map(|s| {
                            let v: f64 = s
                                .trim()
                                .parse()
                                .map_err(|_| format!("bad sigma {s} (not a number)"))?;
                            check_sigma(v, is_svm).map_err(|e| e.to_string())?;
                            Ok(v)
                        })
                        .collect::<Result<_, String>>()?;
                    let parse_n = |key: &str, default: usize| -> Result<usize, String> {
                        flags
                            .get(key)
                            .map(|v| {
                                v.parse::<usize>()
                                    .ok()
                                    .filter(|n| *n > 0)
                                    .ok_or_else(|| format!("bad {key} {v}"))
                            })
                            .transpose()
                            .map(|n| n.unwrap_or(default))
                    };
                    let trials = parse_n("trials", 100)?;
                    let rows = parse_n("rows", 100)?;
                    let seed: u64 = flags
                        .get("seed")
                        .map(|v| v.parse().map_err(|_| format!("bad seed {v}")))
                        .transpose()?
                        .unwrap_or(7);
                    let (model, reports) = if is_svm {
                        let flow = SvmFlow::new(app, 7);
                        let reports = flow.variation_sweep(&sigmas, trials, rows, seed);
                        (svm_model(&flow), reports)
                    } else {
                        let flow = TreeFlow::new(app, depth, 7);
                        let reports = flow.variation_sweep(&sigmas, trials, rows, seed);
                        (tree_model(&flow), reports)
                    };
                    let reports = reports.map_err(|e| e.to_string())?;
                    println!("model: {model}; {trials} trials, seed {seed}");
                    println!(
                        "{:<8} {:>16} {:>17}",
                        "sigma", "mean agreement", "worst agreement"
                    );
                    for r in reports {
                        println!(
                            "{:<8} {:>16.3} {:>17.3}",
                            r.sigma, r.mean_agreement, r.worst_agreement
                        );
                    }
                    Ok(())
                }
                _ => unreachable!(),
            }
        }
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other}\n\n{}", usage())),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
