//! `perf` — the repository's benchmark: five workloads through the
//! train → generate → optimize → PPA → verify → vary flow, measured end
//! to end and per layer. See README.md in this directory.
//!
//! ```text
//! cargo run --release --offline --manifest-path perf/Cargo.toml -- \
//!     [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--json PATH]
//! ```
//!
//! Each workload runs in this process: set-up (repeated, median
//! reported) → one untimed warm-up pass whose outputs are checked
//! against reference engines → timed passes for `--seconds`. With
//! `--trace 1` traced passes alternate with the timed ones and the
//! per-layer metrics come from them. Stdout gets one `workload metric
//! value unit` line per metric and, last, one JSON result line per
//! workload; the full `perf-v1` report goes to `--json`.

mod metrics;
mod stats;
mod trace;
mod workloads;

use std::time::{Duration, Instant};

use serde::Value;

use metrics::Metric;
use stats::summarize;
use trace::{Pass, PassTrace, Tally, Trace};
use workloads::{Def, Workload, WORKLOADS};

/// Worker threads every workload runs on.
const THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Fewest timed passes per run, however long a pass takes.
const MIN_TIMED: usize = 3;
/// Fewest traced passes per traced run.
const MIN_TRACED: usize = 2;
const DEFAULT_SEED: u64 = 7;
const DEFAULT_SECONDS: u64 = 10;
const DEFAULT_JSON: &str = "bench/out/perf.json";
const SCHEMA: &str = "perf-v1";

/// End-to-end metrics of the result line, with their units. The report
/// also carries `peak_rss_mb` and `error_rate`: peak RSS of the repro
/// workloads moves with malloc arena reuse and thread interleaving by
/// more than any bound could absorb, and the error rate is 0 in a
/// healthy run (the result line's `failed` carries it).
const END_TO_END: [(&str, &str); 2] = [("wall_s", "s"), ("setup_s", "s")];

struct Opts {
    workloads: Vec<&'static Def>,
    seed: u64,
    seconds: u64,
    trace: bool,
    json: String,
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: perf [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--json PATH]"
    );
    eprintln!(
        "workloads: {}",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Opts {
    let mut opts = Opts {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: true,
        json: DEFAULT_JSON.to_string(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} requires a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value();
                let def = WORKLOADS
                    .iter()
                    .find(|w| w.name == name)
                    .unwrap_or_else(|| usage_error(&format!("unknown workload: {name}")));
                opts.workloads.push(def);
            }
            "--seed" => {
                opts.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seed requires an unsigned integer"));
            }
            "--seconds" => {
                opts.seconds = value()
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .unwrap_or_else(|| usage_error("--seconds requires a positive integer"));
            }
            "--trace" => {
                opts.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage_error("--trace requires 0 or 1"),
                };
            }
            "--json" => opts.json = value().clone(),
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = WORKLOADS.iter().collect();
    }
    opts
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) for this process.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set since the last reset, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn git_rev() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// One metric over a run: its per-pass (or per-set-up) samples.
struct Series {
    name: String,
    unit: &'static str,
    samples: Vec<f64>,
}

impl Series {
    fn new(name: &str, unit: &'static str, samples: Vec<f64>) -> Self {
        Series {
            name: name.to_string(),
            unit,
            samples,
        }
    }

    fn value(&self) -> f64 {
        summarize(&self.samples).median
    }

    fn to_json(&self) -> Value {
        let s = summarize(&self.samples);
        Value::Object(vec![
            ("median".into(), Value::Float(s.median)),
            ("q1".into(), Value::Float(s.q1)),
            ("q3".into(), Value::Float(s.q3)),
            ("n".into(), Value::UInt(s.n as u64)),
            ("unit".into(), Value::Str(self.unit.into())),
            (
                "samples".into(),
                Value::Array(self.samples.iter().map(|&v| Value::Float(v)).collect()),
            ),
        ])
    }
}

/// Everything one workload's run measured.
struct Run {
    name: &'static str,
    end_to_end: Vec<Series>,
    per_layer: Vec<Series>,
    traces: Vec<PassTrace>,
    attempted: u64,
    failed: u64,
    rss_reset: bool,
}

/// Runs one pass; returns its wall time (prepare and finish untimed).
fn timed_pass(w: &mut dyn Workload, p: &Pass) -> Duration {
    w.prepare(p);
    let start = Instant::now();
    w.pass(p);
    let wall = start.elapsed();
    w.finish(p);
    wall
}

fn traced_pass(w: &mut dyn Workload, seed: u64, tally: &Tally) -> PassTrace {
    let untraced = Pass::new(seed, false, tally, None);
    w.prepare(&untraced);
    let trace = Trace::new();
    let p = Pass::new(seed, false, tally, Some(&trace));
    w.pass(&p);
    let wall_ns = trace.elapsed_ns();
    w.finish(&p);
    trace.into_pass(wall_ns)
}

fn run_workload(def: &Def, opts: &Opts) -> Run {
    let rss_reset = reset_peak_rss();
    let tally = Tally::default();
    let seed = opts.seed;

    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut state: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous state first so set-up memory does not stack.
        drop(state.take());
        let start = Instant::now();
        let w = (def.setup)(&Pass::new(seed, false, &tally, None));
        setup_s.push(start.elapsed().as_secs_f64());
        state = Some(w);
    }
    let mut w = state.expect("set-up ran");
    timed_pass(&mut *w, &Pass::new(seed, true, &tally, None));

    let budget = Duration::from_secs(opts.seconds);
    let start = Instant::now();
    let mut wall_s = Vec::new();
    let mut traces = Vec::new();
    loop {
        let d = timed_pass(&mut *w, &Pass::new(seed, false, &tally, None));
        wall_s.push(d.as_secs_f64());
        if opts.trace {
            traces.push(traced_pass(&mut *w, seed, &tally));
        }
        let enough = if opts.trace {
            traces.len() >= MIN_TRACED
        } else {
            wall_s.len() >= MIN_TIMED
        };
        if enough && start.elapsed() >= budget {
            break;
        }
    }
    drop(w);
    let attempted = tally.attempted();
    let failed = tally.failed();

    let end_to_end = vec![
        Series::new("wall_s", "s", wall_s),
        Series::new("setup_s", "s", setup_s),
        Series::new("peak_rss_mb", "MiB", vec![peak_rss_mb()]),
        Series::new(
            "error_rate",
            "fraction",
            vec![failed as f64 / attempted.max(1) as f64],
        ),
    ];
    let per_layer = per_layer_series(&traces, end_to_end[0].value());
    Run {
        name: def.name,
        end_to_end,
        per_layer,
        traces,
        attempted,
        failed,
        rss_reset,
    }
}

/// Per-layer metrics over the traced passes, plus the tracing overhead
/// against the untraced passes' median wall time.
fn per_layer_series(traces: &[PassTrace], untraced_wall_s: f64) -> Vec<Series> {
    let mut out: Vec<Series> = Vec::new();
    for t in traces {
        for Metric { name, value, unit } in metrics::per_layer(t, THREADS) {
            match out.iter_mut().find(|s| s.name == name) {
                Some(s) => s.samples.push(value),
                None => out.push(Series {
                    name,
                    unit,
                    samples: vec![value],
                }),
            }
        }
    }
    if !traces.is_empty() {
        let traced: Vec<f64> = traces.iter().map(PassTrace::wall_s).collect();
        let overhead = (summarize(&traced).median / untraced_wall_s - 1.0) * 100.0;
        out.push(Series::new("trace.overhead_pct", "%", vec![overhead]));
    }
    out
}

/// The result line: `end_to_end` metrics, or `per_layer` ones when
/// traced.
fn result_line(run: &Run, traced: bool) -> String {
    let metrics: Vec<(String, Value)> = if traced {
        run.per_layer
            .iter()
            .map(|s| (s.name.clone(), metric_value(s)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .filter_map(|(name, _)| run.end_to_end.iter().find(|s| s.name == *name))
            .map(|s| (s.name.clone(), metric_value(s)))
            .collect()
    };
    Value::Object(vec![
        ("correct".into(), Value::Bool(run.failed == 0)),
        ("attempted".into(), Value::UInt(run.attempted)),
        ("failed".into(), Value::UInt(run.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ])
    .render_compact()
}

fn metric_value(s: &Series) -> Value {
    Value::Object(vec![
        ("value".into(), Value::Float(s.value())),
        ("unit".into(), Value::Str(s.unit.into())),
    ])
}

fn report(runs: &[Run], opts: &Opts) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let provenance = Value::Object(vec![
        ("seed".into(), Value::UInt(opts.seed)),
        ("threads".into(), Value::UInt(THREADS as u64)),
        ("nproc".into(), Value::UInt(nproc as u64)),
        ("seconds".into(), Value::UInt(opts.seconds)),
        ("trace".into(), Value::Bool(opts.trace)),
        ("setup_repeats".into(), Value::UInt(SETUP_REPEATS as u64)),
        ("git_rev".into(), git_rev().map_or(Value::Null, Value::Str)),
    ]);
    let workloads = runs
        .iter()
        .map(|run| {
            let passes = Value::Object(vec![
                ("setup".into(), Value::UInt(SETUP_REPEATS as u64)),
                ("warm_up".into(), Value::UInt(1)),
                (
                    "timed".into(),
                    Value::UInt(run.end_to_end[0].samples.len() as u64),
                ),
                ("traced".into(), Value::UInt(run.traces.len() as u64)),
            ]);
            let metrics = run
                .end_to_end
                .iter()
                .chain(&run.per_layer)
                .map(|s| (s.name.clone(), s.to_json()))
                .collect();
            Value::Object(vec![
                ("name".into(), Value::Str(run.name.into())),
                ("passes".into(), passes),
                ("attempted".into(), Value::UInt(run.attempted)),
                ("failed".into(), Value::UInt(run.failed)),
                // False when VmHWM could not be reset: peak_rss_mb is
                // then the process-lifetime peak.
                ("rss_reset".into(), Value::Bool(run.rss_reset)),
                ("metrics".into(), Value::Object(metrics)),
                (
                    "trace".into(),
                    Value::Array(run.traces.iter().map(PassTrace::to_json).collect()),
                ),
            ])
        })
        .collect();
    Value::Object(vec![
        ("schema".into(), Value::Str(SCHEMA.into())),
        ("provenance".into(), provenance),
        ("workloads".into(), Value::Array(workloads)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args);
    exec::set_threads(THREADS);

    let mut runs = Vec::new();
    for def in &opts.workloads {
        eprintln!("[perf] {} (seed {})", def.name, opts.seed);
        let run = run_workload(def, &opts);
        for s in run.end_to_end.iter().chain(&run.per_layer) {
            println!("{} {} {} {}", run.name, s.name, s.value(), s.unit);
        }
        println!("{}", result_line(&run, opts.trace));
        runs.push(run);
    }

    let body = report(&runs, &opts).render_pretty();
    let path = std::path::Path::new(&opts.json);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).ok();
    }
    if let Err(err) = std::fs::write(path, body) {
        eprintln!("error: cannot write {}: {err}", opts.json);
        std::process::exit(1);
    }
    eprintln!("[perf] wrote {}", opts.json);
    if runs.iter().any(|r| r.failed > 0) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::workloads::EXPERIMENTS;

    fn parse_file(name: &str) -> Value {
        let path = format!("{}/../{name}", env!("CARGO_MANIFEST_DIR"));
        let body = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        serde_json::parse(&body).unwrap_or_else(|e| panic!("parse {path}: {e}"))
    }

    fn strings(list: &Value, key: &str) -> Vec<String> {
        list.as_array()
            .expect("array")
            .iter()
            .map(|v| {
                v.get(key)
                    .and_then(Value::as_str)
                    .expect("string field")
                    .to_string()
            })
            .collect()
    }

    /// `(name, unit)` of every per-layer metric a traced run emits.
    fn emitted_per_layer() -> Vec<(String, String)> {
        let empty = PassTrace {
            wall_ns: 1,
            spans: Vec::new(),
            counts: BTreeMap::new(),
        };
        per_layer_series(&[empty], 1.0)
            .iter()
            .map(|s| (s.name.clone(), s.unit.to_string()))
            .collect()
    }

    fn listed(bench: &Value, key: &str) -> Vec<(String, String)> {
        let list = bench.get(key).expect("metric list");
        strings(list, "name")
            .into_iter()
            .zip(strings(list, "unit"))
            .collect()
    }

    #[test]
    fn emitted_names_and_units_are_well_formed() {
        let name_ok = |s: &str| {
            (1..=64).contains(&s.len())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            (1..=16).contains(&s.len())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let end_to_end = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()));
        for (name, unit) in end_to_end.chain(emitted_per_layer()) {
            assert!(name_ok(&name), "bad metric name {name:?}");
            assert!(unit_ok(&unit), "bad unit {unit:?} of {name}");
        }
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "bad workload name {:?}", w.name);
        }
    }

    #[test]
    fn names_match_benchmark_json() {
        let bench = parse_file("BENCHMARK.json");
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(
            strings(bench.get("workloads").expect("workloads"), "name"),
            workloads
        );
        let end_to_end: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(&bench, "end_to_end"), end_to_end);
        assert_eq!(listed(&bench, "per_layer"), emitted_per_layer());
    }

    #[test]
    fn experiments_match_the_committed_report() {
        let report = parse_file("repro_results.json");
        let names: Vec<&str> = EXPERIMENTS.iter().map(|&(n, _)| n).collect();
        assert_eq!(
            strings(report.get("experiments").expect("experiments"), "name"),
            names
        );
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let run = Run {
            name: "design",
            end_to_end: vec![
                Series::new("wall_s", "s", vec![2.0, 1.0, 3.0]),
                Series::new("setup_s", "s", vec![0.5]),
                Series::new("peak_rss_mb", "MiB", vec![100.0]),
                Series::new("error_rate", "fraction", vec![0.0]),
            ],
            per_layer: Vec::new(),
            traces: Vec::new(),
            attempted: 10,
            failed: 0,
            rss_reset: true,
        };
        let line = serde_json::parse(&result_line(&run, false)).expect("JSON line");
        let Value::Object(fields) = &line else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = line
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("wall_s");
        assert_eq!(wall.get("value").and_then(Value::as_f64), Some(2.0));
        for reported_only in ["peak_rss_mb", "error_rate"] {
            assert!(line
                .get("metrics")
                .and_then(|m| m.get(reported_only))
                .is_none());
        }
    }
}
