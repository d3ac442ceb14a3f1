//! Runs every table and figure regenerator, printing all results in the
//! canonical order and optionally dumping a combined JSON report
//! (`--json PATH`).
//!
//! The experiments are independent (each builds its own seeded
//! workloads), so they are fanned out over the [`exec`] work pool and the
//! finished tables are reassembled in list order — the printed output and
//! the report are identical at any thread count, timing fields aside.
//!
//! Flags:
//!
//! - `--threads N` — pin the worker count (also settable via the
//!   `PRINTED_ML_THREADS` environment variable; defaults to the
//!   machine's hardware parallelism);
//! - `--smoke` — run every experiment over reduced workloads (CI's
//!   end-to-end harness check);
//! - `--only NAME` — run just the named experiment (`table1` … `table5`,
//!   `fig3` … `fig19`, `ablations`); repeat the flag for several. The
//!   report lists them in canonical order;
//! - `--no-cache` — disable the content-addressed artifact cache (also
//!   settable via `PRINTED_ML_NO_CACHE=1`); by default warm runs reuse
//!   trained models, optimized netlists and PPA results from
//!   `bench/out/cache/` (see `docs/caching.md`) and produce
//!   byte-identical `experiments`/`verify` sections;
//! - `--verify` — append the equivalence/fault-grading sign-off stage
//!   (see [`bench::verify`]); the process exits nonzero if any
//!   architecture disagrees with its unoptimized reference;
//! - `--json PATH` — write the report (thread count, smoke flag,
//!   per-experiment tables, the `--verify` section when requested, and
//!   the unified [`obs`] `report` section with the span tree and
//!   pipeline counters) to `PATH`.
//!
//! Timing and optimizer throughput live exclusively in the `report`
//! section: per-experiment wall-clock under the `repro_all > <name>`
//! spans, optimizer totals under the `netlist.opt.*` counters. (The
//! deprecated top-level `seconds`/`optimizer` mirrors were removed after
//! their one-release migration window, PR 4 → PR 7.)
//!
//! See `docs/observability.md` for how to read the `report` section.

use serde::Serialize;

use bench::experiments::{Experiment, ALL};

/// One finished experiment in the JSON report. Wall-clock timing lives
/// in the `report` span tree, not here, so the experiment entries are
/// bit-identical between runs.
#[derive(Serialize)]
struct ExperimentResult {
    name: &'static str,
    tables: Vec<bench::Table>,
}

/// The combined `--json` report.
#[derive(Serialize)]
struct Report {
    threads: usize,
    smoke: bool,
    experiments: Vec<ExperimentResult>,
    /// Sign-off outcomes (present with `--verify`).
    verify: Option<bench::verify::VerifyReport>,
    /// Unified observability report (`obs-report-v1`): the hierarchical
    /// span tree plus every pipeline counter and gauge.
    report: obs::Report,
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: repro_all [--threads N] [--smoke] [--only NAME]... [--verify] [--no-cache] [--json PATH]"
    );
    let names: Vec<&str> = ALL.iter().map(|&(name, _)| name).collect();
    eprintln!("experiments: {}", names.join(", "));
    std::process::exit(2);
}

fn main() {
    let mut smoke = false;
    let mut verify = false;
    let mut no_cache = false;
    let mut json_path: Option<String> = None;
    let mut only: Vec<&str> = Vec::new();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--verify" => verify = true,
            "--no-cache" => no_cache = true,
            "--threads" => {
                i += 1;
                let Some(n) = args.get(i).and_then(|v| v.parse().ok()).filter(|&n| n > 0) else {
                    usage_error("--threads requires a positive integer");
                };
                exec::set_threads(n);
            }
            "--only" => {
                i += 1;
                let Some(name) = args.get(i) else {
                    usage_error("--only requires an experiment name");
                };
                let Some(&(known, _)) = ALL.iter().find(|&&(n, _)| n == name) else {
                    usage_error(&format!("unknown experiment: {name}"));
                };
                only.push(known);
            }
            "--json" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    usage_error("--json requires a path");
                };
                json_path = Some(path.clone());
            }
            other => usage_error(&format!("unknown argument: {other}")),
        }
        i += 1;
    }
    bench::workloads::set_smoke(smoke);
    if !no_cache {
        cache::enable_default();
    }
    obs::reset();
    let root_span = obs::span("repro_all");

    let experiments: Vec<Experiment> = ALL
        .into_iter()
        .filter(|&(name, _)| only.is_empty() || only.contains(&name))
        .collect();
    let threads = exec::threads();
    eprintln!(
        "[repro] running {} experiments on {} thread(s){}, cache {}",
        experiments.len(),
        threads,
        if smoke { " (smoke)" } else { "" },
        if cache::enabled() { "on" } else { "off" }
    );
    let finished: Vec<Vec<bench::Table>> = exec::parallel_map(&experiments, |_, &(name, f)| {
        let _span = obs::span(name);
        let (tables, seconds) = exec::time(f);
        eprintln!("[repro] {name} finished in {seconds:.2}s");
        tables
    });

    let mut results = Vec::with_capacity(experiments.len());
    for (&(name, _), tables) in experiments.iter().zip(finished) {
        for t in &tables {
            print!("{t}");
        }
        results.push(ExperimentResult { name, tables });
    }
    let verify_report = if verify {
        let _span = obs::span("verify");
        let ((tables, report), seconds) = exec::time(bench::verify::run_verify);
        eprintln!("[repro] verify finished in {seconds:.2}s");
        for t in &tables {
            print!("{t}");
        }
        Some(report)
    } else {
        None
    };
    drop(root_span);
    let obs_report = obs::report();
    eprint!("{}", obs_report.text_summary());

    if let Some(path) = json_path {
        let report = Report {
            threads,
            smoke,
            experiments: results,
            verify: verify_report.clone(),
            report: obs_report,
        };
        let body = serde_json::to_string_pretty(&report).expect("serialize report");
        if let Some(dir) = std::path::Path::new(&path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).ok();
            }
        }
        if let Err(err) = std::fs::write(&path, body) {
            eprintln!("error: cannot write {path}: {err}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
    if let Some(v) = &verify_report {
        if !v.passed() {
            eprintln!(
                "error: verification found {} failing sign-off check(s)",
                v.counter_examples
            );
            std::process::exit(1);
        }
        eprintln!(
            "[repro] verify: all {} sign-off checks passed ({:.0} vectors/sec, {:.0} faults/sec)",
            v.equivalence.len(),
            v.vectors_per_sec,
            v.faults_per_sec
        );
    }
}
