//! Differential fuzzing driver.
//!
//! ```text
//! check_fuzz --smoke                 # the fixed CI block: seed 0xC0FFEE, 300 cases
//! check_fuzz --seed 7 --cases 1000   # a custom block
//! check_fuzz --threads 4             # pin the shard pool (default: all cores)
//! check_fuzz --json                  # machine-readable summary on stdout
//! check_fuzz --replay                # replay the committed corpus and exit
//! check_fuzz --repin-corpus          # regenerate the seeded bug-class fixtures
//! ```
//!
//! Exit status is non-zero iff any oracle pair disagreed (or a corpus
//! entry regressed). On a mismatch the failing case is shrunk and the
//! minimized reproducer written into the corpus directory so it can be
//! committed as a pinned regression test.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use check::corpus::{self, Reproducer};
use check::{digest, oracle, shrink, CaseOutcome, OracleKind};

/// The fixed CI smoke block: every CI run fuzzes exactly these cases,
/// so a red fuzz job is reproducible with one command.
const SMOKE_SEED: u64 = 0xC0FFEE;
/// Smoke case count — 50 cases per oracle.
const SMOKE_CASES: u64 = 300;
/// Smoke wall-clock budget: the run aborts (cleanly, between batches)
/// rather than wedge a CI lane.
const SMOKE_BUDGET_SECS: u64 = 55;

/// Cases per scheduling batch: small enough that a time budget is
/// honored promptly, large enough to keep every worker busy.
const BATCH: u64 = 50;

struct Options {
    seed: u64,
    cases: u64,
    threads: Option<usize>,
    json: bool,
    replay: bool,
    repin: bool,
    no_shrink: bool,
    budget_secs: Option<u64>,
    corpus_dir: PathBuf,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        seed: SMOKE_SEED,
        cases: SMOKE_CASES,
        threads: None,
        json: false,
        replay: false,
        repin: false,
        no_shrink: false,
        budget_secs: None,
        corpus_dir: corpus::default_dir(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--smoke" => {
                opts.seed = SMOKE_SEED;
                opts.cases = SMOKE_CASES;
                opts.budget_secs = Some(SMOKE_BUDGET_SECS);
            }
            "--seed" => opts.seed = parse_u64(&value("--seed")?)?,
            "--cases" => opts.cases = parse_u64(&value("--cases")?)?,
            "--threads" => {
                opts.threads = Some(parse_u64(&value("--threads")?)? as usize);
            }
            "--budget-secs" => opts.budget_secs = Some(parse_u64(&value("--budget-secs")?)?),
            "--corpus-dir" => opts.corpus_dir = PathBuf::from(value("--corpus-dir")?),
            "--json" => opts.json = true,
            "--replay" => opts.replay = true,
            "--repin-corpus" => opts.repin = true,
            "--no-shrink" => opts.no_shrink = true,
            "--help" | "-h" => {
                println!(
                    "usage: check_fuzz [--smoke] [--seed N] [--cases N] [--threads N] \
                     [--budget-secs N] [--corpus-dir DIR] [--json] [--replay] \
                     [--repin-corpus] [--no-shrink]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.map_err(|e| format!("bad number {s:?}: {e}"))
}

fn replay_corpus(dir: &std::path::Path, json: bool) -> ExitCode {
    let entries = match corpus::load_all(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("check_fuzz: cannot read corpus {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    let mut failures = 0usize;
    for (path, repro) in &entries {
        if let Err(e) = repro.replay() {
            eprintln!("check_fuzz: corpus regression {}: {e}", path.display());
            failures += 1;
        }
    }
    if json {
        println!(
            "{{\"corpus\": {}, \"regressions\": {failures}}}",
            entries.len()
        );
    } else {
        println!(
            "check_fuzz: replayed {} corpus entries, {failures} regressions",
            entries.len()
        );
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn repin_corpus(dir: &std::path::Path) -> ExitCode {
    for fixture in corpus::seeded_fixtures() {
        match corpus::save(dir, &fixture) {
            Ok(path) => println!("check_fuzz: pinned {}", path.display()),
            Err(e) => {
                eprintln!("check_fuzz: cannot write fixture: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Shrinks the module of a mismatching module-driven case
/// ([`oracle::case_module`]) against [`oracle::check_module`] and writes
/// the minimized reproducer. Seed-driven oracles (variation, model) pin
/// the bare seed.
fn write_reproducer(opts: &Options, outcome: &CaseOutcome) -> Option<PathBuf> {
    let (kind, seed) = (outcome.oracle, outcome.seed);
    let module = oracle::case_module(kind, seed).map(|raw| {
        let still_fails = |m: &netlist::Module| oracle::check_module(kind, m, seed).is_err();
        if opts.no_shrink {
            raw
        } else {
            shrink::shrink_module(&raw, &still_fails)
        }
    });
    let repro = Reproducer {
        oracle: kind.name().to_string(),
        seed,
        note: format!(
            "fuzzer-found mismatch: {}",
            outcome.mismatch.as_deref().unwrap_or("")
        ),
        module,
    };
    match corpus::save(&opts.corpus_dir, &repro) {
        Ok(path) => Some(path),
        Err(e) => {
            eprintln!("check_fuzz: cannot write reproducer: {e}");
            None
        }
    }
}

fn fuzz(opts: &Options) -> ExitCode {
    let start = Instant::now();
    let mut outcomes: Vec<CaseOutcome> = Vec::with_capacity(opts.cases as usize);
    let mut truncated = false;
    let mut next = 0u64;
    while next < opts.cases {
        if let Some(budget) = opts.budget_secs {
            if start.elapsed().as_secs() >= budget {
                truncated = true;
                break;
            }
        }
        let end = (next + BATCH).min(opts.cases);
        let indices: Vec<u64> = (next..end).collect();
        outcomes.extend(exec::parallel_map(&indices, |_, &i| {
            check::run_case(opts.seed, i)
        }));
        next = end;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let d = digest(&outcomes);
    let mut per_oracle = [0usize; OracleKind::ALL.len()];
    let mut mismatches: Vec<&CaseOutcome> = Vec::new();
    for o in &outcomes {
        let slot = OracleKind::ALL
            .iter()
            .position(|k| *k == o.oracle)
            .unwrap_or(0);
        per_oracle[slot] += 1;
        if o.mismatch.is_some() {
            mismatches.push(o);
        }
    }
    for m in &mismatches {
        eprintln!(
            "check_fuzz: MISMATCH oracle={} index={} seed={:#018x}: {}",
            m.oracle.name(),
            m.index,
            m.seed,
            m.mismatch.as_deref().unwrap_or("")
        );
        if let Some(path) = write_reproducer(opts, m) {
            eprintln!(
                "check_fuzz: minimized reproducer written to {}",
                path.display()
            );
        }
    }
    if opts.json {
        let per: Vec<String> = OracleKind::ALL
            .iter()
            .zip(per_oracle)
            .map(|(k, n)| format!("\"{}\": {n}", k.name()))
            .collect();
        println!(
            "{{\"seed\": {}, \"cases\": {}, \"digest\": \"{d:#018x}\", \
             \"mismatches\": {}, \"truncated\": {truncated}, \
             \"elapsed_secs\": {elapsed:.3}, \"per_oracle\": {{{}}}}}",
            opts.seed,
            outcomes.len(),
            mismatches.len(),
            per.join(", ")
        );
    } else {
        let per: Vec<String> = OracleKind::ALL
            .iter()
            .zip(per_oracle)
            .map(|(k, n)| format!("{}={n}", k.name()))
            .collect();
        println!(
            "check_fuzz: seed={:#x} cases={} digest={d:#018x} {} mismatches={}{} \
             elapsed={elapsed:.2}s",
            opts.seed,
            outcomes.len(),
            per.join(" "),
            mismatches.len(),
            if truncated { " (budget hit)" } else { "" },
        );
    }
    if mismatches.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("check_fuzz: {e}");
            return ExitCode::FAILURE;
        }
    };
    if opts.repin {
        return repin_corpus(&opts.corpus_dir);
    }
    let run = || {
        if opts.replay {
            replay_corpus(&opts.corpus_dir, opts.json)
        } else {
            fuzz(&opts)
        }
    };
    match opts.threads {
        Some(n) => exec::with_threads(n, run),
        None => run(),
    }
}
