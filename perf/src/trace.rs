//! Per-pass call wrapper: failure accounting and the in-memory trace.
//!
//! Every call the benchmark makes into a layer goes through
//! [`Pass::call`]. The call runs under `catch_unwind`, so a panic counts
//! as one failed operation instead of aborting the run. On a traced pass
//! the call is also recorded as a span (layer name, start, end, work
//! done) around the public function; spans sit flat under the pass, so a
//! layer's self time is the sum of its span durations. Untraced passes
//! record nothing.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::Value;

/// Operations attempted and failed over a workload's whole run.
#[derive(Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Tally {
    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }
}

/// One recorded call into a layer.
pub struct Span {
    /// Layer name (or experiment name on the repro workloads).
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Units of work the call did: models, gates, vectors, sites, trials.
    pub work: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Spans and exact counts of one traced pass.
pub struct Trace {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    pub fn elapsed_ns(&self) -> u64 {
        self.ns(Instant::now())
    }

    pub fn into_pass(self, wall_ns: u64) -> PassTrace {
        PassTrace {
            wall_ns,
            spans: self.spans.into_inner().expect("no span writer panicked"),
            counts: self
                .counts
                .into_inner()
                .expect("no counter writer panicked"),
        }
    }
}

/// A finished traced pass.
pub struct PassTrace {
    pub wall_ns: u64,
    pub spans: Vec<Span>,
    pub counts: BTreeMap<&'static str, u64>,
}

impl PassTrace {
    pub fn wall_s(&self) -> f64 {
        self.wall_ns as f64 * 1e-9
    }

    /// Total seconds and work of the spans named `name`.
    pub fn layer(&self, name: &str) -> (f64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, w), s| (t + s.seconds(), w + s.work))
    }

    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// The pass as the span list written to the JSON report: the pass
    /// itself (index 0, no parent) followed by every layer call.
    pub fn to_json(&self) -> Value {
        let span = |name: &str, parent: Value, start: u64, end: u64, work: u64| {
            Value::Object(vec![
                ("name".into(), Value::Str(name.into())),
                ("parent".into(), parent),
                ("start_ns".into(), Value::UInt(start)),
                ("end_ns".into(), Value::UInt(end)),
                ("work".into(), Value::UInt(work)),
            ])
        };
        let mut spans = vec![span("pass", Value::Null, 0, self.wall_ns, 0)];
        spans.extend(
            self.spans
                .iter()
                .map(|s| span(s.name, Value::UInt(0), s.start_ns, s.end_ns, s.work)),
        );
        let counts = self
            .counts
            .iter()
            .map(|(k, v)| (k.to_string(), Value::UInt(*v)))
            .collect();
        Value::Object(vec![
            ("spans".into(), Value::Array(spans)),
            ("counts".into(), Value::Object(counts)),
        ])
    }
}

/// The context one pass (or set-up) runs its calls through.
pub struct Pass<'a> {
    pub seed: u64,
    /// True on the untimed warm-up pass, which runs the costly
    /// reference checks.
    pub warm_up: bool,
    tally: &'a Tally,
    trace: Option<&'a Trace>,
}

impl<'a> Pass<'a> {
    pub fn new(seed: u64, warm_up: bool, tally: &'a Tally, trace: Option<&'a Trace>) -> Self {
        Pass {
            seed,
            warm_up,
            tally,
            trace,
        }
    }

    /// Runs one operation of `layer`. Returns `None` (and counts a
    /// failure) if it panicked. `work` measures the result for the
    /// layer's rate; it is only evaluated on traced passes.
    pub fn call<T>(
        &self,
        layer: &'static str,
        f: impl FnOnce() -> T,
        work: impl FnOnce(&T) -> u64,
    ) -> Option<T> {
        self.tally.attempted.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(f));
        let end = Instant::now();
        match out {
            Ok(value) => {
                if let Some(trace) = self.trace {
                    let span = Span {
                        name: layer,
                        start_ns: trace.ns(start),
                        end_ns: trace.ns(end),
                        work: work(&value),
                    };
                    trace.spans.lock().expect("span list").push(span);
                }
                Some(value)
            }
            Err(_) => {
                self.tally.failed.fetch_add(1, Ordering::Relaxed);
                eprintln!("[perf] {layer}: operation panicked");
                None
            }
        }
    }

    /// Records a wrong output of an operation already counted by
    /// [`Pass::call`].
    pub fn check(&self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.tally.failed.fetch_add(1, Ordering::Relaxed);
            eprintln!("[perf] check failed: {}", what());
        }
    }

    pub fn traced(&self) -> bool {
        self.trace.is_some()
    }

    /// Adds `n` to an exact per-pass count (traced passes only).
    pub fn count(&self, name: &'static str, n: u64) {
        if let Some(trace) = self.trace {
            *trace
                .counts
                .lock()
                .expect("count map")
                .entry(name)
                .or_default() += n;
        }
    }
}
