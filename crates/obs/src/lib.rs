#![warn(missing_docs)]

//! # obs — unified observability layer
//!
//! One instrumentation substrate for the whole pipeline, replacing the
//! per-binary reporting hacks (`OptStats` atomics, ad-hoc timing JSON,
//! bespoke bench outputs) with three primitives:
//!
//! * [`span`] — hierarchical RAII wall-clock timers. Each thread keeps
//!   its own span stack; completed spans accumulate into one
//!   process-wide tree keyed by path, so `repro_all → table2 →
//!   netlist.optimize` nests correctly even when the middle frame runs
//!   on a worker thread (the [`exec`] pool re-installs the caller's
//!   path via [`with_path`]).
//! * [`Counter`] / [`Gauge`] — typed process-wide metrics (gates in/out,
//!   rewrites, vectors, faults, pool busy time, utilization).
//! * [`report`] — a snapshot of both as a [`Report`] with a **stable
//!   JSON schema** (`obs-report-v1`), serialized through the in-repo
//!   serde shims, plus a flame-style text rendering for stderr.
//!
//! ## Determinism contract
//!
//! Instrumentation is strictly out-of-band: spans and counters observe
//! seeded computations but never feed back into them, so an
//! instrumented run is bit-identical to an uninstrumented one at any
//! thread count (`tests/observability.rs` pins this at 1/4/8 threads).
//! Only the *timing fields* of a report vary between runs; the key set,
//! span paths and counter names are deterministic.
//!
//! ## Quickstart
//!
//! ```
//! static GATES: obs::Counter = obs::Counter::new("doc.gates");
//!
//! obs::reset();
//! {
//!     let _stage = obs::span("doc.stage");
//!     GATES.add(128);
//! }
//! let report = obs::report();
//! assert_eq!(report.spans[0].name, "doc.stage");
//! assert_eq!(obs::counter_value("doc.gates"), 128);
//! ```

pub mod metrics;
pub mod report;
pub mod span;

pub use metrics::{counter_value, gauge_value, Counter, Gauge};
pub use report::{CounterValue, GaugeValue, Report, SpanNode, SCHEMA};
pub use span::{current_path, span, with_path, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide instrumentation switch (default: on).
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns all instrumentation on or off for the whole process.
///
/// With instrumentation off, [`span`] returns inert guards and counter
/// and gauge updates are dropped — the determinism tests compare runs
/// across this switch to prove observation never perturbs results.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// True when instrumentation is collecting.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears every recorded span, counter and gauge (bench binaries call
/// this once at startup; tests use it for isolation).
pub fn reset() {
    span::reset_spans();
    metrics::reset_metrics();
}

/// Snapshots the current span tree and metrics as a [`Report`].
pub fn report() -> Report {
    report::build()
}

#[cfg(test)]
/// Serializes every unit test of this crate that resets or toggles the
/// process-global registries, whichever module it lives in.
fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
