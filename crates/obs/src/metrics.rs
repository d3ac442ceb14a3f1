//! Typed process-wide metrics: monotonic counters and last-value gauges.
//!
//! Counters are for event and volume totals (gates in/out, rewrites,
//! vectors simulated, faults graded, pool tasks); gauges are for levels
//! and ratios (thread-pool utilization). Both live in `BTreeMap`
//! registries so the report enumerates them in a deterministic
//! (name-sorted) order.
//!
//! Hot loops should tally locally and publish once per batch — each
//! update takes a process-wide lock, which is negligible at the
//! per-stage / per-task granularity this workspace instruments but
//! would not be at per-gate granularity.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Counter registry: name → cumulative value.
static COUNTERS: Mutex<BTreeMap<&'static str, u64>> = Mutex::new(BTreeMap::new());

/// Gauge registry: name → last set value.
static GAUGES: Mutex<BTreeMap<&'static str, f64>> = Mutex::new(BTreeMap::new());

/// A named monotonic counter.
///
/// `Counter::new` is `const`, so the idiomatic declaration is a static:
///
/// ```
/// static REWRITES: obs::Counter = obs::Counter::new("doc.rewrites");
/// REWRITES.add(17);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Counter {
    name: &'static str,
}

impl Counter {
    /// Declares a counter named `name`.
    pub const fn new(name: &'static str) -> Self {
        Counter { name }
    }

    /// Adds `delta` to the counter (registers it on first touch, so the
    /// name appears in the report even when the total is zero).
    pub fn add(&self, delta: u64) {
        counter_add(self.name, delta);
    }

    /// Adds one.
    pub fn incr(&self) {
        counter_add(self.name, 1);
    }

    /// The counter's current value.
    pub fn get(&self) -> u64 {
        counter_value(self.name)
    }

    /// Runs `f` and adds the elapsed wall-clock nanoseconds to the
    /// counter, passing the return value through — the idiom behind the
    /// `*.ns` throughput counters (`netlist.opt.ns`,
    /// `netlist.sim.compile_ns`): pair one volume counter with one
    /// `time`-fed counter and any report consumer can compute a rate.
    ///
    /// ```
    /// static BUILD_NS: obs::Counter = obs::Counter::new("doc.build_ns");
    /// let answer = BUILD_NS.time(|| 6 * 7);
    /// assert_eq!(answer, 42);
    /// ```
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = std::time::Instant::now();
        let result = f();
        self.add(start.elapsed().as_nanos() as u64);
        result
    }

    /// The counter's name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// A named last-value gauge.
#[derive(Debug, Clone, Copy)]
pub struct Gauge {
    name: &'static str,
}

impl Gauge {
    /// Declares a gauge named `name`.
    pub const fn new(name: &'static str) -> Self {
        Gauge { name }
    }

    /// Sets the gauge's value.
    pub fn set(&self, value: f64) {
        gauge_set(self.name, value);
    }

    /// The gauge's last set value (0.0 when never set).
    pub fn get(&self) -> f64 {
        gauge_value(self.name)
    }

    /// The gauge's name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Adds `delta` to the counter `name` (no-op while instrumentation is
/// disabled).
pub(crate) fn counter_add(name: &'static str, delta: u64) {
    if !crate::enabled() {
        return;
    }
    *COUNTERS.lock().unwrap().entry(name).or_insert(0) += delta;
}

/// The current value of counter `name` (0 when never touched).
pub fn counter_value(name: &str) -> u64 {
    COUNTERS.lock().unwrap().get(name).copied().unwrap_or(0)
}

/// Sets gauge `name` to `value` (no-op while instrumentation is
/// disabled).
pub(crate) fn gauge_set(name: &'static str, value: f64) {
    if !crate::enabled() {
        return;
    }
    GAUGES.lock().unwrap().insert(name, value);
}

/// The last set value of gauge `name` (0.0 when never set).
pub fn gauge_value(name: &str) -> f64 {
    GAUGES.lock().unwrap().get(name).copied().unwrap_or(0.0)
}

/// Clears both registries.
pub(crate) fn reset_metrics() {
    COUNTERS.lock().unwrap().clear();
    GAUGES.lock().unwrap().clear();
}

/// Snapshots all counters, name-sorted.
pub(crate) fn snapshot_counters() -> Vec<(&'static str, u64)> {
    COUNTERS
        .lock()
        .unwrap()
        .iter()
        .map(|(k, v)| (*k, *v))
        .collect()
}

/// Snapshots all gauges, name-sorted.
pub(crate) fn snapshot_gauges() -> Vec<(&'static str, f64)> {
    GAUGES
        .lock()
        .unwrap()
        .iter()
        .map(|(k, v)| (*k, *v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_zero_registers() {
        let _l = crate::test_lock();
        crate::reset();
        static C: Counter = Counter::new("test.counter");
        C.add(0);
        assert_eq!(C.get(), 0);
        assert!(snapshot_counters()
            .iter()
            .any(|&(n, _)| n == "test.counter"));
        C.add(5);
        C.incr();
        assert_eq!(C.get(), 6);
        assert_eq!(counter_value("test.counter"), 6);
        assert_eq!(counter_value("never.touched"), 0);
    }

    #[test]
    fn gauges_keep_the_last_value() {
        let _l = crate::test_lock();
        crate::reset();
        static G: Gauge = Gauge::new("test.gauge");
        assert_eq!(G.get(), 0.0);
        G.set(0.25);
        G.set(0.75);
        assert_eq!(G.get(), 0.75);
    }

    #[test]
    fn disabled_metrics_drop_updates() {
        let _l = crate::test_lock();
        crate::reset();
        crate::set_enabled(false);
        counter_add("test.disabled", 7);
        gauge_set("test.disabled.gauge", 1.0);
        crate::set_enabled(true);
        assert_eq!(counter_value("test.disabled"), 0);
        assert_eq!(gauge_value("test.disabled.gauge"), 0.0);
        assert!(snapshot_counters().is_empty());
    }
}
