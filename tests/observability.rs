//! The observability layer's two contracts:
//!
//! 1. **Out-of-band**: instrumentation observes the pipeline but never
//!    feeds back into it — an instrumented run produces bit-identical
//!    results to an uninstrumented one at any thread count.
//! 2. **Stable schema**: the `obs-report-v1` JSON shape (key sets and
//!    value types, not values) is pinned so downstream tooling — the CI
//!    perf gate above all — can parse any bin's `report` section.

use std::sync::Mutex;

use printed_ml::cache;
use printed_ml::core::flow::{TreeArch, TreeFlow};
use printed_ml::exec::with_threads;
use printed_ml::ml::linear::SvmClassifier;
use printed_ml::ml::synth::Application;
use printed_ml::netlist;
use printed_ml::obs;

use serde::{Deserialize, Serialize};
use serde_json::Value;

/// The obs registries are process-global; serialize every test that
/// touches them.
static LOCK: Mutex<()> = Mutex::new(());

/// Re-enables obs on drop so a failing test cannot leak a disabled
/// registry into the next one.
struct EnableGuard;
impl Drop for EnableGuard {
    fn drop(&mut self) {
        obs::set_enabled(true);
    }
}

/// One representative slice of the pipeline: train + quantize + generate
/// (TreeFlow), then grade fault coverage — exercising CART fits, the
/// optimizer, the batch simulator and the exec pool.
fn pipeline_run() -> (usize, usize, Vec<netlist::Fault>) {
    let flow = TreeFlow::new(Application::Cardio, 4, 7);
    let module = flow.module(TreeArch::BespokeParallel).expect("digital");
    let used = flow.qt.used_features();
    let vectors: Vec<Vec<u64>> = flow
        .test
        .x
        .iter()
        .take(30)
        .map(|row| {
            let codes = flow.fq.code_row(row);
            used.iter().map(|&f| codes[f]).collect()
        })
        .collect();
    let cov = netlist::fault_coverage(&module, &vectors);
    (cov.total, cov.detected, cov.undetected)
}

#[test]
fn instrumented_runs_are_bit_identical_to_uninstrumented() {
    let _lock = LOCK.lock().unwrap();
    let _guard = EnableGuard;
    for threads in [1, 4, 8] {
        obs::set_enabled(true);
        obs::reset();
        let instrumented = with_threads(threads, pipeline_run);
        assert!(
            obs::report().counter("ml.cart.fits") > 0,
            "instrumented arm recorded nothing"
        );
        obs::set_enabled(false);
        obs::reset();
        let bare = with_threads(threads, pipeline_run);
        obs::set_enabled(true);
        assert_eq!(
            instrumented, bare,
            "instrumentation changed results at {threads} thread(s)"
        );
    }
}

#[test]
fn disabled_obs_records_nothing() {
    let _lock = LOCK.lock().unwrap();
    let _guard = EnableGuard;
    obs::set_enabled(false);
    obs::reset();
    {
        static GHOST_COUNTER: obs::Counter = obs::Counter::new("ghost.counter");
        static GHOST_GAUGE: obs::Gauge = obs::Gauge::new("ghost.gauge");
        let _span = obs::span("ghost");
        GHOST_COUNTER.add(5);
        GHOST_GAUGE.set(1.0);
    }
    obs::set_enabled(true);
    let report = obs::report();
    assert!(report.spans.is_empty());
    assert!(report.counters.is_empty());
    assert!(report.gauges.is_empty());
}

#[test]
fn optimizer_rule_counters_match_opt_stats() {
    let _lock = LOCK.lock().unwrap();
    let _guard = EnableGuard;
    let flow = TreeFlow::new(Application::Cardio, 4, 7);
    let raw = printed_ml::core::bespoke::bespoke_parallel_raw(&flow.qt);
    obs::set_enabled(true);
    obs::reset();
    let (optimized, stats) = netlist::optimize_with_stats(&raw);
    let report = obs::report();
    let per_rule = [
        ("aliased", stats.aliased),
        ("rewritten", stats.rewritten),
        ("merged", stats.merged),
        ("dead", stats.dead),
    ];
    for (rule, n) in per_rule {
        assert!(n > 0, "the bespoke tree must exercise the {rule} rule");
        let counter = report.counter(&format!("netlist.opt.{rule}"));
        assert_eq!(counter, n as u64, "netlist.opt.{rule}");
    }
    assert_eq!(
        report.counter("netlist.opt.rewrites"),
        stats.rewrites() as u64
    );
    // Out of band: the same call with obs off returns the same module.
    obs::set_enabled(false);
    let (bare, _) = netlist::optimize_with_stats(&raw);
    obs::set_enabled(true);
    assert_eq!(optimized, bare);
}

#[test]
fn cache_cost_counters_time_keys_loads_and_stores() {
    let _lock = LOCK.lock().unwrap();
    let _guard = EnableGuard;
    let root = std::env::temp_dir().join(format!("printed_ml_obs_cache_{}", std::process::id()));
    let input: Vec<u64> = (0..4096).collect();
    // A cold-then-warm `memo` pair over an emptied store.
    let pair = || {
        let _ = std::fs::remove_dir_all(&root);
        cache::clear_memory();
        let cold: Vec<u64> = cache::memo("test.obs.cache", &input, || {
            input.iter().map(|x| x * 3).collect()
        });
        cache::clear_memory();
        let warm: Vec<u64> = cache::memo("test.obs.cache", &input, Vec::new);
        (cold, warm)
    };
    cache::set_disk_root(Some(root.clone()));
    cache::set_enabled(true);
    obs::set_enabled(true);
    obs::reset();
    let instrumented = pair();
    let report = obs::report();
    obs::set_enabled(false);
    let bare = pair();
    obs::set_enabled(true);
    cache::set_enabled(false);
    cache::set_disk_root(None);
    cache::clear_memory();
    let _ = std::fs::remove_dir_all(&root);

    assert_eq!(report.counter("cache.misses"), 1);
    assert_eq!(report.counter("cache.disk_hits"), 1);
    for name in ["cache.key_ns", "cache.load_ns", "cache.store_ns"] {
        assert!(report.counter(name) > 0, "{name} recorded nothing");
    }
    assert_eq!(instrumented.0, instrumented.1, "the warm call missed");
    assert_eq!(instrumented, bare, "instrumentation changed the value");
}

#[test]
fn svm_classifier_fits_count_under_their_own_name() {
    let _lock = LOCK.lock().unwrap();
    let _guard = EnableGuard;
    let was_cached = cache::enabled();
    cache::set_enabled(false);
    obs::set_enabled(true);
    obs::reset();
    {
        let _root = obs::span("test.svmc");
        SvmClassifier::fit(&Application::Cardio.generate(7), 2, 1e-3, 7);
    }
    let report = obs::report();
    cache::set_enabled(was_cached);

    assert_eq!(report.counter("ml.svm.fits"), 0, "SVM-C counted as SVM-R");
    assert_eq!(report.counter("ml.svm.epochs"), 0);
    assert_eq!(report.counter("ml.svmc.fits"), 1);
    assert_eq!(report.counter("ml.svmc.epochs"), 2);
    assert!(report.span(&["test.svmc", "ml.svmc.fit"]).is_some());
    assert!(report.span(&["test.svmc", "ml.svm.fit"]).is_none());
}

#[test]
fn exec_pool_counters_accumulate() {
    let _lock = LOCK.lock().unwrap();
    obs::reset();
    let items: Vec<u64> = (0..64).collect();
    let _span = obs::span("pool_test");
    let out = with_threads(4, || printed_ml::exec::parallel_map(&items, |_, &x| x * 2));
    assert_eq!(out[63], 126);
    let report = obs::report();
    assert_eq!(report.counter("exec.pools"), 1);
    assert_eq!(report.counter("exec.tasks"), 64);
    assert!(report.counter("exec.busy_ns") > 0);
    let util = report.gauge("exec.utilization");
    assert!((0.0..=1.0).contains(&util), "utilization {util}");
    // Worker spans land under the caller's span path, not a detached root.
    drop(_span);
    let report = obs::report();
    assert_eq!(report.spans.len(), 1);
    assert_eq!(report.spans[0].name, "pool_test");
}

#[test]
fn variation_paths_record_identical_obs_keys() {
    use printed_ml::analog;
    use printed_ml::core::flow::SvmFlow;

    let _lock = LOCK.lock().unwrap();

    // Tree path: 65 trials x 30 rows through the compiled engine.
    let flow = TreeFlow::new(Application::Har, 2, 7);
    let rows = flow.coded_rows(30);
    obs::reset();
    {
        let _root = obs::span("test.variation");
        analog::variation_sweep(&flow.qt, &rows, &[0.1], 65, 7).unwrap();
    }
    let tree_report = obs::report();

    // SVM path: same budget — it must emit the same keys (obs parity;
    // the scalar SVM analyzer used to record nothing).
    let svm_flow = SvmFlow::new(Application::RedWine, 7);
    let svm_rows = svm_flow.coded_rows(30);
    obs::reset();
    {
        let _root = obs::span("test.variation");
        let n = svm_flow.n_features;
        analog::svm_variation_sweep(&svm_flow.qs, n, &svm_rows, &[0.1], 65, 7).unwrap();
    }
    let svm_report = obs::report();

    // Draws: the tree draws only the lane thresholds its walks reach; the
    // SVM draws every crossbar term of every trial.
    let tree_draws = tree_report.counter("analog.variation.draws");
    assert!(
        tree_draws > 0 && tree_draws <= 65 * flow.qt.comparison_count() as u64,
        "tree draws {tree_draws}"
    );
    let terms = svm_flow.qs.pos_terms().len() + svm_flow.qs.neg_terms().len();
    assert_eq!(
        svm_report.counter("analog.variation.draws"),
        65 * terms as u64
    );
    // SVM decisions a boundary within the reassociation bound left to the
    // reference-order column sums: added once per lane block, so present
    // even at zero.
    assert!(
        svm_report
            .counters
            .iter()
            .any(|c| c.name == "analog.variation.exact_sums"),
        "analog.variation.exact_sums not recorded"
    );
    assert!(
        svm_report.counter("analog.variation.exact_sums")
            <= svm_report.counter("analog.variation.rows")
    );

    for report in [&tree_report, &svm_report] {
        assert_eq!(report.counter("analog.variation.compiles"), 1);
        assert_eq!(report.counter("analog.variation.trials"), 65);
        assert_eq!(report.counter("analog.variation.rows"), 65 * 30);
        // 65 trials = one full 64-lane block plus a one-lane remainder.
        assert_eq!(report.counter("analog.variation.lane_blocks"), 2);
        // Draws the log-domain form left to the exact device chain: added
        // once per lane block, so present even at zero.
        assert!(
            report
                .counters
                .iter()
                .any(|c| c.name == "analog.variation.exact"),
            "analog.variation.exact not recorded"
        );
        assert!(
            report.counter("analog.variation.exact") <= report.counter("analog.variation.draws")
        );
        let root = report.span(&["test.variation"]).expect("root span");
        assert!(
            root.children.iter().any(|c| c.name == "analog.variation"),
            "missing analog.variation span under {:?}",
            root.children.iter().map(|c| &c.name).collect::<Vec<_>>()
        );
    }
}

/// Asserts `value` is an object with exactly `keys`, returning the
/// fields for nested checks.
fn object_keys<'v>(value: &'v Value, keys: &[&str]) -> Vec<&'v Value> {
    let Value::Object(fields) = value else {
        panic!("expected object, got {value:?}");
    };
    let got: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(got, keys, "object key set drifted");
    fields.iter().map(|(_, v)| v).collect()
}

#[test]
fn report_json_schema_is_pinned() {
    let _lock = LOCK.lock().unwrap();
    obs::reset();
    {
        let _outer = obs::span("golden.outer");
        let _inner = obs::span("golden.inner");
        static GOLDEN_COUNTER: obs::Counter = obs::Counter::new("golden.counter");
        static GOLDEN_GAUGE: obs::Gauge = obs::Gauge::new("golden.gauge");
        GOLDEN_COUNTER.add(3);
        GOLDEN_GAUGE.set(0.5);
    }
    let report = obs::report();
    let value = report.to_value();

    // Top level: schema tag + the three sections, in order.
    let fields = object_keys(&value, &["schema", "spans", "counters", "gauges"]);
    assert_eq!(fields[0].as_str(), Some(obs::SCHEMA));
    assert_eq!(fields[0].as_str(), Some("obs-report-v1"));

    // Span nodes: name/calls/total_s/self_s/children, recursively.
    let spans = fields[1].as_array().expect("spans is an array");
    assert_eq!(spans.len(), 1);
    let span_fields = object_keys(
        &spans[0],
        &["name", "calls", "total_s", "self_s", "children"],
    );
    assert_eq!(span_fields[0].as_str(), Some("golden.outer"));
    assert_eq!(span_fields[1].as_u64(), Some(1));
    assert!(span_fields[2].as_f64().is_some(), "total_s is a number");
    assert!(span_fields[3].as_f64().is_some(), "self_s is a number");
    let children = span_fields[4].as_array().expect("children is an array");
    assert_eq!(children.len(), 1);
    let child_fields = object_keys(
        &children[0],
        &["name", "calls", "total_s", "self_s", "children"],
    );
    assert_eq!(child_fields[0].as_str(), Some("golden.inner"));

    // Counters: name/value pairs with integer values.
    let counters = fields[2].as_array().expect("counters is an array");
    let counter_fields = object_keys(&counters[0], &["name", "value"]);
    assert_eq!(counter_fields[0].as_str(), Some("golden.counter"));
    assert_eq!(counter_fields[1].as_u64(), Some(3));

    // Gauges: name/value pairs with float values.
    let gauges = fields[3].as_array().expect("gauges is an array");
    let gauge_fields = object_keys(&gauges[0], &["name", "value"]);
    assert_eq!(gauge_fields[0].as_str(), Some("golden.gauge"));
    assert_eq!(gauge_fields[1].as_f64(), Some(0.5));

    // And the schema round-trips: what a bin writes, the perf gate reads.
    let parsed = obs::Report::from_value(&value).expect("deserialize report");
    assert_eq!(parsed, report);
}
