//! Per-layer metrics of one traced pass.
//!
//! A layer's seconds are the summed durations of its spans; its share is
//! those seconds over the pass's wall time, and its rate is the work its
//! spans report over those seconds. On the repro workloads the spans are
//! whole experiments running on the worker pool, so their shares are
//! taken over busy time instead.

use crate::trace::PassTrace;
use crate::workloads::EXPERIMENTS;

/// One named metric sample.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Layers timed at their public calls: span name and, where the layer
/// reports work, its rate metric and unit. Every layer also gets a
/// `<span>_share` metric.
const LAYERS: [(&str, Option<(&str, &str)>); 10] = [
    ("ml.fit", Some(("ml.models_per_s", "models/s"))),
    ("core.gen", Some(("core.gen_gates_per_s", "gates/s"))),
    ("netlist.opt", Some(("netlist.opt_gates_per_s", "gates/s"))),
    ("netlist.ppa", Some(("netlist.ppa_gates_per_s", "gates/s"))),
    (
        "netlist.verify",
        Some(("netlist.verify_vectors_per_s", "vectors/s")),
    ),
    (
        "netlist.compile",
        Some(("netlist.compile_gates_per_s", "gates/s")),
    ),
    (
        "netlist.settle",
        Some(("netlist.settle_vectors_per_s", "vectors/s")),
    ),
    (
        "netlist.faults",
        Some(("netlist.faults_sites_per_s", "sites/s")),
    ),
    ("analog.compile", None),
    ("analog.mc", Some(("analog.trials_per_s", "trials/s"))),
];

/// Exact counts the workloads record on traced passes.
const COUNTS: [&str; 3] = [
    "netlist.opt_gates_removed",
    "netlist.faults_detected",
    "cache.entries",
];

const MIB: f64 = 1024.0 * 1024.0;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric of one traced pass on `threads` workers.
/// `trace.overhead_pct` compares passes, so the caller adds it.
pub fn per_layer(t: &PassTrace, threads: usize) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut push =
        |name: String, value: f64, unit: &'static str| out.push(Metric { name, value, unit });
    let wall = t.wall_s();
    let mut layer_s = 0.0;
    for (span, rate) in LAYERS {
        let (secs, work) = t.layer(span);
        layer_s += secs;
        push(format!("{span}_share"), ratio(secs, wall), "fraction");
        if let Some((name, unit)) = rate {
            push(name.into(), ratio(work as f64, secs), unit);
        }
    }
    for name in COUNTS {
        push(name.into(), t.count(name) as f64, "count");
    }
    let store_mb = t.count("cache.bytes") as f64 / MIB;
    push("cache.store_mb".into(), store_mb, "MiB");
    push("cache.mb_per_s".into(), ratio(store_mb, wall), "MiB/s");

    let experiments: Vec<(&str, f64)> = EXPERIMENTS
        .iter()
        .map(|&(name, _)| (name, t.layer(name).0))
        .collect();
    let busy: f64 = experiments.iter().map(|&(_, s)| s).sum();
    let critical = experiments.iter().map(|&(_, s)| s).fold(0.0, f64::max);
    let capacity = threads as f64 * wall;
    push("exec.utilization".into(), ratio(busy, capacity), "fraction");
    push(
        "experiments.critical_share".into(),
        ratio(critical, wall),
        "fraction",
    );
    for (name, secs) in experiments {
        push(
            format!("experiment.{name}_share"),
            ratio(secs, busy),
            "fraction",
        );
    }
    // Time inside no layer span: worker-time outside the experiments on
    // the repro workloads, main-thread time between calls elsewhere.
    let unattributed = if busy > 0.0 {
        1.0 - ratio(busy, capacity)
    } else {
        1.0 - ratio(layer_s, wall)
    };
    push("trace.unattributed_share".into(), unattributed, "fraction");
    out
}
