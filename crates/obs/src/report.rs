//! The unified report: span tree + metrics, stable JSON schema.
//!
//! [`build`] (exposed as `obs::report()`) snapshots the span registry
//! into a tree of [`SpanNode`]s — children sorted by name, `self_s`
//! derived as `total_s` minus child totals — plus name-sorted counter
//! and gauge lists. The serialized shape is pinned by the [`SCHEMA`]
//! tag and the golden test in `tests/observability.rs`: **only values
//! may vary between runs, never the key set or types.**

use serde::{Deserialize, Serialize};

/// Schema tag embedded in every report. Bump when the key set changes,
/// and update the golden schema test plus `docs/observability.md`.
pub const SCHEMA: &str = "obs-report-v1";

/// One node of the span tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanNode {
    /// Span name (one path component).
    pub name: String,
    /// Completed activations. 0 marks a synthesized parent: its
    /// children were recorded but the parent span itself never closed
    /// on this path (e.g. spans opened directly on pool workers).
    pub calls: u64,
    /// Total wall-clock seconds across activations (for a synthesized
    /// parent, the sum of its children).
    pub total_s: f64,
    /// Seconds not attributed to any child span.
    pub self_s: f64,
    /// Nested spans, sorted by name.
    pub children: Vec<SpanNode>,
}

/// One counter in the report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterValue {
    /// Counter name.
    pub name: String,
    /// Cumulative value.
    pub value: u64,
}

/// One gauge in the report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeValue {
    /// Gauge name.
    pub name: String,
    /// Last set value.
    pub value: f64,
}

/// Snapshot of every span, counter and gauge recorded so far.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Root spans, sorted by name.
    pub spans: Vec<SpanNode>,
    /// All counters, sorted by name.
    pub counters: Vec<CounterValue>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeValue>,
}

/// Builds the current [`Report`] (see `obs::report()`).
pub(crate) fn build() -> Report {
    let mut roots: Vec<SpanNode> = Vec::new();
    for (path, stat) in crate::span::snapshot_spans() {
        insert(&mut roots, &path, stat.calls, stat.ns as f64 * 1e-9);
    }
    finalize(&mut roots);
    Report {
        schema: SCHEMA.to_string(),
        spans: roots,
        counters: crate::metrics::snapshot_counters()
            .into_iter()
            .map(|(name, value)| CounterValue {
                name: name.to_string(),
                value,
            })
            .collect(),
        gauges: crate::metrics::snapshot_gauges()
            .into_iter()
            .map(|(name, value)| GaugeValue {
                name: name.to_string(),
                value,
            })
            .collect(),
    }
}

/// Threads one `(path, stat)` record into the tree, synthesizing
/// zero-call intermediate nodes as needed. The registry snapshot is
/// path-sorted, so children end up name-sorted without a later sort.
fn insert(nodes: &mut Vec<SpanNode>, path: &[&'static str], calls: u64, total_s: f64) {
    let (head, rest) = path.split_first().expect("span paths are non-empty");
    let node = match nodes.iter_mut().position(|n| n.name == *head) {
        Some(i) => &mut nodes[i],
        None => {
            nodes.push(SpanNode {
                name: (*head).to_string(),
                calls: 0,
                total_s: 0.0,
                self_s: 0.0,
                children: Vec::new(),
            });
            nodes.last_mut().unwrap()
        }
    };
    if rest.is_empty() {
        node.calls += calls;
        node.total_s += total_s;
    } else {
        insert(&mut node.children, rest, calls, total_s);
    }
}

/// Bottom-up pass: synthesized parents inherit their children's total,
/// and every node's `self_s` becomes total minus child totals.
fn finalize(nodes: &mut [SpanNode]) {
    for n in nodes {
        finalize(&mut n.children);
        let child_total: f64 = n.children.iter().map(|c| c.total_s).sum();
        if n.calls == 0 {
            n.total_s = child_total;
        }
        n.self_s = (n.total_s - child_total).max(0.0);
    }
}

impl Report {
    /// Flame-style text rendering for stderr: one line per span with a
    /// bar proportional to its share of the run, then counters and
    /// gauges. Example:
    ///
    /// ```text
    /// [obs] span                                total_s   self_s    calls
    /// [obs] repro_all                            12.431    0.112        1  ########################
    /// [obs]   table2                              2.608    1.911        1  #####
    /// [obs] counter netlist.opt.gates_in = 438126
    /// ```
    pub fn text_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let scale: f64 = self
            .spans
            .iter()
            .map(|n| n.total_s)
            .fold(0.0, f64::max)
            .max(1e-9);
        let _ = writeln!(
            out,
            "[obs] {:<40} {:>9} {:>9} {:>8}",
            "span", "total_s", "self_s", "calls"
        );
        fn walk(out: &mut String, nodes: &[SpanNode], depth: usize, scale: f64) {
            use std::fmt::Write as _;
            for n in nodes {
                let label = format!("{:indent$}{}", "", n.name, indent = depth * 2);
                let bar = "#".repeat(((n.total_s / scale) * 24.0).round() as usize);
                let _ = writeln!(
                    out,
                    "[obs] {label:<40} {:>9.3} {:>9.3} {:>8}  {bar}",
                    n.total_s, n.self_s, n.calls
                );
                walk(out, &n.children, depth + 1, scale);
            }
        }
        walk(&mut out, &self.spans, 0, scale);
        for c in &self.counters {
            let _ = writeln!(out, "[obs] counter {} = {}", c.name, c.value);
        }
        for g in &self.gauges {
            let _ = writeln!(out, "[obs] gauge {} = {:.3}", g.name, g.value);
        }
        out
    }

    /// Looks a root-level or nested span up by path.
    pub fn span(&self, path: &[&str]) -> Option<&SpanNode> {
        let mut nodes = &self.spans;
        let mut found = None;
        for name in path {
            found = nodes.iter().find(|n| n.name == *name);
            nodes = &found?.children;
        }
        found
    }

    /// The value of counter `name` in this snapshot (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// The value of gauge `name` in this snapshot (0.0 when absent).
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges
            .iter()
            .find(|g| g.name == name)
            .map_or(0.0, |g| g.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_assembles_with_self_time_and_sorted_children() {
        let _l = crate::test_lock();
        crate::reset();
        {
            let _a = crate::span("root");
            {
                let _b = crate::span("zeta");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            {
                let _b = crate::span("alpha");
            }
        }
        let r = build();
        assert_eq!(r.schema, SCHEMA);
        assert_eq!(r.spans.len(), 1);
        let root = &r.spans[0];
        assert_eq!(root.name, "root");
        assert_eq!(root.calls, 1);
        let names: Vec<&str> = root.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
        let child_total: f64 = root.children.iter().map(|c| c.total_s).sum();
        assert!(root.total_s >= child_total);
        assert!((root.self_s - (root.total_s - child_total)).abs() < 1e-12);
        assert_eq!(r.span(&["root", "zeta"]).unwrap().calls, 1);
        assert!(r.span(&["root", "missing"]).is_none());
    }

    #[test]
    fn orphan_children_synthesize_their_parent() {
        let _l = crate::test_lock();
        crate::reset();
        crate::with_path(&["never_closed"], || {
            let _c = crate::span("task");
        });
        let r = build();
        let parent = r.span(&["never_closed"]).unwrap();
        assert_eq!(parent.calls, 0, "synthesized parent");
        assert_eq!(parent.children.len(), 1);
        assert!((parent.total_s - parent.children[0].total_s).abs() < 1e-12);
        assert_eq!(parent.self_s, 0.0);
    }

    #[test]
    fn report_round_trips_through_json() {
        let _l = crate::test_lock();
        crate::reset();
        {
            let _a = crate::span("rt");
        }
        crate::metrics::counter_add("rt.count", 3);
        crate::metrics::gauge_set("rt.gauge", 0.5);
        let r = build();
        let text = r.to_value().render_pretty();
        let back = Report::from_value(&serde::value::parse(&text).unwrap()).unwrap();
        assert_eq!(r, back);
        assert_eq!(back.counter("rt.count"), 3);
        assert_eq!(back.gauge("rt.gauge"), 0.5);
        assert_eq!(back.counter("rt.absent"), 0);
    }

    #[test]
    fn text_summary_lists_spans_and_metrics() {
        let _l = crate::test_lock();
        crate::reset();
        {
            let _a = crate::span("stage");
        }
        crate::metrics::counter_add("stage.items", 12);
        let text = build().text_summary();
        assert!(text.contains("stage"), "{text}");
        assert!(text.contains("counter stage.items = 12"), "{text}");
        assert!(text.lines().all(|l| l.starts_with("[obs]")), "{text}");
    }
}
