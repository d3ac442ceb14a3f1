//! Hierarchical span timers: per-thread stacks, process-wide tree.
//!
//! A [`span`] call pushes its name onto the calling thread's stack and
//! returns an RAII guard; dropping the guard accumulates the elapsed
//! wall-clock time into a process-wide registry keyed by the *full
//! path* (every enclosing span name plus this one). Work fanned out to
//! pool threads stays attached to its logical parent because the pool
//! captures [`current_path`] on the submitting thread and re-installs
//! it on each worker via [`with_path`].
//!
//! The registry is a `BTreeMap` so iteration — and therefore the
//! report's span ordering — is deterministic (sorted by path), even
//! though the recorded durations are not.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// A span's identity: the names of every enclosing span plus its own.
pub type SpanPath = Vec<&'static str>;

/// Accumulated statistics of one span path.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SpanStat {
    /// Completed activations.
    pub calls: u64,
    /// Total wall-clock nanoseconds across activations.
    pub ns: u128,
}

/// Process-wide accumulator: span path → statistics.
static REGISTRY: Mutex<BTreeMap<SpanPath, SpanStat>> = Mutex::new(BTreeMap::new());

thread_local! {
    /// This thread's stack of active span names.
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Starts a span named `name` on the current thread, returning the RAII
/// guard that records it when dropped.
///
/// Guards must be dropped in reverse creation order (ordinary lexical
/// scoping guarantees this); a guard held across a scope boundary would
/// misattribute nested spans.
#[must_use = "a span records its duration when the guard drops"]
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard {
            start: Instant::now(),
            active: false,
        };
    }
    STACK.with(|s| s.borrow_mut().push(name));
    SpanGuard {
        start: Instant::now(),
        active: true,
    }
}

/// RAII guard of one span activation (see [`span`]).
#[derive(Debug)]
pub struct SpanGuard {
    start: Instant,
    /// False when instrumentation was disabled at creation: the guard
    /// then records nothing and pops nothing.
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let ns = self.start.elapsed().as_nanos();
        STACK.with(|s| {
            let path = s.borrow().clone();
            let mut reg = REGISTRY.lock().unwrap();
            let stat = reg.entry(path).or_default();
            stat.calls += 1;
            stat.ns += ns;
            s.borrow_mut().pop();
        });
    }
}

/// The calling thread's current span path (empty outside any span).
///
/// Thread pools capture this on the submitting thread and install it on
/// workers with [`with_path`], so spans opened inside pooled tasks nest
/// under the logical caller instead of forming detached roots.
pub fn current_path() -> SpanPath {
    STACK.with(|s| s.borrow().clone())
}

/// Runs `f` with the current thread's span stack replaced by `path`,
/// restoring the previous stack afterwards (also on unwind).
pub fn with_path<R>(path: &[&'static str], f: impl FnOnce() -> R) -> R {
    let prev = STACK.with(|s| std::mem::replace(&mut *s.borrow_mut(), path.to_vec()));
    struct Restore(Vec<&'static str>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = std::mem::take(&mut self.0);
            STACK.with(|s| *s.borrow_mut() = prev);
        }
    }
    let _restore = Restore(prev);
    f()
}

/// Clears all recorded spans (not the thread-local stacks of *active*
/// spans, whose guards still pop themselves on drop).
pub(crate) fn reset_spans() {
    REGISTRY.lock().unwrap().clear();
}

/// Snapshots the accumulated (path → stat) entries, sorted by path.
pub(crate) fn snapshot_spans() -> Vec<(SpanPath, SpanStat)> {
    REGISTRY
        .lock()
        .unwrap()
        .iter()
        .map(|(p, s)| (p.clone(), *s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_full_paths() {
        let _l = crate::test_lock();
        crate::reset();
        {
            let _a = span("outer");
            {
                let _b = span("inner");
            }
            {
                let _b = span("inner");
            }
        }
        let snap = snapshot_spans();
        let paths: Vec<SpanPath> = snap.iter().map(|(p, _)| p.clone()).collect();
        assert_eq!(paths, vec![vec!["outer"], vec!["outer", "inner"]]);
        let inner = &snap[1].1;
        assert_eq!(inner.calls, 2);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _l = crate::test_lock();
        crate::reset();
        crate::set_enabled(false);
        {
            let _a = span("ghost");
        }
        crate::set_enabled(true);
        assert!(snapshot_spans().is_empty());
        assert!(current_path().is_empty());
    }

    #[test]
    fn with_path_installs_and_restores() {
        let _l = crate::test_lock();
        crate::reset();
        let _root = span("root");
        assert_eq!(current_path(), vec!["root"]);
        with_path(&["root", "task"], || {
            assert_eq!(current_path(), vec!["root", "task"]);
            let _child = span("leaf");
            assert_eq!(current_path(), vec!["root", "task", "leaf"]);
        });
        assert_eq!(current_path(), vec!["root"]);
    }

    #[test]
    fn with_path_restores_on_panic() {
        let _l = crate::test_lock();
        crate::reset();
        let before = current_path();
        let caught = std::panic::catch_unwind(|| with_path(&["doomed"], || panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(current_path(), before);
    }

    #[test]
    fn cross_thread_spans_attach_under_captured_path() {
        let _l = crate::test_lock();
        crate::reset();
        {
            let _root = span("parent");
            let path = current_path();
            std::thread::scope(|s| {
                s.spawn(|| {
                    with_path(&path, || {
                        let _t = span("worker_task");
                    });
                });
            });
        }
        let paths: Vec<SpanPath> = snapshot_spans().iter().map(|(p, _)| p.clone()).collect();
        assert!(paths.contains(&vec!["parent", "worker_task"]), "{paths:?}");
    }
}
