//! Scoped work-sharing thread pool with order-preserving results.
//!
//! [`parallel_map`] fans a slice of independent tasks out over
//! `std::thread::scope` workers pulling indices from a shared atomic
//! counter (self-balancing: fast workers steal the remaining indices),
//! then reassembles results **in input order**. Combined with
//! [`crate::seed::task_seed`] this makes every sweep bit-identical at
//! any thread count.
//!
//! Every invocation reports per-task queue/run time and cumulative
//! thread utilization through [`obs`] (`exec.*` counters, out-of-band
//! from results), and re-installs the caller's span path on workers so
//! task-side spans nest under the submitting span.
//!
//! Thread-count resolution, weakest to strongest:
//!
//! 1. hardware parallelism (`std::thread::available_parallelism`);
//! 2. the `PRINTED_ML_THREADS` environment variable;
//! 3. a process-wide [`set_threads`] call (e.g. from a `--threads` CLI
//!    flag);
//! 4. a scoped [`with_threads`] override on the current thread.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Pool invocations (serial fast path included).
static POOLS: obs::Counter = obs::Counter::new("exec.pools");
/// Tasks executed through [`parallel_map`].
static TASKS: obs::Counter = obs::Counter::new("exec.tasks");
/// Nanoseconds workers spent inside task closures.
static BUSY_NS: obs::Counter = obs::Counter::new("exec.busy_ns");
/// Nanoseconds tasks waited between pool entry and their start.
static QUEUE_NS: obs::Counter = obs::Counter::new("exec.queue_ns");
/// Worker-nanoseconds available (`workers x pool wall time`).
static CAPACITY_NS: obs::Counter = obs::Counter::new("exec.capacity_ns");
/// Cumulative thread utilization: `busy_ns / capacity_ns` over every
/// pool invocation so far, in `[0, 1]`.
static UTILIZATION: obs::Gauge = obs::Gauge::new("exec.utilization");

/// Publishes one finished pool invocation's timing into the obs
/// counters and refreshes the cumulative utilization gauge.
fn record_pool(tasks: usize, busy_ns: u64, queue_ns: u64, capacity_ns: u64) {
    POOLS.incr();
    TASKS.add(tasks as u64);
    BUSY_NS.add(busy_ns);
    QUEUE_NS.add(queue_ns);
    CAPACITY_NS.add(capacity_ns);
    let capacity = CAPACITY_NS.get();
    if capacity > 0 {
        UTILIZATION.set((BUSY_NS.get() as f64 / capacity as f64).min(1.0));
    }
}

/// Process-wide thread count; 0 means "not resolved yet".
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Scoped override installed by [`with_threads`]; 0 means none.
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// The thread count sweeps on this thread will use.
pub fn threads() -> usize {
    let ov = OVERRIDE.with(Cell::get);
    if ov != 0 {
        return ov;
    }
    let cached = DEFAULT_THREADS.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let resolved = std::env::var("PRINTED_ML_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    DEFAULT_THREADS.store(resolved, Ordering::Relaxed);
    resolved
}

/// Sets the process-wide thread count (a `--threads N` flag). `0`
/// resets to automatic resolution, which the next [`threads`] call
/// performs afresh (environment included).
pub fn set_threads(n: usize) {
    DEFAULT_THREADS.store(n, Ordering::Relaxed);
}

/// Runs `f` with the thread count pinned to `n` on the current thread.
///
/// Only affects `parallel_map` calls made *from this thread* (nested
/// pools on worker threads resolve normally) — exactly what determinism
/// tests need to compare 1-thread and N-thread runs in one process.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n > 0, "thread count must be at least 1");
    let prev = OVERRIDE.with(|c| c.replace(n));
    // Restore on unwind as well, so a panicking closure cannot leak the
    // override into later tests on the same thread.
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// Applies `f` to every item, possibly in parallel, returning results in
/// input order.
///
/// `f` receives `(index, &item)`; the index is the task's identity for
/// [`crate::seed::task_seed`] streams. Worker panics propagate to the
/// caller once the scope joins.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = threads().min(items.len());
    let instrument = obs::enabled() && !items.is_empty();
    if workers <= 1 {
        let start = Instant::now();
        let out = items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        if instrument {
            let ns = start.elapsed().as_nanos() as u64;
            record_pool(items.len(), ns, 0, ns);
        }
        return out;
    }
    // Workers re-install the caller's span path so spans opened inside
    // tasks nest under the logical caller, not under a detached root.
    let span_path = obs::current_path();
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(items.len()));
    let busy_ns = AtomicU64::new(0);
    let queue_ns = AtomicU64::new(0);
    let pool_start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                obs::with_path(&span_path, || {
                    // Keep a small local buffer so the shared lock is taken
                    // once per task batch rather than once per result.
                    let mut local = Vec::new();
                    let (mut busy, mut queue) = (0u64, 0u64);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        let task_start = Instant::now();
                        if instrument {
                            queue += (task_start - pool_start).as_nanos() as u64;
                        }
                        local.push((i, f(i, &items[i])));
                        if instrument {
                            busy += task_start.elapsed().as_nanos() as u64;
                        }
                    }
                    busy_ns.fetch_add(busy, Ordering::Relaxed);
                    queue_ns.fetch_add(queue, Ordering::Relaxed);
                    done.lock().unwrap().append(&mut local);
                });
            });
        }
    });
    if instrument {
        let capacity = pool_start.elapsed().as_nanos() as u64 * workers as u64;
        record_pool(
            items.len(),
            busy_ns.into_inner(),
            queue_ns.into_inner(),
            capacity,
        );
    }
    let mut indexed = done.into_inner().unwrap();
    debug_assert_eq!(indexed.len(), items.len());
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Times `f`, returning its result and the elapsed wall-clock seconds.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = with_threads(8, || parallel_map(&items, |i, &x| (i, x * 2)));
        for (i, &(idx, doubled)) in out.iter().enumerate() {
            assert_eq!(idx, i);
            assert_eq!(doubled, i * 2);
        }
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let items: Vec<u64> = (0..57).collect();
        let work = |i: usize, &x: &u64| crate::seed::task_seed(x, i as u64);
        let one = with_threads(1, || parallel_map(&items, work));
        let four = with_threads(4, || parallel_map(&items, work));
        let many = with_threads(16, || parallel_map(&items, work));
        assert_eq!(one, four);
        assert_eq!(one, many);
    }

    #[test]
    fn empty_and_single_item_inputs_work() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[9u32], |_, &x| x + 1), vec![10]);
    }

    #[test]
    fn with_threads_restores_previous_value() {
        let before = threads();
        with_threads(3, || {
            assert_eq!(threads(), 3);
            with_threads(5, || assert_eq!(threads(), 5));
            assert_eq!(threads(), 3);
        });
        assert_eq!(threads(), before);
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let before = threads();
        let caught = std::panic::catch_unwind(|| with_threads(2, || panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(threads(), before);
    }

    #[test]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..32).collect();
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || {
                parallel_map(&items, |i, _| {
                    if i == 17 {
                        panic!("task 17 failed");
                    }
                    i
                })
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn time_reports_nonnegative_seconds() {
        let (v, secs) = time(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
