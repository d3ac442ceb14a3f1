//! Cold-vs-warm bit-identity of the artifact cache.
//!
//! Populates a throwaway store with one cold pass over a cheap subset of
//! the experiment suite, then replays it warm (disk tier only) at 1, 4
//! and 8 worker threads. Every rendered table must be byte-identical to
//! the cold pass — the cache may only skip recomputation, never change
//! a result, and neither may the worker count.

use bench::experiments as e;

type Experiment = (&'static str, fn() -> Vec<bench::Table>);

/// Cheap experiments only: this runs in debug CI, and the identity
/// property does not depend on workload size.
const CHEAP: [Experiment; 4] = [
    ("fig3", e::fig3),
    ("table3", e::table3),
    ("table4", e::table4),
    ("fig6", e::fig6),
];

fn render() -> String {
    let finished = exec::parallel_map(&CHEAP, |_, &(_, f)| f());
    let mut out = String::new();
    for tables in &finished {
        for t in tables {
            out.push_str(&t.to_string());
        }
    }
    out
}

#[test]
fn warm_replay_is_bit_identical_at_any_thread_count() {
    let dir =
        std::env::temp_dir().join(format!("printed_ml_cache_identity_{}", std::process::id()));
    cache::set_disk_root(Some(dir.clone()));
    cache::set_enabled(true);
    cache::clear().expect("wipe test cache");

    let cold = exec::with_threads(2, render);
    let populated: u64 = cache::disk_stats()
        .expect("store exists after cold pass")
        .iter()
        .map(|d| d.entries)
        .sum();
    assert!(populated > 0, "cold pass stored nothing");

    for threads in [1usize, 4, 8] {
        // Drop the memo tier so this pass replays from disk, like a
        // fresh process over a populated cache directory.
        cache::clear_memory();
        let warm = exec::with_threads(threads, render);
        assert_eq!(
            cold, warm,
            "warm tables diverge from cold at {threads} thread(s)"
        );
    }
    // The replays must not have re-stored anything: every artifact was
    // served from disk.
    let after: u64 = cache::disk_stats()
        .expect("store exists")
        .iter()
        .map(|d| d.entries)
        .sum();
    assert_eq!(populated, after, "warm replay wrote new entries");

    cache::set_enabled(false);
    cache::set_disk_root(None);
    std::fs::remove_dir_all(&dir).ok();
}
