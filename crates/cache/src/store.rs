//! Two-tier content-addressed store.
//!
//! Tier 1 is an in-process map with one single-flight slot per
//! `(domain, key)`, so each artifact is built or decoded once per run.
//! Tier 2 is an on-disk JSON store (`<root>/cache-v1/<domain>/<key>.json`,
//! written through the in-repo serde shims) that lets a later process
//! skip the work entirely.
//!
//! [`memo`] is the entry point: every cached pipeline stage is a
//! single `memo(domain, &input, || compute(..))` call. [`share`] is its
//! memory-only sibling, for values that regenerate faster than they
//! decode. The store is **off by default**: unless a binary opted in
//! via [`set_enabled`], both are pass-throughs.
//!
//! Correctness stance: keys are full content hashes (see
//! [`crate::hash`]), values round-trip exactly through the serde shims
//! (finite floats use the shortest-exact representation), so a cache hit
//! returns a value `==` to what the closure would have computed.
//! Unreadable, unparsable or shape-mismatched disk entries are dropped
//! and recomputed — a corrupted cache can cost time, never correctness.

use std::any::Any;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::hash::{key_for, Hashable, Key};

/// Artifact-cache hits served from the in-process memo map.
static MEM_HITS: obs::Counter = obs::Counter::new("cache.mem_hits");
/// Artifact-cache hits served from the on-disk store.
static DISK_HITS: obs::Counter = obs::Counter::new("cache.disk_hits");
/// Artifact-cache misses (the artifact was computed).
static MISSES: obs::Counter = obs::Counter::new("cache.misses");
/// Disk entries dropped because they failed to read, parse or decode.
static STALE_DROPS: obs::Counter = obs::Counter::new("cache.stale_drops");
/// Bytes read from the on-disk store (hits only).
static BYTES_READ: obs::Counter = obs::Counter::new("cache.bytes_read");
/// Bytes written to the on-disk store.
static BYTES_WRITTEN: obs::Counter = obs::Counter::new("cache.bytes_written");
/// Nanoseconds spent hashing inputs into keys.
static KEY_NS: obs::Counter = obs::Counter::new("cache.key_ns");
/// Nanoseconds spent reading and decoding disk entries.
static LOAD_NS: obs::Counter = obs::Counter::new("cache.load_ns");
/// Nanoseconds spent encoding and writing disk entries on misses.
static STORE_NS: obs::Counter = obs::Counter::new("cache.store_ns");

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Memory tier: one `Arc<OnceLock<T>>` slot per key (see [`memo`]).
type MemMap = HashMap<(&'static str, Key), Arc<dyn Any + Send + Sync>>;
static MEM: LazyLock<Mutex<MemMap>> = LazyLock::new(Mutex::default);
/// Disk tier root, if any.
static DISK: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Locks `m` even if a panicking holder poisoned it: no compute runs
/// under these locks, so a panic cannot leave their data half-updated.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Turns the cache on or off process-wide. Off (the default) makes
/// [`memo`] a pass-through.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the cache is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets (or clears) the on-disk tier's root directory. The schema
/// directory (`cache-v1`) is appended beneath it.
pub fn set_disk_root(root: Option<PathBuf>) {
    *lock(&DISK) = root;
}

/// The configured on-disk root, if any.
pub fn disk_root() -> Option<PathBuf> {
    lock(&DISK).clone()
}

/// The binaries' on-disk root: `PRINTED_ML_CACHE_DIR` when set, else
/// `bench/out/cache`.
pub fn default_disk_root() -> PathBuf {
    std::env::var_os("PRINTED_ML_CACHE_DIR").map_or_else(|| "bench/out/cache".into(), PathBuf::from)
}

/// Opts a binary into both tiers: memo map on, disk store at
/// [`default_disk_root`]. The binaries' `--no-cache` flag skips this
/// call.
pub fn enable_default() {
    set_disk_root(Some(default_disk_root()));
    set_enabled(true);
}

/// Drops every in-process memo entry (the disk tier is untouched).
/// Used by benchmarks to measure warm-from-disk performance.
pub fn clear_memory() {
    lock(&MEM).clear();
}

fn entry_path(root: &Path, domain: &str, key: Key) -> PathBuf {
    root.join(crate::SCHEMA)
        .join(domain)
        .join(format!("{key}.json"))
}

/// Memoizes `compute` in both tiers under `domain`, keyed by
/// [`key_for`]`(domain, input)`; a miss computes and back-fills.
///
/// `domain` must be a fixed string naming the artifact kind, and
/// `input` must cover everything the computation depends on (a tuple
/// of the arguments, typically). When the cache is disabled this is
/// just `compute()`: `input` is never hashed and no lock is taken.
///
/// Single-flight: each `(domain, key)` is loaded or computed at most
/// once per process (until [`clear_memory`]). Its memory slot is an
/// `Arc<OnceLock<T>>`, taken under the map lock and filled outside it,
/// so a concurrent caller of the same key waits for the first instead
/// of repeating its disk decode or compute. A `compute` may itself call
/// `memo` for another domain (a flow build fits its model through
/// `ml.*`): domains nest acyclically, so no slot ever waits on itself.
pub fn memo<I, T, F>(domain: &'static str, input: &I, compute: F) -> T
where
    I: Hashable + ?Sized,
    T: serde::Serialize + serde::Deserialize + Clone + Send + Sync + 'static,
    F: FnOnce() -> T,
{
    single_flight(domain, input, compute, |key, compute| {
        load_or_compute(domain, key, compute)
    })
}

/// [`memo`] in the memory tier only: the same single-flight slot, filled
/// by `compute()` itself. Nothing is read from or written to disk, a
/// fill is not counted in `cache.misses`, and [`clear_memory`] drops
/// the entry. With the cache disabled it is just `compute()`.
///
/// For values cheaper to recompute than to decode (a generated dataset
/// regenerates two to three times faster than its JSON parses), and for
/// keys that name a recipe rather than the content it reads: since no
/// later process can be served the entry, a changed producer can never
/// return a stale value.
pub fn share<I, T, F>(domain: &'static str, input: &I, compute: F) -> T
where
    I: Hashable + ?Sized,
    T: Clone + Send + Sync + 'static,
    F: FnOnce() -> T,
{
    single_flight(domain, input, compute, |_, compute| compute())
}

/// The memory tier behind [`memo`] and [`share`]: `compute()` when the
/// cache is off, else the `(domain, key)` slot, filled once by
/// `fill(key, compute)`.
fn single_flight<I, T, F>(
    domain: &'static str,
    input: &I,
    compute: F,
    fill: impl FnOnce(Key, F) -> T,
) -> T
where
    I: Hashable + ?Sized,
    T: Clone + Send + Sync + 'static,
    F: FnOnce() -> T,
{
    if !enabled() {
        return compute();
    }
    let key = KEY_NS.time(|| key_for(domain, input));
    let slot = Arc::clone(
        lock(&MEM)
            .entry((domain, key))
            .or_insert_with(|| Arc::new(OnceLock::<T>::new())),
    );
    // A domain reused for another artifact type gets a private slot.
    let cell = slot.downcast::<OnceLock<T>>().unwrap_or_default();
    let mut filled = false;
    let value = cell
        .get_or_init(|| {
            filled = true;
            fill(key, compute)
        })
        .clone();
    if !filled {
        MEM_HITS.incr();
    }
    value
}

/// The disk tier behind one memory slot: the stored entry if it
/// decodes, else `compute()`, stored for the next process. A missing
/// entry is a plain miss; an unreadable or undecodable one (corrupted,
/// or written under another shape) is dropped and replaced.
fn load_or_compute<T, F>(domain: &str, key: Key, compute: F) -> T
where
    T: serde::Serialize + serde::Deserialize,
    F: FnOnce() -> T,
{
    let path = disk_root().map(|root| entry_path(&root, domain, key));
    if let Some(path) = &path {
        let read = LOAD_NS.time(|| {
            std::fs::read_to_string(path).map(|body| (serde_json::from_str::<T>(&body), body.len()))
        });
        match read {
            Ok((Ok(value), bytes)) => {
                DISK_HITS.incr();
                BYTES_READ.add(bytes as u64);
                return value;
            }
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => {}
            _ => {
                STALE_DROPS.incr();
                let _ = std::fs::remove_file(path);
            }
        }
    }
    MISSES.incr();
    let value = compute();
    if let Some(path) = path {
        STORE_NS.time(|| {
            if let Ok(body) = serde_json::to_string(&value) {
                write_atomic(&path, &body);
            }
        });
    }
    value
}

/// A temp-file path next to `path`, unique per call across threads and
/// processes (pid plus a process-wide sequence number).
fn temp_path(path: &Path) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    path.with_extension(format!("tmp{}.{seq}", std::process::id()))
}

/// Writes `body` via a unique temp file + rename so concurrent writers
/// (two threads or processes computing the same artifact) can never
/// tear an entry.
fn write_atomic(path: &Path, body: &str) {
    let Some(dir) = path.parent() else { return };
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let tmp = temp_path(path);
    if std::fs::write(&tmp, body).is_ok() && std::fs::rename(&tmp, path).is_ok() {
        BYTES_WRITTEN.add(body.len() as u64);
    } else {
        let _ = std::fs::remove_file(&tmp);
    }
}

/// Per-domain disk usage: `(domain, entries, bytes)`.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct DomainStats {
    /// Artifact kind (subdirectory name).
    pub domain: String,
    /// Number of stored entries.
    pub entries: u64,
    /// Total bytes across the entries.
    pub bytes: u64,
}

/// Walks the on-disk store and reports per-domain usage, sorted by
/// domain name. Returns `None` when no disk root is configured or the
/// store does not exist yet.
pub fn disk_stats() -> Option<Vec<DomainStats>> {
    let root = disk_root()?.join(crate::SCHEMA);
    let dirs = std::fs::read_dir(&root).ok()?;
    let mut stats = Vec::new();
    for dir in dirs.flatten() {
        if !dir.path().is_dir() {
            continue;
        }
        let mut entries = 0u64;
        let mut bytes = 0u64;
        if let Ok(files) = std::fs::read_dir(dir.path()) {
            for f in files.flatten() {
                if f.path().extension().is_some_and(|e| e == "json") {
                    entries += 1;
                    bytes += f.metadata().map(|m| m.len()).unwrap_or(0);
                }
            }
        }
        stats.push(DomainStats {
            domain: dir.file_name().to_string_lossy().into_owned(),
            entries,
            bytes,
        });
    }
    stats.sort_by(|a, b| a.domain.cmp(&b.domain));
    Some(stats)
}

/// Deletes the entire on-disk store (all schema generations under the
/// configured root) and the in-process memo map. Returns the number of
/// entries removed, or an error if the root could not be deleted.
pub fn clear() -> std::io::Result<u64> {
    clear_memory();
    let Some(root) = disk_root() else {
        return Ok(0);
    };
    let removed = disk_stats()
        .map(|s| s.iter().map(|d| d.entries).sum())
        .unwrap_or(0);
    match std::fs::remove_dir_all(&root) {
        Ok(()) => Ok(removed),
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => Ok(0),
        Err(err) => Err(err),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The store config is process-global; serialize the tests touching it.
    static LOCK: Mutex<()> = Mutex::new(());

    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            set_enabled(false);
            set_disk_root(None);
            clear_memory();
        }
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("printed_ml_cache_test_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// An input that must never be hashed.
    struct Unhashable;
    impl Hashable for Unhashable {
        fn stable_hash(&self, _: &mut crate::StableHasher) {
            panic!("the disabled path must not hash its input");
        }
    }

    #[test]
    fn disabled_cache_always_computes_without_hashing() {
        let _lock = LOCK.lock().unwrap();
        let _restore = Restore;
        set_enabled(false);
        let mut calls = 0;
        for _ in 0..3 {
            let v: u64 = memo("test.disabled", &Unhashable, || {
                calls += 1;
                42
            });
            assert_eq!(v, 42);
        }
        assert_eq!(calls, 3);
    }

    #[test]
    fn memory_tier_deduplicates_within_a_process() {
        let _lock = LOCK.lock().unwrap();
        let _restore = Restore;
        set_enabled(true);
        set_disk_root(None);
        clear_memory();
        let mut calls = 0;
        for _ in 0..3 {
            let v: String = memo("test.memo", "memo", || {
                calls += 1;
                "value".to_string()
            });
            assert_eq!(v, "value");
        }
        assert_eq!(calls, 1);
    }

    #[test]
    fn disk_tier_survives_a_memory_clear() {
        let _lock = LOCK.lock().unwrap();
        let _restore = Restore;
        let root = temp_root("disk");
        set_enabled(true);
        set_disk_root(Some(root.clone()));
        clear_memory();
        let cold: Vec<f64> = memo("test.disk", "disk", || vec![0.1, -0.0, 3.5e300]);
        clear_memory(); // simulate a fresh process
        let warm: Vec<f64> = memo("test.disk", "disk", || panic!("must hit disk"));
        assert_eq!(cold, warm);
        assert_eq!(warm[1].to_bits(), (-0.0f64).to_bits());
        let stats = disk_stats().expect("stats");
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].domain, "test.disk");
        assert_eq!(stats[0].entries, 1);
        assert!(stats[0].bytes > 0);
        let removed = clear().expect("clear");
        assert_eq!(removed, 1);
        assert!(!root.exists());
    }

    #[test]
    fn corrupted_and_mismatched_entries_fall_back_to_compute() {
        let _lock = LOCK.lock().unwrap();
        let _restore = Restore;
        let root = temp_root("corrupt");
        set_enabled(true);
        set_disk_root(Some(root.clone()));
        clear_memory();
        let path = entry_path(&root, "test.corrupt", key_for("test.corrupt", "corrupt"));
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();

        // Unparsable JSON: recomputed, entry replaced with a good one.
        std::fs::write(&path, "{not json").unwrap();
        let v: u64 = memo("test.corrupt", "corrupt", || 7);
        assert_eq!(v, 7);
        clear_memory();
        let warm: u64 = memo("test.corrupt", "corrupt", || panic!("must hit disk"));
        assert_eq!(warm, 7);

        // Parsable but wrong shape (stale schema): also recomputed.
        clear_memory();
        std::fs::write(&path, "\"a string, not a number\"").unwrap();
        let v: u64 = memo("test.corrupt", "corrupt", || 9);
        assert_eq!(v, 9);

        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn temp_paths_are_unique_per_write() {
        let path = Path::new("store/domain/key.json");
        assert_ne!(temp_path(path), temp_path(path));
    }

    #[test]
    fn concurrent_callers_of_one_key_compute_it_once() {
        let _lock = LOCK.lock().unwrap();
        let _restore = Restore;
        set_enabled(true);
        set_disk_root(None);
        clear_memory();
        let calls = AtomicU64::new(0);
        let barrier = std::sync::Barrier::new(2);
        let results: Vec<Vec<u64>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        memo("test.flight", "flight", || {
                            calls.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(std::time::Duration::from_millis(100));
                            vec![1, 2, 3]
                        })
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(results, vec![vec![1, 2, 3]; 2]);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            1,
            "the second caller recomputed"
        );
    }

    #[test]
    fn shared_entries_never_touch_the_disk_tier() {
        let _lock = LOCK.lock().unwrap();
        let _restore = Restore;
        let root = temp_root("share_disk");
        set_enabled(true);
        set_disk_root(Some(root.clone()));
        clear_memory();
        let _: u64 = memo("test.share_disk.stored", "stored", || 1);
        let before = disk_stats();
        assert!(before.is_some());
        let v: Vec<u64> = share("test.share_disk", "shared", || vec![4, 5]);
        assert_eq!(v, vec![4, 5]);
        assert_eq!(disk_stats(), before, "a shared entry reached the disk");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn concurrent_sharers_of_one_key_compute_it_once() {
        let _lock = LOCK.lock().unwrap();
        let _restore = Restore;
        set_enabled(true);
        set_disk_root(None);
        clear_memory();
        let calls = AtomicU64::new(0);
        let barrier = std::sync::Barrier::new(2);
        let results: Vec<Vec<u64>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        share("test.share_flight", "flight", || {
                            calls.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(std::time::Duration::from_millis(100));
                            vec![1, 2, 3]
                        })
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(results, vec![vec![1, 2, 3]; 2]);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            1,
            "the second sharer recomputed"
        );
    }

    #[test]
    fn a_memory_clear_drops_shared_entries() {
        let _lock = LOCK.lock().unwrap();
        let _restore = Restore;
        set_enabled(true);
        set_disk_root(None);
        clear_memory();
        let mut calls = 0;
        let mut call = || {
            share("test.share_clear", "clear", || {
                calls += 1;
                calls
            })
        };
        assert_eq!(call(), 1);
        assert_eq!(call(), 1);
        clear_memory();
        assert_eq!(call(), 2, "a cleared entry was served");
    }

    #[test]
    fn disabled_sharing_always_computes_without_hashing() {
        let _lock = LOCK.lock().unwrap();
        let _restore = Restore;
        set_enabled(false);
        let mut calls = 0;
        for _ in 0..3 {
            let v: u64 = share("test.share_disabled", &Unhashable, || {
                calls += 1;
                42
            });
            assert_eq!(v, 42);
        }
        assert_eq!(calls, 3);
    }

    #[test]
    fn shared_fills_are_not_misses() {
        let _lock = LOCK.lock().unwrap();
        let _restore = Restore;
        set_enabled(true);
        set_disk_root(None);
        clear_memory();
        let misses = MISSES.get();
        for key in ["a", "b", "a"] {
            let _: String = share("test.share_misses", key, || key.to_string());
        }
        assert_eq!(MISSES.get(), misses, "a shared fill counted as a miss");
        let _: u64 = memo("test.share_misses.memo", "memo", || 3);
        assert_eq!(MISSES.get(), misses + 1, "a memo miss went uncounted");
    }

    #[test]
    fn concurrent_misses_on_one_key_store_one_intact_entry() {
        let _lock = LOCK.lock().unwrap();
        let _restore = Restore;
        let root = temp_root("race");
        set_enabled(true);
        set_disk_root(Some(root.clone()));
        clear_memory();
        let barrier = std::sync::Barrier::new(8);
        let results: Vec<Vec<u64>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        memo("test.race", "race", || (0..4096u64).collect())
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(results.iter().all(|r| *r == results[0]));

        let path = entry_path(&root, "test.race", key_for("test.race", "race"));
        let body = std::fs::read_to_string(&path).expect("entry stored");
        assert_eq!(serde_json::from_str::<Vec<u64>>(&body).unwrap(), results[0]);
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .flatten()
            .filter(|f| f.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );

        let _ = std::fs::remove_dir_all(&root);
    }
}
