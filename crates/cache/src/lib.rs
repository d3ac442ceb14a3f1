#![warn(missing_docs)]

//! # cache — deterministic content-addressed artifact cache
//!
//! The experiment pipeline recomputes the same artifacts many times
//! over: the 17 `repro_all` regenerators independently train the same
//! models and build the same flows. This crate provides the two pieces
//! that make that reusable without ever changing a result:
//!
//! * [`StableHasher`]/[`Hashable`] ([`hash`]) — a portable structural
//!   hasher producing 128-bit [`Key`]s over canonical artifact
//!   encodings (dataset contents, model parameters, gate-level
//!   modules), independent of process, platform and `std::hash`
//!   randomization;
//! * [`memo`] ([`store`]) — the entry point: a two-tier store
//!   (in-process memo map + on-disk JSON under `bench/out/cache/cache-v1/`,
//!   via the in-repo serde shims) keyed by those hashes. A cached stage
//!   is a single `memo(domain, &input, || compute(..))` call; with the
//!   cache disabled it is just `compute()`. A stage is cached only when
//!   its warm load (key, read, decode) is measured cheaper than its
//!   compute: a priced design is, keyed by its model, while a stage
//!   whose input is a netlist (optimization, PPA) is not. [`share`]
//!   is its memory-only sibling: one slot per key and process, never
//!   written to disk, for values that regenerate faster than they
//!   decode (the generated datasets).
//!
//! **Determinism contract.** A cache hit returns a value equal to what
//! the compute closure would have produced: keys cover the complete
//! input content, and the serde shims round-trip every finite float
//! exactly (shortest-exact rendering, correctly-rounded parsing). Warm
//! runs are therefore bit-identical to cold runs. The cache is disabled
//! by default and opted into per process ([`set_enabled`],
//! [`enable_default`]), so library callers and tests see the uncached
//! path unless they ask otherwise.
//!
//! **Invalidation.** Keys are prefixed with the [`SCHEMA`] version and
//! an artifact-domain string. Changing an artifact's encoding or the
//! semantics of a producer requires bumping [`SCHEMA`] (old entries are
//! then simply never referenced again; `printed-ml cache clear` removes
//! them). Entries that fail to read, parse or decode are dropped and
//! recomputed — corruption can cost time, never correctness.
//!
//! See `docs/caching.md` for the full key-derivation and invalidation
//! story.

pub mod hash;
pub mod store;

/// Cache schema version; bump when any cached artifact's encoding or
/// any producer's semantics change.
pub const SCHEMA: &str = "cache-v1";

pub use hash::{key_for, key_for_serialized, Hashable, Key, StableHasher};
pub use store::{
    clear, clear_memory, default_disk_root, disk_root, disk_stats, enable_default, enabled, memo,
    set_disk_root, set_enabled, share, DomainStats,
};
