#![warn(missing_docs)]

//! # check — deterministic differential fuzzing
//!
//! This repository deliberately keeps *redundant implementations* of
//! its hot paths: a scalar simulator next to three lane-parallel
//! engines, a scalar analog-variation analyzer next to compiled tapes,
//! an optimizer whose output is miter-verified against its input, a
//! hand-rolled serde shim, and a content-addressed artifact cache.
//! Redundancy is only a safety net if something *diffs* the redundant
//! pairs continuously — that is this crate. It also checks every
//! digital circuit `printed_core` generates against the quantized model
//! it loads.
//!
//! * [`gen`] — seed-driven random netlists, vectors and datasets;
//! * [`oracle`] — the six differential oracles;
//! * [`shrink`] — greedy reproducer minimization;
//! * [`corpus`] — pinned minimized reproducers, replayed in CI.
//!
//! Everything is a pure function of a root seed, sharded over
//! [`exec::parallel_map`] with per-case [`exec::task_seed`] streams, so
//! a run's outcomes — and its aggregate [`digest`] — are bit-identical
//! at any thread count. `cargo run --bin check_fuzz -- --smoke` is the
//! CI entry point; see `docs/fuzzing.md` for the seed protocol and the
//! corpus re-pin workflow.

pub mod corpus;
pub mod gen;
pub mod oracle;
pub mod shrink;

pub use oracle::OracleKind;

/// Outcome of one fuzz case.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseOutcome {
    /// Case index within the run (drives the seed stream).
    pub index: u64,
    /// The case seed, `task_seed(root_seed, index)`.
    pub seed: u64,
    /// Which oracle pair the case exercised.
    pub oracle: OracleKind,
    /// Hash of the observed behavior (outputs, reports, encodings).
    /// Zero when the case mismatched.
    pub fingerprint: u64,
    /// The oracle's mismatch report, if the redundant pair disagreed.
    pub mismatch: Option<String>,
}

/// Runs `cases` fuzz cases under `root_seed`, sharded across the
/// [`exec`] thread pool. Case `i` draws seed `task_seed(root_seed, i)`
/// and exercises oracle `i % 6`, so a fixed `(root_seed, cases)` block
/// covers all six oracles with a deterministic case list —
/// results are in case order and bit-identical at any thread count.
pub fn run_cases(root_seed: u64, cases: u64) -> Vec<CaseOutcome> {
    let indices: Vec<u64> = (0..cases).collect();
    exec::parallel_map(&indices, |_, &index| run_case(root_seed, index))
}

/// Runs the single case `index` of the `root_seed` stream.
pub fn run_case(root_seed: u64, index: u64) -> CaseOutcome {
    let seed = exec::task_seed(root_seed, index);
    let oracle = OracleKind::ALL[(index % OracleKind::ALL.len() as u64) as usize];
    match oracle::run_oracle(oracle, seed) {
        Ok(fingerprint) => CaseOutcome {
            index,
            seed,
            oracle,
            fingerprint,
            mismatch: None,
        },
        Err(detail) => CaseOutcome {
            index,
            seed,
            oracle,
            fingerprint: 0,
            mismatch: Some(detail),
        },
    }
}

/// Order-sensitive digest of a run's outcomes. Two runs of the same
/// `(root_seed, cases)` block must produce the same digest regardless
/// of thread count — the thread-invariance contract CI enforces.
pub fn digest(outcomes: &[CaseOutcome]) -> u64 {
    let mut d = 0x_C4EC_D16E_5EED_0001u64;
    for o in outcomes {
        d = exec::seed::mix64(d ^ o.seed ^ o.fingerprint.rotate_left(17));
        d = exec::seed::mix64(d ^ (o.mismatch.is_some() as u64));
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_block_runs_clean_across_all_oracles() {
        let outcomes = run_cases(0xC0FFEE, 12);
        assert_eq!(outcomes.len(), 12);
        for o in &outcomes {
            assert!(
                o.mismatch.is_none(),
                "case {} ({}) mismatched: {}",
                o.index,
                o.oracle.name(),
                o.mismatch.as_deref().unwrap_or("")
            );
            assert_ne!(o.fingerprint, 0);
        }
        // All six oracles were exercised.
        let kinds: std::collections::HashSet<_> = outcomes.iter().map(|o| o.oracle).collect();
        assert_eq!(kinds.len(), OracleKind::ALL.len());
    }

    #[test]
    fn case_module_is_the_module_each_case_ran() {
        for kind in OracleKind::ALL {
            for seed in 0..64u64 {
                let Some(module) = oracle::case_module(kind, seed) else {
                    assert!(matches!(kind, OracleKind::Variation | OracleKind::Model));
                    assert!(oracle::check_module(kind, &gen::random_module(seed), seed).is_err());
                    continue;
                };
                let sequential = kind == OracleKind::Engines && seed % 8 == 3;
                assert_eq!(module.is_combinational(), !sequential, "{kind:?} {seed}");
                let checked = oracle::check_module(kind, &module, seed);
                assert!(checked.is_ok(), "{kind:?} {seed}: {checked:?}");
                // These two cases are their module check; the serde and
                // cache cases check a dataset and models after it.
                if matches!(kind, OracleKind::Engines | OracleKind::Optimizer) {
                    assert_eq!(checked, oracle::run_oracle(kind, seed), "{kind:?} {seed}");
                }
            }
        }
    }

    #[test]
    fn digests_are_reproducible() {
        let a = run_cases(42, 10);
        let b = run_cases(42, 10);
        assert_eq!(a, b);
        assert_eq!(digest(&a), digest(&b));
        // Different seed, different digest.
        assert_ne!(digest(&a), digest(&run_cases(43, 10)));
    }
}
