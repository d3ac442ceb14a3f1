//! The thread-invariance contract: a fuzz block's outcomes — and its
//! aggregate digest — are a pure function of `(root_seed, cases)`,
//! never of the shard pool's size.

use check::{digest, run_cases};

const SEED: u64 = 0xC0FFEE;
const CASES: u64 = 60; // 10 cases per oracle

#[test]
fn outcomes_are_bit_identical_at_1_4_and_8_threads() {
    let one = exec::with_threads(1, || run_cases(SEED, CASES));
    let four = exec::with_threads(4, || run_cases(SEED, CASES));
    let eight = exec::with_threads(8, || run_cases(SEED, CASES));
    assert_eq!(one, four, "1-thread and 4-thread outcomes diverge");
    assert_eq!(four, eight, "4-thread and 8-thread outcomes diverge");
    assert_eq!(digest(&one), digest(&eight));
    for o in &one {
        assert!(
            o.mismatch.is_none(),
            "case {} ({}) mismatched: {}",
            o.index,
            o.oracle.name(),
            o.mismatch.as_deref().unwrap_or("")
        );
    }
}

#[test]
fn digest_is_sensitive_to_any_outcome_change() {
    let base = run_cases(SEED, 20);
    let mut tweaked = base.clone();
    tweaked[7].fingerprint ^= 1;
    assert_ne!(digest(&base), digest(&tweaked));
    let mut flagged = base.clone();
    flagged[3].mismatch = Some("synthetic".to_string());
    assert_ne!(digest(&base), digest(&flagged));
}
