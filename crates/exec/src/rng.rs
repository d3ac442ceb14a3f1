//! A small, fully reproducible PRNG.
//!
//! The workspace previously leaned on the external `rand` crate; for
//! reproducibility (and offline builds) the generator is now in-repo and
//! its sequence is part of the repository's contract: **the stream
//! produced by a given seed must never change.** The core is SplitMix64
//! — a 64-bit counter run through the [`crate::seed::mix64`] avalanche —
//! which is statistically solid for Monte-Carlo work and trivially
//! seedable.
//!
//! The API mirrors the slice of `rand` this workspace used:
//! `StdRng::seed_from_u64`, `gen_range` over integer/float ranges, and a
//! [`SliceRandom`] extension with `shuffle`.

use std::ops::{Range, RangeInclusive};

use crate::seed::mix64;

/// SplitMix64's Weyl increment: the state advances by this odd constant
/// per draw.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The workspace's deterministic generator (SplitMix64).
///
/// Named `StdRng` so call sites read identically to the `rand`-based
/// code they replaced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    state: u64,
}

impl StdRng {
    /// Creates a generator whose stream is fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        StdRng { state: seed }
    }

    /// Next raw 64-bit output (canonical SplitMix64: Weyl-sequence state
    /// walk, [`mix64`] output stage).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix64(self.state)
    }

    /// Skips the next `k` draws in constant time.
    ///
    /// The state is a Weyl sequence, so after `k` draws it is
    /// `seed + k·GAMMA` (mod 2⁶⁴): the next draw after `advance(k)` is
    /// draw `k` of the stream, with no pass over the draws before it.
    #[inline]
    pub fn advance(&mut self, k: u64) {
        self.state = self.state.wrapping_add(k.wrapping_mul(GAMMA));
    }

    /// Uniform `f64` in `[0, 1)` with 53 random mantissa bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample from `range`.
    ///
    /// # Panics
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.next_f64() < p
    }
}

/// Ranges [`StdRng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one uniform sample.
    fn sample(self, rng: &mut StdRng) -> T;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + (rng.next_u64() % (span + 1)) as $t
            }
        }
    )*};
}

int_sample_range!(usize, u64, u32, i64, i32);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample(self, rng: &mut StdRng) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    #[inline]
    fn sample(self, rng: &mut StdRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range");
        lo + rng.next_f64() * (hi - lo)
    }
}

/// Shuffle extension, mirroring `rand::seq::SliceRandom`.
pub trait SliceRandom {
    /// Fisher–Yates shuffle, deterministic in the generator state.
    fn shuffle(&mut self, rng: &mut StdRng);
}

impl<T> SliceRandom for [T] {
    fn shuffle(&mut self, rng: &mut StdRng) {
        for i in (1..self.len()).rev() {
            let j = rng.gen_range(0..i + 1);
            self.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn advance_reaches_draw_k_directly() {
        let nth = |k: u64| {
            let mut rng = StdRng::seed_from_u64(7);
            for _ in 0..k {
                rng.next_u64();
            }
            rng.next_u64()
        };
        for k in [0, 1, 63] {
            let mut rng = StdRng::seed_from_u64(7);
            rng.advance(k);
            assert_eq!(rng.next_u64(), nth(k), "k = {k}");
        }
        // 2^40 draws are too many to step through: check 2^20 against
        // stepping, then 2^40 against 2^20 skips of 2^20.
        let mut stepped = StdRng::seed_from_u64(7);
        let mut skipped = stepped.clone();
        for _ in 0..1u64 << 20 {
            stepped.next_u64();
        }
        skipped.advance(1 << 20);
        assert_eq!(skipped, stepped);
        let mut far = StdRng::seed_from_u64(7);
        far.advance(1 << 40);
        let mut hops = StdRng::seed_from_u64(7);
        for _ in 0..1u64 << 20 {
            hops.advance(1 << 20);
        }
        assert_eq!(far.next_u64(), hops.next_u64());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(8);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_stays_in_unit_interval_and_covers_it() {
        let mut rng = StdRng::seed_from_u64(3);
        let draws: Vec<f64> = (0..4000).map(|_| rng.next_f64()).collect();
        assert!(draws.iter().all(|&x| (0.0..1.0).contains(&x)));
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..2000 {
            let x = rng.gen_range(3usize..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(-2.5f64..=2.5);
            assert!((-2.5..=2.5).contains(&y));
        }
    }

    #[test]
    fn integer_range_hits_every_value() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = [false; 8];
        for _ in 0..400 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_is_a_permutation_and_deterministic() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        a.shuffle(&mut StdRng::seed_from_u64(9));
        b.shuffle(&mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(a, sorted, "50 elements should not shuffle to identity");
    }
}
