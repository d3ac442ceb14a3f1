//! Compiled, lane-batched Monte-Carlo variation engine.
//!
//! The scalar analyzers (preserved as [`crate::variation::reference`])
//! re-derive split ordinals, rebuild perturbed columns and walk the tree
//! node-by-node for **every** `(trial, row)` pair — including a full
//! nominal-circuit prediction per pair, each of which costs `powf`/`ln`
//! transistor-law evaluations and fresh allocations. This module applies
//! the `netlist::compile` treatment to the analog side:
//!
//! 1. **Compile once.** A [`QuantizedTree`] / [`QuantizedSvm`] is
//!    flattened into an evaluation *tape*: split ordinals resolved to a
//!    dense struct-of-arrays topology, per-node nominal resistances
//!    pre-solved through the transistor law, crossbar column layouts
//!    (draw order *and* ascending-row summation order) frozen.
//! 2. **Bind rows once.** Feature codes are normalized to node voltages
//!    a single time, and the nominal circuit is evaluated once per row
//!    — not once per `(trial, row)`.
//! 3. **Evaluate a lane-block of trials per pass over the rows.** Each
//!    block carries [`LANES`] trials. A tree row is decided by one walk
//!    that routes a 64-lane mask through the topology, and a lane's
//!    perturbed threshold is drawn only when the walk first takes that
//!    lane to that split. An SVM block perturbs its crossbar terms into
//!    a struct-of-arrays lane matrix, then sums every row's columns in
//!    register tiles. Duplicate rows are bound once and counted by
//!    multiplicity.
//!    Blocks shard across [`exec::parallel_map`]; the tape is compiled
//!    once and shared read-only by every shard.
//!
//! ## Determinism contract
//!
//! Trial `t` draws from `StdRng::seed_from_u64(task_seed(seed, t))`
//! exactly what the scalar path draws (tree: split `s` takes draws `2s`
//! and `2s + 1`, reached directly by [`StdRng::advance`]; SVM: positive
//! column then negative column in term order). Only a decision leaves a
//! draw: a tree lane's `x > t` at every code level `x`, an SVM term's
//! printable grid index. Each draw is decided one of two ways. The fast
//! path decides it in the log domain, from `sz = sigma * z` added to a
//! logarithm solved at compile time, with `z` from [`polynomial_normal`],
//! which lies within [`Z_ERR`] of the reference's Box–Muller `z` (libm's
//! `ln` and `cos`). A draw whose value lies within the slack of a point
//! where the decision could change (1e-6 of a code or grid step plus what
//! the polynomials can move it) is decided by the reference's own
//! operations instead: [`box_muller`] over the draw's own two uniforms,
//! then the device chain. An SVM column with such a term is decided that
//! way whole. SVM column sums are reassociated, and a class is taken from
//! them only when no boundary lies within a proven bound on the
//! reassociation's rounding; otherwise the columns are re-added in the
//! reference's order. Reports are therefore **bit-identical** to
//! [`crate::variation::reference`] and bit-identical at any thread count
//! or lane-block boundary (`tests/variation_engine.rs` pins both).

use std::collections::hash_map::{Entry, HashMap};

use exec::rng::StdRng;
use exec::{parallel_map, task_seed};

use ml::quant::{max_code_for_bits, QNode, QuantizedSvm, QuantizedTree};

use crate::device::{Egt, PrintedResistor, R_MIN, VDD};
use crate::svm::AnalogSvm;
use crate::tree::{AnalogTree, AnalogTreeConfig};
use crate::variation::{box_muller, VariationReport};

/// Trials evaluated per pass over the rows: one bit of a `u64` lane
/// mask each.
pub const LANES: usize = 64;

/// Tape builds (tree + SVM), mirroring `netlist.sim.compiles`.
static COMPILES: obs::Counter = obs::Counter::new("analog.variation.compiles");
/// Monte-Carlo trials evaluated through the compiled engine.
static TRIALS: obs::Counter = obs::Counter::new("analog.variation.trials");
/// `(trial, row)` evaluations performed.
static ROWS: obs::Counter = obs::Counter::new("analog.variation.rows");
/// Lane blocks sharded across the exec pool.
static LANE_BLOCKS: obs::Counter = obs::Counter::new("analog.variation.lane_blocks");
/// Perturbations drawn: per-lane split thresholds a walk reached (tree)
/// and per-lane crossbar terms (SVM).
static DRAWS: obs::Counter = obs::Counter::new("analog.variation.draws");
/// Draws the reference's own chain decided: tree thresholds and SVM terms
/// whose polynomial normal put them within the slack of a decision
/// boundary (such a term's whole column is redecided).
static EXACT: obs::Counter = obs::Counter::new("analog.variation.exact");
/// `(distinct row, lane)` SVM decisions a class boundary within the
/// reassociation bound left to the reference-order column sums.
static EXACT_SUMS: obs::Counter = obs::Counter::new("analog.variation.exact_sums");

/// The floor of both slacks, in code steps (tree) or grid steps (SVM): a
/// log-domain value from the reference's `z` this far from every point
/// where the decision changes decides like the exact device chain, since
/// the two forms differ by rounding only, below 1e-9 of a step even at
/// 16 bits and sigma 10. A value from [`polynomial_normal`]'s `z` needs
/// more: see [`CompiledTreeVariation::slack`] and [`ColumnTape::slack`].
const MARGIN: f64 = 1e-6;

/// An upper bound on `|z|` and `|z̃|`: a 53-bit uniform keeps
/// `1 − u1 ≥ 2^-53`, so `|z| ≤ sqrt(106·ln 2) < 8.58`.
const Z_MAX: f64 = 8.6;

/// A bound on `|z̃ − z|`, where `z̃` is [`polynomial_normal`]'s value and
/// `z` is [`box_muller`]'s from the same two uniforms.
///
/// Both take `w = 1 − u1` exactly (a multiple of 2^-53 in `(0, 1]`), and
/// `z = R·C` with `R = sqrt(−2·ln w) < 8.58` and `C = cos(2π·u2)`; `u = ε/2`.
/// * *`ln`, truncation.* With `|s| ≤ 3 − 2√2 < 0.1716`, the atanh series
///   stopped after `s^13` leaves less than `2|s|^15 / (15·(1 − s²)) < 4.52e-13`
///   of `ln m`, and under `|s|^14 / (15·(1 − s²)) < 1.32e-12` of it
///   relative. For `w ≥ √½` (`k = 0`) `R < 0.833` moves by at most
///   `R·1.32e-12 / 2 < 5.5e-13`; otherwise `|ln w| ≥ ln √2`, so `R > 0.83`
///   and `R` moves by at most `4.52e-13 / R < 5.5e-13`.
/// * *`cos`, truncation.* The `sin` series on `|x| ≤ π/2` alternates with
///   falling terms, so stopping after `x^17` leaves under
///   `(π/2)^19 / 19! < 4.4e-14`: under `3.8e-13` of `z`.
/// * *Polynomial rounding.* The reductions are exact (bit operations,
///   `m − 1` by Sterbenz, `1/4 − min(u2, 1 − u2)` on multiples of 2^-53).
///   `R̃` then carries under `16u` relative error (`1.6e-14` of `z`), and
///   Horner's bound puts `C̃` within `26u·sinh(π/2) < 6.7e-15` of `sin`'s
///   series (`5.8e-14` of `z`).
/// * *libm's own error.* `ln` and `cos` are within 1 ulp and `sqrt`
///   rounds correctly, so `R` is within `2u` relative (`1.9e-15` of `z`).
///   `cos` reads `fl(TAU·u2)`, within `|TAU − 2π| + u·2π < 9.5e-16` of
///   `2π·u2`, so `C` is within `1.2e-15` (`1.0e-14` of `z`).
/// * *The two products `R·C`* round by at most `u·Z_MAX` each (`1.9e-15`).
///
/// The sum is under `1.02e-12`; the bound keeps a factor of about 2.
const Z_ERR: f64 = 2e-12;

/// `2/(2j + 1)`: `ln m = s·Σ_j LN_COEFFS[j]·s^(2j)`, the atanh series of
/// `ln m = 2·atanh(s)` through `s^13`.
const LN_COEFFS: [f64; 7] = [
    2.0,
    2.0 / 3.0,
    2.0 / 5.0,
    2.0 / 7.0,
    2.0 / 9.0,
    2.0 / 11.0,
    2.0 / 13.0,
];

/// `(−1)^j·(2π)^(2j + 1) / (2j + 1)!`: `sin(2π·c) = c·Σ_j SIN_COEFFS[j]·c^(2j)`,
/// the Taylor series through `(2π·c)^17`, each coefficient rounded once.
const SIN_COEFFS: [f64; 9] = [
    std::f64::consts::TAU,
    -41.341_702_240_399_76,
    81.605_249_276_075_06,
    -76.705_859_753_061_39,
    42.058_693_944_897_655,
    -15.094_642_576_822_99,
    3.819_952_584_848_282,
    -0.718_122_301_778_500_6,
    0.104_229_162_208_139_84,
];

/// `Σ_j coeffs[j]·t^j` by Horner's rule.
#[inline(always)]
fn horner<const N: usize>(t: f64, coeffs: &[f64; N]) -> f64 {
    coeffs[..N - 1]
        .iter()
        .rev()
        .fold(coeffs[N - 1], |p, &c| c + t * p)
}

/// Box–Muller's `z = sqrt(−2·ln(1 − u1))·cos(2π·u2)` from the uniforms
/// `u1, u2` in `[0, 1)`, with branch-free polynomials for `ln` and `cos`
/// and no libm call: within [`Z_ERR`] of [`box_muller`]'s value from the
/// same uniforms.
///
/// `ln`: the bits of `w = 1 − u1` give `w = 2^k·m` with `m` in `[√½, √2)`
/// (subtracting `√½`'s bits carries `k` into the exponent field), and
/// `ln w = k·ln 2 + 2·atanh(s)` with `s = (m − 1)/(m + 1)`. `cos`: with
/// `c = 1/4 − min(u2, 1 − u2)` in `[−1/4, 1/4]`, `cos(2π·u2) = sin(2π·c)`,
/// an odd series, so no quadrant or sign is selected.
#[inline]
fn polynomial_normal(u1: f64, u2: f64) -> f64 {
    const SQRT_HALF_BITS: u64 = 0x3fe6_a09e_667f_3bcd;
    let bits = (1.0 - u1).to_bits();
    let k = (bits.wrapping_sub(SQRT_HALF_BITS) as i64) >> 52;
    let m = f64::from_bits(bits.wrapping_sub((k as u64) << 52));
    let s = (m - 1.0) / (m + 1.0);
    let ln_w = k as f64 * std::f64::consts::LN_2 + s * horner(s * s, &LN_COEFFS);
    let c = 0.25 - u2.min(1.0 - u2);
    (-2.0 * ln_w).sqrt() * (c * horner(c * c, &SIN_COEFFS))
}

/// `x` rounded to the nearest integer, ties to even, for `|x| < 2^51`:
/// adding `1.5·2^52` leaves no fraction bits. Unlike `f64::round` it
/// makes no libm call on baseline x86-64.
#[inline(always)]
fn rint(x: f64) -> f64 {
    const SHIFT: f64 = 6_755_399_441_055_744.0;
    (x + SHIFT) - SHIFT
}

/// Child/root encoding of the flat tree topology: `>= 0` is a split
/// ordinal, `< 0` is a leaf storing `!class`.
fn encode_child(ordinal_of: &[usize], nodes: &[QNode], node: usize) -> i32 {
    match &nodes[node] {
        QNode::Leaf { class } => !(*class as i32),
        QNode::Split { .. } => ordinal_of[node] as i32,
    }
}

/// A quantized tree compiled into a flat variation-evaluation tape.
#[derive(Debug, Clone)]
pub struct CompiledTreeVariation {
    /// Per split ordinal (node-index order, the reference draw order).
    feature: Vec<usize>,
    /// Nominal printed resistance realizing each split's threshold.
    r_nom: Vec<f64>,
    /// `ln(r_nom / r_off)`: the log-domain form of each `r_nom`.
    ln_ratio: Vec<f64>,
    left: Vec<i32>,
    right: Vec<i32>,
    /// Root in child encoding (`< 0`: the tree is a single leaf).
    root: i32,
    device: Egt,
    /// `device.ln_span()`, solved once instead of once per draw.
    ln_span: f64,
    max_code: u64,
    /// `max_code / ln_span`: code steps per unit of `ln(r / r_off)`.
    codes_per_ln: f64,
    /// Nominal analog realization, evaluated once per row at bind time.
    nominal: AnalogTree,
}

/// Rows bound to a [`CompiledTreeVariation`]: pre-normalized node
/// voltages (one slot per split, in split-ordinal order), how many
/// caller rows each distinct row stands for, and the nominal circuit's
/// prediction for it.
#[derive(Debug, Clone)]
pub struct TreeRows {
    /// `volts[row * n_splits + s]` — the voltage split `s` compares.
    split_volts: Vec<f64>,
    /// Caller rows per distinct row.
    mult: Vec<u32>,
    nominal_class: Vec<usize>,
    /// Caller rows, duplicates included: the agreement denominator.
    n_rows: usize,
}

impl CompiledTreeVariation {
    /// Flattens `tree` into an evaluation tape: split ordinals, features
    /// and nominal resistances in struct-of-arrays layout, plus the
    /// nominal analog realization used as the agreement baseline.
    pub fn compile(tree: &QuantizedTree) -> Self {
        COMPILES.incr();
        let max_code = max_code_for_bits(tree.bits());
        let device = Egt::default();
        let nodes = tree.nodes();
        let mut ordinal_of = vec![usize::MAX; nodes.len()];
        let mut n_splits = 0usize;
        for (i, node) in nodes.iter().enumerate() {
            if matches!(node, QNode::Split { .. }) {
                ordinal_of[i] = n_splits;
                n_splits += 1;
            }
        }
        let mut feature = Vec::with_capacity(n_splits);
        let mut r_nom = Vec::with_capacity(n_splits);
        let mut left = Vec::with_capacity(n_splits);
        let mut right = Vec::with_capacity(n_splits);
        for node in nodes {
            if let QNode::Split {
                feature: f,
                threshold,
                left: l,
                right: r,
            } = node
            {
                let v = (((*threshold as f64) + 0.5) / max_code as f64).clamp(0.0, 1.0);
                feature.push(*f);
                r_nom.push(device.resistance(v));
                left.push(encode_child(&ordinal_of, nodes, *l));
                right.push(encode_child(&ordinal_of, nodes, *r));
            }
        }
        let ln_span = device.ln_span();
        CompiledTreeVariation {
            feature,
            ln_ratio: r_nom.iter().map(|r| (r / device.r_off).ln()).collect(),
            r_nom,
            left,
            right,
            root: encode_child(&ordinal_of, nodes, 0),
            device,
            ln_span,
            max_code,
            codes_per_ln: max_code as f64 / ln_span,
            nominal: AnalogTree::from_tree(tree, AnalogTreeConfig::default()),
        }
    }

    /// Number of split nodes on the tape.
    pub fn split_count(&self) -> usize {
        self.feature.len()
    }

    /// Normalizes `rows` to per-split node voltages, keeping each
    /// distinct row once with its multiplicity, and evaluates the nominal
    /// circuit once per distinct row.
    ///
    /// # Panics
    /// Panics if a row is shorter than a split's feature index plus one.
    pub fn bind(&self, rows: &[Vec<u64>]) -> TreeRows {
        let mut read = self.feature.clone();
        read.sort_unstable();
        read.dedup();
        let (distinct, mult) = distinct_rows(rows, &read);
        let mut split_volts = Vec::with_capacity(distinct.len() * self.feature.len());
        for codes in &distinct {
            for &f in &self.feature {
                split_volts.push(codes[f].min(self.max_code) as f64 / self.max_code as f64);
            }
        }
        TreeRows {
            split_volts,
            nominal_class: distinct.iter().map(|c| self.nominal.predict(c)).collect(),
            mult,
            n_rows: rows.len(),
        }
    }

    /// Split `s`'s perturbed threshold voltage for the perturbation
    /// `sz = sigma * z`, or `None` within `slack` code steps of a code
    /// level.
    ///
    /// The threshold is `clamp((ln(r_nom / r_off) + sz) / ln_span, 0, VDD)`
    /// in the log domain, and only `x > t` over the code levels `x`
    /// leaves the draw. Away from every level any value between the same
    /// two levels decides alike. Beyond the clamp edges the clamp decides;
    /// those tests come first, so a huge sigma stays decided here.
    #[inline]
    fn threshold(&self, s: usize, sz: f64, slack: f64) -> Option<f64> {
        let code = (self.ln_ratio[s] + sz) * self.codes_per_ln;
        if code <= -slack {
            Some(0.0)
        } else if code >= self.max_code as f64 + slack {
            Some(VDD)
        } else if (code - rint(code)).abs() < slack {
            None
        } else {
            Some(code / self.max_code as f64 * VDD)
        }
    }

    /// [`MARGIN`] plus `δ = 2·(|c|·σ·(Z_ERR + 3ε·Z_MAX) + 2ε·max_code)`
    /// (`c` = code steps per unit of `ln`): how close a code value from
    /// [`polynomial_normal`] may come to a code level before the
    /// reference's `z` decides instead.
    ///
    /// The code value is `fl(fl(l + fl(σz))·c)`, with `|l·c| ≤ max_code`.
    /// With `u = ε/2`, moving `z` by at most [`Z_ERR`] moves `fl(σz)` by at
    /// most `σ·Z_ERR + 2u·σ·Z_MAX`, the sum by that plus
    /// `2u·(|l| + σ·Z_MAX)`, and the code value by `|c|` times that plus
    /// `2u·|c|·(|l| + σ·Z_MAX)`: to first order
    /// `|c|·σ·(Z_ERR + 6u·Z_MAX) + 4u·max_code`, which the factor 2 keeps
    /// clear of second-order terms and of the rounding of the slack and of
    /// the tests against it. A value more than the slack from every level
    /// thus lies between the same two levels as the reference's value,
    /// which lies more than [`MARGIN`] from both.
    fn slack(&self, sigma: f64) -> f64 {
        let z = self.codes_per_ln.abs() * sigma * (Z_ERR + 3.0 * f64::EPSILON * Z_MAX);
        MARGIN + 2.0 * (z + 2.0 * f64::EPSILON * self.max_code as f64)
    }

    /// Split `s`'s perturbed threshold voltage for the draw from the
    /// uniforms `(u1, u2)`, and whether [`polynomial_normal`]'s value lay
    /// within `slack` ([`Self::slack`]) of a code level. Such a draw takes
    /// the reference's own threshold: [`box_muller`] over the same
    /// uniforms, then the exact chain.
    #[inline]
    fn draw_threshold(&self, s: usize, sigma: f64, slack: f64, u1: f64, u2: f64) -> (f64, bool) {
        match self.threshold(s, sigma * polynomial_normal(u1, u2), slack) {
            Some(t) => (t, false),
            None => (self.exact_threshold(s, sigma * box_muller(u1, u2)), true),
        }
    }

    /// [`Self::threshold`] through the transistor law exactly as the
    /// reference computes it.
    fn exact_threshold(&self, s: usize, sz: f64) -> f64 {
        let r = (self.r_nom[s] * sz.exp()).clamp(self.device.r_on, self.device.r_off);
        self.device.voltage_in_span(r, self.ln_span)
    }

    /// Per-lane agreement counts of trials `lo .. lo + n` over the bound
    /// rows, plus the number of lane thresholds drawn and how many of
    /// those the reference's own chain decided.
    ///
    /// Each distinct row is one walk: `(node, lane mask)` pairs on a stack start
    /// from `(root, all lanes)`, and a split sends the lanes whose input
    /// exceeds their threshold right and the rest left. A lane's
    /// threshold at a split is drawn the first time any row's walk takes
    /// that lane there, so splits no trial reaches cost nothing.
    fn walk_block(
        &self,
        rows: &TreeRows,
        lo: usize,
        n: usize,
        sigma: f64,
        seed: u64,
    ) -> ([u32; LANES], u64, u64) {
        let n_splits = self.feature.len();
        let all = u64::MAX >> (LANES - n);
        let mut streams = [0u64; LANES];
        for (lane, stream) in streams.iter_mut().enumerate().take(n) {
            *stream = task_seed(seed, (lo + lane) as u64);
        }
        // `thr[s * LANES + lane]`, valid where bit `lane` of `drawn[s]` is set.
        let mut thr = vec![0.0f64; n_splits * LANES];
        let mut drawn = vec![0u64; n_splits];
        let mut stack: Vec<(i32, u64)> = Vec::new();
        let mut agree = [0u32; LANES];
        let mut exact = 0u64;
        let slack = self.slack(sigma);
        for (r, (&mult, &nominal)) in rows.mult.iter().zip(&rows.nominal_class).enumerate() {
            let volts = &rows.split_volts[r * n_splits..(r + 1) * n_splits];
            let mut ok = 0u64;
            stack.push((self.root, all));
            while let Some((node, mask)) = stack.pop() {
                if node < 0 {
                    if (!node) as usize == nominal {
                        ok |= mask;
                    }
                    continue;
                }
                let s = node as usize;
                let lanes = &mut thr[s * LANES..(s + 1) * LANES];
                let mut fresh = mask & !drawn[s];
                drawn[s] |= fresh;
                while fresh != 0 {
                    let lane = fresh.trailing_zeros() as usize;
                    fresh &= fresh - 1;
                    // Split `s` takes draws `2s` and `2s + 1` of the stream.
                    let mut rng = StdRng::seed_from_u64(streams[lane]);
                    rng.advance(2 * s as u64);
                    let u1 = rng.next_f64();
                    let u2 = rng.next_f64();
                    let (t, fell_back) = self.draw_threshold(s, sigma, slack, u1, u2);
                    lanes[lane] = t;
                    exact += u64::from(fell_back);
                }
                // Branch-free decision word. Built a byte per eight lanes,
                // which LLVM packs better than one 64-lane loop. Lanes
                // outside `mask` may hold stale thresholds; they are
                // masked off below.
                let x = volts[s];
                let mut word = 0u64;
                for (c, chunk) in lanes.chunks_exact(8).enumerate() {
                    let mut b = 0u64;
                    for (l, &t) in chunk.iter().enumerate() {
                        b |= ((x > t) as u64) << l;
                    }
                    word |= b << (8 * c);
                }
                if mask & word != 0 {
                    stack.push((self.right[s], mask & word));
                }
                if mask & !word != 0 {
                    stack.push((self.left[s], mask & !word));
                }
            }
            for (lane, a) in agree.iter_mut().enumerate() {
                *a += mult * ((ok >> lane) & 1) as u32;
            }
        }
        let draws = drawn.iter().map(|d| u64::from(d.count_ones())).sum();
        (agree, draws, exact)
    }

    /// Runs the Monte-Carlo agreement analysis on pre-bound rows.
    ///
    /// Bit-identical to [`crate::variation::reference::analyze_tree_variation`]
    /// at any thread count.
    ///
    /// # Panics
    /// Panics if `trials` is zero or `rows` is empty.
    pub fn analyze(
        &self,
        rows: &TreeRows,
        sigma: f64,
        trials: usize,
        seed: u64,
    ) -> VariationReport {
        monte_carlo(sigma, trials, rows.n_rows, |lo, n| {
            let (agree, draws, exact) = self.walk_block(rows, lo, n, sigma, seed);
            DRAWS.add(draws);
            EXACT.add(exact);
            agree
        })
    }
}

/// The lane-block driver both engines share: shards `trials` into
/// blocks of [`LANES`] across the pool, where `block(lo, n)` returns how
/// many of the `n_rows` bound rows each of trials `lo .. lo + n` agrees
/// on, then folds the per-trial agreements into a [`VariationReport`]
/// with the exact reduction (and reduction order) of the scalar
/// reference.
///
/// # Panics
/// Panics if `trials` or `n_rows` is zero.
fn monte_carlo(
    sigma: f64,
    trials: usize,
    n_rows: usize,
    block: impl Fn(usize, usize) -> [u32; LANES] + Sync,
) -> VariationReport {
    let _span = obs::span("analog.variation");
    assert!(trials > 0, "need at least one trial");
    assert!(n_rows > 0, "need evaluation rows");
    TRIALS.add(trials as u64);
    ROWS.add((trials * n_rows) as u64);
    let block_ids: Vec<u64> = (0..trials.div_ceil(LANES) as u64).collect();
    LANE_BLOCKS.add(block_ids.len() as u64);
    let blocks: Vec<Vec<f64>> = parallel_map(&block_ids, |_, &b| {
        let lo = b as usize * LANES;
        let n = (trials - lo).min(LANES);
        block(lo, n)[..n]
            .iter()
            .map(|&a| a as f64 / n_rows as f64)
            .collect()
    });
    let agreements: Vec<f64> = blocks.into_iter().flatten().collect();
    let mean = agreements.iter().sum::<f64>() / trials as f64;
    let worst = agreements.iter().cloned().fold(f64::INFINITY, f64::min);
    VariationReport {
        sigma,
        trials,
        mean_agreement: mean,
        worst_agreement: worst,
    }
}

/// The largest conductance a programmed crossbar column uses, at its
/// largest weight (`CrossbarColumn::program`).
const G_MAX: f64 = 1.0 / (2.0 * R_MIN);
/// Grid index, before rounding, of the largest weight's resistance
/// `1 / G_MAX = 2·R_MIN`: `VALUES_PER_DECADE · log10 2`.
const GRID_AT_MAX: f64 = PrintedResistor::VALUES_PER_DECADE as f64 * std::f64::consts::LOG10_2;
/// Grid steps per unit of `ln(wmax / w)`: `VALUES_PER_DECADE · log10 e`.
const GRID_PER_LN: f64 = PrintedResistor::VALUES_PER_DECADE as f64 * std::f64::consts::LOG10_E;
/// The top grid index, where every resistance past `R_MAX` snaps.
const GRID_TOP: usize = PrintedResistor::GRID_POINTS - 1;

/// One crossbar column's frozen layout.
#[derive(Debug, Clone)]
struct ColumnTape {
    /// `(feature, magnitude)` in **term order** — the RNG draw order.
    features: Vec<usize>,
    mags: Vec<f64>,
    /// `ln` of each magnitude: the log-domain form of the weights.
    ln_mags: Vec<f64>,
    /// The largest of `ln_mags`.
    ln_mag_max: f64,
    /// Indices into `features`/`mags` sorted by ascending feature — the
    /// order `CrossbarColumn::program` builds resistors and sums
    /// conductances in.
    eval: Vec<usize>,
}

impl ColumnTape {
    fn new(terms: &[(usize, u64)]) -> Option<Self> {
        if terms.is_empty() {
            return None;
        }
        let features: Vec<usize> = terms.iter().map(|&(f, _)| f).collect();
        let mags: Vec<f64> = terms.iter().map(|&(_, m)| m as f64).collect();
        let mut eval: Vec<usize> = (0..terms.len()).collect();
        eval.sort_by_key(|&k| features[k]);
        assert!(
            eval.windows(2).all(|w| features[w[0]] != features[w[1]]),
            "duplicate crossbar rows in SVM terms"
        );
        let ln_mags: Vec<f64> = mags.iter().map(|m| m.ln()).collect();
        Some(ColumnTape {
            features,
            ln_mag_max: ln_mags.iter().fold(0.0, |a, &b| b.max(a)),
            ln_mags,
            mags,
            eval,
        })
    }

    /// Snaps each term to its printable grid index in the log domain for
    /// the perturbations `sz` (term order; term `k`'s weight is
    /// `mags[k] * exp(sz[k])`), calling `snap(slot, m)` in ascending-row
    /// slot order. Returns how many terms lay within `slack` grid steps of
    /// a rounding boundary; their indices are not to be trusted.
    ///
    /// With `L_k = ln mags[k] + sz[k]`, term `k` snaps to
    /// `round(48·(log10 2 + (max L − L_k)·log10 e))`, capped at the top
    /// index. A value within `slack` of a half-integer is one where the
    /// rounding could go either way. At the top index the cap and the
    /// rounding agree, so it is no boundary while the slack stays below a
    /// half step, as it does up to any sigma an SVM takes.
    #[inline]
    fn grid_indices(&self, sz: &[f64], slack: f64, mut snap: impl FnMut(usize, usize)) -> u64 {
        let log_weight = |k: usize| self.ln_mags[k] + sz[k];
        let l_max = (0..sz.len())
            .map(log_weight)
            .fold(f64::NEG_INFINITY, f64::max);
        let mut near = 0u64;
        for (slot, &k) in self.eval.iter().enumerate() {
            let e = GRID_AT_MAX + (l_max - log_weight(k)) * GRID_PER_LN;
            let r = rint(e);
            let m = if e >= GRID_TOP as f64 {
                GRID_TOP
            } else {
                near += u64::from((e - r).abs() > 0.5 - slack);
                r as usize
            };
            snap(slot, m);
        }
        near
    }

    /// [`MARGIN`] plus `δ = 4·GRID_PER_LN·(σ·(Z_ERR + 2ε·Z_MAX) + ε·(L + 14))`,
    /// `L = ln_mag_max`: how close a grid value from
    /// [`polynomial_normal`] may come to a half-integer before the column
    /// is drawn again from the reference's normal.
    ///
    /// With `u = ε/2`, moving each `z_k` by at most [`Z_ERR`] moves each
    /// `L_k = fl(ln mags[k] + fl(σ·z_k))`, and so `max L`, by at most
    /// `Δ = σ·Z_ERR + 2u·σ·Z_MAX + 2u·(L + σ·Z_MAX)` to first order. The
    /// difference `D = fl(max L − L_k)` moves by `2Δ + 2u·|D|`, with
    /// `|D| < 9` wherever the grid value is below the top index, and the
    /// grid value `fl(GRID_AT_MAX + fl(D·GRID_PER_LN))` by `GRID_PER_LN`
    /// times that plus `2u·(178 + 193)`. That is at most
    /// `2·GRID_PER_LN·(σ·(Z_ERR + 2ε·Z_MAX) + ε·(L + 14))`, and the factor 2
    /// keeps it clear of second-order terms and of the rounding of the
    /// slack and of the test against it.
    fn slack(&self, sigma: f64) -> f64 {
        let z = sigma * (Z_ERR + 2.0 * f64::EPSILON * Z_MAX);
        MARGIN + 4.0 * GRID_PER_LN * (z + f64::EPSILON * (self.ln_mag_max + 14.0))
    }

    /// The largest perturbed weight, as `CrossbarColumn::program` takes
    /// the max over the full dense weight vector (`f64::max` is exact,
    /// so the sparse max matches).
    fn exact_max_weight(&self, sz: &[f64]) -> f64 {
        self.mags
            .iter()
            .zip(sz)
            .map(|(&m, &s)| m * s.exp())
            .fold(0.0f64, f64::max)
    }

    /// Term `k`'s grid index through the reference chain: perturbed
    /// weight, conductance target, resistance, snap.
    fn exact_grid_index(&self, k: usize, sz: &[f64], w_max: f64) -> usize {
        let target = G_MAX * (self.mags[k] * sz[k].exp() / w_max);
        PrintedResistor::grid_index(1.0 / target)
    }

    /// Snaps one trial's terms to their grid indices from `uniforms`, each
    /// term's two uniforms in term order (the reference's draw order),
    /// calling `snap(slot, m)` in ascending-row slot order, with `sz` as
    /// scratch for the perturbations. Returns how many terms
    /// [`polynomial_normal`] put within `slack` ([`Self::slack`]) of a
    /// rounding boundary.
    ///
    /// The terms first snap in the log domain from [`polynomial_normal`].
    /// If any lies within the slack, every term snaps again as the
    /// reference snaps it: [`box_muller`] over the same uniforms, the
    /// largest weight, then each term's chain. The largest weight depends
    /// on every term, so no term can be redecided alone.
    fn perturb_lane(
        &self,
        uniforms: &[(f64, f64)],
        sigma: f64,
        slack: f64,
        sz: &mut [f64],
        mut snap: impl FnMut(usize, usize),
    ) -> u64 {
        let sz = &mut sz[..uniforms.len()];
        for (s, &(u1, u2)) in sz.iter_mut().zip(uniforms) {
            *s = sigma * polynomial_normal(u1, u2);
        }
        let near = self.grid_indices(sz, slack, &mut snap);
        if near > 0 {
            for (s, &(u1, u2)) in sz.iter_mut().zip(uniforms) {
                *s = sigma * box_muller(u1, u2);
            }
            let w_max = self.exact_max_weight(sz);
            for (slot, &k) in self.eval.iter().enumerate() {
                snap(slot, self.exact_grid_index(k, sz, w_max));
            }
        }
        near
    }
}

/// One column programmed for a lane block of trials.
struct ColumnLanes {
    /// Slot-major conductances, `g[slot * LANES + lane]`.
    g: Vec<f64>,
    /// Each lane's total conductance.
    total: [f64; LANES],
}

impl ColumnLanes {
    fn new(slots: usize) -> Self {
        ColumnLanes {
            g: vec![0.0; slots * LANES],
            total: [0.0; LANES],
        }
    }

    /// Sets lane `lane`'s total to its conductances added in slot order,
    /// as `CrossbarColumn::program` adds them.
    fn sum_lane(&mut self, lane: usize) {
        let g = self.g.iter().skip(lane).step_by(LANES);
        self.total[lane] = g.fold(0.0, |t, &g| t + g);
    }

    /// Each lane's `1 / total`, or 0 for a column with no terms, whose
    /// output is 0 in the reference.
    fn recip(&self) -> [f64; LANES] {
        self.total.map(|t| if t > 0.0 { 1.0 / t } else { 0.0 })
    }

    /// Lane `lane`'s column output for the bound row whose voltages are
    /// `volts` (one per slot) as `CrossbarColumn::output` computes it:
    /// `v * g / total` added in slot (ascending-row) order from `+0.0`.
    fn exact_output(&self, volts: impl Iterator<Item = f64>, lane: usize) -> f64 {
        let total = self.total[lane];
        volts
            .zip(self.g.iter().skip(lane).step_by(LANES))
            .fold(0.0, |sum, (v, &g)| sum + v * g / total)
    }
}

/// Bound rows per register tile of [`column_sums`]; the row voltage
/// tables interleave this many rows.
const TILE_ROWS: usize = 2;
/// Lanes per register tile of [`column_sums`].
const TILE_LANES: usize = 8;

/// Each bound row's unnormalized column sum `Σ v·g` for lanes
/// `0..lanes` (a multiple of [`TILE_LANES`]): `sums[row * LANES + lane]`,
/// from the row voltages `volts` (term-major within each tile of
/// [`TILE_ROWS`] rows) and the slot-major conductances `g`.
///
/// A tile of `TILE_ROWS × TILE_LANES` sums stays in registers while the
/// column's terms stream past, so no accumulator is re-read per term;
/// the terms add in slot order, but the reassociation against the
/// reference's `Σ (v·g / total)` is only bounded, not exact (see
/// [`CompiledSvmVariation::gap`]).
fn column_sums(volts: &[f64], g: &[f64], lanes: usize, sums: &mut [f64]) {
    let k = g.len() / LANES;
    if k == 0 {
        return;
    }
    for (v, out) in volts
        .chunks_exact(k * TILE_ROWS)
        .zip(sums.chunks_exact_mut(TILE_ROWS * LANES))
    {
        for lo in (0..lanes).step_by(TILE_LANES) {
            let mut acc = [[0.0f64; TILE_LANES]; TILE_ROWS];
            for (vs, gs) in v.chunks_exact(TILE_ROWS).zip(g.chunks_exact(LANES)) {
                let gs = &gs[lo..lo + TILE_LANES];
                for (a, &x) in acc.iter_mut().zip(vs) {
                    for (s, &gl) in a.iter_mut().zip(gs) {
                        *s += x * gl;
                    }
                }
            }
            for (a, o) in acc.iter().zip(out.chunks_exact_mut(LANES)) {
                o[lo..lo + TILE_LANES].copy_from_slice(a);
            }
        }
    }
}

/// An `n`-row by `k`-slot voltage table in [`column_sums`]' layout:
/// `table[(tile * k + slot) * TILE_ROWS + r]` holds `volt(row, slot)` for
/// `row = tile * TILE_ROWS + r`, and zero-voltage rows pad the last tile.
fn tiled(n: usize, k: usize, volt: impl Fn(usize, usize) -> f64) -> Vec<f64> {
    let mut table = vec![0.0f64; n.div_ceil(TILE_ROWS) * TILE_ROWS * k];
    for row in 0..n {
        let (tile, r) = (row / TILE_ROWS, row % TILE_ROWS);
        for slot in 0..k {
            table[(tile * k + slot) * TILE_ROWS + r] = volt(row, slot);
        }
    }
    table
}

/// Row `row`'s `k` voltages, in slot order, from a [`tiled`] table.
fn row_volts(table: &[f64], k: usize, row: usize) -> impl Iterator<Item = f64> + '_ {
    let (tile, r) = (row / TILE_ROWS, row % TILE_ROWS);
    let start = (tile * k * TILE_ROWS + r).min(table.len());
    table[start..].iter().step_by(TILE_ROWS).take(k).copied()
}

/// The reassociated decision value `d̃ = x̃_p − x̃_n` of one bound row and
/// lane, with `x̃ = sum · recip · scale` per column, and its bound `B`:
/// the reference's `d` lies within `B` of `d̃` ([`CompiledSvmVariation::gap`]).
#[inline]
fn reassociated(sums: [f64; 2], recip: [f64; 2], scales: [f64; 2], gap: f64) -> (f64, f64) {
    let xp = sums[0] * recip[0] * scales[0];
    let xn = sums[1] * recip[1] * scales[1];
    (xp - xn, gap * (xp + xn))
}

/// The distinct rows of `rows` by their codes at `read`, the features a
/// model reads, in first-seen order, and how many of `rows` each one
/// stands for. A trial decides a distinct row once and its agreement
/// counts it that many times.
///
/// # Panics
/// Panics if a row is shorter than a feature of `read` plus one.
fn distinct_rows<'r>(rows: &'r [Vec<u64>], read: &[usize]) -> (Vec<&'r [u64]>, Vec<u32>) {
    let mut index: HashMap<Vec<u64>, usize> = HashMap::new();
    let (mut first, mut mult) = (Vec::new(), Vec::<u32>::new());
    for codes in rows {
        match index.entry(read.iter().map(|&f| codes[f]).collect()) {
            Entry::Occupied(e) => mult[*e.get()] += 1,
            Entry::Vacant(e) => {
                e.insert(first.len());
                first.push(codes.as_slice());
                mult.push(1);
            }
        }
    }
    (first, mult)
}

/// A quantized SVM compiled into a flat variation-evaluation tape.
#[derive(Debug, Clone)]
pub struct CompiledSvmVariation {
    /// Positive then negative column: the reference draw order.
    columns: [Option<ColumnTape>; 2],
    /// Each column's output scale, `Σ` of its magnitudes.
    scales: [f64; 2],
    boundaries_v: Vec<f64>,
    n_classes: usize,
    max_code: u64,
    /// Conductance `1 / R` of each printable grid point.
    g_grid: Vec<f64>,
    /// Relative bound on the gap between the reassociated and the
    /// reference decision values; see [`Self::gap`].
    gap: f64,
    /// Nominal analog engine, evaluated once per row at bind time.
    nominal: AnalogSvm,
}

/// Rows bound to a [`CompiledSvmVariation`]: the voltages each distinct
/// row drives into every crossbar row, how many caller rows it stands
/// for, and the nominal engine's prediction for it.
#[derive(Debug, Clone)]
pub struct SvmRows {
    /// Per column, every distinct row's voltage at each slot, term-major
    /// within tiles of [`TILE_ROWS`] rows:
    /// `volts[c][(tile * k + slot) * TILE_ROWS + r]` for the `k`-slot
    /// column `c`. The last tile is padded with zero-voltage rows.
    volts: [Vec<f64>; 2],
    /// Caller rows per distinct row.
    mult: Vec<u32>,
    nominal_class: Vec<usize>,
    /// Caller rows, duplicates included: the agreement denominator.
    n_rows: usize,
}

impl SvmRows {
    /// Number of bound evaluation rows, duplicates included.
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// True when no rows are bound.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }
}

impl CompiledSvmVariation {
    /// Freezes `svm`'s crossbar layout (draw order and ascending-row
    /// summation order), class boundaries and scale factors, plus the
    /// nominal analog engine used as the agreement baseline.
    ///
    /// # Panics
    /// Panics if `n_features` is below the highest crossbar feature plus
    /// one.
    pub fn compile(svm: &QuantizedSvm, n_features: usize) -> Self {
        COMPILES.incr();
        let max_code = max_code_for_bits(svm.bits());
        let terms = [svm.pos_terms(), svm.neg_terms()];
        CompiledSvmVariation {
            columns: terms.map(ColumnTape::new),
            scales: terms.map(|t| t.iter().map(|&(_, m)| m as f64).sum()),
            boundaries_v: svm
                .boundaries()
                .iter()
                .map(|&b| b as f64 / max_code as f64)
                .collect(),
            n_classes: svm.n_classes(),
            max_code,
            g_grid: (0..PrintedResistor::GRID_POINTS)
                .map(|m| 1.0 / PrintedResistor::grid_point(m).resistance)
                .collect(),
            gap: Self::gap(terms.iter().map(|t| t.len()).max().unwrap_or(0)),
            nominal: AnalogSvm::from_svm(svm, n_features),
        }
    }

    /// `2·(S + 4)·ε`: times `x̃_p + x̃_n`, a bound on how far the decision
    /// value `d̃ = x̃_p − x̃_n` that [`column_sums`] leads to lies from the
    /// reference's `d`, for columns of at most `S` terms.
    ///
    /// The reference scales each column's output
    /// `Σ fl(fl(v·g) / T)`, added in slot order, by its magnitude sum `P`:
    /// `x = fl(out·P)`. The engine takes `x̃ = fl(fl(Σ̂ fl(v·g) · fl(1/T))·P)`,
    /// with `Σ̂` in any order. With `u = ε/2` and `γ_m = m·u / (1 − m·u)`,
    /// and every term `v·g ≥ 0`, each is a sum of the exact terms
    /// `a_i = v_i·g_i·P / T` times factors `(1 + θ_i)` with
    /// `|θ_i| ≤ γ_{S+2}` (reference: one product, one divide, `S − 1`
    /// adds, one scale) or `γ_{S+3}` (engine: one product, `S − 1` adds,
    /// the reciprocal, its product, one scale). No sign cancels, so with
    /// `A = Σ a_i`, `|x − A| ≤ γ_{S+2}·A` and `|x̃ − A| ≤ γ_{S+3}·A`. The
    /// final subtraction adds at most `u·(x_p + x_n)` to each side, so
    /// `|d̃ − d| ≤ 2·γ_{S+4}·(A_p + A_n)`, and
    /// `A ≤ x̃ / (1 − γ_{S+3})`. For `S` below 2^40 that is under
    /// `1.01·(S + 4)·ε·(x̃_p + x̃_n)`; the factor 2 also covers the
    /// rounding of the bound itself and of `d̃ ± B`. Voltages are 0 or at
    /// least `1 / max_code` and conductances at least `1 / R_MAX`, so no
    /// term is subnormal and the model holds; a zero voltage gives exact
    /// zeros in both forms.
    fn gap(terms: usize) -> f64 {
        2.0 * (terms as f64 + 4.0) * f64::EPSILON
    }

    /// Normalizes `rows` to the voltages each crossbar column reads, in
    /// slot order, keeping each distinct row once with its multiplicity,
    /// and evaluates the nominal engine once per distinct row. Codes past
    /// the crossbar's features are not read, so rows may differ in
    /// length.
    ///
    /// # Panics
    /// Panics if a row is shorter than the highest programmed crossbar
    /// row plus one.
    pub fn bind(&self, rows: &[Vec<u64>]) -> SvmRows {
        let mut read: Vec<usize> = self
            .columns
            .iter()
            .flatten()
            .flat_map(|c| c.features.iter().copied())
            .collect();
        read.sort_unstable();
        read.dedup();
        let (distinct, mult) = distinct_rows(rows, &read);
        let volts = self.columns.each_ref().map(|col| {
            let Some(col) = col else { return Vec::new() };
            tiled(distinct.len(), col.eval.len(), |row, slot| {
                let code = distinct[row][col.features[col.eval[slot]]];
                code.min(self.max_code) as f64 / self.max_code as f64
            })
        });
        SvmRows {
            volts,
            nominal_class: distinct.iter().map(|c| self.nominal.predict(c)).collect(),
            mult,
            n_rows: rows.len(),
        }
    }

    /// The class the comparator bank gives the decision value `d`.
    fn class(&self, d: f64) -> usize {
        let above = self.boundaries_v.iter().filter(|&&bv| d > bv).count();
        above.min(self.n_classes - 1)
    }

    /// The class every decision value within `b` of `d` shares, or `None`
    /// when a boundary lies between `d − b` and `d + b`.
    #[inline]
    fn settled_class(&self, d: f64, b: f64) -> Option<usize> {
        let (lo, hi) = (d - b, d + b);
        let (mut n_lo, mut n_hi) = (0usize, 0usize);
        for &bv in &self.boundaries_v {
            n_lo += usize::from(lo > bv);
            n_hi += usize::from(hi > bv);
        }
        let top = self.n_classes - 1;
        (n_lo.min(top) == n_hi.min(top)).then_some(n_lo.min(top))
    }

    /// Per-lane agreement counts of trials `lo .. lo + n` over the bound
    /// rows, the number of terms the polynomial normal put within the
    /// slack ([`ColumnTape::perturb_lane`]), and the number of
    /// `(distinct row, lane)` pairs the reference-order sums decided.
    ///
    /// Every lane's columns are drawn in the reference order, then
    /// [`column_sums`] sums every distinct row, and `d̃` with its bound
    /// `B` ([`Self::gap`]) decides a pair when no boundary lies within
    /// `B`. The rest re-add both columns in the reference order and
    /// decide exactly, so every class equals the reference's.
    fn block(
        &self,
        rows: &SvmRows,
        lo: usize,
        n: usize,
        sigma: f64,
        seed: u64,
    ) -> ([u32; LANES], u64, u64) {
        let k = self
            .columns
            .each_ref()
            .map(|c| c.as_ref().map_or(0, |c| c.eval.len()));
        let mut sz = vec![0.0f64; k[0].max(k[1])];
        let mut uniforms = vec![(0.0f64, 0.0f64); sz.len()];
        let mut lanes = k.map(ColumnLanes::new);
        let mut exact_draws = 0u64;
        for lane in 0..n {
            let mut rng = StdRng::seed_from_u64(task_seed(seed, (lo + lane) as u64));
            // Reference draw order: positive column, then negative, from
            // the same per-trial stream, `u1` before `u2` for each term.
            for (col, out) in self.columns.iter().zip(&mut lanes) {
                let Some(col) = col else { continue };
                let uniforms = &mut uniforms[..col.mags.len()];
                uniforms.fill_with(|| (rng.next_f64(), rng.next_f64()));
                let snap = |slot: usize, m: usize| out.g[slot * LANES + lane] = self.g_grid[m];
                exact_draws += col.perturb_lane(uniforms, sigma, col.slack(sigma), &mut sz, snap);
                out.sum_lane(lane);
            }
        }
        let padded = rows.mult.len().div_ceil(TILE_ROWS) * TILE_ROWS;
        // A partial block sums only the lane tiles its trials occupy.
        let tiled_lanes = n.div_ceil(TILE_LANES) * TILE_LANES;
        let sums = [0, 1].map(|c| {
            let mut sums = vec![0.0f64; padded * LANES];
            column_sums(&rows.volts[c], &lanes[c].g, tiled_lanes, &mut sums);
            sums
        });
        let recip = lanes.each_ref().map(ColumnLanes::recip);
        let mut agree = [0u32; LANES];
        let mut exact_sums = 0u64;
        for (i, (&mult, &nominal)) in rows.mult.iter().zip(&rows.nominal_class).enumerate() {
            let sp = &sums[0][i * LANES..][..LANES];
            let sn = &sums[1][i * LANES..][..LANES];
            for lane in 0..n {
                let sums = [sp[lane], sn[lane]];
                let recip = [recip[0][lane], recip[1][lane]];
                let (d, b) = reassociated(sums, recip, self.scales, self.gap);
                let class = match self.settled_class(d, b) {
                    Some(class) => class,
                    None => {
                        exact_sums += 1;
                        let [xp, xn] = [0, 1].map(|c| {
                            let volts = row_volts(&rows.volts[c], k[c], i);
                            lanes[c].exact_output(volts, lane) * self.scales[c]
                        });
                        self.class(xp - xn)
                    }
                };
                agree[lane] += mult * u32::from(class == nominal);
            }
        }
        (agree, exact_draws, exact_sums)
    }

    /// Runs the Monte-Carlo agreement analysis on pre-bound rows.
    ///
    /// Bit-identical to [`crate::variation::reference::analyze_svm_variation`]
    /// at any thread count.
    ///
    /// # Panics
    /// Panics if `trials` is zero or `rows` is empty.
    pub fn analyze(&self, rows: &SvmRows, sigma: f64, trials: usize, seed: u64) -> VariationReport {
        let terms: usize = self.columns.iter().flatten().map(|c| c.eval.len()).sum();
        monte_carlo(sigma, trials, rows.n_rows, |lo, n| {
            let (agree, exact_draws, exact_sums) = self.block(rows, lo, n, sigma, seed);
            DRAWS.add((n * terms) as u64);
            EXACT.add(exact_draws);
            EXACT_SUMS.add(exact_sums);
            agree
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variation::{standard_normal, MAX_SVM_SIGMA};
    use ml::data::Dataset;
    use ml::quant::FeatureQuantizer;
    use ml::tree::{DecisionTree, TreeParams};

    /// Tree sigmas the decision checks draw at: trees take any finite one.
    const TREE_SIGMAS: [f64; 8] = [0.0, 1e-3, 0.05, 0.2, 1.0, 10.0, 50.0, 1e300];
    /// Random draws per (split, sigma) or (column, sigma).
    const DRAWS_PER_SIGMA: usize = 64;
    /// Ulps either side of each solved boundary.
    const ULPS: i64 = 3;

    /// `x` moved `n` representable values up (or `-n` down).
    fn ulps(x: f64, n: i64) -> f64 {
        (0..n.abs()).fold(x, |y, _| if n > 0 { y.next_up() } else { y.next_down() })
    }

    /// A `bits`-wide tape of seven splits spread over the code range.
    fn tree_tape(bits: usize) -> CompiledTreeVariation {
        let x: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let y = (0..64).map(|i| (i / 8) % 2).collect();
        let data = Dataset::new("steps", x, y, 2);
        let tree = DecisionTree::fit(&data, TreeParams::with_depth(3));
        let fq = FeatureQuantizer::fit(&data, bits);
        CompiledTreeVariation::compile(&QuantizedTree::from_tree(&tree, &fq))
    }

    /// One step of the 53-bit uniforms `StdRng::next_f64` returns.
    const STEP: f64 = 1.0 / (1u64 << 53) as f64;

    /// The `u1` on the uniforms' grid whose Box–Muller radius
    /// `sqrt(−2·ln(1 − u1))` is nearest `radius`.
    fn u1_for_radius(radius: f64) -> f64 {
        (-(-radius * radius / 2.0).exp_m1() / STEP).round() * STEP
    }

    /// `(u2, radius)` pairs a tree probe's draw is solved from: two with a
    /// positive `cos(2π·u2)` and two with a negative one.
    const TREE_SOLVES: [(f64, f64); 4] = [(0.0, 1.2), (0.1, 2.5), (0.5, 0.6), (0.6, 3.5)];

    #[test]
    fn polynomial_normal_lies_within_z_err_of_libm() {
        let check = |u1: f64, u2: f64| {
            let (fast, libm) = (polynomial_normal(u1, u2), box_muller(u1, u2));
            assert!(
                (fast - libm).abs() <= Z_ERR,
                "u1 {u1:e} u2 {u2:e}: polynomial {fast:e}, libm {libm:e}"
            );
        };
        let mut rng = StdRng::seed_from_u64(37);
        for _ in 0..1 << 16 {
            let mut stream = rng.clone();
            let (u1, u2) = (rng.next_f64(), rng.next_f64());
            assert_eq!(
                box_muller(u1, u2).to_bits(),
                standard_normal(&mut stream).to_bits()
            );
            check(u1, u2);
        }
        // `1 − u1` at and next to every power of two from 1 to 2^-53 and
        // every `√½·2^-j` (the ends of `m`'s range, where `|s|` peaks), on
        // the uniforms' grid.
        let mut u1s = Vec::new();
        for j in 0..=53 {
            let p = 2f64.powi(-j);
            for w in [
                p,
                (p * std::f64::consts::FRAC_1_SQRT_2 / STEP).round() * STEP,
            ] {
                for n in -3..=3 {
                    let w = w + n as f64 * STEP;
                    if (STEP..=1.0).contains(&w) {
                        u1s.push(1.0 - w);
                    }
                }
            }
        }
        assert!(u1s.contains(&0.0) && u1s.contains(&(1.0 - STEP)));
        // `u2` at every eighth of a turn and 3 ulps either side.
        let u2s: Vec<f64> = (0..=8)
            .flat_map(|j| (-3..=3).map(move |n| ulps(j as f64 / 8.0, n)))
            .filter(|u| (0.0..1.0).contains(u))
            .collect();
        for &u1 in &u1s {
            for &u2 in &u2s {
                check(u1, u2);
            }
        }
    }

    /// Checks that the threshold `t` decides `x > t` like the exact
    /// chain's threshold at `sz` at every code level `x`. The levels
    /// ascend, so the number of levels above a threshold fixes every
    /// decision.
    fn assert_decides_alike(
        tape: &CompiledTreeVariation,
        levels: &[f64],
        s: usize,
        t: f64,
        sz: f64,
    ) {
        let exact = tape.exact_threshold(s, sz);
        let above = |t: f64| levels.len() - levels.partition_point(|&x| x <= t);
        assert_eq!(
            above(t),
            above(exact),
            "max code {} split {s} sz {sz:e}: fast {t:e}, exact {exact:e}",
            tape.max_code
        );
    }

    /// Checks split `s`'s log-domain threshold at the reference's `sz`
    /// with the slack [`MARGIN`], which every slack is built on, against
    /// the exact chain, and returns whether it lay within the margin of a
    /// level.
    fn tree_decides_alike(tape: &CompiledTreeVariation, levels: &[f64], s: usize, sz: f64) -> bool {
        match tape.threshold(s, sz, MARGIN) {
            Some(t) => {
                assert_decides_alike(tape, levels, s, t, sz);
                false
            }
            None => true,
        }
    }

    /// Checks split `s`'s draw from the uniforms `u` at `sigma` with the
    /// slack `slack` against the exact chain at the reference's `z`, and
    /// returns whether the draw took the reference's own chain.
    fn tree_draw_decides_alike(
        tape: &CompiledTreeVariation,
        levels: &[f64],
        s: usize,
        sigma: f64,
        slack: f64,
        u: (f64, f64),
    ) -> bool {
        let (t, fell_back) = tape.draw_threshold(s, sigma, slack, u.0, u.1);
        assert_decides_alike(tape, levels, s, t, sigma * box_muller(u.0, u.1));
        fell_back
    }

    #[test]
    fn log_domain_tree_thresholds_decide_like_the_exact_chain() {
        let mut rng = StdRng::seed_from_u64(35);
        let (mut random, mut random_exact, mut random_libm) = (0usize, 0usize, 0usize);
        for bits in 1..=16 {
            let tape = tree_tape(bits);
            let max_code = tape.max_code;
            let levels: Vec<f64> = (0..=max_code).map(|k| k as f64 / max_code as f64).collect();
            // Every level up to 8 bits, then every `max_code / 128`-th,
            // both clamp edges included.
            let stride = (max_code / 128).max(1);
            let probed: Vec<u64> = (0..=max_code)
                .step_by(stride as usize)
                .chain([1, max_code - 1, max_code])
                .collect();
            for s in 0..tape.split_count() {
                for sigma in TREE_SIGMAS {
                    for _ in 0..DRAWS_PER_SIGMA {
                        let u = (rng.next_f64(), rng.next_f64());
                        random += 1;
                        let sz = sigma * box_muller(u.0, u.1);
                        random_exact += tree_decides_alike(&tape, &levels, s, sz) as usize;
                        let slack = tape.slack(sigma);
                        random_libm +=
                            tree_draw_decides_alike(&tape, &levels, s, sigma, slack, u) as usize;
                        // An infinite slack sends every draw to the
                        // reference's chain.
                        assert!(
                            tree_draw_decides_alike(&tape, &levels, s, sigma, f64::INFINITY, u),
                            "{bits} bits split {s} sigma {sigma}: {u:?} decided from the polynomial normal"
                        );
                    }
                }
                for &k in &probed {
                    // `sz` putting the threshold on level `k`, and one
                    // margin either side of it, then a few ulps around each.
                    for (offset, on_level) in [(0.0, true), (-MARGIN, false), (MARGIN, false)] {
                        let sz = (k as f64 + offset) / tape.codes_per_ln - tape.ln_ratio[s];
                        for n in -ULPS..=ULPS {
                            let by_chain = tree_decides_alike(&tape, &levels, s, ulps(sz, n));
                            assert!(
                                by_chain || !on_level,
                                "{bits} bits split {s}: level {k} decided without the exact chain"
                            );
                        }
                        // The same `sz` from uniforms: `u1` solved for a
                        // radius at a few `u2`, and sigma for the rest,
                        // then a few uniform steps of `u1` around it.
                        for (u2, radius) in TREE_SOLVES {
                            let u1 = u1_for_radius(radius);
                            let z = box_muller(u1, u2);
                            if z * sz <= 0.0 {
                                continue;
                            }
                            let (sigma, slack) = (sz / z, tape.slack(sz / z));
                            for n in -ULPS..=ULPS {
                                let u = (u1 + n as f64 * STEP, u2);
                                let libm =
                                    tree_draw_decides_alike(&tape, &levels, s, sigma, slack, u);
                                assert!(
                                    libm || !on_level || n != 0,
                                    "{bits} bits split {s}: level {k} decided from the polynomial normal"
                                );
                            }
                        }
                    }
                }
            }
        }
        // Both fast forms must decide nearly every random draw themselves.
        assert!(
            random_exact * 1000 < random,
            "{random_exact} of {random} draws exact"
        );
        assert!(
            random_libm * 1000 < random,
            "{random_libm} of {random} draws took libm's normal"
        );
    }

    /// `column`'s grid indices at `sz`, in slot order, through the
    /// reference chain.
    fn exact_indices(column: &ColumnTape, sz: &[f64]) -> Vec<usize> {
        let w_max = column.exact_max_weight(sz);
        column
            .eval
            .iter()
            .map(|&k| column.exact_grid_index(k, sz, w_max))
            .collect()
    }

    /// Checks that `column`'s log-domain grid indices at the reference's
    /// `sz`, with the slack [`MARGIN`] that every slack is built on, equal
    /// the exact chain's for every term when none lies within the margin,
    /// and returns how many did.
    fn column_snaps_alike(column: &ColumnTape, sz: &[f64]) -> u64 {
        let mut fast = Vec::new();
        let near = column.grid_indices(sz, MARGIN, |slot, m| {
            assert_eq!(slot, fast.len());
            fast.push(m);
        });
        if near == 0 {
            assert_eq!(
                fast,
                exact_indices(column, sz),
                "mags {:?} sz {sz:?}",
                column.mags
            );
        }
        near
    }

    /// Checks `column`'s draws from `uniforms` (one pair per term) at
    /// `sigma` with the slack `slack`, as [`ColumnTape::perturb_lane`]
    /// decides them, against the exact chain at the reference's normal.
    /// Returns how many terms lay within the slack.
    fn column_draws_snap_alike(
        column: &ColumnTape,
        sigma: f64,
        slack: f64,
        uniforms: &[(f64, f64)],
    ) -> u64 {
        let exact: Vec<f64> = uniforms
            .iter()
            .map(|&(u1, u2)| sigma * box_muller(u1, u2))
            .collect();
        let mut got = vec![usize::MAX; uniforms.len()];
        let mut sz = vec![0.0; uniforms.len()];
        let near = column.perturb_lane(uniforms, sigma, slack, &mut sz, |slot, m| got[slot] = m);
        assert_eq!(
            got,
            exact_indices(column, &exact),
            "sigma {sigma} slack {slack} uniforms {uniforms:?}"
        );
        near
    }

    #[test]
    fn log_domain_grid_indices_snap_like_the_exact_chain() {
        let mut rng = StdRng::seed_from_u64(35);
        let (mut random, mut random_exact, mut random_near) = (0u64, 0u64, 0u64);
        let mut solved = 0usize;
        for bits in [2u32, 4, 8, 12, 16] {
            let top = (1u64 << (bits - 1)) - 1;
            let terms: Vec<(usize, u64)> = (0..6)
                .map(|f| (5 - f, rng.gen_range(1..=top.max(1))))
                .collect();
            let column = ColumnTape::new(&terms).expect("terms");
            let draw_uniforms = |rng: &mut StdRng| -> Vec<(f64, f64)> {
                (0..6).map(|_| (rng.next_f64(), rng.next_f64())).collect()
            };
            for sigma in [0.0, 1e-3, 0.05, 0.2, 1.0, 3.0, MAX_SVM_SIGMA] {
                for _ in 0..DRAWS_PER_SIGMA {
                    let uniforms = draw_uniforms(&mut rng);
                    let sz: Vec<f64> = uniforms
                        .iter()
                        .map(|&(u1, u2)| sigma * box_muller(u1, u2))
                        .collect();
                    random += terms.len() as u64;
                    random_exact += column_snaps_alike(&column, &sz);
                    let slack = column.slack(sigma);
                    random_near += column_draws_snap_alike(&column, sigma, slack, &uniforms);
                    // A half-step slack sends every column to the
                    // reference's chain.
                    assert!(
                        column_draws_snap_alike(&column, sigma, 0.5, &uniforms) > 0,
                        "{bits} bits sigma {sigma}: {uniforms:?} snapped from the polynomial normal"
                    );
                }
            }
            // Term 0 is the largest weight at `sz = 0`; solve term 1's
            // `sz` to put its grid value on every half-integer, on the
            // top index (`r = R_MAX`) and on the cap, then a few ulps
            // around each.
            let (l0, l1) = (column.ln_mags[0], column.ln_mags[1]);
            let targets: Vec<(f64, bool)> = (15..GRID_TOP)
                .map(|j| (j as f64 + 0.5, true))
                .chain([(GRID_TOP as f64, false), (GRID_TOP as f64 + 0.5, false)])
                .collect();
            for &(e, half) in &targets {
                // The other terms sit one unit of `ln` below term 0.
                let mut sz: Vec<f64> = column.ln_mags.iter().map(|l| l0 - l - 1.0).collect();
                sz[0] = 0.0;
                let solved = l0 - (e - GRID_AT_MAX) / GRID_PER_LN - l1;
                for n in -ULPS..=ULPS {
                    sz[1] = ulps(solved, n);
                    let by_chain = column_snaps_alike(&column, &sz);
                    assert!(
                        by_chain > 0 || !half,
                        "{bits} bits: grid value {e} snapped without the exact chain"
                    );
                }
            }
            // The same grid values from uniforms: the other terms drawn at
            // random, term 1's `u1` solved at each `u2` that reaches its
            // `z` within a radius of 0.1 to 4, then a few uniform steps of
            // `u1` around it.
            for sigma in [0.3, 3.0, MAX_SVM_SIGMA] {
                let mut uniforms = draw_uniforms(&mut rng);
                let l_max = (0..terms.len())
                    .filter(|&k| k != 1)
                    .map(|k| column.ln_mags[k] + sigma * box_muller(uniforms[k].0, uniforms[k].1))
                    .fold(f64::NEG_INFINITY, f64::max);
                for &(e, half) in &targets {
                    let z = (l_max - (e - GRID_AT_MAX) / GRID_PER_LN - l1) / sigma;
                    for u2 in [0.0, 0.1, 0.5, 0.6] {
                        let radius = z / (std::f64::consts::TAU * u2).cos();
                        if !(0.1..=4.0).contains(&radius) {
                            continue;
                        }
                        solved += 1;
                        let u1 = u1_for_radius(radius);
                        for n in -ULPS..=ULPS {
                            uniforms[1] = (u1 + n as f64 * STEP, u2);
                            let slack = column.slack(sigma);
                            let near = column_draws_snap_alike(&column, sigma, slack, &uniforms);
                            assert!(
                                near > 0 || !half || n != 0,
                                "{bits} bits sigma {sigma}: grid value {e} snapped from the polynomial normal"
                            );
                        }
                    }
                }
            }
        }
        assert!(
            solved > 1000,
            "only {solved} grid values solved from uniforms"
        );
        assert!(
            random_exact * 1000 < random,
            "{random_exact} of {random} terms exact"
        );
        assert!(
            random_near * 1000 < random,
            "{random_near} of {random} terms took libm's normal"
        );
    }

    /// The conductance of every printable grid point.
    fn grid_conductances() -> Vec<f64> {
        (0..PrintedResistor::GRID_POINTS)
            .map(|m| 1.0 / PrintedResistor::grid_point(m).resistance)
            .collect()
    }

    #[test]
    fn reassociated_decisions_lie_within_the_gap_bound() {
        const ROWS: usize = 2 * TILE_ROWS + 1;
        let mut rng = StdRng::seed_from_u64(36);
        let g_grid = grid_conductances();
        let (mut pairs, mut moved) = (0usize, 0usize);
        for s in (1..=256).chain([300, 512, 1000]) {
            // One column has `s` terms, the other none (an empty column),
            // one, `s` or a random count, on alternating sides.
            let other = match s % 4 {
                0 => 0,
                1 => 1,
                2 => s,
                _ => rng.gen_range(0..=s),
            };
            let k = if s % 8 < 4 { [s, other] } else { [other, s] };
            let max_code = max_code_for_bits([1, 4, 8, 16][s % 4]);
            // Conductances anywhere on the printable grid.
            let mut lanes = k.map(ColumnLanes::new);
            for (col, &kc) in lanes.iter_mut().zip(&k) {
                for lane in 0..LANES {
                    let mut total = 0.0;
                    for slot in 0..kc {
                        let g = g_grid[rng.gen_range(0..g_grid.len())];
                        col.g[slot * LANES + lane] = g;
                        total += g;
                    }
                    col.total[lane] = total;
                }
            }
            // `volts[c][row * k + slot]`, a quarter of them zero.
            let volts = k.map(|kc| {
                (0..ROWS * kc)
                    .map(|_| match rng.gen_range(0..4u32) {
                        0 => 0.0,
                        _ => rng.gen_range(0..=max_code) as f64 / max_code as f64,
                    })
                    .collect::<Vec<f64>>()
            });
            let sums = [0, 1].map(|c| {
                let table = tiled(ROWS, k[c], |row, slot| volts[c][row * k[c] + slot]);
                let mut sums = vec![0.0; ROWS.div_ceil(TILE_ROWS) * TILE_ROWS * LANES];
                column_sums(&table, &lanes[c].g, LANES, &mut sums);
                sums
            });
            let scales = k.map(|kc| (0..kc).map(|_| rng.gen_range(1..=255u64) as f64).sum());
            let gap = CompiledSvmVariation::gap(s);
            let recip = lanes.each_ref().map(ColumnLanes::recip);
            for row in 0..ROWS {
                for lane in 0..LANES {
                    let (d, b) = reassociated(
                        [sums[0][row * LANES + lane], sums[1][row * LANES + lane]],
                        [recip[0][lane], recip[1][lane]],
                        scales,
                        gap,
                    );
                    // `CrossbarColumn::output`'s order, written out.
                    let [xp, xn] = [0, 1].map(|c| {
                        let col = &lanes[c];
                        let mut out = 0.0;
                        for slot in 0..k[c] {
                            let v = volts[c][row * k[c] + slot];
                            out += v * col.g[slot * LANES + lane] / col.total[lane];
                        }
                        out * scales[c]
                    });
                    let d_ref = xp - xn;
                    assert!(
                        (d - d_ref).abs() <= b,
                        "terms {k:?} row {row} lane {lane}: d~ {d:e}, reference {d_ref:e}, bound {b:e}"
                    );
                    pairs += 1;
                    moved += usize::from(d != d_ref);
                }
            }
        }
        // The check means something only where the two orders differ.
        assert!(
            moved * 4 > pairs,
            "only {moved} of {pairs} decision values moved"
        );
    }

    #[test]
    fn forced_reference_order_sums_decide_like_the_reference() {
        let (qs, rows) = crate::variation::svm_variation_tests::workload();
        let mut engine = CompiledSvmVariation::compile(&qs, 11);
        // No decision value is then settled: every pair with a nonzero
        // column re-adds both columns in the reference order.
        engine.gap = f64::MAX;
        let bound = engine.bind(&rows);
        let distinct = bound.mult.len() as u64;
        for (sigma, trials, seed) in [(0.05, 64, 3u64), (0.3, 65, 8)] {
            let (_, _, exact_sums) = engine.block(&bound, 0, 64, sigma, seed);
            assert_eq!(exact_sums, distinct * 64, "sigma {sigma}");
            assert_eq!(
                engine.analyze(&bound, sigma, trials, seed),
                crate::variation::reference::analyze_svm_variation(
                    &qs, 11, &rows, sigma, trials, seed
                ),
                "sigma {sigma} trials {trials}"
            );
        }
    }

    #[test]
    fn partial_lane_blocks_report_like_the_reference() {
        // Blocks of 1 to 64 lanes sum only the lane tiles they occupy.
        let (qs, rows) = crate::variation::svm_variation_tests::workload();
        let engine = CompiledSvmVariation::compile(&qs, 11);
        let bound = engine.bind(&rows);
        for trials in [1, 5, 16, 17, 64, 65] {
            assert_eq!(
                engine.analyze(&bound, 0.2, trials, 5),
                crate::variation::reference::analyze_svm_variation(&qs, 11, &rows, 0.2, trials, 5),
                "{trials} trials"
            );
        }
    }
}
