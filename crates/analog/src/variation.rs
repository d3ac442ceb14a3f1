//! Process-variation (mismatch) analysis for analog printed classifiers.
//!
//! §VI: in silicon, "noise and mismatch constraints force the analog
//! devices to be large … In printed technologies, low fabrication costs
//! allow iterative refinement to fix/reduce noise/mismatch issues."
//! This module quantifies the starting point of that refinement loop:
//! Monte-Carlo perturbation of every printed resistance and transistor
//! law, measuring how classification agreement with the nominal design
//! degrades as print variation grows.
//!
//! Each printed resistance is multiplied by a true log-normal factor
//! `exp(sigma * z)` with `z` a standard normal drawn by Box–Muller over
//! the deterministic [`exec`] stream, two uniforms per normal, as
//! [`mod@reference`] draws it.
//!
//! Trials are embarrassingly parallel. Each trial draws from its own
//! deterministic seed stream (`exec::task_seed(seed, trial)`), so a sweep
//! produces **bit-identical** reports at any thread count — the thread
//! pool only changes wall-clock time, never results.
//!
//! [`variation_sweep`] and [`svm_variation_sweep`] are the entry points.
//! Each checks its inputs, then runs the compiled lane-batched engine in
//! [`crate::compile`]: compile the model once, bind rows once, and
//! evaluate 64 trials per pass over the rows at every sigma. The original
//! scalar implementation is preserved verbatim in [`mod@reference`] as the
//! property-test oracle: `tests/variation_engine.rs` pins compiled
//! reports bit-identical to the reference at every trial count and
//! thread count.

use exec::rng::StdRng;

use ml::quant::{max_code_for_bits, QNode, QuantizedSvm, QuantizedTree};

use crate::compile::{CompiledSvmVariation, CompiledTreeVariation};
use crate::device::Egt;
use crate::tree::{AnalogTree, AnalogTreeConfig};

/// Draws one standard normal `z` via Box–Muller over the deterministic
/// `StdRng` stream (two `next_f64` draws).
///
/// `1.0 - u1` keeps the log argument in `(0, 1]` — `next_f64` can
/// return exactly 0.0 but never 1.0 — so the draw never hits `ln(0)`,
/// and `|z|` stays below 8.6.
#[inline]
pub(crate) fn standard_normal(rng: &mut StdRng) -> f64 {
    box_muller(rng.next_f64(), rng.next_f64())
}

/// Box–Muller's `z = sqrt(−2·ln(1 − u1))·cos(2π·u2)` from the uniforms
/// `u1, u2` in `[0, 1)`, through libm: the normal [`standard_normal`]
/// returns for the stream's next two uniforms.
#[inline]
pub(crate) fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * (1.0 - u1).ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Draws one log-normal perturbation factor `exp(sigma * z)`, with `z`
/// from `standard_normal`.
///
/// At `sigma == 0.0` the factor is exactly `1.0`, which the
/// perfect-agreement invariant tests rely on.
pub(crate) fn lognormal_factor(rng: &mut StdRng, sigma: f64) -> f64 {
    (sigma * standard_normal(rng)).exp()
}

/// Result of a variation sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationReport {
    /// Relative sigma applied to every printed resistance.
    pub sigma: f64,
    /// Monte-Carlo trials run.
    pub trials: usize,
    /// Mean agreement with the nominal (unperturbed) analog tree across
    /// trials and evaluation rows.
    pub mean_agreement: f64,
    /// Worst single-trial agreement.
    pub worst_agreement: f64,
}

/// Largest relative print-variation sigma an SVM sweep accepts. A
/// Box–Muller normal from 53-bit uniforms stays within |z| < 8.6, so up
/// to here every factor `exp(sigma * z)` and every crossbar weight ratio
/// is finite and nonzero. Trees clamp each perturbed resistance to the
/// transistor's range and take any finite sigma.
pub const MAX_SVM_SIGMA: f64 = 10.0;

/// Why a variation sweep was rejected before it ran.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VariationError {
    /// A tree sigma that is NaN, infinite or negative.
    BadSigma(f64),
    /// An SVM sigma outside `0..=MAX_SVM_SIGMA` (NaN included).
    BadSvmSigma(f64),
    /// Zero Monte-Carlo trials.
    NoTrials,
    /// No evaluation rows.
    NoRows,
    /// An evaluation row with `len` feature codes where the model reads
    /// feature `need - 1`: a tree split's feature or a crossbar row.
    ShortRow {
        /// Index of the first such row.
        row: usize,
        /// Its number of feature codes.
        len: usize,
        /// The number every row needs.
        need: usize,
    },
    /// An SVM declared with `n_features` features whose crossbar programs
    /// feature `need - 1`.
    FewFeatures {
        /// The declared feature count.
        n_features: usize,
        /// The count the crossbar needs.
        need: usize,
    },
}

impl std::fmt::Display for VariationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VariationError::BadSigma(s) => write!(f, "bad sigma {s:?} (want a finite value >= 0)"),
            VariationError::BadSvmSigma(s) => {
                write!(f, "bad sigma {s:?} (want 0 to {MAX_SVM_SIGMA})")
            }
            VariationError::NoTrials => write!(f, "need at least one trial"),
            VariationError::NoRows => write!(f, "need evaluation rows"),
            VariationError::ShortRow { row, len, need } => {
                write!(f, "row {row} has {len} feature codes, need {need}")
            }
            VariationError::FewFeatures { n_features, need } => {
                write!(
                    f,
                    "SVM declares {n_features} features, its crossbar reads {need}"
                )
            }
        }
    }
}

impl std::error::Error for VariationError {}

/// Checks one relative print-variation sigma: finite and at least 0 for a
/// tree, and at most [`MAX_SVM_SIGMA`] for an SVM (`svm`).
///
/// # Errors
/// [`VariationError::BadSigma`] or [`VariationError::BadSvmSigma`].
pub fn check_sigma(sigma: f64, svm: bool) -> Result<(), VariationError> {
    if svm && !(0.0..=MAX_SVM_SIGMA).contains(&sigma) {
        Err(VariationError::BadSvmSigma(sigma))
    } else if !(sigma.is_finite() && sigma >= 0.0) {
        Err(VariationError::BadSigma(sigma))
    } else {
        Ok(())
    }
}

/// Rejects a sweep the engines cannot run: a bad sigma, zero trials, no
/// rows, or a row shorter than the `need` feature codes the model reads.
fn check_sweep(
    sigmas: &[f64],
    svm: bool,
    trials: usize,
    rows: &[Vec<u64>],
    need: usize,
) -> Result<(), VariationError> {
    sigmas.iter().try_for_each(|&s| check_sigma(s, svm))?;
    if trials == 0 {
        return Err(VariationError::NoTrials);
    }
    check_rows(rows, need)
}

/// Rejects no rows, or a row shorter than the `need` feature codes the
/// model reads.
fn check_rows(rows: &[Vec<u64>], need: usize) -> Result<(), VariationError> {
    if rows.is_empty() {
        return Err(VariationError::NoRows);
    }
    match rows.iter().position(|r| r.len() < need) {
        Some(row) => Err(VariationError::ShortRow {
            row,
            len: rows[row].len(),
            need,
        }),
        None => Ok(()),
    }
}

/// Feature codes a row needs to cover every feature in `features`.
fn codes_needed(features: impl IntoIterator<Item = usize>) -> usize {
    features.into_iter().map(|f| f + 1).max().unwrap_or(0)
}

/// Monte-Carlo variation analysis of the analog realization of `tree`
/// at each of `sigmas`: every node's printed resistor is perturbed by a
/// log-normal factor with that relative sigma, and the perturbed circuit
/// is evaluated on `rows` (quantized feature codes) against the nominal
/// circuit — the data behind a "how much print tolerance can the
/// classifier absorb" plot.
///
/// The tree is compiled and the rows bound **once**, shared across all
/// sigma points (and across every [`exec::parallel_map`] shard within
/// each point). Trial `t` draws from the stream seeded
/// `task_seed(seed, t)`, so each report is bit-identical at any thread
/// count and bit-identical to [`reference::analyze_tree_variation`].
///
/// # Errors
/// Rejects a NaN, infinite or negative sigma, zero trials, empty `rows`
/// and a row too short for a split's feature with a [`VariationError`].
pub fn variation_sweep(
    tree: &QuantizedTree,
    rows: &[Vec<u64>],
    sigmas: &[f64],
    trials: usize,
    seed: u64,
) -> Result<Vec<VariationReport>, VariationError> {
    check_sweep(
        sigmas,
        false,
        trials,
        rows,
        codes_needed(tree.used_features()),
    )?;
    let engine = CompiledTreeVariation::compile(tree);
    let bound = engine.bind(rows);
    Ok(sigmas
        .iter()
        .map(|&s| engine.analyze(&bound, s, trials, seed))
        .collect())
}

/// Monte-Carlo variation analysis of an analog SVM at each of `sigmas`:
/// the crossbar's printed resistances are perturbed (log-normal, relative
/// sigma) and the perturbed engine's predictions are compared with the
/// nominal analog engine on `rows`.
///
/// The crossbar tape is compiled and the rows bound once across all
/// sigma points; reports are bit-identical at any thread count and
/// bit-identical to [`reference::analyze_svm_variation`].
///
/// # Errors
/// Rejects a sigma outside `0..=MAX_SVM_SIGMA`, zero trials, empty
/// `rows`, a row too short for a programmed crossbar row and an
/// `n_features` below one past the highest crossbar row with a
/// [`VariationError`].
pub fn svm_variation_sweep(
    svm: &QuantizedSvm,
    n_features: usize,
    rows: &[Vec<u64>],
    sigmas: &[f64],
    trials: usize,
    seed: u64,
) -> Result<Vec<VariationReport>, VariationError> {
    let terms = svm.pos_terms().iter().chain(svm.neg_terms());
    let need = codes_needed(terms.map(|&(f, _)| f));
    check_sweep(sigmas, true, trials, rows, need)?;
    if n_features < need {
        return Err(VariationError::FewFeatures { n_features, need });
    }
    let engine = CompiledSvmVariation::compile(svm, n_features);
    let bound = engine.bind(rows);
    Ok(sigmas
        .iter()
        .map(|&s| engine.analyze(&bound, s, trials, seed))
        .collect())
}

/// The exact expected agreement that [`variation_sweep`]'s Monte-Carlo
/// mean estimates for `tree` on `rows` at `sigma`, with no random
/// numbers: a test oracle for the engine.
///
/// A split with nominal threshold voltage `v` has the perturbed threshold
/// `clamp(v + sigma·z / ln(r_on / r_off), 0, VDD)`, from the [`Egt`] law,
/// the log-normal factor and the clamp to `[r_on, r_off]`. So an input
/// `x > 0` goes right with probability `Φ((x − v) · ln(r_off / r_on) / sigma)`,
/// and `x = 0` never does. Splits draw independently and a path visits a
/// split at most once, so a row agrees with the probability mass of the
/// leaves of its nominal class, the product of branch probabilities
/// along each path.
///
/// At sigma 0 no resistance moves and every row agrees, so the
/// agreement is defined as 1, what [`variation_sweep`] reports there.
///
/// # Errors
/// Rejects what [`variation_sweep`] rejects: a NaN, infinite or negative
/// sigma, empty `rows` and a row too short for a split's feature, with a
/// [`VariationError`].
pub fn expected_tree_agreement(
    tree: &QuantizedTree,
    rows: &[Vec<u64>],
    sigma: f64,
) -> Result<f64, VariationError> {
    check_sigma(sigma, false)?;
    check_rows(rows, codes_needed(tree.used_features()))?;
    if sigma == 0.0 {
        return Ok(1.0);
    }
    let nominal = AnalogTree::from_tree(tree, AnalogTreeConfig::default());
    let device = Egt::default();
    let max_code = max_code_for_bits(tree.bits());
    // Standard deviations of `z` per volt of `x − v`, over `sqrt 2` for `erfc`.
    let scale = (device.r_off / device.r_on).ln() / (sigma * std::f64::consts::SQRT_2);
    let total: f64 = rows
        .iter()
        .map(|codes| {
            let p_right = |feature: usize, threshold: u64| {
                let x = codes[feature].min(max_code) as f64 / max_code as f64;
                let v = ((threshold as f64 + 0.5) / max_code as f64).clamp(0.0, 1.0);
                if x == 0.0 {
                    0.0
                } else {
                    0.5 * erfc((v - x) * scale)
                }
            };
            leaf_mass(tree.nodes(), 0, nominal.predict(codes), &p_right)
        })
        .sum();
    Ok(total / rows.len() as f64)
}

/// Probability mass of the leaves of `class` under `node`, where split
/// `(feature, threshold)` goes right with probability
/// `p_right(feature, threshold)`.
fn leaf_mass(
    nodes: &[QNode],
    node: usize,
    class: usize,
    p_right: &impl Fn(usize, u64) -> f64,
) -> f64 {
    match nodes[node] {
        QNode::Leaf { class: c } => f64::from(u8::from(c == class)),
        QNode::Split {
            feature,
            threshold,
            left,
            right,
        } => {
            let p = p_right(feature, threshold);
            p * leaf_mass(nodes, right, class, p_right)
                + (1.0 - p) * leaf_mass(nodes, left, class, p_right)
        }
    }
}

/// The complementary error function, by the Numerical Recipes Chebyshev
/// fit (`erfcc`): relative error below 1.2e-7 everywhere.
fn erfc(x: f64) -> f64 {
    const COEFFS: [f64; 10] = [
        -1.265_512_23,
        1.000_023_68,
        0.374_091_96,
        0.096_784_18,
        -0.186_288_06,
        0.278_868_07,
        -1.135_203_98,
        1.488_515_87,
        -0.822_152_23,
        0.170_872_77,
    ];
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let poly = COEFFS.iter().rev().fold(0.0, |acc, &c| c + t * acc);
    let tail = t * (-z * z + poly).exp();
    if x >= 0.0 {
        tail
    } else {
        2.0 - tail
    }
}

pub mod reference {
    //! The original scalar variation analyzers, preserved as the oracle
    //! the compiled engine is property-tested against
    //! (`tests/variation_engine.rs`).
    //!
    //! One trial per `parallel_map` task, re-deriving split ordinals and
    //! rebuilding perturbed crossbar columns per trial, and evaluating
    //! the nominal circuit per `(trial, row)` — exactly the code the
    //! compiled engine replaced, minus obs instrumentation (so oracle
    //! runs don't inflate `analog.variation.*` counters).

    use exec::rng::StdRng;
    use exec::{parallel_map, task_seed};

    use ml::quant::{max_code_for_bits, QNode, QuantizedTree};

    use super::{lognormal_factor, VariationReport};
    use crate::device::Egt;
    use crate::tree::{AnalogTree, AnalogTreeConfig};

    /// One Monte-Carlo variation trial of an analog tree.
    #[derive(Debug, Clone)]
    struct VariedTree {
        /// Per-node effective thresholds after perturbation, in node order of
        /// the quantized tree's split nodes.
        thresholds: Vec<f64>,
    }

    /// Scalar oracle for [`super::variation_sweep`], one sigma at a time.
    ///
    /// # Panics
    /// Panics if `trials` is zero or `rows` is empty.
    pub fn analyze_tree_variation(
        tree: &QuantizedTree,
        rows: &[Vec<u64>],
        sigma: f64,
        trials: usize,
        seed: u64,
    ) -> VariationReport {
        assert!(trials > 0, "need at least one trial");
        assert!(!rows.is_empty(), "need evaluation rows");
        let nominal = AnalogTree::from_tree(tree, AnalogTreeConfig::default());
        let device = Egt::default();
        let max_code = max_code_for_bits(tree.bits());

        // Collect nominal node resistances (same traversal order as predict
        // uses internally: we re-derive effective thresholds per trial).
        let splits: Vec<(usize, f64)> = tree
            .nodes()
            .iter()
            .filter_map(|n| match n {
                QNode::Split {
                    feature, threshold, ..
                } => {
                    let v = ((*threshold as f64) + 0.5) / max_code as f64;
                    Some((*feature, v.clamp(0.0, 1.0)))
                }
                QNode::Leaf { .. } => None,
            })
            .collect();

        // One deterministic seed stream per trial: results are identical
        // whether trials run sequentially or sharded across threads.
        let trial_ids: Vec<u64> = (0..trials as u64).collect();
        let agreements: Vec<f64> = parallel_map(&trial_ids, |_, &trial| {
            let mut rng = StdRng::seed_from_u64(task_seed(seed, trial));
            // Perturb each node's resistance; map back to an effective
            // threshold voltage through the transistor law.
            let varied = VariedTree {
                thresholds: splits
                    .iter()
                    .map(|&(_, v)| {
                        let r_nom = device.resistance(v);
                        let factor = lognormal_factor(&mut rng, sigma);
                        let r = (r_nom * factor).clamp(device.r_on, device.r_off);
                        device.voltage_for_resistance(r)
                    })
                    .collect(),
            };
            let mut agree = 0usize;
            for codes in rows {
                let nominal_class = nominal.predict(codes);
                let varied_class = predict_varied(tree, &varied, codes, max_code);
                agree += (nominal_class == varied_class) as usize;
            }
            agree as f64 / rows.len() as f64
        });
        let mean = agreements.iter().sum::<f64>() / trials as f64;
        let worst = agreements.iter().cloned().fold(f64::INFINITY, f64::min);
        VariationReport {
            sigma,
            trials,
            mean_agreement: mean,
            worst_agreement: worst,
        }
    }

    /// Walks the tree using the perturbed effective thresholds.
    fn predict_varied(
        tree: &QuantizedTree,
        varied: &VariedTree,
        codes: &[u64],
        max_code: u64,
    ) -> usize {
        // Map node index -> split ordinal.
        let mut ordinal = 0usize;
        let mut split_ordinals = vec![usize::MAX; tree.nodes().len()];
        for (i, n) in tree.nodes().iter().enumerate() {
            if matches!(n, QNode::Split { .. }) {
                split_ordinals[i] = ordinal;
                ordinal += 1;
            }
        }
        let mut i = 0usize;
        loop {
            match &tree.nodes()[i] {
                QNode::Leaf { class } => return *class,
                QNode::Split {
                    feature,
                    left,
                    right,
                    ..
                } => {
                    let v = codes[*feature].min(max_code) as f64 / max_code as f64;
                    let thr = varied.thresholds[split_ordinals[i]];
                    i = if v > thr { *right } else { *left };
                }
            }
        }
    }

    /// Scalar oracle for [`super::svm_variation_sweep`], one sigma at a
    /// time.
    ///
    /// # Panics
    /// Panics if `trials` is zero or `rows` is empty.
    pub fn analyze_svm_variation(
        svm: &ml::quant::QuantizedSvm,
        n_features: usize,
        rows: &[Vec<u64>],
        sigma: f64,
        trials: usize,
        seed: u64,
    ) -> VariationReport {
        use crate::crossbar::CrossbarColumn;
        assert!(trials > 0, "need at least one trial");
        assert!(!rows.is_empty(), "need evaluation rows");
        let nominal = crate::svm::AnalogSvm::from_svm(svm, n_features);
        let max_code = max_code_for_bits(svm.bits());
        let boundaries_v: Vec<f64> = svm
            .boundaries()
            .iter()
            .map(|&b| b as f64 / max_code as f64)
            .collect();
        let pos_scale: f64 = svm.pos_terms().iter().map(|&(_, m)| m as f64).sum();
        let neg_scale: f64 = svm.neg_terms().iter().map(|&(_, m)| m as f64).sum();

        let trial_ids: Vec<u64> = (0..trials as u64).collect();
        let agreements: Vec<f64> = parallel_map(&trial_ids, |_, &trial| {
            let mut rng = StdRng::seed_from_u64(task_seed(seed, trial));
            let mut perturbed_column = |terms: &[(usize, u64)]| -> Option<CrossbarColumn> {
                if terms.is_empty() {
                    return None;
                }
                let mut weights = vec![0.0; n_features];
                for &(f, m) in terms {
                    let factor = lognormal_factor(&mut rng, sigma);
                    weights[f] = m as f64 * factor;
                }
                Some(CrossbarColumn::program(&weights))
            };
            let pos = perturbed_column(svm.pos_terms());
            let neg = perturbed_column(svm.neg_terms());
            let mut agree = 0usize;
            for codes in rows {
                let volts: Vec<f64> = codes
                    .iter()
                    .map(|&c| c.min(max_code) as f64 / max_code as f64)
                    .collect();
                let vp = pos.as_ref().map_or(0.0, |c| c.output(&volts));
                let vn = neg.as_ref().map_or(0.0, |c| c.output(&volts));
                let d = vp * pos_scale - vn * neg_scale;
                let varied_class = boundaries_v
                    .iter()
                    .filter(|&&b| d > b)
                    .count()
                    .min(svm.n_classes() - 1);
                agree += (varied_class == nominal.predict(codes)) as usize;
            }
            agree as f64 / rows.len() as f64
        });
        let mean = agreements.iter().sum::<f64>() / trials as f64;
        let worst = agreements.iter().cloned().fold(f64::INFINITY, f64::min);
        VariationReport {
            sigma,
            trials,
            mean_agreement: mean,
            worst_agreement: worst,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml::quant::FeatureQuantizer;
    use ml::synth::Application;
    use ml::tree::{DecisionTree, TreeParams};

    fn workload() -> (QuantizedTree, Vec<Vec<u64>>) {
        let data = Application::Har.generate(7);
        let (train, test) = data.split(0.7, 42);
        let tree = DecisionTree::fit(&train, TreeParams::with_depth(4));
        let fq = FeatureQuantizer::fit(&train, 6);
        let qt = QuantizedTree::from_tree(&tree, &fq);
        let rows: Vec<Vec<u64>> = test.x.iter().take(100).map(|r| fq.code_row(r)).collect();
        (qt, rows)
    }

    #[test]
    fn lognormal_factor_is_unit_at_zero_sigma_and_spreads_with_sigma() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..64 {
            assert_eq!(lognormal_factor(&mut rng, 0.0), 1.0);
        }
        // A log-normal factor is always positive and its log has the
        // requested scale: sample standard deviation of ln(factor) at
        // sigma = 0.3 should land near 0.3.
        let sigma = 0.3;
        let logs: Vec<f64> = (0..4096)
            .map(|_| lognormal_factor(&mut rng, sigma).ln())
            .collect();
        assert!(logs.iter().all(|l| l.is_finite()));
        let mean = logs.iter().sum::<f64>() / logs.len() as f64;
        let var = logs.iter().map(|l| (l - mean).powi(2)).sum::<f64>() / logs.len() as f64;
        assert!(mean.abs() < 0.03, "log-mean {mean}");
        assert!((var.sqrt() - sigma).abs() < 0.03, "log-sd {}", var.sqrt());
    }

    #[test]
    fn zero_variation_agrees_perfectly() {
        let (qt, rows) = workload();
        let r = &variation_sweep(&qt, &rows, &[0.0], 3, 1).unwrap()[0];
        assert_eq!(r.mean_agreement, 1.0);
        assert_eq!(r.worst_agreement, 1.0);
    }

    #[test]
    fn agreement_degrades_monotonically_with_sigma() {
        let (qt, rows) = workload();
        let sweep = variation_sweep(&qt, &rows, &[0.0, 0.05, 0.2, 0.8], 8, 42).unwrap();
        for pair in sweep.windows(2) {
            assert!(
                pair[1].mean_agreement <= pair[0].mean_agreement + 0.02,
                "sigma {} -> {} rose: {} -> {}",
                pair[0].sigma,
                pair[1].sigma,
                pair[0].mean_agreement,
                pair[1].mean_agreement
            );
        }
        // Small print tolerance barely hurts; huge tolerance visibly does.
        assert!(sweep[1].mean_agreement > 0.9);
        assert!(sweep[3].mean_agreement < sweep[0].mean_agreement);
    }

    #[test]
    fn sweep_is_deterministic_in_seed() {
        let (qt, rows) = workload();
        let a = variation_sweep(&qt, &rows, &[0.1], 5, 9);
        let b = variation_sweep(&qt, &rows, &[0.1], 5, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn bad_inputs_are_rejected_before_the_engine_runs() {
        let (qt, rows) = workload();
        let sweep = |sigmas: &[f64], trials, rows: &[Vec<u64>]| {
            variation_sweep(&qt, rows, sigmas, trials, 1)
        };
        assert_eq!(sweep(&[0.1], 0, &rows), Err(VariationError::NoTrials));
        assert_eq!(sweep(&[0.1], 4, &[]), Err(VariationError::NoRows));
        for bad in [-0.5, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                sweep(&[0.1, bad], 4, &rows),
                Err(VariationError::BadSigma(bad))
            );
        }
        assert!(matches!(
            sweep(&[f64::NAN], 4, &rows),
            Err(VariationError::BadSigma(s)) if s.is_nan()
        ));
        // Trees clamp every perturbed resistance: any finite sigma runs.
        assert!(sweep(&[200.0, 1e300], 4, &rows).is_ok());
    }

    /// The closed form's agreement of the HAR workload at `sigma`.
    fn closed_form(rows: &[Vec<u64>], sigma: f64) -> Result<f64, VariationError> {
        expected_tree_agreement(&workload().0, rows, sigma)
    }

    #[test]
    fn the_closed_form_rejects_a_bad_sigma() {
        let rows = workload().1;
        for bad in [-0.5, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(closed_form(&rows, bad), Err(VariationError::BadSigma(bad)));
        }
        assert!(matches!(
            closed_form(&rows, f64::NAN),
            Err(VariationError::BadSigma(s)) if s.is_nan()
        ));
    }

    #[test]
    fn the_closed_form_rejects_no_rows() {
        assert_eq!(closed_form(&[], 0.1), Err(VariationError::NoRows));
    }

    #[test]
    fn the_closed_form_rejects_a_short_row() {
        let (qt, mut rows) = workload();
        let need = codes_needed(qt.used_features());
        rows[3].truncate(need - 1);
        assert_eq!(
            closed_form(&rows, 0.1),
            Err(VariationError::ShortRow {
                row: 3,
                len: need - 1,
                need
            })
        );
    }

    #[test]
    fn the_closed_form_is_nominal_agreement_at_zero_sigma() {
        // As the sweep reports it.
        let (qt, rows) = workload();
        assert_eq!(closed_form(&rows, 0.0), Ok(1.0));
        let swept = &variation_sweep(&qt, &rows, &[0.0], 2, 1).unwrap()[0];
        assert_eq!(swept.mean_agreement, 1.0);
        assert!(closed_form(&rows, 0.1).is_ok_and(|m| m > 0.0 && m < 1.0));
    }

    #[test]
    fn erfc_matches_tabulated_values() {
        for (x, want) in [
            (0.0, 1.0),
            (0.5, 0.479_500_122_186_953_5),
            (1.0, 0.157_299_207_050_285_1),
            (2.0, 4.677_734_981_047_266e-3),
            (4.0, 1.541_725_790_028_002e-8),
            (-1.0, 1.842_700_792_949_715),
        ] {
            let got = erfc(x);
            assert!(
                (got - want).abs() <= 1.2e-7 * want,
                "erfc({x}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn svm_sigmas_stop_at_the_limit() {
        assert_eq!(check_sigma(MAX_SVM_SIGMA, true), Ok(()));
        assert_eq!(check_sigma(0.0, true), Ok(()));
        for bad in [10.5, 200.0, -0.1, f64::INFINITY] {
            assert_eq!(
                check_sigma(bad, true),
                Err(VariationError::BadSvmSigma(bad))
            );
        }
        assert!(check_sigma(f64::NAN, true).is_err());
        assert_eq!(check_sigma(200.0, false), Ok(()));
        assert!(VariationError::BadSvmSigma(200.0)
            .to_string()
            .starts_with("bad sigma"));
    }
}

#[cfg(test)]
pub(crate) mod svm_variation_tests {
    use super::*;
    use ml::data::Standardizer;
    use ml::quant::{FeatureQuantizer, QuantizedSvm};
    use ml::synth::Application;
    use ml::SvmRegressor;

    /// RedWine's 8-bit SVM and 120 of its coded test rows.
    pub(crate) fn workload() -> (QuantizedSvm, Vec<Vec<u64>>) {
        let data = Application::RedWine.generate(7);
        let (train, test) = data.split(0.7, 42);
        let s = Standardizer::fit(&train);
        let (train, test) = (s.transform(&train), s.transform(&test));
        let svm = SvmRegressor::fit(&train, 150, 1e-4);
        let fq = FeatureQuantizer::fit(&train, 8);
        let qs = QuantizedSvm::from_svm(&svm, &fq);
        let rows: Vec<Vec<u64>> = test.x.iter().take(120).map(|r| fq.code_row(r)).collect();
        (qs, rows)
    }

    #[test]
    fn tiny_variation_barely_moves_svm_decisions() {
        let (qs, rows) = workload();
        let r = &svm_variation_sweep(&qs, 11, &rows, &[0.01], 5, 3).unwrap()[0];
        assert!(r.mean_agreement > 0.9, "agreement {}", r.mean_agreement);
    }

    #[test]
    fn svm_agreement_degrades_with_sigma() {
        let (qs, rows) = workload();
        let sweep = svm_variation_sweep(&qs, 11, &rows, &[0.02, 0.5], 10, 3).unwrap();
        let (small, large) = (&sweep[0], &sweep[1]);
        assert!(
            large.mean_agreement < small.mean_agreement + 1e-9,
            "small {} large {}",
            small.mean_agreement,
            large.mean_agreement
        );
    }

    #[test]
    fn svm_variation_is_deterministic() {
        let (qs, rows) = workload();
        let a = svm_variation_sweep(&qs, 11, &rows, &[0.1], 4, 8);
        let b = svm_variation_sweep(&qs, 11, &rows, &[0.1], 4, 8);
        assert_eq!(a, b);
    }

    #[test]
    fn svm_sweep_matches_one_sigma_sweeps() {
        // Sharing the compiled tape and bound rows across sigma points
        // must not change any point.
        let (qs, rows) = workload();
        let sweep = svm_variation_sweep(&qs, 11, &rows, &[0.02, 0.2], 4, 8).unwrap();
        for (r, sigma) in sweep.iter().zip([0.02, 0.2]) {
            let alone = svm_variation_sweep(&qs, 11, &rows, &[sigma], 4, 8).unwrap();
            assert_eq!(*r, alone[0]);
        }
    }
}
