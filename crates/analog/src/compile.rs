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
//!    block perturbs [`LANES`] trials into a struct-of-arrays `f64`
//!    lane matrix and sweeps the rows once, with flat inner loops over
//!    the lane dimension that LLVM can autovectorize. Blocks shard
//!    across [`exec::parallel_map`]; the tape is compiled once and
//!    shared read-only by every shard.
//!
//! ## Determinism contract
//!
//! Trial `t` draws from `StdRng::seed_from_u64(task_seed(seed, t))` in
//! exactly the order the scalar path draws (tree: one log-normal factor
//! per split in split-ordinal order; SVM: positive column then negative
//! column in term order), and every floating-point expression is kept
//! operation-for-operation identical to the reference. Reports are
//! therefore **bit-identical** to [`crate::variation::reference`] and
//! bit-identical at any thread count or lane-block boundary
//! (`tests/variation_engine.rs` pins both).

use exec::rng::StdRng;
use exec::{parallel_map, task_seed};

use ml::quant::{QNode, QuantizedSvm, QuantizedTree};

use crate::device::{Egt, PrintedResistor, R_MIN};
use crate::svm::AnalogSvm;
use crate::tree::{AnalogTree, AnalogTreeConfig};
use crate::variation::{lognormal_factor, max_code_for_bits, VariationReport};

/// Trials perturbed and evaluated per pass over the rows (one `u64`
/// decision word per split in the dense tree strategy).
pub const LANES: usize = 64;

/// Splits at or below this count use the dense strategy: decide *every*
/// split for all lanes into per-split `u64` decision words (branch-free,
/// autovectorizable), then route each lane through the topology with
/// integer ops only. Above it, the wasted off-path comparisons outgrow
/// the vectorization win and lanes walk the tape directly.
const DENSE_SPLIT_LIMIT: usize = 32;

/// Tape builds (tree + SVM), mirroring `netlist.sim.compiles`.
static COMPILES: obs::Counter = obs::Counter::new("analog.variation.compiles");
/// Monte-Carlo trials evaluated through the compiled engine.
static TRIALS: obs::Counter = obs::Counter::new("analog.variation.trials");
/// `(trial, row)` evaluations performed.
static ROWS: obs::Counter = obs::Counter::new("analog.variation.rows");
/// Lane blocks sharded across the exec pool.
static LANE_BLOCKS: obs::Counter = obs::Counter::new("analog.variation.lane_blocks");

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
    left: Vec<i32>,
    right: Vec<i32>,
    /// Root in child encoding (`< 0`: the tree is a single leaf).
    root: i32,
    device: Egt,
    max_code: u64,
    /// Nominal analog realization, evaluated once per row at bind time.
    nominal: AnalogTree,
}

/// Rows bound to a [`CompiledTreeVariation`]: pre-normalized node
/// voltages (one slot per split, in split-ordinal order) and the
/// nominal circuit's prediction for every row.
#[derive(Debug, Clone)]
pub struct TreeRows {
    /// `volts[row * n_splits + s]` — the voltage split `s` compares.
    split_volts: Vec<f64>,
    nominal_class: Vec<usize>,
    n_rows: usize,
}

impl TreeRows {
    /// True when no rows are bound.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }
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
        CompiledTreeVariation {
            feature,
            r_nom,
            left,
            right,
            root: encode_child(&ordinal_of, nodes, 0),
            device,
            max_code,
            nominal: AnalogTree::from_tree(tree, AnalogTreeConfig::default()),
        }
    }

    /// Number of split nodes on the tape.
    pub fn split_count(&self) -> usize {
        self.feature.len()
    }

    /// Normalizes `rows` to per-split node voltages and evaluates the
    /// nominal circuit once per row.
    pub fn bind(&self, rows: &[Vec<u64>]) -> TreeRows {
        let n_splits = self.feature.len();
        let mut split_volts = Vec::with_capacity(rows.len() * n_splits);
        let mut nominal_class = Vec::with_capacity(rows.len());
        for codes in rows {
            for &f in &self.feature {
                split_volts.push(codes[f].min(self.max_code) as f64 / self.max_code as f64);
            }
            nominal_class.push(self.nominal.predict(codes));
        }
        TreeRows {
            split_volts,
            nominal_class,
            n_rows: rows.len(),
        }
    }

    /// Perturbs one lane-block of trials (`lo ..` in `thr`, split-major
    /// `thr[s * LANES + lane]`) exactly as the reference draws them.
    fn perturb_block(&self, thr: &mut [f64], lo: usize, n: usize, sigma: f64, seed: u64) {
        for lane in 0..n {
            let mut rng = StdRng::seed_from_u64(task_seed(seed, (lo + lane) as u64));
            for s in 0..self.r_nom.len() {
                let factor = lognormal_factor(&mut rng, sigma);
                let r = (self.r_nom[s] * factor).clamp(self.device.r_on, self.device.r_off);
                thr[s * LANES + lane] = self.device.voltage_for_resistance(r);
            }
        }
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
        let _span = obs::span("analog.variation");
        assert!(trials > 0, "need at least one trial");
        assert!(!rows.is_empty(), "need evaluation rows");
        TRIALS.add(trials as u64);
        ROWS.add((trials * rows.n_rows) as u64);
        let n_splits = self.feature.len();
        let block_ids: Vec<u64> = (0..trials.div_ceil(LANES) as u64).collect();
        LANE_BLOCKS.add(block_ids.len() as u64);
        let blocks: Vec<Vec<f64>> = parallel_map(&block_ids, |_, &b| {
            let lo = b as usize * LANES;
            let n = (trials - lo).min(LANES);
            let mut thr = vec![0.0f64; n_splits * LANES];
            self.perturb_block(&mut thr, lo, n, sigma, seed);
            let mut agree = [0u32; LANES];
            if n_splits <= DENSE_SPLIT_LIMIT {
                // Dense strategy: one branch-free decision word per split,
                // then an integer-only route per lane.
                let mut decisions = vec![0u64; n_splits];
                for r in 0..rows.n_rows {
                    let volts = &rows.split_volts[r * n_splits..(r + 1) * n_splits];
                    for (s, word) in decisions.iter_mut().enumerate() {
                        let x = volts[s];
                        let lanes = &thr[s * LANES..(s + 1) * LANES];
                        let mut bits = 0u64;
                        for (l, &t) in lanes.iter().enumerate() {
                            bits |= ((x > t) as u64) << l;
                        }
                        *word = bits;
                    }
                    let nominal = rows.nominal_class[r];
                    for (lane, a) in agree.iter_mut().enumerate().take(n) {
                        let mut node = self.root;
                        while node >= 0 {
                            let s = node as usize;
                            node = if (decisions[s] >> lane) & 1 != 0 {
                                self.right[s]
                            } else {
                                self.left[s]
                            };
                        }
                        *a += ((!node) as usize == nominal) as u32;
                    }
                }
            } else {
                // Sparse strategy: each lane walks only its own path —
                // off-path splits of a deep tree are never decided.
                for r in 0..rows.n_rows {
                    let volts = &rows.split_volts[r * n_splits..(r + 1) * n_splits];
                    let nominal = rows.nominal_class[r];
                    for (lane, a) in agree.iter_mut().enumerate().take(n) {
                        let mut node = self.root;
                        while node >= 0 {
                            let s = node as usize;
                            node = if volts[s] > thr[s * LANES + lane] {
                                self.right[s]
                            } else {
                                self.left[s]
                            };
                        }
                        *a += ((!node) as usize == nominal) as u32;
                    }
                }
            }
            agree[..n]
                .iter()
                .map(|&a| a as f64 / rows.n_rows as f64)
                .collect()
        });
        let agreements: Vec<f64> = blocks.into_iter().flatten().collect();
        summarize(sigma, trials, &agreements)
    }

    /// Convenience: [`CompiledTreeVariation::bind`] + analyze in one call.
    pub fn analyze_rows(
        &self,
        rows: &[Vec<u64>],
        sigma: f64,
        trials: usize,
        seed: u64,
    ) -> VariationReport {
        self.analyze(&self.bind(rows), sigma, trials, seed)
    }
}

/// Folds per-trial agreements into a [`VariationReport`] with the exact
/// reduction (and reduction order) of the scalar reference.
pub(crate) fn summarize(sigma: f64, trials: usize, agreements: &[f64]) -> VariationReport {
    let mean = agreements.iter().sum::<f64>() / trials as f64;
    let worst = agreements.iter().cloned().fold(f64::INFINITY, f64::min);
    VariationReport {
        sigma,
        trials,
        mean_agreement: mean,
        worst_agreement: worst,
    }
}

/// One crossbar column's frozen layout.
#[derive(Debug, Clone)]
struct ColumnTape {
    /// `(feature, magnitude)` in **term order** — the RNG draw order.
    features: Vec<usize>,
    mags: Vec<f64>,
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
        Some(ColumnTape {
            features,
            mags,
            eval,
        })
    }

    /// Draws one trial's perturbed weights (term order, matching the
    /// reference RNG stream) and programs the column: conductances and
    /// their total in ascending-row order, written into lane `lane` of
    /// the split-major lane matrix `g[slot * LANES + lane]`.
    fn perturb_lane(
        &self,
        rng: &mut StdRng,
        sigma: f64,
        lane: usize,
        w: &mut [f64],
        g: &mut [f64],
        total: &mut [f64],
    ) {
        for (wk, &m) in w.iter_mut().zip(&self.mags) {
            *wk = m * lognormal_factor(rng, sigma);
        }
        // `CrossbarColumn::program` takes the max over the full dense
        // weight vector; `f64::max` is exact, so the sparse max matches.
        let wmax = w.iter().cloned().fold(0.0f64, f64::max);
        let g_max = 1.0 / (2.0 * R_MIN);
        let mut t = 0.0f64;
        for (slot, &k) in self.eval.iter().enumerate() {
            let target = g_max * (w[k] / wmax);
            let cond = 1.0 / PrintedResistor::printable(1.0 / target).resistance;
            g[slot * LANES + lane] = cond;
            t += cond;
        }
        total[lane] = t;
    }

    /// Accumulates this column's normalized weighted sum for one row
    /// into `out[0..n]`, reproducing `CrossbarColumn::output` term by
    /// term (`v * g / total`, summed in ascending-row order).
    fn accumulate(&self, volts: &[f64], g: &[f64], total: &[f64], out: &mut [f64], n: usize) {
        for (slot, &k) in self.eval.iter().enumerate() {
            let v = volts[self.features[k]];
            let lanes = &g[slot * LANES..slot * LANES + n];
            for ((o, &gl), &tl) in out[..n].iter_mut().zip(lanes).zip(&total[..n]) {
                *o += v * gl / tl;
            }
        }
    }
}

/// A quantized SVM compiled into a flat variation-evaluation tape.
#[derive(Debug, Clone)]
pub struct CompiledSvmVariation {
    pos: Option<ColumnTape>,
    neg: Option<ColumnTape>,
    pos_scale: f64,
    neg_scale: f64,
    boundaries_v: Vec<f64>,
    n_classes: usize,
    n_features: usize,
    max_code: u64,
    /// Nominal analog engine, evaluated once per row at bind time.
    nominal: AnalogSvm,
}

/// Rows bound to a [`CompiledSvmVariation`]: pre-normalized row voltages
/// and the nominal engine's prediction for every row.
#[derive(Debug, Clone)]
pub struct SvmRows {
    /// `volts[row * row_len + feature]`.
    volts: Vec<f64>,
    row_len: usize,
    nominal_class: Vec<usize>,
    n_rows: usize,
}

impl SvmRows {
    /// Number of bound evaluation rows.
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
    pub fn compile(svm: &QuantizedSvm, n_features: usize) -> Self {
        COMPILES.incr();
        let max_code = max_code_for_bits(svm.bits());
        CompiledSvmVariation {
            pos: ColumnTape::new(svm.pos_terms()),
            neg: ColumnTape::new(svm.neg_terms()),
            pos_scale: svm.pos_terms().iter().map(|&(_, m)| m as f64).sum(),
            neg_scale: svm.neg_terms().iter().map(|&(_, m)| m as f64).sum(),
            boundaries_v: svm
                .boundaries()
                .iter()
                .map(|&b| b as f64 / max_code as f64)
                .collect(),
            n_classes: svm.n_classes(),
            n_features,
            max_code,
            nominal: AnalogSvm::from_svm(svm, n_features),
        }
    }

    /// Normalizes `rows` to crossbar input voltages and evaluates the
    /// nominal engine once per row.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths or are shorter than the
    /// highest programmed crossbar row.
    pub fn bind(&self, rows: &[Vec<u64>]) -> SvmRows {
        let row_len = rows.first().map_or(self.n_features, Vec::len);
        let mut volts = Vec::with_capacity(rows.len() * row_len);
        let mut nominal_class = Vec::with_capacity(rows.len());
        for codes in rows {
            assert_eq!(codes.len(), row_len, "inconsistent row lengths");
            volts.extend(
                codes
                    .iter()
                    .map(|&c| c.min(self.max_code) as f64 / self.max_code as f64),
            );
            nominal_class.push(self.nominal.predict(codes));
        }
        SvmRows {
            volts,
            row_len,
            nominal_class,
            n_rows: rows.len(),
        }
    }

    /// Runs the Monte-Carlo agreement analysis on pre-bound rows.
    ///
    /// Bit-identical to [`crate::variation::reference::analyze_svm_variation`]
    /// at any thread count.
    ///
    /// # Panics
    /// Panics if `trials` is zero or `rows` is empty.
    pub fn analyze(&self, rows: &SvmRows, sigma: f64, trials: usize, seed: u64) -> VariationReport {
        let _span = obs::span("analog.variation");
        assert!(trials > 0, "need at least one trial");
        assert!(!rows.is_empty(), "need evaluation rows");
        TRIALS.add(trials as u64);
        ROWS.add((trials * rows.n_rows) as u64);
        let k_pos = self.pos.as_ref().map_or(0, |c| c.features.len());
        let k_neg = self.neg.as_ref().map_or(0, |c| c.features.len());
        let block_ids: Vec<u64> = (0..trials.div_ceil(LANES) as u64).collect();
        LANE_BLOCKS.add(block_ids.len() as u64);
        let blocks: Vec<Vec<f64>> = parallel_map(&block_ids, |_, &b| {
            let lo = b as usize * LANES;
            let n = (trials - lo).min(LANES);
            let mut w = vec![0.0f64; k_pos.max(k_neg)];
            let mut g_pos = vec![0.0f64; k_pos * LANES];
            let mut g_neg = vec![0.0f64; k_neg * LANES];
            let (mut total_pos, mut total_neg) = ([0.0f64; LANES], [0.0f64; LANES]);
            for lane in 0..n {
                let mut rng = StdRng::seed_from_u64(task_seed(seed, (lo + lane) as u64));
                // Reference draw order: positive column, then negative,
                // from the same per-trial stream.
                if let Some(col) = &self.pos {
                    col.perturb_lane(
                        &mut rng,
                        sigma,
                        lane,
                        &mut w[..k_pos],
                        &mut g_pos,
                        &mut total_pos,
                    );
                }
                if let Some(col) = &self.neg {
                    col.perturb_lane(
                        &mut rng,
                        sigma,
                        lane,
                        &mut w[..k_neg],
                        &mut g_neg,
                        &mut total_neg,
                    );
                }
            }
            let mut agree = [0u32; LANES];
            let (mut vp, mut vn) = ([0.0f64; LANES], [0.0f64; LANES]);
            for r in 0..rows.n_rows {
                let volts = &rows.volts[r * rows.row_len..(r + 1) * rows.row_len];
                vp[..n].fill(0.0);
                vn[..n].fill(0.0);
                if let Some(col) = &self.pos {
                    col.accumulate(volts, &g_pos, &total_pos, &mut vp, n);
                }
                if let Some(col) = &self.neg {
                    col.accumulate(volts, &g_neg, &total_neg, &mut vn, n);
                }
                let nominal = rows.nominal_class[r];
                for (lane, a) in agree.iter_mut().enumerate().take(n) {
                    let d = vp[lane] * self.pos_scale - vn[lane] * self.neg_scale;
                    let class = self
                        .boundaries_v
                        .iter()
                        .filter(|&&bv| d > bv)
                        .count()
                        .min(self.n_classes - 1);
                    *a += (class == nominal) as u32;
                }
            }
            agree[..n]
                .iter()
                .map(|&a| a as f64 / rows.n_rows as f64)
                .collect()
        });
        let agreements: Vec<f64> = blocks.into_iter().flatten().collect();
        summarize(sigma, trials, &agreements)
    }

    /// Convenience: [`CompiledSvmVariation::bind`] + analyze in one call.
    pub fn analyze_rows(
        &self,
        rows: &[Vec<u64>],
        sigma: f64,
        trials: usize,
        seed: u64,
    ) -> VariationReport {
        self.analyze(&self.bind(rows), sigma, trials, seed)
    }
}
