//! Fixed-point quantization of features and trained models.
//!
//! Printed classifiers compute on n-bit integers (the paper sweeps
//! 4/8/12/16-bit datapaths and picks, per application, the narrowest width
//! that preserves accuracy — §IV-A). This module provides:
//!
//! * [`FeatureQuantizer`] — affine min/max mapping of sensor features onto
//!   `0 ..= 2^n - 1` codes (what an ADC in Fig. 18 would emit);
//! * [`QuantizedTree`] — integer-threshold mirror of a trained
//!   [`DecisionTree`], the exact function the digital tree hardware
//!   implements;
//! * [`QuantizedSvm`] — integer-coefficient mirror of a trained
//!   [`SvmRegressor`], decomposed into positive/negative coefficient sums
//!   so the hardware can stay unsigned (`P − N > boundary` becomes
//!   `P > N + boundary`).

use serde::{Deserialize, Serialize};

use crate::data::Dataset;
use crate::linear::SvmRegressor;
use crate::tree::{DecisionTree, TreeNode};

/// Largest representable code on a `bits`-wide datapath: `2^bits - 1`,
/// saturating to `u64::MAX` at `bits >= 64` instead of overflowing the
/// shift. This is the single source of truth for code-space bounds —
/// [`FeatureQuantizer::max_code`] and the analog variation engine both
/// delegate here, so the boundary arithmetic (the PR 8 `1 << 64`
/// overflow class) lives in exactly one place.
pub fn max_code_for_bits(bits: usize) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Per-feature affine quantizer onto `0 ..= 2^bits - 1`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureQuantizer {
    min: Vec<f64>,
    step: Vec<f64>,
    bits: usize,
}

impl FeatureQuantizer {
    /// Fits per-feature ranges on `data` for a `bits`-wide datapath.
    ///
    /// # Panics
    /// Panics unless `1 <= bits <= 16`.
    pub fn fit(data: &Dataset, bits: usize) -> Self {
        assert!((1..=16).contains(&bits), "supported widths are 1..=16 bits");
        let d = data.n_features();
        let levels = ((1u32 << bits) - 1) as f64;
        let mut min = vec![f64::INFINITY; d];
        let mut max = vec![f64::NEG_INFINITY; d];
        for row in &data.x {
            for ((mn, mx), v) in min.iter_mut().zip(&mut max).zip(row) {
                *mn = mn.min(*v);
                *mx = mx.max(*v);
            }
        }
        let step = min
            .iter()
            .zip(&max)
            .map(|(mn, mx)| {
                let range = mx - mn;
                if range < 1e-12 {
                    1.0
                } else {
                    range / levels
                }
            })
            .collect();
        FeatureQuantizer { min, step, bits }
    }

    /// Datapath width.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Highest representable code.
    pub fn max_code(&self) -> u64 {
        max_code_for_bits(self.bits)
    }

    /// Quantizes one feature value (clamped to the code range).
    pub fn code(&self, feature: usize, value: f64) -> u64 {
        let q = ((value - self.min[feature]) / self.step[feature]).round();
        (q.max(0.0) as u64).min(self.max_code())
    }

    /// Quantizes a full row.
    pub fn code_row(&self, row: &[f64]) -> Vec<u64> {
        row.iter()
            .enumerate()
            .map(|(f, &v)| self.code(f, v))
            .collect()
    }

    /// Integer threshold such that `x <= thr ⟺ code(x) <= code_thr`
    /// (up to quantization error): `floor((thr - min) / step)`.
    pub fn threshold_code(&self, feature: usize, threshold: f64) -> u64 {
        let q = ((threshold - self.min[feature]) / self.step[feature]).floor();
        (q.max(0.0) as u64).min(self.max_code())
    }

    /// The affine step (LSB size) of one feature, used when folding
    /// real-valued coefficients into the integer domain.
    pub fn step_of(&self, feature: usize) -> f64 {
        self.step[feature]
    }

    /// The affine offset of one feature.
    pub fn min_of(&self, feature: usize) -> f64 {
        self.min[feature]
    }
}

/// A quantized split in heap layout: `(position, feature, code)`.
pub type QHeapSplit = (usize, usize, u64);
/// A quantized leaf in heap layout: `(position, depth, class)`.
pub type QHeapLeaf = (usize, usize, usize);

/// Integer-threshold decision tree: the function the tree hardware computes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedTree {
    nodes: Vec<QNode>,
    n_classes: usize,
    bits: usize,
}

/// Quantized tree node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QNode {
    /// `code[feature] <= threshold` goes left.
    Split {
        /// Feature index tested.
        feature: usize,
        /// Integer threshold code.
        threshold: u64,
        /// Left child index.
        left: usize,
        /// Right child index.
        right: usize,
    },
    /// Leaf class.
    Leaf {
        /// Predicted class.
        class: usize,
    },
}

impl QuantizedTree {
    /// Quantizes a trained tree's thresholds through `fq`.
    pub fn from_tree(tree: &DecisionTree, fq: &FeatureQuantizer) -> Self {
        let nodes = tree
            .nodes()
            .iter()
            .map(|n| match n {
                TreeNode::Leaf { class } => QNode::Leaf { class: *class },
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => QNode::Split {
                    feature: *feature,
                    threshold: fq.threshold_code(*feature, *threshold),
                    left: *left,
                    right: *right,
                },
            })
            .collect();
        QuantizedTree {
            nodes,
            n_classes: tree.n_classes(),
            bits: fq.bits(),
        }
    }

    /// Predicts from quantized feature codes.
    pub fn predict(&self, codes: &[u64]) -> usize {
        let mut i = 0usize;
        loop {
            match &self.nodes[i] {
                QNode::Leaf { class } => return *class,
                QNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if codes[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// All nodes; index 0 is the root.
    pub fn nodes(&self) -> &[QNode] {
        &self.nodes
    }

    /// Datapath width.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Internal-node count.
    pub fn comparison_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, QNode::Split { .. }))
            .count()
    }

    /// Tree depth.
    pub fn depth(&self) -> usize {
        fn d(nodes: &[QNode], i: usize) -> usize {
            match &nodes[i] {
                QNode::Leaf { .. } => 0,
                QNode::Split { left, right, .. } => 1 + d(nodes, *left).max(d(nodes, *right)),
            }
        }
        d(&self.nodes, 0)
    }

    /// Distinct features tested.
    pub fn used_features(&self) -> Vec<usize> {
        let mut f: Vec<usize> = self
            .nodes
            .iter()
            .filter_map(|n| match n {
                QNode::Split { feature, .. } => Some(*feature),
                _ => None,
            })
            .collect();
        f.sort_unstable();
        f.dedup();
        f
    }

    /// Flattens the tree onto full-binary-tree ("heap") positions: root at
    /// 1, children of `p` at `2p` / `2p+1` — the indexing scheme the serial
    /// architecture's shift register produces. Returns `(splits, leaves)`
    /// where splits are `(position, feature, code)` and leaves
    /// `(position, depth, class)`, each sorted by position.
    pub fn heap_layout(&self) -> (Vec<QHeapSplit>, Vec<QHeapLeaf>) {
        let mut splits = Vec::new();
        let mut leaves = Vec::new();
        let mut stack = vec![(0usize, 1usize, 0usize)];
        while let Some((node, pos, depth)) = stack.pop() {
            match &self.nodes[node] {
                QNode::Leaf { class } => leaves.push((pos, depth, *class)),
                QNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    splits.push((pos, *feature, *threshold));
                    // Paper convention: the comparison result shifts into
                    // the LSB, which is 1 when the walk went right
                    // (condition false).
                    stack.push((*left, pos * 2, depth + 1));
                    stack.push((*right, pos * 2 + 1, depth + 1));
                }
            }
        }
        splits.sort_unstable_by_key(|s| s.0);
        leaves.sort_unstable_by_key(|l| l.0);
        (splits, leaves)
    }
}

/// A tree keys as its node list, class count and width, in field order.
/// The nodes go through one [`cache::StableHasher::write_words`] pass, a
/// variant word and then the variant's fields per node, at about a cycle
/// per word.
impl cache::Hashable for QuantizedTree {
    fn stable_hash(&self, h: &mut cache::StableHasher) {
        let QuantizedTree {
            nodes,
            n_classes,
            bits,
        } = self;
        h.write_seq_len(nodes.len());
        h.write_words(nodes.iter().flat_map(|node| {
            let (words, len) = match *node {
                QNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => ([0, feature as u64, threshold, left as u64, right as u64], 5),
                QNode::Leaf { class } => ([1, class as u64, 0, 0, 0], 2),
            };
            words.into_iter().take(len)
        }));
        h.write_usize(*n_classes);
        h.write_usize(*bits);
    }
}

/// Integer SVM regressor in positive/negative-sum form.
///
/// The real decision function `w·x + b` is folded through the feature
/// quantizer into `y ≈ c0 + s · D` with `D = Σ g_i · code_i` for integer
/// coefficients `g_i`. Splitting by coefficient sign,
/// `D = P − N`, and the class-boundary tests `D > B_c` become the unsigned
/// comparisons `P > N + B_c` the hardware implements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedSvm {
    /// `(feature, magnitude)` terms with positive integer coefficients.
    pos_terms: Vec<(usize, u64)>,
    /// `(feature, magnitude)` terms with negative integer coefficients.
    neg_terms: Vec<(usize, u64)>,
    /// Class boundaries in the integer domain, ascending: crossing
    /// `boundaries[c]` moves the prediction from class `c` to `c+1`.
    boundaries: Vec<i64>,
    n_classes: usize,
    bits: usize,
}

impl QuantizedSvm {
    /// Quantizes a trained regressor's coefficients to `bits`-wide signed
    /// magnitudes through `fq`.
    pub fn from_svm(svm: &SvmRegressor, fq: &FeatureQuantizer) -> Self {
        let bits = fq.bits();
        // Fold the affine feature mapping into the coefficients:
        // w·x = Σ w_i (min_i + step_i · code_i).
        let g: Vec<f64> = svm
            .weights()
            .iter()
            .enumerate()
            .map(|(f, w)| w * fq.step_of(f))
            .collect();
        let c0: f64 = svm
            .weights()
            .iter()
            .enumerate()
            .map(|(f, w)| w * fq.min_of(f))
            .sum::<f64>()
            + svm.bias();
        let gmax = g.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let coeff_max = ((1u64 << (bits - 1)) - 1).max(1) as f64;
        let scale = if gmax < 1e-18 { 1.0 } else { gmax / coeff_max };
        let mut pos_terms = Vec::new();
        let mut neg_terms = Vec::new();
        for (f, gi) in g.iter().enumerate() {
            let mag = (gi.abs() / scale).round() as u64;
            if mag == 0 {
                continue;
            }
            if *gi >= 0.0 {
                pos_terms.push((f, mag));
            } else {
                neg_terms.push((f, mag));
            }
        }
        // Class boundary c/c+1 sits at label value c + 0.5.
        let boundaries = (0..svm.n_classes() - 1)
            .map(|c| (((c as f64 + 0.5) - c0) / scale).round() as i64)
            .collect();
        QuantizedSvm {
            pos_terms,
            neg_terms,
            boundaries,
            n_classes: svm.n_classes(),
            bits,
        }
    }

    /// Predicts from quantized feature codes, exactly as the hardware does:
    /// unsigned sums `P` and `N`, then `P > N + B_c` per boundary.
    pub fn predict(&self, codes: &[u64]) -> usize {
        let p = self.positive_sum(codes);
        let n = self.negative_sum(codes);
        let d = p as i64 - n as i64;
        let mut class = 0usize;
        for &b in &self.boundaries {
            if d > b {
                class += 1;
            }
        }
        class.min(self.n_classes - 1)
    }

    /// `P`: sum of positive-coefficient products.
    pub fn positive_sum(&self, codes: &[u64]) -> u64 {
        self.pos_terms.iter().map(|&(f, m)| m * codes[f]).sum()
    }

    /// `N`: sum of negative-coefficient magnitudes times codes.
    pub fn negative_sum(&self, codes: &[u64]) -> u64 {
        self.neg_terms.iter().map(|&(f, m)| m * codes[f]).sum()
    }

    /// Positive terms `(feature, magnitude)`.
    pub fn pos_terms(&self) -> &[(usize, u64)] {
        &self.pos_terms
    }

    /// Negative terms `(feature, magnitude)`.
    pub fn neg_terms(&self) -> &[(usize, u64)] {
        &self.neg_terms
    }

    /// Ascending class boundaries in the integer domain.
    pub fn boundaries(&self) -> &[i64] {
        &self.boundaries
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Datapath width.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Number of multiplies per inference (non-zero integer coefficients).
    pub fn mac_count(&self) -> usize {
        self.pos_terms.len() + self.neg_terms.len()
    }
}

/// An SVM keys as its positive terms, negative terms and boundaries (one
/// [`cache::StableHasher::write_words`] pass, each list's length first),
/// then its class count and width: every field, in field order.
impl cache::Hashable for QuantizedSvm {
    fn stable_hash(&self, h: &mut cache::StableHasher) {
        fn terms(terms: &[(usize, u64)]) -> impl Iterator<Item = u64> + '_ {
            std::iter::once(terms.len() as u64)
                .chain(terms.iter().flat_map(|&(f, m)| [f as u64, m]))
        }
        let QuantizedSvm {
            pos_terms,
            neg_terms,
            boundaries,
            n_classes,
            bits,
        } = self;
        let boundaries =
            std::iter::once(boundaries.len() as u64).chain(boundaries.iter().map(|&b| b as u64));
        h.write_words(terms(pos_terms).chain(terms(neg_terms)).chain(boundaries));
        h.write_usize(*n_classes);
        h.write_usize(*bits);
    }
}

/// Integer-threshold random forest: per-tree quantized mirrors plus a
/// majority vote, the function a printed ensemble engine computes.
///
/// Ties break toward the lowest class index (the ascending-scan argmax the
/// hardware voter implements).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedForest {
    trees: Vec<QuantizedTree>,
    n_classes: usize,
    bits: usize,
}

impl QuantizedForest {
    /// Quantizes every member tree of a trained forest through `fq`.
    pub fn from_forest(forest: &crate::forest::RandomForest, fq: &FeatureQuantizer) -> Self {
        let trees: Vec<QuantizedTree> = forest
            .trees()
            .iter()
            .map(|t| QuantizedTree::from_tree(t, fq))
            .collect();
        let n_classes = trees.first().map_or(1, |t| t.n_classes());
        QuantizedForest {
            trees,
            n_classes,
            bits: fq.bits(),
        }
    }

    /// Majority-vote prediction from quantized feature codes.
    pub fn predict(&self, codes: &[u64]) -> usize {
        let mut votes = vec![0usize; self.n_classes];
        for t in &self.trees {
            votes[t.predict(codes)] += 1;
        }
        let mut best = 0usize;
        for (c, &v) in votes.iter().enumerate() {
            if v > votes[best] {
                best = c;
            }
        }
        best
    }

    /// The member trees.
    pub fn trees(&self) -> &[QuantizedTree] {
        &self.trees
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Datapath width.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Union of features tested by any member tree.
    pub fn used_features(&self) -> Vec<usize> {
        let mut f: Vec<usize> = self.trees.iter().flat_map(|t| t.used_features()).collect();
        f.sort_unstable();
        f.dedup();
        f
    }
}

impl cache::Hashable for QuantizedForest {
    fn stable_hash(&self, h: &mut cache::StableHasher) {
        let QuantizedForest {
            trees,
            n_classes,
            bits,
        } = self;
        trees.stable_hash(h);
        h.write_usize(*n_classes);
        h.write_usize(*bits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Standardizer;
    use crate::metrics::accuracy;
    use crate::synth::Application;
    use crate::tree::TreeParams;

    fn wine() -> (Dataset, Dataset) {
        let data = Application::RedWine.generate(7);
        let (train, test) = data.split(0.7, 42);
        let s = Standardizer::fit(&train);
        (s.transform(&train), s.transform(&test))
    }

    #[test]
    fn max_code_boundary_widths_never_overflow() {
        // The PR 8 overflow class: `(1u64 << bits) - 1` is UB-adjacent at
        // bits = 64 and silently wrong beyond. Pin the exact boundary
        // widths against an independent formulation.
        for bits in [1usize, 31, 32, 63] {
            assert_eq!(
                max_code_for_bits(bits),
                u64::MAX >> (64 - bits),
                "width {bits}"
            );
        }
        assert_eq!(max_code_for_bits(1), 1);
        assert_eq!(max_code_for_bits(6), 63);
        assert_eq!(max_code_for_bits(16), 65_535);
        assert_eq!(max_code_for_bits(31), (1u64 << 31) - 1);
        assert_eq!(max_code_for_bits(32), u32::MAX as u64);
        assert_eq!(max_code_for_bits(63), (1u64 << 63) - 1);
        // At and past the word width the code space saturates.
        assert_eq!(max_code_for_bits(64), u64::MAX);
        assert_eq!(max_code_for_bits(65), u64::MAX);
        assert_eq!(max_code_for_bits(200), u64::MAX);
        // Strictly monotone below saturation.
        for bits in 1..64usize {
            assert!(max_code_for_bits(bits) < max_code_for_bits(bits + 1));
        }
    }

    #[test]
    fn quantizer_round_trips_codes_at_every_supported_width() {
        // Property over the supported 1..=16-bit datapaths: every code is
        // within `max_code_for_bits`, and re-coding the decoded value
        // returns the same code (codes are fixed points of code∘decode).
        let (train, _) = wine();
        for bits in [1usize, 4, 8, 12, 16] {
            let fq = FeatureQuantizer::fit(&train, bits);
            assert_eq!(fq.max_code(), max_code_for_bits(bits), "width {bits}");
            for row in train.x.iter().take(40) {
                for (f, &v) in row.iter().enumerate() {
                    let c = fq.code(f, v);
                    assert!(c <= max_code_for_bits(bits), "width {bits}");
                    // Decode through the affine map and re-code: codes
                    // must be fixed points of code ∘ decode.
                    let decoded = fq.min_of(f) + c as f64 * fq.step_of(f);
                    assert_eq!(fq.code(f, decoded), c, "width {bits} feature {f}");
                }
            }
        }
    }

    #[test]
    fn codes_are_in_range_and_monotone() {
        let (train, _) = wine();
        let fq = FeatureQuantizer::fit(&train, 8);
        for row in train.x.iter().take(100) {
            for (f, &v) in row.iter().enumerate() {
                let c = fq.code(f, v);
                assert!(c <= fq.max_code());
                // Monotonicity: a bigger value never gets a smaller code.
                assert!(fq.code(f, v + 1.0) >= c);
            }
        }
        // Out-of-range values clamp.
        assert_eq!(fq.code(0, -1e12), 0);
        assert_eq!(fq.code(0, 1e12), fq.max_code());
    }

    #[test]
    fn quantized_tree_tracks_float_tree_at_8_bits() {
        let (train, test) = wine();
        let tree = DecisionTree::fit(&train, TreeParams::with_depth(4));
        let fq = FeatureQuantizer::fit(&train, 8);
        let qt = QuantizedTree::from_tree(&tree, &fq);
        let float_acc = accuracy(
            test.x.iter().map(|r| tree.predict(r)),
            test.y.iter().copied(),
        )
        .unwrap();
        let q_acc = accuracy(
            test.x.iter().map(|r| qt.predict(&fq.code_row(r))),
            test.y.iter().copied(),
        )
        .unwrap();
        assert!(
            (float_acc - q_acc).abs() < 0.05,
            "float {float_acc} vs quant {q_acc}"
        );
        assert_eq!(qt.comparison_count(), tree.comparison_count());
        assert_eq!(qt.depth(), tree.depth());
    }

    #[test]
    fn heap_layout_is_consistent() {
        let (train, test) = wine();
        let tree = DecisionTree::fit(&train, TreeParams::with_depth(4));
        let fq = FeatureQuantizer::fit(&train, 8);
        let qt = QuantizedTree::from_tree(&tree, &fq);
        let (splits, leaves) = qt.heap_layout();
        assert_eq!(splits.len(), qt.comparison_count());
        assert_eq!(splits.len() + leaves.len(), qt.nodes().len());
        // Root is position 1.
        assert!(splits.iter().any(|s| s.0 == 1));
        // Leaf positions never collide with split positions.
        for (lp, _, _) in &leaves {
            assert!(splits.iter().all(|(sp, _, _)| sp != lp));
        }
        // Every leaf position's ancestors are split positions, and its
        // depth is the number of ancestors.
        for &(lp, depth, _) in &leaves {
            let mut p = lp / 2;
            let mut ancestors = 0;
            while p >= 1 {
                assert!(
                    splits.iter().any(|(sp, _, _)| *sp == p),
                    "ancestor {p} of {lp}"
                );
                ancestors += 1;
                p /= 2;
            }
            assert_eq!(ancestors, depth, "leaf {lp}");
        }
        // Walking the positions (`<=` goes to `2p`, else `2p+1`) reaches
        // the leaf `predict` returns.
        for row in &test.x {
            let codes = fq.code_row(row);
            let mut pos = 1;
            let class = loop {
                if let Some(&(_, _, class)) = leaves.iter().find(|l| l.0 == pos) {
                    break class;
                }
                let &(_, feature, code) = splits.iter().find(|s| s.0 == pos).expect("split");
                pos = 2 * pos + (codes[feature] > code) as usize;
            };
            assert_eq!(class, qt.predict(&codes));
        }
    }

    #[test]
    fn narrower_widths_lose_little_on_separable_data() {
        let data = Application::Har.generate(7);
        let (train, test) = data.split(0.7, 42);
        let tree = DecisionTree::fit(&train, TreeParams::with_depth(4));
        for bits in [4, 8, 12, 16] {
            let fq = FeatureQuantizer::fit(&train, bits);
            let qt = QuantizedTree::from_tree(&tree, &fq);
            let acc = accuracy(
                test.x.iter().map(|r| qt.predict(&fq.code_row(r))),
                test.y.iter().copied(),
            )
            .unwrap();
            assert!(acc > 0.85, "{bits}-bit accuracy {acc}");
        }
    }

    #[test]
    fn quantized_svm_tracks_float_svm() {
        let (train, test) = wine();
        let svm = crate::linear::SvmRegressor::fit(&train, 300, 1e-4);
        let fq = FeatureQuantizer::fit(&train, 8);
        let qs = QuantizedSvm::from_svm(&svm, &fq);
        let float_acc = accuracy(
            test.x.iter().map(|r| svm.predict(r)),
            test.y.iter().copied(),
        )
        .unwrap();
        let q_acc = accuracy(
            test.x.iter().map(|r| qs.predict(&fq.code_row(r))),
            test.y.iter().copied(),
        )
        .unwrap();
        assert!(
            (float_acc - q_acc).abs() < 0.08,
            "float {float_acc} vs quant {q_acc}"
        );
    }

    #[test]
    fn svm_boundaries_are_ascending() {
        let (train, _) = wine();
        let svm = crate::linear::SvmRegressor::fit(&train, 100, 1e-4);
        let fq = FeatureQuantizer::fit(&train, 8);
        let qs = QuantizedSvm::from_svm(&svm, &fq);
        for w in qs.boundaries().windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(qs.boundaries().len(), qs.n_classes() - 1);
    }

    #[test]
    fn svm_predict_matches_signed_reference() {
        let (train, test) = wine();
        let svm = crate::linear::SvmRegressor::fit(&train, 100, 1e-4);
        let fq = FeatureQuantizer::fit(&train, 6);
        let qs = QuantizedSvm::from_svm(&svm, &fq);
        for row in test.x.iter().take(50) {
            let codes = fq.code_row(row);
            let d = qs.positive_sum(&codes) as i64 - qs.negative_sum(&codes) as i64;
            let expect = qs
                .boundaries()
                .iter()
                .filter(|&&b| d > b)
                .count()
                .min(qs.n_classes() - 1);
            assert_eq!(qs.predict(&codes), expect);
        }
    }
}

#[cfg(test)]
mod forest_tests {
    use super::*;
    use crate::forest::{ForestParams, RandomForest};
    use crate::synth::Application;

    #[test]
    fn quantized_forest_mirrors_member_trees() {
        let data = Application::Cardio.generate(7);
        let (train, test) = data.split(0.7, 42);
        let forest = RandomForest::fit(&train, ForestParams::paper(4));
        let fq = FeatureQuantizer::fit(&train, 8);
        let qf = QuantizedForest::from_forest(&forest, &fq);
        assert_eq!(qf.trees().len(), 4);
        assert_eq!(qf.n_classes(), 3);
        assert_eq!(
            qf.trees()
                .iter()
                .map(|t| t.comparison_count())
                .sum::<usize>(),
            forest.comparison_count()
        );
        // Votes are consistent with per-tree predictions.
        for row in test.x.iter().take(40) {
            let codes = fq.code_row(row);
            let mut votes = [0usize; 3];
            for t in qf.trees() {
                votes[t.predict(&codes)] += 1;
            }
            let pred = qf.predict(&codes);
            assert_eq!(votes[pred], *votes.iter().max().unwrap());
        }
    }

    #[test]
    fn ties_break_to_the_lowest_class() {
        // Two single-leaf trees voting for different classes: class 1 and
        // class 2 each get one vote; the tie must go to class 1.
        let x = vec![vec![0.0], vec![1.0]];
        let d1 = Dataset::new("a", x.clone(), vec![1, 1], 3);
        let d2 = Dataset::new("b", x.clone(), vec![2, 2], 3);
        let t1 = crate::tree::DecisionTree::fit(&d1, crate::tree::TreeParams::with_depth(0));
        let t2 = crate::tree::DecisionTree::fit(&d2, crate::tree::TreeParams::with_depth(0));
        let fq = FeatureQuantizer::fit(&d1, 4);
        let qf = QuantizedForest {
            trees: vec![
                QuantizedTree::from_tree(&t1, &fq),
                QuantizedTree::from_tree(&t2, &fq),
            ],
            n_classes: 3,
            bits: 4,
        };
        assert_eq!(qf.predict(&[0]), 1);
    }
}
