//! CART decision-tree training and introspection.
//!
//! Gini-impurity binary trees with the `x[feature] <= threshold` branch
//! convention (left on true), matching scikit-learn's `DecisionTreeClassifier`
//! that the paper trained. The trained structure is fully introspectable —
//! the hardware generators walk [`DecisionTree::nodes`] to emit comparators,
//! thresholds and class ROMs.

use serde::{Deserialize, Serialize};

use crate::data::Dataset;

/// Trained CART fits (every `fit`/`fit_subset` call).
static CART_FITS: obs::Counter = obs::Counter::new("ml.cart.fits");
/// Nodes grown across all fits.
static CART_NODES: obs::Counter = obs::Counter::new("ml.cart.nodes");
/// Candidate thresholds scored by the split search across all fits.
static CART_CANDIDATES: obs::Counter = obs::Counter::new("ml.cart.split_candidates");

/// Split-search work done by one `fit` call, tallied locally and
/// published to the [`obs`] counters once per fit (the per-candidate
/// loop is far too hot for a process-wide counter update).
#[derive(Default)]
struct SearchTally {
    nodes: u64,
    candidates: u64,
}

impl SearchTally {
    fn publish(&self) {
        CART_FITS.incr();
        CART_NODES.add(self.nodes);
        CART_CANDIDATES.add(self.candidates);
    }
}

/// One node of a trained tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TreeNode {
    /// Internal decision node: `x[feature] <= threshold` goes left.
    Split {
        /// Feature index tested.
        feature: usize,
        /// Decision threshold.
        threshold: f64,
        /// Index of the left child (condition true).
        left: usize,
        /// Index of the right child (condition false).
        right: usize,
    },
    /// Leaf carrying a class label.
    Leaf {
        /// Predicted class.
        class: usize,
    },
}

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum tree depth (paper sweeps 1, 2, 4, 8).
    pub max_depth: usize,
    /// Minimum samples required to split a node.
    pub min_samples_split: usize,
    /// Cap on candidate thresholds evaluated per feature (quantile
    /// subsampling keeps 263-feature training fast).
    pub max_thresholds: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 4,
            min_samples_split: 2,
            max_thresholds: 32,
        }
    }
}

impl TreeParams {
    /// Parameters for a depth-`d` tree with the paper's defaults elsewhere.
    pub fn with_depth(d: usize) -> Self {
        TreeParams {
            max_depth: d,
            ..Default::default()
        }
    }
}

impl cache::Hashable for TreeParams {
    fn stable_hash(&self, h: &mut cache::StableHasher) {
        h.write_usize(self.max_depth);
        h.write_usize(self.min_samples_split);
        h.write_usize(self.max_thresholds);
    }
}

/// A trained CART classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    nodes: Vec<TreeNode>,
    n_classes: usize,
    n_features: usize,
}

impl DecisionTree {
    /// Fits a tree on `data` with `params`. A depth-0 request yields a
    /// single majority-class leaf.
    ///
    /// When the artifact cache is enabled, repeated fits on identical
    /// `(data, params)` return the stored tree instead of re-growing it.
    pub fn fit(data: &Dataset, params: TreeParams) -> Self {
        cache::memo("ml.tree.fit", &(data, params), || {
            Self::fit_impl(data, params)
        })
    }

    fn fit_impl(data: &Dataset, params: TreeParams) -> Self {
        let _span = obs::span("ml.cart.fit");
        let indices: Vec<usize> = (0..data.len()).collect();
        let mut nodes = Vec::new();
        let mut tally = SearchTally::default();
        build(
            data,
            &indices,
            params.max_depth,
            &params,
            &mut nodes,
            None,
            &mut tally,
        );
        tally.publish();
        DecisionTree {
            nodes,
            n_classes: data.n_classes,
            n_features: data.n_features(),
        }
    }

    /// Fits on a subset of samples, optionally restricting candidate
    /// features per split (used by random forests).
    pub fn fit_subset(
        data: &Dataset,
        sample_indices: &[usize],
        params: TreeParams,
        feature_subset: Option<&[usize]>,
    ) -> Self {
        let _span = obs::span("ml.cart.fit");
        let mut nodes = Vec::new();
        let mut tally = SearchTally::default();
        build(
            data,
            sample_indices,
            params.max_depth,
            &params,
            &mut nodes,
            feature_subset,
            &mut tally,
        );
        tally.publish();
        DecisionTree {
            nodes,
            n_classes: data.n_classes,
            n_features: data.n_features(),
        }
    }

    /// Predicts the class of one row.
    pub fn predict(&self, row: &[f64]) -> usize {
        let mut i = 0usize;
        loop {
            match &self.nodes[i] {
                TreeNode::Leaf { class } => return *class,
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// All nodes; index 0 is the root.
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// Number of classes the tree predicts over.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of input features the training data had.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of internal (comparison) nodes — Table II's `#C` for trees.
    pub fn comparison_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, TreeNode::Split { .. }))
            .count()
    }

    /// Depth of the tree (0 for a single leaf).
    pub fn depth(&self) -> usize {
        fn d(nodes: &[TreeNode], i: usize) -> usize {
            match &nodes[i] {
                TreeNode::Leaf { .. } => 0,
                TreeNode::Split { left, right, .. } => 1 + d(nodes, *left).max(d(nodes, *right)),
            }
        }
        d(&self.nodes, 0)
    }

    /// Sorted list of distinct features the tree actually tests — the
    /// quantity (≈14 on average across the paper's datasets) that sizes the
    /// serial tree's input multiplexer.
    pub fn used_features(&self) -> Vec<usize> {
        let mut f: Vec<usize> = self
            .nodes
            .iter()
            .filter_map(|n| match n {
                TreeNode::Split { feature, .. } => Some(*feature),
                TreeNode::Leaf { .. } => None,
            })
            .collect();
        f.sort_unstable();
        f.dedup();
        f
    }
}

/// Prefix-count sweep over one feature: distinct sorted values plus, for
/// each, the cumulative per-class count of samples at or below it. Every
/// candidate threshold's left/right partition then reads off in O(classes)
/// instead of rescanning all samples.
struct Sweep {
    /// Distinct feature values, ascending.
    vals: Vec<f64>,
    /// Flattened `vals.len() x n_classes`: `cum[k*c..][..c]` counts the
    /// samples of each class with value `<= vals[k]`.
    cum: Vec<usize>,
    classes: usize,
    n: usize,
}

impl Sweep {
    fn build(data: &Dataset, indices: &[usize], f: usize) -> Sweep {
        let mut pairs: Vec<(f64, u32)> = indices
            .iter()
            .map(|&i| (data.x[i][f], data.y[i] as u32))
            .collect();
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let classes = data.n_classes;
        let mut vals: Vec<f64> = Vec::new();
        let mut cum: Vec<usize> = Vec::new();
        let mut running = vec![0usize; classes];
        for &(v, y) in &pairs {
            if vals.last() != Some(&v) {
                if !vals.is_empty() {
                    cum.extend_from_slice(&running);
                }
                vals.push(v);
            }
            running[y as usize] += 1;
        }
        if !vals.is_empty() {
            cum.extend_from_slice(&running);
        }
        Sweep {
            vals,
            cum,
            classes,
            n: indices.len(),
        }
    }

    /// Scores the candidate threshold between `vals[w]` and `vals[w+1]`.
    /// Returns `(threshold, score)`, or `None` for a degenerate one-sided
    /// partition. The midpoint may round onto `vals[w+1]` itself (adjacent
    /// floats); `x <= thr` then takes that value's samples left, exactly as
    /// a direct scan would.
    fn eval(&self, w: usize, total: &[usize]) -> Option<(f64, f64)> {
        let c = self.classes;
        let thr = (self.vals[w] + self.vals[w + 1]) / 2.0;
        let k = if thr >= self.vals[w + 1] { w + 1 } else { w };
        let lc = &self.cum[k * c..(k + 1) * c];
        let ln: usize = lc.iter().sum();
        let rn = self.n - ln;
        if ln == 0 || rn == 0 {
            return None;
        }
        let rc: Vec<usize> = total.iter().zip(lc).map(|(&t, &l)| t - l).collect();
        let score = (ln as f64 * gini(lc, ln) + rn as f64 * gini(&rc, rn)) / self.n as f64;
        // Tie-break toward balanced partitions: when several cuts achieve
        // the same impurity (e.g. every depth-1 cut of XOR data), a balanced
        // split gives the children the most room to improve.
        let imbalance = (ln as f64 - rn as f64).abs() / self.n as f64;
        Some((thr, score + imbalance * 1e-7))
    }
}

fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts.iter().map(|&c| (c as f64 / t).powi(2)).sum::<f64>()
}

fn majority(counts: &[usize]) -> usize {
    counts
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Recursively grows the tree; returns the new node's index.
fn build(
    data: &Dataset,
    indices: &[usize],
    depth_left: usize,
    params: &TreeParams,
    nodes: &mut Vec<TreeNode>,
    feature_subset: Option<&[usize]>,
    tally: &mut SearchTally,
) -> usize {
    tally.nodes += 1;
    let mut counts = vec![0usize; data.n_classes];
    for &i in indices {
        counts[data.y[i]] += 1;
    }
    let node_gini = gini(&counts, indices.len());
    let make_leaf = depth_left == 0
        || indices.len() < params.min_samples_split
        || node_gini == 0.0
        || indices.is_empty();
    if make_leaf {
        nodes.push(TreeNode::Leaf {
            class: majority(&counts),
        });
        return nodes.len() - 1;
    }

    let features: Vec<usize> = match feature_subset {
        Some(f) => f.to_vec(),
        None => (0..data.n_features()).collect(),
    };
    // Coarse scan with quantile-strided candidates, then a full-resolution
    // rescan around the winning position (so subsampling never misses a
    // clean cut sitting between strides). Candidate scoring uses one
    // prefix-count sweep per feature (sort once, evaluate every threshold
    // from cumulative class counts) instead of an O(n) rescan per
    // candidate — the class counts, and therefore every Gini score, are
    // the exact integers and floats the rescan produced.
    let mut best: Option<(f64, usize, f64, usize, usize)> = None; // (gini, f, thr, w, stride)
    for &f in &features {
        let sweep = Sweep::build(data, indices, f);
        if sweep.vals.len() < 2 {
            continue;
        }
        let stride = (sweep.vals.len() / params.max_thresholds).max(1);
        for w in (0..sweep.vals.len() - 1).step_by(stride) {
            tally.candidates += 1;
            if let Some((thr, score)) = sweep.eval(w, &counts) {
                if best.is_none_or(|(b, ..)| score < b - 1e-15) {
                    best = Some((score, f, thr, w, stride));
                }
            }
        }
    }
    // Local refinement of the winner.
    if let Some((_, f, _, w, stride)) = best {
        if stride > 1 {
            let sweep = Sweep::build(data, indices, f);
            let lo = w.saturating_sub(stride);
            let hi = (w + stride).min(sweep.vals.len() - 1);
            for v in lo..hi {
                tally.candidates += 1;
                if let Some((thr, score)) = sweep.eval(v, &counts) {
                    if best.is_none_or(|(b, ..)| score < b - 1e-15) {
                        best = Some((score, f, thr, v, stride));
                    }
                }
            }
        }
    }

    // Like scikit-learn's default CART, split on the best candidate even at
    // zero immediate gain (a zero-gain split can enable a perfect split one
    // level down — XOR being the canonical case).
    let Some((_, feature, threshold, _, _)) = best else {
        nodes.push(TreeNode::Leaf {
            class: majority(&counts),
        });
        return nodes.len() - 1;
    };
    let _ = node_gini;

    let (li, ri): (Vec<usize>, Vec<usize>) = indices
        .iter()
        .partition(|&&i| data.x[i][feature] <= threshold);
    let me = nodes.len();
    nodes.push(TreeNode::Leaf { class: 0 }); // placeholder
    let left = build(
        data,
        &li,
        depth_left - 1,
        params,
        nodes,
        feature_subset,
        tally,
    );
    let right = build(
        data,
        &ri,
        depth_left - 1,
        params,
        nodes,
        feature_subset,
        tally,
    );
    nodes[me] = TreeNode::Split {
        feature,
        threshold,
        left,
        right,
    };
    me
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use crate::synth::Application;

    fn xor_dataset() -> Dataset {
        // Exact 2D XOR: every depth-1 cut has zero gain, so solving it
        // requires the zero-gain split (like scikit-learn's CART) plus the
        // balanced tie-break.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..200 {
            let a = (i % 2) as f64;
            let b = ((i / 2) % 2) as f64;
            x.push(vec![a, b]);
            y.push((a as usize) ^ (b as usize));
        }
        Dataset::new("xor", x, y, 2)
    }

    #[test]
    fn depth_two_solves_xor_depth_one_cannot() {
        let d = xor_dataset();
        let t1 = DecisionTree::fit(&d, TreeParams::with_depth(1));
        let t2 = DecisionTree::fit(&d, TreeParams::with_depth(2));
        let acc = |t: &DecisionTree| {
            accuracy(d.x.iter().map(|r| t.predict(r)), d.y.iter().copied()).unwrap()
        };
        assert!(acc(&t1) < 0.8);
        assert!(acc(&t2) > 0.95, "depth-2 accuracy {}", acc(&t2));
        assert!(t2.depth() <= 2);
    }

    #[test]
    fn depth_zero_is_a_majority_leaf() {
        let d = xor_dataset();
        let t = DecisionTree::fit(&d, TreeParams::with_depth(0));
        assert_eq!(t.comparison_count(), 0);
        assert_eq!(t.nodes().len(), 1);
    }

    #[test]
    fn max_depth_is_respected() {
        let d = Application::Pendigits.generate(7);
        for depth in [1, 2, 4, 8] {
            let t = DecisionTree::fit(&d, TreeParams::with_depth(depth));
            assert!(
                t.depth() <= depth,
                "depth {} > requested {depth}",
                t.depth()
            );
            assert!(t.comparison_count() < (1 << depth));
        }
    }

    #[test]
    fn deeper_trees_do_not_get_less_accurate_on_train() {
        let d = Application::Cardio.generate(7);
        let acc = |depth| {
            let t = DecisionTree::fit(&d, TreeParams::with_depth(depth));
            accuracy(d.x.iter().map(|r| t.predict(r)), d.y.iter().copied()).unwrap()
        };
        let (a1, a4, a8) = (acc(1), acc(4), acc(8));
        assert!(a4 >= a1 - 1e-9);
        assert!(a8 >= a4 - 1e-9);
    }

    #[test]
    fn pure_nodes_stop_early() {
        // Perfectly separable single feature: a depth-8 request still
        // produces a tiny tree.
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let y: Vec<usize> = (0..100).map(|i| (i >= 50) as usize).collect();
        let d = Dataset::new("sep", x, y, 2);
        let t = DecisionTree::fit(&d, TreeParams::with_depth(8));
        assert_eq!(t.comparison_count(), 1);
        assert_eq!(t.used_features(), vec![0]);
    }

    #[test]
    fn predictions_follow_thresholds() {
        let d = xor_dataset();
        let t = DecisionTree::fit(&d, TreeParams::with_depth(2));
        // Hand-walk the tree for one row and compare with predict().
        let row = &d.x[3];
        let mut i = 0usize;
        let manual = loop {
            match &t.nodes()[i] {
                TreeNode::Leaf { class } => break *class,
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        };
        assert_eq!(manual, t.predict(row));
    }
}
