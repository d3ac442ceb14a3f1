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
        let indices: Vec<usize> = (0..data.len()).collect();
        grow(data, &indices, params, None)
    }

    /// Fits one tree per entry of `depths`, each equal to
    /// `fit(data, TreeParams::with_depth(d))`, from one (memoized) fit at
    /// the deepest of them.
    ///
    /// Greedy CART picks every split without looking at the depth limit,
    /// so a shallower tree is the deepest one cut at its depth: each cut
    /// node becomes a leaf of the majority class among the training rows
    /// routed to it, which is the leaf a direct fit would have made there.
    pub fn fit_depths(data: &Dataset, depths: &[usize]) -> Vec<Self> {
        let Some(&deepest) = depths.iter().max() else {
            return Vec::new();
        };
        let tree = Self::fit(data, TreeParams::with_depth(deepest));
        let counts = tree.node_counts(data);
        depths.iter().map(|&d| tree.cut(&counts, d)).collect()
    }

    /// Per node, the per-class counts of `data`'s rows that reach it.
    fn node_counts(&self, data: &Dataset) -> Vec<Vec<usize>> {
        let mut counts = vec![vec![0usize; self.n_classes]; self.nodes.len()];
        for (row, &y) in data.x.iter().zip(&data.y) {
            let mut i = 0;
            loop {
                counts[i][y] += 1;
                match &self.nodes[i] {
                    TreeNode::Leaf { .. } => break,
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
                        }
                    }
                }
            }
        }
        counts
    }

    /// This tree cut at `depth`: a split at that depth becomes a leaf of
    /// its majority class in `counts` (from [`Self::node_counts`]), and
    /// the kept nodes are renumbered in the pre-order `grow` emits.
    fn cut(&self, counts: &[Vec<usize>], depth: usize) -> Self {
        fn emit(
            nodes: &[TreeNode],
            counts: &[Vec<usize>],
            i: usize,
            depth_left: usize,
            out: &mut Vec<TreeNode>,
        ) -> usize {
            let me = out.len();
            match &nodes[i] {
                &TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } if depth_left > 0 => {
                    out.push(TreeNode::Leaf { class: 0 }); // placeholder
                    let left = emit(nodes, counts, left, depth_left - 1, out);
                    let right = emit(nodes, counts, right, depth_left - 1, out);
                    out[me] = TreeNode::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    };
                }
                TreeNode::Split { .. } => out.push(TreeNode::Leaf {
                    class: majority(&counts[i]),
                }),
                leaf => out.push(leaf.clone()),
            }
            me
        }
        let mut nodes = Vec::with_capacity(self.nodes.len());
        emit(&self.nodes, counts, 0, depth, &mut nodes);
        DecisionTree {
            nodes,
            n_classes: self.n_classes,
            n_features: self.n_features,
        }
    }

    /// Fits on a subset of samples, optionally restricting candidate
    /// features per split (used by random forests). `sample_indices` may
    /// repeat a sample (a bootstrap draw); every copy counts as a sample.
    pub fn fit_subset(
        data: &Dataset,
        sample_indices: &[usize],
        params: TreeParams,
        feature_subset: Option<&[usize]>,
    ) -> Self {
        grow(data, sample_indices, params, feature_subset)
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

/// Grows one tree on `sample` and publishes its search tally.
fn grow(
    data: &Dataset,
    sample: &[usize],
    params: TreeParams,
    feature_subset: Option<&[usize]>,
) -> DecisionTree {
    let _span = obs::span("ml.cart.fit");
    let features: Vec<usize> = match feature_subset {
        Some(f) => f.to_vec(),
        None => (0..data.n_features()).collect(),
    };
    let mut counts = vec![0usize; data.n_classes];
    for &i in sample {
        counts[data.y[i]] += 1;
    }
    let mut grower = Grower::new(data, sample, &features, params);
    grower.build(0, sample.len(), counts, params.max_depth);
    grower.tally.publish();
    DecisionTree {
        nodes: grower.nodes,
        n_classes: data.n_classes,
        n_features: data.n_features(),
    }
}

/// One `(feature value, sample index)` entry of a presorted feature list.
type Entry = (f64, u32);

/// Tree-growing state for one fit.
///
/// Every candidate feature is sorted once, up front, into a list of
/// `(value, sample)` entries (bootstrap duplicates included). A node owns
/// the same `start..end` range of every list, and splitting it stably
/// partitions each range into the left child's entries followed by the
/// right child's. Each list range therefore stays sorted, and the split
/// search reads it directly instead of re-sorting per node.
struct Grower<'a> {
    data: &'a Dataset,
    params: TreeParams,
    features: &'a [usize],
    /// One sorted list per candidate feature, each as long as the sample.
    lists: Vec<Vec<Entry>>,
    /// Per dataset row: does it go left at the split being applied?
    goes_left: Vec<bool>,
    /// Right-hand entries held back while a range is partitioned.
    spill: Vec<Entry>,
    sweep: Sweep,
    nodes: Vec<TreeNode>,
    tally: SearchTally,
}

impl<'a> Grower<'a> {
    fn new(data: &'a Dataset, sample: &[usize], features: &'a [usize], params: TreeParams) -> Self {
        let mut spare = Vec::new();
        let lists = features
            .iter()
            .map(|&f| {
                let mut list: Vec<Entry> = sample
                    .iter()
                    .map(|&i| {
                        let row = u32::try_from(i).expect("sample index fits in u32");
                        (data.x[i][f], row)
                    })
                    .collect();
                presort(&mut list, &mut spare);
                list
            })
            .collect();
        Grower {
            data,
            params,
            features,
            lists,
            goes_left: vec![false; data.len()],
            spill: Vec::with_capacity(sample.len()),
            sweep: Sweep::new(data.n_classes),
            nodes: Vec::new(),
            tally: SearchTally::default(),
        }
    }

    /// Grows the node holding list entries `start..end`, whose per-class
    /// sample counts are `counts`; returns the new node's index.
    fn build(&mut self, start: usize, end: usize, counts: Vec<usize>, depth_left: usize) -> usize {
        self.tally.nodes += 1;
        let len = end - start;
        let make_leaf = depth_left == 0
            || len < self.params.min_samples_split
            || gini(counts.iter().copied(), len) == 0.0
            || len == 0;
        let best = if make_leaf {
            None
        } else {
            self.best_split(start, end, &counts)
        };
        // Like scikit-learn's default CART, split on the best candidate
        // even at zero immediate gain (a zero-gain split can enable a
        // perfect split one level down — XOR being the canonical case).
        let Some((j, threshold)) = best else {
            self.nodes.push(TreeNode::Leaf {
                class: majority(&counts),
            });
            return self.nodes.len() - 1;
        };

        let mut left_counts = vec![0usize; counts.len()];
        for &(v, i) in &self.lists[j][start..end] {
            let left = v <= threshold;
            self.goes_left[i as usize] = left;
            if left {
                left_counts[self.data.y[i as usize]] += 1;
            }
        }
        let right_counts: Vec<usize> = counts
            .iter()
            .zip(&left_counts)
            .map(|(t, l)| t - l)
            .collect();
        let mid = start + left_counts.iter().sum::<usize>();
        // Children at the depth limit become leaves from their counts
        // alone; only children that may split need their ranges sorted.
        if depth_left > 1 {
            for list in &mut self.lists {
                stable_partition(&mut list[start..end], &self.goes_left, &mut self.spill);
            }
        }

        let me = self.nodes.len();
        self.nodes.push(TreeNode::Leaf { class: 0 }); // placeholder
        let left = self.build(start, mid, left_counts, depth_left - 1);
        let right = self.build(mid, end, right_counts, depth_left - 1);
        self.nodes[me] = TreeNode::Split {
            feature: self.features[j],
            threshold,
            left,
            right,
        };
        me
    }

    /// The winning `(feature list, threshold)` for the node `start..end`.
    ///
    /// Coarse scan with quantile-strided candidates, then a
    /// full-resolution rescan around the winning position (so
    /// subsampling never misses a clean cut sitting between strides).
    /// Candidate scoring uses one prefix-count sweep per feature
    /// (evaluate every threshold from cumulative class counts) instead of
    /// an O(n) rescan per candidate — the class counts, and therefore
    /// every Gini score, are the exact integers and floats the rescan
    /// produced.
    fn best_split(&mut self, start: usize, end: usize, counts: &[usize]) -> Option<(usize, f64)> {
        let mut best: Option<(f64, usize, f64, usize, usize)> = None; // (gini, j, thr, w, stride)
        for j in 0..self.features.len() {
            self.sweep.fill(&self.lists[j][start..end], &self.data.y);
            let sweep = &self.sweep;
            if sweep.vals.len() < 2 {
                continue;
            }
            let stride = (sweep.vals.len() / self.params.max_thresholds).max(1);
            for w in (0..sweep.vals.len() - 1).step_by(stride) {
                self.tally.candidates += 1;
                if let Some((thr, score)) = sweep.eval(w, counts) {
                    if best.is_none_or(|(b, ..)| score < b - 1e-15) {
                        best = Some((score, j, thr, w, stride));
                    }
                }
            }
        }
        // Local refinement of the winner.
        if let Some((_, j, _, w, stride)) = best {
            if stride > 1 {
                self.sweep.fill(&self.lists[j][start..end], &self.data.y);
                let sweep = &self.sweep;
                let lo = w.saturating_sub(stride);
                let hi = (w + stride).min(sweep.vals.len() - 1);
                for v in lo..hi {
                    self.tally.candidates += 1;
                    if let Some((thr, score)) = sweep.eval(v, counts) {
                        if best.is_none_or(|(b, ..)| score < b - 1e-15) {
                            best = Some((score, j, thr, v, stride));
                        }
                    }
                }
            }
        }
        best.map(|(_, j, thr, ..)| (j, thr))
    }
}

/// Sorts a feature list by value with a stable LSD radix sort on
/// [`order_key`], one byte per pass. Tied values keep their input order,
/// so the list equals `sort_by(partial_cmp)`'s except inside a run of
/// both signed zeros, where `-0.0` now comes first. Nothing downstream
/// reads tie order: the sweep keeps one count per distinct value and a
/// split partitions by value. A pass whose byte is the same for every
/// entry leaves the order as it is and is skipped.
///
/// # Panics
/// Panics if a value is NaN: it has no place in the order.
fn presort(list: &mut Vec<Entry>, spare: &mut Vec<Entry>) {
    #[cfg(test)]
    if tests::COMPARISON_PRESORT.get() {
        return tests::comparison_presort(list);
    }
    let mut counts = [[0usize; 256]; 8];
    let mut nan = false;
    for &(v, _) in list.iter() {
        nan |= v.is_nan();
        let key = order_key(v);
        for (byte, count) in counts.iter_mut().enumerate() {
            count[(key >> (8 * byte)) as usize & 0xff] += 1;
        }
    }
    assert!(!nan, "feature values are not NaN");
    let Some(&(first, _)) = list.first() else {
        return;
    };
    spare.clear();
    spare.resize(list.len(), (0.0, 0));
    for (byte, count) in counts.iter().enumerate() {
        let digit = |v: f64| (order_key(v) >> (8 * byte)) as usize & 0xff;
        if count[digit(first)] == list.len() {
            continue;
        }
        let mut next = [0usize; 256];
        let mut start = 0;
        for (next, &n) in next.iter_mut().zip(count) {
            *next = start;
            start += n;
        }
        for &e in list.iter() {
            let d = digit(e.0);
            spare[next[d]] = e;
            next[d] += 1;
        }
        std::mem::swap(list, spare);
    }
}

/// `v`'s bits mapped so that unsigned order is numeric order: a positive
/// value gets its sign bit set, a negative one has every bit flipped.
/// `-0.0` maps just below `+0.0`.
fn order_key(v: f64) -> u64 {
    let bits = v.to_bits();
    bits ^ (((bits as i64) >> 63) as u64 | 1 << 63)
}

/// Stably moves the entries whose row goes left to the front of `list`,
/// the rest after them, using `spill` as the holding buffer.
fn stable_partition(list: &mut [Entry], goes_left: &[bool], spill: &mut Vec<Entry>) {
    spill.clear();
    let mut kept = 0;
    for k in 0..list.len() {
        let e = list[k];
        if goes_left[e.1 as usize] {
            list[kept] = e;
            kept += 1;
        } else {
            spill.push(e);
        }
    }
    list[kept..].copy_from_slice(spill);
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
    /// Per-class counts of the entries read so far.
    running: Vec<usize>,
    classes: usize,
    n: usize,
}

impl Sweep {
    fn new(classes: usize) -> Sweep {
        Sweep {
            vals: Vec::new(),
            cum: Vec::new(),
            running: vec![0; classes],
            classes,
            n: 0,
        }
    }

    /// Rebuilds the sweep from one node's sorted feature list. Only the
    /// distinct values and the counts at each value's last entry are
    /// kept, so the order of tied entries cannot change the sweep.
    fn fill(&mut self, list: &[Entry], y: &[usize]) {
        self.vals.clear();
        self.cum.clear();
        self.running.fill(0);
        for &(v, i) in list {
            if self.vals.last() != Some(&v) {
                if !self.vals.is_empty() {
                    self.cum.extend_from_slice(&self.running);
                }
                self.vals.push(v);
            }
            self.running[y[i as usize]] += 1;
        }
        if !self.vals.is_empty() {
            self.cum.extend_from_slice(&self.running);
        }
        self.n = list.len();
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
        let rc = total.iter().zip(lc).map(|(&t, &l)| t - l);
        let score =
            (ln as f64 * gini(lc.iter().copied(), ln) + rn as f64 * gini(rc, rn)) / self.n as f64;
        // Tie-break toward balanced partitions: when several cuts achieve
        // the same impurity (e.g. every depth-1 cut of XOR data), a balanced
        // split gives the children the most room to improve.
        let imbalance = (ln as f64 - rn as f64).abs() / self.n as f64;
        Some((thr, score + imbalance * 1e-7))
    }
}

fn gini(counts: impl Iterator<Item = usize>, total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts.map(|c| (c as f64 / t).powi(2)).sum::<f64>()
}

fn majority(counts: &[usize]) -> usize {
    counts
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::forest::{ForestParams, RandomForest};
    use crate::metrics::accuracy;
    use crate::synth::Application;
    use exec::rng::StdRng;

    thread_local! {
        /// While set, [`presort`] runs [`comparison_presort`] instead.
        pub(super) static COMPARISON_PRESORT: Cell<bool> = const { Cell::new(false) };
    }

    /// The comparison presort the radix sort replaced, kept as its oracle.
    pub(super) fn comparison_presort(list: &mut [Entry]) {
        list.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("feature values are not NaN"));
    }

    fn with_comparison_presort<T>(fit: impl FnOnce() -> T) -> T {
        COMPARISON_PRESORT.set(true);
        let out = fit();
        COMPARISON_PRESORT.set(false);
        out
    }

    /// A value drawn from a small pool heavy in ties, signed zeros,
    /// subnormals and extremes, or uniform over a wide range.
    fn awkward_value(rng: &mut StdRng) -> f64 {
        const POOL: [f64; 14] = [
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            1e-310,
            -1e-310,
            f64::MIN_POSITIVE,
            1.0,
            -1.0,
            2.5,
            -2.5,
            f64::MAX,
            f64::NEG_INFINITY,
            f64::INFINITY,
        ];
        match rng.gen_range(0..3u32) {
            0 => POOL[rng.gen_range(0..POOL.len())],
            1 => rng.gen_range(-4.0..4.0),
            _ => rng.gen_range(-1e300..1e300),
        }
    }

    #[test]
    fn radix_presort_equals_the_comparison_sort() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut spare = Vec::new();
        for len in [0usize, 1, 2, 3, 17, 256, 1000] {
            for _ in 0..20 {
                let rows = len.max(1);
                let values: Vec<f64> = (0..rows).map(|_| awkward_value(&mut rng)).collect();
                // A bootstrap draw: rows repeat, each copy with its row's value.
                let list: Vec<Entry> = (0..len)
                    .map(|_| {
                        let i = rng.gen_range(0..rows);
                        (values[i], i as u32)
                    })
                    .collect();
                let mut radix = list.clone();
                presort(&mut radix, &mut spare);
                let mut reference = list.clone();
                comparison_presort(&mut reference);
                assert_eq!(radix.len(), reference.len());
                for (r, c) in radix.iter().zip(&reference) {
                    // Equal values; the same row unless both are zeros,
                    // whose run the radix sort orders by sign.
                    assert!(r.0 == c.0, "{r:?} vs {c:?}");
                    assert!(r.1 == c.1 || r.0 == 0.0, "{r:?} vs {c:?}");
                }
                // Exactly the stable sort by `total_cmp`, which only
                // adds `-0.0 < +0.0` to the comparison order.
                let mut total = list;
                total.sort_by(|a, b| a.0.total_cmp(&b.0));
                let bits = |l: &[Entry]| -> Vec<(u64, u32)> {
                    l.iter().map(|&(v, i)| (v.to_bits(), i)).collect()
                };
                assert_eq!(bits(&radix), bits(&total));
            }
        }
    }

    /// Rows whose features take few values, `-0.0` and `+0.0` among them
    /// in every order, with labels that depend on the features' signs.
    fn signed_zero_dataset() -> Dataset {
        let mut rng = StdRng::seed_from_u64(3);
        const VALUES: [f64; 7] = [-0.0, 0.0, 5e-324, -5e-324, 1.0, -1.0, 0.5];
        let x: Vec<Vec<f64>> = (0..400)
            .map(|_| {
                (0..5)
                    .map(|_| VALUES[rng.gen_range(0..VALUES.len())])
                    .collect()
            })
            .collect();
        let y = x
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let sign = r[0].is_sign_negative() as usize + 2 * (r[1] > 0.0) as usize;
                (sign + (r[2] < 0.0) as usize + (i % 13 == 0) as usize) % 3
            })
            .collect();
        Dataset::new("signed-zeros", x, y, 3)
    }

    #[test]
    fn trees_and_forests_match_the_comparison_presort_on_signed_zeros() {
        // Debug keeps a threshold's sign, which `==` on f64 ignores.
        let shown = |v: &dyn std::fmt::Debug| format!("{v:?}");
        let data = signed_zero_dataset();
        for depth in [1, 2, 4, 8] {
            let params = TreeParams {
                max_depth: depth,
                min_samples_split: 2,
                max_thresholds: 3,
            };
            let tree = DecisionTree::fit(&data, params);
            let reference = with_comparison_presort(|| DecisionTree::fit(&data, params));
            assert_eq!(shown(&tree), shown(&reference), "depth {depth}");
        }
        let depths = [1, 2, 4, 8];
        let trees = DecisionTree::fit_depths(&data, &depths);
        let reference = with_comparison_presort(|| DecisionTree::fit_depths(&data, &depths));
        assert_eq!(shown(&trees), shown(&reference));
        assert!(trees[3].comparison_count() > 8);
        let params = ForestParams::paper(8);
        let forest = RandomForest::fit(&data, params);
        let reference = with_comparison_presort(|| RandomForest::fit(&data, params));
        assert_eq!(shown(&forest), shown(&reference));
    }

    #[test]
    #[should_panic(expected = "feature values are not NaN")]
    fn a_nan_feature_is_rejected() {
        let mut data = signed_zero_dataset();
        data.x[17][3] = f64::NAN;
        DecisionTree::fit(&data, TreeParams::with_depth(2));
    }

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
    fn bootstrap_subset_fit_equals_fit_on_the_materialized_sample() {
        // Few distinct values per feature (heavy ties), one feature with
        // more distinct values than `max_thresholds` (strided scan plus
        // refinement), and a bootstrap sample full of duplicates.
        let x: Vec<Vec<f64>> = (0..240)
            .map(|i| {
                vec![
                    (i % 7) as f64,
                    ((i * 3) % 5) as f64 * 0.5,
                    ((i * 13) % 50) as f64 * 0.1,
                ]
            })
            .collect();
        let y: Vec<usize> = x
            .iter()
            .enumerate()
            .map(|(i, r)| ((r[0] + r[2] > 4.0) as usize + (i % 11 == 0) as usize) % 3)
            .collect();
        let d = Dataset::new("ties", x, y, 3);
        let mut rng = exec::rng::StdRng::seed_from_u64(5);
        let sample: Vec<usize> = (0..d.len()).map(|_| rng.gen_range(0..d.len())).collect();
        let mut seen = sample.clone();
        seen.sort_unstable();
        seen.dedup();
        assert!(seen.len() < sample.len(), "the sample must hold duplicates");
        let materialized = Dataset::new(
            "sample",
            sample.iter().map(|&i| d.x[i].clone()).collect(),
            sample.iter().map(|&i| d.y[i]).collect(),
            d.n_classes,
        );
        let params = TreeParams {
            max_depth: 6,
            min_samples_split: 2,
            max_thresholds: 4,
        };
        let subset = DecisionTree::fit_subset(&d, &sample, params, None);
        assert_eq!(subset, DecisionTree::fit(&materialized, params));
        assert!(subset.comparison_count() > 3);
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
