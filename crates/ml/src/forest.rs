//! Random forests: bagged CART ensembles with per-tree feature subsets.
//!
//! The paper evaluates RF-2/4/8 (2, 4, 8 estimators, max depth 8 each) and
//! observes they trade area for accuracy; since "Decision Trees are the
//! kernel of a Random Forest ensemble", every tree-level hardware
//! optimization composes — which is why the detailed hardware study uses
//! single trees.

use exec::rng::{SliceRandom, StdRng};
use serde::{Deserialize, Serialize};

use crate::data::Dataset;
use crate::tree::{DecisionTree, TreeParams};

/// Random-forest hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForestParams {
    /// Number of trees (paper: 2, 4, 8).
    pub n_trees: usize,
    /// Per-tree CART parameters (paper: max depth 8).
    pub tree: TreeParams,
    /// RNG seed for bagging and feature subsets.
    pub seed: u64,
}

impl ForestParams {
    /// Paper configuration RF-`n`: `n` trees of depth ≤ 8.
    pub fn paper(n_trees: usize) -> Self {
        ForestParams {
            n_trees,
            tree: TreeParams::with_depth(8),
            seed: 7,
        }
    }
}

impl cache::Hashable for ForestParams {
    fn stable_hash(&self, h: &mut cache::StableHasher) {
        h.write_usize(self.n_trees);
        self.tree.stable_hash(h);
        h.write_u64(self.seed);
    }
}

/// A trained random forest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

impl RandomForest {
    /// Fits `params.n_trees` bagged trees, each restricted to a random
    /// `sqrt(n_features)`-sized feature subset. Cached by
    /// `(data, params)` when the artifact cache is enabled.
    pub fn fit(data: &Dataset, params: ForestParams) -> Self {
        cache::memo("ml.forest.fit", &(data, params), || {
            Self::fit_impl(data, params)
        })
    }

    fn fit_impl(data: &Dataset, params: ForestParams) -> Self {
        let _span = obs::span("ml.forest.fit");
        let mut rng = StdRng::seed_from_u64(params.seed);
        let n = data.len();
        let subset_size = ((data.n_features() as f64).sqrt().ceil() as usize)
            .max(1)
            .min(data.n_features());
        let trees = (0..params.n_trees)
            .map(|_| {
                let sample: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                let mut features: Vec<usize> = (0..data.n_features()).collect();
                features.shuffle(&mut rng);
                features.truncate(subset_size.max(2).min(data.n_features()));
                DecisionTree::fit_subset(data, &sample, params.tree, Some(&features))
            })
            .collect();
        RandomForest {
            trees,
            n_classes: data.n_classes,
        }
    }

    /// Majority-vote prediction (ties break toward the lower class index).
    pub fn predict(&self, row: &[f64]) -> usize {
        let mut votes = vec![0usize; self.n_classes];
        for t in &self.trees {
            votes[t.predict(row)] += 1;
        }
        votes
            .iter()
            .enumerate()
            .max_by_key(|(_, &v)| v)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// The forest of this one's first `n` trees (all of them when `n` is
    /// larger). The trees draw their bootstrap samples and feature subsets
    /// from one sequential RNG stream, so the first `n` trees of a fit
    /// with `params` are the fit with `params.n_trees = n`.
    pub fn prefix(&self, n: usize) -> RandomForest {
        RandomForest {
            trees: self.trees.iter().take(n).cloned().collect(),
            n_classes: self.n_classes,
        }
    }

    /// The ensemble members.
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Total comparison count across all member trees — Table II's `#C`.
    pub fn comparison_count(&self) -> usize {
        self.trees.iter().map(|t| t.comparison_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use crate::synth::Application;

    #[test]
    fn forest_beats_or_matches_single_tree_on_noisy_data() {
        let data = Application::Pendigits.generate(7);
        let (train, test) = data.split(0.7, 42);
        let tree = DecisionTree::fit(&train, TreeParams::with_depth(4));
        let forest = RandomForest::fit(
            &train,
            ForestParams {
                n_trees: 8,
                tree: TreeParams::with_depth(8),
                seed: 7,
            },
        );
        let ta = accuracy(
            test.x.iter().map(|r| tree.predict(r)),
            test.y.iter().copied(),
        )
        .unwrap();
        let fa = accuracy(
            test.x.iter().map(|r| forest.predict(r)),
            test.y.iter().copied(),
        )
        .unwrap();
        assert!(fa >= ta - 0.02, "forest {fa} vs tree {ta}");
    }

    #[test]
    fn more_trees_mean_more_comparisons() {
        let data = Application::Cardio.generate(7);
        let f2 = RandomForest::fit(&data, ForestParams::paper(2));
        let f8 = RandomForest::fit(&data, ForestParams::paper(8));
        assert_eq!(f2.trees().len(), 2);
        assert_eq!(f8.trees().len(), 8);
        assert!(f8.comparison_count() > f2.comparison_count());
    }

    #[test]
    fn fit_is_deterministic_in_seed() {
        let data = Application::Har.generate(7);
        let a = RandomForest::fit(&data, ForestParams::paper(4));
        let b = RandomForest::fit(&data, ForestParams::paper(4));
        assert_eq!(a, b);
    }

    #[test]
    fn predict_is_within_class_range() {
        let data = Application::GasId.generate(7);
        let f = RandomForest::fit(&data, ForestParams::paper(2));
        for row in data.x.iter().take(50) {
            assert!(f.predict(row) < data.n_classes);
        }
    }
}
