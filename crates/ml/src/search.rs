//! Randomized hyper-parameter search with k-fold cross-validation.
//!
//! A lightweight analogue of scikit-learn's `RandomizedSearchCV` used in
//! §III: sample hyper-parameter candidates, score each by k-fold CV
//! accuracy on the training set, keep the best.
//!
//! The `candidate × fold` grid is sharded over [`exec::parallel_map`]:
//! every candidate is drawn from the seeded RNG *before* any fit runs
//! (fits never touch the search RNG, so the candidate sequence matches
//! the original serial scan exactly), fold scores are summed in fold
//! order per candidate, and the winner is the first candidate whose mean
//! strictly beats all predecessors — bit-identical to the serial scan at
//! any thread count.

use exec::rng::{SliceRandom, StdRng};

use crate::data::Dataset;
use crate::linear::SvmRegressor;
use crate::metrics::accuracy;
use crate::tree::{DecisionTree, TreeParams};

/// Hyper-parameter searches run (one per `search_*_params` call).
static SEARCH_RUNS: obs::Counter = obs::Counter::new("ml.search.runs");
/// `(candidate, fold)` CV tasks scored across all searches.
static SEARCH_TASKS: obs::Counter = obs::Counter::new("ml.search.tasks");

/// Deterministic k-fold index split.
///
/// Returns `k` pairs of (train indices, validation indices).
///
/// # Panics
/// Panics if `k < 2` or `k > n`.
pub fn kfold(n: usize, k: usize, seed: u64) -> Vec<(Vec<usize>, Vec<usize>)> {
    assert!(k >= 2 && k <= n, "need 2 <= k <= n");
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    idx.shuffle(&mut rng);
    (0..k)
        .map(|fold| {
            let val: Vec<usize> = idx.iter().copied().skip(fold).step_by(k).collect();
            let train: Vec<usize> = idx
                .iter()
                .copied()
                .enumerate()
                .filter(|(pos, _)| pos % k != fold)
                .map(|(_, i)| i)
                .collect();
            (train, val)
        })
        .collect()
}

fn subset(data: &Dataset, idx: &[usize]) -> Dataset {
    Dataset::new(
        data.name.clone(),
        idx.iter().map(|&i| data.x[i].clone()).collect(),
        idx.iter().map(|&i| data.y[i]).collect(),
        data.n_classes,
    )
}

/// Scores every `(candidate, fold)` cell of the CV grid in parallel and
/// reduces candidate-major: fold scores are summed in fold order and the
/// first candidate strictly beating all predecessors wins — exactly the
/// reduction the original serial double loop performed.
fn grid_search<C: Copy + Sync>(
    data: &Dataset,
    splits: &[(Vec<usize>, Vec<usize>)],
    candidates: &[C],
    fit_score: impl Fn(&Dataset, &Dataset, C) -> f64 + Sync,
) -> usize {
    SEARCH_RUNS.incr();
    let _span = obs::span("ml.search");
    // Fold datasets are identical across candidates; materialize once.
    let folds: Vec<(Dataset, Dataset)> = splits
        .iter()
        .map(|(tr, va)| (subset(data, tr), subset(data, va)))
        .collect();
    let tasks: Vec<(usize, usize)> = (0..candidates.len())
        .flat_map(|c| (0..folds.len()).map(move |f| (c, f)))
        .collect();
    SEARCH_TASKS.add(tasks.len() as u64);
    let scores = exec::parallel_map(&tasks, |_, &(c, f)| {
        let (train, val) = &folds[f];
        fit_score(train, val, candidates[c])
    });
    let mut best = (f64::NEG_INFINITY, 0usize);
    for (c, chunk) in scores.chunks(folds.len()).enumerate() {
        // Sum in fold order, then divide — the serial accumulation order.
        let mut score = 0.0;
        for s in chunk {
            score += s;
        }
        score /= folds.len() as f64;
        if score > best.0 {
            best = (score, c);
        }
    }
    best.1
}

/// Randomized search over CART stopping parameters for a fixed depth.
///
/// Samples `iters` candidates of `(min_samples_split, max_thresholds)` and
/// returns the parameters with the best mean CV accuracy. The CV grid is
/// sharded over the [`exec`] pool; the winner is bit-identical at any
/// thread count, and the whole search result is cached when the artifact
/// cache is enabled.
pub fn search_tree_params(
    data: &Dataset,
    depth: usize,
    iters: usize,
    folds: usize,
    seed: u64,
) -> TreeParams {
    cache::memo("ml.search.tree", &(data, depth, iters, folds, seed), || {
        search_tree_params_impl(data, depth, iters, folds, seed)
    })
}

fn search_tree_params_impl(
    data: &Dataset,
    depth: usize,
    iters: usize,
    folds: usize,
    seed: u64,
) -> TreeParams {
    let mut rng = StdRng::seed_from_u64(seed);
    let splits = kfold(data.len(), folds, seed);
    // Draw all candidates up front: fitting never consumes this RNG, so
    // the sequence matches the original draw-then-fit serial loop.
    let candidates: Vec<TreeParams> = (0..iters)
        .map(|_| TreeParams {
            max_depth: depth,
            min_samples_split: *[2usize, 4, 8, 16].choose(&mut rng).unwrap(),
            max_thresholds: *[16usize, 32, 64].choose(&mut rng).unwrap(),
        })
        .collect();
    let win = grid_search(data, &splits, &candidates, |train, val, cand| {
        let tree = DecisionTree::fit(train, cand);
        accuracy(val.x.iter().map(|r| tree.predict(r)), val.y.iter().copied())
            .expect("CV folds are non-empty and aligned")
    });
    candidates
        .get(win)
        .copied()
        .unwrap_or(TreeParams::with_depth(depth))
}

/// Randomized search over SVM-R regularization and epochs.
///
/// Returns `(epochs, l2)` with the best mean CV accuracy. Sharded and
/// cached exactly like [`search_tree_params`].
pub fn search_svm_params(data: &Dataset, iters: usize, folds: usize, seed: u64) -> (usize, f64) {
    cache::memo("ml.search.svm", &(data, iters, folds, seed), || {
        search_svm_params_impl(data, iters, folds, seed)
    })
}

fn search_svm_params_impl(data: &Dataset, iters: usize, folds: usize, seed: u64) -> (usize, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let splits = kfold(data.len(), folds, seed);
    let candidates: Vec<(usize, f64)> = (0..iters)
        .map(|_| {
            (
                *[100usize, 200, 300].choose(&mut rng).unwrap(),
                *[1e-5, 1e-4, 1e-3, 1e-2].choose(&mut rng).unwrap(),
            )
        })
        .collect();
    let win = grid_search(data, &splits, &candidates, |train, val, (epochs, l2)| {
        let svm = SvmRegressor::fit(train, epochs, l2);
        accuracy(val.x.iter().map(|r| svm.predict(r)), val.y.iter().copied())
            .expect("CV folds are non-empty and aligned")
    });
    candidates.get(win).copied().unwrap_or((200, 1e-4))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::Application;

    #[test]
    fn kfold_partitions_exactly() {
        let folds = kfold(103, 5, 9);
        assert_eq!(folds.len(), 5);
        let mut all_val: Vec<usize> = folds.iter().flat_map(|(_, v)| v.clone()).collect();
        all_val.sort_unstable();
        assert_eq!(all_val, (0..103).collect::<Vec<_>>());
        for (tr, va) in &folds {
            assert_eq!(tr.len() + va.len(), 103);
            assert!(va.iter().all(|i| !tr.contains(i)));
        }
    }

    #[test]
    fn kfold_is_deterministic() {
        assert_eq!(kfold(50, 5, 3), kfold(50, 5, 3));
        assert_ne!(kfold(50, 5, 3), kfold(50, 5, 4));
    }

    #[test]
    fn tree_search_returns_requested_depth() {
        let d = Application::RedWine.generate(7);
        let p = search_tree_params(&d, 4, 3, 3, 7);
        assert_eq!(p.max_depth, 4);
    }

    #[test]
    fn svm_search_returns_sane_candidates() {
        let d = Application::Har.generate(7);
        let (epochs, l2) = search_svm_params(&d, 2, 3, 7);
        assert!([100, 200, 300].contains(&epochs));
        assert!(l2 > 0.0 && l2 <= 1e-2);
    }
}
