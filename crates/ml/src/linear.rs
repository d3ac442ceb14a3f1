//! Linear models: SVM regression (SVM-R), one-vs-one SVM classification
//! (SVM-C) and multinomial logistic regression (LR).
//!
//! SVM-R is the architecture the paper carries through the hardware study:
//! a single linear regressor over the class labels treated as reals, whose
//! output is snapped to the nearest label at inference (§III). SVM-C and LR
//! appear only in the Table II algorithm comparison, where their MAC counts
//! disqualify them for printed implementation.

use std::cmp::Ordering;

use exec::rng::{SliceRandom, StdRng};
use serde::{Deserialize, Serialize};

use crate::data::Dataset;

static SVM_FITS: obs::Counter = obs::Counter::new("ml.svm.fits");
static SVM_EPOCHS: obs::Counter = obs::Counter::new("ml.svm.epochs");
static SVMC_FITS: obs::Counter = obs::Counter::new("ml.svmc.fits");
static SVMC_EPOCHS: obs::Counter = obs::Counter::new("ml.svmc.epochs");
static LR_FITS: obs::Counter = obs::Counter::new("ml.lr.fits");
static LR_EPOCHS: obs::Counter = obs::Counter::new("ml.lr.epochs");

/// Linear SVM regressor over class labels (paper's SVM-R).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SvmRegressor {
    weights: Vec<f64>,
    bias: f64,
    n_classes: usize,
}

impl SvmRegressor {
    /// Fits by full-batch gradient descent on L2-regularized squared loss.
    ///
    /// Squared loss is the ε=0 limit of ε-insensitive SVR loss; for the
    /// hardware study only the trained coefficient vector matters. Cached
    /// by `(data, epochs, l2)` when the artifact cache is enabled.
    pub fn fit(data: &Dataset, epochs: usize, l2: f64) -> Self {
        cache::memo("ml.svm.fit", &(data, epochs, l2), || {
            Self::fit_impl(data, epochs, l2)
        })
    }

    fn fit_impl(data: &Dataset, epochs: usize, l2: f64) -> Self {
        let _span = obs::span("ml.svm.fit");
        SVM_FITS.incr();
        SVM_EPOCHS.add(epochs as u64);
        let d = data.n_features();
        let n = data.len() as f64;
        let (xt, blocked) = feature_major_blocks(data, SVM_ROWS);
        let mut w = vec![0.0; d];
        let mut b = 0.0;
        let lr = 0.5;
        for _ in 0..epochs {
            let mut gw = vec![0.0; d];
            let mut gb = 0.0;
            let labels = data.y[..blocked].chunks_exact(SVM_ROWS);
            for (x, labels) in xt.chunks_exact(d.max(1) * SVM_ROWS).zip(labels) {
                svm_block(x, labels, &w, b, &mut gw, &mut gb);
            }
            for (row, &label) in data.x[blocked..].iter().zip(&data.y[blocked..]) {
                let pred: f64 = w.iter().zip(row).map(|(wi, xi)| wi * xi).sum::<f64>() + b;
                let err = pred - label as f64;
                for (g, xi) in gw.iter_mut().zip(row) {
                    *g += err * xi;
                }
                gb += err;
            }
            for (wi, g) in w.iter_mut().zip(&gw) {
                *wi -= lr * (g / n + l2 * *wi);
            }
            b -= lr * gb / n;
        }
        SvmRegressor {
            weights: w,
            bias: b,
            n_classes: data.n_classes,
        }
    }

    /// The raw regression output `w·x + b`.
    pub fn decision(&self, row: &[f64]) -> f64 {
        self.weights
            .iter()
            .zip(row)
            .map(|(w, x)| w * x)
            .sum::<f64>()
            + self.bias
    }

    /// Nearest-label prediction (clamped to the class range).
    pub fn predict(&self, row: &[f64]) -> usize {
        let v = self.decision(row).round();
        (v.max(0.0) as usize).min(self.n_classes - 1)
    }

    /// Trained coefficients — hardwired by the bespoke SVM generator.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Trained intercept.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Number of classes the label range covers.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }
}

/// `data`'s leading rows in whole blocks of `rows`, each block
/// feature-major (row `i`'s feature `j` at
/// `xt[(i / rows * d + j) * rows + i % rows]`), and how many rows the
/// blocks hold. With no features to block there are none, and every row
/// takes its trainer's one-row path.
fn feature_major_blocks(data: &Dataset, rows: usize) -> (Vec<f64>, usize) {
    let d = data.n_features();
    let blocked = match d {
        0 => 0,
        _ => data.len() - data.len() % rows,
    };
    let mut xt = vec![0.0; d * blocked];
    for (i, row) in data.x[..blocked].iter().enumerate() {
        for (j, &x) in row.iter().take(d).enumerate() {
            xt[(i / rows * d + j) * rows + i % rows] = x;
        }
    }
    (xt, blocked)
}

/// Rows one [`svm_block`] scores against the weights.
const SVM_ROWS: usize = 16;

/// Adds the squared-loss gradients of one block of [`SVM_ROWS`] rows,
/// stored feature-major in `x` (`x[j * SVM_ROWS + r]`), to `gw` and `gb`.
/// Each weight is loaded once for all the rows' dot products, which run
/// as independent chains, and each gradient is read and written once.
///
/// Every scalar sum keeps the terms, start value and order of a
/// row-by-row loop (dot products start at `Iterator::sum`'s identity,
/// gradients add rows in dataset order), so the trained weights do not
/// move by a bit.
fn svm_block(x: &[f64], labels: &[usize], w: &[f64], b: f64, gw: &mut [f64], gb: &mut f64) {
    let mut pred = [crate::sum_start(); SVM_ROWS];
    for (wj, xj) in w.iter().zip(x.chunks_exact(SVM_ROWS)) {
        for (p, x) in pred.iter_mut().zip(xj) {
            *p += wj * x;
        }
    }
    let err: [f64; SVM_ROWS] = std::array::from_fn(|r| pred[r] + b - labels[r] as f64);
    for (g, xj) in gw.iter_mut().zip(x.chunks_exact(SVM_ROWS)) {
        let mut sum = *g;
        for (e, x) in err.iter().zip(xj) {
            sum += e * x;
        }
        *g = sum;
    }
    for e in err {
        *gb += e;
    }
}

/// One-vs-one linear SVM classifier (paper's SVM-C).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SvmClassifier {
    /// One `(class_a, class_b, weights, bias)` per unordered class pair.
    machines: Vec<(usize, usize, Vec<f64>, f64)>,
    n_classes: usize,
}

impl SvmClassifier {
    /// Fits `k(k-1)/2` pairwise hinge-loss SVMs with Pegasos-style SGD.
    pub fn fit(data: &Dataset, epochs: usize, lambda: f64, seed: u64) -> Self {
        cache::memo("ml.svmc.fit", &(data, epochs, seed, lambda), || {
            Self::fit_impl(data, epochs, lambda, seed)
        })
    }

    fn fit_impl(data: &Dataset, epochs: usize, lambda: f64, seed: u64) -> Self {
        let _span = obs::span("ml.svmc.fit");
        SVMC_FITS.incr();
        SVMC_EPOCHS.add(epochs as u64);
        let mut machines = Vec::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for a in 0..data.n_classes {
            for b in (a + 1)..data.n_classes {
                let idx: Vec<usize> = (0..data.len())
                    .filter(|&i| data.y[i] == a || data.y[i] == b)
                    .collect();
                let (w, bias) = if idx.is_empty() {
                    (vec![0.0; data.n_features()], 0.0)
                } else {
                    pegasos(data, &idx, a, epochs, lambda, &mut rng)
                };
                machines.push((a, b, w, bias));
            }
        }
        SvmClassifier {
            machines,
            n_classes: data.n_classes,
        }
    }

    /// Majority vote across all pairwise machines.
    pub fn predict(&self, row: &[f64]) -> usize {
        let mut votes = vec![0usize; self.n_classes];
        for (a, b, w, bias) in &self.machines {
            let score: f64 = w.iter().zip(row).map(|(wi, xi)| wi * xi).sum::<f64>() + bias;
            votes[if score >= 0.0 { *a } else { *b }] += 1;
        }
        votes
            .iter()
            .enumerate()
            .max_by_key(|(_, &v)| v)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Number of pairwise machines — Table II's `#C` for SVM-C.
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// Number of features per machine.
    pub fn n_features(&self) -> usize {
        self.machines.first().map_or(0, |(_, _, w, _)| w.len())
    }
}

/// Pegasos SGD for one binary problem; labels `+1` for `positive_class`.
fn pegasos(
    data: &Dataset,
    idx: &[usize],
    positive_class: usize,
    epochs: usize,
    lambda: f64,
    rng: &mut StdRng,
) -> (Vec<f64>, f64) {
    let d = data.n_features();
    let mut w = vec![0.0; d];
    let mut bias = 0.0;
    let mut t = 1usize;
    let mut order = idx.to_vec();
    for _ in 0..epochs {
        order.shuffle(rng);
        for &i in &order {
            let label = if data.y[i] == positive_class {
                1.0
            } else {
                -1.0
            };
            let eta = 1.0 / (lambda * t as f64);
            let margin: f64 = label
                * (w.iter()
                    .zip(&data.x[i])
                    .map(|(wi, xi)| wi * xi)
                    .sum::<f64>()
                    + bias);
            for wi in w.iter_mut() {
                *wi *= 1.0 - eta * lambda;
            }
            if margin < 1.0 {
                for (wi, xi) in w.iter_mut().zip(&data.x[i]) {
                    *wi += eta * label * xi;
                }
                bias += eta * label;
            }
            t += 1;
        }
    }
    (w, bias)
}

/// Multinomial logistic regression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogisticRegression {
    /// `n_classes × n_features` weight matrix.
    weights: Vec<Vec<f64>>,
    biases: Vec<f64>,
}

impl LogisticRegression {
    /// Fits by full-batch softmax gradient descent.
    pub fn fit(data: &Dataset, epochs: usize, lr: f64) -> Self {
        cache::memo("ml.lr.fit", &(data, epochs, lr), || {
            Self::fit_impl(data, epochs, lr)
        })
    }

    fn fit_impl(data: &Dataset, epochs: usize, lr: f64) -> Self {
        let _span = obs::span("ml.lr.fit");
        LR_FITS.incr();
        LR_EPOCHS.add(epochs as u64);
        let k = data.n_classes;
        let d = data.n_features();
        let n = data.len() as f64;
        let mut fit = LrEpoch {
            d,
            w: vec![0.0; k * d],
            b: vec![0.0; k],
            gw: vec![0.0; k * d],
            gb: vec![0.0; k],
            err: vec![0.0; LR_ROWS * k],
        };
        let (xt, blocked) = feature_major_blocks(data, LR_ROWS);
        for _ in 0..epochs {
            fit.gw.fill(0.0);
            fit.gb.fill(0.0);
            let xs = data.x[..blocked].chunks_exact(LR_ROWS);
            let ys = data.y[..blocked].chunks_exact(LR_ROWS);
            for ((x, y), xt) in xs.zip(ys).zip(xt.chunks_exact(d.max(1) * LR_ROWS)) {
                fit.scores::<LR_ROWS>(xt);
                fit.accumulate::<LR_ROWS>(x, y);
            }
            let xs = data.x[blocked..].chunks(1);
            for (x, y) in xs.zip(data.y[blocked..].chunks(1)) {
                // One row is its own feature-major block.
                fit.scores::<1>(&x[0][..d]);
                fit.accumulate::<1>(x, y);
            }
            for (wi, g) in fit.w.iter_mut().zip(&fit.gw) {
                *wi -= lr * g / n;
            }
            for (bc, g) in fit.b.iter_mut().zip(&fit.gb) {
                *bc -= lr * g / n;
            }
        }
        LogisticRegression {
            weights: (0..k).map(|c| fit.w[c * d..][..d].to_vec()).collect(),
            biases: fit.b,
        }
    }

    /// Argmax class prediction.
    pub fn predict(&self, row: &[f64]) -> usize {
        let s = scores(&self.weights, &self.biases, row);
        s.iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.weights.len()
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.weights.first().map_or(0, |w| w.len())
    }
}

fn scores(w: &[Vec<f64>], b: &[f64], row: &[f64]) -> Vec<f64> {
    w.iter()
        .zip(b)
        .map(|(wc, bc)| wc.iter().zip(row).map(|(wi, xi)| wi * xi).sum::<f64>() + bc)
        .collect()
}

/// Rows one [`LrEpoch::scores`] pass scores against each weight row.
const LR_ROWS: usize = 8;

/// One full-batch logistic-regression epoch in flight: the `k × d`
/// weights row-major, and the gradients being summed over the rows.
///
/// Every scalar sum keeps the terms, start value and order of a row-by-row
/// loop (dot products start at `Iterator::sum`'s identity, gradients at
/// `+0.0`, rows add in dataset order); only sums of different rows are
/// interleaved, so the trained weights do not move by a bit.
struct LrEpoch {
    d: usize,
    w: Vec<f64>,
    b: Vec<f64>,
    gw: Vec<f64>,
    gb: Vec<f64>,
    /// `k × R` scores of the rows in flight, class-major, then their
    /// softmax errors.
    err: Vec<f64>,
}

impl LrEpoch {
    /// Scores `R` rows held feature-major in `xt` (`xt[j * R + r]`) into
    /// `err`, two classes per pass so each row value loads once for both.
    fn scores<const R: usize>(&mut self, xt: &[f64]) {
        let d = self.d;
        let k = self.b.len();
        let w = |c: usize| &self.w[c * d..][..d];
        let err = &mut self.err[..R * k];
        let pairs = k - k % 2;
        for (c, err) in (0..pairs).step_by(2).zip(err.chunks_exact_mut(2 * R)) {
            let b = [self.b[c], self.b[c + 1]];
            score_classes::<R, 2>(xt, [w(c), w(c + 1)], b, err);
        }
        if pairs < k {
            score_classes::<R, 1>(xt, [w(pairs)], [self.b[pairs]], &mut err[pairs * R..]);
        }
    }

    /// Turns the `R` rows' scores into softmax errors and adds the rows'
    /// cross-entropy gradients. Each gradient is read and written once for
    /// all `R` rows.
    fn accumulate<const R: usize>(&mut self, x: &[Vec<f64>], y: &[usize]) {
        let d = self.d;
        let rows: [&[f64]; R] = std::array::from_fn(|r| &x[r][..d]);
        let err = &mut self.err[..R * self.b.len()];
        let mut top = [f64::NEG_INFINITY; R];
        for s in err.chunks_exact(R) {
            for (t, &v) in top.iter_mut().zip(s) {
                *t = t.max(v);
            }
        }
        for s in err.chunks_exact_mut(R) {
            for (v, t) in s.iter_mut().zip(&top) {
                *v = (*v - t).exp();
            }
        }
        let mut z = [crate::sum_start(); R];
        for s in err.chunks_exact(R) {
            for (z, &v) in z.iter_mut().zip(s) {
                *z += v;
            }
        }
        for (c, s) in err.chunks_exact_mut(R).enumerate() {
            for ((v, z), &label) in s.iter_mut().zip(&z).zip(y) {
                *v = *v / z - (c == label) as usize as f64;
            }
        }
        for (c, (gb, e)) in self.gb.iter_mut().zip(err.chunks_exact(R)).enumerate() {
            for (j, g) in self.gw[c * d..][..d].iter_mut().enumerate() {
                let mut sum = *g;
                for (er, row) in e.iter().zip(&rows) {
                    sum += er * row[j];
                }
                *g = sum;
            }
            for er in e {
                *gb += er;
            }
        }
    }
}

/// Scores `R` rows held feature-major in `xt` against `C` classes' weight
/// rows `w` and biases `b`, into `err` (`err[c * R + r]`).
fn score_classes<const R: usize, const C: usize>(
    xt: &[f64],
    w: [&[f64]; C],
    b: [f64; C],
    err: &mut [f64],
) {
    let mut acc = [[crate::sum_start(); R]; C];
    for (j, x) in xt.chunks_exact(R).enumerate() {
        for (acc, w) in acc.iter_mut().zip(&w) {
            let wj = w[j];
            for (a, x) in acc.iter_mut().zip(x) {
                *a += wj * x;
            }
        }
    }
    for ((err, acc), b) in err.chunks_exact_mut(R).zip(acc).zip(b) {
        for (e, a) in err.iter_mut().zip(acc) {
            *e = a + b;
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Standardizer;
    use crate::metrics::accuracy;
    use crate::synth::Application;

    fn prepared(app: Application) -> (Dataset, Dataset) {
        let data = app.generate(7);
        let (train, test) = data.split(0.7, 42);
        let s = Standardizer::fit(&train);
        (s.transform(&train), s.transform(&test))
    }

    #[test]
    fn svm_regressor_excels_on_ordinal_wine() {
        let (train, test) = prepared(Application::RedWine);
        let m = SvmRegressor::fit(&train, 300, 1e-4);
        let acc = accuracy(test.x.iter().map(|r| m.predict(r)), test.y.iter().copied()).unwrap();
        assert!(acc > 0.40, "SVM-R wine accuracy {acc}");
        assert_eq!(m.weights().len(), 11);
    }

    #[test]
    fn svm_regressor_struggles_on_nominal_many_class_data() {
        // The paper's SVM-R scores 0.19 on pendigits: nominal digit labels
        // have no ordinal structure for a regressor to exploit.
        let (train, test) = prepared(Application::Pendigits);
        let m = SvmRegressor::fit(&train, 300, 1e-4);
        let acc = accuracy(test.x.iter().map(|r| m.predict(r)), test.y.iter().copied()).unwrap();
        assert!(
            acc < 0.5,
            "SVM-R pendigits accuracy {acc} unexpectedly high"
        );
    }

    #[test]
    fn svm_classifier_machine_count_is_k_choose_2() {
        let (train, _) = prepared(Application::GasId);
        let m = SvmClassifier::fit(&train, 3, 1e-3, 7);
        assert_eq!(m.machine_count(), 6 * 5 / 2);
        assert_eq!(m.n_features(), 127);
    }

    #[test]
    fn svm_classifier_separates_har() {
        let (train, test) = prepared(Application::Har);
        let m = SvmClassifier::fit(&train, 8, 1e-3, 7);
        let acc = accuracy(test.x.iter().map(|r| m.predict(r)), test.y.iter().copied()).unwrap();
        assert!(acc > 0.9, "SVM-C HAR accuracy {acc}");
    }

    #[test]
    fn logistic_regression_learns_cardio() {
        let (train, test) = prepared(Application::Cardio);
        let m = LogisticRegression::fit(&train, 300, 0.5);
        let acc = accuracy(test.x.iter().map(|r| m.predict(r)), test.y.iter().copied()).unwrap();
        assert!(acc > 0.8, "LR cardio accuracy {acc}");
        assert_eq!(m.n_classes(), 3);
        assert_eq!(m.n_features(), 19);
    }
}
