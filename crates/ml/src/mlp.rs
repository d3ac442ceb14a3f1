//! Multi-layer perceptrons (paper's MLP-1 and MLP-3 baselines).
//!
//! Small ReLU networks — up to 5 nodes per hidden layer, 1 or 3 hidden
//! layers — trained with mini-batch SGD on softmax cross-entropy. They only
//! participate in the §III algorithm comparison: their MAC counts make them
//! prohibitively expensive in printed technologies.

use std::cmp::Ordering;

use exec::rng::{SliceRandom, StdRng};
use serde::{Deserialize, Serialize};

use crate::data::Dataset;

static FITS: obs::Counter = obs::Counter::new("ml.mlp.fits");
static EPOCHS: obs::Counter = obs::Counter::new("ml.mlp.epochs");

/// One dense layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Layer {
    /// `out × in` weights.
    w: Vec<Vec<f64>>,
    b: Vec<f64>,
}

impl Layer {
    fn forward(&self, x: &[f64]) -> Vec<f64> {
        self.w
            .iter()
            .zip(&self.b)
            .map(|(row, b)| dot(row, x) + b)
            .collect()
    }
}

/// The inference dot product. Training's forward pass sums the same
/// terms from the same start value in the same order, one batch row per
/// lane, so a trained model predicts what it was trained to.
fn dot(w: &[f64], x: &[f64]) -> f64 {
    w.iter().zip(x).map(|(w, v)| w * v).sum()
}

/// A trained MLP classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Layer>,
}

/// MLP hyper-parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpParams {
    /// Hidden layer widths (paper: `[5]` for MLP-1, `[5,5,5]` for MLP-3).
    pub hidden: Vec<usize>,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f64,
    /// RNG seed.
    pub seed: u64,
}

impl MlpParams {
    /// Paper configuration MLP-1: one hidden layer of up to 5 nodes.
    pub fn mlp1() -> Self {
        MlpParams {
            hidden: vec![5],
            epochs: 60,
            lr: 0.05,
            seed: 7,
        }
    }

    /// Paper configuration MLP-3: three hidden layers of up to 5 nodes.
    pub fn mlp3() -> Self {
        MlpParams {
            hidden: vec![5, 5, 5],
            epochs: 80,
            lr: 0.05,
            seed: 7,
        }
    }
}

impl cache::Hashable for MlpParams {
    /// The hidden widths carry no length prefix (the `cache-v1` key
    /// shape); the integer run still cannot alias, because `lr`'s float
    /// tag always ends it.
    fn stable_hash(&self, h: &mut cache::StableHasher) {
        for &width in &self.hidden {
            h.write_usize(width);
        }
        h.write_usize(self.epochs);
        h.write_u64(self.seed);
        h.write_f64(self.lr);
    }
}

impl Mlp {
    /// Trains with mini-batch SGD (batch 16) on softmax cross-entropy.
    /// Cached by `(data, params)` when the artifact cache is enabled.
    pub fn fit(data: &Dataset, params: &MlpParams) -> Self {
        cache::memo("ml.mlp.fit", &(data, params), || {
            Self::fit_impl(data, params)
        })
    }

    fn fit_impl(data: &Dataset, params: &MlpParams) -> Self {
        let _span = obs::span("ml.mlp.fit");
        FITS.incr();
        EPOCHS.add(params.epochs as u64);
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut dims = vec![data.n_features()];
        dims.extend(&params.hidden);
        dims.push(data.n_classes);
        let mut net = FlatNet::new(dims, &mut rng);
        let widest = net.dims.iter().copied().max().unwrap_or(0);
        let mut lanes = BatchLanes {
            input: vec![[0.0; BATCH]; data.n_features()],
            acts: vec![[0.0; BATCH]; net.b.len()],
            delta: vec![[0.0; BATCH]; widest],
            prev: vec![[0.0; BATCH]; widest],
            grad: vec![0.0; net.weights(0).len()],
        };

        let mut order: Vec<usize> = (0..data.len()).collect();
        for _ in 0..params.epochs {
            order.shuffle(&mut rng);
            for batch in order.chunks(BATCH) {
                net.train_batch(data, batch, params.lr, &mut lanes);
            }
        }
        net.into_mlp()
    }

    /// Argmax class prediction.
    pub fn predict(&self, row: &[f64]) -> usize {
        let mut act = row.to_vec();
        for (li, layer) in self.layers.iter().enumerate() {
            act = layer.forward(&act);
            if li + 1 < self.layers.len() {
                for v in &mut act {
                    *v = v.max(0.0);
                }
            }
        }
        act.iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Total multiply-accumulate count per inference — Table II's `#M`.
    pub fn mac_count(&self) -> usize {
        self.layers.iter().map(|l| l.w.len() * l.w[0].len()).sum()
    }

    /// Total ReLU evaluations per inference.
    pub fn relu_count(&self) -> usize {
        self.layers[..self.layers.len() - 1]
            .iter()
            .map(|l| l.b.len())
            .sum()
    }
}

/// Rows per SGD mini-batch, and lanes of [`BatchLanes`].
const BATCH: usize = 16;

/// One value per batch row.
type Lanes = [f64; BATCH];

/// The network while it trains: every layer's `out × in` weights
/// row-major in one buffer, layer after layer, and all biases in another.
///
/// It trains a whole mini-batch at once, one row per lane. Every scalar
/// sum keeps the terms, start value and order the row-by-row loop gave
/// it: dot products start at `Iterator::sum`'s identity, gradients and
/// back-propagated errors at `+0.0`, and gradients add the batch's rows
/// in order. Only independent sums run side by side, so the trained
/// weights do not move by a bit.
struct FlatNet {
    /// Layer widths, input first.
    dims: Vec<usize>,
    /// Start of layer `l`'s weights in `w`.
    w_off: Vec<usize>,
    /// Start of layer `l`'s biases in `b`, and of its outputs in
    /// [`BatchLanes::acts`].
    b_off: Vec<usize>,
    w: Vec<f64>,
    b: Vec<f64>,
}

/// A mini-batch's working buffers, feature-major with one lane per
/// batch row, allocated once per fit. Lanes past a short last batch hold
/// stale values that never reach a gradient.
struct BatchLanes {
    /// The batch's feature rows.
    input: Vec<Lanes>,
    /// Every layer's outputs (after ReLU on hidden layers), at
    /// [`FlatNet::b_off`].
    acts: Vec<Lanes>,
    /// The error signal at the layer being back-propagated.
    delta: Vec<Lanes>,
    /// The error signal being formed for the layer below.
    prev: Vec<Lanes>,
    /// The input layer's gradient sums, `out × in` row-major.
    grad: Vec<f64>,
}

impl FlatNet {
    /// He-style uniform initialization, drawing each layer's weights row
    /// by row.
    fn new(dims: Vec<usize>, rng: &mut StdRng) -> Self {
        let (mut w_off, mut b_off) = (Vec::new(), Vec::new());
        let (mut w, mut biases) = (Vec::new(), 0);
        for pair in dims.windows(2) {
            let (inputs, outputs) = (pair[0], pair[1]);
            w_off.push(w.len());
            b_off.push(biases);
            biases += outputs;
            let scale = (2.0 / inputs as f64).sqrt();
            w.extend((0..outputs * inputs).map(|_| rng.gen_range(-scale..scale)));
        }
        FlatNet {
            dims,
            w_off,
            b_off,
            w,
            b: vec![0.0; biases],
        }
    }

    fn layers(&self) -> usize {
        self.dims.len() - 1
    }

    /// Layer `l`'s `(inputs, outputs)`.
    fn shape(&self, l: usize) -> (usize, usize) {
        (self.dims[l], self.dims[l + 1])
    }

    /// Layer `l`'s weights.
    fn weights(&self, l: usize) -> &[f64] {
        let (n, m) = self.shape(l);
        &self.w[self.w_off[l]..][..m * n]
    }

    /// One SGD step on the rows `batch` of `data`: softmax cross-entropy
    /// gradients summed over the batch, then every weight moves once.
    fn train_batch(&mut self, data: &Dataset, batch: &[usize], lr: f64, s: &mut BatchLanes) {
        for (lane, &i) in batch.iter().enumerate() {
            for (x, &v) in s.input.iter_mut().zip(&data.x[i]) {
                x[lane] = v;
            }
        }
        let mut labels = [usize::MAX; BATCH];
        for (label, &i) in labels.iter_mut().zip(batch) {
            *label = data.y[i];
        }
        let last = self.layers() - 1;
        // Forward, caching every layer's activation.
        for l in 0..=last {
            let (n, m) = self.shape(l);
            let (below, here) = s.acts.split_at_mut(self.b_off[l]);
            let input = if l == 0 {
                &s.input[..n]
            } else {
                &below[self.b_off[l - 1]..][..n]
            };
            let w = self.weights(l);
            let b = &self.b[self.b_off[l]..];
            for (o, z) in here[..m].iter_mut().enumerate() {
                let mut acc: Lanes = [crate::sum_start(); BATCH];
                for (wj, x) in w[o * n..][..n].iter().zip(input) {
                    for (a, v) in acc.iter_mut().zip(x) {
                        *a += wj * v;
                    }
                }
                for (zl, a) in z.iter_mut().zip(acc) {
                    *zl = a + b[o];
                    if l < last {
                        *zl = zl.max(0.0);
                    }
                }
            }
        }
        // Softmax gradient at the output.
        let (_, k) = self.shape(last);
        let out = &s.acts[self.b_off[last]..][..k];
        let delta = &mut s.delta[..k];
        let mut top: Lanes = [f64::NEG_INFINITY; BATCH];
        for v in out {
            for (t, v) in top.iter_mut().zip(v) {
                *t = t.max(*v);
            }
        }
        for (e, v) in delta.iter_mut().zip(out) {
            for ((e, v), t) in e.iter_mut().zip(v).zip(&top) {
                *e = (v - t).exp();
            }
        }
        let mut z: Lanes = [crate::sum_start(); BATCH];
        for e in delta.iter() {
            for (z, e) in z.iter_mut().zip(e) {
                *z += e;
            }
        }
        for (c, d) in delta.iter_mut().enumerate() {
            for ((d, z), &label) in d.iter_mut().zip(&z).zip(&labels) {
                *d = *d / z - (c == label) as usize as f64;
            }
        }
        // Backward. A layer's error for the layer below is formed from its
        // weights before they move; the layers below never read them again.
        let scale = lr / batch.len() as f64;
        for l in (0..=last).rev() {
            let (n, m) = self.shape(l);
            let delta = &s.delta[..m];
            if l == 0 {
                // The input layer's gradients sum `d·x` over the batch's
                // rows of `data.x`, four rows per pass over the sums.
                let g = &mut s.grad[..m * n];
                g.fill(0.0);
                let mut groups = batch.chunks_exact(4);
                for (lane, group) in (0..).step_by(4).zip(&mut groups) {
                    let rows: [_; 4] = std::array::from_fn(|r| &data.x[group[r]][..n]);
                    add_row_terms(g, delta, lane, rows);
                }
                let tail = batch.len() - groups.remainder().len();
                for (lane, &i) in (tail..).zip(groups.remainder()) {
                    add_row_terms(g, delta, lane, [&data.x[i][..n]]);
                }
                for (w, g) in self.w[..m * n].iter_mut().zip(&*g) {
                    *w -= scale * g;
                }
            } else {
                let input = &s.acts[self.b_off[l - 1]..][..n];
                let w = self.weights(l);
                for (j, (p, a)) in s.prev[..n].iter_mut().zip(input).enumerate() {
                    let mut e: Lanes = [0.0; BATCH];
                    for (o, d) in delta.iter().enumerate() {
                        let wj = w[o * n + j];
                        for (e, d) in e.iter_mut().zip(d) {
                            *e += d * wj;
                        }
                    }
                    // ReLU derivative on the hidden activation, as a mask:
                    // `+0.0` where `a <= 0.0`, else `e` (a NaN `a` keeps it).
                    for ((p, e), a) in p.iter_mut().zip(e).zip(a) {
                        let keep = ((*a <= 0.0) as u64).wrapping_sub(1);
                        *p = f64::from_bits(e.to_bits() & keep);
                    }
                }
                let w = &mut self.w[self.w_off[l]..][..m * n];
                for (o, d) in delta.iter().enumerate() {
                    let d = &d[..batch.len()];
                    for (w, x) in w[o * n..][..n].iter_mut().zip(input) {
                        let mut g = 0.0;
                        for (d, x) in d.iter().zip(x) {
                            g += d * x;
                        }
                        *w -= scale * g;
                    }
                }
            }
            let b = &mut self.b[self.b_off[l]..][..m];
            for (o, d) in delta.iter().enumerate() {
                let mut gb = 0.0;
                for d in &d[..batch.len()] {
                    gb += d;
                }
                b[o] -= scale * gb;
            }
            if l > 0 {
                std::mem::swap(&mut s.delta, &mut s.prev);
            }
        }
    }

    /// The trained network in its nested, serialized form.
    fn into_mlp(self) -> Mlp {
        let layers = (0..self.layers())
            .map(|l| {
                let (n, m) = self.shape(l);
                let w = self.weights(l);
                Layer {
                    w: (0..m).map(|o| w[o * n..][..n].to_vec()).collect(),
                    b: self.b[self.b_off[l]..][..m].to_vec(),
                }
            })
            .collect();
        Mlp { layers }
    }
}

/// Adds the `d·x` terms of batch rows `lane..lane + R` to `g`, the input
/// layer's gradient sums (`m × n` row-major, one row of `delta` per
/// output), each sum taking the rows in order. `x` holds the rows'
/// features; the sums of one output run side by side across them.
fn add_row_terms<const R: usize>(g: &mut [f64], delta: &[Lanes], lane: usize, x: [&[f64]; R]) {
    let n = x[0].len();
    for (o, d) in delta.iter().enumerate() {
        let d: [f64; R] = std::array::from_fn(|r| d[lane + r]);
        for (j, g) in g[o * n..][..n].iter_mut().enumerate() {
            let mut sum = *g;
            for (d, x) in d.iter().zip(&x) {
                sum += d * x[j];
            }
            *g = sum;
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

    #[test]
    fn mlp_learns_separable_clusters() {
        let data = Application::Har.generate(7);
        let (train, test) = data.split(0.7, 42);
        let s = Standardizer::fit(&train);
        let (train, test) = (s.transform(&train), s.transform(&test));
        let m = Mlp::fit(&train, &MlpParams::mlp1());
        let acc = accuracy(test.x.iter().map(|r| m.predict(r)), test.y.iter().copied()).unwrap();
        assert!(acc > 0.9, "MLP-1 HAR accuracy {acc}");
    }

    #[test]
    fn mac_counts_match_architecture() {
        let data = Application::Har.generate(7); // 12 features, 5 classes
        let m1 = Mlp::fit(
            &data,
            &MlpParams {
                epochs: 1,
                ..MlpParams::mlp1()
            },
        );
        // 12*5 + 5*5 = 85, exactly the paper's HAR MLP-1 entry.
        assert_eq!(m1.mac_count(), 85);
        assert_eq!(m1.relu_count(), 5);
        let m3 = Mlp::fit(
            &data,
            &MlpParams {
                epochs: 1,
                ..MlpParams::mlp3()
            },
        );
        // 12*5 + 5*5 + 5*5 + 5*5 = 135.
        assert_eq!(m3.mac_count(), 135);
        assert_eq!(m3.relu_count(), 15);
    }

    #[test]
    fn training_is_deterministic() {
        let data = Application::Cardio.generate(7);
        let a = Mlp::fit(
            &data,
            &MlpParams {
                epochs: 2,
                ..MlpParams::mlp1()
            },
        );
        let b = Mlp::fit(
            &data,
            &MlpParams {
                epochs: 2,
                ..MlpParams::mlp1()
            },
        );
        assert_eq!(a, b);
    }

    #[test]
    fn no_hidden_layer_is_one_softmax_layer() {
        let data = Application::Cardio.generate(7);
        let params = MlpParams {
            hidden: vec![],
            epochs: 2,
            ..MlpParams::mlp1()
        };
        let m = Mlp::fit(&data, &params);
        assert_eq!(m.mac_count(), data.n_features() * data.n_classes);
        assert_eq!(m.relu_count(), 0);
        assert_eq!(m, Mlp::fit(&data, &params));
    }

    #[test]
    fn a_short_last_batch_trains_identically_twice() {
        let data = Application::Har.generate(7);
        let (train, _) = data.split(0.7, 42);
        let rows = 16 * 9 + 5;
        let data = Dataset::new(
            "short",
            train.x[..rows].to_vec(),
            train.y[..rows].to_vec(),
            train.n_classes,
        );
        let params = MlpParams {
            epochs: 3,
            ..MlpParams::mlp3()
        };
        let a = Mlp::fit(&data, &params);
        assert_eq!(a, Mlp::fit(&data, &params));
        assert!(data.x.iter().all(|r| a.predict(r) < data.n_classes));
    }

    #[test]
    fn predictions_are_valid_classes() {
        let data = Application::Pendigits.generate(7);
        let m = Mlp::fit(
            &data,
            &MlpParams {
                epochs: 1,
                ..MlpParams::mlp1()
            },
        );
        for row in data.x.iter().take(20) {
            assert!(m.predict(row) < data.n_classes);
        }
    }
}
