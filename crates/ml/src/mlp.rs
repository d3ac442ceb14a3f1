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

/// The dot product training and inference share, so both do the same
/// arithmetic in the same order.
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
        obs::counter_add("ml.mlp.fits", 1);
        obs::counter_add("ml.mlp.epochs", params.epochs as u64);
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut dims = vec![data.n_features()];
        dims.extend(&params.hidden);
        dims.push(data.n_classes);
        let mut net = FlatNet::new(dims, &mut rng);
        let mut grad = Grads {
            w: vec![0.0; net.w.len()],
            b: vec![0.0; net.b.len()],
        };
        let widest = net.dims.iter().copied().max().unwrap_or(0);
        let mut scratch = Scratch {
            acts: vec![0.0; net.b.len()],
            delta: vec![0.0; widest],
            prev: vec![0.0; widest],
        };

        let mut order: Vec<usize> = (0..data.len()).collect();
        for _ in 0..params.epochs {
            order.shuffle(&mut rng);
            for batch in order.chunks(16) {
                // Accumulate gradients over the batch.
                grad.w.fill(0.0);
                grad.b.fill(0.0);
                for &i in batch {
                    net.backprop(&data.x[i], data.y[i], &mut grad, &mut scratch);
                }
                let scale = params.lr / batch.len() as f64;
                for (w, g) in net.w.iter_mut().zip(&grad.w) {
                    *w -= scale * g;
                }
                for (b, g) in net.b.iter_mut().zip(&grad.b) {
                    *b -= scale * g;
                }
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

/// The network while it trains: every layer's `out × in` weights
/// row-major in one buffer, layer after layer, and all biases in another.
struct FlatNet {
    /// Layer widths, input first.
    dims: Vec<usize>,
    /// Start of layer `l`'s weights in `w`.
    w_off: Vec<usize>,
    /// Start of layer `l`'s biases in `b`, and of its outputs in
    /// [`Scratch::acts`].
    b_off: Vec<usize>,
    w: Vec<f64>,
    b: Vec<f64>,
}

/// Batch gradients, shaped like [`FlatNet`]'s buffers.
struct Grads {
    w: Vec<f64>,
    b: Vec<f64>,
}

/// Per-row working buffers, allocated once per fit.
struct Scratch {
    /// Every layer's outputs (after ReLU on hidden layers), at
    /// [`FlatNet::b_off`].
    acts: Vec<f64>,
    /// The error signal at the layer being back-propagated.
    delta: Vec<f64>,
    /// The error signal being formed for the layer below.
    prev: Vec<f64>,
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

    /// Adds one row's softmax cross-entropy gradients into `grad`.
    ///
    /// Every sum adds the same terms in the same order as a per-row,
    /// per-layer nested-`Vec` computation would, so the flat layout
    /// changes no bit of the trained weights.
    fn backprop(&self, x: &[f64], label: usize, grad: &mut Grads, s: &mut Scratch) {
        let last = self.layers() - 1;
        // Forward, caching every layer's activation.
        for l in 0..=last {
            let (n, m) = self.shape(l);
            let (below, here) = s.acts.split_at_mut(self.b_off[l]);
            let input = if l == 0 {
                x
            } else {
                &below[self.b_off[l - 1]..]
            };
            let w = self.weights(l);
            let b = &self.b[self.b_off[l]..];
            for (o, z) in here[..m].iter_mut().enumerate() {
                *z = dot(&w[o * n..][..n], input) + b[o];
                if l < last {
                    *z = z.max(0.0);
                }
            }
        }
        // Softmax gradient at the output.
        let (_, k) = self.shape(last);
        let out = &s.acts[self.b_off[last]..][..k];
        let delta = &mut s.delta[..k];
        let top = out.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for (e, v) in delta.iter_mut().zip(out) {
            *e = (v - top).exp();
        }
        let z: f64 = delta.iter().sum();
        for (c, d) in delta.iter_mut().enumerate() {
            *d = *d / z - (c == label) as usize as f64;
        }
        // Backward.
        for l in (0..=last).rev() {
            let (n, m) = self.shape(l);
            let input = if l == 0 {
                x
            } else {
                &s.acts[self.b_off[l - 1]..][..n]
            };
            let delta = &s.delta[..m];
            let gw = &mut grad.w[self.w_off[l]..];
            let gb = &mut grad.b[self.b_off[l]..];
            for (o, &d) in delta.iter().enumerate() {
                for (g, xi) in gw[o * n..][..n].iter_mut().zip(input) {
                    *g += d * xi;
                }
                gb[o] += d;
            }
            if l > 0 {
                let w = self.weights(l);
                let prev = &mut s.prev[..n];
                prev.fill(0.0);
                for (o, &d) in delta.iter().enumerate() {
                    for (p, w) in prev.iter_mut().zip(&w[o * n..][..n]) {
                        *p += d * w;
                    }
                }
                // ReLU derivative on the hidden activation.
                for (p, a) in prev.iter_mut().zip(input) {
                    if *a <= 0.0 {
                        *p = 0.0;
                    }
                }
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
