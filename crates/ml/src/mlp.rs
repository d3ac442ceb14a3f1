//! Multi-layer perceptrons (paper's MLP-1 and MLP-3 baselines).
//!
//! Small ReLU networks — up to 5 nodes per hidden layer, 1 or 3 hidden
//! layers — trained with mini-batch SGD on softmax cross-entropy. They only
//! participate in the §III algorithm comparison: their MAC counts make them
//! prohibitively expensive in printed technologies.

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
    fn new(inputs: usize, outputs: usize, rng: &mut StdRng) -> Self {
        let scale = (2.0 / inputs as f64).sqrt();
        Layer {
            w: (0..outputs)
                .map(|_| (0..inputs).map(|_| rng.gen_range(-scale..scale)).collect())
                .collect(),
            b: vec![0.0; outputs],
        }
    }

    fn forward(&self, x: &[f64]) -> Vec<f64> {
        self.w
            .iter()
            .zip(&self.b)
            .map(|(row, b)| row.iter().zip(x).map(|(w, v)| w * v).sum::<f64>() + b)
            .collect()
    }
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
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut dims = vec![data.n_features()];
        dims.extend(&params.hidden);
        dims.push(data.n_classes);
        let mut layers: Vec<Layer> = dims
            .windows(2)
            .map(|w| Layer::new(w[0], w[1], &mut rng))
            .collect();

        let mut order: Vec<usize> = (0..data.len()).collect();
        for _ in 0..params.epochs {
            order.shuffle(&mut rng);
            for batch in order.chunks(16) {
                // Accumulate gradients over the batch.
                let mut gw: Vec<Vec<Vec<f64>>> = layers
                    .iter()
                    .map(|l| vec![vec![0.0; l.w[0].len()]; l.w.len()])
                    .collect();
                let mut gb: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
                for &i in batch {
                    backprop(&layers, &data.x[i], data.y[i], &mut gw, &mut gb);
                }
                let scale = params.lr / batch.len() as f64;
                for (l, (gwl, gbl)) in layers.iter_mut().zip(gw.iter().zip(&gb)) {
                    for (wrow, grow) in l.w.iter_mut().zip(gwl) {
                        for (w, g) in wrow.iter_mut().zip(grow) {
                            *w -= scale * g;
                        }
                    }
                    for (b, g) in l.b.iter_mut().zip(gbl) {
                        *b -= scale * g;
                    }
                }
            }
        }
        Mlp { layers }
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
            .max_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap())
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

fn backprop(
    layers: &[Layer],
    x: &[f64],
    label: usize,
    gw: &mut [Vec<Vec<f64>>],
    gb: &mut [Vec<f64>],
) {
    // Forward with cached activations.
    let mut acts: Vec<Vec<f64>> = vec![x.to_vec()];
    for (li, layer) in layers.iter().enumerate() {
        let mut z = layer.forward(acts.last().unwrap());
        if li + 1 < layers.len() {
            for v in &mut z {
                *v = v.max(0.0);
            }
        }
        acts.push(z);
    }
    // Softmax gradient at the output.
    let out = acts.last().unwrap();
    let m = out.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = out.iter().map(|v| (v - m).exp()).collect();
    let z: f64 = exps.iter().sum();
    let mut delta: Vec<f64> = exps
        .iter()
        .enumerate()
        .map(|(c, e)| e / z - (c == label) as usize as f64)
        .collect();
    // Backward.
    for li in (0..layers.len()).rev() {
        let input = &acts[li];
        for (o, d) in delta.iter().enumerate() {
            for (g, xi) in gw[li][o].iter_mut().zip(input) {
                *g += d * xi;
            }
            gb[li][o] += d;
        }
        if li > 0 {
            let layer = &layers[li];
            let mut prev = vec![0.0; input.len()];
            for (o, d) in delta.iter().enumerate() {
                for (p, w) in prev.iter_mut().zip(&layer.w[o]) {
                    *p += d * w;
                }
            }
            // ReLU derivative on the hidden activation.
            for (p, a) in prev.iter_mut().zip(&acts[li]) {
                if *a <= 0.0 {
                    *p = 0.0;
                }
            }
            delta = prev;
        }
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
