//! Dataset container, splitting and normalization.
//!
//! Mirrors the paper's §III preprocessing: categorical features removed
//! (our synthetic generators never produce them), a 70/30 train/test split,
//! and per-feature standardization to zero mean / unit variance computed on
//! the training set only.

use exec::rng::{SliceRandom, StdRng};
use serde::{Deserialize, Serialize};

/// A labelled dataset: dense row-major features and integer class labels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// Feature rows; every row has the same length.
    pub x: Vec<Vec<f64>>,
    /// Class labels in `0..n_classes`.
    pub y: Vec<usize>,
    /// Number of distinct classes.
    pub n_classes: usize,
    /// Human-readable name (e.g. `"cardio"`).
    pub name: String,
}

impl Dataset {
    /// Creates a dataset, checking shape invariants.
    ///
    /// # Panics
    /// Panics if rows are ragged, labels are out of range, or `x` and `y`
    /// differ in length.
    pub fn new(name: impl Into<String>, x: Vec<Vec<f64>>, y: Vec<usize>, n_classes: usize) -> Self {
        assert_eq!(x.len(), y.len(), "feature/label length mismatch");
        assert!(!x.is_empty(), "empty dataset");
        let width = x[0].len();
        assert!(x.iter().all(|r| r.len() == width), "ragged feature rows");
        assert!(y.iter().all(|&l| l < n_classes), "label out of range");
        Dataset {
            x,
            y,
            n_classes,
            name: name.into(),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when the dataset has no samples (never, per constructor).
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Number of features per sample.
    pub fn n_features(&self) -> usize {
        self.x[0].len()
    }

    /// Shuffles and splits into (train, test) with `train_fraction` of the
    /// samples in train, deterministic in `seed`.
    pub fn split(&self, train_fraction: f64, seed: u64) -> (Dataset, Dataset) {
        assert!(
            (0.0..1.0).contains(&train_fraction),
            "fraction must be in [0,1)"
        );
        let mut idx: Vec<usize> = (0..self.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        idx.shuffle(&mut rng);
        let cut = ((self.len() as f64) * train_fraction).round() as usize;
        let take = |ids: &[usize], tag: &str| {
            Dataset::new(
                format!("{}-{tag}", self.name),
                ids.iter().map(|&i| self.x[i].clone()).collect(),
                ids.iter().map(|&i| self.y[i]).collect(),
                self.n_classes,
            )
        };
        (take(&idx[..cut], "train"), take(&idx[cut..], "test"))
    }
}

/// The key is recomputed from the content on every call, so it can never
/// go stale. Every row length, value bit pattern and label goes through
/// one [`cache::StableHasher::write_words`] pass: keying a training set
/// costs about a nanosecond per value.
impl cache::Hashable for Dataset {
    fn stable_hash(&self, h: &mut cache::StableHasher) {
        h.write_str(&self.name);
        h.write_usize(self.n_classes);
        h.write_seq_len(self.x.len());
        h.write_seq_len(self.y.len());
        let rows = self.x.iter().flat_map(|row| {
            std::iter::once(row.len() as u64).chain(row.iter().map(|v| v.to_bits()))
        });
        h.write_words(rows.chain(self.y.iter().map(|&l| l as u64)));
    }
}

/// Per-feature affine normalization fitted on a training set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Standardizer {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl Standardizer {
    /// Fits zero-mean / unit-variance parameters on `data`.
    pub fn fit(data: &Dataset) -> Self {
        let n = data.len() as f64;
        let d = data.n_features();
        let mut mean = vec![0.0; d];
        for row in &data.x {
            for (m, v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0; d];
        for row in &data.x {
            for ((v, x), m) in var.iter_mut().zip(row).zip(&mean) {
                *v += (x - m) * (x - m);
            }
        }
        let std = var
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s < 1e-12 {
                    1.0
                } else {
                    s
                }
            })
            .collect();
        Standardizer { mean, std }
    }

    /// Transforms a single row in place.
    pub fn transform_row(&self, row: &mut [f64]) {
        for ((x, m), s) in row.iter_mut().zip(&self.mean).zip(&self.std) {
            *x = (*x - m) / s;
        }
    }

    /// Returns a standardized copy of `data`.
    pub fn transform(&self, data: &Dataset) -> Dataset {
        let mut out = data.clone();
        for row in &mut out.x {
            self.transform_row(row);
        }
        out
    }
}

impl Dataset {
    /// Returns a copy with additive per-feature sensor drift applied.
    ///
    /// Chemical sensors (GasID is the canonical case) drift over weeks in
    /// the field; a classifier trained on fresh sensors sees shifted
    /// inputs. Each feature receives a fixed offset drawn from
    /// `±magnitude` (in units of that feature's training standard
    /// deviation being 1 after standardization), deterministic in `seed`.
    pub fn with_drift(&self, magnitude: f64, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let offsets: Vec<f64> = (0..self.n_features())
            .map(|_| rng.gen_range(-magnitude..=magnitude))
            .collect();
        let mut out = self.clone();
        for row in &mut out.x {
            for (v, o) in row.iter_mut().zip(&offsets) {
                *v += o;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let x: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![i as f64, 2.0 * i as f64 + 1.0])
            .collect();
        let y: Vec<usize> = (0..100).map(|i| i % 3).collect();
        Dataset::new("toy", x, y, 3)
    }

    #[test]
    fn split_is_deterministic_and_sized() {
        let d = toy();
        let (tr1, te1) = d.split(0.7, 42);
        let (tr2, te2) = d.split(0.7, 42);
        assert_eq!(tr1, tr2);
        assert_eq!(te1, te2);
        assert_eq!(tr1.len(), 70);
        assert_eq!(te1.len(), 30);
        let (tr3, _) = d.split(0.7, 43);
        assert_ne!(tr1, tr3, "different seed, different shuffle");
    }

    #[test]
    fn split_preserves_all_samples() {
        let d = toy();
        let (tr, te) = d.split(0.7, 1);
        let mut all: Vec<f64> = tr.x.iter().chain(&te.x).map(|r| r[0]).collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expect: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(all, expect);
    }

    #[test]
    fn standardizer_centers_and_scales() {
        let d = toy();
        let s = Standardizer::fit(&d);
        let t = s.transform(&d);
        for f in 0..2 {
            let mean: f64 = t.x.iter().map(|r| r[f]).sum::<f64>() / t.len() as f64;
            let var: f64 = t.x.iter().map(|r| r[f] * r[f]).sum::<f64>() / t.len() as f64;
            assert!(mean.abs() < 1e-9, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-9, "var {var}");
        }
    }

    #[test]
    fn standardizer_tolerates_constant_features() {
        let x = vec![vec![5.0, 1.0], vec![5.0, 2.0], vec![5.0, 3.0]];
        let d = Dataset::new("c", x, vec![0, 1, 0], 2);
        let s = Standardizer::fit(&d);
        let t = s.transform(&d);
        assert!(t.x.iter().all(|r| r[0] == 0.0));
        assert!(t.x.iter().all(|r| r[1].is_finite()));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_are_rejected() {
        Dataset::new("bad", vec![vec![1.0], vec![1.0, 2.0]], vec![0, 0], 1);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn bad_labels_are_rejected() {
        Dataset::new("bad", vec![vec![1.0]], vec![5], 2);
    }

    #[test]
    fn key_moves_with_every_value_label_and_row_boundary() {
        let key = |d: &Dataset| cache::key_for("ml.test", d);
        let d = toy();
        let base = key(&d);
        let mut value = d.clone();
        value.x[99][1] = f64::from_bits(value.x[99][1].to_bits() ^ 1);
        assert_ne!(key(&value), base);
        let mut label = d.clone();
        label.y[0] = 1;
        assert_ne!(key(&label), base);
        // The same values and labels, cut into rows differently.
        let mut regrouped = d.clone();
        let moved = regrouped.x[0].pop().expect("two features");
        regrouped.x[1].insert(0, moved);
        assert_ne!(key(&regrouped), base);
    }
}

#[cfg(test)]
mod drift_tests {
    use super::*;

    fn toy() -> Dataset {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64, -(i as f64)]).collect();
        let y: Vec<usize> = (0..50).map(|i| i % 2).collect();
        Dataset::new("toy", x, y, 2)
    }

    #[test]
    fn zero_drift_is_identity() {
        let d = toy();
        assert_eq!(d.with_drift(0.0, 1), d);
    }

    #[test]
    fn drift_is_a_constant_per_feature_offset() {
        let d = toy();
        let shifted = d.with_drift(0.5, 9);
        let delta0 = shifted.x[0][0] - d.x[0][0];
        for (a, b) in shifted.x.iter().zip(&d.x) {
            assert!((a[0] - b[0] - delta0).abs() < 1e-12);
        }
        assert!(delta0.abs() <= 0.5);
    }

    #[test]
    fn drift_is_deterministic_in_seed() {
        let d = toy();
        assert_eq!(d.with_drift(0.3, 5), d.with_drift(0.3, 5));
        assert_ne!(d.with_drift(0.3, 5), d.with_drift(0.3, 6));
    }
}
