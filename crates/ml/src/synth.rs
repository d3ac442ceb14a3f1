//! Synthetic stand-ins for the paper's seven sensor datasets.
//!
//! The UCI/HAR datasets themselves are not redistributable inside this
//! repository, so each application is replaced by a seeded generator with
//! the **same feature count, class count, sample count and qualitative
//! difficulty** (see DESIGN.md §2). What the hardware conclusions depend on
//! — dimensionality, number of classes, how many features a tree actually
//! uses, whether labels are ordinal — is preserved:
//!
//! * only a small subset of features is informative (the paper's trained
//!   trees touch ~14 unique features on average across datasets);
//! * wine quality labels are *ordinal*, generated from a noisy linear
//!   latent score, which is why SVM regression is competitive there (§III);
//! * HAR's activity clusters are nearly separable, so shallow trees reach
//!   very high accuracy, matching Table II's 0.99 at depth 4;
//! * arrhythmia and the wines are intentionally noisy, capping accuracy for
//!   every algorithm.

use std::cmp::Ordering;

use exec::rng::StdRng;
use serde::{Deserialize, Serialize};

use crate::data::Dataset;

/// Datasets generated ([`Application::generate`] calls).
static DATASETS: obs::Counter = obs::Counter::new("ml.synth.datasets");

/// The seven benchmark applications of the paper (§III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Application {
    /// ECG heart-rhythm classification — many features, very noisy.
    Arrhythmia,
    /// Cardiotocogram classification — 3 classes, fairly clean.
    Cardio,
    /// Chemical gas identification — high-dimensional, separable.
    GasId,
    /// Human activity recognition from accelerometers — nearly separable.
    Har,
    /// Pen-written digit recognition — 10 classes, moderately separable.
    Pendigits,
    /// Red wine quality from pH / metal-trace sensors — ordinal, noisy.
    RedWine,
    /// White wine quality — ordinal, noisy, more samples.
    WhiteWine,
}

impl Application {
    /// All applications, in Table II's row order.
    pub const ALL: [Application; 7] = [
        Application::Arrhythmia,
        Application::Cardio,
        Application::GasId,
        Application::Har,
        Application::Pendigits,
        Application::RedWine,
        Application::WhiteWine,
    ];

    /// Lower-case dataset name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Application::Arrhythmia => "arrhythmia",
            Application::Cardio => "cardio",
            Application::GasId => "gasid",
            Application::Har => "har",
            Application::Pendigits => "pendigits",
            Application::RedWine => "redwine",
            Application::WhiteWine => "whitewine",
        }
    }

    /// Generator profile: (features, informative features, classes,
    /// samples, class separation, label noise probability, ordinal labels).
    fn profile(self) -> Profile {
        match self {
            Application::Arrhythmia => Profile {
                n_features: 263,
                n_informative: 18,
                n_classes: 11,
                n_samples: 452,
                separation: 1.7,
                label_noise: 0.22,
                majority: 0.665,
                ordinal: false,
            },
            Application::Cardio => Profile {
                n_features: 19,
                n_informative: 10,
                n_classes: 3,
                n_samples: 2126,
                separation: 2.2,
                label_noise: 0.04,
                majority: 0.80,
                ordinal: false,
            },
            Application::GasId => Profile {
                n_features: 127,
                n_informative: 16,
                n_classes: 6,
                n_samples: 2000,
                separation: 2.6,
                label_noise: 0.01,
                majority: 0.0,
                ordinal: false,
            },
            Application::Har => Profile {
                n_features: 12,
                n_informative: 8,
                n_classes: 5,
                n_samples: 3000,
                separation: 3.4,
                label_noise: 0.005,
                majority: 0.0,
                ordinal: false,
            },
            Application::Pendigits => Profile {
                n_features: 16,
                n_informative: 12,
                n_classes: 10,
                n_samples: 5000,
                separation: 2.0,
                label_noise: 0.02,
                majority: 0.0,
                ordinal: false,
            },
            Application::RedWine => Profile {
                n_features: 11,
                n_informative: 6,
                n_classes: 6,
                n_samples: 1599,
                separation: 1.6,
                label_noise: 0.18,
                majority: 0.0,
                ordinal: true,
            },
            Application::WhiteWine => Profile {
                n_features: 11,
                n_informative: 6,
                n_classes: 7,
                n_samples: 4898,
                separation: 1.5,
                label_noise: 0.18,
                majority: 0.0,
                ordinal: true,
            },
        }
    }

    /// Generates the synthetic dataset for this application.
    ///
    /// Deterministic in `seed`; the benchmark harness uses seed 7 for every
    /// reproduction run.
    pub fn generate(self, seed: u64) -> Dataset {
        DATASETS.incr();
        let p = self.profile();
        let mut rng = StdRng::seed_from_u64(seed ^ hash_name(self.name()));
        if p.ordinal {
            generate_ordinal(self.name(), &p, &mut rng)
        } else {
            generate_clusters(self.name(), &p, &mut rng)
        }
    }

    /// The paper's data protocol: the dataset of `seed` split 70/30 into
    /// train and test, with split seed 42.
    ///
    /// With the cache on, each `(application, seed)` is generated once per
    /// process and shared from memory (`ml.synth.split`): regenerating is
    /// two to three times faster than decoding a stored split, so it never
    /// goes to disk, which also makes its recipe key safe across generator
    /// changes.
    pub fn split(self, seed: u64) -> (Dataset, Dataset) {
        cache::share("ml.synth.split", &(self.name(), seed), || {
            self.generate(seed).split(0.7, 42)
        })
    }
}

struct Profile {
    n_features: usize,
    n_informative: usize,
    n_classes: usize,
    n_samples: usize,
    /// Distance between class centroids in units of the noise σ.
    separation: f64,
    /// Probability a sample's label is re-drawn uniformly (irreducible
    /// error, capping achievable accuracy).
    label_noise: f64,
    /// Prior probability of class 0 *before* label noise. Medical datasets
    /// are dominated by the "normal" class — ~54% for arrhythmia, ~78% for
    /// cardiotocography — so the prior is set above those targets to
    /// compensate for the uniform label-noise redraw (realized fraction ≈
    /// `majority·(1-noise) + noise/n_classes`). `0.0` means uniform priors.
    majority: f64,
    ordinal: bool,
}

fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// Nominal classes: Gaussian clusters on the informative subspace, pure
/// noise elsewhere.
fn generate_clusters(name: &str, p: &Profile, rng: &mut StdRng) -> Dataset {
    // Class centroids over informative dims.
    let centroids: Vec<Vec<f64>> = (0..p.n_classes)
        .map(|_| {
            (0..p.n_informative)
                .map(|_| rng.gen_range(-1.0..1.0) * p.separation)
                .collect()
        })
        .collect();
    let mut x = Vec::with_capacity(p.n_samples);
    let mut y = Vec::with_capacity(p.n_samples);
    for _ in 0..p.n_samples {
        let true_class = if p.majority > 0.0 && rng.gen_bool(p.majority) {
            0
        } else if p.majority > 0.0 {
            rng.gen_range(1..p.n_classes)
        } else {
            rng.gen_range(0..p.n_classes)
        };
        let mut row = Vec::with_capacity(p.n_features);
        for (f, _) in (0..p.n_features).enumerate() {
            let base = centroids[true_class].get(f).copied().unwrap_or(0.0);
            row.push(base + gaussian(rng));
        }
        let label = if rng.gen_bool(p.label_noise) {
            rng.gen_range(0..p.n_classes)
        } else {
            true_class
        };
        x.push(row);
        y.push(label);
    }
    Dataset::new(name, x, y, p.n_classes)
}

/// Ordinal labels (wine quality): a linear latent score over the
/// informative features, thresholded into bands — the structure that makes
/// SVM regression competitive with trees.
fn generate_ordinal(name: &str, p: &Profile, rng: &mut StdRng) -> Dataset {
    let weights: Vec<f64> = (0..p.n_informative)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let wnorm: f64 = weights.iter().map(|w| w * w).sum::<f64>().sqrt();
    let mut x = Vec::with_capacity(p.n_samples);
    let mut scores = Vec::with_capacity(p.n_samples);
    for _ in 0..p.n_samples {
        let row: Vec<f64> = (0..p.n_features).map(|_| gaussian(rng)).collect();
        let score: f64 = weights.iter().zip(&row).map(|(w, v)| w * v).sum::<f64>() / wnorm
            * p.separation
            + gaussian(rng) * 0.6;
        scores.push(score);
        x.push(row);
    }
    // Quantile thresholds with a centre-heavy distribution, like real wine
    // quality scores (most wines are average).
    let mut sorted = scores.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
    let quantiles: Vec<f64> = centre_heavy_quantiles(p.n_classes)
        .into_iter()
        .map(|q| sorted[((sorted.len() - 1) as f64 * q) as usize])
        .collect();
    let y: Vec<usize> = scores
        .iter()
        .map(|s| {
            let band = quantiles.iter().filter(|q| s > q).count();
            if rng.gen_bool(p.label_noise) {
                // Ordinal noise: drift one band, not a uniform redraw.
                if rng.gen_bool(0.5) {
                    band.saturating_sub(1)
                } else {
                    (band + 1).min(p.n_classes - 1)
                }
            } else {
                band
            }
        })
        .collect();
    Dataset::new(name, x, y, p.n_classes)
}

/// Cut points concentrating mass in the middle bands.
fn centre_heavy_quantiles(n_classes: usize) -> Vec<f64> {
    let n = n_classes as f64;
    (1..n_classes)
        .map(|i| {
            let u = i as f64 / n;
            // Smoothstep-like warp pushes cuts outward so middle bands are
            // wide.
            0.5 + 0.5 * (2.0 * u - 1.0).powi(3).signum() * (2.0 * u - 1.0).abs().powf(0.6)
        })
        .map(|q| q.clamp(0.02, 0.98))
        .collect()
}

/// Box–Muller standard normal.
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_the_paper() {
        let expect = [
            (Application::Arrhythmia, 263, 11, 452),
            (Application::Cardio, 19, 3, 2126),
            (Application::GasId, 127, 6, 2000),
            (Application::Har, 12, 5, 3000),
            (Application::Pendigits, 16, 10, 5000),
            (Application::RedWine, 11, 6, 1599),
            (Application::WhiteWine, 11, 7, 4898),
        ];
        for (app, feats, classes, samples) in expect {
            let d = app.generate(7);
            assert_eq!(d.n_features(), feats, "{}", app.name());
            assert_eq!(d.n_classes, classes, "{}", app.name());
            assert_eq!(d.len(), samples, "{}", app.name());
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = Application::Cardio.generate(7);
        let b = Application::Cardio.generate(7);
        assert_eq!(a, b);
        let c = Application::Cardio.generate(8);
        assert_ne!(a, c);
    }

    #[test]
    fn different_apps_differ_even_with_same_seed() {
        let red = Application::RedWine.generate(7);
        let white = Application::WhiteWine.generate(7);
        assert_ne!(red.x[0], white.x[0]);
    }

    /// Per-class sample counts of `app`'s seed-7 dataset.
    fn class_counts(app: Application) -> Vec<usize> {
        let d = app.generate(7);
        let mut counts = vec![0usize; d.n_classes];
        for &l in &d.y {
            counts[l] += 1;
        }
        counts
    }

    #[test]
    fn every_class_is_represented() {
        for app in Application::ALL {
            let counts = class_counts(app);
            assert!(
                counts.iter().all(|&n| n > 0),
                "{} missing a class",
                app.name()
            );
        }
    }

    #[test]
    fn medical_datasets_are_imbalanced_as_designed() {
        // Cardio: ~78% normal; arrhythmia: ~54% normal; HAR: uniform.
        let majority = |app: Application| {
            let counts = class_counts(app);
            *counts.iter().max().unwrap() as f64 / counts.iter().sum::<usize>() as f64
        };
        assert!(majority(Application::Cardio) > 0.7);
        let arr = majority(Application::Arrhythmia);
        assert!(arr > 0.45 && arr < 0.65, "arrhythmia majority {arr}");
        assert!(majority(Application::Har) < 0.3);
    }

    #[test]
    fn ordinal_labels_correlate_with_latent_direction() {
        // Wine labels should be predictable by a linear model far above
        // chance — the property that makes SVM-R shine there.
        let d = Application::RedWine.generate(7);
        // Crude check: class means of the per-row sums of informative
        // features should be monotone-ish; verify spread of per-class means
        // of the first feature is non-trivial... simplest: chance is 1/6,
        // verify a 1-nearest-centroid on raw features beats 1.5x chance.
        let mut centroids = vec![vec![0.0; d.n_features()]; d.n_classes];
        let mut counts = vec![0usize; d.n_classes];
        for (row, &l) in d.x.iter().zip(&d.y) {
            counts[l] += 1;
            for (c, v) in centroids[l].iter_mut().zip(row) {
                *c += v;
            }
        }
        for (c, n) in centroids.iter_mut().zip(&counts) {
            if *n > 0 {
                for v in c.iter_mut() {
                    *v /= *n as f64;
                }
            }
        }
        let correct =
            d.x.iter()
                .zip(&d.y)
                .filter(|(row, &l)| {
                    let best = centroids
                        .iter()
                        .enumerate()
                        .min_by(|(_, a), (_, b)| dist(row, a).partial_cmp(&dist(row, b)).unwrap())
                        .unwrap()
                        .0;
                    best == l
                })
                .count();
        let acc = correct as f64 / d.len() as f64;
        assert!(
            acc > 0.25,
            "nearest-centroid accuracy {acc} too close to chance"
        );
    }

    fn dist(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }
}
