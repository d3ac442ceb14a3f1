#![warn(missing_docs)]

//! # ml — from-scratch classifiers and synthetic sensor datasets
//!
//! The machine-learning substrate of the *Printed Machine Learning
//! Classifiers* reproduction. It replaces the paper's scikit-learn flow:
//!
//! * [`data`] — dataset container, 70/30 splits, standardization;
//! * [`synth`] — seeded synthetic stand-ins for the seven sensor
//!   applications (Arrhythmia, Cardio, GasID, HAR, Pendigits, Red/White
//!   wine) with matching shapes and difficulty;
//! * [`tree`] / [`forest`] — CART decision trees and bagged random forests
//!   with full structural introspection for hardware generation;
//! * [`linear`] — SVM regression (the hardware-candidate model), one-vs-one
//!   SVM classification, logistic regression;
//! * [`mlp`] — small ReLU perceptrons (MLP-1 / MLP-3 baselines);
//! * [`quant`] — fixed-point feature/model quantization onto 4–16-bit
//!   datapaths, in the exact arithmetic the generated hardware uses;
//! * [`opcount`] — Table II's `#C` / `#M` operation counting.
//!
//! ```
//! use ml::synth::Application;
//! use ml::tree::{DecisionTree, TreeParams};
//! use ml::metrics::accuracy;
//!
//! let data = Application::Har.generate(7);
//! let (train, test) = data.split(0.7, 42);
//! let tree = DecisionTree::fit(&train, TreeParams::with_depth(4));
//! let acc = accuracy(test.x.iter().map(|r| tree.predict(r)), test.y.iter().copied()).unwrap();
//! assert!(acc > 0.9);
//! ```

pub mod data;

pub mod forest;
pub mod linear;
pub mod metrics;
pub mod mlp;
pub mod opcount;
pub mod quant;
pub mod synth;
pub mod tree;

pub use data::{Dataset, Standardizer};
pub use forest::{ForestParams, RandomForest};
pub use linear::{LogisticRegression, SvmClassifier, SvmRegressor};
pub use metrics::{accuracy, MetricsError};
pub use mlp::{Mlp, MlpParams};
pub use opcount::{CountOps, OpCount};
pub use quant::{FeatureQuantizer, QuantizedSvm, QuantizedTree};
pub use synth::Application;
pub use tree::{DecisionTree, TreeNode, TreeParams};

/// The value `Iterator::sum` starts an `f64` sum from (`-0.0` on current
/// toolchains). The training kernels start each interleaved dot product
/// here, so it keeps the bits of the `.sum()` it stands in for.
fn sum_start() -> f64 {
    std::iter::empty::<f64>().sum()
}

#[cfg(test)]
mod test_data;
