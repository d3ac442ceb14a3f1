//! The row-by-row trainers that [`LrEpoch`] and [`svm_block`] replaced,
//! kept as their bit-for-bit oracles.

use super::*;
use crate::synth::Application;
use crate::test_data;

fn fit(data: &Dataset, epochs: usize, lr: f64) -> LogisticRegression {
    let k = data.n_classes;
    let d = data.n_features();
    let n = data.len() as f64;
    let mut w = vec![vec![0.0; d]; k];
    let mut b = vec![0.0; k];
    for _ in 0..epochs {
        let mut gw = vec![vec![0.0; d]; k];
        let mut gb = vec![0.0; k];
        for (row, &label) in data.x.iter().zip(&data.y) {
            let probs = softmax(&scores(&w, &b, row));
            for c in 0..k {
                let err = probs[c] - (c == label) as usize as f64;
                for (g, xi) in gw[c].iter_mut().zip(row) {
                    *g += err * xi;
                }
                gb[c] += err;
            }
        }
        for c in 0..k {
            for (wi, g) in w[c].iter_mut().zip(&gw[c]) {
                *wi -= lr * g / n;
            }
            b[c] -= lr * gb[c] / n;
        }
    }
    LogisticRegression {
        weights: w,
        biases: b,
    }
}

fn softmax(s: &[f64]) -> Vec<f64> {
    let m = s.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = s.iter().map(|v| (v - m).exp()).collect();
    let z: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / z).collect()
}

/// Every weight and bias by its bits, so `-0.0` and `+0.0` differ.
fn bits(m: &LogisticRegression) -> Vec<u64> {
    m.weights
        .iter()
        .flatten()
        .chain(&m.biases)
        .map(|v| v.to_bits())
        .collect()
}

fn assert_same(data: &Dataset, epochs: usize, lr: f64) {
    let kernel = LogisticRegression::fit_impl(data, epochs, lr);
    let reference = fit(data, epochs, lr);
    assert_eq!(
        bits(&kernel),
        bits(&reference),
        "{} rows x {} features, {} classes, {epochs} epochs",
        data.len(),
        data.n_features(),
        data.n_classes
    );
}

#[test]
fn kernel_matches_the_row_by_row_trainer_at_every_row_tail() {
    // Two blocks of 8 rows and every tail of 0–7; an odd class count
    // leaves one class to score alone, an even one pairs them all.
    for rows in 16..=23 {
        for classes in [3, 4] {
            for epochs in 1..=3 {
                let data = test_data::random(rows, 6, classes, rows as u64);
                assert_same(&data, epochs, 0.5);
            }
        }
    }
}

#[test]
fn kernel_matches_on_one_class_and_without_features() {
    assert_same(&test_data::random(19, 5, 1, 4), 2, 0.5);
    // No features: every row takes the one-row path.
    assert_same(&test_data::random(19, 0, 3, 4), 2, 0.5);
}

#[test]
fn kernel_matches_on_one_feature_and_two_classes() {
    for rows in 1..=5 {
        assert_same(&test_data::random(rows, 1, 2, 3), 2, 0.5);
    }
}

#[test]
fn kernel_matches_on_table2_data() {
    for app in [Application::Cardio, Application::Pendigits] {
        let (train, _) = app.generate(7).split(0.7, 42);
        for rows in [
            train.len(),
            train.len() - 1,
            train.len() - 2,
            train.len() - 3,
        ] {
            let data = Dataset::new(
                "prefix",
                train.x[..rows].to_vec(),
                train.y[..rows].to_vec(),
                train.n_classes,
            );
            assert_same(&data, 3, 0.5);
        }
    }
}

fn fit_svm(data: &Dataset, epochs: usize, l2: f64) -> SvmRegressor {
    let d = data.n_features();
    let n = data.len() as f64;
    let mut w = vec![0.0; d];
    let mut b = 0.0;
    let lr = 0.5;
    for _ in 0..epochs {
        let mut gw = vec![0.0; d];
        let mut gb = 0.0;
        for (row, &label) in data.x.iter().zip(&data.y) {
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

fn assert_same_svm(data: &Dataset, epochs: usize, l2: f64) {
    let bits = |m: &SvmRegressor| -> Vec<u64> {
        m.weights
            .iter()
            .chain([&m.bias])
            .map(|v| v.to_bits())
            .collect()
    };
    assert_eq!(
        bits(&SvmRegressor::fit_impl(data, epochs, l2)),
        bits(&fit_svm(data, epochs, l2)),
        "{} rows x {} features, {epochs} epochs",
        data.len(),
        data.n_features()
    );
}

#[test]
fn svm_kernel_matches_the_row_by_row_trainer_at_every_row_tail() {
    for rows in 32..=48 {
        for epochs in 1..=3 {
            assert_same_svm(&test_data::random(rows, 6, 3, rows as u64), epochs, 1e-4);
        }
    }
}

#[test]
fn svm_kernel_matches_on_few_features_and_short_data() {
    for rows in [1, 5, 15, 16, 17] {
        assert_same_svm(&test_data::random(rows, 1, 2, 3), 2, 1e-4);
    }
    // No features: every row takes the row loop.
    assert_same_svm(&test_data::random(20, 0, 2, 3), 2, 1e-4);
}

#[test]
fn svm_kernel_matches_on_table2_data() {
    for app in [Application::RedWine, Application::Arrhythmia] {
        let (train, _) = app.generate(7).split(0.7, 42);
        for rows in [train.len(), train.len() - 1, train.len() - 15] {
            let data = Dataset::new(
                "prefix",
                train.x[..rows].to_vec(),
                train.y[..rows].to_vec(),
                train.n_classes,
            );
            assert_same_svm(&data, 3, 1e-4);
        }
    }
}
