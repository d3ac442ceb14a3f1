//! Per-application datapath bit-width search (§IV-A).
//!
//! Bespoke designs sweep 4/8/12/16-bit datapaths and keep the narrowest
//! width whose test accuracy matches the best width to three significant
//! digits — "e.g. for Arrhythmia DT-1, accuracy remains the same when we
//! increase the classifier width from 4 to 16, hence we pick DT-1 with
//! 4-bit comparator width".

use ml::data::Dataset;
use ml::metrics::accuracy;
use ml::quant::{FeatureQuantizer, QuantizedSvm, QuantizedTree};
use ml::tree::DecisionTree;
use ml::SvmRegressor;
use serde::{Deserialize, Serialize};

/// The candidate widths the paper sweeps.
pub const WIDTHS: [usize; 4] = [4, 8, 12, 16];

/// Outcome of a width search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WidthChoice {
    /// Chosen datapath width.
    pub bits: usize,
    /// Test accuracy at that width.
    pub accuracy: f64,
}

fn round3(a: f64) -> f64 {
    (a * 1000.0).round() / 1000.0
}

/// Picks the narrowest width preserving the best accuracy (to three
/// significant digits) for a trained tree. Returns the quantizer, the
/// quantized tree and the choice, plus the 8-bit candidate: the same tree
/// at the fixed width of the general-purpose conventional engines.
pub fn choose_tree_width(
    tree: &DecisionTree,
    train: &Dataset,
    test: &Dataset,
) -> (FeatureQuantizer, QuantizedTree, WidthChoice, QuantizedTree) {
    sweep(
        train,
        test,
        |fq| QuantizedTree::from_tree(tree, fq),
        QuantizedTree::predict,
    )
}

/// Width search for a trained SVM regressor, same selection rule.
pub fn choose_svm_width(
    svm: &SvmRegressor,
    train: &Dataset,
    test: &Dataset,
) -> (FeatureQuantizer, QuantizedSvm, WidthChoice) {
    let (fq, qs, choice, _) = sweep(
        train,
        test,
        |fq| QuantizedSvm::from_svm(svm, fq),
        QuantizedSvm::predict,
    );
    (fq, qs, choice)
}

/// The selection rule: quantizes the model at every width in [`WIDTHS`],
/// scores each candidate's test accuracy, and keeps the narrowest whose
/// accuracy matches the best to three significant digits. Also returns
/// the 8-bit candidate.
fn sweep<M: Clone>(
    train: &Dataset,
    test: &Dataset,
    quantize: impl Fn(&FeatureQuantizer) -> M,
    predict: impl Fn(&M, &[u64]) -> usize,
) -> (FeatureQuantizer, M, WidthChoice, M) {
    let candidates: Vec<(FeatureQuantizer, M, f64)> = WIDTHS
        .iter()
        .map(|&bits| {
            let fq = FeatureQuantizer::fit(train, bits);
            let model = quantize(&fq);
            let acc = accuracy(
                test.x.iter().map(|r| predict(&model, &fq.code_row(r))),
                test.y.iter().copied(),
            )
            .expect("predictions align with test labels");
            (fq, model, acc)
        })
        .collect();
    let at8 = candidates
        .iter()
        .find(|c| c.0.bits() == 8)
        .map(|c| c.1.clone())
        .expect("WIDTHS includes 8 bits");
    let best = candidates.iter().map(|c| round3(c.2)).fold(0.0, f64::max);
    let (fq, model, acc) = candidates
        .into_iter()
        .find(|c| round3(c.2) >= best)
        .expect("at least one candidate");
    let bits = fq.bits();
    (
        fq,
        model,
        WidthChoice {
            bits,
            accuracy: acc,
        },
        at8,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml::data::Standardizer;
    use ml::synth::Application;
    use ml::tree::TreeParams;

    #[test]
    fn separable_data_picks_a_narrow_width() {
        // HAR's clean clusters never need the 12/16-bit datapaths.
        let data = Application::Har.generate(7);
        let (train, test) = data.split(0.7, 42);
        let tree = DecisionTree::fit(&train, TreeParams::with_depth(2));
        let (_, _, choice, _) = choose_tree_width(&tree, &train, &test);
        assert!(choice.bits <= 8, "chose {} bits", choice.bits);
    }

    #[test]
    fn chosen_width_never_loses_accuracy_vs_widest() {
        for app in [Application::Cardio, Application::RedWine] {
            let data = app.generate(7);
            let (train, test) = data.split(0.7, 42);
            let tree = DecisionTree::fit(&train, TreeParams::with_depth(4));
            let (_, _, choice, _) = choose_tree_width(&tree, &train, &test);
            let fq16 = FeatureQuantizer::fit(&train, 16);
            let qt16 = QuantizedTree::from_tree(&tree, &fq16);
            let acc16 = accuracy(
                test.x.iter().map(|r| qt16.predict(&fq16.code_row(r))),
                test.y.iter().copied(),
            )
            .unwrap();
            assert!(
                choice.accuracy >= acc16 - 0.0015,
                "{}: {} vs {}",
                app.name(),
                choice.accuracy,
                acc16
            );
        }
    }

    #[test]
    fn svm_width_search_returns_consistent_artifacts() {
        let data = Application::RedWine.generate(7);
        let (train, test) = data.split(0.7, 42);
        let s = Standardizer::fit(&train);
        let (train, test) = (s.transform(&train), s.transform(&test));
        let svm = SvmRegressor::fit(&train, 150, 1e-4);
        let (fq, qs, choice) = choose_svm_width(&svm, &train, &test);
        assert_eq!(fq.bits(), choice.bits);
        assert_eq!(qs.bits(), choice.bits);
        assert!(WIDTHS.contains(&choice.bits));
        assert!(choice.accuracy > 0.2);
    }
}
