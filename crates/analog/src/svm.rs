//! Analog printed SVMs: crossbar MAC plus an analog class-mapping bank
//! (§VI-A, Fig. 15a).
//!
//! The signed integer dot product `D = P − N` of the digital
//! [`ml::QuantizedSvm`] is realized with two crossbar columns (one for the
//! positive coefficients, one for the negatives). Each column computes a
//! *normalized* weighted average (eq. (1)), so the decision
//! `D > B_c` becomes a comparison between scaled column voltages:
//!
//! ```text
//! P = Vp · Sp · C,  N = Vn · Sn · C   (Sp/Sn = coefficient sums, C = max code)
//! D > B_c  ⟺  Vp·Sp − Vn·Sn > B_c / C
//! ```
//!
//! One analog comparator per class boundary senses the (scaled)
//! differential, producing a thermometer code that reads out the class.

use serde::Serialize;

use ml::quant::QuantizedSvm;
use pdk::units::{Area, Delay, Power};

use crate::comparator::AnalogComparator;
use crate::crossbar::CrossbarColumn;
use crate::device::{Egt, PrintedResistor};

/// A generated analog SVM engine.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AnalogSvm {
    positive: Option<CrossbarColumn>,
    negative: Option<CrossbarColumn>,
    /// Scale factor `Sp`: sum of positive integer coefficient magnitudes.
    pos_scale: f64,
    /// Scale factor `Sn`.
    neg_scale: f64,
    /// Class boundaries scaled into the voltage domain (`B_c / C`).
    boundaries_v: Vec<f64>,
    n_classes: usize,
    n_features: usize,
    max_code: u64,
}

impl AnalogSvm {
    /// Programs crossbar columns realizing a quantized SVM regressor.
    pub fn from_svm(svm: &QuantizedSvm, n_features: usize) -> Self {
        let max_code = ml::quant::max_code_for_bits(svm.bits());
        let column = |terms: &[(usize, u64)]| -> (Option<CrossbarColumn>, f64) {
            if terms.is_empty() {
                return (None, 0.0);
            }
            let mut weights = vec![0.0; n_features];
            for &(f, m) in terms {
                weights[f] = m as f64;
            }
            let scale: f64 = terms.iter().map(|&(_, m)| m as f64).sum();
            (Some(CrossbarColumn::program(&weights)), scale)
        };
        let (positive, pos_scale) = column(svm.pos_terms());
        let (negative, neg_scale) = column(svm.neg_terms());
        let boundaries_v = svm
            .boundaries()
            .iter()
            .map(|&b| b as f64 / max_code as f64)
            .collect();
        AnalogSvm {
            positive,
            negative,
            pos_scale,
            neg_scale,
            boundaries_v,
            n_classes: svm.n_classes(),
            n_features,
            max_code,
        }
    }

    /// The scaled analog decision value `Vp·Sp − Vn·Sn` for feature codes.
    pub fn decision(&self, codes: &[u64]) -> f64 {
        let volts: Vec<f64> = codes
            .iter()
            .map(|&c| c.min(self.max_code) as f64 / self.max_code as f64)
            .collect();
        let vp = self.positive.as_ref().map_or(0.0, |c| c.output(&volts));
        let vn = self.negative.as_ref().map_or(0.0, |c| c.output(&volts));
        vp * self.pos_scale - vn * self.neg_scale
    }

    /// Classifies feature codes: thermometer count of boundary crossings.
    pub fn predict(&self, codes: &[u64]) -> usize {
        let d = self.decision(codes);
        let class = self.boundaries_v.iter().filter(|&&b| d > b).count();
        class.min(self.n_classes - 1)
    }

    /// Printed dot resistors across both columns.
    pub fn resistor_count(&self) -> usize {
        self.positive.as_ref().map_or(0, |c| c.resistor_count())
            + self.negative.as_ref().map_or(0, |c| c.resistor_count())
    }

    /// EGT count: the boundary comparator bank plus differential sensing.
    pub fn transistor_count(&self) -> usize {
        // Per boundary: one 3-EGT comparator cell; plus a 2-EGT
        // differential sense stage shared by the bank.
        3 * self.boundaries_v.len() + 2
    }

    /// Total area: crossbar dots, per-row input drivers (each feature
    /// voltage must drive its crossbar row), the comparator bank and the
    /// differential sense stage.
    pub fn area(&self) -> Area {
        let dots = PrintedResistor::area() * self.resistor_count() as f64;
        let drivers = Area::from_mm2(0.04) * self.resistor_count() as f64;
        let comparators =
            (Egt::area() * 3.0 + PrintedResistor::area()) * self.boundaries_v.len() as f64;
        let sense = Egt::area() * 2.0 + PrintedResistor::area() * 2.0;
        dots + drivers + comparators + sense
    }

    /// Static power: columns conduct continuously, each row driver burns a
    /// bias current, and one comparator leg idles per boundary.
    pub fn static_power(&self) -> Power {
        let col = |c: &Option<CrossbarColumn>| c.as_ref().map_or(Power::ZERO, |c| c.static_power());
        let drivers = Power::from_uw(25.0) * self.resistor_count() as f64;
        let bank = Power::from_uw(18.0) * self.boundaries_v.len() as f64;
        col(&self.positive) + col(&self.negative) + drivers + bank
    }

    /// Latency: column settling, then comparator regeneration. Boundary
    /// comparisons must resolve a small differential — roughly one LSB of
    /// the quantized coefficient domain — so regeneration time scales with
    /// the datapath width.
    pub fn latency(&self) -> Delay {
        let col = |c: &Option<CrossbarColumn>| c.as_ref().map_or(Delay::ZERO, |c| c.settle_time());
        let settle = col(&self.positive).max(col(&self.negative));
        let bits = (64 - self.max_code.leading_zeros() as usize).max(1);
        let comparator =
            AnalogComparator::new(0.5, crate::comparator::ThresholdEncoding::Calibrated)
                .settle_time();
        // ~2.5 regeneration windows per resolved bit.
        settle + comparator * (2.5 * bits as f64)
    }

    /// Number of feature inputs.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml::data::Standardizer;
    use ml::quant::FeatureQuantizer;
    use ml::synth::Application;
    use ml::SvmRegressor;

    fn setup(app: Application, bits: usize) -> (QuantizedSvm, FeatureQuantizer, ml::Dataset) {
        let data = app.generate(7);
        let (train, test) = data.split(0.7, 42);
        let s = Standardizer::fit(&train);
        let (train, test) = (s.transform(&train), s.transform(&test));
        let svm = SvmRegressor::fit(&train, 200, 1e-4);
        let fq = FeatureQuantizer::fit(&train, bits);
        (QuantizedSvm::from_svm(&svm, &fq), fq, test)
    }

    #[test]
    fn analog_svm_tracks_digital_quantized_svm() {
        let (qs, fq, test) = setup(Application::RedWine, 8);
        let asvm = AnalogSvm::from_svm(&qs, 11);
        let mut agree = 0usize;
        for row in &test.x {
            let codes = fq.code_row(row);
            agree += (asvm.predict(&codes) == qs.predict(&codes)) as usize;
        }
        let rate = agree as f64 / test.x.len() as f64;
        assert!(rate > 0.85, "agreement {rate}");
    }

    #[test]
    fn decision_value_approximates_integer_dot_product() {
        // The decision is the difference of two large column sums, so the
        // right error bound is against the column magnitude P + N (per-
        // resistor snap error ≤ one half grid step, ~2.4%), not against
        // the (cancellation-prone) decision value itself.
        let (qs, fq, test) = setup(Application::RedWine, 8);
        let asvm = AnalogSvm::from_svm(&qs, 11);
        let max_code = (1u64 << 8) - 1;
        for row in test.x.iter().take(40) {
            let codes = fq.code_row(row);
            let p = qs.positive_sum(&codes) as f64;
            let n = qs.negative_sum(&codes) as f64;
            let d_analog = asvm.decision(&codes) * max_code as f64;
            let err = (d_analog - (p - n)).abs() / (p + n).max(max_code as f64);
            assert!(
                err < 0.024,
                "analog {d_analog} vs integer {} ({err})",
                p - n
            );
        }
    }

    #[test]
    fn costs_count_the_right_components() {
        let (qs, _, _) = setup(Application::RedWine, 8);
        let asvm = AnalogSvm::from_svm(&qs, 11);
        assert_eq!(asvm.resistor_count(), qs.mac_count());
        assert_eq!(asvm.transistor_count(), 3 * (qs.n_classes() - 1) + 2);
        assert!(asvm.area().as_mm2() > 0.0);
        assert!(asvm.static_power().as_uw() > 0.0);
        assert!(asvm.latency().as_ms() > 0.0);
        assert_eq!(asvm.n_features(), 11);
        assert_eq!(asvm.n_classes(), 6);
    }

    #[test]
    fn thermometer_class_mapping_is_monotone_in_decision() {
        let (qs, fq, test) = setup(Application::WhiteWine, 8);
        let asvm = AnalogSvm::from_svm(&qs, 11);
        let mut pairs: Vec<(f64, usize)> = test
            .x
            .iter()
            .take(200)
            .map(|row| {
                let codes = fq.code_row(row);
                (asvm.decision(&codes), asvm.predict(&codes))
            })
            .collect();
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in pairs.windows(2) {
            assert!(w[0].1 <= w[1].1, "class must be monotone in decision value");
        }
    }
}
