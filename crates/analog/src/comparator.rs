//! The analog decision element: a back-to-back-inverter comparator.
//!
//! §VI-A: each tree node's binary test `x_k <= τ_j` is realized by a
//! bistable pair of cross-coupled inverters, one with a printed resistor
//! `R_j` in its pull-up network and the other with an EGT whose gate is
//! driven by the (voltage-encoded, `[0,1] V`) feature. Whichever side pulls
//! up harder wins the latch race, producing complementary outputs `S1/S2`.
//!
//! The threshold is encoded as a resistance via the paper's mapping
//! `R_j = (τ_j − τ_min)/(τ_max − τ_min) · (R_max − R_min) + R_min`; because
//! the transistor's resistance-vs-voltage law is exponential while that map
//! is linear, the printed comparator has a *systematic* decision offset.
//! [`ThresholdEncoding::Calibrated`] instead prints `R_j = R_T(τ_j)`
//! (matched to the transistor law) — the "iterative refinement" printed
//! technology affords (§VI).

use serde::Serialize;

use pdk::units::{Delay, Power};

use crate::device::{Egt, PrintedResistor, R_MAX, R_MIN, VDD};

/// How a threshold voltage becomes a printed resistance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ThresholdEncoding {
    /// The paper's linear voltage→resistance map (systematic offset).
    PaperLinear,
    /// Resistance matched to the transistor law: `R_j = R_T(τ_j)`
    /// (decision point is exact up to resistor quantization).
    Calibrated,
}

/// One printed analog comparator cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AnalogComparator {
    /// Threshold voltage this node was built for, in `[0, 1]` V.
    pub threshold: f64,
    /// The printed resistor realizing the threshold.
    pub resistor: PrintedResistor,
    /// The sense transistor.
    pub transistor: Egt,
    /// Encoding used to derive the resistor.
    pub encoding: ThresholdEncoding,
}

impl AnalogComparator {
    /// Builds a comparator for `threshold ∈ [0, 1]` volts.
    ///
    /// # Panics
    /// Panics if `threshold` is outside `[0, 1]`.
    pub fn new(threshold: f64, encoding: ThresholdEncoding) -> Self {
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold {threshold} outside [0,1] V"
        );
        let transistor = Egt::default();
        let target = match encoding {
            ThresholdEncoding::PaperLinear => threshold * (R_MAX - R_MIN) + R_MIN,
            ThresholdEncoding::Calibrated => transistor.resistance(threshold).clamp(R_MIN, R_MAX),
        };
        AnalogComparator {
            threshold,
            resistor: PrintedResistor::printable(target),
            transistor,
            encoding,
        }
    }

    /// Resolves the latch: returns `true` when the comparator decides
    /// `x > threshold` (the transistor out-pulls the resistor).
    ///
    /// For [`ThresholdEncoding::PaperLinear`] the decision point deviates
    /// from `threshold`; [`AnalogComparator::effective_threshold`] reports
    /// where it actually sits.
    pub fn decide(&self, x: f64) -> bool {
        self.transistor.resistance(x) < self.resistor.resistance
    }

    /// The input voltage at which the cell actually flips.
    pub fn effective_threshold(&self) -> f64 {
        // R_T is monotone decreasing: flip point where R_T(x) = R_j.
        let r = self
            .resistor
            .resistance
            .clamp(self.transistor.r_on, self.transistor.r_off);
        self.transistor.voltage_for_resistance(r)
    }

    /// Differential output voltage margin at input `x`, in volts.
    ///
    /// A resistor-divider estimate of how far apart `S1`/`S2` sit before
    /// the cross-coupled pair regenerates; the prototype's measured worst
    /// case was 405 mV (§VI-B).
    pub fn output_margin(&self, x: f64) -> f64 {
        let rt = self.transistor.resistance(x);
        let rj = self.resistor.resistance;
        let v1 = VDD * rj / (rt + rj);
        let v2 = VDD * rt / (rt + rj);
        (v1 - v2).abs()
    }

    /// Transistor count of the cell: sense EGT + cross-coupled pair.
    pub fn transistor_count(&self) -> usize {
        3
    }

    /// Static power: the divider leg conducts continuously and the
    /// cross-coupled pair draws a bias current while enabled (unselected
    /// nodes are gated off by their selector and draw nothing).
    pub fn static_power(&self, x: f64) -> Power {
        let rt = self.transistor.resistance(x);
        let rj = self.resistor.resistance;
        let divider = Power::from_w(VDD * VDD / (rt + rj));
        divider + Power::from_uw(18.0)
    }

    /// Worst-case static power across the input range.
    pub fn worst_static_power(&self) -> Power {
        self.static_power(VDD)
    }

    /// Settling time of the latch: RC of the resistor leg against the
    /// node capacitance, times a regeneration factor. Regeneration is
    /// dominated by the mid-range effective resistance of the pair, so the
    /// resistor value is clamped into the regeneration band.
    pub fn settle_time(&self) -> Delay {
        // Printed node capacitance (electrolyte gates are large-area).
        let c_node = 0.6e-9;
        let r_eff = self.resistor.resistance.clamp(2.0e5, 2.0e6);
        Delay::from_secs(5.0 * r_eff * c_node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_cell_flips_at_its_threshold() {
        for thr in [0.1, 0.25, 0.5, 0.75, 0.9] {
            let c = AnalogComparator::new(thr, ThresholdEncoding::Calibrated);
            let eff = c.effective_threshold();
            assert!((eff - thr).abs() < 0.02, "thr={thr} eff={eff}");
            assert!(!c.decide(thr - 0.05), "below must not trip (thr={thr})");
            assert!(c.decide(thr + 0.05), "above must trip (thr={thr})");
        }
    }

    #[test]
    fn paper_linear_encoding_has_systematic_offset() {
        // The linear map cannot match the exponential transistor law
        // everywhere: somewhere in range the effective threshold deviates.
        let mut worst = 0.0f64;
        for step in 1..20 {
            let thr = step as f64 / 20.0;
            let c = AnalogComparator::new(thr, ThresholdEncoding::PaperLinear);
            worst = worst.max((c.effective_threshold() - thr).abs());
        }
        assert!(worst > 0.05, "expected visible offset, worst {worst}");
    }

    #[test]
    fn decision_is_monotone_in_input() {
        let c = AnalogComparator::new(0.5, ThresholdEncoding::Calibrated);
        let mut tripped = false;
        for step in 0..=40 {
            let x = step as f64 / 40.0;
            let d = c.decide(x);
            if tripped {
                assert!(d, "decision must stay high once tripped");
            }
            tripped |= d;
        }
        assert!(tripped);
    }

    #[test]
    fn output_margin_is_strong_away_from_threshold() {
        let c = AnalogComparator::new(0.5, ThresholdEncoding::Calibrated);
        // The fabricated prototype's worst-case margin was 405 mV; far from
        // the trip point our model should comfortably exceed that.
        assert!(c.output_margin(0.95) > 0.4);
        assert!(c.output_margin(0.05) > 0.4);
        // Near the trip point the margin collapses.
        assert!(c.output_margin(c.effective_threshold()) < 0.1);
    }

    #[test]
    fn cell_cost_is_three_transistors_and_one_resistor() {
        let c = AnalogComparator::new(0.3, ThresholdEncoding::Calibrated);
        assert_eq!(c.transistor_count(), 3);
        assert!(c.static_power(0.5).as_uw() < 100.0);
        assert!(c.settle_time().as_ms() > 0.0);
    }
}
