//! Resistive crossbar MAC engine (§VI-A, equations (1) and (2)).
//!
//! A one-time-programmed crossbar computes a normalized weighted sum of its
//! input voltages per column:
//!
//! ```text
//! V_out(c) = Σᵢ Vᵢ · w(c)ᵢ ,   w(c)ᵢ = (1/R(c)ᵢ) / Σⱼ (1/R(c)ⱼ)
//! ```
//!
//! Weights are therefore non-negative and sum to 1 per column; signed
//! dot-products use a positive and a negative column whose scaled outputs
//! are differenced (the analog SVM in [`crate::svm`]).

use serde::Serialize;

use pdk::units::{Delay, Power};

use crate::device::{PrintedResistor, VDD};

/// One programmed crossbar column.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CrossbarColumn {
    /// `(row index, printed resistor)` for each connected row.
    resistors: Vec<(usize, PrintedResistor)>,
    /// Total conductance of the column (cached denominator of eq. (2)).
    total_conductance: f64,
}

impl CrossbarColumn {
    /// Programs a column to realize `weights` (one per row; zero weights are
    /// simply not printed). Weights must be non-negative; they are
    /// normalized internally per eq. (2).
    ///
    /// # Panics
    /// Panics if any weight is negative or not finite, or all are zero.
    pub fn program(weights: &[f64]) -> Self {
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "crossbar weights must be non-negative"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "at least one weight must be non-zero");
        // Solve eq. (2): w_i = G_i / ΣG. Any overall conductance scale
        // works; pick the scale placing the largest weight at a mid-range
        // printable resistance for headroom against the grid limits.
        let wmax = weights.iter().cloned().fold(0.0, f64::max);
        let g_max = 1.0 / (2.0 * crate::device::R_MIN); // largest conductance used
        let resistors: Vec<(usize, PrintedResistor)> = weights
            .iter()
            .enumerate()
            .filter(|(_, &w)| w > 0.0)
            .map(|(i, &w)| {
                let g = g_max * (w / wmax);
                (i, PrintedResistor::printable(1.0 / g))
            })
            .collect();
        let total_conductance = resistors.iter().map(|(_, r)| 1.0 / r.resistance).sum();
        CrossbarColumn {
            resistors,
            total_conductance,
        }
    }

    /// Evaluates eq. (1) for input voltages `v` (indexed by row).
    ///
    /// # Panics
    /// Panics if `v` is shorter than the highest programmed row.
    pub fn output(&self, v: &[f64]) -> f64 {
        self.resistors
            .iter()
            .map(|(i, r)| v[*i] * (1.0 / r.resistance) / self.total_conductance)
            .sum()
    }

    /// The effective (printed, quantized) weights after programming —
    /// exactly the `w_i` of eq. (2).
    pub fn effective_weights(&self) -> Vec<(usize, f64)> {
        self.resistors
            .iter()
            .map(|(i, r)| (*i, (1.0 / r.resistance) / self.total_conductance))
            .collect()
    }

    /// Number of printed dot resistors.
    pub fn resistor_count(&self) -> usize {
        self.resistors.len()
    }

    /// Worst-case static power: every input at `VDD` into a virtually
    /// grounded column.
    pub fn static_power(&self) -> Power {
        Power::from_w(VDD * VDD * self.total_conductance)
    }

    /// Settling time: RC of the column's parallel resistance against the
    /// output node capacitance.
    pub fn settle_time(&self) -> Delay {
        let r_parallel = 1.0 / self.total_conductance;
        // Sense-line capacitance grows with the number of connected rows.
        let c_node = 1.0e-9 * (1.0 + self.resistors.len() as f64);
        Delay::from_secs(5.0 * r_parallel * c_node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_the_normalized_weighted_sum() {
        let col = CrossbarColumn::program(&[1.0, 2.0, 1.0]);
        let v = [0.2, 0.8, 0.4];
        let expect: f64 = (0.2 * 1.0 + 0.8 * 2.0 + 0.4 * 1.0) / 4.0;
        let got = col.output(&v);
        assert!((got - expect).abs() < 0.02, "got {got}, expect {expect}");
    }

    #[test]
    fn effective_weights_sum_to_one() {
        let col = CrossbarColumn::program(&[0.5, 0.0, 3.0, 1.2]);
        let sum: f64 = col.effective_weights().iter().map(|(_, w)| w).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // Zero weights are not printed.
        assert_eq!(col.resistor_count(), 3);
        assert!(col.effective_weights().iter().all(|(i, _)| *i != 1));
    }

    #[test]
    fn quantization_error_is_bounded_by_the_print_grid() {
        let weights = [0.9, 0.37, 1.8, 0.05];
        let col = CrossbarColumn::program(&weights);
        let total: f64 = weights.iter().sum();
        for (i, w_eff) in col.effective_weights() {
            let ideal = weights[i] / total;
            assert!(
                (w_eff - ideal).abs() / ideal < 0.1,
                "row {i}: effective {w_eff} vs ideal {ideal}"
            );
        }
    }

    #[test]
    fn convex_combination_stays_in_input_range() {
        let col = CrossbarColumn::program(&[1.0, 5.0, 2.0]);
        let v = [0.1, 0.9, 0.5];
        let out = col.output(&v);
        assert!((0.1..=0.9).contains(&out));
    }

    #[test]
    fn uniform_weights_average_the_inputs() {
        let col = CrossbarColumn::program(&[1.0; 4]);
        let out = col.output(&[0.0, 1.0, 0.0, 1.0]);
        assert!((out - 0.5).abs() < 0.01);
    }

    #[test]
    fn costs_scale_with_printed_dots() {
        let small = CrossbarColumn::program(&[1.0, 1.0]);
        let large = CrossbarColumn::program(&[1.0; 20]);
        assert!(small.resistor_count() == 2);
        assert!(large.resistor_count() == 20);
        assert!(large.static_power().as_uw() > 0.0);
        assert!(large.settle_time().as_ms() >= 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weights_are_rejected() {
        CrossbarColumn::program(&[1.0, -0.5]);
    }
}
