//! Printed device models: EGT transistors and printed (PEDOT:PSS) resistors.
//!
//! The analog classifier sections of the paper (§VI) replace multi-bit
//! digital logic with a handful of transistors and printed resistors. These
//! models capture what those circuits need:
//!
//! * an EGT's channel resistance as a monotone function of its gate
//!   voltage (the input-voltage → resistance conversion at every analog
//!   tree node);
//! * printable resistors with a bounded, quantized resistance range (dot
//!   geometry sets resistance — §V-B's multi-level ROM encodes 2 bits per
//!   dot this way);
//! * hand-crafted analog cell footprints, far smaller than standard cells
//!   (no routing channels, no gate stacks), calibrated so the analog-vs-
//!   digital ratios of Figs. 16/17 land in band.

use serde::Serialize;

use pdk::units::Area;

/// Supply voltage of the analog EGT circuits (EGT operates at ~1 V).
pub const VDD: f64 = 1.0;

/// An electrolyte-gated transistor in the analog signal path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Egt {
    /// Channel resistance with the gate fully on (`Vg = VDD`).
    pub r_on: f64,
    /// Channel resistance with the gate fully off (`Vg = 0`).
    pub r_off: f64,
}

impl Default for Egt {
    fn default() -> Self {
        // Inkjet-printed EGT: 10⁴ on/off ratio at 1 V operation. The range
        // deliberately coincides with the printable resistor range
        // [`R_MIN`, `R_MAX`] so every threshold in [0, VDD] has a matching
        // printable resistance.
        Egt {
            r_on: R_MIN,
            r_off: R_MAX,
        }
    }
}

impl Egt {
    /// Channel resistance at gate voltage `vg` (clamped to `[0, VDD]`).
    ///
    /// Log-linear interpolation between `r_off` and `r_on` — the standard
    /// compact-model shape for an exponential subthreshold device:
    /// resistance falls by a constant factor per volt of gate drive.
    pub fn resistance(&self, vg: f64) -> f64 {
        let v = vg.clamp(0.0, VDD) / VDD;
        self.r_off * (self.r_on / self.r_off).powf(v)
    }

    /// The gate voltage at which the channel resistance equals `r`
    /// (inverse of [`Egt::resistance`]).
    ///
    /// # Panics
    /// Panics if `r` is outside `[r_on, r_off]`.
    pub fn voltage_for_resistance(&self, r: f64) -> f64 {
        self.voltage_in_span(r, self.ln_span())
    }

    /// `ln(r_on / r_off)`: the log-span of the transistor law, which
    /// [`Egt::voltage_for_resistance`] divides by.
    pub(crate) fn ln_span(&self) -> f64 {
        (self.r_on / self.r_off).ln()
    }

    /// [`Egt::voltage_for_resistance`] with the log-span solved once by
    /// the caller: bit-identical when `ln_span == self.ln_span()`.
    ///
    /// # Panics
    /// Panics if `r` is outside `[r_on, r_off]`.
    #[inline]
    pub(crate) fn voltage_in_span(&self, r: f64, ln_span: f64) -> f64 {
        assert!(
            r >= self.r_on && r <= self.r_off,
            "resistance {r} outside [{}, {}]",
            self.r_on,
            self.r_off
        );
        (r / self.r_off).ln() / ln_span * VDD
    }

    /// Footprint of one analog EGT (hand-crafted minimal device — no
    /// standard-cell routing channels, gate stacks or drive sizing, which
    /// is where most of a printed logic cell's 0.22 mm² goes).
    pub fn area() -> Area {
        Area::from_mm2(0.0018)
    }
}

/// Printable resistance limits (dot geometry sets the value).
pub const R_MIN: f64 = 1.0e4;
/// See [`R_MIN`].
pub const R_MAX: f64 = 1.0e8;

/// A printed dot resistor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PrintedResistor {
    /// Nominal resistance in ohms.
    pub resistance: f64,
}

impl PrintedResistor {
    /// Number of printable values per decade of resistance (geometry
    /// resolution of the inkjet printer).
    pub const VALUES_PER_DECADE: usize = 48;

    /// Number of printable values: the grid `R_MIN · 10^(m / VALUES_PER_DECADE)`
    /// for `m` in `0..GRID_POINTS` spans the four decades from [`R_MIN`]
    /// to [`R_MAX`], both included.
    pub(crate) const GRID_POINTS: usize = 4 * Self::VALUES_PER_DECADE + 1;

    /// Creates a resistor, snapping to the nearest printable value.
    ///
    /// # Panics
    /// Panics if `r` is not positive or not finite.
    pub fn printable(r: f64) -> Self {
        Self::grid_point(Self::grid_index(r))
    }

    /// Index `m` of the grid point [`PrintedResistor::printable`] snaps
    /// `r` to, always below [`PrintedResistor::GRID_POINTS`].
    ///
    /// # Panics
    /// Panics if `r` is not positive or not finite.
    #[inline]
    pub(crate) fn grid_index(r: f64) -> usize {
        assert!(
            r.is_finite() && r > 0.0,
            "resistance must be positive, got {r}"
        );
        let clamped = r.clamp(R_MIN, R_MAX);
        // Geometric grid: VALUES_PER_DECADE points per decade.
        let exponent = (clamped / R_MIN).log10();
        let m = (exponent * Self::VALUES_PER_DECADE as f64).round() as usize;
        m.min(Self::GRID_POINTS - 1)
    }

    /// The printable resistor at grid index `m`.
    pub(crate) fn grid_point(m: usize) -> Self {
        let steps_per_decade = Self::VALUES_PER_DECADE as f64;
        PrintedResistor {
            resistance: R_MIN * 10f64.powf(m as f64 / steps_per_decade),
        }
    }

    /// Relative quantization error committed by [`PrintedResistor::printable`]
    /// for a target `r` (zero when `r` is on the grid, large when clamped).
    pub fn snap_error(r: f64) -> f64 {
        (Self::printable(r).resistance - r).abs() / r
    }

    /// Footprint of one printed dot resistor. Larger resistances need
    /// longer meanders; we charge the worst case to stay conservative.
    pub fn area() -> Area {
        Area::from_mm2(0.0006)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resistance_is_monotone_decreasing_in_gate_voltage() {
        let t = Egt::default();
        let mut prev = f64::INFINITY;
        for step in 0..=20 {
            let vg = step as f64 / 20.0;
            let r = t.resistance(vg);
            assert!(r < prev, "not monotone at vg={vg}");
            prev = r;
        }
        assert!((t.resistance(0.0) - t.r_off).abs() / t.r_off < 1e-12);
        assert!((t.resistance(VDD) - t.r_on).abs() / t.r_on < 1e-12);
    }

    #[test]
    fn resistance_clamps_out_of_range_gate_drives() {
        let t = Egt::default();
        assert_eq!(t.resistance(-5.0), t.resistance(0.0));
        assert_eq!(t.resistance(5.0), t.resistance(VDD));
    }

    #[test]
    fn voltage_for_resistance_inverts_resistance() {
        let t = Egt::default();
        for step in 1..20 {
            let vg = step as f64 / 20.0;
            let r = t.resistance(vg);
            let back = t.voltage_for_resistance(r);
            assert!((back - vg).abs() < 1e-9, "vg={vg} back={back}");
        }
    }

    #[test]
    fn printable_resistors_snap_to_a_geometric_grid() {
        let r = PrintedResistor::printable(123_456.0);
        assert!(PrintedResistor::snap_error(r.resistance) < 1e-12);
        // Error of an arbitrary value is bounded by half a grid step.
        let max_rel = 10f64.powf(0.5 / PrintedResistor::VALUES_PER_DECADE as f64) - 1.0;
        assert!(PrintedResistor::snap_error(123_456.0) <= max_rel + 1e-9);
    }

    #[test]
    fn the_grid_spans_the_printable_range() {
        assert_eq!(PrintedResistor::grid_point(0).resistance, R_MIN);
        let last = PrintedResistor::GRID_POINTS - 1;
        assert_eq!(PrintedResistor::grid_point(last).resistance, R_MAX);
        assert_eq!(PrintedResistor::grid_index(R_MAX), last);
        assert_eq!(PrintedResistor::grid_index(f64::MAX), last);
        assert_eq!(PrintedResistor::grid_index(f64::MIN_POSITIVE), 0);
    }

    #[test]
    fn printable_clamps_to_range() {
        assert_eq!(PrintedResistor::printable(1.0).resistance, R_MIN);
        assert_eq!(PrintedResistor::printable(1e12).resistance, R_MAX);
    }

    #[test]
    fn analog_devices_are_much_smaller_than_logic_cells() {
        let lib = pdk::CellLibrary::for_technology(pdk::Technology::Egt);
        assert!(Egt::area() < lib.area(pdk::CellKind::Inv) * 0.1);
        assert!(PrintedResistor::area() < Egt::area());
    }
}
