//! Reproductions of the paper's fabricated analog prototypes.
//!
//! * [`MultiLevelRom`] — the 4×1 one-time-programmable printed ROM of
//!   §V-B: four rows selected by pass EGTs, data stored as dot-resistor
//!   geometry, read out as a voltage divider against a sense resistor.
//!   With `R ∈ {2·Rs, ∞, Rs/2, ≈0}` each element encodes 2 bits (output
//!   levels 1/3, 0, 2/3, 1 of VDD) — 8 bits for the whole array.
//! * [`two_level_tree_transients`] — the 2-level analog decision tree of
//!   §VI-B (11 EGTs, 3 printed resistors): transient node voltages for all
//!   four input combinations, reproducing Fig. 15c's scope traces.

use serde::Serialize;

use pdk::units::{Area, Delay, Power};

use crate::comparator::{AnalogComparator, ThresholdEncoding};
use crate::device::VDD;
use crate::transient::{simulate_node, Stimulus, Waveform};

/// Stored state of one multi-level ROM element.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum RomLevel {
    /// `R = 2·R_sense` → reads `VDD/3` (code 01).
    Double,
    /// Not printed (`R = ∞`) → reads `0 V` (code 00).
    Open,
    /// `R = R_sense/2` → reads `2·VDD/3` (code 10).
    Half,
    /// Maximum-area dot (`R ≈ 0`) → reads `VDD` (code 11).
    Short,
}

impl RomLevel {
    /// Resistance relative to the sense resistor (`None` = not printed).
    fn resistance(self, r_sense: f64) -> Option<f64> {
        match self {
            RomLevel::Double => Some(2.0 * r_sense),
            RomLevel::Open => None,
            RomLevel::Half => Some(r_sense / 2.0),
            RomLevel::Short => Some(1.0), // ≈ 0 Ω, one ohm of trace
        }
    }
}

/// The fabricated 4×1 multi-level printed ROM.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MultiLevelRom {
    levels: [RomLevel; 4],
    r_sense: f64,
}

impl MultiLevelRom {
    /// The exact prototype of §V-B:
    /// `R1 = 2·Rs, R2 = ∞, R3 = Rs/2, R4 ≈ 0`.
    pub fn paper_prototype() -> Self {
        MultiLevelRom {
            levels: [
                RomLevel::Double,
                RomLevel::Open,
                RomLevel::Half,
                RomLevel::Short,
            ],
            r_sense: 1.0e6,
        }
    }

    /// DC read-out voltage of `row` (voltage divider: sense resistor in
    /// the pull-down network, printed dot in the pull-up).
    ///
    /// # Panics
    /// Panics if `row >= 4`.
    pub fn read_voltage(&self, row: usize) -> f64 {
        let level = self.levels[row];
        match level.resistance(self.r_sense) {
            None => 0.0,
            Some(r) => VDD * self.r_sense / (self.r_sense + r),
        }
    }

    /// Decodes a read-out voltage back to its 2-bit code (nearest of the
    /// four nominal levels).
    pub fn decode(&self, voltage: f64) -> u8 {
        let nominal = [
            (0.0, 0b00u8),
            (VDD / 3.0, 0b01),
            (2.0 * VDD / 3.0, 0b10),
            (VDD, 0b11),
        ];
        // `abs` never yields -0.0, so `total_cmp` is the numeric order on
        // these distances; a NaN read-out decodes without a panic.
        let distance = |level: f64| (level - voltage).abs();
        nominal[1..]
            .iter()
            .fold(nominal[0], |best, &cand| {
                if distance(cand.0).total_cmp(&distance(best.0)).is_lt() {
                    cand
                } else {
                    best
                }
            })
            .1
    }

    /// Reads `row` and decodes its 2-bit value.
    pub fn read(&self, row: usize) -> u8 {
        self.decode(self.read_voltage(row))
    }

    /// All 8 bits of the array, row 0 in the least-significant position.
    pub fn read_all(&self) -> u8 {
        (0..4)
            .map(|r| self.read(r) << (2 * r))
            .fold(0, |a, b| a | b)
    }

    /// Transient read-out: select each row for `dwell` seconds in turn,
    /// reproducing Fig. 14c's scope trace.
    pub fn read_transient(&self, dwell: f64, samples: usize) -> Waveform {
        let switches: Vec<(f64, f64)> = (0..4)
            .map(|r| (r as f64 * dwell, self.read_voltage(r)))
            .collect();
        let stim = Stimulus::steps(switches);
        // Measured element delay was ~10 ms → tau ≈ 2 ms for 5τ settling.
        simulate_node(&[stim], |l| l[0], 2.0e-3, 0.0, 4.0 * dwell, samples)
    }

    /// Footprint of the fabricated prototype (measured: 38 mm²).
    pub fn area(&self) -> Area {
        Area::from_mm2(38.0)
    }

    /// Average read power of the prototype (measured: 39 µW).
    pub fn read_power(&self) -> Power {
        Power::from_uw(39.0)
    }

    /// Read delay of the prototype (measured: ~10 ms).
    pub fn read_delay(&self) -> Delay {
        Delay::from_ms(10.0)
    }
}

/// Node voltages of the §VI-B two-level analog tree for one input pair,
/// as transient waveforms: `(s1, s2, c3, c4)` — root complementary
/// outputs and the right split node's class lines.
///
/// Inputs `x1`, `x2` are voltages in `[0, 1]`; the prototype thresholds
/// both nodes at mid-scale.
pub fn two_level_tree_transients(
    x1: f64,
    x2: f64,
    t_end: f64,
    samples: usize,
) -> (Waveform, Waveform, Waveform, Waveform) {
    let root = AnalogComparator::new(0.5, ThresholdEncoding::Calibrated);
    let split = AnalogComparator::new(0.5, ThresholdEncoding::Calibrated);
    let tau = 1.5e-3;
    let x1_high = root.decide(x1);
    // Root outputs: S1 high when x1 is high (matches Fig. 15c: "when the
    // input x1 is at logical '1', S1/S2 are in state '1'/'0'").
    let s1 = simulate_node(
        &[Stimulus::constant(if x1_high { VDD } else { 0.0 })],
        |l| l[0],
        tau,
        VDD / 2.0,
        t_end,
        samples,
    );
    let s2 = simulate_node(
        &[Stimulus::constant(if x1_high { 0.0 } else { VDD })],
        |l| l[0],
        tau,
        VDD / 2.0,
        t_end,
        samples,
    );
    // Right split node is *selected* when x1 is low; unselected nodes are
    // pulled to 0 V by their selector EGT.
    let selected = !x1_high;
    let x2_high = split.decide(x2);
    let (c3_t, c4_t) = if !selected {
        (0.0, 0.0)
    } else if x2_high {
        (0.0, VDD)
    } else {
        (VDD, 0.0)
    };
    // Class lines settle one level later (selector cascade).
    let c3 = simulate_node(
        &[Stimulus::constant(c3_t)],
        |l| l[0],
        tau * 1.4,
        0.0,
        t_end,
        samples,
    );
    let c4 = simulate_node(
        &[Stimulus::constant(c4_t)],
        |l| l[0],
        tau * 1.4,
        0.0,
        t_end,
        samples,
    );
    (s1, s2, c3, c4)
}

/// Transient class-line waveforms of the §IV-C *digital* depth-2 bespoke
/// tree prototype (Fig. 5, right panel): given the settled logic values of
/// the four class lines, produce the RC-shaped scope traces an EGT
/// implementation exhibits when the inputs step at `t = 0`.
///
/// `class_levels` are the four logic values (exactly one should be true);
/// EGT gates slew with millisecond time constants, so the traces rise or
/// fall over several ms like the paper's measurement.
pub fn digital_tree_transients(
    class_levels: [bool; 4],
    t_end: f64,
    samples: usize,
) -> [Waveform; 4] {
    // A depth-2 bespoke tree is 2-3 gate levels deep; each EGT logic
    // stage contributes ~1 ms of slew.
    let tau = 1.2e-3;
    class_levels.map(|level| {
        simulate_node(
            &[Stimulus::constant(if level { VDD } else { 0.0 })],
            |l| l[0],
            tau,
            VDD / 2.0,
            t_end,
            samples,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_reads_the_paper_levels() {
        let rom = MultiLevelRom::paper_prototype();
        assert!((rom.read_voltage(0) - VDD / 3.0).abs() < 0.01);
        assert!((rom.read_voltage(1) - 0.0).abs() < 1e-12);
        assert!((rom.read_voltage(2) - 2.0 * VDD / 3.0).abs() < 0.01);
        assert!((rom.read_voltage(3) - VDD).abs() < 0.01);
    }

    #[test]
    fn two_bits_per_element_eight_bits_total() {
        let rom = MultiLevelRom::paper_prototype();
        assert_eq!(rom.read(0), 0b01);
        assert_eq!(rom.read(1), 0b00);
        assert_eq!(rom.read(2), 0b10);
        assert_eq!(rom.read(3), 0b11);
        assert_eq!(rom.read_all(), 0b11_10_00_01);
    }

    #[test]
    fn decode_is_robust_to_voltage_noise() {
        let rom = MultiLevelRom::paper_prototype();
        for row in 0..4 {
            let v = rom.read_voltage(row);
            for noise in [-0.08, 0.0, 0.08] {
                assert_eq!(rom.decode((v + noise).clamp(0.0, 1.0)), rom.read(row));
            }
        }
    }

    #[test]
    fn nan_decodes_without_a_panic_and_levels_decode_as_before() {
        let rom = MultiLevelRom::paper_prototype();
        assert!(rom.decode(f64::NAN) < 4);
        // The `partial_cmp` nearest-level search `decode` used to run,
        // over every level, the midpoints between them and out-of-range
        // read-outs.
        let nominal = [0.0, VDD / 3.0, 2.0 * VDD / 3.0, VDD];
        let before = |v: f64| {
            let d = |i: usize| (nominal[i] - v).abs();
            (0..4)
                .min_by(|&a, &b| d(a).partial_cmp(&d(b)).expect("finite"))
                .expect("four levels") as u8
        };
        for step in -40..=140 {
            let v = f64::from(step) * VDD / 120.0;
            assert_eq!(rom.decode(v), before(v), "{v}");
        }
    }

    #[test]
    fn transient_read_visits_all_four_levels() {
        let rom = MultiLevelRom::paper_prototype();
        let w = rom.read_transient(20e-3, 400);
        // Sample late in each dwell window: must be near the DC level.
        for row in 0..4 {
            let t_probe = (row as f64 + 0.95) * 20e-3;
            let idx = w
                .times
                .iter()
                .position(|&t| t >= t_probe)
                .unwrap_or(w.times.len() - 1);
            let expect = rom.read_voltage(row);
            assert!(
                (w.values[idx] - expect).abs() < 0.06,
                "row {row}: got {} expected {expect}",
                w.values[idx]
            );
        }
    }

    #[test]
    fn prototype_costs_match_measurements() {
        let rom = MultiLevelRom::paper_prototype();
        assert_eq!(rom.area().as_mm2(), 38.0);
        assert_eq!(rom.read_power().as_uw(), 39.0);
        assert_eq!(rom.read_delay().as_ms(), 10.0);
    }

    #[test]
    fn tree_prototype_reproduces_fig15_truth_table() {
        // x1 high → S1/S2 = 1/0, split node unselected → C3 = C4 = 0.
        let (s1, s2, c3, c4) = two_level_tree_transients(0.9, 0.9, 30e-3, 200);
        assert!(s1.settled() > 0.9 && s2.settled() < 0.1);
        assert!(c3.settled() < 0.1 && c4.settled() < 0.1);
        // x1 low → split selected; x2 high → C4, x2 low → C3.
        let (_, _, c3, c4) = two_level_tree_transients(0.1, 0.9, 30e-3, 200);
        assert!(c3.settled() < 0.1 && c4.settled() > 0.9);
        let (_, _, c3, c4) = two_level_tree_transients(0.1, 0.1, 30e-3, 200);
        assert!(c3.settled() > 0.9 && c4.settled() < 0.1);
    }

    #[test]
    fn tree_prototype_margin_exceeds_measured_worst_case() {
        // The paper measured 405 mV worst-case separation; our settled
        // complementary traces separate by at least that.
        let (s1, s2, _, _) = two_level_tree_transients(0.9, 0.5, 30e-3, 200);
        assert!(s1.margin_against(&s2) > 0.405);
    }
}

#[cfg(test)]
mod digital_proto_tests {
    use super::*;

    #[test]
    fn exactly_one_class_line_settles_high() {
        let traces = digital_tree_transients([false, false, true, false], 15e-3, 150);
        let highs: Vec<bool> = traces.iter().map(|w| w.settled() > 0.8).collect();
        assert_eq!(highs, vec![false, false, true, false]);
        // Complementary lines separate by a solid margin once settled.
        assert!(traces[2].margin_against(&traces[0]) > 0.5);
    }

    #[test]
    fn traces_start_at_midrail_and_slew() {
        let traces = digital_tree_transients([true, false, false, false], 15e-3, 150);
        assert!((traces[0].values[0] - VDD / 2.0).abs() < 0.05);
        assert!(
            traces[0].settling_time(0.05) > 1e-3,
            "EGT gates slew slowly"
        );
    }
}
