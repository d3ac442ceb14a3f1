//! Technology-calibrated standard-cell libraries.
//!
//! The real EGT and CNT-TFT PDKs (Bleier et al., ISCA 2020 — reference \[10\]
//! of the paper) are not redistributable, so these libraries are calibrated
//! to every concrete number the MICRO paper itself publishes:
//!
//! * EGT inverter: 0.22 mm², 9.6 µW (§V);
//! * EGT 1-bit crossbar ROM cell: 0.05 mm², 3.13 µW, delay within 1.5× of
//!   an inverter (§V);
//! * CNT-TFT inverter: 0.002 mm², 8.08 µW; CNT ROM bit 0.05 mm², 2.77 µW
//!   (§V-A) — i.e. CNT ROM bits are *cheaper in power but 25× larger* than
//!   logic, which is why lookup-based CNT trees save power but explode in
//!   area (69×);
//! * D flip-flop: 1.41 mm² / 121 µW (EGT), 0.018 mm² / 77 µW (CNT-TFT),
//!   3.99 µm² / 4.7 µW (TSMC 40 nm) (§IV-B);
//! * silicon mask-ROM bits: ~900× slower and ~1200× more power-hungry than
//!   an inverter (§V, citing \[79\]);
//! * Table I component-level PPA for an 8-bit comparator, 8-bit MAC and
//!   ReLU in all three technologies (reproduced by `crates/bench` bin
//!   `table1` and asserted within tolerance by this crate's tests).

use serde::{Deserialize, Serialize};

use crate::cell::CellKind;
use crate::tech::Technology;
use crate::units::{Area, Delay, Power};

/// Fully-priced standard cell: the PPA of one cell instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellCost {
    /// Placed-and-routed footprint.
    pub area: Area,
    /// Worst-case input-to-output propagation delay
    /// (clock-to-Q for the flip-flop).
    pub delay: Delay,
    /// Static power draw. Printed technologies are static-dominated; for the
    /// silicon library this is an activity-weighted total matching Table I.
    pub power: Power,
}

/// A standard-cell library for one [`Technology`].
///
/// ```
/// use pdk::{CellKind, CellLibrary, Technology};
/// let lib = CellLibrary::for_technology(Technology::Egt);
/// let inv = lib.cost(CellKind::Inv);
/// assert!((inv.area.as_mm2() - 0.22).abs() < 1e-9);
/// assert!((inv.power.as_uw() - 9.6).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellLibrary {
    technology: Technology,
    inv_area: Area,
    inv_power: Power,
    unit_delay: Delay,
    dff: CellCost,
    rom_bit: CellCost,
    rom_dot: CellCost,
}

impl CellLibrary {
    /// Builds the calibrated library for `technology`.
    pub fn for_technology(technology: Technology) -> Self {
        match technology {
            Technology::Egt => CellLibrary {
                technology,
                // §V: one-input inverter 0.22 mm², 9.6 µW.
                inv_area: Area::from_mm2(0.22),
                inv_power: Power::from_uw(9.6),
                // Calibrated so an 8-bit ripple comparator lands on Table I's
                // 11.2 ms and an 8-bit MAC on 27 ms.
                unit_delay: Delay::from_ms(0.42),
                // §IV-B: EGT DFF is 1.41 mm² and 121 µW.
                dff: CellCost {
                    area: Area::from_mm2(1.41),
                    delay: Delay::from_ms(0.42 * 3.0),
                    power: Power::from_uw(121.0),
                },
                // §V: 1-bit EGT ROM 0.05 mm², 3.13 µW, ≤1.5× inverter delay.
                rom_bit: CellCost {
                    area: Area::from_mm2(0.05),
                    delay: Delay::from_ms(0.42 * 1.5),
                    power: Power::from_uw(3.13),
                },
                // §V-A: a bespoke set bit is a bare printed PEDOT dot —
                // an order of magnitude below the addressable crossbar
                // cell — and a clear bit is simply not printed.
                rom_dot: CellCost {
                    area: Area::from_mm2(0.004),
                    delay: Delay::from_ms(0.42 * 1.5),
                    power: Power::from_uw(1.2),
                },
            },
            Technology::CntTft => CellLibrary {
                technology,
                // §V-A: CNT inverter 0.002 mm². Logic power is calibrated to
                // Table I (CNT logic is far leakier per gate than its
                // quoted minimum-size inverter; an 8-bit comparator draws
                // 8.32 mW).
                inv_area: Area::from_mm2(0.002),
                inv_power: Power::from_uw(120.0),
                unit_delay: Delay::from_us(0.36),
                // §IV-B: CNT DFF is 0.018 mm² and 77 µW.
                dff: CellCost {
                    area: Area::from_mm2(0.018),
                    delay: Delay::from_us(0.36 * 3.0),
                    power: Power::from_uw(77.0),
                },
                // §V-A: CNT ROM bit 0.05 mm², 2.77 µW — larger than logic,
                // cheaper in power.
                rom_bit: CellCost {
                    area: Area::from_mm2(0.05),
                    delay: Delay::from_us(0.36 * 1.5),
                    power: Power::from_uw(2.77),
                },
                // Subtractively-patterned CNT dots are less of a win than
                // inkjet EGT dots, but still below the full cell.
                rom_dot: CellCost {
                    area: Area::from_mm2(0.01),
                    delay: Delay::from_us(0.36 * 1.5),
                    power: Power::from_uw(1.0),
                },
            },
            Technology::Tsmc40 => CellLibrary {
                technology,
                // Typical 40 nm inverter footprint; power calibrated to
                // Table I's activity-weighted component totals.
                inv_area: Area::from_um2(1.6),
                inv_power: Power::from_uw(2.2),
                unit_delay: Delay::from_ns(0.0085),
                // §IV-B: TSMC 40 nm DFF is 3.99 µm² and 4.7 µW.
                dff: CellCost {
                    area: Area::from_um2(3.99),
                    delay: Delay::from_ns(0.0085 * 3.0),
                    power: Power::from_uw(4.7),
                },
                // §V (citing [79]): silicon mask-ROM bit ~900× slower and
                // ~1200× the power of an inverter, tiny in area.
                rom_bit: CellCost {
                    area: Area::from_um2(0.05),
                    delay: Delay::from_ns(0.0085 * 900.0),
                    power: Power::from_uw(2.2 * 1200.0 / 1000.0),
                },
                // Silicon has no printable-dot option: a "dot" is just a
                // mask-ROM contact, same cell either way.
                rom_dot: CellCost {
                    area: Area::from_um2(0.05),
                    delay: Delay::from_ns(0.0085 * 900.0),
                    power: Power::from_uw(2.2 * 1200.0 / 1000.0),
                },
            },
        }
    }

    /// The technology this library prices.
    pub fn technology(&self) -> Technology {
        self.technology
    }

    /// The unit (inverter) gate delay the library is calibrated around.
    pub fn unit_delay(&self) -> Delay {
        self.unit_delay
    }

    /// Full PPA of one `kind` cell instance.
    pub fn cost(&self, kind: CellKind) -> CellCost {
        match kind {
            CellKind::Dff => self.dff,
            CellKind::RomBit => self.rom_bit,
            CellKind::RomDot => self.rom_dot,
            _ => CellCost {
                area: self.inv_area * kind.area_factor(),
                delay: self.unit_delay * kind.delay_factor(),
                power: self.inv_power * kind.power_factor(),
            },
        }
    }

    /// Area of one `kind` instance.
    pub fn area(&self, kind: CellKind) -> Area {
        self.cost(kind).area
    }

    /// Delay of one `kind` instance.
    pub fn delay(&self, kind: CellKind) -> Delay {
        self.cost(kind).delay
    }

    /// Static power of one `kind` instance.
    pub fn power(&self, kind: CellKind) -> Power {
        self.cost(kind).power
    }
}

impl CellLibrary {
    /// A derated copy of the library for harsh deployment conditions.
    ///
    /// §VII: EGTs bend reliably to a 10 mm radius with <10 % change in
    /// electrical characteristics; humidity and dirt are handled by a
    /// passivation layer. Derating multiplies every cell's delay and
    /// power by the given factors (≥ 1) so designs can be signed off at
    /// the bent/hot corner rather than nominal.
    ///
    /// # Panics
    /// Panics if either factor is below 1 (derating never improves).
    pub fn derated(&self, delay_factor: f64, power_factor: f64) -> CellLibrary {
        assert!(
            delay_factor >= 1.0 && power_factor >= 1.0,
            "derating factors must be >= 1"
        );
        let scale = |c: CellCost| CellCost {
            area: c.area,
            delay: c.delay * delay_factor,
            power: c.power * power_factor,
        };
        CellLibrary {
            technology: self.technology,
            inv_area: self.inv_area,
            inv_power: self.inv_power * power_factor,
            unit_delay: self.unit_delay * delay_factor,
            dff: scale(self.dff),
            rom_bit: scale(self.rom_bit),
            rom_dot: scale(self.rom_dot),
        }
    }

    /// The §VII bent-to-10-mm-radius corner: 10 % slower, 10 % hungrier.
    pub fn bent_corner(&self) -> CellLibrary {
        self.derated(1.1, 1.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib(t: Technology) -> CellLibrary {
        CellLibrary::for_technology(t)
    }

    #[test]
    fn egt_anchors_match_paper_quotes() {
        let l = lib(Technology::Egt);
        assert!((l.area(CellKind::Inv).as_mm2() - 0.22).abs() < 1e-12);
        assert!((l.power(CellKind::Inv).as_uw() - 9.6).abs() < 1e-12);
        assert!((l.area(CellKind::RomBit).as_mm2() - 0.05).abs() < 1e-12);
        assert!((l.power(CellKind::RomBit).as_uw() - 3.13).abs() < 1e-12);
        assert!((l.area(CellKind::Dff).as_mm2() - 1.41).abs() < 1e-12);
        assert!((l.power(CellKind::Dff).as_uw() - 121.0).abs() < 1e-12);
    }

    #[test]
    fn cnt_anchors_match_paper_quotes() {
        let l = lib(Technology::CntTft);
        assert!((l.area(CellKind::Inv).as_mm2() - 0.002).abs() < 1e-12);
        assert!((l.area(CellKind::RomBit).as_mm2() - 0.05).abs() < 1e-12);
        assert!((l.power(CellKind::RomBit).as_uw() - 2.77).abs() < 1e-12);
        assert!((l.area(CellKind::Dff).as_mm2() - 0.018).abs() < 1e-12);
    }

    #[test]
    fn tsmc_dff_matches_paper_quote() {
        let l = lib(Technology::Tsmc40);
        assert!((l.area(CellKind::Dff).as_um2() - 3.99).abs() < 1e-9);
        assert!((l.power(CellKind::Dff).as_uw() - 4.7).abs() < 1e-12);
    }

    #[test]
    fn egt_rom_bit_is_cheaper_than_logic_cnt_is_larger() {
        // §V: the economics that enable lookup-based EGT classifiers.
        let egt = lib(Technology::Egt);
        assert!(egt.area(CellKind::RomBit) < egt.area(CellKind::Inv));
        assert!(egt.power(CellKind::RomBit) < egt.power(CellKind::Inv));
        // §V-A: CNT ROM bits are larger than logic but cheaper in power.
        let cnt = lib(Technology::CntTft);
        assert!(cnt.area(CellKind::RomBit) > cnt.area(CellKind::Inv));
        assert!(cnt.power(CellKind::RomBit) < cnt.power(CellKind::Inv));
    }

    #[test]
    fn egt_rom_reads_fast_silicon_rom_reads_slow() {
        let egt = lib(Technology::Egt);
        assert!(egt.delay(CellKind::RomBit).ratio(egt.delay(CellKind::Inv)) <= 1.5 + 1e-9);
        let si = lib(Technology::Tsmc40);
        assert!(si.delay(CellKind::RomBit).ratio(si.delay(CellKind::Inv)) > 100.0);
    }

    #[test]
    fn technologies_are_ordered_in_cost() {
        // EGT ≫ CNT ≫ silicon in both area and delay for plain logic.
        let egt = lib(Technology::Egt);
        let cnt = lib(Technology::CntTft);
        let si = lib(Technology::Tsmc40);
        assert!(egt.area(CellKind::Nand2) > cnt.area(CellKind::Nand2));
        assert!(cnt.area(CellKind::Nand2) > si.area(CellKind::Nand2));
        assert!(egt.delay(CellKind::Nand2) > cnt.delay(CellKind::Nand2));
        assert!(cnt.delay(CellKind::Nand2) > si.delay(CellKind::Nand2));
    }

    #[test]
    fn all_cells_have_positive_cost_in_all_technologies() {
        for tech in Technology::ALL {
            let l = lib(tech);
            for kind in CellKind::ALL {
                let c = l.cost(kind);
                assert!(c.area.as_mm2() > 0.0, "{tech} {kind}");
                assert!(c.delay.as_secs() > 0.0, "{tech} {kind}");
                assert!(c.power.as_mw() > 0.0, "{tech} {kind}");
            }
        }
    }
}

#[cfg(test)]
mod derate_tests {
    use super::*;
    use crate::cell::CellKind;

    #[test]
    fn derating_scales_delay_and_power_not_area() {
        let nominal = CellLibrary::for_technology(Technology::Egt);
        let bent = nominal.bent_corner();
        for kind in CellKind::ALL {
            let n = nominal.cost(kind);
            let d = bent.cost(kind);
            assert_eq!(n.area, d.area, "{kind}");
            assert!((d.delay.ratio(n.delay) - 1.1).abs() < 1e-9, "{kind}");
            assert!((d.power.ratio(n.power) - 1.1).abs() < 1e-9, "{kind}");
        }
    }

    #[test]
    #[should_panic(expected = "factors must be >= 1")]
    fn improving_derates_are_rejected() {
        CellLibrary::for_technology(Technology::Egt).derated(0.9, 1.0);
    }
}
