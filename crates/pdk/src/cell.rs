//! Standard-cell kinds and their technology-independent complexity factors.
//!
//! Every technology library in this PDK prices a cell as
//! `per-technology inverter anchor × cell complexity factor`, with explicit
//! per-technology overrides where the paper publishes a concrete number
//! (flip-flops and ROM bit cells). The complexity factors are conventional
//! inverter-equivalents used in standard-cell sizing practice.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A primitive standard cell.
///
/// This is the complete set of leaf cells the gate-level netlist IR may
/// instantiate; every larger block (adders, comparators, multipliers,
/// shift registers) is composed from these by `netlist`'s
/// structural generators, mirroring how the paper's RTL was mapped by logic
/// synthesis onto the EGT/CNT standard-cell libraries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CellKind {
    /// Single-input inverter — the library's anchor cell.
    Inv,
    /// Non-inverting buffer (two cascaded stages).
    Buf,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// 2:1 multiplexer (select, a, b).
    Mux2,
    /// Positive-edge D flip-flop.
    Dff,
    /// One ROM bit read out through a crossbar (conventional ROM array cell).
    RomBit,
    /// One *printed dot-resistor* ROM bit (bespoke ROM; clear bits are free).
    RomDot,
}

impl CellKind {
    /// All cell kinds, for iteration in library dumps and tests.
    pub const ALL: [CellKind; 12] = [
        CellKind::Inv,
        CellKind::Buf,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::And2,
        CellKind::Or2,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Mux2,
        CellKind::Dff,
        CellKind::RomBit,
        CellKind::RomDot,
    ];

    /// Number of data inputs of the cell (select counts for muxes).
    pub fn input_count(self) -> usize {
        match self {
            CellKind::Inv | CellKind::Buf => 1,
            CellKind::Nand2
            | CellKind::Nor2
            | CellKind::And2
            | CellKind::Or2
            | CellKind::Xor2
            | CellKind::Xnor2 => 2,
            CellKind::Mux2 => 3,
            CellKind::Dff => 1,
            CellKind::RomBit | CellKind::RomDot => 1,
        }
    }

    /// Area in inverter-equivalents.
    pub fn area_factor(self) -> f64 {
        match self {
            CellKind::Inv => 1.0,
            CellKind::Buf => 1.5,
            CellKind::Nand2 => 1.4,
            CellKind::Nor2 => 1.4,
            CellKind::And2 => 1.8,
            CellKind::Or2 => 1.8,
            CellKind::Xor2 => 3.0,
            CellKind::Xnor2 => 3.0,
            CellKind::Mux2 => 3.2,
            // Overridden per technology from the paper's quoted numbers.
            CellKind::Dff => 6.4,
            CellKind::RomBit => 0.25,
            CellKind::RomDot => 0.25,
        }
    }

    /// Propagation delay in unit gate-delays.
    pub fn delay_factor(self) -> f64 {
        match self {
            CellKind::Inv => 1.0,
            CellKind::Buf => 1.6,
            CellKind::Nand2 => 1.1,
            CellKind::Nor2 => 1.3,
            CellKind::And2 => 1.5,
            CellKind::Or2 => 1.7,
            CellKind::Xor2 => 2.2,
            CellKind::Xnor2 => 2.2,
            CellKind::Mux2 => 2.0,
            CellKind::Dff => 3.0,
            // Crossbar ROM read; per-technology overrides apply
            // (EGT reads within 1.5× of an inverter; silicon mask ROMs are
            // hundreds of times slower than logic).
            CellKind::RomBit => 1.5,
            CellKind::RomDot => 1.5,
        }
    }

    /// Static power in inverter-equivalents.
    pub fn power_factor(self) -> f64 {
        match self {
            CellKind::Inv => 1.0,
            CellKind::Buf => 1.5,
            CellKind::Nand2 => 1.4,
            CellKind::Nor2 => 1.4,
            CellKind::And2 => 1.8,
            CellKind::Or2 => 1.8,
            CellKind::Xor2 => 3.0,
            CellKind::Xnor2 => 3.0,
            CellKind::Mux2 => 3.2,
            CellKind::Dff => 6.4,
            CellKind::RomBit => 0.33,
            CellKind::RomDot => 0.33,
        }
    }

    /// True for the sequential cell (currently only the D flip-flop).
    pub fn is_sequential(self) -> bool {
        matches!(self, CellKind::Dff)
    }

    /// Approximate transistor count, used in prototype component inventories.
    pub fn transistor_count(self) -> usize {
        match self {
            CellKind::Inv => 2,
            CellKind::Buf => 4,
            CellKind::Nand2 | CellKind::Nor2 => 4,
            CellKind::And2 | CellKind::Or2 => 6,
            CellKind::Xor2 | CellKind::Xnor2 => 10,
            CellKind::Mux2 => 10,
            CellKind::Dff => 20,
            CellKind::RomBit => 1,
            CellKind::RomDot => 0,
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CellKind::Inv => "INV",
            CellKind::Buf => "BUF",
            CellKind::Nand2 => "NAND2",
            CellKind::Nor2 => "NOR2",
            CellKind::And2 => "AND2",
            CellKind::Or2 => "OR2",
            CellKind::Xor2 => "XOR2",
            CellKind::Xnor2 => "XNOR2",
            CellKind::Mux2 => "MUX2",
            CellKind::Dff => "DFF",
            CellKind::RomBit => "ROMBIT",
            CellKind::RomDot => "ROMDOT",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverter_is_the_anchor() {
        assert_eq!(CellKind::Inv.area_factor(), 1.0);
        assert_eq!(CellKind::Inv.delay_factor(), 1.0);
        assert_eq!(CellKind::Inv.power_factor(), 1.0);
    }

    #[test]
    fn factors_are_positive_and_finite() {
        for kind in CellKind::ALL {
            assert!(kind.area_factor() > 0.0, "{kind}");
            assert!(kind.delay_factor() > 0.0, "{kind}");
            assert!(kind.power_factor() > 0.0, "{kind}");
        }
    }

    #[test]
    fn xor_is_costlier_than_nand() {
        assert!(CellKind::Xor2.area_factor() > CellKind::Nand2.area_factor());
        assert!(CellKind::Xor2.delay_factor() > CellKind::Nand2.delay_factor());
    }

    #[test]
    fn only_the_flip_flop_is_sequential() {
        assert!(CellKind::Dff.is_sequential());
        assert!(!CellKind::Mux2.is_sequential());
        assert!(!CellKind::RomBit.is_sequential());
    }

    #[test]
    fn input_counts() {
        assert_eq!(CellKind::Inv.input_count(), 1);
        assert_eq!(CellKind::Nand2.input_count(), 2);
        assert_eq!(CellKind::Mux2.input_count(), 3);
    }

    #[test]
    fn dot_rom_has_no_transistors() {
        assert_eq!(CellKind::RomDot.transistor_count(), 0);
        assert!(CellKind::Dff.transistor_count() > CellKind::Inv.transistor_count());
    }
}
