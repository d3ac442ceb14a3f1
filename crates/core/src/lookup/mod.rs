//! Lookup-based classifier architectures (§V, Figs. 8–13).
//!
//! EGT crossbar ROM bits are cheaper than logic (0.05 mm² / 3.13 µW vs a
//! 0.22 mm² / 9.6 µW inverter), so computations whose inputs repeat —
//! comparisons against many thresholds of one feature, multiplications of
//! one feature by a constant — can profitably move into lookup tables, as
//! long as the expensive address decoder is *shared*.
//!
//! Two printing-specific ROM optimizations (§V-A) are modeled exactly:
//!
//! 1. **Redundant-column elimination** — LUT output bits that are identical
//!    across every word are deleted from the array and hardwired, and
//!    duplicate columns (two nodes testing the same feature against the
//!    same quantized threshold) are printed once and fanned out;
//! 2. **Bespoke dot-resistor arrays** — set bits are printed dots, clear
//!    bits simply aren't printed and cost nothing.

pub mod svm;
pub mod tree;

pub use svm::{lookup_svm, lookup_svm_raw};
pub use tree::{lookup_parallel, lookup_parallel_raw};

use std::collections::BTreeMap;

use ml::quant::{QNode, QuantizedTree};
use netlist::builder::NetlistBuilder;
use netlist::ir::Signal;
use pdk::rom::RomStyle;

/// Knobs of the lookup generators, mirroring Fig. 9/10 and Fig. 12/13.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupConfig {
    /// Apply redundant-column elimination: constant columns are hardwired
    /// and duplicate columns share one printed column.
    pub eliminate_constant_columns: bool,
    /// Print the data array as bespoke dots instead of a full crossbar.
    pub bespoke_dots: bool,
}

impl LookupConfig {
    /// Plain lookup replacement (Figs. 9 and 12).
    pub fn baseline() -> Self {
        LookupConfig {
            eliminate_constant_columns: false,
            bespoke_dots: false,
        }
    }

    /// Both printing-specific optimizations on (Figs. 10 and 13).
    pub fn optimized() -> Self {
        LookupConfig {
            eliminate_constant_columns: true,
            bespoke_dots: true,
        }
    }
}

/// Every field, in field order.
impl cache::Hashable for LookupConfig {
    fn stable_hash(&self, h: &mut cache::StableHasher) {
        let LookupConfig {
            eliminate_constant_columns,
            bespoke_dots,
        } = *self;
        h.write_bool(eliminate_constant_columns);
        h.write_bool(bespoke_dots);
    }
}

/// Emits a ROM for `contents`, applying the configured optimizations, and
/// returns the full `bits`-wide output (constant columns come back as
/// [`Signal::Const`], which downstream optimization folds).
pub(crate) fn emit_lut(
    b: &mut NetlistBuilder,
    addr: &[Signal],
    contents: &[u64],
    bits: usize,
    config: LookupConfig,
) -> Vec<Signal> {
    let style = if config.bespoke_dots {
        RomStyle::BespokeDots
    } else {
        RomStyle::Crossbar
    };
    if !config.eliminate_constant_columns {
        return b.rom(addr, contents.to_vec(), bits, style);
    }
    // Redundant-column elimination: constant columns become hardwired
    // rails; duplicate columns are printed once and fanned out.
    enum Column {
        Const(bool),
        Unique(usize),
    }
    let mut unique: Vec<Vec<bool>> = Vec::new();
    let columns: Vec<Column> = (0..bits)
        .map(|bit| {
            let pattern: Vec<bool> = contents.iter().map(|w| (w >> bit) & 1 == 1).collect();
            if pattern.iter().all(|&v| v == pattern[0]) {
                Column::Const(pattern[0])
            } else if let Some(j) = unique.iter().position(|p| *p == pattern) {
                Column::Unique(j)
            } else {
                unique.push(pattern);
                Column::Unique(unique.len() - 1)
            }
        })
        .collect();
    if unique.is_empty() {
        return columns
            .iter()
            .map(|c| match c {
                Column::Const(v) => Signal::Const(*v),
                Column::Unique(_) => unreachable!(),
            })
            .collect();
    }
    // Compact the surviving columns into a narrower ROM.
    let compacted: Vec<u64> = (0..contents.len())
        .map(|w| {
            unique
                .iter()
                .enumerate()
                .fold(0u64, |acc, (j, p)| acc | ((p[w] as u64) << j))
        })
        .collect();
    let outputs = b.rom(addr, compacted, unique.len(), style);
    columns
        .iter()
        .map(|c| match c {
            Column::Const(v) => Signal::Const(*v),
            Column::Unique(j) => outputs[*j],
        })
        .collect()
}

/// Replaces the comparators of `trees` by shared-decoder lookup tables:
/// one LUT per tested feature, addressed by `port(feature)`, whose column
/// `j` stores `code > τ_j` for the `j`-th split testing that feature
/// (trees in order, nodes in index order). A ROM word carries at most 64
/// columns, so very popular features split across several LUTs, each
/// still sharing one decoder.
///
/// Returns each split's decision bit, indexed `[tree][node]` (leaf
/// entries are unused).
pub(crate) fn lookup_decisions<'p>(
    b: &mut NetlistBuilder,
    trees: &[QuantizedTree],
    port: impl Fn(usize) -> &'p [Signal],
    config: LookupConfig,
) -> Vec<Vec<Signal>> {
    let mut groups: BTreeMap<usize, Vec<(usize, usize, u64)>> = BTreeMap::new();
    for (ti, tree) in trees.iter().enumerate() {
        for (ni, node) in tree.nodes().iter().enumerate() {
            if let QNode::Split {
                feature, threshold, ..
            } = *node
            {
                groups.entry(feature).or_default().push((ti, ni, threshold));
            }
        }
    }
    let mut decision: Vec<Vec<Signal>> = trees
        .iter()
        .map(|t| vec![Signal::ZERO; t.nodes().len()])
        .collect();
    for (feature, nodes) in groups {
        let addr = port(feature);
        for chunk in nodes.chunks(64) {
            let contents: Vec<u64> = (0..1u64 << addr.len())
                .map(|code| {
                    chunk.iter().enumerate().fold(0, |acc, (j, &(_, _, tau))| {
                        acc | (((code > tau) as u64) << j)
                    })
                })
                .collect();
            let outs = emit_lut(b, addr, &contents, chunk.len(), config);
            for (&(ti, ni, _), &out) in chunk.iter().zip(&outs) {
                decision[ti][ni] = out;
            }
        }
    }
    decision
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::sim::Simulator;

    #[test]
    fn constant_columns_are_hardwired_and_correct() {
        // Contents where bit 0 is always 0 and bit 3 always 1.
        let contents: Vec<u64> = vec![0b1010, 0b1100, 0b1110, 0b1000];
        let mut b = NetlistBuilder::new("t");
        let addr = b.input("a", 2);
        let out = emit_lut(&mut b, &addr, &contents, 4, LookupConfig::optimized());
        assert_eq!(out[0], Signal::Const(false));
        assert_eq!(out[3], Signal::Const(true));
        b.output("o", &out);
        let m = b.finish();
        // The surviving ROM carries only 2 data columns.
        assert_eq!(m.roms[0].data.len(), 2);
        let mut sim = Simulator::new(&m);
        for (a, &want) in contents.iter().enumerate() {
            assert_eq!(sim.try_apply(&[a as u64], 0), Ok(vec![want]));
        }
    }

    #[test]
    fn fully_constant_tables_need_no_rom_at_all() {
        let contents = vec![0b01u64; 8];
        let mut b = NetlistBuilder::new("t");
        let addr = b.input("a", 3);
        let out = emit_lut(&mut b, &addr, &contents, 2, LookupConfig::optimized());
        assert_eq!(out, vec![Signal::ONE, Signal::ZERO]);
        assert!(b.module().roms.is_empty());
    }

    #[test]
    fn baseline_keeps_every_column() {
        let contents = vec![0b10u64, 0b10, 0b10, 0b10];
        let mut b = NetlistBuilder::new("t");
        let addr = b.input("a", 2);
        let out = emit_lut(&mut b, &addr, &contents, 2, LookupConfig::baseline());
        assert!(out.iter().all(|s| !s.is_const()));
        assert_eq!(b.module().roms[0].data.len(), 2);
    }

    #[test]
    fn dots_style_is_selected_by_config() {
        let mut b = NetlistBuilder::new("t");
        let addr = b.input("a", 2);
        let _ = emit_lut(&mut b, &addr, &[1, 2, 3, 0], 2, LookupConfig::optimized());
        assert_eq!(b.module().roms[0].style, pdk::RomStyle::BespokeDots);
    }
}
