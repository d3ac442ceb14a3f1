//! Structural statistics: logic depth per output, level histograms.
//!
//! Printed designs are latency-dominated by logic depth (every level is a
//! millisecond in EGT), so "how many levels deep is each output" is the
//! first question a designer asks of a generated netlist.

use crate::error::SimError;
use crate::ir::Module;
use crate::levels::Levels;

/// Logic levels (gate counts along the longest path) per output port bit.
///
/// Inputs, constants and flip-flop outputs are depth 0; every gate adds
/// one level; a ROM macro adds one level. Returns `(port name, bit,
/// levels)` rows.
///
/// # Errors
/// [`SimError::InvalidModule`] or [`SimError::CombinationalCycle`] when
/// the module cannot be levelized.
pub fn logic_levels(module: &Module) -> Result<Vec<(String, usize, usize)>, SimError> {
    let depth = Levels::try_new(module)?.sweep(module, vec![[0]; module.net_count()], |_, w| {
        w[0] += 1;
    });
    let mut rows = Vec::new();
    for port in &module.outputs {
        for (bit, sig) in port.bits.iter().enumerate() {
            let d = sig.net().map_or(0, |n| depth[n.index()][0]);
            rows.push((port.name.clone(), bit, d));
        }
    }
    Ok(rows)
}

/// The deepest logic level of any output.
///
/// # Errors
/// As [`logic_levels`].
pub fn max_logic_levels(module: &Module) -> Result<usize, SimError> {
    let rows = logic_levels(module)?;
    Ok(rows.into_iter().map(|(_, _, d)| d).max().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    #[test]
    fn chain_depth_counts_gates() {
        let mut b = NetlistBuilder::new("chain");
        let x = b.input("x", 1);
        let mut s = x[0];
        for _ in 0..7 {
            s = b.not(s);
        }
        b.output("o", &[s]);
        b.output("direct", &[x[0]]);
        let m = b.finish();
        let rows = logic_levels(&m).unwrap();
        assert!(rows.contains(&("o".to_string(), 0, 7)));
        assert!(rows.contains(&("direct".to_string(), 0, 0)));
        assert_eq!(max_logic_levels(&m).unwrap(), 7);
    }

    #[test]
    fn roms_add_one_level() {
        use pdk::RomStyle;
        let mut b = NetlistBuilder::new("r");
        let a = b.input("a", 2);
        let inv: Vec<_> = a.iter().map(|&s| b.not(s)).collect();
        let d = b.rom(&inv, vec![0, 1, 2, 3], 2, RomStyle::Crossbar);
        b.output("d", &d);
        let m = b.finish();
        assert_eq!(max_logic_levels(&m).unwrap(), 2); // inverter + ROM
    }

    #[test]
    fn constants_are_level_zero() {
        let mut b = NetlistBuilder::new("c");
        let _x = b.input("x", 1);
        b.output("k", &[crate::ir::Signal::ONE]);
        let m = b.finish();
        assert_eq!(max_logic_levels(&m).unwrap(), 0);
    }

    #[test]
    fn optimized_bespoke_trees_are_shallow() {
        use crate::comb::unsigned_le;
        use crate::opt::optimize;
        let mut b = NetlistBuilder::new("node");
        let x = b.input("x", 8);
        let tau = b.const_word(100, 8);
        let le = unsigned_le(&mut b, &x, &tau);
        b.output("le", &[le]);
        let raw = b.finish();
        let opt = optimize(&raw);
        assert!(max_logic_levels(&opt).unwrap() <= max_logic_levels(&raw).unwrap());
    }
}
