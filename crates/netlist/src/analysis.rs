//! Static PPA analysis: area and static power sums, critical-path delay.
//!
//! This plays the role Synopsys DC reports played in the paper: every
//! table's Delay/Area/Power columns come from walking a gate-level module
//! against a [`CellLibrary`]. Delay is the longest register-to-register /
//! input-to-output combinational path (for sequential designs this is the
//! minimum clock period; inference latency is `cycles × period`).

use serde::{Deserialize, Serialize};

use pdk::rom::{rom_cost, RomSpec, RomStyle};
use pdk::{Area, CellLibrary, Delay, Power};

use crate::ir::Module;
use crate::levels::{Item, Levels};

/// Power-performance-area report for one module in one technology.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Ppa {
    /// Critical combinational path (min clock period / comb latency).
    pub delay: Delay,
    /// Total area, logic + memory.
    pub area: Area,
    /// Total static power, logic + memory.
    pub power: Power,
    /// Logic-only area (paper's Table III separates logic from memory).
    pub logic_area: Area,
    /// ROM macro area.
    pub rom_area: Area,
    /// Logic-only power.
    pub logic_power: Power,
    /// ROM macro power.
    pub rom_power: Power,
    /// Standard-cell instance count (ROM macros excluded).
    pub gate_count: usize,
    /// Flip-flop count.
    pub dff_count: usize,
    /// Total ROM bits paid for (crossbar bits, or printed dots for bespoke).
    pub rom_bits: usize,
}

impl Ppa {
    /// Inference latency for a sequential design clocked at the critical
    /// path, running `cycles` cycles.
    pub fn latency(&self, cycles: usize) -> Delay {
        self.delay * cycles as f64
    }
}

/// Analyzes `module` against `lib`.
///
/// ```
/// use netlist::builder::NetlistBuilder;
/// use netlist::analysis::analyze;
/// use pdk::{CellLibrary, Technology};
///
/// let mut b = NetlistBuilder::new("pair");
/// let x = b.input("x", 2);
/// let y = b.and(x[0], x[1]);
/// b.output("y", &[y]);
/// let m = b.finish();
/// let ppa = analyze(&m, &CellLibrary::for_technology(Technology::Egt));
/// assert_eq!(ppa.gate_count, 1);
/// ```
///
/// # Panics
/// Panics with the [`crate::SimError`] message if `module` fails
/// [`Module::validate`] or contains a combinational cycle. Modules from
/// [`crate::builder::NetlistBuilder::finish`] and the generators never
/// do; a module read through serde may.
pub fn analyze(module: &Module, lib: &CellLibrary) -> Ppa {
    let mut logic_area = Area::ZERO;
    let mut logic_power = Power::ZERO;
    for gate in &module.gates {
        let c = lib.cost(gate.kind);
        logic_area += c.area;
        logic_power += c.power;
    }

    let mut rom_area = Area::ZERO;
    let mut rom_power = Power::ZERO;
    let mut rom_bits = 0usize;
    let mut rom_delays: Vec<Delay> = Vec::with_capacity(module.roms.len());
    for rom in &module.roms {
        // The decoder is sized for the full address space the instance
        // wires up (the paper sizes serial-tree ROMs for a full tree).
        let words = 1usize << rom.addr.len().min(30);
        let spec = match rom.style {
            RomStyle::Crossbar => RomSpec::crossbar(words, rom.data.len()),
            RomStyle::BespokeDots => RomSpec::bespoke(words, rom.data.len(), rom.set_bits()),
        };
        let cost = rom_cost(&spec, lib);
        rom_area += cost.area;
        rom_power += cost.power;
        rom_bits += match rom.style {
            RomStyle::Crossbar => words * rom.data.len(),
            RomStyle::BespokeDots => rom.set_bits(),
        };
        rom_delays.push(cost.delay);
    }

    let delay = critical_path(module, lib, &rom_delays);

    Ppa {
        delay,
        area: logic_area + rom_area,
        power: logic_power + rom_power,
        logic_area,
        rom_area,
        logic_power,
        rom_power,
        gate_count: module.gate_count(),
        dff_count: module.dff_count(),
        rom_bits,
    }
}

/// Longest combinational path through the module: one forward sweep of
/// arrival times over the shared order, then the latest arrival at any
/// module output or flip-flop D pin.
fn critical_path(module: &Module, lib: &CellLibrary, rom_delays: &[Delay]) -> Delay {
    let levels = match Levels::try_new(module) {
        Ok(levels) => levels,
        Err(e) => e.raise(),
    };
    // Sources (inputs, constants) arrive at 0, DFF outputs at clk-to-Q.
    let mut arrival = vec![Delay::ZERO; module.net_count()];
    let dffs = || module.gates.iter().filter(|g| g.kind.is_sequential());
    for g in dffs() {
        arrival[g.output.index()] = lib.cost(g.kind).delay;
    }
    let arrival = levels.sweep(module, arrival, |item, worst| {
        worst
            + match item {
                Item::Gate(i) => lib.cost(module.gates[i as usize].kind).delay,
                Item::Rom(i) => rom_delays[i as usize],
            }
    });
    module
        .outputs
        .iter()
        .flat_map(|p| &p.bits)
        .chain(dffs().map(|g| &g.inputs[0]))
        .map(|s| s.net().map_or(Delay::ZERO, |n| arrival[n.index()]))
        .fold(Delay::ZERO, Delay::max)
}

/// Per-region (hierarchy tag) area and power breakdown.
///
/// Regions are attached by [`crate::builder::NetlistBuilder::push_region`];
/// the sum over all regions equals the module's logic totals (ROM macros
/// are reported separately by [`analyze`]).
pub fn by_region(module: &Module, lib: &CellLibrary) -> Vec<RegionCost> {
    let mut rows: Vec<RegionCost> = module
        .regions
        .iter()
        .map(|name| RegionCost {
            region: name.clone(),
            area: Area::ZERO,
            power: Power::ZERO,
            gates: 0,
        })
        .collect();
    for gate in &module.gates {
        let c = lib.cost(gate.kind);
        let row = &mut rows[gate.region as usize];
        row.area += c.area;
        row.power += c.power;
        row.gates += 1;
    }
    rows.retain(|r| r.gates > 0);
    rows
}

/// One row of a per-region breakdown.
#[derive(Debug, Clone, Serialize)]
pub struct RegionCost {
    /// Region name.
    pub region: String,
    /// Logic area attributed to the region.
    pub area: Area,
    /// Logic power attributed to the region.
    pub power: Power,
    /// Gate count in the region.
    pub gates: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::{add, multiply};
    use crate::builder::NetlistBuilder;
    use crate::comb::unsigned_gt;
    use pdk::{CellKind, Technology};

    fn egt() -> CellLibrary {
        CellLibrary::for_technology(Technology::Egt)
    }

    #[test]
    fn area_and_power_are_cell_sums() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x", 2);
        let a = b.and(x[0], x[1]);
        let o = b.not(a);
        b.output("o", &[o]);
        let m = b.finish();
        let lib = egt();
        let ppa = analyze(&m, &lib);
        let expect_area = lib.area(CellKind::And2) + lib.area(CellKind::Inv);
        assert!((ppa.area.as_mm2() - expect_area.as_mm2()).abs() < 1e-9);
        assert_eq!(ppa.gate_count, 2);
        assert!(ppa.rom_area.is_zero());
    }

    #[test]
    fn critical_path_is_the_longest_chain() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x", 1);
        // Chain of 5 inverters next to a single parallel inverter.
        let mut s = x[0];
        for _ in 0..5 {
            s = b.not(s);
        }
        let short = b.not(x[0]);
        b.output("long", &[s]);
        b.output("short", &[short]);
        let m = b.finish();
        let lib = egt();
        let ppa = analyze(&m, &lib);
        let inv = lib.delay(CellKind::Inv);
        assert!((ppa.delay.as_secs() - inv.as_secs() * 5.0).abs() < 1e-12);
    }

    #[test]
    fn sequential_paths_end_at_dff_inputs() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x", 1);
        let inv1 = b.not(x[0]);
        let inv2 = b.not(inv1);
        let q = b.dff(inv2, false);
        b.output("q", &[q]);
        let m = b.finish();
        let lib = egt();
        let ppa = analyze(&m, &lib);
        // Two paths: 2 inverters into the D pin (2 inv delays) and the
        // clk-to-Q edge straight to the output port (DFF delay, which is
        // the longer one in this library).
        let expect = (lib.delay(CellKind::Inv) * 2.0).max(lib.delay(CellKind::Dff));
        assert!((ppa.delay.as_secs() - expect.as_secs()).abs() < 1e-12);
        assert_eq!(ppa.dff_count, 1);
    }

    #[test]
    fn mac_is_much_costlier_than_comparator() {
        // The Table I relationship that drives algorithm choice (§III):
        // an EGT MAC needs ~7.5× the area and ~6.8× the power of a
        // comparator.
        let lib = egt();
        let cmp = {
            let mut b = NetlistBuilder::new("cmp");
            let a = b.input("a", 8);
            let bb = b.input("b", 8);
            let o = unsigned_gt(&mut b, &a, &bb);
            b.output("o", &[o]);
            analyze(&b.finish(), &lib)
        };
        let mac = {
            let mut b = NetlistBuilder::new("mac");
            let a = b.input("a", 8);
            let bb = b.input("b", 8);
            let acc = b.input("acc", 16);
            let p = multiply(&mut b, &a, &bb);
            let s = add(&mut b, &p, &acc);
            b.output("o", &s);
            analyze(&b.finish(), &lib)
        };
        let area_ratio = mac.area.ratio(cmp.area);
        let power_ratio = mac.power.ratio(cmp.power);
        assert!(
            area_ratio > 4.0 && area_ratio < 15.0,
            "area ratio {area_ratio}"
        );
        assert!(
            power_ratio > 4.0 && power_ratio < 15.0,
            "power ratio {power_ratio}"
        );
        assert!(mac.delay > cmp.delay);
    }

    #[test]
    fn rom_costs_are_separated_from_logic() {
        let mut b = NetlistBuilder::new("t");
        let addr = b.input("a", 3);
        let data = b.rom(
            &addr,
            vec![1, 2, 3, 4, 5, 6, 7, 0],
            4,
            pdk::RomStyle::Crossbar,
        );
        b.output("d", &data);
        let m = b.finish();
        let ppa = analyze(&m, &egt());
        assert!(ppa.logic_area.is_zero());
        assert!(ppa.rom_area.as_mm2() > 0.0);
        assert_eq!(ppa.rom_bits, 8 * 4);
    }

    #[test]
    fn latency_scales_with_cycles() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x", 1);
        let o = b.not(x[0]);
        b.output("o", &[o]);
        let ppa = analyze(&b.finish(), &egt());
        assert!((ppa.latency(4).as_secs() - ppa.delay.as_secs() * 4.0).abs() < 1e-15);
    }
}

#[cfg(test)]
mod region_tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use pdk::Technology;

    #[test]
    fn regions_partition_the_logic_cost() {
        let mut b = NetlistBuilder::new("r");
        let x = b.input("x", 4);
        b.push_region("compare");
        let c = crate::comb::unsigned_gt(&mut b, &x[..2], &x[2..]);
        b.pop_region();
        b.push_region("select");
        let o = b.mux(c, x[0], x[1]);
        b.pop_region();
        b.output("o", &[o]);
        let m = b.finish();
        let lib = CellLibrary::for_technology(Technology::Egt);
        let rows = by_region(&m, &lib);
        let names: Vec<&str> = rows.iter().map(|r| r.region.as_str()).collect();
        assert!(names.contains(&"compare"));
        assert!(names.contains(&"select"));
        let total: f64 = rows.iter().map(|r| r.area.as_mm2()).sum();
        let ppa = analyze(&m, &lib);
        assert!((total - ppa.logic_area.as_mm2()).abs() < 1e-9);
        let gates: usize = rows.iter().map(|r| r.gates).sum();
        assert_eq!(gates, m.gate_count());
    }

    #[test]
    fn nested_and_repeated_regions_share_tags() {
        let mut b = NetlistBuilder::new("r");
        let x = b.input("x", 2);
        b.push_region("a");
        let p = b.and(x[0], x[1]);
        b.pop_region();
        b.push_region("a");
        let q = b.or(p, x[0]);
        b.pop_region();
        b.output("o", &[q]);
        let m = b.finish();
        let lib = CellLibrary::for_technology(Technology::Egt);
        let rows = by_region(&m, &lib);
        let a = rows.iter().find(|r| r.region == "a").unwrap();
        assert_eq!(a.gates, 2);
    }

    #[test]
    #[should_panic(expected = "pop_region without push_region")]
    fn unbalanced_pop_is_rejected() {
        let mut b = NetlistBuilder::new("r");
        b.pop_region();
    }
}
