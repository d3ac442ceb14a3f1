//! Static PPA analysis: area and static power sums, critical-path delay.
//!
//! This plays the role Synopsys DC reports played in the paper: every
//! table's Delay/Area/Power columns come from walking a gate-level module
//! against a [`CellLibrary`]. Delay is the longest register-to-register /
//! input-to-output combinational path (for sequential designs this is the
//! minimum clock period; inference latency is `cycles × period`).

use serde::{Deserialize, Serialize};

use pdk::rom::{rom_cost, RomSpec, RomStyle};
use pdk::{Area, CellKind, CellLibrary, Delay, Power};

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

/// Modules levelized for PPA (one per [`analyze_all`] call).
static LEVELIZATIONS: obs::Counter = obs::Counter::new("netlist.ppa.levelizations");
/// Libraries priced from those levelizations.
static LIBRARIES: obs::Counter = obs::Counter::new("netlist.ppa.libraries");

/// Analyzes `module` against `lib`: the one-library case of
/// [`analyze_all`].
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
/// As [`analyze_all`].
pub fn analyze(module: &Module, lib: &CellLibrary) -> Ppa {
    analyze_all(module, std::slice::from_ref(lib))
        .pop()
        .expect("one library prices to one report")
}

/// Libraries one arrival sweep carries side by side: the paper's three
/// technologies.
const LANES: usize = 3;

/// Analyzes `module` against each of `libs`, in order, from one
/// levelization. One forward sweep over it carries up to three
/// libraries' arrival times side by side (more are priced three at a
/// time). Each report is bit-identical to [`analyze`] with its library
/// alone: every library's sums and arrivals see the same operations in
/// the same order.
///
/// ```
/// use netlist::builder::NetlistBuilder;
/// use netlist::analysis::{analyze, analyze_all};
/// use pdk::{CellLibrary, Technology};
///
/// let mut b = NetlistBuilder::new("pair");
/// let x = b.input("x", 2);
/// let y = b.and(x[0], x[1]);
/// b.output("y", &[y]);
/// let m = b.finish();
/// let libs = Technology::ALL.map(CellLibrary::for_technology);
/// let all = analyze_all(&m, &libs);
/// assert_eq!(all[2].delay, analyze(&m, &libs[2]).delay);
/// ```
///
/// # Panics
/// Panics with the [`crate::SimError`] message if `module` fails
/// [`Module::validate`] or contains a combinational cycle. Modules from
/// [`crate::builder::NetlistBuilder::finish`] and the generators never
/// do; a module read through serde may.
pub fn analyze_all(module: &Module, libs: &[CellLibrary]) -> Vec<Ppa> {
    let _span = obs::span("netlist.analyze");
    let levels = match Levels::try_new(module) {
        Ok(levels) => levels,
        Err(e) => e.raise(),
    };
    LEVELIZATIONS.incr();
    LIBRARIES.add(libs.len() as u64);
    libs.chunks(LANES)
        .flat_map(|group| match group.len() {
            1 => price::<1>(module, &levels, group),
            2 => price::<2>(module, &levels, group),
            _ => price::<LANES>(module, &levels, group),
        })
        .collect()
}

/// Prices `module` in the `N` libraries of `libs`, lane `j` for library
/// `j`, from its levelization.
fn price<const N: usize>(module: &Module, levels: &Levels, libs: &[CellLibrary]) -> Vec<Ppa> {
    let libs: &[CellLibrary; N] = libs.try_into().expect("one library per lane");
    // Every cell kind's cost per lane, looked up rather than recomputed
    // per gate (`CellKind::ALL` is in declaration order).
    let costs = CellKind::ALL.map(|c| libs.each_ref().map(|lib| lib.cost(c)));
    let cost = |kind: CellKind| &costs[kind as usize];

    let mut logic = [(Area::ZERO, Power::ZERO); N];
    for gate in &module.gates {
        for ((area, power), c) in logic.iter_mut().zip(cost(gate.kind)) {
            *area += c.area;
            *power += c.power;
        }
    }

    let mut rom = [(Area::ZERO, Power::ZERO); N];
    let mut rom_bits = 0usize;
    let mut rom_delays: Vec<[Delay; N]> = Vec::with_capacity(module.roms.len());
    for r in &module.roms {
        // The decoder is sized for the full address space the instance
        // wires up (the paper sizes serial-tree ROMs for a full tree).
        let words = 1usize << r.addr.len().min(30);
        let spec = match r.style {
            RomStyle::Crossbar => RomSpec::crossbar(words, r.data.len()),
            RomStyle::BespokeDots => RomSpec::bespoke(words, r.data.len(), r.set_bits()),
        };
        let costs = libs.each_ref().map(|lib| rom_cost(&spec, lib));
        for ((area, power), c) in rom.iter_mut().zip(&costs) {
            *area += c.area;
            *power += c.power;
        }
        rom_delays.push(costs.map(|c| c.delay));
        rom_bits += match r.style {
            RomStyle::Crossbar => words * r.data.len(),
            RomStyle::BespokeDots => r.set_bits(),
        };
    }

    // Critical path: one forward sweep of arrival times over the shared
    // order, then the latest arrival at any module output or flip-flop D
    // pin. Sources (inputs, constants) arrive at 0, DFF outputs at
    // clk-to-Q.
    let mut arrival = vec![[Delay::ZERO; N]; module.net_count()];
    let dffs = || module.gates.iter().filter(|g| g.kind.is_sequential());
    for g in dffs() {
        arrival[g.output.index()] = cost(g.kind).map(|c| c.delay);
    }
    let arrival = levels.sweep(module, arrival, |item, worst| match item {
        Item::Gate(i) => {
            for (w, c) in worst.iter_mut().zip(cost(module.gates[i as usize].kind)) {
                *w += c.delay;
            }
        }
        Item::Rom(i) => {
            for (w, &d) in worst.iter_mut().zip(&rom_delays[i as usize]) {
                *w += d;
            }
        }
    });
    let mut delay = [Delay::ZERO; N];
    let endpoints = module
        .outputs
        .iter()
        .flat_map(|p| &p.bits)
        .chain(dffs().map(|g| &g.inputs[0]));
    for s in endpoints {
        let at = s.net().map_or([Delay::ZERO; N], |n| arrival[n.index()]);
        for (d, a) in delay.iter_mut().zip(at) {
            *d = d.max(a);
        }
    }

    (0..N)
        .map(|j| {
            let ((logic_area, logic_power), (rom_area, rom_power)) = (logic[j], rom[j]);
            Ppa {
                delay: delay[j],
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
        })
        .collect()
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
