//! One levelization of a module's combinational logic.
//!
//! The tape compiler ([`crate::compile`]), the critical-path analysis
//! ([`crate::analysis`]) and the logic-depth statistics
//! ([`crate::stats`]) share one validated topological order, a dense
//! vector; each of them is a forward sweep over that order. One sweep
//! can carry several values per net, so PPA prices a module in every
//! cell library from one levelization. The optimizer's dead-code pass
//! reads the dense driver index ([`drivers`]) alone.
//!
//! The scalar [`crate::sim::Simulator`] keeps its own levelization on
//! purpose: it is the independent reference the differential fuzzer
//! checks the compiled engine against, so a bug here cannot hide behind
//! both engines sharing it.

use crate::error::SimError;
use crate::ir::{Module, NetId, Signal};

/// A cell: a gate index or a ROM index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Item {
    /// Index into [`Module::gates`].
    Gate(u32),
    /// Index into [`Module::roms`].
    Rom(u32),
}

impl Item {
    /// The cell's input signals and output nets.
    pub(crate) fn pins(self, module: &Module) -> (&[Signal], &[NetId]) {
        match self {
            Item::Gate(g) => {
                let g = &module.gates[g as usize];
                (&g.inputs, std::slice::from_ref(&g.output))
            }
            Item::Rom(r) => {
                let r = &module.roms[r as usize];
                (&r.addr, &r.data)
            }
        }
    }
}

/// Dense driver index: slot `n` names the gate (flip-flops included) or
/// ROM driving net `n`, or `None` for input bits and undriven nets.
/// Every net the module names must be allocated.
pub(crate) fn drivers(module: &Module) -> Vec<Option<Item>> {
    let mut drivers = vec![None; module.net_count()];
    for (i, g) in module.gates.iter().enumerate() {
        drivers[g.output.index()] = Some(Item::Gate(i as u32));
    }
    for (i, r) in module.roms.iter().enumerate() {
        for n in &r.data {
            drivers[n.index()] = Some(Item::Rom(i as u32));
        }
    }
    drivers
}

/// A validated module's topological order.
pub(crate) struct Levels {
    /// Every combinational gate and every ROM, each after the cells
    /// driving its inputs. Flip-flops are left out: their outputs are
    /// sources, their D pins path endpoints.
    pub(crate) order: Vec<Item>,
}

impl Levels {
    /// Validates `module` and levelizes it: the DFS post-order from the
    /// roots gates-in-index-order then ROMs, inputs followed left to
    /// right. The compiled tape is laid out in this order, so it must
    /// not change.
    ///
    /// # Errors
    /// [`SimError::InvalidModule`] when [`Module::validate`] fails;
    /// [`SimError::CombinationalCycle`] naming a net on the first cycle.
    pub(crate) fn try_new(module: &Module) -> Result<Self, SimError> {
        module
            .validate()
            .map_err(|reason| SimError::InvalidModule {
                module: module.name.clone(),
                reason,
            })?;
        let n_gates = module.gates.len();
        let n_cells = n_gates + module.roms.len();
        let item = |slot: u32| match slot.checked_sub(n_gates as u32) {
            None => Item::Gate(slot),
            Some(r) => Item::Rom(r),
        };
        // Per net: the slot (gate index, or `n_gates` + ROM index) of the
        // combinational cell driving it; `NONE` for input bits, flip-flop
        // outputs and undriven nets.
        const NONE: u32 = u32::MAX;
        let mut comb = vec![NONE; module.net_count()];
        for (i, g) in module.gates.iter().enumerate() {
            if !g.kind.is_sequential() {
                comb[g.output.index()] = i as u32;
            }
        }
        for (i, r) in module.roms.iter().enumerate() {
            for n in &r.data {
                comb[n.index()] = (n_gates + i) as u32;
            }
        }

        // 0 = unvisited, 1 = on the DFS stack, 2 = ordered. Flip-flops are
        // never roots and never reached, so they stay 0.
        let mut mark = vec![0u8; n_cells];
        let mut order = Vec::with_capacity(n_cells);
        // (cell slot, next input to follow)
        let mut stack: Vec<(u32, usize)> = Vec::new();
        let roots = (0..n_cells as u32).filter(|&slot| match item(slot) {
            Item::Gate(g) => !module.gates[g as usize].kind.is_sequential(),
            Item::Rom(_) => true,
        });
        for root in roots {
            if mark[root as usize] != 0 {
                continue;
            }
            mark[root as usize] = 1;
            stack.push((root, 0));
            while let Some((slot, next)) = stack.last_mut() {
                let inputs = item(*slot).pins(module).0;
                // Follow the next input driven by an unvisited cell, or
                // order this one once every input is settled.
                let mut dep = None;
                while let Some(&sig) = inputs.get(*next) {
                    *next += 1;
                    let Signal::Net(n) = sig else { continue };
                    let d = comb[n.index()];
                    if d == NONE {
                        continue;
                    }
                    match mark[d as usize] {
                        0 => {
                            dep = Some(d);
                            break;
                        }
                        1 => {
                            return Err(SimError::CombinationalCycle {
                                module: module.name.clone(),
                                net: n.index(),
                            })
                        }
                        _ => {}
                    }
                }
                match dep {
                    Some(d) => {
                        mark[d as usize] = 1;
                        stack.push((d, 0));
                    }
                    None => {
                        let slot = *slot;
                        mark[slot as usize] = 2;
                        order.push(item(slot));
                        stack.pop();
                    }
                }
            }
        }
        Ok(Levels { order })
    }

    /// One forward sweep over the order carrying `N` values per net. For
    /// each cell, `step` receives its position-wise worst inputs (the
    /// largest value at each position among its input nets, `T::default()`
    /// when it has none) and turns them in place into the values every
    /// output net gets. `at` holds the source values (inputs, flip-flop
    /// outputs) on entry and every net's values on return. Positions never
    /// mix, so each one equals a one-value sweep of its own.
    pub(crate) fn sweep<T: Copy + Default + PartialOrd, const N: usize>(
        &self,
        module: &Module,
        mut at: Vec<[T; N]>,
        step: impl Fn(Item, &mut [T; N]),
    ) -> Vec<[T; N]> {
        for &item in &self.order {
            let (inputs, outputs) = item.pins(module);
            let mut worst = [T::default(); N];
            for n in inputs.iter().filter_map(|s| s.net()) {
                for (w, &v) in worst.iter_mut().zip(&at[n.index()]) {
                    if v > *w {
                        *w = v;
                    }
                }
            }
            step(item, &mut worst);
            for n in outputs {
                at[n.index()] = worst;
            }
        }
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    #[test]
    fn order_puts_every_cell_after_its_drivers() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x", 3);
        let a = b.and(x[0], x[1]);
        let d = b.rom(&[a, x[2]], vec![0, 1, 2, 3], 2, pdk::RomStyle::Crossbar);
        let o = b.xor(d[0], d[1]);
        let q = b.dff(o, false);
        let p = b.not(q);
        b.output("o", &[p]);
        let m = b.finish();
        let levels = Levels::try_new(&m).unwrap();
        // The flip-flop (gate 2) is a source, not a cell of the order.
        assert_eq!(
            levels.order,
            vec![Item::Gate(0), Item::Rom(0), Item::Gate(1), Item::Gate(3)]
        );
        let depth = levels.sweep(&m, vec![[0]; m.net_count()], |_, w| w[0] += 1);
        assert_eq!(depth[p.net().unwrap().index()], [1]);
        assert_eq!(depth[o.net().unwrap().index()], [3]);
        // Two values per net: depth and twice the depth never mix.
        let both = levels.sweep(&m, vec![[0, 0]; m.net_count()], |_, w| {
            w[0] += 1;
            w[1] += 2;
        });
        for (&[d], &pair) in depth.iter().zip(&both) {
            assert_eq!(pair, [d, 2 * d]);
        }
    }

    #[test]
    fn loops_through_flip_flops_are_not_cycles() {
        let mut b = NetlistBuilder::new("toggle");
        let q = b.dff(Signal::ZERO, false);
        let nq = b.not(q);
        b.set_dff_input(q, nq);
        b.output("q", &[q]);
        assert_eq!(Levels::try_new(&b.finish()).unwrap().order.len(), 1);
    }

    #[test]
    fn combinational_cycles_and_invalid_modules_are_errors() {
        let mut b = NetlistBuilder::new("ring");
        let x = b.input("x", 1);
        let g0 = b.not(x[0]);
        let g1 = b.not(g0);
        b.output("o", &[g1]);
        let mut m = b.finish();
        m.gates[0].inputs[0] = Signal::Net(m.gates[1].output);
        assert!(matches!(
            Levels::try_new(&m),
            Err(SimError::CombinationalCycle { .. })
        ));
        m.gates[0].inputs = [].into();
        assert!(matches!(
            Levels::try_new(&m),
            Err(SimError::InvalidModule { .. })
        ));
    }
}
