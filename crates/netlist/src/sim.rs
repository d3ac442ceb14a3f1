//! Functional simulation of gate-level modules.
//!
//! [`Simulator`] levelizes a [`Module`] once (topological order over its
//! combinational gates and ROM macros) and then evaluates it: `set` input
//! ports, `settle` combinational logic, `get` outputs, and `step` a clock
//! edge for sequential designs like the serial decision tree.
//! [`Simulator::try_apply`] runs one whole inference — reset, drive every
//! input, clock, settle, read every output — in port order.
//!
//! Simulation is the verification backbone of this reproduction: every
//! generated classifier netlist is checked bit-for-bit against the software
//! model that generated it (see the `printed-core` tests and the
//! workspace-level property tests).

use std::collections::HashMap;

use pdk::CellKind;

use crate::error::SimError;
use crate::ir::{Module, NetId, Signal};

/// What drives a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Driver {
    /// Module input bit.
    Input,
    /// Combinational gate at index.
    Gate(usize),
    /// Flip-flop at gate index (a sequential source).
    Dff(usize),
    /// ROM macro at index.
    Rom(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvalItem {
    Gate(usize),
    Rom(usize),
}

/// A levelized functional simulator over one module.
///
/// ```
/// use netlist::builder::NetlistBuilder;
/// use netlist::sim::Simulator;
///
/// let mut b = NetlistBuilder::new("xor");
/// let x = b.input("x", 2);
/// let y = b.xor(x[0], x[1]);
/// b.output("y", &[y]);
/// let m = b.finish();
///
/// let mut sim = Simulator::new(&m);
/// // One inference: drive `x`, settle, read every output.
/// assert_eq!(sim.try_apply(&[0b10], 0), Ok(vec![1]));
/// ```
#[derive(Debug)]
pub struct Simulator<'m> {
    module: &'m Module,
    values: Vec<bool>,
    /// Current Q of each gate slot (only meaningful for DFFs).
    state: Vec<bool>,
    order: Vec<EvalItem>,
    /// Input port name → index into `module.inputs`.
    input_ports: HashMap<String, usize>,
}

impl<'m> Simulator<'m> {
    /// Levelizes `module` and initializes flip-flops to their `init` values.
    ///
    /// # Panics
    /// Panics if the module contains a combinational cycle or fails
    /// validation. Use [`Simulator::try_new`] to handle those as errors.
    pub fn new(module: &'m Module) -> Self {
        match Self::try_new(module) {
            Ok(sim) => sim,
            Err(e) => e.raise(),
        }
    }

    /// Fallible constructor: levelizes `module`, reporting validation
    /// failures and combinational cycles as [`SimError`] instead of
    /// panicking.
    pub fn try_new(module: &'m Module) -> Result<Self, SimError> {
        module
            .validate()
            .map_err(|reason| SimError::InvalidModule {
                module: module.name.clone(),
                reason,
            })?;
        let mut drivers: HashMap<NetId, Driver> = HashMap::new();
        for port in &module.inputs {
            for bit in &port.bits {
                if let Signal::Net(n) = bit {
                    drivers.insert(*n, Driver::Input);
                }
            }
        }
        for (i, gate) in module.gates.iter().enumerate() {
            let d = if gate.kind.is_sequential() {
                Driver::Dff(i)
            } else {
                Driver::Gate(i)
            };
            drivers.insert(gate.output, d);
        }
        for (i, rom) in module.roms.iter().enumerate() {
            for net in &rom.data {
                drivers.insert(*net, Driver::Rom(i));
            }
        }

        // Depth-first topological ordering of combinational items.
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut gate_marks = vec![Mark::White; module.gates.len()];
        let mut rom_marks = vec![Mark::White; module.roms.len()];
        let mut order = Vec::new();
        // Iterative DFS to survive deep ripple chains.
        let mut stack: Vec<(EvalItem, usize)> = Vec::new();
        let item_inputs = |item: EvalItem| -> &[Signal] {
            match item {
                EvalItem::Gate(i) => &module.gates[i].inputs,
                EvalItem::Rom(i) => &module.roms[i].addr,
            }
        };
        let mark_of = |item: EvalItem, g: &[Mark], r: &[Mark]| match item {
            EvalItem::Gate(i) => g[i],
            EvalItem::Rom(i) => r[i],
        };
        let roots: Vec<EvalItem> = (0..module.gates.len())
            .filter(|&i| !module.gates[i].kind.is_sequential())
            .map(EvalItem::Gate)
            .chain((0..module.roms.len()).map(EvalItem::Rom))
            .collect();
        for root in roots {
            if mark_of(root, &gate_marks, &rom_marks) != Mark::White {
                continue;
            }
            stack.push((root, 0));
            match root {
                EvalItem::Gate(i) => gate_marks[i] = Mark::Grey,
                EvalItem::Rom(i) => rom_marks[i] = Mark::Grey,
            }
            while let Some(&mut (item, ref mut next_input)) = stack.last_mut() {
                let inputs = item_inputs(item);
                if *next_input < inputs.len() {
                    let idx = *next_input;
                    *next_input += 1;
                    let Signal::Net(n) = inputs[idx] else {
                        continue;
                    };
                    let dep = match drivers.get(&n) {
                        Some(Driver::Gate(g)) => EvalItem::Gate(*g),
                        Some(Driver::Rom(r)) => EvalItem::Rom(*r),
                        // Inputs and DFF outputs are sources.
                        _ => continue,
                    };
                    match mark_of(dep, &gate_marks, &rom_marks) {
                        Mark::Black => {}
                        Mark::Grey => {
                            return Err(SimError::CombinationalCycle {
                                module: module.name.clone(),
                                net: n.index(),
                            })
                        }
                        Mark::White => {
                            match dep {
                                EvalItem::Gate(i) => gate_marks[i] = Mark::Grey,
                                EvalItem::Rom(i) => rom_marks[i] = Mark::Grey,
                            }
                            stack.push((dep, 0));
                        }
                    }
                } else {
                    match item {
                        EvalItem::Gate(i) => gate_marks[i] = Mark::Black,
                        EvalItem::Rom(i) => rom_marks[i] = Mark::Black,
                    }
                    order.push(item);
                    stack.pop();
                }
            }
        }

        let mut state = vec![false; module.gates.len()];
        for (i, gate) in module.gates.iter().enumerate() {
            if gate.kind.is_sequential() {
                state[i] = gate.init;
            }
        }
        let input_ports = module
            .inputs
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name.clone(), i))
            .collect();

        Ok(Simulator {
            module,
            values: vec![false; module.net_count()],
            state,
            order,
            input_ports,
        })
    }

    /// Drives input port `name` with the little-endian bits of `value`.
    ///
    /// # Panics
    /// Panics if the port does not exist. Use [`Simulator::try_set`] to
    /// handle the unknown-port case as an error.
    pub fn set(&mut self, name: &str, value: u64) {
        if let Err(e) = self.try_set(name, value) {
            e.raise()
        }
    }

    /// Fallible port binding: drives input port `name`, reporting an
    /// unknown name as [`SimError::UnknownPort`].
    pub fn try_set(&mut self, name: &str, value: u64) -> Result<(), SimError> {
        let Some(&port) = self.input_ports.get(name) else {
            return Err(SimError::UnknownPort {
                direction: "input",
                name: name.to_string(),
            });
        };
        self.drive(port, value);
        Ok(())
    }

    /// Drives input port number `port` with the little-endian bits of
    /// `value`.
    fn drive(&mut self, port: usize, value: u64) {
        // validate() has already rejected constant input-port bits.
        let nets = self.module.inputs[port].bits.iter().filter_map(|s| s.net());
        for (i, net) in nets.enumerate() {
            self.values[net.index()] = (value >> i) & 1 == 1;
        }
    }

    /// Runs one inference: resets every flip-flop, drives every input
    /// port with its value of `vector` (declaration order), clocks
    /// `cycles` edges, settles, and returns every output port's word in
    /// declaration order. A combinational module takes `cycles = 0`; a
    /// clocked one the cycles per inference of its architecture. Calls
    /// are independent: no state carries from one to the next.
    ///
    /// # Errors
    /// A `vector` whose length is not the module's input-port count is
    /// rejected with [`SimError::VectorArity`].
    pub fn try_apply(&mut self, vector: &[u64], cycles: usize) -> Result<Vec<u64>, SimError> {
        let want = self.module.inputs.len();
        if vector.len() != want {
            return Err(SimError::VectorArity {
                index: 0,
                got: vector.len(),
                want,
            });
        }
        self.reset();
        for (port, &value) in vector.iter().enumerate() {
            self.drive(port, value);
        }
        for _ in 0..cycles {
            self.step();
        }
        self.settle();
        let module = self.module;
        Ok(module.outputs.iter().map(|p| self.word(&p.bits)).collect())
    }

    /// Propagates all combinational logic (one levelized pass).
    pub fn settle(&mut self) {
        let module = self.module;
        // Publish flip-flop state onto Q nets first.
        for (i, gate) in module.gates.iter().enumerate() {
            if gate.kind.is_sequential() {
                self.values[gate.output.index()] = self.state[i];
            }
        }
        for idx in 0..self.order.len() {
            match self.order[idx] {
                EvalItem::Gate(i) => {
                    let gate = &module.gates[i];
                    let v = self.eval_gate(gate.kind, &gate.inputs);
                    self.values[gate.output.index()] = v;
                }
                EvalItem::Rom(i) => {
                    let rom = &module.roms[i];
                    let mut addr = 0usize;
                    for (bit, sig) in rom.addr.iter().enumerate() {
                        if self.read(*sig) {
                            addr |= 1 << bit;
                        }
                    }
                    let word = rom.read(addr);
                    for (bit, net) in rom.data.iter().enumerate() {
                        self.values[net.index()] = (word >> bit) & 1 == 1;
                    }
                }
            }
        }
    }

    /// Settles, then advances one clock edge (captures every DFF's D input).
    pub fn step(&mut self) {
        self.settle();
        let module = self.module;
        for (i, g) in module.gates.iter().enumerate() {
            if g.kind.is_sequential() {
                self.state[i] = self.read(g.inputs[0]);
            }
        }
    }

    /// Resets all flip-flops to their power-on values.
    pub fn reset(&mut self) {
        for (i, gate) in self.module.gates.iter().enumerate() {
            if gate.kind.is_sequential() {
                self.state[i] = gate.init;
            }
        }
    }

    /// Reads output port `name` as a little-endian word.
    ///
    /// # Panics
    /// Panics if the port does not exist. Use [`Simulator::try_get`] to
    /// handle the unknown-port case as an error.
    pub fn get(&self, name: &str) -> u64 {
        match self.try_get(name) {
            Ok(v) => v,
            Err(e) => e.raise(),
        }
    }

    /// Fallible port read: reports an unknown output name as
    /// [`SimError::UnknownPort`].
    pub fn try_get(&self, name: &str) -> Result<u64, SimError> {
        let Some(port) = self.module.output(name) else {
            return Err(SimError::UnknownPort {
                direction: "output",
                name: name.to_string(),
            });
        };
        Ok(self.word(&port.bits))
    }

    /// Reads `bits` as a little-endian word.
    fn word(&self, bits: &[Signal]) -> u64 {
        let mut v = 0u64;
        for (i, sig) in bits.iter().enumerate() {
            if self.read(*sig) {
                v |= 1 << i;
            }
        }
        v
    }

    /// Reads a single signal's current value.
    pub fn read(&self, sig: Signal) -> bool {
        match sig {
            Signal::Const(b) => b,
            Signal::Net(n) => self.values[n.index()],
        }
    }

    fn eval_gate(&self, kind: CellKind, inputs: &[Signal]) -> bool {
        let a = self.read(inputs[0]);
        match kind {
            CellKind::Inv => !a,
            CellKind::Buf => a,
            CellKind::Nand2 => !(a & self.read(inputs[1])),
            CellKind::Nor2 => !(a | self.read(inputs[1])),
            CellKind::And2 => a & self.read(inputs[1]),
            CellKind::Or2 => a | self.read(inputs[1]),
            CellKind::Xor2 => a ^ self.read(inputs[1]),
            CellKind::Xnor2 => !(a ^ self.read(inputs[1])),
            CellKind::Mux2 => {
                if a {
                    self.read(inputs[2])
                } else {
                    self.read(inputs[1])
                }
            }
            CellKind::Dff => unreachable!("DFFs are evaluated by step()"),
            CellKind::RomBit | CellKind::RomDot => {
                unreachable!("ROM bits live inside ROM macros")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use pdk::rom::RomStyle;

    #[test]
    fn all_gate_functions() {
        let mut b = NetlistBuilder::new("gates");
        let x = b.input("x", 2);
        let outs = vec![
            b.not(x[0]),
            b.buf(x[0]),
            b.and(x[0], x[1]),
            b.or(x[0], x[1]),
            b.nand(x[0], x[1]),
            b.nor(x[0], x[1]),
            b.xor(x[0], x[1]),
            b.xnor(x[0], x[1]),
        ];
        b.output("o", &outs);
        let m = b.finish();
        let mut sim = Simulator::new(&m);
        for v in 0..4u64 {
            let o = sim.try_apply(&[v], 0).unwrap()[0];
            let (a, bb) = (v & 1 == 1, v & 2 == 2);
            let expect = [
                !a,
                a,
                a & bb,
                a | bb,
                !(a & bb),
                !(a | bb),
                a ^ bb,
                !(a ^ bb),
            ];
            for (i, e) in expect.into_iter().enumerate() {
                assert_eq!((o >> i) & 1 == 1, e, "v={v} out={i}");
            }
        }
    }

    #[test]
    fn mux_selects() {
        let mut b = NetlistBuilder::new("mux");
        let x = b.input("x", 3); // sel, a, b
        let o = b.mux(x[0], x[1], x[2]);
        b.output("o", &[o]);
        let m = b.finish();
        let mut sim = Simulator::new(&m);
        for v in 0..8u64 {
            let (sel, a, bb) = (v & 1 == 1, v & 2 == 2, v & 4 == 4);
            let want = if sel { bb } else { a };
            assert_eq!(sim.try_apply(&[v], 0), Ok(vec![want as u64]));
        }
    }

    #[test]
    fn rom_reads_and_out_of_range_is_zero() {
        let mut b = NetlistBuilder::new("rom");
        let addr = b.input("a", 2);
        let data = b.rom(&addr, vec![5, 9, 14], 4, RomStyle::Crossbar);
        b.output("d", &data);
        let m = b.finish();
        let mut sim = Simulator::new(&m);
        for (a, want) in [(0u64, 5u64), (1, 9), (2, 14), (3, 0)] {
            assert_eq!(sim.try_apply(&[a], 0), Ok(vec![want]));
        }
    }

    #[test]
    fn shift_register_walks_a_one() {
        // The serial decision tree's node pointer: a shift register seeded
        // with 1 that shifts the comparison result in at the LSB.
        let mut b = NetlistBuilder::new("shift");
        let d = b.input("d", 1);
        let q0 = b.dff(d[0], true);
        let q1 = b.dff(q0, false);
        let q2 = b.dff(q1, false);
        b.output("q", &[q0, q1, q2]);
        let m = b.finish();
        let mut sim = Simulator::new(&m);
        sim.set("d", 0);
        sim.settle();
        assert_eq!(sim.get("q"), 0b001);
        sim.step();
        sim.settle();
        assert_eq!(sim.get("q"), 0b010);
        sim.step();
        sim.settle();
        assert_eq!(sim.get("q"), 0b100);
        sim.reset();
        sim.settle();
        assert_eq!(sim.get("q"), 0b001);
    }

    #[test]
    #[should_panic(expected = "combinational cycle")]
    fn cycles_are_rejected() {
        // Hand-assemble a cycle: two inverters in a ring.
        use crate::ir::{Gate, Module, NetId, Signal};
        use pdk::CellKind;
        let mut m = Module::new("ring");
        m.net_count = 2;
        m.gates.push(Gate {
            kind: CellKind::Inv,
            inputs: [Signal::Net(NetId(1))].into(),
            output: NetId(0),
            init: false,
            region: 0,
        });
        m.gates.push(Gate {
            kind: CellKind::Inv,
            inputs: [Signal::Net(NetId(0))].into(),
            output: NetId(1),
            init: false,
            region: 0,
        });
        let _ = Simulator::new(&m);
    }

    #[test]
    fn try_apis_report_errors_instead_of_panicking() {
        use crate::error::SimError;
        use crate::ir::{Gate, Module, NetId, Signal};
        use pdk::CellKind;
        let mut m = Module::new("ring");
        m.net_count = 2;
        for (a, b) in [(1u32, 0u32), (0, 1)] {
            m.gates.push(Gate {
                kind: CellKind::Inv,
                inputs: [Signal::Net(NetId(a))].into(),
                output: NetId(b),
                init: false,
                region: 0,
            });
        }
        match Simulator::try_new(&m) {
            Err(SimError::CombinationalCycle { module, .. }) => assert_eq!(module, "ring"),
            other => panic!("expected a cycle error, got {other:?}"),
        }

        let mut b = NetlistBuilder::new("ok");
        let x = b.input("x", 1);
        let y = b.not(x[0]);
        b.output("y", &[y]);
        let m = b.finish();
        let mut sim = Simulator::try_new(&m).unwrap();
        assert_eq!(
            sim.try_set("nope", 1),
            Err(SimError::UnknownPort {
                direction: "input",
                name: "nope".into()
            })
        );
        sim.try_set("x", 0).unwrap();
        sim.settle();
        assert_eq!(sim.try_get("y"), Ok(1));
        assert_eq!(
            sim.try_get("nope"),
            Err(SimError::UnknownPort {
                direction: "output",
                name: "nope".into()
            })
        );
    }

    /// The manual inference sequence [`Simulator::try_apply`] stands
    /// for, by port name.
    fn manual(sim: &mut Simulator, m: &Module, vector: &[u64], cycles: usize) -> Vec<u64> {
        sim.reset();
        for (port, &v) in m.inputs.iter().zip(vector) {
            sim.set(&port.name, v);
        }
        for _ in 0..cycles {
            sim.step();
        }
        sim.settle();
        m.outputs.iter().map(|port| sim.get(&port.name)).collect()
    }

    /// Combinational: `q = d & en` and `any = d[0] | d[1]`.
    fn masker() -> Module {
        let mut b = NetlistBuilder::new("mask");
        let d = b.input("d", 2);
        let en = b.input("en", 1);
        let q = [b.and(d[0], en[0]), b.and(d[1], en[0])];
        let any = b.or(d[0], d[1]);
        b.output("q", &q);
        b.output("any", &[any]);
        b.finish()
    }

    /// Clocked: `q <= q ^ (d & en)` from power-on `01`, and the
    /// combinational `any = d[0] | d[1]`.
    fn xor_accumulator() -> Module {
        let mut b = NetlistBuilder::new("acc");
        let d = b.input("d", 2);
        let en = b.input("en", 1);
        let q = b.register(&d, 0b01);
        for (&qi, &di) in q.iter().zip(&d) {
            let masked = b.and(di, en[0]);
            let next = b.xor(qi, masked);
            b.set_dff_input(qi, next);
        }
        let any = b.or(d[0], d[1]);
        b.output("q", &q);
        b.output("any", &[any]);
        b.finish()
    }

    #[test]
    fn try_apply_is_the_manual_inference_sequence() {
        for m in [masker(), xor_accumulator()] {
            let mut reference = Simulator::new(&m);
            let mut sim = Simulator::new(&m);
            for (cycles, d, en) in (0..4).flat_map(|c| (0..8).map(move |v| (c, v & 3, v >> 2))) {
                let want = manual(&mut reference, &m, &[d, en], cycles);
                // Twice: no state may carry over from one call.
                for _ in 0..2 {
                    let got = sim.try_apply(&[d, en], cycles);
                    assert_eq!(got, Ok(want.clone()), "{} {d} {en} {cycles}", m.name);
                }
            }
        }
    }

    #[test]
    fn try_apply_rejects_a_vector_of_the_wrong_length() {
        let m = xor_accumulator();
        let mut sim = Simulator::new(&m);
        for got in [0, 1, 3] {
            let want = SimError::VectorArity {
                index: 0,
                got,
                want: 2,
            };
            assert_eq!(sim.try_apply(&vec![1; got], 1), Err(want));
        }
        assert_eq!(sim.try_apply(&[3, 1], 1), Ok(vec![0b10, 1]));
    }

    #[test]
    fn deep_ripple_chains_do_not_overflow_the_stack() {
        let mut b = NetlistBuilder::new("deep");
        let x = b.input("x", 1);
        let mut s = x[0];
        for _ in 0..50_000 {
            s = b.not(s);
        }
        b.output("o", &[s]);
        let m = b.finish();
        let mut sim = Simulator::new(&m);
        assert_eq!(sim.try_apply(&[1], 0), Ok(vec![1])); // even number of inversions
    }
}
