//! Netlist construction API.
//!
//! [`NetlistBuilder`] wraps a [`Module`] under construction and provides
//! single-bit logic helpers plus little-endian multi-bit "word" helpers.
//! Structural generators in [`crate::comb`], [`crate::arith`] and
//! [`crate::seq`] are all written against this builder.
//!
//! The builder emits gates *verbatim*, even when inputs are constants; the
//! separation between construction and [`crate::opt`]imization mirrors the
//! paper's flow (RTL generation, then logic synthesis) and lets the bespoke
//! experiments measure exactly how much the constant-driven optimization
//! buys.

use pdk::rom::RomStyle;
use pdk::CellKind;

use crate::ir::{Gate, Module, NetId, Pins, Port, RomInstance, Signal};

/// Incrementally builds a [`Module`].
///
/// ```
/// use netlist::builder::NetlistBuilder;
///
/// let mut b = NetlistBuilder::new("majority");
/// let x = b.input("x", 3);
/// let ab = b.and(x[0], x[1]);
/// let bc = b.and(x[1], x[2]);
/// let ac = b.and(x[0], x[2]);
/// let t = b.or(ab, bc);
/// let m = b.or(t, ac);
/// b.output("m", &[m]);
/// let module = b.finish();
/// assert_eq!(module.gate_count(), 5);
/// ```
#[derive(Debug)]
pub struct NetlistBuilder {
    module: Module,
    region_stack: Vec<u16>,
}

impl NetlistBuilder {
    /// Starts a new module named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            module: Module::new(name),
            region_stack: vec![0],
        }
    }

    /// Enters a named hierarchy region: gates emitted until the matching
    /// [`NetlistBuilder::pop_region`] are tagged with it, enabling
    /// per-block cost breakdowns (`analysis::area_by_region`). Regions
    /// with the same name share a tag.
    pub fn push_region(&mut self, name: &str) {
        let idx = match self.module.regions.iter().position(|r| r == name) {
            Some(i) => i as u16,
            None => {
                self.module.regions.push(name.to_string());
                (self.module.regions.len() - 1) as u16
            }
        };
        self.region_stack.push(idx);
    }

    /// Leaves the current region (back to the enclosing one).
    ///
    /// # Panics
    /// Panics when called without a matching [`NetlistBuilder::push_region`].
    pub fn pop_region(&mut self) {
        assert!(
            self.region_stack.len() > 1,
            "pop_region without push_region"
        );
        self.region_stack.pop();
    }

    fn current_region(&self) -> u16 {
        *self.region_stack.last().expect("region stack never empty")
    }

    /// Allocates a fresh, undriven net.
    pub fn fresh_net(&mut self) -> NetId {
        let id = NetId(self.module.net_count);
        self.module.net_count += 1;
        id
    }

    /// Declares an input port of `width` bits and returns its signals
    /// (little-endian).
    pub fn input(&mut self, name: impl Into<String>, width: usize) -> Vec<Signal> {
        let bits: Vec<NetId> = (0..width).map(|_| self.fresh_net()).collect();
        let signals: Vec<Signal> = bits.iter().copied().map(Signal::Net).collect();
        self.module.inputs.push(Port {
            name: name.into(),
            bits: signals.clone(),
        });
        signals
    }

    /// Declares an output port driven by `bits` (little-endian).
    pub fn output(&mut self, name: impl Into<String>, bits: &[Signal]) {
        self.module.outputs.push(Port {
            name: name.into(),
            bits: bits.to_vec(),
        });
    }

    /// Emits one gate of `kind` and returns its output signal.
    ///
    /// # Panics
    /// Panics if `inputs.len()` does not match the cell's arity.
    pub fn gate(&mut self, kind: CellKind, inputs: &[Signal]) -> Signal {
        assert_eq!(
            inputs.len(),
            kind.input_count(),
            "{kind} expects {} inputs, got {}",
            kind.input_count(),
            inputs.len()
        );
        let output = self.fresh_net();
        let region = self.current_region();
        self.module.gates.push(Gate {
            kind,
            inputs: Pins::new(inputs).expect("arity checked above"),
            output,
            init: false,
            region,
        });
        Signal::Net(output)
    }

    /// Inverter.
    pub fn not(&mut self, a: Signal) -> Signal {
        self.gate(CellKind::Inv, &[a])
    }

    /// Buffer (used by analog-style fan-out repair and ROM sensing).
    pub fn buf(&mut self, a: Signal) -> Signal {
        self.gate(CellKind::Buf, &[a])
    }

    /// 2-input AND.
    pub fn and(&mut self, a: Signal, b: Signal) -> Signal {
        self.gate(CellKind::And2, &[a, b])
    }

    /// 2-input OR.
    pub fn or(&mut self, a: Signal, b: Signal) -> Signal {
        self.gate(CellKind::Or2, &[a, b])
    }

    /// 2-input NAND.
    pub fn nand(&mut self, a: Signal, b: Signal) -> Signal {
        self.gate(CellKind::Nand2, &[a, b])
    }

    /// 2-input NOR.
    pub fn nor(&mut self, a: Signal, b: Signal) -> Signal {
        self.gate(CellKind::Nor2, &[a, b])
    }

    /// 2-input XOR.
    pub fn xor(&mut self, a: Signal, b: Signal) -> Signal {
        self.gate(CellKind::Xor2, &[a, b])
    }

    /// 2-input XNOR.
    pub fn xnor(&mut self, a: Signal, b: Signal) -> Signal {
        self.gate(CellKind::Xnor2, &[a, b])
    }

    /// 2:1 mux — returns `a` when `sel` is 0, `b` when `sel` is 1.
    pub fn mux(&mut self, sel: Signal, a: Signal, b: Signal) -> Signal {
        self.gate(CellKind::Mux2, &[sel, a, b])
    }

    /// D flip-flop with power-on value `init`; returns Q.
    pub fn dff(&mut self, d: Signal, init: bool) -> Signal {
        let output = self.fresh_net();
        let region = self.current_region();
        self.module.gates.push(Gate {
            kind: CellKind::Dff,
            inputs: [d].into(),
            output,
            init,
            region,
        });
        Signal::Net(output)
    }

    /// Instantiates a ROM macro and returns its data outputs (little-endian).
    ///
    /// `contents[i]` is the word read at address `i`; addresses past the end
    /// read zero (the paper sizes serial-tree threshold ROMs for a *full*
    /// tree even when the trained tree is unbalanced).
    pub fn rom(
        &mut self,
        addr: &[Signal],
        contents: Vec<u64>,
        data_bits: usize,
        style: RomStyle,
    ) -> Vec<Signal> {
        assert!(!addr.is_empty(), "ROM requires at least one address bit");
        assert!(
            (1..=64).contains(&data_bits),
            "ROM word width must be 1..=64"
        );
        let data: Vec<NetId> = (0..data_bits).map(|_| self.fresh_net()).collect();
        let signals = data.iter().copied().map(Signal::Net).collect();
        self.module.roms.push(RomInstance {
            addr: addr.to_vec(),
            data,
            contents,
            style,
        });
        signals
    }

    /// A `width`-bit constant word (no hardware; pure signals).
    pub fn const_word(&self, value: u64, width: usize) -> Vec<Signal> {
        (0..width)
            .map(|i| Signal::Const((value >> i) & 1 == 1))
            .collect()
    }

    /// Per-bit 2:1 mux over two equal-width words.
    ///
    /// # Panics
    /// Panics if the words differ in width.
    pub fn mux_word(&mut self, sel: Signal, a: &[Signal], b: &[Signal]) -> Vec<Signal> {
        assert_eq!(a.len(), b.len(), "mux_word requires equal widths");
        a.iter()
            .zip(b)
            .map(|(&x, &y)| self.mux(sel, x, y))
            .collect()
    }

    /// Word-wide register bank; returns the Q word.
    pub fn register(&mut self, d: &[Signal], init: u64) -> Vec<Signal> {
        d.iter()
            .enumerate()
            .map(|(i, &bit)| self.dff(bit, (init >> i) & 1 == 1))
            .collect()
    }

    /// Selects one of `words` by binary select `sel` using a mux tree.
    ///
    /// All words must share a width. Missing leaves (when `words.len()` is
    /// not a power of two) read as zero.
    ///
    /// # Panics
    /// Panics if `words` is empty or widths differ.
    pub fn mux_tree(&mut self, sel: &[Signal], words: &[Vec<Signal>]) -> Vec<Signal> {
        assert!(!words.is_empty(), "mux_tree over no words");
        let width = words[0].len();
        assert!(
            words.iter().all(|w| w.len() == width),
            "mux_tree width mismatch"
        );
        let mut layer: Vec<Vec<Signal>> = words.to_vec();
        for &s in sel {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            let zero = self.const_word(0, width);
            for pair in layer.chunks(2) {
                let a = &pair[0];
                let b = pair.get(1).unwrap_or(&zero);
                next.push(self.mux_word(s, a, b));
            }
            layer = next;
        }
        assert_eq!(
            layer.len(),
            1,
            "select width {} too small for {} words",
            sel.len(),
            words.len()
        );
        layer.pop().unwrap()
    }

    /// Reduction OR over arbitrarily many signals (balanced tree).
    pub fn or_reduce(&mut self, signals: &[Signal]) -> Signal {
        self.reduce(signals, |b, x, y| b.or(x, y))
    }

    /// Reduction AND over arbitrarily many signals (balanced tree).
    pub fn and_reduce(&mut self, signals: &[Signal]) -> Signal {
        self.reduce(signals, |b, x, y| b.and(x, y))
    }

    fn reduce(
        &mut self,
        signals: &[Signal],
        mut op: impl FnMut(&mut Self, Signal, Signal) -> Signal,
    ) -> Signal {
        assert!(!signals.is_empty(), "reduction over no signals");
        let mut layer = signals.to_vec();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                if pair.len() == 2 {
                    next.push(op(self, pair[0], pair[1]));
                } else {
                    next.push(pair[0]);
                }
            }
            layer = next;
        }
        layer[0]
    }

    /// Access to the module under construction.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Emits a gate onto a pre-allocated output net (used by the miter
    /// constructor when instantiating an existing module).
    pub(crate) fn push_raw_gate(&mut self, kind: CellKind, inputs: Pins, output: NetId) {
        let region = self.current_region();
        self.module.gates.push(Gate {
            kind,
            inputs,
            output,
            init: false,
            region,
        });
    }

    /// Emits a ROM macro onto pre-allocated data nets (miter instantiation).
    pub(crate) fn push_raw_rom(
        &mut self,
        addr: Vec<Signal>,
        data: Vec<NetId>,
        contents: Vec<u64>,
        style: RomStyle,
    ) {
        self.module.roms.push(RomInstance {
            addr,
            data,
            contents,
            style,
        });
    }

    /// Rewires the D input of the flip-flop driving `q`.
    ///
    /// Sequential feedback (a shift register capturing a comparator that
    /// reads the register's own outputs) cannot be expressed in a single
    /// forward pass; build the DFF with a placeholder D, then close the
    /// loop with this method.
    ///
    /// # Panics
    /// Panics if `q` is not driven by a flip-flop in this module.
    pub fn set_dff_input(&mut self, q: Signal, d: Signal) {
        let net = q.net().expect("flip-flop output must be a net");
        let gate = self
            .module
            .gates
            .iter_mut()
            .find(|g| g.kind == CellKind::Dff && g.output == net)
            .expect("no flip-flop drives the given signal");
        gate.inputs[0] = d;
    }

    /// Finalizes and returns the module.
    ///
    /// # Panics
    /// Panics if the module fails [`Module::validate`]. A valid module is
    /// the builder's invariant: every generator, the differential
    /// fuzzer's random netlists included, builds only from signals the
    /// builder handed out, so a panic here is a bug in the generator.
    /// [`Module::validate`] stays the fallible check for modules from
    /// anywhere else.
    pub fn finish(self) -> Module {
        if let Err(reason) = self.module.validate() {
            panic!("generated module {} is invalid: {reason}", self.module.name)
        }
        self.module
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ports_allocate_distinct_nets() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x", 4);
        let y = b.input("y", 2);
        let nets: std::collections::HashSet<_> =
            x.iter().chain(&y).map(|s| s.net().unwrap()).collect();
        assert_eq!(nets.len(), 6);
    }

    #[test]
    fn const_word_is_little_endian() {
        let b = NetlistBuilder::new("t");
        let w = b.const_word(0b1010, 4);
        assert_eq!(w[0], Signal::ZERO);
        assert_eq!(w[1], Signal::ONE);
        assert_eq!(w[2], Signal::ZERO);
        assert_eq!(w[3], Signal::ONE);
    }

    #[test]
    fn validate_reports_what_finish_rejects() {
        let mut b = NetlistBuilder::new("bad");
        let dangling = b.fresh_net();
        b.output("o", &[Signal::Net(dangling)]);
        let reason = b.module.validate().expect_err("an undriven output net");
        assert!(!reason.is_empty());

        let mut b = NetlistBuilder::new("good");
        let x = b.input("x", 1);
        b.output("o", &[x[0]]);
        assert!(b.module.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "expects 2 inputs")]
    fn arity_is_enforced() {
        let mut b = NetlistBuilder::new("t");
        b.gate(CellKind::And2, &[Signal::ONE]);
    }

    #[test]
    fn mux_tree_handles_non_power_of_two() {
        let mut b = NetlistBuilder::new("t");
        let sel = b.input("sel", 2);
        let words: Vec<Vec<Signal>> = (0..3).map(|v| b.const_word(v, 2)).collect();
        let out = b.mux_tree(&sel, &words);
        assert_eq!(out.len(), 2);
        b.output("o", &out);
        let m = b.finish();
        // Two mux layers over 3 words: 2 + 1 word-muxes, 2 bits each.
        assert_eq!(m.gate_count(), 6);
    }

    #[test]
    fn reduce_builds_balanced_trees() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x", 5);
        let o = b.or_reduce(&x);
        b.output("o", &[o]);
        let m = b.finish();
        assert_eq!(m.gate_count(), 4); // n-1 gates for n inputs
    }

    #[test]
    fn dff_counts_as_sequential() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x", 1);
        let q = b.dff(x[0], true);
        b.output("q", &[q]);
        let m = b.finish();
        assert_eq!(m.dff_count(), 1);
        assert!(!m.is_combinational());
        assert!(m.gates[0].init);
    }

    #[test]
    fn finish_validates() {
        let mut b = NetlistBuilder::new("ok");
        let x = b.input("x", 2);
        let y = b.and(x[0], x[1]);
        b.output("y", &[y]);
        let m = b.finish();
        assert_eq!(m.input("x").unwrap().width(), 2);
        assert_eq!(m.output("y").unwrap().width(), 1);
    }
}
