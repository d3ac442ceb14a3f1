//! Gate-level netlist intermediate representation.
//!
//! A [`Module`] is a flat network of standard-cell [`Gate`]s (kinds from
//! [`pdk::CellKind`]) plus crossbar [`RomInstance`] macros, connected by
//! single-bit nets. Multi-bit values are represented as little-endian
//! vectors of [`Signal`]s ("words") by the builder layer.
//!
//! The IR deliberately mirrors what logic synthesis hands to a
//! place-and-route flow: no behavioural constructs, just cells, nets and
//! macros. This is the representation the paper's PPA numbers are computed
//! over.

use std::ops::{Deref, DerefMut};

use serde::{Deserialize, Serialize, Value};

use pdk::rom::RomStyle;
use pdk::CellKind;

/// Identifier of a single-bit net within one [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// Raw index of the net.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A gate input: either a driven net or a hard-wired logic constant.
///
/// Constants are first-class so that *bespoke* hardwiring (replacing
/// threshold registers by trained constants) is expressible directly, after
/// which the optimizer's constant folding collapses the downstream logic —
/// exactly the effect the paper gets from re-synthesizing with hardwired
/// values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Signal {
    /// A driven net.
    Net(NetId),
    /// A logic constant.
    Const(bool),
}

impl Signal {
    /// Logic zero.
    pub const ZERO: Signal = Signal::Const(false);
    /// Logic one.
    pub const ONE: Signal = Signal::Const(true);

    /// The net behind this signal, if it is not a constant.
    pub fn net(self) -> Option<NetId> {
        match self {
            Signal::Net(id) => Some(id),
            Signal::Const(_) => None,
        }
    }

    /// True when the signal is a hard-wired constant.
    pub fn is_const(self) -> bool {
        matches!(self, Signal::Const(_))
    }
}

impl From<NetId> for Signal {
    fn from(net: NetId) -> Self {
        Signal::Net(net)
    }
}

impl From<bool> for Signal {
    fn from(b: bool) -> Self {
        Signal::Const(b)
    }
}

/// A gate's input signals, held inline: no cell has more than
/// [`Pins::MAX`] (`Mux2`), so a gate owns no heap memory. Derefs to the
/// used prefix, and serializes and hashes as a `Vec<Signal>` would.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Pins {
    len: u8,
    /// Slots past `len` stay `Signal::ZERO`, so the derived traits see
    /// only the used prefix.
    sigs: [Signal; Pins::MAX],
}

impl Pins {
    /// The most input pins any cell has.
    pub const MAX: usize = 3;

    /// The pins `sigs`, or `None` when there are more than [`Pins::MAX`].
    pub(crate) fn new(sigs: &[Signal]) -> Option<Pins> {
        let mut pins = Pins {
            len: sigs.len() as u8,
            sigs: [Signal::ZERO; Pins::MAX],
        };
        pins.sigs.get_mut(..sigs.len())?.copy_from_slice(sigs);
        Some(pins)
    }
}

impl<const N: usize> From<[Signal; N]> for Pins {
    fn from(sigs: [Signal; N]) -> Pins {
        const { assert!(N <= Pins::MAX, "no cell has more than three pins") };
        Pins::new(&sigs).expect("N is at most Pins::MAX")
    }
}

impl Deref for Pins {
    type Target = [Signal];
    fn deref(&self) -> &[Signal] {
        &self.sigs[..usize::from(self.len)]
    }
}

impl DerefMut for Pins {
    fn deref_mut(&mut self) -> &mut [Signal] {
        &mut self.sigs[..usize::from(self.len)]
    }
}

impl std::fmt::Debug for Pins {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self[..].fmt(f)
    }
}

impl Serialize for Pins {
    fn to_value(&self) -> Value {
        self[..].to_value()
    }
}

impl Deserialize for Pins {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let sigs = Vec::<Signal>::from_value(v)?;
        let n = sigs.len();
        Pins::new(&sigs)
            .ok_or_else(|| serde::Error::msg(format!("a gate has at most 3 input pins, got {n}")))
    }
}

/// One standard-cell instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Gate {
    /// Cell kind (determines cost and logic function).
    pub kind: CellKind,
    /// Input signals, in the pin order documented on [`CellKind`]
    /// (for [`CellKind::Mux2`]: select, a = sel 0 branch, b = sel 1 branch).
    pub inputs: Pins,
    /// The single output net this gate drives.
    pub output: NetId,
    /// Power-on state — meaningful only for [`CellKind::Dff`].
    pub init: bool,
    /// Index into [`Module::regions`] (0 = the default region) — a
    /// hierarchy tag for per-block cost breakdowns.
    pub region: u16,
}

/// One ROM macro instance (a printed crossbar lookup table).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RomInstance {
    /// Address input signals, little-endian.
    pub addr: Vec<Signal>,
    /// Data output nets, little-endian.
    pub data: Vec<NetId>,
    /// Row contents, one little-endian word per address. Addresses beyond
    /// `contents.len()` read as zero.
    pub contents: Vec<u64>,
    /// Crossbar vs bespoke dot-resistor implementation.
    pub style: RomStyle,
}

impl RomInstance {
    /// Number of words the decoder must address (the sized depth, which may
    /// exceed `contents.len()` for unbalanced trees addressed as full trees).
    pub fn words(&self) -> usize {
        self.contents.len()
    }

    /// Number of set bits across the stored contents.
    pub fn set_bits(&self) -> usize {
        let mask = if self.data.len() >= 64 {
            u64::MAX
        } else {
            (1u64 << self.data.len()) - 1
        };
        self.contents
            .iter()
            .map(|w| (w & mask).count_ones() as usize)
            .sum()
    }

    /// Reads the word at `address` (zero beyond the stored contents).
    pub fn read(&self, address: usize) -> u64 {
        self.contents.get(address).copied().unwrap_or(0)
    }
}

/// A named, direction-tagged port of a module: an ordered bus of bits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Port {
    /// Port name (used by the Verilog emitter and the simulator API).
    pub name: String,
    /// Bus bits, little-endian. Inputs are always nets; outputs may be
    /// constants after optimization.
    pub bits: Vec<Signal>,
}

impl Port {
    /// Bus width in bits.
    pub fn width(&self) -> usize {
        self.bits.len()
    }
}

/// A flat gate-level module.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// Input ports (each bit is a distinct net driven from outside).
    pub inputs: Vec<Port>,
    /// Output ports.
    pub outputs: Vec<Port>,
    /// All standard-cell instances.
    pub gates: Vec<Gate>,
    /// All ROM macros.
    pub roms: Vec<RomInstance>,
    /// Region (hierarchy tag) names; index 0 is the default region.
    pub regions: Vec<String>,
    /// Total number of nets ever allocated.
    pub(crate) net_count: u32,
}

impl Module {
    /// Creates an empty module. Prefer [`crate::builder::NetlistBuilder`].
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            gates: Vec::new(),
            roms: Vec::new(),
            regions: vec!["top".to_string()],
            net_count: 0,
        }
    }

    /// Number of standard-cell gates (ROM macros not included).
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of flip-flops.
    pub fn dff_count(&self) -> usize {
        self.gates.iter().filter(|g| g.kind.is_sequential()).count()
    }

    /// True when the module contains no flip-flops (single-cycle inference).
    pub fn is_combinational(&self) -> bool {
        self.dff_count() == 0
    }

    /// Total nets allocated (including dangling ones left by optimization).
    pub fn net_count(&self) -> usize {
        self.net_count as usize
    }

    /// Total transistors, for prototype component inventories.
    pub fn transistor_count(&self) -> usize {
        self.gates.iter().map(|g| g.kind.transistor_count()).sum()
    }

    /// Looks up an input port by name.
    pub fn input(&self, name: &str) -> Option<&Port> {
        self.inputs.iter().find(|p| p.name == name)
    }

    /// Looks up an output port by name.
    pub fn output(&self, name: &str) -> Option<&Port> {
        self.outputs.iter().find(|p| p.name == name)
    }

    /// Iterates over gates of a given kind.
    pub fn gates_of(&self, kind: CellKind) -> impl Iterator<Item = &Gate> {
        self.gates.iter().filter(move |g| g.kind == kind)
    }

    /// Validates structural invariants: every net has at most one driver,
    /// gates have the arity their cell kind requires, and ports reference
    /// allocated nets.
    ///
    /// # Errors
    /// Returns a human-readable description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        let mut driven = vec![false; self.net_count as usize];
        // `what` names the driver; it is formatted only on failure.
        let mut drive = |net: NetId, what: &dyn Fn() -> String| -> Result<(), String> {
            let i = net.index();
            if i >= driven.len() {
                return Err(format!("{} drives unallocated net {i}", what()));
            }
            if driven[i] {
                return Err(format!("net {i} has multiple drivers (latest: {})", what()));
            }
            driven[i] = true;
            Ok(())
        };
        for port in &self.inputs {
            for bit in &port.bits {
                match bit {
                    Signal::Net(n) => drive(*n, &|| format!("input port {}", port.name))?,
                    Signal::Const(_) => {
                        return Err(format!("input port {} contains a constant bit", port.name))
                    }
                }
            }
        }
        for (i, gate) in self.gates.iter().enumerate() {
            if gate.inputs.len() != gate.kind.input_count() {
                return Err(format!(
                    "gate {i} ({}) has {} inputs, expected {}",
                    gate.kind,
                    gate.inputs.len(),
                    gate.kind.input_count()
                ));
            }
            drive(gate.output, &|| format!("gate {i} ({})", gate.kind))?;
        }
        for (i, rom) in self.roms.iter().enumerate() {
            for net in &rom.data {
                drive(*net, &|| format!("rom {i}"))?;
            }
            if rom.addr.is_empty() {
                return Err(format!("rom {i} has no address bits"));
            }
        }
        // Every net referenced as an input must be driven by something.
        let used = self
            .gates
            .iter()
            .flat_map(|g| g.inputs.iter())
            .chain(self.roms.iter().flat_map(|r| r.addr.iter()))
            .chain(self.outputs.iter().flat_map(|p| p.bits.iter()));
        for sig in used {
            if let Signal::Net(n) = sig {
                if n.index() >= driven.len() {
                    return Err(format!("reference to unallocated net {}", n.index()));
                }
                if !driven[n.index()] {
                    return Err(format!("net {} is read but never driven", n.index()));
                }
            }
        }
        Ok(())
    }
}

impl cache::Hashable for Signal {
    fn stable_hash(&self, h: &mut cache::StableHasher) {
        match self {
            Signal::Const(b) => {
                h.write_u64(0);
                h.write_bool(*b);
            }
            Signal::Net(n) => {
                h.write_u64(1);
                h.write_u64(u64::from(n.0));
            }
        }
    }
}

impl cache::Hashable for Gate {
    fn stable_hash(&self, h: &mut cache::StableHasher) {
        h.write_u64(self.kind as u64);
        h.write_seq_len(self.inputs.len());
        for s in self.inputs.iter() {
            s.stable_hash(h);
        }
        h.write_u64(u64::from(self.output.0));
        h.write_bool(self.init);
        h.write_u64(u64::from(self.region));
    }
}

impl cache::Hashable for RomInstance {
    fn stable_hash(&self, h: &mut cache::StableHasher) {
        h.write_seq_len(self.addr.len());
        for s in &self.addr {
            s.stable_hash(h);
        }
        h.write_seq_len(self.data.len());
        for n in &self.data {
            h.write_u64(u64::from(n.0));
        }
        h.write_seq_len(self.contents.len());
        for &w in &self.contents {
            h.write_u64(w);
        }
        h.write_u64(self.style as u64);
    }
}

impl cache::Hashable for Port {
    fn stable_hash(&self, h: &mut cache::StableHasher) {
        h.write_str(&self.name);
        h.write_seq_len(self.bits.len());
        for s in &self.bits {
            s.stable_hash(h);
        }
    }
}

/// Hand-rolled content digest: modules run to hundreds of thousands of
/// gates, so hashing must not detour through a serde `Value` tree. The
/// fuzz oracle and the pin tests use it to fingerprint netlists.
impl cache::Hashable for Module {
    fn stable_hash(&self, h: &mut cache::StableHasher) {
        h.write_str(&self.name);
        h.write_seq_len(self.inputs.len());
        for p in &self.inputs {
            p.stable_hash(h);
        }
        h.write_seq_len(self.outputs.len());
        for p in &self.outputs {
            p.stable_hash(h);
        }
        h.write_seq_len(self.gates.len());
        for g in &self.gates {
            g.stable_hash(h);
        }
        h.write_seq_len(self.roms.len());
        for r in &self.roms {
            r.stable_hash(h);
        }
        h.write_seq_len(self.regions.len());
        for r in &self.regions {
            h.write_str(r);
        }
        h.write_u64(u64::from(self.net_count));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signal_accessors() {
        let s = Signal::Net(NetId(3));
        assert_eq!(s.net(), Some(NetId(3)));
        assert!(!s.is_const());
        assert_eq!(Signal::ONE.net(), None);
        assert!(Signal::ZERO.is_const());
        assert_eq!(Signal::from(true), Signal::ONE);
    }

    #[test]
    fn rom_set_bits_and_reads() {
        let rom = RomInstance {
            addr: vec![Signal::Net(NetId(0))],
            data: vec![NetId(1), NetId(2)],
            contents: vec![0b01, 0b11, 0b100 /* bit beyond width is masked */],
            style: RomStyle::Crossbar,
        };
        assert_eq!(rom.words(), 3);
        assert_eq!(rom.set_bits(), 3);
        assert_eq!(rom.read(1), 0b11);
        assert_eq!(rom.read(17), 0);
    }

    #[test]
    fn validate_catches_double_drivers() {
        let mut m = Module::new("bad");
        m.net_count = 1;
        let n = NetId(0);
        m.gates.push(Gate {
            kind: CellKind::Inv,
            inputs: [Signal::ONE].into(),
            output: n,
            init: false,
            region: 0,
        });
        m.gates.push(Gate {
            kind: CellKind::Inv,
            inputs: [Signal::ZERO].into(),
            output: n,
            init: false,
            region: 0,
        });
        let err = m.validate().unwrap_err();
        assert!(err.contains("multiple drivers"), "{err}");
    }

    #[test]
    fn validate_catches_bad_arity_and_undriven_reads() {
        let mut m = Module::new("bad");
        m.net_count = 2;
        m.gates.push(Gate {
            kind: CellKind::Nand2,
            inputs: [Signal::ONE].into(),
            output: NetId(0),
            init: false,
            region: 0,
        });
        assert!(m.validate().unwrap_err().contains("expected 2"));

        let mut m2 = Module::new("bad2");
        m2.net_count = 2;
        m2.gates.push(Gate {
            kind: CellKind::Inv,
            inputs: [Signal::Net(NetId(1))].into(),
            output: NetId(0),
            init: false,
            region: 0,
        });
        assert!(m2.validate().unwrap_err().contains("never driven"));
    }
}
