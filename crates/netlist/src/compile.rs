//! Compiled wide-lane simulation kernel.
//!
//! This is the crate's one fast engine. Equivalence sign-off and stuck-at
//! fault grading bottom out in its settle loop, so a levelized module is
//! compiled *once* into a flat instruction tape, with no per-gate enum
//! dispatch or `Signal` match left, and the tape is replayed over wide
//! lane words:
//!
//! * [`CompiledNetlist`] — a dense SoA tape: one opcode byte, three
//!   pre-resolved operand value-slot indices and one output slot per
//!   gate, in levelized order. Output inversions (`Nand`/`Nor`/`Xnor`/
//!   `Inv`) are folded into a per-instruction XOR mask, so the kernel
//!   needs only five base opcodes. Constants occupy two dedicated value
//!   slots (all-zeros / all-ones), so constant operands cost the same
//!   indexed load as nets. ROM macros are compiled to a schedule entry
//!   plus a strategy: small ROMs are evaluated *bitwise* (row-select
//!   masks expanded over the address words, then OR-accumulated per data
//!   column), large ROMs fall back to per-lane addressing.
//! * [`WideSim`] — a lane-width-generic evaluator whose net values are
//!   `[u64; W]` blocks (64·W vectors per settle; `W = 1` and `W = 4`
//!   are the shipped widths). The per-instruction word loop is written
//!   so LLVM auto-vectorizes it. In-place stuck-at fault injection
//!   matches the clone-based [`crate::faults::inject`]: the faulty slot
//!   is pinned to a broadcast word before the pass and every write to it
//!   is skipped.
//!
//! The tape is immutable after compilation, so one `Arc<CompiledNetlist>`
//! is shared across all [`exec::parallel_map`] shards in
//! [`crate::verify`] and [`crate::faults`] — shards no longer re-levelize
//! (or re-hash) the module. Compilation itself is timed under the
//! `netlist.sim.compile` span and counted by `netlist.sim.compiles`, so
//! the observability report splits compile time from settle time; settle
//! volume lands in the `netlist.sim.settles` / `netlist.sim.vectors`
//! counters published batch-wise by the callers.
//!
//! Bit-identity with the scalar [`crate::sim::Simulator`], the reference
//! engine, is pinned by unit tests here, the workspace property tests at
//! lane counts straddling every word boundary (with and without injected
//! faults) and the differential fuzzer's engines oracle.

use std::collections::HashMap;
use std::sync::Arc;

use pdk::CellKind;

use crate::error::SimError;
use crate::ir::{Module, NetId, Port, Signal};

/// Compilations performed (one per [`CompiledNetlist::compile`]).
static COMPILES: obs::Counter = obs::Counter::new("netlist.sim.compiles");
/// Gates flattened into instruction tapes across all compilations.
static COMPILED_GATES: obs::Counter = obs::Counter::new("netlist.sim.gates");
/// Wall-clock nanoseconds spent compiling tapes — with
/// [`COMPILED_GATES`] this yields a compile gates/sec rate, and against
/// the settle counters it splits compile time from simulation time.
static COMPILE_NS: obs::Counter = obs::Counter::new("netlist.sim.compile_ns");

/// Settle passes executed through [`WideSim`]; hot loops tally locally
/// and publish per batch via [`record_settles`].
static SETTLES: obs::Counter = obs::Counter::new("netlist.sim.settles");
/// Lane-vectors evaluated (lanes × settles), same publishing discipline.
static VECTORS: obs::Counter = obs::Counter::new("netlist.sim.vectors");

/// Publishes a batch of settle-pass volume to the `netlist.sim.*`
/// counters. Callers running many small settles (verify spans, fault
/// shards) tally locally and call this once per shard, keeping the
/// registry lock off the per-settle path.
pub fn record_settles(settles: u64, lane_vectors: u64) {
    SETTLES.add(settles);
    VECTORS.add(lane_vectors);
}

/// Value-slot index of the all-zeros constant word.
const SLOT_ZERO: u32 = 0;
/// Value-slot index of the all-ones constant word.
const SLOT_ONE: u32 = 1;
/// Slots reserved for constants before the first net slot.
const CONST_SLOTS: u32 = 2;

/// Maximum address width (in bits) for which a ROM is compiled to the
/// bitwise row-select strategy; wider ROMs use per-lane addressing. At
/// 10 bits the select scratch tops out at 1024 lane blocks.
const ROM_MASK_ADDR_LIMIT: usize = 10;

/// Base opcodes of the instruction tape. Inverting cells are folded
/// into the per-instruction XOR mask, so five opcodes cover the whole
/// [`CellKind`] combinational set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Opcode {
    /// `out = a & b` (also `Nand2` with the inversion mask set).
    And = 0,
    /// `out = a | b` (also `Nor2`).
    Or = 1,
    /// `out = a ^ b` (also `Xnor2`).
    Xor = 2,
    /// `out = (!a & b) | (a & c)` — `a` is the select.
    Mux = 3,
    /// `out = a` (also `Inv` with the inversion mask set).
    Buf = 4,
}

/// How a compiled ROM is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RomStrategy {
    /// Bitwise: expand row-select lane masks over the address words
    /// (one AND per row per address bit, by recursive doubling), then
    /// OR each selected row's set data bits into the data columns.
    Mask,
    /// Per-lane scalar addressing, for ROMs
    /// whose address space is too large to expand.
    PerLane,
}

/// One compiled ROM macro.
#[derive(Debug, Clone)]
struct CompiledRom {
    /// Address operand slots, little-endian.
    addr: Vec<u32>,
    /// Data output slots, little-endian.
    data: Vec<u32>,
    /// Row contents (addresses beyond the vector read as zero).
    contents: Vec<u64>,
    /// Chosen evaluation strategy.
    strategy: RomStrategy,
}

/// One port's compiled slot map.
#[derive(Debug, Clone)]
struct CompiledPort {
    /// Port name (the simulator API key).
    name: String,
    /// Value slot per bit, little-endian. Input bits are always net
    /// slots; output bits may be the constant slots.
    slots: Vec<u32>,
}

/// A combinational module flattened into an immutable instruction tape.
///
/// Build one with [`CompiledNetlist::compile`], then evaluate it with any
/// number of [`WideSim`] instances — typically one per worker shard over
/// a shared `Arc`:
///
/// ```
/// use std::sync::Arc;
/// use netlist::builder::NetlistBuilder;
/// use netlist::compile::{CompiledNetlist, WideSim};
///
/// let mut b = NetlistBuilder::new("xor");
/// let x = b.input("x", 2);
/// let y = b.xor(x[0], x[1]);
/// b.output("y", &[y]);
/// let compiled = Arc::new(CompiledNetlist::compile(&b.finish()));
///
/// let mut sim: WideSim<1> = WideSim::new(Arc::clone(&compiled));
/// sim.set_lanes("x", &[0b00, 0b01, 0b10, 0b11]);
/// sim.settle();
/// assert_eq!(sim.lanes("y", 4), vec![0, 1, 1, 0]);
/// ```
#[derive(Debug, Clone)]
pub struct CompiledNetlist {
    /// Value slots (nets + the two constant slots).
    slots: usize,
    /// SoA tape: opcode per instruction…
    ops: Vec<Opcode>,
    /// …operand slots (unused operands point at [`SLOT_ZERO`])…
    srcs: Vec<[u32; 3]>,
    /// …output slot…
    outs: Vec<u32>,
    /// …and folded output-inversion mask (`0` or `u64::MAX`).
    inv: Vec<u64>,
    /// Compiled ROM macros.
    roms: Vec<CompiledRom>,
    /// ROM schedule: `(tape position, rom index)` — ROMs at position `p`
    /// evaluate before instruction `p`.
    rom_order: Vec<(usize, usize)>,
    /// Largest row-select scratch any [`RomStrategy::Mask`] ROM needs.
    max_mask_rows: usize,
    /// Largest data width over all ROMs.
    max_rom_data: usize,
    /// Input ports in declaration order.
    inputs: Vec<CompiledPort>,
    /// Output ports in declaration order.
    outputs: Vec<CompiledPort>,
    /// All input-port slots flattened port-major, bit-minor (the packed
    /// image layout of [`WideSim::pack_vectors`]).
    input_slots: Vec<u32>,
    /// Creation-order slot (`slot_of`) → execution-order slot. Value
    /// slots are renumbered into definition order at compile time for
    /// cache locality; API entry points addressed by [`NetId`] (fault
    /// injection) translate through this table.
    slot_map: Vec<u32>,
}

/// Resolves a [`Signal`] to its value slot.
fn slot_of(s: Signal) -> u32 {
    match s {
        Signal::Const(false) => SLOT_ZERO,
        Signal::Const(true) => SLOT_ONE,
        Signal::Net(n) => n.0 + CONST_SLOTS,
    }
}

impl CompiledNetlist {
    /// Levelizes and flattens a *combinational* module into a tape.
    ///
    /// # Panics
    /// Panics if the module is sequential, invalid, or contains a
    /// combinational cycle. Use [`CompiledNetlist::try_compile`] to
    /// handle those as errors.
    pub fn compile(module: &Module) -> Self {
        match Self::try_compile(module) {
            Ok(c) => c,
            Err(e) => e.raise(),
        }
    }

    /// Fallible compilation: reports sequential or invalid modules and
    /// combinational cycles as [`SimError`] instead of panicking.
    pub fn try_compile(module: &Module) -> Result<Self, SimError> {
        let _span = obs::span("netlist.sim.compile");
        COMPILE_NS.time(|| Self::compile_inner(module))
    }

    fn compile_inner(module: &Module) -> Result<Self, SimError> {
        if !module.is_combinational() {
            return Err(SimError::Sequential {
                module: module.name.clone(),
            });
        }
        module
            .validate()
            .map_err(|reason| SimError::InvalidModule {
                module: module.name.clone(),
                reason,
            })?;
        let (order, rom_order) = levelize(module)?;

        let mut ops = Vec::with_capacity(order.len());
        let mut srcs = Vec::with_capacity(order.len());
        let mut outs = Vec::with_capacity(order.len());
        let mut inv = Vec::with_capacity(order.len());
        for &gi in &order {
            let g = &module.gates[gi];
            let (op, invert) = match g.kind {
                CellKind::And2 => (Opcode::And, false),
                CellKind::Nand2 => (Opcode::And, true),
                CellKind::Or2 => (Opcode::Or, false),
                CellKind::Nor2 => (Opcode::Or, true),
                CellKind::Xor2 => (Opcode::Xor, false),
                CellKind::Xnor2 => (Opcode::Xor, true),
                CellKind::Mux2 => (Opcode::Mux, false),
                CellKind::Buf => (Opcode::Buf, false),
                CellKind::Inv => (Opcode::Buf, true),
                CellKind::Dff | CellKind::RomBit | CellKind::RomDot => {
                    unreachable!("not combinational cells")
                }
            };
            let mut s = [SLOT_ZERO; 3];
            for (i, &sig) in g.inputs.iter().enumerate() {
                s[i] = slot_of(sig);
            }
            ops.push(op);
            srcs.push(s);
            outs.push(slot_of(Signal::Net(g.output)));
            inv.push(if invert { u64::MAX } else { 0 });
        }

        let mut max_mask_rows = 0usize;
        let mut max_rom_data = 0usize;
        let mut roms: Vec<CompiledRom> = module
            .roms
            .iter()
            .map(|r| {
                let strategy = if r.addr.len() <= ROM_MASK_ADDR_LIMIT {
                    max_mask_rows = max_mask_rows.max(1 << r.addr.len());
                    RomStrategy::Mask
                } else {
                    RomStrategy::PerLane
                };
                max_rom_data = max_rom_data.max(r.data.len());
                CompiledRom {
                    addr: r.addr.iter().map(|&s| slot_of(s)).collect(),
                    data: r.data.iter().map(|&n| slot_of(Signal::Net(n))).collect(),
                    contents: r.contents.clone(),
                    strategy,
                }
            })
            .collect();

        let compiled_port = |p: &Port| CompiledPort {
            name: p.name.clone(),
            slots: p.bits.iter().map(|&s| slot_of(s)).collect(),
        };
        let mut inputs: Vec<CompiledPort> = module.inputs.iter().map(compiled_port).collect();
        let mut outputs: Vec<CompiledPort> = module.outputs.iter().map(compiled_port).collect();
        let mut input_slots: Vec<u32> = inputs
            .iter()
            .flat_map(|p| p.slots.iter().copied())
            .collect();

        // Renumber value slots into definition order: constants, then
        // input bits, then every instruction/ROM output in the order the
        // settle pass computes it. Net-creation order scatters reads and
        // writes across the whole slot array, which on large modules
        // (megabytes of lane words) makes every access a latency-bound
        // cache miss; definition order makes the write stream sequential
        // and keeps operands hot, since most instructions read values
        // defined moments earlier on the tape.
        let slots = module.net_count() + CONST_SLOTS as usize;
        let mut remap: Vec<u32> = vec![u32::MAX; slots];
        {
            let mut next: u32 = 0;
            let mut assign = |slot: u32| {
                if remap[slot as usize] == u32::MAX {
                    remap[slot as usize] = next;
                    next += 1;
                }
            };
            assign(SLOT_ZERO);
            assign(SLOT_ONE);
            for &s in &input_slots {
                assign(s);
            }
            // Mirror the settle loop's schedule: ROMs due at position
            // `p` define their data slots just before instruction `p`.
            let mut rc = 0usize;
            for (pos, &out) in outs.iter().enumerate() {
                while rc < rom_order.len() && rom_order[rc].0 <= pos {
                    for &d in &roms[rom_order[rc].1].data {
                        assign(d);
                    }
                    rc += 1;
                }
                assign(out);
            }
            while rc < rom_order.len() {
                for &d in &roms[rom_order[rc].1].data {
                    assign(d);
                }
                rc += 1;
            }
            // Undriven, unused nets (validate allows them) get the tail
            // slots so the table stays total — fault injection may still
            // name them.
            for m in remap.iter_mut() {
                if *m == u32::MAX {
                    *m = next;
                    next += 1;
                }
            }
            debug_assert_eq!(next as usize, slots);
        }
        let map = |s: u32| remap[s as usize];
        for s in srcs.iter_mut() {
            for x in s.iter_mut() {
                *x = map(*x);
            }
        }
        for o in outs.iter_mut() {
            *o = map(*o);
        }
        for r in roms.iter_mut() {
            for a in r.addr.iter_mut() {
                *a = map(*a);
            }
            for d in r.data.iter_mut() {
                *d = map(*d);
            }
        }
        for p in inputs.iter_mut().chain(outputs.iter_mut()) {
            for s in p.slots.iter_mut() {
                *s = map(*s);
            }
        }
        for s in input_slots.iter_mut() {
            *s = map(*s);
        }

        COMPILES.incr();
        COMPILED_GATES.add(ops.len() as u64);
        Ok(CompiledNetlist {
            slots,
            ops,
            srcs,
            outs,
            inv,
            roms,
            rom_order,
            max_mask_rows,
            max_rom_data,
            inputs,
            outputs,
            input_slots,
            slot_map: remap,
        })
    }

    /// Instructions on the tape (compiled combinational gates).
    pub fn tape_len(&self) -> usize {
        self.ops.len()
    }

    /// Input port widths in declaration order.
    pub fn input_widths(&self) -> Vec<usize> {
        self.inputs.iter().map(|p| p.slots.len()).collect()
    }

    /// Number of input ports.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Total output-port bits (the length unit of response images).
    pub fn output_bits(&self) -> usize {
        self.outputs.iter().map(|p| p.slots.len()).sum()
    }

    fn output_port(&self, name: &str) -> Result<&CompiledPort, SimError> {
        self.outputs
            .iter()
            .find(|p| p.name == name)
            .ok_or_else(|| SimError::UnknownPort {
                direction: "output",
                name: name.to_string(),
            })
    }
}

/// Kahn/DFS levelization shared by the tape compiler: a topological
/// order of gate indices plus the ROM schedule (`(position, rom)`
/// pairs; ROMs at position `p` evaluate before the `p`-th ordered gate).
/// A combinational cycle is reported as [`SimError::CombinationalCycle`].
#[allow(clippy::type_complexity)]
fn levelize(module: &Module) -> Result<(Vec<usize>, Vec<(usize, usize)>), SimError> {
    let mut driver: HashMap<NetId, usize> = HashMap::new();
    let mut rom_driver: HashMap<NetId, usize> = HashMap::new();
    for (i, g) in module.gates.iter().enumerate() {
        driver.insert(g.output, i);
    }
    for (i, r) in module.roms.iter().enumerate() {
        for n in &r.data {
            rom_driver.insert(*n, i);
        }
    }
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let n_items = module.gates.len() + module.roms.len();
    let mut marks = vec![Mark::White; n_items];
    let item_of_net = |n: NetId| -> Option<usize> {
        driver
            .get(&n)
            .copied()
            .or_else(|| rom_driver.get(&n).map(|r| module.gates.len() + r))
    };
    let inputs_of = |item: usize| -> &[Signal] {
        if item < module.gates.len() {
            &module.gates[item].inputs
        } else {
            &module.roms[item - module.gates.len()].addr
        }
    };
    let mut order = Vec::new();
    let mut rom_order = Vec::new();
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for root in 0..n_items {
        if marks[root] != Mark::White {
            continue;
        }
        marks[root] = Mark::Grey;
        stack.push((root, 0));
        while let Some(&mut (item, ref mut next)) = stack.last_mut() {
            let ins = inputs_of(item);
            if *next < ins.len() {
                let idx = *next;
                *next += 1;
                let Signal::Net(n) = ins[idx] else { continue };
                let Some(dep) = item_of_net(n) else { continue };
                match marks[dep] {
                    Mark::Black => {}
                    Mark::Grey => {
                        return Err(SimError::CombinationalCycle {
                            module: module.name.clone(),
                            net: n.index(),
                        })
                    }
                    Mark::White => {
                        marks[dep] = Mark::Grey;
                        stack.push((dep, 0));
                    }
                }
            } else {
                marks[item] = Mark::Black;
                if item < module.gates.len() {
                    order.push(item);
                } else {
                    rom_order.push((order.len(), item - module.gates.len()));
                }
                stack.pop();
            }
        }
    }
    Ok((order, rom_order))
}

/// Lane-masked word: the first `lanes` bits of word `w` in a `W`-word
/// block ( `lanes` counts across the whole block).
fn word_mask(w: usize, lanes: usize) -> u64 {
    let base = w * 64;
    if lanes >= base + 64 {
        u64::MAX
    } else if lanes <= base {
        0
    } else {
        (1u64 << (lanes - base)) - 1
    }
}

/// A wide-lane evaluator over a shared [`CompiledNetlist`] tape.
///
/// Each value slot holds a `[u64; W]` block: bit *k* of word *w* is the
/// slot's value under input vector `64·w + k`, so one settle pass
/// evaluates `64·W` vectors. `W = 1` reproduces the classic 64-lane
/// arrangement; `W = 4` settles 256 vectors per pass and LLVM lowers the
/// per-instruction word loop to vector instructions.
#[derive(Debug, Clone)]
pub struct WideSim<const W: usize> {
    compiled: Arc<CompiledNetlist>,
    /// Per-slot lane blocks; slots 0/1 permanently hold the constants.
    values: Vec<[u64; W]>,
    /// Row-select scratch for [`RomStrategy::Mask`] ROMs.
    sel_scratch: Vec<[u64; W]>,
    /// Data-column scratch shared by both ROM strategies.
    data_scratch: Vec<[u64; W]>,
    /// In-place stuck-at fault: the pinned slot (`u32::MAX` when
    /// fault-free) and the broadcast word it is pinned to.
    fault_slot: u32,
    fault_word: u64,
}

impl<const W: usize> WideSim<W> {
    /// Lanes (input vectors) one settle pass evaluates.
    pub const LANES: usize = 64 * W;

    /// Creates an evaluator over `compiled`, all nets at zero.
    pub fn new(compiled: Arc<CompiledNetlist>) -> Self {
        let mut values = vec![[0u64; W]; compiled.slots];
        values[SLOT_ONE as usize] = [u64::MAX; W];
        let sel_scratch = vec![[0u64; W]; compiled.max_mask_rows];
        let data_scratch = vec![[0u64; W]; compiled.max_rom_data];
        WideSim {
            compiled,
            values,
            sel_scratch,
            data_scratch,
            fault_slot: u32::MAX,
            fault_word: 0,
        }
    }

    /// Drives input port `name` with up to `64·W` per-lane values.
    ///
    /// # Panics
    /// Panics if the port does not exist or more than `64·W` lanes are
    /// given. Use [`WideSim::try_set_lanes`] to handle those as errors.
    pub fn set_lanes(&mut self, name: &str, lane_values: &[u64]) {
        if let Err(e) = self.try_set_lanes(name, lane_values) {
            e.raise()
        }
    }

    /// Fallible lane binding: reports unknown ports and over-wide lane
    /// counts as [`SimError`].
    pub fn try_set_lanes(&mut self, name: &str, lane_values: &[u64]) -> Result<(), SimError> {
        let Some(port_index) = self.compiled.inputs.iter().position(|p| p.name == name) else {
            return Err(SimError::UnknownPort {
                direction: "input",
                name: name.to_string(),
            });
        };
        self.try_set_port_lanes(port_index, lane_values)
    }

    /// [`Self::set_lanes`] by input-port index (declaration order) —
    /// the hot-loop variant, no name lookup.
    ///
    /// # Panics
    /// Panics if more than `64·W` lanes are given. Use
    /// [`WideSim::try_set_port_lanes`] to handle that as an error.
    pub fn set_port_lanes(&mut self, port_index: usize, lane_values: &[u64]) {
        if let Err(e) = self.try_set_port_lanes(port_index, lane_values) {
            e.raise()
        }
    }

    /// Fallible [`Self::set_port_lanes`]: reports an over-wide lane count
    /// as [`SimError::TooManyLanes`].
    pub fn try_set_port_lanes(
        &mut self,
        port_index: usize,
        lane_values: &[u64],
    ) -> Result<(), SimError> {
        if lane_values.len() > Self::LANES {
            return Err(SimError::TooManyLanes {
                given: lane_values.len(),
                max: Self::LANES,
            });
        }
        let compiled = Arc::clone(&self.compiled);
        let port = &compiled.inputs[port_index];
        for (bit, &slot) in port.slots.iter().enumerate() {
            let mut block = [0u64; W];
            for (lane, &v) in lane_values.iter().enumerate() {
                if (v >> bit) & 1 == 1 {
                    block[lane / 64] |= 1 << (lane % 64);
                }
            }
            self.values[slot as usize] = block;
        }
        Ok(())
    }

    /// Transposes a chunk of up to `64·W` input vectors (one value per
    /// input port, in port order) into per-input-net lane blocks. The
    /// returned image replays cheaply via [`Self::load_packed`] — fault
    /// grading packs every vector chunk once and reloads it per fault.
    ///
    /// # Panics
    /// Panics if more than `64·W` vectors are given or a vector's arity
    /// is wrong. Use [`WideSim::try_pack_vectors`] to handle those as
    /// errors.
    pub fn pack_vectors(&self, chunk: &[Vec<u64>]) -> Vec<[u64; W]> {
        match self.try_pack_vectors(chunk) {
            Ok(image) => image,
            Err(e) => e.raise(),
        }
    }

    /// Fallible transpose: reports over-wide chunks and arity mismatches
    /// as [`SimError`].
    pub fn try_pack_vectors(&self, chunk: &[Vec<u64>]) -> Result<Vec<[u64; W]>, SimError> {
        if chunk.len() > Self::LANES {
            return Err(SimError::TooManyLanes {
                given: chunk.len(),
                max: Self::LANES,
            });
        }
        for (i, v) in chunk.iter().enumerate() {
            if v.len() != self.compiled.inputs.len() {
                return Err(SimError::VectorArity {
                    index: i,
                    got: v.len(),
                    want: self.compiled.inputs.len(),
                });
            }
        }
        let mut image = vec![[0u64; W]; self.compiled.input_slots.len()];
        let mut base = 0usize;
        for (pi, port) in self.compiled.inputs.iter().enumerate() {
            for (lane, v) in chunk.iter().enumerate() {
                let value = v[pi];
                for bit in 0..port.slots.len() {
                    if (value >> bit) & 1 == 1 {
                        image[base + bit][lane / 64] |= 1 << (lane % 64);
                    }
                }
            }
            base += port.slots.len();
        }
        Ok(image)
    }

    /// Loads an input image produced by [`Self::pack_vectors`].
    ///
    /// # Panics
    /// Panics if the image length does not match the module's input
    /// bits. Use [`WideSim::try_load_packed`] to handle that as an error.
    pub fn load_packed(&mut self, image: &[[u64; W]]) {
        if let Err(e) = self.try_load_packed(image) {
            e.raise()
        }
    }

    /// Fallible image load: reports a wrong block count as
    /// [`SimError::ImageLength`].
    pub fn try_load_packed(&mut self, image: &[[u64; W]]) -> Result<(), SimError> {
        if image.len() != self.compiled.input_slots.len() {
            return Err(SimError::ImageLength {
                got: image.len(),
                want: self.compiled.input_slots.len(),
            });
        }
        for (&slot, block) in self.compiled.input_slots.iter().zip(image) {
            self.values[slot as usize] = *block;
        }
        Ok(())
    }

    /// Pins `net` to a stuck-at constant across all lanes: every
    /// subsequent [`Self::settle`] forces the net before evaluation and
    /// skips writes to it, without touching the shared tape. Replaces
    /// any previously injected fault.
    pub fn inject_fault(&mut self, net: NetId, stuck_at: bool) {
        self.fault_slot = self.compiled.slot_map[slot_of(Signal::Net(net)) as usize];
        self.fault_word = if stuck_at { u64::MAX } else { 0 };
    }

    /// Removes the injected fault, returning to fault-free simulation.
    pub fn clear_fault(&mut self) {
        self.fault_slot = u32::MAX;
    }

    /// Replays the tape once (levelized order), honoring any injected
    /// stuck-at fault.
    pub fn settle(&mut self) {
        if self.fault_slot != u32::MAX {
            self.values[self.fault_slot as usize] = [self.fault_word; W];
        }
        let compiled = Arc::clone(&self.compiled);
        let fault = self.fault_slot;
        let mut rom_cursor = 0usize;
        for pos in 0..compiled.ops.len() {
            while rom_cursor < compiled.rom_order.len() && compiled.rom_order[rom_cursor].0 <= pos {
                let ri = compiled.rom_order[rom_cursor].1;
                self.eval_rom(&compiled.roms[ri]);
                rom_cursor += 1;
            }
            let out = compiled.outs[pos];
            if out == fault {
                continue;
            }
            let [a, b, c] = compiled.srcs[pos];
            let inv = compiled.inv[pos];
            let va = self.values[a as usize];
            let mut v = [0u64; W];
            match compiled.ops[pos] {
                Opcode::And => {
                    let vb = self.values[b as usize];
                    for w in 0..W {
                        v[w] = (va[w] & vb[w]) ^ inv;
                    }
                }
                Opcode::Or => {
                    let vb = self.values[b as usize];
                    for w in 0..W {
                        v[w] = (va[w] | vb[w]) ^ inv;
                    }
                }
                Opcode::Xor => {
                    let vb = self.values[b as usize];
                    for w in 0..W {
                        v[w] = (va[w] ^ vb[w]) ^ inv;
                    }
                }
                Opcode::Mux => {
                    let vb = self.values[b as usize];
                    let vc = self.values[c as usize];
                    for w in 0..W {
                        v[w] = ((!va[w] & vb[w]) | (va[w] & vc[w])) ^ inv;
                    }
                }
                Opcode::Buf => {
                    for w in 0..W {
                        v[w] = va[w] ^ inv;
                    }
                }
            }
            self.values[out as usize] = v;
        }
        while rom_cursor < compiled.rom_order.len() {
            let ri = compiled.rom_order[rom_cursor].1;
            self.eval_rom(&compiled.roms[ri]);
            rom_cursor += 1;
        }
    }

    fn eval_rom(&mut self, rom: &CompiledRom) {
        let d = rom.data.len();
        for block in self.data_scratch[..d].iter_mut() {
            *block = [0u64; W];
        }
        match rom.strategy {
            RomStrategy::Mask => self.eval_rom_mask(rom),
            RomStrategy::PerLane => self.eval_rom_per_lane(rom),
        }
        for (j, &slot) in rom.data.iter().enumerate() {
            if slot == self.fault_slot {
                continue;
            }
            self.values[slot as usize] = self.data_scratch[j];
        }
    }

    /// Bitwise ROM evaluation: recursive-doubling expansion of the
    /// row-select lane masks over the address words, then one
    /// OR-accumulate per set data bit per nonzero row. All `64·W` lanes
    /// resolve in `O(2^k + set_bits)` word operations instead of a
    /// per-lane scalar address loop.
    fn eval_rom_mask(&mut self, rom: &CompiledRom) {
        let rows = 1usize << rom.addr.len();
        let sels = &mut self.sel_scratch[..rows];
        sels[0] = [u64::MAX; W];
        let mut size = 1usize;
        for &aslot in &rom.addr {
            let a = self.values[aslot as usize];
            // Address bits are little-endian, so each new bit is the MSB
            // of the row index built so far: set → rows `idx + size`,
            // clear → rows `idx`.
            for idx in 0..size {
                let s = sels[idx];
                let mut hi = [0u64; W];
                let mut lo = [0u64; W];
                for w in 0..W {
                    hi[w] = s[w] & a[w];
                    lo[w] = s[w] & !a[w];
                }
                sels[idx + size] = hi;
                sels[idx] = lo;
            }
            size *= 2;
        }
        let d = rom.data.len();
        let data_mask = if d >= 64 { u64::MAX } else { (1u64 << d) - 1 };
        for (a, &row) in rom.contents.iter().take(rows).enumerate() {
            let mut bits = row & data_mask;
            if bits == 0 {
                continue;
            }
            let sel = sels[a];
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let acc = &mut self.data_scratch[j];
                for w in 0..W {
                    acc[w] |= sel[w];
                }
            }
        }
    }

    /// Per-lane ROM evaluation for address spaces too large to expand:
    /// assemble each lane's address scalar-wise and scatter the read
    /// word's bits, per 64-lane word.
    fn eval_rom_per_lane(&mut self, rom: &CompiledRom) {
        let d = rom.data.len();
        for w in 0..W {
            for lane in 0..64 {
                let mut addr = 0usize;
                for (bit, &aslot) in rom.addr.iter().enumerate() {
                    if (self.values[aslot as usize][w] >> lane) & 1 == 1 {
                        addr |= 1 << bit;
                    }
                }
                let word = rom.contents.get(addr).copied().unwrap_or(0);
                for (j, acc) in self.data_scratch[..d].iter_mut().enumerate() {
                    if (word >> j) & 1 == 1 {
                        acc[w] |= 1 << lane;
                    }
                }
            }
        }
    }

    fn read(&self, slot: u32) -> [u64; W] {
        self.values[slot as usize]
    }

    fn read_lane(&self, slot: u32, lane: usize) -> bool {
        (self.values[slot as usize][lane / 64] >> (lane % 64)) & 1 == 1
    }

    /// Reads output port `name` for the first `lanes` lanes.
    ///
    /// # Panics
    /// Panics if the port does not exist. Use [`WideSim::try_lanes`] to
    /// handle that as an error.
    pub fn lanes(&self, name: &str, lanes: usize) -> Vec<u64> {
        match self.try_lanes(name, lanes) {
            Ok(v) => v,
            Err(e) => e.raise(),
        }
    }

    /// Fallible port read: reports an unknown output name as
    /// [`SimError::UnknownPort`].
    pub fn try_lanes(&self, name: &str, lanes: usize) -> Result<Vec<u64>, SimError> {
        let port = self.compiled.output_port(name)?;
        Ok((0..lanes)
            .map(|lane| {
                let mut v = 0u64;
                for (bit, &slot) in port.slots.iter().enumerate() {
                    if self.read_lane(slot, lane) {
                        v |= 1 << bit;
                    }
                }
                v
            })
            .collect())
    }

    /// Lane words of every output-port bit, flattened port-major,
    /// bit-minor, word-minor (`W` words per bit), masked to the first
    /// `lanes` lanes — the module's full response image, in the layout
    /// [`Self::outputs_match`] compares against.
    pub fn output_words(&self, lanes: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.compiled.output_bits() * W);
        for port in &self.compiled.outputs {
            for &slot in &port.slots {
                let block = self.read(slot);
                for (w, &word) in block.iter().enumerate() {
                    out.push(word & word_mask(w, lanes));
                }
            }
        }
        out
    }

    /// Compares the current response image against `expected` (produced
    /// by [`Self::output_words`] with the same `lanes`) without
    /// allocating — the detection test in the fault-grading hot loop.
    pub fn outputs_match(&self, expected: &[u64], lanes: usize) -> bool {
        let mut it = expected.iter();
        for port in &self.compiled.outputs {
            for &slot in &port.slots {
                let block = self.read(slot);
                for (w, &word) in block.iter().enumerate() {
                    let Some(&want) = it.next() else { return false };
                    if word & word_mask(w, lanes) != want {
                        return false;
                    }
                }
            }
        }
        it.next().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::sim::Simulator;
    use pdk::RomStyle;

    fn compile(m: &Module) -> Arc<CompiledNetlist> {
        Arc::new(CompiledNetlist::compile(m))
    }

    #[test]
    fn wide_sim_matches_scalar_on_an_adder_at_256_lanes() {
        let mut b = NetlistBuilder::new("add");
        let x = b.input("x", 8);
        let y = b.input("y", 8);
        let s = crate::arith::add(&mut b, &x, &y);
        b.output("s", &s);
        let m = b.finish();
        let mut sim: WideSim<4> = WideSim::new(compile(&m));
        let xs: Vec<u64> = (0..256).collect();
        let ys: Vec<u64> = (0..256).map(|v| (v * 37) % 256).collect();
        sim.set_lanes("x", &xs);
        sim.set_lanes("y", &ys);
        sim.settle();
        let got = sim.lanes("s", 256);
        let mut scalar = Simulator::new(&m);
        for lane in 0..256 {
            scalar.set("x", xs[lane]);
            scalar.set("y", ys[lane]);
            scalar.settle();
            assert_eq!(got[lane], scalar.get("s"), "lane {lane}");
        }
    }

    #[test]
    fn folded_inversions_cover_every_cell_kind() {
        let mut b = NetlistBuilder::new("kinds");
        let x = b.input("x", 3);
        let outs = vec![
            b.gate(CellKind::And2, &[x[0], x[1]]),
            b.gate(CellKind::Nand2, &[x[0], x[1]]),
            b.gate(CellKind::Or2, &[x[1], x[2]]),
            b.gate(CellKind::Nor2, &[x[1], x[2]]),
            b.gate(CellKind::Xor2, &[x[0], x[2]]),
            b.gate(CellKind::Xnor2, &[x[0], x[2]]),
            b.gate(CellKind::Mux2, &[x[0], x[1], x[2]]),
            b.gate(CellKind::Buf, &[x[1]]),
            b.gate(CellKind::Inv, &[x[2]]),
        ];
        b.output("o", &outs);
        let m = b.finish();
        let mut sim: WideSim<1> = WideSim::new(compile(&m));
        let vs: Vec<u64> = (0..8).collect();
        sim.set_lanes("x", &vs);
        sim.settle();
        let got = sim.lanes("o", 8);
        let mut scalar = Simulator::new(&m);
        for (lane, &v) in vs.iter().enumerate() {
            scalar.set("x", v);
            scalar.settle();
            assert_eq!(got[lane], scalar.get("o"), "x={v}");
        }
    }

    #[test]
    fn mask_strategy_matches_per_lane_strategy() {
        // Same ROM compiled both ways must read identically, including
        // addresses beyond the stored contents (which read zero).
        let mut b = NetlistBuilder::new("rom");
        let a = b.input("a", 4);
        let contents: Vec<u64> = vec![9, 1, 4, 7, 2, 8, 5, 3, 6, 0];
        let d = b.rom(&a, contents, 4, RomStyle::Crossbar);
        b.output("d", &d);
        let m = b.finish();
        let compiled = CompiledNetlist::compile(&m);
        assert_eq!(compiled.roms[0].strategy, RomStrategy::Mask);
        let mut forced = compiled.clone();
        forced.roms[0].strategy = RomStrategy::PerLane;
        let addrs: Vec<u64> = (0..16).collect();
        let mut mask_sim: WideSim<1> = WideSim::new(Arc::new(compiled));
        let mut lane_sim: WideSim<1> = WideSim::new(Arc::new(forced));
        mask_sim.set_lanes("a", &addrs);
        lane_sim.set_lanes("a", &addrs);
        mask_sim.settle();
        lane_sim.settle();
        assert_eq!(mask_sim.lanes("d", 16), lane_sim.lanes("d", 16));
        assert_eq!(
            mask_sim.lanes("d", 16),
            vec![9, 1, 4, 7, 2, 8, 5, 3, 6, 0, 0, 0, 0, 0, 0, 0]
        );
    }

    #[test]
    fn wide_roms_fall_back_to_per_lane() {
        let mut b = NetlistBuilder::new("bigrom");
        let a = b.input("a", ROM_MASK_ADDR_LIMIT + 1);
        let contents: Vec<u64> = (0..64u64).map(|v| v * 3 % 17).collect();
        let d = b.rom(&a, contents, 5, RomStyle::Crossbar);
        b.output("d", &d);
        let m = b.finish();
        let compiled = compile(&m);
        assert_eq!(compiled.roms[0].strategy, RomStrategy::PerLane);
        let mut sim: WideSim<1> = WideSim::new(compiled);
        let addrs: Vec<u64> = (0..64).map(|v| v * 31 % 2048).collect();
        sim.set_lanes("a", &addrs);
        sim.settle();
        let got = sim.lanes("d", 64);
        let mut scalar = Simulator::new(&m);
        for (lane, &v) in addrs.iter().enumerate() {
            scalar.set("a", v);
            scalar.settle();
            assert_eq!(got[lane], scalar.get("d"), "addr {v}");
        }
    }

    #[test]
    fn injected_faults_pin_nets_and_skip_writes() {
        let mut b = NetlistBuilder::new("mix");
        let x = b.input("x", 3);
        let a = b.and(x[0], x[1]);
        let o = b.xor(a, x[2]);
        let n = b.not(o);
        b.output("o", &[o, n]);
        let m = b.finish();
        let compiled = compile(&m);
        let vectors: Vec<Vec<u64>> = (0..8).map(|v| vec![v]).collect();
        let mut sim: WideSim<2> = WideSim::new(compiled);
        let image = sim.pack_vectors(&vectors);
        for fault in crate::faults::fault_sites(&m) {
            sim.inject_fault(fault.net, fault.stuck_at);
            sim.load_packed(&image);
            sim.settle();
            let got = sim.lanes("o", 8);
            let faulty = crate::faults::inject(&m, fault);
            let mut reference = Simulator::new(&faulty);
            for (lane, v) in vectors.iter().enumerate() {
                reference.set("x", v[0]);
                reference.settle();
                assert_eq!(got[lane], reference.get("o"), "{fault:?} lane {lane}");
            }
        }
        sim.clear_fault();
        sim.load_packed(&image);
        sim.settle();
        let mut clean = Simulator::new(&m);
        for (lane, v) in vectors.iter().enumerate() {
            clean.set("x", v[0]);
            clean.settle();
            assert_eq!(sim.lanes("o", 8)[lane], clean.get("o"));
        }
    }

    #[test]
    fn rom_data_faults_survive_both_strategies() {
        let mut b = NetlistBuilder::new("rom");
        let a = b.input("a", 2);
        let d = b.rom(&a, vec![0, 1, 2, 3], 2, RomStyle::Crossbar);
        b.output("d", &d);
        let m = b.finish();
        for force_per_lane in [false, true] {
            let mut compiled = CompiledNetlist::compile(&m);
            if force_per_lane {
                compiled.roms[0].strategy = RomStrategy::PerLane;
            }
            let mut sim: WideSim<1> = WideSim::new(Arc::new(compiled));
            sim.inject_fault(m.roms[0].data[0], true);
            sim.set_lanes("a", &[0, 1, 2, 3]);
            sim.settle();
            assert_eq!(sim.lanes("d", 4), vec![1, 1, 3, 3]);
        }
    }

    #[test]
    fn output_words_and_matching_span_word_boundaries() {
        let mut b = NetlistBuilder::new("wide");
        let x = b.input("x", 1);
        let o = b.not(x[0]);
        b.output("o", &[o, x[0]]);
        let m = b.finish();
        let mut sim: WideSim<2> = WideSim::new(compile(&m));
        let vs: Vec<u64> = (0..100).map(|v| v & 1).collect();
        sim.set_lanes("x", &vs);
        sim.settle();
        for lanes in [1usize, 63, 64, 65, 100] {
            let image = sim.output_words(lanes);
            assert_eq!(image.len(), 2 * 2, "2 bits x 2 words");
            assert!(sim.outputs_match(&image, lanes));
            // A flipped bit inside the lane window must be detected …
            let mut bad = image.clone();
            bad[0] ^= 1;
            assert!(!sim.outputs_match(&bad, lanes));
            // … while bits beyond the window are masked out.
            if lanes < 64 {
                let mut beyond = image.clone();
                beyond[0] |= 1 << lanes;
                assert!(!sim.outputs_match(&beyond, lanes), "expected image differs");
            }
        }
    }

    #[test]
    fn constants_occupy_dedicated_slots() {
        let mut b = NetlistBuilder::new("c");
        let x = b.input("x", 1);
        let y = b.and(x[0], Signal::ONE);
        let z = b.or(y, Signal::ZERO);
        b.output("z", &[z, Signal::ONE]);
        let m = b.finish();
        let mut sim: WideSim<1> = WideSim::new(compile(&m));
        sim.set_lanes("x", &[0, 1, 1, 0]);
        sim.settle();
        assert_eq!(sim.lanes("z", 4), vec![0b10, 0b11, 0b11, 0b10]);
    }

    #[test]
    fn packed_images_replay_like_set_lanes() {
        let mut b = NetlistBuilder::new("add");
        let x = b.input("x", 4);
        let y = b.input("y", 4);
        let s = crate::arith::add(&mut b, &x, &y);
        b.output("s", &s);
        let m = b.finish();
        let mut sim: WideSim<1> = WideSim::new(compile(&m));
        let vectors: Vec<Vec<u64>> = (0..16).map(|v| vec![v, (v * 3) % 16]).collect();
        let image = sim.pack_vectors(&vectors);
        sim.load_packed(&image);
        sim.settle();
        let via_packed = sim.lanes("s", 16);
        let words = sim.output_words(16);
        sim.set_lanes("x", &(0..16).collect::<Vec<u64>>());
        sim.set_lanes("y", &(0..16).map(|v| (v * 3) % 16).collect::<Vec<u64>>());
        sim.settle();
        assert_eq!(via_packed, sim.lanes("s", 16));
        assert!(sim.outputs_match(&words, 16));
    }

    #[test]
    fn mixed_rom_and_logic_orders_correctly() {
        // logic -> ROM -> logic dependency chain.
        let mut b = NetlistBuilder::new("mix");
        let x = b.input("x", 2);
        let inv: Vec<Signal> = x.iter().map(|&s| b.not(s)).collect();
        let d = b.rom(&inv, vec![3, 2, 1, 0], 2, RomStyle::Crossbar);
        let out = b.xor(d[0], d[1]);
        b.output("o", &[out]);
        let m = b.finish();
        let mut sim: WideSim<1> = WideSim::new(compile(&m));
        sim.set_lanes("x", &[0, 1, 2, 3]);
        sim.settle();
        let got = sim.lanes("o", 4);
        let mut scalar = Simulator::new(&m);
        for v in 0..4u64 {
            scalar.set("x", v);
            scalar.settle();
            assert_eq!(got[v as usize], scalar.get("o"), "v={v}");
        }
    }

    #[test]
    #[should_panic(expected = "combinational-only")]
    fn sequential_modules_are_rejected() {
        let mut b = NetlistBuilder::new("seq");
        let x = b.input("x", 1);
        let q = b.dff(x[0], false);
        b.output("q", &[q]);
        let _ = CompiledNetlist::compile(&b.finish());
    }
}
