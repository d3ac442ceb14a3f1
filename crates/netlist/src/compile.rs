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
//!   are the shipped widths). A settle walks the tape in ROM-free
//!   spans, each writing one run of consecutive slots, and the
//!   per-instruction word loop is written so LLVM auto-vectorizes it.
//!   Stimulus enters one way, as a packed input image with one lane block
//!   per input bit ([`WideSim::try_load_packed`]); [`crate::verify`]
//!   writes its images directly, other callers transpose per-port values
//!   with [`WideSim::try_pack_vectors`]. That packing and the per-lane ROM
//!   addresses leave lane order through one branchless 64×64 bit-matrix
//!   transpose.
//! * `cone` (crate-private) — event-driven stuck-at propagation over a
//!   settled [`WideSim`]: the fault grader of [`crate::faults`]
//!   re-evaluates only a fault's fanout cone instead of the whole tape.
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
//! lane counts straddling every word boundary and the differential
//! fuzzer's engines oracle.

use std::sync::Arc;

use pdk::CellKind;

use crate::error::SimError;
use crate::ir::{Module, Port, Signal};
use crate::levels::{Item, Levels};

pub(crate) mod cone;

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
/// let vectors: Vec<Vec<u64>> = (0..4).map(|x| vec![x]).collect();
/// let image = sim.try_pack_vectors(&vectors).unwrap();
/// sim.try_load_packed(&image).unwrap();
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
    /// evaluate before instruction `p`. Positions never decrease, so the
    /// positions cut the tape into ROM-free *spans*, and the outputs of a
    /// span's instructions are consecutive slots.
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
    /// cache locality; entry points addressed by [`crate::ir::NetId`]
    /// (fault sites) translate through this table.
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
        let levels = Levels::try_new(module)?;

        // ROMs at schedule position `p` evaluate before the `p`-th
        // instruction.
        let mut rom_order = Vec::with_capacity(module.roms.len());
        let n = module.gates.len();
        let mut ops = Vec::with_capacity(n);
        let mut srcs = Vec::with_capacity(n);
        let mut outs = Vec::with_capacity(n);
        let mut inv = Vec::with_capacity(n);
        for &item in &levels.order {
            let g = match item {
                Item::Gate(gi) => &module.gates[gi as usize],
                Item::Rom(ri) => {
                    rom_order.push((ops.len(), ri as usize));
                    continue;
                }
            };
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
            // slots so the table stays total.
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
        // Every net has one driver, so the renumbering above hands each
        // span's outputs one run of slots; the settle walk relies on it.
        let mut start = 0;
        for end in rom_order.iter().map(|&(pos, _)| pos).chain([outs.len()]) {
            assert!(
                outs[start..end].windows(2).all(|w| w[1] == w[0] + 1),
                "tape span {start}..{end} writes non-consecutive slots"
            );
            start = end;
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

/// Transposes a 64×64 bit matrix in place: bit `j` of word `i` trades
/// places with bit `i` of word `j`. Six rounds of masked block swaps
/// (32×32 blocks, then 16×16, … then single bits), with no per-bit
/// branch. Only the first `rows` words of the result are wanted: the
/// rounds skip the blocks that cannot reach them, which roughly halves
/// the work for an 8-bit port, and leave the other words unspecified.
///
/// This is the one lane transpose of the kernel. Fed 64 lane values it
/// returns one lane word per bit; fed one lane word per bit it returns
/// the 64 lane values.
fn transpose64(m: &mut [u64; 64], rows: usize) {
    let mut j = 32;
    let mut mask = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let end = rows.min(64).next_multiple_of(j);
        // Rows `k` with bit `j` clear pair with rows `k + j`: the high
        // half of each `2j`-bit group in row `k` swaps with the low half
        // in row `k + j`. Later rounds only mix rows within aligned
        // `j`-row groups, so groups past the wanted rows are skipped.
        let mut k = 0;
        while k < end {
            let t = ((m[k] >> j) ^ m[k + j]) & mask;
            m[k] ^= t << j;
            m[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
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
    /// ROM evaluation scratch.
    rom: RomScratch<W>,
}

/// Scratch of one ROM evaluation.
#[derive(Debug, Clone)]
struct RomScratch<const W: usize> {
    /// Row-select masks for [`RomStrategy::Mask`] ROMs.
    sel: Vec<[u64; W]>,
    /// Data columns, shared by both strategies.
    data: Vec<[u64; W]>,
}

/// Evaluates one instruction over the slot values. The settle walk and
/// the cone grader both call it.
#[inline(always)]
fn eval_instr<const W: usize>(
    values: &[[u64; W]],
    op: Opcode,
    [a, b, c]: [u32; 3],
    inv: u64,
) -> [u64; W] {
    let va = values[a as usize];
    let mut v = [0u64; W];
    match op {
        Opcode::And => {
            let vb = values[b as usize];
            for w in 0..W {
                v[w] = (va[w] & vb[w]) ^ inv;
            }
        }
        Opcode::Or => {
            let vb = values[b as usize];
            for w in 0..W {
                v[w] = (va[w] | vb[w]) ^ inv;
            }
        }
        Opcode::Xor => {
            let vb = values[b as usize];
            for w in 0..W {
                v[w] = (va[w] ^ vb[w]) ^ inv;
            }
        }
        Opcode::Mux => {
            let vb = values[b as usize];
            let vc = values[c as usize];
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
    v
}

impl CompiledNetlist {
    /// Evaluates the ROM-free tape span `start..end`, writing its
    /// outputs as the consecutive slots compilation gave them.
    #[inline(always)]
    fn settle_span<const W: usize>(&self, values: &mut [[u64; W]], start: usize, end: usize) {
        if start == end {
            return;
        }
        let first = self.outs[start] as usize;
        let tape = self.ops[start..end]
            .iter()
            .zip(&self.srcs[start..end])
            .zip(&self.inv[start..end]);
        for (out, ((&op, &src), &inv)) in (first..).zip(tape) {
            values[out] = eval_instr(values, op, src, inv);
        }
    }
}

impl<const W: usize> RomScratch<W> {
    /// Evaluates `rom` over `values` into the first `rom.data.len()`
    /// blocks of [`Self::data`].
    fn eval(&mut self, values: &[[u64; W]], rom: &CompiledRom) {
        let d = rom.data.len();
        for block in self.data[..d].iter_mut() {
            *block = [0u64; W];
        }
        match rom.strategy {
            RomStrategy::Mask => self.eval_mask(values, rom),
            RomStrategy::PerLane => self.eval_per_lane(values, rom),
        }
    }

    /// Bitwise ROM evaluation: recursive-doubling expansion of the
    /// row-select lane masks over the address words, then one
    /// OR-accumulate per set data bit per nonzero row. All `64·W` lanes
    /// resolve in `O(2^k + set_bits)` word operations instead of a
    /// per-lane scalar address loop.
    fn eval_mask(&mut self, values: &[[u64; W]], rom: &CompiledRom) {
        let rows = 1usize << rom.addr.len();
        let sels = &mut self.sel[..rows];
        sels[0] = [u64::MAX; W];
        let mut size = 1usize;
        for &aslot in &rom.addr {
            let a = values[aslot as usize];
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
                let acc = &mut self.data[j];
                for w in 0..W {
                    acc[w] |= sel[w];
                }
            }
        }
    }

    /// Per-lane ROM evaluation for address spaces too large to expand,
    /// one 64-lane word at a time: transpose the address bit-words into
    /// 64 lane addresses, gather each lane's row, and transpose the rows
    /// back into data bit-words.
    fn eval_per_lane(&mut self, values: &[[u64; W]], rom: &CompiledRom) {
        let d = rom.data.len();
        for w in 0..W {
            let mut m = [0u64; 64];
            // Lanes with an address bit at or above bit 64 read past any
            // stored contents, so they read zero.
            let mut beyond = 0u64;
            for (bit, &aslot) in rom.addr.iter().enumerate() {
                let word = values[aslot as usize][w];
                match m.get_mut(bit) {
                    Some(row) => *row = word,
                    None => beyond |= word,
                }
            }
            transpose64(&mut m, 64);
            for (lane, row) in m.iter_mut().enumerate() {
                let keep = ((beyond >> lane) & 1).wrapping_sub(1);
                let addr = usize::try_from(*row).unwrap_or(usize::MAX);
                *row = rom.contents.get(addr).copied().unwrap_or(0) & keep;
            }
            transpose64(&mut m, d);
            for (acc, &word) in self.data[..d].iter_mut().zip(&m) {
                acc[w] = word;
            }
        }
    }
}

impl<const W: usize> WideSim<W> {
    /// Lanes (input vectors) one settle pass evaluates.
    pub const LANES: usize = 64 * W;

    /// Creates an evaluator over `compiled`, all nets at zero.
    pub fn new(compiled: Arc<CompiledNetlist>) -> Self {
        let mut values = vec![[0u64; W]; compiled.slots];
        values[SLOT_ONE as usize] = [u64::MAX; W];
        let rom = RomScratch {
            sel: vec![[0u64; W]; compiled.max_mask_rows],
            data: vec![[0u64; W]; compiled.max_rom_data],
        };
        WideSim {
            compiled,
            values,
            rom,
        }
    }

    /// Transposes a chunk of up to `64·W` input vectors (one value per
    /// input port, in port order) into per-input-net lane blocks. The
    /// returned image replays cheaply via [`Self::load_packed`].
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
            let width = port.slots.len();
            for w in 0..W {
                let mut m = [0u64; 64];
                for (row, v) in m.iter_mut().zip(chunk.iter().skip(64 * w)) {
                    *row = v[pi];
                }
                transpose64(&mut m, width);
                for (block, &word) in image[base..base + width].iter_mut().zip(&m) {
                    block[w] = word;
                }
            }
            base += width;
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

    /// Replays the tape once, in levelized order: each ROM-free span of
    /// instructions, then the ROMs due where it ends.
    pub fn settle(&mut self) {
        let WideSim {
            compiled,
            values,
            rom: scratch,
        } = self;
        let mut start = 0;
        for &(end, ri) in &compiled.rom_order {
            compiled.settle_span(values, start, end);
            let rom = &compiled.roms[ri];
            scratch.eval(values, rom);
            for (&slot, &block) in rom.data.iter().zip(&scratch.data) {
                values[slot as usize] = block;
            }
            start = end;
        }
        compiled.settle_span(values, start, compiled.ops.len());
    }

    /// The lane block of bit `bit` of output port `port` (declaration
    /// order), lanes past the chunk included.
    pub(crate) fn output_block(&self, port: usize, bit: usize) -> [u64; W] {
        self.values[self.compiled.outputs[port].slots[bit] as usize]
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
                let bit = |slot: u32| (self.values[slot as usize][lane / 64] >> (lane % 64)) & 1;
                (0..)
                    .zip(&port.slots)
                    .fold(0, |v, (k, &slot)| v | bit(slot) << k)
            })
            .collect())
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

    /// A `WideSim` over `compiled`, settled on `vectors` (one value per
    /// input port) through a packed image.
    fn settled<const W: usize>(compiled: Arc<CompiledNetlist>, vectors: &[Vec<u64>]) -> WideSim<W> {
        let mut sim = WideSim::new(compiled);
        let image = sim.try_pack_vectors(vectors).unwrap();
        sim.try_load_packed(&image).unwrap();
        sim.settle();
        sim
    }

    /// One single-port vector per value.
    fn column(values: impl IntoIterator<Item = u64>) -> Vec<Vec<u64>> {
        values.into_iter().map(|v| vec![v]).collect()
    }

    #[test]
    fn wide_sim_matches_scalar_on_an_adder_at_256_lanes() {
        let mut b = NetlistBuilder::new("add");
        let x = b.input("x", 8);
        let y = b.input("y", 8);
        let s = crate::arith::add(&mut b, &x, &y);
        b.output("s", &s);
        let m = b.finish();
        let vectors: Vec<Vec<u64>> = (0..256).map(|v| vec![v, (v * 37) % 256]).collect();
        let sim: WideSim<4> = settled(compile(&m), &vectors);
        let got = sim.lanes("s", 256);
        let mut scalar = Simulator::new(&m);
        for (lane, vector) in vectors.iter().enumerate() {
            let want = scalar.try_apply(vector, 0);
            assert_eq!(Ok(vec![got[lane]]), want, "lane {lane}");
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
        let vectors = column(0..8);
        let sim: WideSim<1> = settled(compile(&m), &vectors);
        let got = sim.lanes("o", 8);
        let mut scalar = Simulator::new(&m);
        for (lane, v) in vectors.iter().enumerate() {
            assert_eq!(Ok(vec![got[lane]]), scalar.try_apply(v, 0), "x={v:?}");
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
        let addrs = column(0..16);
        let mask_sim: WideSim<1> = settled(Arc::new(compiled), &addrs);
        let lane_sim: WideSim<1> = settled(Arc::new(forced), &addrs);
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
        let addrs = column((0..64).map(|v| v * 31 % 2048));
        let sim: WideSim<1> = settled(compiled, &addrs);
        let got = sim.lanes("d", 64);
        let mut scalar = Simulator::new(&m);
        for (lane, v) in addrs.iter().enumerate() {
            assert_eq!(Ok(vec![got[lane]]), scalar.try_apply(v, 0), "addr {v:?}");
        }
    }

    #[test]
    fn transpose64_swaps_rows_and_columns() {
        let mut m = [0u64; 64];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for row in m.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *row = x;
        }
        let original = m;
        transpose64(&mut m, 64);
        for (i, row) in m.iter().enumerate() {
            for (j, column) in original.iter().enumerate() {
                assert_eq!((row >> j) & 1, (column >> i) & 1, "bit ({i}, {j})");
            }
        }
        transpose64(&mut m, 64);
        assert_eq!(m, original, "a transpose is its own inverse");
        let mut full = original;
        transpose64(&mut full, 64);
        for rows in [1usize, 3, 4, 5, 8, 13, 33] {
            let mut part = original;
            transpose64(&mut part, rows);
            assert_eq!(part[..rows], full[..rows], "first {rows} rows");
        }
    }

    #[test]
    fn rom_faults_grade_alike_under_both_strategies() {
        // Faults on the address inputs and on every data bit, graded by
        // the cone grader with the ROM compiled each way, must match
        // clone injection plus the scalar simulator site by site.
        let mut b = NetlistBuilder::new("rom");
        let a = b.input("a", 3);
        let d = b.rom(&a, vec![5, 1, 6, 3, 0, 7], 3, RomStyle::Crossbar);
        let o = b.xor(d[0], d[2]);
        b.output("d", &d[1..]);
        b.output("o", &[o]);
        let m = b.finish();
        let sites = crate::faults::fault_sites(&m);
        for vectors in [vec![vec![2]], (0..8).map(|v| vec![v]).collect()] {
            let reference: Vec<bool> = sites
                .iter()
                .map(|&fault| {
                    let mut good = Simulator::new(&m);
                    let faulty = crate::faults::inject(&m, fault);
                    let mut bad = Simulator::new(&faulty);
                    vectors
                        .iter()
                        .any(|v| good.try_apply(v, 0).unwrap() != bad.try_apply(v, 0).unwrap())
                })
                .collect();
            for per_lane in [false, true] {
                let mut compiled = CompiledNetlist::compile(&m);
                if per_lane {
                    compiled.roms[0].strategy = RomStrategy::PerLane;
                }
                let got = crate::faults::grade(Arc::new(compiled), &sites, &vectors).unwrap();
                assert_eq!(got, reference, "per_lane={per_lane} vectors={vectors:?}");
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
        let sim: WideSim<1> = settled(compile(&m), &column([0, 1, 1, 0]));
        assert_eq!(sim.lanes("z", 4), vec![0b10, 0b11, 0b11, 0b10]);
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
        let sim: WideSim<1> = settled(compile(&m), &column(0..4));
        let got = sim.lanes("o", 4);
        let mut scalar = Simulator::new(&m);
        for v in 0..4u64 {
            let want = scalar.try_apply(&[v], 0);
            assert_eq!(Ok(vec![got[v as usize]]), want, "v={v}");
        }
    }

    /// Settles `m` over `64·W` pseudo-random vectors and compares every
    /// output lane with the scalar simulator.
    fn matches_scalar<const W: usize>(m: &Module) {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let vectors: Vec<Vec<u64>> = (0..WideSim::<W>::LANES)
            .map(|_| {
                m.inputs
                    .iter()
                    .map(|p| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state & ((1u64 << p.width()) - 1)
                    })
                    .collect()
            })
            .collect();
        let sim: WideSim<W> = settled(compile(m), &vectors);
        let wide: Vec<Vec<u64>> = m
            .outputs
            .iter()
            .map(|p| sim.try_lanes(&p.name, vectors.len()).unwrap())
            .collect();
        let mut scalar = Simulator::new(m);
        for (lane, vector) in vectors.iter().enumerate() {
            let outputs = scalar.try_apply(vector, 0).unwrap();
            for ((port, wide), want) in m.outputs.iter().zip(&wide).zip(outputs) {
                let name = &port.name;
                assert_eq!(wide[lane], want, "W={W} lane {lane} {name}");
            }
        }
    }

    /// Compiles `m`, checks its ROM schedule, and compares the span walk
    /// with the scalar simulator at `W = 1` and `W = 4`.
    fn spans_match_scalar(m: &Module, rom_order: &[(usize, usize)], ops: usize) {
        let compiled = CompiledNetlist::compile(m);
        assert_eq!(compiled.rom_order, rom_order, "{}: ROM schedule", m.name);
        assert_eq!(compiled.ops.len(), ops, "{}: instructions", m.name);
        matches_scalar::<1>(m);
        matches_scalar::<4>(m);
    }

    #[test]
    fn a_rom_at_tape_position_zero_precedes_the_first_span() {
        let mut b = NetlistBuilder::new("rom_first");
        let x = b.input("x", 3);
        let d = b.rom(&x, vec![5, 1, 6, 3, 0, 7, 2], 3, RomStyle::Crossbar);
        let o = b.xor(d[0], d[1]);
        let p = b.or(o, d[2]);
        b.output("o", &[o, p]);
        spans_match_scalar(&b.finish(), &[(0, 0)], 2);
    }

    #[test]
    fn a_rom_after_the_last_instruction_still_settles() {
        let mut b = NetlistBuilder::new("rom_last");
        let x = b.input("x", 3);
        let n = b.not(x[0]);
        let a = b.and(x[1], x[2]);
        let d = b.rom(
            &[n, a, x[0]],
            vec![3, 6, 1, 4, 7, 2, 5, 0],
            3,
            RomStyle::Crossbar,
        );
        b.output("d", &d);
        spans_match_scalar(&b.finish(), &[(2, 0)], 2);
    }

    #[test]
    fn two_roms_due_at_one_position_both_settle() {
        let mut b = NetlistBuilder::new("rom_pair");
        let x = b.input("x", 3);
        let g = b.xor(x[0], x[1]);
        let d1 = b.rom(&[g, x[2]], vec![1, 2, 3, 0], 2, RomStyle::Crossbar);
        let d2 = b.rom(&[x[0], x[2]], vec![2, 3, 0, 1], 2, RomStyle::BespokeDots);
        let o = b.and(d1[0], d2[0]);
        let p = b.xor(d1[1], d2[1]);
        b.output("o", &[o, p]);
        spans_match_scalar(&b.finish(), &[(1, 0), (1, 1)], 3);
    }

    #[test]
    fn a_rom_only_module_settles_without_instructions() {
        let mut b = NetlistBuilder::new("roms_only");
        let x = b.input("x", 3);
        let d1 = b.rom(&x, vec![7, 3, 5, 1, 6, 2, 4, 0], 3, RomStyle::Crossbar);
        let d2 = b.rom(&x[1..], vec![2, 0, 3], 2, RomStyle::Crossbar);
        b.output("d1", &d1);
        b.output("d2", &d2);
        spans_match_scalar(&b.finish(), &[(0, 0), (0, 1)], 0);
    }

    #[test]
    fn a_module_without_gates_settles_to_its_wiring() {
        let mut b = NetlistBuilder::new("wires");
        let x = b.input("x", 2);
        let y = b.input("y", 1);
        b.output("o", &[x[1], y[0], Signal::ONE, x[0], Signal::ZERO]);
        spans_match_scalar(&b.finish(), &[], 0);
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
