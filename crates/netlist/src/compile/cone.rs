//! Event-driven stuck-at propagation over a settled [`WideSim`].
//!
//! A stuck-at fault changes only the nets downstream of its site, and
//! usually only a few of those. So the grader settles each vector chunk
//! once, fault-free, and then grades a fault by re-evaluating just the
//! readers of the slots it changed:
//!
//! 1. write the stuck word to the fault's slot, unless it equals the
//!    fault-free value on every valid lane (then nothing can change);
//! 2. pop pending readers in tape order — instructions and ROMs are one
//!    list of *events* in settle order, and the tape is topological, so
//!    every operand of a popped event is already final;
//! 3. write an event's result only where it differs from the fault-free
//!    value on a valid lane, and queue the readers of what it wrote;
//! 4. stop at the first written slot an output port reads;
//! 5. put every written slot back to its fault-free block.
//!
//! Lanes are independent, so the valid lanes of every slot end up
//! exactly as a full settle with the fault pinned would leave them,
//! and the verdict equals [`crate::faults::inject`] plus a full settle.

use std::sync::Arc;

use super::{eval_instr, slot_of, word_mask, CompiledNetlist, Opcode, WideSim};
use crate::error::SimError;
use crate::ir::{NetId, Signal};

/// Tags an event as a ROM; the low bits index the tape's ROMs. Untagged
/// events are instruction positions.
const ROM_EVENT: u32 = 1 << 31;

/// Reader index of a compiled tape, built once per grading and shared by
/// every shard.
pub(crate) struct Fanout {
    compiled: Arc<CompiledNetlist>,
    /// The tape's instructions and ROMs in settle order (ROMs scheduled
    /// at position `p` run before instruction `p`). An event's *id* is
    /// its index here.
    events: Vec<u32>,
    /// The ids of the events reading slot `s` are
    /// `readers[start[s]..start[s + 1]]`, ascending. A ROM reads its
    /// address slots.
    start: Vec<u32>,
    readers: Vec<u32>,
    /// Whether an output-port bit reads slot `s`.
    observed: Vec<bool>,
}

/// The slots event `ev` reads.
fn operands(compiled: &CompiledNetlist, ev: u32) -> &[u32] {
    if ev & ROM_EVENT != 0 {
        return &compiled.roms[(ev & !ROM_EVENT) as usize].addr;
    }
    let pos = ev as usize;
    let arity = match compiled.ops[pos] {
        Opcode::Buf => 1,
        Opcode::And | Opcode::Or | Opcode::Xor => 2,
        Opcode::Mux => 3,
    };
    &compiled.srcs[pos][..arity]
}

impl Fanout {
    /// Indexes the readers of every slot of `compiled`.
    pub(crate) fn new(compiled: Arc<CompiledNetlist>) -> Self {
        let c = &*compiled;
        let mut events = Vec::with_capacity(c.ops.len() + c.roms.len());
        let mut roms = c.rom_order.iter().peekable();
        for pos in 0..c.ops.len() {
            while let Some(&(_, ri)) = roms.next_if(|&&(at, _)| at <= pos) {
                events.push(ROM_EVENT | ri as u32);
            }
            events.push(pos as u32);
        }
        events.extend(roms.map(|&(_, ri)| ROM_EVENT | ri as u32));

        // Counting sort of (slot, event id) pairs; ids come in ascending
        // order, so every reader list is sorted.
        let mut start = vec![0u32; c.slots + 1];
        for &ev in &events {
            for &s in operands(c, ev) {
                start[s as usize + 1] += 1;
            }
        }
        for s in 0..c.slots {
            start[s + 1] += start[s];
        }
        let mut fill = start.clone();
        let mut readers = vec![0u32; start[c.slots] as usize];
        for (id, &ev) in events.iter().enumerate() {
            for &s in operands(c, ev) {
                readers[fill[s as usize] as usize] = id as u32;
                fill[s as usize] += 1;
            }
        }
        let mut observed = vec![false; c.slots];
        for port in &c.outputs {
            for &s in &port.slots {
                observed[s as usize] = true;
            }
        }
        Fanout {
            compiled,
            events,
            start,
            readers,
            observed,
        }
    }

    fn readers(&self, slot: u32) -> &[u32] {
        let s = slot as usize;
        &self.readers[self.start[s] as usize..self.start[s + 1] as usize]
    }
}

/// One worker's fault grader: a [`WideSim`] holding the fault-free state
/// of the loaded chunk, and the scratch of one fault's propagation.
pub(crate) struct ConeSim<const W: usize> {
    sim: WideSim<W>,
    fanout: Arc<Fanout>,
    /// Valid lanes of the loaded chunk.
    mask: [u64; W],
    /// Queued events, one bit per event id; only words `lo..hi` can be
    /// nonzero.
    pending: Vec<u64>,
    lo: usize,
    hi: usize,
    /// Slots the current fault changed, with their fault-free blocks.
    saved: Vec<(u32, [u64; W])>,
    /// Cone instructions plus ROMs evaluated so far.
    evals: u64,
}

impl<const W: usize> ConeSim<W> {
    /// A grader over `fanout`'s tape with no chunk loaded.
    pub(crate) fn new(fanout: Arc<Fanout>) -> Self {
        ConeSim {
            sim: WideSim::new(Arc::clone(&fanout.compiled)),
            mask: [0; W],
            pending: vec![0; fanout.events.len().div_ceil(64)],
            lo: usize::MAX,
            hi: 0,
            saved: Vec::new(),
            evals: 0,
            fanout,
        }
    }

    /// Cone instructions plus ROMs evaluated so far.
    pub(crate) fn evals(&self) -> u64 {
        self.evals
    }

    /// Loads a packed chunk of `lanes` vectors and settles it fault-free.
    pub(crate) fn load(&mut self, image: &[[u64; W]], lanes: usize) -> Result<(), SimError> {
        self.sim.try_load_packed(image)?;
        self.sim.settle();
        for (w, m) in self.mask.iter_mut().enumerate() {
            *m = word_mask(w, lanes);
        }
        Ok(())
    }

    /// Whether `net` stuck at `stuck_at` changes an output-port bit on
    /// any lane of the loaded chunk. Leaves the fault-free state as it
    /// found it.
    pub(crate) fn detects(&mut self, net: NetId, stuck_at: bool) -> bool {
        let slot = self.fanout.compiled.slot_map[slot_of(Signal::Net(net)) as usize];
        let stuck = [if stuck_at { u64::MAX } else { 0 }; W];
        // The fault slot's driver lies upstream of every event the fault
        // can queue, so nothing overwrites the stuck word.
        let detected =
            self.write(slot, stuck) && (self.fanout.observed[slot as usize] || self.propagate());
        for w in self.lo..self.hi {
            self.pending[w] = 0;
        }
        self.lo = usize::MAX;
        self.hi = 0;
        for &(s, block) in &self.saved {
            self.sim.values[s as usize] = block;
        }
        self.saved.clear();
        detected
    }

    /// Writes `block` to `slot` if it differs from the slot's value on a
    /// valid lane, saving the old block and queueing the slot's readers.
    /// Returns whether it wrote.
    fn write(&mut self, slot: u32, block: [u64; W]) -> bool {
        let old = self.sim.values[slot as usize];
        let mut diff = 0;
        for w in 0..W {
            diff |= (old[w] ^ block[w]) & self.mask[w];
        }
        if diff == 0 {
            return false;
        }
        self.saved.push((slot, old));
        self.sim.values[slot as usize] = block;
        let readers = self.fanout.readers(slot);
        if let (Some(&first), Some(&last)) = (readers.first(), readers.last()) {
            self.lo = self.lo.min(first as usize / 64);
            self.hi = self.hi.max(last as usize / 64 + 1);
        }
        for &id in readers {
            self.pending[id as usize / 64] |= 1 << (id % 64);
        }
        true
    }

    /// Evaluates queued events in tape order until none is left (`false`)
    /// or one changes an observed slot (`true`).
    fn propagate(&mut self) -> bool {
        let fanout = Arc::clone(&self.fanout);
        let compiled = &*fanout.compiled;
        let mut word = self.lo;
        while word < self.hi {
            let bits = self.pending[word];
            if bits == 0 {
                word += 1;
                continue;
            }
            self.pending[word] = bits & (bits - 1);
            let ev = fanout.events[word * 64 + bits.trailing_zeros() as usize];
            self.evals += 1;
            if ev & ROM_EVENT == 0 {
                let pos = ev as usize;
                let out = compiled.outs[pos];
                let src = compiled.srcs[pos];
                let block = eval_instr(&self.sim.values, compiled.ops[pos], src, compiled.inv[pos]);
                if self.write(out, block) && fanout.observed[out as usize] {
                    return true;
                }
            } else {
                let rom = &compiled.roms[(ev & !ROM_EVENT) as usize];
                self.sim.rom.eval(&self.sim.values, rom);
                for (j, &slot) in rom.data.iter().enumerate() {
                    let block = self.sim.rom.data[j];
                    if self.write(slot, block) && fanout.observed[slot as usize] {
                        return true;
                    }
                }
            }
        }
        false
    }
}
