//! Fanout analysis and buffer-tree insertion.
//!
//! Printed transistors drive weakly: a net fanning out to dozens of gate
//! inputs (the root comparator of a parallel tree, a shared feature wire)
//! slews painfully. Synthesis flows repair this by inserting buffer trees
//! under a maximum-fanout constraint; this module does the same, so that
//! PPA numbers for high-fanout designs include the repair cost the paper's
//! synthesized netlists implicitly paid.

use pdk::CellKind;

use crate::ir::{Gate, Module, NetId, Signal};

/// Where a net is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reader {
    /// `gates[i].inputs[pin]`.
    GatePin(usize, usize),
    /// `roms[i].addr[pin]`.
    RomAddr(usize, usize),
    /// `outputs[i].bits[pin]`.
    OutputBit(usize, usize),
}

/// Histogram of net fanouts: `result[k]` = number of nets read exactly `k`
/// times (index 0 counts driven-but-unread nets).
pub fn fanout_histogram(module: &Module) -> Vec<usize> {
    // Reads per net; UNSEEN marks nets nothing drives or reads.
    const UNSEEN: u32 = u32::MAX;
    let mut reads = vec![UNSEEN; module.net_count()];
    let input_bits = module.inputs.iter().flat_map(|p| p.bits.iter());
    let driven = input_bits
        .filter_map(|s| s.net())
        .chain(module.gates.iter().map(|g| g.output))
        .chain(module.roms.iter().flat_map(|r| r.data.iter().copied()));
    for n in driven {
        reads[n.index()] = 0;
    }
    let gate_pins = module.gates.iter().flat_map(|g| g.inputs.iter());
    let read = gate_pins
        .chain(module.roms.iter().flat_map(|r| r.addr.iter()))
        .chain(module.outputs.iter().flat_map(|p| p.bits.iter()));
    for n in read.filter_map(|s| s.net()) {
        let r = &mut reads[n.index()];
        *r = if *r == UNSEEN { 1 } else { *r + 1 };
    }
    let seen = || reads.iter().filter(|&&r| r != UNSEEN).map(|&r| r as usize);
    let mut hist = vec![0usize; seen().max().unwrap_or(0) + 1];
    seen().for_each(|r| hist[r] += 1);
    hist
}

/// The largest fanout of any net in the module.
pub fn max_fanout(module: &Module) -> usize {
    fanout_histogram(module).len().saturating_sub(1)
}

/// Inserts buffer trees so no net drives more than `limit` readers.
///
/// Readers of an over-driven net are chunked into groups of `limit`, each
/// behind a fresh buffer; the buffers themselves become readers of the
/// source and the process repeats until every net (including the new
/// buffer outputs) obeys the limit. Function is preserved (a buffer is
/// the identity); area, power and delay grow accordingly.
///
/// # Panics
/// Panics if `limit` is zero.
pub fn insert_buffers(module: &Module, limit: usize) -> Module {
    assert!(limit >= 1, "fanout limit must be at least 1");
    let mut m = module.clone();
    loop {
        // Readers per net, each list in gate, ROM, output-port order.
        let mut readers: Vec<Vec<Reader>> = vec![Vec::new(); m.net_count()];
        let gate_pins = m.gates.iter().enumerate().flat_map(|(i, g)| {
            let pins = g.inputs.iter().enumerate();
            pins.map(move |(pin, &s)| (Reader::GatePin(i, pin), s))
        });
        let rom_pins = m.roms.iter().enumerate().flat_map(|(i, r)| {
            let pins = r.addr.iter().enumerate();
            pins.map(move |(pin, &s)| (Reader::RomAddr(i, pin), s))
        });
        let port_pins = m.outputs.iter().enumerate().flat_map(|(i, p)| {
            let pins = p.bits.iter().enumerate();
            pins.map(move |(pin, &s)| (Reader::OutputBit(i, pin), s))
        });
        for (reader, s) in gate_pins.chain(rom_pins).chain(port_pins) {
            if let Signal::Net(n) = s {
                readers[n.index()].push(reader);
            }
        }
        // The most-read net over the limit, the lowest-numbered on a tie
        // (`max_by_key` keeps the last maximum, hence the reversal).
        let by_net = readers.into_iter().enumerate().rev();
        let worst = by_net
            .filter(|(_, list)| list.len() > limit)
            .max_by_key(|(_, list)| list.len());
        let Some((net, list)) = worst else { break };
        // Chunk readers behind fresh buffers.
        for chunk in list.chunks(limit) {
            let buf_out = NetId(m.net_count);
            m.net_count += 1;
            m.gates.push(Gate {
                kind: CellKind::Buf,
                inputs: [Signal::Net(NetId(net as u32))].into(),
                output: buf_out,
                init: false,
                region: 0,
            });
            for reader in chunk {
                let slot = match *reader {
                    Reader::GatePin(gi, pin) => &mut m.gates[gi].inputs[pin],
                    Reader::RomAddr(ri, pin) => &mut m.roms[ri].addr[pin],
                    Reader::OutputBit(pi, pin) => &mut m.outputs[pi].bits[pin],
                };
                *slot = Signal::Net(buf_out);
            }
        }
        // Loop: the buffers themselves may now exceed the limit on `net`
        // (handled next iteration by buffering the buffers).
    }
    debug_assert!(m.validate().is_ok(), "buffer insertion broke the module");
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::builder::NetlistBuilder;
    use crate::sim::Simulator;
    use pdk::{CellLibrary, Technology};

    /// One input net fanned out to `n` inverters.
    fn fan_module(n: usize) -> Module {
        let mut b = NetlistBuilder::new("fan");
        let x = b.input("x", 1);
        let outs: Vec<Signal> = (0..n).map(|_| b.not(x[0])).collect();
        b.output("o", &outs);
        b.finish()
    }

    #[test]
    fn histogram_and_max_fanout() {
        let m = fan_module(12);
        assert_eq!(max_fanout(&m), 12);
        let hist = fanout_histogram(&m);
        assert_eq!(hist[12], 1); // the input net
        assert_eq!(hist[1], 12); // each inverter output feeds one port bit
    }

    #[test]
    fn insertion_enforces_the_limit() {
        let m = fan_module(33);
        let repaired = insert_buffers(&m, 4);
        assert!(
            max_fanout(&repaired) <= 4,
            "max fanout {}",
            max_fanout(&repaired)
        );
        // 33 readers -> 9 leaf buffers -> 3 mid buffers -> 1 top... the
        // exact count depends on chunking; just require buffers exist.
        assert!(repaired.gates_of(CellKind::Buf).count() >= 9);
    }

    #[test]
    fn insertion_preserves_function() {
        let m = fan_module(20);
        let repaired = insert_buffers(&m, 3);
        let mut s0 = Simulator::new(&m);
        let mut s1 = Simulator::new(&repaired);
        for v in 0..2u64 {
            s0.set("x", v);
            s1.set("x", v);
            s0.settle();
            s1.settle();
            assert_eq!(s0.get("o"), s1.get("o"), "v={v}");
        }
    }

    #[test]
    fn insertion_costs_area_and_delay() {
        let lib = CellLibrary::for_technology(Technology::Egt);
        let m = fan_module(30);
        let repaired = insert_buffers(&m, 4);
        let before = analyze(&m, &lib);
        let after = analyze(&repaired, &lib);
        assert!(after.area > before.area);
        assert!(after.delay > before.delay);
    }

    #[test]
    fn compliant_modules_are_untouched() {
        let m = fan_module(3);
        let repaired = insert_buffers(&m, 4);
        assert_eq!(m.gate_count(), repaired.gate_count());
    }

    #[test]
    fn sequential_nets_are_buffered_too() {
        let mut b = NetlistBuilder::new("seqfan");
        let x = b.input("x", 1);
        let q = b.dff(x[0], false);
        let outs: Vec<Signal> = (0..10).map(|_| b.not(q)).collect();
        b.output("o", &outs);
        let m = b.finish();
        let repaired = insert_buffers(&m, 2);
        assert!(max_fanout(&repaired) <= 2);
        // Behaviour across a clock edge is preserved.
        let mut s0 = Simulator::new(&m);
        let mut s1 = Simulator::new(&repaired);
        s0.set("x", 1);
        s1.set("x", 1);
        s0.step();
        s1.step();
        s0.settle();
        s1.settle();
        assert_eq!(s0.get("o"), s1.get("o"));
    }
}
