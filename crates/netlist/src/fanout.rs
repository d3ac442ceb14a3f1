//! Fanout analysis and buffer-tree insertion.
//!
//! Printed transistors drive weakly: a net fanning out to dozens of gate
//! inputs (the root comparator of a parallel tree, a shared feature wire)
//! slews painfully. Synthesis flows repair this by inserting buffer trees
//! under a maximum-fanout constraint; this module does the same, so that
//! PPA numbers for high-fanout designs include the repair cost the paper's
//! synthesized netlists implicitly paid.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
/// source, which is repaired again while it still has too many. Nets are
/// repaired most-read first, the lowest-numbered on a tie, until every
/// net (including the new buffer outputs) obeys the limit. Function is
/// preserved (a buffer is the identity); area, power and delay grow
/// accordingly.
///
/// The reader index is built once: buffering a net moves its readers to
/// the new buffer outputs and touches no other net's readers, so the
/// repair runs in one pass over a max-heap of over-limit nets.
///
/// # Panics
/// Panics if `limit` is below 2: a net with `k >= 2` readers behind
/// single-reader buffers has `k` readers again, so no repair exists.
pub fn insert_buffers(module: &Module, limit: usize) -> Module {
    assert!(limit >= 2, "fanout limit must be at least 2");
    let mut m = module.clone();
    let mut readers = reader_index(&m);
    // Over-limit nets, most-read first, the lowest-numbered on a tie.
    let mut over: BinaryHeap<(usize, Reverse<usize>)> = readers
        .iter()
        .enumerate()
        .filter(|(_, list)| list.len() > limit)
        .map(|(net, list)| (list.len(), Reverse(net)))
        .collect();
    while let Some((_, Reverse(net))) = over.pop() {
        let list = std::mem::take(&mut readers[net]);
        for chunk in list.chunks(limit) {
            let buf_out = NetId(m.net_count);
            m.net_count += 1;
            readers[net].push(Reader::GatePin(m.gates.len(), 0));
            m.gates.push(Gate {
                kind: CellKind::Buf,
                inputs: [Signal::Net(NetId(net as u32))].into(),
                output: buf_out,
                init: false,
                region: 0,
            });
            // The buffer's output has at most `limit` readers, so it is
            // never queued and needs no index entry.
            for &reader in chunk {
                *pin_slot(&mut m, reader) = Signal::Net(buf_out);
            }
        }
        // The buffers themselves may still exceed the limit on `net`.
        if readers[net].len() > limit {
            over.push((readers[net].len(), Reverse(net)));
        }
    }
    debug_assert!(m.validate().is_ok(), "buffer insertion broke the module");
    m
}

/// Readers per net, each list in gate, ROM, output-port order.
fn reader_index(m: &Module) -> Vec<Vec<Reader>> {
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
    readers
}

/// The input slot `reader` names.
fn pin_slot(m: &mut Module, reader: Reader) -> &mut Signal {
    match reader {
        Reader::GatePin(gi, pin) => &mut m.gates[gi].inputs[pin],
        Reader::RomAddr(ri, pin) => &mut m.roms[ri].addr[pin],
        Reader::OutputBit(pi, pin) => &mut m.outputs[pi].bits[pin],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::builder::NetlistBuilder;
    use crate::sim::Simulator;
    use exec::rng::StdRng;
    use pdk::rom::RomStyle;
    use pdk::{CellLibrary, Technology};

    /// The repair as one round per buffered net, each rebuilding the
    /// whole reader index: the loop [`insert_buffers`] replaced, kept as
    /// its oracle.
    fn reference_insert_buffers(module: &Module, limit: usize) -> Module {
        let mut m = module.clone();
        loop {
            // The most-read net over the limit, the lowest-numbered on a
            // tie (`max_by_key` keeps the last maximum, hence the
            // reversal).
            let by_net = reader_index(&m).into_iter().enumerate().rev();
            let worst = by_net
                .filter(|(_, list)| list.len() > limit)
                .max_by_key(|(_, list)| list.len());
            let Some((net, list)) = worst else { break };
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
                for &reader in chunk {
                    *pin_slot(&mut m, reader) = Signal::Net(buf_out);
                }
            }
        }
        m
    }

    /// A random module whose nets fan out widely: gates read any earlier
    /// signal, often one net on several pins; a ROM's address pins and
    /// the output-port bits read shared nets too.
    fn random_module(seed: u64) -> Module {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = NetlistBuilder::new("random");
        let mut pool = b.input("x", 3);
        let kinds = [
            CellKind::Inv,
            CellKind::Nand2,
            CellKind::Xor2,
            CellKind::Mux2,
        ];
        for _ in 0..rng.gen_range(4..40usize) {
            let kind = kinds[rng.gen_range(0..kinds.len())];
            // Half the pins read one of the three inputs, so those fan
            // out widely; the rest read one of the newest few signals,
            // so some nets are read twice by one gate.
            let inputs: Vec<Signal> = (0..kind.input_count())
                .map(|_| match rng.gen_bool(0.5) {
                    true => pool[rng.gen_range(0..3usize)],
                    false => pool[pool.len() - 1 - rng.gen_range(0..pool.len().min(4))],
                })
                .collect();
            pool.push(b.gate(kind, &inputs));
        }
        let pick = |rng: &mut StdRng| pool[rng.gen_range(0..pool.len())];
        let addr: Vec<Signal> = (0..2).map(|_| pick(&mut rng)).collect();
        let data = b.rom(&addr, vec![1, 2, 3, 0], 2, RomStyle::Crossbar);
        let mut bits: Vec<Signal> = (0..rng.gen_range(1..12usize))
            .map(|_| pick(&mut rng))
            .collect();
        bits.extend(data);
        b.output("o", &bits);
        b.finish()
    }

    #[test]
    fn one_pass_repair_matches_the_round_by_round_loop() {
        let modules: Vec<Module> = (0..64).map(random_module).collect();
        for limit in 2..=8 {
            let mut repaired = 0;
            for (seed, m) in modules.iter().enumerate() {
                let got = insert_buffers(m, limit);
                assert_eq!(
                    got,
                    reference_insert_buffers(m, limit),
                    "seed {seed}, limit {limit}"
                );
                repaired += usize::from(got.gate_count() > m.gate_count());
            }
            // Past the limit often enough to be a test at every limit.
            assert!(
                repaired >= 8,
                "limit {limit}: only {repaired} modules repaired"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn a_limit_of_one_is_rejected() {
        // Buffering k >= 2 readers one per buffer leaves the net with k
        // readers again, so limit 1 has no repair.
        let _ = insert_buffers(&fan_module(2), 1);
    }

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
            let want = s0.try_apply(&[v], 0).unwrap();
            assert_eq!(s1.try_apply(&[v], 0), Ok(want), "v={v}");
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
        let want = s0.try_apply(&[1], 1).unwrap();
        assert_eq!(s1.try_apply(&[1], 1), Ok(want));
    }
}
