//! Sequential building blocks.
//!
//! The serial decision tree (§III-A.1) tracks its working node in a shift
//! register seeded with 1; each cycle the current comparison result is
//! shifted into the LSB. [`shift_register`] builds that structure.

use crate::builder::NetlistBuilder;
use crate::ir::Signal;

/// A shift register of `len` bits that shifts `d` in at the LSB each cycle.
///
/// `init` provides the little-endian power-on contents (the serial tree
/// seeds it with `1`); stages past bit 63 power on clear. Returns the Q
/// bits, LSB first.
pub fn shift_register(b: &mut NetlistBuilder, d: Signal, len: usize, init: u64) -> Vec<Signal> {
    assert!(len >= 1, "shift register needs at least one stage");
    let mut qs = Vec::with_capacity(len);
    let mut input = d;
    for i in 0..len {
        let q = b.dff(input, i < 64 && (init >> i) & 1 == 1);
        qs.push(q);
        input = q;
    }
    qs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;

    #[test]
    fn stages_past_the_init_word_power_on_clear() {
        let mut b = NetlistBuilder::new("t");
        let q = shift_register(&mut b, Signal::ZERO, 130, 1);
        b.output("q", &q);
        let m = b.finish();
        let init: Vec<bool> = m.gates.iter().map(|g| g.init).collect();
        assert_eq!(init.len(), 130);
        assert_eq!(init.iter().filter(|&&v| v).count(), 1);
        assert!(init[0]);
    }

    #[test]
    fn shift_register_walks() {
        let mut b = NetlistBuilder::new("t");
        let d = b.input("d", 1);
        let q = shift_register(&mut b, d[0], 4, 0b0001);
        b.output("q", &q);
        let m = b.finish();
        let mut sim = Simulator::new(&m);
        sim.set("d", 1);
        sim.settle();
        assert_eq!(sim.get("q"), 0b0001);
        sim.step();
        sim.settle();
        assert_eq!(sim.get("q"), 0b0011); // 1 shifted in, old bits moved up
        sim.set("d", 0);
        sim.step();
        sim.settle();
        assert_eq!(sim.get("q"), 0b0110);
    }
}
