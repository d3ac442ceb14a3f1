//! Combinational building blocks: magnitude comparators and word equality.
//!
//! The magnitude comparator here is the per-node decision element of every
//! digital decision tree in the paper.

use crate::builder::NetlistBuilder;
use crate::ir::Signal;

/// Unsigned ripple magnitude comparator: returns `a > b`.
///
/// Built LSB-first: `gt_i = (a_i & !b_i) | (a_i ⊙ b_i) & gt_{i-1}`, one
/// XNOR + AND/OR pair per bit — the canonical minimal-area form a
/// technology-constrained synthesis run produces.
///
/// # Panics
/// Panics if the operands differ in width or are empty.
pub fn unsigned_gt(b: &mut NetlistBuilder, a: &[Signal], bb: &[Signal]) -> Signal {
    assert_eq!(a.len(), bb.len(), "comparator width mismatch");
    assert!(!a.is_empty(), "comparator over empty words");
    let mut gt = Signal::ZERO;
    for (&ai, &bi) in a.iter().zip(bb) {
        let nb = b.not(bi);
        let here = b.and(ai, nb);
        let eq = b.xnor(ai, bi);
        let carry = b.and(eq, gt);
        gt = b.or(here, carry);
    }
    gt
}

/// Unsigned comparator: returns `a <= b` (the decision-tree branch test
/// `x_k <= τ_j`).
pub fn unsigned_le(b: &mut NetlistBuilder, a: &[Signal], bb: &[Signal]) -> Signal {
    let gt = unsigned_gt(b, a, bb);
    b.not(gt)
}

/// Word equality: `a == b`.
pub fn equals(b: &mut NetlistBuilder, a: &[Signal], bb: &[Signal]) -> Signal {
    assert_eq!(a.len(), bb.len(), "equality width mismatch");
    let bits: Vec<Signal> = a.iter().zip(bb).map(|(&x, &y)| b.xnor(x, y)).collect();
    b.and_reduce(&bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;

    fn check2<F>(width: usize, build: F, expect: impl Fn(u64, u64) -> u64)
    where
        F: Fn(&mut NetlistBuilder, &[Signal], &[Signal]) -> Signal,
    {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a", width);
        let bb = b.input("b", width);
        let out = build(&mut b, &a, &bb);
        b.output("o", &[out]);
        let m = b.finish();
        let mut sim = Simulator::new(&m);
        for x in 0..(1u64 << width) {
            for y in 0..(1u64 << width) {
                let want = Ok(vec![expect(x, y)]);
                assert_eq!(sim.try_apply(&[x, y], 0), want, "x={x} y={y}");
            }
        }
    }

    #[test]
    fn gt_le_exhaustive_4bit() {
        check2(4, unsigned_gt, |x, y| (x > y) as u64);
        check2(4, unsigned_le, |x, y| (x <= y) as u64);
    }

    #[test]
    fn equality_exhaustive_3bit() {
        check2(3, equals, |x, y| (x == y) as u64);
    }

    #[test]
    fn comparator_gate_count_is_linear() {
        let count = |w: usize| {
            let mut b = NetlistBuilder::new("t");
            let a = b.input("a", w);
            let bb = b.input("b", w);
            let o = unsigned_gt(&mut b, &a, &bb);
            b.output("o", &[o]);
            b.finish().gate_count()
        };
        assert_eq!(count(8) - count(4), count(12) - count(8));
    }
}
