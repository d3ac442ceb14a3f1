//! Arithmetic generators: adders, subtractors, multipliers, MACs, ReLU.
//!
//! The paper's cost analysis reduces every classifier to two dominant
//! operations — comparisons and two-input multiply-accumulates — and prices
//! them from synthesized RTL (Table I). These generators produce the same
//! micro-architectures: ripple-carry adders and array multipliers, the
//! minimal-area choices a printed technology forces.

use crate::builder::NetlistBuilder;
use crate::ir::Signal;

/// Full adder: returns (sum, carry).
pub fn full_adder(b: &mut NetlistBuilder, a: Signal, bb: Signal, cin: Signal) -> (Signal, Signal) {
    let s1 = b.xor(a, bb);
    let sum = b.xor(s1, cin);
    let c1 = b.and(a, bb);
    let c2 = b.and(s1, cin);
    (sum, b.or(c1, c2))
}

/// Ripple-carry addition of two unsigned words; result is one bit wider
/// than the wider operand (no overflow possible).
pub fn add(b: &mut NetlistBuilder, a: &[Signal], bb: &[Signal]) -> Vec<Signal> {
    let width = a.len().max(bb.len());
    let mut out = Vec::with_capacity(width + 1);
    let mut carry = Signal::ZERO;
    for i in 0..width {
        let x = a.get(i).copied().unwrap_or(Signal::ZERO);
        let y = bb.get(i).copied().unwrap_or(Signal::ZERO);
        let (s, c) = full_adder(b, x, y, carry);
        out.push(s);
        carry = c;
    }
    out.push(carry);
    out
}

/// Ripple-carry subtraction `a - b` in two's complement, both operands
/// treated as `width`-bit; returns (`width`-bit result, borrow-free flag).
///
/// The second element is high when `a >= b` (no borrow) — handy for
/// threshold comparisons implemented subtractively.
pub fn sub(b: &mut NetlistBuilder, a: &[Signal], bb: &[Signal]) -> (Vec<Signal>, Signal) {
    assert_eq!(a.len(), bb.len(), "subtractor width mismatch");
    let mut out = Vec::with_capacity(a.len());
    let mut carry = Signal::ONE; // +1 of the two's complement
    for (&x, &y) in a.iter().zip(bb) {
        let ny = b.not(y);
        let (s, c) = full_adder(b, x, ny, carry);
        out.push(s);
        carry = c;
    }
    (out, carry)
}

/// Unsigned array multiplier; result width is `a.len() + b.len()`.
///
/// Classic AND-plane plus ripple reduction rows — the structure behind the
/// paper's "an EGT MAC requires 7.5× more area … than a comparison".
pub fn multiply(b: &mut NetlistBuilder, a: &[Signal], bb: &[Signal]) -> Vec<Signal> {
    assert!(
        !a.is_empty() && !bb.is_empty(),
        "multiplier over empty words"
    );
    // Partial products row by row, accumulated with ripple adders.
    let mut acc: Vec<Signal> = a.iter().map(|&ai| b.and(ai, bb[0])).collect();
    let mut out = Vec::with_capacity(a.len() + bb.len());
    for (row, &bi) in bb.iter().enumerate().skip(1) {
        let pp: Vec<Signal> = a.iter().map(|&ai| b.and(ai, bi)).collect();
        // acc currently holds bits [row-1 ..]; its LSB is final.
        out.push(acc[0]);
        let high: Vec<Signal> = acc[1..].to_vec();
        let sum = add(b, &high, &pp);
        acc = sum;
        let _ = row;
    }
    out.extend(acc);
    out.truncate(a.len() + bb.len());
    out
}

/// Multiply-accumulate: `acc + a * b`, the SVM/MLP kernel operation.
/// Result is wide enough to never overflow.
pub fn mac(b: &mut NetlistBuilder, a: &[Signal], bb: &[Signal], acc: &[Signal]) -> Vec<Signal> {
    let product = multiply(b, a, bb);
    add(b, &product, acc)
}

/// Constant multiplication `x * k` by shift-and-add over the canonical
/// signed-digit (CSD) recoding of `k`.
///
/// This is what a synthesis tool reduces a multiplier to once one operand
/// is hardwired — the key saving of bespoke SVMs. Negative CSD digits are
/// realized subtractively. The result is interpreted as an unsigned word of
/// width `x.len() + ceil(log2(k+1))` (k must be ≥ 0; signs of trained
/// coefficients are handled by the caller's accumulation structure).
pub fn const_multiply(b: &mut NetlistBuilder, x: &[Signal], k: u64) -> Vec<Signal> {
    let out_width = x.len() + (64 - k.leading_zeros() as usize).max(1);
    if k == 0 {
        return b.const_word(0, out_width);
    }
    let digits = csd_digits(k);
    let mut acc: Option<Vec<Signal>> = None;
    let mut acc_negated_terms: Vec<Vec<Signal>> = Vec::new();
    for (shift, digit) in digits.into_iter().enumerate() {
        if digit == 0 {
            continue;
        }
        let shifted = shift_left(b, x, shift, out_width);
        if digit > 0 {
            acc = Some(match acc {
                None => shifted,
                Some(prev) => {
                    let mut s = add(b, &prev, &shifted);
                    s.truncate(out_width);
                    s
                }
            });
        } else {
            acc_negated_terms.push(shifted);
        }
    }
    let mut result = acc.unwrap_or_else(|| b.const_word(0, out_width));
    for term in acc_negated_terms {
        result.resize(out_width, Signal::ZERO);
        let t: Vec<Signal> = {
            let mut t = term;
            t.resize(out_width, Signal::ZERO);
            t
        };
        let (diff, _) = sub(b, &result, &t);
        result = diff;
    }
    result.resize(out_width, Signal::ZERO);
    result
}

/// Canonical signed-digit recoding of `k`: digits in {-1, 0, +1}, LSB first,
/// with no two adjacent non-zero digits.
pub fn csd_digits(k: u64) -> Vec<i8> {
    let mut digits = Vec::new();
    let mut value = k as u128;
    while value != 0 {
        if value & 1 == 1 {
            // Choose +1 or -1 so the remaining value is divisible by 4 when
            // possible (standard CSD rule: look at the next bit).
            let digit: i8 = if value & 2 == 2 { -1 } else { 1 };
            digits.push(digit);
            if digit == 1 {
                value -= 1;
            } else {
                value += 1;
            }
        } else {
            digits.push(0);
        }
        value >>= 1;
    }
    digits
}

/// Left-shift by a constant: wiring only, zero hardware.
fn shift_left(b: &mut NetlistBuilder, x: &[Signal], shift: usize, width: usize) -> Vec<Signal> {
    let mut out = b.const_word(0, width.min(shift));
    out.extend(x.iter().copied());
    out.truncate(width);
    out.resize(width, Signal::ZERO);
    out
}

/// Rectified linear unit over a two's-complement word: `max(x, 0)`.
///
/// Implemented as sign-gated AND per bit (output is zero when the sign bit
/// is set) — the third component priced in Table I.
pub fn relu(b: &mut NetlistBuilder, x: &[Signal]) -> Vec<Signal> {
    let sign = *x.last().expect("relu over empty word");
    let pass = b.not(sign);
    x.iter().map(|&bit| b.and(bit, pass)).collect()
}

/// Balanced adder tree summing many unsigned words (the SVM dot-product
/// reduction). Result is wide enough to hold the full sum.
pub fn adder_tree(b: &mut NetlistBuilder, words: &[Vec<Signal>]) -> Vec<Signal> {
    assert!(!words.is_empty(), "adder tree over no words");
    let mut layer: Vec<Vec<Signal>> = words.to_vec();
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for pair in layer.chunks(2) {
            if pair.len() == 2 {
                next.push(add(b, &pair[0], &pair[1]));
            } else {
                next.push(pair[0].clone());
            }
        }
        layer = next;
    }
    layer.pop().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;

    #[test]
    fn add_exhaustive_4bit() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a", 4);
        let bb = b.input("b", 4);
        let s = add(&mut b, &a, &bb);
        b.output("s", &s);
        let m = b.finish();
        let mut sim = Simulator::new(&m);
        for x in 0..16u64 {
            for y in 0..16u64 {
                assert_eq!(sim.try_apply(&[x, y], 0), Ok(vec![x + y]));
            }
        }
    }

    #[test]
    fn sub_exhaustive_4bit() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a", 4);
        let bb = b.input("b", 4);
        let (d, no_borrow) = sub(&mut b, &a, &bb);
        b.output("d", &d);
        b.output("nb", &[no_borrow]);
        let m = b.finish();
        let mut sim = Simulator::new(&m);
        for x in 0..16u64 {
            for y in 0..16u64 {
                let want = vec![x.wrapping_sub(y) & 0xF, (x >= y) as u64];
                assert_eq!(sim.try_apply(&[x, y], 0), Ok(want));
            }
        }
    }

    #[test]
    fn multiply_exhaustive_4x4() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a", 4);
        let bb = b.input("b", 4);
        let p = multiply(&mut b, &a, &bb);
        assert_eq!(p.len(), 8);
        b.output("p", &p);
        let m = b.finish();
        let mut sim = Simulator::new(&m);
        for x in 0..16u64 {
            for y in 0..16u64 {
                assert_eq!(sim.try_apply(&[x, y], 0), Ok(vec![x * y]), "{x}*{y}");
            }
        }
    }

    #[test]
    fn mac_matches_reference() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a", 3);
        let bb = b.input("b", 3);
        let acc = b.input("acc", 6);
        let out = mac(&mut b, &a, &bb, &acc);
        b.output("o", &out);
        let m = b.finish();
        let mut sim = Simulator::new(&m);
        for x in 0..8u64 {
            for y in 0..8u64 {
                for z in (0..64u64).step_by(7) {
                    assert_eq!(sim.try_apply(&[x, y, z], 0), Ok(vec![x * y + z]));
                }
            }
        }
    }

    #[test]
    fn csd_recoding_reconstructs_value() {
        for k in [1u64, 2, 3, 7, 15, 23, 102, 255, 1023, 0xdead] {
            let digits = csd_digits(k);
            let mut v: i128 = 0;
            for (i, d) in digits.iter().enumerate() {
                v += (*d as i128) << i;
            }
            assert_eq!(v, k as i128, "k={k}");
            // CSD property: no adjacent non-zeros.
            for w in digits.windows(2) {
                assert!(w[0] == 0 || w[1] == 0, "k={k} digits={digits:?}");
            }
        }
    }

    #[test]
    fn const_multiply_matches_for_many_constants() {
        for k in [0u64, 1, 2, 3, 5, 7, 12, 100, 102, 255] {
            let mut b = NetlistBuilder::new("t");
            let x = b.input("x", 6);
            let p = const_multiply(&mut b, &x, k);
            b.output("p", &p);
            let m = b.finish();
            let mut sim = Simulator::new(&m);
            let mask = (1u64 << p.len().min(63)) - 1;
            for v in 0..64u64 {
                let want = Ok(vec![(v * k) & mask]);
                assert_eq!(sim.try_apply(&[v], 0), want, "k={k} v={v}");
            }
        }
    }

    #[test]
    fn csd_multiplier_is_cheaper_than_array_multiplier() {
        // The bespoke-SVM saving in a nutshell: once the coefficient is a
        // constant, synthesis (our optimizer) folds the shift-add structure
        // down to a fraction of the array multiplier.
        use crate::opt::optimize;
        let array = {
            let mut b = NetlistBuilder::new("t");
            let x = b.input("x", 8);
            let y = b.input("y", 8);
            let p = multiply(&mut b, &x, &y);
            b.output("p", &p);
            optimize(&b.finish()).gate_count()
        };
        let constant = {
            let mut b = NetlistBuilder::new("t");
            let x = b.input("x", 8);
            let p = const_multiply(&mut b, &x, 102);
            b.output("p", &p);
            optimize(&b.finish()).gate_count()
        };
        assert!(constant * 2 < array, "array={array} const={constant}");
    }

    #[test]
    fn relu_clamps_negative_values() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x", 4);
        let y = relu(&mut b, &x);
        b.output("y", &y);
        let m = b.finish();
        let mut sim = Simulator::new(&m);
        for v in 0..16u64 {
            let expect = if v >= 8 { 0 } else { v }; // MSB = sign
            assert_eq!(sim.try_apply(&[v], 0), Ok(vec![expect]));
        }
    }

    #[test]
    fn adder_tree_sums_many_words() {
        let mut b = NetlistBuilder::new("t");
        let words: Vec<Vec<_>> = (0..5).map(|i| b.input(format!("w{i}"), 4)).collect();
        let s = adder_tree(&mut b, &words);
        b.output("s", &s);
        let m = b.finish();
        let mut sim = Simulator::new(&m);
        let vals = [3u64, 15, 7, 9, 12];
        assert_eq!(sim.try_apply(&vals, 0), Ok(vec![vals.iter().sum()]));
    }
}
