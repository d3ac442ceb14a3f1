//! Greedy reproducer minimization.
//!
//! When an oracle reports a mismatch, the raw reproducer is a 40-gate
//! random soup — correct but useless to a human. The shrinker walks the
//! structure removing one element at a time (a gate, a ROM, an output
//! port), re-running the failing oracle after
//! every candidate edit and keeping the edit only if the mismatch
//! survives. The result is a local minimum: removing any single
//! remaining element makes the bug disappear.
//!
//! The predicate is the *oracle*, not a recorded value comparison, so a
//! shrunk case fails for the same reason the original did.

use netlist::{Module, NetId, Signal};

/// Hard cap on candidate evaluations per shrink, so shrinking a slow
/// oracle can never dominate a fuzzing run.
const MAX_CANDIDATES: usize = 400;

/// Replaces every *reader* of `net` with a constant-zero signal: gate
/// inputs, ROM address bits and output port bits. The driver itself is
/// expected to be removed by the caller.
fn retarget_readers(m: &mut Module, net: NetId) {
    let subst = |s: &mut Signal| {
        if *s == Signal::Net(net) {
            *s = Signal::Const(false);
        }
    };
    for g in &mut m.gates {
        g.inputs.iter_mut().for_each(subst);
    }
    for r in &mut m.roms {
        r.addr.iter_mut().for_each(subst);
    }
    for p in &mut m.outputs {
        p.bits.iter_mut().for_each(subst);
    }
}

/// One candidate with gate `index` deleted; its output net reads as 0.
fn without_gate(m: &Module, index: usize) -> Module {
    let mut c = m.clone();
    let net = c.gates.remove(index).output;
    retarget_readers(&mut c, net);
    c
}

/// One candidate with ROM `index` deleted; its data nets read as 0.
fn without_rom(m: &Module, index: usize) -> Module {
    let mut c = m.clone();
    let rom = c.roms.remove(index);
    for net in rom.data {
        retarget_readers(&mut c, net);
    }
    c
}

/// Greedily minimizes a failing module under `still_fails` (true means
/// the oracle still reports the mismatch). Returns the smallest module
/// reached within the candidate budget.
pub fn shrink_module(module: &Module, still_fails: &dyn Fn(&Module) -> bool) -> Module {
    let mut best = module.clone();
    let mut tried = 0usize;
    let mut progress = true;
    while progress && tried < MAX_CANDIDATES {
        progress = false;
        // Gates last-to-first: later gates are more likely to be pure
        // fan-out that dies without invalidating earlier structure.
        for gi in (0..best.gates.len()).rev() {
            if tried >= MAX_CANDIDATES {
                break;
            }
            tried += 1;
            let candidate = without_gate(&best, gi);
            if candidate.validate().is_ok() && still_fails(&candidate) {
                best = candidate;
                progress = true;
            }
        }
        for ri in (0..best.roms.len()).rev() {
            if tried >= MAX_CANDIDATES {
                break;
            }
            tried += 1;
            let candidate = without_rom(&best, ri);
            if candidate.validate().is_ok() && still_fails(&candidate) {
                best = candidate;
                progress = true;
            }
        }
        // Drop whole output ports while more than one remains.
        while best.outputs.len() > 1 && tried < MAX_CANDIDATES {
            tried += 1;
            let mut candidate = best.clone();
            candidate.outputs.pop();
            if candidate.validate().is_ok() && still_fails(&candidate) {
                best = candidate;
                progress = true;
            } else {
                break;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn shrinking_a_gate_predicate_reaches_a_local_minimum() {
        // Predicate: "module still contains an XOR gate". The shrinker
        // must strip everything else and keep exactly the load-bearing
        // structure.
        let m = gen::random_module(7);
        let has_xor = |m: &Module| m.gates.iter().any(|g| g.kind == pdk::CellKind::Xor2);
        if !has_xor(&m) {
            return; // seed draws no XOR; nothing to shrink against
        }
        let shrunk = shrink_module(&m, &has_xor);
        assert!(has_xor(&shrunk), "shrinker lost the failing property");
        assert!(shrunk.gates.len() <= m.gates.len());
        // Local minimum: removing any remaining gate kills the property
        // or validity.
        for gi in 0..shrunk.gates.len() {
            let c = without_gate(&shrunk, gi);
            assert!(
                c.validate().is_err() || !has_xor(&c),
                "shrinker stopped early: gate {gi} was removable"
            );
        }
    }

    #[test]
    fn shrunk_modules_stay_valid() {
        for seed in 0..10u64 {
            let m = gen::random_module(seed);
            let always = |_: &Module| true;
            let shrunk = shrink_module(&m, &always);
            assert!(shrunk.validate().is_ok(), "seed {seed}");
            assert!(
                shrunk.gates.is_empty(),
                "seed {seed}: greedy pass incomplete"
            );
        }
    }
}
