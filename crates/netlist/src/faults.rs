//! Stuck-at fault analysis.
//!
//! §VI notes that replacing digital logic with analog circuits
//! "introduces additional verification and test challenges"; for the
//! *digital* printed classifiers the standard manufacturing-test question
//! applies directly: given a set of test vectors, what fraction of
//! stuck-at faults do they detect? Printed circuits are tested right on
//! the printer's output tray, so cheap high-coverage vector sets matter.
//!
//! The model is classic single-stuck-at: one gate output (or module
//! input bit) is forced to 0 or 1, and a fault is *detected* by a vector
//! if any output port differs from the fault-free response.

use std::collections::HashMap;
use std::sync::Arc;

use crate::compile::{record_settles, CompiledNetlist, WideSim};
use crate::error::SimError;
use crate::ir::{Module, NetId, Signal};

/// Lane width of the fault-grading shards.
const FAULT_W: usize = 4;

/// One single-stuck-at fault site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// The net forced to a constant.
    pub net: NetId,
    /// The value it is stuck at.
    pub stuck_at: bool,
}

/// Result of a fault-coverage run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCoverage {
    /// Total fault sites considered (2 per driven net).
    pub total: usize,
    /// Faults detected by at least one vector.
    pub detected: usize,
    /// Undetected faults (possibly redundant logic or insufficient
    /// vectors).
    pub undetected: Vec<Fault>,
}

impl FaultCoverage {
    /// Detected / total, in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.detected as f64 / self.total as f64
        }
    }
}

/// All fault sites of a module: every gate output and ROM data net, plus
/// every input port bit, each stuck at 0 and at 1.
pub fn fault_sites(module: &Module) -> Vec<Fault> {
    let mut nets: Vec<NetId> = Vec::new();
    for port in &module.inputs {
        for bit in &port.bits {
            if let Signal::Net(n) = bit {
                nets.push(*n);
            }
        }
    }
    for g in &module.gates {
        nets.push(g.output);
    }
    for r in &module.roms {
        nets.extend(r.data.iter().copied());
    }
    nets.iter()
        .flat_map(|&net| {
            [
                Fault {
                    net,
                    stuck_at: false,
                },
                Fault {
                    net,
                    stuck_at: true,
                },
            ]
        })
        .collect()
}

/// Builds a copy of `module` with `fault` injected: the faulty net's
/// driver still exists but every *reader* (gate inputs, ROM addresses,
/// output ports) sees the stuck constant.
///
/// This is the *reference* injection semantics. The production grading
/// path ([`coverage`]) never clones: it pins the stuck net's lane word in
/// place via [`crate::compile::WideSim::inject_fault`], which the
/// compiled-kernel tests check against this function site-by-site.
pub fn inject(module: &Module, fault: Fault) -> Module {
    let mut m = module.clone();
    let stuck = Signal::Const(fault.stuck_at);
    let subst: HashMap<NetId, Signal> = [(fault.net, stuck)].into_iter().collect();
    let resolve = |s: &mut Signal| {
        if let Signal::Net(n) = s {
            if let Some(&r) = subst.get(n) {
                *s = r;
            }
        }
    };
    for g in &mut m.gates {
        for s in &mut g.inputs {
            resolve(s);
        }
    }
    for r in &mut m.roms {
        for s in &mut r.addr {
            resolve(s);
        }
    }
    for p in &mut m.outputs {
        for s in &mut p.bits {
            resolve(s);
        }
    }
    m
}

/// Fault sites per [`exec::parallel_map`] work item. Fixed (rather than
/// derived from the thread count) so the shard boundaries — and therefore
/// any behavior that could leak through them — are identical at every
/// thread count.
const SITES_PER_SHARD: usize = 32;

/// Measures single-stuck-at coverage of `vectors` over a *combinational*
/// module. Each vector lists one value per input port, in port order.
///
/// Runs on the compiled wide-lane kernel ([`WideSim`]`<4>` over one
/// shared [`CompiledNetlist`]), so each fault is exercised against 256
/// vectors per settle pass — the standard parallel-pattern fault
/// simulation arrangement — and faults are injected *in place* (a
/// lane-word pin on the stuck net's slot via [`WideSim::inject_fault`])
/// instead of cloning and re-compiling the module per site. Detected
/// faults are dropped: a fault stops simulating at its first detecting
/// vector chunk (detection verdicts are chunk-width independent — a
/// fault is detected iff *any* vector distinguishes it). Fault sites are
/// sharded across the [`exec`] thread pool in fixed-size blocks (one
/// evaluator per shard over the shared tape) and the verdict list is
/// reassembled in site order, so the report does not depend on the
/// thread count.
///
/// # Panics
/// Panics if the module is sequential (run the vectors through your own
/// clocking harness instead) or a vector's arity is wrong. Use
/// [`try_coverage`] to handle those as errors.
pub fn coverage(module: &Module, vectors: &[Vec<u64>]) -> FaultCoverage {
    match try_coverage(module, vectors) {
        Ok(c) => c,
        Err(e) => e.raise(),
    }
}

/// Fallible [`coverage`]: reports sequential/invalid modules,
/// combinational cycles and vector-arity mismatches as [`SimError`].
pub fn try_coverage(module: &Module, vectors: &[Vec<u64>]) -> Result<FaultCoverage, SimError> {
    let _span = obs::span("netlist.faults.coverage");
    if !module.is_combinational() {
        return Err(SimError::Sequential {
            module: module.name.clone(),
        });
    }
    for (i, v) in vectors.iter().enumerate() {
        if v.len() != module.inputs.len() {
            return Err(SimError::VectorArity {
                index: i,
                got: v.len(),
                want: module.inputs.len(),
            });
        }
    }
    // Compile once; every shard below replays the same shared tape.
    let compiled = Arc::new(CompiledNetlist::try_compile(module)?);
    // Pack every ≤256-vector chunk once and record the fault-free
    // response image; each fault replays the same images.
    let mut sim: WideSim<FAULT_W> = WideSim::new(Arc::clone(&compiled));
    let chunks: Vec<(Vec<[u64; FAULT_W]>, usize)> = vectors
        .chunks(WideSim::<FAULT_W>::LANES)
        .map(|c| (sim.pack_vectors(c), c.len()))
        .collect();
    let good: Vec<Vec<u64>> = chunks
        .iter()
        .map(|(image, lanes)| {
            sim.load_packed(image);
            sim.settle();
            sim.output_words(*lanes)
        })
        .collect();
    record_settles(chunks.len() as u64, vectors.len() as u64);

    let sites = fault_sites(module);
    let shards: Vec<&[Fault]> = sites.chunks(SITES_PER_SHARD).collect();
    let verdicts: Vec<Vec<bool>> = exec::parallel_map(&shards, |_, shard| {
        let mut sim: WideSim<FAULT_W> = WideSim::new(Arc::clone(&compiled));
        let mut settles = 0u64;
        let mut lane_vectors = 0u64;
        let out: Vec<bool> = shard
            .iter()
            .map(|&fault| {
                sim.inject_fault(fault.net, fault.stuck_at);
                // Fault dropping: `any` stops at the first detecting chunk.
                chunks.iter().zip(&good).any(|((image, lanes), expected)| {
                    sim.load_packed(image);
                    sim.settle();
                    settles += 1;
                    lane_vectors += *lanes as u64;
                    !sim.outputs_match(expected, *lanes)
                })
            })
            .collect();
        record_settles(settles, lane_vectors);
        out
    });
    let verdicts: Vec<bool> = verdicts.concat();
    let detected = verdicts.iter().filter(|&&d| d).count();
    obs::counter_add("netlist.faults.sites", sites.len() as u64);
    obs::counter_add("netlist.faults.detected", detected as u64);
    obs::counter_add("netlist.faults.vectors", vectors.len() as u64);
    let undetected = sites
        .iter()
        .zip(&verdicts)
        .filter(|&(_, &d)| !d)
        .map(|(&f, _)| f)
        .collect();
    Ok(FaultCoverage {
        total: sites.len(),
        detected,
        undetected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::sim::Simulator;

    fn and_module() -> Module {
        let mut b = NetlistBuilder::new("and");
        let x = b.input("x", 2);
        let y = b.and(x[0], x[1]);
        b.output("y", &[y]);
        b.finish()
    }

    #[test]
    fn exhaustive_vectors_catch_every_fault_in_irredundant_logic() {
        let m = and_module();
        let vectors: Vec<Vec<u64>> = (0..4).map(|v| vec![v]).collect();
        let c = coverage(&m, &vectors);
        assert_eq!(c.coverage(), 1.0, "undetected: {:?}", c.undetected);
        // 2 input bits + 1 gate output = 3 nets x 2 polarities.
        assert_eq!(c.total, 6);
    }

    #[test]
    fn weak_vector_sets_miss_faults() {
        let m = and_module();
        // Only the all-zeros vector: a stuck-at-0 on the output is
        // indistinguishable.
        let c = coverage(&m, &[vec![0]]);
        assert!(c.coverage() < 1.0);
        assert!(c.undetected.contains(&Fault {
            net: m.gates[0].output,
            stuck_at: false
        }));
    }

    #[test]
    fn injection_forces_readers_to_the_constant() {
        let m = and_module();
        let f = Fault {
            net: m.inputs[0].bits[0].net().unwrap(),
            stuck_at: true,
        };
        let faulty = inject(&m, f);
        let mut sim = Simulator::new(&faulty);
        // x0 stuck at 1: output follows x1 regardless of driven x0.
        sim.set("x", 0b10);
        sim.settle();
        assert_eq!(sim.get("y"), 1);
        sim.set("x", 0b00);
        sim.settle();
        assert_eq!(sim.get("y"), 0);
    }

    #[test]
    fn bespoke_tree_vectors_reach_high_coverage() {
        use crate::comb::unsigned_le;
        // A bespoke comparator node: walk all 16 codes; expect full
        // coverage of the folded logic.
        let mut b = NetlistBuilder::new("node");
        let x = b.input("x", 4);
        let tau = b.const_word(9, 4);
        let le = unsigned_le(&mut b, &x, &tau);
        b.output("le", &[le]);
        let m = crate::opt::optimize(&b.finish());
        let vectors: Vec<Vec<u64>> = (0..16).map(|v| vec![v]).collect();
        let c = coverage(&m, &vectors);
        // Exhaustive vectors detect every *detectable* fault; what remains
        // is structural redundancy the optimizer leaves behind (a real
        // property worth surfacing — redundant logic is untestable logic).
        assert!(c.coverage() > 0.8, "coverage {}", c.coverage());
        // And the undetected set must indeed be undetectable: injecting
        // any of them never changes any exhaustive response (already
        // established by how they ended up in `undetected`).
        assert!(c.detected + c.undetected.len() == c.total);
    }
}
