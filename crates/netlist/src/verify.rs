//! Combinational equivalence checking.
//!
//! The bespoke flow rewrites netlists aggressively (constant folding,
//! absorption, CSE, lookup replacement); a synthesis flow would sign this
//! off with logic equivalence checking. This module provides the same
//! safety net: a classic *miter* construction (XOR corresponding outputs,
//! OR the differences) plus exhaustive or sampled proving on the compiled
//! wide-lane kernel — the miter is compiled once into a shared
//! [`CompiledNetlist`] tape and every [`WideSim`]`<4>` settle pass tries
//! 256 input vectors. Vector spans are sharded across the [`exec`] pool
//! in fixed-size blocks so the verdict (and any counter-example) is
//! identical at every thread count; widening the settle chunk from 64 to
//! 256 lanes subdivides spans differently but preserves the vector
//! order, the per-span sample streams and the first-difference witness.

use std::fmt;
use std::sync::Arc;

use crate::builder::NetlistBuilder;
use crate::compile::{record_settles, CompiledNetlist, WideSim};
use crate::error::SimError;
use crate::ir::{Module, Signal};

/// Lane width of the verification shards (one `WideSim<VERIFY_W>` per
/// work item over the shared compiled miter).
const VERIFY_W: usize = 4;
/// Vectors per settle pass at that width.
const VERIFY_LANES: usize = 64 * VERIFY_W;

/// Root seed of the deterministic sampling stream (golden-ratio constant,
/// kept from the original scalar checker).
const SAMPLE_ROOT: u64 = 0x9e3779b97f4a7c15;

/// Samples per [`exec::parallel_map`] work item in sampled mode, and
/// packed vectors per work item in exhaustive mode. Fixed (not derived
/// from the thread count) so span boundaries — and the per-span RNG
/// streams — are identical at every thread count.
const SAMPLE_SPAN: usize = 1024;
const EXHAUSTIVE_SPAN: u64 = 1 << 16;

/// Why a miter could not be built: the two modules do not present the
/// same interface, so there is no shared input space to compare them
/// over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MiterError {
    /// One of the modules is sequential.
    Sequential {
        /// Name of the offending module.
        module: String,
    },
    /// The modules disagree on input/output port count.
    PortCount {
        /// `"input"` or `"output"`.
        direction: &'static str,
        /// Port count of module `a`.
        a: usize,
        /// Port count of module `b`.
        b: usize,
    },
    /// A corresponding port pair differs in name or width.
    PortShape {
        /// `"input"` or `"output"`.
        direction: &'static str,
        /// Index of the mismatched port pair.
        index: usize,
        /// `name[width]` of module `a`'s port.
        a: String,
        /// `name[width]` of module `b`'s port.
        b: String,
    },
}

impl fmt::Display for MiterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MiterError::Sequential { module } => {
                write!(
                    f,
                    "module {module} is sequential; miter needs combinational modules"
                )
            }
            MiterError::PortCount { direction, a, b } => {
                write!(f, "{direction} port count differs: {a} vs {b}")
            }
            MiterError::PortShape {
                direction,
                index,
                a,
                b,
            } => write!(f, "{direction} port {index} differs: {a} vs {b}"),
        }
    }
}

impl std::error::Error for MiterError {}

/// Why an equivalence check could not produce a verdict: either the two
/// modules present incompatible interfaces ([`MiterError`]) or the miter
/// could not be simulated ([`SimError`] — e.g. a combinational cycle in
/// one of the inputs). Both propagate as errors instead of aborting so
/// differential harnesses can classify rejected inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The miter could not be built.
    Miter(MiterError),
    /// The miter could not be compiled or simulated.
    Sim(SimError),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Miter(e) => e.fmt(f),
            VerifyError::Sim(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<MiterError> for VerifyError {
    fn from(e: MiterError) -> Self {
        VerifyError::Miter(e)
    }
}

impl From<SimError> for VerifyError {
    fn from(e: SimError) -> Self {
        VerifyError::Sim(e)
    }
}

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Equivalence {
    /// All tried inputs agree; exhaustive proofs cover the whole space.
    Equivalent {
        /// Number of input vectors evaluated.
        vectors: usize,
        /// True when every possible input was covered.
        exhaustive: bool,
    },
    /// A distinguishing input was found (values per input port of `a`).
    CounterExample(Vec<u64>),
}

impl Equivalence {
    /// True for the equivalent verdicts.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, Equivalence::Equivalent { .. })
    }

    /// Number of vectors evaluated before the verdict (0 for a
    /// counter-example).
    pub fn vectors(&self) -> usize {
        match self {
            Equivalence::Equivalent { vectors, .. } => *vectors,
            Equivalence::CounterExample(_) => 0,
        }
    }
}

/// Builds a miter over two combinational modules with identical port
/// shapes: shared inputs, one `diff` output that is 1 iff any output bit
/// differs.
///
/// # Errors
/// Returns a [`MiterError`] if the modules' port names/widths differ or
/// either is sequential.
pub fn miter(a: &Module, b: &Module) -> Result<Module, MiterError> {
    for m in [a, b] {
        if !m.is_combinational() {
            return Err(MiterError::Sequential {
                module: m.name.clone(),
            });
        }
    }
    let shape = |p: &crate::ir::Port| format!("{}[{}]", p.name, p.width());
    for (direction, pa, pb) in [
        ("input", &a.inputs, &b.inputs),
        ("output", &a.outputs, &b.outputs),
    ] {
        if pa.len() != pb.len() {
            return Err(MiterError::PortCount {
                direction,
                a: pa.len(),
                b: pb.len(),
            });
        }
        for (index, (x, y)) in pa.iter().zip(pb.iter()).enumerate() {
            if x.name != y.name || x.width() != y.width() {
                return Err(MiterError::PortShape {
                    direction,
                    index,
                    a: shape(x),
                    b: shape(y),
                });
            }
        }
    }

    let mut m = NetlistBuilder::new(format!("miter_{}_{}", a.name, b.name));
    // Shared inputs.
    let shared: Vec<Vec<Signal>> = a
        .inputs
        .iter()
        .map(|p| m.input(p.name.clone(), p.width()))
        .collect();

    // Instantiate a copy of `src` into the miter, remapping nets.
    fn instantiate(
        m: &mut NetlistBuilder,
        src: &Module,
        shared: &[Vec<Signal>],
    ) -> Vec<Vec<Signal>> {
        use std::collections::HashMap;
        let mut map: HashMap<crate::ir::NetId, Signal> = HashMap::new();
        for (pi, port) in src.inputs.iter().enumerate() {
            for (bi, bit) in port.bits.iter().enumerate() {
                if let Signal::Net(n) = bit {
                    map.insert(*n, shared[pi][bi]);
                }
            }
        }
        let remap = |map: &HashMap<crate::ir::NetId, Signal>, s: Signal| -> Signal {
            match s {
                Signal::Const(_) => s,
                Signal::Net(n) => *map.get(&n).expect("source net mapped"),
            }
        };
        // Pass 1: allocate a fresh net per gate/ROM output (gates may
        // reference each other in any order, so all outputs are mapped
        // before any gate is emitted).
        let mut out_map: HashMap<crate::ir::NetId, Signal> = HashMap::new();
        for g in &src.gates {
            let fresh = m.fresh_net();
            out_map.insert(g.output, Signal::Net(fresh));
        }
        for r in &src.roms {
            for d in &r.data {
                let fresh = m.fresh_net();
                out_map.insert(*d, Signal::Net(fresh));
            }
        }
        map.extend(out_map.iter().map(|(k, v)| (*k, *v)));
        // Pass 2: emit gates wired through the map.
        for g in &src.gates {
            let inputs: Vec<Signal> = g.inputs.iter().map(|&s| remap(&map, s)).collect();
            let out = map[&g.output].net().expect("allocated net");
            m.push_raw_gate(g.kind, inputs, out);
        }
        for r in &src.roms {
            let addr: Vec<Signal> = r.addr.iter().map(|&s| remap(&map, s)).collect();
            let data: Vec<crate::ir::NetId> = r
                .data
                .iter()
                .map(|d| map[d].net().expect("allocated net"))
                .collect();
            m.push_raw_rom(addr, data, r.contents.clone(), r.style);
        }
        src.outputs
            .iter()
            .map(|p| p.bits.iter().map(|&s| remap(&map, s)).collect())
            .collect()
    }

    let outs_a = instantiate(&mut m, a, &shared);
    let outs_b = instantiate(&mut m, b, &shared);

    let mut diffs = Vec::new();
    for (wa, wb) in outs_a.iter().zip(&outs_b) {
        for (&ba, &bb) in wa.iter().zip(wb) {
            diffs.push(m.xor(ba, bb));
        }
    }
    let diff = if diffs.is_empty() {
        Signal::ZERO
    } else {
        m.or_reduce(&diffs)
    };
    m.output("diff", &[diff]);
    Ok(m.finish())
}

/// A full-width mask for a `w`-bit input port (`w = 64` must keep bit 63 —
/// the original scalar checker's `w.min(63)` mask silently pinned it to
/// 0, hiding any divergence confined to the top bit).
fn width_mask(w: usize) -> u64 {
    match w {
        0 => 0,
        1..=63 => (1u64 << w) - 1,
        _ => u64::MAX,
    }
}

/// One shared lane scratchpad: per-port lane value buffers, reused across
/// chunks.
struct LaneBuffer {
    /// `per_port[p][lane]` is port `p`'s value under vector `lane`.
    per_port: Vec<Vec<u64>>,
}

impl LaneBuffer {
    fn new(n_ports: usize) -> Self {
        LaneBuffer {
            per_port: vec![vec![0u64; VERIFY_LANES]; n_ports],
        }
    }

    /// Drives `sim` with the first `lanes` columns (ports are loaded by
    /// declaration index — no name lookups in the chunk loop).
    fn load(&self, sim: &mut WideSim<VERIFY_W>, lanes: usize) {
        for (p, col) in self.per_port.iter().enumerate() {
            sim.set_port_lanes(p, &col[..lanes]);
        }
    }

    /// The input vector carried by `lane` (values per port, in order).
    fn vector(&self, lane: usize) -> Vec<u64> {
        self.per_port.iter().map(|col| col[lane]).collect()
    }
}

/// Checks equivalence of two combinational modules on the compiled
/// wide-lane kernel.
///
/// With `total_input_bits <= exhaustive_limit` (and below the 64-bit
/// packing window) every input combination is tried — a proof; otherwise
/// `samples` pseudo-random vectors are tried — a falsification attempt.
/// The first mismatch in deterministic vector order is returned as a
/// counter-example regardless of thread count.
///
/// Passing `exhaustive_limit >= 64` cannot enumerate `2^64` packed
/// vectors in a `u64`; exhaustive proving is clamped to modules with
/// fewer than 64 total input bits and wider interfaces fall back to
/// sampling (with a note on stderr).
///
/// # Errors
/// Returns [`VerifyError::Miter`] when the two modules' port shapes
/// differ and [`VerifyError::Sim`] when the miter cannot be compiled
/// (e.g. a combinational cycle in one of the inputs).
pub fn check_equivalence(
    a: &Module,
    b: &Module,
    exhaustive_limit: u32,
    samples: usize,
) -> Result<Equivalence, VerifyError> {
    let _span = obs::span("netlist.verify.equivalence");
    let result = check_equivalence_inner(a, b, exhaustive_limit, samples);
    if let Ok(eq) = &result {
        obs::counter_add("netlist.verify.checks", 1);
        obs::counter_add("netlist.verify.vectors", eq.vectors() as u64);
    }
    result
}

fn check_equivalence_inner(
    a: &Module,
    b: &Module,
    exhaustive_limit: u32,
    samples: usize,
) -> Result<Equivalence, VerifyError> {
    let m = miter(a, b)?;
    let total_bits: u32 = m.inputs.iter().map(|p| p.width() as u32).sum();

    // One compilation, shared by every shard below.
    let compiled = Arc::new(CompiledNetlist::try_compile(&m)?);
    if total_bits < 64 && total_bits <= exhaustive_limit {
        Ok(prove_exhaustive(&compiled, total_bits))
    } else {
        if total_bits >= 64 && exhaustive_limit >= 64 {
            eprintln!(
                "[verify] {}: {total_bits} input bits exceed the 63-bit exhaustive \
                 window; falling back to {samples} sampled vectors",
                m.name
            );
        }
        Ok(prove_sampled(&compiled, samples))
    }
}

/// Exhaustive proof: all `2^total_bits` packed input vectors, 256 lanes
/// per settle, sharded over fixed `EXHAUSTIVE_SPAN` ranges.
fn prove_exhaustive(compiled: &Arc<CompiledNetlist>, total_bits: u32) -> Equivalence {
    let count = 1u64 << total_bits;
    let widths: Vec<usize> = compiled.input_widths();
    let spans: Vec<u64> = (0..count.div_ceil(EXHAUSTIVE_SPAN)).collect();
    let failures: Vec<Option<Vec<u64>>> = exec::parallel_map(&spans, |_, &span| {
        let mut sim: WideSim<VERIFY_W> = WideSim::new(Arc::clone(compiled));
        let mut lanes = LaneBuffer::new(widths.len());
        let mut settles = 0u64;
        let mut lane_vectors = 0u64;
        let start = span * EXHAUSTIVE_SPAN;
        let end = (start + EXHAUSTIVE_SPAN).min(count);
        let mut base = start;
        let mut witness = None;
        while base < end {
            let n = ((end - base) as usize).min(VERIFY_LANES);
            for lane in 0..n {
                let mut rest = base + lane as u64;
                for (p, &w) in widths.iter().enumerate() {
                    lanes.per_port[p][lane] = rest & width_mask(w);
                    rest >>= w;
                }
            }
            lanes.load(&mut sim, n);
            sim.settle();
            settles += 1;
            lane_vectors += n as u64;
            if let Some(lane) = first_diff_lane(&sim, n) {
                witness = Some(lanes.vector(lane));
                break;
            }
            base += n as u64;
        }
        record_settles(settles, lane_vectors);
        witness
    });
    match failures.into_iter().flatten().next() {
        Some(values) => Equivalence::CounterExample(values),
        None => Equivalence::Equivalent {
            vectors: count as usize,
            exhaustive: true,
        },
    }
}

/// Sampled falsification: `samples` deterministic pseudo-random vectors,
/// 256 lanes per settle, sharded over fixed `SAMPLE_SPAN` ranges with
/// per-span seed streams (`exec::task_seed`), so the tried vectors do not
/// depend on the thread count. Draws advance per (vector, port) — the
/// stream is a function of the vector index alone, so the chunk width
/// does not shift it.
fn prove_sampled(compiled: &Arc<CompiledNetlist>, samples: usize) -> Equivalence {
    let widths: Vec<usize> = compiled.input_widths();
    let spans: Vec<usize> = (0..samples.div_ceil(SAMPLE_SPAN)).collect();
    let failures: Vec<Option<Vec<u64>>> = exec::parallel_map(&spans, |_, &span| {
        let mut sim: WideSim<VERIFY_W> = WideSim::new(Arc::clone(compiled));
        let mut lanes = LaneBuffer::new(widths.len());
        let mut settles = 0u64;
        let mut lane_vectors = 0u64;
        // xorshift needs a nonzero state; task_seed(root, span) == 0 is a
        // 1-in-2^64 fluke but would freeze the stream entirely.
        let mut state = exec::task_seed(SAMPLE_ROOT, span as u64).max(1);
        let mut next = move || {
            // xorshift64, seeded per span.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let start = span * SAMPLE_SPAN;
        let end = (start + SAMPLE_SPAN).min(samples);
        let mut base = start;
        let mut witness = None;
        while base < end {
            let n = (end - base).min(VERIFY_LANES);
            for lane in 0..n {
                for (p, &w) in widths.iter().enumerate() {
                    lanes.per_port[p][lane] = next() & width_mask(w);
                }
            }
            lanes.load(&mut sim, n);
            sim.settle();
            settles += 1;
            lane_vectors += n as u64;
            if let Some(lane) = first_diff_lane(&sim, n) {
                witness = Some(lanes.vector(lane));
                break;
            }
            base += n;
        }
        record_settles(settles, lane_vectors);
        witness
    });
    match failures.into_iter().flatten().next() {
        Some(values) => Equivalence::CounterExample(values),
        None => Equivalence::Equivalent {
            vectors: samples,
            exhaustive: false,
        },
    }
}

/// Lowest lane (vector) whose `diff` output is raised, if any — the
/// miter has a single 1-bit output, so its response image is exactly
/// `VERIFY_W` lane words.
fn first_diff_lane(sim: &WideSim<VERIFY_W>, lanes: usize) -> Option<usize> {
    let words = sim.output_words(lanes);
    words
        .iter()
        .enumerate()
        .find(|(_, &w)| w != 0)
        .map(|(i, &w)| i * 64 + w.trailing_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comb::unsigned_le;
    use crate::opt::optimize;

    #[test]
    fn optimizer_output_proves_equivalent() {
        let mut b = NetlistBuilder::new("node");
        let x = b.input("x", 6);
        let tau = b.const_word(23, 6);
        let le = unsigned_le(&mut b, &x, &tau);
        b.output("le", &[le]);
        let original = b.finish();
        let optimized = optimize(&original);
        let verdict = check_equivalence(&original, &optimized, 16, 0).unwrap();
        assert!(
            matches!(
                verdict,
                Equivalence::Equivalent {
                    exhaustive: true,
                    ..
                }
            ),
            "{verdict:?}"
        );
    }

    #[test]
    fn different_circuits_yield_a_counterexample() {
        let build = |tau: u64| {
            let mut b = NetlistBuilder::new("node");
            let x = b.input("x", 4);
            let t = b.const_word(tau, 4);
            let le = unsigned_le(&mut b, &x, &t);
            b.output("le", &[le]);
            b.finish()
        };
        let a = build(5);
        let bb = build(6);
        let verdict = check_equivalence(&a, &bb, 16, 0).unwrap();
        match verdict {
            Equivalence::CounterExample(v) => {
                // The circuits disagree exactly at x = 6.
                assert_eq!(v, vec![6]);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn sampled_mode_covers_wide_inputs() {
        let mut b = NetlistBuilder::new("wide");
        let x = b.input("x", 20);
        let y = b.input("y", 20);
        let s = crate::arith::add(&mut b, &x, &y);
        b.output("s", &s);
        let a = b.finish();
        let opt = optimize(&a);
        let verdict = check_equivalence(&a, &opt, 16, 200).unwrap();
        assert!(
            matches!(
                verdict,
                Equivalence::Equivalent {
                    exhaustive: false,
                    vectors: 200
                }
            ),
            "{verdict:?}"
        );
    }

    #[test]
    fn rom_modules_participate_in_miters() {
        use pdk::RomStyle;
        let build = |style: RomStyle| {
            let mut b = NetlistBuilder::new("rom");
            let a = b.input("a", 3);
            let d = b.rom(&a, vec![1, 5, 2, 7, 0, 3, 6, 4], 3, style);
            b.output("d", &d);
            b.finish()
        };
        let crossbar = build(RomStyle::Crossbar);
        let dots = build(RomStyle::BespokeDots);
        // Same contents, different implementation style: equivalent.
        let verdict = check_equivalence(&crossbar, &dots, 8, 0).unwrap();
        assert!(verdict.is_equivalent());
    }

    #[test]
    fn mismatched_ports_are_reported_not_panicked() {
        let mut b1 = NetlistBuilder::new("a");
        let x = b1.input("x", 2);
        b1.output("o", &[x[0]]);
        let mut b2 = NetlistBuilder::new("b");
        let y = b2.input("x", 3);
        b2.output("o", &[y[0]]);
        let err = miter(&b1.finish(), &b2.finish()).unwrap_err();
        assert_eq!(
            err,
            MiterError::PortShape {
                direction: "input",
                index: 0,
                a: "x[2]".into(),
                b: "x[3]".into(),
            }
        );
        assert!(err.to_string().contains("input port 0 differs"));
    }

    #[test]
    fn sequential_modules_are_reported() {
        let mut b = NetlistBuilder::new("seq");
        let x = b.input("x", 1);
        let q = b.dff(x[0], false);
        b.output("q", &[q]);
        let seq = b.finish();
        let err = miter(&seq, &seq).unwrap_err();
        assert!(matches!(err, MiterError::Sequential { .. }));
    }

    /// Regression: the scalar checker's sampled path masked each port with
    /// `w.min(63)` bits, so bit 63 of a 64-bit port was never driven to 1
    /// and two modules differing only there sampled as "equivalent".
    #[test]
    fn sampling_exercises_bit_63_of_a_64_bit_port() {
        let mut b1 = NetlistBuilder::new("top_bit");
        let x = b1.input("x", 64);
        let top = b1.buf(x[63]);
        b1.output("o", &[top]);
        let a = b1.finish();
        let mut b2 = NetlistBuilder::new("zero");
        let _ = b2.input("x", 64);
        let zero = b2.and(Signal::ZERO, Signal::ZERO);
        b2.output("o", &[zero]);
        let bb = b2.finish();
        // 64 total input bits: sampled mode. Half of all random vectors
        // set bit 63, so a handful of samples must find the divergence.
        let verdict = check_equivalence(&a, &bb, 16, 256).unwrap();
        match verdict {
            Equivalence::CounterExample(v) => {
                assert_eq!(v.len(), 1);
                assert!(v[0] >> 63 == 1, "witness must set bit 63: {:#x}", v[0]);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    /// Regression: `1u64 << total_bits` wrapped when a caller passed
    /// `exhaustive_limit >= 64`, claiming an exhaustive proof over zero
    /// vectors. Wide interfaces must clamp to sampling instead.
    #[test]
    fn exhaustive_limit_at_or_above_64_bits_falls_back_to_sampling() {
        let mut b1 = NetlistBuilder::new("wide_a");
        let x = b1.input("x", 64);
        let o = b1.xor(x[0], x[63]);
        b1.output("o", &[o]);
        let a = b1.finish();
        let opt = optimize(&a);
        let verdict = check_equivalence(&a, &opt, 64, 100).unwrap();
        assert_eq!(
            verdict,
            Equivalence::Equivalent {
                vectors: 100,
                exhaustive: false
            }
        );
    }

    #[test]
    fn counterexamples_are_thread_count_invariant() {
        // Divergence only at one specific wide input; the reported witness
        // must be identical at any thread count.
        let build = |tweak: bool| {
            let mut b = NetlistBuilder::new("w");
            let x = b.input("x", 24);
            let y = b.input("y", 24);
            let mut acc = b.xor(x[0], y[0]);
            for i in 1..24 {
                let t = b.xor(x[i], y[i]);
                acc = b.and(acc, t);
            }
            if tweak {
                acc = b.not(acc);
            }
            b.output("o", &[acc]);
            b.finish()
        };
        let a = build(false);
        let bb = build(true);
        let one = exec::with_threads(1, || check_equivalence(&a, &bb, 8, 4096).unwrap());
        let many = exec::with_threads(8, || check_equivalence(&a, &bb, 8, 4096).unwrap());
        assert_eq!(one, many);
        assert!(!one.is_equivalent());
    }
}
