//! Combinational equivalence checking.
//!
//! The bespoke flow rewrites netlists aggressively (constant folding,
//! absorption, CSE, lookup replacement); a synthesis flow would sign this
//! off with logic equivalence checking. This module provides the same
//! safety net: a classic *miter* construction (XOR corresponding outputs,
//! OR the differences) plus exhaustive or sampled proving on the compiled
//! wide-lane kernel — the miter is compiled once into a shared
//! [`CompiledNetlist`] tape and every [`WideSim`]`<4>` settle pass tries
//! 256 input vectors. Each chunk's stimulus is written straight into the
//! kernel's packed input image, one lane block per input bit: bit `k` of
//! the vector index when exhaustive, xorshift words from the span's seed
//! stream when sampled; a counter-example is read back out of that
//! image. Vector spans are sharded across the [`exec`] pool in
//! fixed-size blocks so the verdict (and any counter-example) is
//! identical at every thread count.
//! A raw and an optimized netlist from one generator usually carry the
//! same ROMs; the miter keeps one copy of each such pair.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use crate::builder::NetlistBuilder;
use crate::compile::{record_settles, CompiledNetlist, WideSim};
use crate::error::SimError;
use crate::ir::{Module, NetId, Signal};

/// Lane width of the verification shards (one `WideSim<VERIFY_W>` per
/// work item over the shared compiled miter).
const VERIFY_W: usize = 4;
/// Vectors per settle pass at that width.
const VERIFY_LANES: usize = 64 * VERIFY_W;

/// ROMs a miter evaluates once for both halves: ROMs of `b` that read
/// the data of an identical ROM of `a` instead of a copy of their own.
static SHARED_ROMS: obs::Counter = obs::Counter::new("netlist.verify.shared_roms");
static CHECKS: obs::Counter = obs::Counter::new("netlist.verify.checks");
static VECTORS: obs::Counter = obs::Counter::new("netlist.verify.vectors");

/// Root seed of the deterministic sampling stream (golden-ratio constant,
/// kept from the original scalar checker).
const SAMPLE_ROOT: u64 = 0x9e3779b97f4a7c15;

/// Samples per [`exec::parallel_map`] work item in sampled mode, and
/// packed vectors per work item in exhaustive mode. Fixed (not derived
/// from the thread count) so span boundaries — and the per-span RNG
/// streams — are identical at every thread count.
const SAMPLE_SPAN: u64 = 1024;
const EXHAUSTIVE_SPAN: u64 = 1 << 16;

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
/// A ROM of `b` that reads the same inputs and constants as a ROM of `a`
/// and has the same contents and data width is instantiated once: `b`'s
/// readers read `a`'s copy. The two copies compute one function, so the
/// miter's `diff` is unchanged on every input vector, and the check
/// evaluates the ROM once instead of twice (counted by
/// `netlist.verify.shared_roms`).
///
/// # Errors
/// Returns [`SimError::Sequential`] if either module is sequential, and
/// [`SimError::PortCount`] or [`SimError::PortShape`] if their port
/// names/widths differ.
pub fn miter(a: &Module, b: &Module) -> Result<Module, SimError> {
    for m in [a, b] {
        if !m.is_combinational() {
            return Err(SimError::Sequential {
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
            return Err(SimError::PortCount {
                direction,
                a: pa.len(),
                b: pb.len(),
            });
        }
        for (index, (x, y)) in pa.iter().zip(pb.iter()).enumerate() {
            if x.name != y.name || x.width() != y.width() {
                return Err(SimError::PortShape {
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

    let (outs_a, roms_a) = instantiate(&mut m, a, &shared, &HashMap::new());
    let (outs_b, _) = instantiate(&mut m, b, &shared, &roms_a);

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

/// A ROM that reads only miter inputs and constants, as the miter sees
/// it: address signals, contents and data width. Two ROMs with equal keys
/// compute the same function of the miter's inputs.
type RomKey<'m> = (Vec<Signal>, &'m [u64], usize);

/// Instantiates a copy of `src` into the miter over its `shared` input
/// bits, remapping nets, and returns the copy's output bits. A ROM of
/// `src` whose key is in `reuse` is not instantiated again: its readers
/// read the data of the ROM already there. The returned table holds the
/// keys of the ROMs this copy did instantiate.
fn instantiate<'m>(
    m: &mut NetlistBuilder,
    src: &'m Module,
    shared: &[Vec<Signal>],
    reuse: &HashMap<RomKey<'m>, Vec<Signal>>,
) -> (Vec<Vec<Signal>>, HashMap<RomKey<'m>, Vec<Signal>>) {
    // Dense net map: the shared input bits, then the data of every reused
    // ROM, then a fresh net per gate and remaining ROM output (gates may
    // reference each other in any order, so every output is mapped before
    // any gate is emitted).
    let mut map: Vec<Option<Signal>> = vec![None; src.net_count()];
    for (port, bits) in src.inputs.iter().zip(shared) {
        for (bit, &s) in port.bits.iter().zip(bits) {
            if let Signal::Net(n) = bit {
                map[n.index()] = Some(s);
            }
        }
    }
    // Only input bits are mapped so far, so a key exists exactly for the
    // ROMs addressed by inputs and constants.
    let keys: Vec<Option<RomKey<'m>>> = src
        .roms
        .iter()
        .map(|r| {
            let addr = r.addr.iter().map(|&s| match s {
                Signal::Const(_) => Some(s),
                Signal::Net(n) => map[n.index()],
            });
            let addr = addr.collect::<Option<Vec<Signal>>>()?;
            Some((addr, r.contents.as_slice(), r.data.len()))
        })
        .collect();
    // A ROM with an identical twin already in the miter maps its data to
    // the twin's; the others are instantiated below.
    let mut fresh = Vec::with_capacity(src.roms.len());
    for (r, key) in src.roms.iter().zip(keys) {
        match key.as_ref().and_then(|k| reuse.get(k)) {
            Some(twin) => {
                for (d, &s) in r.data.iter().zip(twin) {
                    map[d.index()] = Some(s);
                }
            }
            None => fresh.push((r, key)),
        }
    }
    SHARED_ROMS.add((src.roms.len() - fresh.len()) as u64);
    let gate_outputs = src.gates.iter().map(|g| g.output);
    let rom_outputs = fresh.iter().flat_map(|(r, _)| r.data.iter().copied());
    for n in gate_outputs.chain(rom_outputs) {
        map[n.index()] = Some(Signal::Net(m.fresh_net()));
    }
    let remap = |s: Signal| match s {
        Signal::Const(_) => s,
        Signal::Net(n) => map[n.index()].expect("source net mapped"),
    };
    let net = |n: NetId| remap(Signal::Net(n)).net().expect("allocated net");
    for g in &src.gates {
        let mut inputs = g.inputs;
        inputs.iter_mut().for_each(|s| *s = remap(*s));
        m.push_raw_gate(g.kind, inputs, net(g.output));
    }
    let mut emitted = HashMap::new();
    for (r, key) in fresh {
        let data: Vec<NetId> = r.data.iter().map(|&d| net(d)).collect();
        if let Some(key) = key {
            emitted
                .entry(key)
                .or_insert_with(|| data.iter().copied().map(Signal::Net).collect());
        }
        let addr = r.addr.iter().map(|&s| remap(s)).collect();
        m.push_raw_rom(addr, data, r.contents.clone(), r.style);
    }
    let outputs = src
        .outputs
        .iter()
        .map(|p| p.bits.iter().map(|&s| remap(s)).collect())
        .collect();
    (outputs, emitted)
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
/// Returns the [`miter`] error when the two modules cannot share one,
/// the compile error when the miter cannot be compiled (e.g. a
/// combinational cycle in one of the inputs), and
/// [`SimError::NoSamples`] when the check must sample but `samples` is 0.
pub fn check_equivalence(
    a: &Module,
    b: &Module,
    exhaustive_limit: u32,
    samples: usize,
) -> Result<Equivalence, SimError> {
    let _span = obs::span("netlist.verify.equivalence");
    let result = check_equivalence_inner(a, b, exhaustive_limit, samples);
    if let Ok(eq) = &result {
        CHECKS.incr();
        VECTORS.add(eq.vectors() as u64);
    }
    result
}

fn check_equivalence_inner(
    a: &Module,
    b: &Module,
    exhaustive_limit: u32,
    samples: usize,
) -> Result<Equivalence, SimError> {
    let m = miter(a, b)?;
    let widths: Vec<usize> = m.inputs.iter().map(|p| p.width()).collect();
    let total_bits: usize = widths.iter().sum();

    // One compilation, shared by every shard below.
    let compiled = Arc::new(CompiledNetlist::try_compile(&m)?);
    if total_bits < 64 && total_bits <= exhaustive_limit as usize {
        prove(&compiled, &widths, 1u64 << total_bits, Vectors::Exhaustive)
    } else {
        if total_bits >= 64 && exhaustive_limit >= 64 {
            eprintln!(
                "[verify] {}: {total_bits} input bits exceed the 63-bit exhaustive \
                 window; falling back to {samples} sampled vectors",
                m.name
            );
        }
        if samples == 0 {
            return Err(SimError::NoSamples { module: m.name });
        }
        prove(&compiled, &widths, samples as u64, Vectors::Sampled)
    }
}

/// One shard's outcome: its first counter-example, if any.
type Shard = Result<Option<Vec<u64>>, SimError>;

/// Where a proof's input vectors come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Vectors {
    /// Every vector `0..2^total_bits`: input bit `k` of vector `v` is bit
    /// `k` of `v`, so the ports take consecutive bit fields of `v`, first
    /// port lowest.
    Exhaustive,
    /// Deterministic pseudo-random vectors: every lane word of every
    /// driven image block is one xorshift draw from the span's
    /// `exec::task_seed` stream.
    Sampled,
}

impl Vectors {
    /// Vectors per [`exec::parallel_map`] work item.
    fn span(self) -> u64 {
        match self {
            Vectors::Exhaustive => EXHAUSTIVE_SPAN,
            Vectors::Sampled => SAMPLE_SPAN,
        }
    }

    /// Writes the input image of the chunk that starts at vector `base`
    /// (a multiple of 64): block `k` is input bit `k`, port-major and
    /// bit-minor, the order [`WideSim::try_load_packed`] takes. `driven`
    /// holds each port's blocks below its bit 64; the blocks past them
    /// stay zero, as a port value has 64 bits. `state` is the span's
    /// xorshift stream.
    fn fill(
        self,
        image: &mut [[u64; VERIFY_W]],
        driven: &[Range<usize>],
        base: u64,
        state: &mut u64,
    ) {
        match self {
            // Bit `k` of lane `64·w + j` is bit `k` of `j` below bit 6, a
            // word of runs of `2^k` zeros then `2^k` ones, and bit `k` of
            // `base + 64·w` from bit 6 on.
            Vectors::Exhaustive => {
                for (k, block) in image.iter_mut().enumerate() {
                    for (w, word) in (0u64..).zip(block) {
                        *word = if k < 6 {
                            (u64::MAX / ((1 << (1 << k)) + 1)) << (1 << k)
                        } else {
                            0u64.wrapping_sub(((base + 64 * w) >> k) & 1)
                        };
                    }
                }
            }
            Vectors::Sampled => {
                for r in driven {
                    for word in image[r.clone()].as_flattened_mut() {
                        // xorshift64.
                        *state ^= *state << 13;
                        *state ^= *state >> 7;
                        *state ^= *state << 17;
                        *word = *state;
                    }
                }
            }
        }
    }
}

/// Each input port's image blocks below its bit 64, for ports `widths`
/// wide laid out port-major, bit-minor.
fn driven_blocks(widths: &[usize]) -> Vec<Range<usize>> {
    let mut offset = 0;
    widths
        .iter()
        .map(|&w| {
            offset += w;
            offset - w..offset - w + w.min(64)
        })
        .collect()
}

/// The input vector that `lane` of `image` carries: one value per port,
/// read back from the port's `driven` blocks.
fn lane_vector(image: &[[u64; VERIFY_W]], driven: &[Range<usize>], lane: usize) -> Vec<u64> {
    let bit = |block: &[u64; VERIFY_W]| (block[lane / 64] >> (lane % 64)) & 1;
    let value = |r: &Range<usize>| {
        (0..)
            .zip(&image[r.clone()])
            .fold(0, |v, (k, b)| v | bit(b) << k)
    };
    driven.iter().map(value).collect()
}

/// Tries `count` vectors from `source` on the compiled miter over input
/// ports `widths` wide, 256 lanes per settle, sharded over fixed spans.
/// Each chunk's input image is written directly, one block per input
/// bit. Exhaustive over all `count` vectors it is a proof; sampled it is
/// a falsification attempt. The first counter-example in vector order
/// wins at any thread count.
fn prove(
    compiled: &Arc<CompiledNetlist>,
    widths: &[usize],
    count: u64,
    source: Vectors,
) -> Result<Equivalence, SimError> {
    let bits: usize = widths.iter().sum();
    let driven = driven_blocks(widths);
    let span_len = source.span();
    let spans: Vec<u64> = (0..count.div_ceil(span_len)).collect();
    let failures: Vec<Shard> = exec::parallel_map(&spans, |_, &span| {
        let mut sim: WideSim<VERIFY_W> = WideSim::new(Arc::clone(compiled));
        let mut image = vec![[0u64; VERIFY_W]; bits];
        let mut settles = 0u64;
        let mut lane_vectors = 0u64;
        // xorshift needs a nonzero state; task_seed(root, span) == 0 is a
        // 1-in-2^64 fluke but would freeze the stream entirely.
        let mut state = exec::task_seed(SAMPLE_ROOT, span).max(1);
        let start = span * span_len;
        let end = (start + span_len).min(count);
        let mut base = start;
        let mut witness = None;
        while base < end {
            let n = ((end - base) as usize).min(VERIFY_LANES);
            source.fill(&mut image, &driven, base, &mut state);
            sim.try_load_packed(&image)?;
            sim.settle();
            settles += 1;
            lane_vectors += n as u64;
            if let Some(lane) = first_diff_lane(&sim, n) {
                witness = Some(lane_vector(&image, &driven, lane));
                break;
            }
            base += n as u64;
        }
        record_settles(settles, lane_vectors);
        Ok(witness)
    });
    let failures = failures.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(match failures.into_iter().flatten().next() {
        Some(values) => Equivalence::CounterExample(values),
        None => Equivalence::Equivalent {
            vectors: count as usize,
            exhaustive: source == Vectors::Exhaustive,
        },
    })
}

/// Lowest of the first `lanes` lanes whose `diff` bit, the miter's one
/// output bit, is raised, if any. Lanes past `lanes` hold no vector of
/// the chunk and are ignored.
fn first_diff_lane(sim: &WideSim<VERIFY_W>, lanes: usize) -> Option<usize> {
    let diff = sim.output_block(0, 0);
    let (w, word) = diff.iter().enumerate().find(|(_, &word)| word != 0)?;
    Some(w * 64 + word.trailing_zeros() as usize).filter(|&lane| lane < lanes)
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
            SimError::PortShape {
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
        assert!(matches!(err, SimError::Sequential { .. }));
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

    /// Regression: a sampled check of zero vectors returned
    /// `Equivalent { vectors: 0, exhaustive: false }` without trying one.
    #[test]
    fn a_sampled_check_of_zero_vectors_is_rejected() {
        let mut b1 = NetlistBuilder::new("wide");
        let x = b1.input("x", 20);
        let o = b1.and(x[0], x[19]);
        b1.output("o", &[o]);
        let a = b1.finish();
        let opt = optimize(&a);
        let err = check_equivalence(&a, &opt, 16, 0).unwrap_err();
        assert!(matches!(err, SimError::NoSamples { .. }), "{err:?}");
        // Within the exhaustive limit the sample count is not used.
        let verdict = check_equivalence(&a, &opt, 20, 0).unwrap();
        assert_eq!(
            verdict,
            Equivalence::Equivalent {
                vectors: 1 << 20,
                exhaustive: true
            }
        );
    }

    /// A `WideSim` at the verify width over a module with input ports
    /// `widths` wide and one output bit.
    fn sim_over(widths: &[usize]) -> WideSim<VERIFY_W> {
        let mut b = NetlistBuilder::new("ports");
        let mut bits = vec![Signal::ZERO];
        for (i, &w) in widths.iter().enumerate() {
            bits.extend(b.input(format!("p{i}"), w));
        }
        let o = b.or_reduce(&bits);
        b.output("diff", &[o]);
        WideSim::new(Arc::new(CompiledNetlist::compile(&b.finish())))
    }

    /// `image` with every lane from `lanes` on cleared.
    fn live(image: &[[u64; VERIFY_W]], lanes: usize) -> Vec<[u64; VERIFY_W]> {
        let keep = |w: usize| match lanes.saturating_sub(64 * w) {
            0 => 0,
            n @ 1..=63 => (1u64 << n) - 1,
            _ => u64::MAX,
        };
        image
            .iter()
            .map(|block| std::array::from_fn(|w| block[w] & keep(w)))
            .collect()
    }

    #[test]
    fn exhaustive_images_equal_packed_enumerations() {
        let splits: [&[usize]; 7] = [&[1], &[5], &[6], &[7], &[3, 5], &[8, 1, 4], &[13]];
        for widths in splits {
            let sim = sim_over(widths);
            let driven = driven_blocks(widths);
            let bits: usize = widths.iter().sum();
            let count = 1u64 << bits;
            let chunk = VERIFY_LANES as u64;
            let (middle, last) = (count / 2 / chunk * chunk, (count - 1) / chunk * chunk);
            for base in [0, middle, last] {
                let n = (count - base).min(chunk) as usize;
                let vectors: Vec<Vec<u64>> = (base..base + n as u64)
                    .map(|v| {
                        let mut rest = v;
                        widths
                            .iter()
                            .map(|&w| {
                                let field = rest & ((1 << w) - 1);
                                rest >>= w;
                                field
                            })
                            .collect()
                    })
                    .collect();
                let mut image = vec![[0u64; VERIFY_W]; bits];
                Vectors::Exhaustive.fill(&mut image, &driven, base, &mut 1);
                let packed = sim.try_pack_vectors(&vectors).unwrap();
                assert_eq!(live(&image, n), packed, "{widths:?} at {base}");
                for (lane, vector) in vectors.iter().enumerate() {
                    assert_eq!(&lane_vector(&image, &driven, lane), vector, "lane {lane}");
                }
            }
        }
    }

    #[test]
    fn sampled_lanes_read_back_as_the_vectors_they_pack() {
        let widths = [64, 3, 70, 1];
        let driven = driven_blocks(&widths);
        let mut image = vec![[0u64; VERIFY_W]; 138];
        Vectors::Sampled.fill(&mut image, &driven, 0, &mut 7);
        let vectors: Vec<Vec<u64>> = (0..VERIFY_LANES)
            .map(|lane| lane_vector(&image, &driven, lane))
            .collect();
        assert_eq!(sim_over(&widths).try_pack_vectors(&vectors).unwrap(), image);
        assert!(
            image[131..137].iter().all(|b| *b == [0; VERIFY_W]),
            "bits 64 and up of the 70-bit port stay zero"
        );
        assert!(image[..131].iter().all(|b| *b != [0; VERIFY_W]));
    }

    #[test]
    fn a_module_without_input_bits_checks_one_vector() {
        let build = |value: Signal| {
            let mut b = NetlistBuilder::new("constant");
            b.output("o", &[value, Signal::ONE]);
            b.finish()
        };
        let (one, zero) = (build(Signal::ONE), build(Signal::ZERO));
        assert_eq!(
            check_equivalence(&one, &one, 0, 0),
            Ok(Equivalence::Equivalent {
                vectors: 1,
                exhaustive: true
            })
        );
        assert_eq!(
            check_equivalence(&one, &zero, 0, 0),
            Ok(Equivalence::CounterExample(vec![]))
        );
    }

    #[test]
    fn the_diff_read_ignores_lanes_past_the_chunk() {
        // `diff = !x`: lanes the chunk drives carry x = 1, so only the
        // lanes past them, left at x = 0, raise `diff`.
        let mut b = NetlistBuilder::new("window");
        let x = b.input("x", 1);
        let o = b.not(x[0]);
        b.output("diff", &[o]);
        let mut sim: WideSim<VERIFY_W> =
            WideSim::new(Arc::new(CompiledNetlist::compile(&b.finish())));
        for lanes in [1usize, 63, 64, 65, 100, 255, 256] {
            let image = sim.try_pack_vectors(&vec![vec![1]; lanes]).unwrap();
            sim.try_load_packed(&image).unwrap();
            sim.settle();
            assert_eq!(first_diff_lane(&sim, lanes), None, "lanes={lanes}");
            if lanes < VERIFY_LANES {
                assert_eq!(first_diff_lane(&sim, lanes + 1), Some(lanes));
            }
        }
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
