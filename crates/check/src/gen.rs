//! Seed-driven random input generation.
//!
//! Everything here is a pure function of its `u64` seed: the same seed
//! always yields the same netlist, vector set or dataset, on any
//! machine at any thread count. That is the property the whole fuzzing
//! subsystem leans on — a failing case is its seed, and a corpus entry
//! can pin a bug class with eight bytes.
//!
//! Netlists are *acyclic by construction*: gates only ever read signals
//! that already exist (input bits, constants, earlier gate outputs, ROM
//! data bits), so every generated module is a valid combinational
//! circuit the five engines must agree on. Cyclic and sequential
//! rejection paths are exercised separately ([`random_sequential_module`]
//! and the hand-mutated corpus fixtures).

use exec::rng::StdRng;
use ml::Dataset;
use netlist::builder::NetlistBuilder;
use netlist::{Module, Signal};
use pdk::RomStyle;

/// Upper bound on gates per generated module — small enough that a
/// smoke run of hundreds of cases stays in milliseconds, large enough
/// to cover every cell kind and multi-level structure.
pub const MAX_GATES: usize = 40;

/// Address widths of the wide ROMs [`random_module`] draws: past the
/// compiled kernel's 10-bit limit for row-mask evaluation, so it
/// evaluates them per lane.
pub const WIDE_ROM_ADDR_BITS: std::ops::RangeInclusive<usize> = 11..=12;

/// Builds a random combinational module: 1–3 input ports (1–6 bits),
/// a soup of up to [`MAX_GATES`] gates over every 1- and 2-input cell
/// kind plus muxes, an optional crossbar/bespoke ROM, and 1–2 output
/// ports sampling arbitrary internal signals. Half the ROMs have
/// [`WIDE_ROM_ADDR_BITS`] address bits, the rest 1–3.
pub fn random_module(seed: u64) -> Module {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = NetlistBuilder::new(format!("fuzz_{seed:016x}"));
    let mut pool: Vec<Signal> = Vec::new();
    let n_ports = rng.gen_range(1..=3usize);
    for p in 0..n_ports {
        let width = rng.gen_range(1..=6usize);
        pool.extend(b.input(format!("in{p}"), width));
    }
    // Constants participate like any other signal, so constant-input
    // gates (the optimizer's favorite food) appear organically.
    pool.push(Signal::Const(false));
    pool.push(Signal::Const(true));

    let n_gates = rng.gen_range(1..=MAX_GATES);
    for _ in 0..n_gates {
        let a = pool[rng.gen_range(0..pool.len())];
        let c = pool[rng.gen_range(0..pool.len())];
        let s = pool[rng.gen_range(0..pool.len())];
        let out = match rng.gen_range(0..9usize) {
            0 => b.not(a),
            1 => b.buf(a),
            2 => b.and(a, c),
            3 => b.or(a, c),
            4 => b.nand(a, c),
            5 => b.nor(a, c),
            6 => b.xor(a, c),
            7 => b.xnor(a, c),
            _ => b.mux(s, a, c),
        };
        pool.push(out);
    }

    if rng.gen_bool(0.3) {
        let addr_bits = if rng.gen_bool(0.5) {
            rng.gen_range(WIDE_ROM_ADDR_BITS)
        } else {
            rng.gen_range(1..=3usize)
        };
        let addr: Vec<Signal> = (0..addr_bits)
            .map(|_| pool[rng.gen_range(0..pool.len())])
            .collect();
        let data_bits = rng.gen_range(1..=4usize);
        let mask = (1u64 << data_bits) - 1;
        let contents: Vec<u64> = (0..(1usize << addr_bits))
            .map(|_| rng.next_u64() & mask)
            .collect();
        let style = if rng.gen_bool(0.5) {
            RomStyle::Crossbar
        } else {
            RomStyle::BespokeDots
        };
        pool.extend(b.rom(&addr, contents, data_bits, style));
    }

    let n_outputs = rng.gen_range(1..=2usize);
    for o in 0..n_outputs {
        let width = rng.gen_range(1..=6usize);
        let bits: Vec<Signal> = (0..width)
            .map(|_| pool[rng.gen_range(0..pool.len())])
            .collect();
        b.output(format!("out{o}"), &bits);
    }
    b.finish()
}

/// A [`random_module`] with one D flip-flop appended, making it
/// sequential. The combinational engines must all *reject* it — with the
/// same error kind — rather than mis-simulate it.
pub fn random_sequential_module(seed: u64) -> Module {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = NetlistBuilder::new(format!("fuzz_seq_{seed:016x}"));
    let x = b.input("in0", rng.gen_range(1..=4usize));
    let q = b.dff(x[0], rng.gen_bool(0.5));
    let y = b.xor(q, x[x.len() - 1]);
    b.output("out0", &[y]);
    b.finish()
}

/// Random input vectors for `module`: one masked value per input port.
pub fn random_vectors(seed: u64, module: &Module, n: usize) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(exec::seed::mix64(seed ^ SEED_0F_VECTORS));
    let widths: Vec<usize> = module.inputs.iter().map(|p| p.width()).collect();
    (0..n)
        .map(|_| {
            widths
                .iter()
                .map(|&w| {
                    let mask = if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
                    rng.next_u64() & mask
                })
                .collect()
        })
        .collect()
}

/// Builds a small random classification dataset: 2–5 features, 2–3
/// classes with well-separated random centers plus uniform noise —
/// learnable enough that fitted models have real structure, small
/// enough (≤ 60 rows) that a fit costs well under a millisecond.
pub fn random_dataset(seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let d = rng.gen_range(2..=5usize);
    let k = rng.gen_range(2..=3usize);
    let rows_per_class = rng.gen_range(10..=20usize);
    let centers: Vec<Vec<f64>> = (0..k)
        .map(|_| (0..d).map(|_| rng.next_f64() * 4.0 - 2.0).collect())
        .collect();
    let mut x = Vec::with_capacity(k * rows_per_class);
    let mut y = Vec::with_capacity(k * rows_per_class);
    for (class, center) in centers.iter().enumerate() {
        for _ in 0..rows_per_class {
            x.push(
                center
                    .iter()
                    .map(|&c| c + (rng.next_f64() - 0.5) * 1.2)
                    .collect(),
            );
            y.push(class);
        }
    }
    Dataset::new(format!("fuzz_data_{seed:08x}"), x, y, k)
}

/// Salt for the vector stream so vectors are decorrelated from the
/// module structure drawn from the same case seed.
const SEED_0F_VECTORS: u64 = 0x76EC_7025;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            assert_eq!(random_module(seed), random_module(seed));
            let m = random_module(seed);
            assert_eq!(random_vectors(seed, &m, 8), random_vectors(seed, &m, 8));
            let a = random_dataset(seed);
            let b = random_dataset(seed);
            assert_eq!(a.x, b.x);
            assert_eq!(a.y, b.y);
        }
    }

    #[test]
    fn generated_modules_are_valid_and_combinational() {
        for seed in 0..50u64 {
            let m = random_module(seed);
            assert!(m.validate().is_ok(), "seed {seed}");
            assert!(m.is_combinational(), "seed {seed}");
        }
    }

    #[test]
    fn sequential_modules_are_actually_sequential() {
        for seed in 0..10u64 {
            assert!(!random_sequential_module(seed).is_combinational());
        }
    }
}
