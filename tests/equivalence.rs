//! Cross-architecture logic equivalence: bespoke and lookup-based trees
//! generated from the same model must be *provably* the same function —
//! checked with a miter, exhaustively where the input space allows.

use printed_ml::core::bespoke::{bespoke_parallel, bespoke_parallel_raw};
use printed_ml::core::lookup::{lookup_parallel, lookup_parallel_raw, LookupConfig};
use printed_ml::ml::quant::{FeatureQuantizer, QuantizedTree};
use printed_ml::ml::synth::Application;
use printed_ml::ml::tree::{DecisionTree, TreeParams};
use printed_ml::netlist::{check_equivalence, miter, optimize, Equivalence, Module, Simulator};

fn small_tree(app: Application, depth: usize, bits: usize) -> QuantizedTree {
    let data = app.generate(7);
    let (train, _) = data.split(0.7, 42);
    let tree = DecisionTree::fit(&train, TreeParams::with_depth(depth));
    let fq = FeatureQuantizer::fit(&train, bits);
    QuantizedTree::from_tree(&tree, &fq)
}

#[test]
fn bespoke_and_lookup_trees_are_logically_equivalent() {
    for app in [Application::Har, Application::Cardio, Application::RedWine] {
        let qt = small_tree(app, 3, 4);
        let bespoke = bespoke_parallel(&qt);
        for config in [LookupConfig::baseline(), LookupConfig::optimized()] {
            let lookup = lookup_parallel(&qt, config);
            // Port shapes match by construction (same used-feature slots).
            let total_bits: usize = bespoke.inputs.iter().map(|p| p.width()).sum();
            let verdict = check_equivalence(&bespoke, &lookup, 18, 3000).expect("port shapes");
            match verdict {
                Equivalence::Equivalent {
                    exhaustive,
                    vectors,
                } => {
                    if total_bits <= 18 {
                        assert!(exhaustive, "{}: expected a full proof", app.name());
                    }
                    assert!(vectors > 0);
                }
                Equivalence::CounterExample(v) => {
                    panic!("{}: architectures diverge at {v:?}", app.name())
                }
            }
        }
    }
}

#[test]
fn optimization_is_equivalence_preserving_on_real_designs() {
    let qt = small_tree(Application::Pendigits, 4, 4);
    // The raw generator output is the genuine unoptimized reference; the
    // optimized netlist must prove equivalent to it...
    let raw = bespoke_parallel_raw(&qt);
    let once = bespoke_parallel(&qt);
    let verdict = check_equivalence(&raw, &once, 20, 5000).expect("port shapes");
    assert!(verdict.is_equivalent(), "{verdict:?}");
    // ...and optimize() is idempotent, so double-optimization must too.
    let twice = optimize(&once);
    let verdict = check_equivalence(&once, &twice, 20, 5000).expect("port shapes");
    assert!(verdict.is_equivalent(), "{verdict:?}");
    assert_eq!(
        once.gate_count(),
        twice.gate_count(),
        "optimize must be idempotent"
    );
}

#[test]
fn counterexamples_surface_real_divergence() {
    // Two different trees are (almost surely) different functions; the
    // checker must find a witness.
    let a = bespoke_parallel(&small_tree(Application::Har, 2, 4));
    let b = bespoke_parallel(&small_tree(Application::Har, 4, 4));
    if a.inputs.len() == b.inputs.len()
        && a.outputs
            .iter()
            .zip(&b.outputs)
            .all(|(x, y)| x.width() == y.width())
        && a.inputs
            .iter()
            .zip(&b.inputs)
            .all(|(x, y)| x.width() == y.width())
    {
        let verdict = check_equivalence(&a, &b, 16, 4000).expect("port shapes");
        assert!(
            !verdict.is_equivalent(),
            "depth-2 and depth-4 HAR trees should differ somewhere"
        );
    }
}

/// Output port values of `m` under one input vector (values per port).
fn respond(m: &Module, vector: &[u64]) -> Vec<u64> {
    let outputs = Simulator::new(m).try_apply(vector, 0);
    outputs.expect("one value per input port")
}

#[test]
fn shared_miter_roms_never_hide_a_difference() {
    let qt = small_tree(Application::Pendigits, 4, 4);
    let config = LookupConfig::optimized();
    let raw = lookup_parallel_raw(&qt, config);
    let optimized = lookup_parallel(&qt, config);
    assert!(!optimized.roms.is_empty(), "the lookup tree reads ROMs");
    // Every ROM of the optimized netlist matches its raw twin, so the
    // miter instantiates each one once.
    let shared = miter(&raw, &optimized).expect("port shapes");
    assert_eq!(shared.roms.len(), raw.roms.len());
    let verdict = check_equivalence(&raw, &optimized, 20, 5000).expect("port shapes");
    assert!(verdict.is_equivalent(), "{verdict:?}");

    let mut flipped = optimized.clone();
    let rom = &mut flipped.roms[0];
    let row = rom.contents.len() / 2;
    rom.contents[row] ^= 1;
    let mut swapped = optimized.clone();
    let last = swapped.roms[0].addr.len() - 1;
    swapped.roms[0].addr.swap(0, last);
    for (what, candidate) in [("flipped bit", &flipped), ("swapped address", &swapped)] {
        let m = miter(&raw, candidate).expect("port shapes");
        assert_eq!(m.roms.len(), raw.roms.len() + 1, "{what}: ROM kept apart");
        match check_equivalence(&raw, candidate, 20, 5000).expect("port shapes") {
            Equivalence::CounterExample(v) => assert_ne!(
                respond(&raw, &v),
                respond(candidate, &v),
                "{what}: witness {v:?} does not replay"
            ),
            other => panic!("{what}: difference hidden, got {other:?}"),
        }
    }
}
