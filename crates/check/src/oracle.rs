//! The six differential oracles.
//!
//! Each oracle cross-checks a pair (or more) of independently
//! implemented paths that must agree bit-for-bit:
//!
//! 1. **Engines** — the scalar reference [`netlist::Simulator`] against
//!    the compiled kernel as a 64-lane [`netlist::WideSim`]`<1>` and a
//!    256-lane `WideSim<4>`; the fault grader's verdict on a random
//!    stuck-at site against clone injection (`netlist::faults::inject`)
//!    on the scalar simulator; plus agreement on *rejecting* cyclic
//!    inputs with the same [`netlist::SimError`] kind, and the kernel's
//!    rejection of sequential ones.
//! 2. **Variation** — the scalar `analog::variation::reference`
//!    analyzers against the compiled lane-batched tapes.
//! 3. **Optimizer** — `netlist::optimize` output proven equivalent to
//!    the raw netlist through the miter verifier.
//! 4. **Serde** — round-trips through the in-repo `serde_json` shim
//!    must reproduce the value and re-encode to the same bytes.
//! 5. **Cache keys** — [`cache::key_for`] must be stable across a serde
//!    re-encode of the artifact (a drifting key silently invalidates —
//!    or worse, aliases — the content-addressed artifact cache).
//! 6. **Model** — every digital circuit `printed_core` generates from a
//!    quantized tree, SVM or forest, simulated on the scalar reference,
//!    against the model's own prediction ([`circuits_match_model`]).
//!
//! Every oracle returns `Ok(fingerprint)` on agreement, where the
//! fingerprint hashes the *observed behavior* (output words, reports,
//! encodings). Aggregated fingerprints make whole runs comparable
//! across thread counts: sharding may reorder execution, never results.

use std::sync::Arc;

use analog::variation::reference;
use analog::{VariationError, VariationReport};
use exec::rng::StdRng;
use ml::forest::{ForestParams, RandomForest};
use ml::quant::{FeatureQuantizer, QuantizedForest, QuantizedSvm, QuantizedTree};
use ml::tree::{DecisionTree, TreeParams};
use ml::SvmRegressor;
use netlist::{
    check_equivalence, optimize, CompiledNetlist, Equivalence, Fault, Module, SimError, Simulator,
    WideSim,
};
use printed_core::bespoke::{bespoke_parallel, bespoke_serial, bespoke_svm};
use printed_core::conventional::serial_tree::{self, SerialTreeSpec};
use printed_core::lookup::{lookup_parallel, lookup_svm};
use printed_core::{
    bespoke_forest, forest_engine, forest_inputs, serial_svm, svm_inputs, tree_inputs, ForestStyle,
    LookupConfig, SvmFlow,
};

use crate::gen;

/// Identifies one of the six oracles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OracleKind {
    /// Digital simulation engines (scalar reference / compiled kernel).
    Engines,
    /// Analog variation: scalar reference vs compiled tapes.
    Variation,
    /// Optimizer output vs raw netlist through the miter verifier.
    Optimizer,
    /// Serde shim round-trips.
    Serde,
    /// Content-addressed cache key stability.
    CacheKey,
    /// Generated circuits vs the quantized models they load.
    Model,
}

impl OracleKind {
    /// All oracles, in the round-robin order cases are assigned.
    pub const ALL: [OracleKind; 6] = [
        OracleKind::Engines,
        OracleKind::Variation,
        OracleKind::Optimizer,
        OracleKind::Serde,
        OracleKind::CacheKey,
        OracleKind::Model,
    ];

    /// Stable name used in corpus file names and reports.
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::Engines => "engines",
            OracleKind::Variation => "variation",
            OracleKind::Optimizer => "optimizer",
            OracleKind::Serde => "serde",
            OracleKind::CacheKey => "cache",
            OracleKind::Model => "model",
        }
    }

    /// Inverse of [`OracleKind::name`].
    pub fn from_name(name: &str) -> Option<OracleKind> {
        OracleKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Vectors per engine-oracle case: one 64-lane pass and a quarter of a
/// 256-lane pass, while still crossing every port-width boundary.
const ENGINE_VECTORS: usize = 48;

fn hasher(domain: &str) -> cache::StableHasher {
    cache::StableHasher::new(domain)
}

fn key_word(k: cache::Key) -> u64 {
    u64::from_le_bytes(k.0[..8].try_into().expect("key is 16 bytes"))
}

/// Classifies a [`SimError`] for rejection-agreement checks: engines
/// must reject an input for the *same reason*, though the messages may
/// carry engine-specific context.
fn error_kind(e: &SimError) -> &'static str {
    match e {
        SimError::InvalidModule { .. } => "invalid",
        SimError::CombinationalCycle { .. } => "cycle",
        SimError::Sequential { .. } => "sequential",
        SimError::UnknownPort { .. } => "unknown-port",
        SimError::TooManyLanes { .. } => "too-many-lanes",
        SimError::VectorArity { .. } => "vector-arity",
        SimError::ImageLength { .. } => "image-length",
        SimError::PortCount { .. } => "port-count",
        SimError::PortShape { .. } => "port-shape",
        SimError::NoSamples { .. } => "no-samples",
    }
}

/// Runs both simulation engines over `module` and demands bit-identical
/// outputs: the scalar reference against the compiled kernel at 64 and
/// at 256 lanes, each bound from a packed image. A
/// module the compiled kernel rejects must be one it may not take — a
/// sequential one — or one the scalar reference rejects for the same
/// reason.
///
/// `vec_seed` drives the input vectors and the fault-site choice.
pub fn engines_agree(module: &Module, vec_seed: u64) -> Result<u64, String> {
    let reference = Simulator::try_new(module);
    match CompiledNetlist::try_compile(module) {
        Err(e) => {
            let kind = error_kind(&e);
            let explained = match &reference {
                _ if kind == "sequential" => !module.is_combinational(),
                Err(r) => error_kind(r) == kind,
                Ok(_) => false,
            };
            if explained {
                let mut h = hasher("check.engines.reject");
                h.write_str(kind);
                Ok(key_word(h.finish()))
            } else {
                Err(match reference {
                    Err(r) => format!(
                        "engines disagree on why the input is rejected: \
                         scalar={r}, compiled={e}"
                    ),
                    Ok(_) => format!("only the compiled engine rejected: {e}"),
                })
            }
        }
        Ok(compiled) => {
            let compiled = Arc::new(compiled);
            let mut scalar =
                reference.map_err(|e| format!("only the scalar engine rejected: {e}"))?;
            let vectors = gen::random_vectors(vec_seed, module, ENGINE_VECTORS);
            let lanes = vectors.len();
            let out_names: Vec<&str> = module.outputs.iter().map(|p| p.name.as_str()).collect();

            // Scalar reference: one settle per vector.
            let mut expected: Vec<Vec<u64>> = vec![Vec::with_capacity(lanes); out_names.len()];
            for v in &vectors {
                let outputs = scalar
                    .try_apply(v, 0)
                    .map_err(|e| format!("scalar apply failed: {e}"))?;
                for (column, value) in expected.iter_mut().zip(outputs) {
                    column.push(value);
                }
            }

            // Compiled kernel: one settle for the whole block, at each width.
            let narrow: WideSim<1> = settled(&compiled, &vectors, "narrow")?;
            let wide: WideSim<4> = settled(&compiled, &vectors, "wide")?;

            let mut h = hasher("check.engines");
            for (o, name) in out_names.iter().enumerate() {
                let n_out = narrow
                    .try_lanes(name, lanes)
                    .map_err(|e| format!("narrow lanes failed: {e}"))?;
                let w_out = wide
                    .try_lanes(name, lanes)
                    .map_err(|e| format!("wide lanes failed: {e}"))?;
                for lane in 0..lanes {
                    let want = expected[o][lane];
                    for (engine, got) in [("narrow", n_out[lane]), ("wide", w_out[lane])] {
                        if got != want {
                            return Err(format!(
                                "{engine} engine disagrees with the scalar simulator on \
                                 output {name} for vector {lane}: got {got:#x}, want {want:#x} \
                                 (inputs {:?})",
                                vectors[lane]
                            ));
                        }
                    }
                    h.write_u64(want);
                }
            }

            // Fault pass: the fault grader's verdict on one random site vs
            // clone injection plus the scalar simulator.
            if !module.gates.is_empty() {
                let mut rng = StdRng::seed_from_u64(exec::seed::mix64(vec_seed ^ 0xFA17));
                let gate = rng.gen_range(0..module.gates.len());
                let fault = Fault {
                    net: module.gates[gate].output,
                    stuck_at: rng.gen_bool(0.5),
                };
                let faulty = netlist::faults::inject(module, fault);
                let mut ref_sim = Simulator::try_new(&faulty)
                    .map_err(|e| format!("reference fault injection broke the module: {e}"))?;
                let faulty_outputs = vectors
                    .iter()
                    .map(|v| ref_sim.try_apply(v, 0))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| format!("faulty scalar apply failed: {e}"))?;
                let mut detected = false;
                for (o, column) in expected.iter().enumerate() {
                    for (outputs, &good) in faulty_outputs.iter().zip(column) {
                        detected |= outputs[o] != good;
                        h.write_u64(outputs[o]);
                    }
                }
                let graded = netlist::try_fault_coverage(module, &vectors)
                    .map_err(|e| format!("fault grading failed: {e}"))?;
                if graded.undetected.contains(&fault) == detected {
                    return Err(format!(
                        "fault grading diverges from reference injection on net {:?} \
                         stuck at {}: reference detected={detected}",
                        fault.net, fault.stuck_at
                    ));
                }
            }
            Ok(key_word(h.finish()))
        }
    }
}

/// A `WideSim` over `compiled`, settled on `vectors` through a packed
/// image; `engine` names it in an error.
fn settled<const W: usize>(
    compiled: &Arc<CompiledNetlist>,
    vectors: &[Vec<u64>],
    engine: &str,
) -> Result<WideSim<W>, String> {
    let mut sim: WideSim<W> = WideSim::new(Arc::clone(compiled));
    let image = sim
        .try_pack_vectors(vectors)
        .map_err(|e| format!("{engine} pack_vectors failed: {e}"))?;
    sim.try_load_packed(&image)
        .map_err(|e| format!("{engine} load_packed failed: {e}"))?;
    sim.settle();
    Ok(sim)
}

/// The module a case of a module-driven oracle runs on, or `None` for the
/// seed-driven ones (variation, model). One engines case in eight runs a
/// sequential module, which exercises the rejection-agreement path.
pub fn case_module(kind: OracleKind, seed: u64) -> Option<Module> {
    match kind {
        OracleKind::Engines if seed % 8 == 3 => Some(gen::random_sequential_module(seed)),
        OracleKind::Engines | OracleKind::Optimizer | OracleKind::Serde | OracleKind::CacheKey => {
            Some(gen::random_module(seed))
        }
        OracleKind::Variation | OracleKind::Model => None,
    }
}

/// Runs a module-driven oracle's module check on `module` (`seed` drives
/// the engines oracle's vectors): what a shrunk or pinned reproducer
/// replays. The seed-driven oracles have no module check.
pub fn check_module(kind: OracleKind, module: &Module, seed: u64) -> Result<u64, String> {
    match kind {
        OracleKind::Engines => engines_agree(module, seed),
        OracleKind::Optimizer => optimizer_holds(module),
        OracleKind::Serde => serde_round_trip_module(module),
        OracleKind::CacheKey => cache_key_stable_module(module),
        OracleKind::Variation | OracleKind::Model => Err(format!(
            "{} cases are seed-driven: their reproducers carry no module",
            kind.name()
        )),
    }
}

/// [`case_module`] for a module-driven oracle's own case.
fn module_of(kind: OracleKind, seed: u64) -> Result<Module, String> {
    case_module(kind, seed).ok_or_else(|| format!("{} cases have no module", kind.name()))
}

/// Engines oracle over a generated case seed.
pub fn engines_case(seed: u64) -> Result<u64, String> {
    engines_agree(&module_of(OracleKind::Engines, seed)?, seed)
}

/// Variation oracle: compiled analog tapes vs the scalar reference
/// analyzers, on a tree and (half the time) an SVM fitted to a random
/// dataset. Reports must match bit-for-bit.
pub fn variation_case(seed: u64) -> Result<u64, String> {
    let mut rng = StdRng::seed_from_u64(exec::seed::mix64(seed ^ 0x7A21A7));
    let data = gen::random_dataset(seed);
    let bits = rng.gen_range(4..=8usize);
    let fq = FeatureQuantizer::fit(&data, bits);
    let rows: Vec<Vec<u64>> = data.x.iter().take(12).map(|r| fq.code_row(r)).collect();
    let sigma = [0.02, 0.05, 0.1][rng.gen_range(0..3usize)];
    let trials = rng.gen_range(4..=10usize);
    let mut h = hasher("check.variation");

    let tree = DecisionTree::fit(&data, TreeParams::with_depth(rng.gen_range(2..=3usize)));
    let qt = QuantizedTree::from_tree(&tree, &fq);
    if qt.comparison_count() > 0 {
        agree(
            &mut h,
            "tree",
            analog::variation_sweep(&qt, &rows, &[sigma], trials, seed),
            || reference::analyze_tree_variation(&qt, &rows, sigma, trials, seed),
        )?;
    }

    if rng.gen_bool(0.5) {
        let svm = SvmRegressor::fit(&data, 40, 1e-4);
        let qs = QuantizedSvm::from_svm(&svm, &fq);
        let n = data.n_features();
        agree(
            &mut h,
            "SVM",
            analog::svm_variation_sweep(&qs, n, &rows, &[sigma], trials, seed),
            || reference::analyze_svm_variation(&qs, n, &rows, sigma, trials, seed),
        )?;
    }
    Ok(key_word(h.finish()))
}

/// The variation oracle's compare-and-hash step: a compiled one-sigma
/// `sweep` must equal the scalar `reference` bit for bit, and its two
/// agreements go into `h`.
fn agree(
    h: &mut cache::StableHasher,
    model: &str,
    sweep: Result<Vec<VariationReport>, VariationError>,
    reference: impl FnOnce() -> VariationReport,
) -> Result<(), String> {
    let sweep = sweep.map_err(|e| format!("{model} variation sweep rejected a valid case: {e}"))?;
    let compiled = &sweep[0];
    let reference = reference();
    if *compiled != reference {
        return Err(format!(
            "compiled {model} variation diverges from the scalar reference at sigma \
             {}, {} trials: compiled {compiled:?}, reference {reference:?}",
            compiled.sigma, compiled.trials
        ));
    }
    h.write_f64(compiled.mean_agreement);
    h.write_f64(compiled.worst_agreement);
    Ok(())
}

/// Optimizer oracle over an explicit module: `optimize` must produce a
/// miter-verified equivalent circuit, never add transistors, and be
/// idempotent (re-optimizing its output keeps the gate count and content
/// key). It may add a gate: collapsing a `Mux2` with one constant data
/// input into an inverter and a two-input gate trades 10 transistors for
/// 8, so a module with nothing else to fold can come out one gate larger.
pub fn optimizer_holds(module: &Module) -> Result<u64, String> {
    let opt = optimize(module);
    let (vectors, exhaustive) = match check_equivalence(module, &opt, 12, 128) {
        Ok(Equivalence::Equivalent {
            vectors,
            exhaustive,
        }) => (vectors, exhaustive),
        Ok(Equivalence::CounterExample(v)) => {
            return Err(format!(
                "optimizer changed the function: inputs {v:?} distinguish the optimized \
                 module ({} gates) from the original ({} gates)",
                opt.gates.len(),
                module.gates.len()
            ))
        }
        Err(e) => {
            return Err(format!(
                "miter verification of an optimized module failed outright: {e}"
            ))
        }
    };
    if opt.transistor_count() > module.transistor_count() {
        return Err(format!(
            "optimizer added transistors: {} in, {} out",
            module.transistor_count(),
            opt.transistor_count()
        ));
    }
    let again = optimize(&opt);
    let key = |m: &Module| cache::key_for("check.optimizer", m);
    if again.gates.len() != opt.gates.len() || key(&again) != key(&opt) {
        return Err(format!(
            "optimizer is not idempotent: re-optimizing its {}-gate output gave {} gates",
            opt.gates.len(),
            again.gates.len()
        ));
    }
    let mut h = hasher("check.optimizer");
    h.write_usize(vectors);
    h.write_bool(exhaustive);
    h.write_usize(opt.gates.len());
    Ok(key_word(h.finish()))
}

/// Optimizer oracle over a generated case seed.
pub fn optimizer_case(seed: u64) -> Result<u64, String> {
    optimizer_holds(&module_of(OracleKind::Optimizer, seed)?)
}

fn round_trip<T>(what: &str, value: &T, h: &mut cache::StableHasher) -> Result<(), String>
where
    T: serde::Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
{
    let encoded =
        serde_json::to_string(value).map_err(|e| format!("{what}: encode failed: {e:?}"))?;
    let decoded: T =
        serde_json::from_str(&encoded).map_err(|e| format!("{what}: decode failed: {e:?}"))?;
    if &decoded != value {
        return Err(format!("{what}: round-trip changed the value"));
    }
    let re_encoded =
        serde_json::to_string(&decoded).map_err(|e| format!("{what}: re-encode failed: {e:?}"))?;
    if re_encoded != encoded {
        return Err(format!(
            "{what}: encoding is not canonical — re-encoding the decoded value \
             produced different bytes"
        ));
    }
    h.write_str(&encoded);
    Ok(())
}

/// Serde oracle over an explicit module.
pub fn serde_round_trip_module(module: &Module) -> Result<u64, String> {
    let mut h = hasher("check.serde");
    round_trip("Module", module, &mut h)?;
    Ok(key_word(h.finish()))
}

/// Serde oracle: every serializable artifact class must survive a
/// round-trip through the in-repo shim unchanged and re-encode to
/// identical bytes.
pub fn serde_case(seed: u64) -> Result<u64, String> {
    let mut h = hasher("check.serde");
    let module = module_of(OracleKind::Serde, seed)?;
    round_trip("Module", &module, &mut h)?;

    let data = gen::random_dataset(seed);
    round_trip("Dataset", &data, &mut h)?;

    let tree = DecisionTree::fit(&data, TreeParams::with_depth(3));
    round_trip("DecisionTree", &tree, &mut h)?;
    let fq = FeatureQuantizer::fit(&data, 6);
    round_trip("FeatureQuantizer", &fq, &mut h)?;
    let qt = QuantizedTree::from_tree(&tree, &fq);
    round_trip("QuantizedTree", &qt, &mut h)?;
    let svm = SvmRegressor::fit(&data, 20, 1e-4);
    round_trip("SvmRegressor", &svm, &mut h)?;
    let qs = QuantizedSvm::from_svm(&svm, &fq);
    round_trip("QuantizedSvm", &qs, &mut h)?;
    Ok(key_word(h.finish()))
}

/// Cache-key oracle over an explicit module: [`cache::key_for`] must be
/// invariant under a serde re-encode of the module.
pub fn cache_key_stable_module(module: &Module) -> Result<u64, String> {
    let k1 = cache::key_for("check.fuzz.module", module);
    let encoded = serde_json::to_string(module).map_err(|e| format!("encode failed: {e:?}"))?;
    let decoded: Module =
        serde_json::from_str(&encoded).map_err(|e| format!("decode failed: {e:?}"))?;
    let k2 = cache::key_for("check.fuzz.module", &decoded);
    if k1 != k2 {
        return Err(format!(
            "module cache key drifted across a serde round-trip: {k1:?} vs {k2:?}"
        ));
    }
    let k3 = cache::key_for_serialized("check.fuzz.module.json", module);
    let k4 = cache::key_for_serialized("check.fuzz.module.json", &decoded);
    if k3 != k4 {
        return Err(format!(
            "serialized-form cache key drifted across a round-trip: {k3:?} vs {k4:?}"
        ));
    }
    let mut h = hasher("check.cache");
    h.write_bytes(&k1.0);
    h.write_bytes(&k3.0);
    Ok(key_word(h.finish()))
}

/// Cache-key oracle: structural and serialized-form keys of modules and
/// datasets must be stable across re-encodes (and across repeat
/// hashing — [`cache::StableHasher`] has no hidden state), and flipping
/// one bit of one dataset value must move the dataset's key.
pub fn cache_case(seed: u64) -> Result<u64, String> {
    let module = module_of(OracleKind::CacheKey, seed)?;
    let fp = cache_key_stable_module(&module)?;
    let data = gen::random_dataset(seed);
    let k1 = cache::key_for("check.fuzz.dataset", &data);
    let k2 = cache::key_for("check.fuzz.dataset", &data);
    if k1 != k2 {
        return Err(format!(
            "dataset cache key is not deterministic: {k1:?} vs {k2:?}"
        ));
    }
    let encoded = serde_json::to_string(&data).map_err(|e| format!("encode failed: {e:?}"))?;
    let decoded: ml::Dataset =
        serde_json::from_str(&encoded).map_err(|e| format!("decode failed: {e:?}"))?;
    let k3 = cache::key_for("check.fuzz.dataset", &decoded);
    if k1 != k3 {
        return Err(format!(
            "dataset cache key drifted across a serde round-trip: {k1:?} vs {k3:?}"
        ));
    }
    let mut rng = StdRng::seed_from_u64(exec::seed::mix64(seed ^ 0xB17F11));
    let mut flipped = data.clone();
    let row = rng.gen_range(0..flipped.x.len());
    let col = rng.gen_range(0..flipped.x[row].len());
    let bit = rng.gen_range(0..64u32);
    let v = &mut flipped.x[row][col];
    *v = f64::from_bits(v.to_bits() ^ (1u64 << bit));
    if cache::key_for("check.fuzz.dataset", &flipped) == k1 {
        return Err(format!(
            "flipping bit {bit} of x[{row}][{col}] left the dataset cache key at {k1:?}"
        ));
    }
    let mut h = hasher("check.cache.case");
    h.write_u64(fp);
    h.write_bytes(&k1.0);
    Ok(key_word(h.finish()))
}

/// A quantized model, named with the circuits [`circuits_match_model`]
/// generates from it.
#[derive(Debug, Clone, Copy)]
pub enum Model<'a> {
    /// A tree, through the bespoke parallel and serial engines and the
    /// baseline and optimized lookup engines.
    Tree(&'a QuantizedTree),
    /// A tree loaded as the program of the conventional serial engine
    /// sized for the given depth ([`SerialTreeSpec::conventional`]).
    ConventionalTree(&'a QuantizedTree, usize),
    /// An SVM, through the bespoke parallel and serial engines and, up
    /// to [`LOOKUP_SVM_BITS`], the baseline and optimized lookup engines.
    Svm(&'a QuantizedSvm),
    /// A forest, through the bespoke and the optimized lookup engines.
    Forest(&'a QuantizedForest),
}

/// The widest SVM [`circuits_match_model`] builds lookup engines for:
/// each term's product table holds `2^bits` words, so a 16-bit lookup
/// SVM is deliberately catastrophic.
pub const LOOKUP_SVM_BITS: usize = 8;

/// One generated circuit: what it is, its netlist and its clock cycles
/// per inference.
type Circuit = (&'static str, Module, usize);

impl Model<'_> {
    /// Every digital circuit generated from the model.
    fn circuits(self) -> Result<Vec<Circuit>, String> {
        let lookups = [
            ("baseline lookup", LookupConfig::baseline()),
            ("optimized lookup", LookupConfig::optimized()),
        ];
        Ok(match self {
            Model::Tree(qt) => {
                let (spec, serial) = bespoke_serial(qt);
                let mut circuits = vec![
                    ("bespoke parallel tree", bespoke_parallel(qt), 1),
                    ("bespoke serial tree", serial, spec.depth),
                ];
                for (name, config) in lookups {
                    circuits.push((name, lookup_parallel(qt, config), 1));
                }
                circuits
            }
            Model::ConventionalTree(qt, depth) => {
                let spec = SerialTreeSpec::conventional(depth);
                if qt.depth() > spec.depth
                    || qt.bits() > spec.width
                    || qt.used_features().len() > spec.n_features
                    || qt.n_classes() > 1 << spec.class_bits
                {
                    return Err(format!(
                        "a depth-{} {}-bit tree over {} features and {} classes does not \
                         fit the conventional depth-{depth} serial engine",
                        qt.depth(),
                        qt.bits(),
                        qt.used_features().len(),
                        qt.n_classes()
                    ));
                }
                let program = serial_tree::program(qt, &spec);
                let module = serial_tree::generate(&spec, &program);
                vec![("conventional serial tree", module, spec.depth)]
            }
            Model::Svm(qs) => {
                let (serial, info) = serial_svm(qs);
                let mut circuits = vec![
                    ("bespoke SVM", bespoke_svm(qs), SvmFlow::CYCLES),
                    ("serial SVM", serial, info.cycles),
                ];
                if qs.bits() <= LOOKUP_SVM_BITS {
                    for (name, config) in lookups {
                        circuits.push((name, lookup_svm(qs, config), SvmFlow::CYCLES));
                    }
                }
                circuits
            }
            Model::Forest(qf) => {
                let lookup = ForestStyle::Lookup(LookupConfig::optimized());
                vec![
                    ("bespoke forest", bespoke_forest(qf), 1),
                    ("lookup forest", forest_engine(qf, lookup), 1),
                ]
            }
        })
    }

    /// The input vector of a `ports`-input circuit for feature `codes`.
    fn inputs(self, codes: &[u64], ports: usize) -> Vec<u64> {
        match self {
            Model::Tree(qt) | Model::ConventionalTree(qt, _) => tree_inputs(qt, codes, ports),
            Model::Svm(qs) => svm_inputs(qs, codes),
            Model::Forest(qf) => forest_inputs(qf, codes),
        }
    }

    /// The model's class for feature `codes`.
    fn predict(self, codes: &[u64]) -> usize {
        match self {
            Model::Tree(qt) | Model::ConventionalTree(qt, _) => qt.predict(codes),
            Model::Svm(qs) => qs.predict(codes),
            Model::Forest(qf) => qf.predict(codes),
        }
    }
}

/// The model oracle's comparison: generates every digital circuit of
/// `model` and checks each with [`circuit_matches_model`]. The
/// fingerprint hashes the classes, not the netlists, so a generator
/// rewrite that keeps every class keeps it.
pub fn circuits_match_model(model: Model<'_>, rows: &[Vec<u64>]) -> Result<u64, String> {
    let mut h = hasher("check.model");
    for (name, module, cycles) in model.circuits()? {
        h.write_str(name);
        for class in circuit_matches_model(model, name, &module, cycles, rows)? {
            h.write_u64(class);
        }
    }
    Ok(key_word(h.finish()))
}

/// Simulates each row of feature codes through `module`, the `name`
/// circuit generated from `model`, on the scalar [`Simulator`] at
/// `cycles` clock cycles per inference. Its `class` output must equal
/// the model's prediction on every row; returns those classes.
pub fn circuit_matches_model(
    model: Model<'_>,
    name: &str,
    module: &Module,
    cycles: usize,
    rows: &[Vec<u64>],
) -> Result<Vec<u64>, String> {
    let class = module
        .outputs
        .iter()
        .position(|p| p.name == "class")
        .ok_or_else(|| format!("the {name} circuit has no class output"))?;
    let mut sim = Simulator::try_new(module)
        .map_err(|e| format!("the simulator rejected the {name} circuit: {e}"))?;
    let mut classes = Vec::with_capacity(rows.len());
    for codes in rows {
        let inputs = model.inputs(codes, module.inputs.len());
        let outputs = sim
            .try_apply(&inputs, cycles)
            .map_err(|e| format!("the {name} circuit failed to simulate: {e}"))?;
        let (got, want) = (outputs[class], model.predict(codes) as u64);
        if got != want {
            return Err(format!(
                "the {name} circuit computes class {got} where its model predicts \
                 {want}, for feature codes {codes:?}"
            ));
        }
        classes.push(got);
    }
    Ok(classes)
}

/// Model oracle: fits a depth 1–4 tree, an SVM-R and a 3-tree forest to
/// a random dataset, quantizes the tree and forest at 2–8 bits, the SVM
/// at 2–6 and the tree again at the conventional engines' 8, and checks
/// every circuit generated from each against it on every dataset row.
pub fn model_case(seed: u64) -> Result<u64, String> {
    let mut rng = StdRng::seed_from_u64(exec::seed::mix64(seed ^ 0x30DE1));
    let data = gen::random_dataset(seed);
    let depth = rng.gen_range(1..=4usize);
    let bits = rng.gen_range(2..=8usize);
    let svm_bits = rng.gen_range(2..=6usize);
    let params = TreeParams::with_depth(depth);
    let tree = DecisionTree::fit(&data, params);
    let forest = RandomForest::fit(
        &data,
        ForestParams {
            n_trees: 3,
            tree: params,
            seed,
        },
    );
    let svm = SvmRegressor::fit(&data, 40, 1e-4);

    let quantizer = |bits| {
        let fq = FeatureQuantizer::fit(&data, bits);
        let rows: Vec<Vec<u64>> = data.x.iter().map(|r| fq.code_row(r)).collect();
        (fq, rows)
    };
    let (fq, rows) = quantizer(bits);
    let (fq8, rows8) = quantizer(8);
    let (fqs, rows_svm) = quantizer(svm_bits);
    let qt = QuantizedTree::from_tree(&tree, &fq);
    let qt8 = QuantizedTree::from_tree(&tree, &fq8);
    let qs = QuantizedSvm::from_svm(&svm, &fqs);
    let qf = QuantizedForest::from_forest(&forest, &fq);

    let mut h = hasher("check.model.case");
    for (model, rows) in [
        (Model::Tree(&qt), &rows),
        (Model::ConventionalTree(&qt8, depth), &rows8),
        (Model::Svm(&qs), &rows_svm),
        (Model::Forest(&qf), &rows),
    ] {
        h.write_u64(circuits_match_model(model, rows)?);
    }
    Ok(key_word(h.finish()))
}

/// Dispatches a case seed to its oracle.
pub fn run_oracle(kind: OracleKind, seed: u64) -> Result<u64, String> {
    match kind {
        OracleKind::Engines => engines_case(seed),
        OracleKind::Variation => variation_case(seed),
        OracleKind::Optimizer => optimizer_case(seed),
        OracleKind::Serde => serde_case(seed),
        OracleKind::CacheKey => cache_case(seed),
        OracleKind::Model => model_case(seed),
    }
}
