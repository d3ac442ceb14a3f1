//! The five differential oracles.
//!
//! Each oracle cross-checks a pair (or more) of independently
//! implemented paths that must agree bit-for-bit:
//!
//! 1. **Engines** — the scalar reference [`netlist::Simulator`] against
//!    the compiled kernel as a 64-lane [`netlist::WideSim`]`<1>` and a
//!    256-lane `WideSim<4>`, with and without an injected stuck-at
//!    fault; plus agreement on *rejecting* cyclic inputs with the same
//!    [`netlist::SimError`] kind, and the kernel's rejection of
//!    sequential ones.
//! 2. **Variation** — the scalar `analog::variation::reference`
//!    analyzers against the compiled lane-batched tapes.
//! 3. **Optimizer** — `netlist::optimize` output proven equivalent to
//!    the raw netlist through the miter verifier.
//! 4. **Serde** — round-trips through the in-repo `serde_json` shim
//!    must reproduce the value and re-encode to the same bytes.
//! 5. **Cache keys** — [`cache::key_for`] must be stable across a serde
//!    re-encode of the artifact (a drifting key silently invalidates —
//!    or worse, aliases — the content-addressed artifact cache).
//!
//! Every oracle returns `Ok(fingerprint)` on agreement, where the
//! fingerprint hashes the *observed behavior* (output words, reports,
//! encodings). Aggregated fingerprints make whole runs comparable
//! across thread counts: sharding may reorder execution, never results.

use std::sync::Arc;

use exec::rng::StdRng;
use ml::quant::{FeatureQuantizer, QuantizedSvm, QuantizedTree};
use ml::tree::{DecisionTree, TreeParams};
use ml::SvmRegressor;
use netlist::{
    check_equivalence, optimize, CompiledNetlist, Equivalence, Fault, Module, SimError, Simulator,
    WideSim,
};

use crate::gen;

/// Identifies one of the five oracle pairs.
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
}

impl OracleKind {
    /// All oracles, in the round-robin order cases are assigned.
    pub const ALL: [OracleKind; 5] = [
        OracleKind::Engines,
        OracleKind::Variation,
        OracleKind::Optimizer,
        OracleKind::Serde,
        OracleKind::CacheKey,
    ];

    /// Stable name used in corpus file names and reports.
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::Engines => "engines",
            OracleKind::Variation => "variation",
            OracleKind::Optimizer => "optimizer",
            OracleKind::Serde => "serde",
            OracleKind::CacheKey => "cache",
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
    }
}

/// Runs both simulation engines over `module` and demands bit-identical
/// outputs: the scalar reference against the compiled kernel at 64 lanes
/// (bound per port) and at 256 lanes (bound from a packed image). A
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
                for (port, &value) in module.inputs.iter().zip(v) {
                    scalar
                        .try_set(&port.name, value)
                        .map_err(|e| format!("scalar set failed: {e}"))?;
                }
                scalar.settle();
                for (o, name) in out_names.iter().enumerate() {
                    expected[o].push(
                        scalar
                            .try_get(name)
                            .map_err(|e| format!("scalar get failed: {e}"))?,
                    );
                }
            }

            // Compiled kernel: one settle for the whole block, at each width.
            let mut narrow: WideSim<1> = WideSim::new(Arc::clone(&compiled));
            for (p, port) in module.inputs.iter().enumerate() {
                let column: Vec<u64> = vectors.iter().map(|v| v[p]).collect();
                narrow
                    .try_set_lanes(&port.name, &column)
                    .map_err(|e| format!("narrow set_lanes failed: {e}"))?;
            }
            narrow.settle();
            let mut wide: WideSim<4> = WideSim::new(Arc::clone(&compiled));
            let image = wide
                .try_pack_vectors(&vectors)
                .map_err(|e| format!("wide pack_vectors failed: {e}"))?;
            wide.try_load_packed(&image)
                .map_err(|e| format!("wide load_packed failed: {e}"))?;
            wide.settle();

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

            // Fault pass: in-place lane-word pinning vs reference clone
            // injection.
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
                narrow.inject_fault(fault.net, fault.stuck_at);
                narrow.settle();
                for name in out_names.iter() {
                    let faulty_out = narrow
                        .try_lanes(name, lanes)
                        .map_err(|e| format!("faulty narrow lanes failed: {e}"))?;
                    for (lane, v) in vectors.iter().enumerate() {
                        for (port, &value) in faulty.inputs.iter().zip(v) {
                            ref_sim
                                .try_set(&port.name, value)
                                .map_err(|e| format!("faulty scalar set failed: {e}"))?;
                        }
                        ref_sim.settle();
                        let want = ref_sim
                            .try_get(name)
                            .map_err(|e| format!("faulty scalar get failed: {e}"))?;
                        if faulty_out[lane] != want {
                            return Err(format!(
                                "fault pinning diverges from reference injection on net \
                                 {:?} stuck at {}: output {name} vector {lane} got {:#x}, \
                                 want {want:#x}",
                                fault.net, fault.stuck_at, faulty_out[lane]
                            ));
                        }
                        h.write_u64(want);
                    }
                }
                narrow.clear_fault();
            }
            Ok(key_word(h.finish()))
        }
    }
}

/// Engines oracle over a generated case seed.
pub fn engines_case(seed: u64) -> Result<u64, String> {
    // One case in eight exercises the rejection-agreement path.
    if seed % 8 == 3 {
        engines_agree(&gen::random_sequential_module(seed), seed)
    } else {
        engines_agree(&gen::random_module(seed), seed)
    }
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
        let compiled = analog::variation::analyze_tree_variation(&qt, &rows, sigma, trials, seed);
        let reference =
            analog::variation::reference::analyze_tree_variation(&qt, &rows, sigma, trials, seed);
        if compiled != reference {
            return Err(format!(
                "compiled tree variation diverges from the scalar reference at sigma \
                 {sigma}, {trials} trials: compiled {compiled:?}, reference {reference:?}"
            ));
        }
        h.write_f64(compiled.mean_agreement);
        h.write_f64(compiled.worst_agreement);
    }

    if rng.gen_bool(0.5) {
        let svm = SvmRegressor::fit(&data, 40, 1e-4);
        let qs = QuantizedSvm::from_svm(&svm, &fq);
        let n = data.n_features();
        let compiled = analog::variation::analyze_svm_variation(&qs, n, &rows, sigma, trials, seed);
        let reference =
            analog::variation::reference::analyze_svm_variation(&qs, n, &rows, sigma, trials, seed);
        if compiled != reference {
            return Err(format!(
                "compiled SVM variation diverges from the scalar reference at sigma \
                 {sigma}, {trials} trials: compiled {compiled:?}, reference {reference:?}"
            ));
        }
        h.write_f64(compiled.mean_agreement);
        h.write_f64(compiled.worst_agreement);
    }
    Ok(key_word(h.finish()))
}

/// Optimizer oracle over an explicit module: `optimize` must produce a
/// miter-verified equivalent circuit.
pub fn optimizer_holds(module: &Module) -> Result<u64, String> {
    let opt = optimize(module);
    match check_equivalence(module, &opt, 12, 128) {
        Ok(Equivalence::Equivalent {
            vectors,
            exhaustive,
        }) => {
            let mut h = hasher("check.optimizer");
            h.write_usize(vectors);
            h.write_bool(exhaustive);
            h.write_usize(opt.gates.len());
            Ok(key_word(h.finish()))
        }
        Ok(Equivalence::CounterExample(v)) => Err(format!(
            "optimizer changed the function: inputs {v:?} distinguish the optimized \
             module ({} gates) from the original ({} gates)",
            opt.gates.len(),
            module.gates.len()
        )),
        Err(e) => Err(format!(
            "miter verification of an optimized module failed outright: {e}"
        )),
    }
}

/// Optimizer oracle over a generated case seed.
pub fn optimizer_case(seed: u64) -> Result<u64, String> {
    optimizer_holds(&gen::random_module(seed))
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
    let module = gen::random_module(seed);
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
/// hashing — [`cache::StableHasher`] has no hidden state).
pub fn cache_case(seed: u64) -> Result<u64, String> {
    let module = gen::random_module(seed);
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
    let mut h = hasher("check.cache.case");
    h.write_u64(fp);
    h.write_bytes(&k1.0);
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
    }
}
