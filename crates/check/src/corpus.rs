//! Minimized-reproducer corpus.
//!
//! Every mismatch the fuzzer ever finds is distilled (via
//! [`crate::shrink`]) into a [`Reproducer`] and written under
//! `crates/check/corpus/` as JSON. The corpus is committed: the replay
//! test (`tests/corpus_replay.rs`) runs every entry through its oracle
//! on every CI build, so a fixed bug stays fixed forever. Entries can
//! also encode *bug classes* seeded by hand — a cyclic module, a
//! constant-folding identity, a ROM round-trip — pinning behavior the
//! random generator only reaches probabilistically.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use netlist::Module;
use serde::{Deserialize, Serialize};

use crate::oracle::{self, OracleKind};

/// One pinned reproducer: the oracle it targets, the case seed, and —
/// when the minimized input is a netlist — the module itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reproducer {
    /// Oracle name ([`OracleKind::name`]).
    pub oracle: String,
    /// Case seed (drives vectors / datasets / Monte-Carlo streams).
    pub seed: u64,
    /// What bug class this pins, for humans reading the corpus.
    pub note: String,
    /// Minimized module, when the failing input was a netlist. `None`
    /// replays the oracle from the seed alone.
    pub module: Option<Module>,
}

impl Reproducer {
    /// Canonical corpus file name for this entry.
    pub fn file_name(&self) -> String {
        format!("{}_{:016x}.json", self.oracle, self.seed)
    }

    /// Replays the reproducer through its oracle. `Ok(())` means the
    /// bug it pins is still fixed; `Err` carries the oracle's mismatch
    /// report.
    pub fn replay(&self) -> Result<(), String> {
        let kind = OracleKind::from_name(&self.oracle)
            .ok_or_else(|| format!("unknown oracle {:?}", self.oracle))?;
        match &self.module {
            Some(m) => oracle::check_module(kind, m, self.seed).map(|_| ()),
            None => oracle::run_oracle(kind, self.seed).map(|_| ()),
        }
    }
}

/// Writes `repro` into `dir` (created if missing). Returns the path.
pub fn save(dir: &Path, repro: &Reproducer) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(repro.file_name());
    let json = serde_json::to_string_pretty(repro)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
    fs::write(&path, json + "\n")?;
    Ok(path)
}

/// Loads every `*.json` reproducer under `dir`, sorted by file name so
/// replay order (and failure reports) are stable.
pub fn load_all(dir: &Path) -> io::Result<Vec<(PathBuf, Reproducer)>> {
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let text = fs::read_to_string(&path)?;
        let repro: Reproducer = serde_json::from_str(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e:?}", path.display()),
            )
        })?;
        out.push((path, repro));
    }
    Ok(out)
}

/// The committed corpus directory of this crate.
pub fn default_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus"))
}

/// Builds the hand-seeded bug-class fixtures. Deterministic: running
/// `check_fuzz --repin-corpus` always regenerates byte-identical files.
pub fn seeded_fixtures() -> Vec<Reproducer> {
    use netlist::builder::NetlistBuilder;
    use netlist::Signal;

    // 1. A combinational cycle: two inverters feeding each other. The
    //    builder cannot express this (it is acyclic by construction), so
    //    the loop is closed by rewiring after finish() — exactly the
    //    kind of module that reaches the engines through serde, where
    //    every engine must agree on rejection instead of hanging or
    //    diverging.
    let mut b = NetlistBuilder::new("pinned_cycle");
    let x = b.input("in0", 1);
    let g0 = b.not(x[0]);
    let g1 = b.not(g0);
    b.output("out0", &[g1]);
    let mut cyclic = b.finish();
    let feedback = cyclic.gates[1].output;
    cyclic.gates[0].inputs[0] = Signal::Net(feedback);
    let cycle_fixture = Reproducer {
        oracle: "engines".to_string(),
        seed: 0x0001,
        note: "all engines must reject a combinational cycle with the same error kind \
               (CombinationalCycle), never diverge or loop"
            .to_string(),
        module: Some(cyclic),
    };

    // 2. Constant-folding identities: xor(a, a), and(x, 1), or(y, 0) —
    //    the PR 3 optimizer class. The optimizer must fold these without
    //    changing the function, proven by the miter.
    let mut b = NetlistBuilder::new("pinned_identities");
    let x = b.input("in0", 2);
    let zero = b.xor(x[0], x[0]);
    let pass = b.and(x[1], Signal::Const(true));
    let keep = b.or(pass, Signal::Const(false));
    let mix = b.or(zero, keep);
    b.output("out0", &[zero, pass, keep, mix]);
    let identities_fixture = Reproducer {
        oracle: "optimizer".to_string(),
        seed: 0x0002,
        note: "constant-folding identities (xor(a,a), and(x,1), or(y,0)) must optimize \
               to an equivalent circuit"
            .to_string(),
        module: Some(b.finish()),
    };

    // 3. A ROM with non-trivial contents: the serde path must preserve
    //    contents, word width and style, and the cache key must not
    //    drift across the round-trip (the PR 9 artifact-cache class).
    let mut b = NetlistBuilder::new("pinned_rom");
    let a = b.input("in0", 2);
    let data = b.rom(
        &a,
        vec![0b101, 0b010, 0b111, 0b000],
        3,
        pdk::RomStyle::BespokeDots,
    );
    b.output("out0", &data);
    let rom_fixture = Reproducer {
        oracle: "serde".to_string(),
        seed: 0x0003,
        note: "ROM contents/width/style must survive a serde round-trip and re-encode \
               canonically"
            .to_string(),
        module: Some(b.finish()),
    };

    // 4. The same ROM module through the cache-key oracle.
    let rom_key_fixture = Reproducer {
        oracle: "cache".to_string(),
        seed: 0x0004,
        note: "structural and serialized-form cache keys of a ROM module must be \
               invariant under a serde re-encode"
            .to_string(),
        module: rom_fixture.module.clone(),
    };

    vec![
        cycle_fixture,
        identities_fixture,
        rom_fixture,
        rom_key_fixture,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_fixtures_are_deterministic_and_replayable() {
        let a = seeded_fixtures();
        let b = seeded_fixtures();
        assert_eq!(a, b);
        for f in &a {
            f.replay().unwrap_or_else(|e| {
                unreachable!("seeded fixture {} regressed: {e}", f.file_name())
            });
        }
    }

    fn cycle_fixture() -> netlist::Module {
        let fixture = seeded_fixtures().swap_remove(0);
        assert_eq!(fixture.seed, 0x0001, "fixture 0 is the combinational cycle");
        fixture.module.expect("the cycle fixture carries a module")
    }

    #[test]
    fn analyze_stops_on_the_cycle_fixture() {
        let m = cycle_fixture();
        let lib = pdk::CellLibrary::for_technology(pdk::Technology::Egt);
        let payload = std::panic::catch_unwind(|| netlist::analyze(&m, &lib))
            .expect_err("a cycle has no critical path");
        let want = netlist::logic_levels(&m).unwrap_err().to_string();
        assert!(want.starts_with("combinational cycle"), "{want}");
        assert_eq!(payload.downcast_ref::<String>(), Some(&want));
    }

    #[test]
    fn logic_levels_stop_on_the_cycle_fixture() {
        let m = cycle_fixture();
        assert!(matches!(
            netlist::logic_levels(&m),
            Err(netlist::SimError::CombinationalCycle { .. })
        ));
        assert!(netlist::max_logic_levels(&m).is_err());
    }

    #[test]
    fn reproducers_round_trip_through_the_shim() {
        for f in seeded_fixtures() {
            let json = serde_json::to_string_pretty(&f).unwrap();
            let back: Reproducer = serde_json::from_str(&json).unwrap();
            assert_eq!(back, f);
        }
    }
}
