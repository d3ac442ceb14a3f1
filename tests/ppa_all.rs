//! `netlist::analyze_all` prices a module in several cell libraries from
//! one levelization; each of its reports must equal `analyze` with that
//! library alone, every field bit for bit.
//!
//! The modules cover each kind of path the shared sweep carries:
//! combinational logic (bespoke trees and SVMs), ROM macros (lookup
//! engines), flip-flops (the serial tree and the registered conventional
//! SVM), raw and optimized, in the three technologies and in the
//! nominal/bent-corner pair the deployment ablation prices.

use printed_ml::core::flow::{SvmArch, SvmFlow, TreeArch, TreeFlow};
use printed_ml::core::lookup::LookupConfig;
use printed_ml::ml::synth::Application;
use printed_ml::netlist::{analyze, analyze_all, optimize, Module, Ppa};
use printed_ml::pdk::{CellLibrary, Technology};

/// Every field of a report: the `f64`s by their bits, then the counts.
fn bits(p: &Ppa) -> [u64; 10] {
    [
        p.delay.value().to_bits(),
        p.area.value().to_bits(),
        p.power.value().to_bits(),
        p.logic_area.value().to_bits(),
        p.rom_area.value().to_bits(),
        p.logic_power.value().to_bits(),
        p.rom_power.value().to_bits(),
        p.gate_count as u64,
        p.dff_count as u64,
        p.rom_bits as u64,
    ]
}

/// The positions where `analyze_all(m, libs)` differs from `analyze`
/// with the library at the same position of `expected`.
fn differing(m: &Module, libs: &[CellLibrary], expected: &[CellLibrary]) -> Vec<usize> {
    let all = analyze_all(m, libs);
    assert_eq!(all.len(), expected.len(), "one report per library");
    all.iter()
        .zip(expected)
        .enumerate()
        .filter(|(_, (p, lib))| bits(p) != bits(&analyze(m, lib)))
        .map(|(i, _)| i)
        .collect()
}

fn technologies() -> Vec<CellLibrary> {
    Technology::ALL.map(CellLibrary::for_technology).to_vec()
}

fn corners() -> Vec<CellLibrary> {
    let nominal = CellLibrary::for_technology(Technology::Egt);
    let bent = nominal.bent_corner();
    vec![nominal, bent]
}

/// Raw generator outputs, each followed by its optimized netlist.
fn modules() -> Vec<(String, Module)> {
    let tree = TreeFlow::new(Application::Har, 4, 7);
    let svm = SvmFlow::new(Application::Har, 7);
    let digital = "digital architecture";
    let raw = [
        (
            "bespoke_tree",
            tree.module(TreeArch::BespokeParallel).expect(digital),
        ),
        (
            "lookup_tree",
            tree.module(TreeArch::Lookup(LookupConfig::optimized()))
                .expect(digital),
        ),
        (
            "serial_tree",
            tree.module(TreeArch::BespokeSerial).expect(digital),
        ),
        ("bespoke_svm", svm.module(SvmArch::Bespoke).expect(digital)),
        (
            "lookup_svm",
            svm.module(SvmArch::Lookup(LookupConfig::baseline()))
                .expect(digital),
        ),
        (
            "conventional_svm",
            svm.module(SvmArch::Conventional).expect(digital),
        ),
    ];
    raw.into_iter()
        .flat_map(|(name, m)| {
            let opt = optimize(&m);
            [(name.to_string(), m), (format!("{name} (optimized)"), opt)]
        })
        .collect()
}

#[test]
fn every_library_of_one_sweep_matches_its_own_analysis() {
    let modules = modules();
    assert!(modules.iter().any(|(_, m)| !m.roms.is_empty()), "no ROMs");
    assert!(modules.iter().any(|(_, m)| m.dff_count() > 0), "no DFFs");
    for libs in [technologies(), corners()] {
        for (name, m) in &modules {
            assert_eq!(differing(m, &libs, &libs), Vec::<usize>::new(), "{name}");
        }
    }
}

#[test]
fn reversed_libraries_are_caught() {
    // The check above must see a report filed under the wrong library:
    // priced in reverse order, only the middle technology lines up.
    let (_, m) = &modules()[2];
    let libs = technologies();
    let reversed: Vec<CellLibrary> = libs.iter().rev().cloned().collect();
    assert_eq!(differing(m, &reversed, &libs), vec![0, 2]);
    let libs = corners();
    let reversed: Vec<CellLibrary> = libs.iter().rev().cloned().collect();
    assert_eq!(differing(m, &reversed, &libs), vec![0, 1]);
}
