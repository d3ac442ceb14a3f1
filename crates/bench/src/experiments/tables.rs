//! Regenerators for the paper's Tables I–V.

use ml::data::Standardizer;
use ml::forest::{ForestParams, RandomForest};
use ml::linear::{LogisticRegression, SvmClassifier, SvmRegressor};
use ml::metrics::accuracy;
use ml::mlp::{Mlp, MlpParams};
use ml::opcount::{CountOps, OpCount};
use ml::synth::Application;
use ml::tree::DecisionTree;
use netlist::{analyze_all, Ppa};
use pdk::units::{Area, Delay};
use pdk::{CellLibrary, Technology};
use printed_core::conventional::parallel_tree::{generate as gen_parallel, ParallelTreeSpec};
use printed_core::conventional::serial_tree::{
    generate as gen_serial, SerialTreeProgram, SerialTreeSpec,
};
use printed_core::conventional::svm::{generate as gen_svm, SvmSpec};
use printed_core::estimate::component_modules;

use crate::workloads::{DEPTHS, SEED};
use crate::{fmt3, Table};

/// A table unit: the conversion into it and its label.
type Unit<T> = (fn(T) -> f64, &'static str);

/// `tech`'s table units: latency in ms, us or ns and area in cm2, mm2 or
/// um2 for EGT, CNT-TFT or TSMC 40 nm. Power is in mW everywhere.
fn units(tech: Technology) -> (Unit<Delay>, Unit<Area>) {
    match tech {
        Technology::Egt => ((Delay::as_ms, "ms"), (Area::as_cm2, "cm2")),
        Technology::CntTft => ((Delay::as_us, "us"), (Area::as_mm2, "mm2")),
        Technology::Tsmc40 => ((Delay::as_ns, "ns"), (Area::as_um2, "um2")),
    }
}

/// `module` priced in every technology, in `Technology::ALL` order, from
/// one levelization.
fn price(module: &netlist::Module) -> impl Iterator<Item = (Technology, Ppa)> {
    let libs = Technology::ALL.map(CellLibrary::for_technology);
    Technology::ALL.into_iter().zip(analyze_all(module, &libs))
}

/// Table I: PPA of an 8-bit comparator, 8-bit MAC and 8-bit ReLU in each
/// technology.
pub fn table1() -> Vec<Table> {
    let mut t = Table::new(
        "Table I: PPA of common ML operations (measured / paper)",
        &["component", "tech", "delay", "area", "power", "paper D/A/P"],
    );
    type PaperRow = (&'static str, [(f64, f64, f64); 3]);
    let paper: [PaperRow; 3] = [
        (
            "Comparator",
            [(11.2, 0.15, 0.61), (9.5, 0.21, 8.32), (0.23, 94.0, 0.14)],
        ),
        (
            "MAC",
            [(27.0, 1.12, 4.12), (16.14, 1.4, 57.0), (0.57, 255.0, 0.51)],
        ),
        (
            "ReLU",
            [(2.54, 0.03, 0.14), (1.44, 0.35, 10.0), (0.1, 67.0, 0.46)],
        ),
    ];
    for ((name, references), module) in paper.into_iter().zip(component_modules()) {
        for ((tech, ppa), reference) in price(&module).zip(references) {
            let ((time, du), (area, au)) = units(tech);
            t.row(vec![
                name.to_string(),
                tech.to_string(),
                format!("{} {du}", fmt3(time(ppa.latency(1)))),
                format!("{} {au}", fmt3(area(ppa.area))),
                format!("{} mW", fmt3(ppa.power.as_mw())),
                format!(
                    "{}/{}/{}",
                    fmt3(reference.0),
                    fmt3(reference.1),
                    fmt3(reference.2)
                ),
            ]);
        }
    }
    vec![t]
}

/// Table II: accuracy and op counts of every algorithm on every dataset,
/// extended with the §III projected EGT implementation cost (op counts x
/// Table I component costs) that rules the expensive algorithms out.
pub fn table2() -> Vec<Table> {
    let costs = printed_core::ComponentCosts::for_technology(Technology::Egt);
    let mut t = Table::new(
        "Table II: accuracy (A), op counts (#C, #M) and projected EGT cost",
        &["dataset", "model", "A", "#C", "#M", "EGT area", "EGT power"],
    );
    for app in Application::ALL {
        let (train, test) = app.split(SEED);
        let s = Standardizer::fit(&train);
        let (train, test) = (s.transform(&train), s.transform(&test));
        let acc = |pred: &mut dyn FnMut(&[f64]) -> usize| {
            accuracy(test.x.iter().map(|r| pred(r)), test.y.iter().copied())
                .expect("predictions align with test labels")
        };
        let row = |tag: &str, ops: OpCount, a: f64| {
            let est = printed_core::estimate(&ops, &costs);
            vec![
                app.name().into(),
                tag.into(),
                fmt3(a),
                ops.comparisons.to_string(),
                ops.macs.to_string(),
                format!("{}", est.area),
                format!("{}", est.power),
            ]
        };
        let trees = DecisionTree::fit_depths(&train, &DEPTHS);
        for (depth, m) in DEPTHS.into_iter().zip(trees) {
            t.row(row(
                &format!("DT-{depth}"),
                m.op_count(),
                acc(&mut |r| m.predict(r)),
            ));
        }
        let rf8 = RandomForest::fit(&train, ForestParams::paper(8));
        for n in [2usize, 4, 8] {
            let m = rf8.prefix(n);
            t.row(row(
                &format!("RF-{n}"),
                m.op_count(),
                acc(&mut |r| m.predict(r)),
            ));
        }
        for (tag, params) in [("MLP-1", MlpParams::mlp1()), ("MLP-3", MlpParams::mlp3())] {
            let m = Mlp::fit(&train, &params);
            t.row(row(tag, m.op_count(), acc(&mut |r| m.predict(r))));
        }
        let m = LogisticRegression::fit(&train, 150, 0.5);
        t.row(row("LR", m.op_count(), acc(&mut |r| m.predict(r))));
        let m = SvmClassifier::fit(&train, 4, 1e-3, SEED);
        t.row(row("SVM-C", m.op_count(), acc(&mut |r| m.predict(r))));
        let m = SvmRegressor::fit(&train, 200, 1e-4);
        t.row(row("SVM-R", m.op_count(), acc(&mut |r| m.predict(r))));
    }
    vec![t]
}

/// Table III: conventional serial trees at depths 1/2/4/8 in each
/// technology (logic vs memory split).
pub fn table3() -> Vec<Table> {
    let mut t = Table::new(
        "Table III: conventional serial trees (L = logic, M = memory)",
        &[
            "tree", "tech", "latency", "area L", "area M", "power L", "power M", "gates",
        ],
    );
    for depth in [1usize, 2, 4, 8] {
        let spec = SerialTreeSpec::conventional(depth);
        let prog = SerialTreeProgram {
            threshold_rom: vec![0; 1 << (depth + 1)],
            class_rom: vec![0; 1 << depth],
        };
        let module = gen_serial(&spec, &prog);
        for (tech, ppa) in price(&module) {
            let ((time, du), (area, au)) = units(tech);
            t.row(vec![
                format!("DT-{depth}"),
                tech.to_string(),
                format!("{} {du}", fmt3(time(ppa.latency(depth)))),
                format!("{} {au}", fmt3(area(ppa.logic_area))),
                format!("{} {au}", fmt3(area(ppa.rom_area))),
                format!("{} mW", fmt3(ppa.logic_power.as_mw())),
                format!("{} mW", fmt3(ppa.rom_power.as_mw())),
                ppa.gate_count.to_string(),
            ]);
        }
    }
    vec![t]
}

/// Table IV: conventional maximally parallel trees.
pub fn table4() -> Vec<Table> {
    let mut t = Table::new(
        "Table IV: conventional maximally parallel trees",
        &["tree", "tech", "latency", "area", "power", "gates"],
    );
    for depth in [1usize, 2, 4, 8] {
        let module = gen_parallel(&ParallelTreeSpec::conventional(depth));
        for (tech, ppa) in price(&module) {
            let ((time, du), (area, au)) = units(tech);
            t.row(vec![
                format!("DT-{depth}"),
                tech.to_string(),
                format!("{} {du}", fmt3(time(ppa.latency(1)))),
                format!("{} {au}", fmt3(area(ppa.area))),
                format!("{} mW", fmt3(ppa.power.as_mw())),
                ppa.gate_count.to_string(),
            ]);
        }
    }
    vec![t]
}

/// The conventional SVM engine of `spec` priced in every technology, in
/// `Technology::ALL` order. Memoized under `core.conv_svm.ppa` and keyed
/// by the spec, which is all the engine's netlist depends on, so a warm
/// run neither generates nor prices Table V's 847k gates.
pub fn conv_svm_ppa(spec: &SvmSpec) -> Vec<Ppa> {
    cache::memo("core.conv_svm.ppa", spec, || {
        price(&gen_svm(spec)).map(|(_, ppa)| ppa).collect()
    })
}

/// Table V: conventional SVM engines at 4/8/12/16-bit widths.
pub fn table5() -> Vec<Table> {
    let mut t = Table::new(
        "Table V: conventional SVMs (263 features)",
        &["svm", "tech", "latency", "area", "power", "gates"],
    );
    for width in [4usize, 8, 12, 16] {
        let priced = conv_svm_ppa(&SvmSpec::conventional(width));
        for (tech, ppa) in Technology::ALL.into_iter().zip(priced) {
            let ((time, du), (area, au)) = units(tech);
            t.row(vec![
                format!("SVM-{width}"),
                tech.to_string(),
                format!("{} {du}", fmt3(time(ppa.latency(1)))),
                format!("{} {au}", fmt3(area(ppa.area))),
                format!("{} mW", fmt3(ppa.power.as_mw())),
                ppa.gate_count.to_string(),
            ]);
        }
    }
    vec![t]
}
