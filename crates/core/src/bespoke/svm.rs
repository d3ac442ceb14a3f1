//! Bespoke regression-SVM engines (§IV-B, Fig. 4c, Fig. 11).
//!
//! Coefficient registers are replaced by hardwired trained values
//! (flip-flops are brutally expensive in print: an EGT DFF is 1.41 mm² and
//! 121 µW), array multipliers become constant-coefficient shift-add
//! networks, and the class mapper's boundaries fold into the comparators.
//! Signed arithmetic is realized unsigned: positive- and negative-
//! coefficient terms accumulate in separate adder trees `P` and `N`, and
//! each boundary test `P − N > B` becomes `P > N + B` with the constant
//! folded in.

use ml::quant::{max_code_for_bits, QuantizedSvm};
use netlist::arith::{add, adder_tree, const_multiply};
use netlist::builder::NetlistBuilder;
use netlist::comb::unsigned_gt;
use netlist::ir::{Module, Signal};
use netlist::optimize;

use crate::conventional::svm::popcount;
use crate::ports::svm_ports;

/// Generates the bespoke SVM engine for a quantized regressor
/// (post-optimization).
///
/// Ports: `x{f}` for every feature with a non-zero trained coefficient
/// (`f` = original feature index), outputs `class` and the raw thermometer
/// bits `therm`.
pub fn bespoke_svm(svm: &QuantizedSvm) -> Module {
    let _span = obs::span("gen.bespoke_svm");
    crate::record_generated(optimize(&bespoke_svm_raw(svm)))
}

/// The unoptimized bespoke SVM engine — the sign-off *reference* the
/// `--verify` flow equivalence-checks [`bespoke_svm`]'s rewritten netlist
/// against.
pub fn bespoke_svm_raw(svm: &QuantizedSvm) -> Module {
    svm_engine("bespoke_svm", svm, const_multiply)
}

/// The fully parallel SVM datapath: one `x{f}` port per live feature,
/// one `product(b, x, m)` per coefficient term, adder trees `P` and `N`,
/// and the class mapper driving the `class` and `therm` outputs.
pub(crate) fn svm_engine(
    name: &str,
    svm: &QuantizedSvm,
    mut product: impl FnMut(&mut NetlistBuilder, &[Signal], u64) -> Vec<Signal>,
) -> Module {
    let mut b = NetlistBuilder::new(name);
    let ports = svm_ports(&mut b, svm);
    let width = comparison_width(svm);
    let mut tree_for = |b: &mut NetlistBuilder, terms: &[(usize, u64)]| -> Vec<Signal> {
        if terms.is_empty() {
            return b.const_word(0, width);
        }
        let products: Vec<Vec<Signal>> = terms
            .iter()
            .map(|&(f, m)| product(b, &ports[&f], m))
            .collect();
        let mut sum = adder_tree(b, &products);
        sum.resize(width, Signal::ZERO);
        sum
    };
    let p = tree_for(&mut b, svm.pos_terms());
    let n = tree_for(&mut b, svm.neg_terms());
    let (class, therm) = class_mapper(&mut b, svm.boundaries(), &p, &n);
    b.output("class", &class);
    b.output("therm", &therm);
    b.finish()
}

/// Width of the `P` and `N` sums: wide enough for the largest of `P` and
/// `N + |B|` over the whole code space, plus one guard bit.
pub(crate) fn comparison_width(svm: &QuantizedSvm) -> usize {
    let max_code = u128::from(max_code_for_bits(svm.bits()));
    let bound =
        |terms: &[(usize, u64)]| -> u128 { terms.iter().map(|&(_, m)| m as u128 * max_code).sum() };
    let max_b = svm.boundaries().iter().map(|&v| v.unsigned_abs() as u128);
    let max_val = bound(svm.pos_terms())
        .max(bound(svm.neg_terms()) + max_b.max().unwrap_or(0))
        .max(1);
    (128 - max_val.leading_zeros() as usize) + 1
}

/// The class mapper: one boundary test `P − N > B_c` per boundary, kept
/// unsigned by moving the constant to the side that keeps it positive,
/// and a population count of the thermometer bits. `p` and `n` share one
/// width. Returns the `class` and `therm` output words.
pub(crate) fn class_mapper(
    b: &mut NetlistBuilder,
    boundaries: &[i64],
    p: &[Signal],
    n: &[Signal],
) -> (Vec<Signal>, Vec<Signal>) {
    let width = p.len();
    let therm: Vec<Signal> = boundaries
        .iter()
        .map(|&boundary| {
            let bconst = b.const_word(boundary.unsigned_abs(), width);
            let (mut lhs, mut rhs) = if boundary >= 0 {
                (p.to_vec(), add(b, n, &bconst))
            } else {
                (add(b, p, &bconst), n.to_vec())
            };
            lhs.resize(width + 1, Signal::ZERO);
            rhs.resize(width + 1, Signal::ZERO);
            unsigned_gt(b, &lhs, &rhs)
        })
        .collect();
    if therm.is_empty() {
        (b.const_word(0, 1), vec![Signal::ZERO])
    } else {
        (popcount(b, &therm), therm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conventional::svm::{generate as gen_conv, SvmSpec};
    use crate::ports::svm_inputs;
    use ml::data::Standardizer;
    use ml::quant::FeatureQuantizer;
    use ml::synth::Application;
    use ml::SvmRegressor;
    use netlist::analyze;
    use netlist::sim::Simulator;
    use pdk::{CellLibrary, Technology};

    fn setup(app: Application, bits: usize) -> (QuantizedSvm, FeatureQuantizer, ml::Dataset) {
        let data = app.generate(7);
        let (train, test) = data.split(0.7, 42);
        let s = Standardizer::fit(&train);
        let (train, test) = (s.transform(&train), s.transform(&test));
        let svm = SvmRegressor::fit(&train, 200, 1e-4);
        let fq = FeatureQuantizer::fit(&train, bits);
        (QuantizedSvm::from_svm(&svm, &fq), fq, test)
    }

    fn check_equivalence(app: Application, bits: usize, samples: usize) {
        let (qs, fq, test) = setup(app, bits);
        let module = bespoke_svm(&qs);
        let mut sim = Simulator::new(&module);
        for row in test.x.iter().take(samples) {
            let codes = fq.code_row(row);
            let outputs = sim.try_apply(&svm_inputs(&qs, &codes), 0);
            // Outputs: `class`, then `therm`.
            assert_eq!(outputs.map(|o| o[0]), Ok(qs.predict(&codes) as u64));
        }
    }

    #[test]
    fn bespoke_svm_matches_software_svm() {
        check_equivalence(Application::RedWine, 8, 120);
        check_equivalence(Application::WhiteWine, 8, 80);
        check_equivalence(Application::Har, 4, 80);
    }

    #[test]
    fn bespoke_svm_is_an_order_cheaper_than_conventional() {
        // Fig. 11: 1.4× delay, 12.8× area, 12.7× power (EGT averages)
        // against the 263-feature conventional engine. A fair shape check:
        // compare against a conventional engine sized to the same feature
        // count, expecting several-fold improvements.
        let lib = CellLibrary::for_technology(Technology::Egt);
        let (qs, _, _) = setup(Application::RedWine, 8);
        let conv = analyze(
            &gen_conv(&SvmSpec {
                width: 8,
                n_features: 11,
                n_boundaries: 5,
            }),
            &lib,
        );
        let besp = analyze(&bespoke_svm(&qs), &lib);
        assert!(
            conv.area.ratio(besp.area) > 3.0,
            "area {}",
            conv.area.ratio(besp.area)
        );
        assert!(conv.power.ratio(besp.power) > 3.0);
        assert!(conv.delay >= besp.delay);
    }

    #[test]
    fn no_registers_and_no_multipliers_survive() {
        let (qs, _, _) = setup(Application::RedWine, 8);
        let module = bespoke_svm(&qs);
        assert_eq!(module.dff_count(), 0);
    }

    #[test]
    fn thermometer_output_is_monotone() {
        let (qs, fq, test) = setup(Application::WhiteWine, 8);
        let module = bespoke_svm(&qs);
        let mut sim = Simulator::new(&module);
        for row in test.x.iter().take(60) {
            let codes = fq.code_row(row);
            let outputs = sim.try_apply(&svm_inputs(&qs, &codes), 0);
            let t = outputs.expect("one value per live feature")[1];
            // Thermometer: once a zero appears, no ones above it.
            let ones = t.trailing_ones() as u64;
            assert_eq!(t, (1u64 << ones) - 1, "non-thermometer pattern {t:b}");
        }
    }
}
