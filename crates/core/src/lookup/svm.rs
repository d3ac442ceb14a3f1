//! Lookup-based SVMs (§V-A, Figs. 8, 12, 13).
//!
//! Each constant-coefficient multiplier of the bespoke SVM becomes a ROM
//! mapping the feature code to the product `m · code`. Every feature is
//! used exactly once, so there is no decoder sharing — which is why plain
//! lookup SVMs show no benefit (Fig. 12) — but the printing-specific
//! optimizations change the picture (Fig. 13): product tables are full of
//! constant columns (trailing zeros of even coefficients, unused high
//! bits) and dot-resistor arrays only pay for set bits.

use ml::quant::QuantizedSvm;
use netlist::ir::Module;
use netlist::optimize;

use super::{emit_lut, LookupConfig};
use crate::bespoke::svm::svm_engine;

/// Generates the lookup-based SVM engine (post-optimization).
///
/// Ports match [`crate::bespoke::svm::bespoke_svm`]: `x{f}` inputs,
/// `class` and `therm` outputs.
pub fn lookup_svm(svm: &QuantizedSvm, config: LookupConfig) -> Module {
    let _span = obs::span("gen.lookup_svm");
    crate::record_generated(optimize(&lookup_svm_raw(svm, config)))
}

/// The unoptimized lookup-based SVM engine — the sign-off *reference* the
/// `--verify` flow equivalence-checks [`lookup_svm`]'s rewritten netlist
/// against.
pub fn lookup_svm_raw(svm: &QuantizedSvm, config: LookupConfig) -> Module {
    // Product LUT per term: addr = feature code, data = m * code.
    svm_engine("lookup_svm", svm, |b, x, m| {
        let top = m * ((1u64 << x.len()) - 1);
        let bits = (64 - top.leading_zeros() as usize).max(1);
        let contents: Vec<u64> = (0..1u64 << x.len()).map(|code| m * code).collect();
        emit_lut(b, x, &contents, bits, config)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bespoke::svm::bespoke_svm;
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

    fn check_equivalence(app: Application, bits: usize, config: LookupConfig) {
        let (qs, fq, test) = setup(app, bits);
        let module = lookup_svm(&qs, config);
        let mut sim = Simulator::new(&module);
        for row in test.x.iter().take(80) {
            let codes = fq.code_row(row);
            let outputs = sim.try_apply(&svm_inputs(&qs, &codes), 0);
            // Outputs: `class`, then `therm`.
            assert_eq!(outputs.map(|o| o[0]), Ok(qs.predict(&codes) as u64));
        }
    }

    #[test]
    fn lookup_svm_matches_software_svm() {
        check_equivalence(Application::RedWine, 6, LookupConfig::baseline());
        check_equivalence(Application::RedWine, 6, LookupConfig::optimized());
        check_equivalence(Application::Har, 4, LookupConfig::optimized());
    }

    #[test]
    fn plain_lookup_svm_shows_no_benefit() {
        // Fig. 12: without decoder sharing, ROM multipliers lose to
        // constant shift-add multipliers.
        let lib = CellLibrary::for_technology(Technology::Egt);
        let (qs, _, _) = setup(Application::RedWine, 8);
        let besp = analyze(&bespoke_svm(&qs), &lib);
        let lut = analyze(&lookup_svm(&qs, LookupConfig::baseline()), &lib);
        assert!(
            lut.area >= besp.area,
            "baseline lookup should not beat bespoke"
        );
    }

    #[test]
    fn optimizations_recover_lookup_svm_benefits() {
        // Fig. 13: constant columns + dots bring lookup SVMs to parity or
        // better for narrow widths.
        let lib = CellLibrary::for_technology(Technology::Egt);
        let (qs, _, _) = setup(Application::Har, 4);
        let base = analyze(&lookup_svm(&qs, LookupConfig::baseline()), &lib);
        let opt = analyze(&lookup_svm(&qs, LookupConfig::optimized()), &lib);
        assert!(opt.area < base.area);
        assert!(opt.power < base.power);
    }

    #[test]
    fn product_tables_have_constant_columns_to_harvest() {
        // The optimization hook: even coefficients give constant-zero LSB
        // columns, so the optimized build must carry fewer ROM data bits.
        let (qs, _, _) = setup(Application::RedWine, 6);
        let base = lookup_svm(&qs, LookupConfig::baseline());
        let opt = lookup_svm(&qs, LookupConfig::optimized());
        let bits = |m: &netlist::Module| -> usize { m.roms.iter().map(|r| r.data.len()).sum() };
        assert!(bits(&opt) <= bits(&base));
    }
}
