//! Analog architectures wrapped into the common reporting interface
//! (§VI, Figs. 16 and 17).
//!
//! The analog designs live in the `analog` crate (device models, Kirchhoff
//! solvers, transient simulation); this module prices them as
//! [`DesignReport`]s so they slot into the same comparisons as the digital
//! architectures. Analog classifiers are an EGT story — the paper
//! fabricates and evaluates them in EGT only.

use analog::tree::{AnalogTree, AnalogTreeConfig};
use analog::AnalogSvm;
use ml::quant::{QuantizedSvm, QuantizedTree};
use pdk::units::{Area, Delay, Power};
use pdk::Technology;

use crate::report::DesignReport;

/// Prices an analog decision tree.
pub fn analog_tree_report(tree: &QuantizedTree, config: AnalogTreeConfig) -> DesignReport {
    let at = AnalogTree::from_tree(tree, config);
    analog_report(
        format!("analog-tree-d{}", tree.depth()),
        at.latency(),
        at.area(),
        at.static_power(),
        at.transistor_count(),
    )
}

/// Prices an analog SVM engine.
pub fn analog_svm_report(svm: &QuantizedSvm, n_features: usize) -> DesignReport {
    let asvm = AnalogSvm::from_svm(svm, n_features);
    analog_report(
        "analog-svm".into(),
        asvm.latency(),
        asvm.area(),
        asvm.static_power(),
        asvm.transistor_count(),
    )
}

/// An EGT design with no memory and no gates: all of its area and power
/// is analog logic, decided in one cycle.
fn analog_report(
    name: String,
    latency: Delay,
    area: Area,
    power: Power,
    transistors: usize,
) -> DesignReport {
    DesignReport {
        name,
        technology: Technology::Egt,
        latency,
        area,
        power,
        logic_area: area,
        memory_area: Area::ZERO,
        logic_power: power,
        memory_power: Power::ZERO,
        gate_count: 0,
        cycles: 1,
        transistors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bespoke::{bespoke_parallel, bespoke_svm};
    use crate::report::report_from_ppa;
    use ml::data::Standardizer;
    use ml::quant::FeatureQuantizer;
    use ml::synth::Application;
    use ml::tree::{DecisionTree, TreeParams};
    use ml::SvmRegressor;
    use netlist::analyze;
    use pdk::CellLibrary;

    #[test]
    fn analog_tree_dominates_digital_bespoke_in_area_and_power() {
        // Fig. 16: 437× area, 27× power, ~1.6× slower (EGT averages).
        // Band check: two orders of magnitude in area, one in power,
        // slower in latency.
        let data = Application::Pendigits.generate(7);
        let (train, _) = data.split(0.7, 42);
        let tree = DecisionTree::fit(&train, TreeParams::with_depth(8));
        let fq = FeatureQuantizer::fit(&train, 8);
        let qt = QuantizedTree::from_tree(&tree, &fq);
        let lib = CellLibrary::for_technology(Technology::Egt);
        let digital = report_from_ppa(
            "bespoke",
            Technology::Egt,
            &analyze(&bespoke_parallel(&qt), &lib),
            1,
        );
        let analog = analog_tree_report(&qt, AnalogTreeConfig::default());
        let imp = analog.improvement_over(&digital);
        assert!(imp.area > 50.0, "area improvement {}", imp.area);
        assert!(imp.power > 5.0, "power improvement {}", imp.power);
        assert!(
            imp.delay < 1.0,
            "analog should be slower, got {}",
            imp.delay
        );
        assert!(analog.transistors > 0);
    }

    #[test]
    fn analog_svm_dominates_digital_bespoke() {
        // Fig. 17: 490× area, 12× power, ~1.3× slower (EGT averages).
        let data = Application::RedWine.generate(7);
        let (train, _) = data.split(0.7, 42);
        let s = Standardizer::fit(&train);
        let train = s.transform(&train);
        let svm = SvmRegressor::fit(&train, 200, 1e-4);
        let fq = FeatureQuantizer::fit(&train, 8);
        let qs = QuantizedSvm::from_svm(&svm, &fq);
        let lib = CellLibrary::for_technology(Technology::Egt);
        let digital = report_from_ppa(
            "bespoke",
            Technology::Egt,
            &analyze(&bespoke_svm(&qs), &lib),
            1,
        );
        let analog = analog_svm_report(&qs, 11);
        let imp = analog.improvement_over(&digital);
        assert!(imp.area > 50.0, "area improvement {}", imp.area);
        assert!(imp.power > 3.0, "power improvement {}", imp.power);
        assert!(
            imp.delay < 1.0,
            "analog should be slower, got {}",
            imp.delay
        );
    }

    #[test]
    fn analog_designs_are_harvester_class() {
        // Fig. 19: "Harvesters are now capable of powering several
        // decision trees."
        let data = Application::Har.generate(7);
        let (train, _) = data.split(0.7, 42);
        let tree = DecisionTree::fit(&train, TreeParams::with_depth(4));
        let fq = FeatureQuantizer::fit(&train, 4);
        let qt = QuantizedTree::from_tree(&tree, &fq);
        let report = analog_tree_report(&qt, AnalogTreeConfig::default());
        let f = report.feasibility();
        assert!(f.is_powerable());
        assert!(
            f.source_name().contains("harvester") || f.source_name().contains("Harvester"),
            "expected a harvester, got {}",
            f.source_name()
        );
    }
}
