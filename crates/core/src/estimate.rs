//! Op-count based cost projection (§III's algorithm screening).
//!
//! Before generating any hardware, the paper screens classification
//! algorithms by counting their dominant operations (Table II's `#C`/`#M`)
//! and pricing them with Table I's component costs. That projection — not
//! a synthesized design — is what rules out MLPs, LR and SVM-C for printed
//! technologies ("21 to 2250 cm² and 0.078 to 8.2 W in EGT … likely
//! prohibitive").

use ml::opcount::OpCount;
use netlist::arith::{mac, relu};
use netlist::builder::NetlistBuilder;
use netlist::comb::unsigned_gt;
use netlist::{analyze, Module, Ppa};
use pdk::units::{Area, Delay, Power};
use pdk::{CellLibrary, Technology};

/// Per-component PPA in one technology (an in-code Table I row).
#[derive(Debug, Clone, Copy)]
pub struct ComponentCosts {
    /// 8-bit magnitude comparator.
    pub comparator: Ppa,
    /// 8-bit two-input multiply-accumulate.
    pub mac: Ppa,
    /// 8-bit ReLU.
    pub relu: Ppa,
}

/// Builds the three Table I components, in Table I's row order: an 8-bit
/// magnitude comparator, an 8-bit two-input multiply-accumulate into a
/// 16-bit accumulator, and an 8-bit ReLU.
pub fn component_modules() -> [Module; 3] {
    let comparator = {
        let mut b = NetlistBuilder::new("comparator");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let o = unsigned_gt(&mut b, &a, &bb);
        b.output("o", &[o]);
        b.finish()
    };
    let multiply_accumulate = {
        let mut b = NetlistBuilder::new("mac");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let acc = b.input("acc", 16);
        let s = mac(&mut b, &a, &bb, &acc);
        b.output("o", &s);
        b.finish()
    };
    let rectifier = {
        let mut b = NetlistBuilder::new("relu");
        let x = b.input("x", 8);
        let y = relu(&mut b, &x);
        b.output("y", &y);
        b.finish()
    };
    [comparator, multiply_accumulate, rectifier]
}

impl ComponentCosts {
    /// Synthesizes and prices the three Table I components in `tech`.
    pub fn for_technology(tech: Technology) -> Self {
        let lib = CellLibrary::for_technology(tech);
        let [comparator, mac, relu] = component_modules().map(|m| analyze(&m, &lib));
        ComponentCosts {
            comparator,
            mac,
            relu,
        }
    }
}

/// A projected (not synthesized) hardware cost.
#[derive(Debug, Clone, Copy)]
pub struct CostEstimate {
    /// Sum of component areas (fully parallel implementation).
    pub area: Area,
    /// Sum of component static powers.
    pub power: Power,
    /// Critical-path style latency: one comparator + one MAC + one ReLU
    /// stage, whichever are present (the paper's screening treats latency
    /// as secondary).
    pub latency: Delay,
}

/// Projects the cost of a model with `ops` dominant operations in `tech`,
/// assuming one hardware unit per operation (maximal parallelism, like the
/// paper's conventional engines).
pub fn estimate(ops: &OpCount, costs: &ComponentCosts) -> CostEstimate {
    let area = costs.comparator.area * ops.comparisons as f64
        + costs.mac.area * ops.macs as f64
        + costs.relu.area * ops.relus as f64;
    let power = costs.comparator.power * ops.comparisons as f64
        + costs.mac.power * ops.macs as f64
        + costs.relu.power * ops.relus as f64;
    let mut latency = Delay::ZERO;
    if ops.comparisons > 0 {
        latency = latency.max(costs.comparator.delay);
    }
    if ops.macs > 0 {
        // A dot product of n MACs has ~log2(n) accumulation stages.
        let stages = 1.0 + (ops.macs as f64).log2().max(0.0);
        latency += costs.mac.delay * stages;
    }
    if ops.relus > 0 {
        latency += costs.relu.delay;
    }
    CostEstimate {
        area,
        power,
        latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml::opcount::CountOps;
    use ml::synth::Application;
    use ml::{LogisticRegression, SvmRegressor};

    #[test]
    fn component_costs_reflect_table_i_ordering() {
        let egt = ComponentCosts::for_technology(Technology::Egt);
        assert!(egt.mac.area.ratio(egt.comparator.area) > 4.0);
        assert!(egt.relu.area < egt.comparator.area);
    }

    #[test]
    fn lr_on_arrhythmia_is_prohibitive_in_egt() {
        // §III: LR on arrhythmia needs 2893 MACs — "likely prohibitive".
        let data = Application::Arrhythmia.generate(7);
        let lr = LogisticRegression::fit(&data, 1, 0.1);
        let costs = ComponentCosts::for_technology(Technology::Egt);
        let est = estimate(&lr.op_count(), &costs);
        // "Likely prohibitive": no printed source can power it.
        assert!(
            !pdk::classify(est.power).is_powerable(),
            "power {}",
            est.power
        );
        // "21 to 2250 cm2": arrhythmia LR sits in that band.
        assert!(est.area.as_cm2() > 100.0, "area {}", est.area);
    }

    #[test]
    fn the_same_lr_is_fine_in_silicon() {
        // §III: "even as the corresponding area and power overheads in
        // silicon … are most likely acceptable."
        let data = Application::Arrhythmia.generate(7);
        let lr = LogisticRegression::fit(&data, 1, 0.1);
        let costs = ComponentCosts::for_technology(Technology::Tsmc40);
        let est = estimate(&lr.op_count(), &costs);
        assert!(est.area.as_mm2() < 10.0, "area {}", est.area);
    }

    #[test]
    fn svm_r_projection_is_much_cheaper_than_lr() {
        // §III: "SVM-Rs have higher hardware cost than most Decision
        // Trees, but still much lower cost than other classifiers."
        let data = Application::Arrhythmia.generate(7);
        let lr = LogisticRegression::fit(&data, 1, 0.1);
        let svm = SvmRegressor::fit(&data, 1, 1e-4);
        let costs = ComponentCosts::for_technology(Technology::Egt);
        let lr_est = estimate(&lr.op_count(), &costs);
        let svm_est = estimate(&svm.op_count(), &costs);
        assert!(lr_est.area.ratio(svm_est.area) > 5.0);
    }

    #[test]
    fn empty_op_count_costs_nothing() {
        let costs = ComponentCosts::for_technology(Technology::Egt);
        let est = estimate(&OpCount::default(), &costs);
        assert!(est.area.is_zero());
        assert!(est.power.is_zero());
        assert!(est.latency.as_secs() == 0.0);
    }
}
