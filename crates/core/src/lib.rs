#![warn(missing_docs)]

//! # printed-core — the paper's contribution: printed classifier
//! architecture generators
//!
//! This crate reproduces the architecture space of *Printed Machine
//! Learning Classifiers* (MICRO 2020) on top of the `pdk`, `netlist`,
//! `ml` and `analog` substrates:
//!
//! * [`conventional`] — general-purpose serial/parallel decision trees and
//!   SVM engines (Tables III–V baselines);
//! * [`bespoke`] — per-model hardwired designs (§IV): trained thresholds,
//!   coefficients and class labels baked into logic, registers deleted,
//!   constants folded;
//! * [`lookup`] — comparators/multipliers replaced by shared-decoder
//!   crossbar LUTs, with constant-column elimination and bespoke
//!   dot-resistor arrays (§V);
//! * [`analog_arch`] — analog trees and crossbar SVMs priced through the
//!   common interface (§VI);
//! * [`bitwidth`] — the §IV-A 4/8/12/16-bit datapath search;
//! * [`flow`] — one-stop train → quantize → generate → price pipelines;
//! * [`ports`] — the one map from a row of feature codes to a generated
//!   classifier's input vector;
//! * [`report`] / [`powerfit`] — PPA reports, improvement ratios and the
//!   Fig. 3 / Fig. 19 power-source feasibility sets.
//!
//! ```
//! use printed_core::flow::{TreeArch, TreeFlow};
//! use ml::synth::Application;
//! use pdk::Technology;
//!
//! let flow = TreeFlow::new(Application::Har, 2, 7);
//! let conv = flow.report(TreeArch::ConventionalParallel, Technology::Egt);
//! let besp = flow.report(TreeArch::BespokeParallel, Technology::Egt);
//! let gain = besp.improvement_over(&conv);
//! assert!(gain.area > 1.0); // bespoke always wins on area
//! ```

pub mod analog_arch;
pub mod bespoke;
pub mod bitwidth;
pub mod conventional;
pub mod ensemble;
pub mod estimate;
pub mod extension;
pub mod flow;
pub mod lookup;
pub mod ports;
pub mod powerfit;
pub mod report;
pub mod signoff;
pub mod system;

static MODULES: obs::Counter = obs::Counter::new("gen.modules");
static GATES: obs::Counter = obs::Counter::new("gen.gates");

/// Tallies one generated module into the obs metrics registry.
///
/// Every architecture generator funnels its finished [`netlist::Module`]
/// through here so `gen.modules` / `gen.gates` count the whole run.
pub(crate) fn record_generated(m: netlist::Module) -> netlist::Module {
    MODULES.incr();
    GATES.add(m.gates.len() as u64);
    m
}

/// Bits needed to tell `n` values apart, at least one.
pub(crate) fn ceil_log2(n: usize) -> usize {
    if n <= 2 {
        1
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

pub use bitwidth::{choose_svm_width, choose_tree_width, WidthChoice, WIDTHS};
pub use ensemble::{bespoke_forest, forest_engine, ForestStyle};
pub use estimate::{estimate, ComponentCosts, CostEstimate};
pub use extension::{serial_svm, SerialSvmInfo};
pub use flow::{ForestFlow, SvmArch, SvmFlow, TreeArch, TreeFlow};
pub use lookup::LookupConfig;
pub use ports::{forest_inputs, svm_inputs, tree_inputs};
pub use report::{report_from_ppa, DesignReport, Improvement};
pub use signoff::{signoff_pair, SignoffRecord, SignoffStatus};
pub use system::{Adc, ClassifierSystem, FeatureExtraction, Sensor};
