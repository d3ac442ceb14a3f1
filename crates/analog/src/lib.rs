#![warn(missing_docs)]

//! # analog — printed analog classifier substrate
//!
//! The SPICE-simulation leg of the *Printed Machine Learning Classifiers*
//! reproduction (§VI): device models, analog cells, full classifiers and
//! transient simulation, all built from scratch:
//!
//! * [`device`] — EGT transistors (gate-voltage → channel-resistance law)
//!   and printed dot resistors with a quantized printable range;
//! * [`comparator`] — the back-to-back-inverter decision cell with the
//!   paper's linear threshold→resistance mapping and a calibrated variant;
//! * [`crossbar`] — resistive crossbar MAC columns implementing the
//!   paper's equations (1) and (2);
//! * [`tree`] / [`svm`] — complete analog decision trees (selector-gated,
//!   depth-scaled power) and analog SVM engines (differential columns plus
//!   a boundary comparator bank);
//! * [`transient`] — first-order RC transient simulation for scope-style
//!   waveforms;
//! * [`variation`] / [`compile`] — Monte-Carlo print-variation analysis:
//!   deterministic log-normal mismatch sweeps, run on a compiled
//!   lane-batched evaluation tape (64 trials per pass over the rows)
//!   with the scalar path preserved as `variation::reference`;
//! * [`proto`] — the fabricated prototypes: the 4×1 multi-level ROM and
//!   the 11-EGT two-level analog tree.
//!
//! ```
//! use analog::comparator::{AnalogComparator, ThresholdEncoding};
//!
//! let cell = AnalogComparator::new(0.4, ThresholdEncoding::Calibrated);
//! assert!(cell.decide(0.6));
//! assert!(!cell.decide(0.2));
//! ```

pub mod comparator;
pub mod compile;
pub mod crossbar;
pub mod device;
pub mod proto;
pub mod svm;
pub mod transient;
pub mod tree;
pub mod variation;

pub use comparator::{AnalogComparator, ThresholdEncoding};
pub use compile::{CompiledSvmVariation, CompiledTreeVariation, SvmRows, TreeRows};
pub use crossbar::CrossbarColumn;
pub use device::{Egt, PrintedResistor, VDD};
pub use proto::{digital_tree_transients, two_level_tree_transients, MultiLevelRom, RomLevel};
pub use svm::AnalogSvm;
pub use transient::{simulate_node, Stimulus, Waveform};
pub use tree::{AnalogTree, AnalogTreeConfig};
pub use variation::{
    check_sigma, svm_variation_sweep, variation_sweep, VariationError, VariationReport,
    MAX_SVM_SIGMA,
};
