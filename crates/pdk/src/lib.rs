#![warn(missing_docs)]

//! # pdk — process design kits for printed and silicon technologies
//!
//! This crate is the cost-model substrate for the reproduction of
//! *Printed Machine Learning Classifiers* (MICRO 2020). It provides:
//!
//! * [`Technology`] — EGT, CNT-TFT and TSMC-40nm process descriptions;
//! * [`CellLibrary`] — standard-cell libraries calibrated to every concrete
//!   PPA number the paper publishes (Table I components, inverter/ROM/DFF
//!   quotes);
//! * [`rom`] — crossbar and bespoke dot-resistor ROM macro pricing;
//! * [`power_src`] — printed batteries and harvesters, and the feasibility
//!   classification used by the paper's Figures 3 and 19;
//! * [`units`] — engineering unit newtypes spanning the nine orders of
//!   magnitude between printed and silicon circuits.
//!
//! ```
//! use pdk::{CellKind, CellLibrary, Technology};
//!
//! // What makes printed lookup tables attractive: an EGT ROM bit is
//! // cheaper than an inverter.
//! let egt = CellLibrary::for_technology(Technology::Egt);
//! assert!(egt.area(CellKind::RomBit) < egt.area(CellKind::Inv));
//! ```

pub mod cell;
pub mod fab;
pub mod library;
pub mod power_src;
pub mod rom;
pub mod tech;
pub mod units;

pub use cell::CellKind;
pub use fab::FabModel;
pub use library::{CellCost, CellLibrary};
pub use power_src::{classify, Feasibility, PowerSource};
pub use rom::{rom_cost, RomCost, RomSpec, RomStyle};
pub use tech::Technology;
pub use units::{Area, Delay, Power};
