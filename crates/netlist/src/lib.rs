#![warn(missing_docs)]

//! # netlist — gate-level IR, generators, optimizer, analysis, simulation
//!
//! This crate stands in for the RTL + logic-synthesis leg of the paper's
//! toolchain (Synopsys DC over the EGT/CNT-TFT/TSMC libraries):
//!
//! * [`ir`] — flat standard-cell netlists with first-class constant signals
//!   and crossbar ROM macros;
//! * [`builder`] — construction API with word-level helpers;
//! * [`comb`] / [`arith`] / [`seq`] — structural generators (comparators,
//!   adders, array and constant multipliers, MACs, ReLU, shift registers)
//!   — the component set Table I prices;
//! * [`opt`] — constant folding, identities, CSE and dead-gate removal: the
//!   synthesis optimization that makes *bespoke* classifiers small;
//! * [`analysis`] — area / static power / critical-path reports against a
//!   [`pdk::CellLibrary`];
//! * [`sim`] — levelized functional simulation (combinational + clocked),
//!   used to verify every generated classifier bit-for-bit against its
//!   software model: the reference engine;
//! * [`compile`] — the fast engine: a compiled gate tape replayed over
//!   64·W lanes by [`WideSim`], which [`verify`] and [`faults`] run on;
//! * [`verilog`] — structural Verilog emission.
//!
//! ```
//! use netlist::builder::NetlistBuilder;
//! use netlist::comb::unsigned_le;
//! use netlist::{analyze, optimize};
//! use pdk::{CellLibrary, Technology};
//!
//! // A bespoke decision-tree node: x <= 102, threshold hardwired.
//! let mut b = NetlistBuilder::new("node");
//! let x = b.input("x", 8);
//! let tau = b.const_word(102, 8);
//! let le = unsigned_le(&mut b, &x, &tau);
//! b.output("le", &[le]);
//! let raw = b.finish();
//! let opt = optimize(&raw);
//! let lib = CellLibrary::for_technology(Technology::Egt);
//! assert!(analyze(&opt, &lib).area < analyze(&raw, &lib).area);
//! ```

pub mod analysis;
pub mod arith;
pub mod builder;
pub mod comb;
pub mod compile;
pub mod error;
pub mod fanout;
pub mod faults;
pub mod ir;
mod levels;
pub mod opt;
pub mod seq;
pub mod sim;
pub mod stats;
pub mod testbench;
pub mod verify;
pub mod verilog;

pub use analysis::{analyze, analyze_all, Ppa};
pub use builder::NetlistBuilder;
pub use compile::{CompiledNetlist, WideSim};
pub use error::SimError;
pub use fanout::{fanout_histogram, insert_buffers, max_fanout};
pub use faults::{
    coverage as fault_coverage, try_coverage as try_fault_coverage, Fault, FaultCoverage,
};
pub use ir::{Gate, Module, NetId, Port, RomInstance, Signal};
pub use opt::{optimize, optimize_with_stats, OptStats};
pub use sim::Simulator;
pub use stats::{logic_levels, max_logic_levels};
pub use testbench::to_testbench;
pub use verify::{check_equivalence, miter, Equivalence};
pub use verilog::to_verilog;
