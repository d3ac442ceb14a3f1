//! Port maps: which feature code drives which input port of a generated
//! classifier.
//!
//! Every generator declares its feature input ports from the lists here,
//! and every simulation of a generated classifier builds its input vector
//! with the `*_inputs` function of its model family, so the two cannot
//! drift apart. A vector comes out in port order, ready for
//! [`netlist::Simulator::try_apply`]:
//!
//! * a single tree's engines read `f{k}`, the tree's `k`-th *used*
//!   feature ([`QuantizedTree::used_features`] order);
//! * a forest's engines read `f{f}`, feature `f`, for every feature any
//!   member tests;
//! * an SVM's engines read `x{f}`, feature `f`, for every feature with a
//!   non-zero trained coefficient.

use std::collections::HashMap;

use ml::quant::{QuantizedForest, QuantizedSvm, QuantizedTree};
use netlist::builder::NetlistBuilder;
use netlist::ir::Signal;

/// The input vector of an engine built from `tree` with `ports` input
/// ports, for one row of feature `codes`: slot `k` carries the code of
/// the tree's `k`-th used feature, and every slot past the used ones (a
/// general-purpose engine's spare mux inputs) carries 0.
///
/// `ports` is the engine's input port count: the used-feature count for
/// the parallel and lookup engines, at least one for the bespoke serial
/// engine, and the spec's feature count for the conventional serial one.
pub fn tree_inputs(tree: &QuantizedTree, codes: &[u64], ports: usize) -> Vec<u64> {
    let mut vector = codes_of(&tree.used_features(), codes);
    vector.resize(vector.len().max(ports), 0);
    vector
}

/// The input vector of every engine built from `svm`, for one row of
/// feature `codes`: the code of each live feature, ascending.
pub fn svm_inputs(svm: &QuantizedSvm, codes: &[u64]) -> Vec<u64> {
    codes_of(&live_features(svm), codes)
}

/// The input vector of every engine built from `forest`, for one row of
/// feature `codes`: the code of each feature any member tests, ascending.
pub fn forest_inputs(forest: &QuantizedForest, codes: &[u64]) -> Vec<u64> {
    codes_of(&forest.used_features(), codes)
}

fn codes_of(features: &[usize], codes: &[u64]) -> Vec<u64> {
    features.iter().map(|&f| codes[f]).collect()
}

/// The features with a non-zero trained coefficient, ascending.
pub(crate) fn live_features(svm: &QuantizedSvm) -> Vec<usize> {
    let terms = svm.pos_terms().iter().chain(svm.neg_terms());
    let mut live: Vec<usize> = terms.map(|&(f, _)| f).collect();
    live.sort_unstable();
    live.dedup();
    live
}

/// Feature → the input port declared for it.
pub(crate) type Ports = HashMap<usize, Vec<Signal>>;

/// Declares a single tree's input ports, `f{slot}` per used feature.
pub(crate) fn tree_ports(b: &mut NetlistBuilder, tree: &QuantizedTree) -> Ports {
    let slots = tree.used_features().into_iter().enumerate();
    slots
        .map(|(k, f)| (f, b.input(format!("f{k}"), tree.bits())))
        .collect()
}

/// Declares an SVM's input ports, `x{f}` per live feature.
pub(crate) fn svm_ports(b: &mut NetlistBuilder, svm: &QuantizedSvm) -> Ports {
    let live = live_features(svm).into_iter();
    live.map(|f| (f, b.input(format!("x{f}"), svm.bits())))
        .collect()
}

/// Declares a forest's input ports, `f{f}` per feature any member tests.
pub(crate) fn forest_ports(b: &mut NetlistBuilder, forest: &QuantizedForest) -> Ports {
    let used = forest.used_features().into_iter();
    used.map(|f| (f, b.input(format!("f{f}"), forest.bits())))
        .collect()
}
