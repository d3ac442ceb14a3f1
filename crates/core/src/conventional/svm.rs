//! Conventional regression-SVM engines (§III-A.2, Fig. 2c, Table V).
//!
//! Fully parallel: one hardware multiplier per input feature (the paper
//! sizes for 263, arrhythmia's feature count), coefficient and feature
//! registers, an adder tree, and a nearest-class mapper built from
//! boundary registers, comparators and a thermometer encoder.

use netlist::arith::{adder_tree, multiply};
use netlist::builder::NetlistBuilder;
use netlist::comb::unsigned_gt;
use netlist::ir::{Module, Signal};

use crate::ceil_log2;

/// Structural parameters of a conventional SVM engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvmSpec {
    /// Feature / coefficient bit width (paper sweeps 4, 8, 12, 16).
    pub width: usize,
    /// Number of feature inputs and multipliers.
    pub n_features: usize,
    /// Number of class boundaries the mapper supports.
    pub n_boundaries: usize,
}

impl SvmSpec {
    /// The paper's conventional configuration: 263 features (the maximum
    /// across the benchmark datasets) and a 15-boundary class mapper.
    pub fn conventional(width: usize) -> Self {
        SvmSpec {
            width,
            n_features: 263,
            n_boundaries: 15,
        }
    }

    /// Width of the dot-product accumulator.
    pub fn sum_width(&self) -> usize {
        2 * self.width + ceil_log2(self.n_features)
    }
}

/// Every field, in field order.
impl cache::Hashable for SvmSpec {
    fn stable_hash(&self, h: &mut cache::StableHasher) {
        let SvmSpec {
            width,
            n_features,
            n_boundaries,
        } = *self;
        h.write_usize(width);
        h.write_usize(n_features);
        h.write_usize(n_boundaries);
    }
}

/// Generates the conventional SVM engine.
///
/// Ports: `x{i}` feature inputs, `w{i}` coefficient-load inputs,
/// `b{c}` boundary-load inputs, and outputs `sum` (the raw dot product)
/// and `class` (thermometer count of crossed boundaries).
pub fn generate(spec: &SvmSpec) -> Module {
    generate_inner(spec, true)
}

/// Register-free variant of [`generate`]: the identical multiplier
/// array, adder tree and class mapper, but features, coefficients and
/// boundaries feed the datapath directly. The combinational core is the
/// workload the `perf` benchmark's `signoff` replay drives, since the
/// compiled simulation kernel is combinational-only.
pub fn generate_combinational(spec: &SvmSpec) -> Module {
    generate_inner(spec, false)
}

fn generate_inner(spec: &SvmSpec, registered: bool) -> Module {
    let _span = obs::span("gen.conv_svm");
    let mut b = NetlistBuilder::new(format!(
        "svm_{}b{}",
        spec.width,
        if registered { "" } else { "_comb" }
    ));
    let sum_w = spec.sum_width();

    // Features and coefficients (registered in the full engine), one
    // multiplier per feature.
    let mut products = Vec::with_capacity(spec.n_features);
    for i in 0..spec.n_features {
        let x = b.input(format!("x{i}"), spec.width);
        let w = b.input(format!("w{i}"), spec.width);
        let xr = if registered { b.register(&x, 0) } else { x };
        let wr = if registered { b.register(&w, 0) } else { w };
        products.push(multiply(&mut b, &xr, &wr));
    }
    let mut sum = adder_tree(&mut b, &products);
    sum.truncate(sum_w);
    sum.resize(sum_w, Signal::ZERO);

    // Class mapper: boundaries (registered in the full engine), one
    // comparator each, and a population count of the thermometer bits.
    let mut thermometer = Vec::with_capacity(spec.n_boundaries);
    for c in 0..spec.n_boundaries {
        let bin = b.input(format!("b{c}"), sum_w);
        let boundary = if registered { b.register(&bin, 0) } else { bin };
        thermometer.push(unsigned_gt(&mut b, &sum, &boundary));
    }
    let class = popcount(&mut b, &thermometer);

    b.output("sum", &sum);
    b.output("class", &class);
    crate::record_generated(b.finish())
}

/// Population count over single-bit signals (balanced adder tree).
pub(crate) fn popcount(b: &mut NetlistBuilder, bits: &[Signal]) -> Vec<Signal> {
    assert!(!bits.is_empty(), "popcount over no bits");
    let words: Vec<Vec<Signal>> = bits.iter().map(|&s| vec![s]).collect();
    adder_tree(b, &words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::analyze;
    use netlist::sim::Simulator;
    use pdk::{CellLibrary, Technology};

    #[test]
    fn engine_computes_dot_product_and_class() {
        let spec = SvmSpec {
            width: 4,
            n_features: 3,
            n_boundaries: 2,
        };
        let m = generate(&spec);
        let mut sim = Simulator::new(&m);
        // Ports `x0, w0, x1, w1, x2, w2, b0, b1`; one clock loads the
        // registers. sum = 3*5 + 2*7 + 1*4 = 33 crosses b0 only; outputs
        // are `sum` and `class`.
        assert_eq!(
            sim.try_apply(&[3, 5, 2, 7, 1, 4, 30, 40], 1),
            Ok(vec![33, 1])
        );
        // Push the sum over the second boundary.
        assert_eq!(
            sim.try_apply(&[5, 5, 2, 7, 1, 4, 30, 40], 1),
            Ok(vec![43, 2])
        );
    }

    #[test]
    fn combinational_variant_matches_the_registered_engine() {
        let spec = SvmSpec {
            width: 4,
            n_features: 3,
            n_boundaries: 2,
        };
        let m = generate_combinational(&spec);
        assert!(m.is_combinational());
        let mut sim = Simulator::new(&m);
        // No load clock: the datapath is unregistered.
        assert_eq!(
            sim.try_apply(&[3, 5, 2, 7, 1, 4, 30, 40], 0),
            Ok(vec![33, 1])
        );
    }

    #[test]
    fn popcount_counts() {
        let mut b = NetlistBuilder::new("pc");
        let x = b.input("x", 5);
        let c = popcount(&mut b, &x);
        b.output("c", &c);
        let m = b.finish();
        let mut sim = Simulator::new(&m);
        for v in 0..32u64 {
            assert_eq!(sim.try_apply(&[v], 0), Ok(vec![v.count_ones() as u64]));
        }
    }

    #[test]
    fn wider_engines_cost_more() {
        // Table V's sweep: area and power grow superlinearly with width.
        let lib = CellLibrary::for_technology(Technology::Egt);
        let cost = |w: usize| {
            analyze(
                &generate(&SvmSpec {
                    width: w,
                    n_features: 24,
                    n_boundaries: 5,
                }),
                &lib,
            )
        };
        let c4 = cost(4);
        let c8 = cost(8);
        assert!(c8.area.ratio(c4.area) > 2.0);
        assert!(c8.power.ratio(c4.power) > 2.0);
        assert!(c8.delay > c4.delay);
    }

    #[test]
    fn conventional_svm_dwarfs_conventional_trees() {
        // §III: "no conventional SVM can be powered by a printed battery".
        let lib = CellLibrary::for_technology(Technology::Egt);
        // A scaled-down conventional engine already exceeds Molex's 30 mW.
        let ppa = analyze(
            &generate(&SvmSpec {
                width: 4,
                n_features: 64,
                n_boundaries: 15,
            }),
            &lib,
        );
        assert!(ppa.power.as_mw() > 30.0, "got {}", ppa.power);
    }
}
