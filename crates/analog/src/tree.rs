//! Analog printed decision trees (§VI-A).
//!
//! Every split node is an [`AnalogComparator`]; non-root nodes add a
//! selector EGT so that only the children of the taken branch are enabled
//! — "there is implicit logic which gates off unused portions of the
//! circuit", which is why static power scales with tree *depth* rather
//! than node count. Signal levels deteriorate down the selector cascade,
//! compensated (optionally — it is an ablation knob) by inverter buffers.

use serde::Serialize;

use ml::quant::{QNode, QuantizedTree};
use pdk::units::{Area, Delay, Power};

use crate::comparator::{AnalogComparator, ThresholdEncoding};
use crate::device::{Egt, PrintedResistor};

/// One node of the analog tree.
#[derive(Debug, Clone, PartialEq, Serialize)]
struct Node {
    feature: usize,
    comparator: AnalogComparator,
    depth: usize,
    /// Child indices into `nodes`, or a leaf class.
    left: Child,
    right: Child,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
enum Child {
    Node(usize),
    Leaf(usize),
}

/// Configuration of the analog tree generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AnalogTreeConfig {
    /// Threshold-resistor encoding.
    pub encoding: ThresholdEncoding,
    /// Insert level buffers to restore signal swing (paper §VI-A). Turning
    /// this off is the attenuation ablation.
    pub buffers: bool,
}

impl Default for AnalogTreeConfig {
    fn default() -> Self {
        AnalogTreeConfig {
            encoding: ThresholdEncoding::Calibrated,
            buffers: true,
        }
    }
}

/// Every field, in field order; the encoding keys as its variant name.
impl cache::Hashable for AnalogTreeConfig {
    fn stable_hash(&self, h: &mut cache::StableHasher) {
        let AnalogTreeConfig { encoding, buffers } = *self;
        h.write_str(match encoding {
            ThresholdEncoding::PaperLinear => "paper-linear",
            ThresholdEncoding::Calibrated => "calibrated",
        });
        h.write_bool(buffers);
    }
}

/// A generated analog decision tree.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AnalogTree {
    nodes: Vec<Node>,
    root: Option<usize>,
    /// Class predicted when the tree is a single leaf.
    constant_class: usize,
    n_classes: usize,
    max_code: u64,
    config: AnalogTreeConfig,
    depth: usize,
}

impl AnalogTree {
    /// Builds the analog realization of a quantized tree.
    ///
    /// Feature codes map onto node voltages as `v = code / max_code`
    /// (the paper normalizes features to `[0 V, 1 V]`); each split's
    /// threshold resistor is derived for the voltage midway between the
    /// threshold code and its successor.
    pub fn from_tree(tree: &QuantizedTree, config: AnalogTreeConfig) -> Self {
        let max_code = ml::quant::max_code_for_bits(tree.bits());
        let mut nodes = Vec::new();
        let root = build(tree, 0, 0, max_code, config, &mut nodes);
        let (root, constant_class) = match root {
            Child::Node(i) => (Some(i), 0),
            Child::Leaf(c) => (None, c),
        };
        let depth = nodes.iter().map(|n| n.depth + 1).max().unwrap_or(0);
        AnalogTree {
            nodes,
            root,
            constant_class,
            n_classes: tree.n_classes(),
            max_code,
            config,
            depth,
        }
    }

    /// Classifies from quantized feature codes (converted to node voltages
    /// internally, exactly as a sensor front-end would drive the circuit).
    pub fn predict(&self, codes: &[u64]) -> usize {
        let volts: Vec<f64> = codes
            .iter()
            .map(|&c| c.min(self.max_code) as f64 / self.max_code as f64)
            .collect();
        self.predict_volts(&volts)
    }

    /// Classifies from raw node voltages in `[0, 1]`.
    pub fn predict_volts(&self, volts: &[f64]) -> usize {
        let Some(mut i) = self.root else {
            return self.constant_class;
        };
        loop {
            let node = &self.nodes[i];
            let above = node.comparator.decide(volts[node.feature]);
            let child = if above { node.right } else { node.left };
            match child {
                Child::Leaf(class) => return class,
                Child::Node(n) => i = n,
            }
        }
    }

    /// Number of analog comparator nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Tree depth in analog levels.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Total EGT count (comparators + selectors + buffers) — the prototype
    /// inventory of §VI-B counts exactly these.
    pub fn transistor_count(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| {
                let mut t = n.comparator.transistor_count();
                if n.depth > 0 {
                    t += 1; // selector EGT
                }
                if self.config.buffers && n.depth > 0 {
                    t += 2; // level-restoring inverter pair
                }
                t
            })
            .sum()
    }

    /// Printed resistor count (one threshold resistor per node).
    pub fn resistor_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total circuit area.
    pub fn area(&self) -> Area {
        Egt::area() * self.transistor_count() as f64
            + PrintedResistor::area() * self.resistor_count() as f64
    }

    /// Worst-case static power: only the enabled root-to-leaf path
    /// conducts (unused subtrees are gated off by their selectors), so
    /// power scales with depth, not node count.
    pub fn static_power(&self) -> Power {
        let per_node = self
            .nodes
            .iter()
            .map(|n| n.comparator.worst_static_power())
            .fold(Power::ZERO, |a, b| a.max(b));
        let buffer_power = if self.config.buffers {
            // Two-EGT inverter leg per level below the root.
            Power::from_uw(0.8) * self.depth.saturating_sub(1) as f64
        } else {
            Power::ZERO
        };
        per_node * self.depth as f64 + buffer_power
    }

    /// Evaluation latency: the selector cascade settles level by level.
    pub fn latency(&self) -> Delay {
        let per_level = self
            .nodes
            .iter()
            .map(|n| n.comparator.settle_time())
            .fold(Delay::ZERO, |a, b| a.max(b));
        let buffer_delay = if self.config.buffers {
            Delay::from_ms(1.0) * self.depth.saturating_sub(1) as f64
        } else {
            Delay::ZERO
        };
        per_level * self.depth as f64 + buffer_delay
    }

    /// Worst-case differential output margin across all nodes for a given
    /// input, degraded by the selector cascade when buffers are off.
    ///
    /// The §VI-B prototype measured 405 mV worst case *with* clean levels;
    /// without buffers each level of selector drop costs ~15% of swing.
    pub fn worst_margin(&self, codes: &[u64]) -> f64 {
        let volts: Vec<f64> = codes
            .iter()
            .map(|&c| c.min(self.max_code) as f64 / self.max_code as f64)
            .collect();
        let Some(mut i) = self.root else { return 1.0 };
        let mut worst: f64 = 1.0;
        loop {
            let node = &self.nodes[i];
            let mut margin = node.comparator.output_margin(volts[node.feature]);
            if !self.config.buffers {
                margin *= 0.85f64.powi(node.depth as i32);
            }
            worst = worst.min(margin);
            let above = node.comparator.decide(volts[node.feature]);
            match if above { node.right } else { node.left } {
                Child::Leaf(_) => return worst,
                Child::Node(n) => i = n,
            }
        }
    }
}

fn build(
    tree: &QuantizedTree,
    node: usize,
    depth: usize,
    max_code: u64,
    config: AnalogTreeConfig,
    out: &mut Vec<Node>,
) -> Child {
    match &tree.nodes()[node] {
        QNode::Leaf { class } => Child::Leaf(*class),
        QNode::Split {
            feature,
            threshold,
            left,
            right,
        } => {
            // Trip midway between the threshold code and the next code so
            // quantized inputs sit squarely on either side.
            let v = ((*threshold as f64) + 0.5) / max_code as f64;
            let comparator = AnalogComparator::new(v.clamp(0.0, 1.0), config.encoding);
            let l = build(tree, *left, depth + 1, max_code, config, out);
            let r = build(tree, *right, depth + 1, max_code, config, out);
            out.push(Node {
                feature: *feature,
                comparator,
                depth,
                left: l,
                right: r,
            });
            Child::Node(out.len() - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml::quant::FeatureQuantizer;
    use ml::synth::Application;
    use ml::tree::{DecisionTree, TreeParams};

    fn quantized(
        app: Application,
        depth: usize,
        bits: usize,
    ) -> (QuantizedTree, FeatureQuantizer, ml::Dataset) {
        let data = app.generate(7);
        let (train, test) = data.split(0.7, 42);
        let tree = DecisionTree::fit(&train, TreeParams::with_depth(depth));
        let fq = FeatureQuantizer::fit(&train, bits);
        (QuantizedTree::from_tree(&tree, &fq), fq, test)
    }

    #[test]
    fn analog_tree_matches_digital_tree_at_low_precision() {
        let (qt, fq, test) = quantized(Application::Har, 4, 6);
        let at = AnalogTree::from_tree(&qt, AnalogTreeConfig::default());
        let mut agree = 0usize;
        for row in &test.x {
            let codes = fq.code_row(row);
            agree += (at.predict(&codes) == qt.predict(&codes)) as usize;
        }
        let rate = agree as f64 / test.x.len() as f64;
        assert!(rate > 0.98, "agreement {rate}");
    }

    #[test]
    fn paper_linear_encoding_degrades_agreement() {
        let (qt, fq, test) = quantized(Application::Pendigits, 4, 8);
        let cal = AnalogTree::from_tree(&qt, AnalogTreeConfig::default());
        let lin = AnalogTree::from_tree(
            &qt,
            AnalogTreeConfig {
                encoding: ThresholdEncoding::PaperLinear,
                buffers: true,
            },
        );
        let agreement = |t: &AnalogTree| {
            let mut agree = 0usize;
            for row in &test.x {
                let codes = fq.code_row(row);
                agree += (t.predict(&codes) == qt.predict(&codes)) as usize;
            }
            agree as f64 / test.x.len() as f64
        };
        assert!(
            agreement(&cal) >= agreement(&lin),
            "calibration should not hurt"
        );
    }

    #[test]
    fn prototype_inventory_matches_the_paper() {
        // §VI-B: a 2-level tree (1 root + 2 split nodes) uses 11 EGTs and
        // 3 printed resistors (no buffers in the prototype).
        // Build a full depth-2 tree directly.
        let data = Application::Cardio.generate(7);
        let (train, _) = data.split(0.7, 42);
        let mut tree;
        let mut depth_try = 2;
        loop {
            tree = DecisionTree::fit(&train, TreeParams::with_depth(depth_try));
            if tree.comparison_count() == 3 || depth_try > 6 {
                break;
            }
            depth_try += 1;
        }
        assert_eq!(
            tree.comparison_count(),
            3,
            "need a full depth-2 tree for this test"
        );
        let fq = FeatureQuantizer::fit(&train, 2);
        let qt = QuantizedTree::from_tree(&tree, &fq);
        let at = AnalogTree::from_tree(
            &qt,
            AnalogTreeConfig {
                encoding: ThresholdEncoding::Calibrated,
                buffers: false,
            },
        );
        assert_eq!(at.node_count(), 3);
        assert_eq!(at.transistor_count(), 11, "3 + 4 + 4 EGTs");
        assert_eq!(at.resistor_count(), 3);
    }

    #[test]
    fn power_scales_with_depth_not_node_count() {
        let (qt2, _, _) = quantized(Application::Pendigits, 2, 6);
        let (qt8, _, _) = quantized(Application::Pendigits, 8, 6);
        let a2 = AnalogTree::from_tree(&qt2, AnalogTreeConfig::default());
        let a8 = AnalogTree::from_tree(&qt8, AnalogTreeConfig::default());
        assert!(a8.node_count() > a2.node_count() * 3);
        // Power grows at most ~linearly with depth, far slower than nodes.
        let power_ratio = a8.static_power().ratio(a2.static_power());
        let node_ratio = a8.node_count() as f64 / a2.node_count() as f64;
        assert!(
            power_ratio < node_ratio / 1.5,
            "power {power_ratio} nodes {node_ratio}"
        );
    }

    #[test]
    fn buffers_cost_area_but_restore_margin() {
        let (qt, fq, test) = quantized(Application::GasId, 4, 6);
        let with = AnalogTree::from_tree(&qt, AnalogTreeConfig::default());
        let without = AnalogTree::from_tree(
            &qt,
            AnalogTreeConfig {
                encoding: ThresholdEncoding::Calibrated,
                buffers: false,
            },
        );
        assert!(with.area() > without.area());
        let codes = fq.code_row(&test.x[0]);
        assert!(with.worst_margin(&codes) >= without.worst_margin(&codes));
    }

    #[test]
    fn single_leaf_tree_is_a_constant() {
        // A depth-0 tree needs no analog hardware at all.
        let data = Application::Har.generate(7);
        let tree = DecisionTree::fit(&data, TreeParams::with_depth(0));
        let fq = FeatureQuantizer::fit(&data, 4);
        let qt = QuantizedTree::from_tree(&tree, &fq);
        let at = AnalogTree::from_tree(&qt, AnalogTreeConfig::default());
        assert_eq!(at.node_count(), 0);
        assert_eq!(
            at.predict(&fq.code_row(&data.x[0])),
            qt.predict(&fq.code_row(&data.x[0]))
        );
        assert!(at.area().is_zero());
    }
}
