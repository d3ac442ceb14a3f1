//! End-to-end flows: dataset → trained model → quantization → architecture
//! → priced design.
//!
//! [`TreeFlow`] and [`SvmFlow`] bundle everything the benchmark harness and
//! the examples need: train on a synthetic application, run the §IV-A
//! bit-width search, then generate and price any of the paper's
//! architectures in any technology.

use analog::tree::AnalogTreeConfig;
use analog::{VariationError, VariationReport};
use cache::Hashable;
use ml::data::{Dataset, Standardizer};
use ml::metrics::accuracy;
use ml::quant::{FeatureQuantizer, QuantizedSvm, QuantizedTree};
use ml::synth::Application;
use ml::tree::{DecisionTree, TreeParams};
use ml::SvmRegressor;
use netlist::{analyze, Module};
use pdk::{CellLibrary, Technology};
use serde::{Deserialize, Serialize};

use crate::analog_arch::{analog_svm_report, analog_tree_report};
use crate::bespoke::{bespoke_parallel, bespoke_serial, bespoke_svm};
use crate::bitwidth::{choose_svm_width, choose_tree_width, WidthChoice};
use crate::conventional::parallel_tree::{generate as gen_parallel, ParallelTreeSpec};
use crate::conventional::serial_tree::{generate as gen_serial, program, SerialTreeSpec};
use crate::conventional::svm::{generate as gen_conv_svm, SvmSpec};
use crate::lookup::{lookup_parallel, lookup_svm, LookupConfig};
use crate::report::{report_from_ppa, DesignReport};

/// Decision-tree architecture families of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TreeArch {
    /// Fig. 2a general-purpose serial engine.
    ConventionalSerial,
    /// Fig. 2b general-purpose maximally parallel engine.
    ConventionalParallel,
    /// Fig. 4a bespoke serial engine.
    BespokeSerial,
    /// Fig. 4b bespoke maximally parallel engine.
    BespokeParallel,
    /// Fig. 8 lookup-based parallel engine.
    Lookup(LookupConfig),
    /// Fig. 15b analog engine (EGT only).
    Analog(AnalogTreeConfig),
}

/// SVM architecture families of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SvmArch {
    /// Fig. 2c general-purpose engine at a given register width.
    Conventional,
    /// Fig. 4c bespoke engine.
    Bespoke,
    /// Fig. 8 lookup-based engine.
    Lookup(LookupConfig),
    /// Fig. 15a analog crossbar engine (EGT only).
    Analog,
}

/// A trained, quantized decision-tree workload.
///
/// Every architecture of a flow implements the one tree trained here: the
/// bespoke, lookup and analog engines load it at the searched width
/// (`qt`), the general-purpose conventional engines at their fixed 8 bits
/// (`conv_qt`). Both come out of the same width search.
#[derive(Debug, Clone)]
pub struct TreeFlow {
    /// Source application.
    pub app: Application,
    /// Requested depth.
    pub depth: usize,
    /// Quantized tree (bespoke width).
    pub qt: QuantizedTree,
    /// The same tree quantized at 8 bits, as loaded into the
    /// general-purpose conventional engines.
    pub conv_qt: QuantizedTree,
    /// Feature quantizer (bespoke width).
    pub fq: FeatureQuantizer,
    /// Bit-width search outcome.
    pub choice: WidthChoice,
    /// Float-model test accuracy (Table II's tree rows).
    pub float_accuracy: f64,
    /// Standardized test split, for functional verification.
    pub test: Dataset,
}

/// The paper's data protocol: `app`'s samples for `seed`, a 70/30
/// train/test split, and both parts standardized by the training part's
/// statistics.
fn standardized_split(app: Application, seed: u64) -> (Dataset, Dataset) {
    let (train, test) = app.split(seed);
    let s = Standardizer::fit(&train);
    (s.transform(&train), s.transform(&test))
}

/// A flow's model part, memoized under `domain` and `key`, and its
/// standardized test split, memoized once per `(app, seed)` under
/// `core.flow.test`, so every flow of one application and seed shares
/// one stored split. `fit` gets the training and test parts; the split
/// it was given also fills the test entry, so a flow that computes both
/// (a cold store, or the cache off) generates its dataset once.
fn memo_with_test<K, M>(
    domain: &'static str,
    key: &K,
    app: Application,
    seed: u64,
    fit: impl FnOnce(&Dataset, &Dataset) -> M,
) -> (M, Dataset)
where
    K: Hashable + ?Sized,
    M: Serialize + Deserialize + Clone + Send + Sync + 'static,
{
    let mut split = None;
    let model = cache::memo(domain, key, || {
        let (train, test) = standardized_split(app, seed);
        let model = fit(&train, &test);
        split = Some(test);
        model
    });
    let test = cache::memo("core.flow.test", &(app.name(), seed), || {
        split.unwrap_or_else(|| standardized_split(app, seed).1)
    });
    (model, test)
}

/// What [`TreeFlow`] stores under `core.flow.tree`: the trained,
/// quantized tree without the test split.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TreeModel {
    qt: QuantizedTree,
    conv_qt: QuantizedTree,
    fq: FeatureQuantizer,
    choice: WidthChoice,
    float_accuracy: f64,
}

impl TreeModel {
    fn fit(train: &Dataset, test: &Dataset, params: TreeParams) -> Self {
        let tree = DecisionTree::fit(train, params);
        let float_accuracy = accuracy(
            test.x.iter().map(|r| tree.predict(r)),
            test.y.iter().copied(),
        )
        .expect("predictions align with test labels");
        let (fq, qt, choice, conv_qt) = choose_tree_width(&tree, train, test);
        TreeModel {
            qt,
            conv_qt,
            fq,
            choice,
            float_accuracy,
        }
    }
}

impl TreeFlow {
    /// Trains a depth-`depth` tree on `app` (seeded) and runs the width
    /// search.
    pub fn new(app: Application, depth: usize, seed: u64) -> Self {
        let params = TreeParams::with_depth(depth);
        let key = (app.name(), depth, seed, params);
        let (model, test) = memo_with_test("core.flow.tree", &key, app, seed, |train, test| {
            TreeModel::fit(train, test, params)
        });
        let TreeModel {
            qt,
            conv_qt,
            fq,
            choice,
            float_accuracy,
        } = model;
        TreeFlow {
            app,
            depth,
            qt,
            conv_qt,
            fq,
            choice,
            float_accuracy,
            test,
        }
    }

    /// Generates the netlist of a digital architecture (`None` for analog).
    pub fn module(&self, arch: TreeArch) -> Option<Module> {
        self.realize(arch).ok()
    }

    /// The netlist of `arch`, or the configuration of the analog engine,
    /// which has none.
    fn realize(&self, arch: TreeArch) -> Result<Module, AnalogTreeConfig> {
        Ok(match arch {
            TreeArch::ConventionalSerial => {
                let spec = SerialTreeSpec::conventional(self.depth);
                // Load the model when it fits the general-purpose engine
                // (its mux is sized for the cross-dataset average of 14
                // unique features); otherwise price a blank program — a
                // crossbar ROM costs the same regardless of contents.
                let qt = &self.conv_qt;
                let prog =
                    if qt.used_features().len() <= spec.n_features && qt.depth() <= spec.depth {
                        program(qt, &spec)
                    } else {
                        crate::conventional::serial_tree::SerialTreeProgram {
                            threshold_rom: vec![0; 1 << (spec.depth + 1)],
                            class_rom: vec![0; 1 << spec.depth],
                        }
                    };
                gen_serial(&spec, &prog)
            }
            TreeArch::ConventionalParallel => {
                gen_parallel(&ParallelTreeSpec::conventional(self.depth))
            }
            TreeArch::BespokeSerial => bespoke_serial(&self.qt).1,
            TreeArch::BespokeParallel => bespoke_parallel(&self.qt),
            TreeArch::Lookup(config) => lookup_parallel(&self.qt, config),
            TreeArch::Analog(config) => return Err(config),
        })
    }

    /// The first `rows` test rows quantized to feature codes — the
    /// evaluation set the variation and sign-off stages share.
    pub fn coded_rows(&self, rows: usize) -> Vec<Vec<u64>> {
        coded_rows(&self.test, &self.fq, rows)
    }

    /// Monte-Carlo print-variation sweep of the analog realization
    /// (§VI mismatch analysis): perturbs every printed resistance by a
    /// log-normal factor at each sigma and reports agreement with the
    /// nominal circuit over the first `rows` test rows. Runs on the
    /// compiled lane-batched engine; bit-identical at any thread count.
    ///
    /// # Errors
    /// Rejects a NaN, infinite or negative sigma, zero `trials` and zero
    /// `rows` with a [`VariationError`]. The coded test rows cover every
    /// feature, so [`VariationError::ShortRow`] does not arise here.
    pub fn variation_sweep(
        &self,
        sigmas: &[f64],
        trials: usize,
        rows: usize,
        seed: u64,
    ) -> Result<Vec<VariationReport>, VariationError> {
        analog::variation_sweep(&self.qt, &self.coded_rows(rows), sigmas, trials, seed)
    }

    /// Clock cycles per inference of `arch`: the conventional serial
    /// engine walks its configured depth, the bespoke one the trained
    /// tree's depth, and every parallel engine decides in one.
    pub fn cycles(&self, arch: TreeArch) -> usize {
        match arch {
            TreeArch::ConventionalSerial => self.depth.max(1),
            TreeArch::BespokeSerial => self.qt.depth().max(1),
            _ => 1,
        }
    }

    /// Prices `arch` in `tech`, memoized under `core.flow.tree_report`.
    ///
    /// The key is everything the report reads: its name, `tech`, `arch`
    /// with its configuration, the depth and both quantized trees. The
    /// fields are public, so a caller may swap a tree in; the flow's
    /// `(app, depth, seed)` recipe alone would then serve a stale report.
    ///
    /// # Panics
    /// Panics if an analog architecture is requested in a non-EGT
    /// technology (the paper's analog designs are EGT-only).
    pub fn report(&self, arch: TreeArch, tech: Technology) -> DesignReport {
        let name = format!("{}-dt{}-{}", self.app.name(), self.depth, kind_tag(arch));
        let key = (&name, tech, arch, (self.depth, &self.qt, &self.conv_qt));
        cache::memo("core.flow.tree_report", &key, || {
            let design = self
                .realize(arch)
                .map_err(|config| analog_tree_report(&self.qt, config));
            price(name.clone(), tech, design, self.cycles(arch))
        })
    }
}

/// The first `rows` rows of `test` quantized to feature codes by `fq`.
fn coded_rows(test: &Dataset, fq: &FeatureQuantizer, rows: usize) -> Vec<Vec<u64>> {
    test.x.iter().take(rows).map(|r| fq.code_row(r)).collect()
}

/// Prices a design under `name`: a netlist through [`analyze`] and
/// [`report_from_ppa`] at `cycles` per inference, an analog design as
/// its analog report.
///
/// # Panics
/// Panics if an analog design is priced outside EGT.
fn price(
    name: String,
    tech: Technology,
    design: Result<Module, DesignReport>,
    cycles: usize,
) -> DesignReport {
    match design {
        Ok(module) => {
            let lib = CellLibrary::for_technology(tech);
            report_from_ppa(name, tech, &analyze(&module, &lib), cycles)
        }
        Err(analog) => {
            assert_eq!(tech, Technology::Egt, "analog designs are EGT-only");
            DesignReport { name, ..analog }
        }
    }
}

/// An architecture keys as its tag, then its configuration's fields.
impl Hashable for TreeArch {
    fn stable_hash(&self, h: &mut cache::StableHasher) {
        h.write_str(kind_tag(*self));
        match self {
            TreeArch::Lookup(config) => config.stable_hash(h),
            TreeArch::Analog(config) => config.stable_hash(h),
            TreeArch::ConventionalSerial
            | TreeArch::ConventionalParallel
            | TreeArch::BespokeSerial
            | TreeArch::BespokeParallel => {}
        }
    }
}

fn kind_tag(arch: TreeArch) -> &'static str {
    match arch {
        TreeArch::ConventionalSerial => "conv-serial",
        TreeArch::ConventionalParallel => "conv-parallel",
        TreeArch::BespokeSerial => "bespoke-serial",
        TreeArch::BespokeParallel => "bespoke-parallel",
        TreeArch::Lookup(_) => "lookup",
        TreeArch::Analog(_) => "analog",
    }
}

/// A trained, quantized SVM-regression workload.
#[derive(Debug, Clone)]
pub struct SvmFlow {
    /// Source application.
    pub app: Application,
    /// Quantized SVM (bespoke width).
    pub qs: QuantizedSvm,
    /// Feature quantizer (bespoke width).
    pub fq: FeatureQuantizer,
    /// Bit-width search outcome.
    pub choice: WidthChoice,
    /// Float-model test accuracy (Table II's SVM-R row).
    pub float_accuracy: f64,
    /// Number of dataset features.
    pub n_features: usize,
    /// Standardized test split.
    pub test: Dataset,
}

impl SvmFlow {
    /// Training epochs of the SVM regressor.
    const EPOCHS: usize = 200;
    /// L2 regularization of the SVM regressor.
    const L2: f64 = 1e-4;
    /// Clock cycles per inference of every SVM architecture: each
    /// decides in one (the conventional engine registers only its
    /// inputs).
    pub const CYCLES: usize = 1;

    /// Trains an SVM regressor on `app` (seeded) and runs the width search.
    pub fn new(app: Application, seed: u64) -> Self {
        let key = (app.name(), seed, Self::EPOCHS, Self::L2);
        let (model, test) = memo_with_test("core.flow.svm", &key, app, seed, |train, test| {
            let svm = SvmRegressor::fit(train, Self::EPOCHS, Self::L2);
            let float_accuracy = accuracy(
                test.x.iter().map(|r| svm.predict(r)),
                test.y.iter().copied(),
            )
            .expect("predictions align with test labels");
            let (fq, qs, choice) = choose_svm_width(&svm, train, test);
            SvmModel {
                qs,
                fq,
                choice,
                float_accuracy,
                n_features: train.n_features(),
            }
        });
        let SvmModel {
            qs,
            fq,
            choice,
            float_accuracy,
            n_features,
        } = model;
        SvmFlow {
            app,
            qs,
            fq,
            choice,
            float_accuracy,
            n_features,
            test,
        }
    }

    /// The first `rows` test rows quantized to feature codes — the
    /// evaluation set the variation and sign-off stages share.
    pub fn coded_rows(&self, rows: usize) -> Vec<Vec<u64>> {
        coded_rows(&self.test, &self.fq, rows)
    }

    /// Monte-Carlo print-variation sweep of the analog crossbar
    /// realization (§VI mismatch analysis): perturbs every printed
    /// crossbar resistance by a log-normal factor at each sigma and
    /// reports agreement with the nominal engine over the first `rows`
    /// test rows. Runs on the compiled lane-batched engine;
    /// bit-identical at any thread count.
    ///
    /// # Errors
    /// Rejects a sigma outside `0..=`[`analog::MAX_SVM_SIGMA`], zero
    /// `trials` and zero `rows` with a [`VariationError`]. The coded test
    /// rows and the flow's feature count cover every feature, so
    /// [`VariationError::ShortRow`] and [`VariationError::FewFeatures`] do
    /// not arise here.
    pub fn variation_sweep(
        &self,
        sigmas: &[f64],
        trials: usize,
        rows: usize,
        seed: u64,
    ) -> Result<Vec<VariationReport>, VariationError> {
        analog::svm_variation_sweep(
            &self.qs,
            self.n_features,
            &self.coded_rows(rows),
            sigmas,
            trials,
            seed,
        )
    }

    /// Generates the netlist of a digital architecture (`None` for analog).
    ///
    /// The conventional baseline is sized to this dataset (feature count
    /// and class boundaries) at the chosen width — the per-dataset
    /// normalization of Fig. 11. Table V's fixed 263-feature engine comes
    /// from [`SvmSpec::conventional`] directly.
    pub fn module(&self, arch: SvmArch) -> Option<Module> {
        match arch {
            SvmArch::Conventional => Some(gen_conv_svm(&SvmSpec {
                width: self.qs.bits(),
                n_features: self.n_features,
                n_boundaries: (self.qs.n_classes() - 1).max(1),
            })),
            SvmArch::Bespoke => Some(bespoke_svm(&self.qs)),
            SvmArch::Lookup(config) => Some(lookup_svm(&self.qs, config)),
            SvmArch::Analog => None,
        }
    }

    /// Prices `arch` in `tech`, memoized under `core.flow.svm_report`
    /// and keyed by everything the report reads: its name, `tech`, `arch`
    /// with its configuration, the quantized SVM and the feature count.
    ///
    /// # Panics
    /// Panics if [`SvmArch::Analog`] is requested outside EGT.
    pub fn report(&self, arch: SvmArch, tech: Technology) -> DesignReport {
        let name = format!("{}-svm-{}", self.app.name(), svm_tag(arch));
        let key = (&name, tech, arch, &self.qs, self.n_features);
        cache::memo("core.flow.svm_report", &key, || {
            let design = self
                .module(arch)
                .ok_or_else(|| analog_svm_report(&self.qs, self.n_features));
            price(name.clone(), tech, design, Self::CYCLES)
        })
    }
}

/// What [`SvmFlow`] stores under `core.flow.svm`: the trained,
/// quantized SVM without the test split.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SvmModel {
    qs: QuantizedSvm,
    fq: FeatureQuantizer,
    choice: WidthChoice,
    float_accuracy: f64,
    n_features: usize,
}

/// An architecture keys as its tag, then its configuration's fields.
impl Hashable for SvmArch {
    fn stable_hash(&self, h: &mut cache::StableHasher) {
        h.write_str(svm_tag(*self));
        match self {
            SvmArch::Lookup(config) => config.stable_hash(h),
            SvmArch::Conventional | SvmArch::Bespoke | SvmArch::Analog => {}
        }
    }
}

fn svm_tag(arch: SvmArch) -> &'static str {
    match arch {
        SvmArch::Conventional => "conv",
        SvmArch::Bespoke => "bespoke",
        SvmArch::Lookup(_) => "lookup",
        SvmArch::Analog => "analog",
    }
}

/// A trained, quantized random-forest workload (§III's tunable
/// accuracy/cost ensemble).
#[derive(Debug, Clone)]
pub struct ForestFlow {
    /// Source application.
    pub app: Application,
    /// Number of member trees.
    pub n_trees: usize,
    /// Quantized forest.
    pub qf: ml::quant::QuantizedForest,
    /// Feature quantizer.
    pub fq: FeatureQuantizer,
    /// Quantized-forest test accuracy.
    pub accuracy: f64,
    /// Standardized test split.
    pub test: Dataset,
}

impl ForestFlow {
    /// Trains an RF-`n_trees` ensemble (paper configuration: depth-8
    /// members) on `app` at 8-bit quantization.
    pub fn new(app: Application, n_trees: usize, seed: u64) -> Self {
        let key = (app.name(), n_trees, seed);
        let (model, test) = memo_with_test("core.flow.forest", &key, app, seed, |train, test| {
            let forest =
                ml::forest::RandomForest::fit(train, ml::forest::ForestParams::paper(n_trees));
            let fq = FeatureQuantizer::fit(train, 8);
            let qf = ml::quant::QuantizedForest::from_forest(&forest, &fq);
            let accuracy = ml::metrics::accuracy(
                test.x.iter().map(|r| qf.predict(&fq.code_row(r))),
                test.y.iter().copied(),
            )
            .expect("predictions align with test labels");
            ForestModel { qf, fq, accuracy }
        });
        let ForestModel { qf, fq, accuracy } = model;
        ForestFlow {
            app,
            n_trees,
            qf,
            fq,
            accuracy,
            test,
        }
    }
}

/// What [`ForestFlow`] stores under `core.flow.forest`: the quantized
/// forest without the test split.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ForestModel {
    qf: ml::quant::QuantizedForest,
    fq: FeatureQuantizer,
    accuracy: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_flow_produces_all_architectures() {
        let flow = TreeFlow::new(Application::Har, 4, 7);
        for arch in [
            TreeArch::ConventionalSerial,
            TreeArch::ConventionalParallel,
            TreeArch::BespokeSerial,
            TreeArch::BespokeParallel,
            TreeArch::Lookup(LookupConfig::optimized()),
            TreeArch::Analog(AnalogTreeConfig::default()),
        ] {
            let r = flow.report(arch, Technology::Egt);
            assert!(r.area.as_mm2() > 0.0, "{}", r.name);
            assert!(r.power.as_mw() > 0.0, "{}", r.name);
            assert!(r.latency.as_secs() > 0.0, "{}", r.name);
        }
    }

    #[test]
    fn bespoke_hierarchy_holds_for_a_representative_workload() {
        // conventional parallel > bespoke serial > bespoke parallel in
        // area; analog below all of them.
        let flow = TreeFlow::new(Application::Cardio, 4, 7);
        let conv = flow.report(TreeArch::ConventionalParallel, Technology::Egt);
        let bs = flow.report(TreeArch::BespokeSerial, Technology::Egt);
        let bp = flow.report(TreeArch::BespokeParallel, Technology::Egt);
        let an = flow.report(
            TreeArch::Analog(AnalogTreeConfig::default()),
            Technology::Egt,
        );
        assert!(conv.area > bs.area);
        assert!(bs.area > bp.area);
        assert!(bp.area > an.area);
    }

    #[test]
    fn svm_flow_produces_all_architectures() {
        let flow = SvmFlow::new(Application::RedWine, 7);
        for arch in [
            SvmArch::Bespoke,
            SvmArch::Lookup(LookupConfig::optimized()),
            SvmArch::Analog,
        ] {
            let r = flow.report(arch, Technology::Egt);
            assert!(r.area.as_mm2() > 0.0, "{}", r.name);
        }
    }

    #[test]
    fn reports_work_across_technologies() {
        let flow = TreeFlow::new(Application::Har, 2, 7);
        let egt = flow.report(TreeArch::BespokeParallel, Technology::Egt);
        let cnt = flow.report(TreeArch::BespokeParallel, Technology::CntTft);
        let si = flow.report(TreeArch::BespokeParallel, Technology::Tsmc40);
        assert!(egt.area > cnt.area);
        assert!(cnt.area > si.area);
        assert!(egt.latency > cnt.latency);
        assert!(cnt.latency > si.latency);
    }

    #[test]
    fn conventional_engines_load_the_flows_own_tree() {
        // The flow chooses a width other than 8, so the conventional
        // engines need a second quantization of the same tree.
        let flow = TreeFlow::new(Application::Cardio, 4, 3);
        assert_ne!(flow.fq.bits(), 8);
        let (train, _) = standardized_split(Application::Cardio, 3);
        let tree = DecisionTree::fit(&train, TreeParams::with_depth(4));
        let expected = QuantizedTree::from_tree(&tree, &FeatureQuantizer::fit(&train, 8));
        assert_eq!(flow.conv_qt, expected);
    }

    #[test]
    fn tree_model_without_its_8_bit_tree_does_not_decode() {
        // Store entries written before `conv_qt` was a plain field carry
        // `null` there; they must miss and recompute, never decode.
        // Entries written while the flow stored its test split still
        // decode: the extra field is ignored.
        let (train, test) = standardized_split(Application::Har, 7);
        let model = TreeModel::fit(&train, &test, TreeParams::with_depth(2));
        let serde::Value::Object(fields) = model.to_value() else {
            panic!("a struct serializes to an object");
        };
        let with = |conv_qt: Option<serde::Value>| {
            let mut fields: Vec<_> = fields
                .iter()
                .filter(|(k, _)| k != "conv_qt")
                .cloned()
                .collect();
            fields.extend(conv_qt.map(|v| ("conv_qt".to_string(), v)));
            fields.push(("test".to_string(), test.to_value()));
            TreeModel::from_value(&serde::Value::Object(fields))
        };
        assert!(with(Some(model.conv_qt.to_value())).is_ok());
        assert!(with(Some(serde::Value::Null)).is_err());
        assert!(with(None).is_err());
    }

    #[test]
    #[should_panic(expected = "EGT-only")]
    fn analog_outside_egt_is_rejected() {
        let flow = TreeFlow::new(Application::Har, 2, 7);
        let _ = flow.report(
            TreeArch::Analog(AnalogTreeConfig::default()),
            Technology::Tsmc40,
        );
    }
}

#[cfg(test)]
mod forest_flow_tests {
    use super::*;
    use crate::ensemble::bespoke_forest;

    #[test]
    fn forest_flow_produces_verified_engines() {
        let flow = ForestFlow::new(Application::Cardio, 2, 7);
        let module = bespoke_forest(&flow.qf);
        let mut sim = netlist::Simulator::new(&module);
        for row in flow.test.x.iter().take(30) {
            let codes = flow.fq.code_row(row);
            let outputs = sim.try_apply(&crate::forest_inputs(&flow.qf, &codes), 0);
            // Outputs: `votes{c}` per class, then `class`.
            let class = outputs.map(|o| o[o.len() - 1]);
            assert_eq!(class, Ok(flow.qf.predict(&codes) as u64));
        }
        let lib = CellLibrary::for_technology(Technology::Egt);
        assert!(analyze(&module, &lib).area.as_mm2() > 0.0);
    }

    #[test]
    fn bigger_ensembles_buy_accuracy_with_area() {
        let f2 = ForestFlow::new(Application::Pendigits, 2, 7);
        let f8 = ForestFlow::new(Application::Pendigits, 8, 7);
        let lib = CellLibrary::for_technology(Technology::Egt);
        let a2 = analyze(&bespoke_forest(&f2.qf), &lib);
        let a8 = analyze(&bespoke_forest(&f8.qf), &lib);
        assert!(a8.area > a2.area);
        assert!(
            f8.accuracy >= f2.accuracy - 0.02,
            "{} vs {}",
            f8.accuracy,
            f2.accuracy
        );
    }
}
