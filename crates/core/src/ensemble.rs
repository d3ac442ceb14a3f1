//! Bespoke random-forest engines.
//!
//! §III: "Decision Trees are the kernel of a Random Forest ensemble; any
//! optimization for Decision Trees is a natural optimization for Random
//! Forests." This module composes the bespoke parallel tree generator into
//! a full ensemble engine: every member tree evaluates concurrently, a
//! per-class one-hot vote counter tallies the outputs, and an
//! ascending-scan argmax picks the majority class (ties to the lowest
//! class index, matching [`ml::quant::QuantizedForest::predict`]).

use ml::quant::QuantizedForest;
use netlist::builder::NetlistBuilder;
use netlist::comb::{equals, unsigned_gt};
use netlist::ir::{Module, Signal};
use netlist::optimize;

use crate::bespoke::parallel_tree::{compare, select_class};
use crate::ceil_log2;
use crate::conventional::svm::popcount;
use crate::lookup::{lookup_decisions, LookupConfig};
use crate::ports::forest_ports;

/// Comparator implementation of a forest engine's decision nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ForestStyle {
    /// Hardwired per-node comparators (the bespoke tree's style).
    Bespoke,
    /// Shared-decoder lookup tables. An ensemble shares decoders across
    /// *all* member trees testing a feature — strictly more reuse than a
    /// single tree gets, so "any optimization for Decision Trees is a
    /// natural optimization for Random Forests" (§III) compounds.
    Lookup(LookupConfig),
}

/// Generates a bespoke parallel random-forest engine (post-optimization).
///
/// Ports: `f{feature}` for every feature any member tree tests (original
/// feature indices), plus the `class` output and per-class vote counts
/// `votes{c}` for observability.
pub fn bespoke_forest(forest: &QuantizedForest) -> Module {
    forest_engine(forest, ForestStyle::Bespoke)
}

/// Generates a random-forest engine with the chosen comparator style.
pub fn forest_engine(forest: &QuantizedForest, style: ForestStyle) -> Module {
    let mut b = NetlistBuilder::new(match style {
        ForestStyle::Bespoke => "bespoke_forest",
        ForestStyle::Lookup(_) => "lookup_forest",
    });
    let class_bits = ceil_log2(forest.n_classes());
    let ports = forest_ports(&mut b, forest);

    // Every tree evaluates concurrently.
    b.push_region("trees");
    let decision = match style {
        ForestStyle::Bespoke => None,
        // Cross-tree decoder sharing: one LUT per feature covering the
        // thresholds of EVERY member tree.
        ForestStyle::Lookup(config) => Some(lookup_decisions(
            &mut b,
            forest.trees(),
            |f| &ports[&f],
            config,
        )),
    };
    let tree_classes: Vec<Vec<Signal>> = forest
        .trees()
        .iter()
        .enumerate()
        .map(|(ti, tree)| {
            select_class(
                &mut b,
                tree,
                0,
                class_bits,
                "trees",
                &mut |b, node, feature, threshold| match &decision {
                    Some(decision) => decision[ti][node],
                    None => compare(b, &ports[&feature], threshold),
                },
            )
        })
        .collect();
    b.pop_region();

    // Vote counters: per class, match each tree's output against the
    // constant class code and count.
    let vote_bits = ceil_log2(forest.trees().len() + 1);
    b.push_region("votes");
    let mut counts: Vec<Vec<Signal>> = Vec::with_capacity(forest.n_classes());
    for c in 0..forest.n_classes() {
        let code = b.const_word(c as u64, class_bits);
        let matches: Vec<Signal> = tree_classes
            .iter()
            .map(|tc| equals(&mut b, tc, &code))
            .collect();
        let mut count = popcount(&mut b, &matches);
        count.resize(vote_bits.max(count.len()), Signal::ZERO);
        counts.push(count);
    }
    b.pop_region();

    // Ascending-scan argmax: strict greater-than keeps the lowest index on
    // ties.
    b.push_region("argmax");
    let mut best_count = counts[0].clone();
    let mut best_class = b.const_word(0, class_bits);
    for (c, count) in counts.iter().enumerate().skip(1) {
        let wider = count.len().max(best_count.len());
        let mut a = count.clone();
        a.resize(wider, Signal::ZERO);
        let mut bb = best_count.clone();
        bb.resize(wider, Signal::ZERO);
        let gt = unsigned_gt(&mut b, &a, &bb);
        let candidate = b.const_word(c as u64, class_bits);
        best_class = b.mux_word(gt, &best_class, &candidate);
        best_count = b.mux_word(gt, &bb, &a);
    }
    b.pop_region();

    for (c, count) in counts.iter().enumerate() {
        b.output(format!("votes{c}"), count);
    }
    b.output("class", &best_class);
    optimize(&b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ports::forest_inputs;
    use ml::forest::{ForestParams, RandomForest};
    use ml::quant::FeatureQuantizer;
    use ml::synth::Application;
    use netlist::analyze;
    use netlist::sim::Simulator;
    use pdk::{CellLibrary, Technology};

    fn setup(
        app: Application,
        n_trees: usize,
        bits: usize,
    ) -> (QuantizedForest, FeatureQuantizer, ml::Dataset) {
        let data = app.generate(7);
        let (train, test) = data.split(0.7, 42);
        let forest = RandomForest::fit(&train, ForestParams::paper(n_trees));
        let fq = FeatureQuantizer::fit(&train, bits);
        (QuantizedForest::from_forest(&forest, &fq), fq, test)
    }

    /// Runs `samples` test rows through `module`, a forest engine of
    /// `qf`, and checks its `class` output (the last) against the model.
    pub(super) fn check_engine(
        module: &Module,
        qf: &QuantizedForest,
        fq: &FeatureQuantizer,
        test: &ml::Dataset,
        samples: usize,
    ) {
        let mut sim = Simulator::new(module);
        for row in test.x.iter().take(samples) {
            let codes = fq.code_row(row);
            let outputs = sim.try_apply(&forest_inputs(qf, &codes), 0);
            let class = outputs.map(|o| o[o.len() - 1]);
            assert_eq!(class, Ok(qf.predict(&codes) as u64));
        }
    }

    #[test]
    fn forest_engine_matches_software_forest() {
        let (qf, fq, test) = setup(Application::Cardio, 4, 8);
        check_engine(&bespoke_forest(&qf), &qf, &fq, &test, 80);
    }

    #[test]
    fn vote_counts_are_observable_and_sum_to_tree_count() {
        let (qf, fq, test) = setup(Application::Har, 4, 4);
        let module = bespoke_forest(&qf);
        let mut sim = Simulator::new(&module);
        for row in test.x.iter().take(40) {
            let inputs = forest_inputs(&qf, &fq.code_row(row));
            let outputs = sim
                .try_apply(&inputs, 0)
                .expect("one value per used feature");
            // Outputs: `votes{c}` per class, then `class`.
            let total: u64 = outputs[..qf.n_classes()].iter().sum();
            assert_eq!(total, qf.trees().len() as u64);
        }
    }

    #[test]
    fn forest_cost_scales_roughly_with_tree_count() {
        // §III's accuracy/cost dial: more estimators, more area.
        let lib = CellLibrary::for_technology(Technology::Egt);
        let (qf2, _, _) = setup(Application::Pendigits, 2, 8);
        let (qf8, _, _) = setup(Application::Pendigits, 8, 8);
        let a2 = analyze(&bespoke_forest(&qf2), &lib);
        let a8 = analyze(&bespoke_forest(&qf8), &lib);
        assert!(a8.area.ratio(a2.area) > 2.0, "{} vs {}", a8.area, a2.area);
        assert!(a8.power.ratio(a2.power) > 2.0);
    }

    #[test]
    fn forest_is_combinational_and_register_free() {
        let (qf, _, _) = setup(Application::RedWine, 2, 8);
        let module = bespoke_forest(&qf);
        assert!(module.is_combinational());
        assert_eq!(module.dff_count(), 0);
    }
}

#[cfg(test)]
mod lookup_forest_tests {
    use super::tests::check_engine;
    use super::*;
    use ml::forest::{ForestParams, RandomForest};
    use ml::quant::FeatureQuantizer;
    use ml::synth::Application;
    use ml::tree::TreeParams;
    use netlist::analyze;
    use pdk::{CellLibrary, Technology};

    fn deep_forest(bits: usize) -> (QuantizedForest, FeatureQuantizer, ml::Dataset) {
        let data = Application::Pendigits.generate(7);
        let (train, test) = data.split(0.7, 42);
        let forest = RandomForest::fit(
            &train,
            ForestParams {
                n_trees: 4,
                tree: TreeParams::with_depth(8),
                seed: 7,
            },
        );
        let fq = FeatureQuantizer::fit(&train, bits);
        (QuantizedForest::from_forest(&forest, &fq), fq, test)
    }

    #[test]
    fn lookup_forest_matches_software_forest() {
        let (qf, fq, test) = deep_forest(4);
        let module = forest_engine(&qf, ForestStyle::Lookup(LookupConfig::optimized()));
        check_engine(&module, &qf, &fq, &test, 60);
    }

    #[test]
    fn ensembles_amortize_decoders_better_than_single_trees() {
        // Cross-tree sharing: the lookup forest merges every member tree's
        // threshold columns for a feature into one ROM behind one address
        // decoder, so it needs fewer decoders — and strictly less ROM area
        // — than the same members built as separate lookup trees.
        let lib = CellLibrary::for_technology(Technology::Egt);
        // RF-8: with eight √n-feature subsets over pendigits' 16 features,
        // member trees are guaranteed to share features.
        let data = Application::Pendigits.generate(7);
        let (train, _) = data.split(0.7, 42);
        let forest_model = RandomForest::fit(&train, ForestParams::paper(8));
        let fq = FeatureQuantizer::fit(&train, 4);
        let qf = QuantizedForest::from_forest(&forest_model, &fq);
        let forest = forest_engine(&qf, ForestStyle::Lookup(LookupConfig::optimized()));
        let forest_ppa = analyze(&forest, &lib);
        let mut member_roms = 0usize;
        let mut member_rom_area = pdk::Area::ZERO;
        for single in qf.trees() {
            let m = crate::lookup::lookup_parallel(single, LookupConfig::optimized());
            member_roms += m.roms.len();
            member_rom_area += analyze(&m, &lib).rom_area;
        }
        assert!(
            forest.roms.len() < member_roms,
            "sharing must cut decoder count: {} vs {member_roms}",
            forest.roms.len()
        );
        assert!(
            forest_ppa.rom_area < member_rom_area,
            "sharing must cut ROM area: {} vs {member_rom_area}",
            forest_ppa.rom_area
        );
    }
}
