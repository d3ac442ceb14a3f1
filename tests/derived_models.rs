//! Table II and the forest-scaling ablation read their smaller models off
//! the largest one instead of training each: a shallower CART tree is the
//! deepest one cut at its depth (`DecisionTree::fit_depths`), and RF-n is
//! the first n trees of RF-8 (`RandomForest::prefix`). Both must equal a
//! direct fit exactly, on every application, under Table II's protocol
//! (`generate(7)`, a 70/30 split with seed 42, standardized training
//! part).

use printed_ml::cache;
use printed_ml::ml::data::{Dataset, Standardizer};
use printed_ml::ml::forest::{ForestParams, RandomForest};
use printed_ml::ml::synth::Application;
use printed_ml::ml::tree::{DecisionTree, TreeParams};

fn train(app: Application) -> Dataset {
    let (train, _) = app.generate(7).split(0.7, 42);
    Standardizer::fit(&train).transform(&train)
}

#[test]
fn shallower_trees_are_the_deepest_cut() {
    cache::set_enabled(false);
    let depths: Vec<usize> = (0..=8).collect();
    for app in Application::ALL {
        let train = train(app);
        let derived = DecisionTree::fit_depths(&train, &depths);
        assert_eq!(derived.len(), depths.len());
        for (&d, tree) in depths.iter().zip(&derived) {
            let direct = DecisionTree::fit(&train, TreeParams::with_depth(d));
            assert_eq!(tree, &direct, "{} DT-{d}", app.name());
        }
    }
}

#[test]
fn depths_past_the_trees_own_leave_it_unchanged() {
    cache::set_enabled(false);
    let mut stopped_short = 0;
    for app in Application::ALL {
        let train = train(app);
        let limit = 16;
        let [deepest] = &DecisionTree::fit_depths(&train, &[limit])[..] else {
            panic!("one depth asked, one tree returned");
        };
        let own = deepest.depth();
        stopped_short += usize::from(own < limit);
        let depths: Vec<usize> = (own..=limit).collect();
        for tree in DecisionTree::fit_depths(&train, &depths) {
            assert_eq!(&tree, deepest, "{} at depth {own}", app.name());
        }
    }
    assert!(stopped_short > 0, "no tree stopped before the depth limit");
}

#[test]
fn smaller_forests_are_prefixes_of_rf8() {
    cache::set_enabled(false);
    for app in Application::ALL {
        let train = train(app);
        let rf8 = RandomForest::fit(&train, ForestParams::paper(8));
        assert_eq!(rf8.prefix(8), rf8);
        for n in [1usize, 2, 4] {
            let direct = RandomForest::fit(&train, ForestParams::paper(n));
            assert_eq!(rf8.prefix(n), direct, "{} RF-{n}", app.name());
        }
    }
}
