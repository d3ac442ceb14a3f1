//! The paper's headline quantitative claims, asserted as bands.
//!
//! Absolute numbers cannot match (our substrate is a calibrated simulator,
//! not the authors' PDK + Synopsys flow), but the *shape* must hold: who
//! wins, by roughly what factor, and where the crossovers fall. Each test
//! names the paper statement it guards. Every claim built from trained
//! flows holds at each of [`SEEDS`], so none hangs on one draw of the
//! synthetic data.

use printed_ml::analog::AnalogTreeConfig;
use printed_ml::core::flow::{SvmArch, SvmFlow, TreeArch, TreeFlow};
use printed_ml::core::report::Improvement;
use printed_ml::core::LookupConfig;
use printed_ml::ml::synth::Application;
use printed_ml::pdk::Technology;

/// The reproduction's seed (7) and two more.
const SEEDS: [u64; 3] = [7, 3, 11];

fn mean_tree_improvement(
    depths: &[usize],
    arch: TreeArch,
    baseline: TreeArch,
    seed: u64,
) -> Improvement {
    let mut imps = Vec::new();
    for &depth in depths {
        for app in [
            Application::Cardio,
            Application::Pendigits,
            Application::RedWine,
        ] {
            let flow = TreeFlow::new(app, depth, seed);
            let b = flow.report(baseline, Technology::Egt);
            let t = flow.report(arch, Technology::Egt);
            if t.area.as_mm2() > 0.0 {
                imps.push(t.improvement_over(&b));
            }
        }
    }
    Improvement::mean(&imps)
}

#[test]
fn claim_mac_is_several_times_a_comparator_in_egt() {
    // §III: "an EGT MAC requires 7.5x more area, 6.8x more power, and has
    // 2.4x higher latency relative to a comparison."
    let t1 = bench::experiments::table1();
    // Parse our own Table I output: EGT comparator row and MAC row.
    let rows = &t1[0].rows;
    let get = |component: &str, col: usize| -> f64 {
        let row = rows
            .iter()
            .find(|r| r[0] == component && r[1] == "EGT")
            .unwrap_or_else(|| panic!("row {component}"));
        row[col].split_whitespace().next().unwrap().parse().unwrap()
    };
    let area_ratio = get("MAC", 3) / get("Comparator", 3);
    let power_ratio = get("MAC", 4) / get("Comparator", 4);
    let delay_ratio = get("MAC", 2) / get("Comparator", 2);
    assert!(area_ratio > 4.0 && area_ratio < 20.0, "area {area_ratio}");
    assert!(
        power_ratio > 4.0 && power_ratio < 20.0,
        "power {power_ratio}"
    );
    assert!(
        delay_ratio > 1.5 && delay_ratio < 6.0,
        "delay {delay_ratio}"
    );
}

#[test]
fn claim_bespoke_parallel_wins_by_tens_of_x() {
    // Abstract: "bespoke implementation of EGT printed Decision Trees has
    // 48.9x lower area (average) and 75.6x lower power (average)".
    for seed in SEEDS {
        let m = mean_tree_improvement(
            &[2, 4, 8],
            TreeArch::BespokeParallel,
            TreeArch::ConventionalParallel,
            seed,
        );
        assert!(
            m.area > 10.0 && m.area < 200.0,
            "seed {seed}: area {}",
            m.area
        );
        assert!(
            m.power > 15.0 && m.power < 300.0,
            "seed {seed}: power {}",
            m.power
        );
        assert!(m.delay > 1.0, "seed {seed}: delay {}", m.delay);
    }
}

#[test]
fn claim_bespoke_serial_improves_modestly() {
    // §IV-A: bespoke serial trees improve ~1.2% latency, 37% area, 22%
    // power — i.e. small-but-real, nothing like the parallel case.
    for seed in SEEDS {
        let m = mean_tree_improvement(
            &[2, 4],
            TreeArch::BespokeSerial,
            TreeArch::ConventionalSerial,
            seed,
        );
        assert!(
            m.area > 1.05 && m.area < 4.0,
            "seed {seed}: area {}",
            m.area
        );
        assert!(
            m.power > 1.05 && m.power < 4.0,
            "seed {seed}: power {}",
            m.power
        );
    }
}

#[test]
fn claim_parallel_bespoke_strictly_beats_serial_bespoke() {
    // §IV-A: "unlike conventional counterparts, parallel bespoke trees are
    // strictly better than serial bespoke trees."
    for seed in SEEDS {
        for app in [Application::Cardio, Application::Pendigits] {
            let flow = TreeFlow::new(app, 4, seed);
            let par = flow.report(TreeArch::BespokeParallel, Technology::Egt);
            let ser = flow.report(TreeArch::BespokeSerial, Technology::Egt);
            let at = format!("{} at seed {seed}", app.name());
            assert!(par.area < ser.area, "{at}");
            assert!(par.power < ser.power, "{at}");
            assert!(par.latency < ser.latency, "{at}");
        }
    }
}

#[test]
fn claim_lookup_helps_deep_trees_only() {
    // §V-A: "in many cases, especially with shallow trees, there is not
    // enough input feature reuse for lookup tables to be useful. But, in
    // the best case, we see 13%, 38%, and 70% improvements."
    let lookup = TreeArch::Lookup(LookupConfig::optimized());
    for seed in SEEDS {
        let deep = mean_tree_improvement(&[8], lookup, TreeArch::BespokeParallel, seed);
        let shallow = mean_tree_improvement(&[1], lookup, TreeArch::BespokeParallel, seed);
        assert!(
            deep.area > shallow.area,
            "seed {seed}: deep {} vs shallow {}",
            deep.area,
            shallow.area
        );
        assert!(
            shallow.area < 1.0,
            "seed {seed}: shallow lookup must lose: {}",
            shallow.area
        );
    }
}

#[test]
fn claim_lookup_optimizations_add_area_and_power() {
    // §V-A / Fig. 10: constant-column elimination + dot ROMs increase the
    // area benefit over plain lookup.
    for seed in SEEDS {
        let base = mean_tree_improvement(
            &[8],
            TreeArch::Lookup(LookupConfig::baseline()),
            TreeArch::BespokeParallel,
            seed,
        );
        let opt = mean_tree_improvement(
            &[8],
            TreeArch::Lookup(LookupConfig::optimized()),
            TreeArch::BespokeParallel,
            seed,
        );
        assert!(
            opt.area > base.area,
            "seed {seed}: opt {} base {}",
            opt.area,
            base.area
        );
        assert!(
            opt.power >= base.power,
            "seed {seed}: opt {} base {}",
            opt.power,
            base.power
        );
    }
}

#[test]
fn claim_bespoke_svm_wins_by_around_10x() {
    // Abstract: "corresponding benefits for bespoke SVMs are 12.8x and
    // 12.7x" (vs per-dataset conventional engines).
    for seed in SEEDS {
        let mut imps = Vec::new();
        for app in [Application::RedWine, Application::Cardio] {
            let flow = SvmFlow::new(app, seed);
            let conv = flow.report(SvmArch::Conventional, Technology::Egt);
            let besp = flow.report(SvmArch::Bespoke, Technology::Egt);
            imps.push(besp.improvement_over(&conv));
        }
        let m = Improvement::mean(&imps);
        assert!(
            m.area > 2.0 && m.area < 60.0,
            "seed {seed}: area {}",
            m.area
        );
        assert!(
            m.power > 2.0 && m.power < 60.0,
            "seed {seed}: power {}",
            m.power
        );
        assert!(m.delay > 1.0, "seed {seed}: delay {}", m.delay);
    }
}

#[test]
fn claim_analog_trees_win_hundreds_of_x_in_area() {
    // Abstract: "Analog printed Decision Trees provide 437x area and 27x
    // power benefits over digital bespoke counterparts" and are ~1.6x
    // slower.
    for seed in SEEDS {
        let m = mean_tree_improvement(
            &[4, 8],
            TreeArch::Analog(AnalogTreeConfig::default()),
            TreeArch::BespokeParallel,
            seed,
        );
        assert!(m.area > 100.0, "seed {seed}: area {}", m.area);
        assert!(
            m.power > 8.0 && m.power < 120.0,
            "seed {seed}: power {}",
            m.power
        );
        assert!(
            m.delay < 1.0,
            "seed {seed}: analog must be slower: {}",
            m.delay
        );
    }
}

#[test]
fn claim_analog_svms_win_hundreds_of_x_in_area() {
    // Abstract: "analog SVMs yield 490x area and 12x power improvements"
    // and are ~1.36x slower.
    for seed in SEEDS {
        let mut imps = Vec::new();
        for app in [Application::RedWine, Application::Cardio, Application::Har] {
            let flow = SvmFlow::new(app, seed);
            let besp = flow.report(SvmArch::Bespoke, Technology::Egt);
            let ana = flow.report(SvmArch::Analog, Technology::Egt);
            imps.push(ana.improvement_over(&besp));
        }
        let m = Improvement::mean(&imps);
        assert!(m.area > 100.0, "seed {seed}: area {}", m.area);
        assert!(m.power > 5.0, "seed {seed}: power {}", m.power);
        assert!(
            m.delay < 1.2,
            "seed {seed}: analog should not be much faster: {}",
            m.delay
        );
    }
}

#[test]
fn claim_conventional_designs_exceed_printed_power_sources() {
    // Fig. 3: deep conventional EGT trees cannot be powered by any printed
    // source; Fig. 19: bespoke/analog designs mostly can.
    for seed in SEEDS {
        let flow = TreeFlow::new(Application::Pendigits, 8, seed);
        let conv = flow.report(TreeArch::ConventionalParallel, Technology::Egt);
        assert!(
            !conv.feasibility().is_powerable(),
            "seed {seed}: {}",
            conv.power
        );
        let analog = flow.report(
            TreeArch::Analog(AnalogTreeConfig::default()),
            Technology::Egt,
        );
        assert!(
            analog.feasibility().is_powerable(),
            "seed {seed}: {}",
            analog.power
        );
    }
}

#[test]
fn claim_silicon_always_wins_ppa() {
    // §VII: "it is unlikely that there exist system design points such
    // that an EGT-based system outperforms a silicon CMOS system in terms
    // of power, performance, or area."
    for seed in SEEDS {
        let flow = TreeFlow::new(Application::Cardio, 4, seed);
        for arch in [TreeArch::BespokeParallel, TreeArch::ConventionalSerial] {
            let egt = flow.report(arch, Technology::Egt);
            let si = flow.report(arch, Technology::Tsmc40);
            assert!(egt.area.ratio(si.area) > 100.0, "seed {seed}");
            assert!(egt.latency.ratio(si.latency) > 1000.0, "seed {seed}");
            assert!(egt.power > si.power, "seed {seed}");
        }
    }
}
