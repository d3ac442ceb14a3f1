//! Smart wound dressing: serial vs parallel vs lookup tradeoffs.
//!
//! The paper's healthcare scenario: a printed dressing classifying wound
//! state from its sensors ([48]). Latency hardly matters (a reading per
//! hour is plenty) but the dressing must be *small* and run from a
//! harvester or thin battery, so this example walks the tree-architecture
//! tradeoff space — serial (small, slow), parallel (fast, big), lookup
//! (deep trees only) — at several depths, then sanity-checks the chosen
//! engine cycle by cycle in the functional simulator.
//!
//! ```text
//! cargo run --release --example wound_dressing
//! ```

use printed_ml::core::flow::{TreeArch, TreeFlow};
use printed_ml::core::{tree_inputs, LookupConfig};
use printed_ml::ml::synth::Application;
use printed_ml::netlist::Simulator;
use printed_ml::pdk::Technology;

fn main() {
    println!("== smart wound dressing: tree architecture tradeoffs ==\n");

    // Cardiotocography stands in for the dressing's multi-sensor readout
    // (3 condition classes: healing / stalled / deteriorating).
    for depth in [2usize, 4, 8] {
        let flow = TreeFlow::new(Application::Cardio, depth, 7);
        println!(
            "depth {depth}: {:.3} quantized accuracy at {} bits, {} nodes",
            flow.choice.accuracy,
            flow.choice.bits,
            flow.qt.comparison_count()
        );
        for (name, arch) in [
            ("bespoke-serial", TreeArch::BespokeSerial),
            ("bespoke-parallel", TreeArch::BespokeParallel),
            ("lookup+opt", TreeArch::Lookup(LookupConfig::optimized())),
        ] {
            let r = flow.report(arch, Technology::Egt);
            println!(
                "  {:>16}: latency {:>10}, area {:>11}, power {:>10} -> {}",
                name,
                r.latency.to_string(),
                r.area.to_string(),
                r.power.to_string(),
                r.feasibility().source_name()
            );
        }
        println!();
    }

    // Drive the serial engine cycle by cycle for one reading, the way the
    // dressing's sequencer would.
    let flow = TreeFlow::new(Application::Cardio, 4, 7);
    let module = flow
        .module(TreeArch::BespokeSerial)
        .expect("digital design");
    let mut sim = Simulator::new(&module);
    let codes = flow.fq.code_row(&flow.test.x[0]);
    let inputs = tree_inputs(&flow.qt, &codes, module.inputs.len());
    println!("serial engine trace (one inference):");
    // Each line re-runs the inference from reset for one more clock; the
    // engine's outputs are `class` and `done`.
    let mut class = 0;
    for cycle in 1..=flow.cycles(TreeArch::BespokeSerial) {
        let outputs = sim.try_apply(&inputs, cycle).expect("one value per port");
        class = outputs[0];
        println!(
            "  cycle {:>2}: done={} class-so-far={}",
            cycle, outputs[1], class
        );
    }
    let hw = class as usize;
    let sw = flow.qt.predict(&codes);
    println!("hardware says class {hw}, software model says {sw}");
    assert_eq!(hw, sw);
}
