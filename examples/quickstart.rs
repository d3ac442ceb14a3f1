//! Quickstart: train a classifier, print it, power it.
//!
//! Walks the paper's headline flow end to end for one application:
//! train a decision tree, pick a bespoke datapath width, generate the
//! bespoke parallel architecture, verify the netlist bit-for-bit against
//! the software model, price it in all three technologies, and check which
//! printed power source can run it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use printed_ml::core::flow::{TreeArch, TreeFlow};
use printed_ml::core::tree_inputs;
use printed_ml::ml::synth::Application;
use printed_ml::netlist::{to_verilog, Simulator};
use printed_ml::pdk::Technology;

fn main() {
    println!("== printed-ml quickstart: cardiotocography monitor ==\n");

    // 1. Train + quantize (70/30 split, standardized features, §IV-A
    //    4/8/12/16-bit width search).
    let flow = TreeFlow::new(Application::Cardio, 4, 7);
    println!(
        "trained depth-{} tree: {} comparisons over {} features",
        flow.qt.depth(),
        flow.qt.comparison_count(),
        flow.qt.used_features().len()
    );
    println!(
        "accuracy: {:.3} float / {:.3} quantized at {} bits\n",
        flow.float_accuracy, flow.choice.accuracy, flow.choice.bits
    );

    // 2. Generate the bespoke parallel architecture and verify it against
    //    the software model on the test set.
    let module = flow
        .module(TreeArch::BespokeParallel)
        .expect("digital design");
    let mut sim = Simulator::new(&module);
    let mut agree = 0usize;
    for row in &flow.test.x {
        let codes = flow.fq.code_row(row);
        let inputs = tree_inputs(&flow.qt, &codes, module.inputs.len());
        let class = sim.try_apply(&inputs, 0).expect("one value per port")[0];
        agree += (class as usize == flow.qt.predict(&codes)) as usize;
    }
    println!(
        "netlist vs software model: {}/{} test rows agree ({} gates)\n",
        agree,
        flow.test.x.len(),
        module.gate_count()
    );
    assert_eq!(
        agree,
        flow.test.x.len(),
        "hardware must match the model exactly"
    );

    // 3. Price it everywhere.
    for tech in Technology::ALL {
        let r = flow.report(TreeArch::BespokeParallel, tech);
        println!("{tech:>9}: {r}");
    }

    // 4. Who can power the printed version?
    let egt = flow.report(TreeArch::BespokeParallel, Technology::Egt);
    println!("\npower budget: {} -> {}", egt.power, egt.feasibility());

    // 5. The artifact a fab would consume.
    let verilog = to_verilog(&module);
    let preview: String = verilog.lines().take(8).collect::<Vec<_>>().join("\n");
    println!(
        "\nstructural Verilog ({} lines), head:\n{preview}",
        verilog.lines().count()
    );
}
