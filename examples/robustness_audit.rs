//! Robustness audit: would this classifier survive being *printed*?
//!
//! Before committing a bespoke design to ink, a designer wants to know
//! how it behaves off-nominal: printed-resistor tolerance (analog),
//! sensor calibration drift (all), stuck-at manufacturing defects
//! (digital), and the bent-to-10-mm deployment corner from §VII. This
//! example runs all four audits on one workload.
//!
//! ```text
//! cargo run --release --example robustness_audit [dataset]
//! ```

use printed_ml::core::flow::{TreeArch, TreeFlow};
use printed_ml::ml::metrics::accuracy;
use printed_ml::ml::synth::Application;
use printed_ml::netlist::{analyze, fault_coverage, max_logic_levels};
use printed_ml::pdk::{classify, CellLibrary, Technology};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "har".into());
    let app = Application::ALL
        .into_iter()
        .find(|a| a.name() == name)
        .unwrap_or(Application::Har);
    println!("== robustness audit: {} ==\n", app.name());

    let flow = TreeFlow::new(app, 4, 7);
    let module = flow
        .module(TreeArch::BespokeParallel)
        .expect("digital design");
    println!(
        "design under audit: bespoke parallel tree, {} nodes, {} bits, {} gates, {} logic levels\n",
        flow.qt.comparison_count(),
        flow.choice.bits,
        module.gate_count(),
        max_logic_levels(&module).expect("generated designs are acyclic")
    );

    // 1. Analog print tolerance.
    println!("1. printed-resistor tolerance (analog realization)");
    let reports = flow
        .variation_sweep(&[0.02, 0.05, 0.1, 0.2], 16, 150, 7)
        .expect("fixed sigmas, trials and rows are valid");
    for r in reports {
        println!(
            "   sigma {:>4.0}%: mean agreement {:.3}, worst {:.3}",
            r.sigma * 100.0,
            r.mean_agreement,
            r.worst_agreement
        );
    }

    // 2. Sensor drift.
    println!("\n2. sensor calibration drift (digital accuracy)");
    for drift in [0.0, 0.1, 0.25, 0.5] {
        let drifted = flow.test.with_drift(drift, 7);
        let acc = accuracy(
            drifted
                .x
                .iter()
                .map(|r| flow.qt.predict(&flow.fq.code_row(r))),
            drifted.y.iter().copied(),
        )
        .unwrap();
        println!("   drift {drift:>4.2} sigma: accuracy {acc:.3}");
    }

    // 3. Manufacturing test.
    println!("\n3. stuck-at fault coverage of the functional test set");
    let used = flow.qt.used_features();
    let vectors: Vec<Vec<u64>> = flow
        .test
        .x
        .iter()
        .take(120)
        .map(|row| {
            let codes = flow.fq.code_row(row);
            used.iter().map(|&f| codes[f]).collect()
        })
        .collect();
    let cov = fault_coverage(&module, &vectors);
    println!(
        "   {} vectors detect {}/{} faults ({:.0}%) — augment with structural \
         patterns before shipping",
        vectors.len(),
        cov.detected,
        cov.total,
        cov.coverage() * 100.0
    );

    // 4. Bent corner.
    println!("\n4. bent-to-10mm deployment corner (§VII)");
    let nominal = CellLibrary::for_technology(Technology::Egt);
    let bent = nominal.bent_corner();
    let p0 = analyze(&module, &nominal);
    let p1 = analyze(&module, &bent);
    println!(
        "   nominal: {} / {} -> {}",
        p0.latency(1),
        p0.power,
        classify(p0.power).source_name()
    );
    println!(
        "   bent:    {} / {} -> {}",
        p1.latency(1),
        p1.power,
        classify(p1.power).source_name()
    );
}
