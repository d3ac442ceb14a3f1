//! Pins the stuck-at fault grading of the sign-off workload, site for
//! site.
//!
//! `netlist::fault_coverage` is rewritten for speed from time to time;
//! each rewrite must reach the same verdict on every fault site, so the
//! coverage figures of the sign-off stage and the fault-coverage ablation
//! cannot move. This test follows the sign-off benchmark's protocol: the
//! paper's seed-7 models, the optimized bespoke netlist, and 256 test
//! rows drawn with replacement (seed 7) and quantized to codes. It grades
//! the seven bespoke SVMs (the largest graded designs, some with more
//! than 20k sites) and the Cardio and HAR depth-4 trees of the ablation
//! table, and pins `(total, detected)` plus a digest of the undetected
//! site list in order.

use printed_ml::cache;
use printed_ml::core::bespoke::{bespoke_parallel_raw, bespoke_svm_raw};
use printed_ml::core::flow::{SvmFlow, TreeFlow};
use printed_ml::core::{svm_inputs, tree_inputs};
use printed_ml::exec::rng::StdRng;
use printed_ml::ml::data::Dataset;
use printed_ml::ml::quant::FeatureQuantizer;
use printed_ml::ml::synth::Application;
use printed_ml::netlist::{fault_coverage, optimize, FaultCoverage};

/// The paper's model seed, also the stimulus seed.
const SEED: u64 = 7;
/// Sampled test rows per graded design.
const ROWS: usize = 256;

/// `(design, total sites, detected, digest of the undetected list)`.
type Pin = (String, usize, usize, u64);

const PINNED: &[(&str, usize, usize, u64)] = &[
    ("arrhythmia-svm", 16860, 16063, 0xecd2f8c47eb99e86),
    ("cardio-svm", 822, 672, 0xbbb1fef586cf0c12),
    ("gasid-svm", 21320, 4326, 0x3021370ef24c79fe),
    ("har-svm", 6572, 2266, 0xb849c16523acc9b4),
    ("pendigits-svm", 1780, 1487, 0xec12fe839f5fbcc5),
    ("redwine-svm", 3600, 2368, 0x5d1e1cdb336c5039),
    ("whitewine-svm", 3220, 2318, 0x4662c8784facf534),
    ("cardio-dt4", 364, 161, 0x7d481ba17a221271),
    ("har-dt4", 532, 159, 0xf16c54f0916d2f21),
];

/// `n` test rows drawn with replacement by `seed`, quantized to codes.
fn sampled_rows(test: &Dataset, fq: &FeatureQuantizer, n: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| fq.code_row(&test.x[rng.gen_range(0..test.x.len())]))
        .collect()
}

fn pin(design: String, cov: &FaultCoverage) -> Pin {
    let mut words = vec![cov.total as u64, cov.detected as u64];
    words.extend(
        cov.undetected
            .iter()
            .map(|f| ((f.net.index() as u64) << 1) | u64::from(f.stuck_at)),
    );
    let key = cache::key_for_serialized("netlist.fault_pins", &words);
    let digest = u64::from_le_bytes(key.0[..8].try_into().expect("16-byte key"));
    (design, cov.total, cov.detected, digest)
}

#[test]
fn signoff_fault_grading_is_pinned_site_for_site() {
    cache::set_enabled(false);
    let mut got: Vec<Pin> = Vec::new();
    for app in Application::ALL {
        let flow = SvmFlow::new(app, SEED);
        let module = optimize(&bespoke_svm_raw(&flow.qs));
        let rows = sampled_rows(&flow.test, &flow.fq, ROWS, SEED);
        let vectors: Vec<_> = rows.iter().map(|r| svm_inputs(&flow.qs, r)).collect();
        got.push(pin(
            format!("{}-svm", app.name()),
            &fault_coverage(&module, &vectors),
        ));
    }
    for app in [Application::Cardio, Application::Har] {
        let flow = TreeFlow::new(app, 4, SEED);
        let module = optimize(&bespoke_parallel_raw(&flow.qt));
        let rows = sampled_rows(&flow.test, &flow.fq, ROWS, SEED);
        let ports = module.inputs.len();
        let vectors: Vec<_> = rows
            .iter()
            .map(|r| tree_inputs(&flow.qt, r, ports))
            .collect();
        got.push(pin(
            format!("{}-dt4", app.name()),
            &fault_coverage(&module, &vectors),
        ));
    }
    let want: Vec<Pin> = PINNED
        .iter()
        .map(|&(d, t, n, h)| (d.to_string(), t, n, h))
        .collect();
    assert_eq!(got, want, "a fault verdict moved:\n{got:#x?}");
}
