//! Pins what fanout repair emits on the ablation's design, byte for byte.
//!
//! `netlist::insert_buffers` on the Pendigits DT-8 bespoke parallel tree
//! (the `ablation_fanout` design, model seed 7) at every limit from 2 to
//! 8: the content key of each repaired module, gate order and net
//! numbering included. The pins were taken from the round-by-round
//! buffering loop that rebuilt its reader index for every buffered net;
//! the one-pass repair must choose the same nets in the same order.

use printed_ml::cache;
use printed_ml::core::flow::{TreeArch, TreeFlow};
use printed_ml::ml::synth::Application;
use printed_ml::netlist::{insert_buffers, max_fanout};

/// `(limit, content key of the repaired module)`.
const PINNED: [(usize, &str); 7] = [
    (2, "0c43e83747ae097ce3b9018062956102"),
    (3, "381a863b8aa8dd5524fac4fc43bbcbcf"),
    (4, "881f26805028eff7cf2d2374f9b4f0b9"),
    (5, "9547fc3bba097c1d36149a386567d85d"),
    (6, "a6050159f6a1ddd6322d089d5f7c1692"),
    (7, "9e3d42d1d612d45f601df88268d51a01"),
    (8, "d328aeb926f73e61c21e153e70281226"),
];

#[test]
fn pendigits_dt8_repair_is_pinned_at_every_limit() {
    let flow = TreeFlow::new(Application::Pendigits, 8, 7);
    let module = flow.module(TreeArch::BespokeParallel).expect("digital");
    let got: Vec<(usize, String)> = (2..=8)
        .map(|limit| {
            let repaired = insert_buffers(&module, limit);
            assert!(max_fanout(&repaired) <= limit, "limit {limit}");
            (limit, cache::key_for("fanout.pins", &repaired).to_string())
        })
        .collect();
    let want: Vec<(usize, String)> = PINNED.iter().map(|&(l, k)| (l, k.to_string())).collect();
    assert_eq!(got, want, "fanout repair changed a repaired module");
}
