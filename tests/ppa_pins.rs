//! Pins the PPA numbers of four representative generated designs, bit
//! for bit, in all three technologies.
//!
//! Every Delay/Area/Power column of the reproduction comes out of
//! `netlist::analyze`, so a change to how the analysis walks a netlist
//! must leave these bits alone. The four designs cover each kind of
//! path the critical-path sweep handles: plain combinational logic (a
//! bespoke tree), ROM macros (a lookup SVM), flip-flops whose D pins end
//! paths (a bespoke serial tree) and a large registered datapath (a
//! conventional SVM). The maximum logic depth is pinned alongside.

use printed_ml::core::flow::{SvmArch, SvmFlow, TreeArch, TreeFlow};
use printed_ml::core::lookup::LookupConfig;
use printed_ml::ml::synth::Application;
use printed_ml::netlist::{analyze, max_logic_levels, Module};
use printed_ml::pdk::{CellLibrary, Technology};

/// `(design, area, power, delay)` canonical-unit bits per technology,
/// in `Technology::ALL` order, then the design's maximum logic levels.
type Pin = (&'static str, [[u64; 3]; 3], usize);

const PINNED: &[Pin] = &[
    (
        "bespoke_tree",
        [
            [0x405109fbe76c8b48, 0x4007caea747d8054, 0x3f853ef6b5d462c5],
            [0x3fe3d3c36113404f, 0x404296872b020c52, 0x3ee2a5db2c9d282b],
            [0x3f403e10b1d3f823, 0x3fe5cf56eac86055, 0x3decdaf57bc8cf6d],
        ],
        15,
    ),
    (
        "lookup_svm",
        [
            [0x40b3926e147ae13b, 0x40943d094467381c, 0x3faa311e85fd049f],
            [0x40c489df212d7730, 0x40973ae0ad03d9d6, 0x3f06fd2dced67887],
            [0x3faddb5f8cad77fb, 0x40a5b78d5f99c38b, 0x3e72ba987efb3f38],
        ],
        64,
    ),
    (
        "serial_tree",
        [
            [0x406040f5c28f5c29, 0x401ace560418937b, 0x3f989f40a2877ee1],
            [0x4043add2f1a9fbe8, 0x40484c87fcb923a5, 0x3ef59c746a601b20],
            [0x3f460c465f5fe1f7, 0x40073573eab367a0, 0x3e66cffcbf2200f5],
        ],
        1,
    ),
    (
        "conventional_svm",
        [
            [0x40b800c8b4395593, 0x40723ecd4aa10d73, 0x3fb28112ba16e7a7],
            [0x404cf79a6b50adf8, 0x40a805ba5e353bbc, 0x3f103dcbf9a45777],
            [0x3fa599140da906ee, 0x404cd80b24206cb0, 0x3e1921aeadc0e77c],
        ],
        93,
    ),
];

fn designs() -> Vec<(&'static str, Module)> {
    let tree = TreeFlow::new(Application::Har, 4, 7);
    let svm = SvmFlow::new(Application::Har, 7);
    let digital = "digital architecture";
    vec![
        (
            "bespoke_tree",
            tree.module(TreeArch::BespokeParallel).expect(digital),
        ),
        (
            "lookup_svm",
            svm.module(SvmArch::Lookup(LookupConfig::optimized()))
                .expect(digital),
        ),
        (
            "serial_tree",
            tree.module(TreeArch::BespokeSerial).expect(digital),
        ),
        (
            "conventional_svm",
            svm.module(SvmArch::Conventional).expect(digital),
        ),
    ]
}

#[test]
fn ppa_bits_of_representative_designs_are_pinned() {
    let designs = designs();
    let (_, lookup) = &designs[1];
    assert!(!lookup.roms.is_empty(), "the lookup SVM must exercise ROMs");
    for (name, m) in &designs[2..] {
        assert!(m.dff_count() > 0, "{name} must exercise DFF endpoints");
    }
    let got: Vec<Pin> = designs
        .iter()
        .map(|(name, m)| {
            let bits = Technology::ALL.map(|tech| {
                let ppa = analyze(m, &CellLibrary::for_technology(tech));
                [
                    ppa.area.value().to_bits(),
                    ppa.power.value().to_bits(),
                    ppa.delay.value().to_bits(),
                ]
            });
            (*name, bits, max_logic_levels(m).expect("acyclic"))
        })
        .collect();
    assert_eq!(got, PINNED, "a PPA number moved:\n{got:#x?}");
}
