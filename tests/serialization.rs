//! Serde round-trips and emitted-artifact sanity checks.

use printed_ml::core::flow::{TreeArch, TreeFlow};
use printed_ml::ml::synth::Application;
use printed_ml::netlist::{to_verilog, Module};
use printed_ml::pdk::{CellLibrary, RomSpec, Technology};

#[test]
fn cell_libraries_round_trip_through_json() {
    use printed_ml::pdk::CellKind;
    for tech in Technology::ALL {
        let lib = CellLibrary::for_technology(tech);
        let json = serde_json::to_string(&lib).expect("serialize");
        let back: CellLibrary = serde_json::from_str(&json).expect("deserialize");
        // JSON float printing can lose the last ulp; compare costs to
        // relative tolerance instead of bitwise equality.
        assert_eq!(lib.technology(), back.technology());
        for kind in CellKind::ALL {
            let a = lib.cost(kind);
            let b = back.cost(kind);
            assert!((a.area.as_mm2() - b.area.as_mm2()).abs() <= a.area.as_mm2() * 1e-12);
            assert!((a.delay.as_secs() - b.delay.as_secs()).abs() <= a.delay.as_secs() * 1e-12);
            assert!((a.power.as_mw() - b.power.as_mw()).abs() <= a.power.as_mw() * 1e-12);
        }
    }
}

#[test]
fn rom_specs_round_trip_through_json() {
    let spec = RomSpec::bespoke(64, 12, 300);
    let json = serde_json::to_string(&spec).unwrap();
    let back: RomSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(spec, back);
}

#[test]
fn modules_round_trip_through_json() {
    let flow = TreeFlow::new(Application::Har, 2, 7);
    let module = flow.module(TreeArch::BespokeParallel).unwrap();
    let json = serde_json::to_string(&module).expect("serialize module");
    let back: Module = serde_json::from_str(&json).expect("deserialize module");
    assert_eq!(module, back);
    back.validate().expect("deserialized module still valid");
}

#[test]
fn gates_with_more_than_three_inputs_are_a_typed_error() {
    use printed_ml::netlist::NetlistBuilder;
    let mut b = NetlistBuilder::new("wide");
    let x = b.input("x", 2);
    let y = b.nand(x[0], x[1]);
    b.output("y", &[y]);
    let json = serde_json::to_string(&b.finish()).expect("serialize module");
    let two = r#""inputs":[{"Net":0},{"Net":1}]"#;
    assert!(json.contains(two), "{json}");
    let four = r#""inputs":[{"Net":0},{"Net":1},{"Net":0},{"Net":1}]"#;
    let err = serde_json::from_str::<Module>(&json.replace(two, four))
        .expect_err("a four-input gate must not deserialize");
    assert!(err.to_string().contains("at most 3 input pins"), "{err}");
    // Three pins or fewer deserialize, and validation names the mismatch.
    let three = r#""inputs":[{"Net":0},{"Net":1},{"Net":0}]"#;
    let m: Module = serde_json::from_str(&json.replace(two, three)).expect("three pins load");
    let err = m.validate().expect_err("a three-input NAND2 is invalid");
    assert!(err.contains("has 3 inputs, expected 2"), "{err}");
}

#[test]
fn design_reports_serialize_for_tooling() {
    let flow = TreeFlow::new(Application::Cardio, 2, 7);
    let report = flow.report(TreeArch::BespokeParallel, Technology::Egt);
    let json = serde_json::to_string_pretty(&report).unwrap();
    let v: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert!(
        v["area"].is_number()
            || v["area"].is_object()
            || v["area"].is_f64()
            || !v["area"].is_null()
    );
    assert_eq!(v["technology"], "Egt");
    assert!(v["gate_count"].as_u64().unwrap() > 0);
}

#[test]
fn emitted_verilog_is_structurally_sane_for_every_architecture() {
    use printed_ml::core::LookupConfig;
    let flow = TreeFlow::new(Application::Cardio, 4, 7);
    for arch in [
        TreeArch::ConventionalSerial,
        TreeArch::ConventionalParallel,
        TreeArch::BespokeSerial,
        TreeArch::BespokeParallel,
        TreeArch::Lookup(LookupConfig::optimized()),
    ] {
        let module = flow.module(arch).unwrap();
        let v = to_verilog(&module);
        // Module/endmodule balance.
        assert_eq!(
            v.matches("module ").count() - v.matches("endmodule").count(),
            0,
            "{arch:?}"
        );
        // Every case has a default and an endcase.
        assert_eq!(
            v.matches("case (").count(),
            v.matches("endcase").count(),
            "{arch:?}"
        );
        assert_eq!(
            v.matches("case (").count(),
            v.matches("default:").count(),
            "{arch:?}"
        );
        // Sequential designs declare the clock they use.
        if !module.is_combinational() {
            assert!(v.contains("input wire clk"), "{arch:?}");
        }
        // Every input port appears in the body.
        for p in &module.inputs {
            assert!(
                v.contains(&format!("{}[", p.name)),
                "{arch:?} missing port {}",
                p.name
            );
        }
    }
}
