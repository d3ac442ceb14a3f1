//! Self-checking Verilog testbench emission.
//!
//! The paper's flow hands generated RTL to a commercial tool chain; ours
//! can do the same, and this module closes the loop by emitting a
//! testbench whose expected outputs come from our own functional
//! simulator. Run the pair through any Verilog simulator and a mismatch
//! prints `FAIL`; a clean run prints `PASS`.

use std::fmt::Write as _;

use crate::ir::Module;
use crate::sim::Simulator;
use crate::verilog::{sanitize, to_verilog};

/// One stimulus: a value per input port, in the module's port order.
pub type Vector = Vec<u64>;

/// Renders `module` plus a self-checking testbench over `vectors`.
///
/// For combinational modules each vector is applied and checked after a
/// settle delay. For sequential modules the testbench first returns every
/// flip-flop to its power-on value, so each vector starts from the state
/// its expected outputs were computed from, then pulses the clock
/// `cycles_per_vector` times after applying the vector (matching how the
/// serial tree consumes one inference per `depth` cycles).
///
/// Expected outputs are this crate's own semantics made executable: one
/// [`Simulator::try_apply`] per vector, which resets, drives, clocks and
/// settles the same way.
///
/// # Panics
/// Panics if any vector's length differs from the module's input count.
pub fn to_testbench(module: &Module, vectors: &[Vector], cycles_per_vector: usize) -> String {
    let mut out = to_verilog(module);
    let sequential = !module.is_combinational();
    let cycles = if sequential {
        cycles_per_vector.max(1)
    } else {
        0
    };
    for (vi, vector) in vectors.iter().enumerate() {
        assert_eq!(
            vector.len(),
            module.inputs.len(),
            "vector {vi} has {} values for {} inputs",
            vector.len(),
            module.inputs.len()
        );
    }
    let mut sim = Simulator::new(module);

    let _ = writeln!(out, "\nmodule tb;");
    if sequential {
        let _ = writeln!(out, "  reg clk = 0;");
        let _ = writeln!(out, "  always #5 clk = ~clk;");
    }
    for p in &module.inputs {
        let _ = writeln!(
            out,
            "  reg [{}:0] {} = 0;",
            p.width().saturating_sub(1),
            p.name
        );
    }
    for p in &module.outputs {
        let _ = writeln!(
            out,
            "  wire [{}:0] {};",
            p.width().saturating_sub(1),
            p.name
        );
    }
    let mut ports: Vec<String> = Vec::new();
    if sequential {
        ports.push(".clk(clk)".to_string());
    }
    for p in module.inputs.iter().chain(&module.outputs) {
        ports.push(format!(".{0}({0})", p.name));
    }
    let _ = writeln!(
        out,
        "  {} dut ({});",
        sanitize(&module.name),
        ports.join(", ")
    );
    let _ = writeln!(out, "  integer errors = 0;");
    let _ = writeln!(out, "  initial begin");

    for (vi, vector) in vectors.iter().enumerate() {
        let expected = sim.try_apply(vector, cycles).unwrap_or_else(|e| e.raise());
        // The DUT's registers, as `to_verilog` names them, back to the
        // same power-on values.
        for (gi, gate) in module.gates.iter().enumerate() {
            if gate.kind.is_sequential() {
                let _ = writeln!(out, "    dut.q{gi} = 1'b{};", gate.init as u8);
            }
        }
        for (p, &v) in module.inputs.iter().zip(vector) {
            let _ = writeln!(out, "    {} = {}'d{};", p.name, p.width(), v);
        }
        if sequential {
            let _ = writeln!(out, "    repeat ({cycles}) @(posedge clk);");
            let _ = writeln!(out, "    #1;");
        } else {
            let _ = writeln!(out, "    #10;");
        }
        for (p, expect) in module.outputs.iter().zip(expected) {
            let _ = writeln!(
                out,
                "    if ({} !== {}'d{}) begin $display(\"FAIL vector {} port {}: got %0d want {}\", {}); errors = errors + 1; end",
                p.name,
                p.width(),
                expect,
                vi,
                p.name,
                expect,
                p.name
            );
        }
    }
    let _ = writeln!(out, "    if (errors == 0) $display(\"PASS\");");
    let _ = writeln!(out, "    $finish;");
    let _ = writeln!(out, "  end");
    let _ = writeln!(out, "endmodule");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    #[test]
    fn combinational_testbench_embeds_expected_values() {
        let mut b = NetlistBuilder::new("adder");
        let x = b.input("x", 3);
        let y = b.input("y", 3);
        let s = crate::arith::add(&mut b, &x, &y);
        b.output("s", &s);
        let m = b.finish();
        let tb = to_testbench(&m, &[vec![3, 4], vec![7, 7]], 1);
        assert!(tb.contains("module tb;"));
        assert!(tb.contains("4'd7"), "3+4 expectation missing:\n{tb}");
        assert!(tb.contains("4'd14"), "7+7 expectation missing");
        assert!(tb.contains("PASS"));
        assert!(
            !tb.contains("clk"),
            "combinational testbench needs no clock"
        );
    }

    #[test]
    fn sequential_testbench_pulses_the_clock() {
        let mut b = NetlistBuilder::new("reg");
        let d = b.input("d", 2);
        let q = b.register(&d, 0);
        b.output("q", &q);
        let m = b.finish();
        let tb = to_testbench(&m, &[vec![2]], 1);
        assert!(tb.contains("always #5 clk = ~clk;"));
        assert!(tb.contains("repeat (1) @(posedge clk);"));
        assert!(tb.contains("2'd2"));
    }

    #[test]
    fn sequential_testbench_reinitializes_state_before_every_vector() {
        // An accumulator: `acc <= acc ^ d` carries state from one vector
        // to the next unless the registers return to their power-on
        // values first.
        let mut b = NetlistBuilder::new("acc");
        let d = b.input("d", 2);
        let acc = b.register(&d, 0b01);
        for (&q, &x) in acc.iter().zip(&d) {
            let next = b.xor(q, x);
            b.set_dff_input(q, next);
        }
        b.output("q", &acc);
        let m = b.finish();
        let tb = to_testbench(&m, &[vec![2], vec![2], vec![3]], 1);
        let reinit: Vec<usize> = tb.match_indices("    dut.q").map(|(i, _)| i).collect();
        let applied: Vec<usize> = tb.match_indices("    d = 2'd").map(|(i, _)| i).collect();
        assert_eq!(reinit.len(), 2 * applied.len(), "{tb}");
        for (v, &at) in applied.iter().enumerate() {
            let block = &tb[..at];
            let previous = if v == 0 { 0 } else { applied[v - 1] };
            assert_eq!(
                block[previous..].matches("    dut.q").count(),
                2,
                "vector {v} is not preceded by both re-inits:\n{tb}"
            );
        }
        // Power-on state 01: each vector's golden is `1 ^ d` alone.
        for (v, want) in [(0, 3), (1, 3), (2, 2)] {
            assert!(
                tb.contains(&format!("FAIL vector {v} port q: got %0d want {want}\"")),
                "vector {v} should expect {want}:\n{tb}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "vector 0 has")]
    fn wrong_arity_vectors_are_rejected() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x", 1);
        b.output("o", &[x[0]]);
        let m = b.finish();
        let _ = to_testbench(&m, &[vec![1, 2]], 1);
    }
}
