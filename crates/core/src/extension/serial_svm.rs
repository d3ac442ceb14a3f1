//! Time-multiplexed (serial) SVM engines — a design-space extension.
//!
//! The paper's SVM engines are fully parallel ("every MAC operation is
//! assigned to its own MAC unit", §III-A.2); its trees, by contrast, come
//! in both serial and parallel flavours. This module completes the 2×2:
//! a serial SVM with **one** multiplier, an accumulator, a coefficient
//! ROM and a feature counter, trading `n_terms` cycles of latency for an
//! `n_terms`-fold reduction in multiplier hardware — the same
//! work-efficiency corner the serial tree occupies.
//!
//! Signed arithmetic stays unsigned the same way the bespoke SVM does:
//! positive- and negative-coefficient terms accumulate into separate
//! registers `P` and `N` (the coefficient ROM carries a sign bit steering
//! an enable), and the boundary comparisons `P > N + B_c` happen
//! combinationally once `done` rises.

use ml::quant::QuantizedSvm;
use netlist::arith::{add, multiply};
use netlist::builder::NetlistBuilder;
use netlist::ir::{Module, Signal};
use netlist::optimize;
use netlist::seq::shift_register;
use pdk::rom::RomStyle;

use crate::bespoke::svm::{class_mapper, comparison_width};
use crate::ceil_log2;
use crate::ports::svm_ports;

/// Dimensions of a generated serial SVM engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SerialSvmInfo {
    /// Cycles per inference (= number of non-zero coefficient terms).
    pub cycles: usize,
    /// Datapath width.
    pub width: usize,
    /// Accumulator width.
    pub acc_width: usize,
}

/// Generates a bespoke **serial** SVM engine for `svm`.
///
/// Ports: `x{f}` inputs for live features, outputs `class`, `therm` and
/// `done`. One inference takes [`SerialSvmInfo::cycles`] clock cycles
/// after reset; `class` is valid when `done` is high.
///
/// Returns the module together with its timing info.
pub fn serial_svm(svm: &QuantizedSvm) -> (Module, SerialSvmInfo) {
    let width = svm.bits();
    // Term schedule: positives first, then negatives.
    let terms: Vec<(usize, u64, bool)> = svm
        .pos_terms()
        .iter()
        .map(|&(f, m)| (f, m, true))
        .chain(svm.neg_terms().iter().map(|&(f, m)| (f, m, false)))
        .collect();
    let cycles = terms.len().max(1);
    let acc_width = comparison_width(svm);

    let mut b = NetlistBuilder::new("serial_svm");
    let ports = svm_ports(&mut b, svm);

    // Step counter as a one-hot walking shift register (cheap decode, the
    // same trick as the serial tree's node pointer).
    b.push_region("control");
    let step = shift_register(&mut b, Signal::ZERO, cycles + 1, 1);
    // The walking one-hot leaves the register after `cycles` steps, so
    // `done` latches sticky: once the seed reaches the last stage it is
    // ORed into a set-only flip-flop.
    let done_pulse = step[cycles];
    let done_q = b.dff(Signal::ZERO, false);
    let done = b.or(done_pulse, done_q);
    b.set_dff_input(done_q, done);
    b.pop_region();

    // Coefficient ROM: one word per cycle = [magnitude | sign]; addressed
    // by the binary-encoded step (derived from the one-hot register).
    let coef_bits = terms
        .iter()
        .map(|&(_, m, _)| (64 - m.leading_zeros()) as usize)
        .max()
        .unwrap_or(1)
        .max(1);
    b.push_region("coefficients");
    // Binary step index from one-hot: OR of the one-hot lines per bit.
    let idx_bits = ceil_log2(cycles);
    let idx: Vec<Signal> = (0..idx_bits)
        .map(|bit| {
            let contributors: Vec<Signal> = (0..cycles)
                .filter(|i| (i >> bit) & 1 == 1)
                .map(|i| step[i])
                .collect();
            if contributors.is_empty() {
                Signal::ZERO
            } else {
                b.or_reduce(&contributors)
            }
        })
        .collect();
    let rom_words: Vec<u64> = terms
        .iter()
        .map(|&(_, m, positive)| m | ((positive as u64) << coef_bits))
        .collect();
    let rom_out = b.rom(&idx, rom_words, coef_bits + 1, RomStyle::Crossbar);
    let (coef, sign) = rom_out.split_at(coef_bits);
    let is_positive = sign[0];
    b.pop_region();

    // Feature mux: select the scheduled feature for this cycle.
    b.push_region("feature-mux");
    let words: Vec<Vec<Signal>> = terms.iter().map(|&(f, _, _)| ports[&f].clone()).collect();
    let x = b.mux_tree(&idx, &words);
    b.pop_region();

    // The single multiplier.
    b.push_region("mac");
    let product = multiply(&mut b, &x, coef);
    let mut product_ext = product;
    product_ext.resize(acc_width, Signal::ZERO);

    // Two accumulators; the sign bit steers which one updates.
    let p_reg: Vec<Signal> = (0..acc_width).map(|_| b.dff(Signal::ZERO, false)).collect();
    let n_reg: Vec<Signal> = (0..acc_width).map(|_| b.dff(Signal::ZERO, false)).collect();
    let p_sum = add(&mut b, &p_reg, &product_ext);
    let n_sum = add(&mut b, &n_reg, &product_ext);
    // Hold when done; accumulate into the signed side otherwise.
    let not_done = b.not(done);
    let take_p = b.and(is_positive, not_done);
    let negative = b.not(is_positive);
    let take_n = b.and(negative, not_done);
    for (i, &q) in p_reg.iter().enumerate() {
        let next = b.mux(take_p, q, p_sum[i]);
        b.set_dff_input(q, next);
    }
    for (i, &q) in n_reg.iter().enumerate() {
        let next = b.mux(take_n, q, n_sum[i]);
        b.set_dff_input(q, next);
    }
    b.pop_region();

    // Class mapper (combinational, valid when done).
    b.push_region("classmap");
    let (class, therm) = class_mapper(&mut b, svm.boundaries(), &p_reg, &n_reg);
    b.pop_region();

    b.output("class", &class);
    b.output("therm", &therm);
    b.output("done", &[done]);
    let module = optimize(&b.finish());
    (
        module,
        SerialSvmInfo {
            cycles,
            width,
            acc_width,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bespoke::bespoke_svm;
    use crate::ports::svm_inputs;
    use ml::data::Standardizer;
    use ml::quant::FeatureQuantizer;
    use ml::synth::Application;
    use ml::SvmRegressor;
    use netlist::analyze;
    use netlist::sim::Simulator;
    use pdk::{CellLibrary, Technology};

    fn setup(app: Application, bits: usize) -> (QuantizedSvm, FeatureQuantizer, ml::Dataset) {
        let data = app.generate(7);
        let (train, test) = data.split(0.7, 42);
        let s = Standardizer::fit(&train);
        let (train, test) = (s.transform(&train), s.transform(&test));
        let svm = SvmRegressor::fit(&train, 150, 1e-4);
        let fq = FeatureQuantizer::fit(&train, bits);
        (QuantizedSvm::from_svm(&svm, &fq), fq, test)
    }

    /// `(class, done)` after `cycles` clocks of one inference; the
    /// engine's outputs are `class`, `therm` and `done`.
    fn infer(sim: &mut Simulator, inputs: &[u64], cycles: usize) -> (u64, u64) {
        let outputs = sim
            .try_apply(inputs, cycles)
            .expect("one value per live feature");
        (outputs[0], outputs[2])
    }

    #[test]
    fn serial_svm_matches_software_svm() {
        let (qs, fq, test) = setup(Application::RedWine, 6);
        let (module, info) = serial_svm(&qs);
        let mut sim = Simulator::new(&module);
        for row in test.x.iter().take(60) {
            let codes = fq.code_row(row);
            let class = qs.predict(&codes) as u64;
            let inputs = svm_inputs(&qs, &codes);
            assert_eq!(infer(&mut sim, &inputs, info.cycles), (class, 1));
        }
    }

    #[test]
    fn schedules_longer_than_a_machine_word_keep_one_walking_step() {
        // GasId keeps more than 64 coefficient terms at 8 bits, so the
        // one-hot step register is longer than its u64 power-on word.
        let (qs, fq, test) = setup(Application::GasId, 8);
        let (module, info) = serial_svm(&qs);
        assert!(info.cycles > 64, "{} cycles", info.cycles);
        let mut sim = Simulator::new(&module);
        for row in test.x.iter().take(4) {
            let codes = fq.code_row(row);
            let inputs = svm_inputs(&qs, &codes);
            let (_, done) = infer(&mut sim, &inputs, info.cycles - 1);
            assert_eq!(done, 0, "done before the last term");
            let class = qs.predict(&codes) as u64;
            assert_eq!(infer(&mut sim, &inputs, info.cycles), (class, 1));
        }
    }

    #[test]
    fn serial_svm_trades_area_for_latency() {
        let lib = CellLibrary::for_technology(Technology::Egt);
        let (qs, _, _) = setup(Application::RedWine, 8);
        let parallel = analyze(&bespoke_svm(&qs), &lib);
        let (module, info) = serial_svm(&qs);
        let serial = analyze(&module, &lib);
        // Smaller in logic area (one multiplier instead of n), slower
        // end-to-end.
        assert!(
            serial.logic_area < parallel.logic_area,
            "serial {} vs parallel {}",
            serial.logic_area,
            parallel.logic_area
        );
        assert!(serial.latency(info.cycles) > parallel.latency(1));
    }

    #[test]
    fn done_stays_high_and_class_stays_stable_after_completion() {
        let (qs, fq, test) = setup(Application::Har, 4);
        let (module, info) = serial_svm(&qs);
        let mut sim = Simulator::new(&module);
        let inputs = svm_inputs(&qs, &fq.code_row(&test.x[0]));
        let (class, _) = infer(&mut sim, &inputs, info.cycles);
        for extra in 1..=3 {
            assert_eq!(
                infer(&mut sim, &inputs, info.cycles + extra),
                (class, 1),
                "done must latch and class hold after done"
            );
        }
    }
}
