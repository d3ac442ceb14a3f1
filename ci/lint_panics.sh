#!/usr/bin/env bash
# Forbids panic!(...) and .unwrap( on the hot simulation / metrics paths
# and in the core flows.
#
# The netlist and metrics files expose fallible `try_*` APIs
# (netlist::SimError, ml::MetricsError); their non-test code must route
# every failure through those types so the differential fuzzer can
# distinguish "engines disagree" from "input rejected". The legacy
# panicking wrappers delegate to SimError::raise() (which lives in
# error.rs, outside this lint's scope) so the panic message stays
# Display-formatted. The sign-off engines (verify.rs, faults.rs and the
# fault grader's compile/cone.rs) check, the optimizer (opt.rs) and the
# fanout pass (fanout.rs) rewrite, and the core flows (flow.rs,
# signoff.rs) build and sign off, every architecture the CLI and the
# benchmark reach, so they are held to the same rule. So are the core
# generators those flows call (the bespoke, lookup, forest, serial-SVM
# and conventional-SVM generators, the shared helpers in lib.rs and the
# port maps in ports.rs), the
# analog engine files the variation Monte-Carlo runs through
# (compile.rs, variation.rs and the device, crossbar, SVM, tree and
# comparator models), the transient solver (transient.rs) and proto.rs,
# the fabricated-prototype models. Every pdk file is: every PPA number
# and every analog model reads its cell library and device parameters.
# Every ml file is: the flows train through all of them. So are the
# code the `printed-ml` CLI runs on user input (the CLI itself, the
# Verilog testbench emitter, the width search, the analog and PPA
# reports) and the ratio figures of the reproduction, and the shared
# workload builders (bench's workloads.rs) that every `repro_all` run,
# its `--verify` fault grading included, goes through. So is the artifact
# cache (store.rs, hash.rs, lib.rs): every cached flow runs through
# `cache::memo`, so its locks recover from poisoning instead of
# unwrapping.
#
# Test modules are exempt: everything from the first `#[cfg(test)]` line
# to end-of-file is stripped before grepping. So these files keep all
# their test modules at the bottom, and the lint fails on any top-level
# item below the first `#[cfg(test)]` that is not itself `#[cfg(test)]`
# (such an item would never be linted).
set -euo pipefail

cd "$(dirname "$0")/.."

FILES=(
  crates/netlist/src/sim.rs
  crates/netlist/src/compile.rs
  crates/netlist/src/compile/cone.rs
  crates/netlist/src/faults.rs
  crates/netlist/src/verify.rs
  crates/netlist/src/levels.rs
  crates/netlist/src/analysis.rs
  crates/netlist/src/stats.rs
  crates/netlist/src/opt.rs
  crates/netlist/src/fanout.rs
  crates/netlist/src/testbench.rs
  crates/ml/src/data.rs
  crates/ml/src/forest.rs
  crates/ml/src/lib.rs
  crates/ml/src/linear.rs
  crates/ml/src/metrics.rs
  crates/ml/src/mlp.rs
  crates/ml/src/opcount.rs
  crates/ml/src/quant.rs
  crates/ml/src/synth.rs
  crates/ml/src/tree.rs
  crates/core/src/flow.rs
  crates/core/src/signoff.rs
  crates/core/src/bitwidth.rs
  crates/core/src/analog_arch.rs
  crates/core/src/report.rs
  crates/core/src/lib.rs
  crates/core/src/ports.rs
  crates/core/src/bespoke/parallel_tree.rs
  crates/core/src/bespoke/serial_tree.rs
  crates/core/src/bespoke/svm.rs
  crates/core/src/lookup/mod.rs
  crates/core/src/lookup/tree.rs
  crates/core/src/lookup/svm.rs
  crates/core/src/ensemble.rs
  crates/core/src/extension/serial_svm.rs
  crates/core/src/conventional/svm.rs
  crates/analog/src/compile.rs
  crates/analog/src/variation.rs
  crates/analog/src/device.rs
  crates/analog/src/crossbar.rs
  crates/analog/src/svm.rs
  crates/analog/src/tree.rs
  crates/analog/src/comparator.rs
  crates/analog/src/proto.rs
  crates/analog/src/transient.rs
  crates/pdk/src/cell.rs
  crates/pdk/src/fab.rs
  crates/pdk/src/lib.rs
  crates/pdk/src/library.rs
  crates/pdk/src/power_src.rs
  crates/pdk/src/rom.rs
  crates/pdk/src/tech.rs
  crates/pdk/src/units.rs
  crates/bench/src/experiments/figures.rs
  crates/bench/src/workloads.rs
  crates/cache/src/store.rs
  crates/cache/src/hash.rs
  crates/cache/src/lib.rs
  src/bin/printed-ml.rs
)

status=0
for f in "${FILES[@]}"; do
  # Strip from the first #[cfg(test)] to EOF, drop comment lines (doc
  # examples are compiled as tests, not hot-path code), then look for
  # forbidden tokens in what remains.
  nontest=$(sed '/^#\[cfg(test)\]/,$d' "$f" | grep -vE '^\s*//')
  hits=$(printf '%s\n' "$nontest" | grep -nE 'panic!\(|\.unwrap\(' || true)
  if [ -n "$hits" ]; then
    echo "lint_panics: forbidden panic!/unwrap in non-test code of $f:" >&2
    printf '%s\n' "$hits" >&2
    status=1
  fi
  # Below the first #[cfg(test)], every top-level item (a line that
  # starts in column 0 and is not a brace, paren, comment or attribute)
  # must follow a #[cfg(test)] attribute.
  hidden=$(awk '
    /^#\[cfg\(test\)\]/ { seen = 1; pending = 1; next }
    !seen || /^($|[ \t}),\]]|\/\/|#)/ { next }
    pending { pending = 0; next }
    { print FNR ": " $0 }
  ' "$f")
  if [ -n "$hidden" ]; then
    echo "lint_panics: non-test item below the first #[cfg(test)] of $f (move it above):" >&2
    printf '%s\n' "$hidden" >&2
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "lint_panics: hot paths are panic-free (checked ${#FILES[@]} files)"
fi
exit "$status"
