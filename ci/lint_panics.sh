#!/usr/bin/env bash
# Forbids panic!(...) and .unwrap( on the hot simulation / metrics paths.
#
# These files expose fallible `try_*` APIs (netlist::SimError,
# ml::MetricsError); their non-test code must route every failure
# through those types so the differential fuzzer can distinguish
# "engines disagree" from "input rejected". The legacy panicking
# wrappers delegate to SimError::raise() (which lives in error.rs,
# outside this lint's scope) so the panic message stays Display-formatted.
#
# Test modules are exempt: everything from the first `#[cfg(test)]` line
# to end-of-file is stripped before grepping, which is why these files
# keep all their test modules at the bottom.
set -euo pipefail

cd "$(dirname "$0")/.."

FILES=(
  crates/netlist/src/sim.rs
  crates/netlist/src/compile.rs
  crates/ml/src/metrics.rs
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
done

if [ "$status" -eq 0 ]; then
  echo "lint_panics: hot paths are panic-free (checked ${#FILES[@]} files)"
fi
exit "$status"
