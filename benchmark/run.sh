#!/usr/bin/env bash
# Builds the program under test, the driver and the probe runner, then
# runs the benchmark. See README.md next to this file.
#
#   benchmark/run.sh [--seed N] [--smoke] [--check-repeat]
#       the whole suite; writes benchmark/out/{results,trace}.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload, time-boxed; the last line of stdout is the result
#       as one JSON object (the contract in ../BENCHMARK.json)
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# Both workspaces build into CARGO_TARGET_DIR when it is set (a relative
# one is relative to the repository root), else into their own target/.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
  case "$CARGO_TARGET_DIR" in /*) ;; *) CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR" ;; esac
  export CARGO_TARGET_DIR
  program_bin="$CARGO_TARGET_DIR/release"
  bench_bin="$CARGO_TARGET_DIR/release"
else
  program_bin="$root/target/release"
  bench_bin="$here/target/release"
fi

# Build chatter goes to stderr: stdout is the report.
cargo build --release --offline --manifest-path "$root/Cargo.toml" -p gthinker-cli >&2
cargo build --release --offline --manifest-path "$here/Cargo.toml" -p gthinker-e2e >&2

# The probe runner is the only benchmark code that depends on the
# workspace crates' APIs. If a refactor broke it, the end-to-end numbers
# are still good and the probe metrics are reported as null.
probes=()
if cargo build --release --offline --manifest-path "$here/Cargo.toml" -p gthinker-probes >&2; then
  probes=(--probes "$bench_bin/gthinker-probes")
else
  echo "warning: gthinker-probes did not build; fix benchmark/src/layers.rs" >&2
fi

exec "$bench_bin/gthinker-e2e" --gthinker "$program_bin/gthinker" "${probes[@]}" \
  --out "$here/out" "$@"
