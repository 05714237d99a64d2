#!/usr/bin/env bash
# The one command. Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload; the last line of output is its result as JSON
#   benchmark/run.sh [--seed N] [--quick] [--repeat K]
#       every workload, both passes, each in its own process; writes
#       benchmark/out/ledger.json
#   benchmark/run.sh compare PARENT.json CHANGE.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# CompileOptions::default() reads these through per-process caches, and the
# harness knobs change iteration counts: none may leak into a measurement.
unset QNN_SCHEDULER QNN_CONV_DATAPATH QNN_MACRO_TICKS QNN_SCHED_REPLAY
for name in $(compgen -e | grep -E '^QNN_(BENCH|TEST)_' || true); do
    unset "$name"
done

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
case "$CARGO_TARGET_DIR" in
    /*) ;;
    *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/qnn-benchmark"

if [ "${1:-}" = compare ]; then
    exec "$bin" "$@" --root "$root"
fi
rev="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$bin" --root "$root" --rev "$rev" "$@"
