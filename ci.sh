#!/usr/bin/env bash
# Tier-1 verification, hermetic by construction: every step runs with
# --offline so a registry touch is a hard failure, not a silent fetch.
# See README "Hermetic builds" — the workspace has no external
# dependencies, so a clean checkout must pass this on a network-isolated
# machine with bit-identical test results across runs.
#
# Codegen floor: .cargo/config.toml builds every x86-64 target at
# target-cpu=x86-64-v3 (README "Hermetic builds"), so `count_ones` in the
# XNOR-popcount GEMM is one popcnt instruction. Tier-1 also runs a portable
# pass with the floor off (RUSTFLAGS set but empty overrides the config's
# rustflags) in its own target dir, target/portable, so the bit-twiddling
# popcount fallback stays built and tested. That pass skips exactly one
# test by name, the floor's witness (qnn-quant's
# gemm::tests::codegen_floor_witness, which asserts the floor's target
# features and so fails by design in a portable build), and nothing else.
#
# Knobs (see crates/testkit):
#   QNN_TEST_SEED=<u64|0xhex>  base seed for all property suites
#   QNN_TEST_CASES=<n>         cases per property (default 64)
#
# Modes:
#   ci.sh                tier-1: offline release build + full test suite
#                        + the portable pass (release build + full test
#                        suite with RUSTFLAGS= in target/portable, minus
#                        the floor's witness test)
#                        + clippy + rustdoc with broken intra-doc links
#                        denied + the no-ambient-configuration guard
#                        (only crates/testkit may read the environment)
#                        + the single-threaded-simulator guard (no mpsc or
#                        atomics in crates/dfe/src) + the test-side-oracle
#                        guard (no crate source outside crates/dfe/src
#                        names DenseOracle) + the one-account guard (no
#                        file in crates/serve/src records a latency
#                        histogram outside the ledger, registry.rs, and
#                        stats.rs, which defines and unit-tests it)
#   ci.sh soak           NOT tier-1: the property suites, in release, at
#                        QNN_TEST_CASES=1024 (overridable) — a long-running
#                        hunt for rare ring-buffer/stall/scheduler/re-arm/
#                        shrink bugs (see README) — plus the serving policy
#                        suite at release speed, where service times are
#                        short enough for batcher races to show.
#   ci.sh release-tests  NOT tier-1: the `#[ignore]`d ImageNet/STL-scale
#                        full-network runs, in release (minutes, not
#                        tier-1 seconds).
#   ci.sh dse            NOT tier-1 (but fast): the folding/FIFO design-
#                        space batteries in release — the DSE frontier
#                        differential suite and the fold-model
#                        monotonicity properties — at the tier-1 case
#                        count (soak reruns both at 1024).
#   ci.sh net            NOT tier-1 (but fast): the loopback-TCP cluster
#                        suites in release — wire protocol properties,
#                        edge/router/autoscaler integration. Loopback
#                        sockets only; still offline. Then the `serve`
#                        example, which checks its responses bit-exact
#                        and its report's ledger partition.
#   ci.sh bench-smoke    NOT tier-1: the fast analytic `paper-tables` set
#                        (every table and figure plus the ablations), then
#                        the `pipeline_analysis` example (its assertions and
#                        its burst-planner print), then
#                        the repo benchmark in its quick mode
#                        (`benchmark/run.sh --quick`: a separate workspace
#                        tier-1 never compiles, and it links against the
#                        public `dfe`/`kernels` types) — catches harness
#                        rot without waiting for real measurement runs.
#   ci.sh perf-gate PARENT.json
#                        NOT tier-1 (minutes): run the repo benchmark and
#                        compare its ledger against PARENT.json (a ledger
#                        from the parent commit, e.g.
#                        benchmark/baselines/pr11.json) under the bounds in
#                        BENCHMARK.json — exact for simulated counts,
#                        banded for wall-clock. Fails on a regression.
#   ci.sh transformer    NOT tier-1 (but fast): the streaming-attention
#                        batteries in release — the encoder equivalence
#                        grid/property suite (stall injection, FIFO
#                        stress, the dense oracle) and the mixed
#                        CNN+transformer serving suite — at the tier-1
#                        case count (soak reruns the property half at
#                        1024).
#   ci.sh all            NOT tier-1: tier-1 followed by every fast
#                        auxiliary stage (dse, net, transformer,
#                        bench-smoke) — the pre-merge kitchen sink.
set -euo pipefail
cd "$(dirname "$0")"

run() {
  echo "==> $*"
  "$@"
}

if [[ "${1:-}" == "soak" ]]; then
  export QNN_TEST_CASES="${QNN_TEST_CASES:-1024}"
  echo "ci.sh soak: QNN_TEST_CASES=$QNN_TEST_CASES QNN_TEST_SEED=${QNN_TEST_SEED:-<default>}"
  run cargo test -q --release --offline -p qnn-tensor --test proptests
  run cargo test -q --release --offline -p qnn-quant --test proptests
  run cargo test -q --release --offline -p qnn-kernels --test proptests
  run cargo test -q --release --offline -p qnn-kernels --test stall_injection
  run cargo test -q --release --offline -p dfe-platform --test proptests
  run cargo test -q --release --offline -p dfe-platform --lib span_io_slice_ops
  run cargo test -q --release --offline -p dfe-platform --test span_conservation
  run cargo test -q --release --offline -p qnn --test property_streaming
  run cargo test -q --release --offline -p qnn --test pipeline_rearm
  run cargo test -q --release --offline -p qnn --test scheduler_equivalence
  run cargo test -q --release --offline -p qnn --test macro_tick_equivalence
  run cargo test -q --release --offline -p qnn --test dse_frontier
  run cargo test -q --release --offline -p hw-model --test folding_monotonic
  run cargo test -q --release --offline -p qnn --test serve_multimodel
  run cargo test -q --release --offline -p qnn-serve --test serving
  run cargo test -q --release --offline -p qnn --test transformer_equivalence
  run cargo test -q --release --offline -p qnn-cluster --test wire_proptests
  echo "ci.sh soak: all green"
  exit 0
fi

if [[ "${1:-}" == "transformer" ]]; then
  export QNN_TEST_CASES="${QNN_TEST_CASES:-64}"
  echo "ci.sh transformer: QNN_TEST_CASES=$QNN_TEST_CASES QNN_TEST_SEED=${QNN_TEST_SEED:-<default>}"
  run cargo test -q --release --offline -p qnn --test transformer_equivalence
  run cargo test -q --release --offline -p qnn --test serve_transformer
  echo "ci.sh transformer: all green"
  exit 0
fi

if [[ "${1:-}" == "all" ]]; then
  "$0"
  for stage in dse net transformer bench-smoke; do
    "$0" "$stage"
  done
  echo "ci.sh all: all green"
  exit 0
fi

if [[ "${1:-}" == "dse" ]]; then
  export QNN_TEST_CASES="${QNN_TEST_CASES:-64}"
  echo "ci.sh dse: QNN_TEST_CASES=$QNN_TEST_CASES QNN_TEST_SEED=${QNN_TEST_SEED:-<default>}"
  run cargo test -q --release --offline -p hw-model --test folding_monotonic
  run cargo test -q --release --offline -p qnn --test dse_frontier
  echo "ci.sh dse: all green"
  exit 0
fi

if [[ "${1:-}" == "net" ]]; then
  run cargo test -q --release --offline -p qnn-cluster
  run cargo run --release --offline -p qnn --example serve
  echo "ci.sh net: all green"
  exit 0
fi

if [[ "${1:-}" == "bench-smoke" ]]; then
  run cargo run --release --offline -p qnn-bench --bin paper-tables
  run cargo run --release --offline -p qnn --example pipeline_analysis
  run bash benchmark/run.sh --quick
  echo "ci.sh bench-smoke: all green"
  exit 0
fi

if [[ "${1:-}" == "perf-gate" ]]; then
  parent="${2:?usage: ci.sh perf-gate PARENT.json}"
  run bash benchmark/run.sh
  run bash benchmark/run.sh compare "$parent" benchmark/out/ledger.json
  echo "ci.sh perf-gate: all green"
  exit 0
fi

if [[ "${1:-}" == "release-tests" ]]; then
  run cargo test -q --release --offline -p qnn --test full_networks -- --ignored
  echo "ci.sh release-tests: all green"
  exit 0
fi

run cargo build --release --offline
run cargo test -q --offline
# The portable pass: no codegen floor, its own target dir so the two
# builds do not evict each other's cache.
run env RUSTFLAGS= CARGO_TARGET_DIR=target/portable cargo build --release --offline
run env RUSTFLAGS= CARGO_TARGET_DIR=target/portable \
  cargo test -q --offline -- --skip gemm::tests::codegen_floor_witness
run cargo clippy --all-targets --offline -- -D warnings
# Doc links must resolve, so deleting an item also finds the docs naming it.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" \
  run cargo doc --no-deps --workspace --offline
# Configuration is a typed value, never ambient process state: only the
# test harness knobs (QNN_TEST_*) read the environment.
if grep -rn 'env::var' crates/*/src --include='*.rs' | grep -v '^crates/testkit/'; then
  echo "ci.sh: env::var outside crates/testkit (see above)" >&2; exit 1
fi
# The simulator is single-threaded: a device is a tag on one graph, so no
# cross-thread channel or atomic belongs in it.
if grep -rn 'mpsc\|atomic::' crates/dfe/src; then
  echo "ci.sh: cross-thread primitive in crates/dfe/src (see above)" >&2; exit 1
fi
# The dense oracle is a test instrument: only the crate that defines it
# may name it, so it cannot drift back into a runtime path.
if grep -rn 'DenseOracle' crates/*/src | grep -v '^crates/dfe/src/'; then
  echo "ci.sh: DenseOracle named outside crates/dfe/src (see above)" >&2; exit 1
fi
# A model's ledger is the one account of its requests, latencies included:
# only it (and the histogram's own unit tests) records into a Histogram.
if grep -rn '\.record(' crates/serve/src | grep -v '^crates/serve/src/\(registry\|stats\)\.rs:'; then
  echo "ci.sh: latency recorded outside the serving ledger (see above)" >&2; exit 1
fi

echo "ci.sh: all green"
