#!/usr/bin/env bash
# Quick perf regression gate for the perf-tracked paths:
#
#   * the batched MLP inference microbench (BENCH_search.json)
#   * the serving substrate: executor groups/sec + fig14 cell wall time
#     (BENCH_serving.json); its --check also gates the telemetry overhead —
#     a Telemetry with the run-health monitors enabled (sketches, drift,
#     SLO burn, flight recorder) may cost at most 2% of an Abacus cell
#   * cold-start offline training: minibatch trainer throughput and the
#     serial/pooled weight-identity contract (BENCH_train.json)
#   * the discrete-event engine core: events/sec vs the shared frozen
#     pre-overhaul engine (bench::reference::engine), plus a bit-identity
#     cross-check of the two engines' completions (BENCH_engine.json)
#   * the decision hot path: decision rounds/sec vs the shared frozen
#     pre-overhaul controller (bench::reference::decision), plus a
#     bit-identity cross-check of the two controllers' decision streams
#     (BENCH_decision.json)
#   * the cluster ingress hot path: queries/sec through the headroom
#     router and through the live round-robin cluster path (cluster::sim
#     Abacus + K8s), each gated on its own, with a warmup-vs-timed
#     checksum cross-check of each path and a deterministic check that
#     routed goodput beats round-robin goodput (BENCH_cluster.json)
#
# The frozen references are the same copies the golden suites
# (golden_engine, golden_decisions) pin the live code to, so one copy per
# layer defines "the old behaviour".
#
# Each bench re-measures itself in quick mode and fails (exit 1) if it
# regressed by more than 2x against its committed baseline, or if the
# baseline lacks a gated value. Regenerate a
# baseline after an intentional perf change with:
#
#   cargo run --release -p bench --bin search_bench
#   cargo run --release -p bench --bin serving_bench -- --baseline-gps <old>
#   cargo run --release -p bench --bin train_bench
#   cargo run --release -p bench --bin engine_bench
#   cargo run --release -p bench --bin decision_bench
#   cargo run --release -p bench --bin cluster_bench
set -euo pipefail
cd "$(dirname "$0")/.."

SEARCH_BASELINE="${1:-BENCH_search.json}"
SERVING_BASELINE="${2:-BENCH_serving.json}"
TRAIN_BASELINE="${3:-BENCH_train.json}"
ENGINE_BASELINE="${4:-BENCH_engine.json}"
DECISION_BASELINE="${5:-BENCH_decision.json}"
CLUSTER_BASELINE="${6:-BENCH_cluster.json}"

for f in "$SEARCH_BASELINE" "$SERVING_BASELINE" "$TRAIN_BASELINE" "$ENGINE_BASELINE" "$DECISION_BASELINE" "$CLUSTER_BASELINE"; do
    if [[ ! -f "$f" ]]; then
        echo "baseline $f not found — generate it first (see header of $0)" >&2
        exit 2
    fi
done

cargo run --release -q -p bench --bin search_bench -- --quick --check "$SEARCH_BASELINE"
cargo run --release -q -p bench --bin serving_bench -- --quick --check "$SERVING_BASELINE"
cargo run --release -q -p bench --bin train_bench -- --quick --check "$TRAIN_BASELINE"
cargo run --release -q -p bench --bin engine_bench -- --quick --check "$ENGINE_BASELINE"
cargo run --release -q -p bench --bin decision_bench -- --quick --check "$DECISION_BASELINE"
cargo run --release -q -p bench --bin cluster_bench -- --quick --check "$CLUSTER_BASELINE"

# Fault-sweep determinism gate: the `faults` subcommand must emit
# byte-identical CSVs whether its cells run serially or on the rayon pool
# (the repo-wide reproducibility contract, under fault injection).
echo "== fault sweep serial/parallel byte gate =="
FAULTS_SERIAL=$(mktemp -d)
FAULTS_PARALLEL=$(mktemp -d)
trap 'rm -rf "$FAULTS_SERIAL" "$FAULTS_PARALLEL"' EXIT
cargo run --release -q -p abacus-cli --bin abacus-repro -- faults --fast --out "$FAULTS_SERIAL" --serial >/dev/null
cargo run --release -q -p abacus-cli --bin abacus-repro -- faults --fast --out "$FAULTS_PARALLEL" >/dev/null
cmp "$FAULTS_SERIAL/faults.csv" "$FAULTS_PARALLEL/faults.csv" || {
    echo "fault sweep diverged between serial and parallel runs" >&2
    exit 1
}

# Pareto-sweep determinism gate: the `pareto` subcommand (fixed-margin vs
# conformal certification) must also emit byte-identical CSVs across the
# serial and parallel cell schedules — including the trained-and-cached
# certifier artifacts feeding it.
echo "== pareto sweep serial/parallel byte gate =="
PARETO_SERIAL=$(mktemp -d)
PARETO_PARALLEL=$(mktemp -d)
trap 'rm -rf "$FAULTS_SERIAL" "$FAULTS_PARALLEL" "$PARETO_SERIAL" "$PARETO_PARALLEL"' EXIT
cargo run --release -q -p abacus-cli --bin abacus-repro -- pareto --fast --out "$PARETO_SERIAL" --serial >/dev/null
cargo run --release -q -p abacus-cli --bin abacus-repro -- pareto --fast --out "$PARETO_PARALLEL" >/dev/null
for f in pareto.csv pareto_width.csv; do
    cmp "$PARETO_SERIAL/$f" "$PARETO_PARALLEL/$f" || {
        echo "pareto sweep $f diverged between serial and parallel runs" >&2
        exit 1
    }
done

# Run-health determinism gate: the `health` study's monitors (drift CUSUMs,
# burn-rate windows, flight recorder) run on the simulation clock, so the
# whole report — CSV and JSON alert streams included — must be byte-identical
# across the serial and parallel cell schedules.
echo "== run-health serial/parallel byte gate =="
HEALTH_SERIAL=$(mktemp -d)
HEALTH_PARALLEL=$(mktemp -d)
trap 'rm -rf "$FAULTS_SERIAL" "$FAULTS_PARALLEL" "$PARETO_SERIAL" "$PARETO_PARALLEL" "$HEALTH_SERIAL" "$HEALTH_PARALLEL"' EXIT
cargo run --release -q -p abacus-cli --bin abacus-repro -- health --fast --out "$HEALTH_SERIAL" --serial >/dev/null
cargo run --release -q -p abacus-cli --bin abacus-repro -- health --fast --out "$HEALTH_PARALLEL" >/dev/null
for f in health.csv health.json flight.json; do
    cmp "$HEALTH_SERIAL/$f" "$HEALTH_PARALLEL/$f" || {
        echo "run-health study $f diverged between serial and parallel runs" >&2
        exit 1
    }
done

echo "all bench gates passed"
