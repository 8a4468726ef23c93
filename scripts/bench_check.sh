#!/usr/bin/env bash
# Perf regression gate for the perf-tracked paths, then the serial/parallel
# byte gates of the fault, pareto and run-health sweeps.
#
# `bench --check` runs the six layer benches of the `bench` crate at full
# size and compares each against its committed BENCH_<name>.json:
#
#   * search — batched MLP inference ns/prediction at 1-16 search ways (the
#     Fig. 23 predictor cost) and one full 4-way decision
#   * serving — executor groups/sec, fig14 cell wall time, the run-health
#     telemetry overhead check, and the serial/parallel sweep identity
#   * train — minibatch trainer throughput and the serial/pooled weight
#     identity
#   * engine — events/sec vs the frozen reference engine
#     (bench::reference::engine), with a completion-checksum cross-check
#   * decision — decision rounds/sec vs the frozen reference controller
#     (bench::reference::decision), with a decision-checksum cross-check
#   * cluster — queries/sec through the headroom router and through the
#     round-robin path, each path's warmup/timed checksum cross-check, and
#     routed goodput > round-robin goodput
#
# The frozen references are the same copies the golden suites
# (golden_engine, golden_decisions) pin the live code to, so one copy per
# layer defines "the old behaviour".
#
# A gated key fails (exit 1) when it regressed by more than 2x against its
# baseline or the baseline lacks it; an identity check fails every run; a
# missing baseline file exits 2. Regenerate every baseline after an
# intentional perf change with
#
#   cargo run --release -p bench              # or name benches: -- engine decision
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run --release -q -p bench -- --check

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
