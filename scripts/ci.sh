#!/usr/bin/env bash
# Full local CI: build everything, lint, run the whole test suite, then
# the perf regression gates. This is what a commit must pass.
#
#   scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Run the tests that FILTER selects in one cargo test target, and fail when
# it selects none: cargo test exits 0 on "0 passed; N filtered out", so a
# renamed or deleted test would otherwise turn its step into a silent pass.
#
#   run_filtered FILTER CARGO_TEST_ARGS...
run_filtered() {
    local filter=$1
    shift
    local listed
    listed=$(cargo test -q "$@" -- --list "$filter" | grep -c ': test$' || true)
    if [[ "$listed" -eq 0 ]]; then
        echo "no test matches '$filter' in: cargo test $*" >&2
        exit 1
    fi
    cargo test -q "$@" -- "$filter"
}

echo "== build (release, all targets) =="
cargo build --release --workspace --all-targets

echo "== clippy =="
cargo clippy -q --workspace --all-targets -- -D warnings

echo "== format =="
# The workspace is rustfmt-clean (perfbench/ is its own workspace and is
# not checked), so a diff carries no formatting noise.
cargo fmt --all -- --check

echo "== no clock in simulation crates =="
# Every simulated outcome is a pure function of its inputs and seeds: the
# Eq. 3 prediction-round charge is abacus_core::round_cost_ms(ways), not a
# measurement. No library crate that feeds a simulated outcome may read
# the clock. The CLI's log timers, fig23 and the overhead report (in
# abacus-cli) and the benches measure real time and are outside this list;
# a wall-clock profiler added to a listed crate must be allowed here by name.
if grep -rnwE 'Instant|SystemTime' \
    crates/{core,serving,cluster,gpu-sim,predictor,telemetry,faults,workload,models,metrics}/src; then
    echo "a simulation crate reads the clock" >&2
    exit 1
fi

echo "== tests =="
cargo test -q

echo "== fault suite (incl. ignored long-runners) =="
cargo test -q -p integration --test fault_properties -- --include-ignored

echo "== reference code stays out of shipped crates =="
# The frozen pre-overhaul references live in the non-shipped `bench`
# crate, which the golden suites (gpu-sim, abacus-core, predictor) link
# only as a dev-dependency. No shipped crate may pull it into its normal
# dependency graph.
for crate in abacus-cli serving cluster abacus-core predictor gpu-sim; do
    if cargo tree -q -e normal -p "$crate" --prefix none | awk '{print $1}' | grep -qx bench; then
        echo "shipped crate $crate depends on the bench crate" >&2
        exit 1
    fi
done

echo "== engine golden + proptest bit-identity =="
# The event core (one array of in-flight kernels with scalar per-event
# passes, pending-arrival heap, lone-stream closed form) must stay
# bit-identical to the shared frozen reference engine
# (bench::reference::engine, also the engine bench's baseline), on the pinned
# fixed-seed workloads and on randomized property workloads with fault
# specs. The group-mode golden test drives the executor's shape (reset,
# 1-4 profiled streams at t = 0), whose single-stream groups and tails run
# in the engine's lone-stream closed form; that form is exact only because
# every model-library kernel's shares lie in [0, 1], so a lone kernel's
# slowdown is exactly 1.0 on every simulated GPU. The heap's pop order is
# pinned on its own: earliest start first, equal starts (-0.0 and +0.0
# included) newest insert first, against a sorted model and a linear-scan
# model over 20k interleaved pushes and pops.
cargo test -q -p gpu-sim --test golden_engine
run_filtered group_mode_matches_reference_bitwise -p gpu-sim --test golden_engine
# Serving-length single-stream groups (150-400 kernels, zero-cost kernels
# and every SIMD block tail of the duration fill) through each branch of
# the lone-stream closed form: profiled and unprofiled adds, trace on and
# off, fault spec on and off.
run_filtered lone_stream_groups_are_bit_identical -p gpu-sim --test golden_engine
# The lone entry (Engine::run_lone), the executor's path for single-query
# groups, never builds the stream: it scales the solo row block by block
# into a stack buffer and folds each block into the closed form. It must
# equal add_stream_profiled + run_until_idle bit for bit (end time, events,
# fault spikes, core stats, spans) on model-library segments of every length
# around the noise and lone-block widths, whole graphs, random segments and
# zero-cost kernel runs, noise on and off, with no fault spec, a silent one
# and a spiking one, trace on and off.
run_filtered lone_entry_matches_add_and_run_bitwise -p gpu-sim --test golden_engine
run_filtered random_lone_segments_match_add_and_run -p gpu-sim --test golden_engine
# With a fault spec and no trace, the lone fold folds each 64-kernel block
# as if every kernel started inside the fault window, then checks the first
# and last start against it, and on a miss rewinds the draw stream and runs
# the block kernel by kernel. The suites above run every untraced entry
# against the traced per-kernel path, under windows that open and close
# inside a block, a nonzero time base and factors of 1, below 1, 0, NaN and
# negative; this one puts a window's edge exactly on a kernel's start
# instant, inside a block and on either side of a block boundary.
run_filtered spike_windows_on_kernel_start_instants_match_add_and_run -p gpu-sim --test golden_engine
# The executor's entry for wider groups (Engine::run_group_rows) copies each
# stream's profile and solo rows into pooled buffers, and must equal
# add_stream_profiled + run_until_idle bit for bit on serving-shaped groups.
# Both entries must also leave the engine as the add path does: a stream
# added after the run gets the same retired slot and the same outcome.
run_filtered group_rows_match_add_and_run_bitwise -p gpu-sim --test golden_engine
run_filtered contention::tests::lone_kernel_shares_are_bounded_and_slowdown_is_exactly_one -p gpu-sim --lib
run_filtered pqueue::tests:: -p gpu-sim --lib
# The running set is only as wide as the groups served: a quadruplet
# deployment at the saturating load puts more than one and at most
# MAX_COLOCATED (4) kernels in flight.
run_filtered node::tests::quadruplet_at_saturating_load_keeps_engine_width_within_max_colocated -p serving --lib

echo "== counter-based kernel noise =="
# A kernel's noise factor is a pure function of (run seed, stream add
# ordinal, kernel index), and its noisy duration (launch + exec) * session
# * factor is computed in batches: per stream when it is added, or block by
# block in the lone entry. The batch must equal the scalar definition bit
# for bit on every SIMD tier, whole and block by block from even offsets
# (lengths 0-400 around every 1-4 vector block width, sigma 0 scaling
# by exactly 1), the in-house Box-Muller
# normal must keep standard moments and tails over 1M draws, the in-house
# ln/sincos/exp factor must stay within 1e-12 of the libm formula on the
# same uniforms, and a stream's duration buffer must hold exactly those
# bits whatever its co-runners or its slot.
run_filtered noise::tests::batch_fill_matches_scalar_on_every_tier -p gpu-sim --lib
run_filtered noise::tests::normal_has_standard_moments_and_tails -p gpu-sim --lib
run_filtered noise::tests::factor_matches_libm_formula_on_the_same_uniforms -p gpu-sim --lib
run_filtered engine::tests::stream_factors_ignore_co_runners_and_slot -p gpu-sim --lib

echo "== training kernels + profiling campaign bit-identity =="
# The trainer's forward, gradient and delta kernels keep their accumulator
# row in registers at the nets' real widths (hidden 32, input FEATURE_DIM =
# 24) and run one runtime-width body otherwise. Every body on every SIMD
# tier must equal a width-agnostic scalar reference bit for bit at the
# widths 23/24/25 and 31/32/33 (and every remainder-lane split), on sparse
# inputs holding both signs of zero, and whole minibatch gradients must
# equal the per-sample reference bit for bit within one gradient chunk.
# The profiling campaign profiles each kernel once and replays borrowed
# kernel slices; its mean and std must keep the bits of running every
# measurement through run_group on freshly lowered kernels, for 1-4-stream
# groups with noise on and off.
run_filtered mlp::tests::all_tiers_match_scalar_bitwise -p predictor --lib
run_filtered mlp::tests::minibatch_grads_at_net_widths_match_scalar_bitwise -p predictor --lib
run_filtered mlp::tests::minibatch_grads_match_scalar_reference -p predictor --lib
run_filtered profiler::tests::profile_once_matches_per_run_profiling_bitwise -p predictor --lib
# Training is serial wherever the pool has one worker (1- and 2-CPU hosts),
# so the golden trainer's serial-vs-pooled pins compare two serial runs
# there; this one trains a whole run through the pool on every host.
run_filtered mlp::tests::pooled_training_run_matches_serial_bitwise -p predictor --lib

echo "== decision golden + proptest bit-identity =="
# The decision hot path (one queue scan per round + arena scratch +
# buffered search) must stay bit-identical to the shared frozen
# pre-overhaul controller and plan_group (bench::reference::decision, also
# the decision bench's baseline), on pinned fixed-seed replays, fixed search
# fixtures and grid-quantised random queues, and a steady-state decide
# round must allocate nothing. The scan reads the queue in whatever order
# the node keeps it, so the random-queue proptest also decides a seeded
# permutation of every queue and demands the same decision.
cargo test -q -p abacus-core --test golden_decisions
run_filtered random_queues_decide_identically -p abacus-core --test golden_decisions
cargo test -q -p abacus-core --test decision_alloc --release

echo "== routing golden + determinism contracts =="
# The headroom router must match the embedded naive reference stream,
# degenerate to least-connections on homogeneous pools, keep serial and
# parallel cluster CSVs byte-identical (with and without the autoscaler),
# forward each distinct candidate row once, and be unperturbed by
# telemetry.
cargo test -q -p cluster --test routing_golden

echo "== predictor purity + worker-pool panic safety =="
# The router's score memo reuses a row's prediction, which is sound only
# if every shipped model predicts a row bit-identically alone and inside
# any batch. The per-epoch GPU fan-out runs on the persistent pool, which
# must re-raise a task's panic on the caller and keep serving later
# fan-outs instead of hanging. `par_iter` (profiling campaigns, figure
# sweeps) runs on the same pool: a `par_iter` inside a pool task must run
# inline and keep input order, and a panicking `par_iter` closure must
# re-raise on the caller and leave the next `par_iter` whole.
run_filtered row_prediction_is_independent_of_its_batch -p predictor --test batch_consistency
run_filtered pool::tests::panicking_task_propagates_and_pool_recovers -p rayon --lib
run_filtered pool::tests::par_iter_inside_a_task_runs_inline_in_order -p rayon --lib
run_filtered pool::tests::panicking_par_iter_propagates_and_next_par_iter_returns_everything -p rayon --lib

echo "== model artifacts =="
# Every committed results/models/*.mlp loads and re-serialises byte for
# byte, and a net whose last layer is wider than one output never loads as
# a mean model (it would predict one head alone and another in a batch).
run_filtered persist::tests::committed_model_artifacts_roundtrip_byte_for_byte -p predictor --lib
run_filtered persist::tests::multi_output_artifact_is_not_a_mean_model -p predictor --lib

echo "== certification suites (quantile golden, conformal coverage, byte-identity) =="
# The uncertainty-aware certification stack: the mean and multi-head
# pinball trainers must match the frozen per-sample trainer
# (bench::reference::train, also the train bench's baseline) bit for bit
# in the single-chunk regime and to 1e-9 otherwise, serial and pooled
# training must agree bit for bit, split-conformal calibration must hit its
# coverage band on held-out data, passing a certifier must be what turns
# certification on (a bound on every planned ledger row with one, NaN on
# every row without), and with no certifier the observed runner must stay
# byte-identical to the pre-certification entry point on every service's
# records.
cargo test -q -p predictor --test golden_trainer
run_filtered conformal -p predictor --lib
run_filtered conformal -p abacus-core --lib
run_filtered certified -p serving --lib
run_filtered conformal_upper_bounds -p integration --test predictor_pipeline
run_filtered conformal_certification_changes_planning_when_enabled -p serving --lib
run_filtered golden_none_plan_matches_plain_runner_bitwise -p integration --test fault_properties

echo "== telemetry-disabled golden checksum =="
# The telemetry-instrumented serving loop with no Telemetry attached must
# stay byte-identical to the pre-telemetry loop — pinned by the no-fault
# golden trace checksum.
run_filtered golden_no_fault -p integration --test fault_properties

echo "== invariant checker =="
# The checker keeps one slot per query id in an array (ids far past those
# held go to an ordered map). On random event sequences (duplicate issues,
# retires of ids never issued, double retires, sparse and out-of-order ids,
# stalls and unknown drops) it must report what a checker keeping ids in
# two ordered maps reports: every violation, in order, and the same counts.
run_filtered invariants::tests::props::matches_two_map_reference_on_random_sequences -p serving --lib

echo "== per-GPU loop golden checksums =="
# Every driver runs the one per-GPU serving loop (serving::GpuLoop). These
# pin its record streams on the paths that share it: an Abacus run through
# run_colocation_observed under a fault plan with telemetry on (records and
# the whole recorded telemetry), and every system of the one cluster
# simulator — round-robin Abacus + K8s and Clockwork on a fleet with a
# slowed pool, and the headroom-routed heterogeneous fleet with the
# autoscaler on.
run_filtered golden_observed_abacus -p integration --test fault_properties
run_filtered checksum_is_pinned -p integration --test cluster_pipeline

echo "== solo-latency table bit-identity =="
# The baselines' policy keys, the cluster's overlap-gain sum and
# Clockwork's admission read solo latencies from each GPU's memoised
# ProfileTable. The golden checksums above stay put only if every read is
# bit-identical to ModelGraph::solo_ms_range: the whole-graph total, and
# any other range summed left to right like the reference. A prefix-sum
# difference (prefix[end] - prefix[start]) rounds differently and breaks
# this pin, so the table must not use one.
run_filtered solo_latency_table_is_bit_identical_to_solo_ms_range -p integration --test scheduling_policies

echo "== trace export smoke =="
TRACE_OUT=$(mktemp -d)
trap 'rm -rf "$TRACE_OUT"' EXIT
cargo run --release -q -p abacus-cli --bin abacus-repro -- trace --fast --out "$TRACE_OUT" >/dev/null
python3 -m json.tool "$TRACE_OUT/trace.json" >/dev/null || {
    echo "trace.json is not valid JSON" >&2
    exit 1
}
for f in ledger.csv pred_error.csv kernel_spans.csv; do
    [[ -s "$TRACE_OUT/$f" ]] || { echo "trace artifact $f missing/empty" >&2; exit 1; }
done
# Determinism contract: the prediction-error sweep emits byte-identical
# CSVs whether its cells run serially or on the rayon pool.
TRACE_SERIAL=$(mktemp -d)
trap 'rm -rf "$TRACE_OUT" "$TRACE_SERIAL"' EXIT
cargo run --release -q -p abacus-cli --bin abacus-repro -- trace --fast --out "$TRACE_SERIAL" --serial >/dev/null
cmp "$TRACE_OUT/pred_error.csv" "$TRACE_SERIAL/pred_error.csv" || {
    echo "telemetry sweep diverged between serial and parallel runs" >&2
    exit 1
}
cmp "$TRACE_OUT/trace.json" "$TRACE_SERIAL/trace.json" || {
    echo "trace.json diverged between serial and parallel runs" >&2
    exit 1
}

echo "== run-health smoke =="
HEALTH_OUT=$(mktemp -d)
trap 'rm -rf "$TRACE_OUT" "$TRACE_SERIAL" "$HEALTH_OUT"' EXIT
cargo run --release -q -p abacus-cli --bin abacus-repro -- health --fast --out "$HEALTH_OUT" >/dev/null
for f in health.json flight.json; do
    python3 -m json.tool "$HEALTH_OUT/$f" >/dev/null || {
        echo "$f is not valid JSON" >&2
        exit 1
    }
done
[[ -s "$HEALTH_OUT/health.csv" ]] || { echo "health.csv missing/empty" >&2; exit 1; }

echo "== committed figures re-derive =="
# The committed fig14-fig21 CSVs must re-derive byte for byte from the
# committed models alone (each sweep loads its cached model, so no
# training runs here).
FIG_OUT=$(mktemp -d)
trap 'rm -rf "$TRACE_OUT" "$TRACE_SERIAL" "$HEALTH_OUT" "$FIG_OUT"' EXIT
mkdir "$FIG_OUT/models"
cp results/models/*.mlp "$FIG_OUT/models/"
for fig in fig14 fig16 fig17 fig18 fig20; do
    cargo run --release -q -p abacus-cli --bin abacus-repro -- "$fig" --medium --out "$FIG_OUT" >/dev/null
done
for n in 14 15 16 17 18 19 20 21; do
    cmp "$FIG_OUT/fig$n.csv" "results/fig$n.csv" || {
        echo "fig$n.csv no longer re-derives from the committed models" >&2
        exit 1
    }
done

echo "== bench gates =="
scripts/bench_check.sh

echo "CI passed"
