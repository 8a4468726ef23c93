//! Single-GPU serving simulation.
//!
//! An open-loop discrete-event loop: queries arrive, wait in the GPU's
//! queue, and are executed in operator groups proposed by a [`Scheduler`]
//! (Abacus or a sequential baseline) on the [`SegmentalExecutor`]. The
//! executor runs one group at a time — the exclusivity that makes Abacus's
//! operator overlap deterministic — and queries that complete in a group
//! all return at the group's final sync.
//!
//! [`GpuLoop`] is that per-GPU decide → execute → retire loop. Every
//! driver shares it: [`simulate_node_instrumented`] feeds it one node's
//! arrivals, and the cluster simulators run one per GPU behind their
//! routers. Output is one [`QueryRecord`] per query, from which every
//! §7.2–7.6 figure is computed.

use crate::invariants::InvariantChecker;
use abacus_core::{
    DecisionStats, ExecOutcome, PlannedGroup, Query, RoundDecision, Scheduler, SegmentalExecutor,
};
use abacus_metrics::{QueryOutcome, QueryRecord};
use dnn_models::{ModelId, ModelLibrary, QueryInput};
use predictor::GroupSpec;
use telemetry::{Counter, Hist, LedgerEntry, RoundEntry, Telemetry};
use workload::Arrival;

/// A deployed service: the model plus its QoS target on this node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceSpec {
    /// The model this service runs.
    pub model: ModelId,
    /// Latency budget per query, ms.
    pub qos_ms: f64,
}

/// The workload handed to one node: arrivals (service index ↦
/// `services[i]`) with per-query inputs drawn in advance.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeWorkload {
    /// Time-sorted arrivals.
    pub arrivals: Vec<Arrival>,
    /// Inputs, parallel to `arrivals`.
    pub inputs: Vec<QueryInput>,
}

impl NodeWorkload {
    /// Validate lengths and ordering.
    ///
    /// # Panics
    /// Panics if the lengths differ, or if the arrivals are not sorted by
    /// time (a NaN timestamp counts as unsorted): the serving loop admits
    /// queries in the given order, so an out-of-order arrival would
    /// silently be admitted late.
    pub fn new(arrivals: Vec<Arrival>, inputs: Vec<QueryInput>) -> Self {
        assert_eq!(arrivals.len(), inputs.len());
        assert!(
            arrivals.iter().all(|a| !a.at_ms.is_nan())
                && arrivals.windows(2).all(|w| w[0].at_ms <= w[1].at_ms),
            "arrivals must be sorted by time"
        );
        Self { arrivals, inputs }
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// True when the workload carries no queries.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }
}

/// Defensive-runtime knobs for the serving loop (all off by default —
/// with defaults the loop is byte-identical to the undefended loop).
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeOptions {
    /// Evict queries whose sojourn exceeds `factor × qos_ms` as
    /// [`QueryOutcome::TimedOut`]. A stuck query (e.g. starved by a fault
    /// storm) is then bounded instead of occupying the queue forever.
    pub timeout_factor: Option<f64>,
}

/// Aggregate utilisation of one GPU over a run — the autoscaler's input
/// signals (§7.9).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GpuUsage {
    /// Total wall time spent executing groups, ms.
    pub busy_ms: f64,
    /// Operator groups executed.
    pub groups: u64,
    /// Sum of the groups' sequential-execution times, ms (overlap-gain
    /// numerator).
    pub sequential_ms: f64,
}

impl GpuUsage {
    /// Fraction of the horizon the GPU was executing, in `[0, 1]`.
    pub fn busy_fraction(&self, horizon_ms: f64) -> f64 {
        (self.busy_ms / horizon_ms).clamp(0.0, 1.0)
    }

    /// Mean overlap gain: sequential time ÷ actual time (1.0 = no benefit).
    pub fn overlap_gain(&self) -> f64 {
        if self.busy_ms <= 0.0 {
            1.0
        } else {
            self.sequential_ms / self.busy_ms
        }
    }
}

/// One GPU's serving loop: its queue, simulation clock and round-persistent
/// decision state. A driver hands it queries with [`GpuLoop::admit`] and
/// runs decide → execute → retire rounds with [`GpuLoop::step_until`],
/// lending the scheduler, executor, observers and record sink to each step;
/// the single-node drivers and every cluster GPU run this one loop.
///
/// A scheduler that drops an unknown query id is recorded as an invariant
/// violation, not a panic. One that makes no progress on a non-empty queue
/// leaves the GPU idle until the next admission; once the caller runs to
/// `f64::INFINITY`, a livelock guard force-evicts the oldest query as timed
/// out instead of spinning forever.
#[derive(Debug)]
pub struct GpuLoop {
    queue: Vec<Query>,
    /// How many queries at the tail of `queue` were admitted since the last
    /// round began; the next round announces them to the scheduler, the
    /// checker and the telemetry before it decides.
    unannounced: usize,
    /// The GPU's clock: when its next round can start, ms.
    now: f64,
    /// Written in place every round; the scheduler recycles the planned
    /// entry vector through it.
    decision: RoundDecision,
    /// Timeout scratch, reused across rounds.
    expired_ids: Vec<u64>,
    /// Decision rounds so far; numbers the telemetry ledger's rows.
    round: u64,
    usage: GpuUsage,
    /// Record `service` of each model, by [`ModelId::index`].
    service_of: [Option<usize>; ModelId::ALL.len()],
}

/// What one [`GpuLoop::step_until`] call lends the loop.
struct Step<'a, S: ?Sized> {
    scheduler: &'a mut S,
    executor: &'a mut SegmentalExecutor,
    checker: Option<&'a mut InvariantChecker>,
    telemetry: Option<&'a mut Telemetry>,
    records: &'a mut Vec<QueryRecord>,
}

impl GpuLoop {
    /// An idle GPU at time 0. A retired query's record carries, as its
    /// `service`, the position of its model in `services` (the first, if a
    /// model repeats).
    pub fn new(services: impl IntoIterator<Item = ModelId>) -> Self {
        let mut service_of = [None; ModelId::ALL.len()];
        for (i, m) in services.into_iter().enumerate() {
            service_of[m.index()].get_or_insert(i);
        }
        Self {
            queue: Vec::new(),
            unannounced: 0,
            now: 0.0,
            decision: RoundDecision::idle(),
            expired_ids: Vec::new(),
            round: 0,
            usage: GpuUsage::default(),
            service_of,
        }
    }

    /// Queue `q`. An idle GPU's clock moves up to the arrival; a busy one
    /// takes the query when its current group ends.
    pub fn admit(&mut self, q: Query) {
        self.now = self.now.max(q.arrival_ms);
        self.queue.push(q);
        self.unannounced += 1;
    }

    /// The queries waiting or in progress on this GPU.
    pub fn queue(&self) -> &[Query] {
        &self.queue
    }

    /// When the GPU's next round can start, ms.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Busy time and groups so far; `sequential_ms` is left to callers, from
    /// the groups [`GpuLoop::step_until`] hands back.
    pub fn usage(&self) -> GpuUsage {
        self.usage
    }

    /// Run the rounds that start at or before `until` up to the next one
    /// that executes a group, and hand that group back; `None` once the
    /// queue is empty, the next round starts after `until`, or the scheduler
    /// stalls with `until` finite. Retired queries append their records to
    /// `records` in retire order.
    ///
    /// `checker` and `telemetry` only observe: with both `None` the run is
    /// byte-identical. Kernel traces also need
    /// [`SegmentalExecutor::enable_kernel_trace`].
    #[allow(clippy::too_many_arguments)]
    pub fn step_until<S: Scheduler + ?Sized>(
        &mut self,
        until: f64,
        scheduler: &mut S,
        executor: &mut SegmentalExecutor,
        opts: NodeOptions,
        checker: Option<&mut InvariantChecker>,
        telemetry: Option<&mut Telemetry>,
        records: &mut Vec<QueryRecord>,
    ) -> Option<GroupSpec> {
        let mut step = Step {
            scheduler,
            executor,
            checker,
            telemetry,
            records,
        };
        while !self.queue.is_empty() && self.now <= until {
            self.announce(&mut step);
            if let Some(factor) = opts.timeout_factor {
                self.expire(factor, &mut step);
                if self.queue.is_empty() {
                    break;
                }
            }
            let now = self.now;
            step.scheduler
                .decide_into(now, &self.queue, &mut self.decision);
            self.round += 1;
            if let Some(t) = step.telemetry.as_deref_mut() {
                self.log_round(t, step.scheduler.decision_stats());
            }
            let dropped_any = !self.decision.dropped.is_empty();
            for i in 0..self.decision.dropped.len() {
                let id = self.decision.dropped[i];
                match self.queue.iter().position(|q| q.id == id) {
                    Some(pos) => self.retire(pos, QueryOutcome::Dropped, &mut step),
                    None => {
                        debug_assert!(false, "scheduler dropped unknown query {id}");
                        if let Some(c) = step.checker.as_deref_mut() {
                            c.on_unknown_drop(id, now);
                        }
                    }
                }
            }
            match self.decision.group.take() {
                Some(group) => {
                    let spec = self.execute(&group, &mut step);
                    // Hand the entry buffer back for next round's recycling.
                    self.decision.group = Some(group);
                    return Some(spec);
                }
                // Progress was made, or the queue drained.
                None if dropped_any || self.queue.is_empty() => {}
                // Stalled: wait for the caller's next admission.
                None if until.is_finite() => break,
                None => self.evict_stalled(&mut step),
            }
        }
        None
    }

    /// Fire the admit hooks of the queries admitted since the last round.
    fn announce<S: Scheduler + ?Sized>(&mut self, step: &mut Step<'_, S>) {
        for q in &self.queue[self.queue.len() - self.unannounced..] {
            step.scheduler.on_admit(q);
            if let Some(c) = step.checker.as_deref_mut() {
                c.on_issue(q.id, q.arrival_ms);
            }
            if let Some(t) = step.telemetry.as_deref_mut() {
                t.on_arrive(q.id, q.arrival_ms, self.service(q), q.model, q.qos_ms);
            }
        }
        self.unannounced = 0;
    }

    /// Defensive per-query timeout: bound the sojourn of queries the
    /// scheduler can neither serve nor bring itself to drop.
    fn expire<S: Scheduler + ?Sized>(&mut self, factor: f64, step: &mut Step<'_, S>) {
        // Retire in ascending id order; the predicate is per-query, so
        // retiring one cannot un-expire another.
        let now = self.now;
        self.expired_ids.clear();
        self.expired_ids.extend(
            self.queue
                .iter()
                .filter(|q| now - q.arrival_ms > factor * q.qos_ms)
                .map(|q| q.id),
        );
        self.expired_ids.sort_unstable();
        for i in 0..self.expired_ids.len() {
            let pos = self.position(self.expired_ids[i]);
            self.retire(pos, QueryOutcome::TimedOut, step);
        }
    }

    /// Livelock guard: non-empty queue, nothing scheduled, nothing dropped,
    /// and no more work coming. Force-evict the oldest query so the loop
    /// terminates, and flag it.
    fn evict_stalled<S: Scheduler + ?Sized>(&mut self, step: &mut Step<'_, S>) {
        if let Some(c) = step.checker.as_deref_mut() {
            c.on_stall(self.now, self.queue.len());
        }
        let pos = self
            .queue
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.arrival_ms.total_cmp(&b.arrival_ms).then(a.id.cmp(&b.id)))
            .map(|(pos, _)| pos)
            .expect("queue checked non-empty");
        self.retire(pos, QueryOutcome::TimedOut, step);
    }

    /// Run `group` exclusively, then retire the queries it completed.
    /// Returns the executed spec.
    fn execute<S: Scheduler + ?Sized>(
        &mut self,
        group: &PlannedGroup,
        step: &mut Step<'_, S>,
    ) -> GroupSpec {
        let start = self.now + self.decision.overhead_ms;
        for e in &group.entries {
            let pos = self.position(e.query_id);
            self.queue[pos].mark_started(start);
        }
        let spec = group.to_spec(|id| &self.queue[self.position(id)], step.executor.library());
        if let Some(t) = step.telemetry.as_deref_mut() {
            for e in &group.entries {
                t.on_dispatch(e.query_id, start, self.round, e.op_start, e.op_end);
            }
        }
        let out = step.executor.execute(&spec);
        self.now = start + out.duration_ms;
        self.usage.busy_ms += out.duration_ms;
        self.usage.groups += 1;
        if let Some(c) = step.checker.as_deref_mut() {
            c.on_group(start, out.duration_ms, &out.stream_ms);
        }
        if let Some(t) = step.telemetry.as_deref_mut() {
            log_group(t, step.executor, group, self.round, start, &out);
        }
        step.scheduler.on_group_complete(out.duration_ms);
        for e in &group.entries {
            let pos = self.position(e.query_id);
            self.queue[pos].advance_to(e.op_end);
            if self.queue[pos].is_complete() {
                self.retire(pos, QueryOutcome::Completed, step);
            }
        }
        spec
    }

    /// Retire `queue[pos]` with `outcome` at the current clock. Notifies
    /// the scheduler first so its incremental order index stays in sync
    /// with the queue.
    fn retire<S: Scheduler + ?Sized>(
        &mut self,
        pos: usize,
        outcome: QueryOutcome,
        step: &mut Step<'_, S>,
    ) {
        step.scheduler.on_retire(&self.queue[pos]);
        let q = self.queue.swap_remove(pos);
        let now = self.now;
        if let Some(c) = step.checker.as_deref_mut() {
            c.on_terminal(q.id, outcome, now);
        }
        let service = self.service(&q);
        let latency_ms = now - q.arrival_ms;
        // A completed query has always started; the rest waited throughout.
        let queue_ms = q.queue_ms().unwrap_or(latency_ms);
        if let Some(t) = step.telemetry.as_deref_mut() {
            t.on_retire(q.id, now, service, outcome, latency_ms, queue_ms);
        }
        step.records.push(QueryRecord {
            service,
            arrival_ms: q.arrival_ms,
            latency_ms,
            qos_ms: q.qos_ms,
            outcome,
            requests: q.input.batch,
            queue_ms,
        });
    }

    fn position(&self, id: u64) -> usize {
        self.queue
            .iter()
            .position(|q| q.id == id)
            .expect("query not in the queue")
    }

    fn service(&self, q: &Query) -> usize {
        self.service_of[q.model.index()].expect("model not deployed on this GPU")
    }

    /// Decision-layer counters and, for rounds that made progress, a ledger
    /// row — idle probes of an unservable queue would otherwise dominate
    /// the ledger.
    fn log_round(&self, t: &mut Telemetry, stats: DecisionStats) {
        let now = self.now;
        let decision = &self.decision;
        t.registry.inc(Counter::SchedRounds);
        t.registry
            .set(Counter::DecisionOrderPeak, stats.order_peak_len as u64);
        t.registry
            .set(Counter::DecisionScratchPeak, stats.scratch_peak as u64);
        t.registry
            .set(Counter::DecisionIncrementalRounds, stats.incremental_rounds);
        t.registry
            .set(Counter::DecisionFullRebuilds, stats.full_rebuilds);
        if decision.group.is_none() && decision.dropped.is_empty() {
            return;
        }
        let mut row = RoundEntry {
            round: self.round,
            at_ms: now,
            queue_len: self.queue.len(),
            dropped: decision.dropped.len(),
            overhead_ms: decision.overhead_ms,
            prediction_rounds: 0,
            entries: Vec::new(),
            predicted_ms: f64::NAN,
            upper_ms: f64::NAN,
            critical_headroom_ms: f64::NAN,
            exec_start_ms: f64::NAN,
            actual_ms: f64::NAN,
            actual_exec_ms: f64::NAN,
        };
        if let Some(g) = &decision.group {
            row.prediction_rounds = g.prediction_rounds;
            row.upper_ms = g.upper_ms.unwrap_or(f64::NAN);
            if g.predicted_ms > 0.0 {
                row.predicted_ms = g.predicted_ms;
            }
            // One queue lookup per entry feeds both the row and the critical
            // headroom (the first minimum, as `min_by` picks it).
            for (i, e) in g.entries.iter().enumerate() {
                let q = &self.queue[self.position(e.query_id)];
                let h = q.headroom_ms(now) - decision.overhead_ms;
                if i == 0 || h.total_cmp(&row.critical_headroom_ms).is_lt() {
                    row.critical_headroom_ms = h;
                }
                row.entries.push(LedgerEntry {
                    query: e.query_id,
                    model: q.model,
                    op_start: e.op_start,
                    op_end: e.op_end,
                });
            }
        }
        t.ledger.push(row);
    }
}

/// Counters, histograms and kernel spans of one executed group; joins the
/// round's ledger row.
fn log_group(
    t: &mut Telemetry,
    executor: &SegmentalExecutor,
    group: &PlannedGroup,
    round: u64,
    exec_start: f64,
    out: &ExecOutcome,
) {
    // The predictor estimates kernel time (the longest stream), not the
    // host-side sync/save overheads — join both against the row.
    let kernel_ms = out.stream_ms.iter().fold(0.0f64, |a, &b| a.max(b));
    t.registry.inc(Counter::GroupsExecuted);
    t.registry
        .add(Counter::PredictionRounds, group.prediction_rounds as u64);
    t.registry
        .observe(Hist::SearchRounds, group.prediction_rounds as f64);
    t.registry
        .observe(Hist::GroupWays, group.entries.len() as f64);
    t.registry.observe(Hist::GroupDurationMs, out.duration_ms);
    t.registry
        .set(Counter::EngineEvents, executor.engine_events());
    t.registry
        .set(Counter::FaultSpikes, executor.fault_spikes());
    let core = executor.engine_core_stats();
    t.registry
        .set(Counter::EngineMaxActive, core.max_active as u64);
    t.registry
        .set(Counter::EnginePendingPeak, core.pending_peak as u64);
    if let Some(w) = t.predictor_ways() {
        for _ in 0..group.prediction_rounds {
            t.registry.observe(Hist::PredictorBatch, w as f64);
        }
    }
    if t.kernel_trace_enabled() {
        for s in executor.kernel_trace() {
            t.on_kernel_span(round, exec_start, s);
        }
    }
    // Joins the ledger row and, with health monitors on, snapshots the
    // engine counters set above into the flight recorder.
    t.on_round_complete(round, exec_start, out.duration_ms, kernel_ms);
}

/// [`simulate_node_instrumented`] without telemetry.
pub fn simulate_node_checked(
    scheduler: &mut dyn Scheduler,
    executor: &mut SegmentalExecutor,
    lib: &ModelLibrary,
    services: &[ServiceSpec],
    workload: &NodeWorkload,
    opts: NodeOptions,
    checker: Option<&mut InvariantChecker>,
) -> Vec<QueryRecord> {
    simulate_node_instrumented(
        scheduler, executor, lib, services, workload, opts, checker, None,
    )
}

/// Run one node to completion: every arrival of `workload` admitted to a
/// [`GpuLoop`], the queue drained. Returns one record per query, in
/// completion/drop order, each `service` the query's position in
/// `services`.
///
/// `checker` (finished when the queue drains) and `telemetry` (the
/// query-lifecycle events, scheduler decision ledger and counters) only
/// observe: the golden-checksum tests pin that a run with both `None` is
/// byte-identical.
#[allow(clippy::too_many_arguments)]
pub fn simulate_node_instrumented(
    scheduler: &mut dyn Scheduler,
    executor: &mut SegmentalExecutor,
    lib: &ModelLibrary,
    services: &[ServiceSpec],
    workload: &NodeWorkload,
    opts: NodeOptions,
    mut checker: Option<&mut InvariantChecker>,
    mut telemetry: Option<&mut Telemetry>,
) -> Vec<QueryRecord> {
    let mut gpu = GpuLoop::new(services.iter().map(|s| s.model));
    let mut records = Vec::with_capacity(workload.len());
    for i in 0..=workload.len() {
        // The node decides at an arrival's timestamp only after admitting
        // it, so run just the rounds that start strictly before it; past
        // the last arrival, drain the queue.
        let next = workload.arrivals.get(i);
        let until = next.map_or(f64::INFINITY, |a| a.at_ms.next_down());
        while gpu
            .step_until(
                until,
                scheduler,
                executor,
                opts,
                checker.as_deref_mut(),
                telemetry.as_deref_mut(),
                &mut records,
            )
            .is_some()
        {}
        if let Some(a) = next {
            let (svc, input) = (services[a.service], workload.inputs[i]);
            let n_ops = lib.graph(svc.model, input).len();
            gpu.admit(Query::new(
                i as u64, svc.model, input, a.at_ms, svc.qos_ms, n_ops,
            ));
        }
    }
    if let Some(c) = checker {
        c.finish();
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use abacus_core::{
        AbacusConfig, AbacusScheduler, BaselinePolicy, BaselineScheduler, SegmentalExecutor,
    };
    use gpu_sim::{GpuSpec, NoiseModel};
    use predictor::LatencyModel;
    use std::sync::Arc;
    use workload::{merge_arrivals, PoissonProcess, SeededRng};

    fn lib() -> Arc<ModelLibrary> {
        Arc::new(ModelLibrary::new())
    }

    /// A node run with default options and no observers.
    fn run(
        scheduler: &mut dyn Scheduler,
        executor: &mut SegmentalExecutor,
        lib: &ModelLibrary,
        services: &[ServiceSpec],
        workload: &NodeWorkload,
    ) -> Vec<QueryRecord> {
        simulate_node_checked(
            scheduler,
            executor,
            lib,
            services,
            workload,
            NodeOptions::default(),
            None,
        )
    }

    fn mk_workload(
        services: &[ServiceSpec],
        qps: f64,
        horizon: f64,
        lib: &ModelLibrary,
        seed: u64,
    ) -> NodeWorkload {
        let mut rng = SeededRng::new(seed);
        let streams: Vec<_> = (0..services.len())
            .map(|s| PoissonProcess::new(s, qps).generate(horizon, &mut rng))
            .collect();
        let arrivals = merge_arrivals(streams);
        let inputs = arrivals
            .iter()
            .map(|a| lib.random_input(services[a.service].model, &mut rng))
            .collect();
        NodeWorkload::new(arrivals, inputs)
    }

    fn services(models: &[ModelId], lib: &ModelLibrary, gpu: &GpuSpec) -> Vec<ServiceSpec> {
        models
            .iter()
            .map(|&m| ServiceSpec {
                model: m,
                qos_ms: lib.qos_target_ms(m, gpu),
            })
            .collect()
    }

    #[test]
    fn fcfs_under_light_load_meets_qos() {
        let lib = lib();
        let gpu = GpuSpec::a100();
        let svcs = services(&[ModelId::ResNet50, ModelId::ResNet101], &lib, &gpu);
        let wl = mk_workload(&svcs, 5.0, 5_000.0, &lib, 1);
        let mut sched = BaselineScheduler::new(BaselinePolicy::Fcfs, lib.clone(), gpu.clone());
        let mut exec = SegmentalExecutor::new(gpu, NoiseModel::disabled(), lib.clone(), 2);
        let records = run(&mut sched, &mut exec, &lib, &svcs, &wl);
        assert_eq!(records.len(), wl.len());
        let met = records.iter().filter(|r| r.met_qos()).count();
        assert!(met * 10 >= records.len() * 9, "{met}/{}", records.len());
    }

    #[test]
    fn every_query_is_accounted_exactly_once() {
        let lib = lib();
        let gpu = GpuSpec::a100();
        let svcs = services(&[ModelId::Vgg16, ModelId::Vgg19], &lib, &gpu);
        let wl = mk_workload(&svcs, 40.0, 3_000.0, &lib, 2);
        let mut sched = BaselineScheduler::new(BaselinePolicy::Edf, lib.clone(), gpu.clone());
        let mut exec = SegmentalExecutor::new(gpu, NoiseModel::calibrated(), lib.clone(), 3);
        let records = run(&mut sched, &mut exec, &lib, &svcs, &wl);
        assert_eq!(records.len(), wl.len());
    }

    /// A cheap stand-in predictor: sequential sum of solo latencies
    /// (pessimistic, so QoS always holds; exercises the full Abacus path).
    struct SeqModel {
        lib: Arc<ModelLibrary>,
        gpu: GpuSpec,
    }
    impl LatencyModel for SeqModel {
        fn predict_one(&self, x: &[f64]) -> f64 {
            // Decode spans from the Fig. 8 layout; weight by each model's
            // max-input solo latency as a crude per-op cost.
            let mut total = 0.0;
            let mut slot = 0;
            for (idx, m) in ModelId::ALL.into_iter().enumerate() {
                if x[idx] > 0.5 {
                    let base = predictor::MODEL_SLOT_BASE + slot * 4;
                    let span = x[base + 1] - x[base];
                    let solo = self.lib.solo_ms(m, m.max_input(), &self.gpu);
                    total += span * solo;
                    slot += 1;
                }
            }
            total
        }
        fn name(&self) -> &'static str {
            "seq"
        }
    }

    #[test]
    fn abacus_node_runs_and_meets_qos_under_light_load() {
        let lib = lib();
        let gpu = GpuSpec::a100();
        let svcs = services(&[ModelId::ResNet50, ModelId::Bert], &lib, &gpu);
        let wl = mk_workload(&svcs, 10.0, 5_000.0, &lib, 4);
        let model = Arc::new(SeqModel {
            lib: lib.clone(),
            gpu: gpu.clone(),
        });
        let mut sched = AbacusScheduler::new(model, lib.clone(), AbacusConfig::default());
        let mut exec = SegmentalExecutor::new(gpu, NoiseModel::calibrated(), lib.clone(), 5);
        let records = run(&mut sched, &mut exec, &lib, &svcs, &wl);
        assert_eq!(records.len(), wl.len());
        let violations = records.iter().filter(|r| !r.met_qos()).count();
        assert!(
            violations * 20 <= records.len(),
            "{violations}/{}",
            records.len()
        );
    }

    /// The engine's running set is only as wide as the groups the node
    /// executes: a quadruplet deployment at the saturating load (100 QPS
    /// aggregate, the Fig. 19 load) co-runs queries, so more than one
    /// kernel is in flight at some event, yet never more than one kernel
    /// per co-located query.
    #[test]
    fn quadruplet_at_saturating_load_keeps_engine_width_within_max_colocated() {
        let lib = lib();
        let gpu = GpuSpec::a100();
        let set = predictor::paper_multiway_sets()
            .into_iter()
            .find(|s| s.len() == predictor::MAX_COLOCATED)
            .expect("the paper deploys one quadruplet");
        let svcs = services(&set, &lib, &gpu);
        let wl = mk_workload(&svcs, 100.0 / set.len() as f64, 2_000.0, &lib, 8);
        let model = Arc::new(SeqModel {
            lib: lib.clone(),
            gpu: gpu.clone(),
        });
        let mut sched = AbacusScheduler::new(model, lib.clone(), AbacusConfig::default());
        let mut exec = SegmentalExecutor::new(gpu, NoiseModel::calibrated(), lib.clone(), 9);
        let records = run(&mut sched, &mut exec, &lib, &svcs, &wl);
        assert_eq!(records.len(), wl.len());
        let max_active = exec.engine_core_stats().max_active;
        assert!(
            max_active > 1 && max_active <= predictor::MAX_COLOCATED,
            "max_active {max_active}"
        );
    }

    #[test]
    fn overload_drops_rather_than_stalls() {
        let lib = lib();
        let gpu = GpuSpec::a100();
        // Absurd load on a heavy pair: the drop mechanism must keep the
        // queue draining and every query accounted.
        let svcs = services(&[ModelId::Vgg16, ModelId::Vgg19], &lib, &gpu);
        let wl = mk_workload(&svcs, 120.0, 2_000.0, &lib, 6);
        let mut sched = BaselineScheduler::new(BaselinePolicy::Fcfs, lib.clone(), gpu.clone());
        let mut exec = SegmentalExecutor::new(gpu, NoiseModel::disabled(), lib.clone(), 7);
        let records = run(&mut sched, &mut exec, &lib, &svcs, &wl);
        assert_eq!(records.len(), wl.len());
        let dropped = records
            .iter()
            .filter(|r| r.outcome == QueryOutcome::Dropped)
            .count();
        assert!(dropped > 0);
    }

    #[test]
    fn timeout_bounds_sojourn_and_counts_as_timed_out() {
        use crate::invariants::InvariantChecker;
        let lib = lib();
        let gpu = GpuSpec::a100();
        let svcs = services(&[ModelId::Vgg16, ModelId::Vgg19], &lib, &gpu);
        let wl = mk_workload(&svcs, 120.0, 2_000.0, &lib, 6);
        let mut sched = BaselineScheduler::new(BaselinePolicy::Fcfs, lib.clone(), gpu.clone());
        let mut exec = SegmentalExecutor::new(gpu, NoiseModel::disabled(), lib.clone(), 7);
        let mut checker = InvariantChecker::new();
        let records = simulate_node_checked(
            &mut sched,
            &mut exec,
            &lib,
            &svcs,
            &wl,
            NodeOptions {
                timeout_factor: Some(1.0),
            },
            Some(&mut checker),
        );
        assert_eq!(records.len(), wl.len());
        assert_eq!(checker.report(), Ok(()));
        let timed_out = records
            .iter()
            .filter(|r| r.outcome == QueryOutcome::TimedOut)
            .count();
        assert!(timed_out > 0, "overload with timeout must evict");
        // Every timed-out query's sojourn indeed exceeded its budget.
        assert!(records
            .iter()
            .filter(|r| r.outcome == QueryOutcome::TimedOut)
            .all(|r| r.latency_ms > r.qos_ms));
    }

    /// A scheduler that never drops and never plans: the old loop would
    /// spin on it forever; the livelock guard must terminate and flag it.
    struct StallScheduler;
    impl abacus_core::Scheduler for StallScheduler {
        fn decide_into(
            &mut self,
            _now_ms: f64,
            _queue: &[Query],
            out: &mut abacus_core::RoundDecision,
        ) {
            *out = abacus_core::RoundDecision::idle();
        }
        fn on_group_complete(&mut self, _duration_ms: f64) {}
        fn name(&self) -> &'static str {
            "stall"
        }
    }

    #[test]
    fn livelock_guard_terminates_and_flags_stalled_scheduler() {
        use crate::invariants::InvariantChecker;
        let lib = lib();
        let gpu = GpuSpec::a100();
        let svcs = services(&[ModelId::ResNet50], &lib, &gpu);
        let wl = mk_workload(&svcs, 10.0, 500.0, &lib, 9);
        assert!(!wl.is_empty());
        let mut sched = StallScheduler;
        let mut exec = SegmentalExecutor::new(gpu, NoiseModel::disabled(), lib.clone(), 1);
        let mut checker = InvariantChecker::new();
        let records = simulate_node_checked(
            &mut sched,
            &mut exec,
            &lib,
            &svcs,
            &wl,
            NodeOptions::default(),
            Some(&mut checker),
        );
        // Terminates (would previously livelock) with every query
        // force-evicted and the stall recorded as a violation.
        assert_eq!(records.len(), wl.len());
        assert!(records.iter().all(|r| r.outcome == QueryOutcome::TimedOut));
        assert!(checker
            .violations()
            .iter()
            .any(|v| v.contains("livelock guard")));

        // The cluster call pattern: admit each query after running the loop
        // up to its arrival, then run until ∞. A stalled scheduler never
        // executes a group, so one step runs every round up to the bound.
        let mut gpu_loop = GpuLoop::new([ModelId::ResNet50]);
        let mut checker = InvariantChecker::new();
        let mut records = Vec::new();
        let mut step = |gpu_loop: &mut GpuLoop, until: f64| {
            let (opts, c) = (NodeOptions::default(), Some(&mut checker));
            let executed =
                gpu_loop.step_until(until, &mut sched, &mut exec, opts, c, None, &mut records);
            assert!(executed.is_none());
        };
        let qos_ms = svcs[0].qos_ms;
        for (i, (a, &input)) in wl.arrivals.iter().zip(&wl.inputs).enumerate() {
            step(&mut gpu_loop, a.at_ms);
            let n_ops = lib.graph(ModelId::ResNet50, input).len();
            gpu_loop.admit(Query::new(
                i as u64,
                ModelId::ResNet50,
                input,
                a.at_ms,
                qos_ms,
                n_ops,
            ));
        }
        step(&mut gpu_loop, f64::INFINITY);
        checker.finish();
        // Terminates with every query retired exactly once, as timed out,
        // and the stall its only violation.
        assert_eq!(records.len(), wl.len());
        assert!(records.iter().all(|r| r.outcome == QueryOutcome::TimedOut));
        let v = checker.violations();
        assert!(
            !v.is_empty() && v.iter().all(|v| v.contains("livelock guard")),
            "{v:?}"
        );
    }

    #[test]
    #[should_panic(expected = "arrivals must be sorted by time")]
    fn unsorted_workload_is_rejected() {
        let at = |at_ms| Arrival { service: 0, at_ms };
        let input = ModelId::ResNet50.min_input();
        NodeWorkload::new(vec![at(5.0), at(1.0)], vec![input, input]);
    }

    #[test]
    #[should_panic(expected = "arrivals must be sorted by time")]
    fn nan_timed_workload_is_rejected() {
        let nan = Arrival {
            service: 0,
            at_ms: f64::NAN,
        };
        NodeWorkload::new(vec![nan], vec![ModelId::ResNet50.min_input()]);
    }

    #[test]
    fn empty_workload_is_fine() {
        let lib = lib();
        let gpu = GpuSpec::a100();
        let svcs = services(&[ModelId::ResNet50], &lib, &gpu);
        let wl = NodeWorkload::new(vec![], vec![]);
        let mut sched = BaselineScheduler::new(BaselinePolicy::Sjf, lib.clone(), gpu.clone());
        let mut exec = SegmentalExecutor::new(gpu, NoiseModel::disabled(), lib.clone(), 8);
        assert!(run(&mut sched, &mut exec, &lib, &svcs, &wl).is_empty());
    }
}
