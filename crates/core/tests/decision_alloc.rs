//! Steady-state allocation pin for the decision hot path (DESIGN.md §12).
//!
//! The arena-backed `DecisionScratch` and the recycled planned-entry
//! buffer exist so that once every buffer has reached steady-state
//! capacity, a `decide_into` round performs **zero heap allocations**.
//! This test pins that with a counting global allocator: warm the
//! scheduler up (first rounds grow the arenas), then assert the
//! allocation counter does not move across thousands of further rounds.
//!
//! The counter is **per-thread** (const-initialised TLS, so the counting
//! path itself never allocates): the libtest harness thread runs
//! concurrently with the test thread and allocates at its own pace
//! (stdout locking, test-timing bookkeeping), so a process-global counter
//! is intermittently perturbed by a couple of harness allocations mid-
//! measurement. Only allocations made *by the measuring thread* count.

use abacus_core::{AbacusConfig, AbacusScheduler, Query, RoundDecision, Scheduler};
use dnn_models::{ModelId, ModelLibrary, QueryInput};
use predictor::features::SLOT_WIDTH;
use predictor::{LatencyModel, MAX_COLOCATED, MODEL_SLOT_BASE};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// System allocator wrapper that counts every allocation on the calling
/// thread.
struct CountingAlloc;

std::thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made by the calling thread so far (other threads' activity
/// is invisible).
fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: TLS may be mid-teardown when late allocations happen.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

struct SpanModel;

impl LatencyModel for SpanModel {
    fn predict_one(&self, x: &[f64]) -> f64 {
        let mut total: f64 = 0.0;
        for slot in 0..MAX_COLOCATED {
            let base = MODEL_SLOT_BASE + slot * SLOT_WIDTH;
            total += (x[base + 1] - x[base]) * 10.0;
        }
        total
    }
    fn name(&self) -> &'static str {
        "span"
    }
}

#[test]
fn steady_state_decide_round_allocates_nothing() {
    let lib = Arc::new(ModelLibrary::new());
    let mut sched = AbacusScheduler::new(
        Arc::new(SpanModel),
        lib.clone(),
        AbacusConfig {
            predict_round_ms: Some(0.09),
            ..AbacusConfig::default()
        },
    );
    // A 16-deep queue over all models: the round filters it to one
    // candidate per model, plans a group, and drops nothing.
    let queue: Vec<Query> = (0..16u64)
        .map(|i| {
            let m = ModelId::ALL[i as usize % ModelId::ALL.len()];
            let input = QueryInput::new(8, if m.is_nlp() { 16 } else { 1 });
            let n = lib.graph(m, input).len();
            Query::new(i, m, input, 0.0, 40.0 + 10.0 * (i % 4) as f64, n)
        })
        .collect();

    // Warmup: grows expired/candidates/search arenas and the entry buffer to
    // steady-state capacity, and cycles the entry buffer through the
    // caller-held decision and back.
    let mut decision = RoundDecision::idle();
    for _ in 0..16 {
        sched.decide_into(5.0, &queue, &mut decision);
    }
    assert!(
        decision.group.is_some(),
        "fixture must exercise the planned path"
    );

    let before = thread_allocs();
    for _ in 0..4_096 {
        sched.decide_into(5.0, &queue, &mut decision);
        std::hint::black_box(&decision);
    }
    let after = thread_allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state decide rounds must not allocate"
    );

    // The planless path (everything expired) must also be allocation-free
    // once its drop list has reached capacity.
    for _ in 0..16 {
        sched.decide_into(1e6, &queue, &mut decision);
    }
    assert!(decision.group.is_none());
    let before = thread_allocs();
    for _ in 0..4_096 {
        sched.decide_into(1e6, &queue, &mut decision);
        std::hint::black_box(&decision);
    }
    let after = thread_allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state planless rounds must not allocate"
    );
}
