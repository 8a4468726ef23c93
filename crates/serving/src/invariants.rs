//! Serving-loop invariant checking.
//!
//! The fault-injection layer deliberately breaks the assumptions the
//! scheduler plans under; the [`InvariantChecker`] asserts that whatever a
//! `FaultPlan` does, the *serving loop itself* stays sound:
//!
//! * **Exclusive occupancy** — executed groups never overlap in time: the
//!   GPU runs one group at a time, faults or not. A retired query can
//!   therefore never have occupied the GPU during another group's window.
//! * **Event-clock consistency** — each group's wall duration is at least
//!   its longest kernel stream (the engine's event clock can only be
//!   stretched by sync/save-restore overhead, never compressed).
//! * **Exactly-once accounting** — every issued query gets exactly one
//!   terminal record (completed, dropped, or timed out); a dropped query is
//!   never later reported completed; terminal timestamps never precede
//!   arrival.
//! * **Conservation** — at the end of a run,
//!   `completed + dropped + timed_out == issued`.
//!
//! The checker *collects* violations rather than panicking, so property
//! tests can assert `report().is_ok()` over randomly-drawn fault plans and
//! print every failure at once.

use abacus_metrics::QueryOutcome;
use std::collections::BTreeMap;

/// Comparison slack for time arithmetic, ms.
const EPS_MS: f64 = 1e-9;

/// Ids a checker holding `n` ids may index directly: below `2n +
/// DENSE_SLACK`. Ids past that go to an ordered map, so a run of sparse
/// ids cannot grow the slot array beyond about two slots per id held.
const DENSE_SLACK: u64 = 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Terminal {
    Completed,
    Dropped,
    TimedOut,
}

/// What the checker knows of one query id.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Arrival time of the latest issue, ms; meaningful once `issued`.
    arrival_ms: f64,
    issued: bool,
    /// The latest terminal record.
    terminal: Option<Terminal>,
}

impl Slot {
    fn is_known(&self) -> bool {
        self.issued || self.terminal.is_some()
    }
}

/// Collects serving-loop invariant violations over one node run.
///
/// Wire it through `simulate_node_checked`; call [`finish`] after the loop
/// drains and inspect [`report`].
///
/// The node loop numbers queries by arrival index, so their ids are dense
/// and each has a slot in an array indexed by id. An id far past the ids
/// held so far (see [`DENSE_SLACK`]) goes to an ordered map instead, whose
/// keys all lie past the array's end: the array grows over them and takes
/// them in as ids fill in.
///
/// [`finish`]: InvariantChecker::finish
/// [`report`]: InvariantChecker::report
#[derive(Debug, Default)]
pub struct InvariantChecker {
    /// Slot per query id below `dense.len()`.
    dense: Vec<Slot>,
    /// Slot per known query id at or past `dense.len()`.
    sparse: BTreeMap<u64, Slot>,
    /// Ids with a known slot, in `dense` or `sparse`.
    known: u64,
    /// Ids issued at least once.
    issued: usize,
    /// End of the previous group's occupancy window, ms.
    last_group_end_ms: f64,
    /// Groups observed.
    rounds: u64,
    violations: Vec<String>,
    finished: bool,
}

impl InvariantChecker {
    /// Fresh checker.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot of `id`, made known if it was not.
    fn slot(&mut self, id: u64) -> &mut Slot {
        let len = self.dense.len() as u64;
        if id >= len && id < 2 * self.known + DENSE_SLACK {
            // Grow the array over `id`, taking in the map's ids up to it.
            self.dense.resize((id + 1) as usize, Slot::default());
            if !self.sparse.is_empty() {
                let past = self.sparse.split_off(&(id + 1));
                for (k, slot) in std::mem::replace(&mut self.sparse, past) {
                    self.dense[k as usize] = slot;
                }
            }
        }
        let slot = match self.dense.get_mut(id as usize) {
            Some(slot) => slot,
            None => self.sparse.entry(id).or_default(),
        };
        self.known += u64::from(!slot.is_known());
        slot
    }

    /// A query entered the node's queue.
    pub fn on_issue(&mut self, id: u64, arrival_ms: f64) {
        let slot = self.slot(id);
        let again = slot.issued;
        slot.issued = true;
        slot.arrival_ms = arrival_ms;
        if again {
            self.violations.push(format!("query {id} issued twice"));
        } else {
            self.issued += 1;
        }
    }

    /// A query reached a terminal state (`Completed`, `Dropped`, or
    /// `TimedOut`) at `now_ms`.
    pub fn on_terminal(&mut self, id: u64, outcome: QueryOutcome, now_ms: f64) {
        let t = match outcome {
            QueryOutcome::Completed => Terminal::Completed,
            QueryOutcome::Dropped => Terminal::Dropped,
            QueryOutcome::TimedOut => Terminal::TimedOut,
        };
        let slot = self.slot(id);
        let (issued, arrival_ms) = (slot.issued, slot.arrival_ms);
        let prev = slot.terminal.replace(t);
        if !issued {
            self.violations
                .push(format!("query {id} retired ({t:?}) but was never issued"));
        } else if now_ms < arrival_ms - EPS_MS {
            self.violations.push(format!(
                "query {id} retired at {now_ms} before its arrival at {arrival_ms}"
            ));
        }
        if let Some(prev) = prev {
            self.violations.push(format!(
                "query {id} retired twice: {prev:?} then {t:?} \
                 (a dropped query must never be reported completed)"
            ));
        }
    }

    /// An operator group executed, occupying the GPU over
    /// `[start_ms, start_ms + duration_ms)`; `stream_ms` are the group's
    /// per-stream kernel spans from the engine.
    pub fn on_group(&mut self, start_ms: f64, duration_ms: f64, stream_ms: &[f64]) {
        self.rounds += 1;
        let r = self.rounds;
        if !(start_ms.is_finite() && duration_ms.is_finite()) || duration_ms < 0.0 {
            self.violations.push(format!(
                "group {r}: non-finite or negative occupancy ({start_ms}, {duration_ms})"
            ));
            return;
        }
        if start_ms < self.last_group_end_ms - EPS_MS {
            self.violations.push(format!(
                "group {r} starts at {start_ms} inside the previous group's window \
                 (ends {}) — exclusive occupancy violated",
                self.last_group_end_ms
            ));
        }
        let longest = stream_ms.iter().copied().fold(0.0f64, f64::max);
        if duration_ms + EPS_MS < longest {
            self.violations.push(format!(
                "group {r}: wall duration {duration_ms} shorter than its longest \
                 kernel stream {longest} — engine event clock inconsistent"
            ));
        }
        self.last_group_end_ms = start_ms + duration_ms;
    }

    /// The serving loop failed to make progress (no drop, no group, no
    /// pending arrival) and had to force an eviction.
    pub fn on_stall(&mut self, now_ms: f64, queue_len: usize) {
        self.violations.push(format!(
            "scheduler made no progress at {now_ms} on a non-empty queue \
             ({queue_len} waiting) — livelock guard fired"
        ));
    }

    /// The scheduler dropped a query id that is not in the queue.
    pub fn on_unknown_drop(&mut self, id: u64, now_ms: f64) {
        self.violations
            .push(format!("scheduler dropped unknown query {id} at {now_ms}"));
    }

    /// Close the run: check conservation (`completed + dropped + timed_out
    /// == issued`) and that no issued query is left without a terminal
    /// record.
    pub fn finish(&mut self) {
        self.finished = true;
        let (mut completed, mut dropped, mut timed_out) = (0usize, 0usize, 0usize);
        let slots = self.dense.iter().enumerate().map(|(id, s)| (id as u64, s));
        for (id, slot) in slots.chain(self.sparse.iter().map(|(&id, s)| (id, s))) {
            match slot.terminal {
                Some(Terminal::Completed) => completed += 1,
                Some(Terminal::Dropped) => dropped += 1,
                Some(Terminal::TimedOut) => timed_out += 1,
                None if slot.issued => self.violations.push(format!(
                    "query {id} (arrived {}) was issued but never retired",
                    slot.arrival_ms
                )),
                None => {}
            }
        }
        if completed + dropped + timed_out != self.issued {
            self.violations.push(format!(
                "conservation broken: {completed} completed + {dropped} dropped + \
                 {timed_out} timed out != {} issued",
                self.issued
            ));
        }
    }

    /// Queries issued so far.
    pub fn issued(&self) -> usize {
        self.issued
    }

    /// Groups observed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// All violations collected so far, in detection order.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// `Ok(())` when no invariant was violated, else every violation.
    ///
    /// Panics if called before [`InvariantChecker::finish`] — the
    /// conservation checks only run there, and a green report that skipped
    /// them would be vacuous.
    pub fn report(&self) -> Result<(), &[String]> {
        assert!(self.finished, "report() called before finish()");
        if self.violations.is_empty() {
            Ok(())
        } else {
            Err(&self.violations)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finished(mut c: InvariantChecker) -> InvariantChecker {
        c.finish();
        c
    }

    #[test]
    fn clean_run_reports_ok() {
        let mut c = InvariantChecker::new();
        c.on_issue(0, 0.0);
        c.on_issue(1, 1.0);
        c.on_group(2.0, 5.0, &[4.0, 3.0]);
        c.on_terminal(0, QueryOutcome::Completed, 7.0);
        c.on_group(7.5, 2.0, &[1.5]);
        c.on_terminal(1, QueryOutcome::Dropped, 9.5);
        let c = finished(c);
        assert_eq!(c.report(), Ok(()));
        assert_eq!(c.issued(), 2);
        assert_eq!(c.rounds(), 2);
    }

    #[test]
    fn overlapping_groups_are_flagged() {
        let mut c = InvariantChecker::new();
        c.on_group(0.0, 10.0, &[]);
        c.on_group(5.0, 3.0, &[]); // starts inside the first window
        let c = finished(c);
        assert!(c
            .violations()
            .iter()
            .any(|v| v.contains("exclusive occupancy")));
    }

    #[test]
    fn group_shorter_than_longest_stream_is_flagged() {
        let mut c = InvariantChecker::new();
        c.on_group(0.0, 2.0, &[3.0, 1.0]);
        let c = finished(c);
        assert!(c.violations().iter().any(|v| v.contains("event clock")));
    }

    #[test]
    fn dropped_then_completed_is_flagged() {
        let mut c = InvariantChecker::new();
        c.on_issue(7, 0.0);
        c.on_terminal(7, QueryOutcome::Dropped, 1.0);
        c.on_terminal(7, QueryOutcome::Completed, 2.0);
        let c = finished(c);
        assert!(c.violations().iter().any(|v| v.contains("retired twice")));
    }

    #[test]
    fn unretired_query_breaks_conservation() {
        let mut c = InvariantChecker::new();
        c.on_issue(3, 0.0);
        let c = finished(c);
        assert!(c.report().is_err());
        assert!(c.violations().iter().any(|v| v.contains("never retired")));
    }

    #[test]
    fn retire_before_arrival_is_flagged() {
        let mut c = InvariantChecker::new();
        c.on_issue(1, 100.0);
        c.on_terminal(1, QueryOutcome::TimedOut, 50.0);
        let c = finished(c);
        assert!(c
            .violations()
            .iter()
            .any(|v| v.contains("before its arrival")));
    }

    #[test]
    #[should_panic(expected = "before finish")]
    fn report_requires_finish() {
        let _ = InvariantChecker::new().report();
    }

    #[test]
    fn sparse_ids_stay_ordered_and_are_taken_in_as_ids_fill_in() {
        let mut c = InvariantChecker::new();
        c.on_issue(u64::MAX, 0.0);
        c.on_issue(5000, 0.0);
        assert!(c.dense.is_empty(), "far ids go to the map");
        for id in 0..3000 {
            c.on_issue(id, 1.0);
        }
        assert_eq!(
            c.sparse.keys().copied().collect::<Vec<_>>(),
            [5000, u64::MAX]
        );
        // An id within the slack grows the array over 5000.
        c.on_issue(5001, 1.0);
        assert_eq!(c.sparse.keys().copied().collect::<Vec<_>>(), [u64::MAX]);
        assert_eq!(c.dense.len(), 5002);
        let c = finished(c);
        let unretired: Vec<&str> = c
            .violations()
            .iter()
            .map(|v| v.split(' ').nth(1).unwrap())
            .take(3)
            .collect();
        assert_eq!(unretired, ["0", "1", "2"]);
        assert!(c.violations()[3000].starts_with("query 5000 "));
        assert!(c.violations()[3002].starts_with("query 18446744073709551615 "));
    }

    /// The checker as it kept ids before the slot array: issued and
    /// terminal ids in two ordered maps. Group, stall and unknown-drop
    /// checks keep no per-id state, so the reference runs them on a
    /// second checker and copies the messages it adds.
    #[derive(Default)]
    struct MapChecker {
        issued: BTreeMap<u64, f64>,
        terminal: BTreeMap<u64, Terminal>,
        groups: InvariantChecker,
        violations: Vec<String>,
    }

    impl MapChecker {
        fn on_issue(&mut self, id: u64, arrival_ms: f64) {
            if self.issued.insert(id, arrival_ms).is_some() {
                self.violations.push(format!("query {id} issued twice"));
            }
        }

        fn on_terminal(&mut self, id: u64, outcome: QueryOutcome, now_ms: f64) {
            let t = match outcome {
                QueryOutcome::Completed => Terminal::Completed,
                QueryOutcome::Dropped => Terminal::Dropped,
                QueryOutcome::TimedOut => Terminal::TimedOut,
            };
            match self.issued.get(&id) {
                None => self
                    .violations
                    .push(format!("query {id} retired ({t:?}) but was never issued")),
                Some(&arrival_ms) => {
                    if now_ms < arrival_ms - EPS_MS {
                        self.violations.push(format!(
                            "query {id} retired at {now_ms} before its arrival at {arrival_ms}"
                        ));
                    }
                }
            }
            if let Some(prev) = self.terminal.insert(id, t) {
                self.violations.push(format!(
                    "query {id} retired twice: {prev:?} then {t:?} \
                     (a dropped query must never be reported completed)"
                ));
            }
        }

        fn others(&mut self, event: impl FnOnce(&mut InvariantChecker)) {
            let n = self.groups.violations().len();
            event(&mut self.groups);
            self.violations
                .extend_from_slice(&self.groups.violations()[n..]);
        }

        fn finish(&mut self) {
            for (&id, &arrival_ms) in &self.issued {
                if !self.terminal.contains_key(&id) {
                    self.violations.push(format!(
                        "query {id} (arrived {arrival_ms}) was issued but never retired"
                    ));
                }
            }
            let count = |k| self.terminal.values().filter(|&&t| t == k).count();
            let (completed, dropped, timed_out) = (
                count(Terminal::Completed),
                count(Terminal::Dropped),
                count(Terminal::TimedOut),
            );
            if completed + dropped + timed_out != self.issued.len() {
                self.violations.push(format!(
                    "conservation broken: {completed} completed + {dropped} dropped + \
                     {timed_out} timed out != {} issued",
                    self.issued.len()
                ));
            }
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// An id from one of four ranges: dense from 0, dense but wider
        /// than the array's slack, sparse up to a million, and at the top
        /// of the id space.
        fn pick_id(range: u64, raw: u64) -> u64 {
            match range {
                0 => raw % 64,
                1 => raw % 3000,
                2 => raw % 1_000_000,
                _ => u64::MAX - raw % 4,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Random event sequences through the checker and through the
            /// two-map reference: duplicate issues, retires of ids never
            /// issued, double retires (dropped then completed among them),
            /// retires before arrival, sparse and out-of-order ids,
            /// overlapping and short groups, stalls and unknown drops. The
            /// two must agree on every violation, in order, on the counts
            /// along the way, and on the report after `finish`.
            #[test]
            fn matches_two_map_reference_on_random_sequences(
                ops in proptest::collection::vec(
                    (0u64..8, 0u64..4, 0u64..(1 << 40), 0.0f64..50.0),
                    0..160,
                ),
                ranges in 1u64..5,
            ) {
                let mut c = InvariantChecker::new();
                let mut r = MapChecker::default();
                for &(kind, range, raw, t) in &ops {
                    let id = pick_id(range % ranges, raw);
                    match kind {
                        0 | 1 => {
                            c.on_issue(id, t);
                            r.on_issue(id, t);
                        }
                        2..=4 => {
                            let outcome = [
                                QueryOutcome::Completed,
                                QueryOutcome::Dropped,
                                QueryOutcome::TimedOut,
                            ][(raw % 3) as usize];
                            c.on_terminal(id, outcome, t);
                            r.on_terminal(id, outcome, t);
                        }
                        5 => {
                            let (dur, stream) = ((raw % 7) as f64, (raw % 9) as f64);
                            c.on_group(t, dur, &[stream]);
                            r.others(|g| g.on_group(t, dur, &[stream]));
                        }
                        6 => {
                            c.on_stall(t, raw as usize % 5);
                            r.others(|g| g.on_stall(t, raw as usize % 5));
                        }
                        _ => {
                            c.on_unknown_drop(id, t);
                            r.others(|g| g.on_unknown_drop(id, t));
                        }
                    }
                    prop_assert_eq!(c.issued(), r.issued.len());
                    prop_assert_eq!(c.rounds(), r.groups.rounds());
                }
                prop_assert_eq!(c.violations(), r.violations.as_slice());
                c.finish();
                r.finish();
                prop_assert_eq!(c.violations(), r.violations.as_slice());
                let expected = if r.violations.is_empty() {
                    Ok(())
                } else {
                    Err(r.violations.as_slice())
                };
                prop_assert_eq!(c.report(), expected);
            }
        }
    }
}
