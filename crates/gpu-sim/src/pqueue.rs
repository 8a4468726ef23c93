//! Pending-arrival queue for the event core.
//!
//! Arrivals wait here until simulated time reaches their start. The queue
//! is a [`BinaryHeap`] under a *total order* on equal starts (newest
//! arrival first — tie order decides the order kernel fault spikes are
//! drawn in, so it is part of the determinism contract, see
//! [`crate::engine`]).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One waiting arrival. `seq` is the insertion sequence number since the
/// last clear; `idx` is the engine's stream slot.
#[derive(Debug, Clone, Copy)]
struct Entry {
    start_ms: f64,
    seq: u64,
    idx: usize,
}

impl Entry {
    /// Activation order: earlier start first; among equal starts the
    /// newest arrival (larger `seq`) first — the legacy push + stable-sort
    /// order the determinism contract pins. Compares with f64 `<`/`==`, so
    /// `-0.0` and `+0.0` starts tie (`total_cmp` would split them).
    #[inline]
    fn before(&self, other: &Entry) -> bool {
        self.start_ms < other.start_ms || (self.start_ms == other.start_ms && self.seq > other.seq)
    }
}

/// `BinaryHeap` pops its greatest entry, so the entry that activates first
/// compares greatest. Starts are never NaN and `seq` is unique, so this is
/// a total order.
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.before(other) {
            Ordering::Greater
        } else if other.before(self) {
            Ordering::Less
        } else {
            Ordering::Equal
        }
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

#[derive(Debug, Clone, Default)]
pub(crate) struct PendingQueue {
    heap: BinaryHeap<Entry>,
    /// Next insertion sequence number.
    seq: u64,
    /// Peak backlog since the last clear (telemetry).
    peak_len: usize,
}

impl PendingQueue {
    /// Enqueue an arrival; assigns its tie-breaking sequence number.
    pub(crate) fn push(&mut self, start_ms: f64, idx: usize) {
        debug_assert!(!start_ms.is_nan(), "pending start is NaN");
        self.heap.push(Entry {
            start_ms,
            seq: self.seq,
            idx,
        });
        self.seq += 1;
        self.peak_len = self.peak_len.max(self.heap.len());
    }

    /// The next arrival to activate, without removing it.
    pub(crate) fn peek(&self) -> Option<(f64, usize)> {
        self.heap.peek().map(|e| (e.start_ms, e.idx))
    }

    /// Remove and return the next arrival's stream slot.
    pub(crate) fn pop(&mut self) -> Option<usize> {
        self.heap.pop().map(|e| e.idx)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop every entry and restart the sequence and the peak.
    pub(crate) fn clear(&mut self) {
        self.heap.clear();
        self.seq = 0;
        self.peak_len = 0;
    }

    /// Peak backlog since the last clear.
    pub(crate) fn peak_len(&self) -> usize {
        self.peak_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: the exact pop order the queue must produce.
    fn reference_order(arrivals: &[f64]) -> Vec<usize> {
        let mut tagged: Vec<(f64, usize)> = arrivals
            .iter()
            .copied()
            .enumerate()
            .map(|(i, s)| (s, i))
            .collect();
        // Earlier start first; equal starts newest-insert first.
        tagged.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(b.1.cmp(&a.1)));
        tagged.into_iter().map(|(_, i)| i).collect()
    }

    fn drain(q: &mut PendingQueue) -> Vec<usize> {
        let mut out = Vec::new();
        while let Some(idx) = q.pop() {
            out.push(idx);
        }
        out
    }

    fn lcg_stream(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        }
    }

    #[test]
    fn small_backlog_stays_sorted_and_ordered() {
        let arrivals: Vec<f64> = vec![3.0, 1.0, 2.0, 1.0, 0.5, 2.0];
        let mut q = PendingQueue::default();
        for (i, &s) in arrivals.iter().enumerate() {
            q.push(s, i);
        }
        assert_eq!(drain(&mut q), reference_order(&arrivals));
        assert!(q.is_empty());
    }

    #[test]
    fn large_backlog_matches_reference_order() {
        let mut next = lcg_stream(42);
        let arrivals: Vec<f64> = (0..5000)
            .map(|i| {
                // Mix of spread-out starts and deliberate ties.
                if i % 7 == 0 {
                    (next() % 100) as f64
                } else {
                    (next() % 1_000_000) as f64 * 1e-3
                }
            })
            .collect();
        let mut q = PendingQueue::default();
        for (i, &s) in arrivals.iter().enumerate() {
            q.push(s, i);
        }
        assert_eq!(q.peak_len(), arrivals.len());
        assert_eq!(drain(&mut q), reference_order(&arrivals));
    }

    #[test]
    fn interleaved_push_pop_matches_sorted_reference() {
        // Pops interleave with pushes, including pushes of starts earlier
        // than already-popped entries' (the engine clamps starts to `now`,
        // but the queue itself must stay correct for any input).
        let mut next = lcg_stream(7);
        let mut q = PendingQueue::default();
        let mut model: Vec<Entry> = Vec::new();
        let mut seq = 0u64;
        let mut popped = Vec::new();
        let mut expect = Vec::new();
        for round in 0..20_000 {
            if round % 3 != 2 {
                let start = (next() % 500_000) as f64 * 1e-2;
                q.push(start, round);
                model.push(Entry {
                    start_ms: start,
                    seq,
                    idx: round,
                });
                seq += 1;
            } else {
                popped.push(q.pop());
                let best = model
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        if a.before(b) {
                            std::cmp::Ordering::Less
                        } else {
                            std::cmp::Ordering::Greater
                        }
                    })
                    .map(|(i, _)| i);
                expect.push(best.map(|i| model.remove(i).idx));
            }
        }
        assert_eq!(popped, expect);
        assert_eq!(q.heap.len(), model.len());
    }

    #[test]
    fn all_equal_starts_pop_newest_first() {
        let mut q = PendingQueue::default();
        for i in 0..640 {
            q.push(1.5, i);
        }
        let order = drain(&mut q);
        assert_eq!(order, (0..640).rev().collect::<Vec<_>>());
    }

    #[test]
    fn signed_zero_starts_tie_and_pop_newest_first() {
        let mut q = PendingQueue::default();
        q.push(0.0, 0);
        q.push(-0.0, 1);
        q.push(0.0, 2);
        q.push(-0.0, 3);
        assert_eq!(drain(&mut q), vec![3, 2, 1, 0]);
    }

    #[test]
    fn clear_resets_order_and_peak() {
        let mut q = PendingQueue::default();
        for i in 0..1000 {
            q.push(i as f64 * 0.1, i);
        }
        assert_eq!(q.peak_len(), 1000);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peak_len(), 0);
        // The sequence restarts too: a tie after the clear still pops the
        // newer of the two first.
        q.push(2.0, 0);
        q.push(1.0, 1);
        q.push(1.0, 2);
        assert_eq!(q.seq, 3);
        assert_eq!(drain(&mut q), vec![2, 1, 0]);
        assert_eq!(q.peak_len(), 3);
    }

    #[test]
    fn peek_agrees_with_pop() {
        let mut next = lcg_stream(3);
        let mut q = PendingQueue::default();
        for i in 0..300 {
            q.push((next() % 1000) as f64, i);
        }
        let mut last = f64::NEG_INFINITY;
        while let Some((start, idx)) = q.peek() {
            assert_eq!(q.pop(), Some(idx));
            assert!(start >= last);
            last = start;
        }
        assert!(q.is_empty());
    }
}
