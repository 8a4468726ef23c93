//! Order-sensitive digests of simulation outputs.
//!
//! Every float enters as its IEEE-754 bits, so two runs digest equal only
//! when they produced the same records, bit for bit and in the same order.

use abacus_metrics::{QueryOutcome, QueryRecord, ServiceStats};

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold one float by its bits.
    pub fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// Fold every field of every record, in order.
    pub fn records(&mut self, records: &[QueryRecord]) {
        self.word(records.len() as u64);
        for r in records {
            self.word(r.service as u64);
            self.f64(r.arrival_ms);
            self.f64(r.latency_ms);
            self.f64(r.qos_ms);
            self.word(match r.outcome {
                QueryOutcome::Completed => 0,
                QueryOutcome::Dropped => 1,
                QueryOutcome::TimedOut => 2,
            });
            self.word(u64::from(r.requests));
            self.f64(r.queue_ms);
        }
    }

    /// Fold a service's aggregated statistics: outcome counts, every
    /// completed latency in completion order, and the queueing summary.
    /// This is all `serving::run_colocation` returns of its records.
    pub fn stats(&mut self, s: &ServiceStats) {
        for n in [
            s.total(),
            s.completed(),
            s.dropped(),
            s.timed_out(),
            s.goodput_queries(),
        ] {
            self.word(n as u64);
        }
        for &l in s.latencies() {
            self.f64(l);
        }
        self.f64(s.mean_queue_ms());
        self.f64(s.queue_p99_ms());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}
