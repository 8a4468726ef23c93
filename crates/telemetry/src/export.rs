//! Chrome trace-event / Perfetto JSON export, plus CSV lowering of the
//! kernel trace and decision ledger.
//!
//! The exporter emits the JSON object form of the trace-event format
//! (`{"traceEvents": [...], "displayTimeUnit": "ms"}`), loadable in
//! Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing`:
//!
//! * process `serving node` — one thread per deployed service. Dispatched
//!   operator segments are complete (`X`) slices (the §6.1 exclusivity —
//!   one query per service in flight — guarantees slices on a service
//!   track never overlap); time in queue is an async `b`/`e` span keyed by
//!   query id; retires are instant events.
//! * process `gpu streams` — one thread per group stream slot, with one
//!   `X` slice per kernel, carrying its round and SM occupancy as args.
//! * counter (`C`) tracks can be appended by callers (offered vs achieved
//!   load — see `cluster::timeline`).
//!
//! Serialisation is deliberately hand-rolled and insertion-ordered: floats
//! print with Rust's shortest-roundtrip `Display`, so the emitted bytes are
//! a pure function of the recorded telemetry — golden tests pin them.

use crate::event::QueryEventKind;
use crate::ledger::DecisionLedger;
use crate::Telemetry;
use abacus_metrics::{CsvWriter, QueryOutcome};
use gpu_sim::KernelSpan;
use std::io;
use std::path::Path;

/// Process id of the serving-node track group.
pub const PID_SERVING: u64 = 1;
/// Process id of the GPU kernel track group.
pub const PID_GPU: u64 = 2;
/// Process id reserved for caller-added counter tracks.
pub const PID_COUNTERS: u64 = 3;

/// One typed argument value of a trace event.
#[derive(Debug, Clone, Copy)]
pub enum Arg<'a> {
    /// A float (must be finite — JSON has no NaN).
    F64(f64),
    /// An unsigned integer.
    U64(u64),
    /// A string (escaped on write).
    Str(&'a str),
}

pub(crate) fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn fmt_args(args: &[(&str, Arg<'_>)]) -> String {
    let mut s = String::from("{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\"{}\":", esc(k)));
        match v {
            Arg::F64(x) => s.push_str(&fmt_f64(*x)),
            Arg::U64(x) => s.push_str(&format!("{x}")),
            Arg::Str(x) => s.push_str(&format!("\"{}\"", esc(x))),
        }
    }
    s.push('}');
    s
}

/// Milliseconds → trace-event microseconds.
fn us(ms: f64) -> String {
    fmt_f64(ms * 1000.0)
}

/// An append-only Chrome trace-event builder.
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    events: Vec<String>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no event has been added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Name a process track group.
    pub fn add_process_name(&mut self, pid: u64, name: &str) {
        self.events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{}\"}}}}",
            esc(name)
        ));
    }

    /// Name a thread track.
    pub fn add_thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
            esc(name)
        ));
    }

    /// A complete (`X`) slice.
    #[allow(clippy::too_many_arguments)] // mirrors the trace-event field set
    pub fn add_complete(
        &mut self,
        pid: u64,
        tid: u64,
        cat: &str,
        name: &str,
        ts_ms: f64,
        dur_ms: f64,
        args: &[(&str, Arg<'_>)],
    ) {
        self.events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{tid},\"args\":{}}}",
            esc(name),
            esc(cat),
            us(ts_ms),
            us(dur_ms),
            fmt_args(args)
        ));
    }

    /// Begin an async span (`b`), keyed by `(cat, name, id)`.
    pub fn add_async_begin(
        &mut self,
        pid: u64,
        tid: u64,
        cat: &str,
        name: &str,
        id: u64,
        ts_ms: f64,
    ) {
        self.events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"b\",\"id\":{id},\"ts\":{},\"pid\":{pid},\"tid\":{tid}}}",
            esc(name),
            esc(cat),
            us(ts_ms)
        ));
    }

    /// End an async span (`e`).
    pub fn add_async_end(
        &mut self,
        pid: u64,
        tid: u64,
        cat: &str,
        name: &str,
        id: u64,
        ts_ms: f64,
    ) {
        self.events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"e\",\"id\":{id},\"ts\":{},\"pid\":{pid},\"tid\":{tid}}}",
            esc(name),
            esc(cat),
            us(ts_ms)
        ));
    }

    /// A thread-scoped instant (`i`) event.
    pub fn add_instant(
        &mut self,
        pid: u64,
        tid: u64,
        name: &str,
        ts_ms: f64,
        args: &[(&str, Arg<'_>)],
    ) {
        self.events.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{pid},\"tid\":{tid},\"args\":{}}}",
            esc(name),
            us(ts_ms),
            fmt_args(args)
        ));
    }

    /// One sample of a counter (`C`) track.
    pub fn add_counter(&mut self, pid: u64, name: &str, ts_ms: f64, series: &[(&str, f64)]) {
        let args: Vec<(&str, Arg<'_>)> = series.iter().map(|&(k, v)| (k, Arg::F64(v))).collect();
        self.events.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{},\"pid\":{pid},\"args\":{}}}",
            esc(name),
            us(ts_ms),
            fmt_args(&args)
        ));
    }

    /// Lower a run's recorded telemetry into trace events: metadata tracks,
    /// the per-query lifecycle (queue span, dispatch slices, retire
    /// instants) and, when kernel tracing was on, one slice per kernel.
    pub fn add_telemetry(&mut self, t: &Telemetry, service_names: &[&str]) {
        self.add_process_name(PID_SERVING, "serving node");
        for (i, name) in service_names.iter().enumerate() {
            self.add_thread_name(PID_SERVING, i as u64, &format!("svc{i} {name}"));
        }
        if !t.kernel_spans().is_empty() {
            self.add_process_name(PID_GPU, "gpu streams");
            let max_stream = t.kernel_spans().iter().map(|s| s.stream).max().unwrap_or(0);
            for s in 0..=max_stream {
                self.add_thread_name(PID_GPU, s as u64, &format!("stream {s}"));
            }
        }

        let n = t
            .events()
            .iter()
            .map(|e| e.query as usize + 1)
            .max()
            .unwrap_or(0);
        let mut svc = vec![0u64; n];
        let mut model = vec![""; n];
        let mut dispatched = vec![false; n];
        for e in t.events() {
            let q = e.query as usize;
            match e.kind {
                QueryEventKind::Arrived {
                    service,
                    model: m,
                    qos_ms,
                } => {
                    svc[q] = service as u64;
                    model[q] = m.name();
                    let _ = qos_ms;
                    self.add_async_begin(PID_SERVING, svc[q], "queue", "queued", e.query, e.at_ms);
                }
                QueryEventKind::Dispatched {
                    round,
                    op_start,
                    op_end,
                } => {
                    if !dispatched[q] {
                        dispatched[q] = true;
                        self.add_async_end(
                            PID_SERVING,
                            svc[q],
                            "queue",
                            "queued",
                            e.query,
                            e.at_ms,
                        );
                    }
                    let row = t.ledger.by_round(round);
                    let dur = row.map_or(0.0, |r| r.actual_ms);
                    let predicted = row.map_or(f64::NAN, |r| r.predicted_ms);
                    self.add_complete(
                        PID_SERVING,
                        svc[q],
                        "dispatch",
                        &format!("{}[{op_start}..{op_end})", model[q]),
                        e.at_ms,
                        dur,
                        &[
                            ("query", Arg::U64(e.query)),
                            ("round", Arg::U64(round)),
                            ("op_start", Arg::U64(op_start as u64)),
                            ("op_end", Arg::U64(op_end as u64)),
                            ("predicted_ms", Arg::F64(predicted)),
                        ],
                    );
                }
                QueryEventKind::Retired {
                    outcome,
                    latency_ms,
                    queue_ms,
                    service,
                } => {
                    if !dispatched[q] {
                        self.add_async_end(
                            PID_SERVING,
                            service as u64,
                            "queue",
                            "queued",
                            e.query,
                            e.at_ms,
                        );
                    }
                    let name = match outcome {
                        QueryOutcome::Completed => "completed",
                        QueryOutcome::Dropped => "dropped",
                        QueryOutcome::TimedOut => "timed_out",
                    };
                    self.add_instant(
                        PID_SERVING,
                        service as u64,
                        name,
                        e.at_ms,
                        &[
                            ("query", Arg::U64(e.query)),
                            ("latency_ms", Arg::F64(latency_ms)),
                            ("queue_ms", Arg::F64(queue_ms)),
                        ],
                    );
                }
            }
        }

        for k in t.kernel_spans() {
            self.add_complete(
                PID_GPU,
                k.stream as u64,
                "kernel",
                &format!("k{}", k.kernel),
                k.start_ms,
                k.end_ms - k.start_ms,
                &[
                    ("round", Arg::U64(k.round)),
                    ("occupancy", Arg::F64(k.occupancy)),
                ],
            );
        }
    }

    /// Lower a registry's counters and histograms as counter (`C`) samples
    /// on [`PID_COUNTERS`] at instant `at_ms` — one sample per counter, and
    /// count/mean/p50/p99/max per histogram. Callers that already name
    /// `PID_COUNTERS` (the cluster load overlay) compose freely: this emits
    /// no process metadata of its own.
    pub fn add_registry(&mut self, registry: &crate::registry::Registry, at_ms: f64) {
        for (name, v) in registry.counter_rows() {
            self.add_counter(PID_COUNTERS, name, at_ms, &[("value", v as f64)]);
        }
        for h in crate::registry::Hist::ALL {
            let hist = registry.hist(h);
            self.add_counter(
                PID_COUNTERS,
                h.name(),
                at_ms,
                &[
                    ("count", hist.count() as f64),
                    ("mean", hist.mean()),
                    ("p50", hist.quantile_bound(50.0)),
                    ("p99", hist.quantile_bound(99.0)),
                    ("max", hist.max()),
                ],
            );
        }
    }

    /// Serialise to the trace-event JSON object form.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, e) in self.events.iter().enumerate() {
            s.push_str(e);
            if i + 1 < self.events.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("]}\n");
        s
    }

    /// Write the JSON to `path`.
    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Dump engine [`KernelSpan`]s as CSV (`stream,kernel,start_ms,end_ms,
/// occupancy`) — the canonical lowering of a kernel-overlap trace for
/// plotting outside Rust.
pub fn kernel_spans_csv(path: impl AsRef<Path>, spans: &[KernelSpan]) -> io::Result<()> {
    let mut csv = CsvWriter::create(
        path,
        &["stream", "kernel", "start_ms", "end_ms", "occupancy"],
    )?;
    for s in spans {
        csv.write_record(
            &s.stream.0.to_string(),
            &[s.kernel as f64, s.start_ms, s.end_ms, s.occupancy],
        )?;
    }
    csv.flush()
}

/// Dump a decision ledger as CSV, one row per scheduling round.
pub fn ledger_csv(path: impl AsRef<Path>, ledger: &DecisionLedger) -> io::Result<()> {
    let mut csv = CsvWriter::create(
        path,
        &[
            "round",
            "at_ms",
            "queue_len",
            "dropped",
            "ways",
            "search_rounds",
            "overhead_ms",
            "predicted_ms",
            "actual_kernel_ms",
            "actual_ms",
            "headroom_ms",
            "rel_err",
            "upper_ms",
        ],
    )?;
    for r in ledger.rows() {
        csv.write_record(
            &r.round.to_string(),
            &[
                r.at_ms,
                r.queue_len as f64,
                r.dropped as f64,
                r.entries.len() as f64,
                r.prediction_rounds as f64,
                r.overhead_ms,
                r.predicted_ms,
                r.actual_exec_ms,
                r.actual_ms,
                r.critical_headroom_ms,
                r.rel_error().unwrap_or(f64::NAN),
                r.upper_ms,
            ],
        )?;
    }
    csv.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_json_strings() {
        assert_eq!(esc("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(esc("x\ny"), "x\\u000ay");
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(1.5), "1.5");
    }

    #[test]
    fn counter_and_metadata_events_serialise() {
        let mut tr = ChromeTrace::new();
        tr.add_process_name(PID_COUNTERS, "load");
        tr.add_counter(
            PID_COUNTERS,
            "rps",
            1.5,
            &[("offered", 10.0), ("achieved", 8.5)],
        );
        let json = tr.to_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"ts\":1500"));
        assert!(json.contains("\"offered\":10"));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn braces_balance_in_exported_json() {
        let mut tr = ChromeTrace::new();
        tr.add_thread_name(1, 0, "svc0");
        tr.add_complete(
            1,
            0,
            "dispatch",
            "m 0..4",
            0.25,
            1.75,
            &[("round", Arg::U64(1))],
        );
        tr.add_instant(1, 0, "completed", 2.0, &[]);
        tr.add_async_begin(1, 0, "queue", "queued", 7, 0.0);
        tr.add_async_end(1, 0, "queue", "queued", 7, 0.25);
        let json = tr.to_json();
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
