//! End-to-end benchmark of the Abacus simulator.
//!
//! ```text
//! perfbench --workload <pairs-qos|pairs-peak-observed|cluster-routed>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` the benchmark sets the workload up several times
//! (reporting the median set-up time), then repeats untraced passes for
//! `--seconds` and reports the end-to-end metrics. With `--trace 1` it
//! runs untraced passes, then a traced set-up and traced passes of the same
//! seed with every layer probed from outside, checks that every pass has
//! the same record digest, reports the per-layer metrics and writes them,
//! with each layer's share of the run, to
//! `.bench_out/trace-<workload>-<seed>.json`. `NOTES.md` says which
//! end-to-end metric each layer metric should move, on which workload.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod cluster;
mod digest;
mod pairs;
mod probe;
mod train;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Per-round prediction latency charged by every Abacus scheduler, ms.
/// Pinned, as the fault and health studies pin it: calibrating it from
/// the wall clock would make simulated outcomes depend on the host.
pub const PREDICT_ROUND_MS: f64 = 0.08;

/// Set-ups per `--trace 0` run: at least `SETUP_MIN_REPS`, and more, up
/// to `SETUP_MAX_REPS`, until `SETUP_MIN_S` seconds were spent, so a cheap
/// set-up is sampled often enough for a steady median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 25;
const SETUP_MIN_S: f64 = 2.0;

/// Untraced and traced passes of a `--trace 1` run; the tracing overhead
/// compares their median wall times.
const TRACE_REPS: usize = 3;

/// Per-layer metrics of the traced run, with units. Times of layers that
/// run on several threads are summed thread time (`cpu_s`); `s` is wall
/// time. A layer that does not run on a workload, or that cannot be seen
/// from outside there, reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("serving.node_s", "cpu_s"),
    ("serving.node_self_s", "cpu_s"),
    ("gpu_sim.events", "count"),
    ("gpu_sim.groups", "count"),
    ("gpu_sim.events_per_group", "count"),
    ("gpu_sim.busy_frac", "ratio"),
    ("core.decide_self_s", "cpu_s"),
    ("core.decide_self_s.fcfs", "cpu_s"),
    ("core.decide_self_s.sjf", "cpu_s"),
    ("core.decide_self_s.edf", "cpu_s"),
    ("core.decide_self_s.abacus", "cpu_s"),
    ("core.decide_calls", "count"),
    ("core.queue_depth_mean", "count"),
    ("core.queue_depth_max", "count"),
    ("core.dropped", "count"),
    ("predictor.forward_s", "cpu_s"),
    ("predictor.forward_calls", "count"),
    ("predictor.rows_per_call", "count"),
    ("cluster.route_forward_s", "s"),
    ("cluster.route_forwards", "count"),
    ("cluster.route_rows_per_forward", "count"),
    ("cluster.routed", "count"),
    ("cluster.spilled", "count"),
    ("cluster.shed", "count"),
    ("cluster.gpu_groups", "count"),
    ("cluster.other_s", "s"),
    ("telemetry.events", "count"),
    ("telemetry.ledger_rows", "count"),
    ("telemetry.alerts", "count"),
    ("setup.profile_s", "s"),
    ("setup.fit_s", "s"),
    ("setup.samples", "count"),
    ("workload.gen_s", "cpu_s"),
    ("workload.arrivals", "count"),
    ("faults.spikes", "count"),
    ("faults.invariant_violations", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.largest_share_pct", "%"),
];

/// The outcome of one pass over a workload.
#[derive(Debug, Clone, Copy)]
pub struct PassOutcome {
    /// Simulated queries offered.
    pub attempted: u64,
    /// Queries that reached a node scheduler (completed, dropped or timed
    /// out in-node): the throughput numerator.
    pub queries: u64,
    /// Queries shed at ingress, lost, double-counted, or in a cell whose
    /// invariant checker fired.
    pub failed: u64,
    /// Every arrival was accounted for exactly once and every invariant
    /// checker stayed silent.
    pub checked: bool,
    /// Order-sensitive digest of every record of the pass.
    pub digest: u64,
    /// Abacus queries dropped, shed, timed out or over QoS, as a share.
    pub violation_ratio: f64,
    /// Abacus p99 latency over the QoS target.
    pub p99_over_qos: f64,
    /// Abacus completions within QoS per simulated second.
    pub goodput_qps: f64,
}

/// Per-layer readings of a traced run, and each layer's share of it.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<String, f64>,
    shares: Vec<(String, f64)>,
}

impl Layers {
    /// Set a metric.
    pub fn set(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }

    /// Add to a metric.
    pub fn add(&mut self, name: &str, v: f64) {
        *self.values.entry(name.to_string()).or_default() += v;
    }

    /// Record `layer`'s share of the run's time, in `[0, 1]`.
    pub fn share(&mut self, layer: &str, frac: f64) {
        self.shares.push((layer.to_string(), frac));
    }

    fn largest(&self) -> Option<&(String, f64)> {
        self.shares.iter().max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// Map `f` over `0..n` on up to `threads` scoped threads, taking indices
/// from a shared counter so uneven items balance; results in index order.
pub fn par_map<R: Send>(threads: usize, n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut got = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return got;
            }
            got.push((i, f(i)));
        }
    };
    let mut all: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.clamp(1, n.max(1)))
            .map(|_| s.spawn(worker))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a benchmark worker panicked"))
            .collect()
    });
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, r)| r).collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PairsQos,
    PairsPeakObserved,
    ClusterRouted,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::PairsQos,
        Workload::PairsPeakObserved,
        Workload::ClusterRouted,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::PairsQos => "pairs-qos",
            Workload::PairsPeakObserved => "pairs-peak-observed",
            Workload::ClusterRouted => "cluster-routed",
        }
    }

    fn grid(self) -> Option<pairs::Grid> {
        match self {
            Workload::PairsQos => Some(pairs::Grid::Qos),
            Workload::PairsPeakObserved => Some(pairs::Grid::PeakObserved),
            Workload::ClusterRouted => None,
        }
    }
}

/// A workload's set-up output.
enum Fixture {
    Pairs(pairs::Fixture),
    Cluster(Box<cluster::Fixture>),
}

fn setup(w: Workload, seed: u64) -> Fixture {
    match w.grid() {
        Some(g) => Fixture::Pairs(pairs::setup(g, seed)),
        None => Fixture::Cluster(Box::new(cluster::setup(seed))),
    }
}

fn run_pass(fx: &Fixture, threads: usize) -> PassOutcome {
    match fx {
        Fixture::Pairs(p) => pairs::run(p, threads),
        Fixture::Cluster(c) => cluster::run(c),
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::PairsQos,
        seed: 2021,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(format!("--seconds {value} out of range (0, 3600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Median of `xs` (sorts it).
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// Peak resident set size of this process, MiB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    let v = if value.is_finite() { value } else { 0.0 };
    let _ = write!(
        out,
        "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
    );
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    )
}

fn run_untraced(args: &Args, threads: usize) -> String {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut fx = None;
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.len() < SETUP_MAX_REPS && setup_s.iter().sum::<f64>() < SETUP_MIN_S)
    {
        drop(fx.take());
        let t = Instant::now();
        fx = Some(setup(args.workload, args.seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let fx = fx.expect("set up at least once");

    let start = Instant::now();
    let mut rates = Vec::new();
    let mut first: Option<PassOutcome> = None;
    let mut rss_mb = 0.0;
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    while first.is_none() || start.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let p = run_pass(&fx, threads);
        rates.push(p.queries as f64 / t.elapsed().as_secs_f64());
        attempted += p.attempted;
        failed += p.failed;
        // Peak memory of set-up and one pass: later passes only add
        // allocator fragmentation, which varies from run to run.
        if first.is_none() {
            rss_mb = peak_rss_mb();
        }
        // Every pass must reproduce the first bit for bit.
        let f = *first.get_or_insert(p);
        if p.digest != f.digest {
            correct = false;
            failed += p.attempted;
        }
        correct &= p.checked;
    }
    let p = first.expect("ran at least one pass");
    eprintln!(
        "[perfbench] {} seed {}: {} passes, digest {:016x}, setup {:.3?} s",
        args.workload.name(),
        args.seed,
        rates.len(),
        p.digest,
        setup_s
    );
    let mut m = String::from("{");
    metric(&mut m, "setup_s", median(&mut setup_s), "s");
    metric(&mut m, "queries_per_s", median(&mut rates), "1/s");
    metric(&mut m, "peak_rss_mb", rss_mb, "MiB");
    metric(&mut m, "violation_ratio", p.violation_ratio, "ratio");
    metric(&mut m, "p99_over_qos", p.p99_over_qos, "ratio");
    metric(&mut m, "goodput_qps", p.goodput_qps, "1/s");
    m.push('}');
    result_line(correct, attempted, failed, &m)
}

fn run_traced(args: &Args, threads: usize) -> String {
    let fx = setup(args.workload, args.seed);
    let mut plain_s = Vec::with_capacity(TRACE_REPS);
    let mut plain = Vec::with_capacity(TRACE_REPS);
    for _ in 0..TRACE_REPS {
        let t = Instant::now();
        plain.push(run_pass(&fx, threads));
        plain_s.push(t.elapsed().as_secs_f64());
    }
    drop(fx);
    let (traced, mut layers) = match args.workload.grid() {
        Some(g) => pairs::run_traced(g, args.seed, threads, TRACE_REPS),
        None => cluster::run_traced(args.seed, TRACE_REPS),
    };
    let plain_s = median(&mut plain_s);
    let traced_s = layers.values.get("trace.wall_s").copied().unwrap_or(0.0);
    layers.set("trace.overhead_pct", 100.0 * (traced_s - plain_s) / plain_s);
    let largest = layers.largest().cloned().unwrap_or_default();
    layers.set("trace.largest_share_pct", 100.0 * largest.1);
    // Every pass, untraced or traced, must produce the same records.
    let p = plain[0];
    let same = plain.iter().chain(&traced).all(|q| q.digest == p.digest);
    let correct = same && plain.iter().chain(&traced).all(|q| q.checked);

    let mut m = String::from("{");
    for &(name, unit) in PER_LAYER {
        metric(
            &mut m,
            name,
            layers.values.get(name).copied().unwrap_or(0.0),
            unit,
        );
    }
    m.push('}');
    let mut shares = String::from("{");
    for (layer, frac) in &layers.shares {
        metric(&mut shares, layer, 100.0 * frac, "%");
    }
    shares.push('}');
    let report = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"threads\": {threads}, \"untraced_digest\": \"{:016x}\", \"traced_digest\": \"{:016x}\", \"digests_equal\": {same}, \"largest_share\": \"{}\", \"shares\": {shares}, \"metrics\": {m}}}\n",
        args.workload.name(),
        args.seed,
        p.digest,
        traced[0].digest,
        largest.0,
    );
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, &report)) {
        eprintln!("[perfbench] could not write {}: {e}", path.display());
    }
    eprintln!(
        "[perfbench] {} seed {} traced: digests {:016x} / {:016x} ({}), largest share {} at {:.1}%, wrote {}",
        args.workload.name(),
        args.seed,
        p.digest,
        traced[0].digest,
        if same { "equal" } else { "DIFFERENT" },
        largest.0,
        100.0 * largest.1,
        path.display()
    );
    result_line(correct, p.attempted, p.failed, &m)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let line = if args.trace {
        run_traced(&args, threads)
    } else {
        run_untraced(&args, threads)
    };
    println!("{line}");
}
