//! Perf snapshot of the search-path prediction round: scalar vs batched
//! MLP inference per search-way count, plus a full 4-way scheduling
//! decision. Emits `BENCH_search.json` so future PRs have a perf
//! trajectory to regress against.
//!
//! Usage:
//!
//! ```text
//! search_bench [--quick] [--out PATH] [--check BASELINE]
//! ```
//!
//! * `--quick` — fewer timing reps (CI-friendly; also honoured via the
//!   `ABACUS_BENCH_QUICK` env var).
//! * `--out PATH` — where to write the JSON (default `BENCH_search.json`
//!   in the current directory; suppressed in `--check` mode unless given
//!   explicitly).
//! * `--check BASELINE` — compare the measured batched ns/prediction
//!   against a previously committed baseline and exit non-zero if any
//!   ways-count regressed by more than 2×.

use bench::Fixture;
use predictor::LatencyModel;
use std::io::Write as _;
use std::time::Instant;

const WAYS: [usize; 5] = [1, 2, 4, 8, 16];
/// A ways-count fails the `--check` gate when its batched ns/prediction
/// exceeds the baseline by more than this factor.
const REGRESSION_FACTOR: f64 = 2.0;

struct WayResult {
    ways: usize,
    scalar_round_ms: f64,
    batched_round_ms: f64,
    scalar_ns_per_prediction: f64,
    batched_ns_per_prediction: f64,
    speedup: f64,
}

/// Median wall time of `f` over `reps` runs, milliseconds. Each sample
/// times `inner` consecutive calls so that sub-microsecond rounds are not
/// swamped by clock granularity.
fn time_ms(reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..inner {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e3 / inner as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn measure_ways(fx: &Fixture, ways: usize, reps: usize, inner: usize) -> WayResult {
    let batch: Vec<Vec<f64>> = (0..ways)
        .map(|i| fx.sample_group(20 + 9 * i).features(&fx.lib))
        .collect();
    let flat: Vec<f64> = batch.iter().flatten().copied().collect();
    let mut out = Vec::with_capacity(ways);
    let batched_round_ms = time_ms(reps, inner, || {
        fx.mlp.predict_into(&flat, ways, &mut out);
        std::hint::black_box(&out);
    });
    let scalar_round_ms = time_ms(reps, inner, || {
        for row in &batch {
            std::hint::black_box(fx.mlp.predict_one_scalar(std::hint::black_box(row)));
        }
    });
    WayResult {
        ways,
        scalar_round_ms,
        batched_round_ms,
        scalar_ns_per_prediction: scalar_round_ms * 1e6 / ways as f64,
        batched_ns_per_prediction: batched_round_ms * 1e6 / ways as f64,
        speedup: scalar_round_ms / batched_round_ms,
    }
}

fn emit_json(results: &[WayResult], full_decision_ms: f64, quick: bool) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"search\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str("  \"mlp_hidden\": [32, 32, 32],\n");
    s.push_str("  \"rounds\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"ways\": {}, \"scalar_round_ms\": {:.6}, \"batched_round_ms\": {:.6}, \
             \"scalar_ns_per_prediction\": {:.1}, \"batched_ns_per_prediction\": {:.1}, \
             \"speedup\": {:.2}}}{}\n",
            r.ways,
            r.scalar_round_ms,
            r.batched_round_ms,
            r.scalar_ns_per_prediction,
            r.batched_ns_per_prediction,
            r.speedup,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"full_decision_4way_ms\": {full_decision_ms:.6}\n"
    ));
    s.push_str("}\n");
    s
}

/// Extract `(ways, batched_ns_per_prediction)` pairs from a baseline JSON
/// previously written by [`emit_json`]. A deliberately minimal scan — the
/// format is our own — that tolerates whitespace changes but not schema
/// changes (those should regenerate the baseline anyway).
fn parse_baseline(json: &str) -> Result<Vec<(usize, f64)>, String> {
    json.split('{')
        .filter(|obj| obj.contains("\"ways\""))
        .map(|obj| {
            let ways = bench::baseline_number(obj, "ways")?;
            let ns = bench::baseline_number(obj, "batched_ns_per_prediction")?;
            Ok((ways as usize, ns))
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = std::env::var("ABACUS_BENCH_QUICK").is_ok();
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = Some(it.next().expect("--out needs a path").clone()),
            "--check" => check_path = Some(it.next().expect("--check needs a path").clone()),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let (reps, inner) = if quick { (51, 20) } else { (301, 50) };

    eprintln!("training bench fixture MLP (3x32)...");
    let fx = Fixture::new();

    // Warm the thread-local workspace so the first timed round is not an
    // allocation outlier.
    let warm = fx.sample_group(50).features(&fx.lib);
    for _ in 0..32 {
        std::hint::black_box(fx.mlp.predict_one(&warm));
    }

    let results: Vec<WayResult> = WAYS
        .iter()
        .map(|&w| measure_ways(&fx, w, reps, inner))
        .collect();
    for r in &results {
        eprintln!(
            "  {:>2} ways: scalar {:>8.1} ns/pred, batched {:>8.1} ns/pred ({:.2}x)",
            r.ways, r.scalar_ns_per_prediction, r.batched_ns_per_prediction, r.speedup
        );
    }

    // A full 4-way scheduling decision (the §6.3 "three rounds, ~0.26 ms").
    let queries: Vec<abacus_core::Query> = [
        dnn_models::ModelId::ResNet152,
        dnn_models::ModelId::Bert,
        dnn_models::ModelId::InceptionV3,
    ]
    .iter()
    .enumerate()
    .map(|(i, &m)| {
        let input = m.max_input();
        abacus_core::Query::new(i as u64, m, input, 0.0, 100.0, fx.lib.graph(m, input).len())
    })
    .collect();
    let refs: Vec<&abacus_core::Query> = queries.iter().collect();
    let model = fx.model();
    let full_decision_ms = time_ms(reps, inner.min(20), || {
        std::hint::black_box(abacus_core::plan_group(
            &refs,
            60.0,
            model.as_ref(),
            &fx.lib,
            4,
        ));
    });
    eprintln!("  full 4-way decision: {full_decision_ms:.4} ms");

    let json = emit_json(&results, full_decision_ms, quick);
    let checking = check_path.is_some();
    if let Some(path) = out_path.or_else(|| (!checking).then(|| "BENCH_search.json".to_string())) {
        let mut f = std::fs::File::create(&path).expect("create output file");
        f.write_all(json.as_bytes()).expect("write json");
        eprintln!("wrote {path}");
    }

    if let Some(path) = check_path {
        let baseline = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let base = parse_baseline(&baseline).unwrap_or_else(|e| {
            eprintln!("FAILED: {path}: {e}");
            std::process::exit(1)
        });
        assert!(!base.is_empty(), "baseline {path} has no rounds");
        let mut failed = false;
        for (ways, base_ns) in base {
            let Some(now) = results.iter().find(|r| r.ways == ways) else {
                continue;
            };
            let ratio = now.batched_ns_per_prediction / base_ns;
            if ratio > REGRESSION_FACTOR {
                eprintln!(
                    "REGRESSION at {ways} ways: {:.1} ns/pred vs baseline {base_ns:.1} ({ratio:.2}x > {REGRESSION_FACTOR}x)",
                    now.batched_ns_per_prediction
                );
                failed = true;
            } else {
                eprintln!(
                    "ok at {ways} ways: {:.1} ns/pred vs baseline {base_ns:.1} ({ratio:.2}x)",
                    now.batched_ns_per_prediction
                );
            }
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!("bench check passed");
    }
}
