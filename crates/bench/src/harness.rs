//! The one bench harness: the `bench` binary's command line, the
//! `BENCH_<name>.json` writer, the regression gate and the exit codes.
//!
//! ```text
//! bench [NAME...] [--check]
//! ```
//!
//! With no name it runs every bench in [`crate::BENCHES`] order. Without
//! `--check` each run writes `BENCH_<name>.json` in the working directory;
//! with `--check` it writes nothing and compares every gated key against
//! that file instead. Exit codes: 0 when every run passes, 1 when a check or
//! a gate fails, 2 on a usage error or a missing baseline file.

use crate::baseline_number;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A gated key fails `--check` when it is more than this factor worse than
/// the committed baseline.
pub const REGRESSION_FACTOR: f64 = 2.0;

/// Which way a gated key improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// A rate: the gate fails when `baseline / measured` exceeds
    /// [`REGRESSION_FACTOR`].
    Higher,
    /// A cost: the gate fails when `measured / baseline` exceeds
    /// [`REGRESSION_FACTOR`].
    Lower,
}

/// A report key that `--check` compares against the committed baseline.
#[derive(Debug, Clone, Copy)]
pub struct Gated {
    /// The top-level JSON key.
    pub key: &'static str,
    /// Which way the key improves.
    pub better: Better,
}

impl Gated {
    /// A rate, gated against falling.
    pub const fn higher(key: &'static str) -> Self {
        Self {
            key,
            better: Better::Higher,
        }
    }

    /// A cost, gated against rising.
    pub const fn lower(key: &'static str) -> Self {
        Self {
            key,
            better: Better::Lower,
        }
    }
}

/// One layer's micro-bench: it times the live code, usually against the
/// layer's frozen reference, and reports named values plus the checks every
/// run must pass.
pub trait Bench {
    /// Selects the bench on the command line and names its
    /// `BENCH_<name>.json`.
    fn name(&self) -> &'static str;
    /// The keys `--check` gates against the committed baseline.
    fn gated(&self) -> &'static [Gated];
    /// Runs every leg once.
    fn run(&self) -> Report;
}

enum Value {
    Int(u64),
    /// A measured number and the decimals it is written with.
    Num(f64, usize),
    Bool(bool),
    /// Verbatim JSON.
    Raw(&'static str),
}

/// An ordered report of named values, written as one flat JSON object, and
/// the checks (identity contracts, budgets) the run must pass in both modes.
#[derive(Default)]
pub struct Report {
    values: Vec<(String, Value)>,
    checks: Vec<(String, bool)>,
}

impl Report {
    /// Records a count.
    pub fn int(&mut self, key: &str, v: u64) {
        self.values.push((key.to_string(), Value::Int(v)));
    }

    /// Records a measured number, written with `decimals` decimals.
    pub fn num(&mut self, key: &str, v: f64, decimals: usize) {
        self.values.push((key.to_string(), Value::Num(v, decimals)));
    }

    /// Records a flag.
    pub fn flag(&mut self, key: &str, v: bool) {
        self.values.push((key.to_string(), Value::Bool(v)));
    }

    /// Records a value given as verbatim JSON.
    pub fn raw(&mut self, key: &str, json: &'static str) {
        self.values.push((key.to_string(), Value::Raw(json)));
    }

    /// Records a condition the run must meet; a false one fails the run in
    /// both modes and keeps its JSON from being written.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.checks.push((what.to_string(), ok));
    }

    /// The numeric value of `key`, unrounded.
    fn number(&self, key: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| match *v {
                Value::Int(n) => Some(n as f64),
                Value::Num(x, _) => Some(x),
                Value::Bool(_) | Value::Raw(_) => None,
            })
    }

    /// The report as `BENCH_<name>.json` text.
    fn to_json(&self, name: &str) -> String {
        let mut s = format!("{{\n  \"bench\": \"{name}\"");
        for (key, v) in &self.values {
            let v = match *v {
                Value::Int(n) => n.to_string(),
                Value::Num(x, decimals) => format!("{x:.decimals$}"),
                Value::Bool(b) => b.to_string(),
                Value::Raw(json) => json.to_string(),
            };
            s.push_str(&format!(",\n  \"{key}\": {v}"));
        }
        s.push_str("\n}\n");
        s
    }
}

/// Wall time of one call of `f`, milliseconds.
pub(crate) fn wall_ms(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e3
}

/// The gate: every gated key must be a finite number in `report`, and with
/// a `baseline` (check mode) also in the baseline JSON, and no more than
/// [`REGRESSION_FACTOR`] worse than it. Returns one message per failure.
fn gate(report: &Report, gated: &[Gated], baseline: Option<&str>) -> Vec<String> {
    let mut failures = Vec::new();
    for g in gated {
        let Some(now) = report.number(g.key).filter(|v| v.is_finite()) else {
            failures.push(format!(
                "the run produced no number for gated key \"{}\"",
                g.key
            ));
            continue;
        };
        let Some(baseline) = baseline else { continue };
        let base = match baseline_number(baseline, g.key) {
            Ok(base) => base,
            Err(e) => {
                failures.push(e);
                continue;
            }
        };
        let ratio = match g.better {
            Better::Higher => base / now,
            Better::Lower => now / base,
        };
        let line = format!(
            "{} {now:.1} vs baseline {base:.1}: {ratio:.2}x regression (limit {REGRESSION_FACTOR}x)",
            g.key
        );
        if ratio > REGRESSION_FACTOR {
            failures.push(format!("REGRESSION: {line}"));
        } else {
            eprintln!("  ok: {line}");
        }
    }
    failures
}

fn baseline_path(dir: &Path, bench: &dyn Bench) -> PathBuf {
    dir.join(format!("BENCH_{}.json", bench.name()))
}

/// Runs `bench` once, prints its report and applies its checks and gate:
/// against `baseline` in check mode, or else writing its JSON into `dir` if
/// nothing failed. Returns the failures.
fn run_one(bench: &dyn Bench, baseline: Option<&str>, dir: &Path) -> Vec<String> {
    eprintln!("== {} ==", bench.name());
    let report = bench.run();
    let json = report.to_json(bench.name());
    eprint!("{json}");
    let mut failures = Vec::new();
    for (what, ok) in &report.checks {
        if *ok {
            eprintln!("  ok: {what}");
        } else {
            failures.push(format!("check failed: {what}"));
        }
    }
    failures.extend(gate(&report, bench.gated(), baseline));
    if baseline.is_none() && failures.is_empty() {
        let path = baseline_path(dir, bench);
        match std::fs::write(&path, json) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => failures.push(format!("cannot write {}: {e}", path.display())),
        }
    }
    failures
}

/// The `bench` command line over `benches`, with `dir` as the directory
/// that holds the `BENCH_<name>.json` files. Returns the exit code.
pub fn cli(args: &[String], benches: &[&dyn Bench], dir: &Path) -> u8 {
    let check = args.iter().any(|a| a == "--check");
    let mut runs: Vec<(&dyn Bench, Option<String>)> = Vec::new();
    for arg in args.iter().filter(|a| *a != "--check") {
        let Some(b) = benches.iter().find(|b| b.name() == arg) else {
            let names: Vec<&str> = benches.iter().map(|b| b.name()).collect();
            eprintln!(
                "unknown argument: {arg}\nusage: bench [NAME...] [--check]; names: {}",
                names.join(" ")
            );
            return 2;
        };
        runs.push((*b, None));
    }
    if runs.is_empty() {
        runs = benches.iter().map(|b| (*b, None)).collect();
    }
    if check {
        for (b, baseline) in &mut runs {
            let path = baseline_path(dir, *b);
            match std::fs::read_to_string(&path) {
                Ok(text) => *baseline = Some(text),
                Err(e) => {
                    eprintln!(
                        "baseline {} not found ({e}) — generate it first with \
                         `cargo run --release -p bench -- {}`",
                        path.display(),
                        b.name()
                    );
                    return 2;
                }
            }
        }
    }
    let mut failed = false;
    for (b, baseline) in runs {
        for f in run_one(b, baseline.as_deref(), dir) {
            eprintln!("FAILED: {}: {f}", b.name());
            failed = true;
        }
    }
    if failed {
        return 1;
    }
    eprintln!(
        "all bench {} passed",
        if check { "gates" } else { "checks" }
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    const GATED: &[Gated] = &[Gated::higher("rate"), Gated::lower("cost_ms")];

    fn report(rate: f64, cost_ms: f64) -> Report {
        let mut r = Report::default();
        r.int("events", 10);
        r.num("rate", rate, 0);
        r.num("cost_ms", cost_ms, 1);
        r
    }

    const BASELINE: &str = r#"{"bench": "t", "rate": 1000, "cost_ms": 10.0}"#;

    #[test]
    fn higher_is_better_gate_fails_past_the_factor() {
        assert!(gate(&report(501.0, 10.0), GATED, Some(BASELINE)).is_empty());
        let failures = gate(&report(499.0, 10.0), GATED, Some(BASELINE));
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("rate"), "{failures:?}");
        // Faster than the baseline always passes.
        assert!(gate(&report(1e9, 10.0), GATED, Some(BASELINE)).is_empty());
    }

    #[test]
    fn lower_is_better_gate_fails_past_the_factor() {
        assert!(gate(&report(1000.0, 19.9), GATED, Some(BASELINE)).is_empty());
        let failures = gate(&report(1000.0, 20.1), GATED, Some(BASELINE));
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("cost_ms"), "{failures:?}");
        assert!(gate(&report(1000.0, 0.1), GATED, Some(BASELINE)).is_empty());
    }

    #[test]
    fn missing_baseline_key_fails() {
        let failures = gate(&report(1000.0, 10.0), GATED, Some(r#"{"rate": 1000}"#));
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("cost_ms"), "{failures:?}");
    }

    #[test]
    fn non_finite_baseline_value_fails() {
        for bad in ["NaN", "inf", "null"] {
            let baseline = format!(r#"{{"rate": {bad}, "cost_ms": 10.0}}"#);
            let failures = gate(&report(1000.0, 10.0), GATED, Some(&baseline));
            assert_eq!(failures.len(), 1, "{bad}: {failures:?}");
        }
    }

    #[test]
    fn gated_key_the_run_does_not_produce_fails_in_both_modes() {
        let mut r = Report::default();
        r.num("rate", 1000.0, 0);
        r.num("cost_ms", f64::NAN, 1);
        for baseline in [None, Some(BASELINE)] {
            let failures = gate(&r, GATED, baseline);
            assert_eq!(failures.len(), 1, "{failures:?}");
            assert!(failures[0].contains("cost_ms"), "{failures:?}");
        }
    }

    #[test]
    fn json_keeps_order_and_precision() {
        let mut r = report(1234.56, 1.26);
        r.flag("identical", true);
        r.raw("shape", "[32, 32]");
        assert_eq!(
            r.to_json("t"),
            "{\n  \"bench\": \"t\",\n  \"events\": 10,\n  \"rate\": 1235,\n  \
             \"cost_ms\": 1.3,\n  \"identical\": true,\n  \"shape\": [32, 32]\n}\n"
        );
        // The gate reads back every number the writer wrote.
        let json = r.to_json("t");
        assert_eq!(baseline_number(&json, "rate"), Ok(1235.0));
        assert_eq!(baseline_number(&json, "cost_ms"), Ok(1.3));
    }

    /// A bench whose identity check fails, or passes, with no timing.
    struct Fake {
        identical: bool,
    }

    impl Bench for Fake {
        fn name(&self) -> &'static str {
            "fake"
        }
        fn gated(&self) -> &'static [Gated] {
            GATED
        }
        fn run(&self) -> Report {
            let mut r = report(1000.0, 10.0);
            r.flag("identical", self.identical);
            r.check(self.identical, "live matches reference");
            r
        }
    }

    /// A fresh empty directory for one test.
    fn scratch_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bench-harness-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create test directory");
        dir
    }

    fn run_cli(args: &[&str], bench: &Fake, dir: &Path) -> u8 {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        cli(&args, &[bench], dir)
    }

    #[test]
    fn failed_identity_check_exits_non_zero_in_both_modes() {
        let dir = scratch_dir("identity");
        let broken = Fake { identical: false };
        assert_eq!(run_cli(&[], &broken, &dir), 1);
        assert!(
            !dir.join("BENCH_fake.json").exists(),
            "a failed run wrote its JSON"
        );
        std::fs::write(dir.join("BENCH_fake.json"), BASELINE).expect("write baseline");
        assert_eq!(run_cli(&["--check"], &broken, &dir), 1);
        // The passing bench writes its JSON, and checks against it cleanly.
        let sound = Fake { identical: true };
        assert_eq!(run_cli(&["fake"], &sound, &dir), 0);
        let written = std::fs::read_to_string(dir.join("BENCH_fake.json")).expect("read JSON");
        assert!(written.contains("\"identical\": true"), "{written}");
        assert_eq!(run_cli(&["fake", "--check"], &sound, &dir), 0);
        std::fs::remove_dir_all(&dir).expect("remove test directory");
    }

    #[test]
    fn missing_baseline_file_and_unknown_argument_exit_2() {
        let dir = scratch_dir("usage");
        let sound = Fake { identical: true };
        assert_eq!(run_cli(&["--check"], &sound, &dir), 2);
        assert_eq!(run_cli(&["--quick"], &sound, &dir), 2);
        assert_eq!(run_cli(&["nosuch"], &sound, &dir), 2);
        std::fs::remove_dir_all(&dir).expect("remove test directory");
    }

    #[test]
    fn committed_baselines_carry_every_gated_key() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for b in crate::BENCHES {
            let path = baseline_path(&root, b);
            let json = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            assert!(!b.gated().is_empty(), "{} gates nothing", b.name());
            for g in b.gated() {
                let v = baseline_number(&json, g.key)
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                assert!(v > 0.0, "{}: {} = {v}", path.display(), g.key);
            }
        }
    }
}
