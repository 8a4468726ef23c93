//! Headline summary (§1 / §8): QoS-violation reduction and throughput
//! improvement vs the state-of-the-art baselines, aggregated from the
//! already-generated figure CSVs.

use crate::common::Options;
use std::path::Path;

/// Parse a figure CSV of shape `label, FCFS, SJF, EDF, Abacus`.
fn read_policy_csv(path: &Path) -> Option<Vec<[f64; 4]>> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut rows = Vec::new();
    for line in text.lines().skip(1) {
        let cells: Vec<&str> = line.split(',').collect();
        if cells.len() < 5 {
            continue;
        }
        let mut row = [0.0; 4];
        for i in 0..4 {
            row[i] = cells[cells.len() - 4 + i].parse().ok()?;
        }
        rows.push(row);
    }
    Some(rows)
}

fn column_sums(rows: &[[f64; 4]]) -> [f64; 4] {
    let mut s = [0.0; 4];
    for r in rows {
        for i in 0..4 {
            s[i] += r[i];
        }
    }
    s
}

/// Print the headline aggregates. Requires `fig15`, `fig17` (and uses
/// `fig19` when present).
pub fn run(opts: &Options) {
    let Some(viol) = read_policy_csv(&opts.csv_path("fig15")) else {
        eprintln!(
            "missing {}; run `abacus-repro fig14` first",
            opts.csv_path("fig15").display()
        );
        return;
    };
    let Some(tput) = read_policy_csv(&opts.csv_path("fig17")) else {
        eprintln!(
            "missing {}; run `abacus-repro fig17` first",
            opts.csv_path("fig17").display()
        );
        return;
    };
    let mut tput_all = tput;
    // Fig. 18 stores p99, not violations, so only Fig. 19's throughput
    // joins the pool.
    if let Some(t19) = read_policy_csv(&opts.csv_path("fig19")) {
        tput_all.extend(t19);
    }
    let vs = column_sums(&viol);
    let ts = column_sums(&tput_all);
    // "Compared with state-of-the-art solutions": average the reduction
    // across the three baselines, as the abstract's 51.3% / 29.8% do.
    let viol_red: f64 = (0..3).map(|i| 1.0 - vs[3] / vs[i].max(1e-12)).sum::<f64>() / 3.0;
    let tput_gain: f64 = (0..3).map(|i| ts[3] / ts[i].max(1e-12) - 1.0).sum::<f64>() / 3.0;
    println!("Headline summary (abstract / §8)");
    println!(
        "  QoS violation reduction vs baselines (avg): {:.1}%   (paper: 51.3%)",
        100.0 * viol_red
    );
    println!(
        "  peak throughput improvement vs baselines (avg): {:.1}%   (paper: 29.8%)",
        100.0 * tput_gain
    );
    println!(
        "  per-baseline violation reduction FCFS/SJF/EDF: {:.1}% / {:.1}% / {:.1}%",
        100.0 * (1.0 - vs[3] / vs[0].max(1e-12)),
        100.0 * (1.0 - vs[3] / vs[1].max(1e-12)),
        100.0 * (1.0 - vs[3] / vs[2].max(1e-12)),
    );
    println!(
        "  per-baseline throughput gain FCFS/SJF/EDF: {:.1}% / {:.1}% / {:.1}%",
        100.0 * (ts[3] / ts[0] - 1.0),
        100.0 * (ts[3] / ts[1] - 1.0),
        100.0 * (ts[3] / ts[2] - 1.0),
    );
}
