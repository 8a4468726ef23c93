//! `abacus-repro` — regenerates every table and figure of the paper.
//!
//! Usage: `abacus-repro <experiment> [--fast|--medium|--full] [--seed N]
//! [--out DIR] [--retrain] [--serial]`
//!
//! Experiments: `table1 table2 fig3 fig7 fig10 fig14 fig15 fig16 fig17
//! fig18 fig19 fig20 fig21 fig22 fig23 overhead ablation analysis affinity
//! faults pareto trace health summary all`.
//! CSV series land in `results/` (override with `--out`); a human-readable
//! rendition of each figure prints to stdout together with the paper's
//! reference numbers.

mod ablation;
mod affinity_cmd;
mod analysis;
mod common;
mod faults_cmd;
mod fig10;
mod fig22;
mod fig23;
mod fig3;
mod fig7;
mod health_cmd;
mod mig;
mod multiway;
mod pairwise;
mod pareto_cmd;
mod summary;
mod tables;
mod trace_cmd;

use common::{ensure_out_dir, parse_options};

const USAGE: &str = "usage: abacus-repro <experiment> [options]

experiments:
  table1    model zoo (Table 1)          fig17    peak throughput, 21 pairs
  table2    hardware spec (Table 2)      fig18    p99, triplets/quadruplets
  fig3      MPS free-overlap tail        fig19    throughput, triplets/quads
  fig7      operator-group determinism   fig20    MIG isolation, p99
  fig10     LR/SVM/MLP prediction error  fig21    MIG isolation, throughput
  fig14     normalised p99, 21 pairs     fig22    cluster vs Clockwork
  fig15     QoS violations, 21 pairs     fig23    multi-way search latency
  fig16     small-DNN p99 (Abacus)       overhead §7.8 footprints
  ablation  design-choice ablations      summary  abstract headline numbers
  analysis  latency anatomy + overlap trace (extension)
  affinity  §7.8 co-location affinity survey + service-group planning
  faults    QoS violations vs fault intensity + invariant check (extension)
  pareto    violation rate vs throughput: fixed margin vs conformal (extension)
  trace     telemetry: Perfetto trace, decision ledger, §5.2 error sweep
  health    run-health monitors: drift/SLO-burn detection latency (extension)
  all       everything above, in order

options:
  --fast | --medium | --full   experiment scale (default: --medium)
  --seed N                     master seed (default: 2021)
  --out DIR                    output directory (default: results/)
  --retrain                    ignore cached predictor models
  --serial                     run sweep cells in order, not on the pool
                               (same CSVs either way)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let opts = match parse_options(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    ensure_out_dir(&opts.out_dir);
    let t0 = std::time::Instant::now();
    match cmd.as_str() {
        "table1" => tables::table1(&opts),
        "table2" => tables::table2(&opts),
        "fig3" => fig3::run(&opts),
        "fig7" => fig7::run(&opts),
        "fig10" => fig10::run(&opts),
        "fig14" | "fig15" => pairwise::run_qos(&opts),
        "fig16" => pairwise::run_small(&opts),
        "fig17" => pairwise::run_peak(&opts),
        "fig18" | "fig19" => multiway::run(&opts),
        "fig20" | "fig21" => mig::run(&opts),
        "fig22" => fig22::run(&opts),
        "fig23" => fig23::run(&opts),
        "overhead" => tables::overhead(&opts),
        "ablation" => ablation::run(&opts),
        "affinity" => affinity_cmd::run(&opts),
        "analysis" => analysis::run(&opts),
        "faults" => faults_cmd::run(&opts),
        "pareto" => pareto_cmd::run(&opts),
        "trace" => trace_cmd::run(&opts),
        "health" => health_cmd::run(&opts),
        "summary" => summary::run(&opts),
        "all" => {
            tables::table1(&opts);
            tables::table2(&opts);
            fig3::run(&opts);
            fig7::run(&opts);
            fig10::run(&opts);
            pairwise::run_qos(&opts);
            pairwise::run_small(&opts);
            pairwise::run_peak(&opts);
            multiway::run(&opts);
            mig::run(&opts);
            fig22::run(&opts);
            fig23::run(&opts);
            tables::overhead(&opts);
            ablation::run(&opts);
            affinity_cmd::run(&opts);
            analysis::run(&opts);
            faults_cmd::run(&opts);
            pareto_cmd::run(&opts);
            trace_cmd::run(&opts);
            health_cmd::run(&opts);
            summary::run(&opts);
        }
        other => {
            eprintln!("unknown experiment '{other}'\n\n{USAGE}");
            std::process::exit(2);
        }
    }
    eprintln!("[{cmd}] finished in {:.1?}", t0.elapsed());
}
