//! Inspect one scheduling round in detail: how the headroom-based
//! controller forms an operator group, what the predictor certifies, and
//! what the segmental executor actually measures.
//!
//! ```sh
//! cargo run --release --example colocate_pair
//! ```

use abacus_core::{plan_group, Query, SearchResult, SegmentalExecutor};
use dnn_models::{ModelId, ModelLibrary};
use gpu_sim::{GpuSpec, NoiseModel};
use predictor::LatencyModel;
use serving::{train_unified, TrainerConfig};
use std::sync::Arc;

fn main() {
    let lib = Arc::new(ModelLibrary::new());
    let gpu = GpuSpec::a100();
    let noise = NoiseModel::calibrated();
    let models = [ModelId::ResNet152, ModelId::InceptionV3, ModelId::Bert];

    println!("training a unified predictor over the triplet...");
    let (mlp, _) = train_unified(
        &[models.to_vec()],
        &lib,
        &gpu,
        &noise,
        &TrainerConfig {
            samples_per_set: 800,
            runs_per_group: 4,
            ..TrainerConfig::default()
        },
    );
    let mlp: Arc<dyn LatencyModel> = Arc::new(mlp);

    // Three in-flight queries with different QoS headrooms (Fig. 12's
    // scenario): the Bert query is most urgent.
    let mk = |id, m: ModelId, arrival: f64| {
        let input = m.max_input();
        Query::new(
            id,
            m,
            input,
            arrival,
            lib.qos_target_ms(m, &gpu),
            lib.graph(m, input).len(),
        )
    };
    let now = 30.0;
    let queries = [
        mk(0, ModelId::Bert, 10.0),
        mk(1, ModelId::ResNet152, 25.0),
        mk(2, ModelId::InceptionV3, 28.0),
    ];
    let mut sorted: Vec<&Query> = queries.iter().collect();
    sorted.sort_by(|a, b| a.headroom_ms(now).total_cmp(&b.headroom_ms(now)));
    println!("\nqueries at t = {now} ms (sorted by Eq. 2 headroom):");
    for q in &sorted {
        println!(
            "  {:<8} headroom {:5.1} ms, {} operators remaining",
            q.model.name(),
            q.headroom_ms(now),
            q.remaining_ops()
        );
    }

    // Multi-way search under the head query's headroom (§6.2–6.3).
    let budget = sorted[0].headroom_ms(now);
    match plan_group(&sorted, budget, mlp.as_ref(), &lib, 4) {
        SearchResult::Planned(plan) => {
            println!("\noperator schedule group (budget {budget:.1} ms):");
            for e in &plan.entries {
                let q = queries.iter().find(|q| q.id == e.query_id).unwrap();
                println!(
                    "  {:<8} ops {:>3}..{:<3} ({} of {})",
                    q.model.name(),
                    e.op_start,
                    e.op_end,
                    e.len(),
                    q.n_ops
                );
            }
            println!(
                "  predicted duration {:.1} ms in {} prediction round(s)",
                plan.predicted_ms, plan.prediction_rounds
            );

            // Execute the exact group on the simulated GPU and compare.
            let mut exec = SegmentalExecutor::new(gpu.clone(), noise, lib.clone(), 7);
            let spec = plan.to_spec(|id| queries.iter().find(|q| q.id == id).unwrap(), &lib);
            let out = exec.execute(&spec);
            let seq = spec.sequential_ms(&lib, &gpu);
            println!("\nsegmental executor measurement:");
            println!("  measured group duration : {:.1} ms", out.duration_ms);
            println!("  sequential would take   : {seq:.1} ms");
            println!(
                "  overlap gain            : {:.0}% ({} MB of intermediates held)",
                100.0 * (seq / out.duration_ms - 1.0),
                (out.saved_bytes / 1e6).round()
            );
            println!(
                "  prediction error        : {:.1}%",
                100.0 * (plan.predicted_ms - out.duration_ms).abs() / out.duration_ms
            );
        }
        SearchResult::Infeasible { .. } => {
            println!("head query infeasible — it would be dropped (§6.2)");
        }
    }
}
