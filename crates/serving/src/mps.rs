//! Free-overlap (MPS-style) co-location — the Fig. 3 motivation experiment.
//!
//! Two services share the GPU with *no* runtime coordination, exactly as
//! Nvidia MPS co-locates processes: every query is dispatched to the GPU
//! the moment it arrives, so during bursts several antagonist queries run
//! concurrently and whatever operators happen to be in flight overlap
//! non-deterministically. The victim service runs closed-loop (a new query
//! the instant the previous one returns, §3.2); the antagonist's queries
//! arrive by a Poisson process with random Table-1 inputs. The victim's
//! latency distribution is the paper's evidence that uncontrolled overlap
//! makes tail latency explode (24 ms solo stretching past 240 ms).

use dnn_models::{ModelId, ModelLibrary, QueryInput};
use gpu_sim::{Engine, GpuSpec, NoiseModel};
use workload::{Arrival, SeededRng};

/// Configuration of one Fig. 3 run.
#[derive(Debug, Clone)]
pub struct MpsConfig {
    /// The service whose latency distribution is measured.
    pub victim: ModelId,
    /// The victim's fixed input (the paper pins ResNet-152 at batch 32).
    pub victim_input: QueryInput,
    /// The co-located service.
    pub antagonist: ModelId,
    /// Antagonist offered load, queries per second.
    pub antagonist_qps: f64,
    /// Measurement horizon, ms.
    pub horizon_ms: f64,
    /// RNG seed (noise, antagonist arrivals and inputs).
    pub seed: u64,
}

/// Victim query latencies under free MPS overlap.
pub fn mps_victim_latencies(cfg: &MpsConfig, lib: &ModelLibrary, gpu: &GpuSpec) -> Vec<f64> {
    let mut rng = SeededRng::new(cfg.seed);
    let antagonist_arrivals: Vec<Arrival> =
        workload::PoissonProcess::new(1, cfg.antagonist_qps).generate(cfg.horizon_ms, &mut rng);

    let victim_kernels = lib.kernels(cfg.victim, cfg.victim_input);
    let mut engine = Engine::new(gpu.clone(), NoiseModel::calibrated(), cfg.seed);
    // Open-loop run: the engine hands retired slots to later arrivals, so
    // memory stays bounded by the number of concurrently live queries, not
    // the arrival count. Completions are consumed from `step`, as slot
    // reuse requires.

    // MPS dispatches every antagonist query at its arrival instant — no
    // queueing, no coordination. Bursts therefore overlap with each other
    // *and* with the victim. Kernels come from the library's memoised
    // lowering — no per-query re-derivation.
    for a in &antagonist_arrivals {
        let input = lib.random_input(cfg.antagonist, &mut rng);
        engine.add_stream(lib.kernels(cfg.antagonist, input), a.at_ms);
    }

    // Closed-loop victim: one query in flight at all times.
    let mut victim_stream = engine.add_stream(victim_kernels, 0.0);
    let mut victim_started = 0.0f64;
    let mut latencies = Vec::new();

    while let Some(done) = engine.step() {
        if done.id == victim_stream {
            latencies.push(done.end_ms - victim_started);
            if done.end_ms >= cfg.horizon_ms {
                break;
            }
            victim_started = done.end_ms;
            victim_stream = engine.add_stream(victim_kernels, done.end_ms);
        }
    }
    latencies
}

/// The victim's noise-free solo latency — Fig. 3's reference point.
pub fn victim_solo_ms(cfg: &MpsConfig, lib: &ModelLibrary, gpu: &GpuSpec) -> f64 {
    lib.graph(cfg.victim, cfg.victim_input).solo_ms(gpu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use abacus_metrics::percentile;

    fn cfg(antagonist: ModelId, qps: f64) -> MpsConfig {
        MpsConfig {
            victim: ModelId::ResNet152,
            victim_input: QueryInput::new(32, 1),
            antagonist,
            antagonist_qps: qps,
            horizon_ms: 8_000.0,
            seed: 11,
        }
    }

    #[test]
    fn corun_latency_exceeds_solo_and_varies() {
        let lib = ModelLibrary::new();
        let gpu = GpuSpec::a100();
        let c = cfg(ModelId::Vgg19, 25.0);
        let lat = mps_victim_latencies(&c, &lib, &gpu);
        assert!(lat.len() > 50, "{}", lat.len());
        let solo = victim_solo_ms(&c, &lib, &gpu);
        let p50 = percentile(&lat, 50.0);
        let p99 = percentile(&lat, 99.0);
        assert!(p50 > solo, "p50 {p50} vs solo {solo}");
        // Unstable: the tail is far worse than the median (Fig. 3's whole
        // point — bursts of concurrent antagonist queries pile up).
        assert!(p99 > 1.3 * p50, "p99 {p99} p50 {p50}");
        assert!(p99 > 1.7 * solo, "p99 {p99} solo {solo}");
    }

    #[test]
    fn heavier_antagonist_hurts_more() {
        let lib = ModelLibrary::new();
        let gpu = GpuSpec::a100();
        let light = mps_victim_latencies(&cfg(ModelId::ResNet50, 15.0), &lib, &gpu);
        let heavy = mps_victim_latencies(&cfg(ModelId::Vgg19, 15.0), &lib, &gpu);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&heavy) > mean(&light),
            "vgg19 {} vs res50 {}",
            mean(&heavy),
            mean(&light)
        );
    }

    #[test]
    fn no_antagonist_load_approaches_solo() {
        let lib = ModelLibrary::new();
        let gpu = GpuSpec::a100();
        let c = cfg(ModelId::Bert, 0.001); // essentially never arrives
        let lat = mps_victim_latencies(&c, &lib, &gpu);
        let solo = victim_solo_ms(&c, &lib, &gpu);
        let p50 = percentile(&lat, 50.0);
        assert!((p50 / solo - 1.0).abs() < 0.1, "p50 {p50} solo {solo}");
    }
}
