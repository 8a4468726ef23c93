//! Seedable, bit-reproducible fault injection for the serving stack.
//!
//! Abacus's QoS claim rests on co-run latency being *predictable*; this
//! crate supplies the adversarial conditions under which that assumption is
//! deliberately broken, so the scheduler's defensive machinery (drop
//! mechanism, safety margin, FCFS degradation, per-query timeout) can be
//! exercised and its invariants checked. A [`FaultPlan`] bundles three
//! orthogonal injections, all derived from one base seed via forked
//! SplitMix64 streams (the repo-wide reproducibility contract):
//!
//! * **kernel latency spikes** — [`KernelSpikes`] lowers to a
//!   [`gpu_sim::KernelFaultSpec`] installed in the engine: individual
//!   kernels get `factor`× slower with probability `prob` inside a busy-time
//!   window;
//! * **predictor misprediction** — [`FaultyModel`] wraps any
//!   [`LatencyModel`] and biases or freezes its output (outputs are always
//!   sanitised to finite, non-negative values);
//! * **arrival bursts** — [`burst_arrivals`] generates an extra Poisson
//!   surge inside a window, merged into the base workload *without*
//!   perturbing the base stream's RNG draws.
//!
//! A degraded cluster node is not a fault here but hardware: a pool of
//! GPUs slowed by `cluster::slowed`.
//!
//! `FaultPlan::none()` is the identity: every consumer treats it as "hooks
//! disabled" and produces bit-identical output to a build without the fault
//! layer (pinned by the golden no-fault tests).

use gpu_sim::KernelFaultSpec;
use predictor::LatencyModel;
use std::sync::Arc;
use workload::{fork_seed, Arrival, Exponential, SeededRng};

/// Fork label for the kernel spike stream.
const LABEL_KERNEL: u64 = 0xFA01;
/// Fork label for the burst arrival stream.
const LABEL_BURST: u64 = 0xFA02;
/// Fork label for the burst input stream.
const LABEL_BURST_INPUT: u64 = 0xFA03;

/// Kernel latency-spike regime (lowers to [`gpu_sim::KernelFaultSpec`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelSpikes {
    /// Per-kernel spike probability in `[0, 1]`.
    pub prob: f64,
    /// Solo-duration multiplier for spiked kernels.
    pub factor: f64,
    /// Window start in cumulative GPU busy time, ms.
    pub window_start_ms: f64,
    /// Window end, ms (`f64::INFINITY` = whole run).
    pub window_end_ms: f64,
}

impl KernelSpikes {
    /// Spikes active for the whole run.
    pub fn always(prob: f64, factor: f64) -> Self {
        Self {
            prob,
            factor,
            window_start_ms: 0.0,
            window_end_ms: f64::INFINITY,
        }
    }
}

/// Predictor misprediction injection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PredictorFault {
    /// Multiply every prediction by `factor` (< 1 ⇒ systematic
    /// under-prediction — the dangerous direction: groups overrun their
    /// certified budget).
    Bias {
        /// Multiplicative bias applied to the wrapped model's output.
        factor: f64,
    },
    /// Ignore the input entirely and always answer `value_ms` (total
    /// predictor failure — e.g. a wedged inference side-car).
    Freeze {
        /// The constant answer, ms.
        value_ms: f64,
    },
}

/// An extra Poisson arrival surge on top of the base workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalBurst {
    /// Burst window start, ms.
    pub start_ms: f64,
    /// Burst window end, ms.
    pub end_ms: f64,
    /// Extra offered load during the window, queries/second *aggregate*
    /// (split evenly across the deployed services).
    pub extra_qps: f64,
}

/// A complete, seedable fault scenario. See module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Base seed; every injection forks its own stream off it.
    pub seed: u64,
    /// Kernel latency spikes, if any.
    pub kernel: Option<KernelSpikes>,
    /// Predictor misprediction, if any.
    pub predictor: Option<PredictorFault>,
    /// Arrival burst, if any.
    pub burst: Option<ArrivalBurst>,
}

impl FaultPlan {
    /// The identity plan: nothing is injected, all hooks stay disabled and
    /// every consumer is bit-identical to a run without the fault layer.
    pub fn none() -> Self {
        Self {
            seed: 0,
            kernel: None,
            predictor: None,
            burst: None,
        }
    }

    /// True when the plan injects nothing.
    pub fn is_none(&self) -> bool {
        self.kernel.is_none() && self.predictor.is_none() && self.burst.is_none()
    }

    /// A canonical scenario family parameterised by `intensity ∈ [0, 1]`,
    /// used by the CLI fault sweep and the metamorphic monotonicity tests.
    /// Intensity 0 is exactly [`FaultPlan::none`]; raising it makes every
    /// injection strictly harsher: more and bigger kernel spikes, stronger
    /// predictor under-prediction, a larger mid-run arrival surge.
    pub fn at_intensity(seed: u64, intensity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&intensity),
            "intensity must be in [0, 1]"
        );
        if intensity == 0.0 {
            return Self::none();
        }
        Self {
            seed,
            kernel: Some(KernelSpikes::always(0.3 * intensity, 1.0 + 3.0 * intensity)),
            predictor: Some(PredictorFault::Bias {
                factor: 1.0 - 0.5 * intensity,
            }),
            burst: Some(ArrivalBurst {
                start_ms: 2_000.0,
                end_ms: 4_000.0,
                extra_qps: 60.0 * intensity,
            }),
        }
    }

    /// Lower the kernel-spike component to the engine-level spec, its seed
    /// forked off the plan seed.
    pub fn kernel_fault_spec(&self) -> Option<KernelFaultSpec> {
        self.kernel.map(|k| KernelFaultSpec {
            seed: fork_seed(self.seed, LABEL_KERNEL),
            window_start_ms: k.window_start_ms,
            window_end_ms: k.window_end_ms,
            prob: k.prob,
            factor: k.factor,
        })
    }

    /// Wrap `model` with this plan's predictor fault; returns the model
    /// unchanged when no predictor fault is planned.
    pub fn wrap_predictor(&self, model: Arc<dyn LatencyModel>) -> Arc<dyn LatencyModel> {
        match self.predictor {
            Some(fault) => Arc::new(FaultyModel::new(model, fault)),
            None => model,
        }
    }
}

/// Clamp a predicted latency to a finite, non-negative value. A faulty (or
/// fault-wrapped) predictor must never leak NaN/∞/negative numbers into the
/// scheduler — the search's feasibility comparisons treat non-finite
/// predictions as infeasible, but the contract is enforced here at the
/// source.
pub fn sanitize_prediction(x: f64) -> f64 {
    if x.is_finite() && x >= 0.0 {
        x
    } else if x == f64::INFINITY {
        f64::MAX
    } else {
        0.0
    }
}

/// A [`LatencyModel`] wrapper injecting deterministic misprediction.
///
/// Output contract: always finite and non-negative, whatever the inner
/// model or the fault parameters produce (see [`sanitize_prediction`]).
pub struct FaultyModel {
    inner: Arc<dyn LatencyModel>,
    fault: PredictorFault,
}

impl FaultyModel {
    /// Wrap `inner` with `fault`.
    pub fn new(inner: Arc<dyn LatencyModel>, fault: PredictorFault) -> Self {
        Self { inner, fault }
    }

    fn apply(&self, y: f64) -> f64 {
        let faulted = match self.fault {
            PredictorFault::Bias { factor } => y * factor,
            PredictorFault::Freeze { value_ms } => value_ms,
        };
        sanitize_prediction(faulted)
    }
}

impl LatencyModel for FaultyModel {
    fn predict_one(&self, x: &[f64]) -> f64 {
        self.apply(self.inner.predict_one(x))
    }

    fn predict_into(&self, xs: &[f64], n: usize, out: &mut Vec<f64>) {
        self.inner.predict_into(xs, n, out);
        for y in out.iter_mut() {
            *y = self.apply(*y);
        }
    }

    fn name(&self) -> &'static str {
        "faulty"
    }
}

/// Generate the extra arrivals of `burst` for `n_services` services, split
/// evenly, from a stream forked off `plan_seed`. Returned arrivals are
/// time-sorted; the caller merges them into the base workload (the base
/// stream's own RNG draws are untouched — injection must not silently
/// reshuffle the no-fault workload).
pub fn burst_arrivals(burst: &ArrivalBurst, n_services: usize, plan_seed: u64) -> Vec<Arrival> {
    assert!(n_services > 0, "need at least one service");
    assert!(burst.end_ms >= burst.start_ms, "burst window inverted");
    let mut rng = SeededRng::new(fork_seed(plan_seed, LABEL_BURST));
    let per_service_qps = burst.extra_qps / n_services as f64;
    if per_service_qps <= 0.0 {
        return Vec::new();
    }
    let inter = Exponential::new(per_service_qps / 1000.0);
    let mut out = Vec::new();
    for service in 0..n_services {
        let mut t = burst.start_ms;
        loop {
            t += inter.sample(&mut rng);
            if t >= burst.end_ms {
                break;
            }
            out.push(Arrival { service, at_ms: t });
        }
    }
    out.sort_by(|a, b| a.at_ms.total_cmp(&b.at_ms).then(a.service.cmp(&b.service)));
    out
}

/// The RNG stream burst-arrival *inputs* should be drawn from (separate
/// from the arrival-time stream, so input draws do not depend on how many
/// arrivals the burst produced for earlier services).
pub fn burst_input_rng(plan_seed: u64) -> SeededRng {
    SeededRng::new(fork_seed(plan_seed, LABEL_BURST_INPUT))
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl LatencyModel for Echo {
        fn predict_one(&self, x: &[f64]) -> f64 {
            x[0]
        }
        fn name(&self) -> &'static str {
            "echo"
        }
    }

    #[test]
    fn none_plan_is_identity() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        assert!(p.kernel_fault_spec().is_none());
        let m: Arc<dyn LatencyModel> = Arc::new(Echo);
        let wrapped = p.wrap_predictor(m.clone());
        assert_eq!(wrapped.predict_one(&[3.5]), 3.5);
        assert_eq!(wrapped.name(), "echo"); // not wrapped at all
    }

    #[test]
    fn intensity_zero_is_none_and_scales_monotonically() {
        assert!(FaultPlan::at_intensity(1, 0.0).is_none());
        let lo = FaultPlan::at_intensity(1, 0.25);
        let hi = FaultPlan::at_intensity(1, 1.0);
        let (klo, khi) = (lo.kernel.unwrap(), hi.kernel.unwrap());
        assert!(khi.prob > klo.prob && khi.factor > klo.factor);
        let bias = |p: &FaultPlan| match p.predictor.unwrap() {
            PredictorFault::Bias { factor } => factor,
            _ => panic!("expected bias"),
        };
        assert!(bias(&hi) < bias(&lo));
        assert!(hi.burst.unwrap().extra_qps > lo.burst.unwrap().extra_qps);
    }

    #[test]
    fn bias_and_freeze_apply() {
        let m: Arc<dyn LatencyModel> = Arc::new(Echo);
        let biased = FaultyModel::new(m.clone(), PredictorFault::Bias { factor: 0.5 });
        assert_eq!(biased.predict_one(&[8.0]), 4.0);
        let frozen = FaultyModel::new(m, PredictorFault::Freeze { value_ms: 2.0 });
        assert_eq!(frozen.predict_one(&[8.0]), 2.0);
        let mut out = Vec::new();
        biased.predict_into(&[8.0, 10.0], 2, &mut out);
        assert_eq!(out, vec![4.0, 5.0]);
    }

    #[test]
    fn outputs_always_finite_and_non_negative() {
        struct Nasty;
        impl LatencyModel for Nasty {
            fn predict_one(&self, x: &[f64]) -> f64 {
                x[0] // echoes whatever poison the test feeds it
            }
            fn name(&self) -> &'static str {
                "nasty"
            }
        }
        let m: Arc<dyn LatencyModel> = Arc::new(Nasty);
        for fault in [
            PredictorFault::Bias { factor: -3.0 },
            PredictorFault::Bias {
                factor: f64::INFINITY,
            },
            PredictorFault::Freeze { value_ms: f64::NAN },
            PredictorFault::Freeze { value_ms: -1.0 },
        ] {
            let f = FaultyModel::new(m.clone(), fault);
            for poison in [1.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let y = f.predict_one(&[poison]);
                assert!(y.is_finite() && y >= 0.0, "{fault:?} on {poison} gave {y}");
            }
        }
    }

    #[test]
    fn burst_arrivals_live_in_window_and_reproduce() {
        let b = ArrivalBurst {
            start_ms: 100.0,
            end_ms: 600.0,
            extra_qps: 200.0,
        };
        let a1 = burst_arrivals(&b, 3, 77);
        let a2 = burst_arrivals(&b, 3, 77);
        assert_eq!(a1, a2);
        assert!(!a1.is_empty());
        assert!(a1.iter().all(|a| a.at_ms > 100.0 && a.at_ms < 600.0));
        assert!(a1.iter().all(|a| a.service < 3));
        assert!(a1.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        // ~200 qps over 0.5 s ⇒ ~100 arrivals.
        assert!((50..200).contains(&a1.len()), "{}", a1.len());
        // Different seed, different draw.
        assert_ne!(burst_arrivals(&b, 3, 78), a1);
    }

    #[test]
    fn zero_qps_burst_is_empty() {
        let b = ArrivalBurst {
            start_ms: 0.0,
            end_ms: 1000.0,
            extra_qps: 0.0,
        };
        assert!(burst_arrivals(&b, 2, 1).is_empty());
    }
}
