//! Multi-window SLO burn-rate monitors.
//!
//! Each service gets an error budget: at most [`SloConfig::budget`] of its
//! queries may violate QoS (late completion, drop, or timeout — the
//! Fig. 15 convention). Burn rate is the ratio of the observed violation
//! fraction to that budget: burn 1.0 consumes the budget exactly, burn 2.0
//! consumes it twice as fast. Following multi-window burn-rate alerting
//! practice, an alert fires only when **both** a fast and a slow sliding
//! window burn above threshold — the fast window gives low detection
//! latency, the slow window suppresses blips.
//!
//! All timestamps are the *simulation* clock, so alert times (and the
//! EXPERIMENTS.md detection-latency tables built from them) are
//! deterministic and reproducible.

use std::collections::VecDeque;

/// Burn-rate monitor tuning. Defaults fit the repo's fast-scale horizons
/// (5 s): a 1 s fast window, 5 s slow window, 10% violation budget, alert
/// at 2× burn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// Violation budget as a fraction of queries (0..1].
    pub budget: f64,
    /// Fast sliding window, ms.
    pub fast_window_ms: f64,
    /// Slow sliding window, ms.
    pub slow_window_ms: f64,
    /// Alert when both windows burn at ≥ this multiple of the budget.
    pub burn_threshold: f64,
    /// Minimum queries per window before it can contribute to an alert.
    pub min_samples: usize,
    /// Minimum queries before the whole-run budget can be declared
    /// exhausted.
    pub exhaust_min_samples: usize,
}

impl Default for SloConfig {
    fn default() -> Self {
        Self {
            budget: 0.10,
            fast_window_ms: 1_000.0,
            slow_window_ms: 5_000.0,
            burn_threshold: 2.0,
            min_samples: 20,
            exhaust_min_samples: 50,
        }
    }
}

/// One sliding window of (timestamp, violated) observations with an
/// incrementally maintained violation count.
#[derive(Debug, Clone, Default)]
struct Window {
    entries: VecDeque<(f64, bool)>,
    violations: usize,
}

impl Window {
    fn push(&mut self, at_ms: f64, violated: bool, span_ms: f64) {
        self.entries.push_back((at_ms, violated));
        if violated {
            self.violations += 1;
        }
        while let Some(&(t, v)) = self.entries.front() {
            if t >= at_ms - span_ms {
                break;
            }
            self.entries.pop_front();
            if v {
                self.violations -= 1;
            }
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn burn(&self, budget: f64) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        (self.violations as f64 / self.entries.len() as f64) / budget
    }
}

/// Per-service burn state.
#[derive(Debug, Clone)]
struct ServiceSlo {
    fast: Window,
    slow: Window,
    total: u64,
    violated: u64,
    /// Burn-rate alert armed: re-arms when the fast burn drops back under
    /// threshold, so a sustained episode alerts once, not per query.
    armed: bool,
    exhausted: bool,
}

impl ServiceSlo {
    fn new() -> Self {
        Self {
            fast: Window::default(),
            slow: Window::default(),
            total: 0,
            violated: 0,
            armed: true,
            exhausted: false,
        }
    }
}

/// A burn-rate or budget-exhaustion alert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SloAlert {
    /// Fast and slow windows both burning above threshold.
    BurnRate {
        /// Service index.
        service: usize,
        /// Simulation clock, ms.
        at_ms: f64,
        /// Fast-window burn rate.
        fast_burn: f64,
        /// Slow-window burn rate.
        slow_burn: f64,
    },
    /// Whole-run violation ratio exceeded the budget (fires once per
    /// service; trips the flight recorder).
    BudgetExhausted {
        /// Service index.
        service: usize,
        /// Simulation clock, ms.
        at_ms: f64,
        /// Whole-run violation ratio at trip time.
        ratio: f64,
    },
}

impl SloAlert {
    /// Simulation clock of the alert, ms.
    pub fn at_ms(&self) -> f64 {
        match *self {
            SloAlert::BurnRate { at_ms, .. } | SloAlert::BudgetExhausted { at_ms, .. } => at_ms,
        }
    }
}

/// Multi-window burn-rate monitors over every service in a run.
#[derive(Debug, Clone)]
pub struct SloMonitor {
    cfg: SloConfig,
    services: Vec<ServiceSlo>,
}

impl SloMonitor {
    /// An empty monitor; services materialise on first observation.
    pub fn new(cfg: SloConfig) -> Self {
        Self {
            cfg,
            services: Vec::new(),
        }
    }

    /// The tuning in effect.
    pub fn config(&self) -> &SloConfig {
        &self.cfg
    }

    fn service_mut(&mut self, service: usize) -> &mut ServiceSlo {
        while self.services.len() <= service {
            self.services.push(ServiceSlo::new());
        }
        &mut self.services[service]
    }

    /// Feed one retired query. `violated` follows the Fig. 15 convention
    /// (late completion, drop, or timeout). Returns 0..2 alerts (burn-rate
    /// and/or budget-exhausted), timestamps on the simulation clock.
    pub fn observe(&mut self, service: usize, at_ms: f64, violated: bool) -> Vec<SloAlert> {
        let cfg = self.cfg;
        let s = self.service_mut(service);
        s.total += 1;
        if violated {
            s.violated += 1;
        }
        s.fast.push(at_ms, violated, cfg.fast_window_ms);
        s.slow.push(at_ms, violated, cfg.slow_window_ms);
        let fast_burn = s.fast.burn(cfg.budget);
        let slow_burn = s.slow.burn(cfg.budget);
        let mut alerts = Vec::new();
        let burning = fast_burn >= cfg.burn_threshold
            && slow_burn >= cfg.burn_threshold
            && s.fast.len() >= cfg.min_samples
            && s.slow.len() >= cfg.min_samples;
        if burning && s.armed {
            s.armed = false;
            alerts.push(SloAlert::BurnRate {
                service,
                at_ms,
                fast_burn,
                slow_burn,
            });
        } else if !burning && fast_burn < cfg.burn_threshold {
            s.armed = true;
        }
        let ratio = s.violated as f64 / s.total as f64;
        if !s.exhausted && s.total >= cfg.exhaust_min_samples as u64 && ratio > cfg.budget {
            s.exhausted = true;
            alerts.push(SloAlert::BudgetExhausted {
                service,
                at_ms,
                ratio,
            });
        }
        alerts
    }

    /// Current fast/slow burn rates of a service (0 when unseen).
    pub fn burn_rates(&self, service: usize) -> (f64, f64) {
        match self.services.get(service) {
            Some(s) => (s.fast.burn(self.cfg.budget), s.slow.burn(self.cfg.budget)),
            None => (0.0, 0.0),
        }
    }

    /// Whole-run violation ratio of a service (0 when unseen).
    pub fn violation_ratio(&self, service: usize) -> f64 {
        match self.services.get(service) {
            Some(s) if s.total > 0 => s.violated as f64 / s.total as f64,
            _ => 0.0,
        }
    }

    /// Services observed so far.
    pub fn services(&self) -> usize {
        self.services.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(
        m: &mut SloMonitor,
        service: usize,
        t0: f64,
        n: usize,
        violated: bool,
    ) -> Vec<SloAlert> {
        let mut all = Vec::new();
        for i in 0..n {
            all.extend(m.observe(service, t0 + i as f64 * 10.0, violated));
        }
        all
    }

    #[test]
    fn healthy_service_never_alerts() {
        let mut m = SloMonitor::new(SloConfig::default());
        let alerts = feed(&mut m, 0, 0.0, 400, false);
        assert!(alerts.is_empty());
        assert_eq!(m.burn_rates(0), (0.0, 0.0));
    }

    #[test]
    fn sustained_violations_alert_once_then_rearm() {
        let mut m = SloMonitor::new(SloConfig::default());
        feed(&mut m, 0, 0.0, 100, false); // healthy prefix

        // 100% violations: burn = 1/0.1 = 10x in both windows once the
        // fast window turns over.
        let alerts = feed(&mut m, 0, 1000.0, 200, true);
        let burns: Vec<_> = alerts
            .iter()
            .filter(|a| matches!(a, SloAlert::BurnRate { .. }))
            .collect();
        assert_eq!(burns.len(), 1, "sustained episode must alert once");
        // Recovery re-arms, a second episode re-alerts.
        feed(&mut m, 0, 4000.0, 300, false);
        let again = feed(&mut m, 0, 8000.0, 200, true);
        assert!(again.iter().any(|a| matches!(a, SloAlert::BurnRate { .. })));
    }

    #[test]
    fn budget_exhaustion_fires_once_with_sim_clock() {
        let mut m = SloMonitor::new(SloConfig::default());
        let alerts = feed(&mut m, 2, 500.0, 100, true);
        let exhausted: Vec<_> = alerts
            .iter()
            .filter_map(|a| match a {
                SloAlert::BudgetExhausted {
                    at_ms,
                    ratio,
                    service,
                } => Some((*service, *at_ms, *ratio)),
                _ => None,
            })
            .collect();
        assert_eq!(exhausted.len(), 1);
        let (service, at_ms, ratio) = exhausted[0];
        assert_eq!(service, 2);
        // Fires exactly at the 50th query: t0 + 49*10 on the sim clock.
        assert_eq!(at_ms, 990.0);
        assert!(ratio > 0.99);
    }

    #[test]
    fn brief_blip_within_slow_window_is_suppressed() {
        let cfg = SloConfig::default();
        let mut m = SloMonitor::new(cfg);
        // Long healthy history fills the slow window.
        feed(&mut m, 0, 0.0, 450, false);
        // A 25-query violation burst: fast window burns, slow window
        // (500 queries over 5 s) stays diluted under threshold.
        let alerts = feed(&mut m, 0, 4500.0, 25, true);
        assert!(
            !alerts
                .iter()
                .any(|a| matches!(a, SloAlert::BurnRate { .. })),
            "slow window must suppress a brief blip"
        );
    }
}
