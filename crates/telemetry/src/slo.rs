//! Declarative SLOs evaluated over windowed dimensional metrics.
//!
//! An [`SloConfig`] is a list of [`SloTarget`]s — "p99 infer latency ≤
//! 250ms over the last 10s", "shed rate ≤ 5% over the last 60s" —
//! each scoped to an optional model and verb. [`SloConfig::evaluate`]
//! reads the matching request-stage windows out of a
//! [`MetricRegistry`] and folds them into a [`HealthReport`]: one
//! [`TargetReport`] per target carrying the measured values and a
//! **burn rate** (worst measured/target ratio across the target's
//! configured dimensions), plus an overall [`SloStatus`] verdict.
//!
//! Burn rate < 1 means inside budget ([`SloStatus::Ok`]); 1–2 means
//! the budget is being consumed as fast as or faster than allotted
//! ([`SloStatus::Degraded`]); ≥ 2 means burning at double speed or
//! worse ([`SloStatus::Critical`]). An empty window is `Ok` with zero
//! burn — no traffic is not an outage.

use std::time::Duration;

use crate::registry::{DimWindow, MetricRegistry, STAGE_REQUEST};

/// Health verdict for one target or a whole config.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SloStatus {
    /// Every configured dimension is inside its budget.
    Ok,
    /// At least one dimension is at 1–2× its budget.
    Degraded,
    /// At least one dimension is at ≥ 2× its budget.
    Critical,
}

impl SloStatus {
    /// Wire spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            SloStatus::Ok => "ok",
            SloStatus::Degraded => "degraded",
            SloStatus::Critical => "critical",
        }
    }

    /// Inverse of [`as_str`](Self::as_str).
    pub fn parse(s: &str) -> Option<SloStatus> {
        match s {
            "ok" => Some(SloStatus::Ok),
            "degraded" => Some(SloStatus::Degraded),
            "critical" => Some(SloStatus::Critical),
            _ => None,
        }
    }

    fn from_burn(burn: f64) -> SloStatus {
        if burn >= 2.0 {
            SloStatus::Critical
        } else if burn >= 1.0 {
            SloStatus::Degraded
        } else {
            SloStatus::Ok
        }
    }
}

/// One service-level objective over a sliding window.
#[derive(Debug, Clone)]
pub struct SloTarget {
    /// Human-readable target name ("infer-latency", "availability").
    pub name: String,
    /// Restrict to one model; `None` spans all models.
    pub model: Option<String>,
    /// Restrict to one wire verb; `None` spans all verbs.
    pub verb: Option<String>,
    /// Sliding window the target is evaluated over, in whole seconds
    /// (see [`DimCell::window`](crate::DimCell::window)). A window wider
    /// than [`WINDOW_SPAN`](crate::WINDOW_SPAN) is evaluated over
    /// [`WINDOW_SPAN`](crate::WINDOW_SPAN).
    pub window: Duration,
    /// Budget: windowed p99 latency must stay at or below this.
    pub p99_latency: Option<Duration>,
    /// Budget: windowed error rate (errors / outcomes) must stay at or
    /// below this.
    pub max_error_rate: Option<f64>,
    /// Budget: windowed shed rate (sheds / outcomes) must stay at or
    /// below this.
    pub max_shed_rate: Option<f64>,
}

impl SloTarget {
    /// A target spanning all models and verbs over `window`, with no
    /// budgets set (add them with the struct-update syntax).
    pub fn over(name: impl Into<String>, window: Duration) -> Self {
        SloTarget {
            name: name.into(),
            model: None,
            verb: None,
            window,
            p99_latency: None,
            max_error_rate: None,
            max_shed_rate: None,
        }
    }

    /// Evaluates this target against the registry's request-stage
    /// windows.
    pub fn evaluate(&self, registry: &MetricRegistry) -> TargetReport {
        let w = registry.window_for(
            self.model.as_deref(),
            self.verb.as_deref(),
            Some(STAGE_REQUEST),
            self.window,
        );
        self.report(&w)
    }

    /// Evaluates this target against an already-collected window — the
    /// deterministic test seam behind [`evaluate`](Self::evaluate).
    pub fn report(&self, w: &DimWindow) -> TargetReport {
        let p99 = w.latency.p99();
        let error_rate = w.error_rate();
        let shed_rate = w.shed_rate();
        let mut burn = 0.0f64;
        if w.latency.count > 0 {
            if let Some(budget) = self.p99_latency {
                let budget_ns = u64::try_from(budget.as_nanos()).unwrap_or(u64::MAX);
                burn = burn.max(p99 as f64 / budget_ns.max(1) as f64);
            }
        }
        if w.outcomes() > 0 {
            if let Some(budget) = self.max_error_rate {
                burn = burn.max(ratio_burn(error_rate, budget));
            }
            if let Some(budget) = self.max_shed_rate {
                burn = burn.max(ratio_burn(shed_rate, budget));
            }
        }
        TargetReport {
            name: self.name.clone(),
            status: SloStatus::from_burn(burn),
            burn_rate: burn,
            samples: w.latency.count.max(w.outcomes()),
            p99_us: p99 as f64 / 1_000.0,
            error_rate,
            shed_rate,
        }
    }
}

/// measured/budget with a zero-budget convention: a zero budget means
/// "none allowed", so any measured value at all burns critically.
fn ratio_burn(measured: f64, budget: f64) -> f64 {
    if budget > 0.0 {
        measured / budget
    } else if measured > 0.0 {
        f64::INFINITY
    } else {
        0.0
    }
}

/// The evaluated state of one [`SloTarget`].
#[derive(Debug, Clone, PartialEq)]
pub struct TargetReport {
    /// The target's name.
    pub name: String,
    /// Verdict for this target alone.
    pub status: SloStatus,
    /// Worst measured/budget ratio across configured dimensions; 0
    /// when the window is empty.
    pub burn_rate: f64,
    /// Samples the verdict is based on (max of latency samples and
    /// outcomes).
    pub samples: u64,
    /// Measured windowed p99 latency, microseconds.
    pub p99_us: f64,
    /// Measured windowed error rate.
    pub error_rate: f64,
    /// Measured windowed shed rate.
    pub shed_rate: f64,
}

/// The overall health verdict: worst target status plus every target's
/// report.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Worst status across targets (`Ok` when there are none).
    pub status: SloStatus,
    /// Per-target evaluations, in config order.
    pub targets: Vec<TargetReport>,
}

/// A set of SLO targets evaluated together.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// The targets; overall health is the worst of them.
    pub targets: Vec<SloTarget>,
}

impl Default for SloConfig {
    /// Generous catch-all targets — a 2s p99 and 50% shed budget over
    /// 10s — so a freshly configured gateway reports `ok` under any
    /// sane load and operators tighten from there.
    fn default() -> Self {
        SloConfig {
            targets: vec![
                SloTarget {
                    p99_latency: Some(Duration::from_secs(2)),
                    ..SloTarget::over("latency", Duration::from_secs(10))
                },
                SloTarget {
                    max_shed_rate: Some(0.5),
                    ..SloTarget::over("availability", Duration::from_secs(10))
                },
            ],
        }
    }
}

impl SloConfig {
    /// Evaluates every target against the registry.
    pub fn evaluate(&self, registry: &MetricRegistry) -> HealthReport {
        let targets: Vec<TargetReport> =
            self.targets.iter().map(|t| t.evaluate(registry)).collect();
        let status = targets
            .iter()
            .map(|t| t.status)
            .max()
            .unwrap_or(SloStatus::Ok);
        HealthReport { status, targets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;

    fn window_with(latencies_us: &[u64], ok: u64, error: u64, shed: u64) -> DimWindow {
        let h = Histogram::with_shards(1);
        for &us in latencies_us {
            h.record(us * 1_000);
        }
        DimWindow {
            latency: h.snapshot(),
            ok,
            error,
            shed,
        }
    }

    #[test]
    fn empty_window_is_ok_not_an_outage() {
        let t = SloTarget {
            p99_latency: Some(Duration::from_millis(1)),
            max_error_rate: Some(0.0),
            max_shed_rate: Some(0.0),
            ..SloTarget::over("strict", Duration::from_secs(10))
        };
        let r = t.report(&DimWindow::empty());
        assert_eq!(r.status, SloStatus::Ok);
        assert_eq!(r.burn_rate, 0.0);
        assert_eq!(r.samples, 0);
    }

    #[test]
    fn latency_burn_escalates_through_degraded_to_critical() {
        let t = SloTarget {
            p99_latency: Some(Duration::from_micros(100)),
            ..SloTarget::over("lat", Duration::from_secs(10))
        };
        let ok = t.report(&window_with(&[50, 60, 70], 3, 0, 0));
        assert_eq!(ok.status, SloStatus::Ok);
        assert!(ok.burn_rate < 1.0);

        let degraded = t.report(&window_with(&[150], 1, 0, 0));
        assert_eq!(degraded.status, SloStatus::Degraded);
        assert!(degraded.burn_rate >= 1.0 && degraded.burn_rate < 2.0);

        let critical = t.report(&window_with(&[500], 1, 0, 0));
        assert_eq!(critical.status, SloStatus::Critical);
        assert!(critical.burn_rate >= 2.0);
    }

    #[test]
    fn shed_and_error_budgets_burn_by_rate() {
        let t = SloTarget {
            max_error_rate: Some(0.10),
            max_shed_rate: Some(0.10),
            ..SloTarget::over("avail", Duration::from_secs(10))
        };
        // 5% shed against a 10% budget: half-burned, ok.
        let r = t.report(&window_with(&[], 19, 0, 1));
        assert_eq!(r.status, SloStatus::Ok);
        assert!((r.burn_rate - 0.5).abs() < 1e-9);
        // 25% errors against 10%: 2.5× burn, critical.
        let r = t.report(&window_with(&[], 3, 1, 0));
        assert_eq!(r.status, SloStatus::Critical);
        assert!((r.error_rate - 0.25).abs() < 1e-9);
        // Zero budget means none allowed.
        let strict = SloTarget {
            max_shed_rate: Some(0.0),
            ..SloTarget::over("none", Duration::from_secs(10))
        };
        let r = strict.report(&window_with(&[], 99, 0, 1));
        assert_eq!(r.status, SloStatus::Critical);
    }

    #[test]
    fn overall_health_is_the_worst_target() {
        let reg = MetricRegistry::default();
        let cell = reg.cell("m", "infer", STAGE_REQUEST);
        cell.record_latency(Duration::from_micros(500));
        cell.record_ok();
        let config = SloConfig {
            targets: vec![
                SloTarget {
                    p99_latency: Some(Duration::from_secs(1)),
                    ..SloTarget::over("loose", Duration::from_secs(10))
                },
                SloTarget {
                    p99_latency: Some(Duration::from_micros(100)),
                    ..SloTarget::over("tight", Duration::from_secs(10))
                },
            ],
        };
        let health = config.evaluate(&reg);
        assert_eq!(health.status, SloStatus::Critical);
        assert_eq!(health.targets.len(), 2);
        assert_eq!(health.targets[0].status, SloStatus::Ok);
        assert_eq!(health.targets[1].status, SloStatus::Critical);
        // A target scoped to a model with no traffic stays ok.
        let scoped = SloConfig {
            targets: vec![SloTarget {
                model: Some("ghost".into()),
                p99_latency: Some(Duration::from_nanos(1)),
                ..SloTarget::over("ghost", Duration::from_secs(10))
            }],
        };
        assert_eq!(scoped.evaluate(&reg).status, SloStatus::Ok);
    }

    #[test]
    fn default_config_is_generous() {
        let reg = MetricRegistry::default();
        let cell = reg.cell("m", "infer", STAGE_REQUEST);
        for _ in 0..100 {
            cell.record_latency(Duration::from_millis(50));
            cell.record_ok();
        }
        cell.record_shed();
        assert_eq!(SloConfig::default().evaluate(&reg).status, SloStatus::Ok);
    }
}
