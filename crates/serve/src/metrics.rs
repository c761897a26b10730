//! Aggregated serving metrics: request/batch counts, coalesced columns,
//! summed AQS workload and latency extremes. Stage latencies are not
//! stored here: workers record them into the [`MetricRegistry`] this
//! struct carries — the only place a latency sample is stored.
//!
//! Counters are sharded atomics ([`ShardedCounter`]) rather than one
//! `Mutex`-guarded struct, so steady-state fused decode passes and wide
//! batch completions never contend on one lock or cache line. Every
//! counter is individually monotone, which keeps [`Metrics::snapshot`]
//! monotone field-by-field under concurrent recording — the invariant
//! pollers rely on to compute rates.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use panacea_core::Workload;
use panacea_telemetry::{EventSeverity, FlightRecorder, MetricRegistry, ShardedCounter};

use crate::queue::PurgeCounts;

/// A point-in-time copy of the runtime's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests completed.
    pub requests: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Activation columns processed (the GEMM `N` work actually served).
    pub columns: u64,
    /// Summed AQS workload over every dispatched batch.
    pub workload: Workload,
    /// Total on-worker compute time across batches.
    pub compute_time: Duration,
    /// Worst queue-to-response latency seen so far.
    pub max_latency: Duration,
    /// Widest batch (in columns) dispatched so far.
    pub widest_batch: u64,
    /// Columns the paper's PE array would pad the dispatched batches
    /// with to fill its last activation vector
    /// ([`pe_padded_cols`](panacea_core::pe_padded_cols) per batch). The
    /// host kernel multiplies only the real columns.
    pub padded_cols: u64,
    /// Queued requests dropped before execution because their caller
    /// stopped waiting (its `Pending` handle was dropped, e.g. by an
    /// admission layer shedding the request).
    pub cancelled: u64,
    /// Panics caught (and isolated) on worker execution paths; each one
    /// answered its callers with `ServeError::Internal` instead of
    /// killing the worker.
    pub worker_panics: u64,
    /// Queued requests dropped at dequeue because their deadline had
    /// already expired — answered `DeadlineExceeded` before the GEMM.
    pub expired: u64,
}

impl MetricsSnapshot {
    /// Mean columns per batch — the effective batching factor.
    pub fn mean_batch_cols(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.columns as f64 / self.batches as f64
        }
    }

    /// Served columns per second of worker compute time.
    pub fn columns_per_second(&self) -> f64 {
        let secs = self.compute_time.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.columns as f64 / secs
        }
    }

    /// Fraction of the PE array's columns that would be padding
    /// (`padded / (served + padded)`) — 0 when nothing has run.
    pub fn padding_overhead(&self) -> f64 {
        let executed = self.columns + self.padded_cols;
        if executed == 0 {
            0.0
        } else {
            self.padded_cols as f64 / executed as f64
        }
    }
}

/// Shared serving counters, updated on the worker hot path without
/// locks, plus the registry and flight recorder this runtime records
/// stage latencies and events into.
#[derive(Debug, Default)]
pub struct Metrics {
    requests: ShardedCounter,
    batches: ShardedCounter,
    columns: ShardedCounter,
    padded_cols: ShardedCounter,
    worker_panics: ShardedCounter,
    /// Cancelled / expired requests, counted by the runtime's queue.
    purged: Arc<PurgeCounts>,
    compute_nanos: ShardedCounter,
    wl_mul: ShardedCounter,
    wl_add: ShardedCounter,
    wl_ema_slices: ShardedCounter,
    wl_comp_mul: ShardedCounter,
    wl_comp_add: ShardedCounter,
    max_latency_nanos: AtomicU64,
    widest_batch: AtomicU64,
    registry: MetricRegistry,
    recorder: FlightRecorder,
}

impl Metrics {
    /// Metrics recording stage latencies into `registry` and events
    /// into `recorder`.
    pub(crate) fn new(registry: MetricRegistry, recorder: FlightRecorder) -> Self {
        Metrics {
            registry,
            recorder,
            ..Metrics::default()
        }
    }

    /// The registry this runtime's stage latencies land in.
    pub(crate) fn registry(&self) -> &MetricRegistry {
        &self.registry
    }

    /// Records one completed batch.
    pub(crate) fn record_batch(
        &self,
        requests: usize,
        columns: usize,
        padded: usize,
        workload: &Workload,
        compute: Duration,
        max_latency: Duration,
    ) {
        self.requests.add(requests as u64);
        self.batches.add(1);
        self.columns.add(columns as u64);
        self.padded_cols.add(padded as u64);
        self.wl_mul.add(workload.mul);
        self.wl_add.add(workload.add);
        self.wl_ema_slices.add(workload.ema_slices);
        self.wl_comp_mul.add(workload.comp_mul);
        self.wl_comp_add.add(workload.comp_add);
        self.compute_nanos.add(duration_nanos(compute));
        self.max_latency_nanos
            .fetch_max(duration_nanos(max_latency), Ordering::Relaxed);
        self.widest_batch
            .fetch_max(columns as u64, Ordering::Relaxed);
        self.recorder.record(
            EventSeverity::Info,
            "batch_formed",
            format!("jobs={requests} cols={columns} padded={padded}"),
        );
    }

    /// The counters the runtime's queue records purged requests into.
    pub(crate) fn purged(&self) -> &Arc<PurgeCounts> {
        &self.purged
    }

    /// Records one caught worker panic: a `worker_panic` event in the
    /// flight recorder plus a dimensional error count under
    /// `(model, "worker", at)`, so SLO error-rate targets see it.
    pub(crate) fn record_worker_panic(&self, model: &str, at: &'static str) {
        self.worker_panics.add(1);
        self.registry.cell(model, "worker", at).record_error();
        self.recorder.record(
            EventSeverity::Error,
            "worker_panic",
            format!("at={at} model={model}"),
        );
    }

    /// Copies out the current counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            requests: self.requests.sum(),
            batches: self.batches.sum(),
            columns: self.columns.sum(),
            workload: Workload {
                mul: self.wl_mul.sum(),
                add: self.wl_add.sum(),
                ema_slices: self.wl_ema_slices.sum(),
                comp_mul: self.wl_comp_mul.sum(),
                comp_add: self.wl_comp_add.sum(),
            },
            compute_time: Duration::from_nanos(self.compute_nanos.sum()),
            max_latency: Duration::from_nanos(self.max_latency_nanos.load(Ordering::Relaxed)),
            widest_batch: self.widest_batch.load(Ordering::Relaxed),
            padded_cols: self.padded_cols.sum(),
            cancelled: self.purged.cancelled.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.sum(),
            expired: self.purged.expired.load(Ordering::Relaxed),
        }
    }
}

/// Duration → nanoseconds, saturating at `u64::MAX` (~584 years).
fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_accumulate() {
        let m = Metrics::default();
        let wl = Workload {
            mul: 10,
            add: 20,
            ema_slices: 5,
            comp_mul: 1,
            comp_add: 2,
        };
        m.record_batch(
            3,
            12,
            0,
            &wl,
            Duration::from_millis(4),
            Duration::from_millis(9),
        );
        m.record_batch(
            1,
            4,
            2,
            &wl,
            Duration::from_millis(2),
            Duration::from_millis(3),
        );
        m.purged().cancelled.fetch_add(2, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(s.cancelled, 2);
        assert_eq!(s.requests, 4);
        assert_eq!(s.batches, 2);
        assert_eq!(s.columns, 16);
        assert_eq!(s.padded_cols, 2);
        assert_eq!(s.workload.mul, 20);
        assert_eq!(s.max_latency, Duration::from_millis(9));
        assert_eq!(s.widest_batch, 12);
        assert!((s.mean_batch_cols() - 8.0).abs() < 1e-12);
        assert!(s.columns_per_second() > 0.0);
        assert!((s.padding_overhead() - 2.0 / 18.0).abs() < 1e-12);
    }

    #[test]
    fn empty_snapshot_has_safe_ratios() {
        let s = Metrics::default().snapshot();
        assert_eq!(s.mean_batch_cols(), 0.0);
        assert_eq!(s.columns_per_second(), 0.0);
        assert_eq!(s.padding_overhead(), 0.0);
    }
}
