//! One shard's counters and where it records everything else.
//!
//! [`ShardCounters`] is the shard's one counter block: one
//! [`ShardedCounter`] per counted event, plus the two session gauges.
//! Its runtime workers, both batching queues, the decode batcher and the
//! session manager all count into it, and its
//! [`snapshot`](ShardCounters::snapshot) is the wire [`ShardStats`] the
//! `stats` verb reports — nothing copies counters from one store into
//! another. Stage latencies are not counted here: they land in the
//! [`MetricRegistry`] a [`Metrics`] carries, the only place a latency
//! sample is stored.
//!
//! Counters are sharded atomics rather than one `Mutex`-guarded struct,
//! so steady-state fused decode passes and wide batch completions never
//! contend on one lock or cache line. Every counter is individually
//! monotone, which keeps snapshots monotone counter by counter under
//! concurrent recording — the invariant pollers rely on to compute rates.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use panacea_telemetry::{EventSeverity, FlightRecorder, MetricRegistry, ShardedCounter};

use crate::queue::QueueDepth;

/// Point-in-time serving counters for one shard, as reported by the
/// `stats` verb.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardStats {
    /// Requests completed by this shard.
    pub requests: u64,
    /// Batches dispatched by this shard.
    pub batches: u64,
    /// Activation columns served by this shard.
    pub columns: u64,
    /// Columns the paper's PE array would pad the batches with to fill
    /// its last activation vector
    /// ([`pe_padded_cols`](panacea_core::pe_padded_cols) per batch). The
    /// host kernel multiplies only the real columns.
    pub padded_cols: u64,
    /// Fraction of the PE array's columns that would be padding
    /// (`padded / (served + padded)`) — 0 when nothing has run.
    pub padding_overhead: f64,
    /// Queued requests dropped before execution because their caller
    /// stopped waiting (e.g. shed by admission control).
    pub cancelled: u64,
    /// Served columns per second of worker compute time.
    pub columns_per_second: f64,
    /// Columns waiting in this shard's queue right now.
    pub queued_cols: u64,
    /// Columns claimed by workers but not yet answered.
    pub in_flight_cols: u64,
    /// Decode sessions currently pinned to this shard.
    pub open_sessions: u64,
    /// KV-cache bytes resident for those sessions.
    pub kv_bytes: u64,
    /// Decode steps this shard has executed.
    pub decode_steps: u64,
    /// Tokens this shard has decoded across all sessions.
    pub decode_tokens: u64,
    /// Fused continuous-batching decode passes this shard has run.
    /// Caller-thread passes are not among them.
    pub decode_batches: u64,
    /// Average decode steps per fused pass: the steps fused passes
    /// executed ÷ `decode_batches` (caller-thread steps and solo retries
    /// are not among them; `> 1` means concurrent sessions shared GEMM
    /// passes). Zero before any fused pass.
    pub decode_batch_occupancy: f64,
    /// Columns the paper's PE array would pad the fused decode passes
    /// with.
    pub decode_padded_cols: u64,
    /// Panics caught and isolated on this shard's execution paths
    /// (batch workers, fused and caller-thread decode passes, solo
    /// retries); each one answered its callers instead of killing a
    /// thread.
    pub worker_panics: u64,
    /// Decode sessions evicted because a panic died inside their own
    /// step — the KV state was rolled back but the session is not
    /// trusted.
    pub evicted_poisoned: u64,
    /// Requests and decode steps answered `deadline_exceeded` at
    /// dequeue instead of executed.
    pub expired: u64,
}

/// One shard's counter block. See the module docs.
#[derive(Debug, Default)]
pub struct ShardCounters {
    pub(crate) requests: ShardedCounter,
    pub(crate) batches: ShardedCounter,
    pub(crate) columns: ShardedCounter,
    pub(crate) padded_cols: ShardedCounter,
    pub(crate) compute_nanos: ShardedCounter,
    /// Counted by both queues' purge.
    pub(crate) cancelled: ShardedCounter,
    /// Counted by both queues' purge.
    pub(crate) expired: ShardedCounter,
    pub(crate) worker_panics: ShardedCounter,
    pub(crate) decode_steps: ShardedCounter,
    pub(crate) decode_tokens: ShardedCounter,
    pub(crate) decode_batches: ShardedCounter,
    pub(crate) decode_batched_steps: ShardedCounter,
    pub(crate) decode_padded_cols: ShardedCounter,
    pub(crate) evicted_poisoned: ShardedCounter,
    pub(crate) kv_budget_exceeded: ShardedCounter,
    /// Gauge: sessions resident. Written only under the session
    /// manager's map lock.
    pub(crate) open_sessions: AtomicUsize,
    /// Gauge: KV bytes resident across sessions, reservations for steps
    /// in flight included. Written only under the session manager's map
    /// lock, which is also where budget checks read it.
    pub(crate) kv_bytes: AtomicUsize,
}

impl ShardCounters {
    /// The wire view of this block, with the runtime queue's `depth`.
    pub fn snapshot(&self, depth: QueueDepth) -> ShardStats {
        let columns = self.columns.sum();
        let padded_cols = self.padded_cols.sum();
        let compute_secs = Duration::from_nanos(self.compute_nanos.sum()).as_secs_f64();
        let decode_batches = self.decode_batches.sum();
        ShardStats {
            requests: self.requests.sum(),
            batches: self.batches.sum(),
            columns,
            padded_cols,
            padding_overhead: ratio(padded_cols as f64, (columns + padded_cols) as f64),
            cancelled: self.cancelled.sum(),
            columns_per_second: ratio(columns as f64, compute_secs),
            queued_cols: depth.queued_cols as u64,
            in_flight_cols: depth.in_flight_cols as u64,
            open_sessions: self.open_sessions.load(Ordering::Relaxed) as u64,
            kv_bytes: self.kv_bytes.load(Ordering::Relaxed) as u64,
            decode_steps: self.decode_steps.sum(),
            decode_tokens: self.decode_tokens.sum(),
            decode_batches,
            decode_batch_occupancy: ratio(
                self.decode_batched_steps.sum() as f64,
                decode_batches as f64,
            ),
            decode_padded_cols: self.decode_padded_cols.sum(),
            worker_panics: self.worker_panics.sum(),
            evicted_poisoned: self.evicted_poisoned.sum(),
            expired: self.expired.sum(),
        }
    }

    /// Decode steps refused because they could not fit the KV byte
    /// budget — the shed a gateway reports as its `kv_budget` reason,
    /// outside [`ShardStats`].
    pub fn kv_budget_exceeded(&self) -> u64 {
        self.kv_budget_exceeded.sum()
    }
}

/// `num / den`, or 0 when nothing has been counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Where one shard records: its [`ShardCounters`], the registry its
/// stage latencies land in, and the flight recorder its events land in.
/// Clones share all three, so a [`Runtime`](crate::Runtime) and a
/// [`SessionManager`](crate::SessionManager) built over clones of one
/// `Metrics` count into one block.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: Arc<ShardCounters>,
    registry: MetricRegistry,
    recorder: FlightRecorder,
}

impl Metrics {
    /// A fresh counter block recording stage latencies into `registry`
    /// and events into `recorder`.
    pub fn new(registry: MetricRegistry, recorder: FlightRecorder) -> Self {
        Metrics {
            counters: Arc::default(),
            registry,
            recorder,
        }
    }

    /// The shard's counter block.
    pub fn counters(&self) -> &Arc<ShardCounters> {
        &self.counters
    }

    pub(crate) fn registry(&self) -> &MetricRegistry {
        &self.registry
    }

    pub(crate) fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Records one completed runtime batch.
    pub(crate) fn record_batch(
        &self,
        requests: usize,
        columns: usize,
        padded: usize,
        compute: Duration,
    ) {
        let c = &self.counters;
        c.requests.add(requests as u64);
        c.batches.add(1);
        c.columns.add(columns as u64);
        c.padded_cols.add(padded as u64);
        c.compute_nanos
            .add(u64::try_from(compute.as_nanos()).unwrap_or(u64::MAX));
        self.recorder.record(
            EventSeverity::Info,
            "batch_formed",
            format!("jobs={requests} cols={columns} padded={padded}"),
        );
    }

    /// Records one caught panic on any execution path: the counter, a
    /// dimensional error under `(model, "worker", at)` (so SLO
    /// error-rate targets see it), and a `worker_panic` event.
    pub(crate) fn record_worker_panic(&self, model: &str, at: &'static str) {
        self.counters.worker_panics.add(1);
        self.registry.cell(model, "worker", at).record_error();
        self.recorder.record(
            EventSeverity::Error,
            "worker_panic",
            format!("at={at} model={model}"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_accumulate() {
        let m = Metrics::default();
        m.record_batch(3, 12, 0, Duration::from_millis(4));
        m.record_batch(1, 4, 2, Duration::from_millis(2));
        m.counters().cancelled.add(2);
        let s = m.counters().snapshot(QueueDepth::default());
        assert_eq!(s.cancelled, 2);
        assert_eq!(s.requests, 4);
        assert_eq!(s.batches, 2);
        assert_eq!(s.columns, 16);
        assert_eq!(s.padded_cols, 2);
        assert!(s.columns_per_second > 0.0);
        assert!((s.padding_overhead - 2.0 / 18.0).abs() < 1e-12);
    }

    #[test]
    fn empty_snapshot_has_safe_ratios() {
        let s = ShardCounters::default().snapshot(QueueDepth::default());
        assert_eq!(s, ShardStats::default());
    }

    #[test]
    fn zero_elapsed_time_with_served_columns_is_finite() {
        // A batch can complete faster than the clock's resolution, and
        // steps can be counted before any fused pass: the ratios must
        // degrade to 0, not to infinity or NaN.
        let c = ShardCounters::default();
        c.columns.add(16);
        c.batches.add(2);
        c.decode_batched_steps.add(3);
        let s = c.snapshot(QueueDepth::default());
        assert_eq!(s.columns_per_second, 0.0);
        assert_eq!(s.decode_batch_occupancy, 0.0);
        assert_eq!(s.padding_overhead, 0.0);
    }
}
