//! `panacea-telemetry` — measurement substrate for the serving stack.
//!
//! Std-only observability primitives shared by `panacea-serve`,
//! `panacea-block`, and `panacea-gateway`:
//!
//! * [`Histogram`] — a sharded-atomic log-linear latency histogram
//!   (HDR-style buckets, ≤3.1% relative quantile error) whose
//!   [`HistogramSnapshot`]s merge across shards and report
//!   p50/p90/p99/max.
//! * [`Tracer`] / [`TraceBuilder`] — request-scoped span trees recorded
//!   without shared-state writes, finished into bounded rings, with a
//!   slow-request threshold that pins full traces for retrieval.
//! * [`ShardedCounter`] — a cache-line-padded, per-thread-sharded
//!   monotone counter for hot-path statistics that would otherwise
//!   contend on one lock or one cache line.
//! * [`MetricRegistry`] — [`DimCell`]s keyed by (model, verb, stage):
//!   the one store every serving layer records its stage samples into
//!   and every view ([`CellSummary`] rows, Prometheus text) is a loop
//!   over. A cell is a live histogram, three outcome counters and one
//!   ring of boundary captures, so "p99 right now" (up to
//!   [`WINDOW_SPAN`]) is answerable as well as "p99 since boot", both
//!   from one capture per read.
//! * [`SloConfig`] — declarative latency/error/shed budgets evaluated
//!   over windows into a burn-rate [`HealthReport`].
//! * [`TraceContext`] — the portable slice of an in-flight trace that
//!   crosses thread boundaries, carrying the trace's own span buffer, so
//!   queue waits and fused decode passes recorded on worker threads
//!   merge back into the request's span tree.
//! * [`FlightRecorder`] — a bounded ring of structured operational
//!   events with severity and wall-clock anchors, plus a pinned
//!   [`IncidentSnapshot`] frozen when SLO health flips.
//! * [`PrometheusText`] — the text-exposition builder exporters feed
//!   from one sweep over the registry's cells.
//!
//! Everything here is designed to be cheap enough to leave on in
//! production: recording is a handful of `Relaxed` atomic operations
//! (histograms, counters) or request-local `Vec` pushes (spans).

pub mod context;
pub mod events;
pub mod export;
pub mod histogram;
pub mod registry;
pub mod slo;
pub mod trace;
mod window;

use std::sync::atomic::{AtomicU64, Ordering};

pub use context::TraceContext;
pub use events::{unix_ms_now, Event, EventSeverity, FlightRecorder, IncidentSnapshot};
pub use export::{escape_label_value, sanitize_metric_name, PrometheusText};
pub use histogram::{Histogram, HistogramSnapshot, LINEAR_MAX, NUM_BUCKETS, SUB_BUCKETS};
pub use registry::{CellSummary, DimCell, DimWindow, MetricKey, MetricRegistry, STAGE_REQUEST};
pub use slo::{HealthReport, SloConfig, SloStatus, SloTarget, TargetReport};
pub use trace::{Span, Trace, TraceBuilder, TraceConfig, TraceId, Tracer, ROOT_SPAN};
pub use window::WINDOW_SPAN;

/// Shard count for [`ShardedCounter`].
const COUNTER_SHARDS: usize = 8;

/// One counter shard on its own cache line.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedU64(AtomicU64);

/// A monotone `u64` counter sharded across cache lines so concurrent
/// writers don't bounce one line. Each shard is individually monotone,
/// so [`sum`](Self::sum) is monotone across successive calls even while
/// writers race.
#[derive(Debug)]
pub struct ShardedCounter {
    shards: Box<[PaddedU64]>,
}

impl Default for ShardedCounter {
    fn default() -> Self {
        ShardedCounter::new()
    }
}

impl ShardedCounter {
    /// A zeroed counter.
    pub fn new() -> Self {
        ShardedCounter {
            shards: (0..COUNTER_SHARDS).map(|_| PaddedU64::default()).collect(),
        }
    }

    /// Adds `n` on the calling thread's shard.
    pub fn add(&self, n: u64) {
        let slot = histogram::thread_shard_slot() % self.shards.len();
        self.shards[slot].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Sums every shard. Monotone across calls.
    pub fn sum(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sharded_counter_sums_across_threads() {
        let c = Arc::new(ShardedCounter::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.add(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.sum(), 80_000);
    }

    #[test]
    fn sharded_counter_is_monotone_under_concurrent_reads() {
        let c = Arc::new(ShardedCounter::new());
        let writer = {
            let c = c.clone();
            std::thread::spawn(move || {
                for _ in 0..50_000 {
                    c.add(1);
                }
            })
        };
        let mut prev = 0;
        while !writer.is_finished() {
            let now = c.sum();
            assert!(now >= prev, "counter went backwards: {prev} -> {now}");
            prev = now;
        }
        writer.join().unwrap();
        assert_eq!(c.sum(), 50_000);
    }
}
