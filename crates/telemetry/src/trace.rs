//! Request-scoped tracing: per-request span trees recorded without
//! locks, finished into bounded ring buffers.
//!
//! A [`Tracer`] hands out [`TraceBuilder`]s; the builder accumulates
//! [`Span`]s in a request-local `Vec` (no shared state touched while
//! the request runs), and [`Tracer::finish`] pushes the completed
//! [`Trace`] into a bounded ring under one short `Mutex` hold. Traces
//! whose total duration reaches the configured slow threshold are
//! additionally pinned into a separate slow ring so they survive
//! retrieval even under high request rates.
//!
//! Work that happens on *other* threads (batch workers, the decode
//! batcher) records spans through a [`TraceContext`] obtained from
//! [`TraceBuilder::context`] into the trace's own span buffer; `finish`
//! drains and closes the buffer, merging those remote spans into the
//! trace, re-parented under the builder span the context named. See
//! the [`context`](crate::context) module.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::context::{SpanBuffer, TraceContext};
use crate::events::unix_ms_now;

/// Tracer knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Requests at least this slow get pinned into the slow ring.
    pub slow_threshold: Duration,
    /// How many recent traces (slow or not) to retain.
    pub ring_capacity: usize,
    /// How many slow traces to pin.
    pub slow_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            slow_threshold: Duration::from_millis(100),
            ring_capacity: 256,
            slow_capacity: 32,
        }
    }
}

/// A process-unique trace identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u64);

impl TraceId {
    /// The raw id value.
    pub fn get(self) -> u64 {
        self.0
    }
}

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// One timed stage within a trace. Span 0 is always the root covering
/// the whole request; every other span links to its parent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span id, unique within the trace (0 = root).
    pub id: u64,
    /// Parent span id; `None` only for the root.
    pub parent: Option<u64>,
    /// Stage tag, e.g. `"cache_probe"`.
    pub stage: &'static str,
    /// Start offset from the trace's start, in microseconds.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// Ids of *other traces* this span participated in — non-empty
    /// only for shared work like a fused decode pass, where one span
    /// links to every co-batched request's trace.
    pub links: Vec<u64>,
}

/// A finished request trace: the root verb plus its span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Process-unique id.
    pub id: TraceId,
    /// The request verb the root span covers.
    pub verb: &'static str,
    /// Wall-clock anchor: milliseconds since the Unix epoch at the
    /// moment the trace began. Span offsets are relative to this.
    pub unix_ms: u64,
    /// Total request duration in microseconds.
    pub total_us: u64,
    /// Spans in start order; index 0 is the root.
    pub spans: Vec<Span>,
}

/// Accumulates spans for one in-flight request. Purely request-local:
/// recording a span touches no shared state. Spans recorded on other
/// threads land in the trace's own buffer, shared only with the
/// [`TraceContext`]s it hands out.
#[derive(Debug)]
pub struct TraceBuilder {
    id: TraceId,
    verb: &'static str,
    started: Instant,
    unix_ms: u64,
    spans: Vec<Span>,
    remote: SpanBuffer,
}

/// Root span id — parent for top-level stages.
pub const ROOT_SPAN: u64 = 0;

impl TraceBuilder {
    fn new(verb: &'static str) -> Self {
        let id = TraceId(NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed));
        TraceBuilder {
            id,
            verb,
            started: Instant::now(),
            unix_ms: unix_ms_now(),
            spans: vec![Span {
                id: ROOT_SPAN,
                parent: None,
                stage: verb,
                start_us: 0,
                dur_us: 0,
                links: Vec::new(),
            }],
            remote: Arc::new(Mutex::new(Some(Vec::new()))),
        }
    }

    /// This trace's id.
    pub fn id(&self) -> TraceId {
        self.id
    }

    fn elapsed_us(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Opens a span under `parent` (use [`ROOT_SPAN`] for top-level
    /// stages); close it with [`end_span`](Self::end_span).
    pub fn start_span(&mut self, stage: &'static str, parent: u64) -> u64 {
        let id = self.spans.len() as u64;
        let start_us = self.elapsed_us();
        self.spans.push(Span {
            id,
            parent: Some(parent),
            stage,
            start_us,
            dur_us: 0,
            links: Vec::new(),
        });
        id
    }

    /// Closes a span opened with [`start_span`](Self::start_span),
    /// stamping its duration. Returns that duration.
    pub fn end_span(&mut self, id: u64) -> Duration {
        let now = self.elapsed_us();
        let span = &mut self.spans[id as usize];
        span.dur_us = now.saturating_sub(span.start_us);
        Duration::from_micros(span.dur_us)
    }

    /// Opens a [`TraceContext`] so other threads can record spans
    /// parented under `parent_span` (a span id from this builder). The
    /// remote spans are merged into the trace when
    /// [`Tracer::finish`] runs; spans recorded after that are dropped.
    pub fn context(&self, parent_span: u64) -> TraceContext {
        TraceContext::new(
            self.id.get(),
            parent_span,
            self.started,
            Arc::clone(&self.remote),
        )
    }

    /// Times `f` as a span under `parent`.
    pub fn span<T>(&mut self, stage: &'static str, parent: u64, f: impl FnOnce() -> T) -> T {
        let id = self.start_span(stage, parent);
        let out = f();
        self.end_span(id);
        out
    }
}

/// Owns the trace rings and hands out builders.
#[derive(Debug)]
pub struct Tracer {
    config: TraceConfig,
    recent: Mutex<VecDeque<Trace>>,
    slow: Mutex<VecDeque<Trace>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(TraceConfig::default())
    }
}

impl Tracer {
    /// A tracer with the given knobs.
    pub fn new(config: TraceConfig) -> Self {
        Tracer {
            config,
            recent: Mutex::new(VecDeque::with_capacity(config.ring_capacity.min(1024))),
            slow: Mutex::new(VecDeque::with_capacity(config.slow_capacity.min(1024))),
        }
    }

    /// The configured knobs.
    pub fn config(&self) -> TraceConfig {
        self.config
    }

    /// Starts a trace for one request.
    pub fn begin(&self, verb: &'static str) -> TraceBuilder {
        TraceBuilder::new(verb)
    }

    /// Finishes a trace: stamps the root span, drains and closes its
    /// remote-span buffer into the span tree, appends to the recent
    /// ring, and pins it to the slow ring if it met the threshold.
    /// Returns the total duration.
    pub fn finish(&self, mut builder: TraceBuilder) -> Duration {
        let total = builder.started.elapsed();
        let total_us = u64::try_from(total.as_micros()).unwrap_or(u64::MAX);
        builder.spans[ROOT_SPAN as usize].dur_us = total_us;
        let remote = builder.remote.lock().expect("span buffer poisoned").take();
        // Remote spans append after every builder span, so their parent
        // (a builder span index) always precedes them; offsets clamp
        // into the trace window in case a worker's clock reading raced
        // the finish.
        for r in remote.unwrap_or_default() {
            let id = builder.spans.len() as u64;
            builder.spans.push(Span {
                id,
                parent: Some(r.parent.min(id.saturating_sub(1))),
                stage: r.stage,
                start_us: r.start_us.min(total_us),
                dur_us: r.dur_us.min(total_us),
                links: r.links,
            });
        }
        let trace = Trace {
            id: builder.id,
            verb: builder.verb,
            unix_ms: builder.unix_ms,
            total_us,
            spans: builder.spans,
        };
        if total >= self.config.slow_threshold && self.config.slow_capacity > 0 {
            let mut slow = self.slow.lock().expect("slow ring poisoned");
            if slow.len() == self.config.slow_capacity {
                slow.pop_front();
            }
            slow.push_back(trace.clone());
        }
        if self.config.ring_capacity > 0 {
            let mut recent = self.recent.lock().expect("recent ring poisoned");
            if recent.len() == self.config.ring_capacity {
                recent.pop_front();
            }
            recent.push_back(trace);
        }
        total
    }

    /// The most recent traces, newest first, up to `limit`.
    pub fn recent(&self, limit: usize) -> Vec<Trace> {
        let ring = self.recent.lock().expect("recent ring poisoned");
        ring.iter().rev().take(limit).cloned().collect()
    }

    /// The most recent pinned slow traces, newest first, up to `limit`.
    pub fn slow(&self, limit: usize) -> Vec<Trace> {
        let ring = self.slow.lock().expect("slow ring poisoned");
        ring.iter().rev().take(limit).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_form_a_tree_with_monotone_offsets() {
        let tracer = Tracer::new(TraceConfig {
            slow_threshold: Duration::ZERO,
            ..TraceConfig::default()
        });
        let mut tb = tracer.begin("infer");
        let outer = tb.start_span("execute", ROOT_SPAN);
        let inner = tb.start_span("cache_probe", outer);
        tb.end_span(inner);
        tb.end_span(outer);
        tb.span("route", ROOT_SPAN, || std::thread::sleep(Duration::ZERO));
        tracer.finish(tb);

        let traces = tracer.slow(8);
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.verb, "infer");
        assert!(t.unix_ms > 0, "traces carry a wall-clock anchor");
        assert_eq!(t.spans[0].stage, "infer");
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans.len(), 4);
        for span in &t.spans[1..] {
            let parent = span.parent.expect("non-root spans have parents");
            assert!(parent < span.id, "parents precede children");
            assert!(span.start_us >= t.spans[parent as usize].start_us);
            assert!(span.dur_us <= t.total_us);
        }
        assert_eq!(t.spans[2].parent, Some(1));
    }

    #[test]
    fn slow_threshold_partitions_the_rings() {
        let tracer = Tracer::new(TraceConfig {
            slow_threshold: Duration::from_millis(5),
            ring_capacity: 8,
            slow_capacity: 8,
        });
        let fast = tracer.begin("infer");
        tracer.finish(fast);
        let slow = tracer.begin("decode");
        std::thread::sleep(Duration::from_millis(6));
        tracer.finish(slow);

        assert_eq!(tracer.recent(8).len(), 2);
        let pinned = tracer.slow(8);
        assert_eq!(pinned.len(), 1);
        assert_eq!(pinned[0].verb, "decode");
        assert!(pinned[0].total_us >= 5_000);
    }

    #[test]
    fn rings_are_bounded_and_newest_first() {
        let tracer = Tracer::new(TraceConfig {
            slow_threshold: Duration::ZERO,
            ring_capacity: 3,
            slow_capacity: 2,
        });
        let mut ids = Vec::new();
        for _ in 0..5 {
            let tb = tracer.begin("infer");
            ids.push(tb.id());
            tracer.finish(tb);
        }
        let recent = tracer.recent(10);
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].id, ids[4]);
        assert_eq!(recent[2].id, ids[2]);
        let slow = tracer.slow(10);
        assert_eq!(slow.len(), 2);
        assert_eq!(slow[0].id, ids[4]);
        // limit is honored too
        assert_eq!(tracer.recent(1).len(), 1);
    }

    #[test]
    fn trace_ids_are_unique_across_tracers() {
        let a = Tracer::default().begin("infer").id();
        let b = Tracer::default().begin("infer").id();
        assert_ne!(a, b);
    }
}
