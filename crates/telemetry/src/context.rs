//! Cross-thread trace context propagation.
//!
//! A [`TraceBuilder`](crate::TraceBuilder) is request-local by design —
//! recording a span touches no shared state — which means it cannot
//! leave the thread that owns it. But the serving stack executes most
//! of a request's work on *other* threads: the runtime's batch workers
//! and the decode batcher both pick jobs off a queue and answer over a
//! channel. A [`TraceContext`] is the piece of a trace that crosses
//! that boundary: the trace id, the builder span to parent under, the
//! trace's start instant (so remote offsets land on the same timeline),
//! and a handle to the trace's own span buffer, which the builder
//! created.
//!
//! Workers call [`TraceContext::record_span`] (or
//! [`record_span_linked`](TraceContext::record_span_linked) for spans
//! shared across requests, like a fused decode pass) *before* sending
//! their response — the requesting thread is blocked on that channel,
//! so by the time [`Tracer::finish`](crate::Tracer::finish) runs, every
//! remote span is already in the buffer and gets merged into the
//! finished trace. `finish` closes the buffer, so spans recorded for a
//! trace that already finished (for example a request shed while its
//! job was still queued) are dropped.

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A span recorded off-thread, waiting to be merged into its trace at
/// finish time. Offsets are microseconds from the trace's start.
#[derive(Debug, Clone)]
pub(crate) struct RemoteSpan {
    pub(crate) stage: &'static str,
    pub(crate) parent: u64,
    pub(crate) start_us: u64,
    pub(crate) dur_us: u64,
    pub(crate) links: Vec<u64>,
}

/// One trace's remote spans: `Some` while the trace is in flight,
/// `None` once [`Tracer::finish`](crate::Tracer::finish) drained it.
pub(crate) type SpanBuffer = Arc<Mutex<Option<Vec<RemoteSpan>>>>;

/// The portable slice of an in-flight trace: everything a worker thread
/// needs to record spans that end up parented inside the request's span
/// tree. Cheap to clone; send it along with the queued job.
#[derive(Debug, Clone)]
pub struct TraceContext {
    trace_id: u64,
    parent_span: u64,
    origin: Instant,
    spans: SpanBuffer,
}

impl TraceContext {
    pub(crate) fn new(trace_id: u64, parent_span: u64, origin: Instant, spans: SpanBuffer) -> Self {
        TraceContext {
            trace_id,
            parent_span,
            origin,
            spans,
        }
    }

    /// The id of the trace this context belongs to.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The builder span remote spans will be parented under.
    pub fn parent_span(&self) -> u64 {
        self.parent_span
    }

    fn offset_us(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_micros()).unwrap_or(u64::MAX)
    }

    /// Records one remote span covering `start..end` on the trace's
    /// timeline. Dropped silently if the trace already finished.
    pub fn record_span(&self, stage: &'static str, start: Instant, end: Instant) {
        self.record_span_linked(stage, start, end, Vec::new());
    }

    /// Like [`record_span`](Self::record_span), with span links to
    /// other traces — used when one unit of work (a fused decode pass)
    /// serves several requests at once: each request's span links to
    /// every other participant's trace id.
    pub fn record_span_linked(
        &self,
        stage: &'static str,
        start: Instant,
        end: Instant,
        links: Vec<u64>,
    ) {
        let start_us = self.offset_us(start);
        let end_us = self.offset_us(end);
        let span = RemoteSpan {
            stage,
            parent: self.parent_span,
            start_us,
            dur_us: end_us.saturating_sub(start_us),
            links,
        };
        if let Some(spans) = self.spans.lock().expect("span buffer poisoned").as_mut() {
            spans.push(span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceConfig, Tracer, ROOT_SPAN};
    use std::time::Duration;

    #[test]
    fn remote_spans_merge_into_the_finished_trace() {
        let tracer = Tracer::new(TraceConfig {
            slow_threshold: Duration::ZERO,
            ..TraceConfig::default()
        });
        let mut tb = tracer.begin("decode");
        let execute = tb.start_span("execute", ROOT_SPAN);
        let ctx = tb.context(execute);
        let start = Instant::now();
        let worker = std::thread::spawn(move || {
            let end = Instant::now();
            ctx.record_span("queue_wait", start, end);
            ctx.record_span_linked("decode_pass", end, Instant::now(), vec![41, 43]);
        });
        worker.join().expect("worker");
        tb.end_span(execute);
        tracer.finish(tb);

        let trace = &tracer.slow(1)[0];
        let stages: Vec<&str> = trace.spans.iter().map(|s| s.stage).collect();
        assert_eq!(
            stages,
            vec!["decode", "execute", "queue_wait", "decode_pass"]
        );
        for span in &trace.spans[2..] {
            assert_eq!(span.parent, Some(execute), "remote span lost its parent");
            assert!(span.id > execute);
            assert!(span.start_us <= trace.total_us);
            assert!(span.dur_us <= trace.total_us);
        }
        assert_eq!(trace.spans[3].links, vec![41, 43]);
        assert!(trace.spans[2].links.is_empty());
    }

    #[test]
    fn spans_for_finished_traces_are_dropped_not_leaked() {
        let tracer = Tracer::new(TraceConfig {
            slow_threshold: Duration::ZERO,
            ..TraceConfig::default()
        });
        let mut tb = tracer.begin("infer");
        let execute = tb.start_span("execute", ROOT_SPAN);
        let ctx = tb.context(execute);
        tb.end_span(execute);
        tracer.finish(tb);

        // A straggler span after finish: the buffer is closed.
        let now = Instant::now();
        ctx.record_span("queue_wait", now, now);
        assert!(ctx.spans.lock().unwrap().is_none(), "buffer reopened");
        let trace = &tracer.slow(1)[0];
        assert_eq!(trace.spans.len(), 2, "straggler span resurrected");
    }

    #[test]
    fn context_offsets_clamp_to_the_trace_window() {
        let tracer = Tracer::new(TraceConfig {
            slow_threshold: Duration::ZERO,
            ..TraceConfig::default()
        });
        let before = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        let mut tb = tracer.begin("infer");
        let execute = tb.start_span("execute", ROOT_SPAN);
        let ctx = tb.context(execute);
        // A start before the trace began saturates to offset zero
        // instead of underflowing.
        ctx.record_span("queue_wait", before, Instant::now());
        tb.end_span(execute);
        tracer.finish(tb);
        let trace = &tracer.slow(1)[0];
        let qw = &trace.spans[2];
        assert_eq!(qw.start_us, 0);
        assert!(qw.dur_us <= trace.total_us);
    }
}
