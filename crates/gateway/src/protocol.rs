//! The gateway wire protocol: line-delimited JSON over TCP.
//!
//! Every message is one JSON object on one line. Requests carry a
//! `verb`:
//!
//! * `"infer"` — one **typed** stateless inference. The payload object
//!   carries its own domain tag (`{"kind": "codes" | "hidden", ...}`),
//!   mirroring [`panacea_serve::Payload`] exactly; alternatively an
//!   `input` float matrix asks the server to convert into the model's
//!   native payload (quantize for chains, pass through for blocks).
//! * `"session_open"` / `"decode"` / `"session_close"` — the stateful
//!   decode-session surface: open pins a session (and its KV cache) to
//!   a shard, decode advances it by one or more token columns, close
//!   frees it.
//! * `"stats"` — gateway counters, including per-shard session counts
//!   and resident KV bytes, plus `uptime_ms` and a monotonic snapshot
//!   `seq`.
//! * `"metrics"` — one `cells` array: a quantile summary
//!   ([`CellSummary`]: cumulative count/sum/p50/p90/p99/max, the same
//!   over the last `window_ms`, and windowed ok/error/shed outcomes)
//!   for every `(model, verb, stage)` cell of the metric registry.
//! * `"trace"` — recorded request traces as structured span lists
//!   (id/parent/stage/start_us/dur_us). An optional `kind` field picks
//!   the ring: `"slow"` (default — pinned slow-request traces) or
//!   `"recent"` (the most recent traces regardless of duration).
//! * `"health"` — the gateway's SLO verdict: per-target burn rates over
//!   sliding windows plus an overall `ok`/`degraded`/`critical` status.
//! * `"events"` — the flight recorder: recent structured operational
//!   events (seq/unix_ms/severity/kind/detail, newest first) plus the
//!   pinned incident snapshot (events + slow traces + cells frozen when
//!   SLO health last flipped to degraded/critical), or `null` if health
//!   never flipped.
//!
//! Matrices travel as `{"rows": R, "cols": C, "data": [row-major…]}`.
//! What the text guarantees:
//!
//! * **Codes are integers**, written as digits and read back from them;
//!   a cell spelled in float form (`5.0`, `1e2`) is accepted when it is
//!   integral, `1.5` is not.
//! * **`f32` cells are bit-exact**, written in the shortest decimal
//!   that parses back to the same `f32` (`-0.0`, subnormals) — half the
//!   bytes of the `f64` expansion. The writer is a Ryū at `f32` width
//!   whose bytes are exactly `format!("{v:?}")`'s, so the wire is the
//!   one `{:?}` wrote. A decoder must therefore **narrow from the text
//!   to `f32` directly**: the short form names the `f32` only to within
//!   half an `f32` ulp, so rounding to `f64` first and `f32` second can
//!   land on a tie and pick the neighbour. This one passes through `f64`
//!   only on Clinger's exact path (a `-?d+.d+` cell of at most 14
//!   digits, `m < 2^53` over an exact `10^f`: one correctly rounded
//!   divide), and hands an `f64` that lands on an `f32` midpoint, like
//!   every other token, to `str::parse::<f32>` behind the number token's
//!   first-byte rule (a digit or `-`) — so it takes, refuses and reads
//!   exactly what that does. JSON has no NaN/infinity:
//!   [`GatewayClient`](crate::GatewayClient) refuses them before
//!   sending, the decoder refuses a literal that overflows `f32`.
//! * **`u64` fields are exact** up to `u64::MAX`: `session`,
//!   `deadline_ms`, `seq`, `unix_ms`, the counters never pass through a
//!   float.
//! * **Key order is free, unknown keys are skipped, and no object may
//!   repeat a key** — a duplicate is an error, never a silent winner.
//! * **Hostile lines fail cleanly**: nesting beyond 128, `rows * cols`
//!   that overflows or disagrees with the cells present (checked before
//!   anything is reserved for them), out-of-range cells, trailing
//!   characters are [`GatewayError::Protocol`] — never a panic, never
//!   an allocation the line's own length does not bound.
//!
//! Each wire struct is described once (`record!`) and written and read
//! from that description by the typed writer and pull reader in `wire`.

use std::fmt::Write as _;
use std::time::Duration;

use panacea_netcore::ConnectionStats;
use panacea_serve::Payload;
/// One shard's counter block as the `stats` verb reports it; defined by
/// the serving crate whose shards count into it.
pub use panacea_serve::ShardStats;
use panacea_telemetry::{
    CellSummary, Event, EventSeverity, HealthReport, IncidentSnapshot, SloStatus, TargetReport,
};
use panacea_tensor::Matrix;

use crate::admission::AdmissionStats;
use crate::cache::CacheStats;
use crate::wire::{self, bad, field, record, Reader, Record, Res, Wire};
use crate::GatewayError;

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run one stateless inference on a typed payload: codes for a
    /// linear chain, hidden states for a transformer-block model (the
    /// columns form one attention sequence). A payload of the wrong
    /// kind for the model is rejected by validation — there are no
    /// per-kind verbs.
    Infer {
        /// Registered model name.
        model: String,
        /// The typed activation payload.
        payload: Payload,
        /// Optional deadline budget in milliseconds, measured from the
        /// moment the gateway decodes the request. Work that cannot
        /// start (admission, queueing) before the budget elapses is
        /// answered `deadline_exceeded` instead of served late; absent
        /// means wait indefinitely (bounded only by server policy).
        deadline_ms: Option<u64>,
    },
    /// Convenience form of `infer`: float activations the server
    /// converts into the model's native payload (quantizes for chains,
    /// passes through for block models).
    InferF32 {
        /// Registered model name.
        model: String,
        /// Float activations (`K × N`).
        input: Matrix<f32>,
        /// Optional deadline budget in milliseconds (see
        /// [`Request::Infer::deadline_ms`]).
        deadline_ms: Option<u64>,
    },
    /// Open a decode session on a transformer-block model. The session
    /// starts empty; its prefix arrives through `Decode` steps.
    SessionOpen {
        /// Registered model name.
        model: String,
    },
    /// Advance a decode session by one or more new token columns.
    Decode {
        /// Session id from `SessionOpen`.
        session: u64,
        /// New hidden-state columns (`d_model × t_new`).
        hidden: Matrix<f32>,
        /// Optional deadline budget in milliseconds (see
        /// [`Request::Infer::deadline_ms`]). An expired step leaves the
        /// session itself untouched — only that step is refused.
        deadline_ms: Option<u64>,
    },
    /// Close a decode session, freeing its KV state.
    SessionClose {
        /// Session id from `SessionOpen`.
        session: u64,
    },
    /// Fetch gateway-level metrics.
    Stats,
    /// Fetch every metric-registry cell's quantile summary.
    Metrics,
    /// Fetch recorded request traces as span trees.
    Trace {
        /// Maximum number of traces to return (newest first).
        limit: usize,
        /// Which trace ring to read; defaults to [`TraceKind::Slow`]
        /// when the wire field is absent.
        kind: TraceKind,
    },
    /// Fetch the gateway's SLO health verdict.
    Health,
    /// Fetch recent flight-recorder events plus the pinned incident
    /// snapshot (if SLO health ever flipped to degraded/critical).
    Events {
        /// Maximum number of events to return (newest first).
        limit: usize,
    },
}

/// Which trace ring a `trace` request reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TraceKind {
    /// Pinned slow-request traces (over the configured threshold).
    #[default]
    Slow,
    /// The most recent traces regardless of duration.
    Recent,
}

impl TraceKind {
    /// Wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::Slow => "slow",
            TraceKind::Recent => "recent",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "slow" => Some(TraceKind::Slow),
            "recent" => Some(TraceKind::Recent),
            _ => None,
        }
    }
}

/// A successful `infer` response.
#[derive(Debug, Clone, PartialEq)]
pub struct InferReply {
    /// The typed result, bit-identical to running the request directly
    /// on a [`panacea_serve::Runtime`]: final integer accumulators
    /// ([`Payload::Codes`]) for chains, output hidden states
    /// ([`Payload::Hidden`]) for block models.
    pub payload: Payload,
    /// Scale converting code accumulators to floats; `1.0` for hidden
    /// results.
    pub scale: f64,
    /// Gateway-measured request latency (decode to response, excluding
    /// network time).
    pub latency: Duration,
    /// The shard that served (or would have served) the request.
    pub shard: usize,
    /// Whether the response was replayed from the request cache.
    pub cache_hit: bool,
}

impl InferReply {
    /// The float view of the result: dequantized accumulators for
    /// chains, the hidden states themselves for block models.
    pub fn to_f32(&self) -> Matrix<f32> {
        match &self.payload {
            Payload::Codes(acc) => acc.map(|&v| (f64::from(v) * self.scale) as f32),
            Payload::Hidden(h) => h.clone(),
        }
    }
}

/// A successful `session_open` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionOpenReply {
    /// The process-unique session id to decode against.
    pub session: u64,
    /// The shard holding the session's KV state — every decode step
    /// for this session executes there (session affinity).
    pub shard: usize,
}

/// A successful `decode` response.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeReply {
    /// Output hidden states for the new tokens (`d_model × t_new`),
    /// bit-identical to a full causal recompute of the session's whole
    /// prefix.
    pub hidden: Matrix<f32>,
    /// Total tokens resident in the session after this step.
    pub tokens: usize,
    /// The shard holding the session.
    pub shard: usize,
    /// Gateway-measured step latency.
    pub latency: Duration,
}

/// A successful `session_close` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionCloseReply {
    /// The closed session's id.
    pub session: u64,
    /// Tokens the session had decoded when it closed.
    pub tokens: usize,
}

/// Machine-readable category of an error response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Admission control shed the request (or the KV byte budget is
    /// exhausted); retry after backing off.
    Overloaded,
    /// The model name is not registered on this gateway.
    UnknownModel,
    /// The addressed decode session does not exist — never opened,
    /// closed, or evicted (idle timeout / byte budget). Open a fresh
    /// session and replay the prefix.
    UnknownSession,
    /// The request itself is invalid (payload kind, shape, code range,
    /// empty payload).
    BadRequest,
    /// The request's deadline elapsed before it could be served; the
    /// work was dropped, not executed late. Retrying is safe for
    /// stateless verbs.
    DeadlineExceeded,
    /// The gateway is shutting down.
    ShuttingDown,
    /// Unexpected server-side failure.
    Internal,
}

impl ErrorKind {
    fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::UnknownModel => "unknown_model",
            ErrorKind::UnknownSession => "unknown_session",
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Internal => "internal",
        }
    }

    fn from_str(s: &str) -> Self {
        match s {
            "overloaded" => ErrorKind::Overloaded,
            "unknown_model" => ErrorKind::UnknownModel,
            "unknown_session" => ErrorKind::UnknownSession,
            "bad_request" => ErrorKind::BadRequest,
            "deadline_exceeded" => ErrorKind::DeadlineExceeded,
            "shutting_down" => ErrorKind::ShuttingDown,
            _ => ErrorKind::Internal,
        }
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Overload sheds broken down by which bound rejected the request, as
/// reported by the `stats` verb. Each reason is counted once, by the
/// layer that decides it: `in_flight` and `queue_wait` are the admission
/// controller's rejections, `kv_budget` the session managers' refused
/// steps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShedStats {
    /// Sheds because the in-flight limit was reached
    /// ([`AdmissionStats::rejected_capacity`]).
    pub in_flight: u64,
    /// Sheds because the queue-wait bound elapsed
    /// ([`AdmissionStats::rejected_timeout`]).
    pub queue_wait: u64,
    /// Sheds because a decode step could not fit the KV byte budget.
    pub kv_budget: u64,
}

impl ShedStats {
    /// Total sheds across every reason.
    pub fn total(&self) -> u64 {
        self.in_flight + self.queue_wait + self.kv_budget
    }
}

/// Gateway-level metrics bundle returned by the `stats` verb.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GatewayStats {
    /// Per-shard serving counters, indexed by shard id.
    pub shards: Vec<ShardStats>,
    /// Request-cache counters.
    pub cache: CacheStats,
    /// Admission-control counters.
    pub admission: AdmissionStats,
    /// Overload sheds by reason, each counted by the layer deciding it.
    pub sheds: ShedStats,
    /// Transport-level connection gauges (open, peak, evicted).
    pub connections: ConnectionStats,
    /// Milliseconds since the gateway started.
    pub uptime_ms: u64,
    /// Monotonic snapshot sequence number: strictly increases with
    /// every `stats` or `metrics` snapshot the gateway assembles, so
    /// scrapers can order and dedupe snapshots.
    pub seq: u64,
}

/// Every registry cell's quantile summary, returned by the `metrics`
/// verb.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GatewayMetrics {
    /// Milliseconds since the gateway started.
    pub uptime_ms: u64,
    /// Monotonic snapshot sequence number (shared counter with the
    /// `stats` verb).
    pub seq: u64,
    /// Wall-clock anchor of the sweep, milliseconds since the Unix
    /// epoch — what makes a reply line a self-contained JSONL record.
    pub unix_ms: u64,
    /// The sliding window the `win_*` and outcome fields cover, in ms.
    pub window_ms: u64,
    /// One summary per (model, verb, stage) cell, sorted by key.
    pub cells: Vec<CellSummary>,
}

/// One span of a recorded trace, as reported by the `trace` verb.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanSummary {
    /// Span id, unique within the trace; the root span is id 0.
    pub id: u64,
    /// Parent span id; `None` only for the root span.
    pub parent: Option<u64>,
    /// Stage tag (the request verb for the root span).
    pub stage: String,
    /// Microseconds from trace start to span start.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// Trace ids of other requests that shared the work this span
    /// covers (e.g. the batchmates of a fused decode pass). Empty for
    /// exclusive spans.
    pub links: Vec<u64>,
}

/// One recorded request trace, as reported by the `trace` verb.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Process-unique trace id.
    pub id: u64,
    /// The request verb the trace covers.
    pub verb: String,
    /// Total request duration in microseconds.
    pub total_us: u64,
    /// Wall-clock anchor: milliseconds since the Unix epoch at trace
    /// begin, so traces correlate with logs and flight-recorder events.
    pub unix_ms: u64,
    /// The spans, in creation order; span 0 is the root.
    pub spans: Vec<SpanSummary>,
}

impl From<&panacea_telemetry::Trace> for TraceSummary {
    fn from(t: &panacea_telemetry::Trace) -> Self {
        TraceSummary {
            id: t.id.get(),
            verb: t.verb.to_string(),
            total_us: t.total_us,
            unix_ms: t.unix_ms,
            spans: t
                .spans
                .iter()
                .map(|s| SpanSummary {
                    id: s.id,
                    parent: s.parent,
                    stage: s.stage.to_string(),
                    start_us: s.start_us,
                    dur_us: s.dur_us,
                    links: s.links.clone(),
                })
                .collect(),
        }
    }
}

/// Slow-request traces returned by the `trace` verb, newest first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceReply {
    /// The pinned slow traces.
    pub traces: Vec<TraceSummary>,
}

/// One flight-recorder event, as reported by the `events` verb.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventSummary {
    /// Monotone sequence number; total order across the process.
    pub seq: u64,
    /// Wall-clock anchor, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Severity: `"info"`, `"warn"`, or `"error"`.
    pub severity: String,
    /// Event taxonomy tag, e.g. `"session_open"`, `"shed"`,
    /// `"health_transition"`.
    pub kind: String,
    /// Free-form details: the model, the reason, the counts.
    pub detail: String,
}

impl From<&Event> for EventSummary {
    fn from(e: &Event) -> Self {
        EventSummary {
            seq: e.seq,
            unix_ms: e.unix_ms,
            severity: e.severity.as_str().to_string(),
            kind: e.kind.to_string(),
            detail: e.detail.clone(),
        }
    }
}

/// The diagnostic snapshot pinned when SLO health flipped to
/// degraded/critical, as reported by the `events` verb.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentSummary {
    /// When the flip was observed, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// The status health flipped *to*.
    pub status: SloStatus,
    /// Recent flight-recorder events at the flip, newest first.
    pub events: Vec<EventSummary>,
    /// Pinned slow traces at the flip, newest first.
    pub traces: Vec<TraceSummary>,
    /// Every registry cell's summary frozen at the flip, sorted by key.
    pub cells: Vec<CellSummary>,
}

impl From<&IncidentSnapshot> for IncidentSummary {
    fn from(s: &IncidentSnapshot) -> Self {
        IncidentSummary {
            unix_ms: s.unix_ms,
            status: s.status,
            events: s.events.iter().map(EventSummary::from).collect(),
            traces: s.traces.iter().map(TraceSummary::from).collect(),
            cells: s.cells.clone(),
        }
    }
}

/// Flight-recorder state returned by the `events` verb.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventsReply {
    /// Recent events, newest first, up to the request's limit.
    pub events: Vec<EventSummary>,
    /// The pinned incident snapshot; `None` if health never flipped.
    pub pinned: Option<IncidentSummary>,
}

/// A decoded server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Successful typed inference.
    Infer(InferReply),
    /// Decode session opened.
    SessionOpen(SessionOpenReply),
    /// Decode step served.
    Decode(DecodeReply),
    /// Decode session closed.
    SessionClose(SessionCloseReply),
    /// Metrics snapshot.
    Stats(GatewayStats),
    /// Per-stage latency quantile summaries.
    Metrics(GatewayMetrics),
    /// Recorded request trace span trees.
    Trace(TraceReply),
    /// SLO health verdict.
    Health(HealthReport),
    /// Flight-recorder events plus the pinned incident snapshot.
    Events(EventsReply),
    /// The request failed; `kind` says how, `message` says why.
    Error {
        /// Machine-readable category.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
}

/// Enums that travel as their wire spelling.
macro_rules! spelled {
    ($($ty:ty: $parse:expr, $what:literal;)*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut String) {
                wire::put_str(self.as_str(), out);
            }
            fn get(r: &mut Reader<'_>) -> Res<Self> {
                let s = String::get(r)?;
                $parse(&s).ok_or_else(|| format!(concat!("unknown ", $what, " {:?}"), s))
            }
        }
    )*};
}

spelled! {
    TraceKind: TraceKind::parse, "trace kind";
    SloStatus: SloStatus::parse, "SLO status";
    // A category this build does not know is still an error: `internal`.
    ErrorKind: |s: &str| Some(ErrorKind::from_str(s)), "error kind";
}

/// Latencies travel as whole microseconds (`latency_us`).
impl Wire for Duration {
    fn put(&self, out: &mut String) {
        (self.as_micros() as u64).put(out);
    }
    fn get(r: &mut Reader<'_>) -> Res<Self> {
        u64::get(r).map(Duration::from_micros)
    }
}

/// Reads the cells of a matrix under its header. The header is
/// untrusted: `rows * cols` must not overflow, and is held against the
/// bytes left in the line before anything is reserved — a cell and its
/// separator take at least two — so neither `rows = cols = 2^32` nor a
/// 1 × 1 header over a megabyte of cells allocates for cells the
/// matrix will not hold.
fn read_cells<T: Wire>(r: &mut Reader<'_>, rows: usize, cols: usize) -> Res<Vec<T>> {
    const MISMATCH: &str = "matrix data length does not match rows*cols";
    let len = rows.checked_mul(cols).ok_or("matrix dimensions overflow")?;
    if len > r.remaining() / 2 {
        return bad(MISMATCH);
    }
    let mut cells = Vec::with_capacity(len);
    r.array(|r| match cells.len() < len {
        true => T::get(r).map(|cell| cells.push(cell)),
        false => bad(MISMATCH),
    })?;
    if cells.len() != len {
        return bad(MISMATCH);
    }
    Ok(cells)
}

impl<T: Wire> Record for Matrix<T> {
    fn put_fields(&self, out: &mut String) {
        field(out, "rows", &self.rows());
        field(out, "cols", &self.cols());
        T::put_seq(self.as_slice(), wire::key(out, "data"));
    }

    /// The header is read ahead, wherever it stands — free when it
    /// leads, as this crate writes it — so that cells are stored once,
    /// into a `Vec` a checked header has sized.
    fn get_fields(r: &mut Reader<'_>) -> Res<Self> {
        let (rows, cols): (usize, usize) = (r.tag("rows")?, r.tag("cols")?);
        let mut data = None;
        r.object(|r, key| match key {
            "data" => wire::set_to(&mut data, key, read_cells(r, rows, cols)),
            _ => r.skip(),
        })?;
        let cells = wire::need(data, "data")?;
        Ok(Matrix::from_vec(rows, cols, cells).expect("length checked against rows*cols"))
    }
}

impl Wire for Payload {
    fn put(&self, out: &mut String) {
        out.push('{');
        // `PayloadKind` displays as the tag's spelling.
        write!(wire::key(out, "kind"), "\"{}\"", self.kind()).expect("writing to a String");
        match self {
            Payload::Codes(m) => m.put_fields(out),
            Payload::Hidden(m) => m.put_fields(out),
        }
        out.push('}');
    }

    fn get(r: &mut Reader<'_>) -> Res<Self> {
        match r.tag::<String>("kind")?.as_str() {
            "codes" => Matrix::get(r).map(Payload::Codes),
            "hidden" => Matrix::get(r).map(Payload::Hidden),
            other => Err(format!("unknown payload kind {other:?}")),
        }
    }
}

record! {
    InferReply { payload, scale, "latency_us": latency, shard, cache_hit }
    SessionOpenReply { session, shard }
    DecodeReply { hidden, tokens, shard, "latency_us": latency }
    SessionCloseReply { session, tokens }
    ShardStats {
        requests, batches, columns, padded_cols, padding_overhead, cancelled,
        columns_per_second, queued_cols, in_flight_cols, open_sessions, kv_bytes,
        decode_steps, decode_tokens, decode_batches, decode_batch_occupancy,
        decode_padded_cols, worker_panics, evicted_poisoned, expired,
    }
    CacheStats { hits, misses, evictions, entries }
    AdmissionStats { admitted, rejected_capacity, rejected_timeout, in_flight }
    ShedStats { in_flight, queue_wait, kv_budget }
    ConnectionStats { open, peak, evicted, workers_alive, worker_panics }
    GatewayStats { uptime_ms, seq, shards, cache, admission, sheds, connections }
    CellSummary {
        model, verb, stage, count, sum, p50, p90, p99, max,
        win_count, win_p50, win_p90, win_p99, win_max, ok, error, shed,
    }
    GatewayMetrics { uptime_ms, seq, unix_ms, window_ms, cells }
    TargetReport { name, status, burn_rate, samples, p99_us, error_rate, shed_rate }
    HealthReport { status, targets }
    SpanSummary { id, parent, stage, start_us, dur_us, links }
    TraceSummary { id, verb, total_us, unix_ms, spans }
    TraceReply { traces }
    IncidentSummary { unix_ms, status, events, traces, cells }
    EventsReply { events, pinned }
    EventSummary { seq, unix_ms, severity, kind, detail } => known_severity
}

/// `severity` is a `String` that must spell an [`EventSeverity`].
fn known_severity(event: &EventSummary) -> Res<()> {
    match EventSeverity::parse(&event.severity) {
        Some(_) => Ok(()),
        None => Err(format!("unknown event severity {:?}", event.severity)),
    }
}

impl Request {
    /// The wire `verb` spelling.
    pub(crate) fn verb(&self) -> &'static str {
        match self {
            Request::Infer { .. } | Request::InferF32 { .. } => "infer",
            Request::SessionOpen { .. } => "session_open",
            Request::Decode { .. } => "decode",
            Request::SessionClose { .. } => "session_close",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Trace { .. } => "trace",
            Request::Health => "health",
            Request::Events { .. } => "events",
        }
    }
}

/// Appends a request's single-line wire form (no newline) to `line`:
/// the verb, then each field of the flat shape [`read_request`] reads,
/// for the verbs that carry it.
pub(crate) fn write_request(req: &Request, line: &mut String) {
    use Request::*;
    line.push('{');
    wire::put_str(req.verb(), wire::key(line, "verb"));
    if let Infer { model, .. } | InferF32 { model, .. } | SessionOpen { model } = req {
        field(line, "model", model);
    }
    if let Decode { session, .. } | SessionClose { session } = req {
        field(line, "session", session);
    }
    if let Trace { limit, .. } | Events { limit } = req {
        field(line, "limit", limit);
    }
    match req {
        Infer { payload, .. } => field(line, "payload", payload),
        InferF32 { input, .. } => field(line, "input", input),
        Decode { hidden, .. } => field(line, "hidden", hidden),
        Trace { kind, .. } => field(line, "kind", kind),
        _ => {}
    }
    // An absent deadline stays off the wire, so pre-deadline peers
    // parse unchanged.
    let deadline_ms = match req {
        Infer { deadline_ms, .. } | InferF32 { deadline_ms, .. } | Decode { deadline_ms, .. } => {
            *deadline_ms
        }
        _ => None,
    };
    if let Some(ms) = deadline_ms {
        field(line, "deadline_ms", &ms);
    }
    line.push('}');
}

fn read_request(r: &mut Reader<'_>) -> Res<Request> {
    // Every key has one type whatever the verb, so one walk reads them
    // all and the verb picks afterwards.
    wire::read_fields!(r; verb, model, payload, input, session, hidden, deadline_ms, limit, kind);
    let verb: String = wire::need(verb, "verb")?;
    // `null` means no deadline, same as absence.
    let deadline_ms: Option<u64> = deadline_ms.flatten();
    Ok(match verb.as_str() {
        "infer" => {
            let model = wire::need(model, "model")?;
            match (payload, input) {
                (Some(payload), None) => Request::Infer {
                    model,
                    payload,
                    deadline_ms,
                },
                (None, Some(input)) => Request::InferF32 {
                    model,
                    input,
                    deadline_ms,
                },
                (Some(_), Some(_)) => return bad("request carries both payload and input"),
                (None, None) => return bad("request carries neither payload nor input"),
            }
        }
        "session_open" => Request::SessionOpen {
            model: wire::need(model, "model")?,
        },
        "decode" => Request::Decode {
            session: wire::need(session, "session")?,
            hidden: wire::need(hidden, "hidden")?,
            deadline_ms,
        },
        "session_close" => Request::SessionClose {
            session: wire::need(session, "session")?,
        },
        "stats" => Request::Stats,
        "metrics" => Request::Metrics,
        "trace" => Request::Trace {
            limit: wire::need(limit, "limit")?,
            // Absent means slow — the ring the verb originally served.
            kind: kind.unwrap_or_default(),
        },
        "health" => Request::Health,
        "events" => Request::Events {
            limit: wire::need(limit, "limit")?,
        },
        other => return Err(format!("unknown verb {other:?}")),
    })
}

/// A successful reply's payload type, as the client expects it back.
pub(crate) trait Reply: Sized {
    /// This type's variant of `resp`; `None` if it is another.
    fn pick(resp: Response) -> Option<Self>;
}

/// The successful responses, `kind` ↔ variant ↔ payload type; each
/// reply's fields are flattened beside `ok` and `kind`.
macro_rules! replies {
    ($($kind:literal => $variant:ident($reply:ty),)*) => {
        impl Response {
            /// The wire `kind` spelling, `"error"` for an error reply.
            pub(crate) fn kind(&self) -> &'static str {
                match self {
                    $(Response::$variant(_) => $kind,)*
                    Response::Error { .. } => "error",
                }
            }
        }

        $(impl Reply for $reply {
            fn pick(resp: Response) -> Option<Self> {
                match resp {
                    Response::$variant(reply) => Some(reply),
                    _ => None,
                }
            }
        })*

        fn write_response(resp: &Response, line: &mut String) {
            line.push('{');
            field(line, "ok", &!matches!(resp, Response::Error { .. }));
            match resp {
                $(Response::$variant(reply) => {
                    wire::put_str($kind, wire::key(line, "kind"));
                    reply.put_fields(line);
                })*
                Response::Error { kind, message } => {
                    field(line, "error", kind);
                    field(line, "message", message);
                }
            }
            line.push('}');
        }

        fn read_response(r: &mut Reader<'_>) -> Res<Response> {
            if !r.tag::<bool>("ok")? {
                wire::read_fields!(r; error, message);
                return Ok(Response::Error {
                    kind: wire::need(error, "error")?,
                    message: wire::need(message, "message")?,
                });
            }
            match r.tag::<String>("kind")?.as_str() {
                $($kind => Wire::get(r).map(Response::$variant),)*
                other => Err(format!("unknown response kind {other:?}")),
            }
        }
    };
}

replies! {
    "infer" => Infer(InferReply),
    "session_open" => SessionOpen(SessionOpenReply),
    "decode" => Decode(DecodeReply),
    "session_close" => SessionClose(SessionCloseReply),
    "stats" => Stats(GatewayStats),
    "metrics" => Metrics(GatewayMetrics),
    "trace" => Trace(TraceReply),
    "health" => Health(HealthReport),
    "events" => Events(EventsReply),
}

/// Serializes a request to its single-line wire form (no newline).
pub fn encode_request(req: &Request) -> String {
    let mut line = String::new();
    write_request(req, &mut line);
    line
}

/// Parses one request line.
///
/// # Errors
///
/// [`GatewayError::Protocol`] on malformed JSON, an unknown verb, or a
/// payload that is missing or malformed.
pub fn decode_request(line: &str) -> Result<Request, GatewayError> {
    wire::read_line(line, read_request).map_err(GatewayError::Protocol)
}

/// Serializes a response to its single-line wire form (no newline).
pub fn encode_response(resp: &Response) -> String {
    let mut line = String::new();
    write_response(resp, &mut line);
    line
}

/// Parses one response line.
///
/// # Errors
///
/// [`GatewayError::Protocol`] on malformed JSON or an unknown response
/// kind.
pub fn decode_response(line: &str) -> Result<Response, GatewayError> {
    wire::read_line(line, read_response).map_err(GatewayError::Protocol)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes() -> Matrix<i32> {
        Matrix::from_fn(3, 2, |r, c| (r as i32 - 1) * 100 + c as i32)
    }

    #[test]
    fn infer_request_round_trips_codes_bit_exactly() {
        let req = Request::Infer {
            model: "block0.fc2".to_string(),
            payload: Payload::Codes(codes()),
            deadline_ms: None,
        };
        let line = encode_request(&req);
        assert!(!line.contains('\n'));
        // No deadline → no field on the wire (older peers keep parsing).
        assert!(!line.contains("deadline_ms"));
        assert_eq!(decode_request(&line).unwrap(), req);
    }

    #[test]
    fn deadlines_round_trip_on_every_carrying_verb() {
        for req in [
            Request::Infer {
                model: "m".to_string(),
                payload: Payload::Codes(codes()),
                deadline_ms: Some(250),
            },
            Request::InferF32 {
                model: "m".to_string(),
                input: Matrix::from_fn(2, 2, |r, c| (r + c) as f32),
                deadline_ms: Some(1),
            },
            Request::Decode {
                session: 3,
                hidden: Matrix::from_vec(1, 1, vec![0.5f32]).unwrap(),
                deadline_ms: Some(10_000),
            },
        ] {
            let line = encode_request(&req);
            assert!(line.contains("deadline_ms"));
            assert_eq!(decode_request(&line).unwrap(), req);
        }
    }

    #[test]
    fn non_integer_deadlines_are_rejected() {
        let line = "{\"verb\":\"infer\",\"model\":\"m\",\"deadline_ms\":-5,\"payload\":{\"kind\":\"codes\",\"rows\":1,\"cols\":1,\"data\":[0]}}";
        assert!(decode_request(line).is_err());
        // An explicit null means "no deadline", same as absence.
        let line = "{\"verb\":\"infer\",\"model\":\"m\",\"deadline_ms\":null,\"payload\":{\"kind\":\"codes\",\"rows\":1,\"cols\":1,\"data\":[0]}}";
        assert!(matches!(
            decode_request(line).unwrap(),
            Request::Infer {
                deadline_ms: None,
                ..
            }
        ));
    }

    #[test]
    fn infer_f32_request_round_trips() {
        let input = Matrix::from_fn(2, 2, |r, c| 0.25 * (r as f32) - 1.5 * (c as f32));
        let req = Request::InferF32 {
            model: "m".to_string(),
            input,
            deadline_ms: None,
        };
        assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
    }

    #[test]
    fn hidden_payload_round_trips_floats_bit_exactly() {
        // Awkward but finite values: subnormals, negative zero, and
        // shortest-round-trip-sensitive fractions must all survive.
        let hidden =
            Matrix::from_vec(2, 2, vec![0.1f32, -0.0, f32::MIN_POSITIVE, -1.5e-38]).unwrap();
        let req = Request::Infer {
            model: "decoder".to_string(),
            payload: Payload::Hidden(hidden.clone()),
            deadline_ms: None,
        };
        let Request::Infer {
            payload: Payload::Hidden(back),
            ..
        } = decode_request(&encode_request(&req)).unwrap()
        else {
            panic!("wrong verb or payload kind");
        };
        for (a, b) in hidden.iter().zip(back.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "f32 mangled on the wire");
        }
    }

    #[test]
    fn session_requests_round_trip() {
        for req in [
            Request::SessionOpen {
                model: "decoder".to_string(),
            },
            Request::Decode {
                session: 1u64 << 52,
                hidden: Matrix::from_vec(2, 1, vec![0.5f32, -1.25]).unwrap(),
                deadline_ms: None,
            },
            Request::SessionClose { session: 7 },
        ] {
            assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        }
    }

    #[test]
    fn session_responses_round_trip() {
        for resp in [
            Response::SessionOpen(SessionOpenReply {
                session: 42,
                shard: 1,
            }),
            Response::Decode(DecodeReply {
                hidden: Matrix::from_vec(1, 2, vec![0.25f32, -3.5]).unwrap(),
                tokens: 17,
                shard: 0,
                latency: Duration::from_micros(88),
            }),
            Response::SessionClose(SessionCloseReply {
                session: 42,
                tokens: 17,
            }),
        ] {
            assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        }
    }

    #[test]
    fn hidden_requests_reject_non_finite_elements() {
        let line = "{\"verb\":\"infer\",\"model\":\"m\",\"payload\":{\"kind\":\"hidden\",\"rows\":1,\"cols\":1,\"data\":[1e999]}}";
        assert!(decode_request(line).is_err());
        let line =
            "{\"verb\":\"decode\",\"session\":1,\"hidden\":{\"rows\":1,\"cols\":1,\"data\":[1e999]}}";
        assert!(decode_request(line).is_err());
    }

    #[test]
    fn stats_request_round_trips() {
        assert_eq!(
            decode_request(&encode_request(&Request::Stats)).unwrap(),
            Request::Stats
        );
    }

    #[test]
    fn infer_response_round_trips_both_kinds() {
        let resp = Response::Infer(InferReply {
            payload: Payload::Codes(codes()),
            scale: 1.25e-3,
            latency: Duration::from_micros(417),
            shard: 1,
            cache_hit: true,
        });
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        let resp = Response::Infer(InferReply {
            payload: Payload::Hidden(Matrix::from_vec(1, 3, vec![0.25, -3.5, 1e-20]).unwrap()),
            scale: 1.0,
            latency: Duration::from_micros(99),
            shard: 0,
            cache_hit: false,
        });
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
    }

    /// A `stats` reply with a distinct value in every field.
    fn stats_reply() -> Response {
        let shard = ShardStats {
            requests: 10,
            batches: 3,
            columns: 40,
            padded_cols: 2,
            padding_overhead: 0.25,
            cancelled: 1,
            columns_per_second: 1234.5,
            queued_cols: 4,
            in_flight_cols: 8,
            open_sessions: 3,
            kv_bytes: 12288,
            decode_steps: 9,
            decode_tokens: 21,
            decode_batches: 4,
            decode_batch_occupancy: 2.25,
            decode_padded_cols: 5,
            worker_panics: 2,
            evicted_poisoned: 1,
            expired: 6,
        };
        Response::Stats(GatewayStats {
            shards: vec![shard, ShardStats::default()],
            cache: CacheStats {
                hits: 5,
                misses: 7,
                evictions: 1,
                entries: 6,
            },
            admission: AdmissionStats {
                admitted: 12,
                rejected_capacity: 2,
                rejected_timeout: 1,
                in_flight: 3,
            },
            sheds: ShedStats {
                in_flight: 2,
                queue_wait: 1,
                kv_budget: 4,
            },
            connections: ConnectionStats {
                open: 3,
                peak: 9,
                evicted: 2,
                workers_alive: 4,
                worker_panics: 1,
            },
            uptime_ms: 98_765,
            seq: 17,
        })
    }

    /// The fixed reply, encoded, against the line the wire carries: a
    /// field respelled or reordered on both the writer and the reader
    /// still round-trips, but moves these bytes.
    #[test]
    fn stats_reply_bytes_are_pinned() {
        let pinned = concat!(
            r#"{"ok":true,"kind":"stats","uptime_ms":98765,"seq":17,"shards":["#,
            r#"{"requests":10,"batches":3,"columns":40,"padded_cols":2,"#,
            r#""padding_overhead":0.25,"cancelled":1,"columns_per_second":1234.5,"#,
            r#""queued_cols":4,"in_flight_cols":8,"open_sessions":3,"kv_bytes":12288,"#,
            r#""decode_steps":9,"decode_tokens":21,"decode_batches":4,"#,
            r#""decode_batch_occupancy":2.25,"decode_padded_cols":5,"worker_panics":2,"#,
            r#""evicted_poisoned":1,"expired":6},"#,
            r#"{"requests":0,"batches":0,"columns":0,"padded_cols":0,"#,
            r#""padding_overhead":0.0,"cancelled":0,"columns_per_second":0.0,"#,
            r#""queued_cols":0,"in_flight_cols":0,"open_sessions":0,"kv_bytes":0,"#,
            r#""decode_steps":0,"decode_tokens":0,"decode_batches":0,"#,
            r#""decode_batch_occupancy":0.0,"decode_padded_cols":0,"worker_panics":0,"#,
            r#""evicted_poisoned":0,"expired":0}],"#,
            r#""cache":{"hits":5,"misses":7,"evictions":1,"entries":6},"#,
            r#""admission":{"admitted":12,"rejected_capacity":2,"rejected_timeout":1,"in_flight":3},"#,
            r#""sheds":{"in_flight":2,"queue_wait":1,"kv_budget":4},"#,
            r#""connections":{"open":3,"peak":9,"evicted":2,"workers_alive":4,"worker_panics":1}}"#,
        );
        assert_eq!(encode_response(&stats_reply()), pinned);
        assert_eq!(decode_response(pinned).unwrap(), stats_reply());
    }

    #[test]
    fn stats_response_round_trips() {
        let resp = stats_reply();
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        if let Response::Stats(s) = &resp {
            assert_eq!(s.sheds.total(), 7);
        }
    }

    #[test]
    fn metrics_and_trace_requests_round_trip() {
        for req in [
            Request::Metrics,
            Request::Health,
            Request::Trace {
                limit: 12,
                kind: TraceKind::Slow,
            },
            Request::Trace {
                limit: 3,
                kind: TraceKind::Recent,
            },
            Request::Events { limit: 9 },
        ] {
            assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        }
    }

    #[test]
    fn trace_requests_without_a_kind_default_to_slow() {
        let req = decode_request("{\"verb\":\"trace\",\"limit\":5}").unwrap();
        assert_eq!(
            req,
            Request::Trace {
                limit: 5,
                kind: TraceKind::Slow,
            }
        );
    }

    fn cell(model: &str, verb: &str, stage: &str, count: u64) -> CellSummary {
        CellSummary {
            model: model.to_string(),
            verb: verb.to_string(),
            stage: stage.to_string(),
            count,
            sum: count * 100,
            p50: 90,
            p90: 180,
            p99: 400,
            max: 417,
            win_count: count / 2,
            win_p50: 80,
            win_p90: 170,
            win_p99: 390,
            win_max: 401,
            ok: 38,
            error: 1,
            shed: 1,
        }
    }

    #[test]
    fn metrics_response_round_trips() {
        let resp = Response::Metrics(GatewayMetrics {
            uptime_ms: 5_000,
            seq: 3,
            unix_ms: 1_700_000_000_000,
            window_ms: 10_000,
            cells: vec![
                cell("-", "gateway", "parse", 9),
                cell("m", "batch", "queue_wait", 4),
                cell("m", "block", "qkv", 32),
                cell("m", "infer", "request", 40),
            ],
        });
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        // An all-empty bundle round-trips as well.
        let resp = Response::Metrics(GatewayMetrics::default());
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
    }

    #[test]
    fn health_response_round_trips() {
        use panacea_telemetry::{HealthReport, SloStatus, TargetReport};
        let resp = Response::Health(HealthReport {
            status: SloStatus::Degraded,
            targets: vec![
                TargetReport {
                    name: "latency".to_string(),
                    status: SloStatus::Ok,
                    burn_rate: 0.25,
                    samples: 100,
                    p99_us: 1_500.0,
                    error_rate: 0.0,
                    shed_rate: 0.0,
                },
                TargetReport {
                    name: "availability".to_string(),
                    status: SloStatus::Degraded,
                    burn_rate: 1.5,
                    samples: 40,
                    p99_us: 0.0,
                    error_rate: 0.05,
                    shed_rate: 0.15,
                },
            ],
        });
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        // An empty report (no targets configured) survives too.
        let resp = Response::Health(HealthReport {
            status: SloStatus::Ok,
            targets: vec![],
        });
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
    }

    #[test]
    fn infinite_burn_rates_are_clamped_on_the_wire() {
        use panacea_telemetry::{HealthReport, SloStatus, TargetReport};
        let resp = Response::Health(HealthReport {
            status: SloStatus::Critical,
            targets: vec![TargetReport {
                name: "none-allowed".to_string(),
                status: SloStatus::Critical,
                burn_rate: f64::INFINITY,
                samples: 1,
                p99_us: 0.0,
                error_rate: 0.0,
                shed_rate: 1.0,
            }],
        });
        let line = encode_response(&resp);
        let Response::Health(back) = decode_response(&line).unwrap() else {
            panic!("wrong response kind");
        };
        assert_eq!(back.status, SloStatus::Critical);
        assert!(
            back.targets[0].burn_rate.is_finite() && back.targets[0].burn_rate > 1e300,
            "infinite burn did not clamp: {}",
            back.targets[0].burn_rate
        );
    }

    #[test]
    fn trace_response_round_trips_span_parents_and_links() {
        let resp = Response::Trace(TraceReply {
            traces: vec![TraceSummary {
                id: 7,
                verb: "decode".to_string(),
                total_us: 1_234,
                unix_ms: 1_700_000_000_123,
                spans: vec![
                    SpanSummary {
                        id: 0,
                        parent: None,
                        stage: "decode".to_string(),
                        start_us: 0,
                        dur_us: 1_234,
                        links: vec![],
                    },
                    SpanSummary {
                        id: 1,
                        parent: Some(0),
                        stage: "decode_pass".to_string(),
                        start_us: 10,
                        dur_us: 1_200,
                        // Batchmates of the fused pass this span covers.
                        links: vec![3, 9],
                    },
                ],
            }],
        });
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        let resp = Response::Trace(TraceReply::default());
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
    }

    #[test]
    fn events_response_round_trips_with_and_without_a_pinned_incident() {
        let event = EventSummary {
            seq: 41,
            unix_ms: 1_700_000_000_456,
            severity: "warn".to_string(),
            kind: "shed".to_string(),
            detail: "reason=in_flight model=m verb=infer".to_string(),
        };
        let resp = Response::Events(EventsReply {
            events: vec![event.clone()],
            pinned: Some(IncidentSummary {
                unix_ms: 1_700_000_000_400,
                status: SloStatus::Critical,
                events: vec![event],
                traces: vec![TraceSummary {
                    id: 3,
                    verb: "decode".to_string(),
                    total_us: 2_500_000,
                    unix_ms: 1_700_000_000_390,
                    spans: vec![SpanSummary {
                        id: 0,
                        parent: None,
                        stage: "decode".to_string(),
                        start_us: 0,
                        dur_us: 2_500_000,
                        links: vec![],
                    }],
                }],
                cells: vec![cell("m", "decode", "step", 12)],
            }),
        });
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        // No incident pinned: `pinned` travels as JSON null.
        let resp = Response::Events(EventsReply::default());
        let line = encode_response(&resp);
        assert!(line.contains("\"pinned\":null"));
        assert_eq!(decode_response(&line).unwrap(), resp);
    }

    #[test]
    fn event_summary_preserves_flight_recorder_fields() {
        use panacea_telemetry::{EventSeverity, FlightRecorder};
        let rec = FlightRecorder::with_capacity(4);
        rec.record(
            EventSeverity::Error,
            "health_transition",
            "to=critical".into(),
        );
        let events = rec.recent(1);
        let summary = EventSummary::from(&events[0]);
        assert_eq!(summary.severity, "error");
        assert_eq!(summary.kind, "health_transition");
        assert_eq!(summary.detail, "to=critical");
        assert!(summary.unix_ms > 0);
    }

    #[test]
    fn trace_summary_flattens_telemetry_traces() {
        let tracer = panacea_telemetry::Tracer::new(panacea_telemetry::TraceConfig {
            slow_threshold: Duration::ZERO,
            ..Default::default()
        });
        let mut tb = tracer.begin("infer");
        tb.span("execute", panacea_telemetry::ROOT_SPAN, || ());
        tracer.finish(tb);
        let traces = tracer.slow(1);
        let summary = TraceSummary::from(&traces[0]);
        assert_eq!(summary.verb, "infer");
        assert_eq!(summary.spans.len(), 2);
        assert_eq!(summary.spans[0].parent, None);
        assert_eq!(summary.spans[1].parent, Some(0));
        assert_eq!(summary.spans[1].stage, "execute");
    }

    #[test]
    fn hostile_metrics_and_trace_lines_are_rejected() {
        for line in [
            // trace request without a limit
            "{\"verb\":\"trace\"}",
            "{\"verb\":\"trace\",\"limit\":-1}",
            "{\"verb\":\"trace\",\"limit\":\"all\"}",
            // trace request with a bad ring kind
            "{\"verb\":\"trace\",\"limit\":1,\"kind\":\"fast\"}",
            "{\"verb\":\"trace\",\"limit\":1,\"kind\":7}",
            // metrics responses with missing or mistyped pieces
            "{\"ok\":true,\"kind\":\"metrics\"}",
            "{\"ok\":true,\"kind\":\"metrics\",\"uptime_ms\":1,\"seq\":1,\"unix_ms\":1,\"window_ms\":1,\"cells\":7}",
            "{\"ok\":true,\"kind\":\"metrics\",\"uptime_ms\":1,\"seq\":1,\"unix_ms\":1,\"window_ms\":1,\"cells\":[{\"stage\":\"parse\"}]}",
            "{\"ok\":true,\"kind\":\"metrics\",\"uptime_ms\":1,\"seq\":1,\"unix_ms\":1,\"window_ms\":1,\"cells\":[{\"model\":\"m\",\"verb\":\"infer\",\"stage\":\"request\",\"count\":\"many\"}]}",
            // trace responses with malformed spans
            "{\"ok\":true,\"kind\":\"trace\"}",
            "{\"ok\":true,\"kind\":\"trace\",\"traces\":{}}",
            "{\"ok\":true,\"kind\":\"trace\",\"traces\":[{\"id\":1,\"verb\":\"x\",\"total_us\":5}]}",
            "{\"ok\":true,\"kind\":\"trace\",\"traces\":[{\"id\":1,\"verb\":\"x\",\"total_us\":5,\"unix_ms\":1,\"spans\":[{\"id\":0,\"stage\":\"x\",\"start_us\":0,\"dur_us\":1,\"links\":[]}]}]}",
            "{\"ok\":true,\"kind\":\"trace\",\"traces\":[{\"id\":1,\"verb\":\"x\",\"total_us\":5,\"unix_ms\":1,\"spans\":[{\"id\":0,\"parent\":\"root\",\"stage\":\"x\",\"start_us\":0,\"dur_us\":1,\"links\":[]}]}]}",
            // trace missing the wall-clock anchor
            "{\"ok\":true,\"kind\":\"trace\",\"traces\":[{\"id\":1,\"verb\":\"x\",\"total_us\":5,\"spans\":[]}]}",
            // span missing its links array (or with a mistyped one)
            "{\"ok\":true,\"kind\":\"trace\",\"traces\":[{\"id\":1,\"verb\":\"x\",\"total_us\":5,\"unix_ms\":1,\"spans\":[{\"id\":0,\"parent\":null,\"stage\":\"x\",\"start_us\":0,\"dur_us\":1}]}]}",
            "{\"ok\":true,\"kind\":\"trace\",\"traces\":[{\"id\":1,\"verb\":\"x\",\"total_us\":5,\"unix_ms\":1,\"spans\":[{\"id\":0,\"parent\":null,\"stage\":\"x\",\"start_us\":0,\"dur_us\":1,\"links\":[\"t\"]}]}]}",
            // events request without a limit
            "{\"verb\":\"events\"}",
            "{\"verb\":\"events\",\"limit\":\"all\"}",
            // events responses with missing or mistyped pieces
            "{\"ok\":true,\"kind\":\"events\"}",
            "{\"ok\":true,\"kind\":\"events\",\"events\":[],\"pinned\":7}",
            "{\"ok\":true,\"kind\":\"events\",\"events\":[{\"seq\":1}],\"pinned\":null}",
            "{\"ok\":true,\"kind\":\"events\",\"events\":[{\"seq\":1,\"unix_ms\":1,\"severity\":\"fatal\",\"kind\":\"shed\",\"detail\":\"\"}],\"pinned\":null}",
            "{\"ok\":true,\"kind\":\"events\",\"events\":[],\"pinned\":{\"unix_ms\":1,\"status\":\"critical\",\"events\":[],\"traces\":[]}}",
            // stats response missing the new uptime/seq fields
            "{\"ok\":true,\"kind\":\"stats\",\"shards\":[],\"cache\":{\"hits\":0,\"misses\":0,\"evictions\":0,\"entries\":0},\"admission\":{\"admitted\":0,\"rejected_capacity\":0,\"rejected_timeout\":0,\"in_flight\":0}}",
            // stats response missing the per-reason shed breakdown
            "{\"ok\":true,\"kind\":\"stats\",\"uptime_ms\":1,\"seq\":1,\"shards\":[],\"cache\":{\"hits\":0,\"misses\":0,\"evictions\":0,\"entries\":0},\"admission\":{\"admitted\":0,\"rejected_capacity\":0,\"rejected_timeout\":0,\"in_flight\":0}}",
            // metrics response missing the cells (or their window)
            "{\"ok\":true,\"kind\":\"metrics\",\"uptime_ms\":1,\"seq\":1,\"unix_ms\":1,\"window_ms\":1}",
            "{\"ok\":true,\"kind\":\"metrics\",\"uptime_ms\":1,\"seq\":1,\"unix_ms\":1,\"cells\":[]}",
            // health responses with missing or mistyped pieces
            "{\"ok\":true,\"kind\":\"health\"}",
            "{\"ok\":true,\"kind\":\"health\",\"status\":\"fine\",\"targets\":[]}",
            "{\"ok\":true,\"kind\":\"health\",\"status\":\"ok\",\"targets\":7}",
            "{\"ok\":true,\"kind\":\"health\",\"status\":\"ok\",\"targets\":[{\"name\":\"x\"}]}",
            "{\"ok\":true,\"kind\":\"health\",\"status\":\"ok\",\"targets\":[{\"name\":\"x\",\"status\":\"ok\",\"burn_rate\":\"hot\",\"samples\":1,\"p99_us\":1,\"error_rate\":0,\"shed_rate\":0}]}",
        ] {
            let req_err = decode_request(line).is_err();
            let resp_err = decode_response(line).is_err();
            assert!(
                req_err && resp_err,
                "line survived decoding somewhere: {line}"
            );
        }
    }

    #[test]
    fn error_response_round_trips_kind() {
        for kind in [ErrorKind::Overloaded, ErrorKind::UnknownSession] {
            let resp = Response::Error {
                kind,
                message: "nope".to_string(),
            };
            assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for line in [
            "",
            "not json",
            "{}",
            "{\"verb\":\"launch\"}",
            "{\"verb\":\"infer\",\"model\":\"m\"}",
            "{\"verb\":\"infer\",\"model\":\"m\",\"payload\":{\"rows\":1,\"cols\":1,\"data\":[1]}}",
            "{\"verb\":\"infer\",\"model\":\"m\",\"payload\":{\"kind\":\"zap\",\"rows\":1,\"cols\":1,\"data\":[1]}}",
            "{\"verb\":\"infer\",\"model\":\"m\",\"payload\":{\"kind\":\"codes\",\"rows\":2,\"cols\":2,\"data\":[1]}}",
            "{\"verb\":\"infer\",\"model\":\"m\",\"payload\":{\"kind\":\"codes\",\"rows\":1,\"cols\":1,\"data\":[1.5]}}",
            "{\"verb\":\"decode\",\"hidden\":{\"rows\":1,\"cols\":1,\"data\":[1]}}",
            "{\"verb\":\"session_open\"}",
            "{\"verb\":\"session_close\"}",
            // rows*cols overflows usize: must be a clean protocol error,
            // not a multiplication overflow inside Matrix::from_vec.
            "{\"verb\":\"infer\",\"model\":\"m\",\"payload\":{\"kind\":\"codes\",\"rows\":4294967296,\"cols\":4294967296,\"data\":[]}}",
        ] {
            assert!(decode_request(line).is_err(), "accepted {line:?}");
        }
    }

    #[test]
    fn non_finite_float_payloads_are_rejected_on_decode() {
        // 1e999 parses to f64 infinity; 1e300 is a finite f64 that
        // overflows when narrowed to f32. Both must fail with the
        // finiteness error, not leak into quantization.
        for datum in ["1e999", "-1e999", "1e300"] {
            let line = format!(
                "{{\"verb\":\"infer\",\"model\":\"m\",\"input\":{{\"rows\":1,\"cols\":1,\"data\":[{datum}]}}}}"
            );
            let err = decode_request(&line).expect_err("accepted non-finite element");
            assert!(
                err.to_string().contains("not finite"),
                "wrong error for {datum}: {err}"
            );
        }
    }

    #[test]
    fn i32_extremes_survive_the_wire() {
        let m = Matrix::from_vec(1, 4, vec![i32::MIN, -1, 1, i32::MAX]).unwrap();
        let req = Request::Infer {
            model: "m".to_string(),
            payload: Payload::Codes(m.clone()),
            deadline_ms: None,
        };
        let Request::Infer { payload, .. } = decode_request(&encode_request(&req)).unwrap() else {
            panic!("wrong verb");
        };
        assert_eq!(payload, Payload::Codes(m));
    }

    #[test]
    fn reply_to_f32_applies_scale_only_to_codes() {
        let reply = InferReply {
            payload: Payload::Codes(Matrix::from_vec(1, 2, vec![4, -8]).unwrap()),
            scale: 0.5,
            latency: Duration::ZERO,
            shard: 0,
            cache_hit: false,
        };
        assert_eq!(reply.to_f32().as_slice(), &[2.0, -4.0]);
        let hidden = Matrix::from_vec(1, 2, vec![1.5f32, -0.25]).unwrap();
        let reply = InferReply {
            payload: Payload::Hidden(hidden.clone()),
            scale: 0.5, // ignored for hidden results
            latency: Duration::ZERO,
            shard: 0,
            cache_hit: false,
        };
        assert_eq!(reply.to_f32(), hidden);
    }

    #[test]
    fn u64_fields_travel_as_integers_not_floats() {
        // 2^53 + 1 is the first integer an f64 cannot hold; u64::MAX is
        // what `ClientConfig.deadline = Duration::MAX` stamps.
        for n in [(1u64 << 53) + 1, u64::MAX] {
            for req in [
                Request::Decode {
                    session: n,
                    hidden: Matrix::from_vec(1, 1, vec![0.5f32]).unwrap(),
                    deadline_ms: Some(n),
                },
                Request::Infer {
                    model: "m".to_string(),
                    payload: Payload::Codes(codes()),
                    deadline_ms: Some(n),
                },
                Request::SessionClose { session: n },
            ] {
                let line = encode_request(&req);
                assert!(line.contains(&n.to_string()), "{n} not spelled out: {line}");
                assert_eq!(decode_request(&line).unwrap(), req);
            }
            let resp = Response::SessionOpen(SessionOpenReply {
                session: n,
                shard: 0,
            });
            assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        }
        // One past u64::MAX is refused, not wrapped or rounded.
        let line = "{\"verb\":\"session_close\",\"session\":18446744073709551616}";
        assert!(decode_request(line).is_err());
    }

    fn cells_request(kind: &str, cells: &str) -> Result<Request, GatewayError> {
        decode_request(&format!(
            "{{\"verb\":\"infer\",\"model\":\"m\",\"payload\":\
             {{\"kind\":\"{kind}\",\"rows\":1,\"cols\":1,\"data\":[{cells}]}}}}"
        ))
    }

    #[test]
    fn integral_cells_in_float_form_still_decode_as_codes() {
        for (spelling, code) in [("5.0", 5), ("1e2", 100), ("-3.0E0", -3), ("-0.0", 0)] {
            let Request::Infer { payload, .. } = cells_request("codes", spelling).unwrap() else {
                panic!("wrong verb");
            };
            assert_eq!(
                payload,
                Payload::Codes(Matrix::from_vec(1, 1, vec![code]).unwrap()),
                "{spelling}"
            );
        }
        for (spelling, message) in [
            ("1.5", "matrix element is not an integer"),
            ("1e999", "matrix element is not an integer"),
            ("\"7\"", "matrix element is not an integer"),
            ("1e10", "matrix element exceeds i32 range"),
            ("2147483648", "matrix element exceeds i32 range"),
            ("-2147483649", "matrix element exceeds i32 range"),
        ] {
            let err = cells_request("codes", spelling)
                .expect_err(spelling)
                .to_string();
            assert!(err.contains(message), "{spelling}: {err}");
        }
        let err = cells_request("hidden", "1e999").unwrap_err().to_string();
        assert!(err.contains("matrix element is not finite"), "{err}");
        let err = cells_request("hidden", "true").unwrap_err().to_string();
        assert!(err.contains("matrix element is not a number"), "{err}");
    }

    #[test]
    fn keys_come_in_any_order_and_unknown_ones_are_skipped() {
        let want = Request::Infer {
            model: "m".to_string(),
            payload: Payload::Codes(Matrix::from_vec(1, 2, vec![3, -4]).unwrap()),
            deadline_ms: Some(9),
        };
        for line in [
            // Cells before their header and their tag; the verb last.
            "{\"payload\":{\"data\":[3,-4],\"cols\":2,\"kind\":\"codes\",\"rows\":1},\
             \"deadline_ms\":9,\"model\":\"m\",\"verb\":\"infer\"}",
            // Unknown keys, scalar and nested, at both levels; loose
            // whitespace.
            " { \"trace_id\" : [1, {\"a\": [null, true, \"x\\\"y\"]}], \"verb\" : \"infer\" ,\
             \"model\":\"m\", \"deadline_ms\": 9, \"payload\": {\"kind\":\"codes\", \"unit\": {},\
             \"rows\":1, \"cols\":2, \"data\": [ 3 , -4 ] } } ",
        ] {
            assert_eq!(decode_request(line).unwrap(), want, "{line}");
        }
        // An unknown value is still held to the nesting limit.
        let deep = format!(
            "{{\"verb\":\"stats\",\"x\":{}{}}}",
            "[".repeat(200),
            "]".repeat(200)
        );
        let err = decode_request(&deep).unwrap_err().to_string();
        assert!(err.contains("recursion limit"), "{err}");
        let fits = format!(
            "{{\"verb\":\"stats\",\"x\":{}{}}}",
            "[".repeat(100),
            "]".repeat(100)
        );
        assert_eq!(decode_request(&fits).unwrap(), Request::Stats);
    }

    /// The rule the module doc states: no object repeats a key — at any
    /// level, whether a field, a tag, or a key nobody knows.
    #[test]
    fn a_duplicated_key_is_a_protocol_error() {
        for line in [
            "{\"verb\":\"stats\",\"verb\":\"metrics\"}",
            "{\"verb\":\"session_close\",\"session\":1,\"session\":2}",
            "{\"verb\":\"infer\",\"model\":\"m\",\"payload\":{\"kind\":\"codes\",\"rows\":1,\"rows\":1,\"cols\":1,\"data\":[0]}}",
            "{\"verb\":\"infer\",\"model\":\"m\",\"payload\":{\"kind\":\"codes\",\"kind\":\"hidden\",\"rows\":1,\"cols\":1,\"data\":[0]}}",
            "{\"verb\":\"infer\",\"model\":\"m\",\"payload\":{\"data\":[0],\"kind\":\"codes\",\"rows\":1,\"cols\":1,\"data\":[0]}}",
        ] {
            let err = decode_request(line).expect_err(line).to_string();
            assert!(err.contains("duplicate field"), "{line}: {err}");
        }
        for line in [
            "{\"ok\":true,\"kind\":\"session_close\",\"session\":1,\"tokens\":2,\"ok\":true}",
            "{\"ok\":true,\"kind\":\"session_close\",\"kind\":\"stats\",\"session\":1,\"tokens\":2}",
            "{\"ok\":false,\"error\":\"internal\",\"message\":\"a\",\"message\":\"b\"}",
        ] {
            let err = decode_response(line).expect_err(line).to_string();
            assert!(err.contains("duplicate field"), "{line}: {err}");
        }
        let err = decode_request("{\"x\":1,\"verb\":\"health\",\"x\":2}").unwrap_err();
        assert!(err.to_string().contains("duplicate field"), "{err}");
        // What bounds the check's cost: an object has at most 64 keys.
        let wide = |n: usize| {
            let extra: String = (0..n).map(|i| format!(",\"k{i}\":{i}")).collect();
            decode_request(&format!("{{\"verb\":\"health\"{extra}}}"))
        };
        assert_eq!(wide(63).unwrap(), Request::Health);
        assert!(wide(64).is_err());
    }

    #[test]
    fn error_messages_keep_the_substrings_callers_match() {
        for (line, needle) in [
            ("not json", "invalid JSON"),
            ("{\"verb\":\"stats\"} x", "invalid JSON"),
            ("{\"verb\":\"stats\",}", "invalid JSON"),
            ("{\"verb\":\"stats\",\"x\":1e}", "invalid JSON"),
            ("{\"verb\":\"stats\",\"x\":1-2}", "invalid JSON"),
            ("{\"verb\":\"stats\\q\"}", "invalid JSON"),
            ("{}", "missing field \"verb\""),
            (
                "{\"verb\":\"decode\",\"session\":1}",
                "missing field \"hidden\"",
            ),
            ("[1,2]", "not a JSON object"),
            (
                "{\"verb\":\"trace\",\"limit\":-1}",
                "field \"limit\": not a non-negative integer",
            ),
        ] {
            let err = decode_request(line).expect_err(line).to_string();
            assert!(err.contains(needle), "{line:?}: {err}");
        }
        // The top level of a nesting bomb is not an object; it is still
        // reported as what it is.
        for bomb in ["[".repeat(1_000_000), "{\"a\":".repeat(200_000)] {
            for err in [
                decode_request(&bomb).unwrap_err().to_string(),
                decode_response(&bomb).unwrap_err().to_string(),
            ] {
                assert!(err.contains("recursion limit"), "{err}");
            }
        }
    }

    #[test]
    fn hostile_matrix_headers_fail_before_their_cells_are_stored() {
        // One cell promised, a megabyte sent: refused at the second cell.
        let flood = format!(
            "{{\"verb\":\"decode\",\"session\":1,\"hidden\":{{\"rows\":1,\"cols\":1,\"data\":[{}0]}}}}",
            "0,".repeat(500_000)
        );
        // A header no line could fill: refused before reserving.
        let vast = "{\"verb\":\"decode\",\"session\":1,\"hidden\":{\"rows\":1000000,\"cols\":1000000,\"data\":[0]}}";
        for line in [flood.as_str(), vast] {
            let err = decode_request(line).unwrap_err().to_string();
            assert!(err.contains("does not match rows*cols"), "{err}");
        }
        let err = decode_request(
            "{\"verb\":\"decode\",\"session\":1,\"hidden\":{\"rows\":4294967296,\"cols\":4294967296,\"data\":[]}}",
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("matrix dimensions overflow"), "{err}");
    }
}
