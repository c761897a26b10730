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
//! Integer payloads round-trip bit-exactly (JSON numbers are `f64`,
//! which represents every `i32`); finite float payloads round-trip
//! exactly too because the writer emits shortest-round-trip decimal
//! forms. JSON has no NaN/infinity, so non-finite floats do not survive
//! the wire — [`GatewayClient`](crate::GatewayClient) rejects them
//! before sending and the server rejects them on decode.

use std::time::Duration;

use panacea_netcore::ConnectionStats;
use panacea_serve::Payload;
use panacea_telemetry::{
    CellSummary, Event, EventSeverity, HealthReport, IncidentSnapshot, SloStatus, TargetReport,
};
use panacea_tensor::Matrix;
use serde_json::{json, Value};

use crate::admission::AdmissionStats;
use crate::cache::CacheStats;
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

    fn parse(s: &str) -> Result<Self, GatewayError> {
        match s {
            "slow" => Ok(TraceKind::Slow),
            "recent" => Ok(TraceKind::Recent),
            other => Err(bad(format!("unknown trace kind {other:?}"))),
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
    /// Columns zero-padded to the PE vector width.
    pub padded_cols: u64,
    /// Fraction of executed GEMM columns that were zero padding
    /// (`padded / (served + padded)`).
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
    pub decode_batches: u64,
    /// Average decode steps per fused pass (`decode_steps /
    /// decode_batches`; `> 1` means concurrent sessions shared GEMM
    /// passes). Zero before any fused pass.
    pub decode_batch_occupancy: f64,
    /// Columns the fused decode passes zero-padded to the PE vector
    /// width.
    pub decode_padded_cols: u64,
    /// Panics caught and isolated on this shard's execution paths
    /// (batch workers, fused decode passes, inline steps).
    pub worker_panics: u64,
    /// Decode sessions evicted because a panic died inside their own
    /// step.
    pub evicted_poisoned: u64,
    /// Requests and decode steps answered `deadline_exceeded` at
    /// dequeue instead of executed.
    pub expired: u64,
}

/// Overload sheds broken down by which bound rejected the request, as
/// reported by the `stats` verb. Unlike the admission controller's own
/// counters, these are counted where errors surface at the gateway's
/// public verbs, so KV-budget rejections (which never pass through
/// admission) are visible too.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShedStats {
    /// Sheds because the in-flight limit was reached.
    pub in_flight: u64,
    /// Sheds because the queue-wait bound elapsed.
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
    /// Overload sheds by reason, counted at the gateway's public verbs.
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

fn matrix_f32_to_value(m: &Matrix<f32>) -> Value {
    json!({
        "rows": m.rows(),
        "cols": m.cols(),
        "data": Value::Array(m.iter().map(|&v| Value::from(v)).collect()),
    })
}

fn payload_to_value(p: &Payload) -> Value {
    match p {
        Payload::Codes(m) => json!({
            "kind": "codes",
            "rows": m.rows(),
            "cols": m.cols(),
            "data": Value::Array(m.iter().map(|&v| Value::from(v)).collect()),
        }),
        Payload::Hidden(m) => json!({
            "kind": "hidden",
            "rows": m.rows(),
            "cols": m.cols(),
            "data": Value::Array(m.iter().map(|&v| Value::from(v)).collect()),
        }),
    }
}

fn value_to_payload(v: &Value) -> Result<Payload, GatewayError> {
    match str_field(v, "kind")? {
        "codes" => Ok(Payload::Codes(value_to_matrix_i32(v)?)),
        "hidden" => Ok(Payload::Hidden(value_to_matrix_f32(v)?)),
        other => Err(bad(format!("unknown payload kind {other:?}"))),
    }
}

fn bad(msg: impl Into<String>) -> GatewayError {
    GatewayError::Protocol(msg.into())
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, GatewayError> {
    v.get(key)
        .ok_or_else(|| bad(format!("missing field {key:?}")))
}

fn usize_field(v: &Value, key: &str) -> Result<usize, GatewayError> {
    field(v, key)?
        .as_u64()
        .map(|x| x as usize)
        .ok_or_else(|| bad(format!("field {key:?} is not a non-negative integer")))
}

fn u64_field(v: &Value, key: &str) -> Result<u64, GatewayError> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| bad(format!("field {key:?} is not a non-negative integer")))
}

fn f64_field(v: &Value, key: &str) -> Result<f64, GatewayError> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| bad(format!("field {key:?} is not a number")))
}

fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, GatewayError> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| bad(format!("field {key:?} is not a string")))
}

/// Guards the untrusted `rows`/`cols` pair: their product must be
/// computable without overflow *and* match the element count, so a
/// hostile header like `rows=cols=2^32` fails cleanly here instead of
/// overflowing inside `Matrix::from_vec`.
fn check_dims(rows: usize, cols: usize, len: usize) -> Result<(), GatewayError> {
    match rows.checked_mul(cols) {
        Some(n) if n == len => Ok(()),
        Some(_) => Err(bad("matrix data length does not match rows*cols")),
        None => Err(bad("matrix dimensions overflow")),
    }
}

fn value_to_matrix_i32(v: &Value) -> Result<Matrix<i32>, GatewayError> {
    let rows = usize_field(v, "rows")?;
    let cols = usize_field(v, "cols")?;
    let data = field(v, "data")?
        .as_array()
        .ok_or_else(|| bad("matrix data is not an array"))?;
    check_dims(rows, cols, data.len())?;
    let mut out = Vec::with_capacity(data.len());
    for item in data {
        let n = item
            .as_i64()
            .ok_or_else(|| bad("matrix element is not an integer"))?;
        let n = i32::try_from(n).map_err(|_| bad("matrix element exceeds i32 range"))?;
        out.push(n);
    }
    Ok(Matrix::from_vec(rows, cols, out).expect("dims pre-checked against data length"))
}

fn value_to_matrix_f32(v: &Value) -> Result<Matrix<f32>, GatewayError> {
    let rows = usize_field(v, "rows")?;
    let cols = usize_field(v, "cols")?;
    let data = field(v, "data")?
        .as_array()
        .ok_or_else(|| bad("matrix data is not an array"))?;
    check_dims(rows, cols, data.len())?;
    let mut out = Vec::with_capacity(data.len());
    for item in data {
        let n = item
            .as_f64()
            .ok_or_else(|| bad("matrix element is not a number"))?;
        // JSON has no NaN/infinity, but an overflowing literal like
        // `1e999` still parses to infinity (and a finite `1e300`
        // overflows when narrowed to f32); enforce the documented
        // finite-floats-only invariant here rather than letting the
        // saturated value surface later as a code-range error.
        let f = n as f32;
        if !f.is_finite() {
            return Err(bad("matrix element is not finite"));
        }
        out.push(f);
    }
    Ok(Matrix::from_vec(rows, cols, out).expect("dims pre-checked against data length"))
}

/// Attaches the optional `deadline_ms` wire field; absent deadlines
/// stay off the wire so pre-deadline peers parse unchanged.
fn with_deadline(mut value: Value, deadline_ms: Option<u64>) -> Value {
    if let Some(ms) = deadline_ms {
        if let Value::Object(map) = &mut value {
            map.insert("deadline_ms".to_string(), Value::from(ms));
        }
    }
    value
}

/// Reads the optional `deadline_ms` field (absent or `null` means no
/// deadline).
fn opt_deadline_ms(v: &Value) -> Result<Option<u64>, GatewayError> {
    match v.get("deadline_ms") {
        None | Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad("field \"deadline_ms\" is not a non-negative integer")),
    }
}

/// Serializes a request to its single-line wire form (no newline).
pub fn encode_request(req: &Request) -> String {
    let value = match req {
        Request::Infer {
            model,
            payload,
            deadline_ms,
        } => with_deadline(
            json!({
                "verb": "infer",
                "model": model.clone(),
                "payload": payload_to_value(payload),
            }),
            *deadline_ms,
        ),
        Request::InferF32 {
            model,
            input,
            deadline_ms,
        } => with_deadline(
            json!({
                "verb": "infer",
                "model": model.clone(),
                "input": matrix_f32_to_value(input),
            }),
            *deadline_ms,
        ),
        Request::SessionOpen { model } => json!({
            "verb": "session_open",
            "model": model.clone(),
        }),
        Request::Decode {
            session,
            hidden,
            deadline_ms,
        } => with_deadline(
            json!({
                "verb": "decode",
                "session": *session,
                "hidden": matrix_f32_to_value(hidden),
            }),
            *deadline_ms,
        ),
        Request::SessionClose { session } => json!({
            "verb": "session_close",
            "session": *session,
        }),
        Request::Stats => json!({ "verb": "stats" }),
        Request::Metrics => json!({ "verb": "metrics" }),
        Request::Trace { limit, kind } => json!({
            "verb": "trace",
            "limit": *limit,
            "kind": kind.as_str(),
        }),
        Request::Health => json!({ "verb": "health" }),
        Request::Events { limit } => json!({
            "verb": "events",
            "limit": *limit,
        }),
    };
    serde_json::to_string(&value).expect("shim serializer never fails")
}

/// Parses one request line.
///
/// # Errors
///
/// [`GatewayError::Protocol`] on malformed JSON, an unknown verb, or a
/// payload that is missing or malformed.
pub fn decode_request(line: &str) -> Result<Request, GatewayError> {
    let v = serde_json::from_str(line.trim()).map_err(|e| bad(format!("invalid JSON: {e}")))?;
    match str_field(&v, "verb")? {
        "infer" => {
            let model = str_field(&v, "model")?.to_string();
            let deadline_ms = opt_deadline_ms(&v)?;
            match (v.get("payload"), v.get("input")) {
                (Some(payload), None) => Ok(Request::Infer {
                    model,
                    payload: value_to_payload(payload)?,
                    deadline_ms,
                }),
                (None, Some(input)) => Ok(Request::InferF32 {
                    model,
                    input: value_to_matrix_f32(input)?,
                    deadline_ms,
                }),
                (Some(_), Some(_)) => Err(bad("request carries both payload and input")),
                (None, None) => Err(bad("request carries neither payload nor input")),
            }
        }
        "session_open" => Ok(Request::SessionOpen {
            model: str_field(&v, "model")?.to_string(),
        }),
        "decode" => Ok(Request::Decode {
            session: u64_field(&v, "session")?,
            hidden: value_to_matrix_f32(field(&v, "hidden")?)?,
            deadline_ms: opt_deadline_ms(&v)?,
        }),
        "session_close" => Ok(Request::SessionClose {
            session: u64_field(&v, "session")?,
        }),
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "trace" => Ok(Request::Trace {
            limit: usize_field(&v, "limit")?,
            // Absent means slow — the ring the verb originally served.
            kind: match v.get("kind") {
                None => TraceKind::Slow,
                Some(k) => TraceKind::parse(
                    k.as_str()
                        .ok_or_else(|| bad("field \"kind\" is not a string"))?,
                )?,
            },
        }),
        "health" => Ok(Request::Health),
        "events" => Ok(Request::Events {
            limit: usize_field(&v, "limit")?,
        }),
        other => Err(bad(format!("unknown verb {other:?}"))),
    }
}

fn shard_stats_to_value(s: &ShardStats) -> Value {
    json!({
        "requests": s.requests,
        "batches": s.batches,
        "columns": s.columns,
        "padded_cols": s.padded_cols,
        "padding_overhead": s.padding_overhead,
        "cancelled": s.cancelled,
        "columns_per_second": s.columns_per_second,
        "queued_cols": s.queued_cols,
        "in_flight_cols": s.in_flight_cols,
        "open_sessions": s.open_sessions,
        "kv_bytes": s.kv_bytes,
        "decode_steps": s.decode_steps,
        "decode_tokens": s.decode_tokens,
        "decode_batches": s.decode_batches,
        "decode_batch_occupancy": s.decode_batch_occupancy,
        "decode_padded_cols": s.decode_padded_cols,
        "worker_panics": s.worker_panics,
        "evicted_poisoned": s.evicted_poisoned,
        "expired": s.expired,
    })
}

fn value_to_shard_stats(v: &Value) -> Result<ShardStats, GatewayError> {
    Ok(ShardStats {
        requests: u64_field(v, "requests")?,
        batches: u64_field(v, "batches")?,
        columns: u64_field(v, "columns")?,
        padded_cols: u64_field(v, "padded_cols")?,
        padding_overhead: f64_field(v, "padding_overhead")?,
        cancelled: u64_field(v, "cancelled")?,
        columns_per_second: f64_field(v, "columns_per_second")?,
        queued_cols: u64_field(v, "queued_cols")?,
        in_flight_cols: u64_field(v, "in_flight_cols")?,
        open_sessions: u64_field(v, "open_sessions")?,
        kv_bytes: u64_field(v, "kv_bytes")?,
        decode_steps: u64_field(v, "decode_steps")?,
        decode_tokens: u64_field(v, "decode_tokens")?,
        decode_batches: u64_field(v, "decode_batches")?,
        decode_batch_occupancy: f64_field(v, "decode_batch_occupancy")?,
        decode_padded_cols: u64_field(v, "decode_padded_cols")?,
        worker_panics: u64_field(v, "worker_panics")?,
        evicted_poisoned: u64_field(v, "evicted_poisoned")?,
        expired: u64_field(v, "expired")?,
    })
}

fn stats_to_value(stats: &GatewayStats) -> Value {
    json!({
        "ok": true,
        "kind": "stats",
        "uptime_ms": stats.uptime_ms,
        "seq": stats.seq,
        "shards": Value::Array(stats.shards.iter().map(shard_stats_to_value).collect()),
        "cache": json!({
            "hits": stats.cache.hits,
            "misses": stats.cache.misses,
            "evictions": stats.cache.evictions,
            "entries": stats.cache.entries,
        }),
        "admission": json!({
            "admitted": stats.admission.admitted,
            "rejected_capacity": stats.admission.rejected_capacity,
            "rejected_timeout": stats.admission.rejected_timeout,
            "in_flight": stats.admission.in_flight,
        }),
        "sheds": json!({
            "in_flight": stats.sheds.in_flight,
            "queue_wait": stats.sheds.queue_wait,
            "kv_budget": stats.sheds.kv_budget,
        }),
        "connections": json!({
            "open": stats.connections.open,
            "peak": stats.connections.peak,
            "evicted": stats.connections.evicted,
            "workers_alive": stats.connections.workers_alive,
            "worker_panics": stats.connections.worker_panics,
        }),
    })
}

fn value_to_stats(v: &Value) -> Result<GatewayStats, GatewayError> {
    let shards = field(v, "shards")?
        .as_array()
        .ok_or_else(|| bad("shards is not an array"))?
        .iter()
        .map(value_to_shard_stats)
        .collect::<Result<Vec<_>, _>>()?;
    let cache = field(v, "cache")?;
    let admission = field(v, "admission")?;
    let sheds = field(v, "sheds")?;
    let connections = field(v, "connections")?;
    Ok(GatewayStats {
        shards,
        cache: CacheStats {
            hits: u64_field(cache, "hits")?,
            misses: u64_field(cache, "misses")?,
            evictions: u64_field(cache, "evictions")?,
            entries: u64_field(cache, "entries")? as usize,
        },
        admission: AdmissionStats {
            admitted: u64_field(admission, "admitted")?,
            rejected_capacity: u64_field(admission, "rejected_capacity")?,
            rejected_timeout: u64_field(admission, "rejected_timeout")?,
            in_flight: usize_field(admission, "in_flight")?,
        },
        sheds: ShedStats {
            in_flight: u64_field(sheds, "in_flight")?,
            queue_wait: u64_field(sheds, "queue_wait")?,
            kv_budget: u64_field(sheds, "kv_budget")?,
        },
        connections: ConnectionStats {
            open: u64_field(connections, "open")?,
            peak: u64_field(connections, "peak")?,
            evicted: u64_field(connections, "evicted")?,
            workers_alive: u64_field(connections, "workers_alive")?,
            worker_panics: u64_field(connections, "worker_panics")?,
        },
        uptime_ms: u64_field(v, "uptime_ms")?,
        seq: u64_field(v, "seq")?,
    })
}

fn cell_to_value(c: &CellSummary) -> Value {
    json!({
        "model": c.model.clone(),
        "verb": c.verb.clone(),
        "stage": c.stage.clone(),
        "count": c.count,
        "sum": c.sum,
        "p50": c.p50,
        "p90": c.p90,
        "p99": c.p99,
        "max": c.max,
        "win_count": c.win_count,
        "win_p50": c.win_p50,
        "win_p90": c.win_p90,
        "win_p99": c.win_p99,
        "win_max": c.win_max,
        "ok": c.ok,
        "error": c.error,
        "shed": c.shed,
    })
}

fn value_to_cell(v: &Value) -> Result<CellSummary, GatewayError> {
    Ok(CellSummary {
        model: str_field(v, "model")?.to_string(),
        verb: str_field(v, "verb")?.to_string(),
        stage: str_field(v, "stage")?.to_string(),
        count: u64_field(v, "count")?,
        sum: u64_field(v, "sum")?,
        p50: u64_field(v, "p50")?,
        p90: u64_field(v, "p90")?,
        p99: u64_field(v, "p99")?,
        max: u64_field(v, "max")?,
        win_count: u64_field(v, "win_count")?,
        win_p50: u64_field(v, "win_p50")?,
        win_p90: u64_field(v, "win_p90")?,
        win_p99: u64_field(v, "win_p99")?,
        win_max: u64_field(v, "win_max")?,
        ok: u64_field(v, "ok")?,
        error: u64_field(v, "error")?,
        shed: u64_field(v, "shed")?,
    })
}

/// The `cells` array shared by the `metrics` reply and a pinned
/// incident.
fn cells_to_value(cells: &[CellSummary]) -> Value {
    Value::Array(cells.iter().map(cell_to_value).collect())
}

fn value_to_cells(v: &Value) -> Result<Vec<CellSummary>, GatewayError> {
    field(v, "cells")?
        .as_array()
        .ok_or_else(|| bad("cells is not an array"))?
        .iter()
        .map(value_to_cell)
        .collect()
}

fn metrics_to_value(m: &GatewayMetrics) -> Value {
    json!({
        "ok": true,
        "kind": "metrics",
        "uptime_ms": m.uptime_ms,
        "seq": m.seq,
        "unix_ms": m.unix_ms,
        "window_ms": m.window_ms,
        "cells": cells_to_value(&m.cells),
    })
}

fn value_to_metrics(v: &Value) -> Result<GatewayMetrics, GatewayError> {
    Ok(GatewayMetrics {
        uptime_ms: u64_field(v, "uptime_ms")?,
        seq: u64_field(v, "seq")?,
        unix_ms: u64_field(v, "unix_ms")?,
        window_ms: u64_field(v, "window_ms")?,
        cells: value_to_cells(v)?,
    })
}

/// JSON has no infinity: an unbounded burn rate (zero budget, nonzero
/// measurement) is clamped to `f64::MAX` on the wire.
fn finite_burn(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        f64::MAX
    }
}

fn target_report_to_value(t: &TargetReport) -> Value {
    json!({
        "name": t.name.clone(),
        "status": t.status.as_str(),
        "burn_rate": finite_burn(t.burn_rate),
        "samples": t.samples,
        "p99_us": t.p99_us,
        "error_rate": t.error_rate,
        "shed_rate": t.shed_rate,
    })
}

fn status_field(v: &Value, key: &str) -> Result<SloStatus, GatewayError> {
    let s = str_field(v, key)?;
    SloStatus::parse(s).ok_or_else(|| bad(format!("unknown SLO status {s:?}")))
}

fn value_to_target_report(v: &Value) -> Result<TargetReport, GatewayError> {
    Ok(TargetReport {
        name: str_field(v, "name")?.to_string(),
        status: status_field(v, "status")?,
        burn_rate: f64_field(v, "burn_rate")?,
        samples: u64_field(v, "samples")?,
        p99_us: f64_field(v, "p99_us")?,
        error_rate: f64_field(v, "error_rate")?,
        shed_rate: f64_field(v, "shed_rate")?,
    })
}

fn health_to_value(h: &HealthReport) -> Value {
    json!({
        "ok": true,
        "kind": "health",
        "status": h.status.as_str(),
        "targets": Value::Array(h.targets.iter().map(target_report_to_value).collect()),
    })
}

fn value_to_health(v: &Value) -> Result<HealthReport, GatewayError> {
    Ok(HealthReport {
        status: status_field(v, "status")?,
        targets: field(v, "targets")?
            .as_array()
            .ok_or_else(|| bad("targets is not an array"))?
            .iter()
            .map(value_to_target_report)
            .collect::<Result<Vec<_>, _>>()?,
    })
}

fn span_to_value(s: &SpanSummary) -> Value {
    json!({
        "id": s.id,
        // JSON null marks the root span's absent parent.
        "parent": match s.parent {
            Some(p) => Value::from(p),
            None => Value::Null,
        },
        "stage": s.stage.clone(),
        "start_us": s.start_us,
        "dur_us": s.dur_us,
        "links": Value::Array(s.links.iter().map(|&id| Value::from(id)).collect()),
    })
}

fn value_to_span(v: &Value) -> Result<SpanSummary, GatewayError> {
    let parent = match field(v, "parent")? {
        Value::Null => None,
        other => Some(
            other
                .as_u64()
                .ok_or_else(|| bad("field \"parent\" is not null or a non-negative integer"))?,
        ),
    };
    let links = field(v, "links")?
        .as_array()
        .ok_or_else(|| bad("span links is not an array"))?
        .iter()
        .map(|item| {
            item.as_u64()
                .ok_or_else(|| bad("span link is not a non-negative integer"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SpanSummary {
        id: u64_field(v, "id")?,
        parent,
        stage: str_field(v, "stage")?.to_string(),
        start_us: u64_field(v, "start_us")?,
        dur_us: u64_field(v, "dur_us")?,
        links,
    })
}

fn trace_to_value(t: &TraceSummary) -> Value {
    json!({
        "id": t.id,
        "verb": t.verb.clone(),
        "total_us": t.total_us,
        "unix_ms": t.unix_ms,
        "spans": Value::Array(t.spans.iter().map(span_to_value).collect()),
    })
}

fn value_to_trace(v: &Value) -> Result<TraceSummary, GatewayError> {
    Ok(TraceSummary {
        id: u64_field(v, "id")?,
        verb: str_field(v, "verb")?.to_string(),
        total_us: u64_field(v, "total_us")?,
        unix_ms: u64_field(v, "unix_ms")?,
        spans: field(v, "spans")?
            .as_array()
            .ok_or_else(|| bad("spans is not an array"))?
            .iter()
            .map(value_to_span)
            .collect::<Result<Vec<_>, _>>()?,
    })
}

fn trace_reply_to_value(r: &TraceReply) -> Value {
    json!({
        "ok": true,
        "kind": "trace",
        "traces": Value::Array(r.traces.iter().map(trace_to_value).collect()),
    })
}

fn value_to_trace_reply(v: &Value) -> Result<TraceReply, GatewayError> {
    Ok(TraceReply {
        traces: field(v, "traces")?
            .as_array()
            .ok_or_else(|| bad("traces is not an array"))?
            .iter()
            .map(value_to_trace)
            .collect::<Result<Vec<_>, _>>()?,
    })
}

fn event_to_value(e: &EventSummary) -> Value {
    json!({
        "seq": e.seq,
        "unix_ms": e.unix_ms,
        "severity": e.severity.clone(),
        "kind": e.kind.clone(),
        "detail": e.detail.clone(),
    })
}

fn value_to_event(v: &Value) -> Result<EventSummary, GatewayError> {
    let severity = str_field(v, "severity")?;
    if EventSeverity::parse(severity).is_none() {
        return Err(bad(format!("unknown event severity {severity:?}")));
    }
    Ok(EventSummary {
        seq: u64_field(v, "seq")?,
        unix_ms: u64_field(v, "unix_ms")?,
        severity: severity.to_string(),
        kind: str_field(v, "kind")?.to_string(),
        detail: str_field(v, "detail")?.to_string(),
    })
}

fn events_to_value(events: &[EventSummary]) -> Value {
    Value::Array(events.iter().map(event_to_value).collect())
}

fn value_to_events(v: &Value) -> Result<Vec<EventSummary>, GatewayError> {
    v.as_array()
        .ok_or_else(|| bad("events is not an array"))?
        .iter()
        .map(value_to_event)
        .collect()
}

fn incident_to_value(s: &IncidentSummary) -> Value {
    json!({
        "unix_ms": s.unix_ms,
        "status": s.status.as_str(),
        "events": events_to_value(&s.events),
        "traces": Value::Array(s.traces.iter().map(trace_to_value).collect()),
        "cells": cells_to_value(&s.cells),
    })
}

fn value_to_incident(v: &Value) -> Result<IncidentSummary, GatewayError> {
    Ok(IncidentSummary {
        unix_ms: u64_field(v, "unix_ms")?,
        status: status_field(v, "status")?,
        events: value_to_events(field(v, "events")?)?,
        traces: field(v, "traces")?
            .as_array()
            .ok_or_else(|| bad("traces is not an array"))?
            .iter()
            .map(value_to_trace)
            .collect::<Result<Vec<_>, _>>()?,
        cells: value_to_cells(v)?,
    })
}

fn events_reply_to_value(r: &EventsReply) -> Value {
    json!({
        "ok": true,
        "kind": "events",
        "events": events_to_value(&r.events),
        // JSON null marks "health never flipped".
        "pinned": match &r.pinned {
            Some(incident) => incident_to_value(incident),
            None => Value::Null,
        },
    })
}

fn value_to_events_reply(v: &Value) -> Result<EventsReply, GatewayError> {
    let pinned = match field(v, "pinned")? {
        Value::Null => None,
        other => Some(value_to_incident(other)?),
    };
    Ok(EventsReply {
        events: value_to_events(field(v, "events")?)?,
        pinned,
    })
}

/// Serializes a response to its single-line wire form (no newline).
pub fn encode_response(resp: &Response) -> String {
    let value = match resp {
        Response::Infer(reply) => json!({
            "ok": true,
            "kind": "infer",
            "payload": payload_to_value(&reply.payload),
            "scale": reply.scale,
            "latency_us": reply.latency.as_micros() as u64,
            "shard": reply.shard,
            "cache_hit": reply.cache_hit,
        }),
        Response::SessionOpen(reply) => json!({
            "ok": true,
            "kind": "session_open",
            "session": reply.session,
            "shard": reply.shard,
        }),
        Response::Decode(reply) => json!({
            "ok": true,
            "kind": "decode",
            "hidden": matrix_f32_to_value(&reply.hidden),
            "tokens": reply.tokens,
            "shard": reply.shard,
            "latency_us": reply.latency.as_micros() as u64,
        }),
        Response::SessionClose(reply) => json!({
            "ok": true,
            "kind": "session_close",
            "session": reply.session,
            "tokens": reply.tokens,
        }),
        Response::Stats(stats) => stats_to_value(stats),
        Response::Metrics(metrics) => metrics_to_value(metrics),
        Response::Trace(reply) => trace_reply_to_value(reply),
        Response::Health(report) => health_to_value(report),
        Response::Events(reply) => events_reply_to_value(reply),
        Response::Error { kind, message } => json!({
            "ok": false,
            "error": kind.as_str(),
            "message": message.clone(),
        }),
    };
    serde_json::to_string(&value).expect("shim serializer never fails")
}

/// Parses one response line.
///
/// # Errors
///
/// [`GatewayError::Protocol`] on malformed JSON or an unknown response
/// kind.
pub fn decode_response(line: &str) -> Result<Response, GatewayError> {
    let v = serde_json::from_str(line.trim()).map_err(|e| bad(format!("invalid JSON: {e}")))?;
    let ok = field(&v, "ok")?
        .as_bool()
        .ok_or_else(|| bad("field \"ok\" is not a boolean"))?;
    if !ok {
        return Ok(Response::Error {
            kind: ErrorKind::from_str(str_field(&v, "error")?),
            message: str_field(&v, "message")?.to_string(),
        });
    }
    match str_field(&v, "kind")? {
        "infer" => Ok(Response::Infer(InferReply {
            payload: value_to_payload(field(&v, "payload")?)?,
            scale: f64_field(&v, "scale")?,
            latency: Duration::from_micros(u64_field(&v, "latency_us")?),
            shard: usize_field(&v, "shard")?,
            cache_hit: field(&v, "cache_hit")?
                .as_bool()
                .ok_or_else(|| bad("field \"cache_hit\" is not a boolean"))?,
        })),
        "session_open" => Ok(Response::SessionOpen(SessionOpenReply {
            session: u64_field(&v, "session")?,
            shard: usize_field(&v, "shard")?,
        })),
        "decode" => Ok(Response::Decode(DecodeReply {
            hidden: value_to_matrix_f32(field(&v, "hidden")?)?,
            tokens: usize_field(&v, "tokens")?,
            shard: usize_field(&v, "shard")?,
            latency: Duration::from_micros(u64_field(&v, "latency_us")?),
        })),
        "session_close" => Ok(Response::SessionClose(SessionCloseReply {
            session: u64_field(&v, "session")?,
            tokens: usize_field(&v, "tokens")?,
        })),
        "stats" => Ok(Response::Stats(value_to_stats(&v)?)),
        "metrics" => Ok(Response::Metrics(value_to_metrics(&v)?)),
        "trace" => Ok(Response::Trace(value_to_trace_reply(&v)?)),
        "health" => Ok(Response::Health(value_to_health(&v)?)),
        "events" => Ok(Response::Events(value_to_events_reply(&v)?)),
        other => Err(bad(format!("unknown response kind {other:?}"))),
    }
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
                // A large but f64-exact id: JSON numbers are f64, and
                // session ids are sequential from 1, so every real id
                // is exactly representable on the wire.
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

    #[test]
    fn stats_response_round_trips() {
        let resp = Response::Stats(GatewayStats {
            shards: vec![
                ShardStats {
                    requests: 10,
                    batches: 3,
                    columns: 40,
                    padded_cols: 2,
                    padding_overhead: 2.0 / 42.0,
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
                },
                ShardStats::default(),
            ],
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
        });
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
}
