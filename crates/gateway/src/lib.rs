//! `panacea-gateway` — the sharded network front-end over
//! [`panacea_serve`].
//!
//! `panacea-serve` batches requests inside one process; this crate turns
//! it into a deployable service reachable over TCP:
//!
//! ```text
//!  client ──line-delimited JSON──▶ GatewayServer
//!                                     │ decode, resolve, quantize
//!                                     ▼
//!                               RequestCache ──hit──▶ reply (no GEMM)
//!                                     │ miss
//!                                     ▼
//!                             AdmissionController ──full──▶ Overloaded
//!                                     │ admitted
//!                                     ▼
//!                     ShardRouter (rendezvous hash + least load)
//!                       │                │
//!                   Shard #0 …       Shard #N-1   (panacea-serve Runtime
//!                                                  + SessionManager)
//! ```
//!
//! * [`ShardRouter`] owns N independent shards — each a
//!   [`Runtime`](panacea_serve::Runtime) and a
//!   [`SessionManager`](panacea_serve::SessionManager) counting into one
//!   [`ShardCounters`](panacea_serve::ShardCounters) block, whose
//!   snapshot is the shard's `stats` entry — resolving models through
//!   one shared registry (one preparation, one copy of the sliced
//!   weights). Requests route by rendezvous hashing on the model name,
//!   tie-broken toward the emptier queue so hot models spread out.
//! * [`RequestCache`] is one LRU, bounded by the bytes it holds
//!   ([`CacheConfig::max_bytes`]), keyed by the model's unique
//!   instance id (so re-registering a name never replays the old
//!   model's outputs) and the typed request payload; hits are
//!   bit-exact replays (full key equality, never digest-only) that skip
//!   the AQS-GEMM pipeline entirely.
//! * [`AdmissionController`] bounds simultaneous in-flight requests and
//!   per-request queue wait, shedding the excess with explicit
//!   [`ServeError::Overloaded`] rejections instead of queueing without
//!   limit. Admission counts the sheds it decides; each shard's counter
//!   block counts its session manager's `kv_budget` sheds; `stats`
//!   reports both.
//! * [`GatewayServer`] / [`GatewayClient`] speak a line-delimited JSON
//!   protocol over blocking TCP — std only, written and read by the
//!   crate's own typed codec (no value tree). One typed `infer` verb
//!   serves both model kinds (the payload carries its domain), and the
//!   `session_open` / `decode` / `session_close` verbs drive stateful
//!   KV-cached decode: a session pins to the shard holding its KV
//!   state, and decode steps bypass the request cache entirely (their
//!   output depends on session state, not just the payload).

pub mod admission;
pub mod cache;
pub mod client;
pub mod protocol;
pub mod router;
pub mod server;
#[doc(hidden)]
pub mod testutil;
mod wire;

use std::fmt;

use panacea_serve::ServeError;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionPermit, AdmissionStats};
pub use cache::{CacheConfig, CacheStats, CachedOutput, RequestCache};
pub use client::{ClientConfig, GatewayClient};
pub use panacea_netcore::{ConnectionCounters, ConnectionStats};
pub use panacea_serve::{OverloadReason, Payload, PayloadKind, SessionConfig};
pub use panacea_telemetry::{
    unix_ms_now, CellSummary, Event, EventSeverity, FlightRecorder, HealthReport, IncidentSnapshot,
    MetricKey, MetricRegistry, PrometheusText, SloConfig, SloStatus, SloTarget, TargetReport,
    TraceConfig, TraceContext, Tracer, WINDOW_SPAN,
};
pub use protocol::{
    DecodeReply, ErrorKind, EventSummary, EventsReply, GatewayMetrics, GatewayStats,
    IncidentSummary, InferReply, Request, Response, SessionCloseReply, SessionOpenReply,
    ShardStats, ShedStats, SpanSummary, TraceKind, TraceReply, TraceSummary,
};
pub use router::ShardRouter;
pub use server::{Gateway, GatewayConfig, GatewayServer, ServerConfig};

/// Errors surfaced by the gateway layer (client or server side).
#[derive(Debug)]
pub enum GatewayError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// A wire message could not be encoded or decoded.
    Protocol(String),
    /// The server answered with an error response.
    Remote {
        /// Machine-readable error category from the wire.
        kind: ErrorKind,
        /// Human-readable message from the server.
        message: String,
    },
    /// A serving-layer failure when driving an in-process [`Gateway`].
    Serve(ServeError),
}

impl GatewayError {
    /// Whether this error is an admission-control rejection — the one
    /// category callers are expected to retry after backing off.
    pub fn is_overloaded(&self) -> bool {
        match self {
            GatewayError::Remote { kind, .. } => *kind == ErrorKind::Overloaded,
            GatewayError::Serve(ServeError::Overloaded { .. }) => true,
            _ => false,
        }
    }
}

impl fmt::Display for GatewayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GatewayError::Io(e) => write!(f, "i/o failure: {e}"),
            GatewayError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            GatewayError::Remote { kind, message } => {
                write!(f, "server rejected request ({kind}): {message}")
            }
            GatewayError::Serve(e) => write!(f, "serving failure: {e}"),
        }
    }
}

impl std::error::Error for GatewayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GatewayError::Io(e) => Some(e),
            GatewayError::Serve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GatewayError {
    fn from(e: std::io::Error) -> Self {
        GatewayError::Io(e)
    }
}

impl From<ServeError> for GatewayError {
    fn from(e: ServeError) -> Self {
        GatewayError::Serve(e)
    }
}
