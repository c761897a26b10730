//! Sample messages the wire suites share: one request per verb shape
//! and one response per kind, with strings that need escaping and
//! numbers past `f64`'s integers. Positions are part of the contract —
//! the suites index into these lists.
#![allow(dead_code)]

use std::time::Duration;

use panacea_gateway::protocol::{
    DecodeReply, ErrorKind, InferReply, SessionCloseReply, SessionOpenReply,
};
use panacea_gateway::testutil::models;
use panacea_gateway::{
    CellSummary, EventSummary, EventsReply, Gateway, GatewayConfig, GatewayMetrics, HealthReport,
    IncidentSummary, Payload, Request, Response, SloStatus, SpanSummary, TargetReport, TraceKind,
    TraceReply, TraceSummary,
};
use panacea_tensor::Matrix;

pub fn codes() -> Matrix<i32> {
    Matrix::from_fn(3, 2, |r, c| (r as i32 - 1) * 100 + c as i32)
}

pub fn hidden() -> Matrix<f32> {
    let cells = vec![0.1f32, -0.0, f32::MIN_POSITIVE, -1.5e-38, 3.0, 16_777_216.0];
    Matrix::from_vec(2, 3, cells).unwrap()
}

pub fn cell() -> CellSummary {
    CellSummary {
        model: "m".to_string(),
        verb: "infer".to_string(),
        stage: "request".to_string(),
        count: 40,
        sum: 4_000,
        p50: 90,
        p90: 180,
        p99: 400,
        max: 417,
        win_count: 20,
        win_p50: 80,
        win_p90: 170,
        win_p99: 390,
        win_max: 401,
        ok: 38,
        error: 1,
        shed: 1,
    }
}

pub fn trace() -> TraceSummary {
    let span = |id, parent, links| SpanSummary {
        id,
        parent,
        stage: "de\"co\\de\n".to_string(),
        start_us: 10 * id,
        dur_us: 1_234,
        links,
    };
    TraceSummary {
        id: 7,
        verb: "decode".to_string(),
        total_us: 1_234,
        unix_ms: 1_700_000_000_123,
        spans: vec![span(0, None, vec![3, 9]), span(1, Some(0), vec![])],
    }
}

pub fn event() -> EventSummary {
    EventSummary {
        seq: 41,
        unix_ms: 1_700_000_000_456,
        severity: "warn".to_string(),
        kind: "shed".to_string(),
        detail: "reason=in_flight\tmodel=\u{1}m😀".to_string(),
    }
}

pub fn health(burn_rate: f64) -> HealthReport {
    HealthReport {
        status: SloStatus::Critical,
        targets: vec![TargetReport {
            name: "none-allowed".to_string(),
            status: SloStatus::Critical,
            burn_rate,
            samples: 1,
            p99_us: 1_500.0,
            error_rate: 0.05,
            shed_rate: 1.0,
        }],
    }
}

/// One request per verb shape, in [`VERBS`] order.
pub fn requests() -> Vec<Request> {
    vec![
        Request::Infer {
            model: "m".to_string(),
            payload: Payload::Codes(codes()),
            deadline_ms: Some(250),
        },
        Request::Infer {
            model: "m".to_string(),
            payload: Payload::Hidden(hidden()),
            deadline_ms: None,
        },
        Request::InferF32 {
            model: "quo\"te".to_string(),
            input: hidden(),
            deadline_ms: Some(u64::MAX),
        },
        Request::SessionOpen {
            model: "m".to_string(),
        },
        Request::Decode {
            session: (1 << 53) + 1,
            hidden: hidden(),
            deadline_ms: Some(1),
        },
        Request::SessionClose { session: 7 },
        Request::Stats,
        Request::Metrics,
        Request::Trace {
            limit: 3,
            kind: TraceKind::Recent,
        },
        Request::Health,
        Request::Events { limit: 9 },
    ]
}

pub const VERBS: [&str; 11] = [
    "infer",
    "infer",
    "infer",
    "session_open",
    "decode",
    "session_close",
    "stats",
    "metrics",
    "trace",
    "health",
    "events",
];

/// One successful response per kind (`events` twice: with and without
/// a pinned incident), in [`KINDS`] order.
pub fn responses() -> Vec<Response> {
    let gateway = Gateway::new(models(&["m"], 3), GatewayConfig::default());
    vec![
        Response::Infer(InferReply {
            payload: Payload::Codes(codes()),
            scale: 1.25e-3,
            latency: Duration::from_micros(417),
            shard: 1,
            cache_hit: true,
        }),
        Response::SessionOpen(SessionOpenReply {
            session: 42,
            shard: 1,
        }),
        Response::Decode(DecodeReply {
            hidden: hidden(),
            tokens: 17,
            shard: 0,
            latency: Duration::from_micros(88),
        }),
        Response::SessionClose(SessionCloseReply {
            session: 42,
            tokens: 17,
        }),
        Response::Stats(gateway.stats()),
        Response::Metrics(GatewayMetrics {
            uptime_ms: 5_000,
            seq: 3,
            unix_ms: 1_700_000_000_000,
            window_ms: 10_000,
            cells: vec![cell(), cell()],
        }),
        Response::Trace(TraceReply {
            traces: vec![trace()],
        }),
        Response::Health(health(1.5)),
        Response::Events(EventsReply {
            events: vec![event()],
            pinned: Some(IncidentSummary {
                unix_ms: 1_700_000_000_400,
                status: SloStatus::Degraded,
                events: vec![event()],
                traces: vec![trace()],
                cells: vec![cell()],
            }),
        }),
        Response::Events(EventsReply::default()),
    ]
}

pub const KINDS: [&str; 10] = [
    "infer",
    "session_open",
    "decode",
    "session_close",
    "stats",
    "metrics",
    "trace",
    "health",
    "events",
    "events",
];

pub fn error_response() -> Response {
    Response::Error {
        kind: ErrorKind::DeadlineExceeded,
        message: "too \"late\"".to_string(),
    }
}
