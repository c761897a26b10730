//! Sample messages the wire suites share: one request per verb shape
//! and one response per kind, with strings that need escaping and
//! numbers past `f64`'s integers. Positions are part of the contract —
//! the suites index into these lists. Also the `f32` sweep the float
//! suites walk.
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

/// Every `stride`-th `f32` bit pattern that is finite — with a stride
/// below 2^23 every exponent is visited, subnormals included — plus
/// the values a codec is most likely to get wrong.
pub fn finite_f32s(stride: u32) -> impl Iterator<Item = f32> {
    let edges = [
        0.0f32,
        -0.0,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::from_bits(1),
        f32::from_bits(0x007f_ffff),
        f32::MAX,
        f32::MIN,
        f32::EPSILON,
        16_777_216.0,
        16_777_218.0,
        0.1,
        1e-5,
        1e16,
        // Where `{:?}` switches between decimal and exponent form, and
        // a shortest spelling that is an exact tie (`…625`).
        1e-4,
        f32::from_bits(1e-4f32.to_bits() - 1),
        f32::from_bits(1e16f32.to_bits() - 1),
        1.0 / 4096.0,
    ];
    (0..=u32::MAX / stride)
        .map(move |i| f32::from_bits(i * stride))
        .chain(edges)
        .filter(|v| v.is_finite())
}

/// SplitMix64: a suite driven by it is a function of its seeds.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// A number token made to find a float reader's edges: 1–25 digits,
/// leading zeros, a point anywhere (or trailing), an exponent to ±50
/// in any case and sign form — and now and then a shape
/// `str::parse::<f32>` refuses (`1e`, `1.-5`, `-e3`) or a number
/// field's first-byte rule does (`.5`, `+1`, `e3`).
pub fn float_token(rng: &mut Rng) -> String {
    let mut token = String::new();
    if rng.below(2) == 0 {
        token.push('-');
    }
    let digits = 1 + rng.below(25);
    let zeros = rng.below(5) * rng.below(5);
    let point = rng.below(digits + 2);
    for i in 0..digits {
        if i == point && i > 0 {
            token.push('.');
        }
        let digit = if i < zeros { 0 } else { rng.below(10) };
        token.push(char::from(b'0' + digit as u8));
    }
    if point == digits {
        token.push('.');
    }
    if rng.below(3) > 0 {
        token.push(if rng.below(4) == 0 { 'E' } else { 'e' });
        match rng.below(3) {
            0 => token.push('-'),
            1 => token.push('+'),
            _ => {}
        }
        if rng.below(16) != 0 {
            token.push_str(&rng.below(51).to_string());
        }
    }
    if rng.below(16) == 0 {
        let at = rng.below(token.len() + 1);
        token.insert(at, ['-', '+', '.', 'e'][rng.below(4)]);
    }
    token
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
