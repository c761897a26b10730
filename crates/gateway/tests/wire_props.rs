//! Property tests for the `metrics` and `trace` wire verbs: arbitrary
//! structured replies survive the line-delimited JSON round trip
//! exactly, and mutilated lines (dropped fields) error cleanly instead
//! of decoding into something else.

use panacea_gateway::protocol::{decode_request, decode_response, encode_request, encode_response};
use panacea_gateway::{
    CellSummary, EventSummary, EventsReply, GatewayMetrics, HealthReport, IncidentSummary, Request,
    Response, SloStatus, SpanSummary, TargetReport, TraceKind, TraceReply, TraceSummary,
};
use proptest::prelude::*;

/// Span stage tags the trace round trips draw from.
const STAGE_NAMES: &[&str] = &[
    "cache_probe",
    "admission_wait",
    "route",
    "execute",
    "queue_wait",
    "batch_form",
    "split_back",
    "decode_pass",
];

/// Builds one cell summary from raw u64s. Values stay below the wire
/// format's 9e15 integral bound (JSON numbers are f64) — the same
/// bound the real histograms' nanosecond samples respect for any
/// practical uptime.
fn cell(i: usize, vals: &[u64]) -> CellSummary {
    let v = |j: usize| vals[(i * 14 + j) % vals.len()] % 9_000_000_000_000_000;
    CellSummary {
        model: ["-", "model-1", "model-2"][i % 3].to_string(),
        verb: ["infer", "decode", "batch", "block", "gateway", "conn"][i % 6].to_string(),
        stage: ["request", "execute", "step", "occupancy", "qkv"][(i / 3) % 5].to_string(),
        count: v(0),
        sum: v(1),
        p50: v(2),
        p90: v(3),
        p99: v(4),
        max: v(5),
        win_count: v(6),
        win_p50: v(7),
        win_p90: v(8),
        win_p99: v(9),
        win_max: v(10),
        ok: v(11),
        error: v(12),
        shed: v(13),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn metrics_responses_round_trip(
        vals in proptest::collection::vec(0u64..u64::MAX, 6..48),
        cell_count in 0usize..40,
        uptime_ms in 0u64..9_000_000_000_000_000,
        seq in 0u64..9_000_000_000_000_000,
    ) {
        let resp = Response::Metrics(GatewayMetrics {
            uptime_ms,
            seq,
            unix_ms: uptime_ms / 3,
            window_ms: uptime_ms / 2,
            cells: (0..cell_count).map(|i| cell(i, &vals)).collect(),
        });
        let line = encode_response(&resp);
        prop_assert!(!line.contains('\n'));
        prop_assert_eq!(decode_response(&line).unwrap(), resp);
    }

    #[test]
    fn health_responses_round_trip(
        target_count in 0usize..5,
        // The vendored proptest only samples integer ranges; floats are
        // derived by scaling, which also keeps them exactly
        // representable so the wire round trip is equality-comparable.
        burns in proptest::collection::vec(0u64..10_000, 5),
        rates in proptest::collection::vec(0u64..1_000, 10),
        samples in proptest::collection::vec(0u64..9_000_000_000_000_000, 5),
    ) {
        let statuses = [SloStatus::Ok, SloStatus::Degraded, SloStatus::Critical];
        let targets: Vec<TargetReport> = (0..target_count)
            .map(|i| TargetReport {
                name: format!("target-{i}"),
                status: statuses[i % 3],
                burn_rate: burns[i] as f64 / 100.0,
                samples: samples[i],
                p99_us: burns[(i + 1) % 5] as f64 * 1_000.0,
                error_rate: rates[i] as f64 / 1_000.0,
                shed_rate: rates[i + 5] as f64 / 1_000.0,
            })
            .collect();
        let status = targets.iter().map(|t| t.status).max().unwrap_or(SloStatus::Ok);
        let resp = Response::Health(HealthReport { status, targets });
        let line = encode_response(&resp);
        prop_assert!(!line.contains('\n'));
        prop_assert_eq!(decode_response(&line).unwrap(), resp);
    }

    #[test]
    fn trace_responses_round_trip(
        vals in proptest::collection::vec(0u64..9_000_000_000_000_000, 4..64),
        trace_count in 0usize..4,
        span_count in 1usize..12,
    ) {
        let traces = (0..trace_count)
            .map(|t| {
                let v = |j: usize| vals[(t * 13 + j) % vals.len()];
                let spans = (0..span_count)
                    .map(|i| SpanSummary {
                        id: i as u64,
                        // Root has no parent; every other span points at
                        // an arbitrary earlier span, like real traces.
                        parent: (i > 0).then(|| v(i) % i as u64),
                        stage: STAGE_NAMES[(t + i) % STAGE_NAMES.len()].to_string(),
                        start_us: v(i + 1),
                        dur_us: v(i + 2),
                        // Fused spans link other traces; most link none.
                        links: (0..(i % 3)).map(|l| v(i + l + 3)).collect(),
                    })
                    .collect();
                TraceSummary {
                    id: v(0),
                    verb: ["infer", "decode", "session_open"][t % 3].to_string(),
                    total_us: v(1),
                    unix_ms: v(2),
                    spans,
                }
            })
            .collect();
        let resp = Response::Trace(TraceReply { traces });
        prop_assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
    }

    #[test]
    fn metrics_and_trace_requests_round_trip(
        limit in 0usize..9_000_000_000_000_000,
        recent in 0u8..2,
    ) {
        let kind = if recent == 1 { TraceKind::Recent } else { TraceKind::Slow };
        let req = Request::Trace { limit, kind };
        prop_assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        prop_assert_eq!(
            decode_request(&encode_request(&Request::Metrics)).unwrap(),
            Request::Metrics
        );
        prop_assert_eq!(
            decode_request(&encode_request(&Request::Health)).unwrap(),
            Request::Health
        );
        let req = Request::Events { limit };
        prop_assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
    }

    #[test]
    fn events_responses_round_trip(
        vals in proptest::collection::vec(0u64..9_000_000_000_000_000, 4..32),
        event_count in 0usize..6,
        with_pinned in 0u8..2,
    ) {
        let event = |i: usize| EventSummary {
            seq: vals[i % vals.len()],
            unix_ms: vals[(i + 1) % vals.len()],
            severity: ["info", "warn", "error"][i % 3].to_string(),
            kind: ["session_open", "shed", "health_transition", "batch_formed"][i % 4]
                .to_string(),
            detail: format!("detail-{i}"),
        };
        let events: Vec<EventSummary> = (0..event_count).map(event).collect();
        let pinned = (with_pinned == 1).then(|| IncidentSummary {
            unix_ms: vals[0],
            status: [SloStatus::Degraded, SloStatus::Critical][(vals[1] % 2) as usize],
            events: events.clone(),
            traces: vec![TraceSummary {
                id: vals[2],
                verb: "decode".to_string(),
                total_us: vals[3],
                unix_ms: vals[0],
                spans: vec![SpanSummary {
                    id: 0,
                    parent: None,
                    stage: "decode".to_string(),
                    start_us: 0,
                    dur_us: vals[3],
                    links: vec![],
                }],
            }],
            cells: (0..2).map(|i| cell(i, &vals)).collect(),
        });
        let resp = Response::Events(EventsReply { events, pinned });
        let line = encode_response(&resp);
        prop_assert!(!line.contains('\n'));
        prop_assert_eq!(decode_response(&line).unwrap(), resp);
    }
}

/// Dropping any single required field from a valid `metrics` or `trace`
/// response line must yield a clean protocol error, never a mangled
/// decode. Field removal is done by renaming the key, which preserves
/// JSON validity, so the failure is always "missing field", not a parse
/// error — the strict-decoder path under test.
#[test]
fn dropping_any_required_field_errors_cleanly() {
    let metrics = Response::Metrics(GatewayMetrics {
        uptime_ms: 12,
        seq: 3,
        unix_ms: 1_700_000_000_000,
        window_ms: 10_000,
        cells: vec![cell(0, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14])],
    });
    let trace = Response::Trace(TraceReply {
        traces: vec![TraceSummary {
            id: 1,
            verb: "infer".to_string(),
            total_us: 9,
            unix_ms: 1_700_000_000_000,
            spans: vec![SpanSummary {
                id: 0,
                parent: None,
                stage: "infer".to_string(),
                start_us: 0,
                dur_us: 9,
                links: vec![2],
            }],
        }],
    });
    let health = Response::Health(HealthReport {
        status: SloStatus::Degraded,
        targets: vec![TargetReport {
            name: "p99".to_string(),
            status: SloStatus::Degraded,
            burn_rate: 1.5,
            samples: 40,
            p99_us: 1_200.0,
            error_rate: 0.01,
            shed_rate: 0.0,
        }],
    });
    let events = Response::Events(EventsReply {
        events: vec![EventSummary {
            seq: 7,
            unix_ms: 1_700_000_000_001,
            severity: "warn".to_string(),
            kind: "shed".to_string(),
            detail: "reason=in_flight model=m verb=infer".to_string(),
        }],
        pinned: Some(IncidentSummary {
            unix_ms: 1_700_000_000_000,
            status: SloStatus::Degraded,
            events: vec![],
            traces: vec![],
            cells: vec![],
        }),
    });
    for resp in [metrics, trace, health, events] {
        let line = encode_response(&resp);
        assert_eq!(
            decode_response(&line).unwrap(),
            resp,
            "baseline must decode"
        );
        for key in [
            "uptime_ms",
            "seq",
            "window_ms",
            "cells",
            "stage",
            "count",
            "sum",
            "p50",
            "p90",
            "p99",
            "max",
            "traces",
            "verb",
            "total_us",
            "spans",
            "parent",
            "start_us",
            "dur_us",
            "model",
            "win_count",
            "win_p50",
            "win_p90",
            "win_p99",
            "win_max",
            "p99_us",
            "ok",
            "error",
            "shed",
            "status",
            "targets",
            "name",
            "burn_rate",
            "samples",
            "error_rate",
            "shed_rate",
            "unix_ms",
            "links",
            "events",
            "pinned",
            "seq",
            "severity",
            "detail",
        ] {
            let needle = format!("\"{key}\":");
            if !line.contains(&needle) {
                continue; // key not part of this response kind
            }
            let mangled = line.replacen(&needle, &format!("\"_{key}\":"), 1);
            let err = decode_response(&mangled)
                .expect_err(&format!("decoded without required field {key:?}"));
            assert!(
                err.to_string().contains("missing field"),
                "wrong error for dropped {key:?}: {err}"
            );
        }
    }
}
