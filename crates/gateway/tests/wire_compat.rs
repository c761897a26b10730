//! What the wire codec owes its peers, held from outside the crate:
//! `f32` cells are bit-exact in the new short spelling and in the
//! `f64`-expanded one older encoders emit; lines in the old encoder's
//! (alphabetical) key order decode to the same messages as the new
//! encoder's; and every line the encoder emits is JSON an independent
//! parser accepts, with the fields where a scraper expects them.

mod common;

use std::time::Duration;

use common::{codes as fixture_codes, finite_f32s, hidden as fixture_hidden};
use panacea_gateway::protocol::{
    decode_request, decode_response, encode_request, encode_response, DecodeReply, ErrorKind,
    InferReply,
};
use panacea_gateway::testutil::models;
use panacea_gateway::{Gateway, GatewayConfig, Payload, Request, Response};
use panacea_tensor::Matrix;
use serde_json::Value;

fn decoded_hidden(line: &str) -> Matrix<f32> {
    match decode_request(line).expect("sweep line decodes") {
        Request::Decode { hidden, .. } => hidden,
        other => panic!("wrong verb: {other:?}"),
    }
}

#[test]
fn f32_cells_are_bit_exact_in_the_short_and_the_f64_expanded_spelling() {
    let values: Vec<f32> = finite_f32s(4093).collect();
    assert!(
        values.len() >= 1_000_000,
        "sweep too thin: {}",
        values.len()
    );
    let (mut short_bytes, mut expanded_bytes) = (0, 0);
    for chunk in values.chunks(8192) {
        let hidden = Matrix::from_vec(1, chunk.len(), chunk.to_vec()).unwrap();
        let short = encode_request(&Request::Decode {
            session: 1,
            hidden,
            deadline_ms: None,
        });
        // What the `Value`-tree encoder wrote: each cell widened to
        // `f64` and printed to that width, keys in alphabetical order.
        let expanded: Vec<String> = chunk
            .iter()
            .map(|&v| serde_json::to_string(&Value::from(v)).unwrap())
            .collect();
        let expanded = format!(
            "{{\"hidden\":{{\"cols\":{},\"data\":[{}],\"rows\":1}},\"session\":1,\"verb\":\"decode\"}}",
            chunk.len(),
            expanded.join(",")
        );
        short_bytes += short.len();
        expanded_bytes += expanded.len();
        for line in [&short, &expanded] {
            let back = decoded_hidden(line);
            for (sent, got) in chunk.iter().zip(back.iter()) {
                assert_eq!(
                    sent.to_bits(),
                    got.to_bits(),
                    "{sent:e} ({:#010x}) came back as {got:e}",
                    sent.to_bits()
                );
            }
        }
    }
    assert!(
        2 * short_bytes < expanded_bytes,
        "short spelling took {short_bytes} bytes against {expanded_bytes}"
    );
}

/// Lines exactly as the previous encoder wrote them (its map sorted
/// keys, so `data` precedes `kind` / `rows` and the verb comes last).
#[test]
fn lines_in_the_previous_key_order_decode_to_the_same_messages() {
    const HIDDEN: &str = "{\"cols\":3,\"data\":[0.10000000149011612,-0.0,\
        0.000000000000000000000000000000000000011754943508222875,\
        -0.00000000000000000000000000000000000001500000042698307,3,16777216],";
    let requests = [
        (
            "{\"deadline_ms\":250,\"model\":\"block0.fc2\",\"payload\":{\"cols\":2,\"data\":[-100,-99,0,1,100,101],\"kind\":\"codes\",\"rows\":3},\"verb\":\"infer\"}".to_string(),
            Request::Infer {
                model: "block0.fc2".to_string(),
                payload: Payload::Codes(fixture_codes()),
                deadline_ms: Some(250),
            },
        ),
        (
            format!("{{\"model\":\"decoder\",\"payload\":{HIDDEN}\"kind\":\"hidden\",\"rows\":2}},\"verb\":\"infer\"}}"),
            Request::Infer {
                model: "decoder".to_string(),
                payload: Payload::Hidden(fixture_hidden()),
                deadline_ms: None,
            },
        ),
        (
            format!("{{\"deadline_ms\":1,\"input\":{HIDDEN}\"rows\":2}},\"model\":\"m\",\"verb\":\"infer\"}}"),
            Request::InferF32 {
                model: "m".to_string(),
                input: fixture_hidden(),
                deadline_ms: Some(1),
            },
        ),
        (
            format!("{{\"hidden\":{HIDDEN}\"rows\":2}},\"session\":7,\"verb\":\"decode\"}}"),
            Request::Decode {
                session: 7,
                hidden: fixture_hidden(),
                deadline_ms: None,
            },
        ),
    ];
    for (old_line, want) in requests {
        let got = decode_request(&old_line).expect("old-order request decodes");
        assert_eq!(got, want, "{old_line}");
        assert_eq!(decode_request(&encode_request(&want)).unwrap(), got);
        // `-0.0` compares equal to `0.0`: hold the bits too.
        if let Request::Decode { hidden, .. } = &got {
            assert!(hidden.as_slice()[1].is_sign_negative());
        }
    }
    let responses = [
        (
            "{\"cache_hit\":true,\"kind\":\"infer\",\"latency_us\":417,\"ok\":true,\"payload\":{\"cols\":2,\"data\":[-100,-99,0,1,100,101],\"kind\":\"codes\",\"rows\":3},\"scale\":0.00125,\"shard\":1}".to_string(),
            Response::Infer(InferReply {
                payload: Payload::Codes(fixture_codes()),
                scale: 1.25e-3,
                latency: Duration::from_micros(417),
                shard: 1,
                cache_hit: true,
            }),
        ),
        (
            format!("{{\"cache_hit\":false,\"kind\":\"infer\",\"latency_us\":99,\"ok\":true,\"payload\":{HIDDEN}\"kind\":\"hidden\",\"rows\":2}},\"scale\":1,\"shard\":0}}"),
            Response::Infer(InferReply {
                payload: Payload::Hidden(fixture_hidden()),
                scale: 1.0,
                latency: Duration::from_micros(99),
                shard: 0,
                cache_hit: false,
            }),
        ),
        (
            format!("{{\"hidden\":{HIDDEN}\"rows\":2}},\"kind\":\"decode\",\"latency_us\":88,\"ok\":true,\"shard\":0,\"tokens\":17}}"),
            Response::Decode(DecodeReply {
                hidden: fixture_hidden(),
                tokens: 17,
                shard: 0,
                latency: Duration::from_micros(88),
            }),
        ),
        (
            "{\"error\":\"overloaded\",\"message\":\"nope\",\"ok\":false}".to_string(),
            Response::Error {
                kind: ErrorKind::Overloaded,
                message: "nope".to_string(),
            },
        ),
    ];
    for (old_line, want) in responses {
        let got = decode_response(&old_line).expect("old-order response decodes");
        assert_eq!(got, want, "{old_line}");
        assert_eq!(decode_response(&encode_response(&want)).unwrap(), got);
    }
}

/// Parses under the vendored `serde_json` — a second implementation of
/// the grammar that shares no code with the gateway's writer.
fn parsed(line: &str) -> Value {
    assert!(!line.contains('\n'), "a line holds a newline: {line}");
    serde_json::from_str(line).unwrap_or_else(|e| panic!("not JSON ({e}): {line}"))
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no string {key:?} in {v:?}"))
}

fn uint(v: &Value, key: &str) -> u64 {
    v.get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("no integer {key:?} in {v:?}"))
}

#[test]
fn every_emitted_line_is_json_an_independent_parser_accepts() {
    let requests = common::requests();
    for (req, verb) in requests.iter().zip(common::VERBS) {
        let v = parsed(&encode_request(req));
        assert_eq!(text(&v, "verb"), verb);
    }
    let v = parsed(&encode_request(&requests[0]));
    assert_eq!(uint(&v, "deadline_ms"), 250);
    let payload = v.get("payload").expect("payload");
    assert_eq!(text(payload, "kind"), "codes");
    assert_eq!((uint(payload, "rows"), uint(payload, "cols")), (3, 2));
    let data = payload.get("data").and_then(Value::as_array).expect("data");
    assert_eq!(data[0].as_i64(), Some(-100));
    assert_eq!(
        text(&parsed(&encode_request(&requests[2])), "model"),
        "quo\"te"
    );
    let v = parsed(&encode_request(&requests[4]));
    let cells = v.get("hidden").and_then(|h| h.get("data"));
    // The short spelling names the `f32`, not its `f64` expansion.
    let cells = cells.and_then(Value::as_array).expect("cells");
    assert_eq!(cells[0].as_f64(), Some(0.1));

    let responses = common::responses();
    for (resp, kind) in responses.iter().zip(common::KINDS) {
        let line = encode_response(resp);
        let v = parsed(&line);
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{line}");
        assert_eq!(text(&v, "kind"), kind);
        assert_eq!(&decode_response(&line).unwrap(), resp);
    }
    let v = parsed(&encode_response(&responses[0]));
    assert_eq!(uint(&v, "latency_us"), 417);
    assert_eq!(v.get("scale").and_then(Value::as_f64), Some(1.25e-3));
    assert_eq!(v.get("cache_hit"), Some(&Value::Bool(true)));
    let v = parsed(&encode_response(&responses[4]));
    let shards = v.get("shards").and_then(Value::as_array);
    assert_eq!(shards.map(Vec::len), Some(2));
    assert_eq!(uint(v.get("cache").expect("cache"), "hits"), 0);
    let v = parsed(&encode_response(&responses[6]));
    let trace = &v.get("traces").and_then(Value::as_array).expect("traces")[0];
    let span = &trace.get("spans").and_then(Value::as_array).expect("spans")[0];
    assert_eq!(span.get("parent"), Some(&Value::Null));
    assert_eq!(text(span, "stage"), "de\"co\\de\n");
    // JSON has no infinity: an unbounded burn rate is still a number.
    let v = parsed(&encode_response(&Response::Health(common::health(
        f64::INFINITY,
    ))));
    let target = &v.get("targets").and_then(Value::as_array).expect("targets")[0];
    assert!(target.get("burn_rate").and_then(Value::as_f64) > Some(1e300));
    let v = parsed(&encode_response(&responses[8]));
    let pinned = v.get("pinned").expect("pinned");
    assert_eq!(text(pinned, "status"), "degraded");
    let events = pinned.get("events").and_then(Value::as_array);
    let detail = text(&events.expect("events")[0], "detail");
    assert_eq!(detail, "reason=in_flight\tmodel=\u{1}m😀");
    let v = parsed(&encode_response(&responses[9]));
    assert_eq!(v.get("pinned"), Some(&Value::Null));

    let v = parsed(&encode_response(&common::error_response()));
    assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(text(&v, "error"), "deadline_exceeded");
    assert_eq!(text(&v, "message"), "too \"late\"");

    // The JSONL exporter's line is the `metrics` reply line.
    let gateway = Gateway::new(models(&["m"], 3), GatewayConfig::default());
    let v = parsed(&gateway.metrics_jsonl());
    assert_eq!(text(&v, "kind"), "metrics");
    assert!(v.get("cells").and_then(Value::as_array).is_some());
    assert!(uint(&v, "unix_ms") > 0);
}
