//! What the `f32` cell codec buys over the standard library calls it
//! replaced, on one `infer_bert` request's cells (a 768 × 16 BERT-zoo
//! hidden matrix): encoding the request is at least 3× faster than
//! spelling the same cells into a line with `{:?}`, and decoding it at
//! least 1.5× faster than splitting its cells apart and reading each
//! with `str::parse::<f32>` — what the codec did before, less the rest
//! of the line. On a 2-core x86-64 VM: 3.2–3.7× and 1.8–2.0×.
//!
//! Each arm's time is the best of rounds that alternate the two arms,
//! so a round a loaded host slows drops out instead of tilting the
//! ratio. That the codec is exact is `wire_floats.rs`'s to hold.
//!
//! Own test binary (process) on purpose: a timing bound must not share
//! the CPU with other tests.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use panacea_block::zoo_hidden_states;
use panacea_gateway::protocol::{decode_request, encode_request};
use panacea_gateway::{Payload, Request};
use panacea_models::zoo::Benchmark;

const ROUNDS: usize = 21;
/// Codec calls per arm and round.
const CALLS: usize = 8;
const MIN_ENCODE_SPEEDUP: f64 = 3.0;
const MIN_DECODE_SPEEDUP: f64 = 1.5;

/// The best time of each arm over `ROUNDS` rounds, `a` first in even
/// rounds and `b` first in odd ones.
fn best_of(mut a: impl FnMut(), mut b: impl FnMut()) -> (Duration, Duration) {
    let time = |arm: &mut dyn FnMut()| {
        let begun = Instant::now();
        (0..CALLS).for_each(|_| arm());
        begun.elapsed()
    };
    let (mut best_a, mut best_b) = (Duration::MAX, Duration::MAX);
    for round in 0..ROUNDS {
        if round % 2 == 0 {
            best_a = best_a.min(time(&mut a));
            best_b = best_b.min(time(&mut b));
        } else {
            best_b = best_b.min(time(&mut b));
            best_a = best_a.min(time(&mut a));
        }
    }
    (best_a, best_b)
}

/// How many times faster `codec` is than `std` over the best of
/// alternated rounds, held to `floor`.
fn assert_faster(what: &str, floor: f64, codec: impl FnMut(), std: impl FnMut()) {
    let (codec, std) = best_of(codec, std);
    let speedup = std.as_secs_f64() / codec.as_secs_f64();
    println!("{what}: {codec:?} against {std:?} ({speedup:.2}x, best of {ROUNDS})");
    assert!(
        speedup >= floor,
        "{what} took {codec:?} against {std:?} ({speedup:.2}x < {floor}x, best of {ROUNDS})"
    );
}

/// One test, so the two bounds never share the CPU with each other.
#[test]
#[cfg_attr(debug_assertions, ignore = "a timing bound: run with --release")]
fn a_bert_hidden_matrix_encodes_3x_faster_than_debug_and_decodes_1_5x_faster_than_parse() {
    let hidden = zoo_hidden_states(Benchmark::BertBase, 768, 16, 1);
    let request = Request::Infer {
        model: "bert".to_string(),
        payload: Payload::Hidden(hidden.clone()),
        deadline_ms: None,
    };
    assert_faster(
        "encode vs {:?}",
        MIN_ENCODE_SPEEDUP,
        || {
            black_box(encode_request(black_box(&request)));
        },
        || {
            // A new line each time, as `encode_request` makes one.
            let mut line = String::new();
            for v in black_box(hidden.as_slice()) {
                write!(line, "{v:?},").expect("writing to a String");
            }
            black_box(line);
        },
    );

    let line = encode_request(&request);
    let start = line.find("\"data\":[").expect("a data array") + "\"data\":[".len();
    let len = line[start..].find(']').expect("a closed data array");
    let data = &line[start..start + len];
    assert_eq!(data.split(',').count(), 768 * 16);
    assert_faster(
        "decode vs parse::<f32>",
        MIN_DECODE_SPEEDUP,
        || {
            black_box(decode_request(black_box(&line)).expect("decodes"));
        },
        || {
            let cells: Vec<f32> = black_box(data)
                .split(',')
                .map(|t| t.parse().expect("a float"))
                .collect();
            black_box(cells);
        },
    );
}
