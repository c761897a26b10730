//! Seeded mutational fuzzing of the two wire decoders.
//!
//! A corpus of well-formed lines (every verb and response, lines in the
//! previous encoder's key order, one paper-scale `infer` and one
//! `decode`) is mutated — byte flips, truncation, key renames, digit
//! runs grown, numbers respelled as hostile floats, brackets injected,
//! lines spliced — and each result is fed to `decode_request` and
//! `decode_response`. The contract: `Ok` with a value that re-encodes
//! and re-decodes to itself, or `Err(Protocol)`; never a panic, and
//! never more memory reserved than a constant factor of the line's own
//! length. A failure prints the seed of its case. Debug builds (tier-1)
//! run a small budget, release builds (the CI release step) a larger
//! one.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use common::{float_token, Rng};
use panacea_gateway::protocol::{decode_request, decode_response, encode_request, encode_response};
use panacea_gateway::{GatewayError, Payload, Request};
use panacea_tensor::Matrix;

thread_local! {
    /// Bytes this thread has asked the allocator for. `const`-built and
    /// without a destructor, so touching it never allocates.
    static RESERVED: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting what each thread requests.
struct Counting;

fn count(bytes: usize) {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone; those bytes are nobody's measurement.
    let _ = RESERVED.try_with(|r| r.set(r.get().saturating_add(bytes)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one being implemented; the only addition is a
// thread-local counter update that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`, with the caller's `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes requested on this thread while `f` runs.
fn reserved_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = RESERVED.with(Cell::get);
    let value = f();
    (value, RESERVED.with(Cell::get) - before)
}

fn corpus() -> Vec<String> {
    // Paper scale: what `wire_thin` and `decode_bert` put on the wire.
    let paper_scale = [
        Request::Infer {
            model: "thin".to_string(),
            payload: Payload::Codes(Matrix::from_fn(768, 16, |r, c| {
                ((r * 31 + c * 7) % 256) as i32
            })),
            deadline_ms: None,
        },
        Request::Decode {
            session: 2,
            hidden: Matrix::from_fn(768, 1, |r, _| (r as f32 - 384.0) * 0.013),
            deadline_ms: None,
        },
    ];
    let mut lines: Vec<String> = common::requests()
        .iter()
        .chain(&paper_scale)
        .map(encode_request)
        .collect();
    let responses = common::responses();
    lines.extend(responses.iter().map(encode_response));
    lines.push(encode_response(&common::error_response()));
    // The previous encoder's key order: cells before header and tag.
    lines.extend(
        [
            "{\"deadline_ms\":250,\"model\":\"m\",\"payload\":{\"cols\":2,\"data\":[-100,-99,0,1,100,101],\"kind\":\"codes\",\"rows\":3},\"verb\":\"infer\"}",
            "{\"hidden\":{\"cols\":2,\"data\":[0.10000000149011612,-0.0,3,16777216],\"rows\":2},\"session\":7,\"verb\":\"decode\"}",
            "{\"cache_hit\":false,\"kind\":\"infer\",\"latency_us\":99,\"ok\":true,\"payload\":{\"cols\":2,\"data\":[0.5,-0.0],\"kind\":\"hidden\",\"rows\":1},\"scale\":1,\"shard\":0}",
            "{\"verb\":\"trace\",\"limit\":5}",
        ]
        .map(String::from),
    );
    lines
}

fn insert(line: &mut Vec<u8>, at: usize, bytes: &[u8]) {
    line.splice(at..at, bytes.iter().copied());
}

fn mutate(rng: &mut Rng, corpus: &[String]) -> String {
    const STRUCTURAL: &[u8] = b"[]{},:\"\\-.e0 ";
    let mut line = corpus[rng.below(corpus.len())].clone().into_bytes();
    // Mostly one wound per line: a line hit three times rarely gets
    // past the first check it fails.
    for _ in 0..1 + rng.below(5) / 3 + rng.below(7) / 6 {
        let at = rng.below(line.len());
        match rng.below(9) {
            0 => line[at] = rng.next() as u8,
            7 => {
                // Another digit in a digit's place: a valid line with a
                // different header, id or cell.
                if let Some(digit) = line[at..].iter().position(u8::is_ascii_digit) {
                    line[at + digit] = b'0' + rng.below(10) as u8;
                }
            }
            1 => line[at] ^= 1 << rng.below(8),
            2 => line.truncate(at),
            3 => {
                // Rename a key: nudge a byte just inside some `"…":`.
                if let Some(colon) = line[at..].windows(2).position(|w| w == b"\":") {
                    let inside = at + colon.saturating_sub(1 + rng.below(3));
                    line[inside] = b'a' + rng.below(26) as u8;
                }
            }
            4 => {
                // Grow a digit run: past i32, past u64, past f64.
                if let Some(digit) = line[at..].iter().position(u8::is_ascii_digit) {
                    let run: Vec<u8> = (0..1 + rng.below(40))
                        .map(|_| b'0' + rng.below(10) as u8)
                        .collect();
                    insert(&mut line, at + digit, &run);
                }
            }
            5 => {
                let byte = STRUCTURAL[rng.below(STRUCTURAL.len())];
                let burst = if rng.below(8) == 0 { 300 } else { 1 };
                insert(&mut line, at, &vec![byte; burst]);
            }
            8 => {
                // Respell a number: a cell, a header or an id becomes a
                // long mantissa, a far exponent or a malformed float.
                if let Some(digit) = line[at..].iter().position(u8::is_ascii_digit) {
                    let part = |b: &u8| b"0123456789-+.eE".contains(b);
                    let start = line[..at + digit]
                        .iter()
                        .rposition(|b| !part(b))
                        .map_or(0, |p| p + 1);
                    let len = line[start..].iter().position(|b| !part(b));
                    let end = len.map_or(line.len(), |len| start + len);
                    line.splice(start..end, float_token(rng).into_bytes());
                }
            }
            _ => {
                let other = corpus[rng.below(corpus.len())].as_bytes();
                let from = rng.below(other.len());
                let upto = (from + rng.below(200)).min(other.len());
                if rng.below(2) == 0 {
                    line.truncate(at);
                    line.extend_from_slice(&other[from..]);
                } else {
                    insert(&mut line, at, &other[from..upto]);
                }
            }
        }
        if line.is_empty() {
            break;
        }
    }
    // The decoders take `&str`: the transport has already refused
    // anything that is not UTF-8.
    String::from_utf8_lossy(&line).into_owned()
}

/// Most bytes a decode may ask the allocator for, given its line. The
/// slope covers the costliest honest spelling (a `u64` per two bytes of
/// `[1,2,…]`, doubled by `Vec` growth); the constant covers error
/// messages and the minimum capacity of small arrays. The corpus peaks
/// near 4 × its length.
fn allowance(line: &str) -> usize {
    16 * line.len() + 1024
}

fn check<T: PartialEq + std::fmt::Debug>(
    line: &str,
    decode: impl Fn(&str) -> Result<T, GatewayError>,
    encode: impl Fn(&T) -> String,
) {
    let (outcome, reserved) = reserved_by(|| decode(line));
    assert!(
        reserved <= allowance(line),
        "{reserved} bytes reserved for a {}-byte line",
        line.len()
    );
    match outcome {
        Ok(value) => {
            let again = decode(&encode(&value)).expect("an encoded value decodes");
            assert_eq!(again, value, "value changed across a re-encode");
        }
        Err(GatewayError::Protocol(_)) => {}
        Err(other) => panic!("decoding failed with a non-protocol error: {other}"),
    }
}

#[test]
fn mutated_lines_decode_cleanly_or_fail_as_protocol_errors() {
    let corpus = corpus();
    // Untouched, every corpus line is accepted by the decoder it is for.
    for line in &corpus {
        assert!(
            decode_request(line).is_ok() != decode_response(line).is_ok(),
            "corpus line fits neither or both decoders: {line}"
        );
    }
    let cases: u64 = if cfg!(debug_assertions) {
        10_000
    } else {
        300_000
    };
    for seed in 0..cases {
        let line = mutate(&mut Rng(seed), &corpus);
        let case = || {
            check(&line, decode_request, encode_request);
            check(&line, decode_response, encode_response);
        };
        if let Err(panic) = catch_unwind(AssertUnwindSafe(case)) {
            let shown: String = line.chars().take(400).collect();
            eprintln!(
                "wire fuzz: seed {seed} failed on ({} bytes) {shown}",
                line.len()
            );
            resume_unwind(panic);
        }
    }
}

/// The two headers the README names: neither may reserve room for the
/// cells it promises (or floods) before failing.
#[test]
fn hostile_matrix_headers_fail_without_reserving_for_their_cells() {
    let vast = "{\"verb\":\"infer\",\"model\":\"m\",\"payload\":{\"kind\":\"codes\",\"rows\":4294967296,\"cols\":4294967296,\"data\":[]}}".to_string();
    let square = "{\"verb\":\"infer\",\"model\":\"m\",\"input\":{\"rows\":3000000000,\"cols\":3,\"data\":[1,2,3]}}".to_string();
    let flood = format!(
        "{{\"verb\":\"decode\",\"session\":1,\"hidden\":{{\"rows\":1,\"cols\":1,\"data\":[{}0]}}}}",
        "0,".repeat(524_288)
    );
    let flood_first = format!(
        "{{\"ok\":true,\"kind\":\"decode\",\"hidden\":{{\"data\":[{}0],\"rows\":1,\"cols\":1}},\"tokens\":1,\"shard\":0,\"latency_us\":1}}",
        "0,".repeat(524_288)
    );
    for line in [&vast, &square, &flood, &flood_first] {
        let (outcomes, reserved) = reserved_by(|| (decode_request(line), decode_response(line)));
        assert!(
            matches!(
                outcomes,
                (
                    Err(GatewayError::Protocol(_)),
                    Err(GatewayError::Protocol(_))
                )
            ),
            "a hostile header was accepted"
        );
        assert!(
            reserved < 4096,
            "{reserved} bytes reserved on the way to refusing a {}-byte line",
            line.len()
        );
    }
}
