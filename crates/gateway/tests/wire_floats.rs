//! The `f32` cell codec held to the standard library calls it replaced.
//! The writer spells every cell byte for byte as `format!("{v:?}")`
//! does, so the wire did not change: on the shared sweep, and on all
//! 2^32 bit patterns in an ignored run (`cargo test --release -p
//! panacea-gateway --test wire_floats -- --ignored`, minutes). The
//! reader takes or refuses every token, and reads every bit, as a
//! number field's first-byte rule (a digit or `-`) and then
//! `str::parse::<f32>` do: on tokens made to break a fast path — `f32`
//! midpoints and their near misses, the overflow edge, long mantissas,
//! leading zeros, far exponents, malformed shapes, no digit before the
//! point. (On the sweep's short and `f64`-expanded spellings, which both
//! parse back to the value spelled, `wire_compat.rs` holds the reader to
//! that value.)

mod common;

use std::fmt::Write as _;

use common::{finite_f32s, float_token, Rng};
use panacea_gateway::protocol::{decode_request, encode_request};
use panacea_gateway::{GatewayError, Request};
use panacea_tensor::Matrix;

/// `values` as the wire writes them: the `data` array of an encoded
/// one-row `decode` request.
fn written(values: &[f32]) -> String {
    let hidden = Matrix::from_vec(1, values.len(), values.to_vec()).expect("one row");
    let line = encode_request(&Request::Decode {
        session: 1,
        hidden,
        deadline_ms: None,
    });
    let start = line.find("\"data\":[").expect("a data array") + "\"data\":[".len();
    let len = line[start..].find(']').expect("a closed data array");
    line[start..start + len].to_string()
}

fn assert_spelled_as_debug(values: &[f32]) {
    let written = written(values);
    let cells: Vec<&str> = written.split(',').collect();
    assert_eq!(cells.len(), values.len());
    let mut debug = String::new();
    for (v, cell) in values.iter().zip(cells) {
        debug.clear();
        write!(debug, "{v:?}").expect("writing to a String");
        assert_eq!(
            cell,
            debug,
            "{:#010x} spelled apart from {{:?}}",
            v.to_bits()
        );
    }
}

#[test]
fn the_writer_spells_every_sweep_value_as_debug_does() {
    let values: Vec<f32> = finite_f32s(4093).collect();
    assert!(
        values.len() >= 1_000_000,
        "sweep too thin: {}",
        values.len()
    );
    values.chunks(8192).for_each(assert_spelled_as_debug);
}

#[test]
#[ignore = "all 2^32 bit patterns: minutes in release"]
fn the_writer_spells_every_finite_f32_as_debug_does() {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let patterns = 1u64 << 32;
    let begun = std::time::Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (from, to) = (patterns * t / threads, patterns * (t + 1) / threads);
            scope.spawn(move || {
                let mut values = Vec::with_capacity(8192);
                for bits in from..to {
                    let v = f32::from_bits(bits as u32);
                    if v.is_finite() {
                        values.push(v);
                    }
                    if values.len() == 8192 || (bits + 1 == to && !values.is_empty()) {
                        assert_spelled_as_debug(&values);
                        values.clear();
                    }
                }
            });
        }
    });
    println!(
        "2^32 bit patterns on {threads} threads in {:.0?}: every finite f32 spelled as {{:?}}",
        begun.elapsed()
    );
}

fn cells_line(cells: &str, count: usize) -> String {
    format!("{{\"verb\":\"decode\",\"session\":1,\"hidden\":{{\"rows\":1,\"cols\":{count},\"data\":[{cells}]}}}}")
}

/// What the reader must make of a token: what a number field takes,
/// `Reader::number`'s first-byte rule (a digit or `-`) and then
/// `parse::<f32>` — the bits of a finite value, or a refusal (`None`),
/// an overflow to infinity included.
fn parsed(token: &str) -> Option<u32> {
    if !token.starts_with(|c: char| c == '-' || c.is_ascii_digit()) {
        return None;
    }
    let value = token.parse::<f32>().ok()?;
    value.is_finite().then(|| value.to_bits())
}

/// What the reader makes of a token as a line's only cell and as the
/// second, after a comma with and without a space — the same whether
/// the line ends right after it or runs on (a cell far from the line's
/// end is read 16 bytes at a time).
fn read(token: &str) -> Option<u32> {
    let ways = [
        (token.to_string(), 1),
        (format!("{token}{:16}", ""), 1),
        (format!("1,{token}"), 2),
        (format!("1, {token}{:16}", ""), 2),
    ]
    .map(
        |(cells, count)| match decode_request(&cells_line(&cells, count)) {
            Ok(Request::Decode { hidden, .. }) => Some(hidden.as_slice()[count - 1].to_bits()),
            Ok(other) => panic!("wrong verb: {other:?}"),
            Err(GatewayError::Protocol(_)) => None,
            Err(other) => panic!("{token}: not a protocol error: {other}"),
        },
    );
    assert!(
        ways.iter().all(|way| *way == ways[0]),
        "token {token} read four ways: {ways:?}"
    );
    ways[0]
}

fn assert_read_as_parsed(token: &str) {
    assert_eq!(read(token), parsed(token), "token {token}");
}

/// Tokens that all parse to finite values, read as one line.
fn assert_cells_read_as_parsed(tokens: &[String]) {
    let line = cells_line(&tokens.join(","), tokens.len());
    let hidden = match decode_request(&line) {
        Ok(Request::Decode { hidden, .. }) => hidden,
        other => panic!("a line of finite cells did not decode: {other:?}"),
    };
    for (token, cell) in tokens.iter().zip(hidden.iter()) {
        assert_eq!(Some(cell.to_bits()), parsed(token), "token {token}");
    }
}

/// Halfway between two adjacent `f32`s, where `f64` then `f32` rounds
/// twice: spelled in full, to the 14 digits the reader's window holds,
/// as the shortest `f64` that names it, to 16 and 15 digits, and as its
/// two `f64` neighbours — near misses on
/// either side that one `f64` operation may round onto the midpoint.
#[test]
fn the_reader_reads_f32_midpoints_and_their_near_misses_as_parse_does() {
    let mut tokens = Vec::new();
    for (i, v) in finite_f32s(65_521)
        .filter(|v| v.is_sign_positive())
        .enumerate()
    {
        let next = f32::from_bits(v.to_bits() + 1);
        if !next.is_finite() {
            continue;
        }
        let mid = (f64::from(v) + f64::from(next)) / 2.0;
        let below = f64::from_bits(mid.to_bits() - 1);
        let above = f64::from_bits(mid.to_bits() + 1);
        // At most 14 digits, the reader's 16-byte window: at 13 places
        // in [0.5, 10) a near miss can round onto the midpoint.
        let places = 13 - (mid.log10().max(0.0) as usize).min(12);
        tokens.extend([
            format!("{mid:.places$}"),
            format!("-{mid:.places$}"),
            format!("{mid:?}"),
            format!("{mid:.15e}"),
            format!("{mid:.14e}"),
            format!("{below:?}"),
            format!("{above:?}"),
            format!("-{mid:?}"),
        ]);
        if i % 16 == 0 {
            // Every digit of the midpoint: subnormal ones run to 105.
            tokens.push(format!("{mid:.160e}"));
        }
    }
    tokens.chunks(4096).for_each(assert_cells_read_as_parsed);
}

#[test]
fn the_reader_takes_and_refuses_hostile_tokens_as_parse_does() {
    let named = [
        // Exact midpoints, normal and subnormal, and their neighbours.
        "16777217",
        "16777217.0",
        "16777219",
        "16777217.000000001",
        "16777216.999999999",
        "1.000000059604644775390625",
        "1.00000005960464477539062",
        "1.00000005960464477539063",
        "1.0000000596046448",
        "0.700649232162408535461864791644958065640130970938257885878534141944895541342930300743319094181060791015625e-45",
        "7.006492321624085e-46",
        "7.006492321624086e-46",
        // The overflow edge: halfway from f32::MAX to 2^128.
        "3.4028235677973366e38",
        "3.4028235677973365e38",
        "3.4028235677973367e38",
        "3.40282356779733661637539395458142568448e38",
        "3.402823567797336616375393954581425684479e38",
        "340282356779733661637539395458142568448",
        "340282356779733661637539395458142568447",
        "-3.4028235677973366e38",
        "3.4028235e38",
        "3.4028236e38",
        "3.4028234663852886e38",
        "1e38",
        "1e39",
        // Where one f64 operation stops being exact.
        "9007199254740992",
        "9007199254740993",
        "9007199254740993e-22",
        "9007199254740991e22",
        "123456789012345678e-5",
        "1e22",
        "1e23",
        "1e-22",
        "1e-23",
        "4e22",
        // Leading zeros, zeros, far exponents.
        "000123",
        "-00.00100",
        "0000000000000000000000001",
        "00000000000000000000000.5e1",
        "-0",
        "-0.0",
        "0",
        "0e5",
        "0e-999",
        "0e99999",
        "-0e0",
        "0.000",
        "1e-46",
        "1e-45",
        "7e-46",
        "7.1e-46",
        "1.4e-45",
        "1.17549435e-38",
        "1.1754942e-38",
        "1e50",
        "1e-50",
        "1e99999",
        "1e-99999",
        "1E5",
        "1e+5",
        "1e-0",
        "1e05",
        // Shapes `str::parse` refuses or reads loosely, and no digit
        // first, which the reader refuses before `parse` sees it.
        ".5",
        ".5e1",
        "-.5e1",
        ".",
        "+1",
        "e5",
        "1.",
        "-.5",
        "-0.",
        "0.e1",
        "1e",
        "1e+",
        "1e-",
        "-",
        "--1",
        "-e5",
        "1-2",
        "1+2",
        "1.2.3",
        "1..2",
        "1e5e5",
        "1e+-5",
        "1E",
    ];
    named.iter().for_each(|token| assert_read_as_parsed(token));
    let mut rng = Rng(37);
    for _ in 0..20_000 {
        assert_read_as_parsed(&float_token(&mut rng));
    }
}
