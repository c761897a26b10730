//! `f32` cells as text without `core::fmt`: the one `f32` writer and
//! the reader's exact fast path.
//!
//! The writer is Ryū (Adams, PLDI '18) at `f32` width. Integer
//! arithmetic finds the shortest decimal in the interval of values that
//! round to the `f32` — the closest of them, an exact tie rounded away
//! from zero as `{:?}` rounds it — and [`put_f32s`] spells it the way
//! `{:?}` does. So the bytes are exactly `format!("{v:?}")`'s for every
//! finite `f32`.
//!
//! The reader is Clinger's fast path (PLDI '90), for the one shape the
//! writer spells nearly every cell in: `-?d+.d+` of at most 14 digits,
//! read from a 16-byte window as an integer `m < 2^53` over `10^f`,
//! `f ≤ 13`. One `f64` divide by that exact power of ten rounds it
//! correctly. Narrowing to `f32` rounds a second time, which is exact
//! unless the `f64` landed halfway between two `f32`s — those, and every
//! other token (exponent forms, longer mantissas, no digit before the
//! point), are left to `str::parse::<f32>`.

/// Significand bits an `f32` stores (the leading 1 is implicit).
const MANTISSA_BITS: u32 = 23;
const EXPONENT_BIAS: i32 = 127;
/// Precision of the multipliers below, the paper's bounds for `f32`:
/// `INV_POW5[q]` is `2^(pow5_bits(q) - 1 + INV_BITS) / 5^q`, `POW5[i]`
/// the leading `POW5_BITS` bits of `5^i`.
const INV_BITS: u32 = 59;
const POW5_BITS: u32 = 61;

/// `⌈log2 5^e⌉` (1 at `e = 0`), for `0 ≤ e ≤ 3528`.
const fn pow5_bits(e: u32) -> u32 {
    ((e * 1_217_359) >> 19) + 1
}

/// `⌊log10 2^e⌋`, for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: u32) -> u32 {
    (e * 78_913) >> 18
}

/// `⌊log10 5^e⌋`, for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: u32) -> u32 {
    (e * 732_923) >> 20
}

const fn pow5(i: u32) -> u128 {
    let (mut p, mut n) = (1u128, 0);
    while n < i {
        p *= 5;
        n += 1;
    }
    p
}

/// `⌊2^k / d⌋`, by long division one bit of `2^k` at a time (`2^k`
/// itself may not fit in 128 bits).
const fn pow2_div(k: u32, d: u128) -> u128 {
    let (mut quotient, mut rest, mut bit) = (0u128, 0u128, 0);
    while bit <= k {
        rest = 2 * rest + (bit == 0) as u128;
        quotient *= 2;
        if rest >= d {
            rest -= d;
            quotient += 1;
        }
        bit += 1;
    }
    quotient
}

/// `⌊2^(pow5_bits(q) - 1 + INV_BITS) / 5^q⌋ + 1`: multiplying by it and
/// shifting divides by `10^q` for the binary exponents `e2 ≥ 0`, where
/// `q ≤ log10_pow2(102) = 30`.
const INV_POW5: [u64; 31] = {
    let mut table = [0u64; 31];
    let mut q = 0;
    while q < table.len() {
        table[q] = (pow2_div(pow5_bits(q as u32) - 1 + INV_BITS, pow5(q as u32)) + 1) as u64;
        q += 1;
    }
    table
};

/// `5^i`, shifted to its `POW5_BITS` leading bits: multiplies by
/// `5^i` for the binary exponents `e2 < 0`, where `i + 1 ≤ 47`.
const POW5: [u64; 48] = {
    let mut table = [0u64; 48];
    let mut i = 0;
    while i < table.len() {
        let bits = pow5_bits(i as u32);
        let p = pow5(i as u32);
        table[i] = if bits > POW5_BITS {
            (p >> (bits - POW5_BITS)) as u64
        } else {
            (p << (POW5_BITS - bits)) as u64
        };
        i += 1;
    }
    table
};

/// `⌊m · factor / 2^shift⌋`.
#[inline(always)]
fn mul_shift(m: u32, factor: u64, shift: u32) -> u32 {
    ((u128::from(m) * u128::from(factor)) >> shift) as u32
}

/// Whether `5^p` divides `value`.
fn multiple_of_pow5(mut value: u32, p: u32) -> bool {
    for _ in 0..p {
        if !value.is_multiple_of(5) {
            return false;
        }
        value /= 5;
    }
    true
}

/// The shortest decimal `digits · 10^exponent` that reads back as the
/// positive finite `f32` with these bits, the closest to it when
/// several are as short.
fn shortest(bits: u32) -> (u32, i32) {
    let fraction = bits & ((1 << MANTISSA_BITS) - 1);
    let biased = (bits >> MANTISSA_BITS) & 0xff;
    // `v = 4·m2 · 2^e2`: the exponent sits 2 low so that the interval's
    // ends below are integers too.
    let (m2, e2) = if biased == 0 {
        (fraction, 1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2)
    } else {
        (
            fraction | (1 << MANTISSA_BITS),
            biased as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
        )
    };
    // Round-half-even reading: an even significand owns the interval's
    // ends too.
    let accept_bounds = m2 % 2 == 0;

    // The value and the two halfway points to its neighbours, ×4. The
    // gap below is half as wide at a power of two (but the smallest
    // normal's lower neighbour is a subnormal, as far away as above).
    let mv = 4 * m2;
    let mp = 4 * m2 + 2;
    let mm_shift = u32::from(fraction != 0 || biased <= 1);
    let mm = 4 * m2 - 1 - mm_shift;

    // In units of 10^e10: vr the value, vp / vm the interval's ends —
    // and whether what the division drops from vm is all zeros, so that
    // an accepted lower end is the value it names.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_trailing_zeros = false;
    let mut last_removed_digit = 0;
    if e2 >= 0 {
        let q = log10_pow2(e2 as u32);
        e10 = q as i32;
        let k = INV_BITS + pow5_bits(q) - 1;
        let i = q + k - e2 as u32;
        vr = mul_shift(mv, INV_POW5[q as usize], i);
        vp = mul_shift(mp, INV_POW5[q as usize], i);
        vm = mul_shift(mm, INV_POW5[q as usize], i);
        if q != 0 && (vp - 1) / 10 <= vm / 10 {
            // The loop below may remove no digit: find the one digit
            // past vr it would otherwise have seen first.
            let l = INV_BITS + pow5_bits(q - 1) - 1;
            let shift = q - 1 + l - e2 as u32;
            last_removed_digit = mul_shift(mv, INV_POW5[q as usize - 1], shift) % 10;
        }
        // 5 divides at most one of mm, mv and mp, which are within 4
        // of each other; an end is exact only if 5^q divides it, and an
        // exact upper end that is not accepted is stepped below.
        if q <= 9 && mv % 5 != 0 {
            if accept_bounds {
                vm_trailing_zeros = multiple_of_pow5(mm, q);
            } else {
                vp -= u32::from(multiple_of_pow5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(e2.unsigned_abs());
        e10 = q as i32 + e2;
        let i = e2.unsigned_abs() - q;
        let k = pow5_bits(i) as i32 - POW5_BITS as i32;
        let j = (q as i32 - k) as u32;
        vr = mul_shift(mv, POW5[i as usize], j);
        vp = mul_shift(mp, POW5[i as usize], j);
        vm = mul_shift(mm, POW5[i as usize], j);
        if q != 0 && (vp - 1) / 10 <= vm / 10 {
            let j = (q as i32 - 1 - (pow5_bits(i + 1) as i32 - POW5_BITS as i32)) as u32;
            last_removed_digit = mul_shift(mv, POW5[i as usize + 1], j) % 10;
        }
        // An end is exact only if 2^q divides it: mm has one trailing
        // zero bit iff mm_shift is 1, mp = 4 · m2 + 2 always has one.
        if q <= 1 {
            if accept_bounds {
                vm_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter decimal — and
    // past that while an exact, accepted lower end keeps ending in 0.
    let mut removed = 0;
    let mut drop_digit = |vr: &mut u32, vp: &mut u32, vm: &mut u32| {
        last_removed_digit = *vr % 10;
        *vr /= 10;
        *vp /= 10;
        *vm /= 10;
        removed += 1;
    };
    while vp / 10 > vm / 10 {
        vm_trailing_zeros &= vm % 10 == 0;
        drop_digit(&mut vr, &mut vp, &mut vm);
    }
    while vm_trailing_zeros && vm % 10 == 0 {
        drop_digit(&mut vr, &mut vp, &mut vm);
    }
    // Round to nearest; an exact tie (`…5000`) rounds up, as `{:?}`
    // does, where Ryū's own rule would round it to even. vr at the
    // lower end is in the interval only if that end is exact and
    // accepted.
    let round_up = (vr == vm && !vm_trailing_zeros) || last_removed_digit >= 5;
    (vr + u32::from(round_up), e10 + removed)
}

/// `value < 10^8` as eight ASCII digits, the first in the lowest byte
/// (the order of a string read little-endian). Two four-digit lanes
/// split into four two-digit lanes, then eight digits, each step a
/// multiply-shift exact over its lanes' range: `5243 / 2^19` is `1/100`
/// below `10^4`, `103 / 2^10` is `1/10` below `100`.
fn eight_digits(value: u32) -> u64 {
    let x = u64::from(value / 10_000) | u64::from(value % 10_000) << 32;
    let hundreds = ((x * 5243) >> 19) & 0x0000_007f_0000_007f;
    let x = hundreds | (x - 100 * hundreds) << 16;
    let tens = ((x * 103) >> 10) & 0x000f_000f_000f_000f;
    let x = tens | (x - 10 * tens) << 8;
    x | ZEROS as u64
}

/// Longest `{:?}` of an `f32`: 19 bytes (`-9999999000000000.0`); the
/// common forms are written 16 bytes at a time.
const SPELLING_MAX: usize = 32;
/// Where the digit places end: room ahead for the twelve a fraction of
/// `|v| ≥ 1e-4` may span and the whole part before it.
const PLACES_END: usize = 32;

/// Bytes spelled on the stack between two pushes onto the line.
const BLOCK: usize = 1024;

/// Appends `cells` comma-separated, each as `format!("{v:?}")` spells a
/// finite `v` — the shortest digits that read back as `v`, in decimal
/// form for `1e-4 ≤ |v| < 1e16` (with `.0` on an integral value) and
/// exponent form elsewhere (`1e16`, `9.9e-5`, `1e-45`), zero as `0.0`
/// or `-0.0` — and a NaN or infinity as `null`, which JSON has in their
/// place. Spelled a block at a time on the stack: one UTF-8 check and
/// one copy per block, not per cell.
pub(crate) fn put_f32s(cells: &[f32], out: &mut String) {
    let mut block = [0u8; BLOCK];
    let mut len = 0;
    for (i, &v) in cells.iter().enumerate() {
        if len > BLOCK - SPELLING_MAX - 1 {
            out.push_str(std::str::from_utf8(&block[..len]).expect("spellings are ASCII"));
            len = 0;
        }
        if i > 0 {
            block[len] = b',';
            len += 1;
        }
        let text = (&mut block[len..len + SPELLING_MAX])
            .try_into()
            .expect("room was left");
        len += if v.is_finite() {
            spell(v, text)
        } else {
            text[..4].copy_from_slice(b"null");
            4
        };
    }
    out.push_str(std::str::from_utf8(&block[..len]).expect("spellings are ASCII"));
}

/// Spells a finite `v` at the start of `text`; the spelling's length.
fn spell(v: f32, text: &mut [u8; SPELLING_MAX]) -> usize {
    text[0] = b'-';
    let start = usize::from(v.is_sign_negative());
    if v == 0.0 {
        text[start..start + 3].copy_from_slice(b"0.0");
        return start + 3;
    }
    let (output, exponent) = shortest(v.to_bits());
    // `output` in the nine places before `PLACES_END`, `'0'` ahead of it.
    let mut places = [b'0'; PLACES_END + 16];
    places[PLACES_END - 9] = b'0' + (output / 100_000_000) as u8;
    places[PLACES_END - 8..PLACES_END]
        .copy_from_slice(&eight_digits(output % 100_000_000).to_le_bytes());
    let n = output.ilog10() as i32 + 1;
    let decimal = (1e-4..1e16).contains(&v.abs());
    if exponent >= 0 || !decimal {
        let digits = &places[PLACES_END - n as usize..PLACES_END];
        return start + spell_rare(digits, exponent + n, decimal, &mut text[start..]);
    }
    // `whole.fraction`: the fraction is the last `-exponent` places
    // (zeros after the point included), the whole part the `n +
    // exponent` places before them, or the one `0` there when |v| < 1.
    // Each is copied as a fixed 16 bytes, the fraction over the tail of
    // the whole part's copy.
    let fraction = exponent.unsigned_abs() as usize;
    let whole = (n + exponent).max(1) as usize;
    let from = PLACES_END - fraction;
    text[start..start + 16].copy_from_slice(&places[from - whole..from - whole + 16]);
    text[start + whole] = b'.';
    text[start + whole + 1..start + whole + 17].copy_from_slice(&places[from..from + 16]);
    start + whole + 1 + fraction
}

/// The integral decimal form (`16777216.0`) and the exponent form
/// (`1.5e-5`), which activations seldom take; the spelling's length.
fn spell_rare(digits: &[u8], point: i32, decimal: bool, text: &mut [u8]) -> usize {
    let mut at = 0;
    let mut put = |bytes: &[u8]| {
        text[at..at + bytes.len()].copy_from_slice(bytes);
        at += bytes.len();
    };
    if decimal {
        put(digits);
        (digits.len()..point as usize).for_each(|_| put(b"0"));
        put(b".0");
    } else {
        put(&digits[..1]);
        if digits.len() > 1 {
            put(b".");
            put(&digits[1..]);
        }
        put(b"e");
        if point < 1 {
            put(b"-");
        }
        let e = (point - 1).unsigned_abs() as u8;
        if e >= 10 {
            put(&[b'0' + e / 10]);
        }
        put(&[b'0' + e % 10]);
    }
    at
}

/// `10^i` for `i ≤ 13`, the most places after the point a window
/// holds: every one exact in an `f64`.
const POW10: [f64; 14] = {
    let mut table = [1.0; 14];
    let mut i = 1;
    while i < table.len() {
        table[i] = table[i - 1] * 10.0;
        i += 1;
    }
    table
};

/// `'0'` in every byte.
const ZEROS: u128 = u128::from_le_bytes([b'0'; 16]);

/// The value of eight ASCII digits, the first in the lowest byte:
/// digit pairs in every other byte, then pairs of pairs weighted into
/// the high half — three multiplies for eight digits.
fn eight_digits_value(chunk: u64) -> u64 {
    let v = chunk - ZEROS as u64;
    let pairs = v * 10 + (v >> 8);
    let (first, second) = (
        pairs & 0x0000_00ff_0000_00ff,
        (pairs >> 16) & 0x0000_00ff_0000_00ff,
    );
    let v = first.wrapping_mul(100 + (1_000_000 << 32)) + second.wrapping_mul(1 + (10_000 << 32));
    v >> 32
}

/// The common cell, `-?d+.d+` of at most 14 digits, read from the
/// start of a 16-byte window without a branch per byte: its digits as
/// an integer, its digits after the point, its sign, its length — when
/// the byte after it ends the token.
#[inline(always)]
fn plain_decimal(window: [u8; 16]) -> Option<(u64, usize, bool, usize)> {
    let x = u128::from_le_bytes(window);
    let negative = x as u8 == b'-';
    let sign = usize::from(negative);
    let x = x >> (8 * sign);
    // A byte is a digit iff its high nibble is 3 and adding 6 leaves
    // it 3 (text is UTF-8, so no byte is above `0xf4` to carry).
    const HIGH: u128 = u128::from_le_bytes([0xf0; 16]);
    let past_nine = x.wrapping_add(u128::from_le_bytes([6; 16])) & HIGH;
    let not_digit = ((x & HIGH) | past_nine >> 4) ^ u128::from_le_bytes([0x33; 16]);
    let whole = (not_digit.trailing_zeros() / 8) as usize;
    if whole == 0 || whole >= 14 || (x >> (8 * whole)) as u8 != b'.' {
        return None;
    }
    let fraction = ((not_digit >> (8 * (whole + 1))).trailing_zeros() / 8) as usize;
    let len = whole + 1 + fraction;
    if fraction == 0 || sign + len >= 16 || super::in_number((x >> (8 * len)) as u8) {
        return None;
    }
    // The digits without the point, moved to the top over `'0'`s.
    let digits = x & ((1 << (8 * whole)) - 1) | (x >> (8 * (whole + 1))) << (8 * whole);
    let count = whole + fraction;
    let aligned = digits << (8 * (16 - count)) | ZEROS >> (8 * count);
    let m = eight_digits_value(aligned as u64) * 100_000_000
        + eight_digits_value((aligned >> 64) as u64);
    Some((m, fraction, negative, sign + len))
}

/// The `f32` the number token at the start of `text` spells, and the
/// token's length, when it is a `-?d+.d+` of at most 14 digits — every
/// cell the writer spells with a point and no exponent below 1e13.
/// Then `m < 10^14 < 2^53` and `10^fraction` are exact `f64`s, so one
/// divide rounds the value correctly. `None` sends the token, and every
/// other token, to `str::parse::<f32>`, which also owns refusing it: a
/// token taken here ends where the reader's token does and reads as
/// `parse::<f32>` reads it.
#[inline(always)]
pub(crate) fn fast_f32(text: &[u8]) -> Option<(f32, usize)> {
    // The zeros after a line's end end a token there as the end does.
    let window = match text.get(..16) {
        Some(window) => window.try_into().expect("16 bytes"),
        None => {
            let mut window = [0; 16];
            window[..text.len()].copy_from_slice(text);
            window
        }
    };
    let (m, fraction, negative, len) = plain_decimal(window)?;
    let wide = m as f64 / POW10[fraction];
    // Narrowing rounds a second time, which is exact unless `wide` is
    // halfway between two `f32`s (the 29 bits below `f32` precision read
    // exactly one half; a nonzero `wide` is at least 1e-13, a normal
    // `f32`): a near miss the divide rounded onto a midpoint would round
    // as a tie. Such an `f64` goes to `parse::<f32>`. (At 14 digits a
    // near miss that close lies on the even side, and the tie picks it,
    // so only exact midpoints such as `16777217.0` come here; the check
    // keeps the path exact without leaning on that.)
    if wide.to_bits() & 0x1fff_ffff == 0x1000_0000 {
        return None;
    }
    let magnitude = wide as f32;
    Some((if negative { -magnitude } else { magnitude }, len))
}
