//! Scalar slicing schemes (paper Fig. 3).
//!
//! # Signed bit-slice representation (SBR)
//!
//! A `(3n+4)`-bit signed weight is segmented into one 4-bit **signed** HO
//! slice and `n` 3-bit **unsigned** LO slices, which are then extended into
//! 4-bit signed slices by borrowing the sign of the slice above and
//! compensating that slice by `+1` (Fig. 3(b)). The crucial property is
//! that *both* positive and negative near-zero values end up with an
//! all-zero HO slice, doubling HO sparsity relative to straightforward
//! two's-complement slicing (whose `1111₂` HO slices cannot be skipped).
//!
//! Slice `i` (0 = least significant) carries positional weight `8^i`;
//! reconstruction is `value = Σ slices[i]·8^i`.
//!
//! # Straightforward slicing
//!
//! A `(4k+4)`-bit unsigned activation splits into `k+1` plain 4-bit
//! unsigned slices of weight `16^i`. The 8-bit case is additionally
//! DBS-aware (see [`panacea_quant::dbs`]): slice weights become
//! `2^{l−4}` / `2^l` when the LO slice is logically `l` bits wide.

/// Maximum supported SBR LO-slice count (`n ≤ 4` ⇒ up to 16-bit weights).
pub const MAX_SBR_LO_SLICES: usize = 4;

/// Signed-bit-slice-representation of `value` as a `(3n+4)`-bit integer.
///
/// Returns `n + 1` 4-bit signed slices, least-significant first; slice `i`
/// has positional weight `8^i` and every slice lies in `[-8, 7]`.
///
/// # Panics
///
/// Panics if `n > MAX_SBR_LO_SLICES` or `value` does not fit in
/// `(3n+4)` signed bits.
///
/// # Examples
///
/// The paper's Fig. 3(b): `1111_111₂` (−1 as a 7-bit value) becomes HO
/// `0000₂` and LO `1111₂` (−1), exposing a skippable HO slice:
///
/// ```
/// let s = panacea_bitslice::slicing::sbr_slices(-1, 1);
/// assert_eq!(s, vec![-1, 0]);
/// ```
pub fn sbr_slices(value: i32, n: usize) -> Vec<i8> {
    assert!(
        n <= MAX_SBR_LO_SLICES,
        "SBR with n={n} LO slices unsupported"
    );
    let bits = 3 * n as u32 + 4;
    let lo_bound = -(1i32 << (bits - 1));
    let hi_bound = (1i32 << (bits - 1)) - 1;
    assert!(
        (lo_bound..=hi_bound).contains(&value),
        "value {value} does not fit in {bits} signed bits"
    );
    let mut slices = Vec::with_capacity(n + 1);
    let mut rest = value;
    for _ in 0..n {
        slices.push(sbr_peel_lo(&mut rest));
    }
    debug_assert!((-8..=7).contains(&rest), "HO slice {rest} out of range");
    slices.push(rest as i8);
    slices
}

/// One step of the SBR recurrence: peels the least-significant slice off
/// `rest`, leaving the part above it (the HO slice once every LO slice is
/// peeled). Shared by [`sbr_slices`] and the whole-plane slicer so the two
/// cannot drift apart.
#[inline]
pub(crate) fn sbr_peel_lo(rest: &mut i32) -> i8 {
    let lo = *rest & 7; // low 3 bits, in [0, 7]
    *rest >>= 3; // arithmetic shift = floor division by 8
    if *rest < 0 {
        // Extend the unsigned LO slice with the sign of the part above
        // and compensate (+1) so the sum is preserved (Fig. 3(b)).
        *rest += 1;
        (lo - 8) as i8
    } else {
        lo as i8
    }
}

/// Inverse of [`sbr_slices`]: `Σ slices[i]·8^i`.
///
/// # Examples
///
/// ```
/// use panacea_bitslice::slicing::{sbr_reconstruct, sbr_slices};
/// assert_eq!(sbr_reconstruct(&sbr_slices(-64, 1)), -64);
/// ```
pub fn sbr_reconstruct(slices: &[i8]) -> i32 {
    slices
        .iter()
        .enumerate()
        .map(|(i, &s)| i32::from(s) * 8i32.pow(i as u32))
        .sum()
}

/// Straightforward slicing of an unsigned `(4k+4)`-bit value into `k + 1`
/// 4-bit unsigned slices, least-significant first (weight `16^i`).
///
/// # Panics
///
/// Panics if `value` does not fit in `4k+4` bits.
///
/// # Examples
///
/// ```
/// let s = panacea_bitslice::slicing::straightforward_slices(0xAB, 1);
/// assert_eq!(s, vec![0xB, 0xA]);
/// ```
pub fn straightforward_slices(value: u32, k: usize) -> Vec<u8> {
    let bits = 4 * (k as u32 + 1);
    assert!(
        bits <= 32 && u64::from(value) < (1u64 << bits),
        "value {value} does not fit in {bits} bits"
    );
    (0..=k).map(|i| ((value >> (4 * i)) & 0xF) as u8).collect()
}

/// Inverse of [`straightforward_slices`]: `Σ slices[i]·16^i`.
pub fn straightforward_reconstruct(slices: &[u8]) -> u32 {
    slices
        .iter()
        .enumerate()
        .map(|(i, &s)| u32::from(s) << (4 * i))
        .sum()
}

/// The straightforward *signed* slicing of the earlier literature
/// (Fig. 3(a)): 4-bit signed HO + 4-bit unsigned LO of an 8-bit signed
/// value. Provided for the motivation experiments — it cannot skip
/// `1111₂` HO slices of small negatives, which is exactly SBR's fix.
///
/// Returns `(ho, lo)` with `value = ho·16 + lo`, `ho ∈ [−8, 7]`,
/// `lo ∈ [0, 15]`.
///
/// # Panics
///
/// Panics if `value ∉ [−128, 127]`.
///
/// # Examples
///
/// ```
/// let (ho, lo) = panacea_bitslice::slicing::naive_signed_slices(-3);
/// assert_eq!(ho, -1); // 1111₂ — NOT skippable
/// assert_eq!(lo, 13);
/// ```
pub fn naive_signed_slices(value: i32) -> (i8, u8) {
    assert!(
        (-128..=127).contains(&value),
        "value {value} not 8-bit signed"
    );
    let lo = (value & 0xF) as u8;
    let ho = (value >> 4) as i8; // arithmetic: floor(value / 16)
    (ho, lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sbr_paper_examples() {
        // Fig. 3(b), n = 1 (7-bit): −1 → HO 0000, LO 1111 (−1).
        assert_eq!(sbr_slices(-1, 1), vec![-1, 0]);
        // Small positives keep a zero HO slice too.
        assert_eq!(sbr_slices(5, 1), vec![5, 0]);
        // A mid-range positive: 37 = 4·8 + 5.
        assert_eq!(sbr_slices(37, 1), vec![5, 4]);
        // A mid-range negative: −37 = 1011_011₂; the LO slice takes the HO
        // sign bit (011 → 1011₂ = −5) and HO is compensated: −5 + 1 = −4.
        assert_eq!(sbr_slices(-37, 1), vec![-5, -4]);
    }

    #[test]
    fn sbr_extremes_fit() {
        assert_eq!(sbr_reconstruct(&sbr_slices(63, 1)), 63);
        assert_eq!(sbr_reconstruct(&sbr_slices(-64, 1)), -64);
        assert_eq!(sbr_reconstruct(&sbr_slices(511, 2)), 511);
        assert_eq!(sbr_reconstruct(&sbr_slices(-512, 2)), -512);
    }

    #[test]
    fn sbr_n0_is_plain_4bit() {
        for v in -8..=7 {
            assert_eq!(sbr_slices(v, 0), vec![v as i8]);
        }
    }

    #[test]
    fn sbr_near_zero_values_have_zero_ho() {
        // SBR's raison d'être: |v| ≤ 7 ⇒ every non-LSB slice is zero.
        for v in -7..=7 {
            let s = sbr_slices(v, 1);
            assert_eq!(s[1], 0, "v={v}");
            let s = sbr_slices(v, 2);
            assert_eq!((s[1], s[2]), (0, 0), "v={v}");
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn sbr_rejects_oversized_values() {
        sbr_slices(64, 1);
    }

    #[test]
    fn straightforward_basics() {
        assert_eq!(straightforward_slices(0, 1), vec![0, 0]);
        assert_eq!(straightforward_slices(255, 1), vec![15, 15]);
        assert_eq!(straightforward_slices(0x5A3, 2), vec![3, 10, 5]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn straightforward_rejects_oversized() {
        straightforward_slices(256, 1);
    }

    #[test]
    fn naive_signed_cannot_skip_small_negatives() {
        let (ho, _) = naive_signed_slices(-1);
        assert_eq!(ho, -1);
        let (ho, lo) = naive_signed_slices(-16);
        assert_eq!((ho, lo), (-1, 0));
        // while SBR can:
        assert_eq!(sbr_slices(-1, 1)[1], 0);
    }

    proptest! {
        #[test]
        fn sbr_round_trips_n1(v in -64i32..=63) {
            let s = sbr_slices(v, 1);
            prop_assert_eq!(s.len(), 2);
            prop_assert!(s.iter().all(|&x| (-8..=7).contains(&x)));
            prop_assert_eq!(sbr_reconstruct(&s), v);
        }

        #[test]
        fn sbr_round_trips_n2(v in -512i32..=511) {
            let s = sbr_slices(v, 2);
            prop_assert_eq!(s.len(), 3);
            prop_assert!(s.iter().all(|&x| (-8..=7).contains(&x)));
            prop_assert_eq!(sbr_reconstruct(&s), v);
        }

        #[test]
        fn sbr_round_trips_n3(v in -4096i32..=4095) {
            prop_assert_eq!(sbr_reconstruct(&sbr_slices(v, 3)), v);
        }

        #[test]
        fn straightforward_round_trips(v in 0u32..=255) {
            prop_assert_eq!(straightforward_reconstruct(&straightforward_slices(v, 1)), v);
        }

        #[test]
        fn straightforward_round_trips_k2(v in 0u32..=4095) {
            prop_assert_eq!(straightforward_reconstruct(&straightforward_slices(v, 2)), v);
        }

        #[test]
        fn naive_signed_reconstructs(v in -128i32..=127) {
            let (ho, lo) = naive_signed_slices(v);
            prop_assert_eq!(i32::from(ho) * 16 + i32::from(lo), v);
        }
    }
}
