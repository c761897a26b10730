//! The weight planes' 4-bit slices at dot-product width. Every plane of
//! a resident weight is nibble-packed in the order `vpdpbusd` reads it:
//! a [`Chunk`] is 16 rows × 8 `k` in 64 bytes, byte
//! `4r + j` holding row `r`'s slice at `k = 8t + j` in its low nibble and
//! at `k = 8t + 4 + j` in its high one, each as `slice + 8`. This module
//! reads it two ways.
//!
//! [`lo_lo`]: on builds that target AVX-512 VNNI and VBMI, every pair of
//! a raw `u8` LO activation plane with a weight plane whose walk runs
//! every `k` of a block — LO×LO everywhere, and HO_w×LO_x in a narrow
//! walk, exact over every `k` because a compressed HO vector is stored
//! as zeros — runs on `vpdpbusd`, which sums four `u8 · u8` products into
//! each `i32` lane: 64 slice MACs an instruction, where the `i16` tile
//! takes a multiply and an add for 16. A chunk unpacks with an AND and a
//! shift-AND into its two nibble halves, each four `k` × 16 rows,
//! row-major, as the dot product wants them; the `+ 8` is taken back at
//! once, by starting each row's sum at `−8 · Σx` of its column. The
//! activation side is one [`Quad`] per four `k` (column `c`'s four
//! slices in the bytes of word `c`), broadcast with `vpbroadcastd`. Tile
//! row `q·C + c` holds run `q` × column `c`, as in the `i16` tile's
//! lanes along M. The sum is the `i16` tile's exactly: the same 256-`k`
//! block bound keeps it below `i16::MAX`, so neither wraps (the `const`
//! assertion in `aqs`), and `plan::accumulator_bound` covers both.
//!
//! [`unpack`]: the `i16` tile, which runs everything else — the pairs of
//! the re-centred HO activation plane, Sibia's signed activations, a
//! full tile's HO weight plane, every pair of a build without the two
//! extensions — reads k-major [`PanelCol`]s, and a
//! chunk becomes eight of them with one `vpermb` per nibble half (a safe
//! shift-and-mask elsewhere).
//!
//! The choice is made at compile time. This module holds the crate's
//! only `unsafe`: the calls into the two `#[target_feature]` kernels and
//! the register transmutes.

#[cfg(not(all(
    target_arch = "x86_64",
    target_feature = "avx512vnni",
    target_feature = "avx512vbmi"
)))]
use crate::aqs::{nibble_shift, Chunk, PanelCol, CHUNK_K};
use crate::aqs::{AccTile, Quad, Runs};
use panacea_bitslice::VECTOR_LEN;

/// The dot-product kernel of one walk: `Σ_k` of a block's runs × its
/// quads, given each column's sum of its slices over the block.
pub(crate) type LoLo = fn(&Runs, &[Quad], &[i32; VECTOR_LEN]) -> AccTile;

#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx512vnni",
    target_feature = "avx512vbmi"
))]
pub(crate) use vnni::{lo_lo, unpack};

/// A build without the dot product has no LO×LO kernel.
#[cfg(not(all(
    target_arch = "x86_64",
    target_feature = "avx512vnni",
    target_feature = "avx512vbmi"
)))]
pub(crate) fn lo_lo(_cols: usize) -> Option<LoLo> {
    None
}

/// A chunk's eight `k` as k-major columns, each slice back in `[-8, 7]`.
#[cfg(not(all(
    target_arch = "x86_64",
    target_feature = "avx512vnni",
    target_feature = "avx512vbmi"
)))]
pub(crate) fn unpack(chunk: &Chunk) -> [PanelCol; CHUNK_K] {
    std::array::from_fn(|o| {
        chunk
            .0
            .map(|word| (word >> nibble_shift(o) & 0xF) as i8 - 8)
    })
}

#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx512vnni",
    target_feature = "avx512vbmi"
))]
mod vnni {
    use std::arch::x86_64::*;

    use super::LoLo;
    use crate::aqs::{AccTile, Chunk, PanelCol, Quad, Runs, CHUNK_K};
    use panacea_bitslice::VECTOR_LEN;

    /// `vpermb` indices from a chunk's nibble half (16 rows × 4 `k`,
    /// row-major) to four k-major columns: byte `l` ← byte
    /// `4·(l % 16) + l / 16`.
    const K_MAJOR: [u8; 64] = {
        let mut idx = [0; 64];
        let mut l = 0;
        while l < 64 {
            idx[l] = (4 * (l % 16) + l / 16) as u8;
            l += 1;
        }
        idx
    };

    /// A chunk's eight `k` as k-major columns, each slice back in
    /// `[-8, 7]`: one `vpermb` per nibble half.
    pub(crate) fn unpack(chunk: &Chunk) -> [PanelCol; CHUNK_K] {
        // SAFETY: as for `products`.
        unsafe { unpack_vbmi(chunk) }
    }

    #[target_feature(enable = "avx512vnni,avx512vbmi")]
    fn unpack_vbmi(chunk: &Chunk) -> [PanelCol; CHUNK_K] {
        // SAFETY: 64 bytes into a 64-byte vector, by value: same size,
        // and every bit pattern is a valid `__m512i`.
        let k_major = unsafe { std::mem::transmute::<[u8; 64], __m512i>(K_MAJOR) };
        let (low, high) = nibbles(chunk);
        let eight = _mm512_set1_epi8(8);
        let cols =
            [low, high].map(|half| _mm512_sub_epi8(_mm512_permutexvar_epi8(k_major, half), eight));
        // SAFETY: two 64-byte vectors into eight columns of sixteen `i8`,
        // by value: same size, and every bit pattern is a valid `i8`.
        unsafe { std::mem::transmute::<[__m512i; 2], [PanelCol; CHUNK_K]>(cols) }
    }

    /// A chunk's low and high nibbles, each in a byte as `slice + 8`: an
    /// AND and a shift-AND.
    #[inline]
    #[target_feature(enable = "avx512vnni,avx512vbmi")]
    fn nibbles(chunk: &Chunk) -> (__m512i, __m512i) {
        // SAFETY: 64 bytes of `u32` into a 64-byte vector, by value:
        // same size, and every bit pattern is a valid `__m512i`.
        let w = unsafe { std::mem::transmute::<Chunk, __m512i>(*chunk) };
        let nibble = _mm512_set1_epi8(0xF);
        let low = _mm512_and_si512(w, nibble);
        let high = _mm512_and_si512(_mm512_srli_epi16::<4>(w), nibble);
        (low, high)
    }

    /// The kernel of a walk of `cols` (1 to 4) columns.
    pub(crate) fn lo_lo(cols: usize) -> Option<LoLo> {
        Some(match cols {
            1 => products::<1>,
            2 => products::<2>,
            3 => products::<3>,
            _ => products::<4>,
        })
    }

    /// `Σ_{o < 8·chunks} x[o] ⊗ w[q][o]` of the first `C` columns × the
    /// 16 rows of each of the first `4 / C` runs, over every `k` of their
    /// `chunks` chunks (`x` holds two quads per chunk, zero past `K`;
    /// `sums` its columns' sums). Tile rows no run fills stay 0.
    fn products<const C: usize>(w: &Runs, x: &[Quad], sums: &[i32; VECTOR_LEN]) -> AccTile {
        // SAFETY: the module exists only on builds whose target features
        // include avx512vnni and avx512vbmi (and, through them, avx512f
        // and avx512bw), so the CPU the build targets runs the kernel.
        unsafe { products_vnni::<C>(w, x, sums) }
    }

    #[target_feature(enable = "avx512vnni,avx512vbmi")]
    #[allow(clippy::needless_range_loop)] // `c` indexes both quads and a row
    fn products_vnni<const C: usize>(w: &Runs, x: &[Quad], sums: &[i32; VECTOR_LEN]) -> AccTile {
        let chunks = w[0].len();
        assert_eq!(x.len(), 2 * chunks, "two quads per chunk");
        let runs: [&[Chunk]; VECTOR_LEN] = w.map(|run| &run[..chunks]);
        let walked = VECTOR_LEN / C;
        // The weights are multiplied as `slice + 8`: each row of a walked
        // run starts at its column's `-8·Σx`, so the sum comes out exact.
        let mut low: [__m512i; VECTOR_LEN] = std::array::from_fn(|row| {
            if row < walked * C {
                _mm512_set1_epi32(-8 * sums[row % C])
            } else {
                _mm512_setzero_si512()
            }
        });
        let mut high = [_mm512_setzero_si512(); VECTOR_LEN];
        // One chunk into the two accumulator sets: a weight load and
        // unpack per run, a broadcast per column and quad. The low
        // nibbles hold the chunk's first quad, the high ones its second;
        // a set each, so neither waits on the latency of `vpdpbusd` on
        // its own result as often.
        for (t, x) in x.as_chunks::<2>().0.iter().enumerate() {
            for (q, run) in runs.iter().take(walked).enumerate() {
                let (w_low, w_high) = nibbles(&run[t]);
                for c in 0..C {
                    let row = q * C + c;
                    let (x_low, x_high) = (x[0][c] as i32, x[1][c] as i32);
                    low[row] = _mm512_dpbusd_epi32(low[row], _mm512_set1_epi32(x_low), w_low);
                    high[row] = _mm512_dpbusd_epi32(high[row], _mm512_set1_epi32(x_high), w_high);
                }
            }
        }
        let tile: [__m512i; VECTOR_LEN] =
            std::array::from_fn(|row| _mm512_add_epi32(low[row], high[row]));
        // SAFETY: four 64-byte vectors into four rows of sixteen `i32`,
        // by value: same size, and every bit pattern is a valid `i32`.
        unsafe { std::mem::transmute::<[__m512i; VECTOR_LEN], AccTile>(tile) }
    }
}
