//! The tile's kernels at dot-product width. Every plane of a resident
//! weight is nibble-packed in the order `vpdpbusd` reads it: a [`Chunk`]
//! is 16 rows × 8 `k` in 64 bytes, byte `4r + j` holding row `r`'s slice
//! at `k = 8t + j` in its low nibble and at `k = 8t + 4 + j` in its high
//! one, each as `slice + 8`. On builds that target AVX-512 VNNI and VBMI
//! the module holds four kernels; `vpdpbusd` sums four `u8 · i8`
//! products into each `i32` lane, 64 slice MACs an instruction, where
//! the `i16` tile takes a multiply and an add for 16.
//!
//! [`lo_lo`], lanes along M: every pair of a raw `u8` LO activation
//! plane with a weight plane whose walk runs every `k` of a block —
//! LO×LO everywhere, and HO_w×LO_x in a narrow walk, exact over every
//! `k` because a compressed HO vector is stored as zeros. A chunk unpacks
//! with an AND and a shift-AND into its two nibble halves, each four `k`
//! × 16 rows, row-major, as the dot product wants them; the `+ 8` is
//! taken back at once, by starting each row's sum at `−8 · Σx` of its
//! column. The activation side is one [`Quad`] per four `k` (column
//! `c`'s four slices in the bytes of word `c`), broadcast with
//! `vpbroadcastd`; every n-group, of a full tile or a narrow one, reads
//! its quads from the tile's [`WideQuad`]s, every fourth `Quad`. Tile row
//! `q·C + c` holds run `q` × column `c`, as in the `i16` tile's lanes
//! along M.
//!
//! [`lanes_n`], lanes along N: a full tile's HO weight plane × an LO
//! activation plane, the paper's DWO work on uncompressed 4×1 weight
//! vectors. One `i32` accumulator per m-group row holds the 16 columns,
//! and each live k-quad adds one `vpdpbusd` per row: the row's four
//! slices, signed (a [`RowQuad`] word, broadcast from memory), against
//! the 16 columns' [`WideQuad`]. It walks only the quads where one of
//! the m-group's four HO vectors is uncompressed, so it skips weights at
//! four `k` a step and executes the few zeros a live quad holds.
//!
//! The intake [`lanes_n`] returns with it: a tile's LO activation planes
//! as [`WideQuad`]s at any width from 1 to 16 columns, one `vpermb` per
//! four `k` (four 16-byte rows of the `u8` plane, column by column, the
//! columns past a narrow tile's width masked to zero), with each block's
//! column sums from one `vpdpbusd` a quad. Every lanes-along-M walk of a
//! `u8` stack reads the same quads.
//!
//! [`unpack`]: the `i16` tile's lanes along M, which run the pairs of
//! the re-centred HO activation plane, Sibia's signed activations and
//! every pair of a build without the two extensions, read k-major
//! [`PanelCol`]s, and a chunk becomes eight of them with one `vpermb` per
//! nibble half (a safe shift-and-mask elsewhere).
//!
//! Every sum is the `i16` tile's exactly: the same 256-`k` block bound
//! keeps it below `i16::MAX`, so neither wraps (the `const` assertion
//! in `aqs`), and `plan::accumulator_bound` covers both. The choice is
//! made at compile time. This module holds the crate's only `unsafe`:
//! the calls into the `#[target_feature]` kernels and the register
//! transmutes.

#[cfg(not(all(
    target_arch = "x86_64",
    target_feature = "avx512vnni",
    target_feature = "avx512vbmi"
)))]
use crate::aqs::{nibble_shift, Chunk, PanelCol, CHUNK_K};
use crate::aqs::{AccTile, KMask, Quad, RowQuad, Runs, WideQuad};
use panacea_bitslice::VECTOR_LEN;

/// The dot-product kernel of one lanes-along-M walk: `Σ_k` of a block's
/// runs × its quads, given each column's sum of its slices over the
/// block.
pub(crate) type LoLo = fn(&Runs, &[Quad], &[i32; VECTOR_LEN]) -> AccTile;

/// The dot-product kernel of a full tile's HO weight plane: per m-group
/// of a panel, `Σ_k` of its rows of a block's [`RowQuad`]s × the block's
/// [`WideQuad`]s of an LO activation plane, over the quads whose first
/// `k` is set in its mask, scaled and added to its tile.
pub(crate) type LanesN = fn(&[RowQuad], &[WideQuad], &[KMask], i32, &mut [AccTile]);

/// A tile's intake of one `u8` LO activation plane (`K` rows of `N`
/// slices): the [`WideQuad`]s of its columns `c0 .. c0 + 16`, zero past
/// `K` and `N`, and per 256-`k` block the 16 columns' sums.
pub(crate) type Intake = fn(&[u8], usize, usize, &mut [WideQuad], &mut [[i32; 16]]);

#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx512vnni",
    target_feature = "avx512vbmi"
))]
pub(crate) use vnni::{lanes_n, lo_lo, unpack};

/// A build without the dot product has no LO×LO kernel.
#[cfg(not(all(
    target_arch = "x86_64",
    target_feature = "avx512vnni",
    target_feature = "avx512vbmi"
)))]
pub(crate) fn lo_lo(_cols: usize) -> Option<LoLo> {
    None
}

/// Nor a lanes-along-N one, nor an intake: the `i16` tile reads the
/// widened planes.
#[cfg(not(all(
    target_arch = "x86_64",
    target_feature = "avx512vnni",
    target_feature = "avx512vbmi"
)))]
pub(crate) fn lanes_n() -> Option<(LanesN, Intake)> {
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

    use super::{Intake, LanesN, LoLo};
    use crate::aqs::{
        AccTile, Chunk, KMask, PanelCol, Quad, RowQuad, Runs, WideQuad, CHUNK_K, K_BLOCK,
    };
    use panacea_bitslice::VECTOR_LEN;

    /// `vpermb` indices from a chunk's nibble half (16 rows × 4 `k`,
    /// row-major) to four k-major columns: byte `l` ← byte
    /// `4·(l % 16) + l / 16`.
    const K_MAJOR: [u32; 16] = {
        let mut idx = [0; 64];
        let mut l = 0;
        while l < 64 {
            idx[l] = (4 * (l % 16) + l / 16) as u8;
            l += 1;
        }
        little_endian(idx)
    };

    /// `vpermb` indices from four `k` × 16 columns (row-major) to a
    /// [`WideQuad`]: byte `4c + j` ← byte `16j + c`.
    const COLUMN_MAJOR: [u32; 16] = {
        let mut idx = [0; 64];
        let mut l = 0;
        while l < 64 {
            idx[l] = (16 * (l % 4) + l / 4) as u8;
            l += 1;
        }
        little_endian(idx)
    };

    /// 64 bytes as 16 little-endian words.
    const fn little_endian(bytes: [u8; 64]) -> [u32; 16] {
        let mut words = [0; 16];
        let mut l = 0;
        while l < 64 {
            words[l / 4] |= (bytes[l] as u32) << (8 * (l % 4));
            l += 1;
        }
        words
    }

    /// A chunk's eight `k` as k-major columns, each slice back in
    /// `[-8, 7]`: one `vpermb` per nibble half.
    pub(crate) fn unpack(chunk: &Chunk) -> [PanelCol; CHUNK_K] {
        // SAFETY: as for `products`.
        unsafe { unpack_vbmi(chunk) }
    }

    #[target_feature(enable = "avx512vnni,avx512vbmi")]
    fn unpack_vbmi(chunk: &Chunk) -> [PanelCol; CHUNK_K] {
        let (low, high) = nibbles(chunk);
        let eight = _mm512_set1_epi8(8);
        let cols = [low, high]
            .map(|half| _mm512_sub_epi8(_mm512_permutexvar_epi8(words(K_MAJOR), half), eight));
        // SAFETY: two 64-byte vectors into eight columns of sixteen `i8`,
        // by value: same size, and every bit pattern is a valid `i8`.
        unsafe { std::mem::transmute::<[__m512i; 2], [PanelCol; CHUNK_K]>(cols) }
    }

    /// 16 words as a vector.
    #[inline]
    #[target_feature(enable = "avx512vnni,avx512vbmi")]
    fn words(words: [u32; 16]) -> __m512i {
        // SAFETY: 64 bytes of `u32` into a 64-byte vector, by value:
        // same size, and every bit pattern is a valid `__m512i`.
        unsafe { std::mem::transmute::<[u32; 16], __m512i>(words) }
    }

    /// A vector as 16 words.
    #[inline]
    #[target_feature(enable = "avx512vnni,avx512vbmi")]
    fn to_words(v: __m512i) -> [u32; 16] {
        // SAFETY: a 64-byte vector into 16 `u32`, by value: same size,
        // and every bit pattern is a valid `u32`.
        unsafe { std::mem::transmute::<__m512i, [u32; 16]>(v) }
    }

    /// A chunk's low and high nibbles, each in a byte as `slice + 8`: an
    /// AND and a shift-AND.
    #[inline]
    #[target_feature(enable = "avx512vnni,avx512vbmi")]
    fn nibbles(chunk: &Chunk) -> (__m512i, __m512i) {
        let w = words(chunk.0);
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
    /// `chunks` chunks (`x` holds two quads per chunk, every fourth
    /// [`Quad`] of a tile's [`WideQuad`]s, zero past `K`; `sums` its
    /// columns' sums). Tile rows no run fills stay 0.
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
        assert_eq!(x.len(), 2 * VECTOR_LEN * chunks, "two quads per chunk");
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
        let (x, _) = x.as_chunks::<VECTOR_LEN>();
        for (t, x) in x.as_chunks::<2>().0.iter().enumerate() {
            for (q, run) in runs.iter().take(walked).enumerate() {
                let (w_low, w_high) = nibbles(&run[t]);
                for c in 0..C {
                    let row = q * C + c;
                    let (x_low, x_high) = (x[0][0][c] as i32, x[1][0][c] as i32);
                    low[row] = _mm512_dpbusd_epi32(low[row], _mm512_set1_epi32(x_low), w_low);
                    high[row] = _mm512_dpbusd_epi32(high[row], _mm512_set1_epi32(x_high), w_high);
                }
            }
        }
        let tile: [__m512i; VECTOR_LEN] =
            std::array::from_fn(|row| _mm512_add_epi32(low[row], high[row]));
        acc_tile(tile)
    }

    /// Four row vectors of sixteen `i32` as a tile.
    #[inline]
    #[target_feature(enable = "avx512vnni,avx512vbmi")]
    fn acc_tile(rows: [__m512i; VECTOR_LEN]) -> AccTile {
        // SAFETY: four 64-byte vectors into four rows of sixteen `i32`,
        // by value: same size, and every bit pattern is a valid `i32`.
        unsafe { std::mem::transmute::<[__m512i; VECTOR_LEN], AccTile>(rows) }
    }

    /// The lanes-along-N kernel and the intake that feeds it and every
    /// tile's lanes along M.
    pub(crate) fn lanes_n() -> Option<(LanesN, Intake)> {
        Some((lanes_n_of, intake_of))
    }

    /// Per m-group `g` of the panel: `acc[g] += scale · Σ_{q: bit 4q of
    /// quads[g]} x[q] ⊗ w[q][4g .. 4g + 4]`, the m-group's four rows × 16
    /// columns over its live quads of one block.
    fn lanes_n_of(w: &[RowQuad], x: &[WideQuad], quads: &[KMask], scale: i32, acc: &mut [AccTile]) {
        // SAFETY: as for `products`.
        unsafe { lanes_n_vnni(w, x, quads, scale, acc) }
    }

    #[target_feature(enable = "avx512vnni,avx512vbmi")]
    fn lanes_n_vnni(
        w: &[RowQuad],
        x: &[WideQuad],
        quads: &[KMask],
        scale: i32,
        acc: &mut [AccTile],
    ) {
        // Two slices of one length: the bounds check on `x` covers both.
        let w = &w[..x.len()];
        assert!(quads.len() <= VECTOR_LEN, "the m-groups of a panel");
        let scale = _mm512_set1_epi32(scale);
        for (g, (quads, acc)) in quads.iter().zip(acc).enumerate() {
            let mac = |sum: &mut [__m512i; VECTOR_LEN], q: usize| {
                let x_quad = words(x[q]);
                let rows = &w[q].0.as_chunks::<VECTOR_LEN>().0[g];
                for (sum, row) in sum.iter_mut().zip(rows) {
                    let slices = _mm512_set1_epi32(i32::from_le_bytes(row.map(|s| s as u8)));
                    *sum = _mm512_dpbusd_epi32(*sum, x_quad, slices);
                }
            };
            // Two accumulator sets taking the live quads in turn, so a
            // row's chain waits on the latency of `vpdpbusd` half as
            // often.
            let zero = [_mm512_setzero_si512(); VECTOR_LEN];
            let (mut even, mut odd, mut turn) = (zero, zero, false);
            for (word, &bits) in quads.iter().enumerate() {
                let mut bits = bits;
                while bits != 0 {
                    let q = word * 16 + bits.trailing_zeros() as usize / VECTOR_LEN;
                    if turn {
                        mac(&mut odd, q);
                    } else {
                        mac(&mut even, q);
                    }
                    turn = !turn;
                    bits &= bits - 1;
                }
            }
            let rows = tile_rows(*acc);
            *acc = acc_tile(std::array::from_fn(|r| {
                let sum = _mm512_add_epi32(even[r], odd[r]);
                _mm512_add_epi32(rows[r], _mm512_mullo_epi32(sum, scale))
            }));
        }
    }

    /// A tile as four row vectors.
    #[inline]
    #[target_feature(enable = "avx512vnni,avx512vbmi")]
    fn tile_rows(tile: AccTile) -> [__m512i; VECTOR_LEN] {
        // SAFETY: four rows of sixteen `i32` into four 64-byte vectors,
        // by value: same size, and every bit pattern is valid.
        unsafe { std::mem::transmute::<AccTile, [__m512i; VECTOR_LEN]>(tile) }
    }

    fn intake_of(
        plane: &[u8],
        n: usize,
        c0: usize,
        quads: &mut [WideQuad],
        sums: &mut [[i32; 16]],
    ) {
        // SAFETY: as for `products`.
        unsafe { intake_vbmi(plane, n, c0, quads, sums) }
    }

    /// Fills `quads` with columns `c0 .. c0 + 16` of `plane`, zero past
    /// `K` and `n`, and `sums` with their blocks' column sums.
    #[target_feature(enable = "avx512vnni,avx512vbmi")]
    fn intake_vbmi(
        plane: &[u8],
        n: usize,
        c0: usize,
        quads: &mut [WideQuad],
        sums: &mut [[i32; 16]],
    ) {
        // The bytes `4c + j` of the columns the plane has.
        let present = u64::MAX >> (4 * (c0 + 16).saturating_sub(n));
        let ones = _mm512_set1_epi8(1);
        let blocks = quads.chunks_mut(K_BLOCK / VECTOR_LEN).zip(sums);
        for (kb, (quads, sum)) in blocks.enumerate() {
            let mut acc = _mm512_setzero_si512();
            for (i, quad) in quads.iter_mut().enumerate() {
                let k0 = kb * K_BLOCK + i * VECTOR_LEN;
                // 16 bytes from each row's first column, whatever columns
                // past the tile's they hold: the mask drops them.
                let rows: [[u8; 16]; VECTOR_LEN] = std::array::from_fn(|j| {
                    let at = (k0 + j) * n + c0;
                    match plane.get(at..at + 16) {
                        Some(row) => row.try_into().expect("16 bytes"),
                        // The plane ends within them: the bytes it has.
                        None => {
                            let (mut row, rest) = ([0; 16], plane.get(at..).unwrap_or_default());
                            row[..rest.len()].copy_from_slice(rest);
                            row
                        }
                    }
                });
                // SAFETY: four rows of 16 bytes into a 64-byte vector, by
                // value: same size, and every bit pattern is valid.
                let rows = unsafe { std::mem::transmute::<[[u8; 16]; VECTOR_LEN], __m512i>(rows) };
                let x = _mm512_maskz_permutexvar_epi8(present, words(COLUMN_MAJOR), rows);
                acc = _mm512_dpbusd_epi32(acc, x, ones);
                *quad = to_words(x);
            }
            // A column sum is at most 256 · 15.
            *sum = to_words(acc).map(|s| s as i32);
        }
    }
}
