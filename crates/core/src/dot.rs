//! The tile's kernels at dot-product width. Every plane of a resident
//! weight is nibble-packed in the order `vpdpbusd` reads it: a [`Chunk`]
//! is 16 rows × 8 `k` in 64 bytes, byte `4r + j` holding row `r`'s slice
//! at `k = 8t + j` in its low nibble and at `k = 8t + 4 + j` in its high
//! one, each as `slice + 8`. On builds that target AVX-512 VNNI and VBMI
//! the module holds the tile's dot-product kernels ([`Kernels`]) and the
//! `i16` tile's unpack; `vpdpbusd` sums four `u8 · i8` products into
//! each `i32` lane, 64 slice MACs an instruction, where the `i16` tile
//! takes a multiply and an add for 16.
//!
//! Lanes along M ([`LanesM`] walks and a full tile's [`Panel`]): the
//! weight nibble, `slice + 8` ∈ [0, 15], is the unsigned operand, and an
//! activation quad (a column's four slices, the bytes of one word) the
//! signed one, broadcast from memory (`{1to16}`). A chunk unpacks with an
//! AND and a shift-AND into its two nibble halves, each four `k` × 16
//! rows, row-major, as the dot product wants them; the `+ 8` is taken
//! back at once, by starting each row's sum at `−8 · Σx` of its column
//! over the block. Every activation plane of a `u8` stack is read this
//! way: the LO planes raw (`[0, 15]`), the HO plane re-centred
//! (`x_HO − r` ∈ [−15, 15]). A walk of the HO plane covers only the
//! n-group's live k-quads: a dead quad is zeros in every column, so the
//! correction stays the block's column sum. A [`LanesM`] walk carries
//! `C` (1 to 4) columns of one n-group × `4 / C` panels (tile row
//! `q·C + c` holds run `q` × column `c`, as in the `i16` tile's lanes
//! along M) and reads every fourth [`Quad`] of the tile's [`WideQuad`]s;
//! on a full tile, the HO plane's walk of an n-group adds into a quarter
//! of the panel's column-major [`PanelTile`], and a [`Panel`] walk
//! carries an LO plane's 16 columns × one panel, so each chunk is split
//! once for the 16; [`Transpose`] adds the tile to the panel's rows once.
//!
//! [`LanesN`], lanes along N: a full tile's HO weight plane × an LO
//! activation plane, the paper's DWO work on uncompressed 4×1 weight
//! vectors. One `i32` accumulator per m-group row holds the 16 columns,
//! and each live k-quad adds one `vpdpbusd` per row: the row's four
//! slices, signed (a [`RowQuad`] word, broadcast from memory), against
//! the 16 columns' [`WideQuad`]. It walks only the quads where one of
//! the m-group's four HO vectors is uncompressed, so it skips weights at
//! four `k` a step and executes the few zeros a live quad holds.
//!
//! [`Intake`]: a tile's activation planes as [`WideQuad`]s at any width
//! from 1 to 16 columns, one `vpermb` per four `k` (the 64 bytes from the
//! quad's first row of the `u8` plane where `N ≤ 16`, four 16-byte rows
//! past that, column by column) and one masked `vpsubb` (by `r` on the
//! HO plane, 0 on an LO one, the bytes past a narrow tile's width or past
//! `K` zeroed), with each block's column sums from one `vpdpbusd` a quad
//! against ones. Every dot-product walk of a `u8` stack reads them.
//!
//! [`unpack`]: the `i16` tile's lanes along M, which run HO×HO in a
//! narrow walk, Sibia's signed activations and every pair of a build
//! without the two extensions, read k-major [`PanelCol`]s, and a chunk
//! becomes eight of them with one `vpermb` per nibble half (a safe
//! shift-and-mask elsewhere).
//!
//! Every sum is the `i16` tile's exactly: before the correction an `i32`
//! lane holds `Σ(w + 8)·x` of a block, well inside `i32`, and after it
//! `Σ w·x`, which the 256-`k` block bound keeps below `i16::MAX` (the
//! `const` assertion in `aqs`), so `plan::accumulator_bound` covers both
//! paths. The choice is made at compile time. This module holds the
//! crate's only `unsafe`: the calls into the `#[target_feature]` kernels
//! and the register transmutes.

#[cfg(not(all(
    target_arch = "x86_64",
    target_feature = "avx512vnni",
    target_feature = "avx512vbmi"
)))]
use crate::aqs::{nibble_shift, PanelCol, CHUNK_K};
use crate::aqs::{AccTile, Chunk, PanelTile, Quad, QuadMask, RowQuad, Runs, WideQuad};
use panacea_bitslice::VECTOR_LEN;

/// The dot-product kernel of one lanes-along-M walk: `Σ_k` of a block's
/// runs × its quads over the k-quads set in the mask (every quad where it
/// is `None`), given each column's sum of its slices over the block,
/// scaled and added to the walk's tile.
pub(crate) type LanesM =
    fn(&Runs, &[Quad], &[i32; VECTOR_LEN], Option<QuadMask>, i32, &mut AccTile);

/// The dot-product kernel of a full tile's LO activation planes, lanes
/// along M: one panel's run of a block × the 16 columns' [`WideQuad`]s
/// over every `k`, given the columns' sums, scaled and added to the
/// panel's [`PanelTile`].
pub(crate) type Panel = fn(&[Chunk], &[WideQuad], &[i32; 16], i32, &mut PanelTile);

/// A full tile's [`PanelTile`] added to its panel's row-major tiles: the
/// 16 × 16 transpose, in registers.
pub(crate) type Transpose = fn(&PanelTile, &mut [AccTile; VECTOR_LEN]);

/// The dot-product kernel of a full tile's HO weight plane: per m-group
/// of a panel, `Σ_k` of its rows of a block's [`RowQuad`]s × the block's
/// [`WideQuad`]s of an LO activation plane, over the quads whose first
/// `k` is set in its mask, scaled and added to its tile.
pub(crate) type LanesN = fn(&[RowQuad], &[WideQuad], &[QuadMask], i32, &mut [AccTile]);

/// A tile's intake of one `u8` activation plane (`K` rows of `N` slices)
/// re-centred by `r`: the [`WideQuad`]s of its columns `c0 .. c0 + 16`,
/// zero past `K` and `N`, and per 256-`k` block the 16 columns' sums.
pub(crate) type Intake = fn(&[u8], usize, usize, u8, &mut [WideQuad], &mut [[i32; 16]]);

/// The dot-product kernels of a build that has them.
#[derive(Clone, Copy)]
pub(crate) struct Kernels {
    /// Lanes-along-M walks, by their width in columns less one.
    pub(crate) lanes_m: [LanesM; VECTOR_LEN],
    pub(crate) panel: Panel,
    pub(crate) transpose: Transpose,
    pub(crate) lanes_n: LanesN,
    pub(crate) intake: Intake,
}

#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx512vnni",
    target_feature = "avx512vbmi"
))]
pub(crate) use vnni::{kernels, unpack};

/// A build without the dot product has none: the `i16` tile reads the
/// widened planes.
#[cfg(not(all(
    target_arch = "x86_64",
    target_feature = "avx512vnni",
    target_feature = "avx512vbmi"
)))]
pub(crate) fn kernels() -> Option<Kernels> {
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

    use super::Kernels;
    use crate::aqs::{
        AccTile, Chunk, PanelCol, PanelTile, Quad, QuadMask, RowQuad, Runs, WideQuad, CHUNK_K,
        K_BLOCK,
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

    /// `vpermb` indices from four `k` × 16 columns, row `j` from byte
    /// `stride · j`, to a [`WideQuad`]: byte `4c + j` ← byte
    /// `stride · j + c`.
    const fn column_major(stride: usize) -> [u32; 16] {
        let mut idx = [0; 64];
        let mut l = 0;
        while l < 64 {
            idx[l] = (stride * (l % 4) + l / 4) as u8;
            l += 1;
        }
        little_endian(idx)
    }

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

    /// The bytes `4c + j` of a [`WideQuad`], per `j`: bit `4c + j` set.
    const BYTE_J: u64 = 0x1111_1111_1111_1111;

    /// The kernels, chosen by width where that matters.
    pub(crate) fn kernels() -> Option<Kernels> {
        Some(Kernels {
            lanes_m: [products::<1>, products::<2>, products::<3>, products::<4>],
            panel,
            transpose,
            lanes_n: lanes_n_of,
            intake: intake_of,
        })
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

    /// The nibble half of `chunk` that holds k-quad `q`: a shift by 0 or 4
    /// and an AND.
    #[inline]
    #[target_feature(enable = "avx512vnni,avx512vbmi")]
    fn half(chunk: &Chunk, q: usize) -> __m512i {
        let shift = _mm_cvtsi32_si128(4 * (q % 2) as i32);
        _mm512_and_si512(
            _mm512_srl_epi16(words(chunk.0), shift),
            _mm512_set1_epi8(0xF),
        )
    }

    /// Calls `f` on each k-quad set in `live`, ascending, with whether it
    /// is an odd one of them: two accumulator sets taking the quads in
    /// turn wait on the latency of `vpdpbusd` on their own results half
    /// as often.
    #[inline]
    #[target_feature(enable = "avx512vnni,avx512vbmi")]
    fn for_each_quad(live: QuadMask, mut f: impl FnMut(usize, bool)) {
        let (mut bits, mut turn) = (live, false);
        while bits != 0 {
            f(bits.trailing_zeros() as usize, turn);
            turn = !turn;
            bits &= bits - 1;
        }
    }

    /// A quad's weights × the signed quad at `x`, added to `acc`: the
    /// activation word is the `{1to16}` broadcast operand.
    #[inline]
    #[target_feature(enable = "avx512vnni,avx512vbmi")]
    fn mac(acc: __m512i, w: __m512i, x: u32) -> __m512i {
        _mm512_dpbusd_epi32(acc, w, _mm512_set1_epi32(x as i32))
    }

    /// `acc += scale · Σ_{o ∈ live} x[o] ⊗ w[q][o]` of the first `C`
    /// columns × the 16 rows of each of the first `4 / C` runs, over the
    /// k-quads of their `chunks` chunks set in `live`, or all of them
    /// (`x` holds two quads per chunk, every fourth [`Quad`] of a tile's
    /// [`WideQuad`]s, zero past `K` and on every quad `live` leaves out;
    /// `sums` its columns' sums). Tile rows no run fills are left as
    /// they are.
    fn products<const C: usize>(
        w: &Runs,
        x: &[Quad],
        sums: &[i32; VECTOR_LEN],
        live: Option<QuadMask>,
        scale: i32,
        acc: &mut AccTile,
    ) {
        // SAFETY: the module exists only on builds whose target features
        // include avx512vnni and avx512vbmi (and, through them, avx512f
        // and avx512bw), so the CPU the build targets runs the kernel.
        unsafe { products_vnni::<C>(w, x, sums, live, scale, acc) }
    }

    #[target_feature(enable = "avx512vnni,avx512vbmi")]
    #[allow(clippy::needless_range_loop)] // `c` indexes both quads and a row
    fn products_vnni<const C: usize>(
        w: &Runs,
        x: &[Quad],
        sums: &[i32; VECTOR_LEN],
        live: Option<QuadMask>,
        scale: i32,
        acc: &mut AccTile,
    ) {
        let chunks = w[0].len();
        assert_eq!(x.len(), 2 * VECTOR_LEN * chunks, "two quads per chunk");
        let runs: [&[Chunk]; VECTOR_LEN] = w.map(|run| &run[..chunks]);
        let walked = VECTOR_LEN / C;
        // The weights are multiplied as `slice + 8`: each row of a walked
        // run starts at its column's `-8·Σx`, so the sum comes out exact.
        // Two accumulator sets, so neither waits on the latency of
        // `vpdpbusd` on its own result as often.
        let mut even: [__m512i; VECTOR_LEN] = std::array::from_fn(|row| {
            if row < walked * C {
                _mm512_set1_epi32(-8 * sums[row % C])
            } else {
                _mm512_setzero_si512()
            }
        });
        let mut odd = [_mm512_setzero_si512(); VECTOR_LEN];
        // The walk's quads: `x[q][0]`.
        let (x, _) = x.as_chunks::<VECTOR_LEN>();
        match live {
            // Every quad: a chunk's low nibbles hold its first quad, into
            // the even set, the high ones its second, into the odd set —
            // a weight load and split per run, a broadcast per column and
            // quad.
            None => {
                for (t, x) in x.as_chunks::<2>().0.iter().enumerate() {
                    for (q, run) in runs.iter().take(walked).enumerate() {
                        let (w_low, w_high) = nibbles(&run[t]);
                        for c in 0..C {
                            let row = q * C + c;
                            even[row] = mac(even[row], w_low, x[0][0][c]);
                            odd[row] = mac(odd[row], w_high, x[1][0][c]);
                        }
                    }
                }
            }
            // The live quads, the sets taking them in turn.
            Some(live) => for_each_quad(live, |q, turn| {
                let quad = |acc: &mut [__m512i; VECTOR_LEN]| {
                    for (r, run) in runs.iter().take(walked).enumerate() {
                        let w = half(&run[q / 2], q);
                        for c in 0..C {
                            let row = r * C + c;
                            acc[row] = mac(acc[row], w, x[q][0][c]);
                        }
                    }
                };
                match turn {
                    true => quad(&mut odd),
                    false => quad(&mut even),
                }
            }),
        }
        let (rows, scale) = (tile_rows(*acc), _mm512_set1_epi32(scale));
        *acc = acc_tile(std::array::from_fn(|row| {
            let sum = _mm512_add_epi32(even[row], odd[row]);
            _mm512_add_epi32(rows[row], _mm512_mullo_epi32(sum, scale))
        }));
    }

    /// `acc[c] += scale · Σ_o x[o][c] · w[o]` for the 16 columns `c` of
    /// a full tile × the 16 rows of one panel's run, over every `k` of its
    /// chunks (`x` holds two [`WideQuad`]s per chunk, zero past `K`;
    /// `sums` the columns' sums).
    fn panel(run: &[Chunk], x: &[WideQuad], sums: &[i32; 16], scale: i32, acc: &mut PanelTile) {
        // SAFETY: as for `products`.
        unsafe { panel_vnni(run, x, sums, scale, acc) }
    }

    #[target_feature(enable = "avx512vnni,avx512vbmi")]
    fn panel_vnni(
        run: &[Chunk],
        x: &[WideQuad],
        sums: &[i32; 16],
        scale: i32,
        acc: &mut PanelTile,
    ) {
        let x = &x[..2 * run.len()];
        // Each chunk split once for all 16 columns: sixteen independent
        // chains of two `vpdpbusd` a chunk.
        let mut cols: [__m512i; 16] = std::array::from_fn(|c| _mm512_set1_epi32(-8 * sums[c]));
        for (x, chunk) in x.as_chunks::<2>().0.iter().zip(run) {
            let (w_low, w_high) = nibbles(chunk);
            for (c, col) in cols.iter_mut().enumerate() {
                *col = mac(mac(*col, w_low, x[0][c]), w_high, x[1][c]);
            }
        }
        // The panel tile as four tiles of an n-group's four columns.
        let scale = _mm512_set1_epi32(scale);
        let tiles = acc.as_chunks_mut::<VECTOR_LEN>().0;
        for (tile, cols) in tiles.iter_mut().zip(cols.as_chunks::<VECTOR_LEN>().0) {
            let rows = tile_rows(*tile);
            *tile = acc_tile(std::array::from_fn(|c| {
                _mm512_add_epi32(rows[c], _mm512_mullo_epi32(cols[c], scale))
            }));
        }
    }

    /// `rows[r / 4][r % 4][c] += cols[c][r]`.
    fn transpose(cols: &PanelTile, rows: &mut [AccTile; VECTOR_LEN]) {
        // SAFETY: as for `products`.
        unsafe { transpose_avx512(cols, rows) }
    }

    /// Two rounds of unpacks within 128-bit lanes, then a 4 × 4
    /// transpose of lanes: 64 shuffles for 256 elements.
    #[target_feature(enable = "avx512vnni,avx512vbmi")]
    fn transpose_avx512(cols: &PanelTile, rows: &mut [AccTile; VECTOR_LEN]) {
        let mut a = [_mm512_setzero_si512(); 16];
        for (a, tile) in a
            .as_chunks_mut::<VECTOR_LEN>()
            .0
            .iter_mut()
            .zip(cols.as_chunks().0)
        {
            *a = tile_rows(*tile);
        }
        // Lane `l` of `t[i]` / `t[i + 1]`: rows `4l, 4l + 1` / `4l + 2,
        // 4l + 3` of columns `i, i + 1`, interleaved.
        let mut t = [_mm512_setzero_si512(); 16];
        for i in (0..16).step_by(2) {
            t[i] = _mm512_unpacklo_epi32(a[i], a[i + 1]);
            t[i + 1] = _mm512_unpackhi_epi32(a[i], a[i + 1]);
        }
        // Lane `l` of `u[4b + s]`: row `4l + s`, columns `4b .. 4b + 4`.
        let mut u = [_mm512_setzero_si512(); 16];
        for i in (0..16).step_by(4) {
            u[i] = _mm512_unpacklo_epi64(t[i], t[i + 2]);
            u[i + 1] = _mm512_unpackhi_epi64(t[i], t[i + 2]);
            u[i + 2] = _mm512_unpacklo_epi64(t[i + 1], t[i + 3]);
            u[i + 3] = _mm512_unpackhi_epi64(t[i + 1], t[i + 3]);
        }
        let mut out = [_mm512_setzero_si512(); 16];
        for (i, tile) in out
            .as_chunks_mut::<VECTOR_LEN>()
            .0
            .iter_mut()
            .zip(rows.iter())
        {
            *i = tile_rows(*tile);
        }
        for s in 0..VECTOR_LEN {
            let [v0, v1, v2, v3] = [0, 1, 2, 3].map(|b| u[4 * b + s]);
            let (low01, high01) = (
                _mm512_shuffle_i32x4::<0x44>(v0, v1),
                _mm512_shuffle_i32x4::<0xEE>(v0, v1),
            );
            let (low23, high23) = (
                _mm512_shuffle_i32x4::<0x44>(v2, v3),
                _mm512_shuffle_i32x4::<0xEE>(v2, v3),
            );
            let row = [
                _mm512_shuffle_i32x4::<0x88>(low01, low23),
                _mm512_shuffle_i32x4::<0xDD>(low01, low23),
                _mm512_shuffle_i32x4::<0x88>(high01, high23),
                _mm512_shuffle_i32x4::<0xDD>(high01, high23),
            ];
            for (l, row) in row.into_iter().enumerate() {
                out[4 * l + s] = _mm512_add_epi32(out[4 * l + s], row);
            }
        }
        for (tile, out) in rows.iter_mut().zip(out.as_chunks().0) {
            *tile = acc_tile(*out);
        }
    }

    /// Four row vectors of sixteen `i32` as a tile.
    #[inline]
    #[target_feature(enable = "avx512vnni,avx512vbmi")]
    fn acc_tile(rows: [__m512i; VECTOR_LEN]) -> AccTile {
        // SAFETY: four 64-byte vectors into four rows of sixteen `i32`,
        // by value: same size, and every bit pattern is a valid `i32`.
        unsafe { std::mem::transmute::<[__m512i; VECTOR_LEN], AccTile>(rows) }
    }

    /// Per m-group `g` of the panel: `acc[g] += scale · Σ_{q: bit q of
    /// quads[g]} x[q] ⊗ w[q][4g .. 4g + 4]`, the m-group's four rows × 16
    /// columns over its live quads of one block.
    fn lanes_n_of(
        w: &[RowQuad],
        x: &[WideQuad],
        quads: &[QuadMask],
        scale: i32,
        acc: &mut [AccTile],
    ) {
        // SAFETY: as for `products`.
        unsafe { lanes_n_vnni(w, x, quads, scale, acc) }
    }

    #[target_feature(enable = "avx512vnni,avx512vbmi")]
    fn lanes_n_vnni(
        w: &[RowQuad],
        x: &[WideQuad],
        quads: &[QuadMask],
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
            let zero = [_mm512_setzero_si512(); VECTOR_LEN];
            let (mut even, mut odd) = (zero, zero);
            // Each set in registers: a branch per set, not a pointer.
            for_each_quad(*quads, |q, turn| match turn {
                true => mac(&mut odd, q),
                false => mac(&mut even, q),
            });
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
        r: u8,
        quads: &mut [WideQuad],
        sums: &mut [[i32; 16]],
    ) {
        // SAFETY: as for `products`.
        unsafe { intake_vbmi(plane, n, c0, r, quads, sums) }
    }

    /// Fills `quads` with columns `c0 .. c0 + 16` of `plane` less `r`,
    /// zero past `K` and `n`, and `sums` with their blocks' column sums.
    #[target_feature(enable = "avx512vnni,avx512vbmi")]
    fn intake_vbmi(
        plane: &[u8],
        n: usize,
        c0: usize,
        r: u8,
        quads: &mut [WideQuad],
        sums: &mut [[i32; 16]],
    ) {
        let k = plane.len() / n;
        // The bytes `4c + j` of the columns the plane has.
        let present = u64::MAX >> (4 * (c0 + 16).saturating_sub(n));
        let (ones, r) = (_mm512_set1_epi8(1), _mm512_set1_epi8(r as i8));
        let blocks = quads.chunks_mut(K_BLOCK / VECTOR_LEN).zip(sums);
        // Up to 16 columns a quad's four rows lie in the 64 bytes from
        // its first, `n` apart, read as they lie; past that, four 16-byte
        // runs are first copied into the quad.
        let index = words(column_major(n.min(16)));
        // The bytes of `plane` from `at` on, zero past its end: a copy
        // of a size known at compile time, not a call — in loops, as the
        // closures of `array::from_fn` would not inline into a
        // `#[target_feature]` function.
        let copy = |dst: &mut [u8], at: usize| match plane.get(at..at + dst.len()) {
            Some(src) => dst.copy_from_slice(src),
            None => {
                for (o, byte) in dst.iter_mut().enumerate() {
                    *byte = plane.get(at + o).copied().unwrap_or(0);
                }
            }
        };
        let rows = |bytes: &[u8; 64]| {
            let mut quad = [0; 16];
            for (word, bytes) in quad.iter_mut().zip(bytes.as_chunks().0) {
                *word = u32::from_le_bytes(*bytes);
            }
            quad
        };
        for (kb, (quads, sum)) in blocks.enumerate() {
            let k0 = |i: usize| kb * K_BLOCK + i * VECTOR_LEN;
            if n > 16 {
                for (i, quad) in quads.iter_mut().enumerate() {
                    let mut bytes = [0; 64];
                    for (j, row) in bytes.as_chunks_mut::<16>().0.iter_mut().enumerate() {
                        copy(row, (k0(i) + j) * n + c0);
                    }
                    *quad = rows(&bytes);
                }
            }
            // Each quad column by column (a block's quads come two a
            // chunk), the sums in two chains, so neither waits on
            // `vpdpbusd`'s latency every quad.
            let mut chains = [_mm512_setzero_si512(); 2];
            for (i, pair) in quads.as_chunks_mut::<2>().0.iter_mut().enumerate() {
                for (h, (quad, acc)) in pair.iter_mut().zip(&mut chains).enumerate() {
                    let i = 2 * i + h;
                    let quad_rows = if n <= 16 {
                        let mut bytes = [0; 64];
                        copy(&mut bytes, k0(i) * n + c0);
                        rows(&bytes)
                    } else {
                        *quad
                    };
                    // The bytes `4c + j` of the columns and of the rows
                    // `k0 + j` the plane has.
                    let rows_in = (1 << k.saturating_sub(k0(i)).min(VECTOR_LEN)) - 1;
                    let valid = present & (BYTE_J * rows_in);
                    let x = _mm512_permutexvar_epi8(index, words(quad_rows));
                    let x = _mm512_maskz_sub_epi8(valid, x, r);
                    // The slices are in `[-15, 15]`: the signed operand.
                    *acc = _mm512_dpbusd_epi32(*acc, ones, x);
                    *quad = to_words(x);
                }
            }
            let acc = _mm512_add_epi32(chains[0], chains[1]);
            // A column sum is at most 256 · 15 in magnitude.
            *sum = to_words(acc).map(|s| s as i32);
        }
    }
}
