//! The static LO×LO plane pair at dot-product width: on builds that
//! target AVX-512 VNNI and VBMI, every pair of a raw `u8` LO activation
//! plane with an LO weight plane — the pairs that walk every `k` of a
//! block — runs on `vpdpbusd`, which sums four `u8 · i8` products into
//! each `i32` lane: 64 slice MACs an instruction, where the `i16` tile
//! takes a multiply and an add for 16.
//!
//! It reads the resident panels as they are: four consecutive
//! [`PanelCol`](crate::aqs::PanelCol)s of a run (64 bytes, 4 `k` × 16
//! rows, k-major) are one load, and one `vpermb` turns them into the
//! row-major quads the dot product wants (lane `l` ← byte
//! `(l % 4)·16 + l / 4`). The activation side is one [`Quad`] per four
//! `k` (column `c`'s four slices in the bytes of word `c`), broadcast
//! with `vpbroadcastd`. Tile row `q·C + c` holds run `q` × column `c`,
//! as in the `i16` tile's lanes along M.
//!
//! The sum is the `i16` tile's exactly: the same 256-`k` block bound
//! keeps it below `i16::MAX`, so neither wraps (the `const` assertion in
//! `aqs`), and `plan::accumulator_bound` covers both.
//!
//! Everything else — Sibia's signed activations, the re-centred HO
//! plane, builds without the two extensions — stays on the `i16` tile;
//! the choice is made at compile time. This module holds the crate's
//! only `unsafe`: the call into the `#[target_feature]` kernel and the
//! two register transmutes.

use crate::aqs::{AccTile, Quad, Runs};

/// The LO×LO kernel of one walk: `Σ_k` of a block's runs × its quads.
pub(crate) type LoLo = fn(&Runs, &[Quad]) -> AccTile;

#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx512vnni",
    target_feature = "avx512vbmi"
))]
pub(crate) use vnni::lo_lo;

/// A build without the dot product has no LO×LO kernel.
#[cfg(not(all(
    target_arch = "x86_64",
    target_feature = "avx512vnni",
    target_feature = "avx512vbmi"
)))]
pub(crate) fn lo_lo(_cols: usize) -> Option<LoLo> {
    None
}

#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx512vnni",
    target_feature = "avx512vbmi"
))]
mod vnni {
    use std::arch::x86_64::*;

    use super::LoLo;
    use crate::aqs::{AccTile, PanelCol, Quad, Runs};
    use panacea_bitslice::VECTOR_LEN;

    /// Four consecutive `k` of a run.
    type ColQuad = [PanelCol; VECTOR_LEN];

    /// `vpermb` indices from four k-major columns to row-major quads.
    const ROW_MAJOR: ColQuad = {
        let mut idx = [[0; 16]; VECTOR_LEN];
        let mut l = 0;
        while l < 64 {
            idx[l / 16][l % 16] = ((l % 4) * 16 + l / 4) as i8;
            l += 1;
        }
        idx
    };

    /// The LO×LO kernel of a walk of `cols` (1 to 4) columns.
    pub(crate) fn lo_lo(cols: usize) -> Option<LoLo> {
        Some(match cols {
            1 => products::<1>,
            2 => products::<2>,
            3 => products::<3>,
            _ => products::<4>,
        })
    }

    /// `Σ_{o < len} x[o] ⊗ w[q][o]` of the first `C` columns × the 16
    /// rows of each of the first `4 / C` runs, every `k` of the block
    /// (`len` = the runs' length; `x` holds `⌈len / 4⌉` quads, zero past
    /// it). Tile rows no run fills stay 0.
    fn products<const C: usize>(w: &Runs, x: &[Quad]) -> AccTile {
        // SAFETY: the module exists only on builds whose target features
        // include avx512vnni and avx512vbmi (and, through them, avx512f
        // and avx512bw), so the CPU the build targets runs the kernel.
        unsafe { products_vnni::<C>(w, x) }
    }

    #[target_feature(enable = "avx512vnni,avx512vbmi")]
    fn products_vnni<const C: usize>(w: &Runs, x: &[Quad]) -> AccTile {
        let len = w[0].len();
        assert_eq!(x.len(), len.div_ceil(VECTOR_LEN), "one quad per four k");
        let load = |cols: &ColQuad| -> __m512i {
            // SAFETY: 64 bytes of `i8` into a 64-byte vector, by value:
            // same size, and every bit pattern is a valid `__m512i`.
            unsafe { std::mem::transmute::<ColQuad, __m512i>(*cols) }
        };
        let row_major = load(&ROW_MAJOR);
        let runs: [&[ColQuad]; VECTOR_LEN] = w.map(|run| run[..len].as_chunks().0);
        let walked = VECTOR_LEN / C;
        // One quad into one accumulator set: a weight load and permute
        // per run, a broadcast per column.
        let step = |acc: &mut [__m512i; VECTOR_LEN], cols: [&ColQuad; VECTOR_LEN], x: &Quad| {
            for (q, cols) in cols.into_iter().take(walked).enumerate() {
                let w = _mm512_permutexvar_epi8(row_major, load(cols));
                for (c, &x) in x.iter().take(C).enumerate() {
                    let x = _mm512_set1_epi32(x as i32);
                    acc[q * C + c] = _mm512_dpbusd_epi32(acc[q * C + c], x, w);
                }
            }
        };
        // Two sets, even and odd quads: one is bound by the latency of
        // `vpdpbusd` on its own result.
        let mut even = [_mm512_setzero_si512(); VECTOR_LEN];
        let mut odd = even;
        let whole = runs[0].len();
        for t in (0..whole).step_by(2) {
            step(&mut even, runs.map(|run| &run[t]), &x[t]);
            if t + 1 < whole {
                step(&mut odd, runs.map(|run| &run[t + 1]), &x[t + 1]);
            }
        }
        if whole < x.len() {
            // A `K % 4` tail, zero-filled to a whole quad.
            let tail = w.map(|run| {
                let mut cols = ColQuad::default();
                let rest = &run[whole * VECTOR_LEN..len];
                cols[..rest.len()].copy_from_slice(rest);
                cols
            });
            step(&mut odd, tail.each_ref(), &x[whole]);
        }
        let sums: [__m512i; VECTOR_LEN] =
            std::array::from_fn(|row| _mm512_add_epi32(even[row], odd[row]));
        // SAFETY: four 64-byte vectors into four rows of sixteen `i32`,
        // by value: same size, and every bit pattern is a valid `i32`.
        unsafe { std::mem::transmute::<[__m512i; VECTOR_LEN], AccTile>(sums) }
    }
}
