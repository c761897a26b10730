//! The asymmetrically-quantized bit-slice GEMM (AQS-GEMM), paper §III-B —
//! and the one slice-multiplying tile of this crate: its `KernelPlan`
//! says which side(s) may skip, so [`sibia`](crate::sibia) runs here too.
//!
//! Operands arrive pre-sliced: weights as SBR planes (`Σ_i W_i·8^i`),
//! activations as straightforward/DBS planes (`Σ_j x_j·c_j`). HO slices
//! are grouped into length-4 vectors (4×1 along M for weights, 1×4 along N
//! for activations); an all-zero weight HO vector and an all-`r`
//! activation HO vector (`r` = HO slice of the zero-point) are
//! **compressed**, and every outer product that touches one is skipped.
//! The kernel does work proportional to the outer products it executes,
//! in four steps:
//!
//! 1. **Pack** (`PackedWeight`, built once per weight — the one resident
//!    weight format of a
//!    [`QuantizedLinear`](crate::pipeline::QuantizedLinear), which keeps
//!    no [`SlicedWeight`]): index and slices in one struct. The slices sit
//!    in the order the tile walks them (Goto & van de Geijn, *Anatomy of
//!    High-Performance Matrix Multiplication*, ACM TOMS 2008) at four bits
//!    a slice, as the paper stores and moves them: per (16-row panel,
//!    256-`k` block, plane) a run of `⌈len / 8⌉` 64-byte chunks, each
//!    16 rows × 8 `k` in the order `vpdpbusd` reads them (byte `4r + j`
//!    holds row `r`'s slice at `k = 8t + j` in its low nibble and at
//!    `k = 8t + 4 + j` in its high one, as `slice + 8`), slices past `K`
//!    and rows past `M` zero — half the bytes of the row-major planes they
//!    replace (plus the last chunk's padding), immutable once packed and
//!    shared by clones of the layer. The index is, per 4-row m-group and
//!    `k` block, a bitset of the `k` whose HO vector is *not* compressed,
//!    per panel the union of its m-groups' bitsets, per `k` the number of
//!    compressed m-groups, and the row sums `ΣW`. The public [`aqs_gemm`]
//!    / [`sibia_gemm`](crate::sibia::sibia_gemm) take a [`SlicedWeight`]
//!    and pack it on every call.
//! 2. **Streams** (per call and 16-column n-tile, in buffers each thread
//!    reuses, filled in one sweep over the activation): the activation
//!    planes (`u8`, or `i8` for Sibia's SBR activations) widened to `i16`
//!    — per n-group as `[i16; 2]` pairs (each slice twice), on a full
//!    tile also as 16-column rows, widened once and cut into the pairs —
//!    with the bitset of `k` where the HO vectors are not all compressed,
//!    from which the sweep also counts each `k`'s compressed n-groups for
//!    step 4. The HO plane is stored re-centred, `x_HO − r`, making an
//!    all-`r` vector a zero one, skipped alike: Eq. 5's
//!    `W·x_HO = W·(x_HO − r) + r·(ΣW)` leaves one per-row constant
//!    `b' = r·c_HO·ΣW` — Eq. 6's `b'`, with its `Jᵁ` correction folded
//!    into the re-centring — and the output starts at it. On a build with
//!    the dot product (`core::dot`) the raw `u8` LO planes are read
//!    straight from the [`SlicedActivation`] as k-quads instead, with each
//!    block's column sums: at every tile width one 64-byte quad of its 16
//!    columns per four `k` (one `vpermb` of four 16-byte rows, the columns
//!    past a narrow tile's width masked to zero), whose every fourth word
//!    its n-groups' walks read. The HO plane, then the only one widened,
//!    is the one activation plane the `i16` tile reads.
//! 3. **Tile**: per `k` block and plane pair, *raw slice products* sum
//!    into a 4 × 16 `i16` register tile over exactly the `k` the pair
//!    executes — all for LO×LO, the weight bitset for HO_w×LO_x, the
//!    activation bitset for LO_w×HO_x, both for HO×HO — and then, scaled
//!    by `8^i·c_j`, into the output. On a build that targets AVX-512
//!    VNNI and VBMI, pairs of a `u8` LO activation plane sum in `i32`
//!    lanes on `vpdpbusd` instead, to the same block sum, scaled and
//!    added alike: LO_w×LO_x in every walk below (eight `k` a chunk,
//!    unpacked with an AND and a shift-AND); in a narrow walk HO_w×LO_x
//!    too, over every `k` (a compressed HO weight vector is stored as
//!    zeros, so the dense sum is exact); and on a full tile HO_w×LO_x
//!    per m-group over its **live k-quads** only, those where any of its
//!    four HO vectors is uncompressed (read off its bitset, so no second
//!    index): the paper's weight skipping four `k` a step, at the cost of
//!    the few zeros a live quad holds. There each row's four slices — its
//!    chunk word's nibble half with the `+ 8` taken back, signed once per
//!    block into a `RowQuad` for the chunks some m-group reads — are one
//!    broadcast operand against the 16 columns' quad. The `i16` tile reads
//!    lanes along N those signed rows (a full tile's HO×HO, where both
//!    sides are live; any pair of a build or a stack without the dot
//!    product), and lanes along M k-major `[i8; 16]` columns: a full tile
//!    unpacks each panel's LO planes once for its n-groups' walks, and a
//!    narrow walk, which has no one to share a panel with, its own runs —
//!    each only in the blocks where its `i16` pairs read at least half
//!    the `k`, reading the packed slices at those `k` elsewhere. The
//!    re-centred HO activation plane, Sibia's signed activations and every
//!    pair of a build without the two extensions stay on the `i16` tile. A
//!    pair's lanes run along the side it does not skip, so each side skips
//!    at the paper's granularity: on a full tile the HO weight plane's
//!    pairs run **lanes along N** (`products_lanes_n` and
//!    `dot::lanes_n`: the 4 rows of an m-group × 16 columns, under the
//!    m-group's 4×1 bitset), every other pair **lanes along M**
//!    (`products_lanes_m`: the 16 rows of a panel × one n-group, under the
//!    n-group's 1×4 bitset). A narrower tile — every decode step — runs
//!    every pair lanes along M, and an n-group of `C` columns fills the
//!    tile's four rows with `P = 4 / C` panels (Goto & van de Geijn's
//!    register blocking): one walk of `k` reads those panels' runs side
//!    by side, four at N = 1, two at N = 2, one from three columns on.
//!    Its HO×HO pair runs under the union of the walked panels' bitsets
//!    (a compressed vector in a live union is stored as zeros).
//!    Lanes along M broadcast a column's pair with one load
//!    (`vpbroadcastd ymm, m32`); the `i16` tile's lanes along N broadcast
//!    a weight slice from a register (`movsbl` + `vpbroadcastw ymm, r32`,
//!    shuffle-port uops, four per `k`). Every pair lanes along M would
//!    spare those but skip weights only per 16-row union, where ρ = 0.5
//!    costs nearly what ρ = 0 does. A set holding every `k` of a block
//!    (LO×LO's where it stays on the `i16` tile; any on a side the plan
//!    does not skip; a bitset that happens to be full) is walked in a
//!    straight loop — lanes along M only on a whole n-group or a
//!    one-column walk of four panels: for two or three columns LLVM
//!    vectorises it along `k`, 2–3× slower. In ms per call at 768 × 768,
//!    w7 × a8, vector-level ρ, 2-core AVX-512 host with VNNI and VBMI
//!    (`tests/tile_cost.rs`, min of 20 runs of 40 alternated rounds × 8
//!    calls; the tree whose narrow tiles gathered each n-group's LO quads
//!    byte by byte read 0.067 / 0.062 / 0.024 at N = 1, 0.153 / 0.143 /
//!    0.060 at N = 4 and 0.665 / 0.508 / 0.185 at N = 16 on the same host
//!    in the same minutes; the served row is a ρ_w 0.93 layer on the
//!    ρ 0.95 inputs, its one cell under ρ 0.95):
//!
//!    | N  | ρ 0   | ρ 0.5 | ρ 0.95 |
//!    |----|-------|-------|--------|
//!    | 1  | 0.065 | 0.061 | 0.023  |
//!    | 2  | 0.113 | 0.085 | 0.034  |
//!    | 4  | 0.152 | 0.141 | 0.058  |
//!    | 8  | 0.302 | 0.285 | 0.114  |
//!    | 12 | 0.464 | 0.428 | 0.174  |
//!    | 16 | 0.665 | 0.495 | 0.180  |
//!    | 1, 3072 × 768 per 768² | 0.074 | 0.067 | 0.028 |
//!    | 16, 3072 × 768 per 768² | 0.701 | 0.520 | 0.221 |
//!    | 1, served: ρ_w 0.93 × ρ_x 0.95 | | | 0.024 |
//!    | 16, served: ρ_w 0.93 × ρ_x 0.95 | | | 0.195 |
//!
//!    `N` is any width: only the last n-group can hold fewer than four
//!    columns, and it multiplies only those; an absent lane is 0 in every
//!    plane, so it never makes a vector live. No HO+LO value is rebuilt.
//! 4. **Statistics in closed form**: [`TileStats`] — what the paper's PE
//!    array would execute, skip and compensate (Eq. 6 as the hardware
//!    computes it) at its own 4×1 / 1×4 granularity — follows from the
//!    two sides' per-`k` compressed counts alone and does not depend on
//!    the orientation, so the kernel carries no counters and the
//!    simulator, the harness and the server all run this one kernel. A
//!    GEMM takes the activation's counts from its intake (step 2); the
//!    statistics-only entry points count them from `x`.
//!    It stays the PE array's account when `N` is not a multiple of 4:
//!    the array pads the last n-group, so that group's products and
//!    loads are counted 4 wide, and it is compressed iff its present
//!    columns' HO slices all equal `r`. The host multiplies only the
//!    real columns, which `N` alone determines.
//!
//! The result is bit-exact against the dense reference for type-1 DBS, and
//! exact against the DBS-truncated activations for types 2/3. The loop
//! nests that compute Eq. 6 literally and count every outer product live
//! in `tests/oracle`, the references of `tests/prop_aqs.rs`.

use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;

use panacea_bitslice::{SlicedActivation, SlicedWeight, VECTOR_LEN};
use panacea_tensor::Matrix;
use serde::{Deserialize, Serialize};

use crate::dot::{self, LanesN, LoLo};
use crate::plan::KernelPlan;
use crate::workload::Workload;

/// `k` positions one pass of the inner kernel covers: the most whose
/// slice products an `i16` holds (asserted below) in whole mask words.
pub(crate) const K_BLOCK: usize = 256;
/// Columns of the widest n-tile (four activation n-groups) and lanes of
/// the register tile in either orientation.
const LANES: usize = 16;
/// Weight rows of one resident panel: the lanes of the M orientation,
/// four m-groups of the N orientation.
const PANEL_ROWS: usize = LANES;
/// 4-row m-groups of one panel.
const GROUPS: usize = PANEL_ROWS / VECTOR_LEN;
const _: () = assert!(PANEL_ROWS.is_multiple_of(VECTOR_LEN));
/// Magnitude bound of an SBR weight slice (`[-8, 7]`).
const MAX_W_SLICE: usize = 8;
/// Magnitude bound of an activation slice, raw (`[0, 15]`) or re-centred
/// by `r` (`[-15, 15]`).
const MAX_X_SLICE: usize = 15;
// One block of slice products cannot leave the `i16` register tile. The
// dot product sums a block of an LO activation plane in `i32` lanes, a
// chunk at a time (chunks tile a block): that sum is in `i16` range too,
// so it is the `i16` tile's exactly, and `plan::accumulator_bound`
// covers both paths.
const _: () = assert!(
    K_BLOCK * MAX_W_SLICE * MAX_X_SLICE <= i16::MAX as usize && K_BLOCK.is_multiple_of(VECTOR_LEN)
);
const _: () = assert!(K_BLOCK.is_multiple_of(64));

/// A narrow walk unpacks a block's runs when its `i16` pairs read at
/// least `1 / UNPACK_SHARE` of their `k`, and reads them packed when
/// they read fewer.
const UNPACK_SHARE: usize = 2;
/// One bit per `k` of a block.
pub(crate) type KMask = [u64; K_BLOCK / 64];
/// Every `k` of a block, and none.
const ALL: KMask = [u64::MAX; K_BLOCK / 64];
const NONE: KMask = [0; K_BLOCK / 64];
/// `k` positions of one [`Chunk`]: two k-quads, one per nibble.
pub(crate) const CHUNK_K: usize = 2 * VECTOR_LEN;
const _: () = assert!(K_BLOCK.is_multiple_of(CHUNK_K));
/// Eight `k` of a panel at four bits a slice, in the order the dot
/// product reads them: word `r` (bytes `4r .. 4r + 4`, little-endian)
/// is row `r`, its byte `j` holding the slice at `k = 8t + j` in its low
/// nibble and at `k = 8t + 4 + j` in its high one, each as `slice + 8`.
#[derive(Clone, Copy, Debug)]
#[repr(C, align(64))]
pub(crate) struct Chunk(pub(crate) [u32; PANEL_ROWS]);
/// One `k` of a panel unpacked: a weight slice per row.
pub(crate) type PanelCol = [i8; PANEL_ROWS];
/// Four `k` of a panel's weight slices, signed, row-major: `.0[r]` is
/// row `r`'s slices at `k = 4q .. 4q + 4`, ascending — one nibble half of
/// a [`Chunk`] with its `+ 8` taken back, in the order `vpdpbusd` reads.
#[derive(Clone, Copy, Debug, Default)]
#[repr(C, align(64))]
pub(crate) struct RowQuad(pub(crate) [[i8; VECTOR_LEN]; PANEL_ROWS]);
/// The register tile of raw slice products: 4 weight rows × 16 columns
/// (lanes along N) or 4 columns × 16 weight rows (lanes along M).
type ProductTile = [[i16; LANES]; VECTOR_LEN];
/// One `k` of an n-group's lanes-along-M stream: each slice twice.
type PairedCols = [[i16; 2]; VECTOR_LEN];
/// Four `k` of an n-group's raw `u8` LO plane, for the dot product: word
/// `c` holds column `c`'s four slices, `k` ascending from its low byte.
pub(crate) type Quad = [u32; VECTOR_LEN];
/// Four `k` of a full tile's 16 columns of a `u8` LO plane, as [`Quad`]:
/// n-group `g`'s quad in words `4g .. 4g + 4`.
pub(crate) type WideQuad = [u32; LANES];
/// The runs of one `k` block and plane a lanes-along-M walk reads, one
/// per panel it carries.
pub(crate) type Runs<'a> = [&'a [Chunk]; VECTOR_LEN];
/// A register tile's sum in `i32`, laid out as [`ProductTile`].
pub(crate) type AccTile = [[i32; LANES]; VECTOR_LEN];

/// Per-tile scheduling statistics consumed by the accelerator simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TileStats {
    /// Executed outer products that involve at least one HO plane
    /// (allocated to the dynamic workload operators, DWOs).
    pub dwo_outer_products: u64,
    /// Executed dense LO×LO outer products (static workload operators).
    pub swo_outer_products: u64,
    /// Outer products skipped thanks to compression.
    pub skipped_outer_products: u64,
    /// Compensator additions (weight-slice accumulation).
    pub comp_adds: u64,
    /// Compensator multiplications (final outer products with `r`).
    pub comp_muls: u64,
    /// 4-bit weight slices loaded from memory.
    pub w_slices_loaded: u64,
    /// 4-bit activation slices loaded from memory.
    pub x_slices_loaded: u64,
    /// Measured weight HO vector sparsity `ρ_w`.
    pub rho_w: f64,
    /// Measured activation HO vector sparsity `ρ_x`.
    pub rho_x: f64,
}

impl TileStats {
    fn workload(&self) -> Workload {
        let executed = self.dwo_outer_products + self.swo_outer_products;
        Workload {
            mul: executed * 16,
            add: executed * 16,
            ema_slices: self.w_slices_loaded + self.x_slices_loaded,
            comp_mul: self.comp_muls,
            comp_add: self.comp_adds,
        }
    }
}

/// Computes `W · X` with the AQS-GEMM, returning the exact product of the
/// *represented* operands (dense-reference-exact for DBS type-1,
/// truncated-activation-exact for types 2/3) together with the measured
/// [`Workload`].
///
/// `r` is the frequent HO slice of the activation's zero-point (`zp_HO`,
/// possibly after ZPM). Symmetric activations correspond to `r = 0`.
///
/// # Panics
///
/// Panics if shapes are incompatible, or if `M` is not a multiple of the
/// vector length 4. `N` may be any width.
///
/// # Examples
///
/// See the crate-level example; the central invariant is
/// `aqs_gemm(W, X, r).0 == W·X` for every `r`.
pub fn aqs_gemm(w: &SlicedWeight, x: &SlicedActivation, r: u8) -> (Matrix<i32>, Workload) {
    run_sliced(&KernelPlan::for_operands(w, x, r.into(), None), w, x)
}

/// Scheduling-level statistics only — the closed forms, no GEMM: the
/// vector-level `ρ_w` / `ρ_x` the figures' profile feeds the simulator,
/// and what `perf` and the workload-model tests count.
pub fn aqs_tile_stats(w: &SlicedWeight, x: &SlicedActivation, r: u8) -> TileStats {
    PackedWeight::pack(w).tile_stats(&KernelPlan::for_operands(w, x, r.into(), None), x)
}

/// `W·X` under `plan` for operands sliced by the caller: the weight is
/// packed for this one call and the row constant is Eq. 6's `b'` alone.
pub(crate) fn run_sliced<X: Planes>(
    plan: &KernelPlan,
    w: &SlicedWeight,
    x: &X,
) -> (Matrix<i32>, Workload) {
    let packed = PackedWeight::pack(w);
    let b_prime = plan.row_consts(packed.row_sums(), |_, _| 0);
    packed.gemm(plan, x, &b_prime.expect("compensation term exceeds i32"))
}

/// A stack of 4-bit slice planes the tile can read as its activation
/// operand: [`SlicedActivation`] (`u8`), or [`SlicedWeight`] (`i8`) for
/// Sibia's symmetric SBR activations.
pub(crate) trait Planes {
    type Slice: Copy + Into<i16>;
    fn num_planes(&self) -> usize;
    fn plane(&self, j: usize) -> &Matrix<Self::Slice>;
    fn plane_weight(&self, j: usize) -> i32;
    /// Plane `j` as the dot product's `u8` side, if the slices are
    /// unsigned.
    fn unsigned_plane(&self, j: usize) -> Option<&Matrix<u8>>;
}

impl Planes for SlicedActivation {
    type Slice = u8;
    fn num_planes(&self) -> usize {
        SlicedActivation::num_planes(self)
    }
    fn plane(&self, j: usize) -> &Matrix<u8> {
        SlicedActivation::plane(self, j)
    }
    fn plane_weight(&self, j: usize) -> i32 {
        SlicedActivation::plane_weight(self, j)
    }
    fn unsigned_plane(&self, j: usize) -> Option<&Matrix<u8>> {
        Some(self.plane(j))
    }
}

impl Planes for SlicedWeight {
    type Slice = i8;
    fn num_planes(&self) -> usize {
        SlicedWeight::num_planes(self)
    }
    fn plane(&self, j: usize) -> &Matrix<i8> {
        SlicedWeight::plane(self, j)
    }
    fn plane_weight(&self, j: usize) -> i32 {
        SlicedWeight::plane_weight(self, j)
    }
    fn unsigned_plane(&self, _j: usize) -> Option<&Matrix<u8>> {
        None
    }
}

/// The weight side of the kernel — slices and index — computed once per
/// [`SlicedWeight`], which it replaces.
#[derive(Debug, Clone)]
pub(crate) struct PackedWeight {
    /// Per (panel, `k` block, plane), in that order: the `⌈len / 8⌉`
    /// [`Chunk`]s of the block's `len` `k`. Slices past `K` and rows past
    /// `M` are zero. Immutable once packed, so clones of a layer share
    /// the one copy.
    panels: Arc<[Chunk]>,
    /// The planes' weights `8^i`, LO first.
    plane_weights: Vec<i32>,
    /// Per (m-group, `k` block), m-group major: bit `o` is set iff the HO
    /// vector at `k = block·K_BLOCK + o` is uncompressed.
    ho_live: Vec<KMask>,
    /// Per (panel, `k` block): the union of its m-groups' `ho_live`.
    panel_live: Vec<KMask>,
    /// Per `k`: how many m-groups have a compressed HO vector there.
    compressed_per_k: Vec<u32>,
    /// Per row: `Σ_k W[m][k]`.
    row_sums: Vec<i64>,
}

impl PackedWeight {
    pub(crate) fn pack(w: &SlicedWeight) -> Self {
        let (m, k_dim) = w.plane(0).shape();
        assert_eq!(
            m % VECTOR_LEN,
            0,
            "M = {m} must be a multiple of {VECTOR_LEN}"
        );
        let (planes, k_blocks) = (w.num_planes(), k_dim.div_ceil(K_BLOCK));
        let m_panels = m.div_ceil(PANEL_ROWS);
        // Every slice zero (stored as 8) to start with; allocated once at
        // its final size and filled in place, while this is still the
        // only handle.
        let zero = Chunk([0x8888_8888; PANEL_ROWS]);
        let zero_chunks = std::iter::repeat_n(zero, m_panels * k_dim.div_ceil(CHUNK_K) * planes);
        let mut panels: Arc<[Chunk]> = zero_chunks.collect();
        let chunks = Arc::get_mut(&mut panels).expect("not shared yet");
        let mut ho_live = vec![KMask::default(); m / VECTOR_LEN * k_blocks];
        let mut panel_live = vec![KMask::default(); m_panels * k_blocks];
        let mut compressed_per_k = vec![0u32; k_dim];
        let mut filled = 0;
        for p in 0..m_panels {
            // The panel's rows; fewer than sixteen at the bottom edge.
            let rows = p * PANEL_ROWS..m.min((p + 1) * PANEL_ROWS);
            for kb in 0..k_blocks {
                let k0 = kb * K_BLOCK;
                let len = K_BLOCK.min(k_dim - k0);
                for i in 0..planes {
                    let run = &mut chunks[filled..filled + len.div_ceil(CHUNK_K)];
                    filled += run.len();
                    for (r, row) in rows.clone().enumerate() {
                        let slices = &w.plane(i).row(row)[k0..k0 + len];
                        for (chunk, slices) in run.iter_mut().zip(slices.chunks(CHUNK_K)) {
                            // Slices past `K` keep their zero.
                            chunk.0[r] =
                                slices.iter().enumerate().fold(chunk.0[r], |word, (o, &s)| {
                                    let shift = nibble_shift(o);
                                    word & !(0xF << shift) | u32::from((s + 8) as u8) << shift
                                });
                        }
                    }
                }
                // On the HO plane a vector is compressed iff it is
                // all-zero.
                for mg in rows.start / VECTOR_LEN..rows.end / VECTOR_LEN {
                    let [r0, r1, r2, r3]: [&[i8]; VECTOR_LEN] = std::array::from_fn(|mm| {
                        &w.plane(planes - 1).row(mg * VECTOR_LEN + mm)[k0..k0 + len]
                    });
                    let vectors = r0.iter().zip(r1).zip(r2).zip(r3);
                    let live = &mut ho_live[mg * k_blocks + kb];
                    let compressed = &mut compressed_per_k[k0..k0 + len];
                    for (o, (compressed, (((a, b), c), d))) in
                        compressed.iter_mut().zip(vectors).enumerate()
                    {
                        let is_live = (a | b | c | d) != 0;
                        live[o / 64] |= u64::from(is_live) << (o % 64);
                        *compressed += u32::from(!is_live);
                    }
                    for (union, word) in panel_live[p * k_blocks + kb].iter_mut().zip(live) {
                        *union |= *word;
                    }
                }
            }
        }
        let row_sums = (0..m)
            .map(|row| {
                (0..planes)
                    .map(|i| {
                        let plane_sum: i64 =
                            w.plane(i).row(row).iter().map(|&s| i64::from(s)).sum();
                        plane_sum * i64::from(w.plane_weight(i))
                    })
                    .sum()
            })
            .collect();
        PackedWeight {
            panels,
            plane_weights: (0..planes).map(|i| w.plane_weight(i)).collect(),
            ho_live,
            panel_live,
            compressed_per_k,
            row_sums,
        }
    }

    /// The run of panel `p`, `k` block `kb` and plane `i`: `⌈len / 8⌉`
    /// chunks for the block's `len` `k`.
    fn run(&self, p: usize, kb: usize, i: usize) -> &[Chunk] {
        let (k_dim, planes) = (self.compressed_per_k.len(), self.plane_weights.len());
        let k0 = kb * K_BLOCK;
        let len = K_BLOCK.min(k_dim - k0).div_ceil(CHUNK_K);
        let before = p * k_dim.div_ceil(CHUNK_K) + k0 / CHUNK_K;
        &self.panels[before * planes + i * len..][..len]
    }

    /// `Σ_k W[m][k]` per row.
    pub(crate) fn row_sums(&self) -> &[i64] {
        &self.row_sums
    }

    /// Runs the kernel: `W·X + row_const` (one constant per output row,
    /// which must already contain `b'`), and the closed-form workload,
    /// from the compressed counts the intake takes.
    ///
    /// # Panics
    ///
    /// Panics if the operands are not in the plan's formats or shapes are
    /// incompatible.
    pub(crate) fn gemm<X: Planes>(
        &self,
        plan: &KernelPlan,
        x: &X,
        row_const: &[i32],
    ) -> (Matrix<i32>, Workload) {
        let (m, n) = (self.row_sums.len(), x.plane(0).cols());
        let w_ho = self.plane_weights.len() - 1;
        assert_eq!(w_ho + 1, plan.w_planes(), "weight format");
        assert_eq!(
            self.compressed_per_k.len(),
            x.plane(0).rows(),
            "inner dimensions differ"
        );
        assert_eq!(x.num_planes(), plan.x_scales().len(), "activation format");
        assert_eq!(row_const.len(), m, "one constant per output row");
        // Both orientations add into the output, from its row constants.
        let mut out = vec![0; m * n];
        for (row, &c) in out.chunks_exact_mut(n.max(1)).zip(row_const) {
            row.fill(c);
        }
        let mut out = Matrix::from_vec(m, n, out).expect("m × n");
        let m_panels = m.div_ceil(PANEL_ROWS);
        let mut counts = Compressed::default();
        for c0 in (0..n).step_by(LANES) {
            STREAMS.with_borrow_mut(|Scratch { act, cols, rows }| {
                let full = act.prepare(x, plan, c0);
                counts.add(&act.compressed(&self.compressed_per_k));
                if full {
                    // A full tile runs its HO weight plane lanes along N,
                    // then its LO planes lanes along M for its n-groups'
                    // walks, from each panel unpacked once.
                    for p in 0..m_panels {
                        self.tile_lanes_n(plan, act, p, c0, rows, &mut out);
                    }
                    // An LO plane whose LO activation pairs run on the dot
                    // product is read where any n-group's bitset is: a
                    // block where that is under half its `k` packed, as a
                    // narrow walk reads it.
                    let dot = act.lanes_n.is_some() && plan.skips_activation();
                    let sparse = dot.then_some(&act.wide.ho_live[..]);
                    let k_dim = self.compressed_per_k.len();
                    let need = |kb: usize| match sparse {
                        Some(live) if !dense(&live[kb], K_BLOCK.min(k_dim - kb * K_BLOCK)) => NONE,
                        Some(live) => live[kb],
                        None => ALL,
                    };
                    for p in (0..m_panels).filter(|_| w_ho > 0) {
                        self.unpack_panel(p, 0..w_ho, need, cols);
                        let panel = &mut Cols::Panel(cols.as_flattened(), sparse);
                        self.tile_lanes_m(plan, act, 0..w_ho, p..p + 1, c0, panel, &mut out);
                    }
                } else {
                    let walk = &mut Cols::Walk(cols);
                    self.tile_lanes_m(plan, act, 0..w_ho + 1, 0..m_panels, c0, walk, &mut out);
                }
            });
        }
        (
            out,
            self.closed_form(plan, n, x.num_planes(), counts).workload(),
        )
    }

    /// Unpacks weight planes `w_planes` of panel `p` into `cols`, of each
    /// block `kb` the chunks holding a `k` of `need(kb)`: per `k` block,
    /// plane after plane, [`K_BLOCK`] / 8 chunks a block and plane.
    fn unpack_panel(
        &self,
        p: usize,
        w_planes: Range<usize>,
        need: impl Fn(usize) -> KMask,
        cols: &mut Vec<Unpacked>,
    ) {
        let k_blocks = self.compressed_per_k.len().div_ceil(K_BLOCK);
        grow(cols, k_blocks * w_planes.len() * K_BLOCK / CHUNK_K);
        let mut blocks = cols.chunks_exact_mut(K_BLOCK / CHUNK_K);
        for kb in 0..k_blocks {
            for (i, dst) in w_planes.clone().zip(&mut blocks) {
                unpack_run(dst, self.run(p, kb, i), &need(kb));
            }
        }
    }

    /// Adds the HO weight plane's pairs of panel `p` to columns
    /// `c0 .. c0 + 16` of the output, lanes along N: per `k` block, the
    /// chunks of the block some m-group reads, signed into `rows`, then
    /// per m-group a 4-row × 16-column tile under its own bitset — on
    /// the dot product over its live k-quads where the tile has an LO
    /// plane's quads, and on the `i16` tile otherwise (the HO activation
    /// plane under both sides' bitsets, any plane of a build or a stack
    /// without the dot product under the m-group's).
    fn tile_lanes_n(
        &self,
        plan: &KernelPlan,
        act: &ActTile,
        p: usize,
        c0: usize,
        rows: &mut Vec<RowQuad>,
        out: &mut Matrix<i32>,
    ) {
        let k_dim = self.compressed_per_k.len();
        let (k_quads, k_blocks) = (2 * k_dim.div_ceil(CHUNK_K), k_dim.div_ceil(K_BLOCK));
        let (w_ho, x_ho) = (self.plane_weights.len() - 1, plan.x_scales().len() - 1);
        let groups = p * GROUPS..(out.rows() / VECTOR_LEN).min((p + 1) * GROUPS);
        let mut acc = [AccTile::default(); GROUPS];
        for kb in 0..k_blocks {
            let k0 = kb * K_BLOCK;
            let len = K_BLOCK.min(k_dim - k0);
            let all = first_ks(len);
            // A side the plan does not skip executes every `k`.
            let w_live = |mg: usize| match plan.skips_weight() {
                true => &self.ho_live[mg * k_blocks + kb],
                false => &all,
            };
            let x_live = if plan.skips_activation() {
                &act.wide.ho_live[kb]
            } else {
                &all
            };
            let run = self.run(p, kb, w_ho);
            let union = groups.clone().fold(NONE, |u, mg| or(&u, w_live(mg)));
            if union == NONE {
                continue;
            }
            if rows.len() < 2 * run.len() {
                rows.resize(2 * run.len(), RowQuad::default());
            }
            for (t, (chunk, dst)) in run.iter().zip(rows.as_chunks_mut::<2>().0).enumerate() {
                if union[t / 8] >> (t % 8 * CHUNK_K) & 0xFF != 0 {
                    *dst = signed_quads(chunk);
                }
            }
            let rows = &rows[..2 * run.len()];
            let acc = &mut acc[..groups.len()];
            for j in 0..=x_ho {
                let scale = self.plane_weights[w_ho] * plan.x_scales()[j];
                if let (false, Some(lanes_n)) = (j == x_ho, act.lanes_n) {
                    let quads: [KMask; GROUPS] = std::array::from_fn(|g| {
                        groups.clone().nth(g).map_or(NONE, |mg| quads(w_live(mg)))
                    });
                    let x = &act.wide_quads()[j * k_quads + k0 / VECTOR_LEN..][..rows.len()];
                    lanes_n(rows, x, &quads[..acc.len()], scale, acc);
                    continue;
                }
                let planes = &act.wide.planes;
                let x = &planes[planes.len() - (x_ho + 1 - j) * k_dim + k0..][..len];
                let ks: [KMask; GROUPS] = std::array::from_fn(|g| match groups.clone().nth(g) {
                    Some(mg) if j == x_ho => std::array::from_fn(|i| w_live(mg)[i] & x_live[i]),
                    Some(mg) => *w_live(mg),
                    None => NONE,
                });
                products_lanes_n(rows, x, &ks, scale, acc);
            }
        }
        for (mg, acc) in groups.zip(&acc) {
            for (mm, acc_row) in acc.iter().enumerate() {
                let row = mg * VECTOR_LEN + mm;
                for (o, &a) in out.row_mut(row)[c0..c0 + LANES].iter_mut().zip(acc_row) {
                    *o += a;
                }
            }
        }
    }

    /// Adds weight planes `w_planes`' pairs of `panels` to the columns of
    /// `act`'s n-groups from `c0` on, lanes along M, of real columns only:
    /// per n-group of `C` columns, one walk of `k` fills the tile's four
    /// rows with `P = 4 / C` panels × the `C` columns, under the n-group's
    /// bitset (and the union of those panels' bitsets for the HO weight
    /// plane).
    #[allow(clippy::too_many_arguments)] // the tile's operands, its place and its columns
    fn tile_lanes_m(
        &self,
        plan: &KernelPlan,
        act: &ActTile,
        w_planes: Range<usize>,
        panels: Range<usize>,
        c0: usize,
        w_cols: &mut Cols,
        out: &mut Matrix<i32>,
    ) {
        let n = out.cols();
        // Four columns, except in the last n-group of the call.
        let cols = |g: usize| VECTOR_LEN.min(n - c0 - g * VECTOR_LEN);
        // Panels of the widest walk, the last n-group's: a whole n-group
        // walks one panel, so every walk lies inside one such stretch.
        let widest = VECTOR_LEN / cols(act.groups.len() - 1);
        for p0 in panels.clone().step_by(widest) {
            let stretch = p0..panels.end.min(p0 + widest);
            for (g, stream) in act.groups.iter().enumerate() {
                let (c0, walk) = (c0 + g * VECTOR_LEN, VECTOR_LEN / cols(g));
                for p in stretch.clone().step_by(walk) {
                    let panels = p..stretch.end.min(p + walk);
                    let (stream, w_planes) = ((stream, act.lo(g, cols(g))), w_planes.clone());
                    self.walk_lanes_m(plan, stream, w_planes, panels, c0, w_cols, out);
                }
            }
        }
    }

    /// One lanes-along-M walk: adds weight planes `w_planes`' pairs of
    /// `panels` (at most `4 / C`) to the `C` columns of `act` at `c0`.
    #[allow(clippy::too_many_arguments)] // as `tile_lanes_m`
    fn walk_lanes_m(
        &self,
        plan: &KernelPlan,
        act: (&Stream<PairedCols>, Option<LoQuads>),
        w_planes: Range<usize>,
        panels: Range<usize>,
        c0: usize,
        w_cols: &mut Cols,
        out: &mut Matrix<i32>,
    ) {
        let k_blocks = self.compressed_per_k.len().div_ceil(K_BLOCK);
        let w_live = &self.panel_live[panels.start * k_blocks..panels.end * k_blocks];
        let cols = VECTOR_LEN.min(out.cols() - c0);
        let (ps, wc) = (panels.clone(), w_cols);
        let acc = match cols {
            1 => self.accumulate(plan, ps, w_planes, w_live, act, wc, products_lanes_m::<1>),
            2 => self.accumulate(plan, ps, w_planes, w_live, act, wc, products_lanes_m::<2>),
            3 => self.accumulate(plan, ps, w_planes, w_live, act, wc, products_lanes_m::<3>),
            _ => self.accumulate(plan, ps, w_planes, w_live, act, wc, products_lanes_m::<4>),
        };
        // Tile row `q·C + c` holds column `c` of the walk's panel `q`.
        for (p, acc) in panels.zip(acc.chunks(cols)) {
            let row0 = p * PANEL_ROWS;
            let rows = PANEL_ROWS.min(out.rows() - row0);
            for (nn, acc_col) in acc.iter().enumerate() {
                for (mm, &a) in acc_col[..rows].iter().enumerate() {
                    out[(row0 + mm, c0 + nn)] += a;
                }
            }
        }
    }

    /// `Σ_{i,j} 8^i·c_j · Σ_k` of one lanes-along-M register tile:
    /// `products` over every `k` block, weight plane `i ∈ w_planes` of
    /// `panels` and activation plane `j`, each over the `k` that pair
    /// executes given the stream's `ho_live` and the union of `w_live`'s
    /// panels (a bitset per `k` block each), on the runs `cols` gives —
    /// or, for a pair of an LO activation plane where the stream has
    /// quads (`lo`), the dot-product kernel over every `k` of the packed
    /// runs: the same sum at dot-product width, since a compressed HO
    /// weight vector is stored as zeros.
    #[allow(clippy::too_many_arguments)] // one per axis of the tile
    fn accumulate(
        &self,
        plan: &KernelPlan,
        panels: Range<usize>,
        w_planes: Range<usize>,
        w_live: &[KMask],
        (act, lo): (&Stream<PairedCols>, Option<LoQuads>),
        cols: &mut Cols,
        products: impl Fn(ColRuns, &[PairedCols], &KMask) -> ProductTile,
    ) -> AccTile {
        let k_dim = self.compressed_per_k.len();
        let planes = self.plane_weights.len();
        let (w_ho, x_ho) = (planes - 1, plan.x_scales().len() - 1);
        let (k_quads, k_blocks) = (2 * k_dim.div_ceil(CHUNK_K), act.ho_live.len());
        let mut acc = AccTile::default();
        for (kb, x_live) in act.ho_live.iter().enumerate() {
            let k0 = kb * K_BLOCK;
            let len = K_BLOCK.min(k_dim - k0);
            let all = first_ks(len);
            let units = w_live.iter().skip(kb).step_by(k_blocks);
            let union = units.fold(NONE, |u, m| or(&u, m));
            // A side the plan does not skip executes every `k`.
            let w_live = if plan.skips_weight() { &union } else { &all };
            let x_live = if plan.skips_activation() {
                x_live
            } else {
                &all
            };
            let both_live: KMask = std::array::from_fn(|i| w_live[i] & x_live[i]);
            for i in w_planes.clone() {
                // Past the last of `panels`, the walk repeats it.
                let last = panels.len() - 1;
                let packed: Runs =
                    std::array::from_fn(|q| self.run(panels.start + q.min(last), kb, i));
                // The `k` each plane pair executes on the `i16` tile;
                // `None` where it runs on the dot product.
                let ks = |j: usize| match (i == w_ho, j == x_ho, lo.is_some()) {
                    (_, false, true) => None,
                    (false, false, false) => Some(&all),
                    (true, false, false) => Some(w_live),
                    (false, true, _) => Some(x_live),
                    (true, true, _) => Some(&both_live),
                };
                let w_cols = match cols {
                    // A panel holds the blocks of `w_planes`, block after
                    // block, those it unpacked.
                    Cols::Panel(_, Some(need)) if !dense(&need[kb], len) => ColRuns::Packed(packed),
                    Cols::Panel(panel, _) => {
                        let at = (kb * w_planes.len() + i - w_planes.start) * K_BLOCK;
                        ColRuns::Unpacked([&panel[at..][..len]; VECTOR_LEN])
                    }
                    // A walk whose `i16` pairs read many `k` unpacks
                    // their chunks first; one that reads fewer reads them
                    // packed.
                    Cols::Walk(scratch) => {
                        let need = (0..=x_ho).filter_map(ks).fold(NONE, |u, m| or(&u, m));
                        if !dense(&need, len) {
                            ColRuns::Packed(packed)
                        } else {
                            grow(scratch, VECTOR_LEN * K_BLOCK / CHUNK_K);
                            let runs = scratch.chunks_exact_mut(K_BLOCK / CHUNK_K);
                            for (dst, run) in runs.zip(&packed[..=last]) {
                                unpack_run(dst, run, &need);
                            }
                            ColRuns::Unpacked(std::array::from_fn(|q| {
                                &scratch[q.min(last) * K_BLOCK / CHUNK_K..].as_flattened()[..len]
                            }))
                        }
                    }
                };
                for j in 0..=x_ho {
                    let scale = self.plane_weights[i] * plan.x_scales()[j];
                    let Some(ks) = ks(j) else {
                        let lo = lo.expect("a pair off the i16 tile");
                        let at = (j * k_quads + k0 / VECTOR_LEN) * VECTOR_LEN;
                        let x = &lo.quads[at..][..2 * packed[0].len() * VECTOR_LEN];
                        let sums = &lo.sums[(j * k_blocks + kb) * VECTOR_LEN];
                        let tile = (lo.kernel)(&packed, x, sums);
                        add_scaled(&mut acc, &tile, scale);
                        continue;
                    };
                    let x = &act.planes[act.planes.len() - (x_ho + 1 - j) * k_dim + k0..];
                    let tile = products(w_cols, &x[..len], ks);
                    add_scaled(&mut acc, &tile, scale);
                }
            }
        }
        acc
    }

    /// [`TileStats`] of `x` under `plan`, its compressed activation
    /// vectors counted from `x` itself: per `k`, the PE array's `⌈N/4⌉`
    /// n-groups, a partial last group compressed iff its present
    /// columns' HO slices all equal `r`.
    pub(crate) fn tile_stats<X: Planes>(&self, plan: &KernelPlan, x: &X) -> TileStats {
        let n = x.plane(0).cols();
        assert_eq!(
            self.compressed_per_k.len(),
            x.plane(0).rows(),
            "inner dimensions differ"
        );
        assert_eq!(x.num_planes(), plan.x_scales().len(), "activation format");
        let r = plan.r();
        let x_ho = x.plane(x.num_planes() - 1).as_slice().chunks(n.max(1));
        let mut counts = Compressed::default();
        for (&wc, row) in self.compressed_per_k.iter().zip(x_ho) {
            let xc = row
                .chunks(VECTOR_LEN)
                .filter(|v| v.iter().all(|&s| s.into() == r))
                .count() as u64;
            counts.add(&Compressed {
                x: xc,
                both: u64::from(wc) * xc,
            });
        }
        self.closed_form(plan, n, x.num_planes(), counts)
    }

    /// [`TileStats`] from the two sides' per-`k` compressed counts, over
    /// the PE array's `⌈N/4⌉` n-groups of `p_x` planes: the weight's
    /// resident ones and `counts` of the activation's.
    fn closed_form(
        &self,
        plan: &KernelPlan,
        n: usize,
        p_x: usize,
        counts: Compressed,
    ) -> TileStats {
        let k_dim = self.compressed_per_k.len();
        let (p_w, p_x) = (plan.w_planes() as u64, p_x as u64);
        let m_groups = (self.row_sums.len() / VECTOR_LEN) as u64;
        let n_groups = n.div_ceil(VECTOR_LEN) as u64;
        let w_vectors = m_groups * k_dim as u64;
        let x_vectors = k_dim as u64 * n_groups;

        // Σ_k over (wc_k, xc_k): compressed m-groups / n-groups at `k`.
        let w_comp: u64 = self.compressed_per_k.iter().map(|&wc| u64::from(wc)).sum();
        let Compressed {
            x: x_comp,
            both: both_comp,
        } = counts;
        let r = plan.r();
        // Weight slice-vectors the compensators add: at each `k` every
        // loaded one, once per uncompressed activation vector —
        // `Σ_k (NG − xc_k)(MG·P_w − wc_k)`.
        let comp_vectors =
            n_groups * (p_w * w_vectors - w_comp) + both_comp - x_comp * m_groups * p_w;

        // A compressed weight vector drops its HO row of plane pairs, a
        // compressed activation vector its HO column; a product touching
        // both is one pair, counted once. LO×LO is never skipped, and
        // neither is a side the plan does not skip.
        let total = p_w * p_x * w_vectors * n_groups;
        let skipped = match (plan.skips_weight(), plan.skips_activation()) {
            (true, false) => w_comp * n_groups * p_x,
            (false, _) => x_comp * m_groups * p_w,
            (true, true) => w_comp * n_groups * p_x + x_comp * m_groups * p_w - both_comp,
        };
        let swo = (p_w - 1) * (p_x - 1) * w_vectors * n_groups;
        // Compensation exists only where something was re-centred.
        let compensates = u64::from(r != 0);
        TileStats {
            dwo_outer_products: total - skipped - swo,
            swo_outer_products: swo,
            skipped_outer_products: skipped,
            comp_adds: compensates * 4 * comp_vectors,
            // One outer product with the all-`r` vector per 4×4 tile.
            comp_muls: compensates * 16 * m_groups * n_groups,
            // EMA accounting: LO planes always move; HO planes move only
            // their uncompressed vectors (the dataflow reuse factors are
            // modeled in the simulator).
            w_slices_loaded: w_vectors * 4 * (p_w - 1) + (w_vectors - w_comp) * 4,
            x_slices_loaded: x_vectors * 4 * (p_x - 1) + (x_vectors - x_comp) * 4,
            rho_w: w_comp as f64 / w_vectors.max(1) as f64,
            rho_x: x_comp as f64 / x_vectors.max(1) as f64,
        }
    }
}

/// One activation stream: `K` rows of `T` per plane, plane after plane,
/// ending with the HO plane (as `x_HO − r`, zero across every compressed
/// vector; lanes past `N` 0) — a stream leaves out the LO planes its
/// tile's [`WideQuad`]s carry, so planes count from the last — and per
/// `k` block the bitset of `k` whose HO row is not zero (a side the plan
/// does not skip is read as live at every `k` where the bitset is used).
#[derive(Default)]
struct Stream<T> {
    planes: Vec<T>,
    ho_live: Vec<KMask>,
}

impl<T: Default + PartialEq> Stream<T> {
    /// Refills the stream with the rows `extend` appends, `k_dim` a plane.
    fn fill(&mut self, k_dim: usize, extend: impl FnOnce(&mut Vec<T>)) {
        self.planes.clear();
        extend(&mut self.planes);
        let word = |rows: &[T]| {
            rows.iter()
                .rfold(0, |w, r| w << 1 | u64::from(*r != T::default()))
        };
        let block = |b: &[T]| std::array::from_fn(|w| b.chunks(64).nth(w).map_or(0, word));
        let ho = &self.planes[self.planes.len() - k_dim..];
        self.ho_live.clear();
        self.ho_live.extend(ho.chunks(K_BLOCK).map(block));
    }
}

thread_local! {
    /// The streams and unpacked weights of this thread's last call,
    /// refilled by its next one: a call that allocated and freed its own
    /// would page-fault on them.
    static STREAMS: RefCell<Scratch> = RefCell::default();
}

/// A thread's buffers: the activation side of an n-tile, the weight
/// columns the `i16` tile reads lanes along M and the signed quads of
/// one block lanes along N read.
#[derive(Default)]
struct Scratch {
    act: ActTile,
    cols: Vec<Unpacked>,
    rows: Vec<RowQuad>,
}

/// A [`Chunk`] unpacked: its eight `k` as [`PanelCol`]s.
type Unpacked = [PanelCol; CHUNK_K];

/// `cols` at least `len` long.
fn grow(cols: &mut Vec<Unpacked>, len: usize) {
    if cols.len() < len {
        cols.resize(len, Unpacked::default());
    }
}

/// Unpacks the chunks of `run` that hold a `k` of `need` into `cols`; the
/// others keep whatever they held.
fn unpack_run(cols: &mut [Unpacked], run: &[Chunk], need: &KMask) {
    for (t, (dst, chunk)) in cols.iter_mut().zip(run).enumerate() {
        if need[t / 8] >> (t % 8 * CHUNK_K) & 0xFF != 0 {
            *dst = dot::unpack(chunk);
        }
    }
}

/// Where the `i16` tile reads a block's runs lanes along M: a full
/// tile's panel, unpacked once for its n-groups' walks (laid out as
/// [`PackedWeight::unpack_panel`] says) except in the blocks where the
/// `k` they read, given per block, are too few to be worth it, or a
/// narrow walk's own buffer, which it refills with its runs of one block
/// and plane (run `q` from chunk `q · K_BLOCK / 8` on) where its pairs
/// read enough `k`. Where fewer are live, unpacking whole runs costs more
/// than reading the packed slices at those `k` ([`dense`]).
enum Cols<'a> {
    Panel(&'a [PanelCol], Option<&'a [KMask]>),
    Walk(&'a mut Vec<Unpacked>),
}

/// The runs of one block and plane as the `i16` tile reads them.
#[derive(Clone, Copy)]
enum ColRuns<'a> {
    Unpacked([&'a [PanelCol]; VECTOR_LEN]),
    Packed(Runs<'a>),
}

/// Whether reading the `k` of `need` is worth unpacking the runs of
/// their block of `len` `k` for: at least `1 / UNPACK_SHARE` of them.
fn dense(need: &KMask, len: usize) -> bool {
    let live: u32 = need.iter().map(|word| word.count_ones()).sum();
    live as usize * UNPACK_SHARE >= len
}

/// `a | b`, word by word.
fn or(a: &KMask, b: &KMask) -> KMask {
    std::array::from_fn(|i| a[i] | b[i])
}

/// The activation side of one n-tile: per n-group for lanes along M, on a
/// full 16-column tile its rows for lanes along N and, on a dot build
/// with a `u8` stack, its LO planes as [`WideQuad`]s at any width, which
/// both orientations' dot-product kernels read.
#[derive(Default)]
struct ActTile {
    groups: Vec<Stream<PairedCols>>,
    wide: Stream<[i16; LANES]>,
    /// The tile's quads, from word `at` on (so each starts on a 64-byte
    /// line): per LO plane `2⌈K / 8⌉` of them, zero past `K` and `N`, then
    /// three [`Quad`]s of zeros, so an n-group's view of every fourth
    /// `Quad` from its own ends in bounds.
    words: Vec<u32>,
    at: usize,
    /// Per LO plane and `k` block: the 16 columns' sums of their slices.
    sums: Vec<[i32; LANES]>,
    /// The lanes-along-N kernel where the quads are filled (a narrow tile
    /// runs none).
    lanes_n: Option<LanesN>,
}

/// A lanes-along-M walk's LO planes at dot-product width: its kernel,
/// its quads from its first on, every fourth [`Quad`] its own (per LO
/// plane `2⌈K / 8⌉` of them), and per LO plane and `k` block its columns'
/// sums, every fourth too.
#[derive(Clone, Copy)]
struct LoQuads<'a> {
    kernel: LoLo,
    quads: &'a [Quad],
    sums: &'a [[i32; VECTOR_LEN]],
}

/// An activation's compressed 1×4 HO vectors over some `k` and columns,
/// `x`, and `Σ_k wc_k · xc_k` over them, `both` (`wc_k` / `xc_k`: the
/// compressed m-groups / n-groups at `k`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Compressed {
    x: u64,
    both: u64,
}

impl Compressed {
    fn add(&mut self, other: &Compressed) {
        self.x += other.x;
        self.both += other.both;
    }
}

impl ActTile {
    /// Refills the streams for columns `c0 ..` of `x`; true (and `wide`
    /// refilled) on a full tile. The LO planes are quads where the dot
    /// product reads them, at every width, and widened where it does not.
    fn prepare<X: Planes>(&mut self, x: &X, plan: &KernelPlan, c0: usize) -> bool {
        let (k, n) = x.plane(0).shape();
        let x_ho = x.num_planes() - 1;
        let dot = dot::lanes_n().filter(|_| x.unsigned_plane(0).is_some());
        let from = if dot.is_some() { x_ho } else { 0 };
        let full = n - c0 >= LANES;
        let ActTile { groups, wide, .. } = self;
        groups.resize_with((n - c0).min(LANES).div_ceil(VECTOR_LEN), Stream::default);
        if full {
            // A full tile: its planes widened once, the n-groups' pairs
            // cut from its rows.
            let row = |s: &[X::Slice], r| {
                let s: &[_; LANES] = s.try_into().expect("a full tile");
                s.map(|s| s.into() - r)
            };
            wide.fill(k, |p| widen(p, x, plan, from, c0..c0 + LANES, row));
            for (i, g) in groups.iter_mut().enumerate() {
                let cut = |row: &[i16; LANES]| row.as_chunks().0[i].map(|s| [s; 2]);
                g.fill(k, |p| p.extend(wide.planes.iter().map(cut)));
            }
        } else {
            // A narrow tile: each n-group's pairs straight from `x`.
            let pairs = |s: &[X::Slice], r| {
                std::array::from_fn(|c| [s.get(c).map_or(0, |&s| s.into() - r); 2])
            };
            for (g, c) in groups.iter_mut().zip((c0..n).step_by(VECTOR_LEN)) {
                let cols = c..n.min(c + VECTOR_LEN);
                g.fill(k, |p| widen(p, x, plan, from, cols, pairs));
            }
        }
        self.lanes_n = None;
        if let Some((kernel, intake)) = dot {
            let (k_quads, k_blocks) = (2 * k.div_ceil(CHUNK_K), k.div_ceil(K_BLOCK));
            let words = x_ho * k_quads * LANES + 3 * VECTOR_LEN;
            self.words.clear();
            self.words.resize(words + LANES - 1, 0);
            self.at = (64 - self.words.as_ptr() as usize % 64) % 64 / 4;
            self.sums.clear();
            self.sums.resize(x_ho * k_blocks, [0; LANES]);
            let quads = self.words[self.at..].as_chunks_mut().0;
            let planes = quads
                .chunks_mut(k_quads)
                .zip(self.sums.chunks_mut(k_blocks));
            for (j, (quads, sums)) in planes.take(x_ho).enumerate() {
                let plane = x.unsigned_plane(j).expect("a u8 stack").as_slice();
                intake(plane, n, c0, quads, sums);
            }
            self.lanes_n = Some(kernel);
        }
        full
    }

    /// The tile's [`WideQuad`]s, per LO plane.
    fn wide_quads(&self) -> &[WideQuad] {
        self.words[self.at..].as_chunks().0
    }

    /// The LO planes of n-group `g`, of `cols` columns, at dot-product
    /// width, if the tile has them: every fourth of its quads.
    fn lo(&self, g: usize, cols: usize) -> Option<LoQuads<'_>> {
        Some(LoQuads {
            kernel: self.lanes_n.and(dot::lo_lo(cols))?,
            quads: &self.words[self.at..].as_chunks().0[g..],
            // Empty where the stack has no LO plane.
            sums: self
                .sums
                .as_flattened()
                .as_chunks()
                .0
                .get(g..)
                .unwrap_or(&[]),
        })
    }

    /// The compressed HO vectors of the tile's n-groups, from their
    /// bitsets, given the weight's per-`k` counts `w_comp`.
    fn compressed(&self, w_comp: &[u32]) -> Compressed {
        let mut counts = Compressed::default();
        for (kb, w_comp) in w_comp.chunks(K_BLOCK).enumerate() {
            let all = first_ks(w_comp.len());
            let block: u64 = w_comp.iter().map(|&wc| u64::from(wc)).sum();
            for g in &self.groups {
                let live = &g.ho_live[kb];
                let dead: KMask = std::array::from_fn(|i| all[i] & !live[i]);
                let dead_ks: u32 = dead.iter().map(|w| w.count_ones()).sum();
                counts.x += u64::from(dead_ks);
                // Σ over the dead `k` of `wc_k`: summed over whichever
                // of the dead and the live `k` are fewer.
                let sum = |ks: &KMask| {
                    let mut s = 0;
                    for_each_k(ks, |o| s += u64::from(w_comp[o]));
                    s
                };
                counts.both += if 2 * dead_ks as usize <= w_comp.len() {
                    sum(&dead)
                } else {
                    block - sum(live)
                };
            }
        }
        counts
    }
}

/// Appends each plane of `x` from plane `from` on to `planes`: its rows
/// cut to `cols`, made elements by `lanes`, which also gets the plane's
/// re-centring.
fn widen<X: Planes, T>(
    planes: &mut Vec<T>,
    x: &X,
    plan: &KernelPlan,
    from: usize,
    cols: Range<usize>,
    lanes: impl Fn(&[X::Slice], i16) -> T,
) {
    let x_ho = x.num_planes() - 1;
    for j in from..=x_ho {
        let (plane, r) = (x.plane(j), if j == x_ho { plan.r() } else { 0 });
        let rows = plane.as_slice().chunks_exact(plane.cols());
        planes.extend(rows.map(|row| lanes(&row[cols.clone()], r)));
    }
}

/// `acc += scale · tile`, lane by lane. Plain `+` / `*`: overflow panics
/// under `debug_assertions`; `QuantizedLinear::prepare` rejects layers
/// whose sums could reach it.
fn add_scaled<P: Copy + Into<i32>>(acc: &mut AccTile, tile: &[[P; LANES]; VECTOR_LEN], scale: i32) {
    for (acc_row, row) in acc.iter_mut().zip(tile) {
        for (a, &p) in acc_row.iter_mut().zip(row) {
            *a += p.into() * scale;
        }
    }
}

/// The mask of the first `len` offsets of a block.
fn first_ks(len: usize) -> KMask {
    std::array::from_fn(|word| match len.saturating_sub(word * 64) {
        rest if rest >= 64 => u64::MAX,
        rest => (1 << rest) - 1,
    })
}

/// The bit offset of the slice at `k = 8t + o` in a row's word of chunk
/// `t`.
pub(crate) const fn nibble_shift(o: usize) -> u32 {
    (8 * (o % VECTOR_LEN) + 4 * (o / VECTOR_LEN % 2)) as u32
}

/// Calls `f` on each offset set in `ks`, ascending.
#[inline(always)]
fn for_each_k(ks: &KMask, mut f: impl FnMut(usize)) {
    for (word, &bits) in ks.iter().enumerate() {
        let mut bits = bits;
        while bits != 0 {
            f(word * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// The inner kernel, lanes along N: per m-group `g` of the panel,
/// `acc[g] += scale · Σ_{o ∈ ks[g]} w[o][4g..4g + 4] ⊗ x[o]`, its 4 rows
/// × 16 columns of raw slice products summed in an `i16` register tile,
/// the weights read from a block's [`RowQuad`]s. At most [`K_BLOCK`] of
/// them, so the `i16` sums cannot wrap (the `const` assertion above). A
/// full set is walked in a straight loop, an empty one not at all. Kept
/// out of line: so each tile stays in registers all block.
#[inline(never)]
fn products_lanes_n(
    w: &[RowQuad],
    x: &[[i16; LANES]],
    ks: &[KMask],
    scale: i32,
    acc: &mut [AccTile],
) {
    let w = &w[..x.len().div_ceil(VECTOR_LEN)];
    let all = first_ks(x.len());
    for (g, (ks, acc)) in ks.iter().zip(acc).enumerate().take(GROUPS) {
        if *ks == NONE {
            continue;
        }
        let mut tile = ProductTile::default();
        if *ks == all {
            for (o, x) in x.iter().enumerate() {
                mac_lanes_n(&mut tile, &col_lanes_n(w, g, o), x);
            }
        } else {
            for_each_k(ks, |o| mac_lanes_n(&mut tile, &col_lanes_n(w, g, o), &x[o]));
        }
        add_scaled(acc, &tile, scale);
    }
}

/// A chunk's two nibble halves as signed [`RowQuad`]s: each byte
/// `b ∈ [0, 15]` to `b − 8`, four at a time with no borrow between
/// them (`b | 0x80` stays at least 8).
fn signed_quads(chunk: &Chunk) -> [RowQuad; 2] {
    const NIBBLES: u32 = 0x0F0F_0F0F;
    let signed = |b: u32| ((b | 0x8080_8080) - 0x0808_0808) ^ 0x8080_8080;
    let mut quads = [RowQuad::default(); 2];
    for (r, &word) in chunk.0.iter().enumerate() {
        quads[0].0[r] = signed(word & NIBBLES).to_le_bytes().map(|s| s as i8);
        quads[1].0[r] = signed(word >> 4 & NIBBLES).to_le_bytes().map(|s| s as i8);
    }
    quads
}

/// The k-quads of a block holding a `k` of `ks`, each as the bit of its
/// first `k`.
fn quads(ks: &KMask) -> KMask {
    ks.map(|w| (w | w >> 1 | w >> 2 | w >> 3) & 0x1111_1111_1111_1111)
}

/// Column `o` of m-group `g`'s rows of a block's [`RowQuad`]s.
#[inline(always)]
fn col_lanes_n(w: &[RowQuad], g: usize, o: usize) -> [i8; VECTOR_LEN] {
    let rows = &w[o / VECTOR_LEN].0.as_chunks::<VECTOR_LEN>().0[g];
    std::array::from_fn(|r| rows[r][o % VECTOR_LEN])
}

/// One `k` of lanes along N.
#[inline(always)]
fn mac_lanes_n(tile: &mut ProductTile, w: &[i8; VECTOR_LEN], x: &[i16; LANES]) {
    for (tile_row, &w_slice) in tile.iter_mut().zip(w) {
        let w_slice = i16::from(w_slice);
        for (t, &x_slice) in tile_row.iter_mut().zip(x) {
            *t += w_slice * x_slice;
        }
    }
}

/// A run of one panel's weight columns as the `i16` tile reads it, one
/// `k` at a time: unpacked, or packed (a narrow walk's, which reads only
/// the `k` of its sparse pairs).
trait Run: Copy {
    /// The run's length in columns, at least the `k` it holds.
    fn len(self) -> usize;
    /// The slices of column `o`, widened, row `r` in lane `r`.
    fn col(self, o: usize) -> [i16; PANEL_ROWS];
}

impl Run for &[PanelCol] {
    fn len(self) -> usize {
        <[PanelCol]>::len(self)
    }
    #[inline(always)]
    fn col(self, o: usize) -> [i16; PANEL_ROWS] {
        self[o].map(i16::from)
    }
}

impl Run for &[Chunk] {
    fn len(self) -> usize {
        <[Chunk]>::len(self) * CHUNK_K
    }
    #[inline(always)]
    fn col(self, o: usize) -> [i16; PANEL_ROWS] {
        let shift = nibble_shift(o % CHUNK_K);
        self[o / CHUNK_K]
            .0
            .map(|word| (word >> shift & 0xF) as i16 - 8)
    }
}

/// The inner kernel, lanes along M: `Σ_{o ∈ ks} x[o] ⊗ w[q][o]`, the
/// first `C` (1 to 4) columns of one n-group × the 16 rows of each of the
/// first `P = 4 / C` runs, tile row `q·C + c` for run `q`, column `c`,
/// under the same `i16` bound; any other row of the tile stays 0. Only a
/// walk of one column (four runs) or of a whole n-group takes the
/// straight loop: LLVM vectorises the others along `k`. On a dot-product
/// build no pair of an LO activation plane comes here, so a full `ks`
/// means a side the plan does not skip or a bitset that happens to be
/// full, and two- and three-column walks step bit by bit only on the
/// sparse pairs. The runs are unpacked or packed (see [`Run`]).
fn products_lanes_m<const C: usize>(w: ColRuns, x: &[PairedCols], ks: &KMask) -> ProductTile {
    match w {
        ColRuns::Unpacked(w) => products_lanes_m_of::<C, _>(&w, x, ks),
        ColRuns::Packed(w) => products_lanes_m_of::<C, _>(&w, x, ks),
    }
}

/// [`products_lanes_m`] of one kind of run, kept out of line likewise.
#[inline(never)]
fn products_lanes_m_of<const C: usize, R: Run>(
    w: &[R; VECTOR_LEN],
    x: &[PairedCols],
    ks: &KMask,
) -> ProductTile {
    assert!(
        w.iter().all(|run| run.len() >= x.len()),
        "a run per walked panel"
    );
    let mut tile = ProductTile::default();
    if matches!(C, 1 | VECTOR_LEN) && *ks == first_ks(x.len()) {
        for (o, x_cols) in x.iter().enumerate() {
            mac_lanes_m::<C, R>(&mut tile, w, o, x_cols);
        }
    } else {
        for_each_k(ks, |o| mac_lanes_m::<C, R>(&mut tile, w, o, &x[o]));
    }
    tile
}

/// One `k` of lanes along M, `k = o`: a weight column per walked run.
/// Lane `l` reads half `l % 2` of a column's pair: one 32-bit broadcast
/// load, no shuffle (`[pair; 8]` flattened compiles to a load and a
/// `vpermw` under AVX-512).
#[inline(always)]
fn mac_lanes_m<const C: usize, R: Run>(
    tile: &mut ProductTile,
    w: &[R; VECTOR_LEN],
    o: usize,
    x: &PairedCols,
) {
    for (tile_cols, run) in tile.chunks_exact_mut(C).zip(w) {
        let w_col = run.col(o);
        for (tile_col, x_pair) in tile_cols.iter_mut().zip(&x[..C]) {
            let x_lanes: [i16; LANES] = std::array::from_fn(|l| x_pair[l % 2]);
            for (t, (&w_slice, &x_slice)) in tile_col.iter_mut().zip(w_col.iter().zip(&x_lanes)) {
                *t += w_slice * x_slice;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sibia::SkipSide;
    use crate::workload::table1;
    use panacea_quant::dbs::{dbs_truncate, DbsType};
    use rand::Rng;

    /// Random weight in the (3n+4)-bit range with controllable HO sparsity.
    fn random_weight(m: usize, k: usize, n_lo: usize, ho_sparse: f64, seed: u64) -> Matrix<i32> {
        let mut rng = panacea_tensor::seeded_rng(seed);
        Matrix::from_fn(m, k, |_, _| {
            if rng.gen::<f64>() < ho_sparse {
                rng.gen_range(-7i32..=7) // zero HO slice guaranteed by SBR
            } else {
                let bits = 3 * n_lo as u32 + 4;
                rng.gen_range(-(1i32 << (bits - 1))..(1i32 << (bits - 1)))
            }
        })
    }

    /// Random activation with controllable fraction inside the skip range
    /// of slice `r`.
    fn random_activation(k: usize, n: usize, r: u8, in_range: f64, seed: u64) -> Matrix<i32> {
        let mut rng = panacea_tensor::seeded_rng(seed);
        Matrix::from_fn(k, n, |_, _| {
            if rng.gen::<f64>() < in_range {
                (i32::from(r) << 4) + rng.gen_range(0..16)
            } else {
                rng.gen_range(0i32..256)
            }
        })
    }

    #[test]
    fn exact_against_dense_reference_across_sparsities() {
        for (i, &(ws, xs)) in [(0.0, 0.0), (0.9, 0.0), (0.0, 0.9), (0.8, 0.95), (1.0, 1.0)]
            .iter()
            .enumerate()
        {
            let w = random_weight(8, 12, 1, ws, 100 + i as u64);
            let x = random_activation(12, 8, 9, xs, 200 + i as u64);
            let sw = SlicedWeight::from_int(&w, 1).unwrap();
            let sx = SlicedActivation::from_uint(&x, 1, DbsType::Type1).unwrap();
            let (out, _) = aqs_gemm(&sw, &sx, 9);
            assert_eq!(out, w.gemm(&x).unwrap(), "ws={ws} xs={xs}");
        }
    }

    #[test]
    fn exact_with_r_zero_matches_symmetric_case() {
        // r = 0 degrades gracefully to the classic zero-skipping GEMM.
        let w = random_weight(4, 8, 1, 0.5, 7);
        let x = random_activation(8, 4, 0, 0.7, 8);
        let sw = SlicedWeight::from_int(&w, 1).unwrap();
        let sx = SlicedActivation::from_uint(&x, 1, DbsType::Type1).unwrap();
        let (out, wl) = aqs_gemm(&sw, &sx, 0);
        assert_eq!(out, w.gemm(&x).unwrap());
        // No compensation is ever computed when r = 0.
        assert_eq!(wl.comp_mul, 0);
        assert_eq!(wl.comp_add, 0);
    }

    #[test]
    fn exact_with_multi_plane_weights() {
        // 10-bit weights (n = 2), the paper's GPT-2 MLP mixed precision.
        let w = random_weight(4, 8, 2, 0.6, 31);
        let x = random_activation(8, 8, 5, 0.8, 32);
        let sw = SlicedWeight::from_int(&w, 2).unwrap();
        let sx = SlicedActivation::from_uint(&x, 1, DbsType::Type1).unwrap();
        let (out, _) = aqs_gemm(&sw, &sx, 5);
        assert_eq!(out, w.gemm(&x).unwrap());
    }

    #[test]
    fn exact_with_multi_plane_activations() {
        // 12-bit activations (k = 2), the paper's Llama down-projection.
        let mut rng = panacea_tensor::seeded_rng(55);
        let w = random_weight(4, 8, 1, 0.3, 41);
        let x = Matrix::from_fn(8, 4, |_, _| rng.gen_range(0i32..4096));
        let sw = SlicedWeight::from_int(&w, 1).unwrap();
        let sx = SlicedActivation::from_uint(&x, 2, DbsType::Type1).unwrap();
        let (out, _) = aqs_gemm(&sw, &sx, 3);
        assert_eq!(out, w.gemm(&x).unwrap());
    }

    #[test]
    fn exact_with_4bit_weights() {
        // n = 0: single-plane weights (the OPTQ 4-bit case of Fig. 19).
        let mut rng = panacea_tensor::seeded_rng(66);
        let w = Matrix::from_fn(4, 8, |_, _| rng.gen_range(-8i32..8));
        let x = random_activation(8, 4, 12, 0.9, 67);
        let sw = SlicedWeight::from_int(&w, 0).unwrap();
        let sx = SlicedActivation::from_uint(&x, 1, DbsType::Type1).unwrap();
        let (out, _) = aqs_gemm(&sw, &sx, 12);
        assert_eq!(out, w.gemm(&x).unwrap());
    }

    #[test]
    fn dbs_types_match_truncated_reference() {
        let w = random_weight(4, 8, 1, 0.4, 71);
        let x = random_activation(8, 4, 6, 0.5, 72);
        let sw = SlicedWeight::from_int(&w, 1).unwrap();
        for ty in [DbsType::Type2, DbsType::Type3] {
            let sx = SlicedActivation::from_uint(&x, 1, ty).unwrap();
            let x_trunc = x.map(|&v| dbs_truncate(v, ty));
            let (out, _) = aqs_gemm(&sw, &sx, 6 >> (ty.lo_bits() - 4));
            assert_eq!(out, w.gemm(&x_trunc).unwrap(), "ty={ty}");
        }
    }

    #[test]
    fn fully_compressed_activation_is_pure_compensation() {
        // Every activation value inside the skip range of r = 10.
        let w = random_weight(4, 8, 1, 0.0, 81);
        let x = Matrix::from_fn(8, 4, |_, _| 10 << 4); // all slices exactly r, LO 0
        let sw = SlicedWeight::from_int(&w, 1).unwrap();
        let sx = SlicedActivation::from_uint(&x, 1, DbsType::Type1).unwrap();
        let (out, wl) = aqs_gemm(&sw, &sx, 10);
        assert_eq!(out, w.gemm(&x).unwrap());
        // All HO-involving products skipped: only LO×LO remains.
        let stats = aqs_tile_stats(&sw, &sx, 10);
        assert_eq!(stats.rho_x, 1.0);
        assert_eq!(stats.dwo_outer_products, 8); // W_HO × x_LO only (ρw = 0)
        assert!(wl.comp_mul > 0);
    }

    #[test]
    fn workload_matches_table1_closed_forms() {
        // Construct exact sparsity patterns: the first ⌈ρK⌉ columns of the
        // weight HO are zero vectors; the first ⌈ρK⌉ rows of the
        // activation HO are all-r vectors. One m-group, one n-group, so
        // measured ρ equals the pattern fraction and products factorize.
        let k_dim = 40usize;
        for &(rho_w, rho_x) in &[(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.25, 0.75), (1.0, 1.0)] {
            let kw = (rho_w * k_dim as f64).round() as usize;
            let kx = (rho_x * k_dim as f64).round() as usize;
            let w = Matrix::from_fn(4, k_dim, |_, c| if c < kw { 3 } else { 40 });
            let r = 9u8;
            let x = Matrix::from_fn(k_dim, 4, |rr, _| {
                if rr < kx {
                    i32::from(r) << 4 | 5
                } else {
                    2 // HO slice 0 ≠ r: uncompressed
                }
            });
            let sw = SlicedWeight::from_int(&w, 1).unwrap();
            let sx = SlicedActivation::from_uint(&x, 1, DbsType::Type1).unwrap();
            let (out, wl) = aqs_gemm(&sw, &sx, r);
            assert_eq!(out, w.gemm(&x).unwrap());
            let stats = aqs_tile_stats(&sw, &sx, r);
            assert!((stats.rho_w - rho_w).abs() < 1e-9);
            assert!((stats.rho_x - rho_x).abs() < 1e-9);
            // Exact combinatorial count: pairs per k = 1 (LO,LO) + [x unc]
            // + [w unc] + [w unc][x unc].
            let exact = 16.0
                * ((k_dim) as f64
                    + (k_dim - kx) as f64
                    + (k_dim - kw) as f64
                    + ((0..k_dim).filter(|&i| i >= kw && i >= kx).count() as f64));
            assert_eq!(wl.mul as f64, exact, "rho_w={rho_w} rho_x={rho_x}");
            // The Table-I expectation formula matches the exact count when
            // one side is dense (independence is then trivial).
            if kw == 0 || kx == 0 {
                assert_eq!(
                    wl.mul as f64,
                    table1::panacea_mul(k_dim as u64, rho_x, rho_w),
                    "rho_w={rho_w} rho_x={rho_x}"
                );
            }
            // EMA matches Table I exactly for all patterns.
            assert_eq!(
                wl.ema_slices as f64,
                table1::panacea_ema(k_dim as u64, rho_x, rho_w),
                "rho_w={rho_w} rho_x={rho_x}"
            );
            // Compensation: 16 muls per 4×4 tile, 8·K·(1−ρx) adds when
            // ρw = 0 (Table I's assumption).
            if rho_w == 0.0 && rho_x > 0.0 {
                assert_eq!(wl.comp_mul as f64, table1::panacea_comp_mul());
                assert_eq!(
                    wl.comp_add as f64,
                    table1::panacea_comp_add(k_dim as u64, rho_x)
                );
            }
        }
    }

    #[test]
    fn stats_partition_outer_products() {
        let w = random_weight(8, 16, 1, 0.5, 91);
        let x = random_activation(16, 8, 4, 0.6, 92);
        let sw = SlicedWeight::from_int(&w, 1).unwrap();
        let sx = SlicedActivation::from_uint(&x, 1, DbsType::Type1).unwrap();
        let s = aqs_tile_stats(&sw, &sx, 4);
        let total_pairs = (2 * 2 * (8 / 4) * 16 * (8 / 4)) as u64;
        assert_eq!(
            s.dwo_outer_products + s.swo_outer_products + s.skipped_outer_products,
            total_pairs
        );
        // LO×LO products are never skipped.
        assert_eq!(s.swo_outer_products, (16 * 2 * 2) as u64);
    }

    #[test]
    fn gemm_workload_is_the_closed_form_of_the_counted_stats() {
        // The GEMM assembles its statistics from the compressed counts
        // its intake takes, `aqs_tile_stats` / the Sibia plans' from
        // scanning `x`: narrow widths, a full tile and the widths past
        // it, each DBS type at `r` 0 and not, 12-bit codes, both skip
        // sides of Sibia.
        let (m, k) = (20, 300);
        let mut seed = 400;
        for n in (1..=9).chain([15, 16, 17, 33]) {
            seed += 1;
            let w = random_weight(m, k, 1, 0.6, seed);
            let sw = SlicedWeight::from_int(&w, 1).unwrap();
            let formats = [
                (1, DbsType::Type1, 0),
                (1, DbsType::Type1, 9),
                (1, DbsType::Type2, 5),
                (1, DbsType::Type3, 2),
                (2, DbsType::Type1, 0),
                (2, DbsType::Type1, 11),
            ];
            for (i, (x_lo, ty, r)) in formats.into_iter().enumerate() {
                // `bits`-bit codes whose HO slice (above `lo` bits) is `r`
                // in 70 % or 97 % of the entries: most n-groups live, or
                // most compressed.
                let share = [0.7, 0.97][i % 2];
                let (bits, lo) = match x_lo {
                    1 => (8, u32::from(ty.lo_bits())),
                    _ => (12, 8),
                };
                let mut rng = panacea_tensor::seeded_rng(seed + u64::from(r));
                let x = Matrix::from_fn(k, n, |_, _| {
                    let rest = rng.gen_range(0..1i32 << lo);
                    if rng.gen::<f64>() < share {
                        i32::from(r) << lo | rest
                    } else {
                        rng.gen_range(0..1i32 << bits)
                    }
                });
                let sx = SlicedActivation::from_uint(&x, x_lo, ty).unwrap();
                let (_, workload) = aqs_gemm(&sw, &sx, r);
                let what = format!("N={n} x_lo={x_lo} {ty} r={r}");
                assert_eq!(workload, aqs_tile_stats(&sw, &sx, r).workload(), "{what}");
            }
            let x = random_weight(n.next_multiple_of(4), k, 1, 0.6, seed + 50).transposed();
            let sx = SlicedWeight::from_int(&x.submatrix(0, 0, k, n), 1).unwrap();
            for side in [SkipSide::Weight, SkipSide::Activation] {
                let plan = KernelPlan::for_operands(&sw, &sx, 0, Some(side));
                let (_, workload) = run_sliced(&plan, &sw, &sx);
                let stats = PackedWeight::pack(&sw).tile_stats(&plan, &sx);
                assert_eq!(workload, stats.workload(), "N={n} {side:?}");
            }
        }
    }

    #[test]
    fn packed_slices_take_half_a_byte_each() {
        // A 768 × 768 w7 weight: two planes, three 256-`k` blocks.
        let (m, k) = (768, 768);
        let w = random_weight(m, k, 1, 0.5, 101);
        let sw = SlicedWeight::from_int(&w, 1).unwrap();
        let packed = PackedWeight::pack(&sw);
        let (m_panels, planes) = (m.div_ceil(PANEL_ROWS), sw.num_planes());
        let chunks: usize = (0..k.div_ceil(K_BLOCK))
            .map(|kb| K_BLOCK.min(k - kb * K_BLOCK).div_ceil(CHUNK_K))
            .sum();
        // A chunk is 16 rows × 8 `k` at half a byte a slice.
        let bytes = std::mem::size_of_val(&*packed.panels);
        assert_eq!(bytes, m_panels * chunks * 64 * planes);
        // Half of a byte per slice, with no padding at this shape.
        assert_eq!(2 * bytes, m * k * planes);
        // A `K` past a chunk edge pads its last chunk, and only it.
        let sw = SlicedWeight::from_int(&random_weight(16, 257, 1, 0.5, 102), 1).unwrap();
        let bytes = std::mem::size_of_val(&*PackedWeight::pack(&sw).panels);
        assert_eq!(bytes, (32 + 1) * 64 * 2);
    }

    /// The dot build's one intake at narrow widths — 1, 5 and 15 columns
    /// and N = 21's 5-column tail tile, at a `K` inside one block and one
    /// past it — lays out a full tile's quads: byte `4c + j` of quad `q`
    /// holds column `c` at `k = 4q + j`, every byte past the tile's width
    /// or past `K` is 0, and each block's column sums are the plane's.
    #[test]
    #[cfg(all(target_feature = "avx512vnni", target_feature = "avx512vbmi"))]
    fn the_intake_lays_out_narrow_tiles_as_a_full_one() {
        let mut rng = panacea_tensor::seeded_rng(111);
        for (n, c0) in [(1, 0), (5, 0), (15, 0), (21, 16)] {
            for k in [5, 257] {
                // 12-bit codes: two LO planes.
                let x = Matrix::from_fn(k, n, |_, _| rng.gen_range(0i32..4096));
                let sx = SlicedActivation::from_uint(&x, 2, DbsType::Type1).unwrap();
                let sw = SlicedWeight::from_int(&random_weight(4, k, 1, 0.5, 112), 1).unwrap();
                let mut act = ActTile::default();
                assert!(!act.prepare(&sx, &KernelPlan::for_operands(&sw, &sx, 0, None), c0));
                let (k_quads, k_blocks) = (2 * k.div_ceil(CHUNK_K), k.div_ceil(K_BLOCK));
                // Column `c` of the tile at `k`, 0 where the plane has none.
                let slice = |j: usize, kk: usize, c: usize| match (kk < k, c0 + c < n) {
                    (true, true) => sx.plane(j)[(kk, c0 + c)],
                    _ => 0,
                };
                for j in 0..2 {
                    let what = format!("N={n} c0={c0} K={k} plane {j}");
                    let quads = &act.wide_quads()[j * k_quads..][..k_quads];
                    for (q, quad) in quads.iter().enumerate() {
                        let bytes = quad.map(u32::to_le_bytes);
                        let want = std::array::from_fn(|c| {
                            std::array::from_fn(|i| slice(j, 4 * q + i, c))
                        });
                        assert_eq!(bytes, want, "{what} quad {q}");
                    }
                    for (kb, sums) in act.sums[j * k_blocks..][..k_blocks].iter().enumerate() {
                        let ks = kb * K_BLOCK..k.min((kb + 1) * K_BLOCK);
                        let want: [i32; LANES] = std::array::from_fn(|c| {
                            ks.clone().map(|kk| i32::from(slice(j, kk, c))).sum()
                        });
                        assert_eq!(*sums, want, "{what} block {kb}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "multiple of")]
    fn rejects_non_vector_aligned_shapes() {
        let w = Matrix::<i32>::zeros(6, 4);
        let x = Matrix::<i32>::zeros(4, 4);
        let sw = SlicedWeight::from_int(&w, 1).unwrap();
        let sx = SlicedActivation::from_uint(&x, 1, DbsType::Type1).unwrap();
        aqs_gemm(&sw, &sx, 0);
    }
}
