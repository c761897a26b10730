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
//!    planes — the tile's one operand, `u8` planes LO first: a
//!    [`SlicedActivation`]'s, or Sibia's SBR slices as `s + 8` with `r = 8`
//!    ([`sibia`](crate::sibia)) — widened to `i16`, per n-group as
//!    `[i16; 2]` pairs (each slice twice), on a full tile also as 16-column
//!    rows, widened once and cut into the pairs, with the bitset of `k`
//!    where the HO vectors are not all compressed and its k-quads (one bit
//!    per four `k`), from which the sweep also counts each `k`'s compressed
//!    n-groups for step 4. The HO plane is stored re-centred, `x_HO − r`,
//!    making an all-`r` vector a zero one, skipped alike: Eq. 5's
//!    `W·x_HO = W·(x_HO − r) + r·(ΣW)` leaves one per-row constant
//!    `b' = r·c_HO·ΣW` — Eq. 6's `b'`, with its `Jᵁ` correction folded into
//!    the re-centring — and the output starts at it. On a build with the
//!    dot product (`core::dot`) every plane is read straight from the stack
//!    as k-quads instead, the HO plane re-centred alike, with each block's
//!    column sums: at every tile width one 64-byte quad of its 16 columns
//!    per four `k` (one `vpermb` and one masked `vpsubb`, the bytes past a
//!    narrow tile's width or past `K` zero), whose every fourth word its
//!    n-groups' walks read; a full tile also takes the HO plane raw, in a
//!    second pass with `r` 0, for its HO×HO. There nothing is widened: each
//!    n-group's bitsets are read off the re-centred HO plane's quads (a
//!    byte not zero is a live slice).
//! 3. **Tile**: per `k` block and plane pair, *raw slice products* sum
//!    into a 4 × 16 `i16` register tile over exactly the `k` the pair
//!    executes — all for LO×LO, the weight bitset for HO_w×LO_x, the
//!    activation bitset for LO_w×HO_x, both for HO×HO — and then, scaled
//!    by `8^i·c_j`, into the output. On a build that targets AVX-512
//!    VNNI and VBMI, every pair of every plan sums in `i32` lanes on
//!    `vpdpbusd` instead, to the same block sum, scaled and
//!    added alike. Lanes along M the weight nibble (`slice + 8`, eight `k`
//!    a chunk, split with an AND and a shift-AND) is the unsigned operand
//!    and a column's activation quad the signed broadcast one, the `+ 8`
//!    taken back by starting at `−8·Σx`: LO_w×LO_x over every `k`; in a
//!    narrow walk HO_w×LO_x too (a compressed HO weight vector is stored
//!    as zeros, so the dense sum is exact); and LO_w×HO_x over each
//!    n-group's **live k-quads** only, those where any of its four HO
//!    vectors is uncompressed — the paper's activation skipping four `k`
//!    a step, exact because a dead quad is zeros, so `Σx` stays the
//!    block's. On a full tile HO_w×LO_x runs per m-group over its live
//!    k-quads, the weight side's skipping, and HO×HO alike on the raw HO
//!    plane (a second intake pass with `r` 0, exact because a dead weight
//!    quad is zeros; the extra `r·c_HO·8^{w_ho}·ΣW_HO` of each row is
//!    taken back once, where the tile writes its rows, from the HO row
//!    sums kept at pack): each row's four slices — its
//!    chunk word's nibble half with the `+ 8` taken back, signed once per
//!    block into a `RowQuad` for the quads some m-group reads — are one
//!    broadcast operand against the 16 columns' quad. The `i16` tile
//!    serves only builds without the two extensions: lanes along N it
//!    reads those signed rows, lanes along M k-major `[i8; 16]` columns.
//!    A narrow walk's HO×HO runs on the walks' `vpdpbusd` kernel over the
//!    n-group's live k-quads, as LO_w×HO_x does. A pair's lanes run along
//!    the side it
//!    does not skip, so each side skips at the paper's granularity: on a
//!    full tile the HO weight plane's pairs run **lanes along N**
//!    (`products_lanes_n` and `dot::lanes_n`: the 4 rows of an m-group ×
//!    16 columns, under the m-group's 4×1 bitset), every other pair
//!    **lanes along M** (the 16 rows of a panel × the n-groups' columns,
//!    under each n-group's 1×4 bitset). On a dot build a full tile walks
//!    an LO activation plane's 16 columns at once per panel and block
//!    (`dot::panel`), so each chunk is split once for the 16 columns, and
//!    the HO plane per n-group straight into its four columns of the same
//!    column-major tile, which reaches the panel's rows through one
//!    in-register transpose. Elsewhere (`products_lanes_m`) a walk carries one
//!    n-group, and a narrower tile — every decode step — runs every pair
//!    that way: an n-group of `C` columns fills the tile's four rows with
//!    `P = 4 / C` panels (Goto & van de Geijn's register blocking), one
//!    **walk** of `k` reading those panels' runs side by side, four at
//!    N = 1, two at N = 2, one from three columns on and on every whole
//!    n-group. On the `i16` tile its HO×HO pair runs under the union of
//!    the walked panels' bitsets (a compressed vector in a live union is
//!    stored as zeros).
//!    **One loop nest runs every tile**, full or narrow: per stretch of
//!    panels (the widest walk's, so one on a full tile), per `k` block,
//!    per weight plane; a full tile's HO weight plane lanes along N, every
//!    other plane in the stretch's walks, whose register tiles reach the
//!    output once, at the end of the stretch. There a block's runs are
//!    unpacked once for all the stretch's walks (Goto & van de Geijn's
//!    rule: pack a panel once, reuse it for every micro-tile) where the
//!    `k` their `i16` pairs read are at least half the block's, and read
//!    packed at those `k` elsewhere. The `i16` lanes along M broadcast a
//!    column's pair with one load (`vpbroadcastd ymm, m32`); its lanes
//!    along N broadcast a weight slice from a register (`movsbl` +
//!    `vpbroadcastw ymm, r32`, shuffle-port uops, four per `k`). A set
//!    holding every `k` of a block (any on a side the plan does not skip;
//!    a bitset that happens to be full) is walked in a straight loop —
//!    lanes along M only on a whole n-group or a one-column walk of four
//!    panels: for two or three columns LLVM vectorises it along `k`, 2–3×
//!    slower. In ms per call at 768 × 768, w7 × a8, vector-level ρ, 2-core
//!    AVX-512 host with VNNI and VBMI (`tests/tile_cost.rs`, min of 20
//!    runs of 40 alternated rounds × 8 calls; in parentheses the tree
//!    whose HO×HO still ran on the `i16` tile, timed in the same minutes,
//!    alternated; the served row is a ρ_w 0.93 layer on the ρ 0.95
//!    inputs, its one cell under ρ 0.95, and the ρ 1 row compresses every
//!    HO vector of both sides, the floor of every ρ):
//!
//!    | N  | ρ 0           | ρ 0.5         | ρ 0.95        |
//!    |----|---------------|---------------|---------------|
//!    | 1  | 0.023 (0.046) | 0.023 (0.046) | 0.017 (0.019) |
//!    | 2  | 0.034 (0.072) | 0.034 (0.063) | 0.026 (0.027) |
//!    | 4  | 0.052 (0.103) | 0.052 (0.107) | 0.040 (0.043) |
//!    | 8  | 0.099 (0.194) | 0.099 (0.177) | 0.075 (0.081) |
//!    | 12 | 0.147 (0.284) | 0.147 (0.264) | 0.112 (0.121) |
//!    | 16 | 0.205 (0.459) | 0.210 (0.371) | 0.110 (0.113) |
//!    | 1, 3072 × 768 per 768² | 0.027 (0.050) | 0.027 (0.051) | 0.021 (0.024) |
//!    | 16, 3072 × 768 per 768² | 0.213 (0.489) | 0.222 (0.384) | 0.123 (0.130) |
//!    | 1, served: ρ_w 0.93 × ρ_x 0.95 | | | 0.016 (0.021) |
//!    | 16, served: ρ_w 0.93 × ρ_x 0.95 | | | 0.124 (0.125) |
//!    | 1, ρ 1 | | | 0.014 (0.016) |
//!    | 16, ρ 1 | | | 0.058 (0.061) |
//!
//!    With dense HO work this cheap, ρ 0.5 no longer beats ρ 0: the test
//!    kills each 4-vector independently per `k`, so a k-quad, the dot
//!    product's skipping step, is dead with probability ρ⁴ (6 % at
//!    ρ 0.5).
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

use crate::dot::{self, LanesM};
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
// dot product sums a block of an activation plane in `i32` lanes, a
// chunk at a time (chunks tile a block), with the weight as the offset
// operand: a lane holds `Σ(w + 8)·x` — `w + 8 ≤ 2·MAX_W_SLICE − 1`, and
// it starts at `−8·Σx` — before the correction leaves `Σ w·x`, which is
// in `i16` range too, so it is the `i16` tile's exactly. A full tile's
// HO×HO reads the raw HO plane (`x_HO ∈ [0, 15]`, inside the same bound)
// until the tile takes back `r·c_HO·8^{w_ho}·ΣW_HO` per row, so
// `plan::accumulator_bound` covers every path.
const _: () = assert!(
    K_BLOCK * MAX_W_SLICE * MAX_X_SLICE <= i16::MAX as usize && K_BLOCK.is_multiple_of(VECTOR_LEN)
);
const _: () = assert!(K_BLOCK * (3 * MAX_W_SLICE - 1) * MAX_X_SLICE <= i32::MAX as usize);
const _: () = assert!(K_BLOCK.is_multiple_of(64));

/// The walks of a stretch unpack a block's runs of a weight plane once
/// for them all when their `i16` pairs read at least `1 / UNPACK_SHARE`
/// of its `k`, and read them packed when they read fewer. A dot build
/// has no such pair, so the rule serves only the fallback build. Both
/// halves pay: in an in-process ablation at 768 × 768 (2-core AVX-512
/// VNNI + VBMI host, `tests/tile_cost.rs`'s layers, 60 alternated
/// rounds), reading every block packed made the ρ 0 cells 1.2–1.6×
/// slower (N = 16: 1.26×), and unpacking every block made N = 1 / 2 / 4
/// at ρ 0.95 1.38× / 1.26× / 1.12× slower.
const UNPACK_SHARE: usize = 2;
/// One bit per `k` of a block.
pub(crate) type KMask = [u64; K_BLOCK / 64];
/// No `k` of a block.
const NONE: KMask = [0; K_BLOCK / 64];
/// One bit per k-quad of a block (`k = 4q .. 4q + 4`): a [`KMask`] with
/// each quad's four bits folded into bit `q`, so a walk of the live
/// quads is one loop per block.
pub(crate) type QuadMask = u64;
const _: () = assert!(K_BLOCK / VECTOR_LEN == QuadMask::BITS as usize);
/// `k` positions of one [`Chunk`]: two k-quads, one per nibble.
const CHUNK_K: usize = 2 * VECTOR_LEN;
const _: () = assert!(K_BLOCK.is_multiple_of(CHUNK_K));
/// Eight `k` of a panel at four bits a slice, in the order the dot
/// product reads them: word `r` (bytes `4r .. 4r + 4`, little-endian)
/// is row `r`, its byte `j` holding the slice at `k = 8t + j` in its low
/// nibble and at `k = 8t + 4 + j` in its high one, each as `slice + 8`.
#[derive(Clone, Copy, Debug)]
#[repr(C, align(64))]
pub(crate) struct Chunk(pub(crate) [u32; PANEL_ROWS]);
/// One `k` of a panel unpacked: a weight slice per row.
type PanelCol = [i8; PANEL_ROWS];
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
/// A full tile's lanes-along-M sum over one panel, column-major: `[c][r]`
/// is column `c` × row `r`.
pub(crate) type PanelTile = [[i32; PANEL_ROWS]; LANES];

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
    run_sliced(&plan(w, x, r), w, x.planes(), |_, _| 0)
}

/// Scheduling-level statistics only — the closed forms, no GEMM: the
/// vector-level `ρ_w` / `ρ_x` the figures' profile feeds the simulator,
/// and what `perf` and the workload-model tests count.
pub fn aqs_tile_stats(w: &SlicedWeight, x: &SlicedActivation, r: u8) -> TileStats {
    PackedWeight::pack(w).tile_stats(&plan(w, x, r), x.planes())
}

/// The AQS plan of operands sliced by the caller.
fn plan(w: &SlicedWeight, x: &SlicedActivation, r: u8) -> KernelPlan {
    let x_scales = (0..x.num_planes()).map(|j| x.plane_weight(j));
    KernelPlan::for_operands(w, x_scales, r.into(), None)
}

/// `W·X` under `plan` for a weight sliced by the caller and the tile's
/// activation operand `x` (its `u8` planes, LO first): the weight is
/// packed for this one call and each row's constant is `extra(m, ΣW[m])`
/// plus Eq. 6's `b'`.
pub(crate) fn run_sliced(
    plan: &KernelPlan,
    w: &SlicedWeight,
    x: &[Matrix<u8>],
    extra: impl Fn(usize, i64) -> i64,
) -> (Matrix<i32>, Workload) {
    let packed = PackedWeight::pack(w);
    let row_const = plan.row_consts(packed.row_sums(), extra);
    packed.gemm(plan, x, &row_const.expect("compensation term exceeds i32"))
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
    /// Per (m-group, `k` block): the k-quads of its `ho_live`.
    ho_quads: Vec<QuadMask>,
    /// Per (panel, `k` block): the union of its m-groups' `ho_live`.
    panel_live: Vec<KMask>,
    /// Per `k`: how many m-groups have a compressed HO vector there.
    compressed_per_k: Vec<u32>,
    /// Per row: `Σ_k W[m][k]`.
    row_sums: Vec<i64>,
    /// Per row: `Σ_k` of its HO plane's slices, which a full tile of a
    /// dot build takes back `r·c_HO·8^{w_ho}` times (its HO×HO pair reads
    /// the raw HO plane).
    ho_sums: Vec<i32>,
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
        let ho_sums = (0..m)
            .map(|row| {
                w.plane(planes - 1)
                    .row(row)
                    .iter()
                    .map(|&s| i32::from(s))
                    .sum()
            })
            .collect();
        PackedWeight {
            panels,
            plane_weights: (0..planes).map(|i| w.plane_weight(i)).collect(),
            ho_quads: ho_live.iter().map(quads).collect(),
            ho_live,
            panel_live,
            compressed_per_k,
            row_sums,
            ho_sums,
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

    /// Runs the kernel on the activation planes `x` (`u8`, LO first):
    /// `W·X + row_const` (one constant per output row, which must already
    /// contain `b'`), and the closed-form workload, from the compressed
    /// counts the intake takes.
    ///
    /// # Panics
    ///
    /// Panics if the operands are not in the plan's formats or shapes are
    /// incompatible.
    pub(crate) fn gemm(
        &self,
        plan: &KernelPlan,
        x: &[Matrix<u8>],
        row_const: &[i32],
    ) -> (Matrix<i32>, Workload) {
        let (m, n) = (self.row_sums.len(), x[0].cols());
        assert_eq!(self.plane_weights.len(), plan.w_planes(), "weight format");
        assert_eq!(
            self.compressed_per_k.len(),
            x[0].rows(),
            "inner dimensions differ"
        );
        assert_eq!(x.len(), plan.x_scales().len(), "activation format");
        assert_eq!(row_const.len(), m, "one constant per output row");
        // Both orientations add into the output, from its row constants.
        let mut out = vec![0; m * n];
        for (row, &c) in out.chunks_exact_mut(n.max(1)).zip(row_const) {
            row.fill(c);
        }
        let mut out = Matrix::from_vec(m, n, out).expect("m × n");
        let mut counts = Compressed::default();
        for c0 in (0..n).step_by(LANES) {
            STREAMS.with_borrow_mut(|scratch| {
                let full = scratch.act.prepare(x, plan, c0);
                counts.add(&scratch.act.compressed(&self.compressed_per_k));
                // The last n-group's columns; every other has four.
                match (n - c0).min(LANES) % VECTOR_LEN {
                    1 => self.tile::<1>(plan, scratch, full, c0, &mut out),
                    2 => self.tile::<2>(plan, scratch, full, c0, &mut out),
                    3 => self.tile::<3>(plan, scratch, full, c0, &mut out),
                    _ => self.tile::<4>(plan, scratch, full, c0, &mut out),
                }
            });
        }
        (out, self.closed_form(plan, n, counts).workload())
    }

    /// Adds the pairs of the n-tile at `c0` (its streams in `scratch`'s
    /// `act`; `full` on 16 columns) to the output, in the one loop nest
    /// of every width: per stretch of panels, the widest walk's (`4 / C`
    /// for a last n-group of `C` columns, so one on a full tile), per `k`
    /// block, per weight plane. A full tile's HO weight plane runs lanes
    /// along N ([`Self::block_lanes_n`]). Every other plane runs lanes
    /// along M, in walks of an n-group's columns × `4 / C` of the
    /// stretch's panels side by side, filling the tile's four rows (one
    /// panel a walk on a whole n-group) — on a full tile of a dot build,
    /// with no walks: an LO activation plane's 16 columns at once, which
    /// splits each chunk once, and the HO plane per n-group over its live
    /// k-quads, both into one column-major tile of the panel.
    /// The block's runs are unpacked once for all the stretch's walks
    /// where the `k` their `i16` pairs read are [`dense`], and read packed
    /// elsewhere. Each register tile is added to the output once, at the
    /// end of its stretch: a full tile's as the panel's 16 rows.
    fn tile<const C: usize>(
        &self,
        plan: &KernelPlan,
        scratch: &mut Scratch,
        full: bool,
        c0: usize,
        out: &mut Matrix<i32>,
    ) {
        let Scratch {
            act,
            cols,
            rows,
            walks,
        } = scratch;
        let k_dim = self.compressed_per_k.len();
        let (k_quads, k_blocks) = (2 * k_dim.div_ceil(CHUNK_K), k_dim.div_ceil(K_BLOCK));
        let (w_ho, x_ho) = (self.plane_weights.len() - 1, plan.x_scales().len() - 1);
        let (m, last, dot) = (out.rows(), act.groups.len() - 1, dot::kernels().is_some());
        let width = |g: usize| if g == last { C } else { VECTOR_LEN };
        let dots: [Option<DotQuads>; GROUPS] = std::array::from_fn(|g| act.dot(g, width(g)));
        // A full tile of a dot build walks all 16 columns of a panel at
        // once, so it runs no n-group walks.
        let full_walk = dot::kernels().filter(|_| full).map(|k| k.panel);
        let m_panels = m.div_ceil(PANEL_ROWS);
        for p0 in (0..m_panels).step_by(VECTOR_LEN / C) {
            let stretch = p0..m_panels.min(p0 + VECTOR_LEN / C);
            walks.clear();
            for g in (0..=last).filter(|_| full_walk.is_none()) {
                let step = VECTOR_LEN / width(g);
                for p in (p0..stretch.end).step_by(step) {
                    let panels = p..stretch.end.min(p + step);
                    walks.push(Walk {
                        g,
                        panels,
                        ..Walk::default()
                    });
                }
            }
            // A full tile's sums: lanes along N by row, the 16-column
            // walk's by column.
            let mut acc_n = [AccTile::default(); GROUPS];
            let mut acc_m = PanelTile::default();
            for kb in 0..k_blocks {
                let k0 = kb * K_BLOCK;
                let len = K_BLOCK.min(k_dim - k0);
                let all = first_ks(len);
                if full {
                    self.block_lanes_n(plan, act, p0, kb, rows, &mut acc_n);
                }
                // An n-group's walk of `runs` × activation plane `j` on the
                // dot product: the HO plane's over the n-group's live
                // quads, a dead block adding nothing.
                let dot_walk = |g: usize, runs: &Runs, j: usize, scale: i32, acc: &mut AccTile| {
                    let dot = dots[g].expect("a tile with quads");
                    let at = (j * k_quads + k0 / VECTOR_LEN) * VECTOR_LEN;
                    let x = &dot.quads[at..][..2 * runs[0].len() * VECTOR_LEN];
                    let sums = &dot.sums[(j * k_blocks + kb) * VECTOR_LEN];
                    let (group, skips) = (&act.groups[g], j == x_ho && plan.skips_activation());
                    let live = (skips && group.ho_live[kb] != all).then_some(group.ho_quads[kb]);
                    if live != Some(0) {
                        (dot.kernel)(runs, x, sums, live, scale, acc);
                    }
                };
                // The `k` each walk's `i16` pairs execute, and their union
                // over the walks. A side the plan does not skip executes
                // every `k`.
                let panel_live = |p: usize| &self.panel_live[p * k_blocks + kb];
                let mut union = [NONE; 4];
                for w in walks.iter_mut().filter(|_| !dot) {
                    let w_live = match plan.skips_weight() {
                        true => w.panels.clone().fold(NONE, |u, p| or(&u, panel_live(p))),
                        false => all,
                    };
                    let x_live = match plan.skips_activation() {
                        true => act.groups[w.g].ho_live[kb],
                        false => all,
                    };
                    let both = std::array::from_fn(|o| w_live[o] & x_live[o]);
                    w.live = [all, w_live, x_live, both];
                    union = std::array::from_fn(|p| or(&union[p], &w.live[p]));
                }
                for i in 0..w_ho + usize::from(!full) {
                    if let Some(full_walk) = full_walk {
                        // The LO activation planes over every `k` of the 16
                        // columns at once, the HO plane per n-group into
                        // its four columns.
                        let run = self.run(p0, kb, i);
                        for j in 0..=x_ho {
                            let scale = self.plane_weights[i] * plan.x_scales()[j];
                            if j < x_ho {
                                let x = &act.wide_quads()[j * k_quads + k0 / VECTOR_LEN..];
                                let sums = &act.sums[j * k_blocks + kb];
                                full_walk(run, &x[..2 * run.len()], sums, scale, &mut acc_m);
                                continue;
                            }
                            for (g, acc) in acc_m.as_chunks_mut().0.iter_mut().enumerate() {
                                dot_walk(g, &[run; VECTOR_LEN], j, scale, acc);
                            }
                        }
                        continue;
                    }
                    // A walk's runs, packed: past the last of its panels, it
                    // repeats it.
                    let packed = |w: &Walk| -> Runs {
                        let (start, last_q) = (w.panels.start, w.panels.len() - 1);
                        std::array::from_fn(|q| self.run(start + q.min(last_q), kb, i))
                    };
                    if dot {
                        // Every pair on the dot product, reading the runs
                        // packed.
                        for w in walks.iter_mut() {
                            let runs = packed(w);
                            for j in 0..=x_ho {
                                let scale = self.plane_weights[i] * plan.x_scales()[j];
                                dot_walk(w.g, &runs, j, scale, &mut w.acc);
                            }
                        }
                        continue;
                    }
                    // The `k` the walks' pairs read, the runs' unpack rule:
                    // the LO activation planes' pair (where there are any)
                    // and the HO plane's — a fold over every plane compiles
                    // to gathers.
                    let ho = &union[pair(i == w_ho, true)];
                    let need = &match x_ho {
                        0 => *ho,
                        _ => or(&union[pair(i == w_ho, false)], ho),
                    };
                    let unpacked = dense(need, len);
                    if unpacked {
                        grow(cols, stretch.len() * K_BLOCK / CHUNK_K);
                        let runs = cols.chunks_exact_mut(K_BLOCK / CHUNK_K);
                        for (dst, p) in runs.zip(stretch.clone()) {
                            unpack_run(dst, self.run(p, kb, i), need);
                        }
                    }
                    for w in walks.iter_mut() {
                        let runs = match unpacked {
                            true => ColRuns::Unpacked(std::array::from_fn(|q| {
                                let panel = w.panels.start + q.min(w.panels.len() - 1);
                                let at = (panel - p0) * K_BLOCK / CHUNK_K;
                                &cols[at..].as_flattened()[..len]
                            })),
                            false => ColRuns::Packed(packed(w)),
                        };
                        let stream = &act.groups[w.g];
                        for j in 0..=x_ho {
                            let scale = self.plane_weights[i] * plan.x_scales()[j];
                            let at = stream.planes.len() - (x_ho + 1 - j) * k_dim + k0;
                            let x = &stream.planes[at..][..len];
                            let ks = &w.live[pair(i == w_ho, j == x_ho)];
                            let tile = match w.g == last {
                                true => products_lanes_m::<C>(runs, x, ks),
                                false => products_lanes_m::<VECTOR_LEN>(runs, x, ks),
                            };
                            add_scaled(&mut w.acc, &tile, scale);
                        }
                    }
                }
            }
            if full {
                // The column-major sums beside lanes along N, then the
                // panel's rows, each added once — on a dot build less the
                // `r·c_HO·8^{w_ho}·ΣW_HO` its HO×HO pair summed on the raw
                // HO plane.
                let mut back = 0;
                if let Some(kernels) = dot::kernels() {
                    (kernels.transpose)(&acc_m, &mut acc_n);
                    back = i32::from(plan.r()) * self.plane_weights[w_ho] * plan.x_scales()[x_ho];
                }
                let panel = p0 * PANEL_ROWS..m.min((p0 + 1) * PANEL_ROWS);
                for (row, acc) in panel.zip(acc_n.as_flattened()) {
                    let back = back * self.ho_sums[row];
                    for (o, &a) in out.row_mut(row)[c0..c0 + LANES].iter_mut().zip(acc) {
                        *o += a - back;
                    }
                }
            }
            for w in walks.iter() {
                // Tile row `q·C + c` holds column `c` of the walk's panel
                // `q`.
                let c0 = c0 + w.g * VECTOR_LEN;
                for (p, acc) in w.panels.clone().zip(w.acc.chunks(width(w.g))) {
                    let row0 = p * PANEL_ROWS;
                    for (nn, acc_col) in acc.iter().enumerate() {
                        for (mm, &a) in acc_col[..PANEL_ROWS.min(m - row0)].iter().enumerate() {
                            out[(row0 + mm, c0 + nn)] += a;
                        }
                    }
                }
            }
        }
    }

    /// Adds `k` block `kb` of the HO weight plane's pairs of panel `p` to
    /// `acc`, its m-groups' tiles of a full n-tile, lanes along N: the
    /// chunks of the block some m-group reads, signed into `rows`, then
    /// per m-group a 4-row × 16-column tile under its own bitset — on the
    /// dot product over its live k-quads where the tile has quads (the HO
    /// activation plane raw, so the caller takes back
    /// `r·c_HO·8^{w_ho}·ΣW_HO`), and on the `i16`
    /// tile otherwise (the HO activation plane under both sides'
    /// bitsets, an LO plane under the m-group's).
    fn block_lanes_n(
        &self,
        plan: &KernelPlan,
        act: &ActTile,
        p: usize,
        kb: usize,
        rows: &mut Vec<RowQuad>,
        acc: &mut [AccTile; GROUPS],
    ) {
        let k_dim = self.compressed_per_k.len();
        let (k_quads, k_blocks) = (2 * k_dim.div_ceil(CHUNK_K), k_dim.div_ceil(K_BLOCK));
        let (w_ho, x_ho) = (self.plane_weights.len() - 1, plan.x_scales().len() - 1);
        let groups = p * GROUPS..(self.row_sums.len() / VECTOR_LEN).min((p + 1) * GROUPS);
        let k0 = kb * K_BLOCK;
        let len = K_BLOCK.min(k_dim - k0);
        let all = first_ks(len);
        // A side the plan does not skip executes every `k`.
        let w_live = |mg: usize| match plan.skips_weight() {
            true => &self.ho_live[mg * k_blocks + kb],
            false => &all,
        };
        let w_quads = |mg: usize| match plan.skips_weight() {
            true => self.ho_quads[mg * k_blocks + kb],
            false => quads(&all),
        };
        let run = self.run(p, kb, w_ho);
        // The quads some m-group reads, each signed once for them all.
        let union = groups.clone().fold(0, |u, mg| u | w_quads(mg));
        if union == 0 {
            return;
        }
        if rows.len() < 2 * run.len() {
            rows.resize(2 * run.len(), RowQuad::default());
        }
        for_each_quad(union, |q| rows[q] = signed_quad(&run[q / 2], q % 2));
        let rows = &rows[..2 * run.len()];
        let acc = &mut acc[..groups.len()];
        if let Some(kernels) = dot::kernels() {
            let quads: [QuadMask; GROUPS] =
                std::array::from_fn(|g| groups.clone().nth(g).map_or(0, w_quads));
            for j in 0..=x_ho {
                let scale = self.plane_weights[w_ho] * plan.x_scales()[j];
                // The HO plane's raw copy, after the re-centred one.
                let at = (j + usize::from(j == x_ho)) * k_quads + k0 / VECTOR_LEN;
                let x = &act.wide_quads()[at..][..rows.len()];
                (kernels.lanes_n)(rows, x, &quads[..acc.len()], scale, acc);
            }
            return;
        }
        let x_live = match plan.skips_activation() {
            true => &act.wide.ho_live[kb],
            false => &all,
        };
        for j in 0..=x_ho {
            let scale = self.plane_weights[w_ho] * plan.x_scales()[j];
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

    /// [`TileStats`] of `x` under `plan`, its compressed activation
    /// vectors counted from `x` itself: per `k`, the PE array's `⌈N/4⌉`
    /// n-groups, a partial last group compressed iff its present
    /// columns' HO slices all equal `r`.
    pub(crate) fn tile_stats(&self, plan: &KernelPlan, x: &[Matrix<u8>]) -> TileStats {
        let n = x[0].cols();
        assert_eq!(
            self.compressed_per_k.len(),
            x[0].rows(),
            "inner dimensions differ"
        );
        assert_eq!(x.len(), plan.x_scales().len(), "activation format");
        let r = plan.r();
        let x_ho = x[x.len() - 1].as_slice().chunks(n.max(1));
        let mut counts = Compressed::default();
        for (&wc, row) in self.compressed_per_k.iter().zip(x_ho) {
            let xc = row
                .chunks(VECTOR_LEN)
                .filter(|v| v.iter().all(|&s| i16::from(s) == r))
                .count() as u64;
            counts.add(&Compressed {
                x: xc,
                both: u64::from(wc) * xc,
            });
        }
        self.closed_form(plan, n, counts)
    }

    /// [`TileStats`] from the two sides' per-`k` compressed counts, over
    /// the PE array's `⌈N/4⌉` n-groups: the weight's resident ones and
    /// `counts` of the activation's.
    fn closed_form(&self, plan: &KernelPlan, n: usize, counts: Compressed) -> TileStats {
        let k_dim = self.compressed_per_k.len();
        let (p_w, p_x) = (plan.w_planes() as u64, plan.x_scales().len() as u64);
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
    /// Per `k` block: the k-quads of `ho_live`.
    ho_quads: Vec<QuadMask>,
}

impl<T: Default + PartialEq> Stream<T> {
    /// Refills the stream with the rows `extend` appends, `k_dim` a plane.
    fn fill(&mut self, k_dim: usize, extend: impl FnOnce(&mut Vec<T>)) {
        self.planes.clear();
        extend(&mut self.planes);
        let ho = &self.planes[self.planes.len() - k_dim..];
        mark(&mut self.ho_live, &mut self.ho_quads, ho, |row| {
            *row != T::default()
        });
    }
}

/// Refills a stream's bitsets with the `k` of `ho` (one element a `k`)
/// where `live` holds, per `k` block, and their k-quads.
fn mark<U>(
    ho_live: &mut Vec<KMask>,
    ho_quads: &mut Vec<QuadMask>,
    ho: &[U],
    live: impl Fn(&U) -> bool,
) {
    let word = |rows: &[U]| rows.iter().rfold(0, |w, r| w << 1 | u64::from(live(r)));
    let block = |b: &[U]| std::array::from_fn(|w| b.chunks(64).nth(w).map_or(0, &word));
    ho_live.clear();
    ho_live.extend(ho.chunks(K_BLOCK).map(block));
    ho_quads.clear();
    ho_quads.extend(ho_live.iter().map(quads));
}

thread_local! {
    /// The streams and unpacked weights of this thread's last call,
    /// refilled by its next one: a call that allocated and freed its own
    /// would page-fault on them.
    static STREAMS: RefCell<Scratch> = RefCell::default();
}

/// A thread's buffers: the activation side of an n-tile; the runs of
/// one `k` block and weight plane of a stretch of panels as the `i16`
/// tile reads them lanes along M, unpacked once for all the stretch's
/// walks (panel `p0 + q`'s from chunk `q · K_BLOCK / 8` on); the signed
/// quads of one block lanes along N read; and the stretch's walks.
#[derive(Default)]
struct Scratch {
    act: ActTile,
    cols: Vec<Unpacked>,
    rows: Vec<RowQuad>,
    walks: Vec<Walk>,
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
            *dst = unpack(chunk);
        }
    }
}

/// A chunk's eight `k` as k-major columns, each slice back in `[-8, 7]`.
fn unpack(chunk: &Chunk) -> Unpacked {
    std::array::from_fn(|o| {
        chunk
            .0
            .map(|word| (word >> nibble_shift(o) & 0xF) as i8 - 8)
    })
}

/// One lanes-along-M walk of a stretch: n-group `g`'s `C` columns ×
/// `panels` (at most `4 / C`), its register tile's sum over the blocks so
/// far, and per plane pair of the current block, indexed by which of its
/// planes are HO (bit 0 the weight's, bit 1 the activation's), the `k`
/// it executes: every `k`, the union of `panels`' HO weight bitsets, the
/// n-group's HO activation bitset (each every `k` on a side the plan
/// does not skip), and both.
#[derive(Default)]
struct Walk {
    g: usize,
    panels: Range<usize>,
    acc: AccTile,
    live: [KMask; 4],
}

/// The index in [`Walk`]'s `live` of the `k` a pair of a weight and an
/// activation plane executes on the `i16` tile, given whether each is
/// its stack's HO plane.
fn pair(w_ho: bool, x_ho: bool) -> usize {
    usize::from(w_ho) | usize::from(x_ho) << 1
}

/// The runs of one block and plane as a walk's `i16` pairs read them (the
/// fallback build only): unpacked, where the `k` the stretch's walks read
/// are [`dense`], or packed, reading only those `k`. Where fewer are live,
/// unpacking whole runs costs more than reading the packed slices at those
/// `k`.
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

/// The activation side of one n-tile: per n-group for lanes along M (on
/// a full tile of a dot build only its bitsets), on a full 16-column tile
/// its rows for lanes along N and, on a dot build, its planes as
/// [`WideQuad`]s at any width, the HO plane re-centred, which the
/// dot-product kernels read.
#[derive(Default)]
struct ActTile {
    groups: Vec<Stream<PairedCols>>,
    wide: Stream<[i16; LANES]>,
    /// The tile's quads, from word `at` on (so each starts on a 64-byte
    /// line): per plane `2⌈K / 8⌉` of them, zero past `K` and `N`, then
    /// three [`Quad`]s of zeros, so an n-group's view of every fourth
    /// `Quad` from its own ends in bounds.
    words: Vec<u32>,
    at: usize,
    /// Per plane and `k` block: the 16 columns' sums of their slices.
    sums: Vec<[i32; LANES]>,
}

/// A lanes-along-M walk's planes at dot-product width: its kernel, its
/// quads from its first on, every fourth [`Quad`] its own (per plane
/// `2⌈K / 8⌉` of them), and per plane and `k` block its columns' sums,
/// every fourth too.
#[derive(Clone, Copy)]
struct DotQuads<'a> {
    kernel: LanesM,
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
    /// Refills the streams for columns `c0 ..` of `x`; true on a full tile.
    /// On a build with the dot product the planes are quads at every width,
    /// and the n-groups' bitsets are read off the HO plane's; elsewhere the
    /// planes are widened, on a full tile also as `wide`'s rows.
    fn prepare(&mut self, x: &[Matrix<u8>], plan: &KernelPlan, c0: usize) -> bool {
        let (k, n) = x[0].shape();
        let x_ho = x.len() - 1;
        let full = n - c0 >= LANES;
        let ActTile { groups, wide, .. } = self;
        groups.resize_with((n - c0).min(LANES).div_ceil(VECTOR_LEN), Stream::default);
        let Some(kernels) = dot::kernels() else {
            if full {
                // A full tile: its planes widened once (in a loop: an
                // `array::map` compiles to a call per row), the n-groups'
                // pairs cut from its rows.
                let row = |s: &[u8], r| {
                    let s: &[_; LANES] = s.try_into().expect("a full tile");
                    let mut lanes = [0; LANES];
                    for (lane, &s) in lanes.iter_mut().zip(s) {
                        *lane = i16::from(s) - r;
                    }
                    lanes
                };
                wide.fill(k, |p| widen(p, x, plan, c0..c0 + LANES, row));
                for (i, g) in groups.iter_mut().enumerate() {
                    let cut =
                        |row: &[i16; LANES]| row.as_chunks::<VECTOR_LEN>().0[i].map(|s| [s; 2]);
                    g.fill(k, |p| p.extend(wide.planes.iter().map(cut)));
                }
            } else {
                // A narrow tile: each n-group's pairs straight from `x`.
                let pairs = |s: &[u8], r| {
                    std::array::from_fn(|c| [s.get(c).map_or(0, |&s| i16::from(s) - r); 2])
                };
                for (g, c) in groups.iter_mut().zip((c0..n).step_by(VECTOR_LEN)) {
                    let cols = c..n.min(c + VECTOR_LEN);
                    g.fill(k, |p| widen(p, x, plan, cols, pairs));
                }
            }
            return full;
        };
        let (k_quads, k_blocks) = (2 * k.div_ceil(CHUNK_K), k.div_ceil(K_BLOCK));
        // A full tile also takes the HO plane raw, after the others.
        let planes = x_ho + 1 + usize::from(full);
        // The intake writes every quad: only the pad past them is zeroed,
        // not the whole buffer.
        let words = planes * k_quads * LANES;
        if self.words.len() < words + 3 * VECTOR_LEN + LANES - 1 {
            self.words.resize(words + 3 * VECTOR_LEN + LANES - 1, 0);
        }
        self.at = (64 - self.words.as_ptr() as usize % 64) % 64 / 4;
        self.words[self.at + words..][..3 * VECTOR_LEN].fill(0);
        self.sums.clear();
        self.sums.resize(planes * k_blocks, [0; LANES]);
        let tile_quads = self.words[self.at..].as_chunks_mut().0;
        let outs = tile_quads
            .chunks_mut(k_quads)
            .zip(self.sums.chunks_mut(k_blocks));
        for (j, (quads, sums)) in outs.take(planes).enumerate() {
            let plane = x[j.min(x_ho)].as_slice();
            // The HO plane re-centred, which the walks' products kernel
            // and the n-groups' bitsets read; its raw copy is for a full
            // tile's HO×HO on `lanes_n`.
            let r = if j == x_ho { plan.r() as u8 } else { 0 };
            (kernels.intake)(plane, n, c0, r, quads, sums);
        }
        // Each n-group's bitsets from its bytes of the HO plane's quads.
        let ActTile {
            groups, words, at, ..
        } = self;
        let ho = &words[*at..].as_chunks::<LANES>().0[x_ho * k_quads..][..k_quads];
        for (g, group) in groups.iter_mut().enumerate() {
            group.planes.clear();
            group.ho_live.clear();
            group
                .ho_live
                .extend(ho.chunks(K_BLOCK / VECTOR_LEN).map(|block| {
                    let mut live = NONE;
                    for (q, quad) in block.iter().enumerate() {
                        live[q / 16] |=
                            live_ks(&quad[VECTOR_LEN * g..][..VECTOR_LEN]) << (q % 16 * 4);
                    }
                    live
                }));
            group.ho_quads.clear();
            group.ho_quads.extend(group.ho_live.iter().map(quads));
        }
        full
    }

    /// The tile's [`WideQuad`]s, per plane (the HO one re-centred), then
    /// on a full tile the HO plane raw.
    fn wide_quads(&self) -> &[WideQuad] {
        self.words[self.at..].as_chunks().0
    }

    /// The planes of n-group `g`, of `cols` columns, at dot-product
    /// width, if the tile has them: every fourth of its quads.
    fn dot(&self, g: usize, cols: usize) -> Option<DotQuads<'_>> {
        Some(DotQuads {
            kernel: dot::kernels()?.lanes_m[cols - 1],
            quads: &self.words[self.at..].as_chunks().0[g..],
            sums: &self.sums.as_flattened().as_chunks().0[g..],
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

/// Appends each plane of `x` to `planes`: its rows cut to `cols`, made
/// elements by `lanes`, which also gets the plane's re-centring.
fn widen<T>(
    planes: &mut Vec<T>,
    x: &[Matrix<u8>],
    plan: &KernelPlan,
    cols: Range<usize>,
    lanes: impl Fn(&[u8], i16) -> T,
) {
    let x_ho = x.len() - 1;
    for (j, plane) in x.iter().enumerate() {
        let r = if j == x_ho { plan.r() } else { 0 };
        let rows = plane.as_slice().chunks_exact(plane.cols());
        planes.extend(rows.map(|row| lanes(&row[cols.clone()], r)));
    }
}

/// `acc += scale · tile`, lane by lane, in one flat loop over the 64
/// lanes: a nest of rows and lanes compiled to a gather and a scatter
/// per lane across the four rows. Plain `+` / `*`: overflow panics under
/// `debug_assertions`; `QuantizedLinear::prepare` rejects layers whose
/// sums could reach it.
fn add_scaled<P: Copy + Into<i32>>(acc: &mut AccTile, tile: &[[P; LANES]; VECTOR_LEN], scale: i32) {
    for (a, &p) in acc.as_flattened_mut().iter_mut().zip(tile.as_flattened()) {
        *a += p.into() * scale;
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
const fn nibble_shift(o: usize) -> u32 {
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
/// out of line: so each tile stays in registers all block. Serves only
/// the fallback build.
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

/// Nibble half `half` of a chunk (its `k`-quad `2t + half`) as a signed
/// [`RowQuad`]: each byte `b ∈ [0, 15]` to `b − 8`, four at a time with
/// no borrow between them (`b | 0x80` stays at least 8). A loop, not
/// `array::map`, which compiles to a call per quad.
fn signed_quad(chunk: &Chunk, half: usize) -> RowQuad {
    let shift = 4 * half as u32;
    let mut quad = RowQuad::default();
    for (row, &word) in quad.0.iter_mut().zip(&chunk.0) {
        let b = word >> shift & 0x0F0F_0F0F;
        let [s0, s1, s2, s3] = (((b | 0x8080_8080) - 0x0808_0808) ^ 0x8080_8080).to_le_bytes();
        *row = [s0 as i8, s1 as i8, s2 as i8, s3 as i8];
    }
    quad
}

/// The k-quads of a block holding a `k` of `ks`.
fn quads(ks: &KMask) -> QuadMask {
    ks.iter().enumerate().fold(0, |quads, (i, &w)| {
        // Bit `4j` for the word's quad `j`, then the 16 bits folded down.
        let x = (w | w >> 1 | w >> 2 | w >> 3) & 0x1111_1111_1111_1111;
        let x = (x | x >> 3) & 0x0303_0303_0303_0303;
        let x = (x | x >> 6) & 0x000F_000F_000F_000F;
        let x = (x | x >> 12) & 0x0000_00FF_0000_00FF;
        let x = (x | x >> 24) & 0xFFFF;
        quads | x << (16 * i)
    })
}

/// The `k` of one quad (bit `j` for `k = 4q + j`) where one of the
/// columns' re-centred HO slices is not zero: byte `j` of a column's word
/// is its slice at `4q + j`.
fn live_ks(cols: &[u32]) -> u64 {
    let any = cols.iter().fold(0, |any, &word| any | word);
    any.to_le_bytes()
        .iter()
        .enumerate()
        .fold(0, |ks, (j, &slice)| ks | u64::from(slice != 0) << j)
}

/// Calls `f` on each quad set in `quads`, ascending.
#[inline(always)]
fn for_each_quad(quads: QuadMask, mut f: impl FnMut(usize)) {
    let mut bits = quads;
    while bits != 0 {
        f(bits.trailing_zeros() as usize);
        bits &= bits - 1;
    }
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

/// A run of one panel's weight columns as the `i16` tile reads it (the
/// fallback build only), one `k` at a time: unpacked, or packed, reading
/// only the `k` of a block whose `i16` pairs are sparse — unpacking whole
/// runs for those few `k` is what makes the narrow ρ 0.95 cells slower (see
/// [`UNPACK_SHARE`]).
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

/// The inner kernel, lanes along M: `Σ_{o ∈ ks} x[o] ⊗ w[q][o]`, the first
/// `C` (1 to 4) columns of one n-group × the 16 rows of each of the first
/// `P = 4 / C` runs, tile row `q·C + c` for run `q`, column `c`, under the
/// same `i16` bound; any other row of the tile stays 0. Only a walk of one
/// column (four runs) or of a whole n-group takes the straight loop: LLVM
/// vectorises the others along `k`. Serves only the fallback build. The
/// runs are unpacked or packed (see [`Run`]).
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
                let (plan, stack) = crate::sibia::operands(&sw, &sx, Some(side));
                let (_, workload) = run_sliced(&plan, &sw, &stack, |_, _| 0);
                let stats = PackedWeight::pack(&sw).tile_stats(&plan, &stack);
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
    /// holds column `c` at `k = 4q + j` (on the HO plane as `x_HO − r`),
    /// every byte past the tile's width or past `K` is 0 (not `−r`), and
    /// each block's column sums are the plane's, signed on the HO plane.
    #[test]
    #[cfg(all(target_feature = "avx512vnni", target_feature = "avx512vbmi"))]
    fn the_intake_lays_out_narrow_tiles_as_a_full_one() {
        let mut rng = panacea_tensor::seeded_rng(111);
        let r = 9;
        for (n, c0) in [(1, 0), (5, 0), (15, 0), (21, 16)] {
            for k in [5, 257] {
                // 12-bit codes: two LO planes and the HO plane.
                let x = Matrix::from_fn(k, n, |_, _| rng.gen_range(0i32..4096));
                let sx = SlicedActivation::from_uint(&x, 2, DbsType::Type1).unwrap();
                let sw = SlicedWeight::from_int(&random_weight(4, k, 1, 0.5, 112), 1).unwrap();
                let mut act = ActTile::default();
                assert!(!act.prepare(sx.planes(), &plan(&sw, &sx, r), c0));
                let (k_quads, k_blocks) = (2 * k.div_ceil(CHUNK_K), k.div_ceil(K_BLOCK));
                // Column `c` of the tile at `k`, 0 where the plane has none.
                let slice = |j: usize, kk: usize, c: usize| match (kk < k, c0 + c < n) {
                    (true, true) => i32::from(sx.plane(j)[(kk, c0 + c)]) - [0, 0, r.into()][j],
                    _ => 0,
                };
                for j in 0..3 {
                    let what = format!("N={n} c0={c0} K={k} plane {j}");
                    let quads = &act.wide_quads()[j * k_quads..][..k_quads];
                    for (q, quad) in quads.iter().enumerate() {
                        let bytes = quad.map(u32::to_le_bytes);
                        let want = std::array::from_fn(|c| {
                            std::array::from_fn(|i| slice(j, 4 * q + i, c) as i8 as u8)
                        });
                        assert_eq!(bytes, want, "{what} quad {q}");
                    }
                    for (kb, sums) in act.sums[j * k_blocks..][..k_blocks].iter().enumerate() {
                        let ks = kb * K_BLOCK..k.min((kb + 1) * K_BLOCK);
                        let want: [i32; LANES] =
                            std::array::from_fn(|c| ks.clone().map(|kk| slice(j, kk, c)).sum());
                        assert_eq!(*sums, want, "{what} block {kb}");
                    }
                }
            }
        }
    }

    /// A full tile's HO×HO lane before its take-back (`Σ w·x_HO`, raw
    /// `x_HO` 15) at the largest `K` a w7 × a8 layer admits, on worst-case
    /// operands: rows of 63 (HO 7) and −64 (HO −7), every code 255, `r` 0
    /// and 15. A debug build overflow-checks the tile's scalar writes.
    #[test]
    fn the_raw_ho_lane_fits_at_the_largest_admitted_k() {
        use panacea_quant::{AsymmetricQuantizer, LayerQuantConfig};
        let act = |r: u8| LayerQuantConfig {
            quantizer: AsymmetricQuantizer::from_params(1.0, 0, 8).expect("8-bit"),
            dbs_type: DbsType::Type1,
            frequent_ho_slice: r,
            skip_lo: 0,
            skip_hi: 0,
            coverage: 0.0,
        };
        let k = (i64::from(i32::MAX) / crate::plan::accumulator_bound(1, 7, 8)) as usize;
        assert!(KernelPlan::for_layer(7, &act(0), k + 1).is_err());
        let w = Matrix::from_fn(16, k, |m, _| if m % 2 == 0 { 63 } else { -64 });
        let sw = SlicedWeight::from_int(&w, 1).unwrap();
        let sx =
            SlicedActivation::from_uint(&Matrix::from_fn(k, 16, |_, _| 255), 1, DbsType::Type1)
                .unwrap();
        let packed = PackedWeight::pack(&sw);
        for r in [0u8, 15] {
            let plan = KernelPlan::for_layer(7, &act(r), k).expect("admitted");
            // With no row constant the output is `Σ w·(x − 16r)`.
            let (out, _) = packed.gemm(&plan, sx.planes(), &[0; 16]);
            for m in 0..16 {
                let want: i64 = w
                    .row(m)
                    .iter()
                    .map(|&v| i64::from(v) * (255 - 16 * i64::from(r)))
                    .sum();
                assert!(
                    out.row(m).iter().all(|&o| i64::from(o) == want),
                    "r={r} row {m}"
                );
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
