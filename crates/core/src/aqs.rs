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
//!    High-Performance Matrix Multiplication*, ACM TOMS 2008): per
//!    (16-row panel, 256-`k` block, plane) a run of `[i8; 16]` columns,
//!    rows past `M` zero — as many bytes as the row-major planes they
//!    replace, immutable once packed and shared by clones of the layer.
//!    The index is, per 4-row m-group and `k` block, a bitset of
//!    the `k` whose HO vector is *not* compressed, per panel the union of
//!    its m-groups' bitsets, per `k` the number of compressed m-groups,
//!    and the row sums `ΣW`. The public [`aqs_gemm`] /
//!    [`sibia_gemm`](crate::sibia::sibia_gemm) take a [`SlicedWeight`]
//!    and pack it on every call.
//! 2. **Streams** (per call and 16-column n-tile, in buffers each thread
//!    reuses): the activation planes (`u8`, or `i8` for Sibia's SBR
//!    activations) widened to `i16` — per n-group as `[i16; 2]` pairs
//!    (each slice twice), on a full tile also as 16-column rows, widened
//!    once and cut into the pairs — with the bitset of `k` where the HO
//!    vectors are not all compressed. The HO plane is stored re-centred,
//!    `x_HO − r`, making an all-`r` vector a zero one, skipped alike:
//!    Eq. 5's `W·x_HO = W·(x_HO − r) + r·(ΣW)` leaves one per-row
//!    constant `b' = r·c_HO·ΣW` — Eq. 6's `b'`, with its `Jᵁ` correction
//!    folded into the re-centring — and the output starts at it.
//! 3. **Tile**: per `k` block and plane pair, *raw slice products* sum
//!    into a 4 × 16 `i16` register tile over exactly the `k` the pair
//!    executes — all for LO×LO, the weight bitset for HO_w×LO_x, the
//!    activation bitset for LO_w×HO_x, both for HO×HO — and then, scaled
//!    by `8^i·c_j`, into the output. A pair's lanes run along the side it
//!    does not skip, so each side skips at the paper's granularity: on a
//!    full tile the HO weight plane's pairs run **lanes along N**
//!    (`products_lanes_n`: the 4 rows of an m-group × 16 columns, under
//!    the m-group's 4×1 bitset), every other pair **lanes along M**
//!    (`products_lanes_m`: the 16 rows of a panel × one n-group, under the
//!    n-group's 1×4 bitset). A narrower tile — every decode step — runs
//!    every pair lanes along M, and an n-group of `C` columns fills the
//!    tile's four rows with `P = 4 / C` panels (Goto & van de Geijn's
//!    register blocking): one walk of `k` reads those panels' runs side
//!    by side, four at N = 1, two at N = 2, one from three columns on.
//!    The HO weight plane runs under the union of the walked panels'
//!    bitsets (a compressed vector in a live union is stored as zeros).
//!    Lanes along M broadcast a column's pair with one load
//!    (`vpbroadcastd ymm, m32`); lanes along N broadcast a weight slice
//!    from a register (`movsbl` + `vpbroadcastw ymm, r32`, shuffle-port
//!    uops, four per `k`). Every pair lanes along M would spare those but
//!    skip weights only per 16-row union, where ρ = 0.5 costs nearly what
//!    ρ = 0 does. A set holding every `k` of a block (LO×LO's; any on a
//!    side the plan does not skip) is walked in a straight loop — lanes
//!    along M only on a whole n-group or a one-column walk of four
//!    panels: for two or three columns LLVM vectorises it along `k`,
//!    2–3× slower. In ms per call at 768 × 768, w7 × a8, vector-level
//!    ρ, 2-core AVX-512 host (`tests/tile_cost.rs`, min of 40 alternated
//!    rounds × 8 calls):
//!
//!    | N  | ρ 0   | ρ 0.5 | ρ 0.95 |
//!    |----|-------|-------|--------|
//!    | 1  | 0.087 | 0.072 | 0.046  |
//!    | 2  | 0.161 | 0.132 | 0.070  |
//!    | 4  | 0.220 | 0.211 | 0.098  |
//!    | 8  | 0.432 | 0.431 | 0.192  |
//!    | 12 | 0.647 | 0.644 | 0.304  |
//!    | 16 | 1.060 | 0.852 | 0.351  |
//!
//!    `N` is any width: only the last n-group can hold fewer than four
//!    columns, and it multiplies only those; an absent lane is 0 in every
//!    plane, so it never makes a vector live. No HO+LO value is rebuilt.
//! 4. **Statistics in closed form**: [`TileStats`] — what the paper's PE
//!    array would execute, skip and compensate (Eq. 6 as the hardware
//!    computes it) at its own 4×1 / 1×4 granularity — follows from the
//!    two sides' per-`k` compressed counts alone and does not depend on
//!    the orientation, so the kernel carries no counters and the
//!    simulator, the harness and the server all run this one kernel.
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

use crate::plan::KernelPlan;
use crate::workload::Workload;

/// `k` positions one pass of the inner kernel covers: the most whose
/// slice products an `i16` holds (asserted below) in whole mask words.
const K_BLOCK: usize = 256;
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
// One block of slice products cannot leave the `i16` register tile.
const _: () = assert!(K_BLOCK * MAX_W_SLICE * MAX_X_SLICE <= i16::MAX as usize);
const _: () = assert!(K_BLOCK.is_multiple_of(64));

/// One bit per `k` of a block.
type KMask = [u64; K_BLOCK / 64];
/// One `k` of a panel: a weight slice per row.
type PanelCol = [i8; PANEL_ROWS];
/// The register tile of raw slice products: 4 weight rows × 16 columns
/// (lanes along N) or 4 columns × 16 weight rows (lanes along M).
type ProductTile = [[i16; LANES]; VECTOR_LEN];
/// One `k` of an n-group's lanes-along-M stream: each slice twice.
type PairedCols = [[i16; 2]; VECTOR_LEN];
/// The runs of one `k` block and plane a walk reads, one per panel it
/// carries; lanes along N read the first.
type Runs<'a> = [&'a [PanelCol]; VECTOR_LEN];

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
}

macro_rules! impl_planes {
    ($stack:ty, $slice:ty) => {
        impl Planes for $stack {
            type Slice = $slice;
            fn num_planes(&self) -> usize {
                <$stack>::num_planes(self)
            }
            fn plane(&self, j: usize) -> &Matrix<$slice> {
                <$stack>::plane(self, j)
            }
            fn plane_weight(&self, j: usize) -> i32 {
                <$stack>::plane_weight(self, j)
            }
        }
    };
}
impl_planes!(SlicedActivation, u8);
impl_planes!(SlicedWeight, i8);

/// The weight side of the kernel — slices and index — computed once per
/// [`SlicedWeight`], which it replaces.
#[derive(Debug, Clone)]
pub(crate) struct PackedWeight {
    /// Per (panel, `k` block, plane), in that order: one [`PanelCol`] per
    /// `k` of the block. Rows past `M` are zero. Immutable once packed,
    /// so clones of a layer share the one copy.
    panels: Arc<[PanelCol]>,
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
        // Allocated once at its final size and filled in place, while
        // this is still the only handle.
        let zero_cols = std::iter::repeat_n([0i8; PANEL_ROWS], m_panels * k_dim * planes);
        let mut panels: Arc<[PanelCol]> = zero_cols.collect();
        let cols = Arc::get_mut(&mut panels).expect("not shared yet");
        let mut ho_live = vec![KMask::default(); m / VECTOR_LEN * k_blocks];
        let mut panel_live = vec![KMask::default(); m_panels * k_blocks];
        let mut compressed_per_k = vec![0u32; k_dim];
        let mut filled = 0;
        for p in 0..m_panels {
            // The panel's m-groups; fewer than four at the bottom edge.
            let m_groups = p * GROUPS..(m / VECTOR_LEN).min((p + 1) * GROUPS);
            for kb in 0..k_blocks {
                let k0 = kb * K_BLOCK;
                let len = K_BLOCK.min(k_dim - k0);
                for i in 0..planes {
                    let run = &mut cols[filled..filled + len];
                    filled += len;
                    for mg in m_groups.clone() {
                        // One 4×1 slice-vector per `k`, into m-group
                        // `mg`'s place in its panel column.
                        let [r0, r1, r2, r3]: [&[i8]; VECTOR_LEN] = std::array::from_fn(|mm| {
                            &w.plane(i).row(mg * VECTOR_LEN + mm)[k0..k0 + len]
                        });
                        let vectors = r0.iter().zip(r1).zip(r2).zip(r3);
                        for (col, (((&a, &b), &c), &d)) in run.iter_mut().zip(vectors) {
                            col.as_chunks_mut::<VECTOR_LEN>().0[mg % GROUPS] = [a, b, c, d];
                        }
                        if i + 1 < planes {
                            continue;
                        }
                        // On the HO plane a vector is compressed iff it is
                        // all-zero (a pass of its own: folded into the
                        // copy it slows every plane's).
                        let live = &mut ho_live[mg * k_blocks + kb];
                        let compressed = &mut compressed_per_k[k0..k0 + len];
                        for (o, (col, compressed)) in run.iter().zip(compressed).enumerate() {
                            let [a, b, c, d] = col.as_chunks::<VECTOR_LEN>().0[mg % GROUPS];
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

    /// `Σ_k W[m][k]` per row.
    pub(crate) fn row_sums(&self) -> &[i64] {
        &self.row_sums
    }

    /// Runs the kernel: `W·X + row_const` (one constant per output row,
    /// which must already contain `b'`), and the closed-form workload.
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
        let stats = self.tile_stats(plan, x);
        let (m, n) = (self.row_sums.len(), x.plane(0).cols());
        let w_ho = self.plane_weights.len() - 1;
        assert_eq!(w_ho + 1, plan.w_planes(), "weight format");
        assert_eq!(row_const.len(), m, "one constant per output row");
        // Both orientations add into the output, from its row constants.
        let mut out = Matrix::from_fn(m, n, |row, _| row_const[row]);
        for c0 in (0..n).step_by(LANES) {
            STREAMS.with_borrow_mut(|act| {
                // A full tile runs its HO weight plane lanes along N.
                let full = act.prepare(x, plan, c0);
                if full {
                    self.tile_lanes_n(plan, &act.wide, c0, &mut out);
                }
                let lanes_m = 0..w_ho + usize::from(!full);
                self.tile_lanes_m(plan, &act.groups, lanes_m, c0, &mut out);
            });
        }
        (out, stats.workload())
    }

    /// Adds the HO weight plane's pairs to columns `c0 .. c0 + 16` of the
    /// output, lanes along N: per m-group a 4-row × 16-column tile under
    /// the m-group's own bitset.
    fn tile_lanes_n(
        &self,
        plan: &KernelPlan,
        wide: &Stream<[i16; LANES]>,
        c0: usize,
        out: &mut Matrix<i32>,
    ) {
        let k_blocks = self.compressed_per_k.len().div_ceil(K_BLOCK);
        let w_ho = self.plane_weights.len() - 1;
        for mg in 0..out.rows() / VECTOR_LEN {
            let w_live = &self.ho_live[mg * k_blocks..(mg + 1) * k_blocks];
            let products = |w: &Runs, x: &_, ks: &_| products_lanes_n(w[0], mg % GROUPS, x, ks);
            let panel = mg / GROUPS..mg / GROUPS + 1;
            let acc = self.accumulate(plan, panel, w_ho..w_ho + 1, w_live, wide, products);
            for (mm, acc_row) in acc.iter().enumerate() {
                let row = mg * VECTOR_LEN + mm;
                for (o, &a) in out.row_mut(row)[c0..c0 + LANES].iter_mut().zip(acc_row) {
                    *o += a;
                }
            }
        }
    }

    /// Adds weight planes `w_planes`' pairs to the columns of `groups`
    /// from `c0` on, lanes along M, of real columns only: per n-group of
    /// `C` columns, one walk of `k` fills the tile's four rows with
    /// `P = 4 / C` panels × the `C` columns, under the n-group's bitset
    /// (and the union of those panels' bitsets for the HO weight plane).
    fn tile_lanes_m(
        &self,
        plan: &KernelPlan,
        groups: &[Stream<PairedCols>],
        w_planes: Range<usize>,
        c0: usize,
        out: &mut Matrix<i32>,
    ) {
        let (m_panels, n) = (out.rows().div_ceil(PANEL_ROWS), out.cols());
        // Four columns, except in the last n-group of the call.
        let cols = |g: usize| VECTOR_LEN.min(n - c0 - g * VECTOR_LEN);
        // Panels of the widest walk, the last n-group's: a whole n-group
        // walks one panel, so every walk lies inside one such stretch.
        let widest = VECTOR_LEN / cols(groups.len() - 1);
        for p0 in (0..m_panels).step_by(widest) {
            let stretch = p0..m_panels.min(p0 + widest);
            for (g, act) in groups.iter().enumerate() {
                let (c0, walk) = (c0 + g * VECTOR_LEN, VECTOR_LEN / cols(g));
                for p in stretch.clone().step_by(walk) {
                    let panels = p..stretch.end.min(p + walk);
                    self.walk_lanes_m(plan, act, w_planes.clone(), panels, c0, out);
                }
            }
        }
    }

    /// One lanes-along-M walk: adds weight planes `w_planes`' pairs of
    /// `panels` (at most `4 / C`) to the `C` columns of `act` at `c0`.
    fn walk_lanes_m(
        &self,
        plan: &KernelPlan,
        act: &Stream<PairedCols>,
        w_planes: Range<usize>,
        panels: Range<usize>,
        c0: usize,
        out: &mut Matrix<i32>,
    ) {
        let k_blocks = self.compressed_per_k.len().div_ceil(K_BLOCK);
        let w_live = &self.panel_live[panels.start * k_blocks..panels.end * k_blocks];
        let cols = VECTOR_LEN.min(out.cols() - c0);
        let ps = panels.clone();
        let acc = match cols {
            1 => self.accumulate(plan, ps, w_planes, w_live, act, products_lanes_m::<1>),
            2 => self.accumulate(plan, ps, w_planes, w_live, act, products_lanes_m::<2>),
            3 => self.accumulate(plan, ps, w_planes, w_live, act, products_lanes_m::<3>),
            _ => self.accumulate(plan, ps, w_planes, w_live, act, products_lanes_m::<4>),
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

    /// `Σ_{i,j} 8^i·c_j · Σ_k` of one register tile: `products` over every
    /// `k` block, weight plane `i ∈ w_planes` of `panels` and activation
    /// plane `j`, each over the `k` that pair executes given `act.ho_live`
    /// and the union of `w_live`'s units (m-groups or panels, a bitset per
    /// `k` block each).
    fn accumulate<T>(
        &self,
        plan: &KernelPlan,
        panels: Range<usize>,
        w_planes: Range<usize>,
        w_live: &[KMask],
        act: &Stream<T>,
        products: impl Fn(&Runs, &[T], &KMask) -> ProductTile,
    ) -> [[i32; LANES]; VECTOR_LEN] {
        let k_dim = self.compressed_per_k.len();
        let planes = self.plane_weights.len();
        let (w_ho, x_ho) = (planes - 1, plan.x_scales().len() - 1);
        let mut acc = [[0i32; LANES]; VECTOR_LEN];
        for (kb, x_live) in act.ho_live.iter().enumerate() {
            let k0 = kb * K_BLOCK;
            let len = K_BLOCK.min(k_dim - k0);
            let all = first_ks(len);
            let units = w_live.iter().skip(kb).step_by(act.ho_live.len());
            let union = units.fold(KMask::default(), |u, m| {
                std::array::from_fn(|i| u[i] | m[i])
            });
            // A side the plan does not skip executes every `k`.
            let w_live = if plan.skips_weight() { &union } else { &all };
            let both_live: KMask = std::array::from_fn(|i| w_live[i] & x_live[i]);
            for i in w_planes.clone() {
                // Past the last of `panels`, the walk repeats it.
                let w_runs: Runs = std::array::from_fn(|q| {
                    let p = (panels.start + q).min(panels.end - 1);
                    &self.panels[(p * k_dim + k0) * planes + i * len..][..len]
                });
                for j in 0..=x_ho {
                    // The `k` this plane pair executes.
                    let ks = match (i == w_ho, j == x_ho) {
                        (false, false) => &all,
                        (true, false) => w_live,
                        (false, true) => x_live,
                        (true, true) => &both_live,
                    };
                    let tile = products(&w_runs, &act.planes[j * k_dim + k0..][..len], ks);
                    // Plain `+` / `*`: overflow panics under
                    // `debug_assertions`; `QuantizedLinear::prepare`
                    // rejects layers whose sums could reach it.
                    let scale = self.plane_weights[i] * plan.x_scales()[j];
                    for (acc_row, row) in acc.iter_mut().zip(&tile) {
                        for (a, &p) in acc_row.iter_mut().zip(row) {
                            *a += i32::from(p) * scale;
                        }
                    }
                }
            }
        }
        acc
    }

    /// [`TileStats`] from the two sides' per-`k` compressed counts, over
    /// the PE array's `⌈N/4⌉` n-groups: a partial last group is counted
    /// 4 wide and is compressed iff its present columns' HO slices all
    /// equal `r`.
    pub(crate) fn tile_stats<X: Planes>(&self, plan: &KernelPlan, x: &X) -> TileStats {
        let k_dim = self.compressed_per_k.len();
        let n = x.plane(0).cols();
        assert_eq!(k_dim, x.plane(0).rows(), "inner dimensions differ");
        assert_eq!(x.num_planes(), plan.x_scales().len(), "activation format");
        let (p_w, p_x) = (plan.w_planes() as u64, x.num_planes() as u64);
        let m_groups = (self.row_sums.len() / VECTOR_LEN) as u64;
        let n_groups = n.div_ceil(VECTOR_LEN) as u64;
        let w_vectors = m_groups * k_dim as u64;
        let x_vectors = k_dim as u64 * n_groups;

        // Σ_k over (wc_k, xc_k): compressed m-groups / n-groups at `k`.
        let (mut w_comp, mut x_comp, mut both_comp) = (0u64, 0u64, 0u64);
        let r = plan.r();
        let x_ho = x.plane(x.num_planes() - 1).as_slice().chunks(n.max(1));
        for (&wc, row) in self.compressed_per_k.iter().zip(x_ho) {
            let xc = row
                .chunks(VECTOR_LEN)
                .filter(|v| v.iter().all(|&s| s.into() == r))
                .count() as u64;
            w_comp += u64::from(wc);
            x_comp += xc;
            both_comp += u64::from(wc) * xc;
        }
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

/// One activation stream: `K` rows of `T` per plane, plane after plane
/// (the HO plane as `x_HO − r`, zero across every compressed vector;
/// lanes past `N` 0), and per `k` block the bitset of `k` whose HO row is
/// not zero, or of every `k` if the plan does not skip activations.
#[derive(Default)]
struct Stream<T> {
    planes: Vec<T>,
    ho_live: Vec<KMask>,
}

impl<T: Default + PartialEq> Stream<T> {
    /// Refills the stream with the rows `extend` appends, `k_dim` a plane.
    fn fill(&mut self, plan: &KernelPlan, k_dim: usize, extend: impl FnOnce(&mut Vec<T>)) {
        self.planes.clear();
        extend(&mut self.planes);
        let live = |row: &T| !plan.skips_activation() || *row != T::default();
        let word = |rows: &[T]| rows.iter().rfold(0, |w, r| w << 1 | u64::from(live(r)));
        let block = |b: &[T]| std::array::from_fn(|w| b.chunks(64).nth(w).map_or(0, word));
        let ho = &self.planes[self.planes.len() - k_dim..];
        self.ho_live.clear();
        self.ho_live.extend(ho.chunks(K_BLOCK).map(block));
    }
}

thread_local! {
    /// The streams of this thread's last call, refilled by its next one: a
    /// call that allocated and freed its own would page-fault on them.
    static STREAMS: RefCell<ActTile> = RefCell::default();
}

/// The activation side of one n-tile: per n-group for lanes along M and,
/// on a full 16-column tile, its rows for lanes along N.
#[derive(Default)]
struct ActTile {
    groups: Vec<Stream<PairedCols>>,
    wide: Stream<[i16; LANES]>,
}

impl ActTile {
    /// Refills the streams for columns `c0 ..` of `x`; true (and `wide`
    /// refilled) on a full tile.
    fn prepare<X: Planes>(&mut self, x: &X, plan: &KernelPlan, c0: usize) -> bool {
        let (k, n) = x.plane(0).shape();
        let ActTile { groups, wide } = self;
        groups.resize_with((n - c0).min(LANES).div_ceil(VECTOR_LEN), Stream::default);
        if n - c0 < LANES {
            // A narrow tile: each n-group's pairs straight from `x`.
            let pairs = |s: &[X::Slice], r| {
                std::array::from_fn(|c| [s.get(c).map_or(0, |&s| s.into() - r); 2])
            };
            for (g, c) in groups.iter_mut().zip((c0..n).step_by(VECTOR_LEN)) {
                let cols = c..n.min(c + VECTOR_LEN);
                g.fill(plan, k, |p| widen(p, x, plan, cols, pairs));
            }
            return false;
        }
        // A full tile: each plane widened once, the n-groups' pairs cut
        // from its rows.
        let row = |s: &[X::Slice], r| std::array::from_fn(|c| s[c].into() - r);
        wide.fill(plan, k, |p| widen(p, x, plan, c0..c0 + LANES, row));
        for (i, g) in groups.iter_mut().enumerate() {
            let cut = |row: &[i16; LANES]| row.as_chunks().0[i].map(|s| [s; 2]);
            g.fill(plan, k, |p| p.extend(wide.planes.iter().map(cut)));
        }
        true
    }
}

/// Appends each plane of `x` to `planes`: its rows cut to `cols`, made
/// elements by `lanes`, which also gets the plane's re-centring.
fn widen<X: Planes, T>(
    planes: &mut Vec<T>,
    x: &X,
    plan: &KernelPlan,
    cols: Range<usize>,
    lanes: impl Fn(&[X::Slice], i16) -> T,
) {
    let x_ho = x.num_planes() - 1;
    for j in 0..=x_ho {
        let (plane, r) = (x.plane(j), if j == x_ho { plan.r() } else { 0 });
        planes.extend((0..plane.rows()).map(|k| lanes(&plane.row(k)[cols.clone()], r)));
    }
}

/// The mask of the first `len` offsets of a block.
fn first_ks(len: usize) -> KMask {
    std::array::from_fn(|word| match len.saturating_sub(word * 64) {
        rest if rest >= 64 => u64::MAX,
        rest => (1 << rest) - 1,
    })
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

/// The inner kernel, lanes along N: `Σ_{o ∈ ks} w[o][4g..4g + 4] ⊗ x[o]`,
/// the 4 rows of m-group `g` of the panel × 16 columns of raw slice
/// products. At most [`K_BLOCK`] of them, so the `i16` sums cannot wrap
/// (the `const` assertion above). A full `ks` is walked in a straight
/// loop. Kept out of line: so the tile stays in registers all block.
#[inline(never)]
fn products_lanes_n(w: &[PanelCol], g: usize, x: &[[i16; LANES]], ks: &KMask) -> ProductTile {
    // Two slices of one length: the bounds check on `x` covers both.
    let w = &w[..x.len()];
    assert!(g < GROUPS, "m-group {g} of a panel");
    let mut tile = ProductTile::default();
    let mac = |o: usize| mac_lanes_n(&mut tile, &w[o].as_chunks().0[g], &x[o]);
    if *ks == first_ks(x.len()) {
        (0..x.len()).for_each(mac);
    } else {
        for_each_k(ks, mac);
    }
    tile
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

/// The inner kernel, lanes along M: `Σ_{o ∈ ks} x[o] ⊗ w[q][o]`, the
/// first `C` (1 to 4) columns of one n-group × the 16 rows of each of the
/// first `P = 4 / C` runs, tile row `q·C + c` for run `q`, column `c`,
/// under the same `i16` bound; any other row of the tile stays 0. Only a
/// walk of one column (four runs) or of a whole n-group takes the
/// straight loop: LLVM vectorises the others along `k`. Kept out of line
/// likewise.
#[inline(never)]
fn products_lanes_m<const C: usize>(w: &Runs, x: &[PairedCols], ks: &KMask) -> ProductTile {
    let [w0, w1, w2, w3] = w.map(|run| &run[..x.len()]);
    let mut tile = ProductTile::default();
    if matches!(C, 1 | VECTOR_LEN) && *ks == first_ks(x.len()) {
        let runs = w0.iter().zip(w1).zip(w2).zip(w3);
        for (x_cols, (((a, b), c), d)) in x.iter().zip(runs) {
            mac_lanes_m::<C>(&mut tile, [a, b, c, d], x_cols);
        }
    } else {
        for_each_k(ks, |o| {
            mac_lanes_m::<C>(&mut tile, [&w0[o], &w1[o], &w2[o], &w3[o]], &x[o]);
        });
    }
    tile
}

/// One `k` of lanes along M: a weight column per run. Lane `l` reads
/// half `l % 2` of a column's pair: one 32-bit broadcast load, no
/// shuffle (`[pair; 8]` flattened compiles to a load and a `vpermw`
/// under AVX-512).
#[inline(always)]
fn mac_lanes_m<const C: usize>(tile: &mut ProductTile, w: [&PanelCol; VECTOR_LEN], x: &PairedCols) {
    for (tile_cols, w_col) in tile.chunks_exact_mut(C).zip(w) {
        let w_col = w_col.map(i16::from);
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
    #[should_panic(expected = "multiple of")]
    fn rejects_non_vector_aligned_shapes() {
        let w = Matrix::<i32>::zeros(6, 4);
        let x = Matrix::<i32>::zeros(4, 4);
        let sw = SlicedWeight::from_int(&w, 1).unwrap();
        let sx = SlicedActivation::from_uint(&x, 1, DbsType::Type1).unwrap();
        aqs_gemm(&sw, &sx, 0);
    }
}
