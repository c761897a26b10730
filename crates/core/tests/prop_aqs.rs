//! Property-based tests of the AQS-GEMM invariants: bit-exactness for
//! arbitrary operands, sparsity patterns, `r` values and plane counts,
//! and the kernel ≡ the seed's loop nests ([`oracle`]) on outputs and on
//! every [`TileStats`](panacea_core::TileStats) field — under the AQS plan
//! and under both Sibia plans of the same tile.

mod oracle;

use panacea_bitslice::{SlicedActivation, SlicedWeight};
use panacea_core::aqs::{aqs_gemm, aqs_tile_stats};
use panacea_core::pipeline::QuantizedLinear;
use panacea_core::sibia::{sibia_gemm, SkipSide};
use panacea_quant::dbs::{dbs_truncate, DbsConfig, DbsType};
use panacea_quant::{ActivationCalibrator, Quantizer, SymmetricQuantizer};
use panacea_tensor::dist::DistributionKind;
use panacea_tensor::Matrix;
use proptest::prelude::*;
use rand::Rng;

fn weight_strategy(m: usize, k: usize) -> impl Strategy<Value = Matrix<i32>> {
    proptest::collection::vec(-64i32..=63, m * k)
        .prop_map(move |v| Matrix::from_vec(m, k, v).expect("sized"))
}

fn act_strategy(k: usize, n: usize) -> impl Strategy<Value = Matrix<i32>> {
    proptest::collection::vec(0i32..=255, k * n)
        .prop_map(move |v| Matrix::from_vec(k, n, v).expect("sized"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// AQS-GEMM is exact for every operand pair and every r.
    #[test]
    fn aqs_exact_for_arbitrary_operands(
        w in weight_strategy(8, 12),
        x in act_strategy(12, 8),
        r in 0u8..16,
    ) {
        let sw = SlicedWeight::from_int(&w, 1).expect("weights");
        let sx = SlicedActivation::from_uint(&x, 1, DbsType::Type1).expect("acts");
        let (out, _) = aqs_gemm(&sw, &sx, r);
        prop_assert_eq!(out, w.gemm(&x).expect("shapes"));
    }

    /// The result never depends on r — r only moves work between the
    /// skipped set and the compensation term.
    #[test]
    fn result_independent_of_r(
        w in weight_strategy(4, 8),
        x in act_strategy(8, 4),
    ) {
        let sw = SlicedWeight::from_int(&w, 1).expect("weights");
        let sx = SlicedActivation::from_uint(&x, 1, DbsType::Type1).expect("acts");
        let (first, _) = aqs_gemm(&sw, &sx, 0);
        for r in 1u8..16 {
            let (out, _) = aqs_gemm(&sw, &sx, r);
            prop_assert_eq!(&out, &first, "r = {}", r);
        }
    }

    /// DBS types 2/3 compute exactly the truncated-operand product.
    #[test]
    fn dbs_exactness(
        w in weight_strategy(4, 8),
        x in act_strategy(8, 4),
        r in 0u8..8,
    ) {
        let sw = SlicedWeight::from_int(&w, 1).expect("weights");
        for ty in [DbsType::Type2, DbsType::Type3] {
            let sx = SlicedActivation::from_uint(&x, 1, ty).expect("acts");
            let x_eff = x.map(|&v| dbs_truncate(v, ty));
            let (out, _) = aqs_gemm(&sw, &sx, r);
            prop_assert_eq!(out, w.gemm(&x_eff).expect("shapes"));
        }
    }

    /// Work never increases when values move into the skip range.
    #[test]
    fn more_compressible_data_never_costs_more(
        base in act_strategy(16, 8),
        r in 0u8..16,
    ) {
        let w = Matrix::from_fn(4, 16, |a, b| ((a * 7 + b * 3) % 120) as i32 - 60);
        let sw = SlicedWeight::from_int(&w, 1).expect("weights");
        // Force the first half of the rows into the skip range.
        let squeezed = Matrix::from_fn(16, 8, |k, n| {
            if k < 8 { (i32::from(r) << 4) | (base[(k, n)] & 0xF) } else { base[(k, n)] }
        });
        let sx_base = SlicedActivation::from_uint(&base, 1, DbsType::Type1).expect("acts");
        let sx_sq = SlicedActivation::from_uint(&squeezed, 1, DbsType::Type1).expect("acts");
        let (_, wl_base) = aqs_gemm(&sw, &sx_base, r);
        let (_, wl_sq) = aqs_gemm(&sw, &sx_sq, r);
        prop_assert!(wl_sq.mul <= wl_base.mul);
        prop_assert!(wl_sq.ema_slices <= wl_base.ema_slices);
    }

    /// Measured vector sparsities are consistent with the skip counts.
    #[test]
    fn stats_are_internally_consistent(
        w in weight_strategy(8, 8),
        x in act_strategy(8, 8),
        r in 0u8..16,
    ) {
        let sw = SlicedWeight::from_int(&w, 1).expect("weights");
        let sx = SlicedActivation::from_uint(&x, 1, DbsType::Type1).expect("acts");
        let s = aqs_tile_stats(&sw, &sx, r);
        prop_assert!((0.0..=1.0).contains(&s.rho_w));
        prop_assert!((0.0..=1.0).contains(&s.rho_x));
        let total = s.dwo_outer_products + s.swo_outer_products + s.skipped_outer_products;
        prop_assert_eq!(total, 2 * 2 * 2 * 8 * 2); // planes² × mg × K × ng
    }

    /// Sibia and AQS agree bit-for-bit on shared representable inputs.
    #[test]
    fn engines_agree_on_common_domain(
        w in weight_strategy(4, 8),
        x_small in proptest::collection::vec(0i32..=63, 8 * 4),
    ) {
        let x = Matrix::from_vec(8, 4, x_small).expect("sized");
        let sw = SlicedWeight::from_int(&w, 1).expect("weights");
        let sx = SlicedActivation::from_uint(&x, 1, DbsType::Type1).expect("acts");
        let sx_sbr = SlicedWeight::from_int(&x, 1).expect("acts as SBR");
        let reference = w.gemm(&x).expect("shapes");
        prop_assert_eq!(aqs_gemm(&sw, &sx, 0).0, reference.clone());
        prop_assert_eq!(sibia_gemm(&sw, &sx_sbr, SkipSide::Weight).0, reference);
    }
}

/// How much of each side's HO vectors a generated operand compresses.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fill {
    /// Every HO vector is compressed (ρ = 1).
    All,
    /// No HO vector is compressed (ρ = 0).
    None,
    /// Each vector is compressed with this probability.
    Share(f64),
    /// Each 4-vector group along the other side (m-group of a weight,
    /// n-group of an activation) its own: all, none, half, 90 % in turn.
    ByGroup,
    /// Exactly one live vector per group and k-quad (`k = 4q .. 4q + 4`),
    /// at `k = 4q + (g + q) mod 4`: each group meets all four positions.
    OnePerQuad,
}

impl Fill {
    /// What this fill means for group `g` of the other side.
    fn of_group(self, g: usize) -> Fill {
        match self {
            Fill::ByGroup => [Fill::All, Fill::None, Fill::Share(0.5), Fill::Share(0.9)][g % 4],
            fill => fill,
        }
    }

    /// Whether the vector of group `g` at `k` is compressed.
    fn compresses(self, g: usize, k: usize, rng: &mut impl Rng) -> bool {
        match self {
            Fill::All => true,
            Fill::None => false,
            Fill::Share(p) => rng.gen::<f64>() < p,
            Fill::OnePerQuad => k % 4 != (g + k / 4) % 4,
            Fill::ByGroup => unreachable!("resolved per group by of_group"),
        }
    }

    /// Whether a live vector of this fill must be live for certain, not
    /// only with the odds of a random slice.
    fn pins_live(self) -> bool {
        matches!(self, Fill::None | Fill::OnePerQuad)
    }
}

/// One differential case: operands of the given format with
/// vector-level sparsity, sliced, plus what the PE array pads a partial
/// last activation vector with: the code whose HO slice is `r` and whose
/// other slices are 0 (any code when no HO slice can equal `r`).
struct Case {
    sw: SlicedWeight,
    sx: SlicedActivation,
    r: u8,
    x: Matrix<i32>,
    x_lo: usize,
    ty: DbsType,
    pad_code: i32,
}

/// A `(3·lo_slices + 4)`-bit signed matrix whose 4×1 HO vectors (along
/// the rows) are compressed as `fill` says.
fn sbr_matrix(
    rows: usize,
    cols: usize,
    lo_slices: usize,
    fill: Fill,
    rng: &mut impl Rng,
) -> Matrix<i32> {
    let max = (1i32 << (3 * lo_slices as u32 + 3)) - 1;
    let mut w = Matrix::<i32>::zeros(rows, cols);
    for mg in 0..rows / 4 {
        let fill = fill.of_group(mg);
        for kk in 0..cols {
            let compress = fill.compresses(mg, kk, rng);
            for mm in 0..4 {
                // |v| ≤ 7 has an all-zero HO slice under SBR (and is the
                // only such range when there is a single plane: v = 0).
                w[(mg * 4 + mm, kk)] = match (compress, lo_slices) {
                    (true, 0) => 0,
                    (true, _) => rng.gen_range(-7i32..=7),
                    (false, _) if mm == 0 && fill.pins_live() => max,
                    (false, _) => rng.gen_range(-max - 1..=max),
                };
            }
        }
    }
    w
}

#[allow(clippy::too_many_arguments)] // one argument per axis of the sweep
fn case(
    (m, k, n): (usize, usize, usize),
    w_lo_slices: usize,
    x_lo_slices: usize,
    ty: DbsType,
    r: u8,
    w_fill: Fill,
    x_fill: Fill,
    seed: u64,
) -> Case {
    let mut rng = panacea_tensor::seeded_rng(seed);
    let w = sbr_matrix(m, k, w_lo_slices, w_fill, &mut rng);
    // The HO slice is the code shifted right by `ho_shift`.
    let x_bits = 4 * (x_lo_slices as u32 + 1);
    let ho_shift = if x_lo_slices == 1 {
        u32::from(ty.lo_bits())
    } else {
        x_bits - 4
    };
    let ho_slices = 1i32 << (x_bits - ho_shift);
    let mut x = Matrix::<i32>::zeros(k, n);
    for kk in 0..k {
        for ng in 0..n.div_ceil(4) {
            let x_fill = x_fill.of_group(ng);
            let compress = x_fill.compresses(ng, kk, &mut rng) && i32::from(r) < ho_slices;
            // A partial last n-group has only its first columns.
            for nn in 0..4.min(n - ng * 4) {
                let ho = if compress {
                    i32::from(r)
                } else if nn == 0 && x_fill.pins_live() {
                    (i32::from(r) + 1) % ho_slices
                } else {
                    rng.gen_range(0..ho_slices)
                };
                x[(kk, ng * 4 + nn)] = (ho << ho_shift) + rng.gen_range(0..1i32 << ho_shift);
            }
        }
    }
    Case {
        sw: SlicedWeight::from_int(&w, w_lo_slices).expect("weights in range"),
        sx: SlicedActivation::from_uint(&x, x_lo_slices, ty).expect("codes in range"),
        r,
        x,
        x_lo: x_lo_slices,
        ty,
        pad_code: if i32::from(r) < ho_slices {
            i32::from(r) << ho_shift
        } else {
            0
        },
    }
}

/// `x` with columns of `code` appended up to a multiple of 4.
fn pad_to_vectors(x: &Matrix<i32>, code: i32) -> Matrix<i32> {
    let n = x.cols();
    Matrix::from_fn(x.rows(), n.next_multiple_of(4), |r, c| {
        if c < n {
            x[(r, c)]
        } else {
            code
        }
    })
}

/// Kernel ≡ oracle ≡ `Matrix::gemm` of the represented operands, and the
/// closed-form statistics ≡ the counted ones, field for field. The
/// oracle runs on the input the PE array sees — padded to whole vectors
/// with [`Case::pad_code`] — and its output is trimmed back to `N`.
fn assert_matches_oracle(c: &Case, what: &str) {
    let (m, n) = (c.sw.plane(0).rows(), c.x.cols());
    let padded = pad_to_vectors(&c.x, c.pad_code);
    let sx_padded = SlicedActivation::from_uint(&padded, c.x_lo, c.ty).expect("codes in range");
    let (want, counted) = oracle::aqs_gemm_with_stats(&c.sw, &sx_padded, c.r);
    let want = want.submatrix(0, 0, m, n);
    let dense =
        c.sw.reconstruct()
            .gemm(&c.sx.reconstruct())
            .expect("shapes");
    assert_eq!(want, dense, "oracle vs dense: {what}");
    let (got, wl) = aqs_gemm(&c.sw, &c.sx, c.r);
    assert_eq!(got, want, "outputs: {what}");
    // `PartialEq` on the struct compares `rho_w` / `rho_x` as exact f64.
    assert_eq!(aqs_tile_stats(&c.sw, &c.sx, c.r), counted, "stats: {what}");
    assert_eq!(wl, oracle::workload(&counted), "workload: {what}");
}

/// Both sides of the 256-`k` block edge × partial last n-tiles × every
/// plane count, the three DBS types for 8-bit activations, mixed and
/// extreme sparsity; `r` cycles through 0..16 along the sweep.
#[test]
fn kernel_matches_oracle_across_block_edges_tiles_and_planes() {
    let fills = [
        (Fill::Share(0.5), Fill::Share(0.6)),
        (Fill::All, Fill::All),
        (Fill::None, Fill::None),
        (Fill::All, Fill::None),
        (Fill::Share(0.9), Fill::All),
    ];
    let mut seed = 0u64;
    for k in [255, 256, 257, 600] {
        for n in [4, 8, 20, 36] {
            for w_lo in 0..3 {
                for x_lo in 0..3 {
                    let types: &[DbsType] = if x_lo == 1 {
                        &[DbsType::Type1, DbsType::Type2, DbsType::Type3]
                    } else {
                        &[DbsType::Type1]
                    };
                    for &ty in types {
                        seed += 1;
                        let r = (seed % 16) as u8;
                        let (w_fill, x_fill) = fills[seed as usize % fills.len()];
                        let c = case((8, k, n), w_lo, x_lo, ty, r, w_fill, x_fill, seed);
                        assert_matches_oracle(
                            &c,
                            &format!("K={k} N={n} w_lo={w_lo} x_lo={x_lo} {ty} r={r} {w_fill:?}/{x_fill:?}"),
                        );
                    }
                }
            }
        }
    }
}

/// Every `r`, at every sparsity extreme, on a shape with two `k` blocks
/// and a partial n-tile.
#[test]
fn kernel_matches_oracle_for_every_r_at_the_sparsity_extremes() {
    for r in 0u8..16 {
        for (i, fill) in [Fill::All, Fill::None, Fill::Share(0.7)]
            .into_iter()
            .enumerate()
        {
            for ty in [DbsType::Type1, DbsType::Type2, DbsType::Type3] {
                let c = case((4, 300, 20), 1, 1, ty, r, fill, fill, 1000 + i as u64);
                assert_matches_oracle(&c, &format!("r={r} {fill:?} {ty}"));
                let stats = aqs_tile_stats(&c.sw, &c.sx, r);
                match fill {
                    Fill::All => assert_eq!(stats.rho_w, 1.0),
                    Fill::None => assert_eq!((stats.rho_w, stats.rho_x), (0.0, 0.0)),
                    Fill::Share(_) | Fill::ByGroup | Fill::OnePerQuad => {}
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Random shapes, formats, `r` and sparsities.
    #[test]
    fn kernel_matches_oracle_on_random_cases(
        m_groups in 1usize..=9,
        k in 1usize..=520,
        n_groups in 1usize..=9,
        w_lo in 0usize..3,
        x_lo in 0usize..3,
        ty in 0usize..3,
        r in 0u8..16,
        w_share in 0u32..=10,
        x_share in 0u32..=10,
        seed in 0u64..1 << 32,
    ) {
        let ty = if x_lo == 1 {
            [DbsType::Type1, DbsType::Type2, DbsType::Type3][ty]
        } else {
            DbsType::Type1
        };
        let c = case(
            (4 * m_groups, k, 4 * n_groups),
            w_lo,
            x_lo,
            ty,
            r,
            Fill::Share(f64::from(w_share) / 10.0),
            Fill::Share(f64::from(x_share) / 10.0),
            seed,
        );
        assert_matches_oracle(&c, "random case");
    }
}

/// `QuantizedLinear::forward` — resident index, bias and `b'` folded into
/// the kernel's single write — returns what the same call returned when
/// it ran the oracle and added the folded bias afterwards, on the
/// fixtures of `pipeline.rs`'s unit tests.
#[test]
fn forward_is_unchanged_on_the_pipeline_fixtures() {
    for seed in 60..69u64 {
        for (zpm, w_bits) in [(true, 7u8), (false, 7), (true, 4)] {
            let mut rng = panacea_tensor::seeded_rng(seed);
            let w = DistributionKind::Gaussian {
                mean: 0.0,
                std: 0.05,
            }
            .sample_matrix(16, 32, &mut rng);
            let x = DistributionKind::TransformerAct {
                core_mean: 0.1,
                core_std: 0.4,
                pos_scale: 8.0,
                neg_scale: 5.0,
                outlier_frac: 0.02,
            }
            .sample_matrix(32, 16, &mut rng);
            let bias: Vec<f32> = (0..16)
                .map(|_| {
                    DistributionKind::Gaussian {
                        mean: 0.0,
                        std: 0.1,
                    }
                    .sample(&mut rng)
                })
                .collect();
            let mut cal = ActivationCalibrator::new(8)
                .with_zpm(zpm)
                .with_dbs(DbsConfig::default());
            cal.observe(&x);
            let cfg = cal.finalize();
            let layer = QuantizedLinear::prepare(&w, &bias, w_bits, cfg).expect("prepare");
            let codes = cfg.quantizer.quantize_matrix(&x);
            let (acc, wl) = layer.forward(&codes);

            // The seed's `prepare` + `forward`, step by step.
            let wq = SymmetricQuantizer::calibrate(w.as_slice(), w_bits);
            let w_int = wq.quantize_matrix(&w);
            let sw = SlicedWeight::from_int(&w_int, usize::from((w_bits - 4) / 3)).expect("slices");
            let sx = SlicedActivation::from_uint(&codes, 1, cfg.dbs_type).expect("codes");
            let (mut want, counted) = oracle::aqs_gemm_with_stats(&sw, &sx, cfg.frequent_ho_slice);
            let zp = i64::from(cfg.quantizer.params().zero_point);
            for (m, &b) in bias.iter().enumerate() {
                let b_int = (f64::from(b) / layer.accumulator_scale()).round() as i64;
                let row_sum: i64 = w_int.row(m).iter().map(|&v| i64::from(v)).sum();
                for v in want.row_mut(m) {
                    *v = (i64::from(*v) + b_int - zp * row_sum) as i32;
                }
            }
            assert_eq!(acc, want, "seed={seed} zpm={zpm} w{w_bits}");
            assert_eq!(
                wl,
                oracle::workload(&counted),
                "seed={seed} zpm={zpm} w{w_bits}"
            );
        }
    }
}

/// Sibia plan of the tile ≡ the seed's nest ≡ `Matrix::gemm` on outputs,
/// and the closed-form [`Workload`](panacea_core::Workload) ≡ the nest's
/// counted one. The activation is an SBR stack whose 1×4 vectors run
/// along `N`: a weight-shaped matrix, transposed, and cut to `N` columns.
/// The nest runs on it padded with code 0 (`r = 0`) to whole vectors.
fn assert_sibia_matches_oracle(
    (m, k, n): (usize, usize, usize),
    w_lo: usize,
    x_lo: usize,
    w_fill: Fill,
    x_fill: Fill,
    seed: u64,
) {
    let mut rng = panacea_tensor::seeded_rng(seed);
    let w = sbr_matrix(m, k, w_lo, w_fill, &mut rng);
    let x = sbr_matrix(n.next_multiple_of(4), k, x_lo, x_fill, &mut rng)
        .transposed()
        .submatrix(0, 0, k, n);
    let sw = SlicedWeight::from_int(&w, w_lo).expect("weights in range");
    let sx = SlicedWeight::from_int(&x, x_lo).expect("activations in range");
    let sx_padded = SlicedWeight::from_int(&pad_to_vectors(&x, 0), x_lo).expect("in range");
    let dense = w.gemm(&x).expect("shapes");
    for side in [SkipSide::Weight, SkipSide::Activation] {
        let what = format!(
            "{side:?} M={m} K={k} N={n} w_lo={w_lo} x_lo={x_lo} {w_fill:?}/{x_fill:?} seed={seed}"
        );
        let (want, counted) = oracle::sibia::sibia_gemm(&sw, &sx_padded, side);
        let want = want.submatrix(0, 0, m, n);
        assert_eq!(want, dense, "oracle vs dense: {what}");
        let (got, wl) = sibia_gemm(&sw, &sx, side);
        assert_eq!(got, want, "outputs: {what}");
        assert_eq!(wl, counted, "workload: {what}");
    }
}

/// Both skip sides × 1–3 weight planes × both sides of the 256-`k` block
/// edge × every n-tile width; activation planes and sparsities cycle.
#[test]
fn sibia_plan_matches_oracle_across_sides_planes_block_edges_and_tiles() {
    let fills = [
        (Fill::Share(0.5), Fill::Share(0.6)),
        (Fill::All, Fill::None),
        (Fill::None, Fill::All),
        (Fill::All, Fill::All),
        (Fill::None, Fill::None),
        (Fill::Share(0.9), Fill::Share(0.2)),
    ];
    let mut seed = 0u64;
    for w_lo in 0..3 {
        for k in [1, 255, 256, 257, 513] {
            for n in [4, 8, 12, 16, 20] {
                seed += 1;
                let (w_fill, x_fill) = fills[seed as usize % fills.len()];
                let x_lo = seed as usize % 3;
                assert_sibia_matches_oracle((8, k, n), w_lo, x_lo, w_fill, x_fill, seed);
            }
        }
    }
}

/// The resident layout's edges crossed with the orientation rule's: `M`
/// below, at and past a 16-row panel (36 = two panels and one m-group) ×
/// `K` on both sides of one and two 256-`k` blocks × `N` that is one to
/// three n-groups (every pair lanes along M), a full tile (the HO weight
/// plane's pairs lanes along N, the rest lanes along M), and a full tile
/// followed by a narrow right edge (both in one call) × 1–3 weight
/// planes — under the AQS plan and both Sibia plans. Activation planes,
/// DBS type, `r` and sparsities cycle along the sweep.
#[test]
fn all_plans_match_oracle_across_panel_edges_and_lane_orientations() {
    let fills = [
        (Fill::Share(0.5), Fill::Share(0.6)),
        (Fill::Share(0.9), Fill::Share(0.8)),
        (Fill::All, Fill::None),
        (Fill::None, Fill::All),
        (Fill::None, Fill::None),
        (Fill::All, Fill::All),
        (Fill::Share(0.2), Fill::Share(0.95)),
    ];
    let ms = [4, 8, 12, 16, 20, 36];
    all_plans_match_oracle_across(&ms, &[4, 8, 12, 16, 20, 24], &fills, 5000);
}

/// The panel walks of a narrow tile: `M` of four panels (one walk of
/// four at N = 1, two of two at N = 2), of five with a whole or a
/// partial last panel (one panel after the last walk of four), of six
/// (two after it), of seven with a partial last (three after it) and of
/// eight with a partial last × `N` of one to three columns (walks of
/// four, two and one panel) and of 5, 9 and 14 (whole n-groups walking
/// one panel beside a last one walking four or two, so one stretch's
/// walks differ in width and in panels walked, and a short last stretch
/// holds fewer of them) × `K` on both sides of one and two 256-`k`
/// blocks × 1–3 weight planes, under the AQS plan and both Sibia plans.
/// Activation planes, DBS type, `r` and sparsities cycle along the
/// sweep; per-group fills give the panels of one walk different HO
/// liveness, and sparse and dense fills send a stretch's runs both to
/// the shared unpack and to the packed reader.
#[test]
fn all_plans_match_oracle_across_narrow_panel_walks() {
    let fills = [
        (Fill::ByGroup, Fill::Share(0.5)),
        (Fill::Share(0.5), Fill::Share(0.6)),
        (Fill::Share(0.9), Fill::None),
        (Fill::All, Fill::None),
        (Fill::None, Fill::All),
        (Fill::ByGroup, Fill::ByGroup),
        (Fill::Share(0.2), Fill::Share(0.95)),
    ];
    let ms = [64, 68, 80, 96, 100, 116];
    all_plans_match_oracle_across(&ms, &[1, 2, 3], &fills, 17000);
    all_plans_match_oracle_across(&ms, &[5, 9, 14], &fills, 18000);
}

/// Every `M` in `ms` × `K` on both sides of one and two 256-`k` blocks ×
/// every `N` in `ns` × 1–3 weight planes, under the AQS plan and both
/// Sibia plans; fills, activation planes, DBS type and `r` cycle along
/// the sweep from `seed`.
fn all_plans_match_oracle_across(
    ms: &[usize],
    ns: &[usize],
    fills: &[(Fill, Fill)],
    mut seed: u64,
) {
    let types = [DbsType::Type1, DbsType::Type2, DbsType::Type3];
    for &m in ms {
        for k in [1, 255, 256, 257, 513] {
            for &n in ns {
                for w_lo in 0..3 {
                    seed += 1;
                    let (w_fill, x_fill) = fills[seed as usize % fills.len()];
                    let x_lo = seed as usize / 7 % 3;
                    let ty = if x_lo == 1 {
                        types[seed as usize % 3]
                    } else {
                        DbsType::Type1
                    };
                    let r = (seed % 16) as u8;
                    let c = case((m, k, n), w_lo, x_lo, ty, r, w_fill, x_fill, seed);
                    assert_matches_oracle(
                        &c,
                        &format!("M={m} K={k} N={n} w_lo={w_lo} x_lo={x_lo} {ty} r={r} {w_fill:?}/{x_fill:?}"),
                    );
                    assert_sibia_matches_oracle((m, k, n), w_lo, x_lo, w_fill, x_fill, seed);
                }
            }
        }
    }
}

/// The seams of a full tile's split: `N` of one full tile, one with a
/// partial n-group after it, one with a whole one, two, and two with a
/// partial one × `M` at the panel edges × `K` at the block edges (the
/// straight loop walks partial blocks too) × 1–3 weight planes (with
/// one there is no LO weight plane, so every pair of a full tile runs
/// lanes along N) × 2–3 activation planes, under the AQS plan and both
/// Sibia plans. Sparsity is set per group, so the n-groups of one tile
/// (and the m-groups of one panel) differ in HO liveness.
#[test]
fn all_plans_match_oracle_across_the_full_tile_split() {
    let fills = [
        (Fill::ByGroup, Fill::ByGroup),
        (Fill::Share(0.5), Fill::ByGroup),
        (Fill::ByGroup, Fill::None),
        (Fill::None, Fill::ByGroup),
        (Fill::All, Fill::ByGroup),
    ];
    let types = [DbsType::Type1, DbsType::Type2, DbsType::Type3];
    let mut seed = 13000u64;
    for n in [16, 17, 20, 32, 33] {
        for m in [4, 12, 16, 20, 36] {
            for k in [1, 255, 256, 257] {
                for w_lo in 0..3 {
                    for x_lo in 1..3 {
                        seed += 1;
                        let (w_fill, x_fill) = fills[seed as usize % fills.len()];
                        let ty = if x_lo == 1 {
                            types[seed as usize % 3]
                        } else {
                            DbsType::Type1
                        };
                        let r = (seed % 16) as u8;
                        let c = case((m, k, n), w_lo, x_lo, ty, r, w_fill, x_fill, seed);
                        assert_matches_oracle(
                            &c,
                            &format!("M={m} K={k} N={n} w_lo={w_lo} x_lo={x_lo} {ty} r={r} {w_fill:?}/{x_fill:?}"),
                        );
                        assert_sibia_matches_oracle((m, k, n), w_lo, x_lo, w_fill, x_fill, seed);
                    }
                }
            }
        }
    }
}

/// The k-quads of the dot-product LO×LO pair: `K mod 4 ∈ {1, 2, 3}` in a
/// lone partial quad, after one whole quad and on both sides of the
/// 256-`k` block edge (a last block of 1–3 `k`, a first of 254–255) ×
/// every walk width — one column (four panels a walk), two, three, a
/// whole n-group — narrow tiles of two and four n-groups, which read the
/// tile's shared quads at offsets 1–3, a full 16-column tile and one with
/// a 5-column tail tile, whose 16-byte row loads cross row ends × `M`
/// past a panel edge (a four-panel walk and a partial one after it where
/// a walk carries more than one panel) × 1–2 LO planes on each side,
/// at the sparsity extremes, under the AQS plan and both Sibia plans.
/// On builds without the dot product it holds the `i16` tile to the same
/// cases.
#[test]
fn all_plans_match_oracle_across_quad_tails() {
    let fills = [
        (Fill::All, Fill::All),
        (Fill::None, Fill::None),
        (Fill::All, Fill::None),
        (Fill::None, Fill::All),
    ];
    let types = [DbsType::Type1, DbsType::Type2, DbsType::Type3];
    let mut seed = 21000u64;
    for k in [1, 2, 3, 5, 254, 255, 257, 258, 259] {
        for n in [1, 2, 3, 4, 7, 13, 16, 21] {
            // A narrow walk carries up to four panels: a walk of four
            // and a partial one after it; a wider one walks one panel.
            let m = if n < 3 { 68 } else { 20 };
            for (w_lo, x_lo) in [(1, 1), (1, 2), (2, 1), (2, 2)] {
                seed += 1;
                // Shifted every four cases, so each plane count meets
                // every fill.
                let (w_fill, x_fill) = fills[(seed + seed / 4) as usize % fills.len()];
                let ty = if x_lo == 1 {
                    types[seed as usize / 4 % 3]
                } else {
                    DbsType::Type1
                };
                let r = (seed % 16) as u8;
                let c = case((m, k, n), w_lo, x_lo, ty, r, w_fill, x_fill, seed);
                assert_matches_oracle(
                    &c,
                    &format!("M={m} K={k} N={n} w_lo={w_lo} x_lo={x_lo} {ty} r={r} {w_fill:?}/{x_fill:?}"),
                );
                assert_sibia_matches_oracle((m, k, n), w_lo, x_lo, w_fill, x_fill, seed);
            }
        }
    }
}

/// The nibble chunks of the packed weight (eight `k` of a panel, the low
/// nibbles holding the first four, the high ones the next four): `K`
/// inside one chunk, at and past one, past two and on both sides of the
/// 256-`k` block edge, where a block's last chunk is partial × every walk
/// width (one column to a whole n-group), a full tile and a full tile
/// with a narrow edge × 1–3 weight planes (w4, w7, w10; a w4 weight's one
/// plane is its HO plane) × `M` of one m-group, of a panel and an
/// m-group, and of four panels and an m-group, at the sparsity extremes,
/// under the AQS plan and both Sibia plans. Activation planes, DBS type,
/// `r` and the fills cycle along the sweep.
#[test]
fn all_plans_match_oracle_across_nibble_chunks() {
    let fills = [
        (Fill::All, Fill::All),
        (Fill::None, Fill::None),
        (Fill::All, Fill::None),
        (Fill::None, Fill::All),
    ];
    let types = [DbsType::Type1, DbsType::Type2, DbsType::Type3];
    let mut seed = 25000u64;
    for k in [1, 3, 4, 5, 7, 8, 9, 15, 17, 255, 257, 263, 513] {
        for n in [1, 2, 3, 4, 16, 17] {
            for w_lo in 0..3 {
                for m in [4, 20, 68] {
                    seed += 1;
                    // Shifted every four cases, so each shape meets every
                    // fill.
                    let (w_fill, x_fill) = fills[(seed + seed / 4) as usize % fills.len()];
                    let x_lo = seed as usize / 3 % 3;
                    let ty = if x_lo == 1 {
                        types[seed as usize / 9 % 3]
                    } else {
                        DbsType::Type1
                    };
                    let r = (seed % 16) as u8;
                    let c = case((m, k, n), w_lo, x_lo, ty, r, w_fill, x_fill, seed);
                    assert_matches_oracle(
                        &c,
                        &format!("M={m} K={k} N={n} w_lo={w_lo} x_lo={x_lo} {ty} r={r} {w_fill:?}/{x_fill:?}"),
                    );
                    assert_sibia_matches_oracle((m, k, n), w_lo, x_lo, w_fill, x_fill, seed);
                }
            }
        }
    }
}

/// A full tile's HO weight plane runs its LO-activation pairs over each
/// m-group's live k-quads only (on the dot product where the build has
/// it): weights with exactly one live HO vector per (m-group, k-quad), at
/// each of the quad's four positions in turn, so a walk that dropped or
/// misplaced a quad by its live `k` loses that vector's products × `K`
/// inside a quad, past one, past a chunk and on both sides of the
/// 256-`k` block edge (255, 257, 259, 263, 513, 769) × `N` of a full
/// tile, one with a partial n-group (one and three columns) after it,
/// two, and two with one column after them × w4 / w7 / w10 (a w4
/// weight's one plane is its HO plane), under the AQS plan and both
/// Sibia plans, each (`K`, `N`) at every `M` — a panel, a panel and an
/// m-group, four panels and an m-group — with the plane counts in turn.
/// Activation planes, DBS type, `r` and the activation fill cycle along
/// the sweep.
#[test]
fn full_tile_quad_skip_matches_oracle() {
    let x_fills = [Fill::None, Fill::Share(0.5), Fill::ByGroup, Fill::All];
    let types = [DbsType::Type1, DbsType::Type2, DbsType::Type3];
    let mut seed = 29000u64;
    let shapes = [255, 257, 259, 263, 513, 769]
        .into_iter()
        .flat_map(|k| [16, 17, 19, 32, 33].map(|n| (k, n)));
    for (cell, (k, n)) in shapes.enumerate() {
        for w_lo in 0..3 {
            seed += 1;
            // Every `M` once per (`K`, `N`), each plane count in turn.
            let m = [16, 20, 68][(w_lo + cell) % 3];
            let x_fill = x_fills[(seed + seed / 4) as usize % x_fills.len()];
            let x_lo = 1 + seed as usize / 3 % 2;
            let ty = if x_lo == 1 {
                types[seed as usize / 6 % 3]
            } else {
                DbsType::Type1
            };
            let r = (seed % 16) as u8;
            let w_fill = Fill::OnePerQuad;
            let c = case((m, k, n), w_lo, x_lo, ty, r, w_fill, x_fill, seed);
            assert_matches_oracle(
                &c,
                &format!("M={m} K={k} N={n} w_lo={w_lo} x_lo={x_lo} {ty} r={r} {x_fill:?}"),
            );
            assert_sibia_matches_oracle((m, k, n), w_lo, x_lo, w_fill, x_fill, seed);
        }
    }
}

/// An `n_lo`-plane SBR weight whose LO slices are all 7 (`seven`, HO
/// slice `ho ≥ 0`) or all −8 (`ho ≤ 0`): the slicing puts 7 only above a
/// non-negative rest and −8 only above a non-positive one.
fn extreme_weight(n_lo: usize, seven: bool, ho: i32) -> i32 {
    (0..n_lo).fold(ho, |rest, _| match seven {
        true => 8 * rest + 7,
        false => 8 * (rest - 1),
    })
}

/// LO_w×HO_x, which skips on the activation side, at its signed
/// extremes: every LO weight slice −8 or 7, every re-centred HO
/// activation slice ±15 or 0 (`r` = 0 with `x_HO` 15, `r` = 15 with
/// `x_HO` 0), so a walk that drops or adds a quad, or a byte past `K` or
/// `N` that keeps its `−r`, moves the output by a multiple of 15 × 8 ×
/// `c_HO`. `K` ends inside a k-quad (5, 7, 257, 769) or one short of a
/// block (255), so a live quad straddles `K`, × `N` of one to three
/// columns, a whole and a partial n-group, a full tile and a full tile
/// with one column or a whole tile after it × `M` that no 16-row panel
/// divides × w7 / w10 × 8- and 12-bit codes, with the n-groups of one
/// tile all dead, all live and half live in turn, under the AQS plan.
#[test]
fn lo_w_ho_x_matches_oracle_at_the_signed_extremes() {
    let mut seed = 33000u64;
    for k in [5, 7, 255, 257, 769] {
        for n in [1, 2, 3, 5, 16, 17, 33] {
            for (w_lo, x_lo) in [(1, 1), (2, 2)] {
                seed += 1;
                let mut rng = panacea_tensor::seeded_rng(seed);
                let m = [20, 36, 68][seed as usize % 3];
                let w = Matrix::from_fn(m, k, |_, _| {
                    let seven = rng.gen::<bool>();
                    // HO 0 (a compressed vector where all four are) or
                    // near the extreme of its side (−7 would leave w10's
                    // range under LO slices of −8).
                    let ho = match (rng.gen::<bool>(), seven) {
                        (false, _) => 0,
                        (true, true) => 7,
                        (true, false) => -6,
                    };
                    extreme_weight(w_lo, seven, ho)
                });
                let r: u8 = if seed.is_multiple_of(2) { 0 } else { 15 };
                // The HO slice that re-centres to ±15, the code's lower
                // slices in `[0, 2^shift)`.
                let (far, shift) = (15 - i32::from(r), 4 * x_lo as u32);
                let dead = i32::from(r) << shift;
                let x = Matrix::from_fn(k, n, |_, c| {
                    let live = match (c / 4 + seed as usize) % 3 {
                        0 => false,
                        1 => true,
                        _ => rng.gen::<bool>(),
                    };
                    let ho = if live { far << shift } else { dead };
                    ho + rng.gen_range(0..1i32 << shift)
                });
                let sw = SlicedWeight::from_int(&w, w_lo).expect("weights in range");
                for i in 0..w_lo {
                    assert!(sw.plane(i).as_slice().iter().all(|&s| s == 7 || s == -8));
                }
                let c = Case {
                    sw,
                    sx: SlicedActivation::from_uint(&x, x_lo, DbsType::Type1).expect("codes"),
                    r,
                    x,
                    x_lo,
                    ty: DbsType::Type1,
                    pad_code: dead,
                };
                assert_matches_oracle(&c, &format!("M={m} K={k} N={n} w_lo={w_lo} r={r}"));
            }
        }
    }
}

/// Widths that are not a multiple of 4, which the kernel takes since it
/// owns its padding — a lone partial n-group, one or more whole ones
/// before it, and a full 16-column tile followed by a partial edge — ×
/// `M` at the panel edges × `K` at the block edge × 1–3 weight planes,
/// under the AQS plan and both Sibia plans. Outputs equal the oracle on
/// the padded input, trimmed, and `Matrix::gemm`; statistics equal the
/// oracle's counts over the padded input.
#[test]
fn odd_n_plans_match_the_oracle_on_padded_input() {
    let fills = [
        (Fill::Share(0.5), Fill::Share(0.6)),
        (Fill::All, Fill::All),
        (Fill::None, Fill::None),
        (Fill::Share(0.9), Fill::All),
        (Fill::All, Fill::None),
        (Fill::Share(0.2), Fill::Share(0.95)),
    ];
    let types = [DbsType::Type1, DbsType::Type2, DbsType::Type3];
    let mut seed = 9000u64;
    for n in [1, 2, 3, 5, 6, 7, 9, 13, 17, 18, 19] {
        for m in [4, 12, 16, 20, 36] {
            for k in [1, 255, 256, 257] {
                for w_lo in 0..3 {
                    seed += 1;
                    let (w_fill, x_fill) = fills[seed as usize % fills.len()];
                    let x_lo = seed as usize / 5 % 3;
                    let ty = if x_lo == 1 {
                        types[seed as usize % 3]
                    } else {
                        DbsType::Type1
                    };
                    let r = (seed % 16) as u8;
                    let c = case((m, k, n), w_lo, x_lo, ty, r, w_fill, x_fill, seed);
                    assert_matches_oracle(
                        &c,
                        &format!("M={m} K={k} N={n} w_lo={w_lo} x_lo={x_lo} {ty} r={r} {w_fill:?}/{x_fill:?}"),
                    );
                    assert_sibia_matches_oracle((m, k, n), w_lo, x_lo, w_fill, x_fill, seed);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// Random shapes, formats and sparsities under both Sibia plans.
    #[test]
    fn sibia_plan_matches_oracle_on_random_cases(
        m_groups in 1usize..=9,
        k in 1usize..=520,
        n_groups in 1usize..=9,
        w_lo in 0usize..3,
        x_lo in 0usize..3,
        w_share in 0u32..=10,
        x_share in 0u32..=10,
        seed in 0u64..1 << 32,
    ) {
        assert_sibia_matches_oracle(
            (4 * m_groups, k, 4 * n_groups),
            w_lo,
            x_lo,
            Fill::Share(f64::from(w_share) / 10.0),
            Fill::Share(f64::from(x_share) / 10.0),
            seed,
        );
    }
}
