//! Integration tests pinning the paper's qualitative claims — the
//! "shape" of every major result, as reproduced by this library.

use panacea::bitslice::{SlicedActivation, SlicedWeight};
use panacea::core::aqs::aqs_gemm;
use panacea::core::sibia::{choose_skip_side, sibia_gemm};
use panacea::core::workload::table1;
use panacea::models::proxy::aggregate_sqnr_db;
use panacea::models::zoo::Benchmark;
use panacea::quant::zpm::manipulate_zero_point;
use panacea::sim::arch::PanaceaConfig;
use panacea::sim::baselines::{SibiaSim, SimdSim};
use panacea::sim::panacea::PanaceaSim;
use panacea::sim::workload::LayerWork;
use panacea::sim::{simulate_model, Accelerator};
use panacea::tensor::{seeded_rng, Matrix};
use panacea_bench::profile::{profile_model, ProfileOptions};
use panacea_bench::{to_layer_work, EngineKind};
use rand::Rng;

fn quick_opts() -> ProfileOptions {
    ProfileOptions {
        sample_m: 64,
        sample_k: 96,
        sample_n: 64,
        ..ProfileOptions::default()
    }
}

/// §I / Fig. 16–17: Panacea is more energy-efficient than Sibia and SIMD
/// on every benchmark model, with ratios in the paper's 1.1×–6× band.
#[test]
fn panacea_wins_efficiency_on_every_benchmark() {
    let pan = PanaceaSim::new(PanaceaConfig::default());
    let budget = PanaceaConfig::default().budget;
    let sibia = SibiaSim::new(budget);
    let simd = SimdSim::new(budget);
    for b in Benchmark::all() {
        let profiles = profile_model(&b.spec(), &quick_opts());
        let work =
            |engine| -> Vec<_> { profiles.iter().map(|p| to_layer_work(p, engine)).collect() };
        let pan_layers = work(EngineKind::Panacea);
        let sib_layers = work(EngineKind::Sibia);
        let dense = work(EngineKind::Dense);
        let p = simulate_model(&pan, &pan_layers, 400.0);
        let s = simulate_model(&sibia, &sib_layers, 400.0);
        let v = simulate_model(&simd, &dense, 400.0);
        let vs_sibia = p.tops_per_w / s.tops_per_w;
        let vs_simd = p.tops_per_w / v.tops_per_w;
        assert!(vs_sibia > 1.0, "{:?}: vs Sibia {vs_sibia}", b);
        assert!(vs_simd > 1.0, "{:?}: vs SIMD {vs_simd}", b);
        assert!(
            vs_sibia < 6.0 && vs_simd < 8.0,
            "{:?}: ratios out of band",
            b
        );
    }
}

/// §III-C / Fig. 8: ZPM moves the zero-point by at most half a skip range
/// and centres it; coverage can only improve (sparsity-aware calibration).
#[test]
fn zpm_centres_all_zero_points() {
    for zp in 1..=255 {
        let z = manipulate_zero_point(zp, 8, 4);
        assert!(z.skip_lo <= z.zero_point && z.zero_point <= z.skip_hi + 1);
        assert!((z.zero_point - zp).abs() <= 8);
    }
}

/// Table I limits: Panacea's workload at zero sparsity equals the dense
/// bit-slice cost, and at full sparsity exactly the LO×LO quarter remains.
#[test]
fn table1_limits_hold() {
    let k = 128;
    assert_eq!(table1::panacea_mul(k, 0.0, 0.0), table1::dense_mul(k));
    assert_eq!(table1::panacea_mul(k, 1.0, 1.0), table1::dense_mul(k) / 4.0);
    assert_eq!(table1::sibia_mul(k, 1.0, 1.0), table1::dense_mul(k) / 2.0);
}

/// Fig. 5(b) / Fig. 1: asymmetric activation quantization preserves more
/// model quality than the symmetric scheme on every transformer benchmark.
#[test]
fn asymmetric_quality_wins_aggregate() {
    for b in [
        Benchmark::DeitBase,
        Benchmark::BertBase,
        Benchmark::Gpt2,
        Benchmark::Opt2_7b,
    ] {
        let profiles = profile_model(&b.spec(), &quick_opts());
        let asym = aggregate_sqnr_db(
            &profiles
                .iter()
                .map(|p| (p.sqnr_asym_db, p.spec.total_macs()))
                .collect::<Vec<_>>(),
        );
        let sym = aggregate_sqnr_db(
            &profiles
                .iter()
                .map(|p| (p.sqnr_sym_db, p.spec.total_macs()))
                .collect::<Vec<_>>(),
        );
        assert!(asym > sym, "{:?}: asym {asym} dB ≤ sym {sym} dB", b);
    }
}

/// Fig. 15 ablation direction: enabling ZPM+DBS must not reduce measured
/// activation sparsity on any benchmark layer.
#[test]
fn optimizations_never_reduce_sparsity() {
    for b in [Benchmark::DeitBase, Benchmark::Gpt2, Benchmark::Opt2_7b] {
        let base = profile_model(
            &b.spec(),
            &ProfileOptions {
                zpm: false,
                dbs: None,
                ..quick_opts()
            },
        );
        let full = profile_model(&b.spec(), &quick_opts());
        for (bp, fp) in base.iter().zip(&full) {
            assert!(
                fp.rho_x + 1e-9 >= bp.rho_x,
                "{}: optimized {} < baseline {}",
                fp.spec.name,
                fp.rho_x,
                bp.rho_x
            );
        }
    }
}

/// Fig. 19 shape: 4-bit weights (single plane) make Panacea strictly
/// cheaper than 7-bit weights in both cycles and energy.
#[test]
fn four_bit_weights_cut_cost() {
    let pan = PanaceaSim::new(PanaceaConfig::default());
    let mk = |planes: usize| LayerWork {
        name: "fc".into(),
        m: 2560,
        k: 2560,
        n: 256,
        count: 1,
        w_planes: planes,
        x_planes: 2,
        rho_w: 0.5,
        rho_x: 0.95,
    };
    let w7 = pan.simulate(&mk(2));
    let w4 = pan.simulate(&mk(1));
    assert!(w4.cycles < w7.cycles);
    assert!(w4.energy.total_pj() < w7.energy.total_pj());
}

/// Table I at kernel parity — both engines are plans of one tile, so the
/// counts differ by the algorithm alone: on the same vector-sparse
/// operands AQS-GEMM executes `(1−ρ_w)(1−ρ_x)` of the HO×HO products where
/// Sibia, on its better side, executes `1 − max(ρ_w, ρ_x)`. Equal when one
/// side is dense, strictly fewer when both are sparse.
#[test]
fn aqs_never_multiplies_more_than_sibia_on_the_same_operands() {
    // 4×1 vectors along the rows, compressed with probability `rho`.
    // Values with one HO pattern in every format involved: 0..=7 has a
    // zero HO slice as a 7-bit SBR value and as an 8-bit code (r = 0),
    // 16..=63 a non-zero one in both.
    let operand = |rows: usize, cols: usize, rho: f64, seed: u64| {
        let mut rng = seeded_rng(seed);
        let mut out = Matrix::<i32>::zeros(rows, cols);
        for g in 0..rows / 4 {
            for c in 0..cols {
                let compressed = rng.gen::<f64>() < rho;
                for i in 0..4 {
                    out[(g * 4 + i, c)] = match compressed {
                        true => rng.gen_range(0..=7),
                        false => rng.gen_range(16..=63),
                    };
                }
            }
        }
        out
    };
    let cases = [(0.0, 0.0), (0.6, 0.0), (0.0, 0.6), (0.5, 0.5), (0.9, 0.3)];
    for (i, (rho_w, rho_x)) in cases.into_iter().enumerate() {
        let w = operand(16, 96, rho_w, 40 + i as u64);
        let x = operand(16, 96, rho_x, 50 + i as u64).transposed();
        let sw = SlicedWeight::from_int(&w, 1).expect("7-bit weights");
        let x_codes = SlicedActivation::from_uint(&x, 1, panacea::quant::DbsType::Type1);
        let x_sbr = SlicedWeight::from_int(&x, 1).expect("7-bit activations");
        let (out_aqs, aqs) = aqs_gemm(&sw, &x_codes.expect("8-bit codes"), 0);
        let (out_sibia, sibia) = sibia_gemm(&sw, &x_sbr, choose_skip_side(&sw, &x_sbr));
        assert_eq!(out_aqs, out_sibia);
        if rho_w > 0.0 && rho_x > 0.0 {
            assert!(aqs.mul < sibia.mul, "ρ_w={rho_w} ρ_x={rho_x}");
        } else {
            assert_eq!(aqs.mul, sibia.mul, "ρ_w={rho_w} ρ_x={rho_x}");
        }
    }
}
