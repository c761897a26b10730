//! One function per table or figure of the paper, in print order. Each
//! reads the shared [`Profiles`] and returns the tables it prints and the
//! claim it checks. A check's `paper` value is what the paper reports; a
//! gap between it and `measured` is reported, not gated.

use std::collections::HashSet;

use panacea_bitslice::{sparsity, SlicedActivation, SlicedWeight};
use panacea_core::aqs::aqs_gemm;
use panacea_core::sibia::{sibia_gemm, SkipSide};
use panacea_core::workload::table1;
use panacea_models::proxy::accuracy_loss_pp;
use panacea_models::Benchmark::*;
use panacea_models::LayerKind;
use panacea_quant::dbs::{dbs_slices, DbsConfig, DbsType};
use panacea_quant::optq::{layer_output_error, optq_quantize, rtn_quantize, OptqConfig};
use panacea_quant::zpm::{frequent_slice_without_zpm, manipulate_zero_point};
use panacea_quant::{ActivationCalibrator, AsymmetricQuantizer, Quantizer, SymmetricQuantizer};
use panacea_sim::arch::PanaceaConfig;
use panacea_sim::panacea::PanaceaSim;
use panacea_sim::report::ModelPerf;
use panacea_sim::workload::LayerWork;
use panacea_sim::{simulate_model, Accelerator};
use panacea_tensor::dist::DistributionKind;
use panacea_tensor::stats::{self, Histogram};
use panacea_tensor::Matrix;

use crate::profile::LayerProfile;
use crate::{f3, pct, ratio, table, Check, ComparisonSet, EngineKind, Figure, Profiles};

/// Every figure, in print order.
pub const FIGURES: [fn(&Profiles) -> Figure; 15] = [
    table1_workloads,
    fig01_accuracy,
    fig02_quant_methods,
    fig05_motivation,
    fig08_zpm,
    fig10_dbs,
    fig13_design_space,
    fig14_sparsity,
    fig15_breakdown,
    fig16_models,
    fig17_llms,
    fig18_decoupling,
    fig19_lowbit,
    fig20_asic,
    ema_reduction,
];

/// `"n/m"`: how many of `oks` hold.
fn count(oks: &[bool]) -> String {
    format!("{}/{}", oks.iter().filter(|&&ok| ok).count(), oks.len())
}

/// Joins formatted values with `" / "`.
fn joined(values: impl IntoIterator<Item = String>) -> String {
    values.into_iter().collect::<Vec<_>>().join(" / ")
}

/// Table I — bit-slice GEMM workloads vs HO vector sparsity: counts the
/// functional kernels measure on a 4×K×4 micro-tile with exact sparsity
/// fractions, against the paper's closed forms.
pub fn table1_workloads(_: &Profiles) -> Figure {
    const K: usize = 64;
    const R: u8 = 9;
    let (k, on_r) = (K as u64, (i32::from(R) << 4) | 3);
    let (mut rows, mut exact, mut closed) = (vec![], vec![], vec![]);
    for (rho_w, rho_x) in [
        (0.0, 0.0),
        (0.0, 0.5),
        (0.5, 0.0),
        (0.5, 0.5),
        (0.9, 0.9),
        (1.0, 1.0),
    ] {
        let kw = (rho_w * K as f64).round() as usize;
        let kx = (rho_x * K as f64).round() as usize;
        let w = Matrix::from_fn(4, K, |_, c| if c < kw { 5 } else { -45 });
        let x = Matrix::from_fn(K, 4, |r, _| if r < kx { on_r } else { 7 });
        let sw = SlicedWeight::from_int(&w, 1).expect("7-bit weights");
        let sx = SlicedActivation::from_uint(&x, 1, DbsType::Type1).expect("8-bit acts");
        let (out, wl) = aqs_gemm(&sw, &sx, R);
        exact.push(out == w.gemm(&x).expect("shapes"));
        // Sibia on the symmetric equivalent (same sparsity pattern).
        let x_sym = Matrix::from_fn(K, 4, |r, _| if r < kx { 3 } else { 60 });
        let sx_sym = SlicedWeight::from_int(&x_sym, 1).expect("7-bit acts");
        let (_, wl_sibia) = sibia_gemm(&sw, &sx_sym, SkipSide::Activation);

        // The closed forms are exact wherever ρ·K is whole (every row but
        // 0.9): EMA always, multiplications whenever one side is dense
        // (the patterns overlap, the closed form assumes independence).
        let pan_mul = table1::panacea_mul(k, rho_x, rho_w);
        let pan_ema = table1::panacea_ema(k, rho_x, rho_w);
        if (rho_w * K as f64).fract() == 0.0 && (rho_x * K as f64).fract() == 0.0 {
            let one_side_dense = rho_w == 0.0 || rho_x == 0.0;
            closed.push(
                wl.ema_slices as f64 == pan_ema
                    && wl_sibia.mul as f64 == table1::sibia_mul(k, rho_x, 0.0)
                    && (!one_side_dense || wl.mul as f64 == pan_mul),
            );
        }
        rows.push(vec![
            format!("{rho_w:.1}"),
            format!("{rho_x:.1}"),
            wl.mul.to_string(),
            f3(pan_mul),
            wl.comp_mul.to_string(),
            wl.comp_add.to_string(),
            wl.ema_slices.to_string(),
            f3(pan_ema),
            wl_sibia.mul.to_string(),
            f3(table1::sibia_mul(k, rho_x, rho_w.min(rho_x))),
        ]);
    }
    Figure {
        id: "table1_workloads",
        tables: vec![table(
            "Table I — measured workloads vs closed forms (4×K×4 tile, K = 64)",
            "rho_w|rho_x|Pan mul|16K(2-rx)(2-rw)|comp mul|comp add|\
             Pan EMA|4K(4-rw-rx)|Sibia mul|32K(2-max)",
            rows,
        )],
        checks: vec![Check {
            claim: "AQS-GEMM output = W·X on every row; where ρ·K is whole, Panacea EMA and \
                    Sibia mul = closed form, and Panacea mul too where one side is dense",
            paper: "closed forms",
            measured: format!(
                "W·X on {} rows, closed forms on {}",
                count(&exact),
                count(&closed)
            ),
            holds: !exact.contains(&false) && !closed.contains(&false),
        }],
    }
}

/// Fig. 1 — the paper's opening claim: symmetric activation quantization
/// loses accuracy on large-scale DNNs, which is why recent works quantize
/// activations asymmetrically. Reproduced across the full suite.
pub fn fig01_accuracy(p: &Profiles) -> Figure {
    let (mut rows, mut gains) = (vec![], vec![]);
    for m in &p.models {
        let s = m.sqnr();
        let show = |q: f64| match m.spec.quality_is_ppl {
            true => format!("ppl {q:.1}"),
            false => format!("{q:.1}%"),
        };
        rows.push(vec![
            m.spec.name.clone(),
            show(m.spec.fp16_quality),
            show(m.quality(s.sym)),
            show(m.quality(s.asym)),
            format!("{:+.1} dB", s.asym - s.sym),
        ]);
        gains.push(s.asym - s.sym);
    }
    let lo = gains.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = gains.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Figure {
        id: "fig01_accuracy",
        tables: vec![table(
            "Fig. 1 — symmetric vs asymmetric activation quantization (8-bit W/A)",
            "model|FP16|symmetric acts|asymmetric acts|SQNR gain",
            rows,
        )],
        checks: vec![Check {
            claim: "asymmetric SQNR > symmetric on all 9 models",
            paper: "—",
            measured: format!("{lo:+.1} … {hi:+.1} dB"),
            holds: lo > 0.0,
        }],
    }
}

/// Fig. 2 — symmetric vs asymmetric uniform quantization of a one-sided
/// tensor: range utilization and reconstruction error.
pub fn fig02_quant_methods(_: &Profiles) -> Figure {
    let mut rng = panacea_tensor::seeded_rng(2);
    // A typical asymmetric activation tensor: one-sided with a small
    // negative lobe (post-GELU-like).
    let x = DistributionKind::AsymmetricGaussian {
        mean: 0.6,
        std: 0.35,
        skew: 0.08,
    }
    .sample_matrix(256, 256, &mut rng);
    let sym = SymmetricQuantizer::calibrate(x.as_slice(), 8);
    let asym = AsymmetricQuantizer::calibrate(x.as_slice(), 8);
    let (mut rows, mut used, mut mse) = (vec![], vec![], vec![]);
    let schemes: [(&str, &dyn Quantizer); 2] =
        [("symmetric (Eq. 1)", &sym), ("asymmetric (Eq. 2)", &asym)];
    for (scheme, q) in schemes {
        let codes: Vec<i32> = x.iter().map(|&v| q.quantize(v)).collect();
        let deq: Vec<f32> = codes.iter().map(|&c| q.dequantize(c)).collect();
        let n = codes.iter().collect::<HashSet<_>>().len();
        let e = stats::mse(x.as_slice(), &deq);
        rows.push(vec![
            scheme.to_string(),
            q.params().zero_point.to_string(),
            f3(f64::from(q.params().scale)),
            format!("{n}/256"),
            format!("{e:.2e}"),
        ]);
        used.push(n);
        mse.push(e);
    }
    Figure {
        id: "fig02_quant_methods",
        tables: vec![table(
            "Fig. 2 — uniform quantization of a one-sided activation tensor (8-bit)",
            "scheme|zero-point|scale|codes used|MSE",
            rows,
        )],
        checks: vec![Check {
            claim: "asymmetric MSE < symmetric, and asymmetric uses more codes",
            paper: "—",
            measured: format!("{:.2e} < {:.2e}; {} > {}", mse[1], mse[0], used[1], used[0]),
            holds: mse[1] < mse[0] && used[1] > used[0],
        }],
    }
}

/// Fig. 5 — (a) HO-slice histogram of asymmetrically quantized activations
/// (few zero slices, a dominant `r` slice); (b) quality of GEMM variants on
/// BERT-base (the paper's MNLI panel).
pub fn fig05_motivation(p: &Profiles) -> Figure {
    let mut rng = panacea_tensor::seeded_rng(5);
    let x = DistributionKind::AsymmetricGaussian {
        mean: 0.4,
        std: 0.25,
        skew: 0.05,
    }
    .sample_matrix(128, 128, &mut rng);
    let q = AsymmetricQuantizer::calibrate(x.as_slice(), 8);
    let xq = q.quantize_matrix(&x);
    let sx = SlicedActivation::from_uint(&xq, 1, DbsType::Type1).expect("8-bit codes");
    let r = (q.params().zero_point >> 4) as u8;
    let mut counts = [0u64; 16];
    for &s in sx.ho().iter() {
        counts[s as usize] += 1;
    }
    let total: u64 = counts.iter().sum();
    let histogram = (0..16)
        .map(|v| {
            let mark = if v == r as usize { "<- r = zp_HO" } else { "" };
            let share = pct(counts[v] as f64 / total as f64);
            vec![
                format!("{v:04b}"),
                counts[v].to_string(),
                share,
                mark.into(),
            ]
        })
        .collect();
    // Skippable by prior bit-slice GEMMs vs by AQS-GEMM.
    let zero_share = sparsity::act_slice_sparsity(sx.ho(), 0);
    let r_share = sparsity::act_slice_sparsity(sx.ho(), r);

    // (b): AQS-GEMM is bit-exact w.r.t. the asymmetric integer GEMM.
    let bert = p.model(BertBase);
    let s = bert.sqnr();
    let (sym, asym) = (bert.quality(s.sym), bert.quality(s.asym));
    let accuracy = [
        ("FP32 GEMM", bert.spec.fp16_quality),
        ("int GEMM, symmetric acts", sym),
        ("int GEMM, asymmetric acts", asym),
        ("AQS-GEMM (ours, exact)", asym),
    ];
    let accuracy = accuracy.map(|(variant, acc)| vec![variant.to_string(), format!("{acc:.1}")]);
    Figure {
        id: "fig05_motivation",
        tables: vec![
            table(
                "Fig. 5(a) — HO slice histogram of asymmetrically quantized activations",
                "HO slice|count|share|",
                histogram,
            ),
            table(
                "Fig. 5(b) — accuracy on BERT-base / MNLI (proxy metric)",
                "GEMM variant|accuracy (%)",
                accuracy.into(),
            ),
        ],
        checks: vec![Check {
            claim: "r-slice share > zero-slice share; \
                    BERT-base accuracy with asymmetric acts ≥ symmetric",
            paper: "—",
            measured: format!(
                "{} > {}; {asym:.1} ≥ {sym:.1}",
                pct(r_share),
                pct(zero_share)
            ),
            holds: r_share > zero_share && asym >= sym,
        }],
    }
}

/// Fig. 8 — zero-point manipulation on an OPT-2.7B FC-layer-like
/// activation: skip-range coverage without vs with ZPM.
pub fn fig08_zpm(_: &Profiles) -> Figure {
    let mut rng = panacea_tensor::seeded_rng(8);
    // OPT FC-layer regime: tight near-zero core with rare outliers that
    // stretch the quantization range asymmetrically so the calibrated
    // zero-point lands mid-range (the paper's example: zp = 161).
    let mut x = DistributionKind::Gaussian {
        mean: 0.0,
        std: 0.012,
    }
    .sample_matrix(256, 256, &mut rng)
    .into_vec();
    x.extend([-2.5, 1.5]); // outliers pinning min and max
    let q = AsymmetricQuantizer::calibrate(&x, 8);
    let zp = q.params().zero_point;
    // One row and its coverage: the share of codes in the skip range.
    let measure = |config: &str, q: &AsymmetricQuantizer, r: u8, lo: i32, hi: i32| {
        let mut hist = Histogram::new(0, 255);
        for &v in &x {
            hist.record(q.quantize(v));
        }
        let cov = hist.fraction_in(lo, hi);
        let row = vec![
            config.to_string(),
            q.params().zero_point.to_string(),
            format!("{r:04b}"),
            format!("[{lo}, {hi}]"),
            pct(cov),
        ];
        (row, cov)
    };
    // Without ZPM the skip range is r = zp_HO's; with ZPM (Eq. 7) the
    // tensor is re-quantized with the manipulated zero-point.
    let r0 = frequent_slice_without_zpm(zp, 4);
    let lo0 = i32::from(r0) << 4;
    let (without, cov0) = measure("without ZPM", &q, r0, lo0, lo0 + 15);
    let z = manipulate_zero_point(zp, 8, 4);
    let (q1, r1) = (q.with_zero_point(z.zero_point), z.frequent_ho_slice);
    let (with, cov1) = measure("with ZPM (Eq. 7)", &q1, r1, z.skip_lo, z.skip_hi);
    Figure {
        id: "fig08_zpm",
        tables: vec![table(
            "Fig. 8 — ZPM on an OPT-2.7B-like FC activation (8-bit, l = 4)",
            "configuration|zero-point|r|skip range|coverage",
            vec![without, with],
        )],
        checks: vec![Check {
            claim: "ZPM does not reduce skip-range coverage",
            paper: "68% -> 98%",
            measured: format!("{} -> {}", pct(cov0), pct(cov1)),
            holds: cov1 >= cov0,
        }],
    }
}

/// Figs. 9–10 — distribution-based bit-slicing: the per-type slicing
/// rules, then type classification by `std × z` and the HO slice sparsity
/// gain on progressively wider distributions.
pub fn fig10_dbs(_: &Profiles) -> Figure {
    let rules = DbsType::all()
        .iter()
        .map(|&ty| {
            let (ho, lo) = dbs_slices(0b0101_0101, ty);
            vec![
                ty.to_string(),
                format!("l = {}", ty.lo_bits()),
                format!("{ho:04b}"),
                format!("{lo:04b}"),
                format!("<< {}", ty.lo_shift()),
                (1 << ty.lo_bits()).to_string(),
            ]
        })
        .collect();

    let (mut rows, mut gains) = (vec![], vec![]);
    for (label, std) in [
        ("narrow", 0.01f32),
        ("medium", 0.035),
        ("wide", 0.08),
        ("very wide", 0.20),
    ] {
        let mut rng = panacea_tensor::seeded_rng(9);
        let mut data = DistributionKind::Gaussian { mean: 0.0, std }
            .sample_matrix(128, 128, &mut rng)
            .into_vec();
        data.extend([-1.0, 1.0]);
        let sparsity_of = |dbs: Option<DbsConfig>| -> (DbsType, f64) {
            let mut cal = ActivationCalibrator::new(8).with_zpm(true);
            if let Some(cfg) = dbs {
                cal = cal.with_dbs(cfg);
            }
            cal.observe_slice(&data);
            let cfg = cal.finalize();
            let mut codes: Vec<i32> = data.iter().map(|&v| cfg.quantizer.quantize(v)).collect();
            codes.truncate(codes.len() / 4 * 4);
            let m = Matrix::from_vec(codes.len() / 4, 4, codes).expect("shape");
            let sx = SlicedActivation::from_uint(&m, 1, cfg.dbs_type).expect("codes");
            let s = sparsity::act_slice_sparsity(sx.ho(), cfg.frequent_ho_slice);
            (cfg.dbs_type, s)
        };
        let (_, s_off) = sparsity_of(None);
        let (ty, s_on) = sparsity_of(Some(DbsConfig::default()));
        rows.push(vec![
            label.to_string(),
            std.to_string(),
            ty.to_string(),
            pct(s_off),
            pct(s_on),
            format!("{:+.1}%p", (s_on - s_off) * 100.0),
        ]);
        gains.push(s_on - s_off);
    }
    Figure {
        id: "fig10_dbs",
        tables: vec![
            table(
                "Fig. 10 — DBS slicing rules applied to 01010101b",
                "type|LO width|HO cont.|LO cont.|S-ACC shift|skip-range width",
                rules,
            ),
            table(
                "Fig. 9 — DBS classification and HO slice sparsity gain",
                "distribution|std|DBS type|sparsity (l=4)|sparsity (DBS)|gain",
                rows,
            ),
        ],
        checks: vec![Check {
            claim: "DBS sparsity ≥ l = 4 sparsity on every distribution",
            paper: "+20% average, >50% on some layers",
            measured: joined(gains.iter().map(|g| format!("{:+.1}", g * 100.0))) + " %p",
            holds: gains.iter().all(|&g| g >= 0.0),
        }],
    }
}

/// Fig. 13 — Panacea throughput across the (ρ_w, ρ_x) design space for
/// both operator splits, with and without DTP, on a small and a large
/// GEMM, against SA-WS / SA-OS / SIMD. The check compares unrounded TOPS.
pub fn fig13_design_space(_: &Profiles) -> Figure {
    let set = ComparisonSet::default_set();
    let (mut tables, mut oks) = (vec![], vec![]);
    // Largest Pan (DTP) gain over SA-WS / SA-OS / SIMD.
    let mut best = [0.0f64; 3];
    for (dwo, swo) in [(4, 8), (8, 4)] {
        let panacea = |dtp| {
            PanaceaSim::new(PanaceaConfig {
                dwo_per_pea: dwo,
                swo_per_pea: swo,
                dtp,
                ..PanaceaConfig::default()
            })
        };
        let (no_dtp, dtp) = (panacea(false), panacea(true));
        let designs: [&dyn Accelerator; 5] = [&no_dtp, &dtp, &set.sa_ws, &set.sa_os, &set.simd];
        for (m, k, n) in [(512, 512, 512), (2048, 2048, 2048)] {
            let mut rows = vec![];
            for rho in [0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 1.0] {
                let l = [LayerWork {
                    name: format!("gemm{m}x{k}x{n}"),
                    m,
                    k,
                    n,
                    count: 1,
                    w_planes: 2,
                    x_planes: 2,
                    rho_w: rho,
                    rho_x: rho,
                }];
                let tops = designs.map(|acc| simulate_model(acc, &l, set.budget().clock_mhz).tops);
                let [p_no, p_dtp, ws, os, simd] = tops;
                // DTP never hurts; Panacea trails SIMD at ρ = 0 and beats
                // every dense design from ρ = 0.75.
                let beats_dense = p_dtp > ws && p_dtp > os && p_dtp > simd;
                let low_ok = rho != 0.0 || p_dtp < simd;
                oks.push(p_dtp >= p_no && low_ok && (rho < 0.75 || beats_dense));
                for (b, dense) in best.iter_mut().zip([ws, os, simd]) {
                    *b = b.max(p_dtp / dense);
                }
                let mut row = vec![format!("{rho:.2}")];
                row.extend(tops.map(|t| format!("{t:.2}")));
                row.push(ratio(p_dtp / simd));
                rows.push(row);
            }
            tables.push(table(
                format!(
                    "Fig. 13 — throughput (TOPS), {dwo} DWO + {swo} SWO per PEA, GEMM {m}x{k}x{n}"
                ),
                "rho_w=rho_x|Pan (no DTP)|Pan (DTP)|SA-WS|SA-OS|SIMD|Pan/SIMD",
                rows,
            ));
        }
    }
    Figure {
        id: "fig13_design_space",
        tables,
        checks: vec![Check {
            claim: "DTP ≥ no-DTP on every row; at ρ = 0 Panacea (DTP) < SIMD; at ρ ≥ 0.75 \
                    Panacea (DTP) > SA-WS, SA-OS and SIMD; all 4 panels",
            paper: "up to 3.7x/3.35x/3.14x vs SA-WS/SA-OS/SIMD",
            measured: format!("up to {} on {} rows", joined(best.map(ratio)), count(&oks)),
            holds: !oks.contains(&false),
        }],
    }
}

/// Fig. 14 — (a) DeiT-base activation HO vector sparsity per layer under
/// the previous bit-slice GEMM vs AQS-GEMM (+ ZPM/DBS); (b) mean weight and
/// activation HO vector sparsity of Sibia vs Panacea on three models.
pub fn fig14_sparsity(p: &Profiles) -> Figure {
    let base = &p.deit_baseline.layers;
    let (mut per_layer, mut oks) = (vec![], vec![]);
    for (b, o) in base.iter().zip(&p.model(DeitBase).layers) {
        per_layer.push(vec![
            b.spec.name.clone(),
            pct(b.rho_x_zero_only),
            pct(b.rho_x),
            pct(o.rho_x),
            o.dbs_type.to_string(),
        ]);
        // The previous bit-slice GEMM sees sparsity only on the post-GELU
        // MLP.FC2 inputs; AQS-GEMM and then ZPM/DBS only add to it.
        let fc2 = b.spec.kind == LayerKind::MlpFc2;
        let ordered = o.rho_x >= b.rho_x && b.rho_x >= b.rho_x_zero_only;
        oks.push((b.rho_x_zero_only > 0.0) == fc2 && ordered);
    }
    let mean = [DeitBase, BertBase, Gpt2].map(|b| {
        let m = p.model(b);
        let avg = |f: fn(&LayerProfile) -> f64| {
            pct(m.layers.iter().map(f).sum::<f64>() / m.layers.len() as f64)
        };
        vec![
            m.spec.name.clone(),
            avg(|p| p.rho_w),
            avg(|p| p.rho_x_sibia),
            avg(|p| p.rho_x),
        ]
    });
    Figure {
        id: "fig14_sparsity",
        tables: vec![
            table(
                "Fig. 14(a) — DeiT-base activation HO vector sparsity per layer",
                "layer|prev bit-slice (zero-only)|AQS-GEMM|AQS + ZPM + DBS|DBS type",
                per_layer,
            ),
            table(
                "Fig. 14(b) — mean HO vector sparsity (weights shared; activations per engine)",
                "model|rho_w (SBR, both)|rho_x Sibia (sym)|rho_x Panacea (asym)",
                mean.into(),
            ),
        ],
        checks: vec![Check {
            claim: "zero-only sparsity = 0 on qkv / attn_proj / fc1 and > 0 on fc2; \
                    AQS + ZPM + DBS ≥ AQS ≥ zero-only per layer",
            paper: "—",
            measured: joined(base.iter().map(|b| pct(b.rho_x_zero_only))),
            holds: !oks.contains(&false),
        }],
    }
}

/// Fig. 15 — (a) energy breakdown and (b) throughput per design and
/// benchmark, the GPT-2 ablation (cumulative ZPM / DBS / DTP), and (c) the
/// relative area cost of the three methods.
pub fn fig15_breakdown(p: &Profiles) -> Figure {
    let set = ComparisonSet::default_set();
    let (mut rows, mut lowest) = (vec![], vec![]);
    for b in [DeitBase, BertBase, Gpt2, Resnet18] {
        let m = p.model(b);
        let energy = set.compare(m).map(|perf| (perf.energy.total_pj(), perf));
        lowest.push(energy[..4].iter().all(|(e, _)| energy[4].0 < *e));
        for (tot, perf) in energy {
            let e = &perf.energy;
            let parts = [
                e.compute_pj,
                e.sram_pj,
                e.buffer_pj + e.other_pj + e.static_pj,
                e.dram_pj,
            ];
            let mut row = vec![m.spec.name.clone(), perf.accelerator.clone(), f3(tot / 1e9)];
            row.extend(parts.map(|pj| format!("{:.0}%", pj / tot * 100.0)));
            row.extend([format!("{:.2}", perf.tops), f3(perf.tops_per_w)]);
            rows.push(row);
        }
    }

    // The ablation and (c): step i enables the first i of ZPM, DBS and
    // DTP, on profiles measured with the same options.
    let gpt2 = p.model(Gpt2);
    let steps = [
        ("baseline", &p.gpt2_baseline),
        ("+ ZPM", &p.gpt2_zpm_only),
        ("+ DBS", gpt2),
        ("+ DTP", gpt2),
    ];
    let (mut ablation, mut areas, mut deltas, mut oks) = (vec![], vec![], vec![], vec![]);
    let mut prev: Option<(f64, f64)> = None;
    for (i, (label, m)) in steps.into_iter().enumerate() {
        let sim = PanaceaSim::new(PanaceaConfig {
            zpm: i >= 1,
            dbs: i >= 2,
            dtp: i >= 3,
            ..PanaceaConfig::default()
        });
        areas.push((label, sim.area_mm2()));
        let perf = simulate_model(&sim, &m.work(EngineKind::Panacea), set.budget().clock_mhz);
        let (e, tops) = (perf.energy.total_pj(), perf.tops);
        let (mut de, mut dt) = ("-".to_string(), "-".to_string());
        if let Some((pe, pt)) = prev {
            de = format!("{:+.1}%", (e / pe - 1.0) * 100.0);
            dt = format!("{:+.1}%", (tops / pt - 1.0) * 100.0);
            deltas.push(format!("{} {de}/{dt}", &label[2..]));
            oks.push(e < pe && tops >= pt);
        }
        let step = if i == 0 { "baseline (AQS only)" } else { label };
        ablation.push(vec![
            step.to_string(),
            f3(e / 1e9),
            format!("{tops:.2}"),
            de,
            dt,
        ]);
        prev = Some((e, tops));
    }
    let a0 = areas[0].1;
    let area = areas
        .iter()
        .map(|&(label, a)| vec![label.to_string(), f3(a), ratio(a / a0)]);
    Figure {
        id: "fig15_breakdown",
        tables: vec![
            table(
                "Fig. 15(a,b) — energy breakdown (mJ, % by component) and throughput",
                "model|design|energy mJ|compute|SRAM|buf/other|DRAM|TOPS|TOPS/W",
                rows,
            ),
            table(
                "Fig. 15 — GPT-2 ablation (cumulative ZPM / DBS / DTP)",
                "configuration|energy mJ|TOPS|Δ energy|Δ throughput",
                ablation,
            ),
            table(
                "Fig. 15(c) — relative area cost of the proposed methods",
                "configuration|core area mm^2|relative",
                area.collect(),
            ),
        ],
        checks: vec![Check {
            claim: "each GPT-2 ablation step lowers energy and does not lower TOPS; \
                    ZPM area x1.00; Panacea has the lowest energy on all 4 models",
            paper: "ZPM -10%/+17%, DBS -11%/+12%, DTP -8.9%/+7.6%",
            measured: deltas.join(", "),
            holds: !oks.contains(&false) && areas[1].1 == a0 && !lowest.contains(&false),
        }],
    }
}

/// Fig. 16 — energy efficiency, throughput and quality loss of Panacea vs
/// SA-WS / SA-OS / SIMD / Sibia on DeiT-base, BERT-base, GPT-2, ResNet-18.
pub fn fig16_models(p: &Profiles) -> Figure {
    let set = ComparisonSet::default_set();
    let (mut rows, mut oks, mut gpt2_gains) = (vec![], vec![], String::new());
    for b in [DeitBase, BertBase, Gpt2, Resnet18] {
        let m = p.model(b);
        let (s, perfs) = (m.sqnr(), set.compare(m));
        let pan = &perfs[4];
        // Quality: dense 8-bit designs use plain asymmetric activations,
        // Panacea additionally pays the small DBS truncation, Sibia is
        // stuck with 7-bit symmetric quantization.
        for (perf, sqnr) in perfs.iter().zip(s.by_design()) {
            let quality = match m.spec.quality_is_ppl {
                true => format!("ppl {:.1}", m.quality(sqnr)),
                false => format!("-{:.2}%p", accuracy_loss_pp(sqnr)),
            };
            rows.push(vec![
                m.spec.name.clone(),
                perf.accelerator.clone(),
                f3(perf.tops_per_w),
                format!("{:.2}", perf.tops),
                quality,
                ratio(pan.tops_per_w / perf.tops_per_w),
                ratio(pan.tops / perf.tops),
            ]);
        }
        let gains = perfs[..4]
            .iter()
            .map(|perf| pan.tops_per_w / perf.tops_per_w);
        oks.push(gains.clone().all(|g| g > 1.0) && s.dbs > s.sym);
        if b == Gpt2 {
            gpt2_gains = joined(gains.map(ratio));
        }
    }
    Figure {
        id: "fig16_models",
        tables: vec![table(
            "Fig. 16 — efficiency, throughput and quality loss (iso-resources)",
            "model|design|TOPS/W|TOPS|quality|Pan eff. gain|Pan thpt gain",
            rows,
        )],
        checks: vec![Check {
            claim:
                "Panacea TOPS/W > all 4 baselines, and quality better than Sibia, on all 4 models",
            paper: "GPT-2 x3.82 / x3.07 / x3.81 / x2.03",
            measured: format!("GPT-2 {gpt2_gains}"),
            holds: !oks.contains(&false),
        }],
    }
}

/// Fig. 17 — energy efficiency and perplexity on OPT-350M / 1.3B / 2.7B
/// and Llama-3.2-1B / 3B (mixed precision for the Llama down-projection
/// inputs).
pub fn fig17_llms(p: &Profiles) -> Figure {
    let set = ComparisonSet::default_set();
    let (mut rows, mut oks, mut gains) = (vec![], vec![], vec![]);
    for b in [Opt350m, Opt1_3b, Opt2_7b, Llama1b, Llama3b] {
        let m = p.model(b);
        let perfs = set.compare(m);
        let (pan, ppl) = (&perfs[4], m.sqnr().by_design().map(|sqnr| m.quality(sqnr)));
        for (perf, ppl) in perfs.iter().zip(ppl) {
            rows.push(vec![
                m.spec.name.clone(),
                perf.accelerator.clone(),
                f3(perf.tops_per_w),
                format!("{:.2}", perf.tops),
                format!("{ppl:.1} (fp16 {:.1})", m.spec.fp16_quality),
                ratio(pan.tops_per_w / perf.tops_per_w),
            ]);
        }
        oks.push(pan.tops_per_w > perfs[3].tops_per_w && ppl[4] < ppl[3]);
        gains.push(ratio(pan.tops_per_w / perfs[3].tops_per_w));
    }
    Figure {
        id: "fig17_llms",
        tables: vec![table(
            "Fig. 17 — LLM energy efficiency and perplexity (WikiText-2 proxy)",
            "model|design|TOPS/W|TOPS|perplexity|Pan eff. gain",
            rows,
        )],
        checks: vec![Check {
            claim: "Panacea TOPS/W > Sibia and perplexity < Sibia on all 5 LLMs",
            paper: "OPT x1.57 / x1.97 / x1.96",
            measured: joined(gains),
            holds: !oks.contains(&false),
        }],
    }
}

/// Fig. 18 — the two contributions decoupled on OPT-2.7B: (a) symmetric vs
/// asymmetric quantization *on Panacea* (only quality moves); (b) AQS-GEMM
/// (skips zero *and* r-valued slices) vs a zero-skip-only engine on the
/// same asymmetric data.
pub fn fig18_decoupling(p: &Profiles) -> Figure {
    let set = ComparisonSet::default_set();
    let m = p.model(Opt2_7b);
    let sim = |engine| simulate_model(&set.panacea, &m.work(engine), set.budget().clock_mhz);
    let full = sim(EngineKind::Panacea);
    let zero = sim(EngineKind::PanaceaZeroSkipOnly);
    let row = |label: &str, perf: &ModelPerf, rest: &[String]| {
        let mut row = vec![
            label.to_string(),
            f3(perf.tops_per_w),
            format!("{:.2}", perf.tops),
        ];
        row.extend_from_slice(rest);
        row
    };
    // (a) Symmetric = zero-point pinned mid-range (paper: zp = 128): the
    // skip machinery still works (r = 128 >> 4 = 8), ZPM/DBS keep the
    // sparsity, so efficiency is flat — only quality moves.
    let s = m.sqnr();
    let ppl = |sqnr: f64| [format!("{:.1}", m.quality(sqnr))];
    let scheme = vec![
        row("Panacea, symmetric acts (zp = 128)", &full, &ppl(s.sym)),
        row("Panacea, asymmetric acts", &full, &ppl(s.dbs)),
    ];
    // (b) AQS-GEMM vs zero-slice skipping only.
    let (eff, thpt) = (full.tops_per_w / zero.tops_per_w, full.tops / zero.tops);
    let engine = vec![
        row("skip zero slices only", &zero, &[ratio(1.0), ratio(1.0)]),
        row(
            "AQS-GEMM (zero + r-valued)",
            &full,
            &[ratio(eff), ratio(thpt)],
        ),
    ];
    Figure {
        id: "fig18_decoupling",
        tables: vec![
            table(
                "Fig. 18(a) — quantization scheme on Panacea (OPT-2.7B)",
                "configuration|TOPS/W|TOPS|perplexity",
                scheme,
            ),
            table(
                "Fig. 18(b) — AQS-GEMM vs zero-skip-only on asymmetric data (OPT-2.7B)",
                "engine|TOPS/W|TOPS|eff. gain|thpt gain",
                engine,
            ),
        ],
        checks: vec![Check {
            claim: "AQS-GEMM > zero-skip-only on TOPS/W and on TOPS",
            paper: "x1.67 / x2.10",
            measured: format!("{} / {}", ratio(eff), ratio(thpt)),
            holds: eff > 1.0 && thpt > 1.0,
        }],
    }
}

/// Fig. 19 — low-bit weights on OPT-2.7B: 7-bit (n = 1) vs OPTQ 4-bit
/// (n = 0) for Sibia and Panacea — energy, latency and perplexity. OPTQ
/// runs for real on a sampled layer to quantify the 4-bit quality; the
/// simulators run single-plane weights, where DTP engages aggressively.
pub fn fig19_lowbit(p: &Profiles) -> Figure {
    // Weights are 4× smaller, so a larger WMEM share lets DTP hold two
    // TM-tiles at once ("DTP is frequently enabled due to the 4-bit
    // weights").
    let set = ComparisonSet::new(PanaceaConfig {
        wmem_fraction: 0.85,
        ..PanaceaConfig::default()
    });

    // Real OPTQ on a representative sampled layer (scaled-down K for the
    // O(K³) Hessian inverse; the quality trend carries).
    let mut rng = panacea_tensor::seeded_rng(19);
    let outliers = |core_std, outlier_scale, outlier_frac| DistributionKind::OutlierChannels {
        core_std,
        outlier_scale,
        outlier_frac,
    };
    let w = outliers(0.02, 12.0, 0.01).sample_matrix(64, 128, &mut rng);
    let x = outliers(0.3, 30.0, 0.02).sample_matrix(128, 256, &mut rng);
    let cfg4 = OptqConfig {
        bits: 4,
        group_size: Some(64),
        damping: 0.01,
    };
    let y = w.gemm_f32(&x).expect("shapes");
    let sig: f64 = y.iter().map(|&v| f64::from(v).powi(2)).sum();
    let sqnr = |deq: Matrix<f32>| 10.0 * (sig / layer_output_error(&w, &deq, &x)).log10();
    let optq_sqnr = sqnr(optq_quantize(&w, &x, cfg4).expect("OPTQ").dequantize());
    let rtn_sqnr = sqnr(rtn_quantize(&w, cfg4).expect("RTN").dequantize());
    let prelude = vec![
        vec!["RTN 4-bit".to_string(), f3(rtn_sqnr)],
        vec!["OPTQ 4-bit (64-ch groups)".to_string(), f3(optq_sqnr)],
    ];

    // System level at 7-bit and 4-bit weights. Quality: OPTQ holds PPL
    // close to FP16 even at 4 bits; the aggregate SQNR reflects the
    // weight width through the profiles, with the OPTQ-vs-RTN delta
    // credited back.
    let (mut rows, mut faster, mut energy) = (vec![], vec![], vec![]);
    let optq_credit_db = (rtn_sqnr - optq_sqnr).max(0.0);
    let widths = [
        ("7-bit (n=1)", p.model(Opt2_7b), 0.0),
        ("4-bit OPTQ (n=0)", &p.opt_4bit, optq_credit_db),
    ];
    for (label, m, credit_db) in widths {
        let [.., s, pan] = set.compare(m);
        let ppl = m.quality(m.sqnr().dbs + credit_db);
        for (perf, gain) in [(&s, 1.0), (&pan, s.seconds / pan.seconds)] {
            rows.push(vec![
                label.to_string(),
                perf.accelerator.clone(),
                f3(perf.energy.total_pj() / 1e9),
                f3(perf.seconds * 1e3),
                format!("{ppl:.1}"),
                ratio(gain),
            ]);
        }
        faster.push(s.seconds / pan.seconds);
        energy.push(pan.energy.total_pj() / s.energy.total_pj());
    }
    let measured = format!(
        "{} faster, {} of Sibia's energy",
        joined(faster.iter().map(|&g| ratio(g))),
        joined(energy.iter().map(|&e| pct(e)))
    );
    Figure {
        id: "fig19_lowbit",
        tables: vec![
            table(
                "Fig. 19 (prelude) — OPTQ vs RTN at 4-bit weights (sampled OPT layer)",
                "method|layer-output SQNR (dB)",
                prelude,
            ),
            table(
                "Fig. 19 — OPT-2.7B with 7-bit vs 4-bit weights",
                "weights|design|energy mJ|latency ms|perplexity|latency gain",
                rows,
            ),
        ],
        checks: vec![Check {
            claim:
                "OPTQ SQNR > RTN; Panacea latency and energy < Sibia at 7-bit and at 4-bit weights",
            paper: "x1.9 / x3.3 faster, ~56% of Sibia's energy",
            measured,
            holds: optq_sqnr > rtn_sqnr
                && faster.iter().all(|&g| g > 1.0)
                && energy.iter().all(|&e| e < 1.0),
        }],
    }
}

/// Fig. 20 — ASIC comparison: module inventory, area and effective
/// performance. LUTein's LUT datapath is not modeled; its row repeats the
/// published entries. Sibia and Panacea are both modeled under the
/// iso-resource 3072-multiplier budget (Sibia's own paper models 1536
/// active multipliers' worth of OPCs).
pub fn fig20_asic(p: &Profiles) -> Figure {
    let set = ComparisonSet::default_set();
    let [.., s, pan] = set.compare(p.model(Gpt2));
    let modeled = |design: &str, muls: &str, area: f64, perf: &ModelPerf, quant: &str| {
        vec![
            design.to_string(),
            "28nm".to_string(),
            muls.to_string(),
            f3(area),
            format!("{:.0}", set.budget().clock_mhz),
            format!("{:.2}", perf.tops),
            f3(perf.tops_per_w),
            quant.to_string(),
        ]
    };
    let rows = vec![
        modeled(
            "Sibia (HPCA'23)",
            "1536",
            set.sibia.area_mm2(),
            &s,
            "sym only",
        ),
        "LUTein (HPCA'24, reported)|28nm|n/a (LUT)|n/a|n/a|n/a|n/a|sym only"
            .split('|')
            .map(String::from)
            .collect(),
        modeled(
            "Panacea (this work)",
            "3072",
            set.panacea.area_mm2(),
            &pan,
            "sym + asym",
        ),
    ];
    Figure {
        id: "fig20_asic",
        tables: vec![table(
            "Fig. 20 — ASIC comparison (GPT-2 effective numbers for modeled designs)",
            "design|node|4b muls|area mm^2|MHz|eff. TOPS|TOPS/W|quantization",
            rows,
        )],
        checks: vec![Check {
            claim: "Panacea effective TOPS and TOPS/W > Sibia",
            paper: "—",
            measured: format!(
                "{:.2} > {:.2}; {} > {}",
                pan.tops,
                s.tops,
                f3(pan.tops_per_w),
                f3(s.tops_per_w)
            ),
            holds: pan.tops > s.tops && pan.tops_per_w > s.tops_per_w,
        }],
    }
}

/// §III-B — external-memory and SRAM traffic saved by AQS-GEMM's HO-slice
/// compression against the uncompressed Sibia format.
pub fn ema_reduction(p: &Profiles) -> Figure {
    let set = ComparisonSet::default_set();
    let (mut rows, mut ema, mut sram) = (vec![], vec![], vec![]);
    for b in [DeitBase, Gpt2] {
        let m = p.model(b);
        let [.., s, pan] = set.compare(m);
        let mb = |bytes: f64| format!("{:.1} MB", bytes / 1e6);
        let ema_saved = 1.0 - pan.dram_bytes / s.dram_bytes;
        let sram_saved = 1.0 - pan.sram_bytes / s.sram_bytes;
        rows.push(vec![
            m.spec.name.clone(),
            mb(s.dram_bytes),
            mb(pan.dram_bytes),
            pct(ema_saved),
            mb(s.sram_bytes),
            mb(pan.sram_bytes),
            pct(sram_saved),
        ]);
        ema.push(ema_saved);
        sram.push(sram_saved);
    }
    let reductions = |saved: &[f64]| joined(saved.iter().map(|&v| format!("-{}", pct(v))));
    Figure {
        id: "ema_reduction",
        tables: vec![table(
            "§III-B — memory-access reduction of HO-slice compression vs Sibia",
            "model|Sibia EMA|Panacea EMA|EMA saved|Sibia SRAM|Panacea SRAM|SRAM saved",
            rows,
        )],
        checks: vec![Check {
            claim: "Panacea EMA and SRAM bytes < Sibia on DeiT-base and GPT-2",
            paper: "EMA -60.5% / -46.8%, SRAM -29.2% / -27.4%",
            measured: format!("EMA {}, SRAM {}", reductions(&ema), reductions(&sram)),
            holds: ema.iter().chain(&sram).all(|&v| v > 0.0),
        }],
    }
}
