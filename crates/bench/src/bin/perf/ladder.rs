//! `gemm_rho`: the kernel alone, in-process, one thread, no serving.
//! Three `QuantizedLinear`s at the BERT-base attention-projection shape
//! (`d_model × d_model`, w7, ZPM on, DBS off ⇒ Type-1, dense-exact)
//! whose weights have vector-level HO sparsity ρ_w ∈ {0, 0.5, 0.95}.
//! One op is a *ladder pass*: `forward` on a code matrix with ρ_x = ρ_w
//! for each rung in fixed order. Keeping the dense rung and the
//! skip-heavy rung in one op means speeding one at the other's cost
//! shows; the per-rung times check the paper's Table-I claim (time
//! falls as ρ rises) in software.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use panacea_bitslice::SlicedWeight;
use panacea_core::dense::dense_gemm;
use panacea_core::sibia::{sibia_gemm, SkipSide};
use panacea_quant::Quantizer;
use panacea_sim::arch::{HardwareBudget, PanaceaConfig};
use panacea_sim::baselines::SibiaSim;
use panacea_sim::panacea::PanaceaSim;
use panacea_sim::workload::LayerWork;
use panacea_sim::Accelerator;
use panacea_tensor::Matrix;

use crate::gen::{self, SplitMix64};
use crate::harness::{Geometry, OpOutcome, Scenario};
use crate::layers::{peel_loop, AqsTally, SetupTimes, Twin, ACT_BITS, W_BITS};
use crate::trace::Recorder;

/// Each rung: target vector-level sparsity, its per-rung metric, and
/// the span its `forward` is recorded under.
pub const RUNGS: [(f64, &str, &str); 3] = [
    (0.0, "core.aqs.ms_rho00", "ladder.rho00"),
    (0.5, "core.aqs.ms_rho50", "ladder.rho50"),
    (0.95, "core.aqs.ms_rho95", "ladder.rho95"),
];
/// Code matrices per rung, cycled.
const POOL: usize = 8;
/// SBR LO slices that hold a zero-point-centred 8-bit activation
/// (10-bit signed), for the Sibia baseline.
const SIBIA_X_LO_SLICES: usize = 2;

struct Rung {
    twin: Twin,
    zero_point: i32,
    pool: Vec<Matrix<i32>>,
}

impl Rung {
    /// `W_int · (X − zp)`: what `forward` must return with a zero bias.
    fn reference(&self, x: &Matrix<i32>) -> Matrix<i32> {
        let centred = x.map(|&v| v - self.zero_point);
        self.twin.w_int.gemm(&centred).expect("ladder shapes agree")
    }
}

pub struct GemmRho {
    geo: Geometry,
    rungs: Vec<Rung>,
    setup: SetupTimes,
}

/// Position in the input pools.
pub struct LadderCursor(usize);

impl Scenario for GemmRho {
    type Client = LadderCursor;
    const ROOT_SPANS: &'static [&'static str] = &[RUNGS[0].2, RUNGS[1].2, RUNGS[2].2];
    const CLIENTS: usize = 1;
    const WARMUP_OPS: usize = 4;

    fn build(geo: Geometry, seed: u64) -> Self {
        let mut rng = SplitMix64::stream(seed, "ladder");
        let d = geo.d_model;
        let calib = gen::hidden(d, geo.calib_tokens, &mut rng);
        let mut setup = SetupTimes::default();
        let rungs = RUNGS
            .iter()
            .map(|&(rho, _, span)| {
                let weight = gen::rho_weight(d, d, rho, &mut rng);
                let twin = Twin::prepare(span, &weight, &calib, true, false, &mut setup);
                let r = twin.act.frequent_ho_slice;
                let pool = (0..POOL)
                    .map(|_| gen::rho_codes(d, geo.ladder_cols, rho, r, &mut rng))
                    .collect();
                Rung {
                    zero_point: twin.act.quantizer.params().zero_point,
                    twin,
                    pool,
                }
            })
            .collect();
        GemmRho { geo, rungs, setup }
    }

    fn cols_per_op(&self) -> usize {
        RUNGS.len() * self.geo.ladder_cols
    }

    fn connect(&self, _idx: usize) -> LadderCursor {
        LadderCursor(0)
    }

    fn op(&self, cursor: &mut LadderCursor, verify: bool) -> OpOutcome {
        let slot = cursor.0 % POOL;
        cursor.0 += 1;
        let mut latency = Duration::ZERO;
        let mut ok = true;
        let mut exact = verify.then_some(true);
        for rung in &self.rungs {
            let x = &rung.pool[slot];
            let t = Instant::now();
            let (acc, _) = rung.twin.layer.forward(x);
            latency += t.elapsed();
            ok &= acc.shape() == (self.geo.d_model, self.geo.ladder_cols);
            if let Some(exact) = &mut exact {
                *exact &= acc == rung.reference(x);
            }
        }
        OpOutcome { latency, ok, exact }
    }

    fn peel(
        &self,
        rec: &Recorder,
        min_ops: usize,
        budget: Duration,
    ) -> BTreeMap<&'static str, f64> {
        let d = self.geo.d_model;
        let panacea = PanaceaSim::new(PanaceaConfig::default());
        let sibia = SibiaSim::new(HardwareBudget::default());
        let mut tally = AqsTally::default();
        let mut extras = BTreeMap::new();
        let mut works = Vec::new();
        peel_loop(min_ops, budget, |op| {
            let slot = op as usize % POOL;
            for rung in &self.rungs {
                let x = &rung.pool[slot];
                let mut rung_tally = AqsTally::default();
                rung.twin
                    .run(rec, None, op, x, (op == 0).then_some(&mut rung_tally));
                if op == 0 {
                    works.push(LayerWork {
                        name: "attn_proj".to_string(),
                        m: d,
                        k: d,
                        n: self.geo.ladder_cols,
                        count: 1,
                        w_planes: 2,
                        x_planes: 2,
                        rho_w: rung_tally.rho_w(),
                        rho_x: rung_tally.rho_x(),
                    });
                    tally.absorb(&rung_tally);
                }
                // Baselines on the same operands (zero-point-centred
                // activations): dense integer GEMM and the Sibia GEMM.
                let centred = x.map(|&v| v - rung.zero_point);
                rec.span("core.dense.gemm", None, op, || {
                    dense_gemm(&rung.twin.w_int, &centred, W_BITS, ACT_BITS).expect("shapes agree")
                });
                let sx = SlicedWeight::from_int(&centred, SIBIA_X_LO_SLICES)
                    .expect("centred activations fit 10 bits");
                rec.span("core.sibia.gemm", None, op, || {
                    sibia_gemm(&rung.twin.sliced, &sx, SkipSide::Weight)
                });
            }
            // Simulated cost of the ladder's layer at the achieved
            // sparsity: the same numbers on every op and every host.
            let (perfs, _) = rec.span("sim.host", None, op, || {
                works
                    .iter()
                    .map(|w| (panacea.simulate(w), sibia.simulate(w)))
                    .collect::<Vec<_>>()
            });
            extras.insert(
                "sim.panacea.cycles",
                perfs.iter().map(|(p, _)| p.cycles).sum(),
            );
            extras.insert(
                "sim.sibia.cycles",
                perfs.iter().map(|(_, s)| s.cycles).sum(),
            );
            extras.insert(
                "sim.panacea.energy_pj",
                perfs.iter().map(|(p, _)| p.energy.total_pj()).sum(),
            );
        });

        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        extras.insert("quant.calibrate_ms", ms(self.setup.calibrate));
        extras.insert("bitslice.slice_weight_ms", ms(self.setup.slice_weight));
        tally.metrics(&mut extras);
        extras
    }

    fn derive(metrics: &mut BTreeMap<&'static str, f64>) {
        let rungs: Vec<f64> = RUNGS
            .iter()
            .filter_map(|(_, metric, _)| metrics.get(metric).copied())
            .collect();
        if rungs.len() == RUNGS.len() {
            metrics.insert("core.aqs.rho_speedup", rungs[0] / rungs[RUNGS.len() - 1]);
            let monotone = rungs.windows(2).all(|w| w[1] <= w[0]);
            metrics.insert("core.aqs.rho_monotone", f64::from(u8::from(monotone)));
        }
        if let (Some(aqs), Some(dense)) = (
            metrics.get("core.aqs.gemm_ms").copied(),
            metrics.get("core.dense.gemm_ms").copied(),
        ) {
            metrics.insert("core.aqs.vs_dense", aqs / dense);
        }
    }
}
