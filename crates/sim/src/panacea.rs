//! The Panacea accelerator performance model (paper §III-D, Fig. 11–12).
//!
//! Cycle model: each PEA owns a `v × TK` weight sub-tile (HO + LO planes)
//! and shares the `TK × TN` activation tile. Per activation sub-tile
//! (`R = TN/v` of them) and per `k`, the workload scheduler issues one
//! outer product per (weight-plane, activation-plane) pair that survives
//! compression: products touching an HO plane go to the **DWO** pool,
//! `LO×LO` products to the **SWO** pool. A tile completes when the slower
//! pool drains; with **DTP**, a second weight sub-tile's `LO×LO` work may
//! overflow onto idle DWOs. Compensators run in parallel with the operator
//! pools (the paper's "negligible overhead"), so they cost energy but not
//! cycles. Memory cycles follow the 256 bit/cycle DRAM budget with
//! double-buffered overlap: `tile latency = max(compute, memory)`.

use crate::arch::{AreaModel, PanaceaConfig};
use crate::energy::EnergyBreakdown;
use crate::workload::{LayerPerf, LayerWork};
use crate::Accelerator;

/// RLE index overhead per stored HO vector, amortized per element
/// (4 bits per 4-element vector).
const RLE_BITS_PER_ELEM: f64 = 1.0;

/// The Panacea simulator.
#[derive(Debug, Clone)]
pub struct PanaceaSim {
    cfg: PanaceaConfig,
    area: AreaModel,
}

impl PanaceaSim {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration violates the hardware budget.
    pub fn new(cfg: PanaceaConfig) -> Self {
        cfg.validate().expect("invalid Panacea configuration");
        PanaceaSim {
            cfg,
            area: AreaModel::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &PanaceaConfig {
        &self.cfg
    }

    /// Compressed weight bits per element (dense LO planes + RLE'd HO).
    /// Single-plane (4-bit) weights have no HO plane to compress and move
    /// as plain dense slices.
    fn w_bits_per_elem(&self, l: &LayerWork) -> f64 {
        if l.w_planes == 1 {
            4.0
        } else {
            4.0 * (l.w_planes as f64 - 1.0) + (4.0 + RLE_BITS_PER_ELEM) * (1.0 - l.rho_w)
        }
    }

    /// Compressed activation bits per element.
    fn x_bits_per_elem(&self, l: &LayerWork) -> f64 {
        4.0 * (l.x_planes as f64 - 1.0) + (4.0 + RLE_BITS_PER_ELEM) * (1.0 - l.rho_x)
    }

    /// Whether DTP can be enabled for this layer: WMEM must hold the
    /// weight slices of a `2·TM × K` tile (paper §III-D).
    fn dtp_enabled(&self, l: &LayerWork) -> bool {
        if !self.cfg.dtp {
            return false;
        }
        let bits = 2.0 * self.cfg.tile.tm as f64 * l.k as f64 * self.w_bits_per_elem(l);
        bits / 8.0 <= self.cfg.wmem_bytes() as f64
    }
}

impl Accelerator for PanaceaSim {
    fn name(&self) -> &str {
        "Panacea"
    }

    fn simulate(&self, l: &LayerWork) -> LayerPerf {
        l.validate().expect("invalid layer");
        let t = self.cfg.tile;
        let tech = self.cfg.budget.tech;
        let n_m_tiles = l.m.div_ceil(t.tm) as f64;
        let n_k_tiles = l.k.div_ceil(t.tk) as f64;
        let n_n_tiles = l.n.div_ceil(t.tn) as f64;
        let tiles = n_m_tiles * n_k_tiles * n_n_tiles;

        let pw = l.w_planes as f64;
        let px = l.x_planes as f64;
        // A compressible HO plane exists only when there are ≥ 2 planes;
        // a single-plane operand is all-dense (the 4-bit weight case of
        // Fig. 19, where every product is static work).
        let w_ho = l.w_planes >= 2;
        let x_ho = l.x_planes >= 2;
        let rho_w = if w_ho { l.rho_w } else { 0.0 };
        let rho_x = if x_ho { l.rho_x } else { 0.0 };
        let n_w_lo = pw - f64::from(w_ho);
        let n_x_lo = px - f64::from(x_ho);
        // Expected surviving outer products per (k, activation-sub-tile)
        // pair handled by one PEA: products touching a compressible HO
        // plane are dynamic (DWO), dense LO×LO products are static (SWO).
        let dwo_classes = f64::from(x_ho)
            * (n_w_lo * (1.0 - rho_x) + f64::from(w_ho) * (1.0 - rho_w) * (1.0 - rho_x))
            + f64::from(w_ho) * n_x_lo * (1.0 - rho_w);
        let swo_classes = n_w_lo * n_x_lo;
        // Exact number of (k, sub-tile) pairs each PEA sweeps for the whole
        // layer (partial tiles contribute only their real data).
        let pairs_per_pea = n_m_tiles * l.k as f64 * (l.n as f64 / t.v as f64).ceil();
        let dwo_ops = pairs_per_pea * dwo_classes;
        let swo_ops = pairs_per_pea * swo_classes;

        let n_dwo = self.cfg.dwo_per_pea as f64;
        let n_swo = self.cfg.swo_per_pea as f64;
        let dtp = self.dtp_enabled(l);
        let compute_cycles = if dtp {
            // LO×LO work of the second in-flight tile may run on DWOs; the
            // balanced schedule is limited by either the DWO-only work or
            // the overall pool.
            ((dwo_ops + swo_ops) / (n_dwo + n_swo)).max(dwo_ops / n_dwo)
        } else {
            (dwo_ops / n_dwo).max(swo_ops / n_swo)
        }
        // Per-tile scheduling/drain overhead.
        + tiles * 4.0;

        // --- DRAM traffic (bits). Weight m-tiles stream once each and are
        // reused across the full N sweep when they fit WMEM; otherwise
        // they are re-fetched for every output-column pass.
        let w_bpe = self.w_bits_per_elem(l);
        let x_bpe = self.x_bits_per_elem(l);
        let w_tile_fits = (if dtp { 2.0 } else { 1.0 }) * t.tm as f64 * l.k as f64 * w_bpe / 8.0
            <= self.cfg.wmem_bytes() as f64;
        let w_reload = if w_tile_fits { 1.0 } else { n_n_tiles };
        let amem_bytes = (self.cfg.budget.sram_bytes - self.cfg.wmem_bytes()) as f64 * 0.75;
        let x_fits = l.k as f64 * l.n as f64 * x_bpe / 8.0 <= amem_bytes;
        // DTP processes two weight tiles per activation load, halving the
        // number of activation re-fetch passes (§III-D).
        let x_reload = if x_fits {
            1.0
        } else {
            (n_m_tiles / if dtp { 2.0 } else { 1.0 }).ceil()
        };
        let w_bits = l.m as f64 * l.k as f64 * w_bpe * w_reload;
        let x_bits = l.k as f64 * l.n as f64 * x_bpe * x_reload;
        let out_bits = l.m as f64 * l.n as f64 * 8.0;
        let dram_bits = w_bits + x_bits + out_bits;
        let dram_cycles = dram_bits / self.cfg.budget.dram_bits_per_cycle as f64;

        let cycles = compute_cycles.max(dram_cycles);

        // --- Energy.
        let peas = self.cfg.n_peas as f64;
        let exec_ops = (dwo_ops + swo_ops) * peas;
        let compute_pj = exec_ops
            * (16.0 * tech.mul4_pj + 16.0 * tech.add8_pj + 16.0 * tech.shift_pj)
            // S-ACC accumulation of each 4×4 partial-sum tile.
            + exec_ops * 16.0 * tech.acc32_pj;
        // Compensators: per (PEA, m-tile, activation sub-tile): accumulate
        // the loaded weight slices of uncompressed activation positions,
        // then one 16-multiply outer product with the r-vector.
        let comp_acc = peas * pairs_per_pea * (1.0 - rho_x) * 4.0 * pw * tech.acc32_pj;
        let sub_tiles = n_m_tiles * (l.n as f64 / t.v as f64).ceil();
        let comp_mul = peas * sub_tiles * 16.0 * tech.mul4_pj;
        // Buffer traffic: per outer product, 4 weight + 4 activation slice
        // reads (4 bits each) and a 16-element 24-bit psum read-modify-write.
        let buffer_pj = exec_ops * ((8.0 * 4.0) + 16.0 * 24.0 * 2.0) * tech.buf_pj_bit;
        // SRAM traffic: tiles written once from DRAM and read once per use.
        let sram_rd_bits = w_bits + x_bits * (n_m_tiles / x_reload).max(1.0);
        let sram_wr_bits = w_bits + x_bits + out_bits;
        let sram_pj = sram_rd_bits * tech.sram_rd_pj_bit + sram_wr_bits * tech.sram_wr_pj_bit;
        // RLE decode: one per stored HO vector of both operands.
        let rle_entries = f64::from(w_ho) * l.m as f64 * l.k as f64 * (1.0 - rho_w) / t.v as f64
            + l.k as f64 * l.n as f64 * (1.0 - rho_x) / t.v as f64;
        let ppu = l.m as f64 * l.n as f64 * tech.ppu_pj_elem;
        let other_pj = rle_entries * tech.rle_decode_pj + ppu + comp_acc + comp_mul;
        let dram_pj = dram_bits * tech.dram_pj_bit;

        let energy = EnergyBreakdown {
            compute_pj,
            sram_pj,
            buffer_pj,
            dram_pj,
            other_pj,
            static_pj: 0.0,
        }
        .with_static(tech.static_overhead)
        .scaled(l.count as f64);

        let denom_d = cycles * n_dwo;
        let denom_s = cycles * n_swo;
        LayerPerf {
            cycles: cycles * l.count as f64,
            compute_cycles: compute_cycles * l.count as f64,
            energy,
            dram_bits: dram_bits * l.count as f64,
            sram_bits: (sram_rd_bits + sram_wr_bits) * l.count as f64,
            util_primary: if denom_d > 0.0 {
                (dwo_ops / denom_d).min(1.0)
            } else {
                0.0
            },
            util_secondary: if denom_s > 0.0 {
                (swo_ops / denom_s).min(1.0)
            } else {
                0.0
            },
            dtp_active: dtp,
        }
    }

    fn area_mm2(&self) -> f64 {
        let opcs = self.cfg.total_opcs();
        let muls = opcs * 16;
        let adders = opcs * 16;
        // 2 S-ACCs + 2 compensators (4 small S-ACCs each) per PEA, plus
        // DBS shifters.
        let saccs = self.cfg.n_peas * (2 + 2 * 4) + if self.cfg.dbs { self.cfg.n_peas } else { 0 };
        let sram_kb = self.cfg.budget.sram_bytes as f64 / 1024.0;
        // WBUF + global activation buffer + psum buffers (doubled by DTP).
        let buf_kb = if self.cfg.dtp { 12.0 } else { 8.0 };
        self.area
            .core_area_mm2(muls, adders, saccs, sram_kb, buf_kb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(m: usize, k: usize, n: usize, rho_w: f64, rho_x: f64) -> LayerWork {
        LayerWork {
            name: "l".into(),
            m,
            k,
            n,
            count: 1,
            w_planes: 2,
            x_planes: 2,
            rho_w,
            rho_x,
        }
    }

    fn sim(dtp: bool) -> PanaceaSim {
        PanaceaSim::new(PanaceaConfig {
            dtp,
            ..PanaceaConfig::default()
        })
    }

    #[test]
    fn sparsity_reduces_cycles_and_energy() {
        let s = sim(false);
        let dense = s.simulate(&layer(768, 768, 768, 0.0, 0.0));
        let sparse = s.simulate(&layer(768, 768, 768, 0.5, 0.95));
        assert!(sparse.cycles < dense.cycles);
        assert!(sparse.energy.total_pj() < dense.energy.total_pj());
        assert!(sparse.dram_bits < dense.dram_bits);
    }

    #[test]
    fn dtp_helps_when_swo_bound() {
        // High sparsity on both operands makes the SWO pool the bottleneck
        // (Fig. 13); DTP rebalances LO×LO work onto idle DWOs.
        let no_dtp = sim(false).simulate(&layer(512, 512, 512, 0.95, 0.95));
        let dtp = sim(true).simulate(&layer(512, 512, 512, 0.95, 0.95));
        assert!(
            dtp.cycles < no_dtp.cycles,
            "DTP {} should beat no-DTP {}",
            dtp.cycles,
            no_dtp.cycles
        );
        assert!(dtp.dtp_active);
    }

    #[test]
    fn dtp_disabled_for_huge_weight_tiles() {
        // A 2·TM×K compressed tile beyond WMEM capacity disables DTP.
        let s = sim(true);
        let big = s.simulate(&layer(1024, 16384, 512, 0.0, 0.5));
        assert!(!big.dtp_active, "oversized tile must disable DTP");
        let small = s.simulate(&layer(1024, 512, 512, 0.0, 0.5));
        assert!(small.dtp_active);
    }

    #[test]
    fn dram_bits_follow_compression_and_on_chip_capacity() {
        // Default config: WMEM 96 KiB, AMEM 72 KiB, TM = TN = 64. `w` / `x`
        // are bits per element, `wr` / `xr` the re-fetch multipliers.
        let bits = |l: &LayerWork, w: f64, wr: f64, x: f64, xr: f64| {
            let (m, k, n) = (l.m as f64, l.k as f64, l.n as f64);
            m * k * w * wr + k * n * x * xr + m * n * 8.0
        };

        // Single-plane weights move as dense 4-bit slices whatever ρ_w
        // says; two planes pay 4 + (4 + 1)·(1 − ρ_w).
        let mut single = layer(64, 256, 64, 0.75, 0.5);
        single.w_planes = 1;
        let p = sim(false).simulate(&single);
        assert_eq!(p.dram_bits, bits(&single, 4.0, 1.0, 6.5, 1.0));
        let two = layer(64, 256, 64, 0.75, 0.5);
        let p = sim(false).simulate(&two);
        assert_eq!(p.dram_bits, bits(&two, 5.25, 1.0, 6.5, 1.0));

        // Weights: a dense 64 × 2048 tile (144 KiB) exceeds WMEM, so it is
        // re-fetched for each of the ⌈256/64⌉ = 4 column passes; 64 × 1024
        // (72 KiB) stays resident. Neither leaves room for the second tile
        // DTP needs, so DTP stays off and the rule is the same with it
        // configured. M = TM keeps activations to one pass.
        for dtp in [false, true] {
            let big = layer(64, 2048, 256, 0.0, 0.5);
            let p = sim(dtp).simulate(&big);
            assert!(!p.dtp_active);
            assert_eq!(p.dram_bits, bits(&big, 9.0, 4.0, 6.5, 1.0));
            let fits = layer(64, 1024, 256, 0.0, 0.5);
            let p = sim(dtp).simulate(&fits);
            assert!(!p.dtp_active);
            assert_eq!(p.dram_bits, bits(&fits, 9.0, 1.0, 6.5, 1.0));
        }

        // Activations: 1024 × 128 at 6.5 bits (104 KiB) exceeds AMEM, so
        // they are re-fetched once per m-tile, ⌈320/64⌉ = 5 times, or
        // ⌈5/2⌉ = 3 times when DTP pairs the m-tiles. 1024 × 64 (52 KiB)
        // is fetched once.
        let wide = layer(320, 1024, 128, 0.75, 0.5);
        let p = sim(false).simulate(&wide);
        assert_eq!(p.dram_bits, bits(&wide, 5.25, 1.0, 6.5, 5.0));
        let p = sim(true).simulate(&wide);
        assert!(p.dtp_active);
        assert_eq!(p.dram_bits, bits(&wide, 5.25, 1.0, 6.5, 3.0));
        let narrow = layer(320, 1024, 64, 0.75, 0.5);
        let p = sim(true).simulate(&narrow);
        assert!(p.dtp_active);
        assert_eq!(p.dram_bits, bits(&narrow, 5.25, 1.0, 6.5, 1.0));
    }

    #[test]
    fn compute_bound_dense_memory_bound_tiny() {
        let s = sim(false);
        // Large dense layer: compute dominates.
        let dense = s.simulate(&layer(2048, 2048, 2048, 0.0, 0.0));
        assert!(dense.util_primary > 0.5);
        // Skinny layer with huge K: DRAM dominates, utilization collapses.
        let skinny = s.simulate(&layer(64, 8192, 4, 0.0, 0.0));
        assert!(skinny.cycles > 0.0);
        assert!(skinny.util_primary < dense.util_primary);
    }

    #[test]
    fn utilizations_are_fractions() {
        let s = sim(true);
        for &(rw, rx) in &[(0.0, 0.0), (0.5, 0.9), (1.0, 1.0)] {
            let p = s.simulate(&layer(256, 256, 256, rw, rx));
            assert!((0.0..=1.0).contains(&p.util_primary), "rw={rw} rx={rx}");
            assert!((0.0..=1.0).contains(&p.util_secondary));
        }
    }

    #[test]
    fn count_scales_linearly() {
        let s = sim(true);
        let one = s.simulate(&layer(256, 256, 256, 0.3, 0.8));
        let mut l = layer(256, 256, 256, 0.3, 0.8);
        l.count = 12;
        let twelve = s.simulate(&l);
        assert!((twelve.cycles / one.cycles - 12.0).abs() < 1e-9);
        assert!((twelve.energy.total_pj() / one.energy.total_pj() - 12.0).abs() < 1e-6);
    }

    #[test]
    fn area_grows_with_dtp_buffers() {
        let with = sim(true).area_mm2();
        let without = sim(false).area_mm2();
        assert!(with > without);
        assert!((1.0..12.0).contains(&with), "area {with} mm²");
    }

    #[test]
    fn mixed_precision_planes_increase_work() {
        let s = sim(false);
        let w2 = s.simulate(&layer(512, 512, 512, 0.5, 0.9));
        let mut l3 = layer(512, 512, 512, 0.5, 0.9);
        l3.w_planes = 3; // 10-bit weights
        let w3 = s.simulate(&l3);
        assert!(w3.cycles > w2.cycles);
    }
}
