//! Cycle- and energy-level simulator of the Panacea accelerator and its
//! baselines (paper §III-D and §IV).
//!
//! The paper estimates performance by counting, for a given architecture
//! and dataflow, the number of cycles and the number of activated modules
//! during inference — with bit-slice sparsity measured on real benchmarks —
//! then pricing module activations with 28 nm post-layout energies and
//! CACTI DRAM numbers. This crate implements the same methodology:
//!
//! * [`energy`] — 28 nm per-operation energy constants and itemized
//!   energy breakdowns;
//! * [`arch`] — hardware configurations under the paper's iso-resource
//!   budget (3072 4b×4b multipliers, 192 KB SRAM, 256 bit/cycle DRAM) and
//!   the area model behind Fig. 20;
//! * [`workload`] — the [`LayerWork`] descriptor every accelerator model
//!   consumes (GEMM dims + measured HO vector sparsities);
//! * [`panacea`] — the Panacea model: PEAs with DWO/SWO operator pools,
//!   compensators, RLE-compressed traffic, output-stationary tiling
//!   (v=4, P=16, TM=64, TK=32, TN=64, R=16), double-tile processing, and
//!   the WMEM/AMEM capacity checks that decide DTP and DRAM re-fetch;
//! * [`baselines`] — SA-WS, SA-OS systolic arrays, the SIMD design, and
//!   Sibia under identical budgets;
//! * [`exec`] — an event-level functional executor that list-schedules
//!   real sliced tiles onto the operator pools cycle-by-cycle, used to
//!   validate the analytical model;
//! * [`report`] — aggregation into the paper's reporting units
//!   (throughput, TOPS/W, energy breakdowns).
//!
//! # Examples
//!
//! ```
//! use panacea_sim::arch::PanaceaConfig;
//! use panacea_sim::panacea::PanaceaSim;
//! use panacea_sim::workload::LayerWork;
//! use panacea_sim::Accelerator;
//!
//! let sim = PanaceaSim::new(PanaceaConfig::default());
//! let layer = LayerWork {
//!     name: "fc".into(), m: 768, k: 768, n: 196, count: 1,
//!     w_planes: 2, x_planes: 2, rho_w: 0.3, rho_x: 0.9,
//! };
//! let perf = sim.simulate(&layer);
//! assert!(perf.cycles > 0.0);
//! assert!(perf.energy.total_pj() > 0.0);
//! ```

pub mod arch;
pub mod baselines;
pub mod energy;
pub mod exec;
pub mod panacea;
pub mod report;
pub mod workload;

pub use arch::{HardwareBudget, PanaceaConfig};
pub use energy::EnergyBreakdown;
pub use report::{simulate_model, ModelPerf};
pub use workload::{LayerPerf, LayerWork};

/// Common interface of all modeled accelerators.
pub trait Accelerator {
    /// Display name used in reports.
    fn name(&self) -> &str;

    /// Simulates one layer (all `count` instances).
    fn simulate(&self, layer: &LayerWork) -> LayerPerf;

    /// Core area in mm² (28 nm), for the Fig. 20 comparison.
    fn area_mm2(&self) -> f64;
}
