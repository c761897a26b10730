//! Architecture design-space exploration: sweep the DWO/SWO split and DTP
//! on a DeiT-base-like workload and print throughput / energy-efficiency /
//! utilization, alongside the iso-resource baselines — a miniature of the
//! paper's Fig. 13 methodology as a library user would run it.
//!
//! Run with: `cargo run --example design_space`

use panacea::models::zoo::Benchmark;
use panacea::sim::arch::PanaceaConfig;
use panacea::sim::baselines::{SibiaSim, SimdSim, SystolicFlow, SystolicSim};
use panacea::sim::panacea::PanaceaSim;
use panacea::sim::workload::LayerWork;
use panacea::sim::{simulate_model, Accelerator};
use panacea_bench::profile::{profile_model, ProfileOptions};
use panacea_bench::{to_layer_work, EngineKind};

fn main() {
    let model = Benchmark::DeitBase.spec();
    let profiles = profile_model(&model, &ProfileOptions::default());
    let work =
        |engine| -> Vec<LayerWork> { profiles.iter().map(|p| to_layer_work(p, engine)).collect() };
    let layers = work(EngineKind::Panacea);
    let budget = PanaceaConfig::default().budget;
    let clock = budget.clock_mhz;

    println!("DeiT-base on candidate Panacea configurations:");
    println!(
        "{:<26} {:>8} {:>8} {:>9} {:>9}",
        "configuration", "TOPS", "TOPS/W", "DWO util", "SWO util"
    );
    for (dwo, swo) in [(4usize, 8usize), (8, 4), (6, 6)] {
        for dtp in [false, true] {
            let sim = PanaceaSim::new(PanaceaConfig {
                dwo_per_pea: dwo,
                swo_per_pea: swo,
                dtp,
                ..PanaceaConfig::default()
            });
            let perf = simulate_model(&sim, &layers, clock);
            // Utilization of the first (largest) layer as representative.
            let lp = sim.simulate(&layers[0]);
            println!(
                "{:<26} {:>8.2} {:>8.3} {:>8.1}% {:>8.1}%",
                format!("{dwo} DWO + {swo} SWO, DTP={dtp}"),
                perf.tops,
                perf.tops_per_w,
                lp.util_primary * 100.0,
                lp.util_secondary * 100.0,
            );
        }
    }

    println!("\nIso-resource baselines:");
    let dense = work(EngineKind::Dense);
    let baselines: Vec<Box<dyn Accelerator>> = vec![
        Box::new(SystolicSim::new(SystolicFlow::WeightStationary, budget)),
        Box::new(SystolicSim::new(SystolicFlow::OutputStationary, budget)),
        Box::new(SimdSim::new(budget)),
        Box::new(SibiaSim::new(budget)),
    ];
    for acc in &baselines {
        let perf = simulate_model(acc.as_ref(), &dense, clock);
        println!(
            "{:<26} {:>8.2} {:>8.3}",
            acc.name(),
            perf.tops,
            perf.tops_per_w
        );
    }
}
