//! The paper's tables and figures as data, and the harness that checks them.
//!
//! [`figures::FIGURES`] holds one function per table or figure of the
//! paper. Each reads the shared [`Profiles`] (every distinct profiling
//! pass, computed once) and returns a [`Figure`]: the tables it prints and
//! the [`Check`]s its claims must pass. The `repro` binary runs them all
//! and [`report`]s to stdout and `REPRO.json`.

use std::path::Path;

use panacea_models::profile::LayerProfile;
use panacea_models::proxy::{accuracy_loss_pp, aggregate_sqnr_db, perplexity_proxy};
use panacea_models::{profile_model, Benchmark, ModelSpec, ProfileOptions};
use panacea_sim::arch::{HardwareBudget, PanaceaConfig};
use panacea_sim::baselines::{SibiaSim, SimdSim, SystolicFlow, SystolicSim};
use panacea_sim::panacea::PanaceaSim;
use panacea_sim::report::ModelPerf;
use panacea_sim::workload::LayerWork;
use panacea_sim::{simulate_model, Accelerator};
use serde_json::{json, Value};

pub mod figures;

/// Which accelerator semantics to use when converting a measured profile
/// into a [`LayerWork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Panacea: all-`r` activation vector sparsity (optionally ZPM/DBS).
    Panacea,
    /// Panacea restricted to zero-slice skipping (Fig. 18(b) ablation).
    PanaceaZeroSkipOnly,
    /// Sibia: symmetric activations, its own zero-vector sparsity.
    Sibia,
    /// Dense designs: sparsity ignored.
    Dense,
}

/// Converts a measured layer profile into the simulator descriptor under
/// the given engine's semantics.
pub fn to_layer_work(p: &LayerProfile, engine: EngineKind) -> LayerWork {
    let (rho_w, rho_x, x_planes) = match engine {
        EngineKind::Panacea => (p.rho_w, p.rho_x, p.spec.act_lo_slices + 1),
        EngineKind::PanaceaZeroSkipOnly => (p.rho_w, p.rho_x_zero_only, p.spec.act_lo_slices + 1),
        // Sibia's symmetric (3k+4)-bit activations use the same number of
        // slices as its weights' format family.
        EngineKind::Sibia => (p.rho_w, p.rho_x_sibia, p.spec.act_lo_slices + 1),
        EngineKind::Dense => (0.0, 0.0, p.spec.act_lo_slices + 1),
    };
    LayerWork {
        name: p.spec.name.clone(),
        m: p.spec.m,
        k: p.spec.k,
        n: p.spec.n,
        count: p.spec.count,
        w_planes: usize::from((p.spec.weight_bits - 4) / 3) + 1,
        x_planes,
        rho_w,
        rho_x,
    }
}

/// The full iso-resource comparison set: SA-WS, SA-OS, SIMD, Sibia and a
/// Panacea instance with the given configuration.
pub struct ComparisonSet {
    /// Panacea under `cfg`.
    pub panacea: PanaceaSim,
    /// Sibia under the same budget.
    pub sibia: SibiaSim,
    /// SIMD under the same budget.
    pub simd: SimdSim,
    /// Weight-stationary systolic array.
    pub sa_ws: SystolicSim,
    /// Output-stationary systolic array.
    pub sa_os: SystolicSim,
}

impl ComparisonSet {
    /// Builds the set with a shared default budget.
    pub fn new(cfg: PanaceaConfig) -> Self {
        let budget = cfg.budget;
        ComparisonSet {
            panacea: PanaceaSim::new(cfg),
            sibia: SibiaSim::new(budget),
            simd: SimdSim::new(budget),
            sa_ws: SystolicSim::new(SystolicFlow::WeightStationary, budget),
            sa_os: SystolicSim::new(SystolicFlow::OutputStationary, budget),
        }
    }

    /// Default configuration set.
    pub fn default_set() -> Self {
        ComparisonSet::new(PanaceaConfig::default())
    }

    /// The shared budget.
    pub fn budget(&self) -> HardwareBudget {
        self.panacea.config().budget
    }

    /// Baselines in the paper's order (SA-WS, SA-OS, SIMD, Sibia).
    pub fn baselines(&self) -> [&dyn Accelerator; 4] {
        [&self.sa_ws, &self.sa_os, &self.simd, &self.sibia]
    }

    /// Simulates `model` on SA-WS, SA-OS, SIMD, Sibia and Panacea, in that
    /// order, each fed the layer work its own engine semantics see.
    pub(crate) fn compare(&self, model: &Model) -> [ModelPerf; 5] {
        let clock = self.budget().clock_mhz;
        let dense = model.work(EngineKind::Dense);
        [
            simulate_model(&self.sa_ws, &dense, clock),
            simulate_model(&self.sa_os, &dense, clock),
            simulate_model(&self.simd, &dense, clock),
            simulate_model(&self.sibia, &model.work(EngineKind::Sibia), clock),
            simulate_model(&self.panacea, &model.work(EngineKind::Panacea), clock),
        ]
    }
}

/// One benchmark model and its measured layer profiles.
pub(crate) struct Model {
    /// The layer inventory that was profiled.
    pub(crate) spec: ModelSpec,
    /// One profile per layer of `spec`.
    pub(crate) layers: Vec<LayerProfile>,
}

/// Model-level SQNR (dB) of each activation scheme: per-layer SQNRs
/// aggregated by MAC share.
pub(crate) struct Sqnr {
    /// Symmetric activations (Sibia's format).
    pub(crate) sym: f64,
    /// Plain asymmetric activations (the dense 8-bit designs).
    pub(crate) asym: f64,
    /// Asymmetric with the DBS truncation Panacea pays.
    pub(crate) dbs: f64,
}

impl Sqnr {
    /// The SQNR each design of [`ComparisonSet::compare`] runs at.
    pub(crate) fn by_design(&self) -> [f64; 5] {
        [self.asym, self.asym, self.asym, self.sym, self.dbs]
    }
}

impl Model {
    /// The model's layers as simulator work under `engine`.
    pub(crate) fn work(&self, engine: EngineKind) -> Vec<LayerWork> {
        self.layers
            .iter()
            .map(|p| to_layer_work(p, engine))
            .collect()
    }

    /// Aggregate SQNR of each activation scheme.
    pub(crate) fn sqnr(&self) -> Sqnr {
        let agg = |f: fn(&LayerProfile) -> f64| {
            let per_layer: Vec<_> = self
                .layers
                .iter()
                .map(|p| (f(p), p.spec.total_macs()))
                .collect();
            aggregate_sqnr_db(&per_layer)
        };
        Sqnr {
            sym: agg(|p| p.sqnr_sym_db),
            asym: agg(|p| p.sqnr_asym_db),
            dbs: agg(|p| p.sqnr_dbs_db),
        }
    }

    /// Quality proxy at `sqnr_db`: perplexity for language models, top-1
    /// accuracy (%) otherwise.
    pub(crate) fn quality(&self, sqnr_db: f64) -> f64 {
        if self.spec.quality_is_ppl {
            perplexity_proxy(self.spec.fp16_quality, sqnr_db)
        } else {
            self.spec.fp16_quality - accuracy_loss_pp(sqnr_db)
        }
    }
}

/// Every distinct profiling pass the figures read, each run once.
pub struct Profiles {
    /// Every benchmark at [`ProfileOptions::default`] (ZPM + DBS, 7-bit
    /// weights), in [`Benchmark::all`] order.
    pub(crate) models: [Model; 9],
    /// DeiT-base at [`ProfileOptions::baseline`] (Fig. 14(a)).
    pub(crate) deit_baseline: Model,
    /// GPT-2 at [`ProfileOptions::baseline`] (Fig. 15 ablation).
    pub(crate) gpt2_baseline: Model,
    /// GPT-2 with ZPM but no DBS (Fig. 15 ablation).
    pub(crate) gpt2_zpm_only: Model,
    /// OPT-2.7B with 4-bit weights (Fig. 19).
    pub(crate) opt_4bit: Model,
}

impl Profiles {
    /// Runs the 13 profiling passes.
    pub fn build() -> Self {
        let run = |spec: ModelSpec, opts: ProfileOptions| Model {
            layers: profile_model(&spec, &opts),
            spec,
        };
        let mut opt_4bit = Benchmark::Opt2_7b.spec();
        for l in &mut opt_4bit.layers {
            l.weight_bits = 4;
        }
        let zpm_only = ProfileOptions {
            dbs: None,
            ..ProfileOptions::default()
        };
        Profiles {
            models: Benchmark::all().map(|b| run(b.spec(), ProfileOptions::default())),
            deit_baseline: run(Benchmark::DeitBase.spec(), ProfileOptions::baseline()),
            gpt2_baseline: run(Benchmark::Gpt2.spec(), ProfileOptions::baseline()),
            gpt2_zpm_only: run(Benchmark::Gpt2.spec(), zpm_only),
            opt_4bit: run(opt_4bit, ProfileOptions::default()),
        }
    }

    /// `b` at the default options.
    pub(crate) fn model(&self, b: Benchmark) -> &Model {
        let i = Benchmark::all().iter().position(|&x| x == b);
        &self.models[i.expect("every benchmark is profiled")]
    }
}

/// One printed table.
pub struct Table {
    /// Title, printed as `== title ==`.
    pub title: String,
    /// Column headers.
    pub headers: Vec<&'static str>,
    /// Cells, row-major.
    pub rows: Vec<Vec<String>>,
}

/// One claim of the paper held to a measured value.
pub struct Check {
    /// The direction that must hold.
    pub claim: &'static str,
    /// The paper's number, or `—` where the paper states only a direction.
    pub paper: &'static str,
    /// What this reproduction measures.
    pub measured: String,
    /// Whether `claim` holds on the measurement.
    pub holds: bool,
}

/// One table or figure of the paper: what it prints and what it checks.
pub struct Figure {
    /// Stable identifier, e.g. `fig16_models`.
    pub id: &'static str,
    /// Tables, in print order.
    pub tables: Vec<Table>,
    /// Claims, each with its measurement.
    pub checks: Vec<Check>,
}

/// Builds a [`Table`]; `headers` separates the column headers with `|`.
pub(crate) fn table(
    title: impl Into<String>,
    headers: &'static str,
    rows: Vec<Vec<String>>,
) -> Table {
    Table {
        title: title.into(),
        headers: headers.split('|').collect(),
        rows,
    }
}

/// Prints every table and check, writes all figures to `json_path` as
/// `{figures: [{id, tables: [{title, headers, rows}], checks: [{claim,
/// paper, measured, holds}]}]}`, and returns whether every check held.
///
/// # Errors
///
/// Returns the error of writing `json_path`.
pub fn report(figures: &[Figure], json_path: &Path) -> std::io::Result<bool> {
    let mut doc = vec![];
    for fig in figures {
        for t in &fig.tables {
            println!("{}", render_table(&t.title, &t.headers, &t.rows));
        }
        for c in &fig.checks {
            let verdict = if c.holds { "holds" } else { "FAILS" };
            println!(
                "[{verdict}] {}: {} (paper: {})",
                c.claim, c.measured, c.paper
            );
        }
        let tables: Vec<Value> = (fig.tables.iter())
            .map(|t| {
                json!({
                    "title": t.title.as_str(),
                    "headers": t.headers.clone(),
                    "rows": t.rows.clone(),
                })
            })
            .collect();
        let checks: Vec<Value> = (fig.checks.iter())
            .map(|c| {
                json!({
                    "claim": c.claim,
                    "paper": c.paper,
                    "measured": c.measured.as_str(),
                    "holds": c.holds,
                })
            })
            .collect();
        doc.push(json!({ "id": fig.id, "tables": tables, "checks": checks }));
    }
    let text = serde_json::to_string_pretty(&json!({ "figures": doc })).expect("never fails");
    std::fs::write(json_path, text + "\n")?;
    let checks: Vec<&Check> = figures.iter().flat_map(|f| &f.checks).collect();
    let failed = checks.iter().filter(|c| !c.holds).count();
    println!(
        "\n{}: {} checks, {failed} failed",
        json_path.display(),
        checks.len()
    );
    Ok(failed == 0)
}

/// Renders an aligned text table.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    let header_line: Vec<String> = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!("{h:>w$}"))
        .collect();
    out.push_str(&header_line.join("  "));
    out.push('\n');
    out.push_str(&"-".repeat(header_line.join("  ").len()));
    out.push('\n');
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        out.push_str(&line.join("  "));
        out.push('\n');
    }
    out
}

/// Formats a float with 3 significant decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a ratio as `×N.NN`.
pub fn ratio(v: f64) -> String {
    format!("x{v:.2}")
}

/// Formats a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use panacea_models::profile::{profile_layer, ProfileOptions};
    use panacea_models::zoo::Benchmark;
    use serde_json::Value;

    #[test]
    fn conversion_uses_engine_semantics() {
        let spec = &Benchmark::DeitBase.spec().layers[0];
        let opts = ProfileOptions {
            sample_m: 64,
            sample_k: 64,
            sample_n: 64,
            ..ProfileOptions::default()
        };
        let p = profile_layer(spec, &opts);
        let pan = to_layer_work(&p, EngineKind::Panacea);
        let dense = to_layer_work(&p, EngineKind::Dense);
        assert_eq!(dense.rho_x, 0.0);
        assert!(pan.rho_x >= dense.rho_x);
        assert_eq!(pan.m, spec.m);
        assert_eq!(pan.w_planes, 2);
    }

    #[test]
    fn table_renders_all_rows() {
        let s = render_table("t", &["a", "bb"], &[vec!["1".into(), "2".into()]]);
        assert!(s.contains("bb"));
        assert!(s.contains('1'));
    }

    #[test]
    fn comparison_set_builds() {
        let set = ComparisonSet::default_set();
        assert_eq!(set.baselines().len(), 4);
        assert_eq!(set.panacea.name(), "Panacea");
    }

    fn figure(holds: [bool; 2]) -> Figure {
        let rows = vec![vec!["1".to_string(), "2".to_string()]];
        let checks = holds
            .map(|holds| Check {
                claim: "c",
                paper: "—",
                measured: "m".into(),
                holds,
            })
            .into();
        let tables = vec![table("t", "a|b", rows)];
        Figure {
            id: "f",
            tables,
            checks,
        }
    }

    /// Reports `figures` to a temporary file; returns the verdict and the
    /// file parsed back.
    fn report_to_temp(figures: &[Figure], name: &str) -> (bool, Value) {
        let path = std::env::temp_dir().join(format!("{name}-{}.json", std::process::id()));
        let passed = report(figures, &path).expect("write report");
        let text = std::fs::read_to_string(&path).expect("read report");
        std::fs::remove_file(&path).expect("remove report");
        (passed, serde_json::from_str(&text).expect("report is JSON"))
    }

    #[test]
    fn one_failing_check_fails_the_run() {
        assert!(report_to_temp(&[figure([true, true])], "repro-pass").0);
        let mixed = [figure([true, true]), figure([true, false])];
        assert!(!report_to_temp(&mixed, "repro-fail").0);
    }

    #[test]
    fn written_json_parses_with_every_field() {
        let (_, doc) = report_to_temp(&[figure([true, false])], "repro-json");
        let list = |v: &Value, key: &str| v.get(key).and_then(Value::as_array).cloned();
        let fig = &list(&doc, "figures").expect("figures")[0];
        assert_eq!(fig.get("id").and_then(Value::as_str), Some("f"));
        let t = &list(fig, "tables").expect("tables")[0];
        assert_eq!(t.get("title").and_then(Value::as_str), Some("t"));
        assert_eq!(list(t, "headers").map(|h| h.len()), Some(2));
        assert_eq!(list(t, "rows").map(|r| r.len()), Some(1));
        let checks = list(fig, "checks").expect("checks");
        let holds: Vec<_> = checks
            .iter()
            .map(|c| c.get("holds").and_then(Value::as_bool))
            .collect();
        assert_eq!(holds, [Some(true), Some(false)]);
        for key in ["claim", "paper", "measured"] {
            assert!(
                checks[0].get(key).and_then(Value::as_str).is_some(),
                "{key}"
            );
        }
    }
}
