//! Reproduces the paper's tables and figures in one run.
//!
//! Profiles every benchmark once, runs each figure function of
//! [`panacea_bench::figures`], prints its tables and checks, and writes
//! them all to `REPRO.json`. Exits non-zero after writing the file if any
//! check does not hold.
//!
//! Run with: `cargo run --release -p panacea-bench --bin repro`

use std::path::Path;
use std::process::ExitCode;

use panacea_bench::figures::FIGURES;
use panacea_bench::{report, Figure, Profiles};

fn main() -> ExitCode {
    let profiles = Profiles::build();
    let figures: Vec<Figure> = FIGURES.iter().map(|figure| figure(&profiles)).collect();
    match report(&figures, Path::new("REPRO.json")).expect("write REPRO.json") {
        true => ExitCode::SUCCESS,
        false => ExitCode::FAILURE,
    }
}
