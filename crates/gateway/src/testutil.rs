//! Shared fixtures for this crate's unit and integration tests: small
//! prepared models and deterministic request codes. `#[doc(hidden)]`
//! public so the TCP integration tests (and the workspace-level facade
//! tests) reuse the exact same fixtures instead of re-implementing
//! them; not part of the supported API.

use panacea_serve::{LayerSpec, PrepareOptions, PreparedModel};
use panacea_tensor::dist::DistributionKind;
use panacea_tensor::Matrix;

// Block fixtures live in `panacea_serve::testutil` (the crate that
// already depends on the block engine), so the gateway's production
// dependency graph stays serve + tensor.
pub use panacea_serve::testutil::{block_model, direct_forward, hidden};

/// Prepares one 8×16 single-layer model per name, each calibrated on its
/// own Gaussian sample drawn from a seeded RNG.
pub fn models(names: &[&str], seed: u64) -> Vec<PreparedModel> {
    let mut rng = panacea_tensor::seeded_rng(seed);
    names
        .iter()
        .map(|name| {
            let w = DistributionKind::Gaussian {
                mean: 0.0,
                std: 0.05,
            }
            .sample_matrix(8, 16, &mut rng);
            let calib = DistributionKind::Gaussian {
                mean: 0.2,
                std: 0.5,
            }
            .sample_matrix(16, 16, &mut rng);
            PreparedModel::prepare(
                *name,
                &[LayerSpec::unbiased(w)],
                &calib,
                PrepareOptions::default(),
            )
            .expect("prepare")
        })
        .collect()
}

/// Deterministic in-range request codes for a prepared model.
pub fn codes(model: &PreparedModel, cols: usize, salt: usize) -> Matrix<i32> {
    Matrix::from_fn(model.in_features(), cols, |r, c| {
        ((r * 31 + c * 7 + salt * 13) % 200) as i32
    })
}
