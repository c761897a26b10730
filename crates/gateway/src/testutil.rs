//! Shared fixtures for this crate's unit and integration tests: small
//! prepared models and deterministic request codes and hidden states.
//! `#[doc(hidden)]` public so the TCP integration tests (and the
//! workspace-level facade tests) reuse the exact same fixtures instead
//! of re-implementing them; not part of the supported API.
//!
//! They live in `panacea_serve::testutil` (the crate that already
//! depends on the block engine), so the gateway's production dependency
//! graph stays serve + tensor.

pub use panacea_serve::testutil::{block_model, codes, direct_forward, hidden, models};
