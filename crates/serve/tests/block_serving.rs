//! Transformer-block requests through the full runtime: queueing,
//! dynamic batching, and split-back must be bit-exact versus direct
//! `QuantizedBlock` execution, for any mix of sequence lengths.

use std::sync::Arc;
use std::time::Duration;

use panacea_block::QuantizedBlock;
use panacea_serve::testutil::{
    block_model as shared_block_model, direct_forward as direct, hidden,
};
use panacea_serve::{
    BatchPolicy, ModelRegistry, Payload, PreparedModel, RequestCtx, Runtime, RuntimeConfig,
};
use panacea_tensor::Matrix;

fn block_model(seed: u64) -> (PreparedModel, Vec<QuantizedBlock>) {
    shared_block_model("decoder", seed)
}

#[test]
fn coalesced_block_requests_are_bit_exact_vs_direct_execution() {
    let (model, blocks) = block_model(50);
    let registry = Arc::new(ModelRegistry::new());
    let shared = registry.insert(model);
    // One worker + generous linger: queued sequences must coalesce into
    // one wide GEMM pass while attention stays per sequence.
    let runtime = Runtime::start(
        Arc::clone(&registry),
        RuntimeConfig {
            workers: 1,
            policy: BatchPolicy {
                max_batch: 64,
                max_wait: Duration::from_millis(50),
            },
        },
    );
    let inputs: Vec<Matrix<f32>> = [1usize, 3, 2, 5, 1]
        .iter()
        .enumerate()
        .map(|(i, &w)| hidden(16, w, i))
        .collect();
    let pending: Vec<_> = inputs
        .iter()
        .map(|x| {
            runtime
                .submit(Arc::clone(&shared), x.clone(), RequestCtx::default())
                .expect("queued")
        })
        .collect();
    for (x, p) in inputs.iter().zip(pending) {
        let out = p.wait().expect("served");
        assert!(
            matches!(out.payload, Payload::Hidden(_)),
            "block responses must carry hidden states"
        );
        assert_eq!(
            out.to_f32(),
            direct(&blocks, x),
            "runtime block serving diverged from direct execution"
        );
    }
    let m = runtime.metrics();
    assert_eq!(m.requests, 5);
    assert!(
        m.batches < 5,
        "5 lingering sequences should share batches, got {}",
        m.batches
    );
}

#[test]
fn non_finite_block_request_is_rejected_at_submission() {
    let (model, _) = block_model(51);
    let registry = Arc::new(ModelRegistry::new());
    registry.insert(model);
    let runtime = Runtime::start(Arc::clone(&registry), RuntimeConfig::default());
    let nan = Matrix::from_fn(16, 2, |_, _| f32::NAN);
    assert!(matches!(
        runtime.infer("decoder", nan),
        Err(panacea_serve::ServeError::NonFiniteInput)
    ));
}

#[test]
fn payload_kind_mismatches_are_rejected_at_submission() {
    let (model, _) = block_model(52);
    let registry = Arc::new(ModelRegistry::new());
    registry.insert(model);
    let runtime = Runtime::start(Arc::clone(&registry), RuntimeConfig::default());
    // Codes against a block model: caught by validate, in one place.
    assert!(matches!(
        runtime.infer("decoder", Matrix::<i32>::zeros(16, 2)),
        Err(panacea_serve::ServeError::PayloadKindMismatch {
            model_is_block: true,
            ..
        })
    ));
}
