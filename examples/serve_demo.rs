//! Serving walkthrough: 48 concurrent requests through one shared
//! `PreparedModel` at batch budgets {1, 8, 32}, printing throughput, the
//! batches the runtime formed, and whether every batched output equals
//! running that request alone. `crates/serve/tests/batching_exactness.rs`
//! owns that equality; this only shows it.
//!
//! Run with: `cargo run --release --example serve_demo`

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use panacea::models::engine::{TinyTransformer, TransformerConfig};
use panacea::serve::{
    BatchPolicy, ModelRegistry, Payload, PrepareOptions, PreparedModel, RequestCtx, Runtime,
    RuntimeConfig,
};
use panacea::tensor::{dist::DistributionKind, seeded_rng};

const REQUESTS: usize = 48;
const COLS_PER_REQUEST: usize = 2;

fn main() {
    // A real layer from the transformer engine, block0.fc2, calibrated
    // on its genuine post-GELU activations.
    let engine = TinyTransformer::new_random(TransformerConfig::default(), 7);
    let mut rng = seeded_rng(8);
    let gaussian = |mean, std| DistributionKind::Gaussian { mean, std };
    let x = gaussian(0.0, 1.0).sample_matrix(64, 32, &mut rng);
    let capture = engine
        .captured_layers(&x)
        .into_iter()
        .find(|c| c.name == "block0.fc2")
        .expect("fc2 captured");
    let registry = Arc::new(ModelRegistry::new());
    let model = registry
        .insert(PreparedModel::from_capture(&capture, PrepareOptions::default()).expect("prepare"));
    println!(
        "prepared {} ({:?} weights)",
        capture.name,
        capture.weight.shape()
    );

    let requests: Vec<Payload> = (0..REQUESTS)
        .map(|_| {
            let f =
                gaussian(0.4, 0.3).sample_matrix(model.in_features(), COLS_PER_REQUEST, &mut rng);
            model.quantize(&f)
        })
        .collect();
    let alone: Vec<Payload> = requests.iter().map(|p| model.forward(p).0).collect();

    println!("\nmax_batch  workers  cols/s   cols/batch  batches  = alone");
    for (max_batch, workers) in [(1usize, 1usize), (8, 2), (32, 4)] {
        let policy = BatchPolicy {
            max_batch,
            max_wait: Duration::from_millis(2),
        };
        let runtime = Runtime::start(Arc::clone(&registry), RuntimeConfig { workers, policy });
        let started = Instant::now();
        // Six submitters, each with all eight of its requests in flight.
        let served: Vec<Payload> = thread::scope(|s| {
            let submitters: Vec<_> = requests
                .chunks(8)
                .map(|chunk| {
                    let (runtime, model) = (&runtime, &model);
                    s.spawn(move || {
                        let pending: Vec<_> = chunk
                            .iter()
                            .map(|p| {
                                runtime
                                    .submit(Arc::clone(model), p.clone(), RequestCtx::default())
                                    .expect("queued")
                            })
                            .collect();
                        pending
                            .into_iter()
                            .map(|p| p.wait().expect("served").payload)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            submitters
                .into_iter()
                .flat_map(|h| h.join().expect("submitter"))
                .collect()
        });
        let secs = started.elapsed().as_secs_f64();
        // The shard's counter block, as the gateway's `stats` reports it.
        let m = runtime.metrics();
        println!(
            "{max_batch:>9}  {workers:>7}  {:>6.0}  {:>10.1}  {:>7}  {}",
            (REQUESTS * COLS_PER_REQUEST) as f64 / secs,
            m.columns as f64 / m.batches.max(1) as f64,
            m.batches,
            if served == alone { "yes" } else { "NO" }
        );
    }
}
