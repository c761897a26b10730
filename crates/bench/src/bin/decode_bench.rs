//! Continuous-batching decode throughput, machine-readable.
//!
//! Measures aggregate decode tokens/s for N concurrent sessions under
//! two executions of the exact same work:
//!
//! * **solo** — serial per-session stepping ([`decode_step`]), the
//!   pre-batching behavior: every single-token step runs the block
//!   stack at GEMM width 1;
//! * **batched** — one fused pass per round ([`decode_step_batch`]):
//!   all N sessions' new-token columns share one QKV/proj/fc1/fc2 GEMM
//!   pass per block, attention per session.
//!
//! Both paths are bit-identical per session (asserted here on the first
//! round); the difference is purely GEMM width: one walk of each weight
//! and one pass's fixed costs per round instead of one per session. The
//! results are written to `BENCH_decode.json` so the repo's decode perf
//! trajectory is tracked across PRs, and the 8-session speedup is gated
//! so CI catches a regression that serializes decode again.
//!
//! A faultline A/B section drives serve-layer decode (the session
//! manager's batching worker, whose fused pass hosts the
//! `serve.decode.fused_pass` chaos hook) with no plan armed vs an armed
//! empty plan, and gates the difference at ≤1% of tokens/s. The armed
//! no-op arm upper-bounds the hook's cost — disarmed sites are a single
//! relaxed atomic load, strictly cheaper than the armed path being
//! measured — so fault injection provably never taxes production decode.
//!
//! Run with: `cargo run --release -p panacea-bench --bin decode_bench`

use std::sync::Arc;
use std::time::Instant;

use panacea_block::{decode_step, decode_step_batch, KvCache, QuantizedBlock};
use panacea_faultline::{FaultPlan, Scenario};
use panacea_models::engine::TransformerConfig;
use panacea_models::zoo::Benchmark;
use panacea_serve::testutil::{block_model, block_stack, hidden};
use panacea_serve::{PreparedModel, SessionConfig, SessionManager};
use panacea_tensor::Matrix;
use serde_json::{json, Value};

const D_MODEL: usize = 32;
const N_BLOCKS: usize = 2;
const PREFIX: usize = 32;
const ROUNDS: usize = 48;
const SESSION_COUNTS: [usize; 4] = [1, 4, 8, 16];
/// The regression gate: fused 8-session decode must beat serial
/// stepping by at least this factor. A solo step multiplies only its one
/// column, so fusion buys the shared weight stream and per-pass
/// overhead, not MACs: 1.42–1.55× measured on a 2-core x86-64 host.
const GATED_SESSIONS: usize = 8;
const GATED_SPEEDUP: f64 = 1.25;
/// Faultline gate: fused decode through the session manager's batching
/// worker with an armed (but empty) fault plan must stay within this
/// fraction of the no-plan baseline. Best-of-N on each arm so scheduler
/// noise doesn't fail the gate spuriously.
const OVERHEAD_TRIALS: usize = 5;
const MAX_FAULTLINE_OVERHEAD: f64 = 0.01;
/// Single-token steps per faultline trial: ≈ 35 ms at ≈ 30 k tokens/s, so
/// one scheduler preemption costs a trial well under the 1 % bound.
const FAULTLINE_ROUNDS: usize = 1024;

fn token(salt: usize) -> Matrix<f32> {
    Matrix::from_fn(D_MODEL, 1, |r, _| {
        (((r * 29 + salt * 11 + 3) % 89) as f32 - 44.0) / 22.0
    })
}

fn prefilled(blocks: &[QuantizedBlock], sessions: usize) -> Vec<KvCache> {
    (0..sessions)
        .map(|s| {
            let prefix = Matrix::from_fn(D_MODEL, PREFIX, |r, c| {
                (((r * 29 + c * 11 + s * 7) % 89) as f32 - 44.0) / 22.0
            });
            let mut kv = KvCache::for_blocks(blocks);
            decode_step(blocks, &prefix, &mut kv);
            kv
        })
        .collect()
}

/// One serve-layer decode trial: a fresh session stepping
/// [`FAULTLINE_ROUNDS`] single tokens through the session manager's
/// batching worker, so every step crosses the `serve.decode.fused_pass`
/// fault site exactly where production decode does. Returns tokens/s.
fn site_trial(mgr: &SessionManager, model: &Arc<PreparedModel>) -> f64 {
    let d_model = model.in_features();
    let session = mgr.open(Arc::clone(model)).expect("session open");
    let started = Instant::now();
    for i in 0..FAULTLINE_ROUNDS {
        mgr.step(session, &hidden(d_model, 1, i)).expect("step");
    }
    let tps = FAULTLINE_ROUNDS as f64 / started.elapsed().as_secs_f64();
    mgr.close(session).expect("session close");
    tps
}

fn main() {
    let cfg = TransformerConfig {
        d_model: D_MODEL,
        n_heads: 4,
        d_ff: 64,
        n_layers: N_BLOCKS,
    };
    let blocks = block_stack(Benchmark::Gpt2, cfg, 17);
    println!(
        "continuous-batching decode bench ({N_BLOCKS} blocks, d_model={D_MODEL}, \
         prefix={PREFIX}, {ROUNDS} tokens/session)"
    );
    println!(
        "{:>9}  {:>14}  {:>16}  {:>8}",
        "sessions", "solo tok/s", "batched tok/s", "speedup"
    );

    let mut rows: Vec<Value> = Vec::new();
    let mut gated_speedup = 0.0f64;
    for &sessions in &SESSION_COUNTS {
        let tokens: Vec<Matrix<f32>> = (0..sessions).map(token).collect();
        let refs: Vec<&Matrix<f32>> = tokens.iter().collect();
        let stacked = Matrix::hstack(&refs).expect("same width");
        let segments = vec![1usize; sessions];

        // Bit-exactness spot check: the first fused round must equal
        // the first solo round, per session.
        {
            let mut solo = prefilled(&blocks, sessions);
            let mut fused = solo.clone();
            let solo_outs: Vec<Matrix<f32>> = tokens
                .iter()
                .zip(&mut solo)
                .map(|(t, kv)| decode_step(&blocks, t, kv).0)
                .collect();
            let mut kv_refs: Vec<&mut KvCache> = fused.iter_mut().collect();
            let (out, _) = decode_step_batch(&blocks, &stacked, &segments, &mut kv_refs);
            for (s, solo_out) in solo_outs.iter().enumerate() {
                for r in 0..D_MODEL {
                    assert_eq!(
                        out[(r, s)].to_bits(),
                        solo_out[(r, 0)].to_bits(),
                        "fused decode diverged from solo at session {s}, row {r}"
                    );
                }
            }
        }

        // Solo: serial per-session stepping, one GEMM pass per step.
        let mut solo = prefilled(&blocks, sessions);
        let started = Instant::now();
        for _ in 0..ROUNDS {
            for (t, kv) in tokens.iter().zip(&mut solo) {
                decode_step(&blocks, t, kv);
            }
        }
        let solo_tps = (sessions * ROUNDS) as f64 / started.elapsed().as_secs_f64();

        // Batched: one fused pass per round across all sessions.
        let mut fused = prefilled(&blocks, sessions);
        let started = Instant::now();
        for _ in 0..ROUNDS {
            let mut kv_refs: Vec<&mut KvCache> = fused.iter_mut().collect();
            decode_step_batch(&blocks, &stacked, &segments, &mut kv_refs);
        }
        let batched_tps = (sessions * ROUNDS) as f64 / started.elapsed().as_secs_f64();

        let speedup = batched_tps / solo_tps;
        if sessions == GATED_SESSIONS {
            gated_speedup = speedup;
        }
        println!("{sessions:>9}  {solo_tps:>14.1}  {batched_tps:>16.1}  {speedup:>7.2}x");
        rows.push(json!({
            "sessions": sessions,
            "solo_tokens_per_s": solo_tps,
            "batched_tokens_per_s": batched_tps,
            "speedup": speedup,
        }));
    }

    // Faultline overhead A/B: serve-layer decode with no plan armed vs
    // an armed empty plan. Arms are interleaved per trial so clock/thermal
    // drift taxes both equally, and each arm takes its best of
    // OVERHEAD_TRIALS runs — best-of is the right statistic for an
    // overhead bound because noise only ever slows a trial down.
    // Arming serializes on the global plan lock, so the armed arm holds
    // one guard across its trials and the disarmed arm runs outside it.
    let (fl_model, _) = block_model("faultline-ab", 19);
    let fl_model = Arc::new(fl_model);
    let mgr = SessionManager::new(SessionConfig::default());
    // warmup
    site_trial(&mgr, &fl_model);
    // The true effect is sub-noise (an armed query takes no lock), so a
    // pass that lands over the limit on a shared box is remeasured a
    // bounded number of times — only a cost the machine reproduces every
    // time fails the gate (same policy as the gateway exporter A/B).
    let mut attempts = 0usize;
    let (mut disarmed_tps, mut armed_tps, mut faultline_overhead);
    loop {
        attempts += 1;
        (disarmed_tps, armed_tps) = (0.0f64, 0.0f64);
        for _ in 0..OVERHEAD_TRIALS {
            disarmed_tps = disarmed_tps.max(site_trial(&mgr, &fl_model));
            let guard = FaultPlan::compile(0, &Scenario::new()).arm();
            armed_tps = armed_tps.max(site_trial(&mgr, &fl_model));
            drop(guard);
        }
        faultline_overhead = 1.0 - armed_tps / disarmed_tps;
        if faultline_overhead <= MAX_FAULTLINE_OVERHEAD || attempts == 3 {
            break;
        }
        println!(
            "faultline A/B: attempt {attempts} overhead {:.3} over limit — remeasuring",
            faultline_overhead
        );
    }
    println!(
        "faultline A/B (serve-layer decode): disarmed {disarmed_tps:.1} tok/s, \
         armed empty plan {armed_tps:.1} tok/s ({:+.2}% overhead)",
        faultline_overhead * 100.0
    );

    let report = json!({
        "bench": "decode_continuous_batching",
        "d_model": D_MODEL,
        "n_blocks": N_BLOCKS,
        "n_heads": 4,
        "d_ff": 64,
        "prefix_tokens": PREFIX,
        "tokens_per_session": ROUNDS,
        "results": Value::Array(rows),
        "faultline_overhead": json!({
            "rounds": FAULTLINE_ROUNDS,
            "disarmed_tokens_per_s": disarmed_tps,
            "armed_empty_tokens_per_s": armed_tps,
            "overhead_frac": faultline_overhead,
        }),
    });
    let encoded = serde_json::to_string(&report).expect("shim serializer never fails");
    std::fs::write("BENCH_decode.json", &encoded).expect("write BENCH_decode.json");
    println!("\nwrote BENCH_decode.json");

    assert!(
        gated_speedup >= GATED_SPEEDUP,
        "continuous batching regressed: {gated_speedup:.2}x at {GATED_SESSIONS} sessions \
         (need >= {GATED_SPEEDUP}x)"
    );
    println!("{GATED_SESSIONS}-session fused speedup {gated_speedup:.2}x >= {GATED_SPEEDUP}x ✓");

    assert!(
        armed_tps >= (1.0 - MAX_FAULTLINE_OVERHEAD) * disarmed_tps,
        "fault sites cost {:.2}% of serve-layer decode throughput with an \
         armed empty plan (gate: <= {:.0}%; disarmed sites are strictly cheaper)",
        faultline_overhead * 100.0,
        MAX_FAULTLINE_OVERHEAD * 100.0
    );
    println!(
        "faultline overhead {:+.2}% <= {:.0}% ✓",
        faultline_overhead * 100.0,
        MAX_FAULTLINE_OVERHEAD * 100.0
    );
}
