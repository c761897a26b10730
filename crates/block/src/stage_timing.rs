//! Per-thread sub-layer timing for block execution.
//!
//! Every [`QuantizedBlock`](crate::QuantizedBlock) pass adds the time
//! of its five sub-stages — the QKV GEMM, attention, the output
//! projection, and the two MLP GEMMs — to a thread-local accumulator
//! (two `Instant::now()` calls per stage, negligible next to a GEMM).
//! The durations leave this crate as data: a serving layer wraps a
//! model pass in [`with_stage_times`] and records what it gets back
//! under its own model's name.

use std::cell::Cell;
use std::time::{Duration, Instant};

/// The timed sub-stages, in [`StageTimes`] order.
pub const STAGE_NAMES: [&str; 5] = ["qkv", "attn", "proj", "fc1", "fc2"];

/// Time spent in each sub-stage, indexed like [`STAGE_NAMES`].
pub type StageTimes = [Duration; 5];

thread_local! {
    static TIMES: Cell<StageTimes> = const { Cell::new([Duration::ZERO; 5]) };
}

/// One of the five timed sub-stages of a block pass.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stage {
    Qkv,
    Attn,
    Proj,
    Fc1,
    Fc2,
}

/// Adds the time since `started` to this thread's total for `stage`.
pub(crate) fn stage_end(stage: Stage, started: Instant) {
    TIMES.with(|t| {
        let mut times = t.get();
        times[stage as usize] += started.elapsed();
        t.set(times);
    });
}

/// Runs `f` and returns, next to its result, how long the block passes
/// it executed on this thread spent in each sub-stage (summed over the
/// blocks of a stack; all zero if `f` ran no block).
pub fn with_stage_times<T>(f: impl FnOnce() -> T) -> (T, StageTimes) {
    TIMES.with(|t| t.set([Duration::ZERO; 5]));
    let out = f();
    (out, TIMES.with(|t| t.replace([Duration::ZERO; 5])))
}
