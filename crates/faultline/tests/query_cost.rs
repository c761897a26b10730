//! What an armed fault site costs the code that queries it: with an
//! armed empty plan and two threads querying five sites round-robin, the
//! median [`point`] query takes at most 60 ns.
//!
//! The bound comes from the serving stack, not from this crate. A toy
//! serve-layer decode step (2 blocks, `d_model` 32) takes ≈ 70 µs and
//! crosses ≈ 5 sites, so 1 % of a step is ≈ 140 ns per query. 60 ns keeps
//! a margin under that for a loaded machine. A query that takes the
//! registry lock and clones the plan's `Arc` on every call costs several
//! hundred nanoseconds once two threads contend for it.
//!
//! Own test binary (process) on purpose: a timing bound must not share
//! the CPU with other tests, and the plan it arms is process-wide.

use std::hint::black_box;
use std::time::Instant;

use panacea_faultline::{point, FaultPlan, Scenario};

const SITES: [&str; 5] = [
    "serve.session.step",
    "serve.decode.fused_pass",
    "netcore.read",
    "netcore.dispatch",
    "netcore.write",
];
const THREADS: usize = 2;
const TRIALS: usize = 15;
const QUERIES_PER_TRIAL: usize = 100_000;
const BUDGET_NS: f64 = 60.0;

/// Nanoseconds per query for each trial of one querying thread.
fn trials() -> Vec<f64> {
    // The first armed query on a thread refreshes its copy of the plan
    // under the registry lock; the steady state is what is bounded.
    point(SITES[0]);
    (0..TRIALS)
        .map(|_| {
            let begun = Instant::now();
            for i in 0..QUERIES_PER_TRIAL {
                black_box(point(black_box(SITES[i % SITES.len()])));
            }
            begun.elapsed().as_nanos() as f64 / QUERIES_PER_TRIAL as f64
        })
        .collect()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "a timing bound: run with --release")]
fn an_armed_site_query_costs_at_most_60_ns() {
    let guard = FaultPlan::compile(0, &Scenario::new()).arm();
    let mut ns: Vec<f64> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..THREADS).map(|_| s.spawn(trials)).collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("querying thread"))
            .collect()
    });
    assert!(guard.firings().is_empty(), "an empty plan fired");
    drop(guard);
    ns.sort_by(f64::total_cmp);
    let median = ns[ns.len() / 2];
    assert!(
        median <= BUDGET_NS,
        "an armed query took {median:.1} ns (median of {} trials on {THREADS} threads)",
        ns.len()
    );
}
