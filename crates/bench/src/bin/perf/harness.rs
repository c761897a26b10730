//! The workload-independent part of the harness: geometry, the
//! [`Scenario`] contract every workload implements, the closed-loop load
//! driver, and the untraced (end-to-end) and traced (per-layer) runs.

use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::ladder;
use crate::stats::{median, percentile, LatencySummary};
use crate::trace::{per_op_times, Recorder, Span};

/// Shapes of every workload. Geometry is a parameter so the tier-1 smoke
/// tests can drive the identical code path at a toy size; the
/// benchmark itself always runs [`Geometry::PAPER`].
#[derive(Debug, Clone, Copy)]
pub struct Geometry {
    pub d_model: usize,
    pub n_heads: usize,
    pub d_ff: usize,
    /// Tokens in the block calibration sample.
    pub calib_tokens: usize,
    /// Tokens per `infer_bert` sequence.
    pub seq: usize,
    /// Tokens each `decode_bert` session is prefilled with in set-up.
    pub prefill: usize,
    /// Output rows of the `wire_thin` linear layer.
    pub thin_rows: usize,
    /// Columns of a `wire_thin` codes payload. At 16 an op's buffers
    /// (payload, its JSON value tree and line, on both sides of the
    /// wire) stay well within a core's 4 MB L2; at 32 and 64 the op ran
    /// 1.45× slower whenever the sandbox's neighbours were busy in the
    /// shared L3, flipping within minutes.
    pub thin_cols: usize,
    /// Columns of a `gemm_rho` activation matrix.
    pub ladder_cols: usize,
}

impl Geometry {
    /// One BERT-base block (768/12/3072).
    pub const PAPER: Geometry = Geometry {
        d_model: 768,
        n_heads: 12,
        d_ff: 3072,
        calib_tokens: 64,
        seq: 16,
        prefill: 32,
        thin_rows: 8,
        thin_cols: 16,
        ladder_cols: 16,
    };

    /// `d_model 16`: seconds, not minutes, under `cargo test`.
    #[cfg(test)]
    pub const TOY: Geometry = Geometry {
        d_model: 16,
        n_heads: 2,
        d_ff: 32,
        calib_tokens: 24,
        seq: 8,
        prefill: 4,
        thin_rows: 8,
        thin_cols: 8,
        ladder_cols: 8,
    };
}

/// What one op reported back to the load driver.
#[derive(Debug, Clone, Copy)]
pub struct OpOutcome {
    /// Caller-observed latency of the call(s) into the program, without
    /// input generation or verification.
    pub latency: Duration,
    /// The reply arrived, succeeded, and has the right shape (and, for a
    /// repeated payload, the same content as its first reply).
    pub ok: bool,
    /// `Some` when the op was verified bit-exactly against the direct
    /// reference (every warm-up op is).
    pub exact: Option<bool>,
}

/// A workload: how to set the program up, connect a client, run one op,
/// and peel the stack for the traced run.
pub trait Scenario: Sized + Sync {
    /// Per-client state: its connection or local inputs, its seed
    /// stream, whatever it needs to verify replies.
    type Client: Send;

    /// Spans that root one peeled op (their durations add up to it).
    const ROOT_SPANS: &'static [&'static str];

    /// Closed-loop callers (≤ the sandbox's 2 cores).
    const CLIENTS: usize;
    /// Verified ops each client runs before the timed phase.
    const WARMUP_OPS: usize;

    /// Weight generation, calibration, prepare, bind.
    fn build(geo: Geometry, seed: u64) -> Self;
    /// Activation/token columns one op completes.
    fn cols_per_op(&self) -> usize;
    /// Connects client `idx`; still part of set-up (session prefill).
    fn connect(&self, idx: usize) -> Self::Client;
    /// Runs one op; `verify` adds the bit-exact reference check.
    fn op(&self, client: &mut Self::Client, verify: bool) -> OpOutcome;
    /// Single-threaded traced pass: records spans for at least
    /// `min_ops` peeled ops and until `budget` is spent, and returns
    /// the per-layer values that are not span times (counts, ratios).
    fn peel(&self, rec: &Recorder, min_ops: usize, budget: Duration)
        -> BTreeMap<&'static str, f64>;
    /// Adds the workload's own ratios of span metrics.
    fn derive(_metrics: &mut BTreeMap<&'static str, f64>) {}
}

/// How long the timed phase of a load runs.
#[derive(Debug, Clone, Copy)]
pub enum Timed {
    For(Duration),
    /// A fixed op count per client (smoke tests).
    #[cfg_attr(not(test), allow(dead_code))]
    Ops(usize),
}

/// Tallies of one load (or one whole run).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub attempted: u64,
    pub failed: u64,
    pub verified: u64,
    pub exact: u64,
}

impl Counts {
    fn add(&mut self, o: &OpOutcome) {
        self.attempted += 1;
        self.failed += u64::from(!o.ok);
        if let Some(exact) = o.exact {
            self.verified += 1;
            self.exact += u64::from(exact);
        }
    }

    fn merge(&mut self, other: Counts) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.verified += other.verified;
        self.exact += other.exact;
    }

    /// No op failed and every verified reply was bit-exact.
    pub fn clean(&self) -> bool {
        self.failed == 0 && self.exact == self.verified
    }
}

/// Result of one closed-loop load.
#[derive(Debug, Clone)]
pub struct Load {
    pub counts: Counts,
    pub latency: LatencySummary,
    /// Clients × columns per op ÷ the lower-quartile op cycle (one op's
    /// start to the same client's next): the rate the closed loop
    /// sustains while the sandbox leaves it alone. Ops ÷ wall time would
    /// swing with every burst of outside interference.
    pub tokens_per_s: f64,
    /// Process CPU-seconds ÷ wall-seconds over the timed phase.
    pub cpu_util: f64,
}

/// Process CPU time (user + system) in seconds, from `/proc/self/stat`
/// (fields 14 and 15, in clock ticks; Linux's `USER_HZ` is 100).
fn process_cpu_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis are plain.
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after_name
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / USER_HZ
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Span id of a traced load op: distinct from the peel's ids, which
/// count up from zero.
fn load_op_id(client: usize, op: usize) -> u64 {
    ((client as u64 + 1) << 32) | op as u64
}

/// Drives every client in its own thread, closed loop: the next op is
/// sent only after the previous reply. Warm-up ops are verified and
/// counted but not timed. With a recorder, each timed op is wrapped in a
/// span, which is all the tracing the load phase carries.
pub fn run_load<S: Scenario>(
    scn: &S,
    clients: &mut [S::Client],
    warmup: usize,
    timed: Timed,
    rec: Option<&Recorder>,
) -> Load {
    let mut counts = Counts::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                s.spawn(move || {
                    let mut local = Counts::default();
                    for _ in 0..warmup {
                        local.add(&scn.op(c, true));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            counts.merge(h.join().expect("a warm-up client panicked"));
        }
    });

    let barrier = Barrier::new(clients.len());
    let cpu_before = process_cpu_seconds();
    let started = Instant::now();
    let mut latencies_ms = Vec::new();
    let mut cycles_s = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(idx, c)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut local = Counts::default();
                    let mut lat = Vec::new();
                    let mut cycles = Vec::new();
                    barrier.wait();
                    let begun = Instant::now();
                    let mut op_started = begun;
                    let mut ops = 0usize;
                    while match timed {
                        Timed::For(d) => begun.elapsed() < d,
                        Timed::Ops(n) => ops < n,
                    } {
                        let o = match rec {
                            Some(rec) => {
                                rec.span("load.op", None, load_op_id(idx, ops), || scn.op(c, false))
                                    .0
                            }
                            None => scn.op(c, false),
                        };
                        local.add(&o);
                        lat.push(o.latency.as_secs_f64() * 1e3);
                        ops += 1;
                        let now = Instant::now();
                        cycles.push((now - op_started).as_secs_f64());
                        op_started = now;
                    }
                    (local, lat, cycles)
                })
            })
            .collect();
        for h in handles {
            let (local, lat, cycles) = h.join().expect("a load client panicked");
            counts.merge(local);
            latencies_ms.extend(lat);
            cycles_s.extend(cycles);
        }
    });
    let wall = started.elapsed().as_secs_f64();
    let cpu = process_cpu_seconds() - cpu_before;

    cycles_s.sort_by(f64::total_cmp);
    let cycle = if cycles_s.is_empty() {
        f64::NAN
    } else {
        percentile(&cycles_s, 25.0)
    };
    Load {
        counts,
        tokens_per_s: (clients.len() * scn.cols_per_op()) as f64 / cycle,
        latency: LatencySummary::of(&latencies_ms),
        cpu_util: cpu / wall,
    }
}

/// A scenario with its clients connected. Field order drops the clients
/// (and their sockets) before the scenario shuts its server down.
struct Live<S: Scenario> {
    clients: Vec<S::Client>,
    scn: S,
}

impl<S: Scenario> Live<S> {
    fn set_up(geo: Geometry, seed: u64) -> Self {
        let scn = S::build(geo, seed);
        let clients = (0..S::CLIENTS).map(|i| scn.connect(i)).collect();
        Live { clients, scn }
    }
}

/// Measured values by metric name, plus the run's tallies.
#[derive(Debug, Clone)]
pub struct RunOutput {
    pub metrics: BTreeMap<&'static str, f64>,
    pub counts: Counts,
    /// Latency of the run's untraced timed phase.
    pub latency: LatencySummary,
    /// False when an end-to-end run has too few latency samples (40) to
    /// back the gated lower quartile.
    pub valid: bool,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.counts.clean() && self.valid
    }
}

/// Set-ups per untraced run: at least `MIN`, more while they are cheap
/// (until `BUDGET` is spent, at most `MAX`), so a millisecond set-up is
/// not reported from three samples.
const SETUP_REPEATS_MIN: usize = 3;
const SETUP_REPEATS_MAX: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// The end-to-end run: set up several times (reporting the median,
/// keeping the last), warm up, then one timed closed-loop load with
/// tracing off.
pub fn run_untraced<S: Scenario>(geo: Geometry, seed: u64, timed: Timed) -> RunOutput {
    let mut setups: Vec<f64> = Vec::new();
    let mut live: Option<Live<S>> = None;
    while setups.len() < SETUP_REPEATS_MIN
        || (setups.len() < SETUP_REPEATS_MAX
            && setups.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64())
    {
        // Tear the previous instance down first, so peak RSS is that of
        // one instance and ports/threads are not held twice.
        drop(live.take());
        let t = Instant::now();
        live = Some(Live::set_up(geo, seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let Live { mut clients, scn } = live.expect("at least one set-up ran");
    let load = run_load(&scn, &mut clients, S::WARMUP_OPS, timed, None);
    drop(clients);
    drop(scn);

    let mut metrics = BTreeMap::new();
    metrics.insert("tokens_per_s", load.tokens_per_s);
    metrics.insert("lat_p25_ms", load.latency.p25_ms.unwrap_or(f64::NAN));
    metrics.insert("setup_s", median(&setups));
    metrics.insert("peak_rss_mb", peak_rss_mb());
    RunOutput {
        metrics,
        counts: load.counts,
        valid: load.latency.p25_ms.is_some(),
        latency: load.latency,
    }
}

/// Which part of a span a layer metric reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// The span's whole duration.
    Total,
    /// Its duration minus its children's: what the layer itself costs.
    SelfTime,
}

/// Layer metric ← (span name, part). Same-named spans within one op are
/// summed; the metric is the median over ops, in milliseconds.
pub const SPAN_METRICS: &[(&str, &str, Part)] = &[
    ("netcore.transport_ms", "netcore.wire", Part::SelfTime),
    (
        "gateway.protocol.encode_req_ms",
        "gateway.protocol.encode_req",
        Part::Total,
    ),
    (
        "gateway.protocol.decode_req_ms",
        "gateway.protocol.decode_req",
        Part::Total,
    ),
    (
        "gateway.protocol.encode_resp_ms",
        "gateway.protocol.encode_resp",
        Part::Total,
    ),
    (
        "gateway.protocol.decode_resp_ms",
        "gateway.protocol.decode_resp",
        Part::Total,
    ),
    ("gateway.core_ms", "gateway.core", Part::SelfTime),
    ("gateway.cache.miss_ms", "netcore.wire", Part::Total),
    ("gateway.cache.hit_ms", "netcore.wire_hit", Part::Total),
    ("serve.runtime_ms", "serve.runtime", Part::SelfTime),
    ("serve.session_ms", "serve.session", Part::SelfTime),
    ("serve.model_ms", "serve.model", Part::SelfTime),
    ("block.forward_ms", "block.forward", Part::Total),
    ("block.decode_step_ms", "block.decode_step", Part::Total),
    ("core.linear.qkv_ms", "core.linear.qkv", Part::Total),
    ("core.linear.proj_ms", "core.linear.proj", Part::Total),
    ("core.linear.fc1_ms", "core.linear.fc1", Part::Total),
    ("core.linear.fc2_ms", "core.linear.fc2", Part::Total),
    ("core.aqs.gemm_ms", "core.aqs.gemm", Part::Total),
    ("core.dense.gemm_ms", "core.dense.gemm", Part::Total),
    ("core.sibia.gemm_ms", "core.sibia.gemm", Part::Total),
    ("bitslice.slice_act_ms", "bitslice.slice_act", Part::Total),
    ("quant.quantize_ms", "quant.quantize", Part::Total),
    ("quant.requant_ms", "quant.requant", Part::Total),
    ("tensor.attn_ms", "tensor.attn", Part::Total),
    ("tensor.layer_norm_ms", "tensor.layer_norm", Part::Total),
    ("sim.host_ms", "sim.host", Part::Total),
    (ladder::RUNGS[0].1, ladder::RUNGS[0].2, Part::Total),
    (ladder::RUNGS[1].1, ladder::RUNGS[1].2, Part::Total),
    (ladder::RUNGS[2].1, ladder::RUNGS[2].2, Part::Total),
];

/// Spans whose self time is the block's glue / a linear's fold.
const BLOCK_SPANS: &[&str] = &["block.forward", "block.decode_step"];
const LINEAR_SPANS: &[&str] = &[
    "core.linear.qkv",
    "core.linear.proj",
    "core.linear.fc1",
    "core.linear.fc2",
    ladder::RUNGS[0].2,
    ladder::RUNGS[1].2,
    ladder::RUNGS[2].2,
];

/// Median over ops of the per-op sum over `names` of `part`.
fn median_sum(
    by_name: &BTreeMap<&'static str, Vec<crate::trace::OpTimes>>,
    names: &[&str],
    part: Part,
) -> Option<f64> {
    let series: Vec<&Vec<_>> = names.iter().filter_map(|n| by_name.get(n)).collect();
    let ops = series.iter().map(|s| s.len()).min()?;
    let sums: Vec<f64> = (0..ops)
        .map(|i| {
            series
                .iter()
                .map(|s| match part {
                    Part::Total => s[i].total_ms,
                    Part::SelfTime => s[i].self_ms,
                })
                .sum()
        })
        .collect();
    Some(median(&sums))
}

/// Per-op time of the `roots` spans, median over ops.
fn peeled_op_ms(spans: &[Span], roots: &[&str]) -> f64 {
    let mut per_op: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| roots.contains(&s.name)) {
        *per_op.entry(s.op_id).or_default() += (s.end_ns - s.start_ns) as f64 / 1e6;
    }
    median(&per_op.into_values().collect::<Vec<_>>())
}

/// The per-layer run. A quarter of the time is a closed-loop load with
/// tracing off, a quarter the same load with the recorder on (their
/// median latencies give the tracing overhead), and the remaining half
/// is the single-threaded peel. Returns the spans with the output.
pub fn run_traced<S: Scenario>(
    geo: Geometry,
    seed: u64,
    timed: Timed,
    min_peel_ops: usize,
) -> (RunOutput, Vec<Span>) {
    let (load_time, peel_budget) = match timed {
        Timed::For(d) => (Timed::For(d / 4), d / 2),
        Timed::Ops(n) => (Timed::Ops(n), Duration::ZERO),
    };
    let Live { mut clients, scn } = Live::<S>::set_up(geo, seed);
    let plain = run_load(&scn, &mut clients, S::WARMUP_OPS, load_time, None);
    let rec = Recorder::new();
    let traced = run_load(&scn, &mut clients, 0, load_time, Some(&rec));
    drop(clients);
    let extras = scn.peel(&rec, min_peel_ops, peel_budget);
    drop(scn);
    let spans = rec.into_spans();

    let (by_name, negative_ms) = per_op_times(&spans);
    let mut metrics: BTreeMap<&'static str, f64> = extras;
    for &(metric, span, part) in SPAN_METRICS {
        if let Some(v) = median_sum(&by_name, &[span], part) {
            metrics.insert(metric, v);
        }
    }
    for (metric, names) in [
        ("block.glue_ms", BLOCK_SPANS),
        ("core.linear.fold_ms", LINEAR_SPANS),
    ] {
        let present: Vec<&str> = names
            .iter()
            .copied()
            .filter(|n| by_name.contains_key(n))
            .collect();
        if let Some(v) = median_sum(&by_name, &present, Part::SelfTime) {
            metrics.insert(metric, v);
        }
    }
    // A cache miss is only a miss next to a hit.
    if !metrics.contains_key("gateway.cache.hit_ms") {
        metrics.remove("gateway.cache.miss_ms");
    }
    if let (Some(macs), Some(ms)) = (
        metrics.remove("core.aqs.macs_per_op"),
        metrics.get("core.aqs.gemm_ms"),
    ) {
        metrics.insert("core.aqs.gmac_per_s", macs / (ms / 1e3) / 1e9);
    }
    S::derive(&mut metrics);
    // Lower quartiles, like the gated latency: robust to interference.
    let quartile = |l: &LatencySummary| l.p25_ms.unwrap_or(l.p50_ms);
    let (plain_ms, traced_ms) = (quartile(&plain.latency), quartile(&traced.latency));
    metrics.insert("trace.overhead_share", (traced_ms - plain_ms) / plain_ms);
    // A peeled op's self times sum to its root span by construction,
    // except where a separately timed child outlasted its parent and
    // was clamped: that remainder is what the budget fails to place.
    let peeled_ops = by_name.get(S::ROOT_SPANS[0]).map_or(0, Vec::len) as f64;
    let peeled_ms = peeled_op_ms(&spans, S::ROOT_SPANS);
    metrics.insert(
        "trace.unaccounted_share",
        negative_ms / peeled_ops / peeled_ms,
    );
    metrics.insert("trace.negative_self_ms", negative_ms);
    metrics.insert("trace.peeled_ops", peeled_ops);
    metrics.insert("host.cpu_util", plain.cpu_util);

    let mut counts = plain.counts;
    counts.merge(traced.counts);
    metrics.insert(
        "check.exact_share",
        counts.exact as f64 / counts.verified.max(1) as f64,
    );
    metrics.insert(
        "check.fail_share",
        counts.failed as f64 / counts.attempted.max(1) as f64,
    );
    metrics.insert("load.latency_samples", plain.latency.samples as f64);
    metrics.insert("load.lat_p50_ms", plain.latency.p50_ms);
    if let Some(p90) = plain.latency.p90_ms {
        metrics.insert("load.lat_p90_ms", p90);
    }
    let output = RunOutput {
        metrics,
        counts,
        latency: plain.latency,
        // The sample rule guards the end-to-end run's gated quartile;
        // these short phases feed ungated numbers.
        valid: true,
    };
    (output, spans)
}
