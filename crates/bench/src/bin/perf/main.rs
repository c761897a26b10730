//! `perf` — the repo's benchmark. See `README.md` in this directory for
//! the metric dictionary and `BENCHMARK.json` at the repo root for the
//! definition (workloads, metrics, bounds, run length).
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1   one run, one JSON line last
//! perf [--seed N] [--seconds S] [--runs R] [--out F]   every workload, untraced then traced
//! perf compare BASE.json NEW.json                      apply the bounds row by row
//! ```

mod bert;
mod compare;
mod gen;
mod harness;
mod ladder;
mod layers;
mod spec;
mod stats;
mod thin;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use serde_json::Value;

use crate::harness::{run_traced, run_untraced, Geometry, RunOutput, Scenario, Timed};
use crate::spec::{MetricSpec, Spec};
use crate::trace::Span;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["infer_bert", "decode_bert", "wire_thin", "gemm_rho"];

/// Peeled ops a traced run records at least, however slow an op is.
const MIN_PEEL_OPS: usize = 5;
/// Where a traced run leaves its spans.
const TRACE_DIR: &str = "target/perf";

/// One run of one workload.
fn run<S: Scenario>(
    geo: Geometry,
    seed: u64,
    timed: Timed,
    traced: bool,
) -> (RunOutput, Vec<Span>) {
    if traced {
        run_traced::<S>(geo, seed, timed, MIN_PEEL_OPS)
    } else {
        (run_untraced::<S>(geo, seed, timed), Vec::new())
    }
}

fn run_workload(
    workload: &str,
    geo: Geometry,
    seed: u64,
    timed: Timed,
    traced: bool,
) -> Option<(RunOutput, Vec<Span>)> {
    Some(match workload {
        "infer_bert" => run::<bert::InferBert>(geo, seed, timed, traced),
        "decode_bert" => run::<bert::DecodeBert>(geo, seed, timed, traced),
        "wire_thin" => run::<thin::WireThin>(geo, seed, timed, traced),
        "gemm_rho" => run::<ladder::GemmRho>(geo, seed, timed, traced),
        _ => return None,
    })
}

/// Command-line options of the run modes.
#[derive(Debug, Default)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    runs: usize,
    out: Option<PathBuf>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        seed: 1,
        runs: 1,
        ..Opts::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => opts.workload = Some(value.clone()),
            "--seed" => opts.seed = number()?,
            "--seconds" => opts.seconds = Some(number()?),
            "--trace" => opts.trace = number()? != 0,
            "--runs" => opts.runs = number()?.max(1) as usize,
            "--out" => opts.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(opts)
}

/// A JSON number with every digit measured; JSON has no NaN or ∞.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "a metric came out as {v}");
    format!("{v}")
}

/// The result line of the driver contract.
fn result_line(out: &RunOutput, specs: &[MetricSpec]) -> String {
    let known: Vec<&str> = specs.iter().map(|m| m.name.as_str()).collect();
    if let Some(stray) = out.metrics.keys().find(|k| !known.contains(k)) {
        panic!("metric {stray} is not declared in BENCHMARK.json");
    }
    let failed = out.counts.failed + (out.counts.verified - out.counts.exact);
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        out.correct(),
        out.counts.attempted
    );
    for (i, m) in specs.iter().enumerate() {
        // A layer a workload does not exercise reads 0.
        let v = out.metrics.get(m.name.as_str()).copied().unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        write!(
            line,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(v),
            m.unit
        )
        .expect("writing to a String cannot fail");
    }
    line.push_str("}}");
    line
}

/// `perf --workload W …`: one run in this process.
fn run_one(spec: &Spec, opts: &Opts, workload: &str) -> ExitCode {
    let seconds = opts.seconds.unwrap_or(spec.run_seconds);
    let timed = Timed::For(Duration::from_secs(seconds));
    let Some((out, spans)) = run_workload(workload, Geometry::PAPER, opts.seed, timed, opts.trace)
    else {
        eprintln!("unknown workload {workload}; expected one of {WORKLOADS:?}");
        return ExitCode::from(2);
    };
    if !out.valid {
        eprintln!(
            "{workload}: {} latency samples cannot back lat_p25_ms (40 needed); the run is invalid",
            out.latency.samples
        );
        return ExitCode::from(2);
    }
    if opts.trace {
        let path = PathBuf::from(TRACE_DIR).join(format!("trace-{workload}.jsonl"));
        let written = std::fs::create_dir_all(TRACE_DIR)
            .and_then(|()| std::fs::write(&path, trace::to_jsonl(&spans)));
        match written {
            Ok(()) => println!("# {} spans written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    let specs = if opts.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    println!(
        "# {workload} seed={} seconds={seconds} trace={} ops={} failed={} verified={} exact={}",
        opts.seed,
        u8::from(opts.trace),
        out.counts.attempted,
        out.counts.failed,
        out.counts.verified,
        out.counts.exact,
    );
    // Ungated: in this sandbox the median and the tail of wall-clock
    // latency follow outside interference more than the program.
    let tail = out.latency.tail.map_or(
        "no percentile above p50 is supported".to_string(),
        |(p, v)| format!("highest supported percentile p{p}={v} ms"),
    );
    println!(
        "# {workload} latency samples={} p50={} ms, {tail}",
        out.latency.samples, out.latency.p50_ms
    );
    for m in specs {
        if let Some(v) = out.metrics.get(m.name.as_str()) {
            println!("{workload} {} {v} {}", m.name, m.unit);
        }
    }
    println!("{}", result_line(&out, specs));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs one workload in a child process of this binary (a clean
/// `VmHWM`, no leftover threads) and returns its parsed result line.
fn run_child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for l in lines {
        println!("{l}");
    }
    if !output.status.success() {
        return Err(format!("the {workload} run exited with {}", output.status));
    }
    serde_json::from_str(last).map_err(|e| format!("the {workload} run printed no result: {e}"))
}

/// `{name: value}` of a child's `metrics` object.
fn flat_metrics(result: &Value) -> BTreeMap<String, Value> {
    result
        .get("metrics")
        .and_then(Value::as_object)
        .map(|metrics| {
            metrics
                .iter()
                .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.clone())))
                .collect()
        })
        .unwrap_or_default()
}

/// `perf [--seed N] …`: every workload, untraced (end-to-end) then
/// traced (per-layer; first run only), each in its own child process.
/// Run `r` uses seed `N + r`. Prints one JSON document last.
fn run_all(spec: &Spec, opts: &Opts) -> ExitCode {
    let seconds = opts.seconds.unwrap_or(spec.run_seconds);
    let mut runs = Vec::new();
    let mut all_correct = true;
    for r in 0..opts.runs {
        let seed = opts.seed + r as u64;
        let mut workloads = BTreeMap::new();
        for workload in WORKLOADS {
            let mut entry = BTreeMap::new();
            let mut child = |trace: bool, key: &str| match run_child(workload, seed, seconds, trace)
            {
                Ok(result) => {
                    all_correct &= result.get("correct").and_then(Value::as_bool) == Some(true);
                    if !trace {
                        for k in ["correct", "attempted", "failed"] {
                            entry.insert(
                                k.to_string(),
                                result.get(k).cloned().unwrap_or(Value::Null),
                            );
                        }
                    }
                    entry.insert(key.to_string(), Value::Object(flat_metrics(&result)));
                }
                Err(e) => {
                    eprintln!("{e}");
                    all_correct = false;
                }
            };
            child(false, "end_to_end");
            if r == 0 {
                child(true, "per_layer");
            }
            workloads.insert(workload.to_string(), Value::Object(entry));
        }
        runs.push(Value::Object(BTreeMap::from([
            ("seed".to_string(), Value::from(seed as f64)),
            ("workloads".to_string(), Value::Object(workloads)),
        ])));
    }
    let doc = Value::Object(BTreeMap::from([
        ("seconds".to_string(), Value::from(seconds as f64)),
        ("runs".to_string(), Value::Array(runs)),
    ]));
    let text = serde_json::to_string(&doc).expect("a Value tree serializes");
    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("could not write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{text}");
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("a workload failed, was inexact, or was invalid");
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&spec, &args[1..]);
    }
    match parse_opts(&args) {
        Ok(opts) => match opts.workload.clone() {
            Some(workload) => run_one(&spec, &opts, &workload),
            None => run_all(&spec, &opts),
        },
        Err(e) => {
            eprintln!("{e}\nusage: perf [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--runs R] [--out FILE] | perf compare BASE.json NEW.json");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three ops per client of the identical code path at a toy
    /// geometry: catches API drift and verification bugs in seconds.
    /// Writes no numbers.
    fn smoke(workload: &str) {
        let spec = Spec::load();
        for traced in [false, true] {
            let (out, spans) = run_workload(workload, Geometry::TOY, 7, Timed::Ops(2), traced)
                .expect("a known workload");
            assert!(
                out.counts.clean(),
                "{workload} traced={traced}: {:?}",
                out.counts
            );
            assert!(out.counts.verified > 0 && out.counts.attempted >= 3);
            assert_eq!(traced, !spans.is_empty());
            // Every value is printable and declared.
            let specs = if traced {
                &spec.per_layer
            } else {
                &spec.end_to_end
            };
            let mut printable = out.clone();
            printable.metrics.retain(|_, v| v.is_finite());
            let line = result_line(&printable, specs);
            let parsed: Value = serde_json::from_str(&line).expect("the result line is JSON");
            assert_eq!(flat_metrics(&parsed).len(), specs.len());
        }
    }

    #[test]
    fn smoke_infer_bert() {
        smoke("infer_bert");
    }

    #[test]
    fn smoke_decode_bert() {
        smoke("decode_bert");
    }

    #[test]
    fn smoke_wire_thin() {
        smoke("wire_thin");
    }

    #[test]
    fn smoke_gemm_rho() {
        smoke("gemm_rho");
    }

    #[test]
    fn options_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let o = parse_opts(&args("--workload gemm_rho --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (o.workload.as_deref(), o.seed, o.seconds, o.trace),
            (Some("gemm_rho"), 9, Some(3), true)
        );
        let o = parse_opts(&[]).unwrap();
        assert_eq!((o.workload, o.seed, o.runs), (None, 1, 1));
        assert!(parse_opts(&args("--seed")).is_err());
        assert!(parse_opts(&args("--seed x")).is_err());
        assert!(parse_opts(&args("--bogus 1")).is_err());
    }
}
