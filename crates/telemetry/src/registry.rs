//! A dimensional metric registry keyed by (model, verb, stage).
//!
//! [`MetricRegistry`] is the serving stack's one store for latency and
//! occupancy samples: every stage of every layer — the transport's
//! `("-", "conn", …)`, the gateway's `("-", "gateway", …)`, a model's
//! `(model, "batch" | "decode" | "block", …)` and the wire verbs'
//! `(model, verb, "request")` — is a [`DimCell`] holding a latency
//! histogram, ok/error/shed outcome counters and one ring of boundary
//! captures, so "how is *model X's decode path* doing, right now" and
//! "since boot" are both answered from one capture of the same cell,
//! and every exporter is one loop over [`MetricRegistry::cells`].
//!
//! The registry is a cheap [`Clone`] handle over shared state: one
//! instance is created at the gateway and threaded down through the
//! router, runtime, session manager, and decode batcher, each layer
//! recording under its own stage names. Cells are created on first use
//! and live for the registry's lifetime (the dimension space is small:
//! models × a handful of verbs × a handful of stages).
//!
//! Recording layers resolve a cell once ([`MetricRegistry::cell`], one
//! mutex + an allocation-free binary search on a hit) and hold the
//! returned [`Arc`] wherever the key outlives one event.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::window::WindowRing;
use crate::ShardedCounter;

/// The gateway-facing request stage — the one SLO targets evaluate.
pub const STAGE_REQUEST: &str = "request";

/// A metric dimension: which model, through which wire verb, at which
/// pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetricKey {
    /// Model name ("-" where no model applies).
    pub model: String,
    /// Wire verb or internal path ("infer", "decode", "batch", …).
    pub verb: String,
    /// Pipeline stage ("request", "execute", "step", "fused_pass", …).
    pub stage: String,
}

impl MetricKey {
    /// Builds a key from string-likes.
    pub fn new(
        model: impl Into<String>,
        verb: impl Into<String>,
        stage: impl Into<String>,
    ) -> Self {
        MetricKey {
            model: model.into(),
            verb: verb.into(),
            stage: stage.into(),
        }
    }
}

/// One dimension's metrics: a live latency histogram, ok/error/shed
/// outcome counters, and a ring of boundary captures that turns them
/// into sliding windows.
///
/// Recording is lock-free. Every read takes one capture — histogram
/// snapshot plus the three counts — so a read's total and its window
/// come from the same instant and a window never exceeds its total.
#[derive(Debug)]
pub struct DimCell {
    latency: Histogram,
    ok: ShardedCounter,
    error: ShardedCounter,
    shed: ShardedCounter,
    windows: WindowRing,
}

impl DimCell {
    fn new() -> Self {
        DimCell {
            latency: Histogram::new(),
            ok: ShardedCounter::new(),
            error: ShardedCounter::new(),
            shed: ShardedCounter::new(),
            windows: WindowRing::new(),
        }
    }

    /// Records one latency sample (lock-free).
    pub fn record_latency(&self, d: Duration) {
        self.latency.record_duration(d);
    }

    /// Records one raw count sample (the `occupancy` cell), lock-free.
    pub fn record_count(&self, n: u64) {
        self.latency.record(n);
    }

    /// Counts one successful outcome.
    pub fn record_ok(&self) {
        self.ok.add(1);
    }

    /// Counts one failed outcome (excluding sheds).
    pub fn record_error(&self) {
        self.error.add(1);
    }

    /// Counts one shed (overload-rejected) outcome.
    pub fn record_shed(&self) {
        self.shed.add(1);
    }

    /// The cumulative (since-construction) view: one capture.
    pub fn total(&self) -> DimWindow {
        DimWindow {
            latency: self.latency.snapshot(),
            ok: self.ok.sum(),
            error: self.error.sum(),
            shed: self.shed.sum(),
        }
    }

    /// A view over the last `window`, in whole seconds: the current,
    /// partial second plus the ⌈`window`⌉ − 1 before it. A window wider
    /// than [`WINDOW_SPAN`](crate::WINDOW_SPAN) reads that span.
    pub fn window(&self, window: Duration) -> DimWindow {
        self.windows.read(window, || self.total()).1
    }

    /// [`window`](Self::window) with an explicit time since the cell's
    /// construction — the deterministic test hook.
    pub fn window_at(&self, window: Duration, elapsed: Duration) -> DimWindow {
        self.windows.read_at(window, elapsed, || self.total()).1
    }
}

/// A view of one dimension (or several merged) over some span: a
/// sliding window, or everything since construction.
#[derive(Debug, Clone)]
pub struct DimWindow {
    /// Windowed latency samples (nanoseconds).
    pub latency: HistogramSnapshot,
    /// Successful outcomes in the window.
    pub ok: u64,
    /// Failed outcomes in the window.
    pub error: u64,
    /// Shed outcomes in the window.
    pub shed: u64,
}

impl Default for DimWindow {
    fn default() -> Self {
        DimWindow::empty()
    }
}

impl DimWindow {
    /// An all-zero window.
    pub fn empty() -> Self {
        DimWindow {
            latency: HistogramSnapshot::empty(),
            ok: 0,
            error: 0,
            shed: 0,
        }
    }

    /// Folds another window into this one.
    pub fn merge(&mut self, other: &DimWindow) {
        self.latency.merge(&other.latency);
        self.ok += other.ok;
        self.error += other.error;
        self.shed += other.shed;
    }

    /// Total outcomes (ok + error + shed).
    pub fn outcomes(&self) -> u64 {
        self.ok + self.error + self.shed
    }

    /// Errors over total outcomes; 0 when nothing happened.
    pub fn error_rate(&self) -> f64 {
        if self.outcomes() == 0 {
            0.0
        } else {
            self.error as f64 / self.outcomes() as f64
        }
    }

    /// Sheds over total outcomes; 0 when nothing happened.
    pub fn shed_rate(&self) -> f64 {
        if self.outcomes() == 0 {
            0.0
        } else {
            self.shed as f64 / self.outcomes() as f64
        }
    }
}

/// Quantile summary of one cell — the row every textual view (the
/// `metrics` verb, the JSONL line, a pinned incident) shows. Histogram
/// values are in the samples' native unit: nanoseconds for durations,
/// a raw count for `occupancy`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellSummary {
    /// Model name the cell is keyed by ("-" where no model applies).
    pub model: String,
    /// Wire verb or internal path ("infer", "decode", "batch", …).
    pub verb: String,
    /// Pipeline stage ("request", "execute", "step", "fused_pass", …).
    pub stage: String,
    /// Samples recorded since boot.
    pub count: u64,
    /// Sum of all samples since boot.
    pub sum: u64,
    /// Estimated since-boot 50th-percentile sample (upper bucket bound).
    pub p50: u64,
    /// Estimated since-boot 90th-percentile sample.
    pub p90: u64,
    /// Estimated since-boot 99th-percentile sample.
    pub p99: u64,
    /// Exact since-boot maximum sample.
    pub max: u64,
    /// Samples in the window.
    pub win_count: u64,
    /// Estimated windowed 50th-percentile sample.
    pub win_p50: u64,
    /// Estimated windowed 90th-percentile sample.
    pub win_p90: u64,
    /// Estimated windowed 99th-percentile sample.
    pub win_p99: u64,
    /// Windowed maximum sample.
    pub win_max: u64,
    /// Successful outcomes in the window.
    pub ok: u64,
    /// Failed outcomes in the window (excluding sheds).
    pub error: u64,
    /// Shed (overload-rejected) outcomes in the window.
    pub shed: u64,
}

impl CellSummary {
    /// Summarizes one cell: cumulative quantiles from `total`, windowed
    /// quantiles and outcome counts from `window`.
    pub fn new(key: &MetricKey, total: &HistogramSnapshot, window: &DimWindow) -> Self {
        CellSummary {
            model: key.model.clone(),
            verb: key.verb.clone(),
            stage: key.stage.clone(),
            count: total.count,
            sum: total.sum,
            p50: total.p50(),
            p90: total.p90(),
            p99: total.p99(),
            max: total.max,
            win_count: window.latency.count,
            win_p50: window.latency.p50(),
            win_p90: window.latency.p90(),
            win_p99: window.latency.p99(),
            win_max: window.latency.max,
            ok: window.ok,
            error: window.error,
            shed: window.shed,
        }
    }
}

/// Every cell with its key, sorted by key, so lookups binary-search on
/// borrowed strings and every sweep comes out in key order.
type Cells = Vec<(MetricKey, Arc<DimCell>)>;

/// Shared, cloneable registry of per-dimension windowed metrics.
#[derive(Debug, Clone, Default)]
pub struct MetricRegistry {
    cells: Arc<Mutex<Cells>>,
}

impl MetricRegistry {
    /// Resolves (creating on first use) the cell for a dimension. A hit
    /// allocates nothing.
    pub fn cell(&self, model: &str, verb: &str, stage: &str) -> Arc<DimCell> {
        let mut cells = self.cells.lock().expect("registry poisoned");
        let found = cells.binary_search_by(|(k, _)| {
            (k.model.as_str(), k.verb.as_str(), k.stage.as_str()).cmp(&(model, verb, stage))
        });
        match found {
            Ok(i) => Arc::clone(&cells[i].1),
            Err(i) => {
                let cell = Arc::new(DimCell::new());
                cells.insert(i, (MetricKey::new(model, verb, stage), Arc::clone(&cell)));
                cell
            }
        }
    }

    /// Every registered cell, sorted by key — the one sweep every view
    /// and exporter iterates.
    pub fn cells(&self) -> Vec<(MetricKey, Arc<DimCell>)> {
        self.cells.lock().expect("registry poisoned").clone()
    }

    /// Quantile summaries of every cell — cumulative plus the last
    /// `window`, each row from one capture — sorted by key.
    pub fn summaries(&self, window: Duration) -> Vec<CellSummary> {
        self.cells()
            .iter()
            .map(|(k, cell)| {
                let (total, win) = cell.windows.read(window, || cell.total());
                CellSummary::new(k, &total.latency, &win)
            })
            .collect()
    }

    /// Merged window over every dimension matching the filter (`None`
    /// matches any value for that axis).
    pub fn window_for(
        &self,
        model: Option<&str>,
        verb: Option<&str>,
        stage: Option<&str>,
        window: Duration,
    ) -> DimWindow {
        let mut merged = DimWindow::empty();
        for (key, cell) in self.cells() {
            let matches = model.is_none_or(|m| m == key.model)
                && verb.is_none_or(|v| v == key.verb)
                && stage.is_none_or(|s| s == key.stage);
            if matches {
                merged.merge(&cell.window(window));
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_shared_per_key() {
        let reg = MetricRegistry::default();
        let a = reg.cell("m", "infer", STAGE_REQUEST);
        let b = reg.cell("m", "infer", STAGE_REQUEST);
        assert!(Arc::ptr_eq(&a, &b));
        let c = reg.cell("m", "decode", STAGE_REQUEST);
        assert!(!Arc::ptr_eq(&a, &c));
        let keys: Vec<MetricKey> = reg.cells().into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            [
                MetricKey::new("m", "decode", STAGE_REQUEST),
                MetricKey::new("m", "infer", STAGE_REQUEST)
            ],
            "cells come out sorted by key"
        );
    }

    #[test]
    fn summaries_carry_cumulative_and_windowed_views_in_native_units() {
        let reg = MetricRegistry::default();
        let cell = reg.cell("m", "decode", "occupancy");
        cell.record_count(8);
        cell.record_ok();
        let s = &reg.summaries(Duration::from_secs(10))[0];
        assert_eq!((s.model.as_str(), s.stage.as_str()), ("m", "occupancy"));
        // A raw count of 8 survives: no unit scaling anywhere.
        assert_eq!((s.count, s.sum, s.p50, s.max), (1, 8, 8, 8));
        assert_eq!((s.win_count, s.win_p99, s.win_max), (1, 8, 8));
        assert_eq!((s.ok, s.error, s.shed), (1, 0, 0));
        assert_eq!(cell.total().ok, 1);
    }

    #[test]
    fn window_for_merges_matching_dims() {
        let reg = MetricRegistry::default();
        let infer = reg.cell("m", "infer", STAGE_REQUEST);
        infer.record_latency(Duration::from_micros(100));
        infer.record_ok();
        let decode = reg.cell("m", "decode", STAGE_REQUEST);
        decode.record_latency(Duration::from_micros(300));
        decode.record_ok();
        decode.record_shed();
        let other = reg.cell("n", "infer", STAGE_REQUEST);
        other.record_error();

        let w = Duration::from_secs(10);
        let all = reg.window_for(None, None, Some(STAGE_REQUEST), w);
        assert_eq!(all.latency.count, 2);
        assert_eq!((all.ok, all.error, all.shed), (2, 1, 1));
        assert!((all.shed_rate() - 0.25).abs() < 1e-9);
        assert!((all.error_rate() - 0.25).abs() < 1e-9);

        let m_only = reg.window_for(Some("m"), None, None, w);
        assert_eq!(m_only.outcomes(), 3);
        let decode_only = reg.window_for(Some("m"), Some("decode"), None, w);
        assert_eq!(decode_only.latency.count, 1);
        assert!(decode_only.latency.p99() >= 300_000);

        let ghost = reg.window_for(Some("ghost"), None, None, w);
        assert_eq!(ghost.outcomes(), 0);
        assert_eq!(ghost.latency.p99(), 0);
        assert_eq!(ghost.error_rate(), 0.0);
    }
}
