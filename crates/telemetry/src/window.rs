//! Sliding-window views over cumulative histograms and counters.
//!
//! The serving stack's histograms are cumulative since boot, which is
//! the wrong shape for "what is p99 *right now*". [`WindowedHistogram`]
//! keeps the lock-free cumulative [`Histogram`] as the sole record
//! path and adds a ring of *boundary snapshots* — cumulative snapshots
//! captured lazily at bucket-interval boundaries. A sliding-window view
//! is then just `live.snapshot().diff(boundary)` ([`HistogramSnapshot::diff`]),
//! so recording never takes a lock and never loses a sample to
//! rotation: every sample lands in the cumulative histogram no matter
//! how rotation races it, which is what makes concurrent
//! record-during-rotate deterministic once writers are joined.
//!
//! Boundaries are captured on the *query* path (the first query in a
//! new bucket interval rotates, back-filling any intervals that passed
//! unobserved), so a process that is never asked for windows pays
//! nothing beyond the cumulative histogram it already had: boundaries
//! are shared by reference count, every fresh ring points all its slots
//! at one process-wide zero snapshot, and a back-fill stores one
//! snapshot however many intervals it covers. Window
//! widths are bucket-granular: a query for the last `d` covers between
//! `d` and `d + bucket` of wall time, the standard staircase
//! approximation.
//!
//! Every query method has an `_at` twin taking an explicit elapsed
//! [`Duration`] instead of reading the clock, so tests drive rotation
//! deterministically.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::ShardedCounter;

/// Ring geometry for windowed metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Width of one ring bucket — the rotation interval and the
    /// granularity of window edges.
    pub bucket: Duration,
    /// Ring length in buckets; the widest queryable window is
    /// `bucket × buckets`.
    pub buckets: usize,
}

impl Default for WindowConfig {
    /// 1-second buckets, 60 of them: serves both the ≈10s and ≈60s
    /// SLO windows from one ring.
    fn default() -> Self {
        WindowConfig {
            bucket: Duration::from_secs(1),
            buckets: 60,
        }
    }
}

impl WindowConfig {
    fn bucket_nanos(&self) -> u128 {
        self.bucket.as_nanos().max(1)
    }

    /// The interval index `elapsed` falls in.
    fn epoch(&self, elapsed: Duration) -> u64 {
        u64::try_from(elapsed.as_nanos() / self.bucket_nanos()).unwrap_or(u64::MAX)
    }

    /// How many ring buckets cover a window of `d` (≥ 1, ≤ ring len).
    fn buckets_for(&self, d: Duration) -> u64 {
        let n = d.as_nanos().div_ceil(self.bucket_nanos());
        u64::try_from(n)
            .unwrap_or(u64::MAX)
            .clamp(1, self.buckets.max(1) as u64)
    }
}

/// A boundary ring: cumulative values captured at the start of each of
/// the last `len` epochs (lazily, at first query inside the epoch).
#[derive(Debug)]
struct Ring<T> {
    /// `boundaries[e % len]` is the cumulative state when epoch `e` was
    /// first observed to have started.
    boundaries: Vec<T>,
    /// Highest epoch whose boundary has been captured.
    epoch: u64,
}

impl<T: Clone> Ring<T> {
    fn new(len: usize, zero: T) -> Self {
        Ring {
            boundaries: vec![zero; len.max(1)],
            epoch: 0,
        }
    }

    /// Rotates forward to `epoch`, back-filling skipped boundaries with
    /// `now` (samples from unobserved idle intervals are attributed to
    /// the moment they were first observed), then returns the boundary
    /// for the epoch `window_buckets` before the current one.
    fn rotate_and_boundary(&mut self, epoch: u64, now: &T, window_buckets: u64) -> T {
        let len = self.boundaries.len() as u64;
        if epoch > self.epoch {
            let from = (self.epoch + 1).max((epoch + 1).saturating_sub(len));
            for e in from..=epoch {
                self.boundaries[(e % len) as usize] = now.clone();
            }
            self.epoch = epoch;
        }
        let start = (epoch + 1).saturating_sub(window_buckets);
        self.boundaries[(start % len) as usize].clone()
    }
}

/// The all-zero boundary every fresh histogram ring starts from — one
/// allocation per process, not `buckets` deep copies per histogram.
fn zero_boundary() -> Arc<HistogramSnapshot> {
    static ZERO: OnceLock<Arc<HistogramSnapshot>> = OnceLock::new();
    Arc::clone(ZERO.get_or_init(|| Arc::new(HistogramSnapshot::empty())))
}

/// A cumulative histogram plus a boundary-snapshot ring serving
/// sliding-window quantiles. Recording is exactly as cheap as
/// [`Histogram::record`]; windows cost a snapshot + diff under a
/// query-side mutex.
#[derive(Debug)]
pub struct WindowedHistogram {
    live: Histogram,
    config: WindowConfig,
    started: Instant,
    ring: Mutex<Ring<Arc<HistogramSnapshot>>>,
}

impl Default for WindowedHistogram {
    fn default() -> Self {
        WindowedHistogram::new(WindowConfig::default())
    }
}

impl WindowedHistogram {
    /// A windowed histogram with the given ring geometry.
    pub fn new(config: WindowConfig) -> Self {
        WindowedHistogram {
            live: Histogram::new(),
            config,
            started: Instant::now(),
            ring: Mutex::new(Ring::new(config.buckets, zero_boundary())),
        }
    }

    /// The ring geometry.
    pub fn config(&self) -> WindowConfig {
        self.config
    }

    /// Records one value — lock-free, identical cost to
    /// [`Histogram::record`].
    pub fn record(&self, value: u64) {
        self.live.record(value);
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.live.record_duration(d);
    }

    /// The cumulative (since-construction) snapshot.
    pub fn total(&self) -> HistogramSnapshot {
        self.live.snapshot()
    }

    /// Snapshot of roughly the last `window` of samples (bucket-
    /// granular: the view spans between `window` and `window + bucket`).
    pub fn window(&self, window: Duration) -> HistogramSnapshot {
        self.window_at(window, self.started.elapsed())
    }

    /// [`window`](Self::window) with an explicit elapsed time — the
    /// deterministic test hook; `elapsed` is time since construction.
    pub fn window_at(&self, window: Duration, elapsed: Duration) -> HistogramSnapshot {
        let epoch = self.config.epoch(elapsed);
        let w = self.config.buckets_for(window);
        let now = Arc::new(self.live.snapshot());
        let boundary = {
            let mut ring = self.ring.lock().expect("window ring poisoned");
            ring.rotate_and_boundary(epoch, &now, w)
        };
        now.diff(&boundary)
    }
}

/// A cumulative sharded counter plus a boundary ring serving
/// sliding-window counts and rates. The windowed analog of
/// [`ShardedCounter`], with the same lock-free `add` path.
#[derive(Debug)]
pub struct WindowedCounter {
    live: ShardedCounter,
    config: WindowConfig,
    started: Instant,
    ring: Mutex<Ring<u64>>,
}

impl Default for WindowedCounter {
    fn default() -> Self {
        WindowedCounter::new(WindowConfig::default())
    }
}

impl WindowedCounter {
    /// A windowed counter with the given ring geometry.
    pub fn new(config: WindowConfig) -> Self {
        WindowedCounter {
            live: ShardedCounter::new(),
            config,
            started: Instant::now(),
            ring: Mutex::new(Ring::new(config.buckets, 0)),
        }
    }

    /// Adds `n` — lock-free, identical cost to [`ShardedCounter::add`].
    pub fn add(&self, n: u64) {
        self.live.add(n);
    }

    /// The cumulative total.
    pub fn total(&self) -> u64 {
        self.live.sum()
    }

    /// How much was added in roughly the last `window` (bucket-
    /// granular).
    pub fn window(&self, window: Duration) -> u64 {
        self.window_at(window, self.started.elapsed())
    }

    /// [`window`](Self::window) with an explicit elapsed time — the
    /// deterministic test hook.
    pub fn window_at(&self, window: Duration, elapsed: Duration) -> u64 {
        let epoch = self.config.epoch(elapsed);
        let w = self.config.buckets_for(window);
        let now = self.live.sum();
        let boundary = {
            let mut ring = self.ring.lock().expect("window ring poisoned");
            ring.rotate_and_boundary(epoch, &now, w)
        };
        now.saturating_sub(boundary)
    }

    /// Windowed rate per second (`window` count / window width).
    pub fn rate(&self, window: Duration) -> f64 {
        self.rate_at(window, self.started.elapsed())
    }

    /// [`rate`](Self::rate) with an explicit elapsed time.
    pub fn rate_at(&self, window: Duration, elapsed: Duration) -> f64 {
        let secs = window.as_secs_f64().max(f64::MIN_POSITIVE);
        self.window_at(window, elapsed) as f64 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: Duration = Duration::from_secs(1);

    fn cfg(bucket_ms: u64, buckets: usize) -> WindowConfig {
        WindowConfig {
            bucket: Duration::from_millis(bucket_ms),
            buckets,
        }
    }

    #[test]
    fn fresh_ring_shares_one_zero_snapshot_and_backfill_stores_one() {
        let h = WindowedHistogram::new(WindowConfig::default());
        let other = WindowedHistogram::new(WindowConfig::default());
        {
            let ring = h.ring.lock().unwrap();
            assert_eq!(ring.boundaries.len(), 60);
            // Every slot of every fresh ring is the same allocation.
            let zero = &other.ring.lock().unwrap().boundaries[0];
            assert!(ring.boundaries.iter().all(|b| Arc::ptr_eq(b, zero)));
        }
        // A first query after a long unobserved stretch back-fills the
        // whole ring with one new snapshot, shared by reference count.
        h.record(7);
        h.window_at(SEC, Duration::from_secs(500));
        let ring = h.ring.lock().unwrap();
        let filled = &ring.boundaries[0];
        assert_eq!(filled.count, 1);
        assert!(ring.boundaries.iter().all(|b| Arc::ptr_eq(b, filled)));
    }

    #[test]
    fn window_sees_only_recent_epochs() {
        let h = WindowedHistogram::new(cfg(1000, 8));
        h.record(10);
        // Observe epoch 0 so the boundary of epoch 1 excludes it.
        assert_eq!(h.window_at(SEC, Duration::from_millis(100)).count, 1);
        // Epoch 1 starts; the 1s (=1 bucket) window forgets epoch 0.
        assert_eq!(h.window_at(SEC, Duration::from_millis(1100)).count, 0);
        h.record(20);
        assert_eq!(h.window_at(SEC, Duration::from_millis(1200)).count, 1);
        // A 2-bucket window still sees both samples at epoch 1.
        assert_eq!(h.window_at(2 * SEC, Duration::from_millis(1200)).count, 2);
        // Far future: everything expires, total remains.
        assert_eq!(h.window_at(8 * SEC, Duration::from_secs(100)).count, 0);
        assert_eq!(h.total().count, 2);
    }

    #[test]
    fn unobserved_idle_gap_attributes_to_first_observation() {
        let h = WindowedHistogram::new(cfg(1000, 4));
        h.record(5); // recorded during a long unobserved stretch
                     // First query ever, at epoch 50: boundaries for the last ring
                     // length of epochs back-fill with the current snapshot, so the
                     // sample (older than any in-ring boundary's capture) reads as
                     // pre-window for short windows...
        assert_eq!(h.window_at(SEC, Duration::from_secs(50)).count, 0);
        // ...but samples recorded after the observation are windowed
        // normally again.
        h.record(6);
        assert_eq!(h.window_at(SEC, Duration::from_millis(50_500)).count, 1);
    }

    #[test]
    fn windowed_quantiles_track_the_window_not_the_total() {
        let h = WindowedHistogram::new(cfg(1000, 8));
        for _ in 0..100 {
            h.record(1_000_000); // slow era, epoch 0
        }
        assert!(h.window_at(SEC, Duration::from_millis(10)).p99() >= 1_000_000);
        // A query at the epoch-1 boundary captures it (in production
        // the metrics poller plays this role once per bucket interval).
        h.window_at(SEC, Duration::from_millis(1001));
        for _ in 0..100 {
            h.record(10); // fast era, epoch 1
        }
        let w = h.window_at(SEC, Duration::from_millis(1010));
        assert_eq!(w.count, 100);
        assert_eq!(w.p99(), 10);
        // The cumulative view still remembers the slow era.
        assert!(h.total().p99() >= 1_000_000);
    }

    #[test]
    fn counter_windows_and_rates() {
        let c = WindowedCounter::new(cfg(1000, 8));
        c.add(30);
        assert_eq!(c.window_at(SEC, Duration::from_millis(10)), 30);
        // Next epoch: the 1s window forgets, a wider window remembers.
        assert_eq!(c.window_at(SEC, Duration::from_millis(1500)), 0);
        assert_eq!(c.window_at(4 * SEC, Duration::from_millis(1500)), 30);
        c.add(10);
        let rate = c.rate_at(2 * SEC, Duration::from_millis(1600));
        assert!((rate - 20.0).abs() < 1e-9, "rate={rate}");
        assert_eq!(c.total(), 40);
    }

    #[test]
    fn widest_window_is_clamped_to_the_ring() {
        let h = WindowedHistogram::new(cfg(100, 4));
        h.record(1);
        // Asking for far more than the ring holds clamps to ring width
        // instead of panicking or wrapping.
        let w = h.window_at(Duration::from_secs(3600), Duration::from_millis(150));
        assert_eq!(w.count, 1);
    }
}
