//! Sliding windows over a cell's cumulative captures.
//!
//! A [`DimCell`](crate::DimCell) records into cumulative primitives
//! only (a histogram and three counters), which is the wrong shape for
//! "what is p99 *right now*". Its [`WindowRing`] adds a ring of
//! *boundary captures* — cumulative captures taken lazily at each
//! second's start — so a window is just `capture − boundary`
//! ([`HistogramSnapshot::diff`](crate::HistogramSnapshot::diff) plus
//! three subtractions). Recording never takes a lock and never loses a
//! sample to rotation: every sample lands in the cumulative primitives
//! however rotation races it.
//!
//! Boundaries are captured on the *read* path (the first read in a new
//! second rotates, back-filling any seconds that passed unobserved), so
//! a cell nobody reads windows of pays nothing beyond its cumulative
//! primitives: boundaries are shared by reference count, every fresh
//! ring points all its slots at one process-wide zero capture, and a
//! back-fill stores one capture however many seconds it covers.
//!
//! Windows are whole seconds: the last `d` is the current, partial
//! second plus the ⌈`d`⌉ − 1 before it, and a window wider than
//! [`WINDOW_SPAN`] reads [`WINDOW_SPAN`].

use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::registry::DimWindow;

/// Width of one ring bucket: the rotation interval and the granularity
/// of window edges.
const BUCKET: Duration = Duration::from_secs(1);

/// Ring length in buckets — serves both the ≈ 10 s and the ≈ 60 s SLO
/// windows from one ring.
const BUCKETS: u64 = 60;

/// The widest window a cell answers: a wider window reads this span (a
/// 300 s SLO target is evaluated over the last 60 s).
pub const WINDOW_SPAN: Duration = Duration::from_secs(BUCKET.as_secs() * BUCKETS);

/// The all-zero capture every fresh ring starts from — one allocation
/// per process, not a deep copy per slot per cell.
fn zero_capture() -> Arc<DimWindow> {
    static ZERO: OnceLock<Arc<DimWindow>> = OnceLock::new();
    Arc::clone(ZERO.get_or_init(|| Arc::new(DimWindow::empty())))
}

/// Cumulative captures taken at the start of each of the last
/// [`BUCKETS`] seconds.
#[derive(Debug)]
struct Ring {
    /// `boundaries[e % BUCKETS]` is the capture from when second `e`
    /// was first observed to have started.
    boundaries: Vec<Arc<DimWindow>>,
    /// Highest second whose boundary has been captured.
    epoch: u64,
}

/// A cell's clock plus its ring of boundary captures.
#[derive(Debug)]
pub(crate) struct WindowRing {
    started: Instant,
    ring: Mutex<Ring>,
}

impl WindowRing {
    pub(crate) fn new() -> Self {
        WindowRing {
            started: Instant::now(),
            ring: Mutex::new(Ring {
                boundaries: vec![zero_capture(); BUCKETS as usize],
                epoch: 0,
            }),
        }
    }

    /// One `capture` and the last `window` of it.
    pub(crate) fn read(
        &self,
        window: Duration,
        capture: impl FnOnce() -> DimWindow,
    ) -> (DimWindow, DimWindow) {
        self.read_at(window, self.started.elapsed(), capture)
    }

    /// [`read`](Self::read) with an explicit time since construction.
    ///
    /// `capture` runs under the ring lock, so it is at least as new as
    /// every boundary and the window never exceeds it. The first read
    /// in a new second rotates the ring, back-filling every second that
    /// passed unobserved with this one capture (samples of an
    /// unobserved stretch count as recorded when it was first
    /// observed).
    pub(crate) fn read_at(
        &self,
        window: Duration,
        elapsed: Duration,
        capture: impl FnOnce() -> DimWindow,
    ) -> (DimWindow, DimWindow) {
        let epoch = elapsed.as_secs();
        let buckets = window.as_nanos().div_ceil(BUCKET.as_nanos());
        let buckets = u64::try_from(buckets).unwrap_or(u64::MAX).clamp(1, BUCKETS);
        let mut ring = self.ring.lock().expect("window ring poisoned");
        let total = capture();
        if epoch > ring.epoch {
            let now = Arc::new(total.clone());
            for e in (ring.epoch + 1).max((epoch + 1).saturating_sub(BUCKETS))..=epoch {
                ring.boundaries[(e % BUCKETS) as usize] = Arc::clone(&now);
            }
            ring.epoch = epoch;
        }
        let start = (epoch + 1).saturating_sub(buckets);
        let boundary = Arc::clone(&ring.boundaries[(start % BUCKETS) as usize]);
        drop(ring);
        let window = DimWindow {
            latency: total.latency.diff(&boundary.latency),
            ok: total.ok.saturating_sub(boundary.ok),
            error: total.error.saturating_sub(boundary.error),
            shed: total.shed.saturating_sub(boundary.shed),
        };
        (total, window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DimCell, MetricRegistry, STAGE_REQUEST};

    const SEC: Duration = Duration::from_secs(1);

    fn cell() -> Arc<DimCell> {
        MetricRegistry::default().cell("m", "infer", STAGE_REQUEST)
    }

    #[test]
    fn fresh_ring_shares_one_zero_snapshot_and_backfill_stores_one() {
        let (r, other) = (WindowRing::new(), WindowRing::new());
        {
            let ring = r.ring.lock().unwrap();
            assert_eq!(ring.boundaries.len(), BUCKETS as usize);
            // Every slot of every fresh ring is the same allocation.
            let zero = &other.ring.lock().unwrap().boundaries[0];
            assert!(ring.boundaries.iter().all(|b| Arc::ptr_eq(b, zero)));
        }
        // A first read after a long unobserved stretch back-fills the
        // whole ring with one new capture, shared by reference count.
        let c = cell();
        c.record_count(7);
        c.record_ok();
        r.read_at(SEC, Duration::from_secs(500), || c.total());
        let ring = r.ring.lock().unwrap();
        let filled = &ring.boundaries[0];
        assert_eq!((filled.latency.count, filled.ok), (1, 1));
        assert!(ring.boundaries.iter().all(|b| Arc::ptr_eq(b, filled)));
    }

    #[test]
    fn window_sees_only_recent_epochs() {
        let c = cell();
        c.record_count(10);
        c.record_ok();
        // Observe second 0 so the boundary of second 1 excludes it.
        assert_eq!(
            c.window_at(SEC, Duration::from_millis(100)).latency.count,
            1
        );
        // Second 1 starts; the 1 s window forgets second 0, a wider
        // window remembers.
        let w = c.window_at(SEC, Duration::from_millis(1100));
        assert_eq!((w.latency.count, w.ok), (0, 0));
        assert_eq!(c.window_at(4 * SEC, Duration::from_millis(1100)).ok, 1);
        c.record_count(20);
        let at = Duration::from_millis(1200);
        assert_eq!(c.window_at(SEC, at).latency.count, 1);
        assert_eq!(c.window_at(2 * SEC, at).latency.count, 2);
        // Far future: everything expires, the total remains.
        let w = c.window_at(8 * SEC, Duration::from_secs(100));
        assert_eq!((w.latency.count, w.ok), (0, 0));
        assert_eq!((c.total().latency.count, c.total().ok), (2, 1));
    }

    #[test]
    fn unobserved_idle_gap_attributes_to_first_observation() {
        let c = cell();
        // Recorded during a long unobserved stretch: the first read
        // ever, at second 50, back-fills the ring with the current
        // capture, so the sample reads as pre-window...
        c.record_count(5);
        assert_eq!(c.window_at(SEC, Duration::from_secs(50)).latency.count, 0);
        // ...and samples recorded after it are windowed normally again.
        c.record_count(6);
        let at = Duration::from_millis(50_500);
        assert_eq!(c.window_at(SEC, at).latency.count, 1);
    }

    #[test]
    fn windowed_quantiles_track_the_window_not_the_total() {
        let c = cell();
        for _ in 0..100 {
            c.record_count(1_000_000); // slow era, second 0
        }
        let slow = c.window_at(SEC, Duration::from_millis(10));
        assert!(slow.latency.p99() >= 1_000_000);
        // A read at the second-1 boundary captures it (in production
        // the metrics poller plays this role once per second).
        c.window_at(SEC, Duration::from_millis(1001));
        for _ in 0..100 {
            c.record_count(10); // fast era, second 1
        }
        let w = c.window_at(SEC, Duration::from_millis(1010)).latency;
        assert_eq!((w.count, w.p99()), (100, 10));
        // The cumulative view still remembers the slow era.
        assert!(c.total().latency.p99() >= 1_000_000);
    }

    #[test]
    fn widest_window_is_clamped_to_the_ring() {
        let c = cell();
        for s in 0..120u64 {
            c.window_at(SEC, Duration::from_secs(s));
            c.record_count(s);
            c.record_ok();
        }
        // Asking for more than the ring holds reads exactly the ring's
        // span instead of panicking or wrapping: the last 60 seconds.
        let at = Duration::from_millis(119_500);
        let span = c.window_at(WINDOW_SPAN, at);
        assert_eq!((span.latency.count, span.ok), (60, 60));
        assert_eq!(span.latency.sum, (60..120).sum::<u64>());
        for wide in [300, 3600] {
            let w = c.window_at(Duration::from_secs(wide), at);
            assert_eq!(w.latency, span.latency);
            assert_eq!((w.ok, w.error, w.shed), (span.ok, span.error, span.shed));
        }
    }
}
