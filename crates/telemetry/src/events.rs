//! Flight recorder: a bounded ring of structured operational events
//! plus a pinned incident snapshot.
//!
//! Serving-stack components record [`Event`]s — session opens and
//! evictions, sheds with their reason, model registrations, batch
//! formations, SLO health transitions — into a fixed-size ring. A
//! sequence number is claimed with one lock-free `fetch_add`; the
//! claimed slot is then written under that slot's own mutex, so
//! recording never contends across slots and never blocks readers of
//! other slots. The ring is a black box for post-hoc reconstruction:
//! ask for [`recent`](FlightRecorder::recent) events after something
//! went wrong.
//!
//! When SLO health flips to `degraded`/`critical` the gateway
//! additionally [`pin`](FlightRecorder::pin)s an [`IncidentSnapshot`]
//! — the recent events, the slow traces, and the registry's cell
//! summaries frozen at the flip — so the diagnosis survives even after the ring has
//! churned past the incident and health has recovered.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::registry::CellSummary;
use crate::slo::SloStatus;
use crate::trace::Trace;

/// Milliseconds since the Unix epoch, the wall-clock anchor used by
/// traces and flight-recorder events. Saturates to zero if the system
/// clock is before the epoch.
pub fn unix_ms_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// How loudly an event should be read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventSeverity {
    /// Routine lifecycle: opens, registrations, batches formed.
    Info,
    /// Something was refused or lost capacity: sheds, evictions,
    /// degraded health.
    Warn,
    /// The system is in trouble: critical health.
    Error,
}

impl EventSeverity {
    /// Wire spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            EventSeverity::Info => "info",
            EventSeverity::Warn => "warn",
            EventSeverity::Error => "error",
        }
    }

    /// Inverse of [`as_str`](Self::as_str).
    pub fn parse(s: &str) -> Option<EventSeverity> {
        match s {
            "info" => Some(EventSeverity::Info),
            "warn" => Some(EventSeverity::Warn),
            "error" => Some(EventSeverity::Error),
            _ => None,
        }
    }
}

/// One structured event in the flight-recorder ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotone sequence number; total order across the process.
    pub seq: u64,
    /// Wall-clock anchor, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// How loudly to read this.
    pub severity: EventSeverity,
    /// Event taxonomy tag, e.g. `"session_open"`, `"shed"`,
    /// `"health_transition"`.
    pub kind: &'static str,
    /// Free-form details: the model, the reason, the counts.
    pub detail: String,
}

/// Everything frozen at the moment health flipped: the recent events,
/// the pinned slow traces, and the registry's cells as they looked then.
#[derive(Debug, Clone)]
pub struct IncidentSnapshot {
    /// When the flip was observed, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// The status health flipped *to*.
    pub status: SloStatus,
    /// Recent flight-recorder events at the flip, newest first.
    pub events: Vec<Event>,
    /// Pinned slow traces at the flip, newest first.
    pub traces: Vec<Trace>,
    /// Every registry cell's summary frozen at the flip, sorted by key.
    pub cells: Vec<CellSummary>,
}

#[derive(Debug)]
struct RecorderInner {
    seq: AtomicU64,
    slots: Box<[Mutex<Option<Event>>]>,
    pinned: Mutex<Option<IncidentSnapshot>>,
}

/// Bounded ring of [`Event`]s shared across the serving stack. Cheap
/// to clone — clones share the same ring.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    inner: Arc<RecorderInner>,
}

impl Default for FlightRecorder {
    /// A 256-slot ring.
    fn default() -> Self {
        FlightRecorder::with_capacity(256)
    }
}

impl FlightRecorder {
    /// A ring holding the last `capacity` events. Zero capacity drops
    /// every event (but still counts sequence numbers).
    pub fn with_capacity(capacity: usize) -> Self {
        let slots: Vec<Mutex<Option<Event>>> = (0..capacity).map(|_| Mutex::new(None)).collect();
        FlightRecorder {
            inner: Arc::new(RecorderInner {
                seq: AtomicU64::new(0),
                slots: slots.into_boxed_slice(),
                pinned: Mutex::new(None),
            }),
        }
    }

    /// The ring's slot count.
    pub fn capacity(&self) -> usize {
        self.inner.slots.len()
    }

    /// How many events have ever been recorded (including ones the
    /// ring has since overwritten).
    pub fn recorded(&self) -> u64 {
        self.inner.seq.load(Ordering::Relaxed)
    }

    /// Records one event, overwriting the oldest slot once the ring is
    /// full. Returns the event's sequence number.
    pub fn record(&self, severity: EventSeverity, kind: &'static str, detail: String) -> u64 {
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        if !self.inner.slots.is_empty() {
            let slot = &self.inner.slots[(seq % self.inner.slots.len() as u64) as usize];
            *slot.lock().expect("event slot poisoned") = Some(Event {
                seq,
                unix_ms: unix_ms_now(),
                severity,
                kind,
                detail,
            });
        }
        seq
    }

    /// The most recent events, newest first, up to `limit`.
    pub fn recent(&self, limit: usize) -> Vec<Event> {
        let mut events: Vec<Event> = self
            .inner
            .slots
            .iter()
            .filter_map(|slot| slot.lock().expect("event slot poisoned").clone())
            .collect();
        events.sort_by_key(|e| std::cmp::Reverse(e.seq));
        events.truncate(limit);
        events
    }

    /// Pins an incident snapshot, replacing any previous one: the
    /// *latest* flip wins, matching how an operator asks "what just
    /// happened".
    pub fn pin(&self, snapshot: IncidentSnapshot) {
        *self.inner.pinned.lock().expect("pinned snapshot poisoned") = Some(snapshot);
    }

    /// The pinned incident snapshot, if health ever flipped.
    pub fn pinned(&self) -> Option<IncidentSnapshot> {
        self.inner
            .pinned
            .lock()
            .expect("pinned snapshot poisoned")
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_newest_first_with_total_order() {
        let rec = FlightRecorder::with_capacity(4);
        for i in 0..10u64 {
            let seq = rec.record(EventSeverity::Info, "session_open", format!("s{i}"));
            assert_eq!(seq, i);
        }
        assert_eq!(rec.recorded(), 10);
        let events = rec.recent(16);
        assert_eq!(events.len(), 4, "ring keeps only capacity events");
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![9, 8, 7, 6]);
        assert!(events.iter().all(|e| e.unix_ms > 0));
        assert_eq!(rec.recent(2).len(), 2, "limit is honored");
    }

    #[test]
    fn clones_share_the_ring_and_concurrent_records_all_land() {
        let rec = FlightRecorder::with_capacity(64);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let rec = rec.clone();
                std::thread::spawn(move || {
                    for i in 0..8 {
                        rec.record(EventSeverity::Warn, "shed", format!("t{t} i{i}"));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("recorder thread");
        }
        let events = rec.recent(64);
        assert_eq!(events.len(), 32);
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(
            seqs,
            (0..32).collect::<Vec<u64>>(),
            "no seq lost or duplicated"
        );
    }

    #[test]
    fn zero_capacity_drops_events_without_panicking() {
        let rec = FlightRecorder::with_capacity(0);
        rec.record(EventSeverity::Error, "health_transition", "critical".into());
        assert_eq!(rec.recorded(), 1);
        assert!(rec.recent(8).is_empty());
    }

    #[test]
    fn pinned_snapshot_survives_ring_churn_and_latest_flip_wins() {
        let rec = FlightRecorder::with_capacity(2);
        rec.record(EventSeverity::Warn, "shed", "in_flight".into());
        rec.pin(IncidentSnapshot {
            unix_ms: unix_ms_now(),
            status: SloStatus::Degraded,
            events: rec.recent(8),
            traces: Vec::new(),
            cells: Vec::new(),
        });
        // Churn the ring far past the incident.
        for _ in 0..16 {
            rec.record(EventSeverity::Info, "batch_formed", "jobs=1".into());
        }
        rec.pin(IncidentSnapshot {
            unix_ms: unix_ms_now(),
            status: SloStatus::Critical,
            events: rec.recent(8),
            traces: Vec::new(),
            cells: Vec::new(),
        });
        let pinned = rec.pinned().expect("snapshot pinned");
        assert_eq!(pinned.status, SloStatus::Critical, "latest flip wins");
        assert!(!pinned.events.is_empty());
        assert!(pinned.events.iter().any(|e| e.kind == "batch_formed"));
    }

    #[test]
    fn severity_spelling_round_trips() {
        for sev in [
            EventSeverity::Info,
            EventSeverity::Warn,
            EventSeverity::Error,
        ] {
            assert_eq!(EventSeverity::parse(sev.as_str()), Some(sev));
        }
        assert_eq!(EventSeverity::parse("fatal"), None);
        assert!(EventSeverity::Info < EventSeverity::Warn);
        assert!(EventSeverity::Warn < EventSeverity::Error);
    }
}
