//! Admission control: bounded in-flight requests and bounded queue wait.
//!
//! A front door that accepts everything converts overload into unbounded
//! queueing — every request eventually times out and the server does
//! work nobody is waiting for. The [`AdmissionController`] instead sheds
//! excess load explicitly: a request either takes one of
//! `max_in_flight` permits immediately or is rejected with
//! [`ServeError::Overloaded`], and an admitted request that is not
//! answered within `max_queue_wait` releases its caller with the same
//! error. A shed caller then drops its [`Pending`] handle, which cancels
//! the request if it is still queued — so shedding frees both the permit
//! *and* the queued work, and sustained overload cannot grow the runtime
//! queue behind the admission layer's back. (A request a worker already
//! claimed into a batch completes normally; its answer is discarded.)

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use panacea_serve::{InferenceOutput, OverloadReason, Pending, ServeError};

/// Admission bounds.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Maximum simultaneously admitted (submitted, unanswered) requests.
    pub max_in_flight: usize,
    /// Longest a caller waits for an admitted request before being shed.
    pub max_queue_wait: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_in_flight: 256,
            max_queue_wait: Duration::from_secs(5),
        }
    }
}

/// Counters describing admission decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Requests that took a permit.
    pub admitted: u64,
    /// Requests rejected because all permits were taken.
    pub rejected_capacity: u64,
    /// Admitted requests whose caller was shed by the queue-wait bound.
    pub rejected_timeout: u64,
    /// Permits currently held.
    pub in_flight: usize,
}

impl AdmissionStats {
    /// Total explicit rejections (capacity + timeout).
    pub fn total_rejected(&self) -> u64 {
        self.rejected_capacity + self.rejected_timeout
    }
}

/// Shared admission state. See the module docs.
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmissionConfig,
    in_flight: AtomicUsize,
    admitted: AtomicU64,
    rejected_capacity: AtomicU64,
    rejected_timeout: AtomicU64,
}

impl AdmissionController {
    /// Builds a controller enforcing `config` (at least one permit).
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionController {
            config: AdmissionConfig {
                max_in_flight: config.max_in_flight.max(1),
                ..config
            },
            in_flight: AtomicUsize::new(0),
            admitted: AtomicU64::new(0),
            rejected_capacity: AtomicU64::new(0),
            rejected_timeout: AtomicU64::new(0),
        }
    }

    /// The bounds being enforced.
    pub fn config(&self) -> AdmissionConfig {
        self.config
    }

    /// Takes a permit if one is free; the permit releases on drop, so
    /// error paths can never leak capacity.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] with [`OverloadReason::InFlight`] when
    /// all permits are taken.
    pub fn try_admit(&self) -> Result<AdmissionPermit<'_>, ServeError> {
        let limit = self.config.max_in_flight;
        let admitted = self
            .in_flight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                (cur < limit).then_some(cur + 1)
            })
            .is_ok();
        if admitted {
            self.admitted.fetch_add(1, Ordering::Relaxed);
            Ok(AdmissionPermit { controller: self })
        } else {
            self.rejected_capacity.fetch_add(1, Ordering::Relaxed);
            Err(ServeError::Overloaded {
                reason: OverloadReason::InFlight { limit },
            })
        }
    }

    /// Waits for an admitted request's response, bounded by
    /// `max_queue_wait` and, when given, by the caller's `deadline`: the
    /// wait lasts until whichever comes first. A timeout caused by the
    /// deadline answers [`ServeError::DeadlineExceeded`] — the caller
    /// asked for that bound, so it is not counted as a shed — while one
    /// caused by `max_queue_wait` sheds the caller.
    ///
    /// # Errors
    ///
    /// [`ServeError::DeadlineExceeded`] when the deadline bound elapses
    /// first (or has already passed), [`ServeError::Overloaded`] with
    /// [`OverloadReason::QueueWait`] when `max_queue_wait` does, and
    /// whatever [`Pending::wait_timeout`] surfaces otherwise.
    pub fn wait_bounded_deadline(
        &self,
        pending: &Pending,
        deadline: Option<Instant>,
    ) -> Result<InferenceOutput, ServeError> {
        let cap = self.config.max_queue_wait;
        let (waited, deadline_bound) = match deadline {
            Some(d) => {
                let remaining = d.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(ServeError::DeadlineExceeded);
                }
                (remaining.min(cap), remaining <= cap)
            }
            None => (cap, false),
        };
        match pending.wait_timeout(waited)? {
            Some(out) => Ok(out),
            None if deadline_bound => Err(ServeError::DeadlineExceeded),
            None => {
                self.rejected_timeout.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Overloaded {
                    reason: OverloadReason::QueueWait { waited },
                })
            }
        }
    }

    /// Current counters.
    pub fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected_capacity: self.rejected_capacity.load(Ordering::Relaxed),
            rejected_timeout: self.rejected_timeout.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Acquire),
        }
    }
}

/// RAII permit from [`AdmissionController::try_admit`]; dropping it
/// frees the slot.
#[derive(Debug)]
pub struct AdmissionPermit<'a> {
    controller: &'a AdmissionController,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.controller.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panacea_serve::{BatchPolicy, ModelRegistry, Runtime, RuntimeConfig};
    use std::sync::Arc;

    #[test]
    fn permits_bound_concurrency_and_release_on_drop() {
        let ctrl = AdmissionController::new(AdmissionConfig {
            max_in_flight: 2,
            max_queue_wait: Duration::from_secs(1),
        });
        let p1 = ctrl.try_admit().expect("slot 1");
        let _p2 = ctrl.try_admit().expect("slot 2");
        let rejected = ctrl.try_admit();
        assert!(matches!(
            rejected,
            Err(ServeError::Overloaded {
                reason: OverloadReason::InFlight { limit: 2 }
            })
        ));
        drop(p1);
        let p3 = ctrl.try_admit();
        assert!(p3.is_ok(), "dropped permit was not reusable");
        let s = ctrl.stats();
        assert_eq!(s.admitted, 3);
        assert_eq!(s.rejected_capacity, 1);
        assert_eq!(s.total_rejected(), 1);
        assert_eq!(s.in_flight, 2);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one_permit() {
        let ctrl = AdmissionController::new(AdmissionConfig {
            max_in_flight: 0,
            max_queue_wait: Duration::from_secs(1),
        });
        assert!(ctrl.try_admit().is_ok());
    }

    #[test]
    fn queue_wait_bound_sheds_slow_requests() {
        // One request lingering for companions far beyond the wait bound:
        // the bounded wait must release the caller with an Overloaded error.
        let registry = Arc::new(ModelRegistry::new());
        let model = registry.insert(
            crate::testutil::models(&["m"], 1)
                .pop()
                .expect("one model prepared"),
        );
        let runtime = Runtime::start(
            Arc::clone(&registry),
            RuntimeConfig {
                workers: 1,
                policy: BatchPolicy {
                    max_batch: 4096,
                    max_wait: Duration::from_secs(30),
                },
            },
        );
        let ctrl = AdmissionController::new(AdmissionConfig {
            max_in_flight: 4,
            max_queue_wait: Duration::from_millis(20),
        });
        let codes = crate::testutil::codes(&model, 1, 0);
        let permit = ctrl.try_admit().expect("admitted");
        let pending = runtime.submit_to(model, codes).expect("queued");
        let shed = ctrl.wait_bounded_deadline(&pending, None);
        drop(permit);
        assert!(matches!(
            shed,
            Err(ServeError::Overloaded {
                reason: OverloadReason::QueueWait { .. }
            })
        ));
        assert_eq!(ctrl.stats().rejected_timeout, 1);
        assert_eq!(ctrl.stats().in_flight, 0);
    }
}
