//! Stateful decode sessions: per-sequence KV caches with lifecycle
//! management.
//!
//! A decode session owns one sequence's [`KvCache`] across a
//! transformer-block stack. The [`SessionManager`] is the
//! serving-layer owner of that state: it creates sessions
//! ([`open`](SessionManager::open)), advances them
//! ([`step`](SessionManager::step) — one KV-cached
//! [`PreparedModel::forward_decode`] call per step), and bounds their
//! footprint two ways:
//!
//! * **idle eviction** — a session untouched for
//!   [`SessionConfig::idle_timeout`] is dropped on the next manager
//!   operation (or an explicit [`sweep`](SessionManager::sweep));
//! * **byte budget** — the total resident KV bytes across sessions may
//!   not exceed [`SessionConfig::max_kv_bytes`]; a step that would
//!   overflow first evicts least-recently-used *idle* sessions and, if
//!   the budget still cannot fit, fails with
//!   [`ServeError::KvBudgetExceeded`] instead of growing unboundedly.
//!
//! Steps are **continuously batched**: [`step`](SessionManager::step)
//! submits into the manager's `DecodeBatcher`, whose worker fuses the
//! queued steps of concurrent sessions on the same model into one GEMM
//! pass per layer ([`panacea_block::decode_step_batch`] over the steps
//! stacked by [`run_coalesced`](panacea_core::pipeline::run_coalesced))
//! — aggregate decode throughput scales with concurrency by filling the
//! GEMM `N` dimension, while every session's outputs stay bit-identical
//! to solo stepping. The batcher drains the same `BatchQueue` the
//! stateless runtime does (wait → purge expired → linger → take). Knobs:
//! [`SessionConfig::max_decode_batch`] (columns per fused pass) and
//! [`SessionConfig::decode_max_wait`] (linger for batchmates; zero by
//! default, like [`BatchPolicy::max_wait`](crate::BatchPolicy::max_wait)).
//! A chunk at least `max_decode_batch` wide would fill a pass by itself:
//! it runs the batcher's one pass body on its caller's thread instead,
//! with the same panic isolation, and is not counted as a fused pass. A
//! session's steps are serialized by its own lock — held for the pass it
//! rides in — while distinct sessions proceed concurrently. Stepping a
//! closed or evicted session fails with [`ServeError::UnknownSession`] —
//! the caller re-opens and replays its prefix.
//!
//! Idle eviction is amortized: the O(sessions) idle scan runs at most
//! once per sweep period (a fraction of the idle timeout), not on every
//! step, so steady-state stepping costs O(1) in session count under the
//! manager's map lock. An explicit [`sweep`](SessionManager::sweep)
//! always scans.
//!
//! Session state is **never** admissible to a response cache: a step's
//! output depends on the KV prefix, not just its payload, so replaying
//! a cached step would corrupt (or lie about) session state. The
//! gateway's `RequestCache` is reachable only from the stateless
//! request path; this module has no cache access at all.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, TryLockError};
use std::time::{Duration, Instant};

use panacea_block::KvCache;
use panacea_faultline::Fault;
use panacea_telemetry::{DimCell, EventSeverity, MetricRegistry};
use panacea_tensor::Matrix;

use crate::decode_batch::{DecodeBatcher, StepFailure};
use crate::metrics::{Metrics, ShardStats};
use crate::model::PreparedModel;
use crate::queue::{QueueDepth, RequestCtx};
use crate::ServeError;

/// Lifecycle, footprint, and continuous-batching knobs for a
/// [`SessionManager`].
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// A session untouched this long is evicted by the next amortized
    /// sweep (or an explicit [`SessionManager::sweep`]).
    pub idle_timeout: Duration,
    /// Total resident KV bytes allowed across all sessions.
    pub max_kv_bytes: usize,
    /// Column budget of one fused decode pass (continuous batching). A
    /// chunk at least this wide runs its pass on the caller's thread —
    /// it would fill a pass by itself, and caller-thread execution keeps
    /// concurrent wide prefills parallel instead of serialized behind the
    /// worker. At `0` or `1` every step is such a chunk.
    pub max_decode_batch: usize,
    /// How long the oldest queued decode step may linger for batchmates
    /// before its fused pass dispatches anyway. Batches also form with
    /// zero linger — steps queue up behind the pass in flight — but a
    /// short linger fills passes when arrivals trickle in.
    pub decode_max_wait: Duration,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            idle_timeout: Duration::from_secs(60),
            max_kv_bytes: 64 << 20,
            max_decode_batch: 32,
            decode_max_wait: Duration::ZERO,
        }
    }
}

/// Source of process-unique session ids; 0 is never issued.
static NEXT_SESSION: AtomicU64 = AtomicU64::new(1);

/// The mutable half of a session, behind its per-session lock. The
/// decode batcher's worker holds this lock for the fused pass a step
/// rides in.
#[derive(Debug)]
pub(crate) struct Session {
    pub(crate) kv: KvCache,
    pub(crate) last_used: Instant,
}

/// A model's `(model, "decode", …)` stage cells plus its block
/// sub-layer cells, resolved once when a session opens and carried by
/// its [`Slot`] so neither the stepping thread nor the batching worker
/// looks anything up per step.
#[derive(Debug)]
pub(crate) struct DecodeCells {
    /// End-to-end [`SessionManager::step`] latency, successes only.
    step: Arc<DimCell>,
    /// Enqueue-to-pass-start linger, per batched step.
    pub(crate) linger: Arc<DimCell>,
    /// Fused-pass duration, per pass.
    pub(crate) fused_pass: Arc<DimCell>,
    /// Sessions fused per pass — a raw count, not a duration.
    pub(crate) occupancy: Arc<DimCell>,
    /// See [`PreparedModel::block_cells`].
    pub(crate) block: Vec<Arc<DimCell>>,
}

impl DecodeCells {
    fn resolve(registry: &MetricRegistry, model: &PreparedModel) -> Self {
        let cell = |stage| registry.cell(model.name(), "decode", stage);
        DecodeCells {
            step: cell("step"),
            linger: cell("linger"),
            fused_pass: cell("fused_pass"),
            occupancy: cell("occupancy"),
            block: model.block_cells(registry),
        }
    }
}

/// One session's map entry: the per-session lock plus the immutable
/// metadata the manager (and the decode batcher) read without taking it.
#[derive(Debug)]
pub(crate) struct Slot {
    pub(crate) cell: Mutex<Session>,
    /// The prepared model this session decodes on — immutable for the
    /// session's lifetime, so the batcher groups same-model steps by
    /// pointer identity without touching the cell.
    pub(crate) model: Arc<PreparedModel>,
    pub(crate) cells: DecodeCells,
    bytes_per_token: usize,
    /// Bytes this slot currently contributes to the shard's `kv_bytes`
    /// gauge — resident KV plus any reservation for a step in flight.
    /// Mutated and read only under the manager's inner lock (hence
    /// `Relaxed`); it exists so removal (close/eviction) can settle a
    /// slot's accounting exactly once without touching the per-session
    /// lock, whatever a concurrent step is doing.
    accounted: AtomicUsize,
}

#[derive(Debug)]
struct Inner {
    sessions: HashMap<u64, Arc<Slot>>,
    /// When the next amortized idle scan is due — steps and opens before
    /// this instant skip the O(sessions) scan entirely.
    next_idle_sweep: Instant,
}

/// Owner of decode-session state and lifecycle. See the module docs.
#[derive(Debug)]
pub struct SessionManager {
    config: SessionConfig,
    /// The session map. The counter block's `open_sessions` and
    /// `kv_bytes` gauges are written only under this lock.
    inner: Mutex<Inner>,
    /// Continuous-batching executor for decode steps, and the one pass
    /// body budget-filling chunks run on their caller's thread.
    batcher: DecodeBatcher,
    /// The counter block, the registry every session's [`DecodeCells`]
    /// live in, and the ring session opens, closes and evictions land
    /// in.
    metrics: Metrics,
}

impl SessionManager {
    /// An empty manager enforcing `config`, recording into a counter
    /// block, metric registry and flight recorder private to this
    /// manager.
    pub fn new(config: SessionConfig) -> Self {
        SessionManager::with_metrics(config, Metrics::default())
    }

    /// [`new`](Self::new) recording into `metrics` instead: steps,
    /// passes, panics, expired steps, poisoned evictions and KV-budget
    /// refusals count into its [`ShardCounters`](crate::ShardCounters),
    /// whose `open_sessions` and `kv_bytes` gauges this manager owns (so
    /// a block serves at most one manager); per-model
    /// `(model, "decode", step|linger|fused_pass|occupancy)` and
    /// `(model, "block", …)` stage samples land in its registry; session
    /// lifecycle (open/close/evict) and fused-pass formations in its
    /// recorder.
    pub fn with_metrics(config: SessionConfig, metrics: Metrics) -> Self {
        let batcher = DecodeBatcher::new(
            config.max_decode_batch,
            config.decode_max_wait,
            metrics.clone(),
        );
        SessionManager {
            config,
            inner: Mutex::new(Inner {
                sessions: HashMap::new(),
                next_idle_sweep: Instant::now() + idle_sweep_period(config.idle_timeout),
            }),
            batcher,
            metrics,
        }
    }

    /// The bounds being enforced.
    pub fn config(&self) -> SessionConfig {
        self.config
    }

    /// Opens a session on a transformer-block model, returning its
    /// process-unique id. The session starts with an empty KV cache;
    /// the prefix (prompt) arrives through [`step`](Self::step) calls,
    /// which accept any column chunking.
    ///
    /// # Errors
    ///
    /// [`ServeError::PayloadKindMismatch`] when `model` is a linear
    /// chain (there is no attention state to cache).
    pub fn open(&self, model: Arc<PreparedModel>) -> Result<u64, ServeError> {
        let kv = model.new_kv_cache()?;
        let bytes_per_token = kv.bytes_per_token();
        let id = NEXT_SESSION.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(Slot {
            cell: Mutex::new(Session {
                kv,
                last_used: Instant::now(),
            }),
            cells: DecodeCells::resolve(self.metrics.registry(), &model),
            model,
            bytes_per_token,
            accounted: AtomicUsize::new(0),
        });
        let model_name = slot.model.name().to_string();
        {
            let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            self.maybe_evict_idle_locked(&mut inner, Instant::now());
            inner.sessions.insert(id, slot);
            self.metrics
                .counters()
                .open_sessions
                .fetch_add(1, Ordering::Relaxed);
        }
        self.metrics.recorder().record(
            EventSeverity::Info,
            "session_open",
            format!("session={id} model={model_name}"),
        );
        Ok(id)
    }

    /// The model a resident session decodes on, or `None` if the
    /// session is not resident here — how a sharded front end finds the
    /// manager holding a session's KV state and attributes the session's
    /// verbs to per-model metric dimensions, in one lookup.
    pub fn model(&self, session: u64) -> Option<Arc<PreparedModel>> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .sessions
            .get(&session)
            .map(|slot| Arc::clone(&slot.model))
    }

    /// Advances a session by `hidden` (`d_model × t_new` new tokens,
    /// any chunking), returning the new tokens' output hidden states and
    /// the session's total token count afterwards. Bit-identical to a full causal
    /// recompute of the whole prefix — see
    /// [`PreparedModel::forward_decode`] — *and* to solo stepping: the
    /// continuous batcher coalesces concurrent sessions' steps into one
    /// GEMM pass per layer without changing any session's bits.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] if the session was never opened,
    /// was closed, or has been evicted;
    /// [`ServeError::KvBudgetExceeded`] if the step cannot fit the byte
    /// budget even after evicting idle sessions; the input-contract
    /// errors of [`PreparedModel::validate_decode`]; and
    /// [`ServeError::WorkerLost`] if the batching worker died (never
    /// under clean shutdown).
    pub fn step(
        &self,
        session: u64,
        hidden: &Matrix<f32>,
    ) -> Result<(Matrix<f32>, usize), ServeError> {
        self.step_with(session, hidden, RequestCtx::default())
    }

    /// [`step`](Self::step) carrying a [`RequestCtx`]. With a trace, a
    /// step that rides a fused pass has the batching worker record
    /// `queue_wait` and a `decode_pass` span (linked to its batchmates'
    /// traces) into the submitting request's trace; caller-thread steps
    /// record no extra spans — the caller's own span already covers them.
    /// With a deadline, a step whose deadline has already passed is
    /// rejected before it reserves budget, and one that expires while
    /// queued behind a stalled fused pass is answered
    /// [`ServeError::DeadlineExceeded`] at dequeue instead of executed
    /// uselessly late. A deadline never interrupts a pass in flight — KV
    /// state stays consistent.
    ///
    /// # Errors
    ///
    /// Same as [`step`](Self::step), plus
    /// [`ServeError::DeadlineExceeded`].
    pub fn step_with(
        &self,
        session: u64,
        hidden: &Matrix<f32>,
        ctx: RequestCtx,
    ) -> Result<(Matrix<f32>, usize), ServeError> {
        let now = Instant::now();
        if ctx.deadline.is_some_and(|d| now >= d) {
            return Err(ServeError::DeadlineExceeded);
        }
        if let Some(fault) = panacea_faultline::point("serve.session.step") {
            if matches!(fault, Fault::Error) {
                return Err(ServeError::Internal { at: "session_step" });
            }
        }
        let counters = self.metrics.counters();
        let (slot, growth) = {
            let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            self.maybe_evict_idle_locked(&mut inner, now);
            let slot = Arc::clone(
                inner
                    .sessions
                    .get(&session)
                    .ok_or(ServeError::UnknownSession { session })?,
            );
            let growth = slot.bytes_per_token.saturating_mul(hidden.cols());
            let session_bytes = slot.accounted.load(Ordering::Relaxed);
            // A step this session could never fit even alone must not
            // evict anyone else on its doomed way to the error.
            if session_bytes + growth > self.config.max_kv_bytes {
                counters.kv_budget_exceeded.add(1);
                return Err(ServeError::KvBudgetExceeded {
                    needed: session_bytes + growth,
                    budget: self.config.max_kv_bytes,
                });
            }
            if self.kv_bytes() + growth > self.config.max_kv_bytes {
                self.evict_for_budget_locked(&mut inner, session, growth);
            }
            if self.kv_bytes() + growth > self.config.max_kv_bytes {
                counters.kv_budget_exceeded.add(1);
                return Err(ServeError::KvBudgetExceeded {
                    needed: self.kv_bytes() + growth,
                    budget: self.config.max_kv_bytes,
                });
            }
            // Reserve the growth while the step runs, so concurrent
            // steps cannot jointly overshoot the budget. The slot's
            // `accounted` carries the reservation, so a removal racing
            // this step settles it exactly once.
            slot.accounted.fetch_add(growth, Ordering::Relaxed);
            counters.kv_bytes.fetch_add(growth, Ordering::Relaxed);
            (slot, growth)
        };

        // Validate before the step can reach a pass (or the session
        // lock): a malformed step fails on this thread, rolls its
        // reservation back below, and can never poison batchmates.
        let result = slot
            .model
            .validate_decode(hidden)
            .and_then(|()| self.run(session, &slot, hidden, ctx));

        match &result {
            // On success the reservation simply *becomes* the resident
            // bytes — nothing to adjust. If the session was removed
            // mid-step (close or eviction), the removal already settled
            // the slot's whole `accounted` (reservation included), and
            // the orphaned cache frees when the last Arc goes.
            Ok(_) => {
                counters.decode_steps.add(1);
                counters.decode_tokens.add(hidden.cols() as u64);
                slot.cells.step.record_latency(now.elapsed());
            }
            // A failed step grew nothing: release the reservation —
            // unless a concurrent removal already settled it.
            Err(_) => {
                let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
                if inner.sessions.contains_key(&session) {
                    slot.accounted.fetch_sub(growth, Ordering::Relaxed);
                    counters.kv_bytes.fetch_sub(growth, Ordering::Relaxed);
                }
            }
        }
        result
    }

    /// Closes a session, freeing its KV state; returns the tokens it
    /// had decoded.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] if it does not exist (never
    /// opened, already closed, or evicted).
    pub fn close(&self, session: u64) -> Result<usize, ServeError> {
        let slot = {
            let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            self.remove_locked(&mut inner, session)
                .ok_or(ServeError::UnknownSession { session })?
        };
        // Wait for an in-flight step *outside* the manager lock, so one
        // slow step being closed never stalls the whole shard.
        let tokens = slot
            .cell
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .kv
            .tokens();
        self.metrics.recorder().record(
            EventSeverity::Info,
            "session_close",
            format!("session={session} tokens={tokens}"),
        );
        Ok(tokens)
    }

    /// Runs one validated step through the decode batcher and maps its
    /// answer. A chunk at least as wide as the fused-pass budget runs
    /// the pass body on this thread — it would fill a pass alone anyway,
    /// and running wide prefills on their caller threads keeps them
    /// parallel across sessions instead of serializing behind one
    /// worker. Narrower steps enqueue and block for the fused pass they
    /// ride in; the pass holds the session lock and updates `last_used`.
    fn run(
        &self,
        session: u64,
        slot: &Arc<Slot>,
        hidden: &Matrix<f32>,
        ctx: RequestCtx,
    ) -> Result<(Matrix<f32>, usize), ServeError> {
        let answer = if hidden.cols() >= self.config.max_decode_batch {
            self.batcher.run_on_caller(slot, hidden)
        } else {
            self.batcher
                .submit(session, Arc::clone(slot), hidden.clone(), ctx)
                .recv()
                .map_err(|_| ServeError::WorkerLost)?
        };
        answer.map_err(|failure| match failure {
            StepFailure::DeadlineExceeded => ServeError::DeadlineExceeded,
            StepFailure::Internal { poisoned, at } => {
                if poisoned {
                    self.evict_poisoned(session, at);
                }
                ServeError::Internal { at }
            }
        })
    }

    /// Removes a session whose own step panicked mid-pass. The KV was
    /// already rolled back to the pre-step prefix, but a panic inside
    /// this session's append is grounds for distrust: the caller gets
    /// [`ServeError::Internal`] now and [`ServeError::UnknownSession`]
    /// afterwards, and must re-open and replay.
    fn evict_poisoned(&self, session: u64, at: &'static str) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if self.evict_locked(&mut inner, session, &format!("poisoned at={at}")) {
            self.metrics.counters().evicted_poisoned.add(1);
        }
    }

    /// Removes a session and settles its whole accounting — resident
    /// bytes plus any in-flight step's reservation — exactly once; that
    /// step sees the removal and leaves the settlement alone.
    fn remove_locked(&self, inner: &mut Inner, session: u64) -> Option<Arc<Slot>> {
        let slot = inner.sessions.remove(&session)?;
        let counters = self.metrics.counters();
        counters.open_sessions.fetch_sub(1, Ordering::Relaxed);
        counters
            .kv_bytes
            .fetch_sub(slot.accounted.load(Ordering::Relaxed), Ordering::Relaxed);
        Some(slot)
    }

    /// Removes `session` (see [`remove_locked`](Self::remove_locked))
    /// and records a `session_evict` event with `reason`; returns
    /// whether it was resident.
    fn evict_locked(&self, inner: &mut Inner, session: u64, reason: &str) -> bool {
        let evicted = self.remove_locked(inner, session).is_some();
        if evicted {
            self.metrics.recorder().record(
                EventSeverity::Warn,
                "session_evict",
                format!("session={session} reason={reason}"),
            );
        }
        evicted
    }

    /// Evicts every idle-timed-out session now, regardless of the
    /// amortization deadline (idle eviction also happens on open/step,
    /// but only once per sweep period). Returns how many were evicted.
    pub fn sweep(&self) -> usize {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        self.evict_idle_locked(&mut inner, Instant::now())
    }

    /// The counter block this manager records into, resident footprint
    /// included — the whole shard's when a runtime counts into the same
    /// block, less that runtime's queue depth.
    pub fn stats(&self) -> ShardStats {
        self.metrics.counters().snapshot(QueueDepth::default())
    }

    /// Resident KV bytes, reservations included. Read under the map
    /// lock, which every write holds.
    fn kv_bytes(&self) -> usize {
        self.metrics.counters().kv_bytes.load(Ordering::Relaxed)
    }

    /// The amortized idle scan: a no-op until the sweep deadline, so
    /// steady-state stepping never pays the O(sessions) walk under the
    /// map lock. Staleness is bounded by one sweep period on top of the
    /// idle timeout.
    fn maybe_evict_idle_locked(&self, inner: &mut Inner, now: Instant) {
        if now < inner.next_idle_sweep {
            return;
        }
        self.evict_idle_locked(inner, now);
    }

    /// Drops sessions idle past the timeout and re-arms the sweep
    /// deadline. A session whose lock is held (a step in flight) is by
    /// definition not idle and is skipped.
    fn evict_idle_locked(&self, inner: &mut Inner, now: Instant) -> usize {
        inner.next_idle_sweep = now + idle_sweep_period(self.config.idle_timeout);
        let mut victims = Vec::new();
        for (&id, slot) in &inner.sessions {
            let s = match slot.cell.try_lock() {
                Ok(s) => s,
                Err(TryLockError::WouldBlock) => continue, // mid-step: not idle
                // A poisoned cell means a caller-thread panic escaped
                // while holding the lock (every serving path catches,
                // so only foreign users of `Slot` can do this). The
                // state behind it was never half-mutated by *our* code;
                // recover and judge idleness normally.
                Err(TryLockError::Poisoned(p)) => p.into_inner(),
            };
            if now.duration_since(s.last_used) > self.config.idle_timeout {
                victims.push(id);
            }
        }
        for &id in &victims {
            self.evict_locked(inner, id, "idle");
        }
        victims.len()
    }

    /// Evicts least-recently-used sessions (skipping `keep` and any
    /// mid-step session) until `growth` more bytes fit the budget or
    /// nothing evictable remains.
    fn evict_for_budget_locked(&self, inner: &mut Inner, keep: u64, growth: usize) {
        let mut candidates: Vec<(u64, Instant)> = Vec::new();
        for (&id, slot) in &inner.sessions {
            if id == keep {
                continue;
            }
            let s = match slot.cell.try_lock() {
                Ok(s) => s,
                // mid-step: stealing its state would corrupt it
                Err(TryLockError::WouldBlock) => continue,
                // recovered, not mid-step — evictable like any other
                Err(TryLockError::Poisoned(p)) => p.into_inner(),
            };
            candidates.push((id, s.last_used));
        }
        candidates.sort_by_key(|&(_, used)| used);
        for (id, _) in candidates {
            if self.kv_bytes() + growth <= self.config.max_kv_bytes {
                break;
            }
            self.evict_locked(inner, id, "budget");
        }
    }
}

/// How often the amortized idle scan runs: a quarter of the timeout
/// bounds eviction staleness at ~1.25× `idle_timeout` while keeping the
/// O(sessions) walk rare; the floor keeps a zero timeout from re-arming
/// the scan on every operation.
fn idle_sweep_period(idle_timeout: Duration) -> Duration {
    (idle_timeout / 4).max(Duration::from_millis(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{block_model, hidden};

    fn manager(config: SessionConfig) -> (SessionManager, Arc<PreparedModel>) {
        let (model, _) = block_model("s", 70);
        (SessionManager::new(config), Arc::new(model))
    }

    /// `session_evict` events recorded with `reason`.
    fn evictions(mgr: &SessionManager, reason: &str) -> usize {
        let tag = format!("reason={reason}");
        mgr.metrics
            .recorder()
            .recent(256)
            .iter()
            .filter(|e| e.kind == "session_evict" && e.detail.ends_with(&tag))
            .count()
    }

    #[test]
    fn open_step_close_round_trip() {
        let (mgr, model) = manager(SessionConfig::default());
        let id = mgr.open(Arc::clone(&model)).expect("opened");
        assert!(mgr.model(id).is_some());
        let (out, tokens) = mgr.step(id, &hidden(16, 3, 0)).expect("stepped");
        assert_eq!(out.shape(), (16, 3));
        assert_eq!(tokens, 3);
        let (_, tokens) = mgr.step(id, &hidden(16, 1, 1)).expect("stepped");
        assert_eq!(tokens, 4);
        let s = mgr.stats();
        assert_eq!(s.open_sessions, 1);
        assert_eq!(s.decode_steps, 2);
        assert_eq!(s.decode_tokens, 4);
        assert_eq!(s.kv_bytes, 2 * 2 * 16 * 4 * 4);
        assert_eq!(mgr.close(id).expect("closed"), 4);
        assert!(mgr.model(id).is_none());
        assert_eq!(mgr.stats().kv_bytes, 0);
    }

    #[test]
    fn unknown_closed_and_double_closed_sessions_error() {
        let (mgr, model) = manager(SessionConfig::default());
        assert!(matches!(
            mgr.step(999, &hidden(16, 1, 0)),
            Err(ServeError::UnknownSession { session: 999 })
        ));
        let id = mgr.open(model).expect("opened");
        mgr.close(id).expect("closed");
        assert!(matches!(
            mgr.step(id, &hidden(16, 1, 0)),
            Err(ServeError::UnknownSession { .. })
        ));
        assert!(matches!(
            mgr.close(id),
            Err(ServeError::UnknownSession { .. })
        ));
    }

    #[test]
    fn chain_models_cannot_open_sessions() {
        let mgr = SessionManager::new(SessionConfig::default());
        let chain = Arc::new(
            crate::PreparedModel::prepare(
                "chain",
                &[crate::LayerSpec::unbiased(
                    panacea_tensor::Matrix::<f32>::zeros(8, 16),
                )],
                &panacea_tensor::Matrix::<f32>::zeros(16, 4),
                crate::PrepareOptions::default(),
            )
            .expect("prepare"),
        );
        assert!(matches!(
            mgr.open(chain),
            Err(ServeError::PayloadKindMismatch {
                model_is_block: false,
                ..
            })
        ));
    }

    #[test]
    fn idle_sessions_are_evicted_and_step_errors_afterwards() {
        let (mgr, model) = manager(SessionConfig {
            idle_timeout: Duration::from_millis(20),
            ..SessionConfig::default()
        });
        let id = mgr.open(model).expect("opened");
        mgr.step(id, &hidden(16, 2, 0)).expect("stepped");
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(mgr.sweep(), 1);
        let s = mgr.stats();
        assert_eq!(evictions(&mgr, "idle"), 1);
        assert_eq!(s.open_sessions, 0);
        assert_eq!(s.kv_bytes, 0, "evicted KV bytes must be released");
        assert!(matches!(
            mgr.step(id, &hidden(16, 1, 1)),
            Err(ServeError::UnknownSession { .. })
        ));
    }

    #[test]
    fn byte_budget_evicts_lru_idle_sessions_then_errors() {
        // bytes_per_token = 2 blocks × 2 (K+V) × 16 × 4 = 256 bytes.
        // Budget of 1024 holds 4 tokens total.
        let (mgr, model) = manager(SessionConfig {
            idle_timeout: Duration::from_secs(3600),
            max_kv_bytes: 1024,
            ..SessionConfig::default()
        });
        let a = mgr.open(Arc::clone(&model)).expect("opened");
        let b = mgr.open(Arc::clone(&model)).expect("opened");
        mgr.step(a, &hidden(16, 3, 0)).expect("fills 3 tokens");
        mgr.step(b, &hidden(16, 1, 1)).expect("fits exactly");
        // One more token does not fit; the LRU session (a) is evicted
        // to make room.
        mgr.step(b, &hidden(16, 1, 2))
            .expect("b grows after a dies");
        assert!(mgr.model(a).is_none(), "LRU session survived the budget");
        assert!(mgr.model(b).is_some());
        assert_eq!(evictions(&mgr, "budget"), 1);
        assert!(matches!(
            mgr.step(a, &hidden(16, 1, 3)),
            Err(ServeError::UnknownSession { .. })
        ));
        // A single step larger than the whole budget cannot be helped
        // by eviction.
        let c = mgr.open(model).expect("opened");
        assert!(matches!(
            mgr.step(c, &hidden(16, 5, 4)),
            Err(ServeError::KvBudgetExceeded { .. })
        ));
        // The failed reservation must not leak accounted bytes.
        assert_eq!(mgr.stats().kv_bytes, 2 * 256);
    }

    #[test]
    fn byte_accounting_survives_concurrent_step_close_churn() {
        // Steps racing closes and evictions must leave `kv_bytes`
        // exactly consistent: every session's bytes are settled once —
        // never leaked, never double-subtracted.
        let (mgr, model) = manager(SessionConfig::default());
        let mgr = std::sync::Arc::new(mgr);
        let mut threads = Vec::new();
        for t in 0..4u64 {
            let mgr = std::sync::Arc::clone(&mgr);
            let model = Arc::clone(&model);
            threads.push(std::thread::spawn(move || {
                for i in 0..25u64 {
                    let id = mgr.open(Arc::clone(&model)).expect("opened");
                    // Race a closer against the stepper on the same
                    // session half the time.
                    if (t + i) % 2 == 0 {
                        let mgr2 = std::sync::Arc::clone(&mgr);
                        let closer = std::thread::spawn(move || mgr2.close(id));
                        let _ = mgr.step(id, &hidden(16, 2, (t * 100 + i) as usize));
                        let _ = closer.join().expect("closer");
                        let _ = mgr.close(id); // second close may race too
                    } else {
                        mgr.step(id, &hidden(16, 3, i as usize)).expect("stepped");
                        // A failing step must roll its reservation back.
                        assert!(mgr.step(id, &hidden(15, 1, 0)).is_err());
                        mgr.close(id).expect("closed");
                    }
                }
            }));
        }
        for th in threads {
            th.join().expect("churn thread");
        }
        let s = mgr.stats();
        assert_eq!(s.open_sessions, 0, "sessions leaked");
        assert_eq!(
            s.kv_bytes, 0,
            "byte accounting drifted under concurrent churn"
        );
    }

    #[test]
    fn concurrent_batched_steps_are_bit_exact_and_share_fused_passes() {
        // Four sessions with *different* token streams step concurrently
        // through the continuous batcher. Every session's outputs must be
        // bit-identical to a solo causal recompute of its own stream, and
        // the batcher must actually fuse passes (occupancy > 1).
        let (model, blocks) = block_model("batched", 80);
        let model = Arc::new(model);
        let mgr = Arc::new(SessionManager::new(SessionConfig {
            max_decode_batch: 4,
            decode_max_wait: Duration::from_millis(100),
            ..SessionConfig::default()
        }));
        const SESSIONS: usize = 4;
        const STEPS: usize = 3;
        let barrier = Arc::new(std::sync::Barrier::new(SESSIONS));
        let mut threads = Vec::new();
        for t in 0..SESSIONS {
            let mgr = Arc::clone(&mgr);
            let model = Arc::clone(&model);
            let barrier = Arc::clone(&barrier);
            threads.push(std::thread::spawn(move || {
                let id = mgr.open(model).expect("opened");
                let stream = hidden(16, STEPS, 50 + t);
                let mut outs = Vec::new();
                barrier.wait();
                for c in 0..STEPS {
                    let (out, tokens) = mgr
                        .step(id, &stream.submatrix(0, c, 16, 1))
                        .expect("stepped");
                    assert_eq!(tokens, c + 1);
                    outs.push(out);
                }
                mgr.close(id).expect("closed");
                (t, outs)
            }));
        }
        for th in threads {
            let (t, outs) = th.join().expect("session thread");
            let stream = hidden(16, STEPS, 50 + t);
            let mut expect = stream.clone();
            for b in &blocks {
                expect = b.forward_segments_causal(&expect, &[STEPS]).0;
            }
            for (c, out) in outs.iter().enumerate() {
                for r in 0..16 {
                    assert_eq!(
                        out[(r, 0)].to_bits(),
                        expect[(r, c)].to_bits(),
                        "batched step diverged from solo recompute (session {t})"
                    );
                }
            }
        }
        let s = mgr.stats();
        assert_eq!(s.decode_steps, (SESSIONS * STEPS) as u64);
        assert!(s.decode_batches > 0, "no fused pass ran");
        assert!(
            s.decode_batch_occupancy > 1.0,
            "concurrent sessions never shared a fused pass (occupancy {}, {} batches)",
            s.decode_batch_occupancy,
            s.decode_batches
        );
    }

    #[test]
    fn unbounded_decode_linger_dispatches_on_budget_without_poisoning_the_queue() {
        // `Duration::MAX` cannot be added to an `Instant`: it must mean
        // "wait until full", not a panic under the queue lock.
        let (model, _) = block_model("unbounded", 82);
        let model = Arc::new(model);
        let mgr = Arc::new(SessionManager::new(SessionConfig {
            max_decode_batch: 2,
            decode_max_wait: Duration::MAX,
            ..SessionConfig::default()
        }));
        let ids: Vec<u64> = (0..2)
            .map(|_| mgr.open(Arc::clone(&model)).expect("opened"))
            .collect();
        // Two rounds: the second proves the queue survived the first.
        for round in 0..2 {
            let steppers: Vec<_> = ids
                .iter()
                .map(|&id| {
                    let mgr = Arc::clone(&mgr);
                    std::thread::spawn(move || mgr.step(id, &hidden(16, 1, round)))
                })
                .collect();
            for th in steppers {
                let (_, tokens) = th.join().expect("stepper").expect("stepped");
                assert_eq!(tokens, round + 1);
            }
        }
        let s = mgr.stats();
        assert_eq!(s.decode_steps, 4);
        assert_eq!(s.decode_batches, 2, "each round fills one fused pass");
    }

    #[test]
    fn disabling_the_batcher_runs_steps_inline() {
        let (mgr, model) = manager(SessionConfig {
            max_decode_batch: 1,
            ..SessionConfig::default()
        });
        let id = mgr.open(model).expect("opened");
        let (out, tokens) = mgr.step(id, &hidden(16, 2, 5)).expect("stepped");
        assert_eq!(out.shape(), (16, 2));
        assert_eq!(tokens, 2);
        let s = mgr.stats();
        assert_eq!(s.decode_steps, 1);
        assert_eq!(
            s.decode_batches, 0,
            "caller-thread steps must not count as fused passes"
        );
        assert_eq!(s.decode_batch_occupancy, 0.0);
    }

    #[test]
    fn budget_filling_chunks_bypass_the_batcher_but_stay_exact() {
        // A prefill chunk as wide as the fused-pass budget would fill a
        // pass alone: it must run on the caller's thread (no fused pass counted) while
        // narrower follow-up steps keep batching — and the outputs must
        // still match the causal recompute oracle.
        let (model, blocks) = block_model("wide", 81);
        let mgr = SessionManager::new(SessionConfig {
            max_decode_batch: 4,
            ..SessionConfig::default()
        });
        let id = mgr.open(Arc::new(model)).expect("opened");
        let stream = hidden(16, 5, 9);
        let (wide, tokens) = mgr
            .step(id, &stream.submatrix(0, 0, 16, 4))
            .expect("prefill");
        assert_eq!(tokens, 4);
        assert_eq!(
            mgr.stats().decode_batches,
            0,
            "budget-filling chunk went through the batcher"
        );
        let (narrow, tokens) = mgr.step(id, &stream.submatrix(0, 4, 16, 1)).expect("step");
        assert_eq!(tokens, 5);
        assert_eq!(mgr.stats().decode_batches, 1, "narrow step did not batch");
        assert_eq!(
            mgr.stats().decode_batch_occupancy,
            1.0,
            "the caller-thread chunk counted as a step of the one fused pass"
        );
        let mut expect = stream.clone();
        for b in &blocks {
            expect = b.forward_segments_causal(&expect, &[5]).0;
        }
        for r in 0..16 {
            for c in 0..4 {
                assert_eq!(wide[(r, c)].to_bits(), expect[(r, c)].to_bits());
            }
            assert_eq!(narrow[(r, 0)].to_bits(), expect[(r, 4)].to_bits());
        }
    }

    #[test]
    fn invalid_steps_fail_before_reaching_a_fused_batch() {
        // A malformed step must error on its own thread (with its
        // reservation rolled back), leaving the batcher untouched.
        let (mgr, model) = manager(SessionConfig::default());
        let id = mgr.open(model).expect("opened");
        assert!(matches!(
            mgr.step(id, &hidden(15, 1, 0)),
            Err(ServeError::Shape { .. })
        ));
        let nan = Matrix::from_fn(16, 1, |_, _| f32::NAN);
        assert!(matches!(
            mgr.step(id, &nan),
            Err(ServeError::NonFiniteInput)
        ));
        let s = mgr.stats();
        assert_eq!(s.decode_batches, 0, "invalid steps entered the batcher");
        assert_eq!(s.kv_bytes, 0, "failed steps leaked reservations");
        // The session still works afterwards.
        assert!(mgr.step(id, &hidden(16, 1, 1)).is_ok());
    }

    #[test]
    fn idle_scan_is_amortized_but_sweep_is_immediate() {
        // With a long idle timeout the amortized deadline is far away:
        // a step on one session must not opportunistically evict another
        // expired-looking session before the sweep period elapses —
        // while an explicit sweep() always scans.
        let (mgr, model) = manager(SessionConfig {
            idle_timeout: Duration::from_secs(3600),
            ..SessionConfig::default()
        });
        let a = mgr.open(Arc::clone(&model)).expect("opened");
        for i in 0..50 {
            mgr.step(a, &hidden(16, 1, i)).expect("stepped");
        }
        assert_eq!(
            evictions(&mgr, "idle"),
            0,
            "steady-state stepping paid idle scans"
        );
        assert_eq!(mgr.sweep(), 0, "nothing is actually idle");
        assert!(mgr.model(a).is_some());
    }

    #[test]
    fn step_outputs_match_stateless_causal_recompute() {
        let (mgr, model) = manager(SessionConfig::default());
        let (raw_model, blocks) = block_model("oracle", 70);
        assert_eq!(raw_model.in_features(), 16);
        let id = mgr.open(Arc::clone(&model)).expect("opened");
        let prefix = hidden(16, 5, 9);
        let mut expect = prefix.clone();
        for b in &blocks {
            expect = b.forward_segments_causal(&expect, &[5]).0;
        }
        let mut got = Vec::new();
        for c in 0..5 {
            let (out, _) = mgr
                .step(id, &prefix.submatrix(0, c, 16, 1))
                .expect("stepped");
            got.push(out);
        }
        for (c, out) in got.iter().enumerate() {
            for r in 0..16 {
                assert_eq!(
                    out[(r, 0)].to_bits(),
                    expect[(r, c)].to_bits(),
                    "session step diverged from causal recompute"
                );
            }
        }
    }
}
