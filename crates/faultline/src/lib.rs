//! `panacea-faultline` — deterministic fault injection for the serving
//! stack.
//!
//! Robustness work needs failures on demand: a panic in exactly one
//! fused decode pass, a stall in the gateway dispatch path, a connection
//! reset mid-read. This crate provides **named injection sites** that
//! production code queries unconditionally, and **seeded scenario
//! scripts** that decide which queries actually fire a fault:
//!
//! ```text
//!  Scenario ──compile(seed)──▶ FaultPlan ──arm()──▶ global registry
//!                                                     ▲
//!  serve / netcore / gateway ──fire("site")───────────┘
//! ```
//!
//! * **Disarmed is free.** [`fire`] is one relaxed atomic load when no
//!   plan is armed — the same discipline as the block crate's stage
//!   timing — so the sites stay wired in release builds. An armed query
//!   takes no lock either: each thread keeps its own copy of the armed
//!   plan, and `tests/query_cost.rs` bounds what one query costs.
//! * **Deterministic.** A scenario names *query indices*, not wall
//!   clock: "the 3rd query of `serve.decode.fused_pass` panics". Each
//!   armed site carries an atomic query counter, so the same seed +
//!   scenario fires the same faults at the same per-site positions
//!   regardless of how threads interleave their queries (see the
//!   proptest in `tests/plan_props.rs`).
//! * **Scoped.** [`FaultPlan::arm`] returns a guard; dropping it
//!   disarms. Arming serializes on a global lock, so concurrent tests
//!   cannot observe each other's plans.
//!
//! # Site taxonomy
//!
//! Sites are plain strings, conventionally `layer.component.operation`.
//! The stack registers (see each crate for exact semantics):
//!
//! | site | layer | faults honoured |
//! |------|-------|-----------------|
//! | `serve.worker.execute`     | runtime batch worker | panic, delay |
//! | `serve.session.step`       | session step entry   | panic, delay, error |
//! | `serve.decode.fused_pass`  | decode batcher       | panic, delay |
//! | `serve.decode.solo_retry`  | decode batcher retry | panic |
//! | `serve.queue.push`         | batching queue, between enqueue and worker wakeup | delay |
//! | `serve.queue.wake`         | batching queue, cancellation wakeup | delay |
//! | `serve.queue.take`         | batching queue, between claiming a batch and waking a sibling | delay |
//! | `gateway.execute`          | gateway dispatch     | panic, delay |
//! | `netcore.accept`           | transport accept     | reset |
//! | `netcore.read`             | transport read       | reset, delay |
//! | `netcore.dispatch`         | transport dispatch   | panic, delay |
//! | `netcore.complete`         | transport, between queueing a completion and waking the reactor | delay |
//! | `netcore.write`            | transport write      | short write, reset |

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// What an injection site does when its query index is scripted.
///
/// A site only honours the faults that make sense for it (a read path
/// cannot "short write"); unsupported faults at a site are ignored by
/// the integration, not an error — scripts are free to be generic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic at the site (`panic!("faultline: injected panic at ...")`).
    /// The surrounding layer's `catch_unwind` isolation is the unit
    /// under test.
    Panic,
    /// Sleep for the given duration at the site — injected latency /
    /// a stalled dependency.
    Delay(Duration),
    /// Return an error from the site (mapped to the layer's error type,
    /// e.g. `ServeError::Internal`).
    Error,
    /// An I/O failure: connection reset on read/write, accept failure
    /// (the freshly accepted connection is dropped) on accept.
    Reset,
    /// A short write: the site writes fewer bytes than asked this round,
    /// exercising partial-write resumption.
    ShortWrite,
}

impl Fault {
    /// Stable spelling for logs and event details.
    pub fn as_str(self) -> &'static str {
        match self {
            Fault::Panic => "panic",
            Fault::Delay(_) => "delay",
            Fault::Error => "error",
            Fault::Reset => "reset",
            Fault::ShortWrite => "short_write",
        }
    }
}

/// One step of a scenario script (kept symbolic so a [`Scenario`] can be
/// compiled under different seeds).
#[derive(Debug, Clone)]
enum Step {
    /// Fire `fault` on exactly the `at`-th query (0-based) of `site`.
    At { site: String, at: u64, fault: Fault },
    /// Fire `fault` on `count` distinct seeded positions among the
    /// first `first` queries of `site`.
    Within {
        site: String,
        fault: Fault,
        count: u64,
        first: u64,
    },
}

/// A symbolic fault script: which sites misbehave, how often, and how.
///
/// Build one with the fluent constructors, then freeze it into a
/// [`FaultPlan`] with a seed. The same scenario compiles to different
/// (but individually deterministic) plans under different seeds.
#[derive(Debug, Clone, Default)]
pub struct Scenario {
    steps: Vec<Step>,
}

impl Scenario {
    /// An empty scenario (arming it still exercises the armed-site
    /// lookup path, which is what `tests/query_cost.rs` bounds).
    pub fn new() -> Self {
        Scenario::default()
    }

    /// Scripts `fault` on exactly the `at`-th query (0-based) of `site`.
    #[must_use]
    pub fn fire_at(mut self, site: &str, at: u64, fault: Fault) -> Self {
        self.steps.push(Step::At {
            site: site.to_string(),
            at,
            fault,
        });
        self
    }

    /// Scripts `fault` on `count` seeded positions among the first
    /// `first` queries of `site`. Positions are drawn at compile time
    /// from the plan seed — never from wall clock — so they are a pure
    /// function of `(seed, scenario)`.
    #[must_use]
    pub fn fire_within(mut self, site: &str, fault: Fault, count: u64, first: u64) -> Self {
        self.steps.push(Step::Within {
            site: site.to_string(),
            fault,
            count,
            first,
        });
        self
    }
}

/// A compiled, deterministic fault schedule: for each site, a map from
/// query index to the fault that query fires.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    by_site: HashMap<String, BTreeMap<u64, Fault>>,
}

impl FaultPlan {
    /// Compiles `scenario` under `seed`. Seeded positions come from a
    /// splitmix64 stream consumed in scenario-step order, so compilation
    /// is a pure function of its arguments: same seed + scenario, same
    /// plan — on every thread, every run.
    pub fn compile(seed: u64, scenario: &Scenario) -> FaultPlan {
        let mut rng = SplitMix64::new(seed);
        let mut by_site: HashMap<String, BTreeMap<u64, Fault>> = HashMap::new();
        for step in &scenario.steps {
            match step {
                Step::At { site, at, fault } => {
                    by_site.entry(site.clone()).or_default().insert(*at, *fault);
                }
                Step::Within {
                    site,
                    fault,
                    count,
                    first,
                } => {
                    let schedule = by_site.entry(site.clone()).or_default();
                    let first = (*first).max(1);
                    let want = (*count).min(first);
                    let mut placed = 0;
                    // Rejection-sample distinct positions; bounded
                    // because `want <= first`. Draw order is fixed by
                    // the rng stream, so the resulting set is too.
                    while placed < want {
                        let at = rng.next() % first;
                        if let std::collections::btree_map::Entry::Vacant(e) = schedule.entry(at) {
                            e.insert(*fault);
                            placed += 1;
                        }
                    }
                }
            }
        }
        FaultPlan { by_site }
    }

    /// The full deterministic schedule, sorted by `(site, query index)`
    /// — what [`compile`](Self::compile) decided, before anything runs.
    pub fn schedule(&self) -> Vec<(String, u64, Fault)> {
        let mut out: Vec<(String, u64, Fault)> = self
            .by_site
            .iter()
            .flat_map(|(site, m)| m.iter().map(|(at, f)| (site.clone(), *at, *f)))
            .collect();
        out.sort_by(|a, b| (a.0.as_str(), a.1).cmp(&(b.0.as_str(), b.1)));
        out
    }

    /// Total scripted firings across all sites.
    pub fn len(&self) -> usize {
        self.by_site.values().map(BTreeMap::len).sum()
    }

    /// Whether the plan scripts nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Arms this plan globally. Until the returned guard drops, every
    /// [`fire`] query consults the plan; scripted `(site, query)` pairs
    /// fire their fault and are appended to the firing log. Arming
    /// blocks while another plan is armed (plans never overlap).
    pub fn arm(self) -> ArmedGuard {
        let serial = arm_serial().lock().unwrap_or_else(PoisonError::into_inner);
        let counters = self
            .by_site
            .keys()
            .map(|site| (site.clone(), AtomicU64::new(0)))
            .collect();
        let state = Arc::new(ArmedState {
            plan: self,
            counters,
            log: Mutex::new(Vec::new()),
        });
        publish(Some(Arc::clone(&state)));
        ARMED.store(true, Ordering::Release);
        ArmedGuard {
            state,
            _serial: serial,
        }
    }
}

/// One fault that actually fired while a plan was armed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Firing {
    /// The site that fired.
    pub site: String,
    /// The site-local query index (0-based) that fired.
    pub query: u64,
    /// The fault it fired.
    pub fault: Fault,
}

/// Keeps a [`FaultPlan`] armed; dropping disarms and clears the global
/// registry. Holds the arm serialization lock, so at most one guard
/// exists at a time.
pub struct ArmedGuard {
    state: Arc<ArmedState>,
    _serial: MutexGuard<'static, ()>,
}

impl std::fmt::Debug for ArmedGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArmedGuard")
            .field("scripted", &self.state.plan.len())
            .finish()
    }
}

impl ArmedGuard {
    /// Faults fired so far, in global firing order (the per-site order
    /// is additionally deterministic: ascending query index).
    pub fn firings(&self) -> Vec<Firing> {
        self.state
            .log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// How many queries `site` has received while armed (0 for sites
    /// the plan does not script — unscripted sites are not counted).
    pub fn queries(&self, site: &str) -> u64 {
        self.state
            .counters
            .get(site)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Disarms now and returns the complete firing log.
    pub fn disarm(self) -> Vec<Firing> {
        let log = self.firings();
        drop(self);
        log
    }
}

impl Drop for ArmedGuard {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::Release);
        publish(None);
    }
}

struct ArmedState {
    plan: FaultPlan,
    /// Per-scripted-site query counters — the deterministic clock.
    counters: HashMap<String, AtomicU64>,
    log: Mutex<Vec<Firing>>,
}

static ARMED: AtomicBool = AtomicBool::new(false);

/// Bumped, under the registry lock, each time the registry changes, so a
/// thread's cached copy is current exactly when its generation matches.
static GENERATION: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's copy of the registry and the generation it was read
    /// at. Generation 0 is the empty registry nothing has armed yet.
    static SEEN: RefCell<(u64, Option<Arc<ArmedState>>)> = const { RefCell::new((0, None)) };
}

fn registry() -> &'static Mutex<Option<Arc<ArmedState>>> {
    static REGISTRY: OnceLock<Mutex<Option<Arc<ArmedState>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(None))
}

/// Replaces the armed state and moves every thread's cached copy out of
/// date.
fn publish(state: Option<Arc<ArmedState>>) {
    let mut registry = registry().lock().unwrap_or_else(PoisonError::into_inner);
    *registry = state;
    GENERATION.fetch_add(1, Ordering::Release);
}

fn arm_serial() -> &'static Mutex<()> {
    static SERIAL: OnceLock<Mutex<()>> = OnceLock::new();
    SERIAL.get_or_init(|| Mutex::new(()))
}

/// Queries an injection site: `None` almost always. Disarmed cost is a
/// single relaxed load (the branch predicts perfectly in steady state),
/// which is why the sites stay wired in release builds.
///
/// When a plan is armed, the query takes the site's next ticket from its
/// atomic counter and fires iff that index is scripted. The caller is
/// responsible for *applying* the returned fault in whatever way the
/// site supports; see [`point`] for the common panic/delay application.
#[inline]
pub fn fire(site: &str) -> Option<Fault> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    fire_armed(site)
}

/// The armed query. In steady state it reads the generation and this
/// thread's cached state: no lock, no refcount change. Only a thread that
/// has not yet seen the latest arm or disarm takes the registry lock.
#[cold]
fn fire_armed(site: &str) -> Option<Fault> {
    // `fire` saw `ARMED` set with a relaxed load; this fence pairs it with
    // the Release store in `arm`, so the generation read here is at least
    // the one that published the plan.
    fence(Ordering::Acquire);
    let generation = GENERATION.load(Ordering::Acquire);
    SEEN.with(|seen| {
        let mut seen = seen.borrow_mut();
        if seen.0 != generation {
            let registry = registry().lock().unwrap_or_else(PoisonError::into_inner);
            *seen = (GENERATION.load(Ordering::Relaxed), registry.clone());
        }
        let state = seen.1.as_deref()?;
        // Only scripted sites carry a counter: the determinism contract is
        // per-site, and unscripted sites firing nothing need no clock.
        let counter = state.counters.get(site)?;
        let query = counter.fetch_add(1, Ordering::Relaxed);
        let fault = *state.plan.by_site.get(site)?.get(&query)?;
        state
            .log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Firing {
                site: site.to_string(),
                query,
                fault,
            });
        Some(fault)
    })
}

/// [`fire`] plus the two universal applications: a scripted
/// [`Fault::Panic`] panics here, a scripted [`Fault::Delay`] sleeps
/// here. Anything else (error returns, I/O faults) is handed back for
/// the site to apply in its own domain.
#[inline]
pub fn point(site: &str) -> Option<Fault> {
    match fire(site) {
        Some(Fault::Panic) => panic!("faultline: injected panic at {site}"),
        Some(Fault::Delay(d)) => {
            std::thread::sleep(d);
            None
        }
        other => other,
    }
}

/// Whether any plan is currently armed (one relaxed load).
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// The splitmix64 stream behind seeded scenario compilation — tiny,
/// dependency-free, and stable across platforms.
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_sites_fire_nothing() {
        // Armed plans are process-wide: keep the sibling tests' out.
        let _no_plan = arm_serial().lock().unwrap_or_else(PoisonError::into_inner);
        assert!(!armed());
        assert_eq!(fire("serve.worker.execute"), None);
        assert_eq!(point("serve.worker.execute"), None);
    }

    #[test]
    fn scripted_query_indices_fire_in_order() {
        let plan = FaultPlan::compile(
            7,
            &Scenario::new()
                .fire_at("a", 1, Fault::Error)
                .fire_at("a", 3, Fault::Reset)
                .fire_at("b", 0, Fault::ShortWrite),
        );
        let guard = plan.arm();
        assert!(armed());
        let fired: Vec<_> = (0..5).map(|_| fire("a")).collect();
        assert_eq!(
            fired,
            vec![None, Some(Fault::Error), None, Some(Fault::Reset), None]
        );
        assert_eq!(fire("b"), Some(Fault::ShortWrite));
        assert_eq!(fire("unscripted"), None);
        assert_eq!(guard.queries("a"), 5);
        assert_eq!(guard.queries("unscripted"), 0);
        let log = guard.disarm();
        assert_eq!(
            log,
            vec![
                Firing {
                    site: "a".into(),
                    query: 1,
                    fault: Fault::Error
                },
                Firing {
                    site: "a".into(),
                    query: 3,
                    fault: Fault::Reset
                },
                Firing {
                    site: "b".into(),
                    query: 0,
                    fault: Fault::ShortWrite
                },
            ]
        );
        assert!(!armed());
        assert_eq!(fire("a"), None, "disarm fully clears the registry");
    }

    #[test]
    fn injected_panic_carries_the_site_name() {
        let guard = FaultPlan::compile(
            1,
            &Scenario::new().fire_at("serve.worker.execute", 0, Fault::Panic),
        )
        .arm();
        let caught = std::panic::catch_unwind(|| point("serve.worker.execute"));
        let payload = caught.expect_err("scripted panic must fire");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("serve.worker.execute"), "payload: {msg}");
        drop(guard);
    }

    #[test]
    fn within_draws_distinct_positions_deterministically() {
        let scenario = Scenario::new().fire_within("s", Fault::Panic, 4, 16);
        let a = FaultPlan::compile(42, &scenario).schedule();
        let b = FaultPlan::compile(42, &scenario).schedule();
        assert_eq!(a, b, "same seed, same plan");
        assert_eq!(a.len(), 4);
        assert!(a
            .iter()
            .all(|(site, at, f)| site == "s" && *at < 16 && *f == Fault::Panic));
        let other = FaultPlan::compile(43, &scenario).schedule();
        assert_eq!(other.len(), 4, "count honoured under any seed");
    }

    #[test]
    fn within_clamps_count_to_window() {
        let plan = FaultPlan::compile(5, &Scenario::new().fire_within("s", Fault::Error, 99, 3));
        assert_eq!(plan.len(), 3, "at most one firing per position");
    }
}
