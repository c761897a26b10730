//! Shard routing: N independent serving shards behind one front door.
//!
//! Every shard is a full [`Runtime`] — its own worker pool and queue —
//! plus a [`SessionManager`] holding the decode sessions pinned to it,
//! both counting into the shard's one [`ShardCounters`] block, whose
//! snapshots are the `stats` verb's [`ShardStats`]. All shards resolve
//! models through one shared [`ModelRegistry`],
//! so N shards cost one model preparation, one copy of the sliced
//! weights, and one registration per model. Routing is rendezvous
//! (highest-random-weight) hashing on the model name: each model has a
//! stable shard preference order, so its requests keep landing where
//! its batches coalesce, and removing a shard only reshuffles the models
//! that lived there. The router compares the **top two** candidates' live queue
//! depth and takes the emptier one, so a hot model overflows onto its
//! second-choice shard instead of queueing behind itself.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;

use panacea_serve::{
    Metrics, ModelRegistry, Payload, Pending, PreparedModel, RequestCtx, Runtime, RuntimeConfig,
    ServeError, SessionConfig, SessionManager, ShardCounters, ShardStats,
};
use panacea_telemetry::{FlightRecorder, MetricRegistry};

/// N serving shards plus the routing policy that spreads models over
/// them. See the module docs.
#[derive(Debug)]
pub struct ShardRouter {
    shards: Vec<Shard>,
}

/// One shard: a runtime and a session manager over one counter block.
#[derive(Debug)]
struct Shard {
    runtime: Runtime,
    sessions: SessionManager,
    counters: Arc<ShardCounters>,
}

impl ShardRouter {
    /// Builds `shards` shards (at least one) over one registry holding
    /// every prepared model: each a runtime configured by `runtime` and a
    /// session manager enforcing `session`, counting into one block.
    /// Every shard's stage latencies land in `dims`; model registrations,
    /// batch formations, session lifecycle and worker panics in
    /// `recorder`.
    pub fn new(
        models: Vec<PreparedModel>,
        shards: usize,
        runtime: RuntimeConfig,
        session: SessionConfig,
        dims: MetricRegistry,
        recorder: FlightRecorder,
    ) -> Self {
        let registry = Arc::new(ModelRegistry::with_recorder(recorder.clone()));
        for model in models {
            registry.insert(model);
        }
        let shards = (0..shards.max(1))
            .map(|_| {
                let metrics = Metrics::new(dims.clone(), recorder.clone());
                Shard {
                    counters: Arc::clone(metrics.counters()),
                    runtime: Runtime::start_with_metrics(
                        Arc::clone(&registry),
                        runtime,
                        metrics.clone(),
                    ),
                    sessions: SessionManager::with_metrics(session, metrics),
                }
            })
            .collect();
        ShardRouter { shards }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Direct access to one shard's runtime (metrics, queue depth).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.num_shards()`.
    pub fn shard(&self, shard: usize) -> &Runtime {
        &self.shards[shard].runtime
    }

    /// The session manager holding the decode sessions pinned to one
    /// shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.num_shards()`.
    pub fn sessions(&self, shard: usize) -> &SessionManager {
        &self.shards[shard].sessions
    }

    /// Resolves a model name against the registry every shard shares.
    pub fn model(&self, name: &str) -> Option<Arc<PreparedModel>> {
        self.shards[0].runtime.registry().get(name)
    }

    fn rendezvous_score(model: &str, shard: usize) -> u64 {
        let mut h = DefaultHasher::new();
        model.hash(&mut h);
        shard.hash(&mut h);
        h.finish()
    }

    /// The two highest-scoring candidate shards for a model, best first.
    /// With a single shard both slots name it.
    fn candidates(&self, model: &str) -> (usize, usize) {
        let mut best = (0, u64::MIN);
        let mut second = (0, u64::MIN);
        for shard in 0..self.shards.len() {
            let score = Self::rendezvous_score(model, shard);
            if score > best.1 {
                second = best;
                best = (shard, score);
            } else if score > second.1 {
                second = (shard, score);
            }
        }
        if self.shards.len() == 1 {
            second = best;
        }
        (best.0, second.0)
    }

    /// Picks the shard for a request: the model's rendezvous favourite,
    /// unless its runner-up is strictly less loaded right now.
    pub fn route(&self, model: &str) -> usize {
        let (first, second) = self.candidates(model);
        if first == second {
            return first;
        }
        let load_first = self.shard(first).queue_depth().load();
        let load_second = self.shard(second).queue_depth().load();
        if load_second < load_first {
            second
        } else {
            first
        }
    }

    /// Enqueues a request onto the shard [`route`](Self::route) picked,
    /// with an already-resolved model and a [`RequestCtx`] (trace and
    /// deadline, see
    /// [`RuntimeHandle::submit`](panacea_serve::RuntimeHandle::submit))
    /// — the gateway keeps the shard decision and the cache probe on the
    /// same payload this way.
    ///
    /// # Errors
    ///
    /// Same as [`RuntimeHandle::submit`](panacea_serve::RuntimeHandle::submit).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.num_shards()`.
    pub fn submit_to_shard(
        &self,
        shard: usize,
        model: Arc<PreparedModel>,
        payload: impl Into<Payload>,
        ctx: RequestCtx,
    ) -> Result<Pending, ServeError> {
        self.shard(shard).submit(model, payload, ctx)
    }

    /// Every shard's counter block in wire form, indexed by shard id.
    pub fn stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| s.counters.snapshot(s.runtime.queue_depth()))
            .collect()
    }

    /// Decode steps refused for the KV byte budget, across shards.
    pub fn kv_budget_sheds(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.counters.kv_budget_exceeded())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{codes, models};
    use panacea_serve::BatchPolicy;
    use std::time::Duration;

    fn router(names: &[&str], seed: u64, shards: usize, config: RuntimeConfig) -> ShardRouter {
        ShardRouter::new(
            models(names, seed),
            shards,
            config,
            SessionConfig::default(),
            MetricRegistry::default(),
            FlightRecorder::default(),
        )
    }

    /// Resolves, routes, submits and waits — the gateway's request path
    /// minus its cache and admission.
    fn infer(router: &ShardRouter, name: &str, salt: usize) -> (Payload, Payload, usize) {
        let model = router.model(name).expect("registered");
        let x = codes(&model, 2, salt);
        let (expect, _) = model.forward_codes(&x);
        let shard = router.route(name);
        let out = router
            .submit_to_shard(shard, model, x, RequestCtx::default())
            .expect("queued")
            .wait()
            .expect("served");
        (out.payload, expect.into(), shard)
    }

    #[test]
    fn routing_is_deterministic_at_equal_load() {
        let router = router(&["a", "b"], 1, 4, RuntimeConfig::default());
        for name in ["a", "b"] {
            let first = router.route(name);
            for _ in 0..10 {
                assert_eq!(router.route(name), first);
            }
        }
    }

    #[test]
    fn many_models_spread_over_shards() {
        let names: Vec<String> = (0..32).map(|i| format!("model-{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let router = router(&name_refs, 2, 4, RuntimeConfig::default());
        let mut used = std::collections::HashSet::new();
        for name in &names {
            used.insert(router.route(name));
        }
        assert!(
            used.len() >= 3,
            "32 models landed on only {} of 4 shards",
            used.len()
        );
    }

    #[test]
    fn loaded_favourite_overflows_to_runner_up() {
        // A long linger + huge budget keeps submitted work sitting in the
        // favourite's queue, so the router must divert to the runner-up.
        let router = router(
            &["hot"],
            3,
            2,
            RuntimeConfig {
                workers: 1,
                policy: BatchPolicy {
                    max_batch: 4096,
                    max_wait: Duration::from_secs(5),
                },
            },
        );
        let model = router.model("hot").expect("registered");
        let favourite = router.route("hot");
        let (first, second) = router.candidates("hot");
        assert_eq!(favourite, first);
        assert_ne!(first, second, "two shards must give two candidates");
        let _pending = router
            .submit_to_shard(
                favourite,
                Arc::clone(&model),
                codes(&model, 8, 0),
                RequestCtx::default(),
            )
            .expect("queued");
        assert_eq!(
            router.route("hot"),
            second,
            "router kept sending to the loaded favourite"
        );
    }

    #[test]
    fn shards_share_prepared_models_by_pointer() {
        let recorder = FlightRecorder::default();
        let router = ShardRouter::new(
            models(&["m"], 4),
            3,
            RuntimeConfig::default(),
            SessionConfig::default(),
            MetricRegistry::default(),
            recorder.clone(),
        );
        let handles: Vec<Arc<PreparedModel>> = (0..3)
            .map(|i| router.shard(i).registry().get("m").expect("registered"))
            .collect();
        assert!(Arc::ptr_eq(&handles[0], &handles[1]));
        assert!(Arc::ptr_eq(&handles[1], &handles[2]));
        // One registry, so one registration however many shards.
        let registrations = recorder
            .recent(16)
            .iter()
            .filter(|e| e.kind == "model_register")
            .count();
        assert_eq!(registrations, 1);
    }

    #[test]
    fn infer_routes_and_matches_direct_execution() {
        let router = router(&["a", "b"], 5, 2, RuntimeConfig::default());
        for (salt, name) in ["a", "b", "a", "b"].iter().enumerate() {
            let (out, expect, shard) = infer(&router, name, salt);
            assert_eq!(out, expect);
            assert!(shard < router.num_shards());
        }
    }

    #[test]
    fn unknown_model_is_rejected_before_routing() {
        let router = router(&["m"], 6, 2, RuntimeConfig::default());
        assert!(router.model("ghost").is_none());
    }

    #[test]
    fn single_shard_router_still_routes() {
        let router = router(&["m"], 7, 1, RuntimeConfig::default());
        assert_eq!(router.num_shards(), 1);
        assert_eq!(router.route("m"), 0);
        let (out, expect, shard) = infer(&router, "m", 0);
        assert_eq!(shard, 0);
        assert_eq!(out, expect);
        assert_eq!(out.rows(), 8);
    }
}
