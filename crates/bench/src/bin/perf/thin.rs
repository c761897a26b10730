//! `wire_thin`: one thin `rows × d_model` linear layer behind the stock
//! gateway, fed `Codes` payloads over loopback TCP (768×16 ≈ 50 KB of
//! JSON per line at paper scale). The GEMM is a fraction of the op; the
//! protocol codec, the transport's thread hand-offs, the request cache
//! and the runtime's batch linger do most of the work. Each op is, with
//! probability two thirds, a repeat of a payload the client sent a few
//! ops earlier, and otherwise a new one: two thirds of the ops hit the
//! cache (so the lower-quartile latency is a hit's) and one third miss
//! and insert (the upper tail). An even split would put the median in
//! the gap between the two modes, where it jumps from run to run, and
//! drawing each op's kind keeps the two clients from locking phases.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use panacea_gateway::protocol::{Request, Response};
use panacea_gateway::{Gateway, GatewayClient, GatewayConfig, GatewayServer, Payload};
use panacea_quant::LayerQuantConfig;
use panacea_serve::{
    LayerSpec, ModelRegistry, PrepareOptions, PreparedModel, Runtime, RuntimeConfig,
};
use panacea_tensor::Matrix;

use crate::gen::{self, content_hash, SplitMix64};
use crate::harness::{Geometry, OpOutcome, Scenario};
use crate::layers::{calibrate, codec_spans, peel_loop, AqsTally, SetupTimes, Twin};
use crate::trace::Recorder;

const MODEL: &str = "thin";
/// Two closed-loop callers keep both cores awake: with one, the cores
/// idle through every hand-off and batch linger, and wake-up latency in
/// the sandbox spread the lower-quartile latency 29 % from run to run
/// (9 % with two).
const CLIENTS: usize = 2;
/// Share of ops that repeat an earlier payload (cache hits).
const REPEAT_SHARE: f64 = 2.0 / 3.0;
/// New payloads a client remembers; it repeats the oldest, which it
/// first sent about a dozen ops earlier (the working set is far below
/// the cache's capacity).
const REPEAT_RING: usize = 4;
/// Std of the thin layer's Gaussian weights.
const WEIGHT_STD: f64 = 0.05;

pub struct WireThin {
    geo: Geometry,
    seed: u64,
    weight: Matrix<f32>,
    calib: Matrix<f32>,
    /// The input format, calibrated like `PreparedModel::prepare` does,
    /// so generated codes fit the served model.
    act: LayerQuantConfig,
    /// Direct reference for verification (the gateway owns a copy).
    model: PreparedModel,
    gateway: Arc<Gateway>,
    server: GatewayServer,
}

pub struct ThinClient {
    conn: GatewayClient,
    rng: SplitMix64,
    /// The last [`REPEAT_RING`] new payloads with their reply hashes.
    sent: VecDeque<(Matrix<i32>, u64)>,
}

fn codes_of(payload: Payload) -> Option<Matrix<i32>> {
    match payload {
        Payload::Codes(codes) => Some(codes),
        Payload::Hidden(_) => None,
    }
}

/// Standard normal via Box–Muller.
fn gaussian(rng: &mut SplitMix64) -> f64 {
    let u = rng.next_f64().max(f64::MIN_POSITIVE);
    (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * rng.next_f64()).cos()
}

impl WireThin {
    fn codes(&self, rng: &mut SplitMix64) -> Matrix<i32> {
        use panacea_quant::Quantizer;
        let x = gen::hidden(self.geo.d_model, self.geo.thin_cols, rng);
        self.act.quantizer.quantize_matrix(&x)
    }

    fn out_shape(&self) -> (usize, usize) {
        (self.geo.thin_rows, self.geo.thin_cols)
    }
}

impl Scenario for WireThin {
    type Client = ThinClient;
    const ROOT_SPANS: &'static [&'static str] = &["netcore.wire"];
    const CLIENTS: usize = CLIENTS;
    const WARMUP_OPS: usize = 16;

    fn build(geo: Geometry, seed: u64) -> Self {
        let mut rng = SplitMix64::stream(seed, "thin.model");
        let weight = Matrix::from_fn(geo.thin_rows, geo.d_model, |_, _| {
            (gaussian(&mut rng) * WEIGHT_STD) as f32
        });
        let calib = gen::hidden(geo.d_model, geo.calib_tokens, &mut rng);
        let opts = PrepareOptions::default();
        let act = calibrate(&calib, opts.zpm, opts.dbs);
        let model =
            PreparedModel::prepare(MODEL, &[LayerSpec::unbiased(weight.clone())], &calib, opts)
                .expect("the thin model prepares");
        let gateway = Arc::new(Gateway::new(vec![model.clone()], GatewayConfig::default()));
        let server =
            GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("loopback port binds");
        WireThin {
            geo,
            seed,
            weight,
            calib,
            act,
            model,
            gateway,
            server,
        }
    }

    fn cols_per_op(&self) -> usize {
        self.geo.thin_cols
    }

    fn connect(&self, idx: usize) -> ThinClient {
        ThinClient {
            conn: GatewayClient::connect(self.server.local_addr())
                .expect("client connects over loopback"),
            rng: SplitMix64::stream(self.seed, &format!("thin.client{idx}")),
            sent: VecDeque::new(),
        }
    }

    fn op(&self, c: &mut ThinClient, verify: bool) -> OpOutcome {
        let repeat = c.sent.len() == REPEAT_RING && c.rng.next_f64() < REPEAT_SHARE;
        let (codes, first_reply) = if repeat {
            let (codes, hash) = &c.sent[0];
            (codes.clone(), Some(*hash))
        } else {
            (self.codes(&mut c.rng), None)
        };
        let want = verify.then(|| codes_of(self.model.forward(&Payload::Codes(codes.clone())).0));
        let t = Instant::now();
        let reply = c.conn.infer_codes(MODEL, codes.clone());
        let latency = t.elapsed();
        let got = reply.ok().and_then(|r| codes_of(r.payload));
        let hash = got.as_ref().map(content_hash);
        let ok = got.as_ref().is_some_and(|g| g.shape() == self.out_shape())
            && first_reply.is_none_or(|first| hash == Some(first));
        if let (None, Some(hash)) = (first_reply, hash) {
            c.sent.push_back((codes, hash));
            if c.sent.len() > REPEAT_RING {
                c.sent.pop_front();
            }
        }
        OpOutcome {
            latency,
            ok,
            exact: want.map(|w| got.is_some() && got == w),
        }
    }

    fn peel(
        &self,
        rec: &Recorder,
        min_ops: usize,
        budget: Duration,
    ) -> BTreeMap<&'static str, f64> {
        let registry = Arc::new(ModelRegistry::new());
        registry.insert(self.model.clone());
        let runtime = Runtime::start(registry, RuntimeConfig::default());
        let opts = PrepareOptions::default();
        let mut times = SetupTimes::default();
        let twin = Twin::prepare(
            "core.linear.proj",
            &self.weight,
            &self.calib,
            opts.zpm,
            opts.dbs,
            &mut times,
        );
        let mut conn = GatewayClient::connect(self.server.local_addr())
            .expect("client connects over loopback");
        let mut rng = SplitMix64::stream(self.seed, "thin.peel");
        let mut tally = AqsTally::default();
        let mut bytes = 0;
        peel_loop(min_ops, budget, |op| {
            let x = self.codes(&mut rng);
            let (reply, wire) = rec.span("netcore.wire", None, op, || {
                conn.infer_codes(MODEL, x.clone())
            });
            // The explicit hit probe: the same payload again.
            let (hit, _) = rec.span("netcore.wire_hit", None, op, || {
                conn.infer_codes(MODEL, x.clone())
            });
            assert!(
                hit.expect("repeat succeeds").cache_hit,
                "a repeat is a cache hit"
            );
            let request = Request::Infer {
                model: MODEL.to_string(),
                payload: Payload::Codes(x.clone()),
                deadline_ms: None,
            };
            let response = Response::Infer(reply.expect("peeled infer succeeds"));
            let line_bytes = codec_spans(rec, wire, op, &request, &response);
            if op == 0 {
                // The first op's, so the count repeats for a seed.
                bytes = line_bytes;
            }

            // One code apart: a different request-cache key, the same
            // work. Every layer below sees the op's own payload.
            let mut nudged = x.clone();
            nudged[(0, 0)] ^= 1;
            let (_, gateway) = rec.span("gateway.core", Some(wire), op, || {
                self.gateway
                    .infer(MODEL, Payload::Codes(nudged))
                    .expect("in-process infer succeeds")
            });
            let (_, served) = rec.span("serve.runtime", Some(gateway), op, || {
                runtime
                    .infer(MODEL, x.clone())
                    .expect("runtime infer succeeds")
            });
            let payload = Payload::Codes(x.clone());
            let (_, model) = rec.span("serve.model", Some(served), op, || {
                self.model.forward(&payload)
            });
            twin.run(rec, Some(model), op, &x, (op == 0).then_some(&mut tally));
        });

        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let mut extras = BTreeMap::from([
            ("quant.calibrate_ms", ms(times.calibrate)),
            ("bitslice.slice_weight_ms", ms(times.slice_weight)),
            ("gateway.protocol.bytes_per_op", bytes as f64),
        ]);
        tally.metrics(&mut extras);
        extras
    }
}
