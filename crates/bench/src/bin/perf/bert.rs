//! `infer_bert` and `decode_bert`: one BERT-base transformer block
//! (`BlockBuilder::default()`: w7 + ZPM + DBS, zoo weight and activation
//! distributions) served by the stock gateway over loopback TCP.
//!
//! * `infer_bert` — each op is `infer_hidden` of a never-repeated
//!   `d_model × seq` sequence, so the request cache always misses and
//!   the AQS kernel at N = 16 dominates.
//! * `decode_bert` — each client owns a prefilled session and each op is
//!   one single-token `decode` step: the same kernel at N = 1 padded to
//!   4, plus the session / decode-batcher hand-off and attention over
//!   the growing KV cache.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use panacea_block::{decode_step, BlockBuilder, KvCache, QuantizedBlock};
use panacea_gateway::protocol::{Request, Response};
use panacea_gateway::{Gateway, GatewayClient, GatewayConfig, GatewayServer, Payload};
use panacea_models::engine::{TinyTransformer, TransformerConfig};
use panacea_serve::{
    ModelRegistry, PreparedModel, Runtime, RuntimeConfig, SessionConfig, SessionManager,
};
use panacea_tensor::ops::{layer_norm, multi_head_attention, multi_head_attention_decode};
use panacea_tensor::Matrix;

use crate::gen::{self, bit_eq, SplitMix64};
use crate::harness::{Geometry, OpOutcome, Scenario};
use crate::layers::{calibrate, codec_spans, peel_loop, AqsTally, SetupTimes, Twin};
use crate::trace::{Recorder, SpanId};

const MODEL: &str = "bert";
const CLIENTS: usize = 2;

/// The block, its float oracle, and the gateway serving it.
struct BertStack {
    geo: Geometry,
    seed: u64,
    oracle: TinyTransformer,
    calib: Matrix<f32>,
    /// Direct reference for verification (the gateway owns a copy).
    blocks: Vec<QuantizedBlock>,
    block_prepare: Duration,
    gateway: Arc<Gateway>,
    server: GatewayServer,
}

impl BertStack {
    fn build(geo: Geometry, seed: u64) -> Self {
        let mut rng = SplitMix64::stream(seed, "bert.model");
        let cfg = TransformerConfig {
            d_model: geo.d_model,
            n_heads: geo.n_heads,
            d_ff: geo.d_ff,
            n_layers: 1,
        };
        let oracle = gen::transformer(cfg, &mut rng);
        let calib = gen::hidden(geo.d_model, geo.calib_tokens, &mut rng);
        let t = Instant::now();
        let blocks = BlockBuilder::default()
            .prepare(&oracle, &calib)
            .expect("the block prepares");
        let block_prepare = t.elapsed();
        let model =
            PreparedModel::from_blocks(MODEL, blocks.clone()).expect("the block stack is servable");
        let gateway = Arc::new(Gateway::new(vec![model], GatewayConfig::default()));
        let server =
            GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("loopback port binds");
        BertStack {
            geo,
            seed,
            oracle,
            calib,
            blocks,
            block_prepare,
            gateway,
            server,
        }
    }

    fn connect(&self) -> GatewayClient {
        GatewayClient::connect(self.server.local_addr()).expect("client connects over loopback")
    }

    /// Direct execution of the block stack: the bit-exact reference of
    /// an `infer` reply.
    fn forward_direct(&self, h: &Matrix<f32>) -> Matrix<f32> {
        let mut h = h.clone();
        for block in &self.blocks {
            h = block.forward(&h).0;
        }
        h
    }
}

/// Zero-pads a token matrix to the PE vector width, as the block does.
fn pad_to_vector(h: &Matrix<f32>) -> Matrix<f32> {
    let cols = h.cols().div_ceil(4) * 4;
    Matrix::from_fn(
        h.rows(),
        cols,
        |r, c| if c < h.cols() { h[(r, c)] } else { 0.0 },
    )
}

/// The in-process layers below the wire, and the four twin linears,
/// that the traced run peels an op through.
struct BertPeel<'a> {
    stack: &'a BertStack,
    model: Arc<PreparedModel>,
    runtime: Runtime,
    sessions: SessionManager,
    twins: [Twin; 4],
    extras: BTreeMap<&'static str, f64>,
}

impl<'a> BertPeel<'a> {
    fn new(stack: &'a BertStack) -> Self {
        let model = Arc::new(
            PreparedModel::from_blocks(MODEL, stack.blocks.clone())
                .expect("the block stack is servable"),
        );
        let registry = Arc::new(ModelRegistry::new());
        registry.insert_shared(Arc::clone(&model));
        let runtime = Runtime::start(registry, RuntimeConfig::default());
        let sessions = SessionManager::new(SessionConfig::default());

        let t = Instant::now();
        let caps = stack.oracle.captured_layers(&stack.calib);
        let capture = t.elapsed();
        let mut times = SetupTimes::default();
        let b = BlockBuilder::default();
        let mut twin = |span, i: usize| {
            Twin::prepare(
                span,
                &caps[i].weight,
                &caps[i].input,
                b.zpm,
                b.dbs,
                &mut times,
            )
        };
        let qkv = twin("core.linear.qkv", 0);
        let proj = twin("core.linear.proj", 1);
        let fc1 = twin("core.linear.fc1", 2);
        let fc2 = twin("core.linear.fc2", 3);
        // fc1 requantizes into a pre-GELU 8-bit format; calibrate the
        // twin's on its own dequantized accumulators.
        let fc1_codes = fc1.codes(&caps[2].input);
        let pre_gelu = fc1
            .layer
            .forward(&fc1_codes)
            .0
            .map(|&v| (f64::from(v) * fc1.acc_scale) as f32);
        let fc1 = fc1.with_output(calibrate(&pre_gelu, b.zpm, b.dbs));

        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let extras = BTreeMap::from([
            ("models.capture_ms", ms(capture)),
            ("quant.calibrate_ms", ms(times.calibrate)),
            ("bitslice.slice_weight_ms", ms(times.slice_weight)),
            ("block.prepare_ms", ms(stack.block_prepare)),
        ]);
        BertPeel {
            stack,
            model,
            runtime,
            sessions,
            twins: [qkv, proj, fc1, fc2],
            extras,
        }
    }

    /// The bottom of the peel, shared by both workloads: the four twin
    /// linears on the float oracle's captured inputs for `h` (already at
    /// the padded op width), LayerNorm twice, and attention via `attn`,
    /// all as children of the block span.
    fn peel_block(
        &self,
        rec: &Recorder,
        block: SpanId,
        op: u64,
        h: &Matrix<f32>,
        mut tally: Option<&mut AqsTally>,
        attn: impl FnOnce(&Matrix<f32>) -> Matrix<f32>,
    ) {
        let caps = self.stack.oracle.captured_layers(h);
        let mut qkv_f = None;
        for (i, (twin, cap)) in self.twins.iter().zip(&caps).enumerate() {
            // fc2's input codes come from the GELU table, not a
            // quantize call; the other three inputs are quantized f32.
            let codes = if i == 3 {
                twin.codes(&cap.input)
            } else {
                twin.quantize(rec, Some(block), op, &cap.input)
            };
            let out = twin.run(rec, Some(block), op, &codes, tally.as_deref_mut());
            if i == 0 {
                qkv_f = Some(out.map(|&v| (f64::from(v) * twin.acc_scale) as f32));
            }
        }
        for _ in 0..2 {
            rec.span("tensor.layer_norm", Some(block), op, || layer_norm(h));
        }
        let qkv_f = qkv_f.expect("the qkv twin ran");
        rec.span("tensor.attn", Some(block), op, || attn(&qkv_f));
    }

    fn finish(mut self, tally: AqsTally, bytes_per_op: usize) -> BTreeMap<&'static str, f64> {
        tally.metrics(&mut self.extras);
        self.extras
            .insert("gateway.protocol.bytes_per_op", bytes_per_op as f64);
        self.extras
    }
}

/// `infer_bert`.
pub struct InferBert(BertStack);

pub struct InferClient {
    conn: GatewayClient,
    rng: SplitMix64,
}

impl Scenario for InferBert {
    type Client = InferClient;
    const ROOT_SPANS: &'static [&'static str] = &["netcore.wire"];
    const CLIENTS: usize = CLIENTS;
    const WARMUP_OPS: usize = 4;

    fn build(geo: Geometry, seed: u64) -> Self {
        InferBert(BertStack::build(geo, seed))
    }

    fn cols_per_op(&self) -> usize {
        self.0.geo.seq
    }

    fn connect(&self, idx: usize) -> InferClient {
        InferClient {
            conn: self.0.connect(),
            rng: SplitMix64::stream(self.0.seed, &format!("infer.client{idx}")),
        }
    }

    fn op(&self, c: &mut InferClient, verify: bool) -> OpOutcome {
        let geo = self.0.geo;
        let h = gen::hidden(geo.d_model, geo.seq, &mut c.rng);
        let want = verify.then(|| self.0.forward_direct(&h));
        let t = Instant::now();
        let reply = c.conn.infer_hidden(MODEL, h);
        let latency = t.elapsed();
        let got = reply.ok().and_then(|r| match r.payload {
            Payload::Hidden(out) => Some(out),
            Payload::Codes(_) => None,
        });
        OpOutcome {
            latency,
            ok: got
                .as_ref()
                .is_some_and(|g| g.shape() == (geo.d_model, geo.seq)),
            exact: want.map(|w| got.as_ref().is_some_and(|g| bit_eq(g, &w))),
        }
    }

    fn peel(
        &self,
        rec: &Recorder,
        min_ops: usize,
        budget: Duration,
    ) -> BTreeMap<&'static str, f64> {
        let stack = &self.0;
        let geo = stack.geo;
        let peel = BertPeel::new(stack);
        let mut conn = stack.connect();
        let mut rng = SplitMix64::stream(stack.seed, "infer.peel");
        let mut tally = AqsTally::default();
        let mut bytes = 0;
        peel_loop(min_ops, budget, |op| {
            // One fresh input per op, sent through every layer, so the
            // layers' data-dependent kernel time is the same and their
            // differences are the layers' own cost.
            let x = gen::hidden(geo.d_model, geo.seq, &mut rng);
            let (reply, wire) = rec.span("netcore.wire", None, op, || {
                conn.infer_hidden(MODEL, x.clone())
            });
            let request = Request::Infer {
                model: MODEL.to_string(),
                payload: Payload::Hidden(x.clone()),
                deadline_ms: None,
            };
            let response = Response::Infer(reply.expect("peeled infer succeeds"));
            let line_bytes = codec_spans(rec, wire, op, &request, &response);
            if op == 0 {
                // The first op's, so the count repeats for a seed.
                bytes = line_bytes;
            }

            // One ulp apart: a different request-cache key, the same work.
            let mut nudged = x.clone();
            nudged[(0, 0)] = f32::from_bits(nudged[(0, 0)].to_bits() ^ 1);
            let (_, gateway) = rec.span("gateway.core", Some(wire), op, || {
                stack
                    .gateway
                    .infer(MODEL, Payload::Hidden(nudged))
                    .expect("in-process infer succeeds")
            });
            let (_, runtime) = rec.span("serve.runtime", Some(gateway), op, || {
                peel.runtime
                    .infer(MODEL, x.clone())
                    .expect("runtime infer succeeds")
            });
            let payload = Payload::Hidden(x.clone());
            let (_, model) = rec.span("serve.model", Some(runtime), op, || {
                peel.model.forward(&payload)
            });
            let (_, block) = rec.span("block.forward", Some(model), op, || {
                stack.forward_direct(&x)
            });
            let first = (op == 0).then_some(&mut tally);
            peel.peel_block(rec, block, op, &x, first, |qkv| {
                multi_head_attention(qkv, geo.n_heads)
            });
        });
        peel.finish(tally, bytes)
    }
}

/// `decode_bert`.
pub struct DecodeBert(BertStack);

pub struct DecodeClient {
    conn: GatewayClient,
    session: u64,
    rng: SplitMix64,
    prefix: Matrix<f32>,
    /// In-process KV cache over the same prefix, built on the first
    /// verified op (verification is not part of set-up).
    reference: Option<KvCache>,
}

impl Drop for DecodeClient {
    fn drop(&mut self) {
        // Best effort: the server may already be gone.
        let _ = self.conn.session_close(self.session);
    }
}

impl DecodeBert {
    fn token(&self, rng: &mut SplitMix64) -> Matrix<f32> {
        gen::hidden(self.0.geo.d_model, 1, rng)
    }

    fn prefix(&self, rng: &mut SplitMix64) -> Matrix<f32> {
        gen::hidden(self.0.geo.d_model, self.0.geo.prefill, rng)
    }
}

impl Scenario for DecodeBert {
    type Client = DecodeClient;
    const ROOT_SPANS: &'static [&'static str] = &["netcore.wire"];
    const CLIENTS: usize = CLIENTS;
    const WARMUP_OPS: usize = 8;

    fn build(geo: Geometry, seed: u64) -> Self {
        DecodeBert(BertStack::build(geo, seed))
    }

    fn cols_per_op(&self) -> usize {
        1
    }

    fn connect(&self, idx: usize) -> DecodeClient {
        let mut conn = self.0.connect();
        let mut rng = SplitMix64::stream(self.0.seed, &format!("decode.client{idx}"));
        let session = conn.session_open(MODEL).expect("session opens").session;
        let prefix = self.prefix(&mut rng);
        conn.decode(session, prefix.clone())
            .expect("prefill decodes");
        DecodeClient {
            conn,
            session,
            rng,
            prefix,
            reference: None,
        }
    }

    fn op(&self, c: &mut DecodeClient, verify: bool) -> OpOutcome {
        let d = self.0.geo.d_model;
        let token = self.token(&mut c.rng);
        let want = verify.then(|| {
            let kv = c.reference.get_or_insert_with(|| {
                let mut kv = KvCache::for_blocks(&self.0.blocks);
                decode_step(&self.0.blocks, &c.prefix, &mut kv);
                kv
            });
            decode_step(&self.0.blocks, &token, kv).0
        });
        let t = Instant::now();
        let reply = c.conn.decode(c.session, token);
        let latency = t.elapsed();
        let got = reply.ok().map(|r| r.hidden);
        OpOutcome {
            latency,
            ok: got.as_ref().is_some_and(|g| g.shape() == (d, 1)),
            exact: want.map(|w| got.as_ref().is_some_and(|g| bit_eq(g, &w))),
        }
    }

    fn peel(
        &self,
        rec: &Recorder,
        min_ops: usize,
        budget: Duration,
    ) -> BTreeMap<&'static str, f64> {
        let stack = &self.0;
        let geo = stack.geo;
        let mut peel = BertPeel::new(stack);
        let mut rng = SplitMix64::stream(stack.seed, "decode.peel");

        // One prefilled session (or KV cache) per peeled layer.
        let prefix = self.prefix(&mut rng);
        let mut conn = stack.connect();
        let wire_session = conn.session_open(MODEL).expect("session opens").session;
        conn.decode(wire_session, prefix.clone())
            .expect("prefill decodes");
        let gw_session = stack
            .gateway
            .session_open(MODEL)
            .expect("session opens")
            .session;
        stack
            .gateway
            .decode(gw_session, &prefix)
            .expect("prefill decodes");
        let open = |sessions: &SessionManager| {
            let id = sessions
                .open(Arc::clone(&peel.model))
                .expect("session opens");
            sessions.step(id, &prefix).expect("prefill steps");
            id
        };
        let (solo, mate) = (open(&peel.sessions), open(&peel.sessions));
        let fuse_gain = self.fuse_gain(&peel.sessions, solo, mate, min_ops.max(4), &mut rng);
        peel.extras.insert("serve.decode.fuse_gain", fuse_gain);
        let mut model_kv = KvCache::for_blocks(&stack.blocks);
        decode_step(&stack.blocks, &prefix, &mut model_kv);
        let mut block_kv = model_kv.clone();
        // Attention is timed over a harness-owned K/V prefix of the
        // live context length (token-major, like the cache).
        let mut context: Vec<f32> = prefix.transposed().into_vec();

        let mut tally = AqsTally::default();
        let mut bytes = 0;
        peel_loop(min_ops, budget, |op| {
            // The same token steps every layer's own session.
            let x = self.token(&mut rng);
            let (reply, wire) = rec.span("netcore.wire", None, op, || {
                conn.decode(wire_session, x.clone())
            });
            let request = Request::Decode {
                session: wire_session,
                hidden: x.clone(),
                deadline_ms: None,
            };
            let response = Response::Decode(reply.expect("peeled decode succeeds"));
            let line_bytes = codec_spans(rec, wire, op, &request, &response);
            if op == 0 {
                // The first op's, so the count repeats for a seed.
                bytes = line_bytes;
            }

            let (_, gateway) = rec.span("gateway.core", Some(wire), op, || {
                stack
                    .gateway
                    .decode(gw_session, &x)
                    .expect("in-process decode succeeds")
            });
            let (_, session) = rec.span("serve.session", Some(gateway), op, || {
                peel.sessions.step(solo, &x).expect("session step succeeds")
            });
            let (_, model) = rec.span("serve.model", Some(session), op, || {
                peel.model
                    .forward_decode(&x, &mut model_kv)
                    .expect("model decode succeeds")
            });
            let (_, block) = rec.span("block.decode_step", Some(model), op, || {
                decode_step(&stack.blocks, &x, &mut block_kv)
            });
            let first = (op == 0).then_some(&mut tally);
            peel.peel_block(rec, block, op, &pad_to_vector(&x), first, |qkv| {
                let token_qkv = qkv.submatrix(0, 0, qkv.rows(), 1);
                multi_head_attention_decode(&token_qkv, &context, &context, geo.n_heads)
            });
            context.extend_from_slice(x.as_slice());
        });
        peel.finish(tally, bytes)
    }
}

impl DecodeBert {
    /// In-process tokens/s with two concurrently stepping sessions ÷
    /// with one: what the decode batcher's fusing buys.
    fn fuse_gain(
        &self,
        sessions: &SessionManager,
        solo: u64,
        mate: u64,
        steps: usize,
        rng: &mut SplitMix64,
    ) -> f64 {
        let mut tokens = |n: usize| (0..n).map(|_| self.token(rng)).collect::<Vec<_>>();
        let run = |id: u64, tokens: &[Matrix<f32>]| {
            for t in tokens {
                sessions.step(id, t).expect("session step succeeds");
            }
        };
        let (a, b, c) = (tokens(steps), tokens(steps), tokens(steps));
        let t = Instant::now();
        run(solo, &a);
        let one = steps as f64 / t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| run(solo, &b));
            s.spawn(|| run(mate, &c));
        });
        let two = (2 * steps) as f64 / t.elapsed().as_secs_f64();
        two / one
    }
}
