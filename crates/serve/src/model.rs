//! Prepared models and the registry that shares them across workers.
//!
//! Preparation — weight quantization, SBR slicing, activation calibration,
//! zero-point folding, requantizer construction — is the expensive,
//! one-time half of the Panacea inference flow. A [`PreparedModel`] runs
//! it exactly once per model and is then immutable, so the runtime shares
//! it across worker threads behind an [`Arc`] and every request pays only
//! the cheap half: one AQS-GEMM chain over its activation columns.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use panacea_telemetry::{DimCell, EventSeverity, FlightRecorder, MetricRegistry};

use panacea_bitslice::VECTOR_LEN;
use panacea_block::{with_stage_times, KvCache, QuantizedBlock, STAGE_NAMES};
use panacea_core::pipeline::{run_coalesced, QuantizedLinear};
use panacea_core::Workload;
use panacea_models::engine::CapturedLayer;
use panacea_quant::dbs::DbsConfig;
use panacea_quant::{ActivationCalibrator, LayerQuantConfig, Quantizer};
use panacea_tensor::Matrix;

use crate::{Payload, ServeError};

/// One float layer of a model to prepare: weights `M × K` and a bias of
/// length `M`.
#[derive(Debug, Clone)]
pub struct LayerSpec {
    /// Weight matrix (`M × K`).
    pub weight: Matrix<f32>,
    /// Bias (`M` entries).
    pub bias: Vec<f32>,
}

impl LayerSpec {
    /// A layer with a zero bias.
    pub fn unbiased(weight: Matrix<f32>) -> Self {
        let bias = vec![0.0; weight.rows()];
        LayerSpec { weight, bias }
    }
}

/// Quantization knobs applied during preparation.
#[derive(Debug, Clone, Copy)]
pub struct PrepareOptions {
    /// Weight bit-width (SBR format family, e.g. 4 or 7).
    pub w_bits: u8,
    /// Apply zero-point manipulation during calibration.
    pub zpm: bool,
    /// Apply distribution-based bit-slicing during calibration.
    pub dbs: bool,
}

impl Default for PrepareOptions {
    fn default() -> Self {
        PrepareOptions {
            w_bits: 7,
            zpm: true,
            dbs: true,
        }
    }
}

/// What a prepared model executes per request.
#[derive(Debug, Clone)]
enum Body {
    /// A linear chain: adjacent layers glued by requantizers so codes
    /// flow end to end without leaving the integer domain.
    Chain {
        layers: Vec<QuantizedLinear>,
        input_cfg: LayerQuantConfig,
    },
    /// A stack of quantized transformer blocks; requests and responses
    /// are f32 hidden states (`Payload::Hidden`).
    Blocks { blocks: Vec<QuantizedBlock> },
}

/// A fully prepared model: either a linear chain (every layer's weights
/// sliced, every activation format calibrated, adjacent layers glued by
/// requantizers) or a stack of quantized transformer blocks
/// ([`panacea_block::QuantizedBlock`]) executing pre-norm attention +
/// MLP with residuals.
#[derive(Debug, Clone)]
pub struct PreparedModel {
    name: String,
    /// Process-unique preparation identity — see
    /// [`instance_id`](Self::instance_id).
    instance: u64,
    body: Body,
    in_features: usize,
    out_features: usize,
}

/// Source of [`PreparedModel::instance_id`] values; 0 is never issued.
static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);

impl PreparedModel {
    /// Prepares a linear chain from float layers.
    ///
    /// `calibration` is a `K × N` activation sample for the first layer's
    /// input; later layers are calibrated on the float reference
    /// intermediates it induces (`W·x + b` per layer), mirroring how PTQ
    /// calibration observes real intermediate tensors.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::EmptyModel`] for zero layers,
    /// [`ServeError::Shape`] if adjacent layers disagree on width or the
    /// calibration sample has the wrong feature count, and forwards
    /// quantization failures as [`ServeError::Pipeline`].
    pub fn prepare(
        name: impl Into<String>,
        layers: &[LayerSpec],
        calibration: &Matrix<f32>,
        opts: PrepareOptions,
    ) -> Result<Self, ServeError> {
        let name = name.into();
        let Some(first) = layers.first() else {
            return Err(ServeError::EmptyModel { model: name });
        };
        if calibration.rows() != first.weight.cols() {
            return Err(ServeError::Shape {
                expected: first.weight.cols(),
                actual: calibration.rows(),
            });
        }
        for pair in layers.windows(2) {
            if pair[1].weight.cols() != pair[0].weight.rows() {
                return Err(ServeError::Shape {
                    expected: pair[0].weight.rows(),
                    actual: pair[1].weight.cols(),
                });
            }
        }
        // The PE array emits output rows in vectors of VECTOR_LEN, so
        // every layer's M must align; catching it here turns a worker
        // panic at forward time into a preparation error.
        for spec in layers {
            if spec.weight.rows() % VECTOR_LEN != 0 {
                return Err(ServeError::UnalignedRows {
                    rows: spec.weight.rows(),
                });
            }
        }

        // Calibrate every layer input on the float reference chain.
        let calibrate = |x: &Matrix<f32>| {
            let mut cal = ActivationCalibrator::new(8).with_zpm(opts.zpm);
            if opts.dbs {
                cal = cal.with_dbs(DbsConfig::default());
            }
            cal.observe(x);
            cal.finalize()
        };
        let mut configs = Vec::with_capacity(layers.len());
        let mut x = calibration.clone();
        for spec in layers {
            configs.push(calibrate(&x));
            let mut next = spec.weight.gemm_f32(&x).map_err(|_| ServeError::Shape {
                expected: spec.weight.cols(),
                actual: x.rows(),
            })?;
            for m in 0..next.rows() {
                for n in 0..next.cols() {
                    next[(m, n)] += spec.bias[m];
                }
            }
            x = next;
        }

        let mut prepared = Vec::with_capacity(layers.len());
        for (i, spec) in layers.iter().enumerate() {
            let mut layer =
                QuantizedLinear::prepare(&spec.weight, &spec.bias, opts.w_bits, configs[i])
                    .map_err(ServeError::Pipeline)?;
            if i + 1 < layers.len() {
                layer = layer
                    .with_output(configs[i + 1])
                    .map_err(ServeError::Pipeline)?;
            }
            prepared.push(layer);
        }
        Ok(PreparedModel {
            name,
            instance: NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed),
            in_features: first.weight.cols(),
            out_features: layers.last().expect("non-empty").weight.rows(),
            body: Body::Chain {
                layers: prepared,
                input_cfg: configs[0],
            },
        })
    }

    /// Wraps an already-prepared transformer-block stack (built by
    /// `panacea_block::BlockBuilder`) as a servable model. Requests are
    /// `d_model × tokens` [`Payload::Hidden`] f32 hidden states; each
    /// request's columns form one attention sequence.
    ///
    /// # Errors
    ///
    /// [`ServeError::EmptyModel`] for zero blocks and
    /// [`ServeError::Shape`] if the blocks disagree on `d_model`.
    pub fn from_blocks(
        name: impl Into<String>,
        blocks: Vec<QuantizedBlock>,
    ) -> Result<Self, ServeError> {
        let name = name.into();
        let Some(first) = blocks.first() else {
            return Err(ServeError::EmptyModel { model: name });
        };
        let d_model = first.d_model();
        for b in &blocks {
            if b.d_model() != d_model {
                return Err(ServeError::Shape {
                    expected: d_model,
                    actual: b.d_model(),
                });
            }
        }
        Ok(PreparedModel {
            name,
            instance: NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed),
            in_features: d_model,
            out_features: d_model,
            body: Body::Blocks { blocks },
        })
    }

    /// Whether this model executes transformer blocks (f32 hidden-state
    /// requests) rather than a code-domain linear chain.
    pub fn is_block(&self) -> bool {
        matches!(self.body, Body::Blocks { .. })
    }

    /// This model's `(model, "block", qkv|attn|proj|fc1|fc2)` cells in
    /// `registry` — none for a linear chain, which runs no block.
    pub(crate) fn block_cells(&self, registry: &MetricRegistry) -> Vec<Arc<DimCell>> {
        if !self.is_block() {
            return Vec::new();
        }
        STAGE_NAMES
            .iter()
            .map(|stage| registry.cell(&self.name, "block", stage))
            .collect()
    }

    /// Prepares a single-layer model from a [`CapturedLayer`] recorded by
    /// the transformer engine, calibrated on the layer's real captured
    /// input.
    ///
    /// # Errors
    ///
    /// Same conditions as [`prepare`](Self::prepare).
    pub fn from_capture(capture: &CapturedLayer, opts: PrepareOptions) -> Result<Self, ServeError> {
        PreparedModel::prepare(
            capture.name.clone(),
            &[LayerSpec::unbiased(capture.weight.clone())],
            &capture.input,
            opts,
        )
    }

    /// The model's registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A process-unique id minted per [`prepare`](Self::prepare) call.
    ///
    /// Two models with equal ids are guaranteed bit-identical in their
    /// outputs (clones share the id and the preparation is
    /// deterministic), while a *re-preparation* — even of the same
    /// weights under the same name — gets a fresh id. This is the
    /// identity a response cache must key on: registry names can be
    /// re-bound to new models, names cannot.
    pub fn instance_id(&self) -> u64 {
        self.instance
    }

    /// Features per input column (`K` of the first layer).
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Rows of the output accumulator (`M` of the last layer).
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Number of prepared layers (linear layers, or transformer blocks).
    pub fn num_layers(&self) -> usize {
        match &self.body {
            Body::Chain { layers, .. } => layers.len(),
            Body::Blocks { blocks } => blocks.len(),
        }
    }

    /// The activation format requests must quantize into.
    ///
    /// # Panics
    ///
    /// Panics for transformer-block models — their requests are f32
    /// hidden states, not calibrated codes (check
    /// [`is_block`](Self::is_block) first).
    pub fn input_config(&self) -> &LayerQuantConfig {
        match &self.body {
            Body::Chain { input_cfg, .. } => input_cfg,
            Body::Blocks { .. } => {
                panic!("block models take f32 hidden states, not quantized codes")
            }
        }
    }

    /// The scale converting final code accumulators to floats. `1.0`
    /// for block models, whose [`Payload::Hidden`] outputs need no
    /// scaling.
    pub fn output_scale(&self) -> f64 {
        match &self.body {
            Body::Chain { layers, .. } => layers.last().expect("non-empty").accumulator_scale(),
            Body::Blocks { .. } => 1.0,
        }
    }

    /// Converts a float input (`K × N`) into this model's native request
    /// payload: calibrated activation codes for linear chains, the
    /// hidden states themselves for transformer-block models.
    pub fn quantize(&self, x: &Matrix<f32>) -> Payload {
        match &self.body {
            Body::Chain { input_cfg, .. } => Payload::Codes(input_cfg.quantizer.quantize_matrix(x)),
            Body::Blocks { .. } => Payload::Hidden(x.clone()),
        }
    }

    /// Checks a request's payload against this model's input contract —
    /// including the payload *kind*, so a mismatch between what the
    /// caller sent and what the model executes is caught here, in one
    /// place, instead of by per-verb guards upstream.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::PayloadKindMismatch`] when the payload's
    /// domain does not match the model's kind, [`ServeError::Shape`] on
    /// a feature-count mismatch, and [`ServeError::EmptyRequest`] for
    /// zero columns. Linear chains additionally reject codes exceeding
    /// the calibrated format ([`ServeError::CodesOutOfRange`]); block
    /// models reject NaN or infinite hidden states
    /// ([`ServeError::NonFiniteInput`]).
    pub fn validate(&self, payload: &Payload) -> Result<(), ServeError> {
        if payload.rows() != self.in_features {
            return Err(ServeError::Shape {
                expected: self.in_features,
                actual: payload.rows(),
            });
        }
        if payload.cols() == 0 {
            return Err(ServeError::EmptyRequest);
        }
        match (&self.body, payload) {
            (Body::Chain { input_cfg, .. }, Payload::Codes(codes)) => {
                if !input_cfg.codes_in_range(codes) {
                    return Err(ServeError::CodesOutOfRange {
                        max: input_cfg.max_code(),
                    });
                }
            }
            (Body::Blocks { .. }, Payload::Hidden(h)) => {
                if !h.iter().all(|v| v.is_finite()) {
                    return Err(ServeError::NonFiniteInput);
                }
            }
            _ => {
                return Err(ServeError::PayloadKindMismatch {
                    model: self.name.clone(),
                    model_is_block: self.is_block(),
                });
            }
        }
        Ok(())
    }

    /// Runs the full chain on already-quantized codes (`K × N`, any `N`),
    /// returning the final integer accumulators and the summed workload
    /// — the direct code-domain entry point for linear chains.
    ///
    /// # Panics
    ///
    /// Panics on transformer-block models (their payloads are hidden
    /// states — use [`forward`](Self::forward)) and if `codes` violates
    /// the input contract (use [`validate`](Self::validate) first — the
    /// runtime does).
    pub fn forward_codes(&self, codes: &Matrix<i32>) -> (Matrix<i32>, Workload) {
        let Body::Chain { layers, .. } = &self.body else {
            panic!("block models take hidden states, not codes; use forward()")
        };
        let mut wl = Workload::default();
        let last = layers.len() - 1;
        let mut x: Option<Matrix<i32>> = None;
        for layer in &layers[..last] {
            let (next, w) = layer.forward_codes(x.as_ref().unwrap_or(codes));
            wl = wl.merged(&w);
            x = Some(next);
        }
        let (acc, w) = layers[last].forward(x.as_ref().unwrap_or(codes));
        (acc, wl.merged(&w))
    }

    /// Block-body execution over hidden states: `segments` lists the
    /// token count of each independent sequence packed into the columns
    /// (attention never crosses a segment boundary).
    fn forward_block_segments(
        &self,
        h: &Matrix<f32>,
        segments: &[usize],
    ) -> (Matrix<f32>, Workload) {
        let Body::Blocks { blocks } = &self.body else {
            unreachable!("callers dispatch on body kind");
        };
        let mut h = h.clone();
        let mut wl = Workload::default();
        for block in blocks {
            let (next, w) = block.forward_segments(&h, segments);
            wl = wl.merged(&w.total());
            h = next;
        }
        (h, wl)
    }

    /// Runs one request in its typed payload domain: codes in → code
    /// accumulators out for linear chains, hidden states in → hidden
    /// states out for transformer-block models (the request's columns
    /// form one attention sequence).
    ///
    /// # Panics
    ///
    /// Panics if the payload violates the input contract — including its
    /// kind (use [`validate`](Self::validate) first; the runtime does).
    pub fn forward(&self, payload: &Payload) -> (Payload, Workload) {
        match (&self.body, payload) {
            (Body::Chain { .. }, Payload::Codes(codes)) => {
                let (acc, wl) = self.forward_codes(codes);
                (Payload::Codes(acc), wl)
            }
            (Body::Blocks { .. }, Payload::Hidden(h)) => {
                let (out, wl) = self.forward_block_segments(h, &[h.cols()]);
                (Payload::Hidden(out), wl)
            }
            _ => panic!("payload kind does not match the model (validate first)"),
        }
    }

    /// Runs the model on several requests' payloads at once: their
    /// columns are coalesced into one wide GEMM `N` dimension, executed
    /// in a single pass, and split back per request — bit-identical to
    /// running each request alone. For block models each request's
    /// columns stay one attention sequence (the coalescing only widens
    /// the GEMMs). This is the batched entry point the runtime's batch
    /// executor drives.
    ///
    /// # Panics
    ///
    /// Panics if the requests disagree on the feature dimension or
    /// violate the input contract — including payload kind (the runtime
    /// validates at submission).
    pub fn forward_batch(&self, requests: &[&Payload]) -> (Vec<Payload>, Workload) {
        match &self.body {
            Body::Chain { .. } => {
                let codes: Vec<&Matrix<i32>> = requests
                    .iter()
                    .map(|p| p.as_codes().expect("chain batch carries codes"))
                    .collect();
                let (outs, wl) = run_coalesced(&codes, |x, _| self.forward_codes(x));
                (outs.into_iter().map(Payload::Codes).collect(), wl)
            }
            Body::Blocks { .. } => {
                let hiddens: Vec<&Matrix<f32>> = requests
                    .iter()
                    .map(|p| p.as_hidden().expect("block batch carries hidden states"))
                    .collect();
                let (outs, wl) = run_coalesced(&hiddens, |x, w| self.forward_block_segments(x, w));
                (outs.into_iter().map(Payload::Hidden).collect(), wl)
            }
        }
    }

    /// Float-in/float-out convenience path: quantize → run → dequantize
    /// for chains, hidden states in → hidden states out for block models.
    pub fn forward_f32(&self, x: &Matrix<f32>) -> (Matrix<f32>, Workload) {
        let (out, wl) = self.forward(&self.quantize(x));
        let f = match out {
            Payload::Codes(acc) => {
                let s = self.output_scale();
                acc.map(|&v| (f64::from(v) * s) as f32)
            }
            Payload::Hidden(h) => h,
        };
        (f, wl)
    }

    /// An empty KV cache shaped for this model's block stack — the
    /// per-sequence state a decode session grows.
    ///
    /// # Errors
    ///
    /// [`ServeError::PayloadKindMismatch`] for linear chains, which have
    /// no attention state to cache.
    pub fn new_kv_cache(&self) -> Result<KvCache, ServeError> {
        match &self.body {
            Body::Blocks { blocks } => Ok(KvCache::for_blocks(blocks)),
            Body::Chain { .. } => Err(ServeError::PayloadKindMismatch {
                model: self.name.clone(),
                model_is_block: false,
            }),
        }
    }

    /// One KV-cached decode step: runs `hidden` (`d_model × t_new`, the
    /// freshly appended tokens of one sequence) through the block stack
    /// with incremental causal attention over `kv`'s cached prefix,
    /// advancing the cache by `t_new` tokens. Stepping is bit-identical
    /// to a full causal recompute over the concatenated sequence
    /// (`QuantizedBlock::forward_segments_causal` per block) — see the
    /// decode-exactness property tests.
    ///
    /// # Errors
    ///
    /// [`ServeError::PayloadKindMismatch`] for linear chains,
    /// [`ServeError::Shape`] / [`ServeError::EmptyRequest`] /
    /// [`ServeError::NonFiniteInput`] for inputs violating the hidden
    /// payload contract, and [`ServeError::Shape`] when `kv` was built
    /// for a different stack.
    pub fn forward_decode(
        &self,
        hidden: &Matrix<f32>,
        kv: &mut KvCache,
    ) -> Result<(Matrix<f32>, Workload), ServeError> {
        self.validate_decode(hidden)?;
        self.forward_decode_batch(hidden, &[hidden.cols()], &mut [kv])
    }

    /// Continuous-batching decode: many sessions' new token columns,
    /// stacked in `hidden` (`segments[i]` columns advance `kvs[i]`), run
    /// through one GEMM pass per block
    /// ([`panacea_block::decode_step_batch`]) with attention and the K/V
    /// append per session. Each session's output columns are
    /// bit-identical to stepping it alone through
    /// [`forward_decode`](Self::forward_decode). This is the body of
    /// [`forward_decode`](Self::forward_decode) and of the decode
    /// batcher's one pass, which runs it through [`run_coalesced`]. It
    /// skips the payload re-scan and segment checks: every step was
    /// validated before it could reach a pass, and `segments` are the
    /// widths of the very matrices stacked. KV shape checks (O(1) each)
    /// remain.
    ///
    /// # Errors
    ///
    /// [`ServeError::PayloadKindMismatch`] for linear chains and
    /// [`ServeError::Shape`] when a cache was built for a different
    /// stack.
    pub(crate) fn forward_decode_batch(
        &self,
        hidden: &Matrix<f32>,
        segments: &[usize],
        kvs: &mut [&mut KvCache],
    ) -> Result<(Matrix<f32>, Workload), ServeError> {
        let blocks = self.decode_blocks()?;
        for kv in kvs.iter() {
            self.check_kv(blocks, kv)?;
        }
        let (out, wl) = panacea_block::decode_step_batch(blocks, hidden, segments, kvs);
        Ok((out, wl.total()))
    }

    /// The hidden-payload contract for decode steps, checked without
    /// cloning the step into a [`Payload`] (decode steps are the
    /// per-token hot path). The serving layer runs this *before* a step
    /// can enter a fused batch, so one bad request can never poison its
    /// batchmates.
    ///
    /// # Errors
    ///
    /// [`ServeError::PayloadKindMismatch`] for linear chains,
    /// [`ServeError::Shape`] / [`ServeError::EmptyRequest`] /
    /// [`ServeError::NonFiniteInput`] for inputs violating the hidden
    /// payload contract.
    pub fn validate_decode(&self, hidden: &Matrix<f32>) -> Result<(), ServeError> {
        self.decode_blocks()?;
        if hidden.rows() != self.in_features {
            return Err(ServeError::Shape {
                expected: self.in_features,
                actual: hidden.rows(),
            });
        }
        if hidden.cols() == 0 {
            return Err(ServeError::EmptyRequest);
        }
        if !hidden.iter().all(|v| v.is_finite()) {
            return Err(ServeError::NonFiniteInput);
        }
        Ok(())
    }

    /// The block stack, or the chain-model error decode paths share.
    fn decode_blocks(&self) -> Result<&[QuantizedBlock], ServeError> {
        match &self.body {
            Body::Blocks { blocks } => Ok(blocks),
            Body::Chain { .. } => Err(ServeError::PayloadKindMismatch {
                model: self.name.clone(),
                model_is_block: false,
            }),
        }
    }

    fn check_kv(&self, blocks: &[QuantizedBlock], kv: &KvCache) -> Result<(), ServeError> {
        if kv.num_blocks() != blocks.len() {
            return Err(ServeError::Shape {
                expected: blocks.len(),
                actual: kv.num_blocks(),
            });
        }
        if kv.d_model() != self.in_features {
            return Err(ServeError::Shape {
                expected: self.in_features,
                actual: kv.d_model(),
            });
        }
        Ok(())
    }
}

/// Runs one model pass and records what it spent in each block
/// sub-layer (summed over the stack's blocks) into the cells
/// [`PreparedModel::block_cells`] resolved — the per-(model, layer)
/// signal, recorded by the serving layer that knows the model's name.
pub(crate) fn timed_blocks<T>(cells: &[Arc<DimCell>], pass: impl FnOnce() -> T) -> T {
    let (out, times) = with_stage_times(pass);
    for (cell, spent) in cells.iter().zip(times) {
        cell.record_latency(spent);
    }
    out
}

/// A concurrent name → [`PreparedModel`] map shared by every worker.
///
/// Models are immutable once inserted; lookups hand out cheap [`Arc`]
/// clones, so a worker mid-batch never blocks registration of new models.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    models: RwLock<HashMap<String, Arc<PreparedModel>>>,
    /// Registrations and re-registrations land in this event ring.
    recorder: FlightRecorder,
}

impl ModelRegistry {
    /// An empty registry recording into a private flight recorder.
    pub fn new() -> Self {
        ModelRegistry::default()
    }

    /// An empty registry whose (re-)registrations record
    /// `model_register` / `model_reregister` events into `recorder`.
    pub fn with_recorder(recorder: FlightRecorder) -> Self {
        ModelRegistry {
            models: RwLock::default(),
            recorder,
        }
    }

    /// Registers a prepared model under its name, returning the shared
    /// handle. Re-registering a name replaces the model for *new*
    /// requests; in-flight batches keep the handle they resolved.
    pub fn insert(&self, model: PreparedModel) -> Arc<PreparedModel> {
        self.insert_shared(Arc::new(model))
    }

    /// Registers an already-shared prepared model without cloning its
    /// weights.
    pub fn insert_shared(&self, model: Arc<PreparedModel>) -> Arc<PreparedModel> {
        let replaced = self
            .models
            .write()
            .expect("registry lock poisoned")
            .insert(model.name().to_string(), Arc::clone(&model));
        let kind = if replaced.is_some() {
            "model_reregister"
        } else {
            "model_register"
        };
        self.recorder
            .record(EventSeverity::Info, kind, format!("model={}", model.name()));
        model
    }

    /// Looks up a model by name.
    pub fn get(&self, name: &str) -> Option<Arc<PreparedModel>> {
        self.models
            .read()
            .expect("registry lock poisoned")
            .get(name)
            .cloned()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.read().expect("registry lock poisoned").len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panacea_tensor::dist::DistributionKind;

    fn spec_chain(seed: u64, dims: &[usize]) -> (Vec<LayerSpec>, Matrix<f32>) {
        let mut rng = panacea_tensor::seeded_rng(seed);
        let layers: Vec<LayerSpec> = dims
            .windows(2)
            .map(|d| {
                let w = DistributionKind::Gaussian {
                    mean: 0.0,
                    std: 0.05,
                }
                .sample_matrix(d[1], d[0], &mut rng);
                LayerSpec::unbiased(w)
            })
            .collect();
        let calib = DistributionKind::TransformerAct {
            core_mean: 0.1,
            core_std: 0.4,
            pos_scale: 8.0,
            neg_scale: 5.0,
            outlier_frac: 0.02,
        }
        .sample_matrix(dims[0], 24, &mut rng);
        (layers, calib)
    }

    #[test]
    fn prepare_builds_requant_chain() {
        let (layers, calib) = spec_chain(1, &[32, 16, 8]);
        let m = PreparedModel::prepare("mlp", &layers, &calib, PrepareOptions::default())
            .expect("prepare");
        assert_eq!(m.num_layers(), 2);
        assert_eq!(m.in_features(), 32);
        assert_eq!(m.out_features(), 8);
        let payload = m.quantize(&calib);
        assert_eq!(payload.kind(), crate::PayloadKind::Codes);
        assert!(m.validate(&payload).is_ok());
        let (out, wl) = m.forward(&payload);
        assert_eq!(out.as_codes().expect("chain output").shape(), (8, 24));
        assert!(wl.mul > 0);
    }

    #[test]
    fn forward_is_deterministic_across_clones() {
        let (layers, calib) = spec_chain(2, &[16, 8]);
        let m = PreparedModel::prepare("m", &layers, &calib, PrepareOptions::default())
            .expect("prepare");
        let payload = m.quantize(&calib);
        let (a, _) = m.forward(&payload);
        let (b, _) = m.clone().forward(&payload);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_model_rejected() {
        let calib = Matrix::<f32>::zeros(4, 4);
        let err =
            PreparedModel::prepare("none", &[], &calib, PrepareOptions::default()).unwrap_err();
        assert!(matches!(err, ServeError::EmptyModel { .. }));
    }

    #[test]
    fn shape_mismatches_rejected() {
        let (mut layers, calib) = spec_chain(3, &[16, 8, 4]);
        // Break the chain: second layer expects 8 features, give it 6.
        layers[1].weight = Matrix::<f32>::zeros(4, 6);
        layers[1].bias = vec![0.0; 4];
        assert!(matches!(
            PreparedModel::prepare("bad", &layers, &calib, PrepareOptions::default()),
            Err(ServeError::Shape {
                expected: 8,
                actual: 6
            })
        ));
        // Wrong calibration width.
        let (layers, _) = spec_chain(4, &[16, 8]);
        let bad_calib = Matrix::<f32>::zeros(9, 4);
        assert!(matches!(
            PreparedModel::prepare("bad2", &layers, &bad_calib, PrepareOptions::default()),
            Err(ServeError::Shape {
                expected: 16,
                actual: 9
            })
        ));
    }

    #[test]
    fn validate_enforces_request_contract() {
        let (layers, calib) = spec_chain(5, &[16, 8]);
        let m = PreparedModel::prepare("m", &layers, &calib, PrepareOptions::default())
            .expect("prepare");
        assert!(matches!(
            m.validate(&Matrix::<i32>::zeros(15, 2).into()),
            Err(ServeError::Shape {
                expected: 16,
                actual: 15
            })
        ));
        assert!(matches!(
            m.validate(&Matrix::<i32>::zeros(16, 0).into()),
            Err(ServeError::EmptyRequest)
        ));
        let bad = Matrix::from_fn(16, 2, |_, _| 999);
        assert!(matches!(
            m.validate(&bad.into()),
            Err(ServeError::CodesOutOfRange { .. })
        ));
        // The payload kind is part of the contract: hidden states sent
        // to a linear chain are rejected here, not by a verb guard.
        assert!(matches!(
            m.validate(&Matrix::<f32>::zeros(16, 2).into()),
            Err(ServeError::PayloadKindMismatch {
                model_is_block: false,
                ..
            })
        ));
    }

    #[test]
    fn registry_shares_and_replaces() {
        let (layers, calib) = spec_chain(6, &[8, 4]);
        let reg = ModelRegistry::new();
        assert!(reg.is_empty());
        let m = PreparedModel::prepare("a", &layers, &calib, PrepareOptions::default())
            .expect("prepare");
        let h1 = reg.insert(m.clone());
        let h2 = reg.get("a").expect("registered");
        assert!(Arc::ptr_eq(&h1, &h2));
        let h3 = reg.insert(m);
        assert!(!Arc::ptr_eq(&h1, &h3));
        assert!(reg.get("missing").is_none());
    }

    #[test]
    fn instance_ids_are_unique_per_preparation() {
        let (layers, calib) = spec_chain(7, &[16, 8]);
        let a = PreparedModel::prepare("m", &layers, &calib, PrepareOptions::default())
            .expect("prepare");
        let b = PreparedModel::prepare("m", &layers, &calib, PrepareOptions::default())
            .expect("prepare");
        assert_ne!(
            a.instance_id(),
            b.instance_id(),
            "re-preparation must mint a fresh identity"
        );
        assert_eq!(a.instance_id(), a.clone().instance_id());
        assert_ne!(a.instance_id(), 0, "0 is reserved as never-issued");
    }

    use crate::testutil::{block_model as shared_block_model, hidden};

    fn block_model(seed: u64) -> (PreparedModel, Vec<panacea_block::QuantizedBlock>) {
        shared_block_model("blk", seed)
    }

    #[test]
    fn block_model_round_trips_hidden_states_bit_exactly() {
        let (model, blocks) = block_model(40);
        assert!(model.is_block());
        assert_eq!(model.num_layers(), 2);
        assert_eq!(model.in_features(), 16);
        assert_eq!(model.out_features(), 16);
        assert_eq!(model.output_scale(), 1.0);
        let x = hidden(16, 5, 0);
        let payload = model.quantize(&x);
        assert_eq!(payload.kind(), crate::PayloadKind::Hidden);
        assert!(model.validate(&payload).is_ok());
        let (out, wl) = model.forward(&payload);
        assert!(wl.mul > 0);
        // Direct block-chain execution is the oracle.
        let mut expect = x.clone();
        for b in &blocks {
            expect = b.forward(&expect).0;
        }
        assert_eq!(out.as_hidden().expect("block output"), &expect);
        let (f32_out, _) = model.forward_f32(&x);
        assert_eq!(f32_out, expect);
    }

    #[test]
    fn block_model_batch_is_bit_exact_per_request() {
        let (model, _) = block_model(41);
        let requests: Vec<Payload> = [1usize, 4, 2]
            .iter()
            .enumerate()
            .map(|(i, &w)| model.quantize(&hidden(16, w, i)))
            .collect();
        let refs: Vec<&Payload> = requests.iter().collect();
        let (batched, _) = model.forward_batch(&refs);
        for (req, got) in requests.iter().zip(&batched) {
            let (alone, _) = model.forward(req);
            assert_eq!(got, &alone, "batched block request diverged from solo");
        }
    }

    #[test]
    fn block_model_validate_enforces_the_hidden_contract() {
        let (model, _) = block_model(42);
        assert!(matches!(
            model.validate(&Matrix::<f32>::zeros(15, 2).into()),
            Err(ServeError::Shape {
                expected: 16,
                actual: 15
            })
        ));
        assert!(matches!(
            model.validate(&Matrix::<f32>::zeros(16, 0).into()),
            Err(ServeError::EmptyRequest)
        ));
        let nan = Matrix::from_fn(16, 2, |_, _| f32::NAN);
        assert!(matches!(
            model.validate(&nan.into()),
            Err(ServeError::NonFiniteInput)
        ));
        let inf = Matrix::from_fn(16, 1, |_, _| f32::INFINITY);
        assert!(matches!(
            model.validate(&inf.into()),
            Err(ServeError::NonFiniteInput)
        ));
        // Codes against a block model are a payload-kind mismatch.
        assert!(matches!(
            model.validate(&Matrix::<i32>::zeros(16, 2).into()),
            Err(ServeError::PayloadKindMismatch {
                model_is_block: true,
                ..
            })
        ));
    }

    #[test]
    fn empty_block_stack_rejected() {
        assert!(matches!(
            PreparedModel::from_blocks("none", Vec::new()),
            Err(ServeError::EmptyModel { .. })
        ));
    }

    #[test]
    fn decode_steps_match_full_causal_recompute() {
        let (model, blocks) = block_model(43);
        let mut kv = model.new_kv_cache().expect("block model");
        let prefix = hidden(16, 6, 7);
        // Step one token at a time; compare against a causal full pass.
        let mut expect = prefix.clone();
        for b in &blocks {
            expect = b.forward_segments_causal(&expect, &[6]).0;
        }
        for c in 0..6 {
            let one = prefix.submatrix(0, c, 16, 1);
            let (out, wl) = model.forward_decode(&one, &mut kv).expect("step");
            assert!(wl.mul > 0);
            for r in 0..16 {
                assert_eq!(out[(r, 0)].to_bits(), expect[(r, c)].to_bits());
            }
        }
        assert_eq!(kv.tokens(), 6);
    }

    #[test]
    fn decode_rejects_chains_and_bad_steps() {
        let (layers, calib) = spec_chain(8, &[16, 8]);
        let chain = PreparedModel::prepare("c", &layers, &calib, PrepareOptions::default())
            .expect("prepare");
        assert!(matches!(
            chain.new_kv_cache(),
            Err(ServeError::PayloadKindMismatch {
                model_is_block: false,
                ..
            })
        ));
        let (model, _) = block_model(44);
        let mut kv = model.new_kv_cache().expect("block model");
        assert!(matches!(
            model.forward_decode(&Matrix::<f32>::zeros(15, 1), &mut kv),
            Err(ServeError::Shape { .. })
        ));
        assert!(matches!(
            model.forward_decode(&Matrix::<f32>::zeros(16, 0), &mut kv),
            Err(ServeError::EmptyRequest)
        ));
        let nan = Matrix::from_fn(16, 1, |_, _| f32::NAN);
        assert!(matches!(
            model.forward_decode(&nan, &mut kv),
            Err(ServeError::NonFiniteInput)
        ));
        // A cache built for a different stack depth is rejected…
        let mut wrong_depth = panacea_block::KvCache::new(16, 5);
        assert!(matches!(
            model.forward_decode(&Matrix::<f32>::zeros(16, 1), &mut wrong_depth),
            Err(ServeError::Shape {
                expected: 2,
                actual: 5
            })
        ));
        // …and a wrong-width cache reports the widths, not the depths.
        let mut wrong_width = panacea_block::KvCache::new(32, 2);
        assert!(matches!(
            model.forward_decode(&Matrix::<f32>::zeros(16, 1), &mut wrong_width),
            Err(ServeError::Shape {
                expected: 16,
                actual: 32
            })
        ));
    }

    #[test]
    fn from_capture_serves_a_real_transformer_layer() {
        use panacea_models::engine::{TinyTransformer, TransformerConfig};
        let model = TinyTransformer::new_random(TransformerConfig::default(), 11);
        let mut rng = panacea_tensor::seeded_rng(12);
        let x = DistributionKind::Gaussian {
            mean: 0.0,
            std: 1.0,
        }
        .sample_matrix(64, 16, &mut rng);
        let captures = model.captured_layers(&x);
        let fc2 = captures
            .iter()
            .find(|c| c.name == "block0.fc2")
            .expect("captured");
        let prepared =
            PreparedModel::from_capture(fc2, PrepareOptions::default()).expect("prepare");
        assert_eq!(prepared.name(), "block0.fc2");
        assert_eq!(prepared.in_features(), 256);
        let (out, _) = prepared.forward_f32(&fc2.input);
        assert_eq!(out.shape(), (64, 16));
    }
}
