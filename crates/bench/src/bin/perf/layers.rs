//! Pieces the traced run of several workloads shares: a *twin* of one
//! quantized linear layer the harness prepares itself (a block's own
//! sub-layers are not public) so it can time the layer and the
//! primitives under it, the codec spans, and the sparsity tally.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use panacea_bitslice::{SlicedActivation, SlicedWeight};
use panacea_core::pipeline::QuantizedLinear;
use panacea_core::{aqs_gemm, aqs_tile_stats};
use panacea_gateway::protocol::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use panacea_quant::requant::Requantizer;
use panacea_quant::{
    ActivationCalibrator, DbsConfig, LayerQuantConfig, Quantizer, SymmetricQuantizer,
};
use panacea_tensor::Matrix;

use crate::trace::{Recorder, SpanId};

/// Weight bit-width of every layer in the benchmark (`w7`: one LO
/// slice plus the HO slice).
pub const W_BITS: u8 = 7;
const W_LO_SLICES: usize = 1;
/// 8-bit activations: one LO slice plus the HO slice.
pub const ACT_BITS: u8 = 8;
const ACT_LO_SLICES: usize = 1;

/// Calibrates an 8-bit activation format on `sample` the way
/// `BlockBuilder` and `PreparedModel::prepare` do.
pub fn calibrate(sample: &Matrix<f32>, zpm: bool, dbs: bool) -> LayerQuantConfig {
    let mut cal = ActivationCalibrator::new(ACT_BITS).with_zpm(zpm);
    if dbs {
        cal = cal.with_dbs(DbsConfig::default());
    }
    cal.observe(sample);
    cal.finalize()
}

/// Set-up work the traced run times while building twins.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub calibrate: Duration,
    pub slice_weight: Duration,
}

/// Counts from `aqs_tile_stats`, summed over the layers of one op.
/// They depend only on the seeded operands, so they repeat exactly.
#[derive(Debug, Default, Clone, Copy)]
pub struct AqsTally {
    w_vectors: f64,
    w_compressed: f64,
    x_vectors: f64,
    x_compressed: f64,
    skipped: u64,
    executed: u64,
    comp_adds: u64,
    /// Dense-equivalent multiply-accumulates (`M·K·N`) of the op.
    pub macs: f64,
}

fn share(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl AqsTally {
    /// Achieved weight HO-vector sparsity.
    pub fn rho_w(&self) -> f64 {
        share(self.w_compressed, self.w_vectors)
    }

    /// Achieved activation HO-vector sparsity.
    pub fn rho_x(&self) -> f64 {
        share(self.x_compressed, self.x_vectors)
    }

    pub fn absorb(&mut self, other: &AqsTally) {
        self.w_vectors += other.w_vectors;
        self.w_compressed += other.w_compressed;
        self.x_vectors += other.x_vectors;
        self.x_compressed += other.x_compressed;
        self.skipped += other.skipped;
        self.executed += other.executed;
        self.comp_adds += other.comp_adds;
        self.macs += other.macs;
    }

    pub fn metrics(&self, out: &mut BTreeMap<&'static str, f64>) {
        out.insert("core.aqs.rho_w", self.rho_w());
        out.insert("core.aqs.rho_x", self.rho_x());
        out.insert(
            "core.aqs.skipped_share",
            share(self.skipped as f64, (self.skipped + self.executed) as f64),
        );
        // Each executed 4×4 outer product is 16 multiply-adds.
        let adds = self.executed * 16 + self.comp_adds;
        out.insert(
            "core.aqs.comp_add_share",
            share(self.comp_adds as f64, adds as f64),
        );
        out.insert("core.aqs.macs_per_op", self.macs);
    }
}

/// One linear layer prepared twice from the same weight and
/// calibration sample: as the program's [`QuantizedLinear`], and as the
/// harness's own sliced weight so the primitives under `forward` can be
/// timed on the same operands.
pub struct Twin {
    span: &'static str,
    pub layer: QuantizedLinear,
    /// The quantized integer weights `layer` holds.
    pub w_int: Matrix<i32>,
    /// `w_int`, SBR-sliced by the harness.
    pub sliced: SlicedWeight,
    pub act: LayerQuantConfig,
    /// `s_W · s_x`: accumulator → float.
    pub acc_scale: f64,
    requant: Option<Requantizer>,
}

impl Twin {
    /// Prepares the twin of a bias-free layer (`span` names its linear
    /// span, e.g. `core.linear.qkv`).
    pub fn prepare(
        span: &'static str,
        weight: &Matrix<f32>,
        calib_input: &Matrix<f32>,
        zpm: bool,
        dbs: bool,
        times: &mut SetupTimes,
    ) -> Twin {
        let t = Instant::now();
        let act = calibrate(calib_input, zpm, dbs);
        times.calibrate += t.elapsed();
        let layer = QuantizedLinear::prepare(weight, &vec![0.0; weight.rows()], W_BITS, act)
            .expect("twin layer prepares");
        let wq = SymmetricQuantizer::calibrate(weight.as_slice(), W_BITS);
        let w_int = wq.quantize_matrix(weight);
        let t = Instant::now();
        let sliced = SlicedWeight::from_int(&w_int, W_LO_SLICES).expect("7-bit weights slice");
        times.slice_weight += t.elapsed();
        let acc_scale = f64::from(wq.params().scale) * f64::from(act.quantizer.params().scale);
        Twin {
            span,
            layer,
            w_int,
            sliced,
            act,
            acc_scale,
            requant: None,
        }
    }

    /// Attaches the output format, so the twin runs `forward_codes`
    /// (GEMM + requantization) like a block's fc1.
    pub fn with_output(mut self, next: LayerQuantConfig) -> Twin {
        self.layer = self.layer.with_output(next).expect("requantizer builds");
        self.requant =
            Some(Requantizer::new(self.acc_scale, next.quantizer).expect("requantizer builds"));
        self
    }

    /// Quantizes a float input into this layer's codes.
    pub fn codes(&self, x: &Matrix<f32>) -> Matrix<i32> {
        self.act.quantizer.quantize_matrix(x)
    }

    /// [`codes`](Self::codes) under a `quant.quantize` span.
    pub fn quantize(
        &self,
        rec: &Recorder,
        parent: Option<SpanId>,
        op: u64,
        x: &Matrix<f32>,
    ) -> Matrix<i32> {
        rec.span("quant.quantize", parent, op, || self.codes(x)).0
    }

    /// Runs the layer on `codes` under its linear span, then the
    /// primitives under it — slicing, the AQS kernel on the pre-sliced
    /// operands, requantization — as child spans. Returns the layer's
    /// output: accumulators, or codes when an output format is attached.
    pub fn run(
        &self,
        rec: &Recorder,
        parent: Option<SpanId>,
        op: u64,
        codes: &Matrix<i32>,
        tally: Option<&mut AqsTally>,
    ) -> Matrix<i32> {
        let (out, linear) = rec.span(self.span, parent, op, || match self.requant {
            Some(_) => self.layer.forward_codes(codes).0,
            None => self.layer.forward(codes).0,
        });
        let (sx, _) = rec.span("bitslice.slice_act", Some(linear), op, || {
            SlicedActivation::from_uint(codes, ACT_LO_SLICES, self.act.dbs_type)
                .expect("codes fit the calibrated format")
        });
        let r = self.act.frequent_ho_slice;
        let ((acc, _), _) = rec.span("core.aqs.gemm", Some(linear), op, || {
            aqs_gemm(&self.sliced, &sx, r)
        });
        if let Some(rq) = &self.requant {
            rec.span("quant.requant", Some(linear), op, || {
                rq.requantize_matrix(&acc)
            });
        }
        if let Some(tally) = tally {
            let (m, k, n) = (self.w_int.rows(), self.w_int.cols(), codes.cols());
            let s = aqs_tile_stats(&self.sliced, &sx, r);
            let (wv, xv) = ((m / 4 * k) as f64, (k * n / 4) as f64);
            tally.w_vectors += wv;
            tally.w_compressed += s.rho_w * wv;
            tally.x_vectors += xv;
            tally.x_compressed += s.rho_x * xv;
            tally.skipped += s.skipped_outer_products;
            tally.executed += s.dwo_outer_products + s.swo_outer_products;
            tally.comp_adds += s.comp_adds;
            tally.macs += (m * k * n) as f64;
        }
        out
    }
}

/// Times the four codec calls on one op's actual messages as children
/// of its wire span; returns the bytes of the two lines.
pub fn codec_spans(
    rec: &Recorder,
    wire: SpanId,
    op: u64,
    request: &Request,
    response: &Response,
) -> usize {
    let (req_line, _) = rec.span("gateway.protocol.encode_req", Some(wire), op, || {
        encode_request(request)
    });
    rec.span("gateway.protocol.decode_req", Some(wire), op, || {
        decode_request(&req_line).expect("own request line decodes")
    });
    let (resp_line, _) = rec.span("gateway.protocol.encode_resp", Some(wire), op, || {
        encode_response(response)
    });
    rec.span("gateway.protocol.decode_resp", Some(wire), op, || {
        decode_response(&resp_line).expect("own response line decodes")
    });
    req_line.len() + resp_line.len()
}

/// Runs `one_op(op_id)` at least `min_ops` times and until `budget` is
/// spent; returns how many ops ran.
pub fn peel_loop(min_ops: usize, budget: Duration, mut one_op: impl FnMut(u64)) -> usize {
    let started = Instant::now();
    let mut ops = 0;
    while ops < min_ops || started.elapsed() < budget {
        one_op(ops as u64);
        ops += 1;
    }
    ops
}
