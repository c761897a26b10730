//! Post-training quantization (PTQ) for the Panacea reproduction.
//!
//! Implements every quantization ingredient of the paper:
//!
//! * [`quantizer`] — uniform **symmetric** (Eq. 1) and **asymmetric**
//!   (Eq. 2) quantizers with min/max calibration;
//! * [`calibrate`] — multi-batch PTQ calibration producing per-layer
//!   activation parameters (scale, zero-point) and recording the quantized
//!   histograms that drive DBS;
//! * [`zpm`] — **zero-point manipulation** (Eq. 7): snap the zero-point to
//!   the centre of a high-order-slice skip range to maximize slice sparsity;
//! * [`dbs`] — **distribution-based bit-slicing**: classify each layer's
//!   quantized distribution into three types by `std × z` and pick the LO
//!   slice width (4/5/6 bits);
//! * [`optq`] — the OPTQ (GPTQ) weight quantization algorithm with a real
//!   Hessian from calibration activations, used for 4-bit weights and for
//!   the Llama models (Fig. 17/19);
//! * [`integer`] — the integer GEMM identity with asymmetric activations
//!   (Eq. 3): folding `zp·W·1` into the bias so inference adds no overhead;
//! * [`requant`] — requantization of `i32` accumulators into the next
//!   layer's 8-bit activation format.
//!
//! # Examples
//!
//! ```
//! use panacea_quant::{AsymmetricQuantizer, Quantizer, SymmetricQuantizer};
//!
//! let data = [0.5f32, 1.5, 2.5, 3.0];
//! let asym = AsymmetricQuantizer::calibrate(&data, 8);
//! let sym = SymmetricQuantizer::calibrate(&data, 8);
//! // Asymmetric quantization uses the full unsigned range and therefore
//! // reconstructs a one-sided distribution with less error.
//! let e_asym: f32 = data.iter().map(|&x| (x - asym.dequantize(asym.quantize(x))).abs()).sum();
//! let e_sym: f32 = data.iter().map(|&x| (x - sym.dequantize(sym.quantize(x))).abs()).sum();
//! assert!(e_asym <= e_sym);
//! ```

pub mod calibrate;
pub mod dbs;
pub mod integer;
pub mod optq;
pub mod quantizer;
pub mod requant;
pub mod zpm;

pub use calibrate::{ActivationCalibrator, LayerQuantConfig};
pub use dbs::{DbsConfig, DbsType};
pub use quantizer::{AsymmetricQuantizer, QuantError, QuantParams, Quantizer, SymmetricQuantizer};
pub use zpm::ZpmResult;
