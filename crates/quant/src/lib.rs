//! Quantization arithmetic for the streaming QNN architecture.
//!
//! Implements the numeric core of Baskin et al.:
//!
//! * **1-bit weights** via the `Sign` transform (bit 1 ⇔ +1, bit 0 ⇔ −1),
//!   with element-wise multiply–accumulate replaced by **XNOR-popcount**
//!   (paper §III-B1).
//! * **n-bit uniform activations** (the paper uses n = 2): the activation
//!   value *is* its integer code `q ∈ {0, …, 2ⁿ−1}`; affine scale/offset is
//!   absorbed into the next layer's batch-normalization thresholds, exactly
//!   as in FINN and its multi-bit extension (paper §III-B3).
//! * **Threshold-form BatchNorm + activation**: BatchNorm followed by n-bit
//!   quantization collapses into `2ⁿ−1` precomputed integer thresholds and a
//!   binary search — two stored parameters (τ and d/(γ·i)) per neuron.
//! * **Bit-plane dot products** for multi-bit activations: a 2-bit activation
//!   splits into two binary planes with weights 1 and 2, each handled by an
//!   AND-popcount against the weight bits.
//!
//! Every fast path here has a slow, obviously-correct reference counterpart
//! and a test (or property test) proving equality.

#![forbid(unsafe_code)]

pub mod attention;
pub mod batchnorm;
pub mod dot;
pub mod gemm;
pub mod planes;
pub mod ring;
pub mod threshold;

pub use attention::{
    dot_codes_pair, head_attention, isqrt, layernorm_codes, weighted_average, SoftmaxLadder,
    SOFTMAX_WEIGHT_BITS,
};
pub use batchnorm::BnParams;
pub use dot::{dot_codes, dot_i8, dot_planes, dot_pm1};
pub use gemm::{
    conv_accumulate_all, conv_accumulate_all_i8, conv_accumulate_all_reference,
    conv_accumulate_i8_lanes, I8Masks,
};
pub use planes::ActPlanes;
pub use ring::PlaneRing;
pub use threshold::{QuantSpec, ThresholdBank, ThresholdUnit};
