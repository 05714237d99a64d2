//! Reference (non-streaming) QNN layers, the network IR, and the paper's
//! three model architectures.
//!
//! This crate defines *what* a network computes; `qnn-kernels` +
//! `qnn-compiler` define *how* the DFE computes the same thing as a
//! streaming pipeline. The integration tests assert the two agree bit for
//! bit.
//!
//! Numeric conventions (see `qnn-quant`):
//! * weights are ±1 (bit-packed),
//! * hidden activations are unsigned n-bit codes (`n = 2` in the paper),
//!   with all affine scaling folded into the next layer's thresholds,
//! * the first layer consumes signed 8-bit pixels streamed from the CPU,
//! * skip connections carry raw pre-activation accumulators (the paper's
//!   16-bit integers; we compute in `i32` and *model* the 16-bit width,
//!   asserting the values stay in `i16` range).

#![forbid(unsafe_code)]

pub mod init;
pub mod models;
pub mod network;
pub mod postprocess;
pub mod reference;
pub mod spec;
pub mod specgen;

pub use network::{EncoderFfn, EncoderParams, Network, StageParams};
pub use spec::{
    EncoderGeometry, NetworkSpec, PoolKind, ResidualGeometry, SpecBuilder, SpecError, Stage,
};
