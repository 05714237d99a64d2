//! Tensors and bit-packed quantized tensors for streaming QNN inference.
//!
//! The streaming architecture of Baskin et al. processes feature maps in
//! *depth-first* order (paper §III-B1b, Fig. 4): for each spatial position,
//! all channels are visited before advancing to the next pixel. Everything in
//! this crate is laid out to make that order the contiguous one:
//! [`Tensor3`] stores data as `H × W × C` with the channel index innermost,
//! so iterating the backing slice *is* the stream order seen by the DFE.
//!
//! Binary weights (1 bit per parameter, paper §III-B1a) are held in
//! [`BitVec`] / [`BinaryFilters`], packed 64 per machine word so that the
//! XNOR-popcount convolution in `qnn-quant` runs on whole words.

#![forbid(unsafe_code)]

pub mod bits;
pub mod shape;
pub mod tensor;

pub use bits::{BinaryFilters, BitVec};
pub use shape::{ConvGeometry, FilterShape, Shape3, Window};
pub use tensor::Tensor3;
