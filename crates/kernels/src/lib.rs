//! Streaming QNN kernels for the DFE platform — the paper's §III
//! architecture, kernel by kernel.
//!
//! Every NN layer becomes a clocked dataflow kernel:
//!
//! * [`PadInserter`] — stops the real input and feeds border padding values
//!   into the stream (§III-B1: "inputs padding values into the buffer
//!   instead"; value 0 = the lowest code, the analogue of −1 padding).
//! * [`ConvKernel`] — the halt-and-compute convolution of Fig. 3: an
//!   XNOR-popcount datapath over the weight cache, one output pixel per
//!   clock while the input is halted, and optional fused
//!   BatchNorm+activation thresholds on the way out.
//! * [`PoolKernel`] — §III-B2 pooling: parameter-free, and output can be
//!   produced in the same clock cycle an input is consumed (no halt).
//!
//! The two slide one window through one buffer: a shared window cursor
//! holds the `I·(W·(K−1)+K)`-element depth-first ring (Fig. 4a), reads up
//! to the next [`qnn_tensor::Window`] position's completing element, and
//! hands each complete window to its kernel — which the convolution latches
//! and emits from the next tick, and the pool folds in the same tick.
//! * [`ThresholdKernel`] — standalone fused BN + n-bit activation for the
//!   post-adder position in residual blocks.
//! * [`AddKernel`] / [`SplitKernel`] — the skip-connection adder and the
//!   two-way split of Fig. 2; the skip *buffer* is simply a deep stream
//!   FIFO, whose measured high-water mark the tests compare against the
//!   paper's "exactly one convolution buffer" claim.
//!
//! All kernels exchange scalar elements in depth-first order, so a layer's
//! output stream is directly the next layer's input stream — "we can treat
//! other layers as a black box that receives or provides pixels" (§III-B).

#![forbid(unsafe_code)]

pub mod attention;
pub mod conv;
pub mod elemwise;
pub mod loader;
pub mod pad;
pub mod pool;
mod window;

pub use attention::{AttentionHeadKernel, ConcatKernel, HeadSplitKernel, LayerNormKernel};
pub use conv::{ConvKernel, DotMode};
pub use elemwise::{AddKernel, SplitKernel, ThresholdKernel};
pub use loader::{encode_conv_params, ParamLoader};
pub use pad::PadInserter;
pub use pool::{PoolKernel, PoolOp};
