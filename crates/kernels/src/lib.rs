//! Streaming QNN kernels for the DFE platform — the paper's §III
//! architecture, kernel by kernel.
//!
//! Every NN layer becomes a clocked dataflow kernel:
//!
//! * [`PadInserter`] — stops the real input and feeds border padding values
//!   into the stream (§III-B1: "inputs padding values into the buffer
//!   instead"; value 0 = the lowest code, the analogue of −1 padding).
//! * [`ConvKernel`] — the halt-and-compute convolution of Fig. 3: a
//!   shift-register window buffer sized `I·(W·(K−1)+K)` (depth-first scan,
//!   Fig. 4a), an XNOR-popcount datapath over the weight cache, one output
//!   pixel per clock while the input is halted, and optional fused
//!   BatchNorm+activation thresholds on the way out.
//! * [`PoolKernel`] — §III-B2 pooling: parameter-free, and output can be
//!   produced in the same clock cycle an input is consumed (no halt).
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

pub use attention::{AttentionHeadKernel, ConcatKernel, HeadSplitKernel, LayerNormKernel};
pub use conv::{ConvKernel, DotMode};
pub use loader::{encode_conv_params, ParamLoader};
pub use elemwise::{AddKernel, SplitKernel, ThresholdKernel};
pub use pad::PadInserter;
pub use pool::{PoolKernel, PoolOp};

/// Write `vals` into the scalar window ring `ring` at consecutive slots
/// from `at` on, wrapping at the end — `ring[(at + j) % len] = vals[j]`
/// as block copies (a run longer than the ring overwrites its own head).
pub(crate) fn ring_write(ring: &mut [i32], mut at: usize, mut vals: &[i32]) {
    while !vals.is_empty() {
        let (run, rest) = vals.split_at((ring.len() - at).min(vals.len()));
        ring[at..at + run.len()].copy_from_slice(run);
        vals = rest;
        at = 0;
    }
}
