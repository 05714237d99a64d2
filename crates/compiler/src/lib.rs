//! Compiles a `qnn-nn` network into a DFE dataflow graph.
//!
//! The compiler mirrors the paper's Manager: "each layer is represented in
//! the DFE Manager by a single function call" (§III-B). Lowering walks the
//! validated spec and instantiates the streaming kernels of `qnn-kernels`,
//! wiring them with bounded streams; residual blocks become the Fig. 2
//! subgraph (split → conv → conv → adder → split → threshold) with a deep
//! skip-buffer FIFO absorbing the convolution path's delay.
//!
//! [`partition()`] places stages onto one or more DFEs (greedy, contiguous,
//! first-fit against the device's usable resources — §III-B6) and verifies
//! every cut against the MaxRing bandwidth budget. [`compile`] then builds
//! one [`dfe_platform::Graph`] per device, inserting channel-backed ring
//! hops at the cuts, so the same network runs on one device under the cycle
//! scheduler or across devices under the lockstep executor — with
//! bit-identical results.

#![forbid(unsafe_code)]

pub mod dse;
pub mod lower;
pub mod partition;
pub mod replicate;
pub mod run;

pub use dse::{explore, DesignPoint, DseConfig, Frontier, ResourceBudget};
pub use hw_model::{Fold, FoldPlan};
pub use lower::{
    compile, elaborate, try_compile, validate_options, CompileOptions, CompiledNetwork,
    OptionsError,
};
pub use partition::{partition, partition_balanced, Partition, PartitionError};
pub use replicate::{ArtifactCache, ModelArtifact, SpecMismatch};
pub use run::{run_image, run_images, Logits, SimResult};
