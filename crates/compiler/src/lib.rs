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
//! every cut against the MaxRing bandwidth budget. [`try_compile`] then builds
//! one [`dfe_platform::Graph`] whatever the placement: a device is a tag on
//! each kernel and stream, a cut is an ordinary stream, and a run's report
//! is split per device by tag ([`SimResult::reports`]) — so a cut network
//! computes, clocks and bursts exactly like the uncut one.

#![forbid(unsafe_code)]

pub mod dse;
pub mod lower;
pub mod partition;
pub mod replicate;
pub mod run;

pub use dse::{explore, DesignPoint, Frontier, ResourceBudget};
pub use hw_model::{Fold, FoldPlan};
pub use lower::{elaborate, try_compile, CompileOptions, CompiledNetwork, OptionsError};
pub use partition::{partition, Partition, PartitionError};
pub use replicate::{ModelArtifact, SpecMismatch};
pub use run::{run_image, run_images, Logits, SimError, SimResult};
