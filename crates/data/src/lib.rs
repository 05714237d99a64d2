//! Synthetic dataset stand-ins and the teacher-agreement evaluation.
//!
//! The paper evaluates on CIFAR-10, STL-10 and ImageNet with pre-trained
//! weights from Hubara et al. Neither the datasets nor the training runs
//! are available here, so accuracy is *substituted* (see DESIGN.md §1):
//!
//! * [`datasets`] generates deterministic synthetic images with the same
//!   shapes as the paper's datasets (low-frequency structure + noise, so
//!   convolutions see realistic spatial correlation rather than white
//!   noise);
//! * [`eval`] measures **top-1 agreement with a high-precision teacher**:
//!   the teacher is the same network with 8-bit activations, the students
//!   are the 2-bit (ours) and 1-bit (FINN-style) variants sharing the same
//!   weights. The paper's claim "multi-bit activations have superior
//!   accuracy" (§IV-B3, Table IVa) becomes the testable ordering
//!   `agreement(2-bit) > agreement(1-bit)` on the identical inference
//!   datapath.

#![forbid(unsafe_code)]

pub mod datasets;
pub mod eval;

pub use datasets::{Dataset, CIFAR10, IMAGENET, STL10, STL10_144};
pub use eval::{agreement, per_class_histogram, top_k_agreement};
