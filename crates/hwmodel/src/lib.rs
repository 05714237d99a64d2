//! Analytic hardware models for the streaming QNN architecture.
//!
//! Three model families, all consuming the validated `qnn-nn` network IR:
//!
//! * [`resources`] — per-stage LUT/FF/BRAM estimates for the DFE design,
//!   built from the paper's own arithmetic (window-buffer sizes, weight
//!   cache geometry with the depth-512 BRAM quantization waste of
//!   §III-B1a) plus infrastructure constants calibrated against the three
//!   resource totals the paper reports (Tables III and IV).
//! * [`cycles`] — the clock-cycle model behind §IV-B4's "1.85×10⁶ clocks
//!   per picture" estimate: per-layer busy cycles (stream-in + halt-and-
//!   compute), pipeline fill latency, and steady-state period. The cycle
//!   simulator in `dfe-platform` is the ground truth; tests keep this model
//!   within tolerance of it.
//! * [`gpu`] / [`power`] — the GPU baseline latency model (per-layer launch
//!   overhead + effective GEMM throughput, specs from Table IIa) and the
//!   power/energy models for Figures 7 and 8.
//!
//! The resource and cycle models take a per-layer [`FoldPlan`] (the
//! [`folding`] lane widths the DSE searches). The unfolded design is the
//! unit plan, not a second model: [`CycleModel::analyze`] and
//! [`estimate_network`] are [`CycleModel::analyze_folded`] and
//! [`estimate_network_folded`] at [`FoldPlan::new`].

#![forbid(unsafe_code)]

pub mod cycles;
pub mod folding;
pub mod gpu;
pub mod lmem;
pub mod pcie;
pub mod power;
pub mod resources;
pub mod skip;
pub mod specs;

pub use cycles::{CycleModel, LayerCycles};
pub use folding::{Fold, FoldPlan};
pub use gpu::{GpuModel, GpuSpec, GTX1080, P100};
pub use power::{dfe_power_watts, energy_joules, gpu_power_watts, PowerBreakdown};
pub use resources::{
    estimate_network, estimate_network_folded, estimate_stage_folded, NetworkResources,
    StageResources,
};
pub use skip::{skip_buffers, SkipBuffer};
pub use specs::FinnReference;
