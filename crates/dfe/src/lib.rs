//! A cycle-approximate dataflow-engine (DFE) platform simulator — the
//! Maxeler MAX4 substitute used by this reproduction.
//!
//! The real platform runs MaxJ kernels on a Stratix V FPGA, connected by
//! on-chip streams, with multiple DFEs daisy-chained over MaxRing links.
//! This crate reproduces the *architectural* behaviour the paper's claims
//! rest on:
//!
//! * **Streams** are bounded FIFOs carrying one element per clock cycle.
//!   An element is one channel value of one pixel (depth-first order); the
//!   paper's own bandwidth arithmetic ("each pixel is represented by 2
//!   bits … 210 Mbps at 105 MHz", §III-B6) confirms this scalar
//!   channel-serial framing.
//! * **Kernels** are clocked state machines: each `tick` they may consume
//!   at most one element per input port and produce at most one element per
//!   output port, with writes becoming visible the *next* cycle (registered
//!   outputs). Backpressure is structural: a kernel cannot write into a
//!   full stream and therefore halts, exactly like the paper's
//!   halt-the-input convolution kernel.
//! * **The cycle scheduler** advances the graph one clock at a time and
//!   reports cycle counts, per-kernel busy/stall statistics and stream
//!   occupancies. It detects deadlock (no progress while sinks are
//!   incomplete). Four stepping tiers exist — the dense reference
//!   stepper, an event-driven ready-list stepper that parks stalled/idle
//!   kernels until a stream event, span dispatch on top of it, and
//!   steady-state schedule replay on top of that — selected by the one
//!   ordered [`SchedulerMode`]; they are bit-identical in outputs and
//!   reports.
//! * **Devices and MaxRing links** carry resource budgets and bandwidth
//!   limits so the compiler can place kernels onto multiple DFEs and verify
//!   link feasibility. The simulator itself knows nothing of devices: a
//!   network cut across DFEs is one graph whose kernels the compiler tags
//!   by device, and a MaxRing hop is an ordinary stream.

#![forbid(unsafe_code)]

mod burst;
pub mod device;
pub mod diag;
pub mod graph;
pub mod host;
pub mod kernel;
pub mod replay;
pub mod ring;
pub mod sched;
pub mod stall;
pub mod stream;
pub mod threaded;
pub mod trace;

pub use device::{DeviceSpec, ResourceUsage, MAIA_FCLK_MHZ, STRATIX_10_GX2800, STRATIX_V_5SGSD8};
pub use diag::{BurstDiag, BurstEnd, Refusal};
pub use graph::{CycleReport, Graph, KernelId, RunError, StreamId};
pub use host::{HostSink, HostSource, SinkHandle, SourceHandle};
pub use kernel::{Io, Kernel, Progress, SpanIo, SpanPhase, SpanPlan, WakeHint, MAX_SPAN_PHASES};
pub use replay::ReplayDiag;
pub use ring::MaxRing;
pub use sched::SchedulerMode;
pub use stall::StallInjector;
pub use stream::StreamSpec;
pub use trace::Trace;
