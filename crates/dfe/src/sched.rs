//! Stepper selection for the cycle simulator.
//!
//! The simulated machine has one execution semantics — clocked kernels
//! exchanging elements over bounded streams. The graph executor offers two
//! host-side ways of stepping it, producing **bit-identical** outputs and
//! [`CycleReport`](crate::CycleReport)s (see DESIGN.md §6 "Steppers"):
//!
//! * [`SchedulerMode::Dense`] — the reference stepper and the oracle every
//!   battery compares against: every kernel is ticked on every cycle, in
//!   node order. O(kernels) work per cycle even when the pipeline is mostly
//!   drained or starved.
//! * [`SchedulerMode::Replay`] — the default, event-driven stepper. A
//!   kernel that reported [`Stalled`](crate::Progress::Stalled) or
//!   [`Idle`](crate::Progress::Idle) and whose
//!   [`wake_hint`](crate::Kernel::wake_hint) is
//!   [`Parkable`](crate::kernel::WakeHint::Parkable) is *parked* and not
//!   ticked again until one of its streams sees an event; its last verdict
//!   is replayed into the busy/stall counters. In untraced runs, whole
//!   uniform spans of cycles are dispatched as one burst per kernel (see
//!   DESIGN.md §9), and a graph armed with a replay marker replays its
//!   recorded steady-state schedule per image (see [`crate::replay`]).
//!
//! The stepper is chosen once, when the graph is built
//! ([`Graph::with_scheduler`](crate::Graph::with_scheduler) or the
//! compiler's `CompileOptions::scheduler`).

/// Which stepper a [`Graph`](crate::Graph) uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SchedulerMode {
    /// Tick every kernel every cycle (the reference stepper).
    Dense,
    /// Park/wake stepping with span bursts and steady-state replay.
    #[default]
    Replay,
}
