//! Scheduler tier selection for the cycle simulator.
//!
//! The simulated machine has one execution semantics — clocked kernels
//! exchanging elements over bounded streams. The graph executor offers four
//! host-side ways of stepping it, each a fast-forward of the tier below, all
//! producing **bit-identical** outputs and
//! [`CycleReport`](crate::CycleReport)s (see DESIGN.md §6 "Scheduler tiers"
//! for the table of batteries that hold each tier equal to `Dense`):
//!
//! * [`SchedulerMode::Dense`] — the reference stepper and the oracle every
//!   battery compares against: every kernel is ticked on every cycle, in
//!   node order. O(kernels) work per cycle even when the pipeline is mostly
//!   drained or starved.
//! * [`SchedulerMode::ReadyList`] — the event-driven stepper: a kernel
//!   that reported [`Stalled`](crate::Progress::Stalled) or
//!   [`Idle`](crate::Progress::Idle) and whose
//!   [`wake_hint`](crate::Kernel::wake_hint) is
//!   [`Parkable`](crate::kernel::WakeHint::Parkable) is *parked* and not
//!   ticked again until one of its streams sees an event (an input gains
//!   an element at commit, or an output gains free space when its reader
//!   pops). While parked, the kernel's last verdict is replayed into the
//!   busy/stall counters, so reports match the dense stepper exactly.
//! * [`SchedulerMode::Span`] — ready-list stepping plus macro-tick span
//!   dispatch: in self-stepped, untraced runs, whole uniform spans of
//!   cycles are replayed in one dispatch per kernel.
//! * [`SchedulerMode::Replay`] — span dispatch plus steady-state schedule
//!   replay on a graph armed with a replay marker (see [`crate::replay`]).
//!
//! The tier is a plain value: [`SchedulerMode::default`] is the constant
//! [`SchedulerMode::Replay`], and a call site that wants another tier sets
//! it with [`Graph::set_scheduler`](crate::Graph::set_scheduler) or the
//! compiler's `CompileOptions::scheduler`.

/// Which cycle-stepping tier a [`Graph`](crate::Graph) uses. Totally
/// ordered: each tier adds one fast-forward mechanism to the tier below.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SchedulerMode {
    /// Tick every kernel every cycle (the reference stepper).
    Dense,
    /// Skip parked kernels until a stream event wakes them.
    ReadyList,
    /// `ReadyList`, dispatching uniform spans of cycles as single bursts.
    Span,
    /// `Span`, replaying a recorded steady-state schedule per image.
    #[default]
    Replay,
}

impl SchedulerMode {
    /// Every tier, slowest (the `Dense` oracle) first.
    pub const ALL: [Self; 4] = [Self::Dense, Self::ReadyList, Self::Span, Self::Replay];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_are_strictly_increasing_and_default_is_the_top() {
        assert!(SchedulerMode::ALL.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(Some(&SchedulerMode::default()), SchedulerMode::ALL.last());
    }
}
