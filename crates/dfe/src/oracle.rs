//! The dense-stepping oracle — a test instrument for the stepper.

use crate::kernel::{Io, Kernel, Progress};

/// Wraps a kernel so the graph's one stepper ticks it densely: on every
/// cycle, in node order, never in a burst.
///
/// It forwards only the kernel's clocked behaviour (`name`, `tick`,
/// `rearm`, `is_done`, `lanes`) and keeps every other [`Kernel`] default,
/// and those defaults are what make stepping dense:
/// [`WakeHint::AlwaysTick`](crate::WakeHint::AlwaysTick) never parks it, a
/// `None` [`span_hint`](Kernel::span_hint) refuses every burst it would
/// join, and a `None` [`replay_token`](Kernel::replay_token) keeps period
/// replay and whole-batch tapes off. A graph whose every kernel is wrapped
/// is the reference the batteries hold default stepping against, bit for
/// bit in outputs and [`CycleReport`](crate::CycleReport)s. Tests lace it
/// in with [`Graph::map_kernels`](crate::Graph::map_kernels), which keeps
/// deadlock detection on. A wrapped kernel is never `Parkable`, so the
/// `Parkable` clause of the debug `Progress` contract check cannot fire on
/// it; the `Idle` clause still does.
pub struct DenseOracle(Box<dyn Kernel>);

impl DenseOracle {
    /// Boxed wrapper, in the shape `Graph::map_kernels` and
    /// `Graph::add_kernel` take.
    pub fn wrap(inner: Box<dyn Kernel>) -> Box<dyn Kernel> {
        Box::new(Self(inner))
    }
}

impl Kernel for DenseOracle {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        self.0.tick(io)
    }

    fn rearm(&mut self) {
        self.0.rearm();
    }

    fn is_done(&self) -> bool {
        self.0.is_done()
    }

    fn lanes(&self) -> (u16, u16) {
        self.0.lanes()
    }
}
