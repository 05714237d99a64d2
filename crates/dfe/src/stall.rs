//! Random stall injection — a test instrument for handshake correctness.
//!
//! [`StallInjector`] wraps any [`Kernel`] and, on a random subset of
//! cycles, withholds the tick entirely (returning [`Progress::Stalled`]
//! without touching the ports). To the rest of the graph this looks like
//! the wrapped kernel being flow-controlled by an invisible agent — the
//! clock-domain jitter, PCIe arbitration and MaxRing credit delays a real
//! DFE deployment exhibits. A kernel whose output depends only on the data
//! (as the clocked contract requires) must produce identical streams with
//! and without injection; the property suites assert exactly that.
//!
//! The injector embeds its own tiny splitmix64 generator rather than
//! depending on `qnn-testkit`, so the platform crate stays free of
//! dev-only dependencies and the stall pattern for a given seed is stable
//! no matter which harness drives the graph.
//!
//! Note on scheduling: the cycle scheduler's deadlock detector treats a
//! full no-progress cycle as fatal, and an injected stall can legitimately
//! produce one. Drive graphs containing injectors with
//! [`Graph::run_opts`](crate::Graph::run_opts) and deadlock detection
//! disabled (the timeout budget still bounds the run). Injectors are laced
//! into a hand-built graph at `add_kernel`, or into a built one with
//! [`Graph::map_kernels`](crate::Graph::map_kernels); a compiled network
//! takes them through its test-side hook `CompiledNetwork::wrap_kernels`,
//! which also turns its detection off. No compile option injects stalls.

use crate::kernel::{Io, Kernel, Progress, WakeHint};

/// Wraps a kernel and randomly suppresses its ticks. See the module docs.
pub struct StallInjector {
    inner: Box<dyn Kernel>,
    seed: u64,
    state: u64,
    stall_percent: u8,
    injected: u64,
}

impl StallInjector {
    /// Wrap `inner`, stalling it on ~`stall_percent`% of cycles with a
    /// pattern derived deterministically from `seed`.
    ///
    /// # Panics
    /// Panics when `stall_percent >= 100` — a kernel that never ticks
    /// cannot make progress and every run would time out.
    pub fn new(inner: Box<dyn Kernel>, seed: u64, stall_percent: u8) -> Self {
        assert!(
            stall_percent < 100,
            "stall_percent {stall_percent} leaves no progress cycles"
        );
        Self {
            inner,
            seed,
            state: seed,
            stall_percent,
            injected: 0,
        }
    }

    /// Boxed convenience for `Graph::add_kernel` call sites.
    pub fn wrap(inner: Box<dyn Kernel>, seed: u64, stall_percent: u8) -> Box<dyn Kernel> {
        Box::new(Self::new(inner, seed, stall_percent))
    }

    /// Stalls injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    fn next(&mut self) -> u64 {
        // splitmix64: one add + two xor-multiply mixes; full period in the
        // 64-bit state, so the stall pattern never cycles within a run.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl Kernel for StallInjector {
    /// Transparent in reports: the injected stalls are accounted to the
    /// wrapped kernel's name, where a flow-control stall would appear.
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        if self.stall_percent > 0 && self.next() % 100 < u64::from(self.stall_percent) {
            self.injected += 1;
            return Progress::Stalled;
        }
        self.inner.tick(io)
    }

    /// Restart the stall pattern from the seed, so a re-armed graph stalls
    /// on the same cycles a freshly built one would.
    fn rearm(&mut self) {
        self.state = self.seed;
        self.injected = 0;
        self.inner.rearm();
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    /// The wrapped kernel's stream-interface width: a folded kernel keeps
    /// its lanes under injection.
    fn lanes(&self) -> (u16, u16) {
        self.inner.lanes()
    }

    /// Never parkable, whatever the wrapped kernel says: the injector's RNG
    /// advances on every tick, so skipping ticks would shift the stall
    /// pattern and change cycle timing relative to dense stepping.
    fn wake_hint(&self) -> WakeHint {
        WakeHint::AlwaysTick
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::host::{HostSink, HostSource};
    use crate::stream::StreamSpec;

    /// Pass-through incrementer, one element per cycle.
    struct Inc;
    impl Kernel for Inc {
        fn name(&self) -> &str {
            "inc"
        }
        fn tick(&mut self, io: &mut Io<'_>) -> Progress {
            if io.can_read(0) && io.can_write(0) {
                let v = io.read(0).expect("checked");
                io.write(0, v + 1);
                Progress::Busy
            } else if io.can_read(0) {
                Progress::Stalled
            } else {
                Progress::Idle
            }
        }
        fn rearm(&mut self) {}
    }

    fn run_inc(stall: Option<(u64, u8)>) -> (Vec<i32>, u64) {
        let mut g = Graph::new();
        let a = g.add_stream(StreamSpec::new("a", 16, 4));
        let b = g.add_stream(StreamSpec::new("b", 16, 4));
        g.add_kernel(
            Box::new(HostSource::new("src", (0..50).collect())),
            &[],
            &[a],
        );
        let inc: Box<dyn Kernel> = Box::new(Inc);
        let inc = match stall {
            Some((seed, pct)) => StallInjector::wrap(inc, seed, pct),
            None => inc,
        };
        g.add_kernel(inc, &[a], &[b]);
        let (sink, h) = HostSink::new("dst", 50);
        g.add_kernel(Box::new(sink), &[b], &[]);
        let report = g.run_opts(100_000, false).expect("run");
        (h.take(), report.cycles)
    }

    #[test]
    fn injection_preserves_the_data_stream() {
        let (clean, clean_cycles) = run_inc(None);
        let (stalled, stalled_cycles) = run_inc(Some((7, 40)));
        assert_eq!(clean, stalled);
        assert!(
            stalled_cycles > clean_cycles,
            "40% injection did not slow the run ({clean_cycles} vs {stalled_cycles})"
        );
    }

    #[test]
    fn same_seed_gives_identical_timing() {
        assert_eq!(run_inc(Some((123, 30))), run_inc(Some((123, 30))));
    }

    #[test]
    fn different_seeds_give_different_timing() {
        let (_, a) = run_inc(Some((1, 30)));
        let (_, b) = run_inc(Some((2, 30)));
        assert_ne!(a, b, "cycle counts should differ across stall patterns");
    }

    #[test]
    fn zero_percent_injects_nothing() {
        let inj = StallInjector::new(Box::new(Inc), 5, 0);
        let (clean, clean_cycles) = run_inc(None);
        let (stalled, stalled_cycles) = run_inc(Some((5, 0)));
        assert_eq!((clean, clean_cycles), (stalled, stalled_cycles));
        assert_eq!(inj.injected(), 0);
        assert_eq!(inj.name(), "inc");
    }

    #[test]
    #[should_panic(expected = "no progress cycles")]
    fn full_stall_rate_is_rejected() {
        let _ = StallInjector::new(Box::new(Inc), 0, 100);
    }
}
