//! The `Progress` contract, enforced by a debug-mode check after every
//! tick (see `check_progress_contract` in `graph.rs`):
//!
//! * a tick returning `Idle` must not have read or written any port;
//! * a `WakeHint::Parkable` kernel returning `Stalled` must not have
//!   touched a port either (the stepper parks it and replays the verdict
//!   without re-running the tick). A `DenseOracle`-wrapped kernel is never
//!   parkable, so only the first clause applies under the oracle.
//!
//! Violations would make ready-list parking unsound — a "skipped" tick
//! would have had observable effects — so they abort loudly in debug
//! builds, where the entire tier-1 suite runs.

use dfe_platform::{
    DenseOracle, Graph, HostSink, HostSource, Io, Kernel, Progress, StreamSpec, WakeHint,
};
use qnn_testkit::{prop_assert_eq, props};

/// Consumes an element and then claims it did nothing — an accounting lie
/// the debug check must catch.
struct IdleLiar;
impl Kernel for IdleLiar {
    fn name(&self) -> &str {
        "idle-liar"
    }
    fn rearm(&mut self) {}
    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        let _ = io.read(0);
        Progress::Idle
    }
}

/// Declares itself parkable but stages a write on a "stalled" tick,
/// breaking the fixed-point contract.
struct ParkableStallLiar;
impl Kernel for ParkableStallLiar {
    fn name(&self) -> &str {
        "stall-liar"
    }
    fn rearm(&mut self) {}
    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        if io.can_write(0) {
            io.write(0, 1);
        }
        Progress::Stalled
    }
    fn wake_hint(&self) -> WakeHint {
        WakeHint::Parkable
    }
}

/// Drive `kernel` between a source and a sink; with `dense`, every kernel
/// under a `DenseOracle`.
fn drive(kernel: Box<dyn Kernel>, dense: bool) {
    let mut g = Graph::new();
    let a = g.add_stream(StreamSpec::new("a", 8, 4));
    let b = g.add_stream(StreamSpec::new("b", 8, 4));
    g.add_kernel(Box::new(HostSource::new("src", vec![1, 2, 3])), &[], &[a]);
    g.add_kernel(kernel, &[a], &[b]);
    let (sink, _h) = HostSink::new("dst", 3);
    g.add_kernel(Box::new(sink), &[b], &[]);
    if dense {
        g.map_kernels(|_, k| DenseOracle::wrap(k));
    }
    // Liars never complete the pipeline; any termination path is fine —
    // the point is whether the contract check fires first.
    let _ = g.run_opts(100, false);
}

#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "contract check compiles out in release"
)]
#[should_panic(expected = "returned Idle after touching a port")]
fn idle_after_read_is_caught_dense() {
    drive(Box::new(IdleLiar), true);
}

#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "contract check compiles out in release"
)]
#[should_panic(expected = "returned Idle after touching a port")]
fn idle_after_read_is_caught_ready_list() {
    drive(Box::new(IdleLiar), false);
}

#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "contract check compiles out in release"
)]
#[should_panic(expected = "Parkable fixed-point contract")]
fn parkable_stall_after_write_is_caught() {
    drive(Box::new(ParkableStallLiar), false);
}

/// An honest parkable stage for the positive property below.
struct Affine {
    mul: i32,
    add: i32,
}
impl Kernel for Affine {
    fn name(&self) -> &str {
        "affine"
    }
    fn rearm(&mut self) {}
    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        if io.can_read(0) && io.can_write(0) {
            let v = io.read(0).expect("checked");
            io.write(0, v * self.mul + self.add);
            Progress::Busy
        } else if io.can_read(0) {
            Progress::Stalled
        } else {
            Progress::Idle
        }
    }
    fn wake_hint(&self) -> WakeHint {
        WakeHint::Parkable
    }
}

props! {
    /// Honest pipelines sail through the contract check with and without
    /// the dense oracle and agree bit-for-bit — the positive side of the property: the check
    /// admits every lawful kernel, including ones that stall and idle
    /// under tight FIFOs.
    #[test]
    fn lawful_pipelines_pass_the_contract_in_both_modes(
        n in 1usize..60,
        stages in 1usize..8,
        fifo in 1usize..6,
        mul in 1i32..5,
    ) {
        let run_mode = |dense: bool| {
            let mut g = Graph::new();
            let mut prev = g.add_stream(StreamSpec::new("s0", 8, fifo));
            g.add_kernel(
                Box::new(HostSource::new("src", (0..n as i32).collect())),
                &[],
                &[prev],
            );
            for i in 0..stages {
                let next = g.add_stream(StreamSpec::new(format!("s{}", i + 1), 8, fifo));
                g.add_kernel(Box::new(Affine { mul, add: i as i32 }), &[prev], &[next]);
                prev = next;
            }
            let (sink, handle) = HostSink::new("dst", n);
            g.add_kernel(Box::new(sink), &[prev], &[]);
            if dense {
                g.map_kernels(|_, k| DenseOracle::wrap(k));
            }
            let report = g.run(1_000_000).expect("lawful pipeline completes");
            (handle.take(), report)
        };
        prop_assert_eq!(run_mode(true), run_mode(false));
    }
}
