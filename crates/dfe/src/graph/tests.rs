use super::*;
use crate::host::{HostSink, HostSource};
use crate::kernel::Progress;
use crate::DenseOracle;

/// A pass-through kernel that adds a constant, one element per cycle.
/// Port-inert whenever it is not `Busy`, so it parks.
struct AddConst {
    c: i32,
}
impl Kernel for AddConst {
    fn name(&self) -> &str {
        "add-const"
    }
    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        if io.can_read(0) && io.can_write(0) {
            let v = io.read(0).expect("checked");
            io.write(0, v + self.c);
            Progress::Busy
        } else if io.can_read(0) || io.num_inputs() == 0 {
            Progress::Stalled
        } else {
            Progress::Idle
        }
    }
    fn rearm(&mut self) {}
    fn wake_hint(&self) -> WakeHint {
        WakeHint::Parkable
    }
}

fn pipeline(data: Vec<i32>, stages: usize) -> (Graph, crate::host::SinkHandle) {
    let n = data.len();
    let mut g = Graph::new();
    let mut prev = g.add_stream(StreamSpec::new("s0", 8, 4));
    g.add_kernel(Box::new(HostSource::new("src", data)), &[], &[prev]);
    for i in 0..stages {
        let next = g.add_stream(StreamSpec::new(format!("s{}", i + 1), 8, 4));
        g.add_kernel(Box::new(AddConst { c: 1 }), &[prev], &[next]);
        prev = next;
    }
    let (sink, handle) = HostSink::new("dst", n);
    g.add_kernel(Box::new(sink), &[prev], &[]);
    (g, handle)
}

#[test]
fn pipeline_computes_and_counts_cycles() {
    let (mut g, handle) = pipeline(vec![10, 20, 30], 2);
    let report = g.run(1000).expect("run ok");
    assert_eq!(handle.take(), vec![12, 22, 32]);
    // 3 elements through a 4-stage pipeline (src + 2 adders + sink):
    // latency ≈ depth + n; must be far below the serial bound yet > n.
    assert!(
        report.cycles >= 5 && report.cycles <= 20,
        "cycles = {}",
        report.cycles
    );
}

#[test]
fn registered_outputs_cost_one_cycle_per_stage() {
    // A single element through k stages must take ≥ k+1 cycles.
    let (mut g, _h) = pipeline(vec![1], 5);
    let report = g.run(100).expect("run ok");
    assert!(
        report.cycles >= 6,
        "combinational ripple detected: {}",
        report.cycles
    );
}

#[test]
fn throughput_is_one_element_per_cycle() {
    let n = 100;
    let (mut g, handle) = pipeline((0..n).collect(), 1);
    let report = g.run(10_000).expect("run ok");
    assert_eq!(handle.take().len(), n as usize);
    // Fully pipelined: cycles ≈ n + small latency.
    assert!(report.cycles < n as u64 + 10, "cycles = {}", report.cycles);
}

#[test]
fn unconnected_stream_is_invalid() {
    let mut g = Graph::new();
    let s = g.add_stream(StreamSpec::new("dangling", 2, 4));
    g.add_kernel(Box::new(HostSource::new("src", vec![1])), &[], &[s]);
    match g.run(10) {
        Err(RunError::Invalid(msg)) => assert!(msg.contains("no reader")),
        other => panic!("expected Invalid, got {other:?}"),
    }
}

#[test]
fn starved_sink_deadlocks_with_diagnostics() {
    // Sink expects 2 elements but the source provides 1.
    let mut g = Graph::new();
    let s = g.add_stream(StreamSpec::new("s", 8, 4));
    g.add_kernel(Box::new(HostSource::new("src", vec![7])), &[], &[s]);
    let (sink, _h) = HostSink::new("dst", 2);
    g.add_kernel(Box::new(sink), &[s], &[]);
    match g.run(1000) {
        Err(RunError::Deadlock { diagnostics, .. }) => {
            assert!(diagnostics.contains("'s'"));
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn timeout_is_reported() {
    let (mut g, _h) = pipeline(vec![1, 2, 3], 2);
    match g.run(2) {
        Err(RunError::Timeout { max_cycles: 2 }) => {}
        other => panic!("expected timeout, got {other:?}"),
    }
}

#[test]
fn stats_account_busy_and_stalls() {
    let (mut g, _h) = pipeline((0..10).collect(), 1);
    let report = g.run(1000).expect("run ok");
    let adder = &report.kernels[1];
    assert_eq!(adder.name, "add-const");
    assert_eq!(adder.busy, 10, "one busy cycle per element");
    let src_stream = &report.streams[0];
    assert_eq!(src_stream.pushed, 10);
    assert!(src_stream.max_occupancy <= src_stream.capacity);
}

#[test]
fn ready_list_matches_dense_on_pipeline() {
    let run_mode = |dense: bool| {
        let (mut g, handle) = pipeline((0..25).collect(), 3);
        if dense {
            g.map_kernels(|_, k| DenseOracle::wrap(k));
        }
        let report = g.run(10_000).expect("run ok");
        (handle.take(), report)
    };
    assert_eq!(run_mode(true), run_mode(false));
}

/// The pop-wake edge for a writer *after* its reader in node order: a
/// pipeline added sink-first, so every reader precedes its writer. A
/// sink reading every other cycle keeps 2-deep FIFOs full and the
/// parked writers are woken by pops in the tick phase — mid-cycle,
/// ticked the same cycle, and owed one stall fewer than a writer woken
/// from behind. The timer-driven sink vetoes every burst, so the run
/// is stepped per element.
#[test]
fn reversed_pipeline_wakes_later_writers_at_the_dense_instant() {
    let run_mode = |dense: bool| {
        let mut g = Graph::new();
        let s: Vec<StreamId> = (0..4)
            .map(|i| g.add_stream(StreamSpec::new(format!("s{i}"), 8, 2)))
            .collect();
        let sink = LazySink {
            wait: 0,
            gap: 1,
            expect: 30,
            got: 0,
        };
        g.add_kernel(Box::new(sink), &[s[3]], &[]);
        for i in (0..3).rev() {
            g.add_kernel(Box::new(AddConst { c: 1 }), &[s[i]], &[s[i + 1]]);
        }
        g.add_kernel(Box::new(HostSource::new("src", (0..30).collect())), &[], &[s[0]]);
        if dense {
            g.map_kernels(|_, k| DenseOracle::wrap(k));
        }
        // The sink's idle ticks are whole cycles without progress.
        g.run_opts(10_000, false).expect("run ok")
    };
    let dense = run_mode(true);
    assert!(
        dense.kernels[1..].iter().all(|k| k.stalled > 0),
        "every writer must stall on the half-rate sink: {dense:?}"
    );
    assert_eq!(run_mode(false), dense);
}

/// A sink that ignores its input for `wait` cycles, then drains one
/// element per cycle, idling `gap` cycles after each. The idle-wait is
/// a timer (internal state advances with no port activity), so it
/// correctly keeps the default `WakeHint::AlwaysTick` — parking it
/// would sleep forever.
struct LazySink {
    wait: u64,
    gap: u64,
    expect: usize,
    got: usize,
}
impl Kernel for LazySink {
    fn name(&self) -> &str {
        "lazy-dst"
    }
    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        if self.wait > 0 {
            self.wait -= 1;
            return Progress::Idle;
        }
        if self.got >= self.expect {
            return Progress::Idle;
        }
        match io.read(0) {
            Some(_) => {
                self.got += 1;
                self.wait = self.gap;
                Progress::Busy
            }
            None => Progress::Stalled,
        }
    }
    fn is_done(&self) -> bool {
        self.got >= self.expect
    }
    fn rearm(&mut self) {
        unreachable!("built per run")
    }
}

/// Regression for `max_occupancy` accounting (sampled after commit):
/// a two-kernel graph whose FIFO fills to capacity while the sink is
/// lazy must pin identical occupancy stats stepped densely and not.
#[test]
fn full_fifo_occupancy_stats_pinned_in_both_modes() {
    let run_mode = |dense: bool| {
        let mut g = Graph::new();
        let s = g.add_stream(StreamSpec::new("s", 8, 2));
        g.add_kernel(
            Box::new(HostSource::new("src", (1..=6).collect())),
            &[],
            &[s],
        );
        g.add_kernel(
            Box::new(LazySink {
                wait: 5,
                gap: 0,
                expect: 6,
                got: 0,
            }),
            &[s],
            &[],
        );
        if dense {
            g.map_kernels(|_, k| DenseOracle::wrap(k));
        }
        // The lazy phase has legitimate full no-progress cycles, so
        // deadlock detection is off (identically in both modes).
        g.run_opts(1000, false).expect("run ok")
    };
    let dense = run_mode(true);
    let ready = run_mode(false);
    assert_eq!(dense, ready, "reports must be bit-identical");
    let s = &dense.streams[0];
    assert_eq!(
        s.max_occupancy, 2,
        "FIFO must fill to capacity during the lazy phase"
    );
    assert_eq!(s.pushed, 6, "every element crosses the stream exactly once");
    assert!(
        dense.kernels[0].stalled > 0,
        "source must stall on the full FIFO"
    );
}

/// Parking must actually happen (otherwise the default stepper's ready
/// list is a silent no-op and its benchmark claims are vacuous).
#[test]
fn exhausted_source_parks_idle_under_ready_list() {
    let (mut g, _h) = pipeline(vec![1, 2, 3], 2);
    g.run(1000).expect("run ok");
    assert_eq!(
        g.parked_state(KernelId(0)),
        Some(Progress::Idle),
        "drained source should end the run parked"
    );
}

/// Per-kernel host time: one entry per node, named as the report names
/// them, within the dispatch and replay time it splits — on a run that
/// plans its spans, one that records them and one that replays them,
/// every span long enough to be timed — and back to zero on a re-arm.
#[test]
fn kernel_host_time_splits_dispatch_and_replay() {
    use crate::replay::WholeBatch;
    let n = 4 * Graph::KERNEL_TIMED_SPAN as usize;
    let mut g = Graph::new();
    let s = g.add_stream(StreamSpec::new("s", 8, 64));
    let (src, feed) = HostSource::new("src", Vec::new()).refillable();
    g.add_kernel(Box::new(src), &[], &[s]);
    let (sink, out) = HostSink::new("dst", 0);
    g.add_kernel(Box::new(sink), &[s], &[]);
    g.set_replay_marker(s, n as u64);
    let mut kinds = Vec::new();
    for _ in 0..3 {
        feed.refill((0..n as i32).collect());
        out.set_expected(n);
        g.rearm(1);
        assert!(g.kernel_host_ns().iter().all(|&(_, ns)| ns == 0), "a re-arm resets");
        let report = g.run(10 * n as u64).expect("run ok");
        assert_eq!(out.take().len(), n);
        let per_kernel = g.kernel_host_ns();
        let names: Vec<&str> = per_kernel.iter().map(|&(name, _)| name).collect();
        let reported: Vec<&str> = report.kernels.iter().map(|k| k.name.as_str()).collect();
        assert_eq!(names, reported, "one entry per node, in node order");
        let (sum, p) = (per_kernel.iter().map(|&(_, ns)| ns).sum::<u64>(), g.host_profile());
        assert!(sum > 0, "no kernel time recorded");
        assert!(sum <= p.dispatch_ns + p.replay_ns, "{sum} ns > {p}");
        kinds.push(report.replay.whole_batch);
    }
    assert_eq!(kinds, [WholeBatch::Off, WholeBatch::Recorded, WholeBatch::Replayed]);
}
