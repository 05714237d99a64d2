//! Multi-DFE execution: device graphs connected by bounded channels
//! standing in for MaxRing hops.
//!
//! [`run_devices`] is the **lockstep** executor over graphs joined by
//! [`link`] kernels: one global clock; every device is stepped exactly once
//! per edge, in device order. Cycle reports (including per-kernel
//! busy/stall tallies) are bit-identical across runs, which is what
//! regression gating and the paper's cycle-count claims need.
//!
//! It demonstrates the paper's scale-out claim: the same kernel graph, cut
//! at layer boundaries, runs across devices with results identical to the
//! single-device run.

use crate::graph::{CycleReport, Graph, RunError};
use crate::kernel::{Io, Kernel, Progress, WakeHint};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;

/// Create a channel-backed inter-device link of `capacity` elements,
/// returning the egress kernel (placed on the upstream device) and ingress
/// kernel (placed on the downstream device).
///
/// `std::sync::mpsc::sync_channel` is a bounded rendezvous-or-buffered
/// queue: `try_send` fails with `Full` once `capacity` elements are in
/// flight, which is exactly the MaxRing backpressure the egress kernel
/// translates into a pipeline stall.
pub fn link(name: &str, capacity: usize, expected: u64) -> (ChannelEgress, ChannelIngress) {
    assert!(capacity > 0, "a zero-capacity link can never make progress");
    let (tx, rx) = sync_channel(capacity);
    let next_expected = Arc::new(AtomicU64::new(expected));
    (
        ChannelEgress {
            name: format!("{name}.tx"),
            tx,
            pending: None,
            sent: 0,
            expected,
            next_expected: Arc::clone(&next_expected),
        },
        ChannelIngress {
            name: format!("{name}.rx"),
            rx,
            received: 0,
            expected,
            next_expected,
        },
    )
}

/// Host-side handle for setting how many elements a [`link`] carries on
/// its next run.
#[derive(Clone)]
pub struct LinkHandle {
    next_expected: Arc<AtomicU64>,
}

impl LinkHandle {
    /// Set the element count of the link's next run. Both ends adopt it
    /// when their graphs are next re-armed
    /// ([`Graph::rearm`](crate::Graph::rearm)).
    pub fn set_expected(&self, expected: u64) {
        // Published by the re-arm that follows on the same thread (or after
        // a hand-off that synchronizes), so no ordering is needed here.
        self.next_expected.store(expected, Ordering::Relaxed);
    }
}

/// Sends its input stream into an inter-device channel.
pub struct ChannelEgress {
    name: String,
    tx: SyncSender<i32>,
    pending: Option<i32>,
    sent: u64,
    expected: u64,
    next_expected: Arc<AtomicU64>,
}

impl ChannelEgress {
    /// The handle that re-sizes this link between runs.
    pub fn handle(&self) -> LinkHandle {
        LinkHandle { next_expected: Arc::clone(&self.next_expected) }
    }
}

impl Kernel for ChannelEgress {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        if self.pending.is_none() {
            self.pending = io.read(0);
        }
        match self.pending {
            Some(v) => match self.tx.try_send(v) {
                Ok(()) => {
                    self.pending = None;
                    self.sent += 1;
                    Progress::Busy
                }
                Err(TrySendError::Full(_)) => Progress::Stalled,
                Err(TrySendError::Disconnected(_)) => {
                    panic!("downstream device of '{}' hung up", self.name)
                }
            },
            None => {
                if self.sent >= self.expected {
                    Progress::Idle
                } else {
                    Progress::Stalled
                }
            }
        }
    }

    fn rearm(&mut self) {
        self.pending = None;
        self.sent = 0;
        self.expected = self.next_expected.load(Ordering::Relaxed);
    }

    fn is_done(&self) -> bool {
        self.sent >= self.expected && self.pending.is_none()
    }

    /// Never parkable: channel capacity is external state — the remote
    /// ingress draining the channel is invisible to this device's streams,
    /// so no local stream event would ever wake a parked egress. (Its
    /// stalled tick can also follow a successful read into `pending`.)
    fn wake_hint(&self) -> WakeHint {
        WakeHint::AlwaysTick
    }
}

/// Feeds elements arriving from an inter-device channel into its output
/// stream.
pub struct ChannelIngress {
    name: String,
    rx: Receiver<i32>,
    received: u64,
    expected: u64,
    next_expected: Arc<AtomicU64>,
}

impl Kernel for ChannelIngress {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        if self.received >= self.expected {
            return Progress::Idle;
        }
        if !io.can_write(0) {
            return Progress::Stalled;
        }
        match self.rx.try_recv() {
            Ok(v) => {
                io.write(0, v);
                self.received += 1;
                Progress::Busy
            }
            Err(TryRecvError::Empty) => Progress::Stalled,
            Err(TryRecvError::Disconnected) => {
                panic!("upstream device of '{}' hung up early", self.name)
            }
        }
    }

    /// Also empties the channel: a downstream device stops at its sink's
    /// last element, so trailing elements no window of its first strided
    /// layer reads may still be in flight when the run ends.
    fn rearm(&mut self) {
        while self.rx.try_recv().is_ok() {}
        self.received = 0;
        self.expected = self.next_expected.load(Ordering::Relaxed);
    }

    /// Never parkable: elements arrive on the external channel with no
    /// local stream event, so the ingress must poll every cycle.
    fn wake_hint(&self) -> WakeHint {
        WakeHint::AlwaysTick
    }
}

/// Run several device graphs in lockstep on one global clock.
///
/// Each global cycle steps every still-running device exactly once, in
/// device order; a device stops ticking once its sinks complete, so its
/// report covers only the cycles it was live. An element the upstream
/// egress sends on cycle `c` is visible to a *later-indexed* device's
/// ingress on the same cycle and to an earlier-indexed one on `c + 1` —
/// a fixed one-hop latency model, the same every run. The entire schedule
/// is a deterministic function of the graphs, so outputs **and** cycle
/// reports are bit-identical across runs.
///
/// Deadlock detection is global: if a full cycle passes in which no device
/// makes progress or commits a stream element, no future cycle can differ,
/// and the combined stream dump of every device is reported.
pub fn run_devices(mut graphs: Vec<Graph>, max_cycles: u64) -> Result<Vec<CycleReport>, RunError> {
    run_devices_in_place(&mut graphs, max_cycles)
}

/// [`run_devices`] over borrowed graphs, so a multi-device pipeline can be
/// re-armed ([`Graph::rearm`]) and run again.
pub fn run_devices_in_place(
    graphs: &mut [Graph],
    max_cycles: u64,
) -> Result<Vec<CycleReport>, RunError> {
    for g in graphs.iter() {
        g.validate()?;
    }
    let mut done: Vec<bool> = graphs.iter().map(Graph::complete).collect();
    let mut device_cycles = vec![0u64; graphs.len()];
    let mut cycle: u64 = 0;
    while done.iter().any(|d| !d) {
        if cycle >= max_cycles {
            return Err(RunError::Timeout { max_cycles });
        }
        let mut any_activity = false;
        for (i, g) in graphs.iter_mut().enumerate() {
            if done[i] {
                continue;
            }
            let (progress, committed) = g.step_cycle();
            any_activity |= progress || committed;
            device_cycles[i] += 1;
            // Completion can only flip after a sink `Busy` tick, so skip
            // the O(kernels) + mutex re-check on all other cycles.
            if g.made_sink_progress() && g.complete() {
                done[i] = true;
            }
        }
        cycle += 1;
        if !any_activity {
            let mut diagnostics = String::new();
            for (i, g) in graphs.iter().enumerate() {
                diagnostics.push_str(&format!(" device {i}:\n{}", g.dump_streams()));
            }
            return Err(RunError::Deadlock { cycle, diagnostics });
        }
    }
    Ok(graphs
        .iter()
        .zip(device_cycles)
        .map(|(g, cycles)| g.report(cycles))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{HostSink, HostSource};
    use crate::stream::StreamSpec;

    /// Build a two-device pipeline: device 0 negates, device 1 doubles.
    fn two_device_setup(data: Vec<i32>) -> (Vec<Graph>, crate::host::SinkHandle) {
        struct Map(fn(i32) -> i32, &'static str);
        impl Kernel for Map {
            fn name(&self) -> &str {
                self.1
            }
            fn tick(&mut self, io: &mut Io<'_>) -> Progress {
                if io.can_read(0) && io.can_write(0) {
                    let v = io.read(0).expect("checked");
                    io.write(0, (self.0)(v));
                    Progress::Busy
                } else {
                    Progress::Stalled
                }
            }
            fn rearm(&mut self) {}
        }

        let n = data.len();
        let (egress, ingress) = link("ring0", 64, n as u64);

        let mut d0 = Graph::new();
        let a = d0.add_stream(StreamSpec::new("a", 8, 8));
        let b = d0.add_stream(StreamSpec::new("b", 8, 8));
        d0.add_kernel(Box::new(HostSource::new("src", data)), &[], &[a]);
        d0.add_kernel(Box::new(Map(|v| -v, "negate")), &[a], &[b]);
        d0.add_kernel(Box::new(egress), &[b], &[]);

        let mut d1 = Graph::new();
        let c = d1.add_stream(StreamSpec::new("c", 8, 8));
        let d = d1.add_stream(StreamSpec::new("d", 8, 8));
        d1.add_kernel(Box::new(ingress), &[], &[c]);
        d1.add_kernel(Box::new(Map(|v| v * 2, "double")), &[c], &[d]);
        let (sink, handle) = HostSink::new("dst", n);
        d1.add_kernel(Box::new(sink), &[d], &[]);

        (vec![d0, d1], handle)
    }

    #[test]
    fn two_devices_compute_the_composition() {
        let (graphs, handle) = two_device_setup(vec![1, 2, 3, 4, 5]);
        let reports = run_devices(graphs, 1_000_000).expect("run ok");
        assert_eq!(reports.len(), 2);
        assert_eq!(handle.take(), vec![-2, -4, -6, -8, -10]);
    }

    #[test]
    fn cross_device_ordering_is_preserved_under_load() {
        let n = 2000;
        let (graphs, handle) = two_device_setup((0..n).collect());
        run_devices(graphs, 10_000_000).expect("run ok");
        let out = handle.take();
        assert_eq!(out.len(), n as usize);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, -2 * i as i32);
        }
    }

    #[test]
    fn lockstep_reports_are_reproducible() {
        let run_once = || {
            let (graphs, handle) = two_device_setup((0..200).collect());
            let reports = run_devices(graphs, 10_000_000).expect("run ok");
            (reports, handle.take())
        };
        let (reports, out) = run_once();
        for _ in 0..3 {
            let (r, o) = run_once();
            assert_eq!(r, reports, "cycle reports must be bit-identical");
            assert_eq!(o, out);
        }
    }

    #[test]
    fn lockstep_detects_cross_device_deadlock() {
        // Device 0 promises 3 elements over the link but only sources 2;
        // device 1's sink then starves with both devices stalled.
        let (egress, ingress) = link("ring0", 4, 3);

        let mut d0 = Graph::new();
        let a = d0.add_stream(StreamSpec::new("a", 8, 8));
        d0.add_kernel(Box::new(HostSource::new("src", vec![1, 2])), &[], &[a]);
        d0.add_kernel(Box::new(egress), &[a], &[]);

        let mut d1 = Graph::new();
        let c = d1.add_stream(StreamSpec::new("c", 8, 8));
        d1.add_kernel(Box::new(ingress), &[], &[c]);
        let (sink, _handle) = HostSink::new("dst", 3);
        d1.add_kernel(Box::new(sink), &[c], &[]);

        match run_devices(vec![d0, d1], 1_000_000) {
            Err(RunError::Deadlock { diagnostics, .. }) => {
                assert!(diagnostics.contains("device 0"), "got:\n{diagnostics}");
                assert!(diagnostics.contains("device 1"), "got:\n{diagnostics}");
            }
            other => panic!("expected cross-device deadlock, got {other:?}"),
        }
    }
}
