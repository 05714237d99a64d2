//! What a run reports: the cycle count with per-kernel and per-stream
//! counters ([`CycleReport`]), and the stream dump a deadlock carries.

use super::Graph;
use crate::kernel::Progress;
use crate::replay::ReplayDiag;

/// Per-kernel activity counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelStats {
    /// Kernel name.
    pub name: String,
    /// Cycles in which the kernel did useful work.
    pub busy: u64,
    /// Cycles in which the kernel was blocked on I/O.
    pub stalled: u64,
}

/// Per-stream traffic counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamStats {
    /// Stream name.
    pub name: String,
    /// Total elements transported.
    pub pushed: u64,
    /// High-water mark of occupancy.
    pub max_occupancy: usize,
    /// Configured capacity.
    pub capacity: usize,
}

/// Result of a completed run.
#[derive(Clone, Debug)]
pub struct CycleReport {
    /// Clock cycles until the last sink completed.
    pub cycles: u64,
    /// Per-kernel counters, index-aligned with kernel ids.
    pub kernels: Vec<KernelStats>,
    /// Per-stream counters, index-aligned with stream ids.
    pub streams: Vec<StreamStats>,
    /// Schedule-replay diagnostics (see [`crate::replay`]). Like
    /// [`Graph::bursts`], this describes how the run was *dispatched*, not
    /// what it computed — so it is excluded from report equality, which the
    /// differential batteries hold bit-identical against the dense oracle.
    pub replay: ReplayDiag,
}

impl PartialEq for CycleReport {
    fn eq(&self, other: &Self) -> bool {
        self.cycles == other.cycles
            && self.kernels == other.kernels
            && self.streams == other.streams
    }
}

impl Eq for CycleReport {}

impl CycleReport {
    /// Wall-clock time for the run at a fabric clock of `fclk_mhz`.
    pub fn time_ms(&self, fclk_mhz: f64) -> f64 {
        self.cycles as f64 / (fclk_mhz * 1e3)
    }

    /// The busiest kernel (pipeline bottleneck).
    pub fn bottleneck(&self) -> Option<&KernelStats> {
        self.kernels.iter().max_by_key(|k| k.busy)
    }
}

impl Graph {
    /// Outstanding lazy stall credit for node `i`: cycles skipped while
    /// parked `Stalled` that no wake has settled yet (report-time view).
    fn pending_stall_credit(&self, i: usize) -> u64 {
        match self.parked[i] {
            Some((Progress::Stalled, since)) => self.now - 1 - since,
            _ => 0,
        }
    }

    /// The report of a run that took `cycles`.
    pub(super) fn report(&self, cycles: u64) -> CycleReport {
        CycleReport {
            cycles,
            replay: self.replay.diag(),
            kernels: self
                .nodes
                .iter()
                .enumerate()
                .map(|(i, n)| KernelStats {
                    name: n.kernel.name().to_string(),
                    busy: n.busy,
                    stalled: n.stalled + self.pending_stall_credit(i),
                })
                .collect(),
            streams: self
                .streams
                .iter()
                .map(|s| StreamStats {
                    name: s.spec.name.clone(),
                    pushed: s.pushed,
                    max_occupancy: s.max_occupancy,
                    capacity: s.spec.capacity,
                })
                .collect(),
        }
    }

    /// Every stream's occupancy and its two kernels, one line each.
    pub(super) fn dump_streams(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, s) in self.streams.iter().enumerate() {
            let _ = writeln!(
                out,
                "  stream {:3} '{}': {}/{} occupied, writer={:?} reader={:?}",
                i,
                s.spec.name,
                s.queue.len(),
                s.spec.capacity,
                self.writers[i].map(|e| self.nodes[e.node].kernel.name()),
                self.readers[i].map(|e| self.nodes[e.node].kernel.name()),
            );
        }
        out
    }
}
