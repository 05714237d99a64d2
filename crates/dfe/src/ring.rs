//! MaxRing: the proprietary DFE-to-DFE link (paper §II-B, §III-B6).
//!
//! DFEs are daisy-chained; a design split across DFEs sends its cut streams
//! over the ring. The paper's feasibility argument: a 2-bit activation
//! stream at 105 MHz needs 210 Mbps, while the link "can be set to rates of
//! up to several Gbps" — so the cut is essentially free. [`MaxRing`] does
//! that arithmetic; [`DelayLine`] models the extra pipeline latency the hop
//! introduces in the cycle simulator.

use crate::kernel::{Io, Kernel, Progress, SpanIo, SpanPlan, WakeHint};
use std::collections::VecDeque;

/// A MaxRing link between two adjacent DFEs.
#[derive(Clone, Copy, Debug)]
pub struct MaxRing {
    /// Configured link rate in Gbps.
    pub rate_gbps: f64,
    /// One-way latency of the hop in fabric cycles.
    pub latency_cycles: u32,
}

impl Default for MaxRing {
    fn default() -> Self {
        // "up to several Gbps": a conservative 4 Gbps configuration, and a
        // realistic ~16-cycle serialization/deserialization latency.
        Self {
            rate_gbps: 4.0,
            latency_cycles: 16,
        }
    }
}

impl MaxRing {
    /// Bandwidth demanded by a cut of streams with the given widths (bits)
    /// at one element per cycle each, in Mbps.
    pub fn demand_mbps(stream_bits: &[u32], fclk_mhz: f64) -> f64 {
        stream_bits.iter().map(|&b| b as f64 * fclk_mhz).sum()
    }

    /// Can the link carry the cut?
    pub fn supports(&self, stream_bits: &[u32], fclk_mhz: f64) -> bool {
        Self::demand_mbps(stream_bits, fclk_mhz) <= self.rate_gbps * 1e3
    }

    /// Fraction of link capacity the cut uses.
    pub fn utilization(&self, stream_bits: &[u32], fclk_mhz: f64) -> f64 {
        Self::demand_mbps(stream_bits, fclk_mhz) / (self.rate_gbps * 1e3)
    }
}

/// A fixed-latency, full-throughput delay line: the cycle-simulator stand-in
/// for a MaxRing hop (or any deep pipeline register chain).
pub struct DelayLine {
    name: String,
    slots: VecDeque<Option<i32>>,
}

impl DelayLine {
    /// Create a delay line of `latency ≥ 1` cycles.
    pub fn new(name: impl Into<String>, latency: u32) -> Self {
        assert!(latency >= 1, "delay line needs at least one stage");
        Self {
            name: name.into(),
            slots: (0..latency).map(|_| None).collect(),
        }
    }
}

impl Kernel for DelayLine {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        let out_ready = self.slots.back().copied().flatten();
        if let Some(v) = out_ready {
            if !io.can_write(0) {
                // Output blocked: the whole line freezes this cycle.
                return Progress::Stalled;
            }
            io.write(0, v);
        }
        self.slots.pop_back();
        let incoming = io.read(0);
        let moved = incoming.is_some() || out_ready.is_some();
        self.slots.push_front(incoming);
        if moved {
            Progress::Busy
        } else {
            Progress::Idle
        }
    }

    /// Empty every stage.
    fn rearm(&mut self) {
        self.slots.iter_mut().for_each(|slot| *slot = None);
    }

    /// A delay line is a timer: while elements are in flight, even a tick
    /// that touches no port shifts them toward the output, so it must keep
    /// ticking. Only a fully drained line is a fixed point.
    fn wake_hint(&self) -> WakeHint {
        if self.slots.iter().all(Option::is_none) {
            WakeHint::Parkable
        } else {
            WakeHint::AlwaysTick
        }
    }

    /// Uniform only when every slot is occupied: then each tick emits the
    /// back slot and refills the front, keeping the line full. A line with
    /// bubbles shifts them without port activity (that's the timer
    /// behaviour behind `AlwaysTick`), so it makes no promise.
    fn span_hint(&self, _in_len: &[usize], _out_room: &[usize]) -> Option<SpanPlan> {
        if self.slots.iter().all(Option::is_some) {
            Some(SpanPlan::new(u64::MAX, 1, 1))
        } else {
            None
        }
    }

    fn run_span(&mut self, io: &mut SpanIo<'_>, n: u64) {
        for _ in 0..n {
            let v = self
                .slots
                .pop_back()
                .flatten()
                .expect("span over a full delay line");
            io.push(0, v);
            self.slots.push_front(Some(io.pop(0)));
        }
    }

    /// The occupancy pattern (which slots hold an element) is the control
    /// state — the element values are data. Packed into 64-slot words and
    /// mixed; the cost is paid only at image boundaries, where fingerprints
    /// are taken.
    fn replay_token(&self) -> Option<u64> {
        let mut words = Vec::with_capacity(self.slots.len().div_ceil(64));
        let mut word = 0u64;
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.is_some() {
                word |= 1 << (i % 64);
            }
            if i % 64 == 63 {
                words.push(word);
                word = 0;
            }
        }
        if self.slots.len() % 64 != 0 {
            words.push(word);
        }
        Some(crate::replay::token_mix(&words))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::host::{HostSink, HostSource};
    use crate::stream::StreamSpec;

    #[test]
    fn paper_bandwidth_example_fits_easily() {
        let ring = MaxRing::default();
        // One 2-bit stream at 105 MHz = 210 Mbps ≪ 4 Gbps.
        assert!(ring.supports(&[2], 105.0));
        assert!((MaxRing::demand_mbps(&[2], 105.0) - 210.0).abs() < 1e-9);
        assert!(ring.utilization(&[2], 105.0) < 0.06);
    }

    #[test]
    fn wide_cut_can_saturate_ring() {
        let ring = MaxRing {
            rate_gbps: 1.0,
            latency_cycles: 16,
        };
        // Twenty 16-bit streams at 105 MHz = 33.6 Gbps > 1 Gbps.
        let cut = [16u32; 20];
        assert!(!ring.supports(&cut, 105.0));
    }

    #[test]
    fn delay_line_adds_exact_latency_and_keeps_throughput() {
        let n: usize = 50;
        let latency = 7;
        let mut g = Graph::new();
        let a = g.add_stream(StreamSpec::new("a", 8, 4));
        let b = g.add_stream(StreamSpec::new("b", 8, 4));
        g.add_kernel(
            Box::new(HostSource::new("src", (0..n as i32).collect())),
            &[],
            &[a],
        );
        g.add_kernel(Box::new(DelayLine::new("hop", latency)), &[a], &[b]);
        let (sink, handle) = HostSink::new("dst", n);
        g.add_kernel(Box::new(sink), &[b], &[]);
        let report = g.run(10_000).expect("run ok");
        assert_eq!(handle.take(), (0..n as i32).collect::<Vec<_>>());
        // Cycles ≈ n + latency + scheduler edges; throughput must stay 1/cycle.
        assert!(
            report.cycles as usize >= n + latency as usize,
            "latency unmodeled: {}",
            report.cycles
        );
        assert!(
            report.cycles as usize <= n + latency as usize + 5,
            "throughput lost: {}",
            report.cycles
        );
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_latency_rejected() {
        let _ = DelayLine::new("bad", 0);
    }
}
