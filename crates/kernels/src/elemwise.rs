//! Element-wise kernels: the skip-connection adder and split (paper Fig. 2)
//! and the standalone fused BatchNorm + activation unit (§III-B3).

use dfe_platform::{Io, Kernel, Progress, SpanIo, SpanPhase, SpanPlan, WakeHint};
use qnn_quant::{ThresholdBank, ThresholdUnit};

/// Adds two streams element-wise — the skip-connection adder. One element
/// per cycle; both operands must be present (the skip buffer upstream
/// absorbs the path-delay mismatch).
pub struct AddKernel {
    name: String,
    /// A span's operands and then its sums (reused across dispatches).
    scratch: Vec<i32>,
}

impl AddKernel {
    /// Create an adder.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), scratch: Vec::new() }
    }
}

impl Kernel for AddKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        if io.can_read(0) && io.can_read(1) && io.can_write(0) {
            let a = io.read(0).expect("checked");
            let b = io.read(1).expect("checked");
            io.write(0, a + b);
            Progress::Busy
        } else if io.can_read(0) || io.can_read(1) {
            Progress::Stalled
        } else {
            Progress::Idle
        }
    }

    /// Stateless.
    fn rearm(&mut self) {}

    /// Pure element-wise stage: every non-`Busy` tick is a port-inert
    /// fixed point, so the kernel can park until a stream event.
    fn wake_hint(&self) -> WakeHint {
        WakeHint::Parkable
    }

    /// Stateless two-in-one-out: one element through per tick, for ever.
    /// A tick missing an operand or the output slot is a bare stall —
    /// `Stalled` while an operand waits, `Idle` when both run dry (exactly
    /// `tick`'s verdicts).
    fn span_hint(&self, _in_len: &[usize], _out_room: &[usize]) -> Option<SpanPlan> {
        let pass = SpanPhase::coupled(u64::MAX, 0b11, 0b1);
        Some(SpanPlan::of(pass.stalls(Progress::Idle)))
    }

    fn run_span(&mut self, io: &mut SpanIo<'_>, _n: u64) {
        let n = io.read_quota(0);
        let sums = &mut self.scratch;
        sums.clear();
        io.pop_n(0, n, |a| sums.extend_from_slice(a));
        let mut at = 0;
        io.pop_n(1, n, |b| {
            for (sum, &b) in sums[at..].iter_mut().zip(b) {
                *sum += b;
            }
            at += b.len();
        });
        io.push_slice(0, sums);
    }

    /// Stateless: any two ticks with identical stream surroundings behave
    /// identically.
    fn replay_token(&self) -> Option<u64> {
        Some(0)
    }
}

/// Duplicates a stream onto two outputs — the post-adder split of Fig. 2
/// ("the result is split into two paths").
pub struct SplitKernel {
    name: String,
    /// A span's elements between the pop and the two pushes.
    scratch: Vec<i32>,
}

impl SplitKernel {
    /// Create a splitter.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), scratch: Vec::new() }
    }
}

impl Kernel for SplitKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        if io.can_read(0) && io.can_write(0) && io.can_write(1) {
            let v = io.read(0).expect("checked");
            io.write(0, v);
            io.write(1, v);
            Progress::Busy
        } else if io.can_read(0) {
            Progress::Stalled
        } else {
            Progress::Idle
        }
    }

    /// Stateless.
    fn rearm(&mut self) {}

    /// Pure element-wise stage: every non-`Busy` tick is a port-inert
    /// fixed point, so the kernel can park until a stream event.
    fn wake_hint(&self) -> WakeHint {
        WakeHint::Parkable
    }

    /// Stateless one-in-two-out: one element through per tick, for ever.
    /// Both outputs must have room or nothing moves; `Idle` on a dry input
    /// — `tick` never reaches the output checks without an element.
    fn span_hint(&self, _in_len: &[usize], _out_room: &[usize]) -> Option<SpanPlan> {
        let pass = SpanPhase::coupled(u64::MAX, 0b1, 0b11);
        Some(SpanPlan::of(pass.stalls(Progress::Idle)))
    }

    fn run_span(&mut self, io: &mut SpanIo<'_>, _n: u64) {
        let n = io.read_quota(0);
        let vals = &mut self.scratch;
        vals.clear();
        io.pop_n(0, n, |v| vals.extend_from_slice(v));
        io.push_slice(0, vals);
        io.push_slice(1, vals);
    }

    /// Stateless: any two ticks with identical stream surroundings behave
    /// identically.
    fn replay_token(&self) -> Option<u64> {
        Some(0)
    }
}

/// Fused BatchNorm + n-bit activation over an accumulator stream, one
/// element per cycle, cycling through the per-channel threshold units in
/// depth-first order (channel innermost).
pub struct ThresholdKernel {
    name: String,
    units: Vec<ThresholdUnit>,
    /// `units` as the comparator bank a span runs through in one pass.
    bank: ThresholdBank,
    channel: usize,
    /// A span's accumulators and then its codes.
    scratch: Vec<i32>,
}

impl ThresholdKernel {
    /// Create a threshold kernel with one unit per channel.
    pub fn new(name: impl Into<String>, units: Vec<ThresholdUnit>) -> Self {
        assert!(!units.is_empty(), "threshold kernel needs at least one unit");
        Self {
            name: name.into(),
            bank: ThresholdBank::new(&units),
            units,
            channel: 0,
            scratch: Vec::new(),
        }
    }
}

impl Kernel for ThresholdKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        if io.can_read(0) && io.can_write(0) {
            let a = io.read(0).expect("checked");
            let q = self.units[self.channel].activate(a);
            io.write(0, i32::from(q));
            self.channel += 1;
            if self.channel == self.units.len() {
                self.channel = 0;
            }
            Progress::Busy
        } else if io.can_read(0) {
            Progress::Stalled
        } else {
            Progress::Idle
        }
    }

    /// Back to channel 0.
    fn rearm(&mut self) {
        self.channel = 0;
    }

    /// Pure element-wise stage: every non-`Busy` tick is a port-inert
    /// fixed point, so the kernel can park until a stream event.
    fn wake_hint(&self) -> WakeHint {
        WakeHint::Parkable
    }

    /// One element per tick with only the channel counter as state, which
    /// advances identically however the ticks fall. The counter moves only
    /// on a completed read-write pair, so a tick missing either is a bare
    /// stall, `Idle` on a dry input.
    fn span_hint(&self, _in_len: &[usize], _out_room: &[usize]) -> Option<SpanPlan> {
        let pass = SpanPhase::coupled(u64::MAX, 0b1, 0b1);
        Some(SpanPlan::of(pass.stalls(Progress::Idle)))
    }

    fn run_span(&mut self, io: &mut SpanIo<'_>, _n: u64) {
        let n = io.read_quota(0);
        let vals = &mut self.scratch;
        vals.clear();
        io.pop_n(0, n, |a| vals.extend_from_slice(a));
        self.bank.activate_run(self.channel, vals);
        io.push_slice(0, vals);
        self.channel = (self.channel + vals.len()) % self.units.len();
    }

    /// The channel counter is the only state (threshold parameters are
    /// fixed at construction).
    fn replay_token(&self) -> Option<u64> {
        Some(self.channel as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfe_platform::{Graph, HostSink, HostSource, StreamSpec};
    use qnn_quant::{BnParams, QuantSpec};

    #[test]
    fn adder_sums_aligned_streams() {
        let mut g = Graph::new();
        let a = g.add_stream(StreamSpec::new("a", 16, 8));
        let b = g.add_stream(StreamSpec::new("b", 16, 8));
        let c = g.add_stream(StreamSpec::new("c", 16, 8));
        g.add_kernel(Box::new(HostSource::new("sa", vec![1, 2, 3])), &[], &[a]);
        g.add_kernel(Box::new(HostSource::new("sb", vec![10, 20, 30])), &[], &[b]);
        g.add_kernel(Box::new(AddKernel::new("add")), &[a, b], &[c]);
        let (sink, h) = HostSink::new("dst", 3);
        g.add_kernel(Box::new(sink), &[c], &[]);
        g.run(1000).expect("run");
        assert_eq!(h.take(), vec![11, 22, 33]);
    }

    #[test]
    fn adder_waits_for_slow_operand() {
        // Operand B arrives through a delay line; the adder must stall, not
        // misalign.
        use dfe_platform::ring::DelayLine;
        let mut g = Graph::new();
        let a = g.add_stream(StreamSpec::new("a", 16, 64));
        let b0 = g.add_stream(StreamSpec::new("b0", 16, 8));
        let b = g.add_stream(StreamSpec::new("b", 16, 8));
        let c = g.add_stream(StreamSpec::new("c", 16, 8));
        g.add_kernel(Box::new(HostSource::new("sa", (0..20).collect())), &[], &[a]);
        g.add_kernel(
            Box::new(HostSource::new("sb", (0..20).map(|v| v * 100).collect())),
            &[],
            &[b0],
        );
        g.add_kernel(Box::new(DelayLine::new("lag", 10)), &[b0], &[b]);
        g.add_kernel(Box::new(AddKernel::new("add")), &[a, b], &[c]);
        let (sink, h) = HostSink::new("dst", 20);
        g.add_kernel(Box::new(sink), &[c], &[]);
        g.run(10_000).expect("run");
        let got = h.take();
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, i as i32 * 101);
        }
    }

    #[test]
    fn split_duplicates_in_order() {
        let mut g = Graph::new();
        let a = g.add_stream(StreamSpec::new("a", 16, 8));
        let b = g.add_stream(StreamSpec::new("b", 16, 8));
        let c = g.add_stream(StreamSpec::new("c", 16, 8));
        g.add_kernel(Box::new(HostSource::new("src", vec![5, 6, 7])), &[], &[a]);
        g.add_kernel(Box::new(SplitKernel::new("split")), &[a], &[b, c]);
        let (s1, h1) = HostSink::new("d1", 3);
        let (s2, h2) = HostSink::new("d2", 3);
        g.add_kernel(Box::new(s1), &[b], &[]);
        g.add_kernel(Box::new(s2), &[c], &[]);
        g.run(1000).expect("run");
        assert_eq!(h1.take(), vec![5, 6, 7]);
        assert_eq!(h2.take(), vec![5, 6, 7]);
    }

    #[test]
    fn split_halts_until_both_outputs_have_room() {
        // Second output has capacity 1 and a sink that expects only after
        // stream fills: splitter must not lose elements.
        let mut g = Graph::new();
        let a = g.add_stream(StreamSpec::new("a", 16, 8));
        let b = g.add_stream(StreamSpec::new("b", 16, 1));
        let c = g.add_stream(StreamSpec::new("c", 16, 1));
        g.add_kernel(Box::new(HostSource::new("src", (0..10).collect())), &[], &[a]);
        g.add_kernel(Box::new(SplitKernel::new("split")), &[a], &[b, c]);
        let (s1, h1) = HostSink::new("d1", 10);
        let (s2, h2) = HostSink::new("d2", 10);
        g.add_kernel(Box::new(s1), &[b], &[]);
        g.add_kernel(Box::new(s2), &[c], &[]);
        g.run(10_000).expect("run");
        assert_eq!(h1.take(), (0..10).collect::<Vec<_>>());
        assert_eq!(h2.take(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn threshold_kernel_cycles_channels() {
        let spec = QuantSpec::paper_2bit();
        let units = vec![
            ThresholdUnit::from_batchnorm(&BnParams::IDENTITY, &spec),
            ThresholdUnit::from_batchnorm(&BnParams::new(1.0, 10.0, 1.0, 0.0), &spec),
        ];
        let mut g = Graph::new();
        let a = g.add_stream(StreamSpec::new("a", 16, 8));
        let b = g.add_stream(StreamSpec::new("b", 2, 8));
        // Stream of (c0, c1) pairs: [2, 12, 0, 10].
        g.add_kernel(Box::new(HostSource::new("src", vec![2, 12, 0, 10])), &[], &[a]);
        g.add_kernel(Box::new(ThresholdKernel::new("thr", units)), &[a], &[b]);
        let (sink, h) = HostSink::new("dst", 4);
        g.add_kernel(Box::new(sink), &[b], &[]);
        g.run(1000).expect("run");
        // c0 identity-clamps, c1 subtracts 10 first.
        assert_eq!(h.take(), vec![2, 2, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn empty_threshold_units_rejected() {
        let _ = ThresholdKernel::new("t", vec![]);
    }
}
