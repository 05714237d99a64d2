//! Host-side source and sink kernels — the PCIe boundary of the DFE.
//!
//! The paper streams images from the CPU over PCIe and reads logits back;
//! these kernels model that boundary at one element per fabric cycle (the
//! PCIe link is far faster than 8 bits × 105 MHz, so the fabric clock is
//! the binding constraint).

use crate::kernel::{Io, Kernel, Progress, SpanIo, SpanPhase, SpanPlan, WakeHint};
use std::sync::{Arc, Mutex, MutexGuard};

/// Feeds a preloaded buffer into its single output stream, one element per
/// cycle.
pub struct HostSource {
    name: String,
    data: Vec<i32>,
    /// Index of the next element to send; [`Kernel::rearm`] rewinds it, so
    /// a re-armed source replays its buffer (a parameter blob is streamed
    /// again, exactly as a freshly built graph would stream it).
    next: usize,
    /// Elements per image for the schedule-replay token (see
    /// [`HostSource::with_period`]).
    period: Option<u64>,
    /// Buffer posted through a [`SourceHandle`], taken at the next re-arm.
    refill: Option<Arc<Mutex<Option<Vec<i32>>>>>,
}

/// Host-side handle for giving a [`HostSource`] the next run's data.
#[derive(Clone)]
pub struct SourceHandle {
    refill: Arc<Mutex<Option<Vec<i32>>>>,
}

impl SourceHandle {
    /// Post `data` (already in stream order) as the source's next buffer.
    /// It replaces the current one when the source is next re-armed
    /// ([`Graph::rearm`](crate::Graph::rearm)).
    pub fn refill(&self, data: Vec<i32>) {
        *lock_state(&self.refill) = Some(data);
    }
}

impl HostSource {
    /// Create a source over `data` (already in stream order).
    pub fn new(name: impl Into<String>, data: Vec<i32>) -> Self {
        Self {
            name: name.into(),
            data,
            next: 0,
            period: None,
            refill: None,
        }
    }

    /// Make the source refillable between runs, returning the handle the
    /// host posts each run's data through.
    pub fn refillable(mut self) -> (Self, SourceHandle) {
        let refill = Arc::new(Mutex::new(None));
        self.refill = Some(Arc::clone(&refill));
        (self, SourceHandle { refill })
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.next
    }

    /// Declare the stream periodic with `elems` elements per image, letting
    /// the replay token quantize its remaining-count modulo the period — at
    /// identical points of successive images the token then repeats, which
    /// is what lets a multi-image run fingerprint as steady-state.
    pub fn with_period(mut self, elems: usize) -> Self {
        assert!(elems > 0, "period must be positive");
        self.period = Some(elems as u64);
        self
    }
}

/// Period-quantized replay token for a draining counter: mid-stream states
/// repeat every `period` elements, while the final-period drain (`remaining
/// < period`) and exhaustion are kept in *disjoint* token ranges — a nearly
/// dry source must never fingerprint equal to a mid-stream one, or replay
/// would dispatch a recorded span past the end of the buffer.
fn drain_token(remaining: u64, period: Option<u64>) -> u64 {
    const TAG: u64 = 1 << 63;
    match period {
        _ if remaining == 0 => u64::MAX,
        Some(p) if remaining >= p => remaining % p,
        _ => TAG | remaining,
    }
}

impl Kernel for HostSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        if self.remaining() == 0 {
            return Progress::Idle;
        }
        if io.can_write(0) {
            io.write(0, self.data[self.next]);
            self.next += 1;
            Progress::Busy
        } else {
            Progress::Stalled
        }
    }

    /// Rewind to the start of the buffer — the posted one, if the host
    /// posted a refill since the last re-arm.
    fn rearm(&mut self) {
        if let Some(refill) = &self.refill {
            if let Some(data) = lock_state(refill).take() {
                self.data = data;
            }
        }
        self.next = 0;
    }

    fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Stalls only on a full output (woken by the reader's pop); idles only
    /// once exhausted (never wakes again). Both are port-inert fixed points.
    fn wake_hint(&self) -> WakeHint {
        WakeHint::Parkable
    }

    /// One element out per cycle until the buffer empties. Halting: a full
    /// output freezes the tick at `Stalled`.
    fn span_hint(&self, _in_len: &[usize], _out_room: &[usize]) -> Option<SpanPlan> {
        if self.remaining() == 0 {
            None
        } else {
            // One element per free slot; a full FIFO is a bare stall.
            let pushes = SpanPhase::coupled(self.remaining() as u64, 0, 1);
            Some(SpanPlan::of(pushes.stalls(Progress::Stalled)))
        }
    }

    fn run_span(&mut self, io: &mut SpanIo<'_>, _n: u64) {
        let end = self.next + io.write_quota(0) as usize;
        io.push_slice(0, &self.data[self.next..end]);
        self.next = end;
    }

    /// Remaining-count token, period-quantized (see `drain_token`): the
    /// remaining count is the only control state.
    fn replay_token(&self) -> Option<u64> {
        Some(drain_token(self.remaining() as u64, self.period))
    }
}

struct SinkState {
    collected: Vec<i32>,
    /// Element count the sink's *next* run collects; the kernel adopts it
    /// when it is re-armed.
    expected: usize,
}

/// Shared handle to a [`HostSink`]'s collected output.
#[derive(Clone)]
pub struct SinkHandle {
    state: Arc<Mutex<SinkState>>,
}

/// Lock host-shared state, surviving poisoning: a panicking device thread
/// must not hide the elements already collected from the test harness.
fn lock_state<T>(state: &Mutex<T>) -> MutexGuard<'_, T> {
    state
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl SinkHandle {
    /// Take the collected elements (leaves the sink buffer empty).
    pub fn take(&self) -> Vec<i32> {
        std::mem::take(&mut lock_state(&self.state).collected)
    }

    /// Elements collected so far.
    pub fn len(&self) -> usize {
        lock_state(&self.state).collected.len()
    }

    /// True when nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when all expected elements arrived.
    pub fn is_complete(&self) -> bool {
        let state = lock_state(&self.state);
        state.collected.len() == state.expected
    }

    /// Set the element count of the sink's next run. Takes effect when the
    /// sink is next re-armed ([`Graph::rearm`](crate::Graph::rearm)), which
    /// also discards anything collected and not taken.
    pub fn set_expected(&self, expected: usize) {
        lock_state(&self.state).expected = expected;
    }
}

/// Collects a known number of elements from its single input stream.
pub struct HostSink {
    name: String,
    expected: usize,
    /// Elements per image for the schedule-replay token (see
    /// [`HostSource::with_period`]).
    period: Option<u64>,
    state: Arc<Mutex<SinkState>>,
}

impl HostSink {
    /// Create a sink expecting `expected` elements, returning the kernel and
    /// a handle for retrieving results after the run.
    pub fn new(name: impl Into<String>, expected: usize) -> (Self, SinkHandle) {
        let state = Arc::new(Mutex::new(SinkState {
            collected: Vec::new(),
            expected,
        }));
        let handle = SinkHandle {
            state: Arc::clone(&state),
        };
        (
            Self {
                name: name.into(),
                expected,
                period: None,
                state,
            },
            handle,
        )
    }

    /// Declare the stream periodic with `elems` collected elements per
    /// image (see [`HostSource::with_period`]).
    pub fn with_period(mut self, elems: usize) -> Self {
        assert!(elems > 0, "period must be positive");
        self.period = Some(elems as u64);
        self
    }
}

impl Kernel for HostSink {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        let state = lock_state(&self.state);
        if state.collected.len() >= self.expected {
            return Progress::Idle;
        }
        drop(state);
        match io.read(0) {
            Some(v) => {
                let mut state = lock_state(&self.state);
                state.collected.push(v);
                Progress::Busy
            }
            None => Progress::Stalled,
        }
    }

    /// Empty the collection buffer and adopt the expected count last set
    /// through [`SinkHandle::set_expected`].
    fn rearm(&mut self) {
        let mut state = lock_state(&self.state);
        state.collected.clear();
        self.expected = state.expected;
    }

    fn is_done(&self) -> bool {
        lock_state(&self.state).collected.len() >= self.expected
    }

    /// Stalls only on an empty input (woken by the writer's commit); idles
    /// only once complete.
    fn wake_hint(&self) -> WakeHint {
        WakeHint::Parkable
    }

    /// One element in per cycle until the expected count is reached — the
    /// span promise stops exactly at completion, so `is_done` flips at the
    /// same cycle as under per-element stepping. A dry input is a bare
    /// stall.
    fn span_hint(&self, _in_len: &[usize], _out_room: &[usize]) -> Option<SpanPlan> {
        let remaining = self.expected - lock_state(&self.state).collected.len();
        if remaining == 0 {
            None
        } else {
            let pops = SpanPhase::coupled(remaining as u64, 1, 0);
            Some(SpanPlan::of(pops.stalls(Progress::Stalled)))
        }
    }

    fn run_span(&mut self, io: &mut SpanIo<'_>, _n: u64) {
        let mut state = lock_state(&self.state);
        let n = io.read_quota(0);
        io.pop_n(0, n, |vals| state.collected.extend_from_slice(vals));
    }

    /// Remaining-count token, period-quantized (see `drain_token`).
    fn replay_token(&self) -> Option<u64> {
        let remaining = self.expected - lock_state(&self.state).collected.len();
        Some(drain_token(remaining as u64, self.period))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::stream::StreamSpec;

    #[test]
    fn source_to_sink_roundtrip() {
        let mut g = Graph::new();
        let s = g.add_stream(StreamSpec::new("s", 8, 2));
        g.add_kernel(
            Box::new(HostSource::new("src", vec![1, 2, 3, 4])),
            &[],
            &[s],
        );
        let (sink, handle) = HostSink::new("dst", 4);
        g.add_kernel(Box::new(sink), &[s], &[]);
        let report = g.run(100).expect("run ok");
        assert_eq!(handle.take(), vec![1, 2, 3, 4]);
        // One element per cycle through a capacity-2 FIFO: n + latency.
        assert!(report.cycles <= 10);
    }

    #[test]
    fn sink_handle_tracks_completion() {
        let (_sink, handle) = HostSink::new("dst", 2);
        assert!(!handle.is_complete());
        assert!(handle.is_empty());
    }

    #[test]
    fn empty_source_is_immediately_done() {
        let src = HostSource::new("src", vec![]);
        assert!(src.is_done());
    }

    #[test]
    fn drain_tokens_keep_final_period_disjoint() {
        // Mid-stream states one period apart share a token…
        assert_eq!(drain_token(250, Some(100)), drain_token(150, Some(100)));
        // …but the final-period drain must NOT collide with them: if
        // remaining=50 matched remaining=150, a fingerprint could validate
        // on the last image and replay a span past the end of the buffer.
        assert_ne!(drain_token(50, Some(100)), drain_token(150, Some(100)));
        assert_ne!(drain_token(0, Some(100)), drain_token(100, Some(100)));
        // Without a period hint every distinct remaining-count is distinct.
        assert_ne!(drain_token(3, None), drain_token(103, None));
    }
}
