//! Bounded streams: the FMem-backed FIFOs connecting kernels.

use std::collections::VecDeque;

/// Static description of a stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamSpec {
    /// Display name (used in reports and deadlock diagnostics).
    pub name: String,
    /// Payload width in bits — 2 for activation codes, 8 for input pixels,
    /// 16 for skip data, 32 for logits. Used for FMem sizing and MaxRing
    /// bandwidth checks, not for value storage (values are `i32` in the
    /// simulator).
    pub bits: u32,
    /// FIFO capacity in elements. The paper's inter-kernel buffers live in
    /// FMem and are small; the default used by the compiler is 512.
    pub capacity: usize,
}

impl StreamSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, bits: u32, capacity: usize) -> Self {
        assert!(
            capacity > 0,
            "streams need capacity of at least one element"
        );
        assert!((1..=32).contains(&bits), "stream width must be 1..=32 bits");
        Self {
            name: name.into(),
            bits,
            capacity,
        }
    }

    /// FMem bits occupied by the full FIFO.
    pub fn fmem_bits(&self) -> usize {
        self.bits as usize * self.capacity
    }

    /// Bandwidth in megabits per second this stream needs at `fclk_mhz` when
    /// it carries one element per cycle (paper §III-B6's 2 bit × 105 MHz =
    /// 210 Mbps example).
    pub fn bandwidth_mbps(&self, fclk_mhz: f64) -> f64 {
        self.bits as f64 * fclk_mhz
    }
}

/// Runtime state of a stream inside the cycle scheduler.
///
/// Writes land in `staged` and are committed to `queue` at the end of the
/// cycle, modeling registered kernel outputs: a value written in cycle `t`
/// is readable in cycle `t+1`, regardless of kernel iteration order.
#[derive(Debug)]
pub(crate) struct StreamState {
    pub spec: StreamSpec,
    pub queue: VecDeque<i32>,
    pub staged: Vec<i32>,
    /// Total elements ever pushed (for throughput accounting).
    pub pushed: u64,
    /// High-water mark of committed occupancy.
    pub max_occupancy: usize,
}

impl StreamState {
    pub fn new(spec: StreamSpec) -> Self {
        let cap = spec.capacity;
        Self {
            spec,
            queue: VecDeque::with_capacity(cap),
            staged: Vec::with_capacity(4),
            pushed: 0,
            max_occupancy: 0,
        }
    }

    /// Empty the FIFO and zero its statistics ([`crate::Graph::rearm`]).
    pub fn clear(&mut self) {
        self.queue.clear();
        self.staged.clear();
        self.pushed = 0;
        self.max_occupancy = 0;
    }

    /// Committed + staged occupancy (what a writer must respect).
    pub fn total_len(&self) -> usize {
        self.queue.len() + self.staged.len()
    }

    pub fn can_write(&self) -> bool {
        self.total_len() < self.spec.capacity
    }

    pub fn can_read(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Drain staged writes into the FIFO; returns how many elements were
    /// committed.
    ///
    /// `max_occupancy` is sampled *after* the drain, so the high-water mark
    /// reflects committed end-of-cycle occupancy. Both schedulers rely on
    /// this ordering: the ready-list stepper commits only streams written
    /// this cycle, which is safe exactly because occupancy can only grow at
    /// a commit — an uncommitted stream's queue either shrank (reader pop)
    /// or held still, so skipping its sample never misses a new maximum.
    pub fn commit(&mut self) -> usize {
        let n = self.staged.len();
        for v in self.staged.drain(..) {
            self.queue.push_back(v);
        }
        self.max_occupancy = self.max_occupancy.max(self.queue.len());
        n
    }

    /// Record the occupancy high-water mark of a **batched span commit**
    /// ([`span_peak`]; 0 ⇒ the span committed nothing, so — matching
    /// [`StreamState::commit`]'s skip rule — it never samples).
    pub fn note_span(&mut self, peak: usize) {
        debug_assert!(
            peak <= self.spec.capacity,
            "span peak {} outside 0..={} on '{}'",
            peak,
            self.spec.capacity,
            self.spec.name
        );
        self.max_occupancy = self.max_occupancy.max(peak);
    }
}

/// The first `n` elements of `queue` in FIFO order, as the (at most two)
/// contiguous pieces of its ring storage.
///
/// # Panics
/// Panics if fewer than `n` elements are queued — span dispatch only moves
/// what a [`SpanPlan`](crate::SpanPlan) promised, so a short queue is a
/// broken contract, not a stall.
pub(crate) fn front_slices(queue: &VecDeque<i32>, n: usize) -> (&[i32], &[i32]) {
    assert!(
        queue.len() >= n,
        "span moves {n} elements past queue end (SpanPlan contract violation)"
    );
    let (head, tail) = queue.as_slices();
    let first = head.len().min(n);
    (&head[..first], &tail[..n - first])
}

/// One side of a FIFO over a macro-tick span: the kernel on it moves `rate`
/// elements per cycle on the cycles `start..stop`. `exact` marks a greedy
/// port promised below its lane width ([`SpanPlan::exact_reads`] /
/// [`SpanPlan::exact_writes`](crate::SpanPlan::exact_writes)): each of its
/// ticks must find *exactly* `rate` elements (slots), where an ordinary port
/// needs at least that many.
///
/// [`SpanPlan::exact_reads`]: crate::SpanPlan::exact_reads
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanPort {
    /// First span cycle the port moves elements (`u64::MAX` ⇒ never).
    pub start: u64,
    /// One past the last cycle it does (`u64::MAX` ⇒ to the span's end).
    pub stop: u64,
    /// Elements per cycle (≥ 1 on an active port).
    pub rate: u16,
    /// Availability must equal `rate`, not merely reach it.
    pub exact: bool,
}

impl SpanPort {
    /// A side that moves nothing during the span.
    pub const IDLE: SpanPort = SpanPort {
        start: u64::MAX,
        stop: u64::MAX,
        rate: 0,
        exact: false,
    };

    /// Does this side move elements on cycle `t`?
    pub fn active_at(&self, t: u64) -> bool {
        self.start <= t && t < self.stop
    }

    /// Does this side move elements on any cycle of `from..to`?
    pub fn active_within(&self, from: u64, to: u64) -> bool {
        self.start.max(from) < self.stop.min(to)
    }

    /// Elements moved on the cycles before `t`.
    fn moved_before(&self, t: u64) -> i64 {
        i64::from(self.rate) * (t.min(self.stop).saturating_sub(self.start)) as i64
    }
}

/// `n / d` for `n ≥ 0`, skipping the hardware divide on the unit rates every
/// unfolded graph plans with.
#[inline]
fn div_rate(n: i64, d: i64) -> i64 {
    if d == 1 {
        n
    } else {
        n / d
    }
}

/// Start-of-cycle occupancy of one FIFO on span cycle `t`: `len` at the
/// span's start, plus the writer's pushes on earlier cycles (staged writes
/// commit at the end of their cycle), minus the reader's pops on earlier
/// cycles.
pub fn span_level(len: usize, writer: SpanPort, reader: SpanPort, t: u64) -> i64 {
    len as i64 + writer.moved_before(t) - reader.moved_before(t)
}

/// Why [`span_limit`]'s cycle is infeasible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanFault {
    /// The writer's tick finds the FIFO completely full — the one fault
    /// that is a clean stall (a halting writer ticks `Stalled`, port-inert)
    /// rather than a change of behaviour.
    Full,
    /// Anything else: the reader short of data, a port finding *some* but
    /// not enough, an exact port finding too much, or a reader dispatched
    /// ahead of its writer outrunning the buffered lead.
    Other,
}

/// First span cycle at which a promised tick on one FIFO would **fail**
/// under dense interleaving (`u64::MAX` when none ever does), and how — the
/// stream half of the macro-tick feasibility argument.
///
/// The FIFO starts the span with `len` of `cap` slots committed. Its writer
/// stages `writer.rate` elements on each of its cycles, readable one cycle
/// later (registered outputs); its reader pops `reader.rate` on each of
/// its cycles, immediately. So the start-of-cycle occupancy `Q(t)`
/// ([`span_level`]) is piecewise linear with breakpoints where a side
/// starts or stops, and every promised tick succeeds while `Q` stays inside
/// a band: a pop needs `Q(t) ≥ rr`; a push needs `wr` free slots at the
/// writer's tick, `Q(t) ≤ cap − wr` — relaxed by `rr` once a reader that
/// runs *earlier in node order* (`reader_first`) has popped within the same
/// cycle. An exact side pins its bound from both directions. The result is
/// the first cycle `Q` leaves the band, segment by segment.
///
/// One dispatch artefact rides along: a burst replays each participant's
/// whole span in node order, so a `reader_first` reader sees none of this
/// burst's pushes and can only consume the buffered lead.
pub fn span_limit(
    len: usize,
    cap: usize,
    writer: SpanPort,
    reader: SpanPort,
    reader_first: bool,
) -> (u64, SpanFault) {
    let (wr, rr) = (i64::from(writer.rate), i64::from(reader.rate));
    let mut q = len as i64;
    // Nothing moves before the earlier side starts.
    let mut t = writer.start.min(reader.start);
    let mut limit = (u64::MAX, SpanFault::Other);
    while t != u64::MAX {
        let (pushing, popping) = (writer.active_at(t), reader.active_at(t));
        let next = [writer.start, writer.stop, reader.start, reader.stop]
            .into_iter()
            .filter(|&b| b > t)
            .min()
            .unwrap_or(u64::MAX);
        let (mut lo, mut hi) = (i64::MIN, i64::MAX);
        if popping {
            lo = rr;
            if reader.exact {
                hi = rr;
            }
        }
        // `brim`: the occupancy at which the writer's tick finds no slot.
        let brim = cap as i64 + if popping && reader_first { rr } else { 0 };
        if pushing {
            hi = hi.min(brim - wr);
            if writer.exact {
                lo = lo.max(brim - wr);
            }
        }
        let slope = if pushing { wr } else { 0 } - if popping { rr } else { 0 };
        // The band's bound on the side `q` drifts toward is finite: a
        // positive slope means a writer (upper bound), a negative one a
        // reader (lower bound).
        let exit = if q < lo || q > hi {
            Some(0)
        } else if slope > 0 {
            Some(div_rate(hi - q, slope) + 1)
        } else if slope < 0 {
            Some(div_rate(q - lo, -slope) + 1)
        } else {
            None
        };
        if let Some(d) = exit {
            let x = t.saturating_add(d as u64);
            if x < next {
                // A clean stall: the writer finds no slot at all, and the
                // reader's tick of that cycle is not in trouble itself.
                let at = q + slope * d;
                let popped = !popping || (at >= rr && (!reader.exact || at == rr));
                let full = pushing && at == brim && popped;
                limit = (
                    x,
                    if full {
                        SpanFault::Full
                    } else {
                        SpanFault::Other
                    },
                );
                break;
            }
        }
        if next == u64::MAX {
            break;
        }
        // No exit before the breakpoint, so the drift stayed in-band: small.
        q += slope * (next - t) as i64;
        t = next;
    }
    if reader_first && writer.start != u64::MAX && reader.start != u64::MAX {
        let lead = reader.start.saturating_add(len as u64 / rr as u64);
        if lead < reader.stop && lead < limit.0 {
            limit = (lead, SpanFault::Other);
        }
    }
    limit
}

/// Occupancy high-water mark dense stepping would record on one FIFO over a
/// feasible span of `k` cycles (0 ⇒ nothing committed, nothing sampled).
///
/// Sampling the live queue after a batch is wrong in both directions. The
/// span dispatcher moves all of a writer's elements before its reader runs,
/// so mid-batch the queue transiently holds every push — a peak dense
/// stepping never exhibits when the reader drains concurrently. And
/// sampling after the reader's pops is only right by accident: dense
/// samples at every end-of-cycle commit, so the true peak is the maximum of
/// the post-commit length `Q(t + 1)` over the writer's push cycles `t`.
/// `Q` ([`span_level`]) is linear between the cycles where the reader
/// starts or stops, so that maximum sits at the first push, the last push,
/// or one of those two breakpoints. For unit rates the slope is `+1` then
/// `0` and the peak closes to `len + pushes − pops`, the final push
/// cycle's post-commit length.
pub fn span_peak(len: usize, writer: SpanPort, reader: SpanPort, k: u64) -> usize {
    let (first, last) = (writer.start.saturating_add(1), writer.stop.min(k));
    if first > last {
        return 0;
    }
    let peak = [first, last, reader.start, reader.stop]
        .into_iter()
        .map(|t| span_level(len, writer, reader, t.clamp(first, last)))
        .max()
        .expect("four candidates");
    debug_assert!(peak >= 0, "span peak {peak} below empty");
    peak as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_matches_paper_example() {
        // 2-bit pixels at 105 MHz ⇒ 210 Mbps (paper §III-B6).
        let s = StreamSpec::new("dfe-link", 2, 512);
        assert_eq!(s.bandwidth_mbps(105.0), 210.0);
    }

    #[test]
    fn staged_writes_are_invisible_until_commit() {
        let mut st = StreamState::new(StreamSpec::new("s", 2, 4));
        st.staged.push(7);
        assert!(!st.can_read());
        st.commit();
        assert!(st.can_read());
        assert_eq!(st.queue.pop_front(), Some(7));
    }

    #[test]
    fn capacity_counts_staged_elements() {
        let mut st = StreamState::new(StreamSpec::new("s", 2, 2));
        st.staged.push(1);
        st.staged.push(2);
        assert!(!st.can_write());
        st.commit();
        assert!(!st.can_write());
        st.queue.pop_front();
        assert!(st.can_write());
    }

    #[test]
    fn commit_reports_count_and_samples_occupancy_after_drain() {
        let mut st = StreamState::new(StreamSpec::new("s", 2, 8));
        st.staged.push(1);
        st.staged.push(2);
        assert_eq!(
            st.max_occupancy, 0,
            "occupancy must not count staged elements"
        );
        assert_eq!(st.commit(), 2);
        assert_eq!(st.max_occupancy, 2, "sampled after the drain");
        st.queue.pop_front();
        assert_eq!(st.commit(), 0, "empty commit moves nothing");
        assert_eq!(st.max_occupancy, 2, "high-water mark never regresses");
    }

    fn port(start: u64, rate: u16) -> SpanPort {
        SpanPort {
            start,
            stop: u64::MAX,
            rate,
            exact: false,
        }
    }

    fn limit(len: usize, cap: usize, w: SpanPort, r: SpanPort, reader_first: bool) -> u64 {
        span_limit(len, cap, w, r, reader_first).0
    }

    /// Regression (macro-tick span commits): a fill-while-drain batch must
    /// record the dense trajectory's peak — the start length when rates
    /// cancel — not the transient post-batch bulk and not the drained end
    /// state.
    #[test]
    fn span_commit_samples_trajectory_peak_not_batch_state() {
        let mut st = StreamState::new(StreamSpec::new("s", 2, 8));
        // Steady state: 3 elements queued, then a 4-cycle span in which the
        // writer pushes 4 and the reader pops 4 (dense: length pinned at 3).
        st.note_span(span_peak(3, port(0, 1), port(0, 1), 4));
        assert_eq!(
            st.max_occupancy, 3,
            "rate-matched span must sample the constant dense length"
        );
        // Fill-only span: 2 more pushes with a parked reader peak at 5.
        st.note_span(span_peak(3, port(0, 1), SpanPort::IDLE, 2));
        assert_eq!(st.max_occupancy, 5, "fill-only span peaks at the end");
        // Drain-only span: no commits happen, so no sample is taken even
        // though the queue was longer at span start than the recorded max.
        st.max_occupancy = 0;
        st.note_span(span_peak(5, SpanPort::IDLE, port(0, 1), 4));
        assert_eq!(st.max_occupancy, 0, "pop-only spans never sample");
    }

    /// A wide writer against a narrow late reader peaks *before* the span
    /// ends: the fill outruns the drain until the reader starts, then the
    /// level falls.
    #[test]
    fn span_peak_sits_at_the_readers_first_pop_when_the_drain_is_faster() {
        // len 2; writer +1/cycle from 0; reader −4/cycle from 3; k = 4.
        // Post-commit lengths: 3, 4, 5, then 5 − 4 + 1 = 2.
        assert_eq!(span_peak(2, port(0, 1), port(3, 4), 4), 5);
        // Writer faster than reader: the peak is the end state.
        assert_eq!(span_peak(2, port(0, 4), port(0, 1), 3), 2 + 3 * 3);
    }

    #[test]
    fn span_limit_unit_rate_cases() {
        // Reader alone drains the buffered lead.
        assert_eq!(limit(3, 8, SpanPort::IDLE, port(2, 1), false), 5);
        // Writer alone fills the headroom.
        assert_eq!(limit(3, 8, port(1, 1), SpanPort::IDLE, false), 6);
        // Rate-matched from an empty FIFO: the first pop finds nothing.
        assert_eq!(limit(0, 8, port(0, 1), port(0, 1), false), 0);
        // Rate-matched from a full FIFO: stuck unless the reader pops first.
        assert_eq!(limit(8, 8, port(0, 1), port(0, 1), false), 0);
        assert_eq!(limit(8, 8, port(0, 1), port(0, 1), true), 8);
        // Steady state never fails.
        assert_eq!(limit(3, 8, port(0, 1), port(0, 1), false), u64::MAX);
    }

    #[test]
    fn span_limit_exact_ports_need_a_steady_level() {
        let exact = |start, rate| SpanPort {
            exact: true,
            ..port(start, rate)
        };
        // A two-lane reader fed one element per cycle: exactly one queued
        // on every tick, forever.
        assert_eq!(limit(1, 8, port(0, 1), exact(0, 1), false), u64::MAX);
        // Two queued: the greedy tick would take both — refuse at once.
        assert_eq!(limit(2, 8, port(0, 1), exact(0, 1), false), 0);
        // A faster writer breaks the equality after the first tick.
        assert_eq!(limit(1, 8, port(0, 2), exact(0, 1), false), 1);
        // A two-lane writer into a FIFO drained one per cycle with one
        // slot free: exactly one slot on every tick.
        assert_eq!(limit(7, 8, exact(0, 1), port(0, 1), false), u64::MAX);
        // Without the drain the slot is gone after one push.
        assert_eq!(limit(7, 8, exact(0, 1), SpanPort::IDLE, false), 1);
    }

    #[test]
    fn fmem_accounting() {
        let s = StreamSpec::new("s", 16, 1024);
        assert_eq!(s.fmem_bits(), 16 * 1024);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = StreamSpec::new("s", 2, 0);
    }
}
