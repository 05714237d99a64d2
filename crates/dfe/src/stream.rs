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

/// One constant-rate stretch of a stream side over a burst: the kernel on
/// that end moves `rate` elements on each of the cycles `start..stop`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanRun {
    /// First cycle of the run.
    pub start: u64,
    /// One past its last cycle.
    pub stop: u64,
    /// Elements per cycle (≥ 1).
    pub rate: u16,
}

/// Append a run to a side (ascending, disjoint runs); an empty run is
/// skipped and one that continues the last at the same rate extends it.
pub fn push_run(side: &mut Vec<SpanRun>, start: u64, stop: u64, rate: u16) {
    push_run_from(side, 0, start, stop, rate);
}

/// [`push_run`] onto the side that starts at index `from` of `runs`.
fn push_run_from(runs: &mut Vec<SpanRun>, from: usize, start: u64, stop: u64, rate: u16) {
    if start >= stop {
        return;
    }
    let own = runs.len() > from;
    let side = runs;
    if let Some(last) = side.last_mut().filter(|_| own) {
        debug_assert!(last.stop <= start, "span runs overlap or are out of order");
        if last.stop == start && last.rate == rate {
            last.stop = stop;
            return;
        }
    }
    side.push(SpanRun { start, stop, rate });
}

/// Elements a side moves on the cycles before `t`.
pub fn moved_before(side: &[SpanRun], t: u64) -> u64 {
    let mut n = 0;
    for r in side {
        if r.start >= t {
            break;
        }
        n += u64::from(r.rate) * (t.min(r.stop) - r.start);
    }
    n
}

/// Elements a side moves on cycle `c`.
pub(crate) fn rate_at(side: &[SpanRun], c: u64) -> u64 {
    side.iter()
        .find(|r| c < r.stop)
        .filter(|r| r.start <= c)
        .map_or(0, |r| u64::from(r.rate))
}

/// The first run edge (start or stop) after cycle `c`.
fn next_edge(side: &[SpanRun], c: u64) -> u64 {
    side.iter()
        .find(|r| r.stop > c)
        .map_or(u64::MAX, |r| if r.start > c { r.start } else { r.stop })
}

/// The cycle of the move that brings a side's total to `n ≥ 1` elements —
/// the first `c` with `moved_before(c + 1) ≥ n` (`u64::MAX` ⇒ never).
pub fn reach(side: &[SpanRun], n: u64) -> u64 {
    debug_assert!(n >= 1, "reach needs a positive count");
    let mut moved = 0u64;
    for r in side {
        let rate = u64::from(r.rate);
        let more = rate.saturating_mul(r.stop - r.start);
        if moved.saturating_add(more) >= n {
            return r.start + (n - moved).div_ceil(rate) - 1;
        }
        moved += more;
    }
    u64::MAX
}

/// Start-of-cycle occupancy of one FIFO on burst cycle `t`: `len` at the
/// burst's start, plus the writer's pushes on earlier cycles (staged writes
/// commit at the end of their cycle), minus the reader's pops on earlier
/// cycles.
pub fn span_level(len: usize, writer: &[SpanRun], reader: &[SpanRun], t: u64) -> i64 {
    len as i64 + moved_before(writer, t) as i64 - moved_before(reader, t) as i64
}

/// Occupancy high-water mark dense stepping would record on one FIFO over a
/// burst of `k` cycles (0 ⇒ nothing committed, nothing sampled).
///
/// Sampling the live queue after a batch is wrong in both directions. The
/// span dispatcher moves all of a writer's elements before its reader runs,
/// so mid-batch the queue transiently holds every push — a peak dense
/// stepping never exhibits when the reader drains concurrently. And
/// sampling after the reader's pops is only right by accident: dense
/// samples at every end-of-cycle commit, so the true peak is the maximum of
/// the post-commit length `Q(t + 1)` over the writer's push cycles `t`.
/// `Q` ([`span_level`]) is linear between run edges, so over each writer
/// run that maximum sits at the run's first or last push or at an edge of
/// a reader run inside it.
pub fn span_peak(len: usize, writer: &[SpanRun], reader: &[SpanRun], k: u64) -> usize {
    let mut peak = None;
    for w in writer {
        let (first, last) = (w.start.saturating_add(1), w.stop.min(k));
        if first > last {
            break;
        }
        let edges = reader.iter().flat_map(|r| [r.start, r.stop]);
        let run_peak = [first, last]
            .into_iter()
            .chain(edges.filter(|&e| first < e && e < last))
            .map(|t| span_level(len, writer, reader, t))
            .max()
            .expect("two candidates");
        peak = peak.max(Some(run_peak));
    }
    let peak = peak.unwrap_or(0);
    debug_assert!(peak >= 0, "span peak {peak} below empty");
    peak as usize
}

/// One port of a greedy span side as [`follow`] sees it: what the kernel on
/// this end finds at its tick on cycle `t` is `base` (the committed
/// elements of an input, the free slots of an output, at the burst's start)
/// plus what the other end moved before — its side `other`, counted through
/// cycle `t + shift − 1` — less what this end moved itself (`mine`).
///
/// `shift` is the dense-stepping order artefact: an input sees pushes one
/// cycle late (staged writes commit at the end of their cycle), so 0; an
/// output whose reader ticks *earlier* in node order sees that cycle's pops
/// too, so 1; a later reader's pops free their slots for the next cycle, 0.
#[derive(Clone, Copy, Debug)]
pub struct SpanFeed<'a> {
    /// The other end's side.
    pub other: &'a [SpanRun],
    /// 1 when the other end's moves on cycle `t` count at `t` (see above).
    pub shift: u64,
    /// Elements (input) or free slots (output) at the burst's start.
    pub base: i64,
    /// Elements this end has moved so far.
    pub mine: u64,
    /// An input port (its data decides a stall's verdict).
    pub input: bool,
    /// Set by [`follow`] once the port held the side back — a tick found
    /// less here than it wanted, or a stall waited on it. A port that never
    /// did cannot change the schedule by offering more.
    pub bound: bool,
}

impl<'a> SpanFeed<'a> {
    /// An input port holding `len` committed elements, fed by `writer`.
    pub fn input(writer: &'a [SpanRun], len: usize) -> Self {
        Self { other: writer, shift: 0, base: len as i64, mine: 0, input: true, bound: false }
    }

    /// An output port with `room` free slots, drained by `reader` — which
    /// ticks earlier in node order when `reader_first`.
    pub fn output(reader: &'a [SpanRun], room: usize, reader_first: bool) -> Self {
        Self {
            other: reader,
            shift: u64::from(reader_first),
            base: room as i64,
            mine: 0,
            input: false,
            bound: false,
        }
    }

    /// What the tick on cycle `t` finds.
    pub fn avail(&self, t: u64) -> i64 {
        self.base + moved_before(self.other, t + self.shift) as i64 - self.mine as i64
    }

    /// The first cycle `≥ t` whose tick finds at least one, `mine` held
    /// (`u64::MAX` ⇒ never within the other end's runs).
    pub fn ready(&self, t: u64) -> u64 {
        let need = 1 - self.base + self.mine as i64;
        if need <= moved_before(self.other, t + self.shift) as i64 {
            return t;
        }
        match reach(self.other, need as u64) {
            u64::MAX => u64::MAX,
            c => (c + 1 - self.shift).max(t),
        }
    }
}

/// A stretch of ticks on which a greedy side moved nothing, and the first
/// of them on which some input port held data (the stall's verdict turns
/// `Stalled` there; `start` when the side has no input).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanStall {
    pub start: u64,
    pub stop: u64,
    pub fed: u64,
}

/// How a greedy side's schedule ended (see [`follow`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FollowEnd {
    /// Every element moved; the last tick was the cycle before this one.
    Done(u64),
    /// Still going at the horizon.
    Horizon,
    /// A strict side could not move its full count on this cycle.
    Break(u64),
}

/// Schedule a greedy span side from cycle `t`: on every tick move
/// `m = min(lanes, left, every port's availability)` elements on every
/// port, until `left` elements have moved or the horizon `h`. Appends the
/// moves to `runs` and each stretch of zero-move ticks to `stalls`; a
/// `strict` side (a lockstep promise) must move `min(lanes, left)` on every
/// tick and breaks where it cannot. Between stalls the availability of every
/// port only grows (the kernel moves nothing), so a stall lasts until every
/// port is [ready](SpanFeed::ready).
///
/// Runs come out at run-length cost: a rate holds while a port's
/// availability stays pinned at it (the lane count, or a port fed at exactly
/// that rate) and every other port stays above it, piecewise between the
/// other ends' run edges.
#[allow(clippy::too_many_arguments)]
pub fn follow(
    ports: &mut [SpanFeed<'_>],
    lanes: u64,
    mut left: u64,
    strict: bool,
    mut t: u64,
    h: u64,
    runs: &mut Vec<SpanRun>,
    stalls: &mut Vec<SpanStall>,
) -> FollowEnd {
    let from = runs.len();
    while left > 0 {
        if t >= h {
            return FollowEnd::Horizon;
        }
        let want = lanes.min(left);
        let mut avail = i64::MAX;
        for p in ports.iter_mut() {
            let a = p.avail(t);
            p.bound |= a < want as i64;
            avail = avail.min(a);
        }
        let m = want.min(avail.max(0) as u64);
        if strict && m < want {
            return FollowEnd::Break(t);
        }
        if m == 0 {
            let ready = ports.iter().map(|p| p.ready(t)).max().unwrap_or(t);
            let fed = ports
                .iter()
                .filter(|p| p.input)
                .map(|p| p.ready(t))
                .min()
                .unwrap_or(t);
            stalls.push(SpanStall {
                start: t,
                stop: ready.min(h),
                fed: fed.min(ready).min(h),
            });
            if ready >= h {
                return FollowEnd::Horizon;
            }
            t = ready;
            continue;
        }
        let d = run_len(ports, m, lanes, left, t, h);
        push_run_from(runs, from, t, t + d, m as u16);
        for p in ports.iter_mut() {
            p.mine += m * d;
        }
        left -= m * d;
        t += d;
    }
    FollowEnd::Done(t)
}

/// Ticks from `t` on which a greedy side keeps moving exactly `m` (≥ 1, the
/// count of tick `t` itself) — see [`follow`].
fn run_len(ports: &[SpanFeed<'_>], m: u64, lanes: u64, left: u64, t: u64, h: u64) -> u64 {
    let d_max = (h - t).min(left / m);
    if d_max <= 1 {
        return 1;
    }
    let end = t + d_max;
    let mine = |p: &SpanFeed<'_>, s: u64| p.avail(s) - (m * (s - t)) as i64;
    let mut s = t;
    loop {
        // Every port's per-tick gain is constant on `s..e`.
        let e = ports
            .iter()
            .map(|p| next_edge(p.other, s + p.shift).saturating_sub(p.shift))
            .min()
            .unwrap_or(u64::MAX)
            .min(end);
        if s > t {
            // A new stretch: the tick moves `m` only if nothing fell below it
            // and something still holds it there.
            let low = ports.iter().map(|p| mine(p, s)).min().unwrap_or(i64::MAX);
            if low.min(lanes as i64) != m as i64 {
                return s - t;
            }
        }
        let mut pinned = lanes == m;
        let mut exit = u64::MAX;
        for p in ports {
            let v = mine(p, s);
            let slope = rate_at(p.other, s + p.shift) as i64 - m as i64;
            pinned |= v == m as i64 && slope == 0;
            if slope < 0 {
                exit = exit.min(s + ((v - m as i64) / -slope) as u64 + 1);
            }
        }
        if !pinned {
            return s + 1 - t;
        }
        if exit < e {
            return exit - t;
        }
        if e >= end {
            return d_max;
        }
        s = e;
    }
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

    fn port(start: u64, rate: u16) -> Vec<SpanRun> {
        vec![SpanRun { start, stop: u64::MAX / 4, rate }]
    }

    fn peak(len: usize, w: Vec<SpanRun>, r: Vec<SpanRun>, k: u64) -> usize {
        span_peak(len, &w, &r, k)
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
        st.note_span(peak(3, port(0, 1), port(0, 1), 4));
        assert_eq!(
            st.max_occupancy, 3,
            "rate-matched span must sample the constant dense length"
        );
        // Fill-only span: 2 more pushes with a parked reader peak at 5.
        st.note_span(peak(3, port(0, 1), vec![], 2));
        assert_eq!(st.max_occupancy, 5, "fill-only span peaks at the end");
        // Drain-only span: no commits happen, so no sample is taken even
        // though the queue was longer at span start than the recorded max.
        st.max_occupancy = 0;
        st.note_span(peak(5, vec![], port(0, 1), 4));
        assert_eq!(st.max_occupancy, 0, "pop-only spans never sample");
    }

    /// A wide writer against a narrow late reader peaks *before* the span
    /// ends: the fill outruns the drain until the reader starts, then the
    /// level falls.
    #[test]
    fn span_peak_sits_at_the_readers_first_pop_when_the_drain_is_faster() {
        // len 2; writer +1/cycle from 0; reader −4/cycle from 3; k = 4.
        // Post-commit lengths: 3, 4, 5, then 5 − 4 + 1 = 2.
        assert_eq!(peak(2, port(0, 1), port(3, 4), 4), 5);
        // Writer faster than reader: the peak is the end state.
        assert_eq!(peak(2, port(0, 4), port(0, 1), 3), 2 + 3 * 3);
    }

    /// Schedule one greedy reader of `lanes` against `writer` from `len`
    /// queued elements: its runs and stalls.
    fn read_side(
        len: i64,
        writer: &[SpanRun],
        lanes: u64,
        left: u64,
        strict: bool,
    ) -> (Vec<SpanRun>, Vec<SpanStall>, FollowEnd) {
        let mut feed = [SpanFeed::input(writer, len as usize)];
        let (mut runs, mut stalls) = (Vec::new(), Vec::new());
        let end = follow(&mut feed, lanes, left, strict, 0, 1000, &mut runs, &mut stalls);
        (runs, stalls, end)
    }

    #[test]
    fn follow_unit_rate_cases() {
        let run = |start, stop, rate| SpanRun { start, stop, rate };
        // A lead of 3 drains at once; then each push is read the cycle
        // after it commits.
        let writer = [run(5, 8, 1)];
        let (runs, stalls, end) = read_side(3, &writer, 1, 6, false);
        assert_eq!(runs, [run(0, 3, 1), run(6, 9, 1)]);
        assert_eq!(stalls, [SpanStall { start: 3, stop: 6, fed: 6 }]);
        assert_eq!(end, FollowEnd::Done(9));
        // A lockstep reader breaks where the lead runs out instead.
        let (_, _, end) = read_side(3, &writer, 1, 6, true);
        assert_eq!(end, FollowEnd::Break(3));
        // Starved past the writer's last push: still waiting at the horizon.
        let (_, _, end) = read_side(0, &writer, 1, 10, false);
        assert_eq!(end, FollowEnd::Horizon);
    }

    #[test]
    fn follow_wide_side_settles_on_the_feed_rate() {
        let run = |start, stop, rate| SpanRun { start, stop, rate };
        // Four lanes, five queued, fed two per cycle: 4, then 1 + 2, then
        // the feed rate.
        let writer = [run(0, 10, 2)];
        let (runs, _, _) = read_side(5, &writer, 4, 17, false);
        assert_eq!(runs, [run(0, 1, 4), run(1, 2, 3), run(2, 7, 2)]);
        // A writer at the lane rate never lets a full reader drop below it.
        let writer = [run(0, 10, 4)];
        let (runs, _, _) = read_side(4, &writer, 4, 40, false);
        assert_eq!(runs, [run(0, 10, 4)]);
    }

    /// A side with runs separated by gaps and at different rates.
    #[test]
    fn chained_sides_walk_every_run_edge() {
        let mut w = Vec::new();
        push_run(&mut w, 0, 4, 1);
        push_run(&mut w, 4, 6, 1); // contiguous, same rate: merged
        push_run(&mut w, 10, 12, 2);
        assert_eq!(w.len(), 2);
        assert_eq!(moved_before(&w, 11), 6 + 2);
        assert_eq!(reach(&w, 7), 10, "the second run's first cycle brings 8");
        assert_eq!(reach(&w, 11), u64::MAX);
        // Over 8 cycles the level peaks at 2 after the first run's commits.
        let mut r = Vec::new();
        push_run(&mut r, 2, 8, 1);
        assert_eq!(peak(0, w, r, 8), 2);
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
