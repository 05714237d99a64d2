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

    /// Elements its reader has popped so far.
    pub fn popped(&self) -> u64 {
        self.pushed - self.total_len() as u64
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
    /// ([`Flow::peak`]; 0 ⇒ the span committed nothing, so — matching
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

/// What one end of a FIFO moves on each cycle of a planned burst: `on`
/// elements on the first `a` of every `p` cycles, the pattern's first cycle
/// being congruent to `off` modulo `p` — a *duty-cycled* rate. A constant
/// rate is the case `p == 1` (every constructor normalizes to it), so two
/// rates are equal exactly when they move the same elements on every cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Rate {
    on: u32,
    a: u32,
    p: u32,
    off: u32,
}

impl Default for Rate {
    fn default() -> Self {
        Self::flat(0)
    }
}

impl From<u64> for Rate {
    fn from(rate: u64) -> Self {
        Self::flat(rate)
    }
}

impl Rate {
    /// `rate` elements on every cycle.
    pub const fn flat(rate: u64) -> Self {
        debug_assert!(rate <= u32::MAX as u64, "a rate's count fits u32");
        Self { on: rate as u32, a: 1, p: 1, off: 0 }
    }

    /// `on` elements on each of the first `a` cycles of every `p`, the
    /// first period starting on cycle `from`.
    pub fn duty(on: u64, a: u64, p: u64, from: u64) -> Self {
        assert!(a <= p && p >= 1, "a duty cycle of {a} in {p}");
        assert!(on.max(p) <= u64::from(u32::MAX), "a rate's count and period fit u32");
        match (on, a) {
            (0, _) | (_, 0) => Self::flat(0),
            _ if a == p => Self::flat(on),
            _ => Self { on: on as u32, a: a as u32, p: p as u32, off: (from % p) as u32 },
        }
    }

    /// Elements on an active cycle.
    pub fn on(&self) -> u64 {
        u64::from(self.on)
    }

    /// The pattern's period (1: a constant rate).
    pub fn period(&self) -> u64 {
        u64::from(self.p)
    }

    /// A constant rate.
    pub fn is_flat(&self) -> bool {
        self.p == 1
    }

    /// The same pattern `d` cycles later.
    pub fn later(self, d: u64) -> Self {
        let p = self.period();
        Self { off: ((u64::from(self.off) + d % p) % p) as u32, ..self }
    }

    /// Cycle `c`'s place in the pattern (0: a period's first cycle).
    fn phase(&self, c: u64) -> u64 {
        let p = self.period();
        (c % p + p - u64::from(self.off)) % p
    }

    /// Elements moved on cycle `c`.
    pub fn at(&self, c: u64) -> u64 {
        if self.p == 1 || self.phase(c) < u64::from(self.a) {
            self.on()
        } else {
            0
        }
    }

    /// Active cycles before `x`, from a fixed origin (differences only).
    fn actives(&self, x: u64) -> u64 {
        let (a, p) = (u64::from(self.a), self.period());
        let z = x + p - u64::from(self.off);
        z / p * a + (z % p).min(a)
    }

    /// Elements moved on the cycles `from..to`.
    pub fn count(&self, from: u64, to: u64) -> u64 {
        debug_assert!(from <= to, "rate counted backwards");
        if self.p == 1 {
            return self.on() * (to - from);
        }
        self.on() * (self.actives(to) - self.actives(from))
    }

    /// The first cycle after `c` that moves a different count
    /// (`u64::MAX`: none).
    pub fn next_change(&self, c: u64) -> u64 {
        if self.is_flat() {
            return u64::MAX;
        }
        let (a, p) = (u64::from(self.a), self.period());
        let ph = self.phase(c);
        c + if ph < a { a - ph } else { p - ph }
    }

    /// The first cycle `y ≥ from` by which the cycles `from..y` have moved
    /// at least `n` elements (`u64::MAX`: never).
    pub fn reach(&self, from: u64, n: u64) -> u64 {
        if n == 0 {
            return from;
        }
        if self.on == 0 {
            return u64::MAX;
        }
        let (a, p) = (u64::from(self.a), self.period());
        // The active cycle that completes `n`, counted from the origin
        // (beyond any cycle a burst plans to: never).
        let target = self.actives(from).checked_add(n.div_ceil(self.on()) - 1);
        let z = target.and_then(|x| (x / a).checked_mul(p)?.checked_add(x % a + 1));
        z.map_or(u64::MAX, |z| z - (p - u64::from(self.off)))
    }

    /// The cycles in `lo..lo + p` on which the rate switches on and off
    /// (the first cycle of each run), for a rate with a period above 1.
    fn edges(&self, lo: u64) -> [u64; 2] {
        let p = self.period();
        [0, u64::from(self.a)].map(|edge| lo + (edge + p - self.phase(lo)) % p)
    }
}

/// A FIFO level (or free room) as a function of the cycle `y` it is read
/// on: `base`, plus what `up` moves on the cycles `from..y + shift`, minus
/// what `down` moves on its own. Between two changes of either rate it is
/// linear, and one period later it has moved by the same amount at every
/// cycle, so its extremes over any stretch are at a handful of cycles of
/// the stretch's first and last period ([`Level::holds_until`],
/// [`Level::greatest`]).
#[derive(Clone, Copy, Debug)]
pub struct Level {
    pub base: i64,
    /// `(rate, from, shift)`.
    pub up: (Rate, u64, u64),
    pub down: (Rate, u64, u64),
}

impl Level {
    /// The level on cycle `y`.
    pub fn at(&self, y: u64) -> i64 {
        let term = |(r, from, shift): (Rate, u64, u64)| r.count(from, y + shift) as i64;
        self.base + term(self.up) - term(self.down)
    }

    /// The period every rate involved repeats with, `mask`'s included:
    /// `None` when two of them have different periods above 1.
    fn period(&self, mask: Rate) -> Option<u64> {
        [self.up.0, self.down.0, mask].iter().try_fold(1, |p, r| match (p, r.period()) {
            (p, 1) => Some(p),
            (1, q) => Some(q),
            (p, q) => (p == q).then_some(p),
        })
    }

    /// The level's extreme (`least` or greatest) over the cycles of
    /// `lo..hi` on which `mask` moves, within one period (`None`: no such
    /// cycle). The level is linear between the cycles where a rate (as the
    /// level reads it) or the mask switches, so the walk visits only the
    /// first and the last cycle of each of those runs.
    fn extreme(&self, mask: Rate, lo: u64, hi: u64, least: bool) -> Option<i64> {
        let (up, down) = ((self.up.0, self.up.2), (self.down.0, self.down.2));
        let mut cuts = [hi; 7];
        let mut n = 0;
        for (r, shift) in [up, down, (mask, 0)] {
            if !r.is_flat() {
                for edge in r.edges(lo + shift) {
                    if (lo + 1..hi).contains(&(edge - shift)) {
                        (cuts[n], n) = (edge - shift, n + 1);
                    }
                }
            }
        }
        cuts[..n].sort_unstable();
        let (mut best, mut y, mut level): (Option<i64>, _, _) = (None, lo, self.at(lo));
        for &cut in &cuts[..=n] {
            if cut == y {
                continue;
            }
            let slope = up.0.at(y + up.1) as i64 - down.0.at(y + down.1) as i64;
            if mask.at(y) > 0 {
                let last = level + slope * (cut - 1 - y) as i64;
                let v = if least { level.min(last) } else { level.max(last) };
                best = Some(best.map_or(v, |b| if least { b.min(v) } else { b.max(v) }));
            }
            (level, y) = (level + slope * (cut - y) as i64, cut);
        }
        best
    }

    /// What the level moves by over `l` cycles, a multiple of every rate's
    /// period.
    fn drift(&self, l: u64) -> i64 {
        let per = |r: Rate| (r.on() * u64::from(r.a) * (l / r.period())) as i64;
        per(self.up.0) - per(self.down.0)
    }

    /// The first cycle of `lo..hi` from which the level may fall below
    /// `need` on a cycle `mask` moves on: `hi` when it never does, `lo` when
    /// it does in the first period or the rates do not share one. Checked
    /// period by period from `lo`: the least level of a period falls by the
    /// same amount each period.
    pub fn holds_until(&self, mask: Rate, need: i64, lo: u64, hi: u64) -> u64 {
        let Some(l) = self.period(mask) else {
            return lo;
        };
        if lo >= hi {
            return hi;
        }
        let Some(least) = self.extreme(mask, lo, hi.min(lo + l), true) else {
            return hi;
        };
        if least < need {
            return lo;
        }
        let drift = self.drift(l);
        if drift >= 0 {
            return hi;
        }
        let periods = ((least - need) / -drift) as u64 + 1;
        hi.min(lo.saturating_add(periods.saturating_mul(l)))
    }

    /// The greatest level over the cycles of `lo..hi` on which `mask`
    /// moves (`None`: no such cycle): each cycle's level moves by the same
    /// amount every period, so it peaks in the first or the last period.
    pub fn greatest(&self, mask: Rate, lo: u64, hi: u64) -> Option<i64> {
        if lo >= hi {
            return None;
        }
        match self.period(mask) {
            Some(l) => {
                let first = self.extreme(mask, lo, hi.min(lo + l), false);
                let last = self.extreme(mask, hi.saturating_sub(l).max(lo), hi, false);
                first.max(last)
            }
            // Unreachable while the planner keeps every flow's periods
            // compatible; cycle by cycle otherwise.
            None => (lo..hi).filter(|&y| mask.at(y) > 0).map(|y| self.at(y)).max(),
        }
    }
}

/// The running counts of one FIFO over a planned burst: what its writer
/// pushed and its reader popped before cycle `at`, the [`Rate`] each end
/// moves at from `at` on (and what they moved on the cycle before), and
/// the occupancy high-water mark dense stepping records before `at`. Every
/// count the planner reads is O(1) from these; a rate change advances them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Flow {
    /// Committed length at the burst's start.
    pub len: u64,
    at: u64,
    pushed: u64,
    popped: u64,
    push: Rate,
    pop: Rate,
    /// The counts moved on cycle `at − 1`.
    was: (u64, u64),
    peak: u64,
}

impl Flow {
    /// A FIFO holding `len` committed elements when the burst starts.
    pub fn new(len: usize) -> Self {
        Self { len: len as u64, ..Self::default() }
    }

    /// Elements pushed on the cycles before `x` (at or after the last
    /// rate change).
    pub fn pushed_before(&self, x: u64) -> u64 {
        debug_assert!(x >= self.at, "flow read before its last change");
        self.pushed + self.push.count(self.at, x)
    }

    /// Elements popped on the cycles before `x` (see [`Flow::pushed_before`]).
    pub fn popped_before(&self, x: u64) -> u64 {
        debug_assert!(x >= self.at, "flow read before its last change");
        self.popped + self.pop.count(self.at, x)
    }

    /// The elements the writer and the reader move on cycle `c` (no earlier
    /// than the cycle before the last change).
    pub fn rates_on(&self, c: u64) -> (u64, u64) {
        if c >= self.at {
            (self.push.at(c), self.pop.at(c))
        } else {
            debug_assert_eq!(c + 1, self.at, "flow rates read too far back");
            self.was
        }
    }

    /// The writer's and the reader's rates from the last change on.
    pub fn rates(&self) -> (Rate, Rate) {
        (self.push, self.pop)
    }

    /// The writer's pushes before cycle `y` as a [`Level`] term.
    pub fn pushes(&self) -> (Rate, u64, u64) {
        (self.push, self.at, 0)
    }

    /// The reader's pops before cycle `y + shift` as a [`Level`] term.
    pub fn pops(&self, shift: u64) -> (Rate, u64, u64) {
        (self.pop, self.at, shift)
    }

    /// Elements pushed and popped before the last change.
    pub fn moved(&self) -> (u64, u64) {
        (self.pushed, self.popped)
    }

    /// Advance the counts to cycle `t`, sampling the peak over the push
    /// cycles passed: the post-commit length is linear between changes, so
    /// it peaks on the first or the last of them — of each period, for a
    /// duty-cycled rate ([`Level::greatest`]).
    fn advance(&mut self, t: u64) {
        debug_assert!(t >= self.at, "flow changes out of order");
        if t == self.at {
            return;
        }
        let d = t - self.at;
        let level = self.len + self.pushed - self.popped;
        if self.push.is_flat() && self.pop.is_flat() {
            if self.push.on > 0 {
                let step = self.push.on() as i64 - self.pop.on() as i64;
                let first = level as i64 + step;
                let last = level as i64 + step * d as i64;
                self.peak = self.peak.max(first.max(last) as u64);
            }
        } else {
            // The post-commit length after cycle `c`: its pushes committed.
            let after = Level {
                base: level as i64,
                up: (self.push, self.at, 1),
                down: (self.pop, self.at, 1),
            };
            if let Some(peak) = after.greatest(self.push, self.at, t) {
                self.peak = self.peak.max(peak as u64);
            }
        }
        self.pushed = self.pushed_before(t);
        self.popped = self.popped_before(t);
        self.was = (self.push.at(t - 1), self.pop.at(t - 1));
        self.at = t;
    }

    /// The writer pushes `rate` from cycle `t` on.
    pub fn set_push(&mut self, t: u64, rate: impl Into<Rate>) {
        self.advance(t);
        self.push = rate.into();
    }

    /// The reader pops `rate` from cycle `t` on.
    pub fn set_pop(&mut self, t: u64, rate: impl Into<Rate>) {
        self.advance(t);
        self.pop = rate.into();
    }

    /// Occupancy high-water mark dense stepping would record over the
    /// cycles before `k`: the largest post-commit length on a cycle the
    /// writer pushed (0 ⇒ nothing committed, nothing sampled).
    ///
    /// Sampling the live queue after a batch is wrong in both directions.
    /// The span dispatcher moves all of a writer's elements before its
    /// reader runs, so mid-batch the queue transiently holds every push — a
    /// peak dense stepping never exhibits when the reader drains
    /// concurrently. And sampling after the reader's pops is only right by
    /// accident: dense samples at every end-of-cycle commit.
    pub fn peak(&self, k: u64) -> usize {
        let mut f = *self;
        f.advance(k);
        f.peak as usize
    }
}

/// One port of a greedy side as it ticks on some cycle: the elements (an
/// input) or free slots (an output) it finds, and how many more it finds
/// on each following cycle from the other end's moves while that end's
/// rate holds (before this side's own moves).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Gauge {
    /// Elements or free slots found on the tick.
    pub avail: i64,
    /// More found on each following tick, from the other end alone.
    pub gain: i64,
    /// An input port (its data decides a wait's verdict).
    pub input: bool,
}

/// What a greedy side does from a tick on, while every gauge's gain holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// `m ≥ 1` elements through every port on each of `ticks ≥ 1` ticks.
    Move { m: u64, ticks: u64 },
    /// Nothing moves for `ticks` ticks (`u64::MAX` ⇒ not at these gains),
    /// the first `fed` of them with every input empty.
    Wait { ticks: u64, fed: u64 },
}

/// The closed form of a greedy side: on every tick it moves
/// `m = min(lanes, left, every port's avail)` elements through every port
/// (`left ≥ 1`). A move repeats while `left` lasts, no port falls below it
/// and something holds it there — the lane count, or a port gaining
/// exactly `m` per tick; a wait lasts until every port holds an element.
pub fn greedy(gauges: impl Iterator<Item = Gauge> + Clone, lanes: u64, left: u64) -> Step {
    debug_assert!(left >= 1, "a finished side does not tick");
    let avail = gauges.clone().map(|g| g.avail).min().unwrap_or(i64::MAX);
    let m = lanes.min(left).min(avail.max(0) as u64);
    if m == 0 {
        let ready = |g: Gauge| match g.avail {
            a if a >= 1 => 0,
            _ if g.gain <= 0 => u64::MAX,
            // ⌈(1 − a) / gain⌉ ticks until it holds one.
            a => ((g.gain - a) / g.gain) as u64,
        };
        let ticks = gauges.clone().map(ready).max().unwrap_or(0);
        let fed = gauges.filter(|g| g.input).map(ready).min().unwrap_or(0);
        return Step::Wait { ticks, fed: fed.min(ticks) };
    }
    let mut ticks = left / m;
    let mut pinned = m == lanes;
    for g in gauges {
        let slope = g.gain - m as i64;
        if slope < 0 {
            ticks = ticks.min(((g.avail - m as i64) / -slope) as u64 + 1);
        }
        pinned |= g.avail == m as i64 && slope == 0;
    }
    Step::Move { m, ticks: if pinned { ticks } else { 1 } }
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

    /// Regression (macro-tick span commits): a fill-while-drain batch must
    /// record the dense trajectory's peak — the start length when rates
    /// cancel — not the transient post-batch bulk and not the drained end
    /// state.
    #[test]
    fn span_commit_samples_trajectory_peak_not_batch_state() {
        let mut st = StreamState::new(StreamSpec::new("s", 2, 8));
        // Steady state: 3 elements queued, then a 4-cycle span in which the
        // writer pushes 4 and the reader pops 4 (dense: length pinned at 3).
        let mut f = Flow::new(3);
        f.set_push(0, 1);
        f.set_pop(0, 1);
        st.note_span(f.peak(4));
        assert_eq!(
            st.max_occupancy, 3,
            "rate-matched span must sample the constant dense length"
        );
        // Fill-only span: 2 more pushes with a parked reader peak at 5.
        let mut f = Flow::new(3);
        f.set_push(0, 1);
        st.note_span(f.peak(2));
        assert_eq!(st.max_occupancy, 5, "fill-only span peaks at the end");
        // Drain-only span: no commits happen, so no sample is taken even
        // though the queue was longer at span start than the recorded max.
        st.max_occupancy = 0;
        let mut f = Flow::new(5);
        f.set_pop(0, 1);
        st.note_span(f.peak(4));
        assert_eq!(st.max_occupancy, 0, "pop-only spans never sample");
    }

    /// A wide writer against a narrow late reader peaks *before* the span
    /// ends: the fill outruns the drain until the reader starts, then the
    /// level falls.
    #[test]
    fn span_peak_sits_at_the_readers_first_pop_when_the_drain_is_faster() {
        // len 2; writer +1/cycle from 0; reader −4/cycle from 3; k = 4.
        // Post-commit lengths: 3, 4, 5, then 5 − 4 + 1 = 2.
        let mut f = Flow::new(2);
        f.set_push(0, 1);
        f.set_pop(3, 4);
        assert_eq!(f.peak(4), 5);
        // Writer faster than reader: the peak is the end state.
        let mut f = Flow::new(2);
        f.set_push(0, 4);
        f.set_pop(0, 1);
        assert_eq!(f.peak(3), 2 + 3 * 3);
    }

    fn input(avail: i64, gain: i64) -> Gauge {
        Gauge { avail, gain, input: true }
    }

    #[test]
    fn follow_unit_rate_cases() {
        // A lead of 3 drains at once, one per tick, while no push comes.
        assert_eq!(greedy([input(3, 0)].into_iter(), 1, 6), Step::Move { m: 1, ticks: 3 });
        // Then it waits (a lockstep side breaks here instead) …
        let never = Step::Wait { ticks: u64::MAX, fed: u64::MAX };
        assert_eq!(greedy([input(0, 0)].into_iter(), 1, 3), never);
        // … until the writer starts: its first push is read the cycle after
        // it commits, and from then on one per cycle, pinned at the feed.
        assert_eq!(greedy([input(0, 1)].into_iter(), 1, 3), Step::Wait { ticks: 1, fed: 1 });
        assert_eq!(greedy([input(1, 1)].into_iter(), 1, 3), Step::Move { m: 1, ticks: 3 });
        // A side without inputs (a writer on a full FIFO) waits `Stalled`.
        let full = Gauge { avail: 0, gain: 2, input: false };
        assert_eq!(greedy([full].into_iter(), 1, 3), Step::Wait { ticks: 1, fed: 0 });
    }

    #[test]
    fn follow_wide_side_settles_on_the_feed_rate() {
        // Four lanes, five queued, fed two per cycle: 4, then 1 + 2, then
        // the feed rate for the rest of the 17.
        assert_eq!(greedy([input(5, 2)].into_iter(), 4, 17), Step::Move { m: 4, ticks: 1 });
        assert_eq!(greedy([input(3, 2)].into_iter(), 4, 13), Step::Move { m: 3, ticks: 1 });
        assert_eq!(greedy([input(2, 2)].into_iter(), 4, 10), Step::Move { m: 2, ticks: 5 });
        // A writer at the lane rate never lets a full reader drop below it.
        assert_eq!(greedy([input(4, 4)].into_iter(), 4, 40), Step::Move { m: 4, ticks: 10 });
        // The narrowest port sets the move, the fastest-falling one its end.
        let out = Gauge { avail: 9, gain: 0, input: false };
        assert_eq!(greedy([input(6, 3), out].into_iter(), 4, 40), Step::Move { m: 4, ticks: 2 });
    }

    /// A flow whose ends change rate at several cycles: the counts and the
    /// peak walk every change.
    #[test]
    fn chained_sides_walk_every_run_edge() {
        let mut f = Flow::new(0);
        f.set_push(0, 1);
        f.set_pop(2, 1);
        f.set_push(6, 0);
        f.set_pop(8, 0);
        // Over 8 cycles the level peaks at 2 after the first pushes.
        assert_eq!(f.peak(8), 2);
        f.set_push(10, 2);
        assert_eq!(f.pushed_before(11), 6 + 2);
        assert_eq!(f.popped_before(11), 6);
        assert_eq!(f.rates_on(9), (0, 0));
        assert_eq!(f.rates_on(10), (2, 0));
        // The last run's first cycle brings it to 2 again, its second to 4.
        assert_eq!(f.peak(11), 2);
        assert_eq!(f.peak(12), 4);
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
