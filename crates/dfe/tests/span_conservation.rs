//! Span-conservation ledger for macro-tick dispatch (seeded via
//! `qnn-testkit`): random span-capable pipelines at random FIFO
//! capacities, with and without injected stalls. Whatever mix of
//! per-element steps and bursts a run takes, every element must be
//! accounted for — each map kernel's busy count equals the element
//! count it consumed, every stream commits exactly the elements pushed
//! through it, and every FIFO drains to empty. Reports must be
//! bit-identical to dense stepping on the same pipeline.
//!
//! Further properties pin the planner arithmetic itself: the closed forms
//! for one FIFO (`greedy`, what one side does from a tick on while the
//! other end keeps its rate, driven change by change as the planner drives
//! every participant, phase after phase of a chain; and `Flow`, the
//! running counts and occupancy peak) against a cycle-by-cycle trajectory
//! over multi-run sides, and whole pipelines of *wide* greedy kernels
//! (several elements per port per tick, sub-lane rates, mid-span stalls)
//! against dense stepping. Duty-cycled rates — what a repeat crossed in
//! closed form and a follower relaying it publish — are held to the same
//! cycle-by-cycle trajectory: `Flow`'s counts and peak, and the first cycle
//! `Level::holds_until` lets a crossing run to.

use dfe_platform::stream::{greedy, Flow, Gauge, Level, Rate, Step};
use dfe_platform::{
    DenseOracle, Graph, HostSink, HostSource, Io, Kernel, Progress, SinkHandle, SpanIo,
    SpanPhase, SpanPlan, StallInjector, StreamId, StreamSpec, WakeHint,
};
use qnn_testkit::{any, prop_assert, prop_assert_eq, props, vec};

/// Span-capable affine map kernel: `v -> v * mul + add`, one element per
/// cycle, uniform for any span length.
struct SpanAffine {
    mul: i32,
    add: i32,
    name: String,
}

impl Kernel for SpanAffine {
    fn name(&self) -> &str {
        &self.name
    }
    fn rearm(&mut self) {}

    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        if io.can_read(0) && io.can_write(0) {
            let v = io.read(0).expect("checked");
            io.write(0, v.wrapping_mul(self.mul).wrapping_add(self.add));
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

    fn span_hint(&self, _in_len: &[usize], _out_room: &[usize]) -> Option<SpanPlan> {
        Some(SpanPlan::new(u64::MAX, 0b1, 0b1))
    }

    fn run_span(&mut self, io: &mut SpanIo<'_>, n: u64) {
        for _ in 0..n {
            let v = io.pop(0);
            io.push(0, v.wrapping_mul(self.mul).wrapping_add(self.add));
        }
    }
}

fn reference(data: &[i32], stages: &[(i32, i32)]) -> Vec<i32> {
    data.iter()
        .map(|&v| {
            stages
                .iter()
                .fold(v, |acc, &(mul, add)| acc.wrapping_mul(mul).wrapping_add(add))
        })
        .collect()
}

/// Source → span-affine stages → sink, optionally wrapping each stage in a
/// [`StallInjector`] (which, being `AlwaysTick` with no span promise,
/// vetoes every burst it is awake for — the per-element fallback path).
/// With `dense`, every kernel runs under a [`DenseOracle`].
fn build_chain(
    data: Vec<i32>,
    stages: &[(i32, i32)],
    cap: usize,
    dense: bool,
    stall: Option<(u64, u8)>,
) -> (Graph, SinkHandle, Vec<StreamId>) {
    let n = data.len();
    let mut g = Graph::new();
    let mut ids = Vec::new();
    let mut prev = g.add_stream(StreamSpec::new("s0", 32, cap));
    ids.push(prev);
    g.add_kernel(Box::new(HostSource::new("src", data)), &[], &[prev]);
    for (i, &(mul, add)) in stages.iter().enumerate() {
        let next = g.add_stream(StreamSpec::new(format!("s{}", i + 1), 32, cap));
        ids.push(next);
        let inner = Box::new(SpanAffine { mul, add, name: format!("affine{i}") });
        let kernel: Box<dyn Kernel> = match stall {
            Some((seed, pct)) => {
                Box::new(StallInjector::new(inner, seed.wrapping_add(i as u64), pct))
            }
            None => inner,
        };
        g.add_kernel(kernel, &[prev], &[next]);
        prev = next;
    }
    let (sink, handle) = HostSink::new("dst", n);
    g.add_kernel(Box::new(sink), &[prev], &[]);
    if dense {
        g.map_kernels(|_, k| DenseOracle::wrap(k));
    }
    (g, handle, ids)
}

const BUDGET: u64 = 1_000_000;

/// A greedy multi-lane map stage, the shape of every folded kernel: each
/// tick passes `min(lanes, queued, free slots)` elements through.
struct WideAffine {
    mul: i32,
    add: i32,
    lanes: usize,
    name: String,
}

impl Kernel for WideAffine {
    fn name(&self) -> &str {
        &self.name
    }
    fn rearm(&mut self) {}

    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        let mut moved = 0;
        while moved < self.lanes && io.can_read(0) && io.can_write(0) {
            let v = io.read(0).expect("checked");
            io.write(0, v.wrapping_mul(self.mul).wrapping_add(self.add));
            moved += 1;
        }
        if moved > 0 {
            Progress::Busy
        } else if io.can_read(0) {
            Progress::Stalled
        } else {
            Progress::Idle
        }
    }

    fn lanes(&self) -> (u16, u16) {
        (self.lanes as u16, self.lanes as u16)
    }

    fn wake_hint(&self) -> WakeHint {
        WakeHint::Parkable
    }

    fn span_hint(&self, _in_len: &[usize], _out_room: &[usize]) -> Option<SpanPlan> {
        let pass = SpanPhase::coupled(u64::MAX, 0b1, 0b1).lanes(self.lanes);
        Some(SpanPlan::of(pass.stalls(Progress::Idle)))
    }

    fn run_span(&mut self, io: &mut SpanIo<'_>, _n: u64) {
        for _ in 0..io.read_quota(0) {
            let v = io.pop(0);
            io.push(0, v.wrapping_mul(self.mul).wrapping_add(self.add));
        }
    }
}

/// A source that offers `lanes` elements per tick (greedy on free slots).
struct WideSource {
    data: Vec<i32>,
    pos: usize,
    lanes: usize,
}

impl Kernel for WideSource {
    fn name(&self) -> &str {
        "wide-src"
    }
    fn rearm(&mut self) {
        self.pos = 0;
    }

    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        let mut moved = 0;
        while moved < self.lanes && self.pos < self.data.len() && io.can_write(0) {
            io.write(0, self.data[self.pos]);
            self.pos += 1;
            moved += 1;
        }
        if moved > 0 {
            Progress::Busy
        } else if self.pos < self.data.len() {
            Progress::Stalled
        } else {
            Progress::Idle
        }
    }

    fn lanes(&self) -> (u16, u16) {
        (1, self.lanes as u16)
    }

    fn wake_hint(&self) -> WakeHint {
        WakeHint::Parkable
    }

    fn span_hint(&self, _in_len: &[usize], _out_room: &[usize]) -> Option<SpanPlan> {
        let left = self.data.len() - self.pos;
        if left == 0 {
            return None;
        }
        let pushes = SpanPhase::coupled(left as u64, 0, 0b1).lanes(self.lanes);
        Some(SpanPlan::of(pushes.stalls(Progress::Stalled)))
    }

    fn run_span(&mut self, io: &mut SpanIo<'_>, _n: u64) {
        for _ in 0..io.write_quota(0) {
            io.push(0, self.data[self.pos]);
            self.pos += 1;
        }
    }
}

/// Source → wide stages → sink. The sink drains one element per cycle, so
/// wide stages run at their lane width only while filling FIFOs and settle
/// into sub-lane exact promises behind the narrow end. With `dense`, every
/// kernel runs under a [`DenseOracle`].
fn build_wide_chain(
    data: Vec<i32>,
    src_lanes: usize,
    stages: &[(i32, i32, usize, usize)],
    dense: bool,
) -> (Graph, SinkHandle) {
    let n = data.len();
    let mut g = Graph::new();
    let mut prev = g.add_stream(StreamSpec::new("s0", 32, stages[0].3));
    let src = WideSource { data, pos: 0, lanes: src_lanes };
    g.add_kernel(Box::new(src), &[], &[prev]);
    for (i, &(mul, add, lanes, _)) in stages.iter().enumerate() {
        let cap = stages.get(i + 1).map_or(4, |s| s.3);
        let next = g.add_stream(StreamSpec::new(format!("s{}", i + 1), 32, cap));
        let stage = WideAffine { mul, add, lanes, name: format!("wide{i}") };
        g.add_kernel(Box::new(stage), &[prev], &[next]);
        prev = next;
    }
    let (sink, handle) = HostSink::new("dst", n);
    g.add_kernel(Box::new(sink), &[prev], &[]);
    if dense {
        g.map_kernels(|_, k| DenseOracle::wrap(k));
    }
    (g, handle)
}

/// One constant-rate stretch of a drawn side: `rate` elements on each of
/// the cycles `start..stop`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Run {
    start: u64,
    stop: u64,
    rate: u64,
}

/// A side as the properties draw it: runs of `(gap, len, rate)` after one
/// another, each `gap` cycles after the last one ends.
fn drawn_side(runs: &[(u64, u64, u16)]) -> Vec<Run> {
    let mut side = Vec::new();
    let mut at = 0;
    for &(gap, len, rate) in runs {
        let start = at + gap;
        let stop = start + len.max(1);
        side.push(Run { start, stop, rate: u64::from(rate) });
        at = stop;
    }
    side
}

/// Elements a side moves on cycle `t`.
fn moves_at(side: &[Run], t: u64) -> u64 {
    side.iter().find(|r| r.start <= t && t < r.stop).map_or(0, |r| r.rate)
}

/// One phase of a side as the properties draw it: `(lanes, len, strict)` —
/// move up to `lanes` elements per tick until `len` have moved, a `strict`
/// (lockstep) phase breaking where it cannot move its full count, any other
/// waiting out a tick that finds nothing.
type Phase = (u64, u64, bool);

/// A greedy reader walking `phases` stepped cycle by cycle against a fixed
/// writer: its per-cycle pops, and the cycle a strict phase could not pop
/// its full count (`None`: never within the horizon). The next phase starts
/// on the tick after one finishes.
fn brute_reader(
    len: u64,
    writer: &[Run],
    phases: &[Phase],
    horizon: u64,
) -> (Vec<u64>, Option<u64>) {
    let mut queue = len;
    let mut pops = Vec::new();
    let mut chain = phases.iter().copied().filter(|p| p.1 > 0);
    let mut phase = chain.next();
    for t in 0..horizon {
        let mut m = 0;
        if let Some((lanes, left, strict)) = phase.as_mut() {
            let want = (*lanes).min(*left);
            m = want.min(queue);
            if *strict && m < want {
                return (pops, Some(t));
            }
            *left -= m;
            if *left == 0 {
                phase = chain.next();
            }
        }
        queue = queue - m + moves_at(writer, t);
        pops.push(m);
    }
    (pops, None)
}

/// A greedy writer walking `phases` (none strict) into a FIFO of `cap`,
/// stepped cycle by cycle against a reader that pops up to its side's count
/// each cycle (what is there): both ends' actual per-cycle moves, and the
/// occupancy peaks dense sampling records after each cycle.
fn brute_writer(
    len: u64,
    cap: u64,
    reader: &[Run],
    phases: &[Phase],
    reader_first: bool,
    horizon: u64,
) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let (mut queue, mut peak) = (len, 0);
    let (mut pushes, mut pops, mut peaks) = (Vec::new(), Vec::new(), vec![0]);
    let mut chain = phases.iter().copied().filter(|p| p.1 > 0);
    let mut phase = chain.next();
    for t in 0..horizon {
        let pop = |queue: &mut u64| {
            let p = moves_at(reader, t).min(*queue);
            *queue -= p;
            p
        };
        let mut popped = 0;
        if reader_first {
            popped = pop(&mut queue);
        }
        let mut m = 0;
        if let Some((lanes, left, _)) = phase.as_mut() {
            m = (*lanes).min(*left).min(cap - queue);
            *left -= m;
            if *left == 0 {
                phase = chain.next();
            }
        }
        if !reader_first {
            popped = pop(&mut queue);
        }
        queue += m;
        if m > 0 {
            peak = peak.max(queue);
        }
        pushes.push(m);
        pops.push(popped);
        peaks.push(peak);
    }
    (pushes, pops, peaks)
}

/// A side from per-cycle moves.
fn side_from(moves: &[u64]) -> Vec<Run> {
    let mut side: Vec<Run> = Vec::new();
    for (t, &m) in moves.iter().enumerate() {
        if m == 0 {
            continue;
        }
        let t = t as u64;
        match side.last_mut() {
            Some(run) if run.stop == t && run.rate == m => run.stop += 1,
            _ => side.push(Run { start: t, stop: t + 1, rate: m }),
        }
    }
    side
}

/// The FIFO end a driven side sits on.
#[derive(Clone, Copy)]
enum End {
    /// A reader of a queue holding `len` committed elements.
    Reader { len: u64 },
    /// A writer into a FIFO of `cap` holding `len`, whose reader ticks
    /// earlier in node order when `reader_first`.
    Writer { len: u64, cap: u64, reader_first: bool },
}

/// One greedy side driven from cycle `start` against the other end's
/// fixed runs, change by change as the burst planner drives a participant:
/// at each tick [`greedy`] says what the side does and for how long while
/// the other end keeps its rate, and the stretch ends there, at the other
/// end's next change or at the phase's end. Returns the side's per-cycle
/// moves and the cycle a strict phase breaks (`None`: not within the
/// horizon).
fn drive(
    end: End,
    other: &[Run],
    phases: &[Phase],
    start: u64,
    horizon: u64,
) -> (Vec<u64>, Option<u64>) {
    let mut flow = match end {
        End::Reader { len } | End::Writer { len, .. } => Flow::new(len as usize),
    };
    let mut moves = vec![0; horizon as usize];
    let mut chain = phases.iter().copied();
    let Some((mut lanes, mut left, mut strict)) = chain.next() else {
        return (moves, None);
    };
    let mut t = 0;
    while t < horizon {
        while left == 0 {
            match chain.next() {
                Some(p) => (lanes, left, strict) = p,
                None => return (moves, None),
            }
        }
        // The other end's rate on this cycle, and the first cycle the side
        // could see it change.
        let rate = moves_at(other, t);
        let edge = other
            .iter()
            .flat_map(|r| [r.start, r.stop])
            .filter(|&e| e > t)
            .min()
            .unwrap_or(u64::MAX);
        let gauge = match end {
            End::Reader { len } => {
                flow.set_push(t, rate);
                let avail = len + flow.pushed_before(t) - flow.popped_before(t);
                Gauge { avail: avail as i64, gain: rate as i64, input: true }
            }
            End::Writer { len, cap, reader_first } => {
                flow.set_pop(t, rate);
                let popped = flow.popped_before(t + u64::from(reader_first));
                let avail = (cap - len) as i64 - flow.pushed_before(t) as i64 + popped as i64;
                Gauge { avail, gain: rate as i64, input: false }
            }
        };
        let (m, ticks) = match greedy([gauge].into_iter(), lanes, left) {
            // Idle until the side starts.
            _ if t < start => (0, start - t),
            Step::Move { m, ticks } => (m, ticks),
            Step::Wait { ticks, .. } => (0, ticks),
        };
        if strict && t >= start && m < lanes.min(left) {
            return (moves, Some(t));
        }
        let stop = t.saturating_add(ticks).min(edge).min(horizon);
        match end {
            End::Reader { .. } => flow.set_pop(t, m),
            End::Writer { .. } => flow.set_push(t, m),
        }
        moves[t as usize..stop as usize].fill(m);
        left -= m * (stop - t);
        t = stop;
    }
    (moves, None)
}

/// The flow of a FIFO holding `len` whose writer and reader move
/// `pushes[t]` and `pops[t]` on each cycle `t < k`, advanced only where a
/// rate changes.
fn flow_of(len: u64, pushes: &[u64], pops: &[u64], k: u64) -> Flow {
    let mut flow = Flow::new(len as usize);
    let (mut push, mut pop) = (0, 0);
    for t in 0..k as usize {
        if pushes[t] != push {
            push = pushes[t];
            flow.set_push(t as u64, push);
        }
        if pops[t] != pop {
            pop = pops[t];
            flow.set_pop(t as u64, pop);
        }
    }
    flow
}

/// The unit-rate feasibility caps exactly as the planner computed them
/// before ports carried rates (`a`/`b` = writer/reader start, `u64::MAX`
/// when inactive; `rb` = reader earlier in node order).
fn legacy_unit_rate_limit(l: u64, cap: u64, a: u64, b: u64, rb: bool) -> u64 {
    let mut k = u64::MAX;
    if b != u64::MAX {
        if a == u64::MAX {
            k = k.min(b.saturating_add(l));
        } else if a > b {
            if l > a - b {
            } else if b.saturating_add(l) <= a {
                k = k.min(b.saturating_add(l));
            } else {
                k = k.min(a);
            }
        } else if a == b && l == 0 {
            k = k.min(b);
        }
    }
    if a != u64::MAX {
        let rb = b != u64::MAX && rb;
        if b == u64::MAX {
            k = k.min(a.saturating_add(cap - l));
        } else if b > a {
            let plateau = l + (b - a) - rb as u64;
            if plateau > cap - 1 {
                k = k.min(b.min(a.saturating_add(cap - l)));
            }
        } else if b == a && !rb && l == cap {
            k = k.min(a);
        }
    }
    if a != u64::MAX && b != u64::MAX && rb {
        k = k.min(b.saturating_add(l));
    }
    k
}

/// The ledger proper: outputs correct, every stream committed exactly the
/// pipeline's element count and drained to empty, every stage was busy for
/// exactly one cycle per element, occupancy peaks within capacity.
fn assert_ledger(
    g: &Graph,
    report: &dfe_platform::CycleReport,
    ids: &[StreamId],
    n: usize,
    stages: usize,
) -> qnn_testkit::prop::CaseResult {
    for s in &report.streams {
        prop_assert_eq!(s.pushed, n as u64, "stream {} commit count", s.name);
        prop_assert!(
            s.max_occupancy <= s.capacity,
            "stream {} overflowed: {} > {}",
            s.name,
            s.max_occupancy,
            s.capacity
        );
    }
    for &id in ids {
        prop_assert_eq!(g.stream_len(id), 0, "stream not drained");
    }
    // kernels[0] is the source, last is the sink; both also move n elements.
    for k in &report.kernels {
        prop_assert_eq!(&k.busy, &(n as u64), "kernel {} element ledger", k.name);
    }
    prop_assert_eq!(report.kernels.len(), stages + 2);
    Ok(())
}

props! {
    /// Conservation under macro-tick dispatch: elements consumed equal
    /// elements committed downstream on every stream, and the run is
    /// bit-identical (report and output) to dense per-element stepping.
    #[test]
    fn span_ledger_accounts_every_element(
        data in vec(-128i32..128, 1..64),
        stages in vec((-5i32..6, -100i32..101), 1..5),
        cap in 1usize..17,
    ) {
        let n = data.len();
        let expect = reference(&data, &stages);
        let (mut g, handle, ids) =
            build_chain(data.clone(), &stages, cap, false, None);
        let report = g.run(BUDGET).expect("macro-tick chain must complete");
        prop_assert_eq!(handle.take(), expect.clone());
        assert_ledger(&g, &report, &ids, n, stages.len())?;

        let (mut gd, hd, _) =
            build_chain(data, &stages, cap, true, None);
        let dense = gd.run(BUDGET).expect("dense chain must complete");
        prop_assert_eq!(hd.take(), expect);
        prop_assert_eq!(report, dense, "macro-tick report diverges from dense");
    }

    /// The same ledger under random stall schedules: the injectors veto
    /// bursts they are awake for, so runs interleave spans with per-element
    /// stretches — conservation must survive the mixture.
    #[test]
    fn ledger_holds_under_stall_injection(
        data in vec(-128i32..128, 1..48),
        stages in vec((-5i32..6, -100i32..101), 1..4),
        cap in 1usize..9,
        seed in 0u64..u64::MAX,
        pct in 1u8..90,
    ) {
        let n = data.len();
        let expect = reference(&data, &stages);
        let (mut g, handle, ids) = build_chain(
            data,
            &stages,
            cap,
            false,
            Some((seed, pct)),
        );
        // Injected stalls can idle the whole graph for a cycle; that is not
        // a deadlock (same setting as the stall-injection suites).
        let report = g.run_opts(4_000_000, false).expect("stalled chain must complete");
        prop_assert_eq!(handle.take(), expect);
        assert_ledger(&g, &report, &ids, n, stages.len())?;
    }
}

props! {
    /// The planner's closed forms for one FIFO against the trajectory they
    /// summarize, over multi-run sides at random rates: a greedy reader
    /// driven by `greedy` against a writer's runs, a greedy writer against
    /// a reader's (in either node order), and the occupancy peak
    /// (`Flow::peak`) of every prefix of the resulting pair.
    #[test]
    fn fifo_closed_forms_match_the_brute_force_trajectory(
        cap in 1u64..25,
        fill in 0u64..25,
        other in vec((0u64..6, 0u64..10, 1u16..4), 0..5),
        lanes in 1u64..5,
        left in 1u64..60,
        strict in any::<bool>(),
        reader_first in any::<bool>(),
    ) {
        const HORIZON: u64 = 96;
        let len = fill.min(cap);
        let side = drawn_side(&other);

        // A reader following the drawn writer.
        let phase = [(lanes, left, strict)];
        let (got, end) = drive(End::Reader { len }, &side, &phase, 0, HORIZON);
        let (pops, broke) = brute_reader(len, &side, &phase, HORIZON);
        let cut = broke.unwrap_or(HORIZON) as usize;
        prop_assert_eq!(&got[..cut], &pops[..cut], "reader pops");
        prop_assert_eq!(end, broke, "strict break");

        // A writer following the drawn reader: the reader pops what is
        // there, so check the writer against the reader's actual pops.
        let phase = [(lanes, left, false)];
        let (pushes, actual_pops, peaks) =
            brute_writer(len, cap, &side, &phase, reader_first, HORIZON);
        let popped = side_from(&actual_pops);
        let writer = End::Writer { len, cap, reader_first };
        let (got, _) = drive(writer, &popped, &phase, 0, HORIZON);
        prop_assert_eq!(&got, &pushes, "writer pushes");
        for k in 0..=HORIZON {
            prop_assert_eq!(
                flow_of(len, &pushes, &actual_pops, k).peak(k) as u64,
                peaks[k as usize],
                "occupancy peak of a {}-cycle span",
                k
            );
        }
    }

    /// The same closed forms over a *chain* of phases on the following
    /// side — the piecewise-rate side a multi-phase span plan puts on a
    /// stream: the lane count changes at every phase edge, a strict
    /// (lockstep) phase may break, and any other phase waits out the ticks
    /// that find nothing until its port is serviceable again. The driven
    /// side, phase after phase, must reproduce the cycle-by-cycle drive of
    /// the whole chain, and `Flow::peak` its occupancy peak for every
    /// prefix.
    #[test]
    fn phase_chains_match_the_brute_force_trajectory(
        cap in 1u64..25,
        fill in 0u64..25,
        other in vec((0u64..6, 0u64..10, 1u16..4), 0..5),
        phases in vec((1u64..5, 0u64..20, any::<bool>()), 1..6),
        reader_first in any::<bool>(),
    ) {
        const HORIZON: u64 = 128;
        let len = fill.min(cap);
        let side = drawn_side(&other);

        // A reader chain following the drawn writer.
        let (got, end) = drive(End::Reader { len }, &side, &phases, 0, HORIZON);
        let (pops, broke) = brute_reader(len, &side, &phases, HORIZON);
        let cut = broke.unwrap_or(HORIZON) as usize;
        prop_assert_eq!(&got[..cut], &pops[..cut], "reader pops");
        prop_assert_eq!(end, broke, "strict break");

        // A waiting writer chain following the drawn reader's actual pops.
        let waiting: Vec<Phase> = phases.iter().map(|&(lanes, n, _)| (lanes, n, false)).collect();
        let (pushes, actual_pops, peaks) =
            brute_writer(len, cap, &side, &waiting, reader_first, HORIZON);
        let popped = side_from(&actual_pops);
        let writer = End::Writer { len, cap, reader_first };
        let (got, _) = drive(writer, &popped, &waiting, 0, HORIZON);
        prop_assert_eq!(&got, &pushes, "writer pushes");
        for k in 0..=HORIZON {
            prop_assert_eq!(
                flow_of(len, &pushes, &actual_pops, k).peak(k) as u64,
                peaks[k as usize],
                "occupancy peak of a {}-cycle span",
                k
            );
        }
    }

    /// A chain of length 1 in lockstep — every rate 1, no stalls — is the
    /// case analysis the planner used before ports carried rates: the
    /// first cycle either end's strict schedule breaks, or a reader ahead
    /// of its writer in node order outruns the buffered lead.
    #[test]
    fn unit_rate_limits_are_the_legacy_case_analysis(
        cap in 1u64..25,
        fill in 0u64..25,
        a in 0u64..12,
        b in 0u64..12,
        shape in 0u8..3,
        reader_first in any::<bool>(),
    ) {
        const HORIZON: u64 = 64;
        let len = fill.min(cap);
        let (w, r) = match shape {
            0 => (Some(a), Some(b)),
            1 => (Some(a), None),
            _ => (None, Some(b)),
        };
        let legacy = legacy_unit_rate_limit(
            len,
            cap,
            w.unwrap_or(u64::MAX),
            r.unwrap_or(u64::MAX),
            reader_first,
        );
        let side = |start: Option<u64>| {
            start.map_or(Vec::new(), |start| vec![Run { start, stop: 4 * HORIZON, rate: 1 }])
        };
        let (wside, rside) = (side(w), side(r));
        let lockstep = [(1, 8 * HORIZON, true)];
        let strict_break = |end: End, other: &[Run], start: u64| {
            drive(end, other, &lockstep, start, HORIZON).1.unwrap_or(u64::MAX)
        };
        let mut limit = u64::MAX;
        if let Some(b) = r {
            limit = limit.min(strict_break(End::Reader { len }, &wside, b));
            if reader_first && w.is_some() {
                limit = limit.min(b + len);
            }
        }
        if let Some(a) = w {
            let writer = End::Writer { len, cap, reader_first: reader_first && r.is_some() };
            limit = limit.min(strict_break(writer, &rside, a));
        }
        let expect = if legacy < HORIZON { legacy } else { u64::MAX };
        prop_assert_eq!(if limit < HORIZON { limit } else { u64::MAX }, expect);
    }

    /// Pipelines of wide greedy stages: every mix of lane widths and FIFO
    /// depths must come out of span dispatch bit-identical to dense
    /// stepping — the variable-rate and mid-span-stall arithmetic all sit
    /// on this path.
    #[test]
    fn wide_chain_reports_match_dense(
        data in vec(-128i32..128, 1..200),
        src_lanes in 1usize..6,
        stages in vec((-5i32..6, -100i32..101, 1usize..6, 1usize..24), 1..5),
    ) {
        let expect = reference(
            &data,
            &stages.iter().map(|&(mul, add, ..)| (mul, add)).collect::<Vec<_>>(),
        );
        let run = |dense| {
            let (mut g, handle) = build_wide_chain(data.clone(), src_lanes, &stages, dense);
            let report = g.run(BUDGET).expect("wide chain must complete");
            (handle.take(), report)
        };
        let (_, dense) = run(true);
        let (out, report) = run(false);
        prop_assert_eq!(&out, &expect);
        prop_assert_eq!(&report, &dense, "span dispatch diverges from dense");
    }
}

/// Wide kernels must actually take part in bursts, at their lane width and
/// at sub-lane rates — otherwise the rate arithmetic above is dead
/// code that trivially "matches" dense.
#[test]
fn bursts_fire_on_a_wide_chain() {
    let data: Vec<i32> = (0..4096).collect();
    // Lane-width traffic: a 4-wide source into 4-wide stages over deep
    // FIFOs (the sink's one-per-cycle drain backs up only at the end).
    let fast = [(3, 7, 4, 8192), (-1, 11, 4, 8192)];
    let (mut g, handle) = build_wide_chain(data.clone(), 4, &fast, false);
    let report = g.run(BUDGET).expect("run");
    assert_eq!(handle.take(), reference(&data, &[(3, 7), (-1, 11)]));
    assert!(g.burst_cycles() > 0, "no burst on a wide pipeline");
    assert!(
        report.kernels[1].busy < 4096 / 2,
        "4-wide stage should need far fewer than one tick per element: {}",
        report.kernels[1].busy
    );
    // Sub-lane traffic: the same stages behind a one-per-cycle source run
    // one element per tick, every tick.
    let (mut g, handle) = build_wide_chain(data.clone(), 1, &fast, false);
    let report = g.run(BUDGET).expect("run");
    assert_eq!(handle.take(), reference(&data, &[(3, 7), (-1, 11)]));
    assert_eq!(report.kernels[1].busy, 4096, "one tick per element");
    assert!(
        g.burst_cycles() * 2 > report.cycles,
        "sub-lane spans should cover most of the run: {} of {}",
        g.burst_cycles(),
        report.cycles
    );
}

/// Bursts must actually engage on a span-capable chain — otherwise the
/// whole macro-tick path is dead code that trivially "matches" dense.
#[test]
fn bursts_fire_on_a_span_capable_chain() {
    let data: Vec<i32> = (0..512).collect();
    let stages = [(3, 7), (-1, 11)];
    let (mut g, handle, _) =
        build_chain(data.clone(), &stages, 16, false, None);
    let report = g.run(BUDGET).expect("run");
    assert_eq!(handle.take(), reference(&data, &stages));
    assert!(
        g.bursts() > 0,
        "no burst fired on a fully span-capable pipeline"
    );
    // And the spans must have paid: far fewer dispatches than cycles.
    assert!(report.cycles >= 512);

    let (mut g_off, handle_off, _) =
        build_chain(data.clone(), &stages, 16, true, None);
    let report_off = g_off.run(BUDGET).expect("run");
    assert_eq!(handle_off.take(), reference(&data, &stages));
    assert_eq!(report, report_off, "dispatch mode leaked into the report");
}

/// Segmented runs are safe: bursts leave no cross-cycle state, so a run
/// stopped by its cycle budget and resumed on the same graph keeps the
/// stream contents coherent and the counters of one uninterrupted dense
/// run.
#[test]
fn mode_switch_mid_run_preserves_output() {
    const PREFIX: u64 = 64;
    let stages = [(5, -3)];
    let all: Vec<i32> = (-100..100).collect();
    let expect = reference(&all, &stages);
    let (mut gd, _, _) = build_chain(all.clone(), &stages, 8, true, None);
    let dense = gd.run(BUDGET).expect("dense run");
    let (mut g, handle, _) = build_chain(all, &stages, 8, false, None);
    // Step a bounded prefix: too few cycles to finish, enough to burst.
    assert!(g.run_opts(PREFIX, false).is_err(), "prefix finished the run");
    assert!(g.bursts() > 0, "no burst in the prefix");
    let report = g.run_opts(BUDGET, false).expect("finish the run");
    assert_eq!(handle.take(), expect);
    assert_eq!(report.kernels, dense.kernels);
    assert_eq!(report.streams, dense.streams);
    assert_eq!(PREFIX + report.cycles, dense.cycles);
}

/// A drawn rate: flat when `a == 0`, else `on` on `a` of every `period`
/// cycles from cycle `from`.
fn drawn_rate((on, a, from): (u64, u64, u64), period: u64) -> Rate {
    if a == 0 {
        Rate::flat(on)
    } else {
        Rate::duty(on, a.min(period), period, from)
    }
}

props! {
    /// `Flow` over duty-cycled rates (a common period, flat rates mixed in)
    /// against the per-cycle trajectory: its push and pop counts, its
    /// per-cycle rates, and the occupancy peak of every prefix. Then
    /// `Level::holds_until` on the pair's level: it never lets a crossing
    /// run past the first cycle the level falls short, and stops it at most
    /// one period before.
    #[test]
    fn duty_cycled_flows_match_the_brute_force_trajectory(
        period in 2u64..9,
        changes in vec((0u64..60, any::<bool>(), (0u64..4, 0u64..9, 0u64..9)), 1..6),
        need in 1i64..4,
        lo in 0u64..40,
    ) {
        const HORIZON: u64 = 96;
        // Deep enough that the level never goes negative.
        let len = 4 * HORIZON;
        let mut changes = changes;
        changes.sort_by_key(|c| c.0);
        let (mut flow, mut pushes, mut pops) = (Flow::new(len as usize), vec![0; 96], vec![0; 96]);
        for &(t, push, drawn) in &changes {
            let rate = drawn_rate(drawn, period);
            let moves = if push { &mut pushes } else { &mut pops };
            for (c, m) in moves.iter_mut().enumerate().skip(t as usize) {
                *m = rate.at(c as u64);
            }
            if push {
                flow.set_push(t, rate);
            } else {
                flow.set_pop(t, rate);
            }
        }
        let last = changes.last().expect("one change at least").0;
        let before = |moves: &[u64], x: u64| moves[..x as usize].iter().sum::<u64>();
        for x in last..HORIZON {
            prop_assert_eq!(flow.pushed_before(x), before(&pushes, x), "pushed before {}", x);
            prop_assert_eq!(flow.popped_before(x), before(&pops, x), "popped before {}", x);
            prop_assert_eq!(flow.rates_on(x), (pushes[x as usize], pops[x as usize]));
        }
        for k in 0..HORIZON {
            let peak = (0..k)
                .filter(|&c| pushes[c as usize] > 0)
                .map(|c| len + before(&pushes, c + 1) - before(&pops, c + 1))
                .max()
                .unwrap_or(0);
            if k >= last {
                prop_assert_eq!(flow.peak(k) as u64, peak, "peak over {} cycles", k);
            }
        }
        // The level a reader popping the flow's pop rate from `at` finds.
        let (push, pop) = flow.rates();
        let at = last;
        let (pushed, popped) = (flow.pushed_before(at), flow.popped_before(at));
        let base = (len + pushed) as i64 - popped as i64 - 4 * HORIZON as i64 + need;
        let level = Level { base, up: (push, at, 0), down: (pop, at, 0) };
        let lo = at + lo;
        let until = level.holds_until(pop, need, lo, HORIZON);
        let short = (lo..HORIZON).find(|&y| pop.at(y) > 0 && level.at(y) < need).unwrap_or(HORIZON);
        prop_assert!(until <= short, "holds until {} past the shortfall at {}", until, short);
        prop_assert!(
            until == HORIZON || short < until + period,
            "stops at {} more than a period before the shortfall at {}", until, short
        );
    }
}
