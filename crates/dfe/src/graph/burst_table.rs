//! The burst planner as a pure function: small hand-built graphs, each
//! with the burst it must plan from a given state — its length and what
//! bounds it, or why it is refused — and, for a planned burst, every
//! participant's busy, stall and quota counts checked against dense
//! stepping of the same graph over the same cycles.

use super::*;
use crate::burst::View;
use crate::diag::BurstEnd;
use crate::host::{HostSink, HostSource};
use crate::kernel::{SpanIo, SpanPhase, SpanPlan, MAX_SPAN_PHASES};
use crate::DenseOracle;

/// A pass-through stage, one element a tick. One without a promise
/// vetoes the bursts that would wake it.
struct Pass {
    promise: bool,
}

impl Kernel for Pass {
    fn name(&self) -> &str {
        "pass"
    }
    fn rearm(&mut self) {}
    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        match (io.can_read(0), io.can_write(0)) {
            (true, true) => {
                let v = io.read(0).expect("checked");
                io.write(0, v);
                Progress::Busy
            }
            (true, false) => Progress::Stalled,
            _ => Progress::Idle,
        }
    }
    fn wake_hint(&self) -> WakeHint {
        WakeHint::Parkable
    }
    fn span_hint(&self, _: &[usize], _: &[usize]) -> Option<SpanPlan> {
        let pass = SpanPhase::coupled(u64::MAX, 0b1, 0b1).stalls(Progress::Idle);
        self.promise.then(|| SpanPlan::of(pass))
    }
    fn run_span(&mut self, io: &mut SpanIo<'_>, _: u64) {
        io.transfer(0, 0, io.read_quota(0));
    }
}

/// A folded splicer, the shape of a folded padder: passes `pass` elements
/// through, then writes `fill` zeros, over and over, up to `lanes`
/// elements a tick — a tick finishing a run with lanes to spare goes on
/// into the next one.
struct Splice {
    pass: usize,
    fill: usize,
    lanes: usize,
    pos: usize,
}

impl Splice {
    /// Elements left in the run at `pos`, and whether it passes input.
    fn run(&self, pos: usize) -> (usize, bool) {
        if pos < self.pass {
            (self.pass - pos, true)
        } else {
            (self.pass + self.fill - pos, false)
        }
    }
}

impl Kernel for Splice {
    fn name(&self) -> &str {
        "splice"
    }
    fn rearm(&mut self) {
        self.pos = 0;
    }
    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        let mut moved = 0;
        while moved < self.lanes && io.can_write(0) {
            if self.pos < self.pass {
                match io.read(0) {
                    Some(v) => io.write(0, v),
                    None => break,
                }
            } else {
                io.write(0, 0);
            }
            self.pos = (self.pos + 1) % (self.pass + self.fill);
            moved += 1;
        }
        if moved > 0 {
            Progress::Busy
        } else {
            Progress::Stalled
        }
    }
    fn lanes(&self) -> (u16, u16) {
        (self.lanes as u16, self.lanes as u16)
    }
    fn wake_hint(&self) -> WakeHint {
        WakeHint::Parkable
    }
    fn span_hint(&self, _: &[usize], _: &[usize]) -> Option<SpanPlan> {
        let phase = |pos| {
            let (len, reads) = self.run(pos);
            let ph = SpanPhase::coupled(len as u64, u32::from(reads), 0b1).lanes(self.lanes);
            ph.stalls(Progress::Stalled).spills()
        };
        let mut plan = SpanPlan::of(phase(self.pos));
        let mut pos = (self.pos + self.run(self.pos).0) % (self.pass + self.fill);
        while plan.push(phase(pos)) {
            pos = (pos + self.run(pos).0) % (self.pass + self.fill);
        }
        Some(plan)
    }
    fn run_span(&mut self, io: &mut SpanIo<'_>, _: u64) {
        let mut left = io.write_quota(0) as usize;
        while left > 0 {
            let (len, reads) = self.run(self.pos);
            let n = len.min(left);
            if reads {
                io.transfer(0, 0, n as u64);
            } else {
                io.push_fill(0, 0, n as u64);
            }
            self.pos = (self.pos + n) % (self.pass + self.fill);
            left -= n;
        }
    }
}

/// A three-port gatherer, the shape of an attention head's gather: reads
/// each input on its own, one element a tick while that port's count is
/// below `quota`; a tick that reads nothing stalls if a full port holds an
/// element. Once every port is full it has nothing left to do.
struct Gather {
    quota: usize,
    got: [usize; 3],
}

impl Kernel for Gather {
    fn name(&self) -> &str {
        "gather"
    }
    fn rearm(&mut self) {
        self.got = [0; 3];
    }
    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        let (mut moved, mut waiting) = (false, false);
        for p in 0..3 {
            if self.got[p] < self.quota && io.read(p).is_some() {
                self.got[p] += 1;
                moved = true;
            } else if io.can_read(p) {
                waiting = true;
            }
        }
        match (moved, waiting) {
            (true, _) => Progress::Busy,
            (false, true) => Progress::Stalled,
            _ => Progress::Idle,
        }
    }
    fn wake_hint(&self) -> WakeHint {
        WakeHint::Parkable
    }
    fn span_hint(&self, _: &[usize], _: &[usize]) -> Option<SpanPlan> {
        let left = self.got.map(|g| (self.quota - g) as u64);
        (left != [0; 3]).then(|| SpanPlan::of(SpanPhase::gather(&left)))
    }
    fn run_span(&mut self, io: &mut SpanIo<'_>, _: u64) {
        for p in 0..3 {
            let n = io.read_quota(p);
            io.pop_n(p, n, |_| {});
            self.got[p] += n as usize;
        }
    }
}

/// A stage that reads `take` and writes `give` elements a round, one a
/// tick on each side and side by side, the shape of a convolution
/// absorbing a window while it emits a position: a round ends on the tick
/// its later side finishes. With `take > give` its writes come in bursts
/// with waits between them, with `take < give` its reads do.
struct Rate {
    take: u64,
    give: u64,
    read: u64,
    wrote: u64,
    /// State its rounds one phase each instead of as one repeated phase.
    unrolled: bool,
}

impl Kernel for Rate {
    fn name(&self) -> &str {
        "rate"
    }
    fn rearm(&mut self) {
        (self.read, self.wrote) = (0, 0);
    }
    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        let mut moved = false;
        if self.read < self.take && io.read(0).is_some() {
            self.read += 1;
            moved = true;
        }
        if self.wrote < self.give && io.can_write(0) {
            io.write(0, 0);
            self.wrote += 1;
            moved = true;
        }
        if (self.read, self.wrote) == (self.take, self.give) {
            (self.read, self.wrote) = (0, 0);
        }
        if moved {
            Progress::Busy
        } else {
            Progress::Stalled
        }
    }
    fn wake_hint(&self) -> WakeHint {
        WakeHint::Parkable
    }
    fn span_hint(&self, _: &[usize], _: &[usize]) -> Option<SpanPlan> {
        let round = |read, wrote| {
            SpanPhase::overlapped(0b1, self.take - read, 1, 0b1, self.give - wrote, 1)
        };
        let mut plan = SpanPlan::of(round(self.read, self.wrote));
        if self.unrolled {
            while plan.push_unfolded(round(0, 0)) {}
            return Some(plan);
        }
        Some(plan.then(round(0, 0).times(MAX_SPAN_PHASES as u32 - 1)))
    }
    fn run_span(&mut self, io: &mut SpanIo<'_>, _: u64) {
        let (r, w) = (io.read_quota(0), io.write_quota(0));
        io.pop_n(0, r, |_| {});
        io.push_fill(0, 0, w);
        let (read, wrote) = (self.read + r, self.wrote + w);
        let rounds = (read / self.take).min(wrote / self.give);
        (self.read, self.wrote) = (read - rounds * self.take, wrote - rounds * self.give);
    }
}

/// A kernel of a table graph, in node order.
#[derive(Clone, Copy)]
enum K {
    /// A host source of 40 elements.
    Src,
    /// A host sink.
    Dst,
    /// A [`Pass`], with or without a promise.
    Pass(bool),
    /// A [`Splice`]: `(pass, fill, lanes, pos)`.
    Splice(usize, usize, usize, usize),
    /// A [`Gather`] of `quota` per port, reading streams `i`, `i + 1` and
    /// `i + 2`.
    Gather(usize),
    /// A [`Rate`]: `(take, give)`.
    Rate(u64, u64),
    /// A [`Rate`] stating its rounds unrolled.
    Unrolled(u64, u64),
}

/// One row of the table: the FIFO depths, the kernels in node order with
/// the streams they read and write, the cycles stepped at the default
/// stepper before the attempt, the schedule-replay boundary (stream, pops due), and the
/// burst the planner must find.
type Row = (
    &'static str,
    &'static [usize],
    &'static [(K, usize, usize)],
    u64,
    Option<(usize, u64)>,
    Result<(u64, BurstEnd), Refusal>,
);

/// No stream on that side.
const NO: usize = usize::MAX;

/// The row's graph; with `dense`, every kernel under a [`DenseOracle`].
fn build(dense: bool, depths: &[usize], kernels: &[(K, usize, usize)]) -> Graph {
    let mut g = Graph::new();
    let ids: Vec<StreamId> =
        depths.iter().map(|&d| g.add_stream(StreamSpec::new("s", 8, d))).collect();
    for &(k, i, o) in kernels {
        let kernel: Box<dyn Kernel> = match k {
            K::Src => Box::new(HostSource::new("src", (0..40).collect())),
            K::Dst => Box::new(HostSink::new("dst", 1000).0),
            K::Pass(promise) => Box::new(Pass { promise }),
            K::Splice(pass, fill, lanes, pos) => Box::new(Splice { pass, fill, lanes, pos }),
            K::Gather(quota) => Box::new(Gather { quota, got: [0; 3] }),
            K::Rate(take, give) => {
                Box::new(Rate { take, give, read: 0, wrote: 0, unrolled: false })
            }
            K::Unrolled(take, give) => {
                Box::new(Rate { take, give, read: 0, wrote: 0, unrolled: true })
            }
        };
        let port = |s: usize| if s == NO { vec![] } else { vec![ids[s]] };
        let inputs = match k {
            K::Gather(_) => ids[i..i + 3].to_vec(),
            _ => port(i),
        };
        let kernel = if dense { DenseOracle::wrap(kernel) } else { kernel };
        g.add_kernel(kernel, &inputs, &port(o));
    }
    g
}

/// Per node: busy and stalled counts, and per port the elements moved
/// (inputs popped, then outputs pushed) — as dense stepping counts them.
fn dense_counts(g: &Graph) -> Vec<(u64, u64, Vec<u64>)> {
    let popped = |s: usize| g.streams[s].pushed - g.streams[s].total_len() as u64;
    g.nodes
        .iter()
        .map(|n| {
            let ports = n.inputs.iter().map(|&s| popped(s));
            let ports = ports.chain(n.outputs.iter().map(|&s| g.streams[s].pushed));
            (n.busy, n.stalled, ports.collect())
        })
        .collect()
}

use K::{Dst, Gather as G, Pass as P, Rate as R, Splice as S, Src};

const CHAIN: &[(K, usize, usize)] = &[(Src, NO, 0), (P(true), 0, 1), (Dst, 1, NO)];

const GATHER_SKEWED: u64 = 13;
const GATHER_STALLS: u64 = 24;

const ROWS: &[Row] = &[
    // The writer sees a pop a cycle late, so a full 1-deep FIFO passes one
    // element every other cycle, until the source runs dry.
    (
        "writer into a full 1-deep FIFO ahead of its reader",
        &[1, 1, 64],
        &[(Src, NO, 0), (P(true), 0, 1), (P(true), 1, 2), (Dst, 2, NO)],
        6,
        None,
        Ok((73, BurstEnd::Phase)),
    ),
    // Dispatched first, the reader may pop only the queued lead — here at
    // most one element, too short a burst.
    (
        "reader ahead of its writer in node order",
        &[4, 4, 64],
        &[(Src, NO, 0), (P(true), 1, 2), (P(true), 0, 1), (Dst, 2, NO)],
        5,
        None,
        Err(Refusal::StreamCap),
    ),
    // A four-wide writer builds the lead up to the FIFO's depth.
    (
        "reader ahead of its writer, with a lead",
        &[64, 8, 64],
        &[(Src, NO, 0), (P(true), 1, 2), (S(1, 3, 4, 0), 0, 1), (Dst, 2, NO)],
        6,
        None,
        Ok((8, BurstEnd::Stream)),
    ),
    // The reader, blocked downstream by a consumer that reads one element
    // in seven, frees a slot of the full FIFO, and the writer behind it in
    // node order refills it in the same cycle.
    (
        "reader ahead of its writer frees a full FIFO",
        &[64, 4, 1, 64],
        &[(Src, NO, 0), (P(true), 1, 2), (P(true), 0, 1), (S(1, 6, 1, 0), 2, 3), (Dst, 3, NO)],
        12,
        None,
        Ok((27, BurstEnd::Phase)),
    ),
    // The sink parks idle on its empty input; the first element the stage
    // passes recruits it with its promise.
    ("parked recruit", &[64, 64], CHAIN, 1, None, Ok((39, BurstEnd::Phase))),
    // The same with a parked stage that offers no promise.
    (
        "recruit veto",
        &[64, 64, 64],
        &[(Src, NO, 0), (P(true), 0, 1), (P(false), 1, 2), (Dst, 2, NO)],
        1,
        None,
        Err(Refusal::RecruitVeto),
    ),
    // One element left in the pass run, two lanes: the first tick moves it
    // and the first fill element.
    (
        "spill tick on cycle 0",
        &[64, 64],
        &[(Src, NO, 0), (S(5, 3, 2, 4), 0, 1), (Dst, 1, NO)],
        1,
        None,
        Ok((17, BurstEnd::Phase)),
    ),
    // Q straight from its source, K and V one stage behind it: each port
    // is read on its own, Q's a cycle ahead, and the gather ends on the
    // tick that fills the last port.
    (
        "gather from skewed ports",
        &[64, 64, 64, 64, 64],
        &[
            (Src, NO, 0),
            (Src, NO, 3),
            (P(true), 3, 1),
            (Src, NO, 4),
            (P(true), 4, 2),
            (G(12), 0, NO),
        ],
        1,
        None,
        Ok((GATHER_SKEWED, BurstEnd::Phase)),
    ),
    // K and V through 1-deep FIFOs, so at half rate: once Q's port is
    // full, the ticks between K/V elements stall on the element Q holds.
    (
        "gather stalls on a full port holding data",
        &[64, 64, 64, 1, 1],
        &[
            (Src, NO, 0),
            (Src, NO, 3),
            (P(true), 3, 1),
            (Src, NO, 4),
            (P(true), 4, 2),
            (G(12), 0, NO),
        ],
        1,
        None,
        Ok((GATHER_STALLS, BurstEnd::Phase)),
    ),
    // The boundary ends the burst on the cycle after the due pop.
    (
        "replay marker inside the burst",
        &[64, 64],
        CHAIN,
        3,
        Some((1, 7)),
        Ok((7, BurstEnd::Budget)),
    ),
];

/// Plan `row`'s burst and check it against dense stepping of the same
/// graph over the same cycles; the graph, its planner holding the attempt.
fn check(row: &Row) -> Graph {
    check_within(row, 1000)
}

/// [`check`] with a cycle budget of `budget`.
fn check_within(&(name, depths, kernels, warmup, marker, expect): &Row, budget: u64) -> Graph {
    let mut g = build(false, depths, kernels);
    let _ = g.run_opts(warmup, false);
    let view = View {
        nodes: &g.nodes,
        streams: &g.streams,
        writers: &g.writers,
        readers: &g.readers,
        parked: &g.parked,
        awake: &g.awake,
    };
    let planned = match g.planner.plan(&view, budget, 2, marker) {
        Ok(p) => Ok((p.k, p.end)),
        Err(r) => Err(r.reason),
    };
    assert_eq!(planned, expect, "{name}");
    let Ok((k, _)) = planned else { return g };
    // The same graph stepped densely over the same cycles.
    let mut dense = build(true, depths, kernels);
    let _ = dense.run_opts(warmup, false);
    let before = dense_counts(&dense);
    let _ = dense.run_opts(k, false);
    let after = dense_counts(&dense);
    for (i, (b, a)) in before.iter().zip(&after).enumerate() {
        let moved: Vec<u64> = b.2.iter().zip(&a.2).map(|(b, a)| a - b).collect();
        let counts = (a.0 - b.0, a.1 - b.1, &moved[..]);
        match g.planner.parts.iter().find(|p| p.node as usize == i) {
            Some(p) => {
                let q = &g.planner.quotas[p.quotas.0 as usize..][..p.quotas.1 as usize];
                assert_eq!((p.busy, p.stalled, q), counts, "{name}: node {i}");
            }
            // Parked throughout: nothing moves, the lazy credit covers it.
            None => {
                let parked = g.parked[i].map(|(v, _)| v);
                let stalled = u64::from(parked == Some(Progress::Stalled)) * k;
                assert_eq!(counts.0, 0, "{name}: node {i} outside");
                assert_eq!(counts.1, stalled, "{name}: node {i} outside");
                assert!(moved.iter().all(|&m| m == 0), "{name}: node {i} moved");
            }
        }
    }
    g
}

#[test]
fn planned_bursts_match_dense_stepping() {
    for row in ROWS {
        check(row);
    }
}

/// Chains whose pass stages only ever follow a neighbour's rate change,
/// with the nodes of those stages: each is evaluated in full at most once —
/// on the burst's first cycle, if it is awake then — and advanced in closed
/// form on every other step.
const CHAINS: &[(Row, &[usize])] = &[
    // The producer writes two elements, then waits four ticks while it
    // reads the rest of its round: every toggle runs down the chain, a
    // cycle later at each stage.
    (
        (
            "pass chain behind a producer writing in bursts",
            &[4, 4, 4, 64],
            &[(Src, NO, 0), (R(6, 2), 0, 1), (P(true), 1, 2), (P(true), 2, 3), (Dst, 3, NO)],
            1,
            None,
            Ok((39, BurstEnd::Phase)),
        ),
        &[2, 3],
    ),
    // The mirror: the consumer reads two elements, then writes on for four
    // more ticks; the full FIFOs in front of it pass each toggle upstream.
    (
        (
            "pass chain in front of a consumer reading in bursts",
            &[4, 4, 4, 64],
            &[(Src, NO, 0), (P(true), 0, 1), (P(true), 1, 2), (R(2, 6), 2, 3), (Dst, 3, NO)],
            12,
            None,
            Ok((48, BurstEnd::Phase)),
        ),
        &[1, 2],
    ),
];

#[test]
fn rate_changes_run_down_chains_as_follower_advances() {
    for (row, followers) in CHAINS {
        let g = check(row);
        for &i in *followers {
            let (evals, follows) = g.planner.steps_of(i).expect("a participant");
            assert!(evals <= 1, "{}: node {i} evaluated in full {evals} times", row.0);
            assert!(follows > 2, "{}: node {i} followed {follows} times", row.0);
        }
    }
}

/// A producer that reads two elements and writes six a round behind a
/// splicer and a source, into a deep FIFO: once the FIFOs in front of it
/// fill, every round reads two and writes six at its own pace.
const SELF_PACED: &[(K, usize, usize)] =
    &[(Src, NO, 0), (S(1000, 1, 1, 0), 0, 1), (R(2, 6), 1, 2), (Dst, 2, NO)];

/// Rows whose repeated rounds ([`SpanPhase::repeat`]) are checked, with the
/// most steps (full evaluations and follower advances) each node may take.
const REPEATS: &[(Row, &[(usize, u64)])] = &[
    // Seven rounds crossed in closed form: the producer evaluates the
    // round it is in, the crossing from the next round's start, and the
    // crossing again once the splicer relays its duty-cycled pops — a
    // cycle later, as the source does the splicer's — in one follower step.
    (
        (
            "self-paced repeat behind a relaying splicer and source",
            &[4, 4, 64],
            SELF_PACED,
            12,
            None,
            Ok((48, BurstEnd::Phase)),
        ),
        &[(0, 2), (1, 3), (2, 3)],
    ),
    // The consumer reads each element a cycle after the producer, which
    // writes one every four cycles: each round waits on its input, so its
    // repeat is walked round by round, while the producer's is crossed.
    (
        (
            "input-paced repeat stays per-position",
            &[64, 64, 64],
            &[(Src, NO, 0), (R(4, 1), 0, 1), (R(2, 1), 1, 2), (Dst, 2, NO)],
            1,
            None,
            Ok((32, BurstEnd::Phase)),
        ),
        &[(1, 3)],
    ),
];

#[test]
fn repeats_cross_in_closed_form_or_walk_copy_by_copy() {
    for (row, bounds) in REPEATS {
        let g = check(row);
        for &(i, most) in *bounds {
            let (evals, follows) = g.planner.steps_of(i).expect("a participant");
            assert!(evals + follows <= most, "{}: node {i} took {evals} + {follows} steps", row.0);
        }
    }
    // The input-paced consumer evaluates at least once a round.
    let g = check(&REPEATS[1].0);
    let (evals, _) = g.planner.steps_of(2).expect("a participant");
    assert!(evals >= 8, "input-paced repeat crossed in {evals} evaluations");
}

/// A crossing cut mid-stretch: by the cycle budget, and by a replay marker
/// on the repeat's output, both inside a round.
#[test]
fn crossed_repeat_cut_by_budget_and_marker() {
    let (name, depths, kernels, warmup, _, _) = REPEATS[0].0;
    check_within(&(name, depths, kernels, warmup, None, Ok((21, BurstEnd::Budget))), 21);
    check(&(name, depths, kernels, warmup, Some((2, 10)), Ok((10, BurstEnd::Budget))));
}

qnn_testkit::props! {
    /// Span conservation for repeats: a chain stated with repeated phases
    /// plans the same burst as the same chain unrolled, one phase a copy —
    /// the same length and end (or refusal), every participant's counts,
    /// quotas and park state, every stream's peak — whether the planner
    /// crosses the repeat in closed form or walks it copy by copy.
    #[test]
    fn repeats_plan_as_unrolled(
        rounds in qnn_testkit::vec((1u64..5, 1u64..5), 2..3),
        depths in qnn_testkit::vec(1usize..9, 4..5),
        front in 0u8..3,
        warmup in 0u64..24,
        budget in 2u64..96,
    ) {
        let (a, b) = (rounds[0], rounds[1]);
        let stage = match front {
            0 => P(true),
            1 => S(1000, 1, 1, 0),
            _ => S(3, 2, 2, 0),
        };
        let chain = |unrolled: bool| {
            let rate = |(take, give)| if unrolled { K::Unrolled(take, give) } else { R(take, give) };
            [(Src, NO, 0), (stage, 0, 1), (rate(a), 1, 2), (rate(b), 2, 3), (Dst, 3, NO)]
        };
        let plan = |unrolled: bool| {
            let mut g = build(false, &depths, &chain(unrolled));
            let _ = g.run_opts(warmup, false);
            let view = View {
                nodes: &g.nodes,
                streams: &g.streams,
                writers: &g.writers,
                readers: &g.readers,
                parked: &g.parked,
                awake: &g.awake,
            };
            let planned = match g.planner.plan(&view, budget, 2, None) {
                Ok(p) => Ok((p.k, p.end)),
                Err(r) => Err((r.reason, r.retry)),
            };
            let p = &g.planner;
            (planned, p.parts.clone(), p.quotas.clone(), p.streams.clone())
        };
        let (repeated, unrolled) = (plan(false), plan(true));
        qnn_testkit::prop_assert_eq!(repeated, unrolled);
    }
}
