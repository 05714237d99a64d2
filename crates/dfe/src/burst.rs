//! Whole-graph burst planning: solving every kernel's next cycles from the
//! [`SpanPlan`] chains of the kernels a burst touches, so that `k` cycles of
//! the clocked pipeline run in one dispatch per kernel.
//!
//! ## The schedule of one kernel
//!
//! A participant walks its chain phase by phase. Each tick of a phase moves
//! what the kernel's greedy tick would — as many elements as its lanes, the
//! queued input, the free output slots and the phase's remaining length
//! allow ([`SpanPhase`]) — and a tick that moves nothing is a port-inert
//! stall. Given the other end's side of every stream it touches (the cycles
//! on which the writer of each input pushes and the reader of each output
//! pops, as run lists), that greedy schedule follows in closed form, run by
//! run ([`follow`]): a stall lasts until every port it needs is serviceable
//! again, a run lasts while the rate holds. The result is the kernel's
//! *acts* (busy stretches and stalls with their verdicts, up to where its
//! chain runs out) and a side per port.
//!
//! ## The schedule of the burst
//!
//! Each schedule depends on its neighbours', so the planner iterates to a
//! fixpoint: every participant starts with empty sides, and sweeps in node
//! order recompute any participant whose neighbours' sides changed. Sides
//! only grow from sweep to sweep (more pushes mean more to read, more pops
//! more room) and a change at cycle `τ` affects the neighbours only from
//! `τ` on, so the iteration climbs to the one schedule in which every kernel
//! is greedy against every other — dense stepping's. A feed-forward stretch
//! settles in one sweep; a backpressured one (a writer into a full FIFO
//! following its reader) in one more per link against node order, so as
//! many sweeps as there are participants settle any chain of such links.
//! Only a feedback loop — a reader ahead of its writer in node order, each
//! waiting on the other — can need more; the sweeps stop there and the burst
//! is cut at the earliest cycle a pending change could still move.
//!
//! The burst starts with every awake kernel (each must promise, or the
//! attempt is refused) and grows as the schedules reach parked ones: a
//! parked kernel whose input receives data or whose full output is drained
//! is recruited with its own promise — or, if it offers none, the burst
//! ends before it would wake.
//!
//! ## The length
//!
//! `k` is the earliest of: the cycle budget, where any participant's chain
//! runs out or breaks, a recruit veto, a pending fixpoint change, the next
//! schedule-replay boundary, and one dispatch artefact — a reader earlier in
//! node order than its writer runs its whole burst first, so it can consume
//! only what was queued at the start. Within `k` the dense outcome is
//! exactly what the acts and sides say, so the dispatch credits it
//! arithmetically: per participant, its busy and stall counts, one
//! [`Kernel::run_span`](crate::Kernel::run_span) moving each port's quota,
//! and the park state dense stepping would leave it in; per stream, the
//! occupancy peak in closed form ([`span_peak`]).

use crate::diag::{BurstEnd, Refusal};
use crate::graph::{End, Node};
use crate::kernel::{Progress, SpanIo, SpanPhase, SpanPlan, WakeHint, MAX_SPAN_PHASES};
use crate::stream::{
    follow, moved_before, rate_at, reach, span_peak, FollowEnd, SpanFeed, SpanRun,
    SpanStall, StreamState,
};

/// Farthest cycle a schedule is solved to, so run arithmetic never nears
/// `u64` overflow; budgets beyond it are clamped.
const HORIZON_CAP: u64 = 1 << 40;

/// One stretch of a participant's schedule: busy ticks, or a stall with the
/// verdict its ticks report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Act {
    start: u64,
    stop: u64,
    stall: Option<Progress>,
}

/// Where a participant's schedule stops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ending {
    /// The chain ran out.
    Chain,
    /// Still going at the planning horizon.
    Horizon,
    /// A tick the promise does not cover (a lockstep phase starved or
    /// blocked, a tick spilling into a phase the chain does not hold).
    Break { output: bool },
}

/// A kernel taking part in the planned burst.
struct Part {
    node: usize,
    plan: SpanPlan,
    /// Park verdict at the burst's start (`None`: awake).
    parked: Option<Progress>,
    /// Index into `wins` of its first port side (inputs, then outputs).
    win: usize,
    acts: (u32, u32),
    /// The schedule covers cycles `0..horizon`.
    horizon: u64,
    ending: Ending,
    /// Ports that held the last schedule back, bit per port (inputs, then
    /// outputs): only a change on one of them can move it.
    bound: u32,
    scheduled: bool,
}

/// One participant's part in a planned burst, as the dispatch applies it
/// (and a schedule-replay tape stores it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SpanPart {
    pub node: u32,
    pub busy: u64,
    pub stalled: u64,
    /// Window into the quota pool: one count per input port, then per
    /// output port.
    pub quotas: (u32, u32),
    /// Park verdict at the burst's end (`None`: awake).
    pub end: Option<Progress>,
}

/// One stream a planned burst moves elements through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SpanStream {
    pub stream: usize,
    /// Committed queue length when the burst starts (the replay guard).
    pub start_len: usize,
    /// Occupancy high-water mark the burst credits in closed form
    /// ([`span_peak`]; 0 ⇒ nothing committed).
    pub peak: usize,
}

/// The graph as the planner reads it.
pub(crate) struct View<'a> {
    pub nodes: &'a [Node],
    pub streams: &'a [StreamState],
    pub writers: &'a [Option<End>],
    pub readers: &'a [Option<End>],
    pub parked: &'a [Option<(Progress, u64)>],
    pub awake: &'a [u64],
}

/// A planned burst: its length and what bounded it.
pub(crate) struct Planned {
    pub k: u64,
    pub end: BurstEnd,
}

/// A refused attempt: why, and the per-element cycles after which the
/// binding bound has passed (0 ⇒ unknown).
pub(crate) struct Refused {
    pub reason: Refusal,
    pub retry: u64,
}

/// Planner scratch, reused across attempts so planning never allocates in
/// steady state. After a successful [`Planner::plan`], `parts`, `quotas`
/// and `streams` hold the burst for [`dispatch`].
#[derive(Default)]
pub(crate) struct Planner {
    list: Vec<Part>,
    /// Node → index into `list` (`u32::MAX`: not a participant).
    part_of: Vec<u32>,
    /// Port side windows into `runs`.
    wins: Vec<(u32, u32)>,
    runs: Vec<SpanRun>,
    acts: Vec<Act>,
    /// Nodes to (re)schedule, one bit each.
    dirty: Vec<u64>,
    /// Per node: the earliest cycle a change not yet seen by it differs.
    pending: Vec<u64>,
    /// How far schedules are solved: the budget, lowered to the earliest
    /// chain end found so far (the burst cannot run past it).
    reach: u64,
    // Per-schedule scratch.
    phase_runs: Vec<SpanRun>,
    write_runs: Vec<SpanRun>,
    stalls: Vec<SpanStall>,
    new_acts: Vec<Act>,
    new_runs: Vec<SpanRun>,
    slots: Vec<u32>,
    pub parts: Vec<SpanPart>,
    pub quotas: Vec<u64>,
    pub streams: Vec<SpanStream>,
}

/// Append an act, merging it into the last one when it continues it.
fn push_act(acts: &mut Vec<Act>, start: u64, stop: u64, stall: Option<Progress>) {
    if start >= stop {
        return;
    }
    if let Some(last) = acts.last_mut() {
        if last.stop == start && last.stall == stall {
            last.stop = stop;
            return;
        }
    }
    acts.push(Act { start, stop, stall });
}

/// The side of stream end `e` under the current schedules (empty when its
/// kernel is not a participant).
fn side_of<'a>(
    e: End,
    input: bool,
    nodes: &[Node],
    list: &[Part],
    part_of: &[u32],
    wins: &[(u32, u32)],
    runs: &'a [SpanRun],
) -> &'a [SpanRun] {
    match part_of[e.node] {
        u32::MAX => &[],
        ix => {
            let p = &list[ix as usize];
            let off = if input { e.port } else { nodes[e.node].inputs.len() + e.port };
            let (at, len) = wins[p.win + off];
            &runs[at as usize..(at + len) as usize]
        }
    }
}

impl Planner {
    /// Size the per-node scratch for a graph of `nodes` kernels.
    fn reset(&mut self, nodes: usize) {
        self.list.clear();
        self.wins.clear();
        self.runs.clear();
        self.acts.clear();
        self.parts.clear();
        self.quotas.clear();
        self.streams.clear();
        if self.part_of.len() != nodes {
            self.part_of = vec![u32::MAX; nodes];
            self.pending = vec![u64::MAX; nodes];
            self.dirty = vec![0; nodes.div_ceil(64)];
        }
    }

    /// Add node `i` with promise `plan` and mark it for scheduling.
    fn add(&mut self, view: &View<'_>, i: usize, plan: SpanPlan) {
        self.part_of[i] = self.list.len() as u32;
        let ports = view.nodes[i].inputs.len() + view.nodes[i].outputs.len();
        self.list.push(Part {
            node: i,
            plan,
            parked: view.parked[i].map(|(v, _)| v),
            win: self.wins.len(),
            acts: (0, 0),
            horizon: 0,
            ending: Ending::Horizon,
            bound: 0,
            scheduled: false,
        });
        self.wins.extend(std::iter::repeat_n((0, 0), ports));
        self.dirty[i / 64] |= 1 << (i % 64);
    }

    /// Plan a burst of at most `budget` cycles starting now, worth taking
    /// only if at least `min_burst` long. `marker` is the schedule-replay
    /// boundary ahead: the stream and the pops still due before it.
    pub fn plan(
        &mut self,
        view: &View<'_>,
        budget: u64,
        min_burst: u64,
        marker: Option<(usize, u64)>,
    ) -> Result<Planned, Refused> {
        let n = view.nodes.len();
        self.reset(n);
        let refuse = |reason, retry| Err(Refused { reason, retry });
        // Every awake kernel takes part from cycle 0 and must promise.
        let mut i = 0usize;
        while i < n {
            let rest = view.awake[i / 64] >> (i % 64);
            if rest == 0 {
                i = (i / 64 + 1) * 64;
                continue;
            }
            i += rest.trailing_zeros() as usize;
            if i >= n {
                break;
            }
            match span_hint(view.streams, &view.nodes[i]) {
                Some(plan) => self.add(view, i, plan),
                None => {
                    self.clear_marks();
                    return refuse(Refusal::NoPlan, 0);
                }
            }
            i += 1;
        }
        if self.list.is_empty() {
            return refuse(Refusal::AllDemoted, 0);
        }
        self.reach = budget.min(HORIZON_CAP);
        let mut veto = u64::MAX;
        // One sweep per participant (recruits included) settles every chain
        // of links against node order (see the module docs).
        let mut sweeps = 0;
        while sweeps <= self.list.len() && self.sweep(view, &mut veto) {
            sweeps += 1;
        }
        // A change no sweep has propagated yet bounds the settled prefix.
        let mut unsettled = u64::MAX;
        for (w, word) in self.dirty.iter_mut().enumerate() {
            while *word != 0 {
                let b = word.trailing_zeros() as usize;
                *word &= *word - 1;
                unsettled = unsettled.min(self.pending[w * 64 + b]);
                self.pending[w * 64 + b] = u64::MAX;
            }
        }

        // The burst length and what bounds it.
        let mut k = budget;
        let mut end = BurstEnd::Budget;
        let mut reason = Refusal::ShortPhase;
        let mut bound = |at: u64, e: BurstEnd, r: Refusal| {
            if at < k {
                k = at;
                end = e;
                reason = r;
            }
        };
        for p in &self.list {
            match p.ending {
                Ending::Chain => bound(p.horizon, BurstEnd::Phase, Refusal::ShortPhase),
                Ending::Horizon => {}
                Ending::Break { output } => bound(
                    p.horizon,
                    BurstEnd::Stream,
                    if output {
                        Refusal::WriteBlockedNonHalting
                    } else {
                        Refusal::StreamCap
                    },
                ),
            }
        }
        // A cycle on which no participant is busy changes nothing, so none
        // is busy after it either: that is where dense stepping stops to
        // report a deadlock, or idles out its budget.
        let quiet = self
            .list
            .iter()
            .filter_map(|p| {
                let acts = &self.acts[p.acts.0 as usize..(p.acts.0 + p.acts.1) as usize];
                acts.iter().rev().find(|a| a.stall.is_none()).map(|a| a.stop)
            })
            .max()
            .unwrap_or(0);
        bound(quiet, BurstEnd::Phase, Refusal::AllDemoted);
        bound(veto, BurstEnd::Stream, Refusal::RecruitVeto);
        bound(unsettled, BurstEnd::Stream, Refusal::Admission);
        // A reader dispatched before its writer sees only the queued lead.
        for p in &self.list {
            let node = &view.nodes[p.node];
            for (q, &s) in node.inputs.iter().enumerate() {
                let w = view.writers[s].expect("validated");
                if w.node > p.node && self.part_of[w.node] != u32::MAX {
                    let lead = view.streams[s].queue.len() as u64;
                    let pops = self.side(view, End { node: p.node, port: q }, true);
                    bound(reach(pops, lead + 1), BurstEnd::Stream, Refusal::StreamCap);
                }
            }
        }
        // A replay boundary inside the burst ends it: the fingerprint must
        // see the state dense stepping reaches there.
        if let Some((s, due)) = marker {
            let r = view.readers[s].expect("validated");
            if self.part_of[r.node] != u32::MAX && due > 0 {
                let pops = self.side(view, r, true);
                bound(reach(pops, due).saturating_add(1), BurstEnd::Budget, Refusal::ShortPhase);
            }
        }

        // A parked participant's schedule must open with the verdict it is
        // parked on (its ticks are a fixed point until an event wakes it).
        let first = |p: &Part| self.acts[p.acts.0 as usize..].first().filter(|_| p.acts.1 > 0);
        let admitted = self.list.iter().all(|p| match (p.parked, first(p)) {
            (Some(v), Some(a)) => a.stall.is_none_or(|s| s == v),
            _ => true,
        });
        let runs_now = self
            .list
            .iter()
            .any(|p| first(p).is_some_and(|a| a.stall.is_none()));
        let result = if !admitted {
            refuse(Refusal::Admission, 0)
        } else if !runs_now {
            // Nothing runs on the first cycle, so nothing ever would: leave
            // it to per-element stepping, which keeps deadlock detection live.
            refuse(Refusal::AllDemoted, 0)
        } else if k < min_burst.max(2) {
            refuse(reason, k)
        } else {
            self.emit(view, k);
            Ok(Planned { k, end })
        };
        self.clear_marks();
        result
    }

    /// Reset the per-node marks an attempt leaves behind.
    fn clear_marks(&mut self) {
        for p in &self.list {
            self.part_of[p.node] = u32::MAX;
            self.pending[p.node] = u64::MAX;
        }
        self.dirty.iter_mut().for_each(|w| *w = 0);
    }

    /// The side of stream end `e` (see [`side_of`]).
    fn side(&self, view: &View<'_>, e: End, input: bool) -> &[SpanRun] {
        side_of(e, input, view.nodes, &self.list, &self.part_of, &self.wins, &self.runs)
    }

    /// One sweep in node order over the dirty participants; `false` when
    /// there were none.
    fn sweep(&mut self, view: &View<'_>, veto: &mut u64) -> bool {
        let mut any = false;
        let mut w = 0;
        while w < self.dirty.len() {
            let word = self.dirty[w];
            if word == 0 {
                w += 1;
                continue;
            }
            let b = word.trailing_zeros() as usize;
            self.dirty[w] &= !(1 << b);
            let i = w * 64 + b;
            self.pending[i] = u64::MAX;
            any = true;
            let pi = self.part_of[i] as usize;
            self.schedule(view, pi, self.reach);
            let p = &self.list[pi];
            if p.ending == Ending::Chain {
                // Chain ends only come earlier as sides grow, so no later
                // sweep can need a schedule past this one.
                self.reach = self.reach.min(p.horizon);
            }
            self.commit(view, pi, veto);
            // Marks set at or below `w` are picked up on the next pass.
        }
        any
    }

    /// Solve participant `pi`'s schedule against the current sides into the
    /// per-schedule scratch (`new_acts`, `new_runs`, `slots`).
    fn schedule(&mut self, view: &View<'_>, pi: usize, h: u64) {
        let Self {
            list,
            part_of,
            wins,
            runs,
            phase_runs,
            write_runs,
            stalls,
            new_acts,
            new_runs,
            slots,
            ..
        } = self;
        let part = &list[pi];
        let node = &view.nodes[part.node];
        let (ni, no) = (node.inputs.len(), node.outputs.len());
        let side = |e: End, input: bool| side_of(e, input, view.nodes, list, part_of, wins, runs);
        // What each port has moved so far, and the feed it sees.
        let mut mine = [0u64; 2 * crate::kernel::MAX_SPAN_PORTS];
        let feed = |port: usize, mine: &[u64]| -> SpanFeed<'_> {
            if port < ni {
                let s = node.inputs[port];
                SpanFeed {
                    mine: mine[port],
                    ..SpanFeed::input(
                        side(view.writers[s].expect("validated"), false),
                        view.streams[s].queue.len(),
                    )
                }
            } else {
                let s = node.outputs[port - ni];
                let r = view.readers[s].expect("validated");
                let st = &view.streams[s];
                SpanFeed {
                    mine: mine[port],
                    ..SpanFeed::output(
                        side(r, true),
                        st.spec.capacity - st.queue.len(),
                        r.node < part.node,
                    )
                }
            }
        };
        let ports_of = |reads: u8, writes: u8| {
            (0..ni)
                .filter(move |&p| reads & (1 << p) != 0)
                .chain((0..no).filter(move |&p| writes & (1 << p) != 0).map(move |p| ni + p))
        };
        new_acts.clear();
        phase_runs.clear();
        // Per phase: the range of `phase_runs` each side moved.
        let mut ranges = [((0u32, 0u32), (0u32, 0u32)); MAX_SPAN_PHASES];
        let phases = part.plan.phases();
        let mut t = 0u64;
        let mut ending = Ending::Chain;
        let mut done = 0;
        // Ports that held the schedule back (see `SpanFeed::bound`).
        let mut bound = 0u32;
        for (j, ph) in phases.iter().enumerate() {
            let mut feeds = [SpanFeed::input(&[], 0); 2 * crate::kernel::MAX_SPAN_PORTS];
            let r0 = phase_runs.len() as u32;
            let (end, last) = if ph.overlapped {
                let mut nr = 0;
                for p in ports_of(ph.reads, 0) {
                    feeds[nr] = feed(p, &mine);
                    nr += 1;
                }
                stalls.clear();
                let r_end = follow(
                    &mut feeds[..nr],
                    u64::from(ph.read_lanes),
                    ph.read_len,
                    false,
                    t,
                    h,
                    phase_runs,
                    stalls,
                );
                let mut nw = nr;
                for p in ports_of(0, ph.writes) {
                    feeds[nw] = feed(p, &mine);
                    nw += 1;
                }
                write_runs.clear();
                let w_end = follow(
                    &mut feeds[nr..nw],
                    u64::from(ph.write_lanes),
                    ph.write_len,
                    false,
                    t,
                    h,
                    write_runs,
                    stalls,
                );
                let r1 = phase_runs.len() as u32;
                phase_runs.extend_from_slice(write_runs);
                ranges[j] = ((r0, r1 - r0), (r1, phase_runs.len() as u32 - r1));
                for (f, p) in feeds[..nw].iter().zip(ports_of(ph.reads, ph.writes)) {
                    mine[p] = f.mine;
                    bound |= u32::from(f.bound) << p;
                }
                let end = match (r_end, w_end) {
                    (FollowEnd::Done(a), FollowEnd::Done(b)) => Some(a.max(b)),
                    _ => None,
                };
                let stop = end.unwrap_or(h);
                let (rr, wr) = (&phase_runs[r0 as usize..r1 as usize], &write_runs[..]);
                union_acts(rr, wr, t, stop, new_acts);
                // A folded read finishing the phase with lanes to spare
                // keeps reading past it in the same tick once the writes
                // are out.
                if let (Some(_), true, Some(lr)) = (end, ph.spill, rr.last()) {
                    let c = lr.stop - 1;
                    let writes_out = wr.last().is_none_or(|w| w.stop <= lr.stop);
                    let fed = feeds[..nr].iter().all(|f| f.avail(c) > 0);
                    bound |= u32::from(ph.reads);
                    if u64::from(lr.rate) < u64::from(ph.read_lanes) && writes_out && fed {
                        t = c;
                        ending = Ending::Break { output: false };
                        done = j + 1;
                        break;
                    }
                }
                (end, None)
            } else {
                let mut nf = 0;
                for p in ports_of(ph.reads, ph.writes) {
                    feeds[nf] = feed(p, &mine);
                    nf += 1;
                }
                stalls.clear();
                let len = if ph.reads != 0 { ph.read_len } else { ph.write_len };
                let res = follow(
                    &mut feeds[..nf],
                    u64::from(ph.read_lanes.max(ph.write_lanes)),
                    len,
                    ph.dry.is_none(),
                    t,
                    h,
                    phase_runs,
                    stalls,
                );
                let r1 = phase_runs.len() as u32;
                ranges[j] = if ph.reads != 0 {
                    ((r0, r1 - r0), (r0, if ph.writes != 0 { r1 - r0 } else { 0 }))
                } else {
                    ((r0, 0), (r0, r1 - r0))
                };
                for (f, p) in feeds[..nf].iter().zip(ports_of(ph.reads, ph.writes)) {
                    mine[p] = f.mine;
                    bound |= u32::from(f.bound) << p;
                }
                coupled_acts(
                    &phase_runs[r0 as usize..],
                    stalls,
                    ph,
                    new_acts,
                );
                match res {
                    FollowEnd::Done(e) => (Some(e), phase_runs[r0 as usize..].last().copied()),
                    FollowEnd::Horizon => (None, None),
                    FollowEnd::Break(c) => {
                        let output = feeds[..nf]
                            .iter()
                            .any(|f| !f.input && f.avail(c) < i64::from(ph.write_lanes));
                        t = c;
                        ending = Ending::Break { output };
                        done = j + 1;
                        break;
                    }
                }
            };
            done = j + 1;
            let Some(e) = end else {
                t = h;
                ending = Ending::Horizon;
                break;
            };
            // A folded coupled tick finishing the phase with lanes to spare
            // carries on into the next phase within the same cycle.
            if let (true, Some(lr)) = (ph.spill, last) {
                if u64::from(lr.rate) < u64::from(ph.read_lanes.max(ph.write_lanes)) {
                    let c = e - 1;
                    let spills = phases.get(j + 1).is_none_or(|next| {
                        ports_of(next.reads, next.writes).all(|p| {
                            bound |= 1 << p;
                            feed(p, &mine).avail(c) > 0
                        })
                    });
                    if spills {
                        t = c;
                        ending = Ending::Break { output: false };
                        break;
                    }
                }
            }
            t = e;
        }
        // Each port's side: the runs of every phase that moves it.
        new_runs.clear();
        slots.clear();
        for port in 0..ni + no {
            let at = new_runs.len() as u32;
            for (ph, &(rr, wr)) in phases.iter().zip(&ranges).take(done) {
                let (mask, range) = if port < ni {
                    (ph.reads & (1 << port) != 0, rr)
                } else {
                    (ph.writes & (1 << (port - ni)) != 0, wr)
                };
                if mask {
                    for r in &phase_runs[range.0 as usize..(range.0 + range.1) as usize] {
                        // Phases meeting at one rate continue one run.
                        let own = new_runs.len() > at as usize;
                        match new_runs.last_mut() {
                            Some(l) if own && (l.stop, l.rate) == (r.start, r.rate) => {
                                l.stop = r.stop
                            }
                            _ => new_runs.push(*r),
                        }
                    }
                }
            }
            slots.push(at);
        }
        slots.push(new_runs.len() as u32);
        let part = &mut list[pi];
        part.horizon = t;
        part.ending = ending;
        part.bound = bound;
        part.scheduled = true;
    }

    /// Install the schedule just solved for `pi`, marking the neighbours of
    /// every side that changed (recruiting parked ones it reaches).
    fn commit(&mut self, view: &View<'_>, pi: usize, veto: &mut u64) {
        let h = self.reach;
        let a0 = self.acts.len() as u32;
        self.acts.extend_from_slice(&self.new_acts);
        self.list[pi].acts = (a0, self.new_acts.len() as u32);
        let (i, win) = (self.list[pi].node, self.list[pi].win);
        let node = &view.nodes[i];
        let ni = node.inputs.len();
        for port in 0..self.slots.len() - 1 {
            let fresh = &self.new_runs[self.slots[port] as usize..self.slots[port + 1] as usize];
            let (at, len) = self.wins[win + port];
            let old = &self.runs[at as usize..(at + len) as usize];
            if old == fresh {
                continue;
            }
            // The first cycle the two sides differ.
            let tau = match old.iter().zip(fresh).find(|(a, b)| a != b) {
                Some((a, b)) if (a.start, a.rate) == (b.start, b.rate) => a.stop.min(b.stop),
                Some((a, b)) => a.start.min(b.start),
                None => old.get(fresh.len()).or(fresh.get(old.len())).map_or(0, |r| r.start),
            };
            let at = self.runs.len() as u32;
            self.runs.extend_from_slice(fresh);
            self.wins[win + port] = (at, fresh.len() as u32);
            // The kernel on the stream's other end, the cycle of the first
            // event it sees (a pop of its output, a push to its input) and
            // the cycle that event wakes it for: a later-ordered writer
            // ticks within the pop's cycle, anything else on the next.
            let event = fresh.first().map_or(u64::MAX, |r| r.start);
            let (other, wakes_at) = if port < ni {
                let w = view.writers[node.inputs[port]].expect("validated");
                (w, event.saturating_add(u64::from(w.node < i)))
            } else {
                let r = view.readers[node.outputs[port - ni]].expect("validated");
                (r, event.saturating_add(1))
            };
            let o = other.node;
            if self.part_of[o] != u32::MAX {
                // The port on the other end: an input of a reader, an
                // output of a writer. Offering more to a port that never
                // held its kernel back changes nothing (sides only grow).
                let q = &self.list[self.part_of[o] as usize];
                let facing = if port < ni {
                    view.nodes[o].inputs.len() + other.port
                } else {
                    other.port
                };
                if tau < h && (!q.scheduled || q.bound & (1 << facing) != 0) {
                    self.dirty[o / 64] |= 1 << (o % 64);
                    self.pending[o] = self.pending[o].min(tau);
                }
            } else if event < h {
                // An event inside the burst wakes the kernel, even when
                // the wake itself lands on the cycle after it.
                match view.parked[o] {
                    // Pops cannot un-idle a writer: `Idle` is input-driven,
                    // so it wakes, re-ticks `Idle` and parks again.
                    Some((Progress::Idle, _)) if port < ni => {}
                    Some(_) => match span_hint(view.streams, &view.nodes[o]) {
                        Some(plan) => {
                            // Until it is scheduled, the burst holds only
                            // up to its wake.
                            self.add(view, o, plan);
                            self.pending[o] = wakes_at;
                        }
                        // Without a promise the burst must end before the
                        // event, so per-element stepping delivers the wake.
                        None => *veto = (*veto).min(event),
                    },
                    None => unreachable!("awake kernels are participants"),
                }
            }
        }
    }

    /// Build the dispatch records of a burst of `k` cycles.
    fn emit(&mut self, view: &View<'_>, k: u64) {
        let (mut parts, mut quotas, mut streams) = (
            std::mem::take(&mut self.parts),
            std::mem::take(&mut self.quotas),
            std::mem::take(&mut self.streams),
        );
        let mut order: Vec<usize> = (0..self.list.len()).collect();
        order.sort_unstable_by_key(|&pi| self.list[pi].node);
        for pi in order {
            let p = &self.list[pi];
            let node = &view.nodes[p.node];
            let acts = &self.acts[p.acts.0 as usize..(p.acts.0 + p.acts.1) as usize];
            let (mut busy, mut stalled, mut last) = (0, 0, None);
            let mut same_park = true;
            for a in acts {
                if a.start >= k {
                    break;
                }
                let len = a.stop.min(k) - a.start;
                match a.stall {
                    None => busy += len,
                    Some(v) => {
                        if v == Progress::Stalled {
                            stalled += len;
                        }
                        same_park &= p.parked == Some(v);
                    }
                }
                last = Some(a.stall);
            }
            let Some(last) = last else {
                // Never scheduled: parked until after the burst.
                continue;
            };
            // Parked over the last cycle, unless an event on it wakes the
            // kernel for the next: a commit on an input (a push on `k − 1`)
            // or a pop by a reader later in node order.
            let end = last.filter(|_| {
                let fed = node.inputs.iter().any(|&s| {
                    let w = view.writers[s].expect("validated");
                    rate_at(self.side(view, w, false), k - 1) > 0
                });
                let drained = node.outputs.iter().any(|&s| {
                    let r = view.readers[s].expect("validated");
                    r.node > p.node && rate_at(self.side(view, r, true), k - 1) > 0
                });
                !fed && !drained
            });
            if busy == 0 && same_park && end == p.parked {
                // Parked throughout on one verdict: the lazy credit already
                // covers it.
                continue;
            }
            let q0 = quotas.len() as u32;
            for port in 0..node.inputs.len() + node.outputs.len() {
                let (at, len) = self.wins[p.win + port];
                quotas.push(moved_before(&self.runs[at as usize..(at + len) as usize], k));
            }
            parts.push(SpanPart {
                node: p.node as u32,
                busy,
                stalled,
                quotas: (q0, quotas.len() as u32 - q0),
                end,
            });
        }
        // Every stream the burst moves elements through, once: through its
        // writer when that takes part, else through its reader.
        let mut note = |s: usize, w: &[SpanRun], r: &[SpanRun]| {
            let moves = |side: &[SpanRun]| side.first().is_some_and(|run| run.start < k);
            if moves(w) || moves(r) {
                let start_len = view.streams[s].queue.len();
                let peak = span_peak(start_len, w, r, k);
                streams.push(SpanStream { stream: s, start_len, peak });
            }
        };
        for p in &self.list {
            let node = &view.nodes[p.node];
            for (q, &s) in node.outputs.iter().enumerate() {
                let w = self.side(view, End { node: p.node, port: q }, false);
                note(s, w, self.side(view, view.readers[s].expect("validated"), true));
            }
            for (q, &s) in node.inputs.iter().enumerate() {
                if self.part_of[view.writers[s].expect("validated").node] == u32::MAX {
                    note(s, &[], self.side(view, End { node: p.node, port: q }, true));
                }
            }
        }
        (self.parts, self.quotas, self.streams) = (parts, quotas, streams);
    }
}

/// Ask `node`'s kernel for a span promise, showing it the committed length
/// of each input queue and the free slots of each output queue
/// ([`Kernel::span_hint`](crate::Kernel::span_hint)'s arguments). Fixed-size
/// scratch so the planner never allocates.
fn span_hint(streams: &[StreamState], node: &Node) -> Option<SpanPlan> {
    let mut lens = [0; crate::kernel::MAX_SPAN_PORTS];
    for (p, &s) in node.inputs.iter().enumerate() {
        lens[p] = streams[s].queue.len();
    }
    let mut room = [0; crate::kernel::MAX_SPAN_PORTS];
    for (p, &s) in node.outputs.iter().enumerate() {
        room[p] = streams[s].spec.capacity - streams[s].queue.len();
    }
    node.kernel
        .span_hint(&lens[..node.inputs.len()], &room[..node.outputs.len()])
}

/// The acts of a coupled phase: its runs busy, its stalls `Stalled` —
/// or, for a phase whose dry verdict is `Idle`, `Idle` until some masked
/// input holds data.
fn coupled_acts(runs: &[SpanRun], stalls: &[SpanStall], ph: &SpanPhase, acts: &mut Vec<Act>) {
    let dry = ph.dry.unwrap_or(Progress::Stalled);
    let idle_first = dry == Progress::Idle && ph.reads != 0;
    let (mut r, mut s) = (runs.iter().peekable(), stalls.iter().peekable());
    loop {
        let run_first = match (r.peek(), s.peek()) {
            (Some(a), Some(b)) => a.start < b.start,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        if run_first {
            let a = r.next().expect("peeked");
            push_act(acts, a.start, a.stop, None);
        } else {
            let b = s.next().expect("peeked");
            if idle_first {
                push_act(acts, b.start, b.fed, Some(Progress::Idle));
                push_act(acts, b.fed.max(b.start), b.stop, Some(Progress::Stalled));
            } else {
                push_act(acts, b.start, b.stop, Some(Progress::Stalled));
            }
        }
    }
}

/// The acts of an overlapped phase over `from..to`: busy on every cycle
/// either side moves, `Stalled` between.
fn union_acts(a: &[SpanRun], b: &[SpanRun], from: u64, to: u64, acts: &mut Vec<Act>) {
    let (mut i, mut j) = (0, 0);
    let mut t = from;
    while t < to {
        // The next busy stretch starting at or after `t`.
        let next = match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) => {
                if x.start <= y.start {
                    i += 1;
                    *x
                } else {
                    j += 1;
                    *y
                }
            }
            (Some(x), None) => {
                i += 1;
                *x
            }
            (None, Some(y)) => {
                j += 1;
                *y
            }
            (None, None) => {
                push_act(acts, t, to, Some(Progress::Stalled));
                break;
            }
        };
        if next.stop <= t {
            continue;
        }
        push_act(acts, t, next.start.max(t).min(to), Some(Progress::Stalled));
        push_act(acts, next.start.max(t), next.stop.min(to), None);
        t = t.max(next.stop);
    }
}

/// Apply a planned (or replayed) burst of `k` cycles starting at clock
/// `t_now`: for each participant, in node order, settle the lazy stall
/// credit of its park, credit its busy and stall counts, move its quotas in
/// one [`Kernel::run_span`](crate::Kernel::run_span), and leave it awake or
/// parked as dense stepping would; then credit every stream's occupancy
/// peak. Returns whether a sink kernel ran.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dispatch(
    nodes: &mut [Node],
    streams: &mut [StreamState],
    parked: &mut [Option<(Progress, u64)>],
    awake: &mut [u64],
    parts: &[SpanPart],
    quotas: &[u64],
    span_streams: &[SpanStream],
    t_now: u64,
    k: u64,
) -> bool {
    let mut sink_progress = false;
    for p in parts {
        let i = p.node as usize;
        let node = &mut nodes[i];
        if let Some((verdict, since)) = parked[i].take() {
            if verdict == Progress::Stalled {
                node.stalled += t_now - 1 - since;
            }
        }
        node.busy += p.busy;
        node.stalled += p.stalled;
        if p.busy > 0 {
            let q = &quotas[p.quotas.0 as usize..(p.quotas.0 + p.quotas.1) as usize];
            let (qi, qo) = q.split_at(node.inputs.len());
            let mut io = SpanIo::new(streams, &node.inputs, &node.outputs, qi, qo);
            node.kernel.run_span(&mut io, p.busy);
            #[cfg(debug_assertions)]
            io.audit(node.kernel.name());
            sink_progress |= node.outputs.is_empty();
        }
        match p.end {
            Some(v) if node.kernel.wake_hint() == WakeHint::Parkable => {
                parked[i] = Some((v, t_now + k - 1));
                awake[i / 64] &= !(1 << (i % 64));
            }
            _ => awake[i / 64] |= 1 << (i % 64),
        }
    }
    for bs in span_streams {
        streams[bs.stream].note_span(bs.peak);
    }
    sink_progress
}
