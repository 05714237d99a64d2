//! Whole-graph burst planning: solving every kernel's next cycles from the
//! [`SpanPlan`] chains of the kernels a burst touches, so that `k` cycles of
//! the clocked pipeline run in one dispatch per kernel.
//!
//! ## One pass in time
//!
//! A participant walks its chain phase by phase, and a repeated phase
//! ([`SpanPhase::repeat`]) copy by copy without leaving its slot. Each tick
//! of a phase moves
//! what the kernel's greedy tick would — as many elements as its lanes, the
//! queued input, the free output slots and the phase's remaining length
//! allow ([`SpanPhase`]) — and a tick that moves nothing is a port-inert
//! stall. While the other end of every stream it touches keeps its rate,
//! what it does is constant for a stretch that follows in closed form
//! ([`greedy`]): a move repeats while its rate holds, a wait lasts until
//! every port it needs is serviceable again.
//!
//! So the planner simulates the burst event by event. It keeps every
//! participant's current *move* (a [`Rate`] per side of its phase, or a
//! wait with its verdict) and every stream's running push and pop counts
//! ([`Flow`]), advances to the earliest cycle at which some move changes —
//! ties in node order, dense stepping's order within a cycle — and
//! re-evaluates only that participant. A change of its rates on a stream
//! re-evaluates the kernel on the other end when the port held that
//! kernel's move back (or starts to before its next evaluation), from the
//! first tick the change can show: a reader sees a push on the next cycle
//! (staged writes commit at the end of theirs), a writer sees a pop on the
//! next cycle too, unless the reader ticks earlier in node order, when the
//! slot frees within the same cycle. Every stretch is appended once, in
//! time order, and never solved again. A folded tick that finishes a
//! coupled phase with lanes to spare goes on into the next phases within
//! its cycle ([`SpanPhase::spill`]): one one-cycle move across them.
//!
//! The burst starts with every awake kernel (each must promise, or the
//! attempt is refused) and grows as moves reach parked ones: a parked
//! kernel whose input receives data or whose full output is drained is
//! recruited with its own promise — or, if it offers none, the burst ends
//! before it would wake.
//!
//! ## Followers
//!
//! The pipeline runs at its slowest kernel's pace, and every other stage is
//! rate-matched to it through the FIFOs: the ResNet-18 stem reads six
//! elements of each 64-cycle position, so its pad stops and starts a cycle
//! after it, and the host source a cycle after the pad. Most steps of the
//! pass are such a coupled kernel (a pad, a split, an adder, a threshold
//! stage, a source) carrying a neighbour's rate change on. A participant is
//! a *follower* while it is inside a coupled phase whose inputs need no
//! watch: its move is the one greedy side of that phase over its ports, so
//! its step credits the run before it, sets the new rate and the cycle the
//! move ends in closed form, and publishes the rates that changed — no
//! phase walk, no sides to decide, no watches. A follower advance is
//! exactly the full evaluation it replaces. Every other step is a full
//! evaluation: a phase end, an overlapped or a gather phase, a lockstep
//! break, a spill, an input read ahead of its writer or carrying the
//! replay marker, and the steps on cycle 0.
//!
//! Steps run in `(cycle, node)` order, a follower's too. It cannot be
//! applied when the change that triggers it is published: a neighbour may
//! still take a step on an earlier cycle, which must find the flows as they
//! were then. Publishing queues steps on the same or the next cycle, and
//! those go to a short sorted list; phase ends and other later steps go to
//! a heap. A participant whose step moves later keeps its queued entry,
//! which re-queues it when it comes, so a follower toggling inside one
//! phase does not push its phase end again.
//!
//! ## Repeats
//!
//! A convolution or a pool states the identical positions of an output row
//! as one repeated phase. When every copy provably moves the same counts on
//! the same ticks, one evaluation crosses the copies ([`duty`]): each side
//! is then a duty-cycled [`Rate`] (`on` elements on `a` ticks of every
//! `p`) and the participant is busy on every tick. A side qualifies when
//! every port keeps up with its lanes — each read tick finds its full
//! count, each write tick room for it, checked port by port in O(1) per
//! period ([`Level`](crate::stream::Level)) — or when it is pinned to its
//! port's other end, finding on each tick exactly what that end moved on
//! the cycle before, and so moves that end's rate a cycle later. A coupled
//! kernel pinned the same way to a duty-cycled neighbour (a pad or source
//! in front of the bottleneck, a split or pad behind a crossing pool)
//! relays its rate in one follower step, its other ports checked to keep
//! up. A neighbour facing a duty-cycled rate it does not relay takes no
//! move past the rate's next change on a port that bounds it. A rate
//! change on a port a crossing or a relay is pinned to steps it again; on
//! any other port only that port is re-checked. Anything the closed forms
//! cannot state — copies with idle gaps, a reader wider than the kernel's
//! lanes, a spill, a watched input — is walked copy by copy.
//!
//! ## The length
//!
//! `k` is the earliest cycle at which one of these happens: the cycle
//! budget runs out, a participant's chain runs out or breaks (a lockstep
//! phase starved or blocked, a tick spilling past the phases the chain
//! holds), a recruit vetoes, the whole graph goes quiet, the next
//! schedule-replay boundary comes, or one dispatch artefact — a reader
//! earlier in node order than its writer runs its whole burst first, so it
//! can consume only what was queued at the start. Each is a check at the
//! event where it happens, and the pass stops there. Within `k` the dense
//! outcome is exactly what the moves say, so the dispatch credits it
//! arithmetically ([`emit`]): per participant, its busy and stall counts,
//! one [`Kernel::run_span`](crate::Kernel::run_span) moving each port's
//! quota, and the park state dense stepping would leave it in; per stream,
//! the occupancy peak ([`Flow::peak`]). Participants and their moves live in
//! `part`, how a rate change reaches the other end of a stream in
//! `publish`.

use crate::diag::{BurstEnd, Refusal};
use crate::graph::{End, Node};
use crate::kernel::{Progress, SpanPlan, MAX_GATHER_PORTS, MAX_SPAN_PORTS};
use crate::stream::{greedy, Flow, Gauge, Rate, Step, StreamState};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

mod duty;
mod emit;
mod part;
mod publish;

pub(crate) use emit::dispatch;
use part::{bits, decide, side_lens, side_ports, sides, Move, Part, Tick};

/// Farthest cycle a burst is planned to, so rate arithmetic never nears
/// `u64` overflow; budgets beyond it are clamped.
const HORIZON_CAP: u64 = 1 << 40;

/// Bits of an event-queue entry below its cycle, which hold its node.
const NODE_BITS: u32 = 24;

/// Ports of one kernel (inputs, then outputs).
const PORTS: usize = 2 * MAX_SPAN_PORTS;

/// Independent sides of one phase: a coupled phase has one, an overlapped
/// one a read and a write side, a gather one per port.
const SIDES: usize = MAX_GATHER_PORTS;

/// One stream port of a participant, resolved when it joins.
#[derive(Clone, Copy)]
struct Port {
    stream: usize,
    input: bool,
    /// The kernel on the stream's other end, and the index of this stream
    /// among its ports (inputs, then outputs).
    other: usize,
    facing: usize,
    /// The reader ticks earlier in node order than the writer: it is
    /// dispatched first, and the writer sees its pops within the cycle.
    early: bool,
    /// Free slots at the burst's start (an output).
    room: i64,
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
/// `u32` fields keep a schedule-replay tape, which stores one per stream
/// of every recorded span, small.
pub(crate) struct SpanStream {
    pub stream: u32,
    /// Committed queue length when the burst starts (the replay guard).
    pub start_len: u32,
    /// Occupancy high-water mark the burst credits in closed form
    /// ([`Flow::peak`]; 0 ⇒ nothing committed).
    pub peak: u32,
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

/// A burst as [`dispatch`] applies it: its length, its participants (each
/// with a window into `quotas`) and its streams — planned or replayed.
#[derive(Clone, Copy)]
pub(crate) struct Span<'a> {
    pub k: u64,
    pub parts: &'a [SpanPart],
    pub quotas: &'a [u64],
    pub streams: &'a [SpanStream],
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
/// and `streams` hold the burst for [`dispatch`] ([`Planner::span`]).
#[derive(Default)]
pub(crate) struct Planner {
    list: Vec<Part>,
    /// Each participant's promise, parallel to `list`.
    plans: Vec<SpanPlan>,
    ports: Vec<Port>,
    /// Node → index into `list` (`u32::MAX`: not a participant).
    part_of: Vec<u32>,
    /// Per stream: its running counts, valid where `live`.
    flows: Vec<Flow>,
    live: Vec<bool>,
    /// The streams with a live flow, in the order they joined.
    touched: Vec<usize>,
    /// Pending steps as `cycle << NODE_BITS | node`, ordered as dense
    /// stepping ticks: those due by the cycle after the one being planned
    /// in `near`, latest first, the rest in `far`, earliest first. An entry
    /// whose cycle is no longer its participant's `near_at` or `far_at` is
    /// stale.
    near: Vec<u64>,
    far: BinaryHeap<Reverse<u64>>,
    /// The cycle being planned.
    cycle: u64,
    /// Participants that are busy on the cycle being planned.
    busy: usize,
    /// The schedule-replay boundary: the marker stream and the pops due.
    marker: Option<(usize, u64)>,
    /// The burst length so far and what bounds it.
    cut: Cut,
    /// Participants in node order, for [`Planner::emit`].
    order: Vec<u32>,
    pub parts: Vec<SpanPart>,
    pub quotas: Vec<u64>,
    pub streams: Vec<SpanStream>,
}

/// Where a planned burst ends, what ends it there, and the reason to give
/// when that makes it too short.
struct Cut {
    k: u64,
    end: BurstEnd,
    reason: Refusal,
}

impl Default for Cut {
    fn default() -> Self {
        Self { k: u64::MAX, end: BurstEnd::Budget, reason: Refusal::ShortPhase }
    }
}

impl Planner {
    /// Clear the last attempt and size the per-node and per-stream scratch.
    fn reset(&mut self, view: &View<'_>) {
        if self.part_of.len() == view.nodes.len() {
            for p in &self.list {
                self.part_of[p.node] = u32::MAX;
            }
        } else {
            self.part_of = vec![u32::MAX; view.nodes.len()];
        }
        if self.flows.len() == view.streams.len() {
            for &s in &self.touched {
                self.live[s] = false;
            }
        } else {
            self.flows = vec![Flow::default(); view.streams.len()];
            self.live = vec![false; view.streams.len()];
        }
        self.list.clear();
        self.plans.clear();
        self.ports.clear();
        self.touched.clear();
        self.near.clear();
        self.far.clear();
        self.cycle = 0;
        self.parts.clear();
        self.quotas.clear();
        self.streams.clear();
        self.busy = 0;
    }

    /// Add node `i` with promise `plan`, doing `act` from cycle 0 until its
    /// first evaluation on cycle `at`.
    fn add(&mut self, view: &View<'_>, i: usize, plan: SpanPlan, act: Option<Progress>, at: u64) {
        self.part_of[i] = self.list.len() as u32;
        let node = &view.nodes[i];
        let p0 = self.ports.len() as u32;
        let mut watched = 0;
        let ends =
            node.inputs.iter().map(|&s| (s, true)).chain(node.outputs.iter().map(|&s| (s, false)));
        for (s, input) in ends {
            if !self.live[s] {
                self.live[s] = true;
                self.touched.push(s);
                self.flows[s] = Flow::new(view.streams[s].queue.len());
            }
            let (w, r) = (view.writers[s].expect("validated"), view.readers[s].expect("validated"));
            let (other, facing) = if input {
                (w.node, view.nodes[w.node].inputs.len() + w.port)
            } else {
                (r.node, r.port)
            };
            let st = &view.streams[s];
            let room = (st.spec.capacity - st.queue.len()) as i64;
            let early = r.node < w.node;
            let marked = self.marker.is_some_and(|(m, _)| m == s);
            if input && (early || marked) {
                watched |= 1 << (self.ports.len() as u32 - p0);
            }
            self.ports.push(Port { stream: s, input, other, facing, early, room });
        }
        let ports = (p0, self.ports.len() as u32 - p0);
        self.busy += usize::from(act.is_none());
        self.plans.push(plan);
        self.list.push(Part {
            node: i,
            ports,
            ni: node.inputs.len(),
            parked: view.parked[i].map(|(v, _)| v),
            phase: 0,
            reps: u64::from(plan.phases()[0].repeat) - 1,
            left: side_lens(&plan.phases()[0]),
            rate: [Rate::default(); SIDES],
            since: 0,
            act,
            prev: act,
            beat: None,
            cross: None,
            pins: 0,
            busy: 0,
            stalled: 0,
            kept_park: true,
            next: at,
            near_at: u64::MAX,
            far_at: u64::MAX,
            held: u32::MAX,
            watched,
            evals: 0,
            follows: 0,
        });
        self.queue(self.list.len() - 1);
    }

    /// The full evaluations and the follower advances of the last attempt.
    pub fn steps(&self) -> (u64, u64) {
        self.list.iter().fold((0, 0), |(e, f), p| (e + p.evals, f + p.follows))
    }

    /// Node `i`'s full evaluations and follower advances in the last
    /// attempt (`None`: not a participant).
    #[cfg(test)]
    pub fn steps_of(&self, i: usize) -> Option<(u64, u64)> {
        let p = self.list.get(*self.part_of.get(i)? as usize)?;
        Some((p.evals, p.follows))
    }

    /// Lower the burst to end at cycle `at`, for reason `end` (`reason`
    /// when that makes it too short).
    fn bound(&mut self, at: u64, end: BurstEnd, reason: Refusal) {
        if at < self.cut.k {
            self.cut = Cut { k: at, end, reason };
        }
    }

    /// The burst of `k` cycles the last successful [`Planner::plan`] left.
    pub fn span(&self, k: u64) -> Span<'_> {
        Span { k, parts: &self.parts, quotas: &self.quotas, streams: &self.streams }
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
        self.reset(view);
        assert!(view.nodes.len() < 1 << NODE_BITS, "node index outgrows the event queue");
        let refuse = |reason, retry| Err(Refused { reason, retry });
        self.cut = Cut { k: budget.min(HORIZON_CAP), ..Cut::default() };
        self.marker = marker.filter(|&(_, due)| due > 0);
        // Every awake kernel takes part from cycle 0 and must promise.
        let n = view.nodes.len();
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
                Some(plan) => self.add(view, i, plan, None, 0),
                None => return refuse(Refusal::NoPlan, 0),
            }
            i += 1;
        }
        if self.list.is_empty() {
            return refuse(Refusal::AllDemoted, 0);
        }
        if let Err(reason) = self.run(view) {
            return refuse(reason, 0);
        }
        let Cut { k, end, reason } = self.cut;
        if k < min_burst.max(2) {
            return refuse(reason, k);
        }
        self.emit(view, k);
        Ok(Planned { k, end })
    }

    /// The pass: evaluate participants in `(cycle, node)` order until the
    /// burst's end. A cycle after which nobody is busy changes nothing, so
    /// nobody is busy after it either: that is where dense stepping stops
    /// to report a deadlock, or idles out its budget — and where nothing
    /// runs on the first cycle, nothing ever would, so the attempt is left
    /// to per-element stepping, which keeps deadlock detection live.
    fn run(&mut self, view: &View<'_>) -> Result<(), Refusal> {
        loop {
            let far = self.far.peek().map(|&Reverse(e)| e);
            let (near, e) = match (self.near.last(), far) {
                (Some(&n), Some(f)) if f < n => (false, f),
                (Some(&n), _) => (true, n),
                (None, Some(f)) => (false, f),
                (None, None) => break,
            };
            let (t, i) = (e >> NODE_BITS, e & ((1 << NODE_BITS) - 1));
            if t >= self.cut.k {
                break;
            }
            if t > self.cycle {
                if self.busy == 0 {
                    break;
                }
                self.cycle = t;
            }
            let pi = self.part_of[i as usize] as usize;
            let p = &mut self.list[pi];
            let at = if near {
                self.near.pop();
                &mut p.near_at
            } else {
                self.far.pop();
                &mut p.far_at
            };
            if *at != t {
                continue;
            }
            *at = u64::MAX;
            if p.next == t {
                self.step(view, pi, t)?;
            } else {
                // Its step moved later after this entry was queued.
                self.queue(pi);
            }
        }
        if self.busy == 0 {
            self.bound(self.cycle, BurstEnd::Phase, Refusal::AllDemoted);
        }
        Ok(())
    }

    /// Queue participant `pi`'s step on its `next` cycle, unless an entry
    /// no later is pending: that one re-queues it when it comes.
    fn queue(&mut self, pi: usize) {
        let p = &mut self.list[pi];
        let at = p.next;
        if at >= self.cut.k || p.near_at.min(p.far_at) <= at {
            return;
        }
        let e = at << NODE_BITS | p.node as u64;
        if at <= self.cycle + 1 {
            p.near_at = at;
            let pos = self.near.iter().rposition(|&x| x > e).map_or(0, |j| j + 1);
            self.near.insert(pos, e);
        } else {
            p.far_at = at;
            self.far.push(Reverse(e));
        }
    }

    /// What a port finds on its tick at cycle `t`.
    fn gauge(&self, port: &Port, t: u64) -> Gauge {
        let f = &self.flows[port.stream];
        if port.input {
            let avail = f.len + f.pushed_before(t) - f.popped_before(t);
            Gauge { avail: avail as i64, gain: f.rates_on(t).0 as i64, input: true }
        } else {
            // A reader earlier in node order frees its slots within the cycle.
            let popped = f.popped_before(t + u64::from(port.early)) as i64;
            let avail = port.room - f.pushed_before(t) as i64 + popped;
            Gauge { avail, gain: f.rates_on(t).1 as i64, input: false }
        }
    }

    /// Step participant `pi` on cycle `t`: credit what it did since its last
    /// step, then find its move from `t` on — as a follower if it is one,
    /// else by a full evaluation — and publish the rates that changed.
    fn step(&mut self, view: &View<'_>, pi: usize, t: u64) -> Result<(), Refusal> {
        let ph = self.plans[pi].phases()[self.list[pi].phase];
        self.list[pi].credit(&ph, t);
        if let Some(mv) = self.follow(pi, t) {
            self.list[pi].follows += 1;
            self.apply(view, pi, t, mv);
            return Ok(());
        }
        self.list[pi].evals += 1;
        self.eval(view, pi, t)
    }

    /// The closed-form step of a follower: participant `pi` in the middle of
    /// a coupled phase, on cycle `t > 0`, with no watched input in it. Its
    /// one side relays a duty-cycled neighbour ([`Planner::relay`]) or moves
    /// what [`greedy`] says of the phase's ports, so the step needs no phase
    /// walk, no [`decide`] over sides and no watch. `None` when `pi` is no
    /// follower at `t` or its tick is one only a full evaluation states: a
    /// lockstep break or a spill.
    fn follow(&self, pi: usize, t: u64) -> Option<Move> {
        let p = &self.list[pi];
        let ph = &self.plans[pi].phases()[p.phase];
        let (left, p0) = (p.left[0], p.ports.0 as usize);
        let mask = u32::from(ph.reads) | u32::from(ph.writes) << p.ni;
        if t == 0 || left == 0 || ph.overlapped || ph.is_gather() || mask & p.watched != 0 {
            return None;
        }
        if let Some(mv) = self.relay(pi, t, p.phase, left) {
            return Some(mv);
        }
        let lanes = u64::from(ph.read_lanes.max(ph.write_lanes));
        let mut g = [Gauge { avail: 0, gain: 0, input: false }; PORTS];
        for q in bits(mask) {
            g[q] = self.gauge(&self.ports[p0 + q], t);
        }
        let strict = ph.dry.is_none();
        let (rate, act, ticks) = match greedy(bits(mask).map(|q| g[q]), lanes, left) {
            Step::Move { m, .. } if strict && m < lanes.min(left) => return None,
            // The tick finishing the phase may spill: a full evaluation
            // states it, on its own cycle.
            Step::Move { m, ticks } if ph.spill && m < lanes && m * ticks == left => {
                if ticks == 1 {
                    return None;
                }
                (m, None, ticks - 1)
            }
            Step::Move { m, ticks } => (m, None, ticks),
            Step::Wait { .. } if strict => return None,
            Step::Wait { ticks, fed } => {
                if ph.dry == Some(Progress::Idle) && ph.reads != 0 && fed > 0 {
                    (0, Some(Progress::Idle), fed)
                } else {
                    (0, Some(Progress::Stalled), ticks)
                }
            }
        };
        let next = bits(mask).fold(t.saturating_add(ticks), |n, q| {
            n.min(self.horizon(&self.ports[p0 + q], t, rate, n))
        });
        let held = bits(mask).filter(|&q| g[q].avail <= rate as i64).fold(0, |h, q| h | 1 << q);
        let mut r = [Rate::default(); SIDES];
        r[0] = Rate::flat(rate);
        Some(Move { rate: r, act, next, held, ..p.stay() })
    }

    /// Make `mv` participant `pi`'s move from cycle `t` on: queue its next
    /// step and publish the rates that changed.
    fn apply(&mut self, view: &View<'_>, pi: usize, t: u64, mv: Move) {
        debug_assert!(
            mv.next > t,
            "{} re-queued on its own cycle {t}",
            view.nodes[self.list[pi].node].kernel.name()
        );
        let p = &mut self.list[pi];
        let was_busy = p.busy_now();
        (p.phase, p.reps, p.left, p.rate) = (mv.phase, mv.reps, mv.left, mv.rate);
        (p.act, p.beat, p.cross, p.pins) = (mv.act, mv.beat, mv.cross, mv.pins);
        (p.next, p.held) = (mv.next, mv.held);
        self.busy = self.busy + usize::from(p.busy_now()) - usize::from(was_busy);
        let (p0, np, ni) = (p.ports.0 as usize, p.ports.1 as usize, p.ni);
        self.queue(pi);
        let own = sides(&self.plans[pi].phases()[mv.phase], ni);
        for q in 0..np {
            let m = match mv.moves {
                Some(moves) => Rate::flat(moves[q]),
                None => own
                    .iter()
                    .zip(mv.rate)
                    .find(|(&(mask, _), _)| mask >> q & 1 != 0)
                    .map_or(Rate::default(), |(_, r)| r),
            };
            self.publish(view, self.ports[p0 + q], t, m);
        }
    }

    /// Find participant `pi`'s move from cycle `t` on in full — the phase
    /// it is in, every side of it, the watches on its inputs — and publish
    /// the rates that changed.
    fn eval(&mut self, view: &View<'_>, pi: usize, t: u64) -> Result<(), Refusal> {
        let p = &self.list[pi];
        let (ni, p0) = (p.ni, p.ports.0);
        let (mut phase, mut left, mut reps) = (p.phase, p.left, p.reps);
        let chain = self.plans[pi].phases().len();
        while left == [0; SIDES] {
            if reps > 0 {
                reps -= 1;
            } else {
                phase += 1;
                if phase == chain {
                    self.bound(t, BurstEnd::Phase, Refusal::ShortPhase);
                    return Ok(());
                }
                reps = u64::from(self.plans[pi].phases()[phase].repeat) - 1;
            }
            left = side_lens(&self.plans[pi].phases()[phase]);
        }
        let ph = &self.plans[pi].phases()[phase].clone();
        // A repeat crossed, or a duty-cycled neighbour relayed, in closed form.
        let closed = if ph.overlapped {
            self.cross(pi, t, phase, reps, left)
        } else if t > 0 && !ph.is_gather() && left[0] > 0 {
            self.relay(pi, t, phase, left[0])
        } else {
            None
        };
        if let Some(mv) = closed {
            self.apply(view, pi, t, mv);
            return Ok(());
        }
        // What the phase's ports find (the others cannot bind its move).
        let own = sides(ph, ni);
        let (mask, lanes) = own[0];
        let mut seen = side_ports(&own);
        let mut g = [Gauge { avail: 0, gain: 0, input: false }; PORTS];
        for q in bits(seen) {
            g[q] = self.gauge(&self.ports[p0 as usize + q], t);
        }
        let (mut rate, act, mut ticks) = match decide(ph, left, ni, &g) {
            Tick::Runs { rate, act, ticks } => (rate, act, ticks),
            Tick::Breaks(reason) => {
                self.bound(t, BurstEnd::Stream, reason);
                return Ok(());
            }
        };
        // A recruit woken on cycle 0 must open with the verdict it is
        // parked on (its ticks are a fixed point until an event wakes it).
        let parked = self.list[pi].parked;
        if t == 0 && parked.is_some() && act.is_some() && act != parked {
            return Err(Refusal::Admission);
        }
        let mut moves = [0u64; PORTS];
        for (&(mask, _), &r) in own.iter().zip(&rate) {
            bits(mask).for_each(|q| moves[q] = r);
        }
        if ph.spill && rate[0] > 0 && rate[0] < lanes {
            if rate[0] * ticks == left[0] && ticks > 1 {
                // The tick finishing the phase may spill: evaluate it alone.
                ticks -= 1;
            } else if rate[0] == left[0] && ph.overlapped {
                // A folded read finishing the phase with lanes to spare
                // keeps reading past it in the same tick once the writes
                // are out.
                if rate[1] == left[1] && bits(mask).all(|q| g[q].avail > rate[0] as i64) {
                    self.bound(t, BurstEnd::Stream, Refusal::StreamCap);
                    return Ok(());
                }
            } else if rate[0] == left[0] {
                // A folded coupled tick finishing the phase with lanes to
                // spare carries on into the next phases within the cycle.
                let mut spare = lanes - rate[0];
                let mut rest = None;
                loop {
                    let Some(&next) = self.plans[pi].phases().get(phase + 1) else {
                        // Past the phases the chain holds: end before it.
                        self.bound(t, BurstEnd::Stream, Refusal::StreamCap);
                        return Ok(());
                    };
                    let [(mask, lanes), ..] = sides(&next, ni);
                    for q in bits(mask & !seen) {
                        g[q] = self.gauge(&self.ports[p0 as usize + q], t);
                    }
                    seen |= mask;
                    let room = bits(mask).map(|q| g[q].avail - moves[q] as i64).min();
                    let room = room.unwrap_or(i64::MAX).max(0) as u64;
                    if next.overlapped || next.dry.is_none() || next.is_gather() {
                        if room > 0 {
                            // Not a tick a promise covers: end before it.
                            self.bound(t, BurstEnd::Stream, Refusal::StreamCap);
                            return Ok(());
                        }
                        break;
                    }
                    let len = side_lens(&next)[0];
                    let m = spare.min(lanes).min(len).min(room);
                    if m == 0 {
                        break;
                    }
                    bits(mask).for_each(|q| moves[q] += m);
                    (phase, spare, rest) = (phase + 1, spare - m, Some(len - m));
                    if len > m || !next.spill || spare == 0 {
                        break;
                    }
                }
                if let Some(rest) = rest {
                    // A one-cycle move across the phases (coupled ones, which
                    // never repeat).
                    (left, rate, ticks, reps) = ([0; SIDES], [0; SIDES], 1, 0);
                    left[0] = rest;
                }
            }
        }
        // Input watches: a reader ahead of its writer in node order is
        // dispatched first, so it may pop only the queued lead; the marker's
        // reader ends the burst on the cycle after its due pop.
        let mut next = t.saturating_add(ticks);
        for (q, &m) in moves.iter().enumerate().take(ni) {
            let port = self.ports[p0 as usize + q];
            let f = &self.flows[port.stream];
            let (len, popped) = (f.len, f.popped_before(t));
            if port.early {
                if popped + m > len {
                    self.bound(t, BurstEnd::Stream, Refusal::StreamCap);
                    return Ok(());
                } else if let Some(d) = (len - popped).checked_div(m) {
                    next = next.min(t + d);
                }
            }
            if let Some((_, due)) = self.marker.filter(|&(ms, _)| ms == port.stream) {
                if popped < due && popped + m >= due {
                    self.bound(t + 1, BurstEnd::Budget, Refusal::ShortPhase);
                } else if popped < due && m > 0 {
                    next = next.min(t + (due - popped).div_ceil(m) - 1);
                }
            }
        }
        // A side through with its copy no longer reads its ports (a gather's
        // full port still decides its verdict).
        let done = own.iter().zip(&left).filter(|(_, &l)| l == 0 && !ph.is_gather());
        let live = seen & !done.fold(0, |m, (&(mask, _), _)| m | mask);
        for q in bits(live) {
            next = self.horizon(&self.ports[p0 as usize + q], t, moves[q], next);
        }
        // The ports that held its move back: any change on them may move it.
        let held = bits(seen).filter(|&q| g[q].avail <= moves[q] as i64).fold(0, |h, q| h | 1 << q);
        let mv = Move {
            phase,
            reps,
            left,
            rate: rate.map(Rate::flat),
            act,
            beat: None,
            cross: None,
            pins: 0,
            next,
            held,
            moves: Some(moves),
        };
        self.apply(view, pi, t, mv);
        Ok(())
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
    node.kernel.span_hint(&lens[..node.inputs.len()], &room[..node.outputs.len()])
}
