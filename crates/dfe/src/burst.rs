//! Whole-graph burst planning: solving every kernel's next cycles from the
//! [`SpanPlan`] chains of the kernels a burst touches, so that `k` cycles of
//! the clocked pipeline run in one dispatch per kernel.
//!
//! ## One pass in time
//!
//! A participant walks its chain phase by phase. Each tick of a phase moves
//! what the kernel's greedy tick would — as many elements as its lanes, the
//! queued input, the free output slots and the phase's remaining length
//! allow ([`SpanPhase`]) — and a tick that moves nothing is a port-inert
//! stall. While the other end of every stream it touches keeps its rate,
//! what it does is constant for a stretch that follows in closed form
//! ([`greedy`]): a move repeats while its rate holds, a wait lasts until
//! every port it needs is serviceable again.
//!
//! So the planner simulates the burst event by event. It keeps every
//! participant's current *move* (a rate per side of its phase, or a wait
//! with its verdict) and every stream's running push and pop counts
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
//! arithmetically: per participant, its busy and stall counts, one
//! [`Kernel::run_span`](crate::Kernel::run_span) moving each port's quota,
//! and the park state dense stepping would leave it in; per stream, the
//! occupancy peak ([`Flow::peak`]).

use crate::diag::{BurstEnd, Refusal};
use crate::graph::{End, Node};
use crate::kernel::{
    Progress, SpanIo, SpanPhase, SpanPlan, WakeHint, MAX_GATHER_PORTS, MAX_SPAN_PORTS,
};
use crate::stream::{greedy, Flow, Gauge, Step, StreamState};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// A kernel taking part in the planned burst, as of cycle `since`.
struct Part {
    node: usize,
    /// Its ports' window into `Planner::ports`, and how many are inputs.
    ports: (u32, u32),
    ni: usize,
    /// Park verdict at the burst's start (`None`: awake).
    parked: Option<Progress>,
    /// The phase of its chain it is in, and the elements left on each side
    /// of it: a coupled phase has one side, an overlapped one a read side
    /// and a write side, a gather one side per port.
    phase: usize,
    left: [u64; SIDES],
    /// Elements per tick on each side from `since` on.
    rate: [u64; SIDES],
    since: u64,
    /// What it does from `since` on (`None`: busy), and on the cycle before.
    act: Option<Progress>,
    prev: Option<Progress>,
    /// Busy and `Stalled` ticks before `since`.
    busy: u64,
    stalled: u64,
    /// Every tick before `since` repeated the verdict it is parked on.
    kept_park: bool,
    /// The cycle it is next stepped on (`u64::MAX`: none pending).
    next: u64,
    /// The cycles of its entries in the near and the far event queue
    /// (`u64::MAX`: none); while `next` is inside the burst, the earlier
    /// is never after it.
    near_at: u64,
    far_at: u64,
    /// Ports that held its move back at `since`, bit per port: found empty
    /// (an input) or full (an output), or holding no more than it moves.
    held: u32,
    /// Input ports whose pops a move must watch, bit per port: read ahead
    /// of their writer in node order, or the schedule-replay marker.
    watched: u32,
    /// Its full evaluations and follower advances so far.
    evals: u64,
    follows: u64,
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

/// What a participant does on a tick: a rate per side and a verdict, held
/// for some ticks while the other ends keep theirs — or a tick its promise
/// does not cover, and why.
enum Tick {
    Runs { rate: [u64; SIDES], act: Option<Progress>, ticks: u64 },
    Breaks(Refusal),
}

/// A phase's sides as port masks (bit per port: inputs, then outputs)
/// with their lanes: one coupled side, an overlapped read side and write
/// side, or one side per gathered port.
fn sides(ph: &SpanPhase, ni: usize) -> [(u32, u64); SIDES] {
    let (reads, writes) = (u32::from(ph.reads), u32::from(ph.writes) << ni);
    let mut sides = [(0, 0); SIDES];
    if ph.is_gather() {
        for (side, q) in sides.iter_mut().zip(bits(reads)) {
            *side = (1 << q, 1);
        }
    } else if ph.overlapped {
        sides[0] = (reads, u64::from(ph.read_lanes));
        sides[1] = (writes, u64::from(ph.write_lanes));
    } else {
        sides[0] = (reads | writes, u64::from(ph.read_lanes.max(ph.write_lanes)));
    }
    sides
}

/// Every port of a phase's sides.
fn side_ports(sides: &[(u32, u64); SIDES]) -> u32 {
    sides.iter().fold(0, |m, &(mask, _)| m | mask)
}

/// The ports set in a mask.
fn bits(mut mask: u32) -> impl Iterator<Item = usize> + Clone {
    std::iter::from_fn(move || {
        let q = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (q < 32).then_some(q)
    })
}

/// The elements each side of a phase moves.
fn side_lens(ph: &SpanPhase) -> [u64; SIDES] {
    let mut lens = [0; SIDES];
    if ph.is_gather() {
        lens = ph.gather.map(u64::from);
    } else if ph.overlapped {
        (lens[0], lens[1]) = (ph.read_len, ph.write_len);
    } else {
        lens[0] = if ph.reads != 0 { ph.read_len } else { ph.write_len };
    }
    lens
}

/// The tick of phase `ph` with `left` elements per side, on ports that
/// look like `g` (inputs `0..ni`, then outputs).
fn decide(ph: &SpanPhase, left: [u64; SIDES], ni: usize, g: &[Gauge]) -> Tick {
    let strict = ph.dry.is_none();
    let gather = ph.is_gather();
    // A gather idles unless a port whose quota is met holds an element.
    let (mut rate, mut ticks, mut idle) = ([0; SIDES], u64::MAX, gather);
    for (s, (mask, lanes)) in sides(ph, ni).into_iter().enumerate() {
        if left[s] == 0 {
            if let (true, Some(q)) = (gather, bits(mask).next()) {
                match g[q] {
                    Gauge { avail: 1.., .. } => idle = false,
                    // Until it holds one: ⌈(1 − avail) / gain⌉ ticks.
                    Gauge { avail: avail @ ..=0, gain: gain @ 1.., .. } => {
                        ticks = ticks.min(((gain - avail) / gain) as u64);
                    }
                    _ => {}
                }
            }
            continue;
        }
        let side = bits(mask).map(|q| g[q]);
        let step = greedy(side.clone(), lanes, left[s]);
        let full = matches!(step, Step::Move { m, .. } if m == lanes.min(left[s]));
        if strict && !full {
            let lanes = i64::from(ph.write_lanes);
            return Tick::Breaks(if side.clone().any(|g| !g.input && g.avail < lanes) {
                Refusal::WriteBlockedNonHalting
            } else {
                Refusal::StreamCap
            });
        }
        match step {
            Step::Move { m, ticks: d } => {
                rate[s] = m;
                ticks = ticks.min(d);
            }
            // A gathered port waits, empty, until it holds an element.
            Step::Wait { ticks: d, .. } if gather => ticks = ticks.min(d),
            Step::Wait { ticks: d, fed } => {
                // Idle while every masked input is empty, if the phase's
                // dry verdict says so; `Stalled` from the first element on.
                let dry = !ph.overlapped && ph.dry == Some(Progress::Idle) && ph.reads != 0;
                idle = dry && fed > 0;
                ticks = ticks.min(if idle { fed } else { d });
            }
        }
    }
    let act = match (rate == [0; SIDES], idle) {
        (true, true) => Some(Progress::Idle),
        (true, false) => Some(Progress::Stalled),
        _ => None,
    };
    Tick::Runs { rate, act, ticks }
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
            left: side_lens(&plan.phases()[0]),
            rate: [0; SIDES],
            since: 0,
            act,
            prev: act,
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
        let p = &mut self.list[pi];
        let elapsed = t - p.since;
        if elapsed > 0 {
            match p.act {
                None => p.busy += elapsed,
                Some(v) => {
                    p.stalled += elapsed * u64::from(v == Progress::Stalled);
                    p.kept_park &= p.parked == Some(v);
                }
            }
            p.left = std::array::from_fn(|s| p.left[s] - p.rate[s] * elapsed);
            (p.prev, p.since) = (p.act, t);
        }
        if self.follow(view, pi, t) {
            self.list[pi].follows += 1;
            return Ok(());
        }
        self.list[pi].evals += 1;
        self.eval(view, pi, t)
    }

    /// The closed-form step of a follower: participant `pi` in the middle of
    /// a coupled phase, on cycle `t > 0`, with no watched input in it. Its
    /// one side moves what [`greedy`] says of the phase's ports, so the step
    /// needs no phase walk, no [`decide`] over sides and no watch. `false`,
    /// with nothing changed, when `pi` is no follower at `t` or its tick is
    /// one only a full evaluation states: a lockstep break or a spill.
    fn follow(&mut self, view: &View<'_>, pi: usize, t: u64) -> bool {
        let p = &self.list[pi];
        let ph = &self.plans[pi].phases()[p.phase];
        let (left, p0, np) = (p.left[0], p.ports.0 as usize, p.ports.1 as usize);
        let mask = u32::from(ph.reads) | u32::from(ph.writes) << p.ni;
        if t == 0 || left == 0 || ph.overlapped || ph.is_gather() || mask & p.watched != 0 {
            return false;
        }
        let lanes = u64::from(ph.read_lanes.max(ph.write_lanes));
        let mut g = [Gauge { avail: 0, gain: 0, input: false }; PORTS];
        for q in bits(mask) {
            g[q] = self.gauge(&self.ports[p0 + q], t);
        }
        let strict = ph.dry.is_none();
        let (rate, act, ticks) = match greedy(bits(mask).map(|q| g[q]), lanes, left) {
            Step::Move { m, .. } if strict && m < lanes.min(left) => return false,
            // The tick finishing the phase may spill: a full evaluation
            // states it, on its own cycle.
            Step::Move { m, ticks } if ph.spill && m < lanes && m * ticks == left => {
                if ticks == 1 {
                    return false;
                }
                (m, None, ticks - 1)
            }
            Step::Move { m, ticks } => (m, None, ticks),
            Step::Wait { .. } if strict => return false,
            Step::Wait { ticks, fed } => {
                if ph.dry == Some(Progress::Idle) && ph.reads != 0 && fed > 0 {
                    (0, Some(Progress::Idle), fed)
                } else {
                    (0, Some(Progress::Stalled), ticks)
                }
            }
        };
        let next = t.saturating_add(ticks);
        debug_assert!(
            next > t,
            "{} re-queued on its own cycle {t}",
            view.nodes[p.node].kernel.name()
        );
        let held = bits(mask).filter(|&q| g[q].avail <= rate as i64).fold(0, |h, q| h | 1 << q);
        let p = &mut self.list[pi];
        self.busy = self.busy + usize::from(act.is_none()) - usize::from(p.act.is_none());
        (p.rate[0], p.act, p.next, p.held) = (rate, act, next, held);
        self.queue(pi);
        for q in 0..np {
            let m = if mask >> q & 1 != 0 { rate } else { 0 };
            self.publish(view, self.ports[p0 + q], t, m);
        }
        true
    }

    /// Find participant `pi`'s move from cycle `t` on in full — the phase
    /// it is in, every side of it, the watches on its inputs — and publish
    /// the rates that changed.
    fn eval(&mut self, view: &View<'_>, pi: usize, t: u64) -> Result<(), Refusal> {
        let p = &self.list[pi];
        let (i, ni, (p0, np)) = (p.node, p.ni, p.ports);
        let (mut phase, mut left) = (p.phase, p.left);
        let chain = self.plans[pi].phases().len();
        while left == [0; SIDES] {
            phase += 1;
            if phase == chain {
                self.bound(t, BurstEnd::Phase, Refusal::ShortPhase);
                return Ok(());
            }
            left = side_lens(&self.plans[pi].phases()[phase]);
        }
        let ph = &self.plans[pi].phases()[phase].clone();
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
                    // A one-cycle move across the phases.
                    (left, rate, ticks) = ([0; SIDES], [0; SIDES], 1);
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
        // The ports that held its move back: any change on them may move it.
        let held = bits(seen).filter(|&q| g[q].avail <= moves[q] as i64).fold(0, |h, q| h | 1 << q);
        // Progress guard: a move re-queued on its own cycle would be
        // evaluated again at `t` forever, and `run` would never return.
        debug_assert!(
            next > t,
            "{} re-queued on its own cycle {t}",
            view.nodes[i].kernel.name()
        );
        let p = &mut self.list[pi];
        self.busy = self.busy + usize::from(act.is_none()) - usize::from(p.act.is_none());
        (p.phase, p.left, p.rate, p.act, p.next, p.held) = (phase, left, rate, act, next, held);
        self.queue(pi);
        for (q, &m) in moves.iter().enumerate().take(np as usize) {
            self.publish(view, self.ports[p0 as usize + q], t, m);
        }
        Ok(())
    }

    /// A participant moves `rate` per tick through `port` from cycle `t` on:
    /// advance the stream's flow and re-evaluate the other end from the
    /// first tick the change can show in its move — or, on the first move
    /// towards a parked kernel, recruit it.
    fn publish(&mut self, view: &View<'_>, port: Port, t: u64, rate: u64) {
        let f = &mut self.flows[port.stream];
        let (first, sees) = if port.input {
            if f.rates_on(t).1 == rate {
                return;
            }
            let first = f.popped_before(t) == 0;
            f.set_pop(t, rate);
            (first, t + u64::from(!port.early))
        } else {
            if f.rates_on(t).0 == rate {
                return;
            }
            let first = f.pushed_before(t) == 0;
            f.set_push(t, rate);
            (first, t + 1)
        };
        let o = port.other;
        let pi = match self.part_of[o] {
            u32::MAX if first && rate > 0 && t < self.cut.k => {
                return self.recruit(view, o, port.input, t, sees);
            }
            u32::MAX => return,
            pi => pi as usize,
        };
        // Only a port that held its move back, or starts to before its next
        // evaluation, can change what the other end does.
        let p = &self.list[pi];
        let (next, held) = (p.next, p.held & 1 << port.facing != 0);
        if sees >= next {
            return;
        }
        let (push, pop) = self.flows[port.stream].rates_on(sees);
        let m = (if port.input { push } else { pop }) as i64;
        if m == 0 && !held {
            return;
        }
        let g = self.gauge(&self.ports[p.ports.0 as usize + port.facing], sees);
        let at = match g.gain - m {
            // A wait on the port ends once it holds an element.
            _ if m == 0 && g.avail >= 1 => sees,
            _ if m == 0 && g.gain > 0 => sees + ((g.gain - g.avail) / g.gain) as u64,
            _ if m == 0 => return,
            _ if g.avail < m => sees,
            slope if slope < 0 => sees + ((g.avail - m) / -slope) as u64 + 1,
            // More on a port that held the move back lifts it.
            _ if held && g.avail > m => sees,
            slope if held && slope > 0 => sees + 1,
            _ => return,
        };
        if at < next {
            self.list[pi].next = at;
            self.queue(pi);
        }
    }

    /// The first move on cycle `t` towards parked node `o` (a pop of its
    /// output when `drained`, else a push to its input) wakes it on cycle
    /// `wakes`: it joins with its own promise, or the burst ends before the
    /// event.
    fn recruit(&mut self, view: &View<'_>, o: usize, drained: bool, t: u64, wakes: u64) {
        let verdict = match view.parked[o] {
            // Pops cannot un-idle a writer: `Idle` is input-driven, so it
            // wakes, re-ticks `Idle` and parks again.
            Some((Progress::Idle, _)) if drained => return,
            Some((v, _)) => v,
            None => unreachable!("awake kernels are participants"),
        };
        let Some(plan) = span_hint(view.streams, &view.nodes[o]) else {
            // Without a promise the burst must end before the event, so
            // per-element stepping delivers the wake.
            self.bound(t, BurstEnd::Stream, Refusal::RecruitVeto);
            return;
        };
        self.add(view, o, plan, Some(verdict), wakes);
        if wakes > 0 {
            // Its ticks before the wake are a fixed point of its state at the
            // burst's start: the promise must say the same there.
            let p = self.list.last().expect("just added");
            let mut base = [Gauge { avail: 0, gain: 0, input: false }; PORTS];
            let ports = &self.ports[p.ports.0 as usize..][..p.ports.1 as usize];
            for (g, port) in base.iter_mut().zip(ports) {
                let avail = if port.input { self.flows[port.stream].len as i64 } else { port.room };
                *g = Gauge { avail, gain: 0, input: port.input };
            }
            let first = plan.phases().iter().find(|ph| side_lens(ph) != [0; SIDES]);
            match first.map(|ph| decide(ph, side_lens(ph), p.ni, &base)) {
                None => self.bound(0, BurstEnd::Phase, Refusal::ShortPhase),
                Some(Tick::Breaks(reason)) => self.bound(0, BurstEnd::Stream, reason),
                Some(Tick::Runs { act, .. }) if act != Some(verdict) => {
                    self.bound(0, BurstEnd::Stream, Refusal::Admission);
                }
                Some(Tick::Runs { .. }) => {}
            }
        }
    }

    /// Build the dispatch records of a burst of `k` cycles.
    fn emit(&mut self, view: &View<'_>, k: u64) {
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        order.extend(0..self.list.len() as u32);
        order.sort_unstable_by_key(|&pi| self.list[pi as usize].node);
        for &pi in &order {
            let p = &self.list[pi as usize];
            let node = &view.nodes[p.node];
            let elapsed = k - p.since;
            let (mut busy, mut stalled, mut kept_park) = (p.busy, p.stalled, p.kept_park);
            match p.act {
                None => busy += elapsed,
                Some(v) if elapsed > 0 => {
                    stalled += elapsed * u64::from(v == Progress::Stalled);
                    kept_park &= p.parked == Some(v);
                }
                Some(_) => {}
            }
            let last = if elapsed > 0 { p.act } else { p.prev };
            // Parked over the last cycle, unless an event on it wakes the
            // kernel for the next: a commit on an input (a push on `k − 1`)
            // or a pop by a reader later in node order.
            let end = last.filter(|_| {
                let fed = node.inputs.iter().any(|&s| self.flows[s].rates_on(k - 1).0 > 0);
                let drained = node.outputs.iter().any(|&s| {
                    view.readers[s].expect("validated").node > p.node
                        && self.flows[s].rates_on(k - 1).1 > 0
                });
                !fed && !drained
            });
            if busy == 0 && kept_park && end == p.parked {
                // Parked throughout on one verdict: the lazy credit already
                // covers it.
                continue;
            }
            let q0 = self.quotas.len() as u32;
            let quotas = node.inputs.iter().map(|&s| self.flows[s].popped_before(k));
            self.quotas.extend(quotas);
            let quotas = node.outputs.iter().map(|&s| self.flows[s].pushed_before(k));
            self.quotas.extend(quotas);
            self.parts.push(SpanPart {
                node: p.node as u32,
                busy,
                stalled,
                quotas: (q0, self.quotas.len() as u32 - q0),
                end,
            });
        }
        self.order = order;
        // Every stream the burst moves elements through, once.
        let narrow = |v: usize| u32::try_from(v).expect("stream index or occupancy fits u32");
        for &s in &self.touched {
            let f = &self.flows[s];
            if f.pushed_before(k) + f.popped_before(k) > 0 {
                let (start_len, peak) = (narrow(f.len as usize), narrow(f.peak(k)));
                self.streams.push(SpanStream { stream: narrow(s), start_len, peak });
            }
        }
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

/// Apply a planned (or replayed) burst of `span.k` cycles starting at clock
/// `t_now`: for each participant, in node order, settle the lazy stall
/// credit of its park, credit its busy and stall counts, move its quotas in
/// one [`Kernel::run_span`](crate::Kernel::run_span), and leave it awake or
/// parked as dense stepping would; then credit every stream's occupancy
/// peak. Returns whether a sink kernel ran.
pub(crate) fn dispatch(
    nodes: &mut [Node],
    streams: &mut [StreamState],
    parked: &mut [Option<(Progress, u64)>],
    awake: &mut [u64],
    span: Span<'_>,
    t_now: u64,
) -> bool {
    let Span { k, parts, quotas, streams: span_streams } = span;
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
        streams[bs.stream as usize].note_span(bs.peak as usize);
    }
    sink_progress
}
