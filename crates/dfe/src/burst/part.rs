//! A participant of the planned burst: where it is in its chain, the move
//! it makes from its last step on and what that move credits, and what one
//! tick of a phase does ([`decide`]).

use super::{duty, PORTS, SIDES};
use crate::diag::Refusal;
use crate::kernel::{Progress, SpanPhase};
use crate::stream::{greedy, Gauge, Rate, Step};

/// A kernel taking part in the planned burst, as of cycle `since`.
#[derive(Clone, Copy)]
pub(super) struct Part {
    pub(super) node: usize,
    /// Its ports' window into `Planner::ports`, and how many are inputs.
    pub(super) ports: (u32, u32),
    pub(super) ni: usize,
    /// Park verdict at the burst's start (`None`: awake).
    pub(super) parked: Option<Progress>,
    /// The phase of its chain it is in, the copies of it left after the
    /// current one ([`SpanPhase::repeat`]), and the elements left on each
    /// side of the current copy: a coupled phase has one side, an
    /// overlapped one a read side and a write side, a gather one side per
    /// port.
    pub(super) phase: usize,
    pub(super) reps: u64,
    pub(super) left: [u64; SIDES],
    /// What each side moves from `since` on.
    pub(super) rate: [Rate; SIDES],
    pub(super) since: u64,
    /// Its verdict from `since` on (`None`: busy) — on the ticks `beat`
    /// leaves out, when it has one — and on the cycle before `since`.
    pub(super) act: Option<Progress>,
    pub(super) prev: Option<Progress>,
    /// A relay's busy ticks (see [`duty`]): the active ticks of its rate.
    pub(super) beat: Option<Rate>,
    /// A repeat crossed in closed form (see [`duty`]).
    pub(super) cross: Option<duty::Cross>,
    /// Ports a crossing or a relay is pinned to, bit per port: a change on
    /// one needs the move found again.
    pub(super) pins: u32,
    /// Busy and `Stalled` ticks before `since`.
    pub(super) busy: u64,
    pub(super) stalled: u64,
    /// Every tick before `since` repeated the verdict it is parked on.
    pub(super) kept_park: bool,
    /// The cycle it is next stepped on (`u64::MAX`: none pending).
    pub(super) next: u64,
    /// The cycles of its entries in the near and the far event queue
    /// (`u64::MAX`: none); while `next` is inside the burst, the earlier
    /// is never after it.
    pub(super) near_at: u64,
    pub(super) far_at: u64,
    /// Ports that held its move back at `since`, bit per port: found empty
    /// (an input) or full (an output), or holding no more than it moves.
    pub(super) held: u32,
    /// Input ports whose pops a move must watch, bit per port: read ahead
    /// of their writer in node order, or the schedule-replay marker.
    pub(super) watched: u32,
    /// Its full evaluations and follower advances so far.
    pub(super) evals: u64,
    pub(super) follows: u64,
}

/// A participant's move from a step on: where in its chain it is, what
/// each side and each port moves, its verdict, and the cycle it is next
/// stepped on.
#[derive(Clone, Copy)]
pub(super) struct Move {
    pub(super) phase: usize,
    pub(super) reps: u64,
    pub(super) left: [u64; SIDES],
    pub(super) rate: [Rate; SIDES],
    pub(super) act: Option<Progress>,
    pub(super) beat: Option<Rate>,
    pub(super) cross: Option<duty::Cross>,
    pub(super) pins: u32,
    pub(super) next: u64,
    pub(super) held: u32,
    /// What each port moves (inputs, then outputs), when that is not its
    /// side's rate (a tick across phases); `None`: each port of a side moves
    /// the side's rate, every other port nothing.
    pub(super) moves: Option<[u64; PORTS]>,
}

impl Part {
    /// Its verdict on cycle `c` of its current move (`None`: busy).
    pub(super) fn verdict(&self, c: u64) -> Option<Progress> {
        match self.beat {
            Some(beat) if beat.at(c) > 0 => None,
            _ => self.act,
        }
    }

    /// Busy on some cycle of its current move.
    pub(super) fn busy_now(&self) -> bool {
        self.act.is_none() || self.beat.is_some()
    }

    /// A move that keeps its place in the chain and its rates.
    pub(super) fn stay(&self) -> Move {
        Move {
            phase: self.phase,
            reps: self.reps,
            left: self.left,
            rate: self.rate,
            act: self.act,
            beat: None,
            cross: None,
            pins: 0,
            next: self.next,
            held: self.held,
            moves: None,
        }
    }

    /// Credit what it did on the cycles `since..t`, in phase `ph`: its busy
    /// and stall counts and the elements its sides moved.
    pub(super) fn credit(&mut self, ph: &SpanPhase, t: u64) {
        let elapsed = t - self.since;
        if elapsed == 0 {
            return;
        }
        let busy = match (self.beat, self.act) {
            (Some(beat), _) => beat.count(self.since, t) / beat.on(),
            (None, None) => elapsed,
            (None, Some(_)) => 0,
        };
        self.busy += busy;
        if let (true, Some(v)) = (busy < elapsed, self.act) {
            self.stalled += (elapsed - busy) * u64::from(v == Progress::Stalled);
            self.kept_park &= self.parked == Some(v);
        }
        match self.cross {
            Some(cross) => (self.reps, self.left) = cross.at(ph, t),
            None => {
                for (left, rate) in self.left.iter_mut().zip(&self.rate) {
                    *left -= rate.count(self.since, t);
                }
            }
        }
        (self.prev, self.since) = (self.verdict(t - 1), t);
    }
}

/// What a participant does on a tick: a rate per side and a verdict, held
/// for some ticks while the other ends keep theirs — or a tick its promise
/// does not cover, and why.
pub(super) enum Tick {
    Runs { rate: [u64; SIDES], act: Option<Progress>, ticks: u64 },
    Breaks(Refusal),
}

/// A phase's sides as port masks (bit per port: inputs, then outputs)
/// with their lanes: one coupled side, an overlapped read side and write
/// side, or one side per gathered port.
pub(super) fn sides(ph: &SpanPhase, ni: usize) -> [(u32, u64); SIDES] {
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
pub(super) fn side_ports(sides: &[(u32, u64); SIDES]) -> u32 {
    sides.iter().fold(0, |m, &(mask, _)| m | mask)
}

/// The ports set in a mask.
pub(super) fn bits(mut mask: u32) -> impl Iterator<Item = usize> + Clone {
    std::iter::from_fn(move || {
        let q = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (q < 32).then_some(q)
    })
}

/// The elements each side of a phase moves.
pub(super) fn side_lens(ph: &SpanPhase) -> [u64; SIDES] {
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
pub(super) fn decide(ph: &SpanPhase, left: [u64; SIDES], ni: usize, g: &[Gauge]) -> Tick {
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
