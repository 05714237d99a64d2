//! Duty-cycled moves: a repeat crossed in closed form, and a follower
//! relaying a duty-cycled neighbour.
//!
//! A convolution whose neighbours keep up with it emits one position after
//! another at its own pace: every copy of a repeated phase
//! ([`SpanPhase::repeat`]) reads `on` elements on each of its first `a`
//! ticks and writes on each of the first `a'`, the copy lasting `p` ticks.
//! Each side is then a *duty-cycled* [`Rate`] — `on` a tick for `a` ticks of
//! every `p` — and the kernel is busy on every tick. [`Planner::cross`]
//! states that in one evaluation for as many copies as every port keeps
//! up: an input holding the side's full count on each read tick, an output
//! room for it on each write tick, with the other ends at their current
//! rates ([`Level::holds_until`] answers that in O(1) per port). A side may
//! instead be *pinned* to its port's other end, finding on each tick
//! exactly what that end moved on the cycle before: it then moves that
//! end's rate a cycle later, flat or duty-cycled, for as long as the end
//! keeps it.
//!
//! A coupled kernel next to it (a pad, a source, a split) pinned the same
//! way — its full output to a duty-cycled reader, or its one fed input to a
//! duty-cycled writer — moves, on each tick, exactly what that end moved on
//! the cycle before. [`Planner::relay`] states that in one follower step,
//! once its other ports are checked to keep up for the whole stretch.
//!
//! Both are exactly what the per-tick moves would be, so a neighbour that
//! changes its rate on a port they are pinned to steps them again
//! ([`Planner::publish`]); on any other port it re-checks that port alone
//! ([`Planner::still_holds`]). A crossing picks up where it is, on the same
//! rates, and publishes nothing new.

use super::{bits, side_lens, sides, Move, Planner, Port, SIDES};
use crate::kernel::{Progress, SpanPhase};
use crate::stream::{Level, Rate};

/// A side of `len` elements moving up to `on` a tick, as `(on, a)`: `on` on
/// each of its first `a` ticks. `None` when it ends on a tick that moves
/// fewer after full ones (two counts a copy).
fn side_beat(len: u64, on: u64) -> Option<(u64, u64)> {
    match len {
        0 => Some((0, 0)),
        _ if len <= on => Some((len, 1)),
        _ if len % on == 0 => Some((on, len / on)),
        _ => None,
    }
}

/// A repeat crossed in closed form: the cycle the copy it started on began
/// and the copies left after that one, each side's rate, the ticks a copy
/// lasts, and which sides are pinned to their port's other end
/// ([`Planner::cross`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct Cross {
    t0: u64,
    reps0: u64,
    rates: [Rate; 2],
    period: u64,
    pinned: [bool; 2],
}

impl Cross {
    /// Where the crossing has got to by cycle `t > t0` in phase `ph`: the
    /// copies left after the current one, and each side's elements left of
    /// the current one (none, at a copy's end).
    pub(super) fn at(&self, ph: &SpanPhase, t: u64) -> (u64, [u64; SIDES]) {
        let e = t - self.t0;
        let (mut copies, mut tick) = (e / self.period, e % self.period);
        if tick == 0 {
            (copies, tick) = (copies - 1, self.period);
        }
        let start = self.t0 + copies * self.period;
        let lens = side_lens(ph);
        let mut left = [0; SIDES];
        for (s, rate) in self.rates.iter().enumerate() {
            left[s] = lens[s] - rate.count(start, start + tick);
        }
        (self.reps0 - copies, left)
    }
}

impl Planner {
    /// A repeat crossed in closed form: participant `pi` on the first tick
    /// of a copy of overlapped phase `phase` with `reps` copies after it —
    /// or already crossing it — whose every port keeps up with its sides.
    /// A side moves its lanes from the copy's first tick, or, pinned to its
    /// one port's other end ([`Planner::found_rate`]), that end's rate a
    /// cycle later: a flat count below its lanes on every tick of the copy,
    /// or a duty-cycled rate whose period is the copy's and which moves the
    /// side's count in one run inside it. The copy must end on the tick
    /// after its later side's last, with some side moving on every tick.
    /// One step to the repeat's end, or to the period from which a port may
    /// stop keeping up. `None` where that cannot be stated: a spill, a
    /// watched input, a side ending on a partial tick, a port that does not
    /// keep up on its first tick.
    pub(super) fn cross(
        &self,
        pi: usize,
        t: u64,
        phase: usize,
        reps: u64,
        left: [u64; SIDES],
    ) -> Option<Move> {
        let p = &self.list[pi];
        let ph = &self.plans[pi].phases()[phase];
        if ph.is_gather() || u32::from(ph.reads) & p.watched != 0 {
            return None;
        }
        let own = sides(ph, p.ni);
        let port = |mask: u32| {
            let mut q = bits(mask);
            q.next().filter(|_| q.next().is_none()).map(|q| &self.ports[p.ports.0 as usize + q])
        };
        let c = match p.cross {
            Some(c) if p.phase == phase => c,
            _ if reps > 0 && left == side_lens(ph) => {
                let (lens, lanes) = (side_lens(ph), [ph.read_lanes, ph.write_lanes].map(u64::from));
                let mut pins = [None; 2];
                for s in 0..2 {
                    let found = port(own[s].0).and_then(|port| self.found_rate(port, t));
                    pins[s] = found.filter(|r| match r.is_flat() {
                        true => lens[s] > 0 && r.on() < lanes[s].min(lens[s]),
                        false => lens[s] > 0 && r.on() <= lanes[s],
                    });
                }
                // A duty-cycled pin sets the copy's period; each other side
                // moves its lanes, or its flat pin, from the copy's start.
                let duty = pins.iter().flatten().find(|r| !r.is_flat()).map(Rate::period);
                let mut beat = [(0, 0); 2];
                for s in 0..2 {
                    if pins[s].is_none_or(|r| r.is_flat()) {
                        beat[s] = side_beat(lens[s], pins[s].map_or(lanes[s], |r| r.on()))?;
                    }
                }
                let period = duty.unwrap_or(beat[0].1.max(beat[1].1));
                if period == 0 || beat.iter().any(|&(_, a)| a > period) {
                    return None;
                }
                let mut windows = [(0, 0); 2];
                let mut rates = [Rate::default(); 2];
                for s in 0..2 {
                    (rates[s], windows[s]) = match pins[s] {
                        Some(r) if !r.is_flat() => {
                            // One run a copy, inside it, moving the side's count.
                            let first = if r.at(t) > 0 { t } else { r.next_change(t) };
                            let run = r.count(t, t + period) / r.on();
                            if r.at(t.wrapping_sub(1)) > 0 && r.at(t) > 0
                                || r.count(t, t + period) != lens[s]
                            {
                                return None;
                            }
                            (r, (first - t, first - t + run))
                        }
                        _ => {
                            let (on, a) = beat[s];
                            (Rate::duty(on, a, period, t), (0, a))
                        }
                    };
                }
                // A flat pin moves on every tick, or the lead its neighbour
                // builds between copies would speed it up; the copy ends
                // after its later side, and some side moves on each tick.
                let flat_pinned = |s: usize| pins[s].is_some_and(|r| r.is_flat());
                let [(a0, b0), (a1, b1)] = windows;
                let covered = a0.min(a1) == 0 && a0.max(a1) <= b0.min(b1);
                if b0.max(b1) != period
                    || !covered
                    || (0..2).any(|s| flat_pinned(s) && windows[s].1 < period)
                {
                    return None;
                }
                // A read that finishes a copy with lanes to spare, once the
                // writes are out and more input is queued, reads on into the
                // next copy within its tick: a spill.
                let [(on, a), (_, writes)] = beat;
                if ph.spill && pins[0].is_none() && on < lanes[0] && writes <= a {
                    return None;
                }
                let pinned = pins.map(|r| r.is_some());
                Cross { t0: t, reps0: reps, rates, period, pinned }
            }
            _ => return None,
        };
        let end = c.t0 + (c.reps0 + 1) * c.period;
        let (mut until, mut pins) = (end, 0);
        for (s, (&(mask, _), &rate)) in own.iter().zip(&c.rates).enumerate() {
            pins |= if c.pinned[s] { mask } else { 0 };
            if rate.on() == 0 {
                continue;
            }
            for q in bits(mask) {
                let port = &self.ports[p.ports.0 as usize + q];
                let holds = if !c.pinned[s] {
                    self.keeps_up(port, rate, t, until)
                } else if self.found_rate(port, t) == Some(rate) {
                    until
                } else {
                    t
                };
                until = until.min(holds);
            }
        }
        if until <= t {
            return None;
        }
        let mut rate = [Rate::default(); SIDES];
        rate[..2].copy_from_slice(&c.rates);
        Some(Move {
            phase,
            reps,
            left,
            rate,
            act: None,
            beat: None,
            cross: Some(c),
            pins,
            next: until,
            held: u32::MAX,
            moves: None,
        })
    }

    /// Whether participant `pi`'s duty-cycled move (a crossing or a relay)
    /// still holds up to its next step after the other end of its port `q`
    /// changed rate, the change showing from cycle `from`: the port keeps
    /// up with the move's rate on it. A change on a port the move is pinned
    /// to always needs the move found again.
    pub(super) fn still_holds(&self, pi: usize, q: usize, from: u64) -> bool {
        let p = &self.list[pi];
        if p.pins >> q & 1 != 0 {
            return false;
        }
        let ph = &self.plans[pi].phases()[p.phase];
        let side = sides(ph, p.ni).iter().position(|&(mask, _)| mask >> q & 1 != 0);
        let Some(s) = side else { return true };
        let (port, rate) = (&self.ports[p.ports.0 as usize + q], p.rate[s]);
        rate.on() == 0 || self.keeps_up(port, rate, from, p.next) >= p.next
    }

    /// The rate `port` is pinned to on cycle `t`: it finds exactly what its
    /// other end moved on the cycle its tick sees — elements pushed the
    /// cycle before on an input, slots popped the cycle before (or the same
    /// cycle, by a reader earlier in node order) on an output — so, moving
    /// all it finds, it moves that end's rate that much later for as long
    /// as the end keeps it.
    fn found_rate(&self, port: &Port, t: u64) -> Option<Rate> {
        let f = &self.flows[port.stream];
        let (push, pop) = f.rates();
        let other = if port.input { push } else { pop };
        let last = (t + u64::from(!port.input && port.early)).checked_sub(1)?;
        let (pushed, popped) = f.rates_on(last);
        let found = if port.input { pushed } else { popped };
        let pinned = found == other.at(last) && self.gauge(port, t).avail == found as i64;
        (pinned && other.on() > 0).then(|| other.later(t - last))
    }

    /// A follower relaying a duty-cycled neighbour: participant `pi` in
    /// coupled phase `phase` with `left` elements, on cycle `t > 0`, with a
    /// port pinned to a duty-cycled other end ([`Planner::found_rate`]) — an
    /// output whose reader pops one (its ticks that move nothing then
    /// `Stalled`), or else the one input whose writer pushes one (its ticks
    /// that move nothing then find that input empty, and any other input
    /// holding more than a tick's count). Then every tick moves that end's
    /// count of the cycle before, while its other ports keep up and the
    /// phase has a full count left. `None` where that cannot be stated.
    pub(super) fn relay(&self, pi: usize, t: u64, phase: usize, left: u64) -> Option<Move> {
        let p = &self.list[pi];
        let ph = &self.plans[pi].phases()[phase];
        let mask = u32::from(ph.reads) | u32::from(ph.writes) << p.ni;
        if t == 0 || ph.dry.is_none() || mask & p.watched != 0 {
            return None;
        }
        let p0 = p.ports.0 as usize;
        let duty = |q: &usize, input: bool| {
            let port = &self.ports[p0 + q];
            let (push, pop) = self.flows[port.stream].rates();
            port.input == input && !if input { push } else { pop }.is_flat()
        };
        let stalls = ph.dry == Some(Progress::Stalled) || ph.reads == 0;
        let q = match bits(mask).find(|q| duty(q, false)) {
            Some(q) if stalls => q,
            Some(_) => return None,
            None => bits(mask).find(|q| duty(q, true))?,
        };
        let port = &self.ports[p0 + q];
        let rate = self.found_rate(port, t).filter(|r| !r.is_flat())?;
        let lanes = u64::from(ph.read_lanes.max(ph.write_lanes));
        // Every relayed tick moves a full count, and (a spill) leaves more.
        let spare = if ph.spill { rate.on() } else { rate.on() - 1 };
        if rate.on() > lanes || left <= spare {
            return None;
        }
        let mut until = rate.reach(t, left - spare);
        // Other inputs of a relayed input never run dry — they hold an
        // element now, and more than a tick's count on each active tick, so
        // one left after it — and a tick that moves nothing is `Stalled`
        // whatever the phase's dry verdict.
        let others = bits(mask).filter(|&o| o != q);
        let fed = port.input && bits(mask).any(|o| o != q && self.ports[p0 + o].input);
        for o in others {
            let other = &self.ports[p0 + o];
            let extra = u64::from(port.input && other.input);
            if extra > 0 && self.gauge(other, t).avail < 1 {
                return None;
            }
            until = until.min(self.keeps_up_by(other, rate, extra, t, until));
        }
        if until <= t {
            return None;
        }
        let mut r = [Rate::default(); SIDES];
        r[0] = rate;
        let mut l = [0; SIDES];
        l[0] = left;
        let act = if port.input && !fed { ph.dry } else { Some(Progress::Stalled) };
        Some(Move {
            phase,
            reps: 0,
            left: l,
            rate: r,
            act,
            beat: Some(rate),
            cross: None,
            pins: 1 << q,
            next: until,
            held: u32::MAX,
            moves: None,
        })
    }

    /// The cycle a move found from `port`'s gauge on cycle `t` — `m` a tick
    /// through the port, and ending on `next` at the latest — may hold to
    /// when the port's other end moves a duty-cycled rate: the gauge's gain
    /// is that end's count on `t`, which the rate keeps only to its next
    /// change. A move through the port holds on while the port keeps `m`
    /// available (a port that bounds a move at a gain other than its own
    /// count already ends it on the next tick, in [`greedy`]); a wait ends
    /// at the change. A flat rate's changes are published instead.
    ///
    /// [`greedy`]: crate::stream::greedy
    pub(super) fn horizon(&self, port: &Port, t: u64, m: u64, next: u64) -> u64 {
        let (push, pop) = self.flows[port.stream].rates();
        let change = if port.input { push } else { pop }.next_change(t);
        match m {
            _ if change >= next => next,
            0 => change,
            _ => change.max(self.keeps_up(port, Rate::flat(m), t, next)),
        }
    }

    /// The first cycle of `t..hi` from which `port` may not hold `rate`'s
    /// full count on one of its active ticks — elements on an input, free
    /// slots on an output — with the participant moving `rate` through it
    /// from `t` on and the other end keeping its current rate (`t`: on the
    /// first period already, or the two rates share no period).
    fn keeps_up(&self, port: &Port, rate: Rate, t: u64, hi: u64) -> u64 {
        self.keeps_up_by(port, rate, 0, t, hi)
    }

    /// [`Planner::keeps_up`], with `extra` more than the full count needed.
    fn keeps_up_by(&self, port: &Port, rate: Rate, extra: u64, t: u64, hi: u64) -> u64 {
        let f = &self.flows[port.stream];
        let (pushed, popped) = f.moved();
        let level = if port.input {
            let base = (f.len + pushed) as i64 - f.popped_before(t) as i64;
            Level { base, up: f.pushes(), down: (rate, t, 0) }
        } else {
            let base = port.room - f.pushed_before(t) as i64 + popped as i64;
            Level { base, up: f.pops(u64::from(port.early)), down: (rate, t, 0) }
        };
        let need = (rate.on() + extra) as i64;
        // Most ports that do not keep up fail at once: no need for the
        // closed form.
        if rate.at(t) > 0 && level.at(t) < need {
            return t;
        }
        level.holds_until(rate, need, t, hi)
    }
}
