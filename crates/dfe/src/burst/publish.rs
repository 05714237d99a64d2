//! How a participant's move reaches the kernels on its streams: each rate
//! change advances the stream's [`Flow`](crate::stream::Flow) and steps the
//! other end again when the change can move it — or recruits a parked one.

use super::{decide, side_lens, span_hint, Planner, Port, Tick, View, PORTS, SIDES};
use crate::diag::{BurstEnd, Refusal};
use crate::kernel::Progress;
use crate::stream::{Gauge, Rate};

impl Planner {
    /// A participant moves `rate` through `port` from cycle `t` on: advance
    /// the stream's flow and re-evaluate the other end from the first tick
    /// the change can show in its move — or, on the first move towards a
    /// parked kernel, recruit it.
    pub(super) fn publish(&mut self, view: &View<'_>, port: Port, t: u64, rate: Rate) {
        let f = &mut self.flows[port.stream];
        let (old, first, sees) = if port.input {
            let old = f.rates().1;
            if old == rate {
                return;
            }
            let first = f.popped_before(t) == 0;
            f.set_pop(t, rate);
            (old, first, t + u64::from(!port.early))
        } else {
            let old = f.rates().0;
            if old == rate {
                return;
            }
            let first = f.pushed_before(t) == 0;
            f.set_push(t, rate);
            (old, first, t + 1)
        };
        let o = port.other;
        let pi = match self.part_of[o] {
            u32::MAX if first && rate.on() > 0 => {
                // The first element moves on the rate's first active cycle.
                let on = if rate.at(t) > 0 { t } else { rate.next_change(t) };
                if on < self.cut.k {
                    self.recruit(view, o, port.input, on, sees + (on - t));
                }
                return;
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
        let duty = p.beat.is_some() || p.cross.is_some();
        if duty && self.still_holds(pi, port.facing, sees) {
            return;
        }
        if duty || !rate.is_flat() || !old.is_flat() {
            // A duty-cycled rate on the port, or a closed form the change
            // breaks: step the other end again where the change shows.
            self.list[pi].next = sees;
            self.queue(pi);
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
}
