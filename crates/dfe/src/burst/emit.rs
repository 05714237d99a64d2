//! The planned burst as the dispatch applies it: [`Planner::emit`] builds
//! each participant's record and each stream's, and [`dispatch`] applies a
//! planned or replayed burst to the graph.

use super::{Planner, Span, SpanPart, SpanStream, View};
use crate::graph::{lap, Node};
use crate::kernel::{Progress, SpanIo, WakeHint};
use crate::stream::StreamState;
use std::time::Instant;

impl Planner {
    /// Build the dispatch records of a burst of `k` cycles.
    pub(super) fn emit(&mut self, view: &View<'_>, k: u64) {
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        order.extend(0..self.list.len() as u32);
        order.sort_unstable_by_key(|&pi| self.list[pi as usize].node);
        for &pi in &order {
            // What it did up to `k`, and its verdict on the cycle before.
            let mut p = self.list[pi as usize];
            p.credit(&self.plans[pi as usize].phases()[p.phase], k);
            let node = &view.nodes[p.node];
            let (busy, stalled, kept_park, last) = (p.busy, p.stalled, p.kept_park, p.prev);
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

/// Apply a planned (or replayed) burst of `span.k` cycles starting at clock
/// `t_now`: for each participant, in node order, settle the lazy stall
/// credit of its park, credit its busy and stall counts, move its quotas in
/// one [`Kernel::run_span`](crate::Kernel::run_span), and leave it awake or
/// parked as dense stepping would, and lap `clock`, when given, into its
/// host time; then credit every stream's occupancy peak. Returns whether
/// a sink kernel ran.
pub(crate) fn dispatch(
    nodes: &mut [Node],
    streams: &mut [StreamState],
    parked: &mut [Option<(Progress, u64)>],
    awake: &mut [u64],
    span: Span<'_>,
    t_now: u64,
    mut clock: Option<Instant>,
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
        if let Some(at) = &mut clock {
            node.host_ns += lap(at);
        }
    }
    for bs in span_streams {
        streams[bs.stream as usize].note_span(bs.peak as usize);
    }
    sink_progress
}
