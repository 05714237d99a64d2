//! Steady-state schedule replay — the top scheduler tier
//! ([`SchedulerMode::Replay`](crate::SchedulerMode::Replay)).
//!
//! The paper's pipeline is statically scheduled in hardware: every image
//! takes the identical path through the fabric, so at steady state the
//! simulator's scheduler re-derives the *same* wake/commit/burst decision
//! sequence once per image. This module records that sequence for one
//! period of the pipeline and replays it for subsequent identical periods,
//! skipping ready-list planning and `span_hint`/`try_burst` work entirely.
//!
//! ## Protocol
//!
//! A graph is *armed* with a marker stream and a period in elements
//! ([`Graph::set_replay_marker`](crate::Graph::set_replay_marker) — the
//! compiler uses the logits stream and the class count). Every time the
//! marker's popped-element count crosses a multiple of the period (a
//! **boundary**), the scheduler takes a *fingerprint*: every kernel's
//! [`replay_token`](crate::Kernel::replay_token), every park verdict, and
//! every stream's committed queue length. The state machine is then:
//!
//! * **Armed** — normal stepping; when two consecutive boundaries carry the
//!   same fingerprint the pipeline is periodic and recording starts.
//! * **Recording** — one period is stepped with an *aggressive* burst
//!   policy (`min_burst = 2`, no retry backoff) so even the short-phase
//!   residue that the default policy leaves to per-element stepping is
//!   mined into tiny spans — burst policy is a pure cost knob, so this is
//!   semantics-neutral. Each step (a dense cycle or a dispatched span with
//!   its participant plans, offsets, stream traffic, and pre-dispatch awake
//!   mask) is appended to the [`ScheduleTape`]. If the closing boundary's
//!   fingerprint still matches, the tape is valid and replay begins.
//! * **Replaying** — tape steps are executed directly: dense steps run the
//!   ordinary ready-list cycle (already event-driven), span steps re-check
//!   two cheap guards — the live awake mask equals the recorded one and
//!   every burst stream's queue length equals its recorded start length —
//!   and then re-dispatch the recorded plans through the same code path as
//!   a planned burst, with busy/stalled cycles and `max_occupancy` credited
//!   in closed form exactly as macro-ticks do. Any guard failure, a
//!   boundary arriving at the wrong tape position, or a fingerprint
//!   mismatch at a period boundary (e.g. the source running dry on the last
//!   image) falls the graph back to normal stepping and re-arms.
//! * **Vetoed** — any kernel without a replay token (a
//!   [`StallInjector`](crate::StallInjector), a cross-device channel, an
//!   attention kernel, a custom kernel) permanently disables replay for
//!   the graph; boundaries are no longer even checked.
//!
//! ## Equivalence argument
//!
//! Replay inherits macro-ticks' bit-identity proof: a recorded span is
//! exactly a burst the planner admitted, and re-dispatching it is valid
//! whenever the graph state it was planned against recurs. The fingerprint
//! establishes that recurrence at period boundaries — equal tokens attest
//! equal *control* state (tokens must cover every counter that influences
//! port behaviour, which is why data-dependent kernels return `None`), and
//! equal queue lengths plus park verdicts pin the scheduler-visible state —
//! and determinism carries it forward step by step. The per-span guards are
//! belt-and-suspenders that also catch the non-periodic tail (final image,
//! mid-run reconfiguration) before any recorded plan could act on a state
//! it was not planned for. Dense steps are not replayed from the tape at
//! all — they run the ordinary stepper — so they cannot diverge.

use crate::kernel::{Progress, SpanPlan};
use crate::stream::SpanPort;

/// One kernel's part in a planned span of `k` cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Participant {
    pub node: usize,
    pub plan: SpanPlan,
    /// First span cycle dense stepping would tick the kernel `Busy`
    /// (`u64::MAX` ⇒ not within this span).
    pub start: u64,
    /// One past its last `Busy` cycle: the span's end, or earlier when a
    /// full output blocks it mid-span (it then ticks `Stalled` once at
    /// `stop` and parks).
    pub stop: u64,
    /// `Some(v)`: awake at the span's first cycle but blocked — one
    /// port-inert tick of verdict `v` there, then parked like a recruit.
    pub demoted: Option<Progress>,
    /// Parked over the span's last cycle, but a stream event on that cycle
    /// leaves it awake for the cycle after.
    pub end_awake: bool,
}

impl Participant {
    pub fn new(node: usize, plan: SpanPlan, start: u64, demoted: Option<Progress>) -> Self {
        Self {
            node,
            plan,
            start,
            stop: u64::MAX,
            demoted,
            end_awake: false,
        }
    }

    /// Does the kernel tick `Busy` at all within a span of `k` cycles?
    pub fn runs(&self, k: u64) -> bool {
        self.start < self.stop.min(k)
    }

    /// The cycles one side of the plan is active, as a stream sees them:
    /// from `start` until the kernel stops or that side's cycles run out.
    fn port(&self, masked: bool, cycles: u64, rate: u16, exact: bool) -> SpanPort {
        if !masked {
            return SpanPort::IDLE;
        }
        SpanPort {
            start: self.start,
            stop: self.stop.min(self.start.saturating_add(cycles)),
            rate,
            exact,
        }
    }

    /// The push side of the stream on output port `port` ([`SpanPort::IDLE`]
    /// when the plan does not write it).
    pub fn push_port(&self, port: usize) -> SpanPort {
        let plan = &self.plan;
        let masked = plan.writes & (1 << port) != 0;
        self.port(
            masked,
            plan.write_cycles,
            plan.write_rate,
            plan.exact_writes,
        )
    }

    /// The pop side of the stream on input port `port`.
    pub fn pop_port(&self, port: usize) -> SpanPort {
        let plan = &self.plan;
        let masked = plan.reads & (1 << port) != 0;
        self.port(masked, plan.read_cycles, plan.read_rate, plan.exact_reads)
    }
}

/// One stream a planned span touches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SpanStream {
    pub stream: usize,
    /// Committed queue length when the span starts (the replay guard).
    pub start_len: usize,
    /// Occupancy high-water mark the span credits in closed form
    /// ([`crate::stream::span_peak`]; 0 ⇒ nothing committed).
    pub peak: usize,
    /// Whether any participant that actually runs moves elements here.
    pub traffic: bool,
}

/// Schedule-replay diagnostics, surfaced on
/// [`CycleReport`](crate::CycleReport) next to the per-kernel counters.
/// Deliberately **excluded from report equality**: like
/// [`Graph::bursts`](crate::Graph::bursts), these describe how the run was
/// dispatched, not what it computed, and reports must stay bit-identical
/// across every scheduler tier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayDiag {
    /// Steps in the validated tape (dense runs + spans), 0 before a tape
    /// validates.
    pub tape_len: u64,
    /// Periods replayed to completion from the tape.
    pub images_replayed: u64,
    /// Guard-check failures that fell the graph back to normal stepping
    /// (span guards, tape-position checks, boundary fingerprint mismatches).
    pub guard_fallbacks: u64,
    /// Recorded spans re-dispatched without any planning.
    pub spans_bypassed: u64,
}

/// Fold `parts` into one 64-bit replay token (splitmix64-style mixing).
/// Helper for [`Kernel::replay_token`](crate::Kernel::replay_token)
/// implementations with more than one control counter.
pub fn token_mix(parts: &[u64]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64;
    for &p in parts {
        let mut z = h ^ p.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h = z ^ (z >> 31);
    }
    h
}

/// One recorded scheduler step.
#[derive(Clone, Copy)]
pub(crate) enum Step {
    /// `n` consecutive per-element ready-list cycles.
    Dense(u32),
    /// A dispatched span: an index into [`ScheduleTape::span_recs`].
    Span(u32),
}

/// One recorded span step: `(offset, len)` windows into the tape's flat
/// pools. Replay walks the tape front to back, so consecutive steps read
/// consecutive pool ranges — the layout keeps the replay loop's working set
/// sequential (an earlier interned-step variant deduplicated identical
/// steps into a shared pool, but steady-state spans rarely recur exactly —
/// offsets and stream lengths drift across the image — and the scattered
/// reads cost more than the ~25% of memory interning saved).
///
/// The recorded entries are *pruned*: participant entries whose dispatch is
/// a no-op (never running, no end-of-span wake, no demotion, no ripen entry
/// — `dispatch_span` would skip them without touching any counter) and
/// streams with no span traffic are dropped. Pruning is what makes the
/// short mined spans cheap to replay — for a 3-cycle span most of the
/// planner's wavefront is exactly such dead weight.
#[derive(Clone, Copy)]
pub(crate) struct SpanRec {
    pub k: u64,
    pub plans: (u32, u32),
    pub ripen: (u32, u32),
    pub streams: (u32, u32),
    /// Awake-mask snapshot taken just before the recording burst attempt.
    pub mask: (u32, u32),
}

/// The recorded schedule of one steady-state period, as one `Step` list
/// plus flat side pools indexed by [`SpanRec`] windows.
#[derive(Default)]
pub(crate) struct ScheduleTape {
    pub steps: Vec<Step>,
    pub span_recs: Vec<SpanRec>,
    pub plan_pool: Vec<Participant>,
    pub ripen_pool: Vec<(usize, u64)>,
    pub stream_pool: Vec<SpanStream>,
    pub mask_pool: Vec<u64>,
}

/// Recording aborts (vetoing replay) past this many pool entries — a
/// period too irregular to record compactly will not amortize anyway.
const TAPE_ENTRY_CAP: usize = 1 << 22;

fn window<T>(pool: &[T], w: (u32, u32)) -> &[T] {
    &pool[w.0 as usize..(w.0 + w.1) as usize]
}

impl ScheduleTape {
    pub fn clear(&mut self) {
        self.steps.clear();
        self.span_recs.clear();
        self.plan_pool.clear();
        self.ripen_pool.clear();
        self.stream_pool.clear();
        self.mask_pool.clear();
    }

    pub fn plans(&self, r: &SpanRec) -> &[Participant] {
        window(&self.plan_pool, r.plans)
    }

    pub fn ripen(&self, r: &SpanRec) -> &[(usize, u64)] {
        window(&self.ripen_pool, r.ripen)
    }

    pub fn streams(&self, r: &SpanRec) -> &[SpanStream] {
        window(&self.stream_pool, r.streams)
    }

    pub fn mask(&self, r: &SpanRec) -> &[u64] {
        window(&self.mask_pool, r.mask)
    }

    fn entries(&self) -> usize {
        self.plan_pool.len() + self.ripen_pool.len() + self.stream_pool.len() + self.mask_pool.len()
    }
}

/// Replay control state machine (see the module docs).
#[derive(Debug)]
pub(crate) enum ReplayPhase {
    /// Watching boundary fingerprints for steady state.
    Armed { have_prev: bool },
    /// Appending steps to the tape until the next boundary validates it.
    Recording,
    /// Executing the tape; `step` is the cursor, `done` counts cycles
    /// already executed of a `Step::Dense` run.
    Replaying { step: usize, done: u32 },
    /// A kernel without a replay token — permanently off for this graph.
    Vetoed,
}

pub(crate) struct ReplayState {
    /// Marker stream index and period in elements; `None` ⇒ never armed.
    pub marker: Option<(usize, u64)>,
    /// Next popped-count multiple that constitutes a boundary.
    pub next_target: u64,
    pub phase: ReplayPhase,
    pub tape: ScheduleTape,
    /// Dense cycles stepped since the last recorded span (flushed into one
    /// `Step::Dense` entry).
    pub pending_dense: u32,
    pub prev_fp: Vec<u64>,
    pub fp_scratch: Vec<u64>,
    /// Awake mask snapshot taken just before a recording burst attempt.
    pub mask_scratch: Vec<u64>,
    pub diag: ReplayDiag,
}

impl ReplayState {
    pub fn new() -> Self {
        Self {
            marker: None,
            next_target: 0,
            phase: ReplayPhase::Armed { have_prev: false },
            tape: ScheduleTape::default(),
            pending_dense: 0,
            prev_fp: Vec::new(),
            fp_scratch: Vec::new(),
            mask_scratch: Vec::new(),
            diag: ReplayDiag::default(),
        }
    }

    /// Drop any tape and fingerprint history and return to `Armed` — the
    /// reset applied on guard failures and on a mid-run `set_scheduler`.
    /// Diagnostics counters survive (they describe the whole run).
    pub fn rearm(&mut self) {
        self.phase = ReplayPhase::Armed { have_prev: false };
        self.tape.clear();
        self.pending_dense = 0;
        self.prev_fp.clear();
    }

    pub fn snapshot_mask(&mut self, awake: &[u64]) {
        self.mask_scratch.clear();
        self.mask_scratch.extend_from_slice(awake);
    }

    pub fn record_dense(&mut self) {
        self.pending_dense += 1;
    }

    pub fn flush_dense(&mut self) {
        if self.pending_dense > 0 {
            self.tape.steps.push(Step::Dense(self.pending_dense));
            self.pending_dense = 0;
        }
    }

    /// Append a dispatched span (the scheduler's burst scratch, post-plan)
    /// to the tape, pruned of no-op participants and traffic-free streams
    /// (see [`SpanRec`]). Returns `false` when the tape overran its size
    /// cap — the caller vetoes replay for this graph.
    pub fn record_span(
        &mut self,
        k: u64,
        plans: &[Participant],
        ripen: &[(usize, u64)],
        streams: &[SpanStream],
    ) -> bool {
        self.flush_dense();
        let t = &mut self.tape;
        let p0 = t.plan_pool.len() as u32;
        // A participant is replay-relevant when dispatch mutates state for
        // it: it runs, wakes at the span edge, replays a demotion, or
        // ripens. Anything else `dispatch_span` passes over — dead weight
        // on every future replay of this step.
        t.plan_pool.extend(plans.iter().copied().filter(|p| {
            p.runs(k)
                || p.end_awake
                || p.demoted.is_some()
                || ripen.iter().any(|&(j, _)| j == p.node)
        }));
        let r0 = t.ripen_pool.len() as u32;
        t.ripen_pool.extend_from_slice(ripen);
        let s0 = t.stream_pool.len() as u32;
        t.stream_pool
            .extend(streams.iter().copied().filter(|s| s.traffic));
        let m0 = t.mask_pool.len() as u32;
        t.mask_pool.extend_from_slice(&self.mask_scratch);
        let ix = t.span_recs.len() as u32;
        t.span_recs.push(SpanRec {
            k,
            plans: (p0, t.plan_pool.len() as u32 - p0),
            ripen: (r0, t.ripen_pool.len() as u32 - r0),
            streams: (s0, t.stream_pool.len() as u32 - s0),
            mask: (m0, t.mask_pool.len() as u32 - m0),
        });
        t.steps.push(Step::Span(ix));
        t.entries() <= TAPE_ENTRY_CAP && t.steps.len() <= TAPE_ENTRY_CAP
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(stream: usize, start_len: usize, traffic: bool) -> SpanStream {
        SpanStream {
            stream,
            start_len,
            peak: if traffic { start_len } else { 0 },
            traffic,
        }
    }

    #[test]
    fn token_mix_separates_nearby_states() {
        // Counter states differing by one element must not collide (the
        // fingerprint relies on it), and argument order must matter.
        let a = token_mix(&[10, 3, 0]);
        let b = token_mix(&[11, 3, 0]);
        let c = token_mix(&[3, 10, 0]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, token_mix(&[10, 3, 0]), "deterministic");
    }

    #[test]
    fn tape_windows_recover_recorded_steps() {
        let mut st = ReplayState::new();
        let plan = SpanPlan::new(4, 0b1, 0b1);
        let plans_a = [Participant::new(0, plan, 0, None)];
        let streams_a = [stream(0, 2, true)];
        let plans_b = [
            Participant::new(1, plan, 0, None),
            Participant::new(2, plan, 0, None),
        ];
        let streams_b = [stream(1, 3, true)];
        st.snapshot_mask(&[0b01]);
        assert!(st.record_span(4, &plans_a, &[], &streams_a));
        st.snapshot_mask(&[0b110]);
        assert!(st.record_span(6, &plans_b, &[], &streams_b));
        assert_eq!(st.tape.steps.len(), 2);
        assert_eq!(st.tape.span_recs.len(), 2);
        let a = st.tape.span_recs[0];
        let b = st.tape.span_recs[1];
        assert_eq!(st.tape.plans(&a), plans_a);
        assert_eq!(st.tape.streams(&a), streams_a);
        assert_eq!(st.tape.mask(&a), [0b01]);
        assert_eq!(b.k, 6);
        assert_eq!(st.tape.plans(&b), plans_b);
        assert_eq!(st.tape.streams(&b), streams_b);
        assert_eq!(st.tape.mask(&b), [0b110]);
    }

    #[test]
    fn record_span_prunes_noop_participants_and_idle_streams() {
        let mut st = ReplayState::new();
        let plan = SpanPlan::new(4, 0b1, 0b1);
        let plans = [
            Participant::new(0, plan, 0, None), // runs: kept
            Participant {
                end_awake: true, // wakes at edge: kept
                ..Participant::new(1, plan, 4, None)
            },
            Participant::new(2, plan, 7, None), // pure no-op: pruned
            Participant::new(3, plan, u64::MAX, None), // pure no-op: pruned
            Participant::new(4, plan, u64::MAX, Some(Progress::Stalled)), // demotion: kept
            Participant::new(5, plan, u64::MAX, None), // ripens: kept
        ];
        let ripen = [(5usize, 2u64)];
        let streams = [
            stream(0, 3, true),  // traffic: kept
            stream(1, 3, false), // no traffic: pruned
        ];
        st.snapshot_mask(&[0b111111]);
        assert!(st.record_span(4, &plans, &ripen, &streams));
        let rec = st.tape.span_recs[0];
        let kept: Vec<usize> = st.tape.plans(&rec).iter().map(|p| p.node).collect();
        assert_eq!(kept, [0, 1, 4, 5], "no-op participants pruned");
        assert_eq!(st.tape.streams(&rec).len(), 1, "traffic-free stream pruned");
        assert_eq!(st.tape.ripen(&rec), ripen);
    }

    #[test]
    fn dense_runs_flush_before_spans() {
        let mut st = ReplayState::new();
        st.record_dense();
        st.record_dense();
        st.snapshot_mask(&[0b1]);
        assert!(st.record_span(8, &[], &[], &[]));
        assert_eq!(st.tape.steps.len(), 2);
        assert!(matches!(st.tape.steps[0], Step::Dense(2)));
        assert!(matches!(st.tape.steps[1], Step::Span(0)));
    }
}
