//! Steady-state schedule replay, part of the graph's stepper on graphs
//! armed with a replay marker.
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
//!   mask) is appended to the `ScheduleTape`. If the closing boundary's
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
//!   [`StallInjector`](crate::StallInjector), a custom kernel)
//!   permanently disables replay for the graph; boundaries
//!   are no longer even checked.
//!
//! ## Whole-batch tapes
//!
//! Period replay needs two matching image boundaries before it can record,
//! so it never engages on a batch of one or two images — yet a warm graph
//! re-armed for another batch ([`Graph::rearm`](crate::Graph::rearm))
//! starts from exactly the state it started from last time, and the
//! schedule does not depend on element values. So a graph that has already
//! run keeps one whole-run tape per *batch key* (the image count, as
//! `CompiledNetwork::load` passes it down):
//!
//! * The first re-armed run under a key **records** from cycle 0 under the
//!   aggressive policy above and, when it completes, stores the tape under
//!   that key.
//! * Later runs under the key **replay** the tape from cycle 0 under the
//!   same per-span guards (awake mask, queue lengths, cycle budget). A
//!   guard miss, or a cursor running past the tape, drops the tape and
//!   falls back to live planning with period replay re-armed; the next run
//!   under the key records again.
//! * A graph's first run never records, so a one-shot compile-and-run
//!   plans exactly as before. Any kernel without a replay token keeps the
//!   graph off whole-batch tapes, as it keeps it off period replay — a
//!   [`DenseOracle`](crate::DenseOracle)-wrapped graph among them. Traced
//!   runs never use them.
//!
//! Image boundaries are ignored while a whole-batch tape runs: the tape's
//! period is the whole run. [`ReplayDiag::whole_batch`] says what the run
//! did with its tape; [`Graph::adopt_tapes`](crate::Graph::adopt_tapes)
//! moves the tapes to a structurally identical graph (a weight publish).
//!
//! The equivalence argument below carries over with the rearm state in the
//! place of a boundary fingerprint: every run under a key starts from the
//! kernels' rearm states and empty streams, which is why a key must fix
//! everything the schedule depends on — the source's element count and the
//! sink's expected count.
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

use crate::burst::{SpanPart, SpanStream};

/// Schedule-replay diagnostics, surfaced on
/// [`CycleReport`](crate::CycleReport) next to the per-kernel counters.
/// Deliberately **excluded from report equality**: like
/// [`Graph::bursts`](crate::Graph::bursts), these describe how the run was
/// dispatched, not what it computed, and reports must stay bit-identical
/// to the [`DenseOracle`](crate::DenseOracle)'s, which never replays.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayDiag {
    /// Steps in the validated tape (dense runs + spans), 0 before a tape
    /// validates; for a run with a whole-batch tape, the steps it recorded
    /// or replays.
    pub tape_len: u64,
    /// Periods replayed to completion from the tape, or every image of a
    /// run that replayed its whole-batch tape to the end.
    pub images_replayed: u64,
    /// Guard-check failures that fell the graph back to normal stepping
    /// (span guards, tape-position checks, boundary fingerprint mismatches).
    pub guard_fallbacks: u64,
    /// Recorded spans re-dispatched without any planning.
    pub spans_bypassed: u64,
    /// What the run did with a whole-batch tape (see the module docs).
    pub whole_batch: WholeBatch,
}

/// A run's use of a whole-batch tape (see the [module docs](self)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WholeBatch {
    /// Planned live from cycle 0: a graph's first run, a run no tape
    /// could serve (traced, a kernel without a replay token — a
    /// [`DenseOracle`](crate::DenseOracle), say), or
    /// a recording cut short by the tape size cap.
    #[default]
    Off,
    /// Recorded the tape its batch key replays from now on.
    Recorded,
    /// Replayed its batch key's tape to the end.
    Replayed,
    /// Started replaying, missed a guard and finished live; the key
    /// records again on its next run.
    FellBack,
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
/// The recorded entries are already *pruned* by the planner: a participant
/// parked throughout on one verdict has no dispatch record, and a stream
/// without traffic no stream entry — for a short span most of the
/// wavefront is exactly such dead weight.
#[derive(Clone, Copy)]
pub(crate) struct SpanRec {
    pub k: u64,
    pub parts: (u32, u32),
    pub streams: (u32, u32),
    /// Awake-mask snapshot taken just before the recording burst attempt.
    pub mask: (u32, u32),
}

/// The recorded schedule of one steady-state period, as one `Step` list
/// plus flat side pools indexed by [`SpanRec`] windows. A part's quota
/// window indexes `quota_pool` directly.
#[derive(Default)]
pub(crate) struct ScheduleTape {
    pub steps: Vec<Step>,
    pub span_recs: Vec<SpanRec>,
    pub part_pool: Vec<SpanPart>,
    pub quota_pool: Vec<u64>,
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
        self.part_pool.clear();
        self.quota_pool.clear();
        self.stream_pool.clear();
        self.mask_pool.clear();
    }

    /// Release the pools' spare capacity (a tape kept for later runs).
    fn shrink_to_fit(&mut self) {
        self.steps.shrink_to_fit();
        self.span_recs.shrink_to_fit();
        self.part_pool.shrink_to_fit();
        self.quota_pool.shrink_to_fit();
        self.stream_pool.shrink_to_fit();
        self.mask_pool.shrink_to_fit();
    }

    pub fn parts(&self, r: &SpanRec) -> &[SpanPart] {
        window(&self.part_pool, r.parts)
    }

    pub fn streams(&self, r: &SpanRec) -> &[SpanStream] {
        window(&self.stream_pool, r.streams)
    }

    pub fn mask(&self, r: &SpanRec) -> &[u64] {
        window(&self.mask_pool, r.mask)
    }

    fn entries(&self) -> usize {
        self.part_pool.len() + self.quota_pool.len() + self.stream_pool.len() + self.mask_pool.len()
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
    /// Whole-batch tapes by batch key (see the module docs); the tape of
    /// the run in progress is out in `tape` while it records or replays.
    pub batch_tapes: Vec<(u64, ScheduleTape)>,
    /// The batch key the next run records or replays under.
    pub next_batch: Option<u64>,
    /// The batch key the run in progress records or replays under; while
    /// set, `phase` drives `tape` from cycle 0 and boundaries are ignored.
    pub batch: Option<u64>,
    /// The graph has run (or adopted another graph's tapes): re-armed runs
    /// use whole-batch tapes.
    pub warm: bool,
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
            batch_tapes: Vec::new(),
            next_batch: None,
            batch: None,
            warm: false,
        }
    }

    /// Drop any tape and fingerprint history and return to `Armed` — the
    /// reset applied on guard failures, vetoes and marker changes.
    /// Diagnostics counters survive (they describe the whole run).
    pub fn rearm(&mut self) {
        self.phase = ReplayPhase::Armed { have_prev: false };
        self.tape.clear();
        self.pending_dense = 0;
        self.prev_fp.clear();
    }

    /// Start the run under the batch key set by the last re-arm, if any:
    /// replay its tape from cycle 0, or record one.
    pub fn begin_batch(&mut self) {
        let Some(key) = self.next_batch.take() else {
            return;
        };
        self.rearm();
        self.batch = Some(key);
        if let Some(i) = self.batch_tapes.iter().position(|(k, _)| *k == key) {
            self.tape = self.batch_tapes.swap_remove(i).1;
            self.diag.tape_len = self.tape.steps.len() as u64;
            self.phase = ReplayPhase::Replaying { step: 0, done: 0 };
        } else {
            self.phase = ReplayPhase::Recording;
        }
    }

    /// Leave whole-batch mode at the end of a completed run, storing the
    /// tape it recorded or replayed under its key. `images` is the run's
    /// image count, credited as replayed when the tape ran to the end.
    pub fn end_batch(&mut self, images: u64) {
        let Some(key) = self.batch.take() else {
            return;
        };
        match self.phase {
            ReplayPhase::Recording => {
                self.flush_dense();
                self.tape.shrink_to_fit();
                self.diag.tape_len = self.tape.steps.len() as u64;
                self.diag.whole_batch = WholeBatch::Recorded;
            }
            ReplayPhase::Replaying { .. } => {
                self.diag.images_replayed += images;
                self.diag.whole_batch = WholeBatch::Replayed;
            }
            ReplayPhase::Armed { .. } | ReplayPhase::Vetoed => {
                unreachable!("whole-batch mode ends on every fallback")
            }
        }
        self.batch_tapes.push((key, std::mem::take(&mut self.tape)));
        self.rearm();
    }

    /// Drop the run's whole-batch tape after a guard miss (`replayed`) or
    /// a recording over the size cap; the period machine takes over.
    pub fn abandon_batch(&mut self, replayed: bool) {
        if self.batch.take().is_some() && replayed {
            self.diag.whole_batch = WholeBatch::FellBack;
        }
        self.rearm();
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

    /// Append a dispatched span (the planner's dispatch records) to the
    /// tape. Returns `false` when the tape overran its size cap — the
    /// caller vetoes replay for this graph.
    pub fn record_span(
        &mut self,
        k: u64,
        parts: &[SpanPart],
        quotas: &[u64],
        streams: &[SpanStream],
    ) -> bool {
        self.flush_dense();
        let t = &mut self.tape;
        let p0 = t.part_pool.len() as u32;
        let q0 = t.quota_pool.len() as u32;
        t.part_pool.extend(parts.iter().map(|p| SpanPart {
            quotas: (p.quotas.0 + q0, p.quotas.1),
            ..*p
        }));
        t.quota_pool.extend_from_slice(quotas);
        let s0 = t.stream_pool.len() as u32;
        t.stream_pool.extend_from_slice(streams);
        let m0 = t.mask_pool.len() as u32;
        t.mask_pool.extend_from_slice(&self.mask_scratch);
        let ix = t.span_recs.len() as u32;
        t.span_recs.push(SpanRec {
            k,
            parts: (p0, t.part_pool.len() as u32 - p0),
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
    use crate::kernel::Progress;

    fn stream(stream: u32, start_len: u32) -> SpanStream {
        SpanStream {
            stream,
            start_len,
            peak: start_len,
        }
    }

    fn part(node: u32, quotas: (u32, u32)) -> SpanPart {
        SpanPart {
            node,
            busy: 4,
            stalled: 0,
            quotas,
            end: None,
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
        let parts_a = [part(0, (0, 2))];
        let streams_a = [stream(0, 2)];
        let parts_b = [part(1, (0, 2)), part(2, (2, 2))];
        let streams_b = [stream(1, 3)];
        st.snapshot_mask(&[0b01]);
        assert!(st.record_span(4, &parts_a, &[4, 4], &streams_a));
        st.snapshot_mask(&[0b110]);
        assert!(st.record_span(6, &parts_b, &[6, 6, 6, 5], &streams_b));
        assert_eq!(st.tape.steps.len(), 2);
        assert_eq!(st.tape.span_recs.len(), 2);
        let a = st.tape.span_recs[0];
        let b = st.tape.span_recs[1];
        assert_eq!(st.tape.parts(&a), parts_a);
        assert_eq!(st.tape.streams(&a), streams_a);
        assert_eq!(st.tape.mask(&a), [0b01]);
        assert_eq!(b.k, 6);
        assert_eq!(st.tape.streams(&b), streams_b);
        assert_eq!(st.tape.mask(&b), [0b110]);
    }

    /// Each recorded part's quota window is rebased onto the tape's quota
    /// pool, so replay reads the quotas the span was planned with.
    #[test]
    fn record_span_rebases_quota_windows() {
        let mut st = ReplayState::new();
        st.snapshot_mask(&[0b11]);
        assert!(st.record_span(3, &[part(0, (0, 1))], &[3], &[]));
        let parked = SpanPart {
            end: Some(Progress::Stalled),
            ..part(1, (1, 1))
        };
        assert!(st.record_span(5, &[part(0, (0, 1)), parked], &[2, 5], &[]));
        let rec = st.tape.span_recs[1];
        let recorded = st.tape.parts(&rec);
        let quotas: Vec<u64> = recorded
            .iter()
            .map(|p| st.tape.quota_pool[p.quotas.0 as usize])
            .collect();
        assert_eq!(quotas, [2, 5]);
        assert_eq!(recorded[1].end, Some(Progress::Stalled));
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
