//! Steady-state schedule replay, part of the graph's stepper on graphs
//! armed with a replay marker (DESIGN.md §12). The paper's pipeline is
//! statically scheduled: every image takes the same path through the
//! fabric, so at steady state the stepper re-derives the *same* burst and
//! per-element decisions once per image. This module records them for one
//! period and replays them for the following identical periods, skipping
//! the planner. It holds the whole protocol: before each advance the run
//! loop asks it for a `Cue`, hands it what it planned while a tape
//! records, and reports every clock advance to `ReplayState::boundary`.
//!
//! ## Protocol
//!
//! A graph is armed with a marker stream and a period in elements
//! ([`Graph::set_replay_marker`](crate::Graph::set_replay_marker); the
//! compiler uses the logits stream and the class count). Every time the
//! marker's popped count crosses a multiple of the period (a
//! **boundary**), the graph is fingerprinted: every kernel's
//! [`replay_token`](crate::Kernel::replay_token) and park verdict, and
//! every stream's committed queue length.
//!
//! * **Armed** — live planning; two consecutive boundaries with the same
//!   fingerprint start a recording.
//! * **Recording** — one period is planned with an aggressive burst policy
//!   (a 2-cycle span floor, no retry backoff; a pure cost knob) and every
//!   dense cycle run and span (its participant records, stream records and
//!   the awake mask it was planned against) goes to the tape. If the
//!   closing boundary's fingerprint matches, replay begins.
//! * **Replaying** — dense steps run the ordinary stepper; a span step
//!   re-checks its guards (its cycles within the run's budget, the awake
//!   mask and every recorded stream's queue length as recorded) and is
//!   re-dispatched through the same path as a planned burst. A guard
//!   miss, a boundary at the wrong tape position or a fingerprint mismatch
//!   (the source running dry on the last image) falls back to live
//!   planning and re-arms.
//! * **Vetoed** — a kernel without a replay token (a
//!   [`StallInjector`](crate::StallInjector), a custom kernel), or a period
//!   too long for the tape cap, turns replay off until the graph is
//!   re-armed.
//!
//! ## Whole-batch tapes
//!
//! Period replay needs two matching boundaries, so it never engages on a
//! batch of one or two images — yet a re-armed graph
//! ([`Graph::rearm`](crate::Graph::rearm)) starts every batch from the same
//! state, and the schedule does not depend on element values. So a graph
//! that has completed a run keeps one whole-run tape per *batch key* (the
//! image count `CompiledNetwork::load` passes): the first re-armed run
//! under a key records from cycle 0 with the recording policy, later ones
//! replay from cycle 0 under the same guards, with boundaries ignored. A
//! guard miss drops the tape and the key records again on its next run; so
//! does a run that stops on an error. A graph's first run, a traced run
//! and a graph with a kernel without a token (a
//! [`DenseOracle`](crate::DenseOracle)-wrapped one among them) never use
//! them. [`ReplayDiag::whole_batch`] says what a run did with its tape;
//! [`Graph::adopt_tapes`](crate::Graph::adopt_tapes) moves the tapes to a
//! structurally identical graph (a weight publish).
//!
//! ## Equivalence argument
//!
//! A recorded span is exactly a burst the planner admitted, and
//! re-dispatching it is valid whenever the state it was planned against
//! recurs. The fingerprint establishes that at period boundaries — equal
//! tokens attest equal *control* state, equal queue lengths and park
//! verdicts the scheduler-visible state — and determinism carries it
//! forward; a whole-batch key does the same from the kernels' rearm states
//! and empty streams, which is why a key must fix the source's element
//! count and the sink's. The per-span guards also catch the non-periodic
//! tail before a recorded plan could act on a state it was not planned
//! for. Dense steps run the ordinary stepper, so they cannot diverge.

use crate::burst::{Span, SpanPart, SpanStream};
use crate::graph::Node;
use crate::kernel::Progress;
use crate::stream::StreamState;

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
enum Step {
    /// `n` consecutive per-element ready-list cycles.
    Dense(u32),
    /// A dispatched span: an index into [`ScheduleTape::span_recs`].
    Span(u32),
}

/// One recorded span step: `(offset, len)` windows into the tape's flat
/// pools. Replay walks the tape front to back, so consecutive steps read
/// consecutive pool ranges (DESIGN.md §12 on why steps are not interned).
/// The planner's records arrive pruned: a participant parked throughout on
/// one verdict has no record, a stream without traffic no entry.
#[derive(Clone, Copy)]
struct SpanRec {
    k: u64,
    parts: (u32, u32),
    streams: (u32, u32),
    /// The awake mask the span was planned against.
    mask: (u32, u32),
}

/// The recorded schedule of one steady-state period (or of a whole run),
/// as one `Step` list plus flat side pools indexed by [`SpanRec`] windows.
/// A part's quota window indexes `quota_pool` directly.
#[derive(Default)]
struct ScheduleTape {
    steps: Vec<Step>,
    span_recs: Vec<SpanRec>,
    part_pool: Vec<SpanPart>,
    quota_pool: Vec<u64>,
    stream_pool: Vec<SpanStream>,
    mask_pool: Vec<u64>,
}

/// Recording stops past this many pool entries — a period too irregular to
/// record compactly will not amortize anyway (see
/// [`ReplayState::record_span`] for what happens then).
const TAPE_ENTRY_CAP: usize = 1 << 22;

fn window<T>(pool: &[T], w: (u32, u32)) -> &[T] {
    &pool[w.0 as usize..(w.0 + w.1) as usize]
}

impl ScheduleTape {
    /// Release the pools' spare capacity (a tape kept for later runs).
    fn shrink_to_fit(&mut self) {
        self.steps.shrink_to_fit();
        self.span_recs.shrink_to_fit();
        self.part_pool.shrink_to_fit();
        self.quota_pool.shrink_to_fit();
        self.stream_pool.shrink_to_fit();
        self.mask_pool.shrink_to_fit();
    }

    /// The recorded span as [`crate::burst::dispatch`] applies it.
    fn span(&self, r: &SpanRec) -> Span<'_> {
        Span {
            k: r.k,
            parts: window(&self.part_pool, r.parts),
            quotas: &self.quota_pool,
            streams: window(&self.stream_pool, r.streams),
        }
    }

    fn mask(&self, r: &SpanRec) -> &[u64] {
        window(&self.mask_pool, r.mask)
    }

    fn entries(&self) -> usize {
        self.part_pool.len() + self.quota_pool.len() + self.stream_pool.len() + self.mask_pool.len()
    }
}

/// Replay control state machine (see the module docs). `batch` is the
/// whole-batch key a run records or replays under: while set, the tape
/// runs from cycle 0 and boundaries are ignored. It lives in the phase, so
/// every reset to `Armed` or `Vetoed` drops it with the tape.
#[derive(Debug)]
enum ReplayPhase {
    /// Watching boundary fingerprints for steady state.
    Armed { have_prev: bool },
    /// Appending steps to the tape until the next boundary validates it,
    /// or under a whole-batch key until the run completes.
    Recording { batch: Option<u64> },
    /// Executing the tape; `step` is the cursor, `done` counts cycles
    /// already executed of a `Step::Dense` run.
    Replaying {
        step: usize,
        done: u32,
        batch: Option<u64>,
    },
    /// A kernel without a replay token, or a period over the tape cap —
    /// off until the graph is re-armed.
    Vetoed,
}

impl Default for ReplayPhase {
    fn default() -> Self {
        ReplayPhase::Armed { have_prev: false }
    }
}

/// What the protocol makes of the run loop's next advance
/// ([`ReplayState::cue`]).
pub(crate) enum Cue<'a> {
    /// Re-dispatch this span of the tape: its guards passed.
    Replay(Span<'a>),
    /// The tape steps this cycle per element, without planning.
    Dense,
    /// Plan the advance live. With `record`, a tape is recording: hand it
    /// the burst ([`ReplayState::record_span`]) or the per-element cycle
    /// ([`ReplayState::record_dense`]) the plan comes to.
    Plan { record: bool },
}

/// A graph's schedule-replay state: the marker, the state machine, the
/// tape in use and the whole-batch tapes kept between runs.
#[derive(Default)]
pub(crate) struct ReplayState {
    /// Marker stream index and period in elements; `None` ⇒ never armed.
    marker: Option<(usize, u64)>,
    /// Next popped-count multiple that constitutes a boundary.
    next_target: u64,
    phase: ReplayPhase,
    tape: ScheduleTape,
    /// Dense cycles stepped since the last recorded span (flushed into one
    /// `Step::Dense` entry).
    pending_dense: u32,
    prev_fp: Vec<u64>,
    fp_scratch: Vec<u64>,
    diag: ReplayDiag,
    /// Whole-batch tapes by batch key (see the module docs); the tape of
    /// the run in progress is out in `tape` while it records or replays.
    batch_tapes: Vec<(u64, ScheduleTape)>,
    /// The batch key the next run records or replays under.
    next_batch: Option<u64>,
    /// The graph has completed a run (or adopted another graph's tapes):
    /// re-armed runs use whole-batch tapes.
    warm: bool,
}

impl ReplayState {
    /// Watch stream `marker` of `streams`, one boundary every `period`
    /// pops from now on; drops every tape, whole-batch ones included.
    pub fn arm(&mut self, streams: &[StreamState], marker: usize, period: u64) {
        self.marker = Some((marker, period));
        self.next_target = streams[marker].popped() + period;
        self.restart();
        self.batch_tapes.clear();
    }

    /// Take `from`'s whole-batch tapes if it has run (the caller checks
    /// that the two graphs have the same structure).
    pub fn adopt(&mut self, from: &mut ReplayState) {
        if from.warm {
            self.batch_tapes = std::mem::take(&mut from.batch_tapes);
            self.warm = true;
        }
    }

    pub fn diag(&self) -> ReplayDiag {
        self.diag
    }

    /// Reset for a run from the graph's start state, whatever state the
    /// last run left — completed, or stopped by an error mid-recording or
    /// mid-replay (that run's tape is dropped, and its key records again).
    /// Keeps the marker and the whole-batch tapes. `batch` keys the next
    /// run's whole-batch tape; `None` when some kernel cannot attest its
    /// control state, which keeps the run off them.
    pub fn rearm(&mut self, batch: Option<u64>) {
        self.restart();
        self.diag = ReplayDiag::default();
        // Streams are empty again, so the marker has popped nothing.
        if let Some((_, period)) = self.marker {
            self.next_target = period;
        }
        self.next_batch = batch.filter(|_| self.warm);
    }

    /// Start a run. Replay rides the self-stepped path, so a traced run
    /// (`untraced` false) never replays, and it needs the marker; returns
    /// whether this run is replay-eligible. An eligible run under a batch
    /// key replays the key's tape from cycle 0, or records one.
    pub fn begin_run(&mut self, untraced: bool) -> bool {
        let batch = self.next_batch.take();
        if !untraced || self.marker.is_none() {
            // Nothing replays, and a whole-batch run stopped early keeps
            // no part of its tape.
            self.restart();
            return false;
        }
        let Some(key) = batch else {
            return true;
        };
        self.restart();
        if let Some(i) = self.batch_tapes.iter().position(|(k, _)| *k == key) {
            self.tape = self.batch_tapes.swap_remove(i).1;
            self.diag.tape_len = self.tape.steps.len() as u64;
            self.phase = ReplayPhase::Replaying {
                step: 0,
                done: 0,
                batch: Some(key),
            };
        } else {
            self.phase = ReplayPhase::Recording { batch: Some(key) };
        }
        true
    }

    /// End a completed run: store the whole-batch tape it recorded or
    /// replayed under its key, crediting a replayed run's images, and
    /// count the graph as warm.
    pub fn end_run(&mut self, streams: &[StreamState]) {
        self.warm = true;
        let key = match self.phase {
            ReplayPhase::Recording { batch: Some(key) } => {
                self.flush_dense();
                self.tape.shrink_to_fit();
                self.diag.tape_len = self.tape.steps.len() as u64;
                self.diag.whole_batch = WholeBatch::Recorded;
                key
            }
            ReplayPhase::Replaying {
                batch: Some(key), ..
            } => {
                if let Some((m, period)) = self.marker {
                    self.diag.images_replayed += streams[m].popped() / period;
                }
                self.diag.whole_batch = WholeBatch::Replayed;
                key
            }
            _ => return,
        };
        self.batch_tapes.push((key, std::mem::take(&mut self.tape)));
        self.restart();
    }

    /// The boundary a planned burst must stop at: the marker stream and
    /// its pops still due (none while vetoed or under a whole-batch key,
    /// whose period is the run).
    pub fn due(&self, streams: &[StreamState]) -> Option<(usize, u64)> {
        if matches!(self.phase, ReplayPhase::Vetoed) || self.batch().is_some() {
            return None;
        }
        let (m, _) = self.marker?;
        Some((m, self.next_target.saturating_sub(streams[m].popped())))
    }

    /// The next advance of a replay-eligible run with `budget` cycles left.
    /// While a tape replays, its next step: dense, or a span whose guards
    /// pass against the live `awake` mask and `streams`. A guard miss, or a
    /// cursor past the tape's end, counts a fallback and re-arms (a
    /// whole-batch tape is dropped; its key records again next run).
    pub fn cue(&mut self, budget: u64, awake: &[u64], streams: &[StreamState]) -> Cue<'_> {
        let (step, done, batch) = match self.phase {
            ReplayPhase::Replaying { step, done, batch } => (step, done, batch),
            ReplayPhase::Recording { .. } => return Cue::Plan { record: true },
            _ => return Cue::Plan { record: false },
        };
        match self.tape.steps.get(step) {
            Some(&Step::Dense(n)) => {
                let (step, done) = if done + 1 >= n {
                    (step + 1, 0)
                } else {
                    (step, done + 1)
                };
                self.phase = ReplayPhase::Replaying { step, done, batch };
                return Cue::Dense;
            }
            Some(&Step::Span(ix)) => {
                let rec = self.tape.span_recs[ix as usize];
                let tape = &self.tape;
                let queued = |bs: &SpanStream| {
                    streams[bs.stream as usize].queue.len() == bs.start_len as usize
                };
                // A replayed span must not overrun the run's cycle budget —
                // dense stepping would time out mid-span, and the timeout
                // arithmetic must match it exactly.
                if rec.k <= budget
                    && tape.mask(&rec) == awake
                    && tape.span(&rec).streams.iter().all(queued)
                {
                    // The planner admitted this span against this exact
                    // scheduler-visible state (same awake set, same queue
                    // lengths, same kernel control state per the boundary
                    // fingerprint), so re-dispatching it is the same
                    // fast-forward of dense cycles it was originally.
                    self.diag.spans_bypassed += 1;
                    self.phase = ReplayPhase::Replaying {
                        step: step + 1,
                        done: 0,
                        batch,
                    };
                    return Cue::Replay(self.tape.span(&rec));
                }
            }
            // Past the tape without a period boundary: the run diverged
            // from the recorded schedule.
            None => {}
        }
        self.diag.guard_fallbacks += 1;
        if batch.is_some() {
            self.diag.whole_batch = WholeBatch::FellBack;
        }
        self.restart();
        Cue::Plan { record: false }
    }

    /// Append a burst about to be dispatched, planned against the live
    /// `awake` mask, to the recording tape. A tape over the size cap stops
    /// recording: a whole-batch recording drops its tape and the run goes
    /// on planning live (the key stores nothing); a period recording vetoes
    /// replay until the graph is re-armed.
    pub fn record_span(&mut self, span: Span<'_>, awake: &[u64]) {
        self.flush_dense();
        let t = &mut self.tape;
        let p0 = t.part_pool.len() as u32;
        let q0 = t.quota_pool.len() as u32;
        t.part_pool.extend(span.parts.iter().map(|p| SpanPart {
            quotas: (p.quotas.0 + q0, p.quotas.1),
            ..*p
        }));
        t.quota_pool.extend_from_slice(span.quotas);
        let s0 = t.stream_pool.len() as u32;
        t.stream_pool.extend_from_slice(span.streams);
        let m0 = t.mask_pool.len() as u32;
        t.mask_pool.extend_from_slice(awake);
        let ix = t.span_recs.len() as u32;
        t.span_recs.push(SpanRec {
            k: span.k,
            parts: (p0, t.part_pool.len() as u32 - p0),
            streams: (s0, t.stream_pool.len() as u32 - s0),
            mask: (m0, t.mask_pool.len() as u32 - m0),
        });
        t.steps.push(Step::Span(ix));
        if t.entries() > TAPE_ENTRY_CAP || t.steps.len() > TAPE_ENTRY_CAP {
            match self.batch() {
                Some(_) => self.restart(),
                None => self.veto(),
            }
        }
    }

    /// Count a per-element cycle stepped while the tape records.
    pub fn record_dense(&mut self) {
        self.pending_dense += 1;
    }

    /// Drive the state machine after a clock advance of a replay-eligible
    /// run. Cheap until the marker's popped count crosses the next period
    /// multiple; there the graph's state is fingerprinted (every node's
    /// replay token and park verdict, every stream's queue length).
    pub fn boundary(
        &mut self,
        nodes: &[Node],
        streams: &[StreamState],
        parked: &[Option<(Progress, u64)>],
    ) {
        if matches!(self.phase, ReplayPhase::Vetoed) {
            return;
        }
        let Some((m, period)) = self.marker else {
            return;
        };
        let popped = streams[m].popped();
        if popped < self.next_target {
            return;
        }
        // One state-machine event per detection even if a span crossed
        // several period multiples at once (the tape period then covers
        // several images — still a valid periodic unit).
        while self.next_target <= popped {
            self.next_target += period;
        }
        if self.batch().is_some() {
            // A whole-batch tape's period is the whole run.
            return;
        }
        if !fingerprint(&mut self.fp_scratch, nodes, streams, parked) {
            // A kernel without a replay token: off until re-armed.
            self.veto();
            return;
        }
        let fp_matches = self.fp_scratch == self.prev_fp;
        match self.phase {
            ReplayPhase::Vetoed => {}
            ReplayPhase::Armed { have_prev } => {
                if have_prev && fp_matches {
                    // Steady state: the machine state at this boundary
                    // recurs. Record the next period's schedule (the tape
                    // is empty while armed).
                    self.phase = ReplayPhase::Recording { batch: None };
                } else {
                    std::mem::swap(&mut self.prev_fp, &mut self.fp_scratch);
                    self.phase = ReplayPhase::Armed { have_prev: true };
                }
            }
            ReplayPhase::Recording { .. } => {
                self.flush_dense();
                if fp_matches && !self.tape.steps.is_empty() {
                    // The recorded period closed on the same fingerprint:
                    // the tape is a valid periodic unit. Replay it.
                    self.diag.tape_len = self.tape.steps.len() as u64;
                    self.phase = ReplayPhase::Replaying {
                        step: 0,
                        done: 0,
                        batch: None,
                    };
                } else {
                    // Diverged mid-recording (e.g. ramp not actually
                    // settled): drop the tape, keep watching.
                    self.tape = ScheduleTape::default();
                    std::mem::swap(&mut self.prev_fp, &mut self.fp_scratch);
                    self.phase = ReplayPhase::Armed { have_prev: true };
                }
            }
            ReplayPhase::Replaying { step, done, .. } => {
                // Every replayed period re-checks the fingerprint — this is
                // the macro guard that catches the non-periodic tail (the
                // source entering its final-period drain fingerprints
                // differently by construction, see `host::drain_token`).
                let at_end = step == self.tape.steps.len() && done == 0;
                if at_end && fp_matches {
                    self.diag.images_replayed += 1;
                    self.phase = ReplayPhase::Replaying {
                        step: 0,
                        done: 0,
                        batch: None,
                    };
                } else {
                    self.diag.guard_fallbacks += 1;
                    self.restart();
                }
            }
        }
    }

    /// The whole-batch key the run in progress records or replays under.
    fn batch(&self) -> Option<u64> {
        match self.phase {
            ReplayPhase::Recording { batch } | ReplayPhase::Replaying { batch, .. } => batch,
            _ => None,
        }
    }

    /// Drop the tape in use and the fingerprint history and return to
    /// `Armed` — the reset applied on guard failures, at re-arms and
    /// marker changes. Diagnostics counters survive (they describe the
    /// whole run).
    fn restart(&mut self) {
        self.phase = ReplayPhase::default();
        self.tape = ScheduleTape::default();
        self.pending_dense = 0;
        self.prev_fp.clear();
    }

    fn veto(&mut self) {
        self.restart();
        self.phase = ReplayPhase::Vetoed;
    }

    fn flush_dense(&mut self) {
        if self.pending_dense > 0 {
            self.tape.steps.push(Step::Dense(self.pending_dense));
            self.pending_dense = 0;
        }
    }
}

/// Fill `fp` with the boundary fingerprint: every kernel's replay token
/// and park verdict, then every stream's committed queue length. Park
/// *instants* are excluded — the fingerprint must be invariant under time
/// shift, that is the whole point. Returns `false` when a kernel has no
/// token (replay must be vetoed: its control state cannot be attested).
fn fingerprint(
    fp: &mut Vec<u64>,
    nodes: &[Node],
    streams: &[StreamState],
    parked: &[Option<(Progress, u64)>],
) -> bool {
    fp.clear();
    for (n, park) in nodes.iter().zip(parked) {
        let Some(token) = n.kernel.replay_token() else {
            return false;
        };
        fp.push(token);
        fp.push(match park {
            None => 0,
            Some((Progress::Busy, _)) => 1,
            Some((Progress::Stalled, _)) => 2,
            Some((Progress::Idle, _)) => 3,
        });
    }
    fp.extend(streams.iter().map(|s| s.queue.len() as u64));
    true
}

#[cfg(test)]
mod tests;
