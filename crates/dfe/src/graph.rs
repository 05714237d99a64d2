//! The kernel graph and the deterministic cycle scheduler.
//!
//! Four stepping tiers are available (see [`SchedulerMode`]); all are
//! cycle-accurate-equivalent — identical outputs, identical
//! [`CycleReport`]s — which `tests/scheduler_equivalence.rs` asserts over
//! randomized networks.

use crate::burst::{dispatch, Planner, View};
use crate::diag::{BurstDiag, Refusal};
use crate::kernel::{Io, Kernel, Progress, WakeHint};
use crate::replay::{ReplayDiag, ReplayPhase, ReplayState, Step};
use crate::sched::SchedulerMode;
use crate::stream::{StreamSpec, StreamState};
use crate::trace::Trace;
use std::fmt;

/// Identifier of a stream within a [`Graph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StreamId(pub(crate) usize);

/// Identifier of a kernel within a [`Graph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct KernelId(pub(crate) usize);

/// The kernel on one end of a stream: its node index and which of that
/// node's output (writer end) or input (reader end) ports the stream is
/// wired to.
#[derive(Clone, Copy)]
pub(crate) struct End {
    pub node: usize,
    pub port: usize,
}

pub(crate) struct Node {
    pub kernel: Box<dyn Kernel>,
    pub inputs: Vec<usize>,
    pub outputs: Vec<usize>,
    /// Per-port elements moved this cycle, bounded by the lane counts
    /// below (1 for ordinary kernels, >1 for folded ones).
    read_used: Vec<u16>,
    write_used: Vec<u16>,
    read_lanes: u16,
    write_lanes: u16,
    pub busy: u64,
    pub stalled: u64,
}

/// Why a run stopped abnormally.
#[derive(Debug)]
pub enum RunError {
    /// No kernel made progress for a full cycle while sinks were incomplete.
    /// Carries a human-readable dump of stream occupancies.
    Deadlock {
        /// Cycle at which the deadlock was detected.
        cycle: u64,
        /// Diagnostic description of every stream's state.
        diagnostics: String,
    },
    /// `max_cycles` elapsed before the sinks completed.
    Timeout {
        /// The exhausted budget.
        max_cycles: u64,
    },
    /// The graph is malformed (unconnected stream, double writer, …).
    Invalid(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Deadlock { cycle, diagnostics } => {
                write!(f, "dataflow deadlock at cycle {cycle}:\n{diagnostics}")
            }
            RunError::Timeout { max_cycles } => {
                write!(f, "run exceeded {max_cycles} cycles")
            }
            RunError::Invalid(msg) => write!(f, "invalid graph: {msg}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Per-kernel activity counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelStats {
    /// Kernel name.
    pub name: String,
    /// Cycles in which the kernel did useful work.
    pub busy: u64,
    /// Cycles in which the kernel was blocked on I/O.
    pub stalled: u64,
}

/// Per-stream traffic counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamStats {
    /// Stream name.
    pub name: String,
    /// Total elements transported.
    pub pushed: u64,
    /// High-water mark of occupancy.
    pub max_occupancy: usize,
    /// Configured capacity.
    pub capacity: usize,
}

/// Result of a completed run.
#[derive(Clone, Debug)]
pub struct CycleReport {
    /// Clock cycles until the last sink completed.
    pub cycles: u64,
    /// Per-kernel counters, index-aligned with kernel ids.
    pub kernels: Vec<KernelStats>,
    /// Per-stream counters, index-aligned with stream ids.
    pub streams: Vec<StreamStats>,
    /// Schedule-replay diagnostics (see [`crate::replay`]). Like
    /// [`Graph::bursts`], this describes how the run was *dispatched*, not
    /// what it computed — so it is excluded from report equality, which the
    /// differential batteries hold bit-identical across scheduler tiers.
    pub replay: ReplayDiag,
}

impl PartialEq for CycleReport {
    fn eq(&self, other: &Self) -> bool {
        self.cycles == other.cycles
            && self.kernels == other.kernels
            && self.streams == other.streams
    }
}

impl Eq for CycleReport {}

impl CycleReport {
    /// Wall-clock time for the run at a fabric clock of `fclk_mhz`.
    pub fn time_ms(&self, fclk_mhz: f64) -> f64 {
        self.cycles as f64 / (fclk_mhz * 1e3)
    }

    /// The busiest kernel (pipeline bottleneck).
    pub fn bottleneck(&self) -> Option<&KernelStats> {
        self.kernels.iter().max_by_key(|k| k.busy)
    }
}

/// A dataflow graph: kernels connected by bounded streams.
///
/// Build with [`Graph::add_stream`] / [`Graph::add_kernel`], then execute
/// with [`Graph::run`]. Every stream must end up with exactly one writer
/// and one reader (sources/sinks are kernels too).
pub struct Graph {
    nodes: Vec<Node>,
    streams: Vec<StreamState>,
    writers: Vec<Option<End>>,
    readers: Vec<Option<End>>,
    scheduler: SchedulerMode,
    /// Ready-list state: `Some((p, c))` means node `i` parked at cycle `c`
    /// with verdict `p`; `None` means it will be ticked next cycle. Stall
    /// credit for the skipped cycles is settled lazily at wake time (see
    /// [`Graph::step_cycle_ready`]), so parked nodes cost nothing per cycle.
    parked: Vec<Option<(Progress, u64)>>,
    /// Awake set as a bitmask (bit `i` set ⇔ `parked[i]` is `None`), so the
    /// ready-list tick loop skips parked stretches 64 nodes per word load
    /// instead of probing every node's park slot each cycle.
    awake: Vec<u64>,
    /// Scratch: streams written during the current cycle (ready-list mode
    /// commits only these).
    dirty: Vec<usize>,
    /// Cycle ordinal for lazy stall crediting; advanced only by the
    /// ready-list stepper (credits are differences, so the base is free).
    now: u64,
    /// Whether the last `step_cycle` saw a sink kernel report `Busy` —
    /// the only event that can flip [`Graph::complete`], so run loops
    /// re-check completion (an `is_done` call per sink, one of which takes
    /// a mutex) only when this is set.
    sink_progress: bool,
    /// Number of spans dispatched by [`Graph::try_burst`] — diagnostics
    /// only, deliberately not part of [`CycleReport`] (which must stay
    /// bit-identical across dispatch modes).
    bursts: u64,
    /// Total cycles covered by those spans (sum of every burst's `k`) —
    /// with [`Graph::bursts`], the coverage view: `burst_cycles / cycles`
    /// is the fraction of the run that skipped per-element stepping.
    burst_cycles: u64,
    /// Burst explainers (see [`crate::diag`]) — diagnostics only, like
    /// `bursts`.
    burst_diag: BurstDiag,
    /// The last refused attempt's reason and the clock at the refusal; the
    /// per-element cycles since are credited to it at the next attempt.
    pending_refusal: Option<(Refusal, u64)>,
    /// Per-element cycles left before the next burst attempt. A failed
    /// attempt costs a full planning scan, and the graph states that fail
    /// (a kernel mid-row-transition, a trickle-fed consumer about to run
    /// dry) persist for stretches — so retrying every cycle roughly
    /// doubles the cost of uncovered regions. Failures back off
    /// exponentially ([`Graph::BURST_BACKOFF_CAP`]); any success resets.
    /// Purely a cost knob: skipping an attempt never changes semantics,
    /// bursts being optional replays of dense cycles.
    burst_cooldown: u64,
    /// Cooldown the *next* failure will impose (doubles up to the cap).
    burst_backoff: u64,
    /// The burst planner and its scratch (see [`crate::burst`]).
    planner: Planner,
    /// Steady-state schedule replay — the [`SchedulerMode::Replay`] tier
    /// (see [`crate::replay`]). Inert until armed with a marker via
    /// [`Graph::set_replay_marker`].
    replay: ReplayState,
}

/// What a replay-tape step executed as (see [`Graph::try_replay_step`]).
enum ReplayOutcome {
    /// A recorded span was re-dispatched, advancing the clock `k` cycles.
    Span(u64),
    /// The tape step is a dense cycle: run the ordinary stepper.
    Dense,
    /// A guard failed; replay re-armed, step this cycle normally.
    Fallback,
}

impl Default for Graph {
    /// Empty graph at the default [`SchedulerMode`].
    fn default() -> Self {
        Self::with_scheduler(SchedulerMode::default())
    }
}

impl Graph {
    /// Longest stretch of per-element cycles a failed burst attempt can
    /// suppress retries for (see [`Graph::run_inner`]'s backoff). Low
    /// enough that a regime change re-engages spans within a typical row
    /// transition, high enough that a trickle equilibrium pays one
    /// planning scan per cap instead of one per cycle.
    const BURST_BACKOFF_CAP: u64 = 64;

    /// Smallest span worth dispatching as a burst. Planning an attempt costs
    /// 20–28 µs on ResNet-18 whatever it finds, against 0.6–1.6 µs for one
    /// per-element cycle (DESIGN.md §9); a burst shorter than this is
    /// refused, and the caller steps the short stretch per element and
    /// retries right after the bound that cut it. Since a burst runs to a
    /// stream limit or the end of a kernel's phase chain, the floor rarely
    /// binds. Correctness is unaffected — a refused burst just falls back to
    /// per-element stepping.
    const MIN_BURST: u64 = 8;

    /// Span floor while a schedule-replay tape records. `min_burst` is an
    /// admission threshold, not a target — the feasibility scan returns the
    /// same large spans the default policy dispatches — so the lower floor
    /// only *adds* the short spans the default policy leaves to dense
    /// stepping. A recorded span's planning cost is paid once and then
    /// replayed for free every period, and after record-time pruning (only
    /// the participants that actually run survive) even a 2-cycle replayed
    /// span beats re-stepping those cycles densely on every image — raising
    /// this floor to 4 measurably slowed ResNet-18 replay by pushing the
    /// short-phase residue back to dense stepping.
    const REPLAY_MIN_BURST: u64 = 2;

    /// Empty graph at the default [`SchedulerMode`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty graph with an explicit scheduler mode.
    pub fn with_scheduler(scheduler: SchedulerMode) -> Self {
        Self {
            nodes: Vec::new(),
            streams: Vec::new(),
            writers: Vec::new(),
            readers: Vec::new(),
            scheduler,
            parked: Vec::new(),
            awake: Vec::new(),
            dirty: Vec::new(),
            now: 0,
            sink_progress: false,
            bursts: 0,
            burst_cycles: 0,
            burst_diag: BurstDiag::default(),
            pending_refusal: None,
            burst_cooldown: 0,
            burst_backoff: 1,
            planner: Planner::default(),
            replay: ReplayState::new(),
        }
    }

    /// Arm schedule replay: watch `marker` (conventionally the logits
    /// stream) and treat every `period` elements popped from it as one
    /// image boundary, where steady state is fingerprinted (see
    /// [`crate::replay`]). Resets any previous tape.
    pub fn set_replay_marker(&mut self, marker: StreamId, period: u64) {
        assert!(period > 0, "replay period must be positive");
        let st = &self.streams[marker.0];
        let popped = st.pushed - st.total_len() as u64;
        self.replay.marker = Some((marker.0, period));
        self.replay.next_target = popped + period;
        self.replay.rearm();
    }

    /// Schedule-replay diagnostics so far (also surfaced on
    /// [`CycleReport::replay`]).
    pub fn replay_diag(&self) -> ReplayDiag {
        self.replay.diag
    }

    /// Spans dispatched so far (diagnostics; not part of [`CycleReport`]).
    pub fn bursts(&self) -> u64 {
        self.bursts
    }

    /// Total cycles covered by dispatched spans (diagnostics only).
    pub fn burst_cycles(&self) -> u64 {
        self.burst_cycles
    }

    /// Why burst attempts were refused and what ended accepted bursts
    /// (diagnostics only, outside [`CycleReport`] equality; see
    /// [`crate::diag`]). Per-element cycles stepped since the last refusal
    /// count toward it.
    pub fn burst_diag(&self) -> BurstDiag {
        let mut diag = self.burst_diag;
        if let Some((reason, at)) = self.pending_refusal {
            diag.add_dense(reason, self.now - at);
        }
        diag
    }

    /// Credit the per-element cycles stepped since the last refusal to its
    /// reason (called at each attempt and each replayed span).
    fn settle_refusal(&mut self) {
        if let Some((reason, at)) = self.pending_refusal.take() {
            self.burst_diag.add_dense(reason, self.now - at);
        }
    }

    /// The active scheduler mode.
    pub fn scheduler(&self) -> SchedulerMode {
        self.scheduler
    }

    /// Switch scheduler tier. Safe at any point, including mid-run: pending
    /// park state is settled (outstanding stall credit lands on the
    /// counters) and cleared, so every kernel is ticked on the next cycle
    /// in any tier, and bursts leave no cross-cycle state behind (no staged
    /// writes, identical park bookkeeping). Any schedule-replay tape is
    /// dropped (replay re-arms; its tape encodes park state that the switch
    /// just settled, and the old tier's dispatch policy).
    pub fn set_scheduler(&mut self, scheduler: SchedulerMode) {
        self.settle_refusal();
        self.scheduler = scheduler;
        self.replay.rearm();
        for i in 0..self.nodes.len() {
            if let Some((verdict, since)) = self.parked[i].take() {
                if verdict == Progress::Stalled {
                    self.nodes[i].stalled += self.now - 1 - since;
                }
            }
        }
        // High bits beyond the node count are harmless: the tick loop stops
        // at `nodes.len()`.
        self.awake.iter_mut().for_each(|w| *w = !0);
    }

    /// Return the graph to the state it was in when its last kernel was
    /// added, so [`Graph::run`] can execute it again on new host data: the
    /// clock, every kernel's counters and control state
    /// ([`Kernel::rearm`]), every stream's contents and statistics, the
    /// park and awake sets, the burst counters and back-off, and the
    /// schedule-replay tape with its diagnostics. Structure (kernels,
    /// streams, wiring), configuration (scheduler tier, replay marker) and
    /// the kernels' weights are kept.
    ///
    /// The reset is explicit, not inferred from where the last run
    /// stopped: a run ends at the sink's last element, which leaves
    /// upstream kernels mid-image (see [`Kernel::rearm`]), nodes parked
    /// mid-verdict and FIFOs holding elements nobody will read. A re-armed
    /// graph runs a batch exactly as a freshly built one does — same
    /// outputs, same [`CycleReport`], same dispatch diagnostics
    /// (`tests/pipeline_rearm.rs`). Not meant for a graph whose run
    /// returned a [`RunError`]; build a new one.
    pub fn rearm(&mut self) {
        for node in &mut self.nodes {
            node.kernel.rearm();
            node.busy = 0;
            node.stalled = 0;
        }
        for s in &mut self.streams {
            s.clear();
        }
        self.parked.fill(None);
        self.awake.fill(0);
        for i in 0..self.nodes.len() {
            self.awake[i / 64] |= 1 << (i % 64);
        }
        self.dirty.clear();
        self.now = 0;
        self.sink_progress = false;
        self.bursts = 0;
        self.burst_cycles = 0;
        self.burst_diag = BurstDiag::default();
        self.pending_refusal = None;
        self.burst_cooldown = 0;
        self.burst_backoff = 1;
        self.replay.rearm();
        self.replay.diag = ReplayDiag::default();
        // Streams are empty again, so the marker has popped nothing.
        if let Some((_, period)) = self.replay.marker {
            self.replay.next_target = period;
        }
    }

    /// Register a stream.
    pub fn add_stream(&mut self, spec: StreamSpec) -> StreamId {
        self.streams.push(StreamState::new(spec));
        self.writers.push(None);
        self.readers.push(None);
        StreamId(self.streams.len() - 1)
    }

    /// Committed queue length of a stream (conservation-ledger tests).
    pub fn stream_len(&self, id: StreamId) -> usize {
        self.streams[id.0].queue.len()
    }

    /// Register a kernel with its input and output streams (port order is
    /// the slice order).
    ///
    /// # Panics
    /// Panics if a stream already has a reader/writer.
    pub fn add_kernel(
        &mut self,
        kernel: Box<dyn Kernel>,
        inputs: &[StreamId],
        outputs: &[StreamId],
    ) -> KernelId {
        let id = self.nodes.len();
        for (port, &StreamId(s)) in inputs.iter().enumerate() {
            assert!(
                self.readers[s].is_none(),
                "stream '{}' already has a reader",
                self.streams[s].spec.name
            );
            self.readers[s] = Some(End { node: id, port });
        }
        for (port, &StreamId(s)) in outputs.iter().enumerate() {
            assert!(
                self.writers[s].is_none(),
                "stream '{}' already has a writer",
                self.streams[s].spec.name
            );
            self.writers[s] = Some(End { node: id, port });
        }
        let (read_lanes, write_lanes) = kernel.lanes();
        assert!(
            read_lanes >= 1 && write_lanes >= 1,
            "kernel '{}' declared a zero-lane stream interface",
            kernel.name()
        );
        self.nodes.push(Node {
            kernel,
            inputs: inputs.iter().map(|s| s.0).collect(),
            outputs: outputs.iter().map(|s| s.0).collect(),
            read_used: vec![0; inputs.len()],
            write_used: vec![0; outputs.len()],
            read_lanes,
            write_lanes,
            busy: 0,
            stalled: 0,
        });
        self.parked.push(None);
        if id % 64 == 0 {
            self.awake.push(0);
        }
        self.awake[id / 64] |= 1 << (id % 64);
        KernelId(id)
    }

    /// Number of kernels.
    pub fn num_kernels(&self) -> usize {
        self.nodes.len()
    }

    /// Number of streams.
    pub fn num_streams(&self) -> usize {
        self.streams.len()
    }

    /// Kernel name lookup.
    pub fn kernel_name(&self, id: KernelId) -> &str {
        self.nodes[id.0].kernel.name()
    }

    /// Total FMem bits of all stream FIFOs (for the resource model).
    pub fn total_fmem_bits(&self) -> usize {
        self.streams.iter().map(|s| s.spec.fmem_bits()).sum()
    }

    fn validate(&self) -> Result<(), RunError> {
        for (i, s) in self.streams.iter().enumerate() {
            if self.writers[i].is_none() {
                return Err(RunError::Invalid(format!(
                    "stream '{}' has no writer",
                    s.spec.name
                )));
            }
            if self.readers[i].is_none() {
                return Err(RunError::Invalid(format!(
                    "stream '{}' has no reader",
                    s.spec.name
                )));
            }
        }
        if self.nodes.is_empty() {
            return Err(RunError::Invalid("graph has no kernels".into()));
        }
        Ok(())
    }

    /// True when every sink kernel (no output ports) reports completion.
    fn complete(&self) -> bool {
        self.nodes
            .iter()
            .filter(|n| n.outputs.is_empty())
            .all(|n| n.kernel.is_done())
    }

    /// Execute until every sink completes or `max_cycles` elapse.
    pub fn run(&mut self, max_cycles: u64) -> Result<CycleReport, RunError> {
        self.run_opts(max_cycles, true)
    }

    /// Like [`Graph::run`], with deadlock detection optional.
    ///
    /// A graph whose kernels legitimately go all-quiet for whole cycles —
    /// a [`StallInjector`](crate::StallInjector) holding its stream, a
    /// timer-driven sink — disables detection and relies on the
    /// `max_cycles` budget instead.
    pub fn run_opts(
        &mut self,
        max_cycles: u64,
        detect_deadlock: bool,
    ) -> Result<CycleReport, RunError> {
        self.run_inner(max_cycles, detect_deadlock, 0)
            .map(|(r, _)| r)
    }

    /// Run while sampling stream occupancy and kernel activity every
    /// `sample_every` cycles (see [`Trace`]).
    pub fn run_traced(
        &mut self,
        max_cycles: u64,
        sample_every: u64,
    ) -> Result<(CycleReport, Trace), RunError> {
        assert!(sample_every > 0, "sampling cadence must be positive");
        self.run_inner(max_cycles, true, sample_every)
            .map(|(r, t)| (r, t.expect("tracing was requested")))
    }

    fn run_inner(
        &mut self,
        max_cycles: u64,
        detect_deadlock: bool,
        sample_every: u64,
    ) -> Result<(CycleReport, Option<Trace>), RunError> {
        self.validate()?;
        let mut trace = (sample_every > 0).then(|| {
            Trace::new(
                sample_every,
                self.streams.iter().map(|s| s.spec.name.clone()).collect(),
                self.nodes
                    .iter()
                    .map(|n| n.kernel.name().to_string())
                    .collect(),
            )
        });
        let mut busy_at_last_sample: Vec<u64> = self.nodes.iter().map(|n| n.busy).collect();
        let mut cycle: u64 = 0;
        // `complete()` is re-evaluated only after cycles where a sink ticked
        // `Busy` — the sole event that can flip it (see [`Kernel::is_done`]).
        // Checking it every cycle would cost an O(kernels) scan plus a sink
        // mutex lock per simulated cycle, which dominates shallow cycles.
        // Macro-tick span dispatch is a self-stepped ready-list refinement;
        // traced runs sample per-cycle state and so step per-element.
        let burst_ok = self.scheduler >= SchedulerMode::Span && trace.is_none();
        // Schedule replay (see [`crate::replay`]) rides the same
        // self-stepped path and needs a marker stream to observe image
        // boundaries; unarmed graphs skip every replay branch.
        let replay_ok = self.scheduler == SchedulerMode::Replay
            && self.replay.marker.is_some()
            && trace.is_none();
        if !self.complete() {
            loop {
                if cycle >= max_cycles {
                    return Err(RunError::Timeout { max_cycles });
                }
                // Replay tier: execute the validated tape directly. A span
                // step advances the clock wholesale; a dense step falls
                // through to the ordinary stepper below (with the burst
                // planner bypassed — the tape already says this cycle is
                // dense); a guard failure re-arms and steps normally.
                let mut replay_dense = false;
                if replay_ok && matches!(self.replay.phase, ReplayPhase::Replaying { .. }) {
                    match self.try_replay_step(max_cycles - cycle) {
                        ReplayOutcome::Span(k) => {
                            cycle += k;
                            self.replay_boundary();
                            if self.sink_progress && self.complete() {
                                break;
                            }
                            continue;
                        }
                        ReplayOutcome::Dense => replay_dense = true,
                        ReplayOutcome::Fallback => {}
                    }
                }
                let recording = replay_ok && matches!(self.replay.phase, ReplayPhase::Recording);
                if burst_ok && !replay_dense {
                    if recording {
                        // While the tape records, mine aggressively: no
                        // cooldown and a lower span floor. `min_burst` only
                        // sets the admission threshold — the feasibility
                        // scan returns the same large `k` either way — so
                        // this keeps every span the default policy would
                        // dispatch and *additionally* converts the short
                        // residue it leaves to dense stepping into 2–7-cycle
                        // spans, which replay far cheaper than dense cycles.
                        // Burst policy is a pure cost knob (any admitted
                        // burst is an exact fast-forward of dense cycles),
                        // so this changes nothing observable — the planning
                        // cost is paid once here and replayed for free.
                        self.replay.snapshot_mask(&self.awake);
                        if let Ok(k) = self.try_burst(max_cycles - cycle, Self::REPLAY_MIN_BURST) {
                            let within_cap = self.replay.record_span(
                                k,
                                &self.planner.parts,
                                &self.planner.quotas,
                                &self.planner.streams,
                            );
                            if !within_cap {
                                // A period too irregular to record compactly
                                // will not amortize: permanently veto.
                                self.replay.rearm();
                                self.replay.phase = ReplayPhase::Vetoed;
                            }
                            cycle += k;
                            self.replay_boundary();
                            if self.sink_progress && self.complete() {
                                break;
                            }
                            continue;
                        }
                        // Failed attempt: step densely (recorded below).
                    } else if self.burst_cooldown == 0 {
                        match self.try_burst(max_cycles - cycle, Self::MIN_BURST) {
                            Ok(k) => {
                                cycle += k;
                                self.burst_backoff = 1;
                                if replay_ok {
                                    self.replay_boundary();
                                }
                                if self.sink_progress && self.complete() {
                                    break;
                                }
                                continue;
                            }
                            // A refusal that names the cycle its binding
                            // bound passes steps through to it and retries
                            // there, without escalating the blind backoff.
                            Err(hint) if hint > 0 => self.burst_cooldown = hint,
                            Err(_) => {
                                self.burst_cooldown = self.burst_backoff;
                                self.burst_backoff =
                                    (self.burst_backoff * 2).min(Self::BURST_BACKOFF_CAP);
                            }
                        }
                    } else {
                        self.burst_cooldown -= 1;
                    }
                }
                let (any_progress, committed) = self.step_cycle();
                if recording {
                    self.replay.record_dense();
                }
                if !any_progress && !committed && detect_deadlock {
                    return Err(RunError::Deadlock {
                        cycle,
                        diagnostics: self.dump_streams(),
                    });
                }
                cycle += 1;
                if replay_ok {
                    self.replay_boundary();
                }
                if let Some(t) = &mut trace {
                    if cycle % sample_every == 0 {
                        t.occupancy
                            .push(self.streams.iter().map(|s| s.queue.len() as u32).collect());
                        t.busy_delta.push(
                            self.nodes
                                .iter()
                                .zip(&busy_at_last_sample)
                                .map(|(n, &prev)| (n.busy - prev) as u32)
                                .collect(),
                        );
                        for (slot, n) in busy_at_last_sample.iter_mut().zip(&self.nodes) {
                            *slot = n.busy;
                        }
                    }
                }
                if self.sink_progress && self.complete() {
                    break;
                }
            }
        }
        Ok((self.report(cycle), trace))
    }

    /// Advance the graph by one cycle and commit staged stream writes.
    ///
    /// Returns `(any_progress, committed)`: whether any kernel reported
    /// [`Progress::Busy`] and whether any stream element moved from staging
    /// into its FIFO. Dispatches on the active [`SchedulerMode`]; both
    /// steppers produce bit-identical stream contents and counters.
    fn step_cycle(&mut self) -> (bool, bool) {
        match self.scheduler {
            SchedulerMode::Dense => self.step_cycle_dense(),
            _ => self.step_cycle_ready(),
        }
    }

    /// Dense stepper: tick every kernel, commit every stream.
    fn step_cycle_dense(&mut self) -> (bool, bool) {
        let mut any_progress = false;
        let mut sink_progress = false;
        for node in &mut self.nodes {
            node.read_used.fill(0);
            node.write_used.fill(0);
            let mut io = Io::new(
                &mut self.streams,
                &node.inputs,
                &node.outputs,
                &mut node.read_used,
                &mut node.write_used,
                node.read_lanes,
                node.write_lanes,
            );
            let prog = node.kernel.tick(&mut io);
            check_progress_contract(node, prog);
            match prog {
                Progress::Busy => {
                    node.busy += 1;
                    any_progress = true;
                    sink_progress |= node.outputs.is_empty();
                }
                Progress::Stalled => node.stalled += 1,
                Progress::Idle => {}
            }
        }
        let mut committed = false;
        for s in &mut self.streams {
            committed |= s.commit() > 0;
        }
        self.sink_progress = sink_progress;
        (any_progress, committed)
    }

    /// Ready-list stepper: skip parked kernels, tick the rest in node
    /// order, commit only streams written this cycle.
    ///
    /// Equivalence to the dense stepper hinges on two points:
    ///
    /// * **Parking is a replay, not an omission.** A kernel parks only if
    ///   its `wake_hint` is [`WakeHint::Parkable`], whose contract makes a
    ///   non-`Busy` tick a fixed point: dense stepping would re-run the
    ///   identical tick every cycle until a stream event, getting the same
    ///   verdict and mutating nothing. So a parked `Stalled` node is
    ///   credited one stall per skipped cycle and a parked `Idle` node
    ///   credits nothing — exactly the counters dense would produce. The
    ///   credit is settled *lazily*: the park records the cycle ordinal and
    ///   the wake (or [`Graph::report`] / [`Graph::set_scheduler`], for
    ///   nodes still parked then) adds the whole span at once, so skipped
    ///   cycles cost nothing — not even a counter increment.
    /// * **Wakes happen at the dense-visible instant.** A reader's pop
    ///   mutates the queue immediately, so the stream's writer is woken
    ///   during the tick phase: a writer *after* the reader in node order
    ///   is ticked the same cycle (dense would see the freed slot this
    ///   cycle), one *before* was already credited and ticks next cycle
    ///   (dense saw the still-full stream this cycle). Staged writes only
    ///   become readable at commit, so readers are woken in the commit
    ///   phase and tick next cycle — the registered-output latency dense
    ///   exhibits.
    fn step_cycle_ready(&mut self) -> (bool, bool) {
        let c = self.now;
        let Self {
            nodes,
            streams,
            writers,
            readers,
            parked,
            awake,
            dirty,
            ..
        } = self;
        let n = nodes.len();
        let mut any_progress = false;
        let mut sink_progress = false;
        dirty.clear();
        let mut i = 0usize;
        while i < n {
            // Advance to the next awake node at or after `i`. The word is
            // re-read live each step, so a mid-cycle wake of a later node
            // (`w > i` pop-wake below) is picked up within the same cycle.
            let rest = awake[i / 64] >> (i % 64);
            if rest == 0 {
                i = (i / 64 + 1) * 64;
                continue;
            }
            i += rest.trailing_zeros() as usize;
            if i >= n {
                break;
            }
            let node = &mut nodes[i];
            node.read_used.fill(0);
            node.write_used.fill(0);
            let mut io = Io::new(
                streams,
                &node.inputs,
                &node.outputs,
                &mut node.read_used,
                &mut node.write_used,
                node.read_lanes,
                node.write_lanes,
            );
            let prog = node.kernel.tick(&mut io);
            check_progress_contract(node, prog);
            match prog {
                Progress::Busy => {
                    node.busy += 1;
                    any_progress = true;
                    sink_progress |= node.outputs.is_empty();
                }
                Progress::Stalled => node.stalled += 1,
                Progress::Idle => {}
            }
            if prog != Progress::Busy && node.kernel.wake_hint() == WakeHint::Parkable {
                parked[i] = Some((prog, c));
                awake[i / 64] &= !(1 << (i % 64));
            }
            for p in 0..nodes[i].read_used.len() {
                if nodes[i].read_used[p] > 0 {
                    // The pop freed a slot; wake the stream's writer. A
                    // writer later in node order (`w > i`) still ticks this
                    // cycle, so its credited span excludes cycle `c`; one
                    // earlier was already skipped this cycle and includes it.
                    if let Some(End { node: w, .. }) = writers[nodes[i].inputs[p]] {
                        if w != i {
                            if let Some((verdict, since)) = parked[w].take() {
                                awake[w / 64] |= 1 << (w % 64);
                                if verdict == Progress::Stalled {
                                    nodes[w].stalled +=
                                        if w > i { c - since - 1 } else { c - since };
                                }
                            }
                        }
                    }
                }
            }
            for p in 0..nodes[i].write_used.len() {
                if nodes[i].write_used[p] > 0 {
                    dirty.push(nodes[i].outputs[p]);
                }
            }
            i += 1;
        }
        let mut committed = false;
        for &s in dirty.iter() {
            if streams[s].commit() > 0 {
                committed = true;
                // Elements became readable; wake the stream's reader (its
                // credited span includes cycle `c`, which it skipped).
                if let Some(End { node: r, .. }) = readers[s] {
                    if let Some((verdict, since)) = parked[r].take() {
                        awake[r / 64] |= 1 << (r % 64);
                        if verdict == Progress::Stalled {
                            nodes[r].stalled += c - since;
                        }
                    }
                }
            }
        }
        self.now = c + 1;
        self.sink_progress = sink_progress;
        (any_progress, committed)
    }

    /// Macro-tick span dispatch: attempt to fast-forward a whole burst of
    /// `k ≥ 2` cycles in one dispatch per participating kernel, advancing
    /// the clock by `k`. Returns `Ok(k)`, the cycles advanced, or
    /// `Err(hint)` when this cycle must be stepped per-element: `hint > 0`
    /// is the number of dense cycles after which the bound that cut the
    /// attempt short has passed and a retry can succeed, `0` means no such
    /// bound is known (the caller backs off). Every refusal is counted by
    /// reason in [`Graph::burst_diag`].
    ///
    /// The burst is solved from the [`SpanPlan`](crate::SpanPlan) chains of
    /// every kernel it touches — awake kernels from cycle 0, parked ones as
    /// the schedules reach them — to exactly the cycles the per-element
    /// ready-list stepper would execute, and credited arithmetically; see
    /// [`crate::burst`] for the planner and the equivalence argument. The
    /// differential battery (`tests/macro_tick_equivalence.rs`) holds it to
    /// bit-identity. `min_burst` is the smallest span worth dispatching on
    /// this attempt — [`Graph::MIN_BURST`] normally,
    /// [`Graph::REPLAY_MIN_BURST`] while a schedule-replay tape records (a
    /// pure cost knob; see the const docs).
    fn try_burst(&mut self, budget: u64, min_burst: u64) -> Result<u64, u64> {
        if budget < min_burst.max(2) {
            // Too close to the cycle budget for any burst worth taking.
            return Err(budget);
        }
        self.settle_refusal();
        // The next schedule-replay boundary: pops still due on the marker.
        let marker = match self.replay.phase {
            ReplayPhase::Vetoed => None,
            _ => self.replay.marker.map(|(m, _)| {
                let st = &self.streams[m];
                let popped = st.pushed - st.total_len() as u64;
                (m, self.replay.next_target.saturating_sub(popped))
            }),
        };
        let view = View {
            nodes: &self.nodes,
            streams: &self.streams,
            writers: &self.writers,
            readers: &self.readers,
            parked: &self.parked,
            awake: &self.awake,
        };
        let planned = match self.planner.plan(&view, budget, min_burst, marker) {
            Ok(planned) => planned,
            Err(refused) => {
                self.burst_diag.refuse(refused.reason);
                self.pending_refusal = Some((refused.reason, self.now));
                return Err(refused.retry);
            }
        };
        let k = planned.k;
        let sink_progress = dispatch(
            &mut self.nodes,
            &mut self.streams,
            &mut self.parked,
            &mut self.awake,
            &self.planner.parts,
            &self.planner.quotas,
            &self.planner.streams,
            self.now,
            k,
        );
        self.now += k;
        self.sink_progress = sink_progress;
        self.bursts += 1;
        self.burst_cycles += k;
        self.burst_diag.accept(planned.end);
        Ok(k)
    }

    /// Execute the replay-tape step under the cursor (see
    /// [`crate::replay`]). Span steps re-check their guards — the live
    /// awake mask and every recorded stream's queue length must equal the
    /// recorded pre-dispatch state — and then re-dispatch the recorded
    /// records through [`dispatch`], the same code path a planned burst
    /// takes. Any guard failure re-arms replay and reports
    /// [`ReplayOutcome::Fallback`]; the caller steps the cycle normally.
    fn try_replay_step(&mut self, budget: u64) -> ReplayOutcome {
        let ReplayPhase::Replaying { step, done } = self.replay.phase else {
            return ReplayOutcome::Fallback;
        };
        let Some(&tape_step) = self.replay.tape.steps.get(step) else {
            // Cursor ran past the tape without a period boundary: the run
            // diverged from the recorded schedule.
            return self.replay_guard_fallback();
        };
        match tape_step {
            Step::Dense(n) => {
                let done = done + 1;
                self.replay.phase = if done >= n {
                    ReplayPhase::Replaying {
                        step: step + 1,
                        done: 0,
                    }
                } else {
                    ReplayPhase::Replaying { step, done }
                };
                ReplayOutcome::Dense
            }
            Step::Span(ix) => {
                let t_now = self.now;
                let Self {
                    nodes,
                    streams: live_streams,
                    parked,
                    awake,
                    replay,
                    ..
                } = self;
                let tape = &replay.tape;
                let rec = tape.span_recs[ix as usize];
                // A replayed span must not overrun the run's cycle budget —
                // dense stepping would time out mid-span, and the timeout
                // arithmetic must match it exactly.
                if rec.k > budget
                    || tape.mask(&rec) != &awake[..]
                    || tape
                        .streams(&rec)
                        .iter()
                        .any(|bs| live_streams[bs.stream].queue.len() != bs.start_len)
                {
                    return self.replay_guard_fallback();
                }
                // Guards passed: re-dispatch the recorded pool windows
                // directly — no per-step gathering, and consecutive steps
                // read consecutive pool ranges. The plan set was admitted
                // by the planner against this exact scheduler-visible state
                // (same awake set, same queue lengths, same kernel control
                // state per the boundary fingerprint), so the dispatch is
                // the same fast-forward of dense cycles it was originally.
                let k = rec.k;
                let sink_progress = dispatch(
                    nodes,
                    live_streams,
                    parked,
                    awake,
                    tape.parts(&rec),
                    &tape.quota_pool,
                    tape.streams(&rec),
                    t_now,
                    k,
                );
                self.now += k;
                self.sink_progress = sink_progress;
                self.bursts += 1;
                self.burst_cycles += k;
                self.replay.diag.spans_bypassed += 1;
                self.replay.phase = ReplayPhase::Replaying {
                    step: step + 1,
                    done: 0,
                };
                ReplayOutcome::Span(k)
            }
        }
    }

    /// A replay guard failed: count it and re-arm (normal stepping resumes
    /// and steady state is re-detected from scratch).
    fn replay_guard_fallback(&mut self) -> ReplayOutcome {
        self.replay.diag.guard_fallbacks += 1;
        self.replay.rearm();
        ReplayOutcome::Fallback
    }

    /// Check for a period boundary on the marker stream and drive the
    /// replay state machine (see [`crate::replay`]'s protocol docs). Called
    /// after every clock advance of a replay-eligible run; cheap until the
    /// marker's popped count crosses the next period multiple.
    fn replay_boundary(&mut self) {
        if matches!(self.replay.phase, ReplayPhase::Vetoed) {
            return;
        }
        let Some((m, period)) = self.replay.marker else {
            return;
        };
        let st = &self.streams[m];
        let popped = st.pushed - st.total_len() as u64;
        if popped < self.replay.next_target {
            return;
        }
        // One state-machine event per detection even if a span crossed
        // several period multiples at once (the tape period then covers
        // several images — still a valid periodic unit).
        while self.replay.next_target <= popped {
            self.replay.next_target += period;
        }
        if !self.compute_fingerprint() {
            // A kernel without a replay token: permanently off.
            self.replay.rearm();
            self.replay.phase = ReplayPhase::Vetoed;
            return;
        }
        let fp_matches = self.replay.fp_scratch == self.replay.prev_fp;
        match self.replay.phase {
            ReplayPhase::Vetoed => {}
            ReplayPhase::Armed { have_prev } => {
                if have_prev && fp_matches {
                    // Steady state: the machine state at this boundary
                    // recurs. Record the next period's schedule.
                    self.replay.tape.clear();
                    self.replay.pending_dense = 0;
                    self.replay.phase = ReplayPhase::Recording;
                } else {
                    std::mem::swap(&mut self.replay.prev_fp, &mut self.replay.fp_scratch);
                    self.replay.phase = ReplayPhase::Armed { have_prev: true };
                }
            }
            ReplayPhase::Recording => {
                self.replay.flush_dense();
                if fp_matches && !self.replay.tape.steps.is_empty() {
                    // The recorded period closed on the same fingerprint:
                    // the tape is a valid periodic unit. Replay it.
                    self.replay.diag.tape_len = self.replay.tape.steps.len() as u64;
                    self.replay.phase = ReplayPhase::Replaying { step: 0, done: 0 };
                } else {
                    // Diverged mid-recording (e.g. ramp not actually
                    // settled): drop the tape, keep watching.
                    self.replay.tape.clear();
                    std::mem::swap(&mut self.replay.prev_fp, &mut self.replay.fp_scratch);
                    self.replay.phase = ReplayPhase::Armed { have_prev: true };
                }
            }
            ReplayPhase::Replaying { step, done } => {
                // Every replayed period re-checks the fingerprint — this is
                // the macro guard that catches the non-periodic tail (the
                // source entering its final-period drain fingerprints
                // differently by construction, see `host::drain_token`).
                let at_end = step == self.replay.tape.steps.len() && done == 0;
                if at_end && fp_matches {
                    self.replay.diag.images_replayed += 1;
                    self.replay.phase = ReplayPhase::Replaying { step: 0, done: 0 };
                } else {
                    self.replay.diag.guard_fallbacks += 1;
                    self.replay.rearm();
                }
            }
        }
    }

    /// Fill `replay.fp_scratch` with the boundary fingerprint: every
    /// kernel's replay token and park verdict, then every stream's
    /// committed queue length. Park *instants* are excluded — the
    /// fingerprint must be invariant under time shift, that is the whole
    /// point. Returns `false` when a kernel has no token (replay must be
    /// vetoed: its control state cannot be attested).
    fn compute_fingerprint(&mut self) -> bool {
        let Self {
            nodes,
            streams,
            parked,
            replay,
            ..
        } = self;
        let fp = &mut replay.fp_scratch;
        fp.clear();
        for (i, n) in nodes.iter().enumerate() {
            let Some(token) = n.kernel.replay_token() else {
                return false;
            };
            fp.push(token);
            fp.push(match parked[i] {
                None => 0,
                Some((Progress::Busy, _)) => 1,
                Some((Progress::Stalled, _)) => 2,
                Some((Progress::Idle, _)) => 3,
            });
        }
        for s in streams.iter() {
            fp.push(s.queue.len() as u64);
        }
        true
    }

    /// Outstanding lazy stall credit for node `i`: cycles skipped while
    /// parked `Stalled` that no wake has settled yet (report-time view).
    fn pending_stall_credit(&self, i: usize) -> u64 {
        match self.parked[i] {
            Some((Progress::Stalled, since)) => self.now - 1 - since,
            _ => 0,
        }
    }

    fn report(&self, cycles: u64) -> CycleReport {
        CycleReport {
            cycles,
            replay: self.replay.diag,
            kernels: self
                .nodes
                .iter()
                .enumerate()
                .map(|(i, n)| KernelStats {
                    name: n.kernel.name().to_string(),
                    busy: n.busy,
                    stalled: n.stalled + self.pending_stall_credit(i),
                })
                .collect(),
            streams: self
                .streams
                .iter()
                .map(|s| StreamStats {
                    name: s.spec.name.clone(),
                    pushed: s.pushed,
                    max_occupancy: s.max_occupancy,
                    capacity: s.spec.capacity,
                })
                .collect(),
        }
    }

    /// Ready-list park state for kernel `id`: the last non-`Busy` verdict
    /// while parked, `None` while schedulable. Exposed for tests.
    pub fn parked_state(&self, id: KernelId) -> Option<Progress> {
        self.parked[id.0].map(|(p, _)| p)
    }

    fn dump_streams(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, s) in self.streams.iter().enumerate() {
            let _ = writeln!(
                out,
                "  stream {:3} '{}': {}/{} occupied, writer={:?} reader={:?}",
                i,
                s.spec.name,
                s.queue.len(),
                s.spec.capacity,
                self.writers[i].map(|e| self.nodes[e.node].kernel.name()),
                self.readers[i].map(|e| self.nodes[e.node].kernel.name()),
            );
        }
        out
    }
}

/// Debug-mode `Progress` contract check, applied by both steppers after
/// every tick:
///
/// * `Idle` must not have touched any port — an idle kernel that read or
///   wrote did observable work and must report `Busy` (this is also what
///   makes `Idle` parking sound).
/// * A [`WakeHint::Parkable`] kernel returning `Stalled` must not have
///   touched any port either: the ready-list scheduler replays the stall
///   verdict without re-running the tick, which is only valid if the
///   stalled tick was port-inert.
///
/// Compiled out in release builds (`cargo test` runs debug, so the tier-1
/// suite exercises it on every kernel in the workspace).
fn check_progress_contract(node: &Node, prog: Progress) {
    if cfg!(debug_assertions) && prog != Progress::Busy {
        let touched =
            node.read_used.iter().any(|&n| n > 0) || node.write_used.iter().any(|&n| n > 0);
        match prog {
            Progress::Idle => assert!(
                !touched,
                "kernel '{}' returned Idle after touching a port (Progress contract)",
                node.kernel.name()
            ),
            Progress::Stalled if node.kernel.wake_hint() == WakeHint::Parkable => assert!(
                !touched,
                "parkable kernel '{}' returned Stalled after touching a port \
                 (WakeHint::Parkable fixed-point contract)",
                node.kernel.name()
            ),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{HostSink, HostSource};
    use crate::kernel::Progress;

    /// A pass-through kernel that adds a constant, one element per cycle.
    struct AddConst {
        c: i32,
    }
    impl Kernel for AddConst {
        fn name(&self) -> &str {
            "add-const"
        }
        fn tick(&mut self, io: &mut Io<'_>) -> Progress {
            if io.can_read(0) && io.can_write(0) {
                let v = io.read(0).expect("checked");
                io.write(0, v + self.c);
                Progress::Busy
            } else if io.can_read(0) || io.num_inputs() == 0 {
                Progress::Stalled
            } else {
                Progress::Idle
            }
        }
        fn rearm(&mut self) {}
    }

    fn pipeline(data: Vec<i32>, stages: usize) -> (Graph, crate::host::SinkHandle) {
        let n = data.len();
        let mut g = Graph::new();
        let mut prev = g.add_stream(StreamSpec::new("s0", 8, 4));
        g.add_kernel(Box::new(HostSource::new("src", data)), &[], &[prev]);
        for i in 0..stages {
            let next = g.add_stream(StreamSpec::new(format!("s{}", i + 1), 8, 4));
            g.add_kernel(Box::new(AddConst { c: 1 }), &[prev], &[next]);
            prev = next;
        }
        let (sink, handle) = HostSink::new("dst", n);
        g.add_kernel(Box::new(sink), &[prev], &[]);
        (g, handle)
    }

    #[test]
    fn pipeline_computes_and_counts_cycles() {
        let (mut g, handle) = pipeline(vec![10, 20, 30], 2);
        let report = g.run(1000).expect("run ok");
        assert_eq!(handle.take(), vec![12, 22, 32]);
        // 3 elements through a 4-stage pipeline (src + 2 adders + sink):
        // latency ≈ depth + n; must be far below the serial bound yet > n.
        assert!(
            report.cycles >= 5 && report.cycles <= 20,
            "cycles = {}",
            report.cycles
        );
    }

    #[test]
    fn registered_outputs_cost_one_cycle_per_stage() {
        // A single element through k stages must take ≥ k+1 cycles.
        let (mut g, _h) = pipeline(vec![1], 5);
        let report = g.run(100).expect("run ok");
        assert!(
            report.cycles >= 6,
            "combinational ripple detected: {}",
            report.cycles
        );
    }

    #[test]
    fn throughput_is_one_element_per_cycle() {
        let n = 100;
        let (mut g, handle) = pipeline((0..n).collect(), 1);
        let report = g.run(10_000).expect("run ok");
        assert_eq!(handle.take().len(), n as usize);
        // Fully pipelined: cycles ≈ n + small latency.
        assert!(report.cycles < n as u64 + 10, "cycles = {}", report.cycles);
    }

    #[test]
    fn unconnected_stream_is_invalid() {
        let mut g = Graph::new();
        let s = g.add_stream(StreamSpec::new("dangling", 2, 4));
        g.add_kernel(Box::new(HostSource::new("src", vec![1])), &[], &[s]);
        match g.run(10) {
            Err(RunError::Invalid(msg)) => assert!(msg.contains("no reader")),
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn starved_sink_deadlocks_with_diagnostics() {
        // Sink expects 2 elements but the source provides 1.
        let mut g = Graph::new();
        let s = g.add_stream(StreamSpec::new("s", 8, 4));
        g.add_kernel(Box::new(HostSource::new("src", vec![7])), &[], &[s]);
        let (sink, _h) = HostSink::new("dst", 2);
        g.add_kernel(Box::new(sink), &[s], &[]);
        match g.run(1000) {
            Err(RunError::Deadlock { diagnostics, .. }) => {
                assert!(diagnostics.contains("'s'"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn timeout_is_reported() {
        let (mut g, _h) = pipeline(vec![1, 2, 3], 2);
        match g.run(2) {
            Err(RunError::Timeout { max_cycles: 2 }) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn stats_account_busy_and_stalls() {
        let (mut g, _h) = pipeline((0..10).collect(), 1);
        let report = g.run(1000).expect("run ok");
        let adder = &report.kernels[1];
        assert_eq!(adder.name, "add-const");
        assert_eq!(adder.busy, 10, "one busy cycle per element");
        let src_stream = &report.streams[0];
        assert_eq!(src_stream.pushed, 10);
        assert!(src_stream.max_occupancy <= src_stream.capacity);
    }

    #[test]
    fn ready_list_matches_dense_on_pipeline() {
        let run_mode = |mode| {
            let (mut g, handle) = pipeline((0..25).collect(), 3);
            g.set_scheduler(mode);
            let report = g.run(10_000).expect("run ok");
            (handle.take(), report)
        };
        assert_eq!(
            run_mode(SchedulerMode::Dense),
            run_mode(SchedulerMode::ReadyList)
        );
    }

    /// A sink that ignores its input for `wait` cycles, then drains one
    /// element per cycle. The idle-wait is a timer (internal state advances
    /// with no port activity), so it correctly keeps the default
    /// `WakeHint::AlwaysTick` — parking it would sleep forever.
    struct LazySink {
        wait: u64,
        expect: usize,
        got: usize,
    }
    impl Kernel for LazySink {
        fn name(&self) -> &str {
            "lazy-dst"
        }
        fn tick(&mut self, io: &mut Io<'_>) -> Progress {
            if self.wait > 0 {
                self.wait -= 1;
                return Progress::Idle;
            }
            if self.got >= self.expect {
                return Progress::Idle;
            }
            match io.read(0) {
                Some(_) => {
                    self.got += 1;
                    Progress::Busy
                }
                None => Progress::Stalled,
            }
        }
        fn is_done(&self) -> bool {
            self.got >= self.expect
        }
        fn rearm(&mut self) {
            unreachable!("built per run")
        }
    }

    /// Regression for `max_occupancy` accounting (sampled after commit):
    /// a two-kernel graph whose FIFO fills to capacity while the sink is
    /// lazy must pin identical occupancy stats in both scheduler modes.
    #[test]
    fn full_fifo_occupancy_stats_pinned_in_both_modes() {
        let run_mode = |mode| {
            let mut g = Graph::with_scheduler(mode);
            let s = g.add_stream(StreamSpec::new("s", 8, 2));
            g.add_kernel(
                Box::new(HostSource::new("src", (1..=6).collect())),
                &[],
                &[s],
            );
            g.add_kernel(
                Box::new(LazySink {
                    wait: 5,
                    expect: 6,
                    got: 0,
                }),
                &[s],
                &[],
            );
            // The lazy phase has legitimate full no-progress cycles, so
            // deadlock detection is off (identically in both modes).
            g.run_opts(1000, false).expect("run ok")
        };
        let dense = run_mode(SchedulerMode::Dense);
        let ready = run_mode(SchedulerMode::ReadyList);
        assert_eq!(dense, ready, "reports must be bit-identical");
        let s = &dense.streams[0];
        assert_eq!(
            s.max_occupancy, 2,
            "FIFO must fill to capacity during the lazy phase"
        );
        assert_eq!(s.pushed, 6, "every element crosses the stream exactly once");
        assert!(
            dense.kernels[0].stalled > 0,
            "source must stall on the full FIFO"
        );
    }

    /// Parking must actually happen (otherwise the ready-list mode is a
    /// silent no-op and its benchmark claims are vacuous).
    #[test]
    fn exhausted_source_parks_idle_under_ready_list() {
        let (mut g, _h) = pipeline(vec![1, 2, 3], 2);
        g.set_scheduler(SchedulerMode::ReadyList);
        g.run(1000).expect("run ok");
        assert_eq!(
            g.parked_state(KernelId(0)),
            Some(Progress::Idle),
            "drained source should end the run parked"
        );
    }

    /// Switching modes clears park state so no kernel sleeps through the
    /// next cycle.
    #[test]
    fn set_scheduler_unparks_everything() {
        let (mut g, _h) = pipeline(vec![1], 1);
        g.set_scheduler(SchedulerMode::ReadyList);
        g.run(1000).expect("run ok");
        assert!(g.parked_state(KernelId(0)).is_some());
        g.set_scheduler(SchedulerMode::Dense);
        assert_eq!(g.parked_state(KernelId(0)), None);
    }
}
