//! The kernel graph and the deterministic cycle scheduler: the stepper and
//! its one run loop. Each iteration picks one advance — a replayed span
//! (the protocol is [`crate::replay`]'s), a planned burst (the
//! `burst` module) or one per-element cycle — and runs it through one
//! tail.
//!
//! One stepper, whose oracle is the same stepper over
//! [`DenseOracle`](crate::DenseOracle)-wrapped kernels: identical outputs
//! and [`CycleReport`]s, which `tests/macro_tick_equivalence.rs` asserts
//! over randomized networks.

use crate::burst::{dispatch, Planner, View};
use crate::diag::{BurstDiag, HostProfile, Refusal};
use crate::kernel::{Io, Kernel, Progress, WakeHint};
use crate::replay::{Cue, ReplayDiag, ReplayState};
use crate::stream::{StreamSpec, StreamState};
use crate::trace::Trace;
use std::fmt;
use std::time::Instant;

mod report;

pub use report::{CycleReport, KernelStats, StreamStats};

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
    /// Host time of the node's dispatched spans (see
    /// [`Graph::kernel_host_ns`]).
    pub host_ns: u64,
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

/// A dataflow graph: kernels connected by bounded streams.
///
/// Build with [`Graph::add_stream`] / [`Graph::add_kernel`], then execute
/// with [`Graph::run`]. Every stream must end up with exactly one writer
/// and one reader (sources/sinks are kernels too).
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    streams: Vec<StreamState>,
    writers: Vec<Option<End>>,
    readers: Vec<Option<End>>,
    /// Ready-list state: `Some((p, c))` means node `i` parked at cycle `c`
    /// with verdict `p`; `None` means it will be ticked next cycle. Stall
    /// credit for the skipped cycles is settled lazily at wake time (see
    /// [`Graph::step_cycle`]), so parked nodes cost nothing per cycle.
    parked: Vec<Option<(Progress, u64)>>,
    /// Awake set as a bitmask (bit `i` set ⇔ `parked[i]` is `None`), so the
    /// ready-list tick loop skips parked stretches 64 nodes per word load
    /// instead of probing every node's park slot each cycle.
    awake: Vec<u64>,
    /// Scratch: streams written during the current cycle (the only ones
    /// committed).
    dirty: Vec<usize>,
    /// Cycle ordinal for lazy stall crediting (credits are differences, so
    /// the base is free).
    now: u64,
    /// Whether the last `step_cycle` saw a sink kernel report `Busy` —
    /// the only event that can flip [`Graph::complete`], so run loops
    /// re-check completion (an `is_done` call per sink, one of which takes
    /// a mutex) only when this is set.
    sink_progress: bool,
    /// Number of spans dispatched, planned or replayed — diagnostics
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
    /// Where the runs' host time went (see [`HostProfile`]) — diagnostics
    /// only, like `bursts`.
    profile: HostProfile,
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
    /// Cooldown the *next* failure will impose (doubles up to the cap; 0
    /// counts as 1).
    burst_backoff: u64,
    /// The burst planner and its scratch (see [`crate::burst`]).
    planner: Planner,
    /// Steady-state schedule replay (see [`crate::replay`]). Inert until
    /// armed with a marker via [`Graph::set_replay_marker`].
    replay: ReplayState,
}

/// A kernel's declared stream interface, which must move at least one
/// element per port per tick.
fn lanes_of(kernel: &dyn Kernel) -> (u16, u16) {
    let (read_lanes, write_lanes) = kernel.lanes();
    assert!(
        read_lanes >= 1 && write_lanes >= 1,
        "kernel '{}' declared a zero-lane stream interface",
        kernel.name()
    );
    (read_lanes, write_lanes)
}

impl Graph {
    /// Longest stretch of per-element cycles a failed burst attempt can
    /// suppress retries for (see [`Graph::span`]'s backoff). Low
    /// enough that a regime change re-engages spans within a typical row
    /// transition, high enough that a trickle equilibrium pays one
    /// planning scan per cap instead of one per cycle.
    const BURST_BACKOFF_CAP: u64 = 64;

    /// Smallest span worth dispatching as a burst. Planning an attempt costs
    /// 17–35 µs on ResNet-18 whatever it finds, against 0.6–1.6 µs for one
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

    /// Shortest span whose participants are timed one by one
    /// ([`Graph::kernel_host_ns`]). A clock read costs about 23 ns, and a
    /// participant of a small network's span works about 1 ns per cycle,
    /// so below this length the reads would cost over a percent of what
    /// they time: timed on every span, a warm replayed batch of the served
    /// `test_net`/`tiny_transformer` models ran 6–13 % slower. ResNet-18's
    /// and VGG's spans run thousands of cycles and are all timed.
    pub const KERNEL_TIMED_SPAN: u64 = 2048;

    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm schedule replay: watch `marker` (conventionally the logits
    /// stream) and treat every `period` elements popped from it as one
    /// image boundary, where steady state is fingerprinted (see
    /// [`crate::replay`]). Resets any previous tape, whole-batch tapes
    /// included.
    pub fn set_replay_marker(&mut self, marker: StreamId, period: u64) {
        assert!(period > 0, "replay period must be positive");
        self.replay.arm(&self.streams, marker.0, period);
    }

    /// Move `from`'s whole-batch tapes (see [`crate::replay`]) to this
    /// graph, which then counts as warm: its next re-armed run replays a
    /// tape recorded on `from`. Meant for a graph lowered from the same
    /// spec and options — a weight publish, whose schedule is the old
    /// one's — and a no-op unless both have the same kernels and streams.
    pub fn adopt_tapes(&mut self, from: &mut Graph) {
        let same = self.nodes.len() == from.nodes.len()
            && self.streams.len() == from.streams.len()
            && self.nodes.iter().zip(&from.nodes).all(|(a, b)| {
                a.kernel.name() == b.kernel.name() && a.inputs == b.inputs && a.outputs == b.outputs
            })
            && self.streams.iter().zip(&from.streams).all(|(a, b)| a.spec == b.spec);
        if same {
            self.replay.adopt(&mut from.replay);
        }
    }

    /// Schedule-replay diagnostics so far (also surfaced on
    /// [`CycleReport::replay`]).
    pub fn replay_diag(&self) -> ReplayDiag {
        self.replay.diag()
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

    /// Where the host time of the runs since the last re-arm went, and the
    /// planner's attempts (diagnostics only, outside [`CycleReport`]
    /// equality; see [`HostProfile`]).
    pub fn host_profile(&self) -> HostProfile {
        self.profile
    }

    /// Host time per kernel of the spans of at least
    /// [`Graph::KERNEL_TIMED_SPAN`] cycles dispatched since the last
    /// re-arm, replayed ones included: `(kernel name, ns)` in node order.
    /// The dispatch of such a span reads the clock once per participant,
    /// so each node's time is its [`Kernel::run_span`] body and its share
    /// of the dispatch's bookkeeping, and the sum stays within
    /// [`HostProfile::dispatch_ns`] + [`HostProfile::replay_ns`]. Shorter
    /// spans and per-element cycles are not broken down. Diagnostics like
    /// [`Graph::host_profile`]: outside [`CycleReport`] equality.
    pub fn kernel_host_ns(&self) -> Vec<(&str, u64)> {
        self.nodes.iter().map(|n| (n.kernel.name(), n.host_ns)).collect()
    }

    /// Return the graph to the state it was in when its last kernel was
    /// added, so [`Graph::run`] can execute it again on new host data —
    /// after a completed run or after one that returned a [`RunError`]: the
    /// clock, every kernel's counters and control state
    /// ([`Kernel::rearm`]), every stream's contents and statistics, the
    /// park and awake sets, the burst counters and back-off, and the
    /// period-replay tape with its diagnostics. Structure (kernels,
    /// streams, wiring), configuration (the replay marker), the
    /// kernels' weights and the whole-batch tapes are kept.
    ///
    /// `batch` keys the next run's whole-batch tape (see
    /// [`crate::replay`]): on a graph that has run, the first run under a
    /// key records its schedule from cycle 0 and later runs under the key
    /// replay it. Runs under one key must present the same schedule — the
    /// same source element count and sink count; `CompiledNetwork::load`
    /// passes the image count.
    ///
    /// The reset is explicit, not inferred from where the last run
    /// stopped: a run ends at the sink's last element, which leaves
    /// upstream kernels mid-image (see [`Kernel::rearm`]), nodes parked
    /// mid-verdict and FIFOs holding elements nobody will read. A re-armed
    /// graph runs a batch exactly as a freshly built one does — same
    /// outputs, same [`CycleReport`] (`tests/pipeline_rearm.rs`). The
    /// dispatch diagnostics ([`Graph::bursts`], [`CycleReport::replay`])
    /// match too, except on a run that records or replays a whole-batch
    /// tape, which [`ReplayDiag::whole_batch`] names.
    pub fn rearm(&mut self, batch: u64) {
        for node in &mut self.nodes {
            node.kernel.rearm();
            node.busy = 0;
            node.stalled = 0;
            node.host_ns = 0;
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
        self.profile = HostProfile::default();
        self.pending_refusal = None;
        self.burst_cooldown = 0;
        self.burst_backoff = 0;
        let attested = self.nodes.iter().all(|n| n.kernel.replay_token().is_some());
        self.replay.rearm(attested.then_some(batch));
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
        let (read_lanes, write_lanes) = lanes_of(kernel.as_ref());
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
            host_ns: 0,
        });
        self.parked.push(None);
        if id % 64 == 0 {
            self.awake.push(0);
        }
        self.awake[id / 64] |= 1 << (id % 64);
        KernelId(id)
    }

    /// Replace every kernel `k` with `wrap(seq, k)`, `seq` its node index,
    /// keeping its wiring and re-reading its stream interface
    /// ([`Kernel::lanes`]). This is how a test laces a built graph with an
    /// instrument such as a [`StallInjector`](crate::StallInjector) or a
    /// [`DenseOracle`](crate::DenseOracle); call it before the graph first
    /// runs.
    pub fn map_kernels(&mut self, mut wrap: impl FnMut(u64, Box<dyn Kernel>) -> Box<dyn Kernel>) {
        self.nodes = std::mem::take(&mut self.nodes)
            .into_iter()
            .enumerate()
            .map(|(seq, mut node)| {
                node.kernel = wrap(seq as u64, node.kernel);
                (node.read_lanes, node.write_lanes) = lanes_of(node.kernel.as_ref());
                node
            })
            .collect();
    }

    /// Number of kernels.
    pub fn num_kernels(&self) -> usize {
        self.nodes.len()
    }

    /// Number of streams.
    pub fn num_streams(&self) -> usize {
        self.streams.len()
    }

    /// Every stream's name, in stream order.
    pub fn stream_names(&self) -> impl Iterator<Item = &str> {
        self.streams.iter().map(|s| s.spec.name.as_str())
    }

    /// Every kernel's id, in node order.
    pub fn kernel_ids(&self) -> impl Iterator<Item = KernelId> {
        (0..self.nodes.len()).map(KernelId)
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
    /// `max_cycles` budget instead. A compiled network runs with detection
    /// on unless a test laced its kernels through the post-elaboration
    /// hook `CompiledNetwork::wrap_kernels`, the one place that turns it
    /// off.
    pub fn run_opts(
        &mut self,
        max_cycles: u64,
        detect_deadlock: bool,
    ) -> Result<CycleReport, RunError> {
        self.run_inner(max_cycles, detect_deadlock, 0).map(|(r, _)| r)
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
            let kernels = self.nodes.iter().map(|n| n.kernel.name().to_string()).collect();
            Trace::new(sample_every, self.stream_names().map(String::from).collect(), kernels)
        });
        let mut busy_at_last_sample: Vec<u64> = self.nodes.iter().map(|n| n.busy).collect();
        let mut cycle: u64 = 0;
        // Traced runs sample per-cycle state and so step per-element, and
        // schedule replay (see [`crate::replay`]) rides the self-stepped
        // path of an armed graph.
        let burst_ok = trace.is_none();
        let replay_ok = self.replay.begin_run(burst_ok);
        let mut done = self.complete();
        let mut clock = Instant::now();
        while !done {
            if cycle >= max_cycles {
                return Err(RunError::Timeout { max_cycles });
            }
            let k = match self.span(max_cycles - cycle, burst_ok, replay_ok, &mut clock) {
                Some(k) => k,
                None => {
                    let (any_progress, committed) = self.step_cycle();
                    self.profile.step_ns += lap(&mut clock);
                    if !any_progress && !committed && detect_deadlock {
                        return Err(RunError::Deadlock { cycle, diagnostics: self.dump_streams() });
                    }
                    1
                }
            };
            // One tail for every advance: the clock, the replay boundary,
            // the trace sample (a traced run advances one cycle at a time),
            // completion. `complete()` is re-evaluated only after an
            // advance in which a sink ticked `Busy` — the sole event that
            // can flip it (see [`Kernel::is_done`]); checking it every cycle
            // would cost an O(kernels) scan plus a sink mutex lock per
            // simulated cycle.
            cycle += k;
            if replay_ok {
                self.replay.boundary(&self.nodes, &self.streams, &self.parked);
            }
            if let Some(t) = &mut trace {
                if cycle % sample_every == 0 {
                    t.sample(&self.streams, &self.nodes, &mut busy_at_last_sample);
                }
            }
            done = self.sink_progress && self.complete();
        }
        self.replay.end_run(&self.streams);
        Ok((self.report(cycle), trace))
    }

    /// Advance by a span if this iteration has one: the replay tape's next
    /// span, or a burst the planner admits — planned with the recording
    /// policy and handed to the tape while one records. Returns the cycles
    /// advanced, or `None` for one per-element cycle. Laps `clock` after a
    /// planning attempt and after a dispatch.
    fn span(
        &mut self,
        budget: u64,
        burst_ok: bool,
        replay_ok: bool,
        clock: &mut Instant,
    ) -> Option<u64> {
        let cue = if replay_ok {
            self.replay.cue(budget, &self.awake, &self.streams)
        } else if burst_ok {
            Cue::Plan { record: false }
        } else {
            return None;
        };
        let replayed = matches!(cue, Cue::Replay(_));
        let span = match cue {
            Cue::Replay(span) => span,
            Cue::Dense => return None,
            // While a tape records: no cooldown and the lower span floor,
            // whose planning is paid once and replayed for free.
            Cue::Plan { record: true } => match self.plan(budget, Self::REPLAY_MIN_BURST, clock) {
                Ok(k) => {
                    self.replay.record_span(self.planner.span(k), &self.awake);
                    self.planner.span(k)
                }
                Err(_) => {
                    self.replay.record_dense();
                    return None;
                }
            },
            Cue::Plan { record: false } if self.burst_cooldown > 0 => {
                self.burst_cooldown -= 1;
                return None;
            }
            Cue::Plan { record: false } => match self.plan(budget, Self::MIN_BURST, clock) {
                Ok(k) => {
                    self.burst_backoff = 0;
                    self.planner.span(k)
                }
                // A refusal that names the cycle its binding bound passes
                // steps through to it and retries there, without
                // escalating the blind backoff.
                Err(hint) if hint > 0 => {
                    self.burst_cooldown = hint;
                    return None;
                }
                Err(_) => {
                    self.burst_cooldown = self.burst_backoff.max(1);
                    self.burst_backoff = (self.burst_cooldown * 2).min(Self::BURST_BACKOFF_CAP);
                    return None;
                }
            },
        };
        let (nodes, streams, now) = (&mut self.nodes, &mut self.streams, self.now);
        let at = (span.k >= Self::KERNEL_TIMED_SPAN).then(Instant::now);
        self.sink_progress =
            dispatch(nodes, streams, &mut self.parked, &mut self.awake, span, now, at);
        let ns = lap(clock);
        if replayed {
            self.profile.replay_ns += ns;
        } else {
            self.profile.dispatch_ns += ns;
        }
        self.now += span.k;
        self.bursts += 1;
        self.burst_cycles += span.k;
        Some(span.k)
    }

    /// Advance the graph by one cycle: skip parked kernels, tick the rest in
    /// node order, commit only the streams written this cycle.
    ///
    /// Returns `(any_progress, committed)`: whether any kernel reported
    /// [`Progress::Busy`] and whether any stream element moved from staging
    /// into its FIFO.
    ///
    /// Equivalence to dense stepping (every kernel ticked every cycle, as
    /// under a [`DenseOracle`](crate::DenseOracle)) hinges on two points:
    ///
    /// * **Parking is a replay, not an omission.** A kernel parks only if
    ///   its `wake_hint` is [`WakeHint::Parkable`], whose contract makes a
    ///   non-`Busy` tick a fixed point: dense stepping would re-run the
    ///   identical tick every cycle until a stream event, getting the same
    ///   verdict and mutating nothing. So a parked `Stalled` node is
    ///   credited one stall per skipped cycle and a parked `Idle` node
    ///   credits nothing — exactly the counters dense would produce. The
    ///   credit is settled *lazily*: the park records the cycle ordinal and
    ///   the wake (or the [`CycleReport`], for nodes still parked then) adds
    ///   the whole span at once, so skipped cycles cost nothing — not even
    ///   a counter increment.
    /// * **Wakes happen at the dense-visible instant.** A reader's pop
    ///   mutates the queue immediately, so the stream's writer is woken
    ///   during the tick phase: a writer *after* the reader in node order
    ///   is ticked the same cycle (dense would see the freed slot this
    ///   cycle), one *before* was already credited and ticks next cycle
    ///   (dense saw the still-full stream this cycle). Staged writes only
    ///   become readable at commit, so readers are woken in the commit
    ///   phase and tick next cycle — the registered-output latency dense
    ///   exhibits.
    fn step_cycle(&mut self) -> (bool, bool) {
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

    /// Macro-tick span planning: solve a burst of `k ≥ min_burst` cycles
    /// from the [`SpanPlan`](crate::SpanPlan) chains of every kernel it
    /// touches, to exactly the cycles per-element stepping would run (see
    /// [`crate::burst`] for the planner and the equivalence argument).
    /// Returns `Ok(k)`, leaving the burst in the planner for [`dispatch`]
    /// ([`Planner::span`]), or `Err(hint)` when this cycle must be stepped
    /// per-element: `hint > 0` is the number of dense cycles after which
    /// the bound that cut the attempt short has passed, `0` means no such
    /// bound is known (the caller backs off). Every refusal is counted by
    /// reason in [`Graph::burst_diag`].
    fn plan(&mut self, budget: u64, min_burst: u64, clock: &mut Instant) -> Result<u64, u64> {
        if budget < min_burst.max(2) {
            // Too close to the cycle budget for any burst worth taking.
            return Err(budget);
        }
        // Credit the per-element cycles since the last refusal to it.
        if let Some((reason, at)) = self.pending_refusal.take() {
            self.burst_diag.add_dense(reason, self.now - at);
        }
        let marker = self.replay.due(&self.streams);
        let view = View {
            nodes: &self.nodes,
            streams: &self.streams,
            writers: &self.writers,
            readers: &self.readers,
            parked: &self.parked,
            awake: &self.awake,
        };
        let planned = self.planner.plan(&view, budget, min_burst, marker);
        self.profile.plan_ns += lap(clock);
        self.profile.attempts += 1;
        let (evals, follows) = self.planner.steps();
        self.burst_diag.evals += evals;
        self.burst_diag.follows += follows;
        match planned {
            Ok(planned) => {
                self.burst_diag.accept(planned.end);
                Ok(planned.k)
            }
            Err(refused) => {
                self.burst_diag.refuse(refused.reason);
                self.pending_refusal = Some((refused.reason, self.now));
                Err(refused.retry)
            }
        }
    }

    /// Ready-list park state for kernel `id`: the last non-`Busy` verdict
    /// while parked, `None` while schedulable. Exposed for tests.
    pub fn parked_state(&self, id: KernelId) -> Option<Progress> {
        self.parked[id.0].map(|(p, _)| p)
    }
}

/// Nanoseconds since `clock`, which moves on to now.
pub(crate) fn lap(clock: &mut Instant) -> u64 {
    let now = Instant::now();
    let ns = now.duration_since(*clock).as_nanos() as u64;
    *clock = now;
    ns
}

/// Debug-mode `Progress` contract check, applied after every tick:
///
/// * `Idle` must not have touched any port — an idle kernel that read or
///   wrote did observable work and must report `Busy` (this is also what
///   makes `Idle` parking sound).
/// * A [`WakeHint::Parkable`] kernel returning `Stalled` must not have
///   touched any port either: the stepper replays the stall verdict
///   without re-running the tick, which is only valid if the stalled tick
///   was port-inert.
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
mod burst_table;

#[cfg(test)]
mod tests;
