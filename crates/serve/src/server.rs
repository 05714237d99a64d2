//! The serving runtime: bounded admission → two-level scheduler →
//! per-model replica pools.
//!
//! Thread topology (owned `std::thread::spawn` threads, a mutex + condvar
//! inbox and `std::sync::mpsc` channels, per the hermetic-build policy).
//! Every scheduling decision is made by [`crate::core::Core`], a state
//! machine with no threads, clock or channels inside; the batcher thread
//! only drives it:
//!
//! ```text
//!  clients ── Arrive (≤ queue_depth not yet batched) ──▶ ┌───────────────┐
//!  resize_pool ── Resize ──────────────────────────────▶ │     inbox     │
//!  shutdown ── flag ───────────────────────────────────▶ │ (one event    │
//!  workers ── Done { replica } ────────────────────────▶ │  list)        │
//!                                                        └───────┬───────┘
//!                                   batcher thread: take events, │
//!                         core.on(event, now) → actions, sleep until an
//!                              event or core.next_wake()         │
//!          Dispatch ─┬───────────┬───────────┬───────────┐       ├─ Shed →
//!               [batch q]   [batch q]   [batch q]   [batch q]    │  Dropped::
//!                    │           │           ‖           ‖       │  Deadline
//!                mnist/0     mnist/1     resnet/0    resnet/1    └─ Spawn /
//!                    │           │           ‖           ‖          Retire →
//!                    └───────────┴── reply channels ──▶ tickets     workers
//! ```
//!
//! The core's flush rule is **work-conserving**: a lane closes the moment a
//! replica of its pool has nothing in flight, so a request never waits for
//! company beside an idle replica; `max_batch` and the class flush
//! deadlines bind only while every replica is busy.
//!
//! Every batch is stamped with the model's *current* weight snapshot
//! ([`qnn_compiler::ModelArtifact`], sampled once at flush time), so a
//! [`Server::publish_weights`] swap behaves like the paper's PCIe parameter
//! streaming: in-flight batches finish on the old weights, later batches run
//! bit-identically on the new ones, and versions never mix inside a batch.
//! A worker keeps one elaborated pipeline per weight version it is running
//! and re-arms it between batches, instead of lowering the network again.
//!
//! Each model's ledger (`registry::Ledger`) is the one account of its
//! requests: counted in at admission, out by `Request::answer`, the answer
//! path both the dispatch-time shed and the worker's completion loop take,
//! which also keeps a completed request's latency and queue wait.
//! [`ServerReport`], [`Server::load_window`] and [`Client::queue_depth`]
//! read it; the backlog is `admitted − completed − shed`, not a counter.
//! A worker keeps only its own [`ReplicaStats`].
//!
//! Shutdown is explicit and drains: [`Server::shutdown`] closes admission;
//! the batcher lanes every request admitted before that, flushes its lanes
//! (interactive first) and drops the batch senders; each worker drains its
//! remaining batches and returns its counters. Every request admitted
//! before `shutdown` is answered — with a [`Response`] or, if its deadline
//! expired while it queued, with [`Dropped::Deadline`].

use crate::config::{AdmissionPolicy, ConfigError, Priority, ServerConfig};
use crate::core::{Action, Core, Event, Job};
use crate::registry::{self, Latencies, Ledger, ModelRegistry, PublishError, Tally};
use crate::stats::{
    ClassStats, Histogram, LatencySummary, LoadWindow, ModelStats, ReplicaStats, RequestStats,
    ServerReport,
};
use qnn_compiler::{CompileOptions, CompiledNetwork, Logits, ModelArtifact};
use qnn_nn::Network;
use qnn_tensor::{Shape3, Tensor3};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One completed inference.
#[derive(Clone, Debug)]
pub struct Response {
    /// Request id assigned at submission (monotonic per server).
    pub id: u64,
    /// The model that served this request.
    pub model: String,
    /// The image's logits.
    pub logits: Vec<i32>,
    /// Timing and placement breakdown.
    pub stats: RequestStats,
}

impl Response {
    /// Index of the winning class (shared [`Logits`] tie-breaking: lowest
    /// index wins).
    pub fn argmax(&self) -> usize {
        Logits::new(&self.logits).argmax()
    }

    /// The `k` best (class, score) pairs, best first.
    pub fn top_k(&self, k: usize) -> Vec<(usize, i32)> {
        Logits::new(&self.logits).top_k(k)
    }
}

/// Why an admitted request was answered without a [`Response`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dropped {
    /// Shed at dispatch: the request's deadline had already passed when
    /// its batch flushed. Counted in [`ServerReport::shed`], never
    /// silently served late.
    Deadline,
    /// The reply channel closed unanswered: the server tore down or, for a
    /// [`Ticket`] only, the worker holding the request died. A
    /// [`Client::submit_to`] request shares the caller's sender, so a dead
    /// worker resolves it not at all: the caller must time it out.
    Stopped,
}

impl fmt::Display for Dropped {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dropped::Deadline => write!(f, "shed at dispatch: deadline exceeded"),
            Dropped::Stopped => write!(f, "server stopped before answering"),
        }
    }
}

impl std::error::Error for Dropped {}

/// Why a submission was not admitted.
pub enum SubmitError {
    /// The bounded queue is full ([`AdmissionPolicy::Reject`] only); the
    /// image is handed back to the caller.
    QueueFull(Box<Tensor3<i8>>),
    /// [`SubmitOptions::model`] names a model that is not registered; the
    /// image is handed back to the caller.
    UnknownModel {
        /// The unresolved name.
        model: String,
        /// The image handed back.
        image: Box<Tensor3<i8>>,
    },
    /// No model was named and the server hosts more than one, so the
    /// target is ambiguous; the image is handed back to the caller.
    AmbiguousModel(Box<Tensor3<i8>>),
    /// The image's shape is not the model's input shape; counted in the
    /// model's `rejected`, and the image is handed back to the caller.
    ShapeMismatch {
        /// The model's input shape.
        expected: Shape3,
        /// The submitted image's shape.
        got: Shape3,
        /// The image handed back.
        image: Box<Tensor3<i8>>,
    },
    /// The runtime is no longer accepting requests.
    Stopped,
}

impl fmt::Debug for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull(img) => write!(f, "QueueFull({:?})", img.shape()),
            SubmitError::UnknownModel { model, image } => {
                write!(f, "UnknownModel({model:?}, {:?})", image.shape())
            }
            SubmitError::AmbiguousModel(img) => {
                write!(f, "AmbiguousModel({:?})", img.shape())
            }
            SubmitError::ShapeMismatch { expected, got, .. } => {
                write!(f, "ShapeMismatch {{ expected: {expected:?}, got: {got:?} }}")
            }
            SubmitError::Stopped => write!(f, "Stopped"),
        }
    }
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull(_) => write!(f, "submission queue full"),
            SubmitError::UnknownModel { model, .. } => {
                write!(f, "no model named {model:?} is registered")
            }
            SubmitError::AmbiguousModel(_) => {
                write!(f, "several models are registered; name one in SubmitOptions")
            }
            SubmitError::ShapeMismatch { expected, got, .. } => {
                write!(f, "image shape {got:?} does not match the model's input {expected:?}")
            }
            SubmitError::Stopped => write!(f, "serving runtime stopped"),
        }
    }
}

/// How an admitted request resolved, as delivered on its reply channel.
#[derive(Debug)]
pub struct Completion {
    /// The request's tag: its id for a [`Ticket`], the caller's choice for
    /// [`Client::submit_to`].
    pub tag: u64,
    /// The response, or why there is none.
    pub result: Result<Response, Dropped>,
}

/// Claim ticket for an in-flight request.
pub struct Ticket {
    id: u64,
    rx: Receiver<Completion>,
}

impl Ticket {
    /// The request id this ticket redeems.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Block until the request resolves: a [`Response`], or why it was
    /// dropped — [`Dropped::Deadline`] for a dispatch-time shed,
    /// [`Dropped::Stopped`] if the runtime tore down without answering.
    pub fn wait(self) -> Result<Response, Dropped> {
        self.rx.recv().map_or(Err(Dropped::Stopped), |c| c.result)
    }

    /// Bounded wait: block at most `timeout` for the request to resolve.
    ///
    /// `None` means the request is still in flight when the budget runs
    /// out — the ticket stays redeemable, so callers can retry or give up
    /// without hanging forever on a lost worker. A ticket whose server has
    /// torn down resolves to `Some(Err(Dropped::Stopped))`. A resolved
    /// ticket answers at most once; later calls report `Dropped::Stopped`.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Response, Dropped>> {
        match self.rx.recv_timeout(timeout) {
            Ok(completion) => Some(completion.result),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(Err(Dropped::Stopped)),
        }
    }
}

/// Per-request routing and scheduling options for [`Client::submit_with`].
#[derive(Clone, Debug, Default)]
pub struct SubmitOptions {
    /// Target model. `None` resolves to the server's sole registered model
    /// and is an [`SubmitError::AmbiguousModel`] error when several are
    /// registered.
    pub model: Option<String>,
    /// Scheduling class ([`Priority::Batch`] by default).
    pub priority: Priority,
    /// Relative latency budget, measured from submission. A request whose
    /// budget has already elapsed when its batch is dispatched is shed
    /// with [`Dropped::Deadline`] instead of being served late. `None`
    /// (the default) never sheds.
    pub deadline: Option<Duration>,
}

impl SubmitOptions {
    /// Options targeting `model` with default class and no deadline.
    pub fn model(model: impl Into<String>) -> Self {
        Self { model: Some(model.into()), ..Self::default() }
    }

    /// Set the scheduling class.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Set the relative latency budget.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Everything the batcher waits for, behind one lock, so it has a single
/// place to sleep: an arrival, a finished batch, a pool resize and the
/// shutdown flag all wake the same condition variable.
#[derive(Default)]
struct Inbox {
    /// Events the batcher has not taken yet, in the order they happened.
    /// A resize is not queued behind requests the core cannot place, so it
    /// lands while the pool is saturated — exactly when it is needed.
    events: Vec<Event<Request>>,
    /// Admitted requests not yet closed into a batch or shed — what
    /// `queue_depth` bounds. The batcher lanes arrivals at once, so the
    /// bound is on work it cannot place, whichever model it is for.
    backlog: usize,
    /// Admission is closed; the batcher drains and exits.
    shutdown: bool,
}

struct Shared {
    registry: ModelRegistry,
    admission: AdmissionPolicy,
    queue_depth: usize,
    next_id: AtomicU64,
    inbox: Mutex<Inbox>,
    /// The batcher sleeps here; anything put in the inbox signals it.
    wake: Condvar,
    /// Blocked submitters sleep here; a falling backlog signals it.
    space: Condvar,
}

impl Shared {
    fn inbox(&self) -> MutexGuard<'_, Inbox> {
        self.inbox.lock().expect("a serving thread panicked holding the inbox")
    }

    /// Hand the batcher one event.
    fn push(&self, event: Event<Request>) {
        self.inbox().events.push(event);
        self.wake.notify_one();
    }

    /// Close admission and tell the batcher to drain.
    fn close(&self) {
        self.inbox().shutdown = true;
        self.wake.notify_one();
        self.space.notify_all();
    }
}

/// Submission-side handle, created by [`Server::client`].
///
/// `Client` is `Clone` and `&Client` is `Sync`: hand clones (or references)
/// to as many submitter threads as the traffic model needs.
#[derive(Clone)]
pub struct Client {
    shared: Arc<Shared>,
}

impl Client {
    /// Submit one image to the server's sole model at default priority —
    /// the single-model convenience path.
    pub fn submit(&self, image: Tensor3<i8>) -> Result<Ticket, SubmitError> {
        self.submit_with(image, SubmitOptions::default())
    }

    /// Submit one image with explicit routing and scheduling options.
    pub fn submit_with(
        &self,
        image: Tensor3<i8>,
        opts: SubmitOptions,
    ) -> Result<Ticket, SubmitError> {
        let (reply, rx) = channel();
        let id = self.admit(image, opts, None, reply)?;
        Ok(Ticket { id, rx })
    }

    /// Submit one image whose [`Completion`] is sent to `replies` tagged
    /// `tag`, instead of to a [`Ticket`] of its own. A front-end holding
    /// many requests in flight hands every one the same channel and sleeps
    /// on that, so it hears of each completion the moment it happens and
    /// in completion order.
    pub fn submit_to(
        &self,
        image: Tensor3<i8>,
        opts: SubmitOptions,
        tag: u64,
        replies: &Sender<Completion>,
    ) -> Result<(), SubmitError> {
        self.admit(image, opts, Some(tag), replies.clone()).map(|_| ())
    }

    fn admit(
        &self,
        image: Tensor3<i8>,
        opts: SubmitOptions,
        tag: Option<u64>,
        reply: Sender<Completion>,
    ) -> Result<u64, SubmitError> {
        let shared = &*self.shared;
        let submitted_at = Instant::now();
        let model = match &opts.model {
            Some(name) => match shared.registry.resolve(name) {
                Some(idx) => idx,
                None => {
                    return Err(SubmitError::UnknownModel {
                        model: name.clone(),
                        image: Box::new(image),
                    })
                }
            },
            None if shared.registry.len() == 1 => 0,
            None => return Err(SubmitError::AmbiguousModel(Box::new(image))),
        };
        let expected = shared.registry.entry(model).input;
        if image.shape() != expected {
            shared.registry.ledger(model).reject();
            let got = image.shape();
            return Err(SubmitError::ShapeMismatch { expected, got, image: Box::new(image) });
        }
        let mut inbox = shared.inbox();
        loop {
            if inbox.shutdown {
                return Err(SubmitError::Stopped);
            }
            if inbox.backlog < shared.queue_depth {
                break;
            }
            match shared.admission {
                AdmissionPolicy::Block => {
                    inbox = shared.space.wait(inbox).expect("inbox poisoned");
                }
                AdmissionPolicy::Reject => {
                    shared.registry.ledger(model).reject();
                    return Err(SubmitError::QueueFull(Box::new(image)));
                }
            }
        }
        // Counted in the critical section that publishes the request: no
        // worker can answer it — and count it back out — before it is in.
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        shared.registry.ledger(model).admit();
        inbox.backlog += 1;
        inbox.events.push(Event::Arrive(Request {
            id,
            tag: tag.unwrap_or(id),
            model,
            priority: opts.priority,
            deadline: opts.deadline,
            image,
            submitted_at,
            reply,
        }));
        drop(inbox);
        shared.wake.notify_one();
        Ok(id)
    }

    /// Total backlog across every model: requests admitted but not yet
    /// answered (queued, batching, or running). The saturation signal a
    /// cluster router reads before spilling traffic to another backend.
    pub fn queue_depth(&self) -> u64 {
        let registry = &self.shared.registry;
        (0..registry.len()).map(|m| registry.ledger(m).tally().in_flight()).sum()
    }
}

struct Request {
    id: u64,
    tag: u64,
    model: usize,
    priority: Priority,
    deadline: Option<Duration>,
    image: Tensor3<i8>,
    submitted_at: Instant,
    reply: Sender<Completion>,
}

impl Request {
    /// The one answer path: count the outcome in the model's ledger, then
    /// send the completion. The ticket (or the front-end) may have gone
    /// away; the request still counts as answered.
    fn answer(self, ledger: &Ledger, result: Result<Response, Dropped>) {
        ledger.answer(self.priority, &result);
        let _ = self.reply.send(Completion { tag: self.tag, result });
    }
}

impl Job for Request {
    fn model(&self) -> usize {
        self.model
    }

    fn priority(&self) -> Priority {
        self.priority
    }

    fn submitted_at(&self) -> Instant {
        self.submitted_at
    }

    fn deadline(&self) -> Option<Duration> {
        self.deadline
    }
}

struct Batch {
    /// Server-wide batch sequence number (surfaces as
    /// [`RequestStats::batch_id`]).
    id: u64,
    priority: Priority,
    /// The weight snapshot the whole batch runs on — sampled once at
    /// flush, so a concurrent publish can never split a batch across
    /// parameter versions.
    artifact: Arc<ModelArtifact>,
    requests: Vec<Request>,
}

/// The thread around the scheduling [`Core`]: it takes the inbox's events,
/// hands them to the core with the instant it woke at, performs the
/// actions, and sleeps until the next event or [`Core::next_wake`].
///
/// The batcher is also the pool supervisor: it owns every replica's batch
/// sender and every worker join handle (including workers retired by a
/// shrink). Nothing it does blocks on one pool, so a saturated model never
/// delays another model's lanes.
struct Batcher {
    shared: Arc<Shared>,
    core: Core<Request>,
    /// Synthetic per-batch busy time per model ([`ModelOptions::synthetic_delay`]):
    /// slot `i` injects `delays[i % len]`, whether it started with the pool
    /// or was added by a resize, so scaling experiments stay apples-to-apples.
    delays: Vec<Vec<Duration>>,
    /// Batch queue of each replica by global id; `None` once retired.
    senders: Vec<Option<Sender<Batch>>>,
    workers: Vec<JoinHandle<ReplicaStats>>,
    /// Requests batched or shed since the inbox was last locked: taken off
    /// its backlog at the next lock.
    closed: usize,
}

impl Batcher {
    fn run(mut self) -> Vec<JoinHandle<ReplicaStats>> {
        loop {
            let (events, shutdown) = self.wait();
            let now = Instant::now();
            for event in events {
                let actions = self.core.on(event, now);
                self.perform(actions);
            }
            if shutdown {
                // Everything admitted before the flag is laned by now;
                // dropping the senders lets each worker drain and exit.
                let actions = self.core.on(Event::Shutdown, now);
                self.perform(actions);
                return self.workers;
            }
        }
    }

    /// Sleep until the inbox has something or the core's next wake passes,
    /// and take what it has ([`Event::Tick`] for a timer wake-up).
    fn wait(&mut self) -> (Vec<Event<Request>>, bool) {
        let shared = &*self.shared;
        let wake_at = self.core.next_wake();
        let mut inbox = shared.inbox();
        if self.closed > 0 {
            inbox.backlog -= std::mem::take(&mut self.closed);
            shared.space.notify_all();
        }
        while inbox.events.is_empty() && !inbox.shutdown {
            inbox = match wake_at {
                None => shared.wake.wait(inbox).expect("inbox poisoned"),
                Some(at) => {
                    let left = at.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return (vec![Event::Tick], false);
                    }
                    shared.wake.wait_timeout(inbox, left).expect("inbox poisoned").0
                }
            };
        }
        (std::mem::take(&mut inbox.events), inbox.shutdown)
    }

    fn perform(&mut self, actions: Vec<Action<Request>>) {
        let registry = &self.shared.registry;
        for action in actions {
            match action {
                Action::Dispatch { model, replica, batch_id, priority, requests } => {
                    self.closed += requests.len();
                    let artifact = registry.current(model);
                    let batch = Batch { id: batch_id, priority, artifact, requests };
                    let tx = self.senders[replica].as_ref().expect("dispatch to a live replica");
                    let hung_up = |_| panic!("replica {replica} hung up before shutdown");
                    tx.send(batch).unwrap_or_else(hung_up);
                }
                Action::Shed(req) => {
                    self.closed += 1;
                    let ledger = registry.ledger(req.model);
                    req.answer(ledger, Err(Dropped::Deadline));
                }
                Action::Spawn { model, replica, slot } => {
                    let delays = &self.delays[model];
                    let delay = delays.get(slot % delays.len().max(1)).copied().unwrap_or_default();
                    // Unbounded, but the core never puts more than
                    // `SLOT_DEPTH` batches in flight per replica (the
                    // shutdown drain excepted).
                    let (tx, rx) = channel();
                    let shared = Arc::clone(&self.shared);
                    let worker = move || run_worker(shared, model, replica, rx, delay);
                    self.workers.push(std::thread::spawn(worker));
                    self.senders.push(Some(tx));
                }
                // Dropping the sender lets the worker drain any batch
                // already queued to it, answer those requests, and exit;
                // its join handle stays here for shutdown, so its counters
                // still reach the final report.
                Action::Retire { replica } => self.senders[replica] = None,
            }
        }
    }
}

/// Execute batches on one pool replica until its queue disconnects
/// (drain), telling the batcher after each one that the replica is done
/// with it.
///
/// The replica keeps one elaborated pipeline for the weight version it is
/// running and re-arms it for each batch; a batch stamped with another
/// version replaces the pipeline. `synthetic_delay` injects extra busy time
/// per batch (test/bench knob modeling a slow card).
fn run_worker(
    shared: Arc<Shared>,
    model_idx: usize,
    global_id: usize,
    rx: Receiver<Batch>,
    synthetic_delay: Duration,
) -> ReplicaStats {
    let model = Arc::clone(&shared.registry.entry(model_idx).name);
    let mut stats = ReplicaStats {
        replica: global_id,
        model: model.to_string(),
        batches: 0,
        images: 0,
        busy: Duration::ZERO,
        cycles: 0,
        lowerings: 0,
        replayed_batches: 0,
    };
    let mut warm: Option<(u64, CompiledNetwork)> = None;
    while let Ok(batch) = rx.recv() {
        let Batch { id: batch_id, priority, artifact, requests } = batch;
        let started = Instant::now();
        let images: Vec<Tensor3<i8>> = requests.iter().map(|r| r.image.clone()).collect();
        let version = artifact.version();
        let pipeline = match &mut warm {
            Some((held, pipeline)) if *held == version => pipeline,
            stale => {
                stats.lowerings += 1;
                let mut fresh = artifact.pipeline();
                // A publish swaps weights, never the spec or options, so
                // the old pipeline's schedule tapes still hold.
                if let Some((_, old)) = stale {
                    fresh.adopt_tapes(old);
                }
                &mut stale.insert((version, fresh)).1
            }
        };
        pipeline.load(&images);
        // A RunError here (deadlock/timeout) means the compiled pipeline
        // itself is broken — a programming error, not a load condition —
        // so it propagates as a panic with the executor's diagnostics,
        // taking the worker down. The instance itself is not wedged: the
        // next `load` re-arms it from whatever state the failed run left.
        let sim = pipeline.run().unwrap_or_else(|e| {
            panic!("model {model} replica {global_id}: batch of {} failed: {e}", images.len())
        });
        if !synthetic_delay.is_zero() {
            std::thread::sleep(synthetic_delay);
        }
        let busy = started.elapsed();
        let n = requests.len();
        stats.batches += 1;
        stats.images += n as u64;
        stats.busy += busy;
        let cycles = sim.cycles();
        stats.cycles += cycles;
        if sim.replayed_whole_batch() {
            stats.replayed_batches += 1;
        }
        let ledger = shared.registry.ledger(model_idx);
        for (req, logits) in requests.into_iter().zip(sim.logits) {
            let queue_wait = started.saturating_duration_since(req.submitted_at);
            let latency = req.submitted_at.elapsed();
            let response = Response {
                id: req.id,
                model: model.to_string(),
                logits,
                stats: RequestStats {
                    queue_wait,
                    latency,
                    batch_size: n,
                    batch_id,
                    replica: global_id,
                    priority,
                    weight_version: version,
                    cycles,
                },
            };
            req.answer(ledger, Ok(response));
        }
        shared.push(Event::Done { replica: global_id });
    }
    stats
}

/// Per-model overrides for [`ServerBuilder::model_with`]; unset fields
/// fall back to the server-wide [`ServerConfig`].
#[derive(Clone, Debug, Default)]
pub struct ModelOptions {
    /// Pool size for this model (defaults to `config.replicas`). Size
    /// pools against each model's offered load, not one global knob.
    pub replicas: Option<usize>,
    /// Compile options for this model (defaults to `config.compile`).
    pub compile: Option<CompileOptions>,
    /// Test/bench knob: extra busy time per batch, by replica slot — slot
    /// `i` of this pool injects `synthetic_delay[i % len]`, including slots
    /// added later by [`Server::resize_pool`]; empty (the default) injects
    /// nothing. Models a slower card, a co-tenant, or a card whose service
    /// time dominates host compute, so scheduling and autoscaling behaviour
    /// is reproducible on any host.
    pub synthetic_delay: Vec<Duration>,
}

impl ModelOptions {
    /// No overrides.
    pub fn new() -> Self {
        Self::default()
    }

    /// Override this model's pool size.
    pub fn replicas(mut self, replicas: usize) -> Self {
        self.replicas = Some(replicas);
        self
    }

    /// Override this model's compile options.
    pub fn compile_options(mut self, compile: CompileOptions) -> Self {
        self.compile = Some(compile);
        self
    }

    /// Uniform synthetic per-batch busy time for every replica of this
    /// pool.
    pub fn synthetic_delay(mut self, delay: Duration) -> Self {
        self.synthetic_delay = vec![delay];
        self
    }
}

/// Registers models against a [`ServerConfig`] and starts the runtime.
pub struct ServerBuilder {
    config: ServerConfig,
    models: Vec<(String, Network, ModelOptions)>,
}

impl ServerBuilder {
    /// Replace the server-wide configuration (defaults to
    /// [`ServerConfig::default`]).
    pub fn config(mut self, config: ServerConfig) -> Self {
        self.config = config;
        self
    }

    /// Register `net` under `name` with the server-wide pool defaults.
    pub fn model(self, name: impl Into<String>, net: &Network) -> Self {
        self.model_with(name, net, ModelOptions::default())
    }

    /// Register `net` under `name` with per-model overrides.
    pub fn model_with(
        mut self,
        name: impl Into<String>,
        net: &Network,
        options: ModelOptions,
    ) -> Self {
        self.models.push((name.into(), net.clone(), options));
        self
    }

    /// Validate, compile every registered model into one
    /// [`ModelArtifact`] (its pool's replicas share that parameter
    /// snapshot), spawn the batcher and every pool's workers, and return
    /// the running [`Server`]. Options a model cannot take are
    /// [`ConfigError::InvalidOptions`], before any thread starts.
    pub fn start(self) -> Result<Server, ConfigError> {
        let config = self.config;
        config.validate()?;
        if self.models.is_empty() {
            return Err(ConfigError::NoModels);
        }
        for (i, (name, _, _)) in self.models.iter().enumerate() {
            if self.models[..i].iter().any(|(n, _, _)| n == name) {
                return Err(ConfigError::DuplicateModel(name.clone()));
            }
        }

        let mut entries = Vec::with_capacity(self.models.len());
        let mut pools = Vec::with_capacity(self.models.len());
        for (name, net, opts) in self.models {
            let replicas = opts.replicas.unwrap_or(config.replicas);
            if replicas == 0 {
                return Err(ConfigError::ZeroReplicas);
            }
            let compile = opts.compile.as_ref().unwrap_or(&config.compile);
            let artifact = Arc::new(ModelArtifact::try_new(&net, compile).map_err(|error| {
                ConfigError::InvalidOptions { model: name.clone(), error }
            })?);
            entries.push(registry::entry(name, artifact, replicas));
            pools.push((replicas, opts.synthetic_delay));
        }
        let shared = Arc::new(Shared {
            registry: ModelRegistry::new(entries),
            admission: config.admission,
            queue_depth: config.queue_depth,
            next_id: AtomicU64::new(0),
            inbox: Mutex::new(Inbox::default()),
            wake: Condvar::new(),
            space: Condvar::new(),
        });

        let flush = [config.interactive_flush_deadline, config.flush_deadline];
        let mut batcher = Batcher {
            shared: Arc::clone(&shared),
            core: Core::new(pools.len(), config.max_batch, flush),
            delays: Vec::with_capacity(pools.len()),
            senders: Vec::new(),
            workers: Vec::new(),
            closed: 0,
        };
        let now = Instant::now();
        for (model, (replicas, delays)) in pools.into_iter().enumerate() {
            batcher.delays.push(delays);
            let actions = batcher.core.on(Event::Resize { model, replicas }, now);
            batcher.perform(actions);
        }
        let batcher = Some(std::thread::spawn(move || batcher.run()));

        Ok(Server { shared, batcher, started: Instant::now() })
    }
}

/// A running multi-model serving instance.
///
/// Obtain one through [`Server::builder`], submit through [`Server::client`]
/// handles, swap weights with [`Server::publish_weights`], and finish with
/// [`Server::shutdown`], which drains and returns the [`ServerReport`].
pub struct Server {
    shared: Arc<Shared>,
    /// Taken by [`Server::shutdown`]; a server dropped without it only
    /// closes admission and lets its threads drain unobserved.
    batcher: Option<JoinHandle<Vec<JoinHandle<ReplicaStats>>>>,
    started: Instant,
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.close();
    }
}

impl Server {
    /// Start describing a server: `Server::builder().model(...).start()`.
    pub fn builder() -> ServerBuilder {
        ServerBuilder { config: ServerConfig::default(), models: Vec::new() }
    }

    /// A new submission handle. Clients are independent and cheap; create
    /// one per traffic source.
    pub fn client(&self) -> Client {
        Client { shared: Arc::clone(&self.shared) }
    }

    /// The model registry (names, current weight versions).
    pub fn registry(&self) -> &ModelRegistry {
        &self.shared.registry
    }

    /// Registered model names, in registration order.
    pub fn models(&self) -> Vec<String> {
        self.shared.registry.names()
    }

    /// Publish new parameters for `model` — the hot-swap path. Batches
    /// already dispatched finish on the old weights; every batch flushed
    /// after this call runs bit-identically on the new ones. Returns the
    /// new weight version.
    pub fn publish_weights(&self, model: &str, net: Network) -> Result<u64, PublishError> {
        self.shared.registry.publish(model, net)
    }

    /// Resize `model`'s replica pool to `replicas` workers — the hook the
    /// cluster autoscaler drives. Growing spawns fresh workers (sharing
    /// the pool's current artifact through the registry); shrinking
    /// retires the highest-numbered slots, each retired worker draining
    /// any batch already queued to it before exiting. Returns
    /// `(old_size, new_size)`; the batcher takes its events in order, so
    /// every request admitted after the call is placed on the new shape.
    pub fn resize_pool(&self, model: &str, replicas: usize) -> Result<(usize, usize), ResizeError> {
        if replicas == 0 {
            return Err(ResizeError::ZeroReplicas);
        }
        let registry = &self.shared.registry;
        let idx =
            registry.resolve(model).ok_or_else(|| ResizeError::UnknownModel(model.to_string()))?;
        let mut inbox = self.shared.inbox();
        if inbox.shutdown {
            return Err(ResizeError::Stopped);
        }
        let old = registry.replicas(idx);
        registry.set_replicas(idx, replicas);
        inbox.events.push(Event::Resize { model: idx, replicas });
        drop(inbox);
        self.shared.wake.notify_one();
        Ok((old, replicas))
    }

    /// A live load sample for `model`: cumulative admitted, rejected,
    /// completed and shed counts, current backlog, pool size, and the
    /// interactive-latency summary of the window since the previous call
    /// (the call drains the sample buffer). This is the signal the replica
    /// autoscaler's control loop runs on — available while the server
    /// runs, unlike the [`ServerReport`] which only exists after shutdown.
    pub fn load_window(&self, model: &str) -> Option<LoadWindow> {
        let registry = &self.shared.registry;
        let idx = registry.resolve(model)?;
        let ledger = registry.ledger(idx);
        let samples = ledger.take_interactive();
        let tally = ledger.tally();
        Some(LoadWindow {
            model: model.to_string(),
            replicas: registry.replicas(idx),
            admitted: tally.admitted,
            rejected: tally.rejected,
            completed: tally.completed.iter().sum(),
            shed: tally.shed.iter().sum(),
            in_flight: tally.in_flight(),
            interactive_samples: samples.len(),
            interactive: LatencySummary::from_samples(samples),
        })
    }

    /// Stop admission, drain every in-flight batch, join all threads, and
    /// return the aggregate report.
    ///
    /// Requests admitted before the call are answered (completed or shed);
    /// `submit` calls racing the shutdown may instead resolve their
    /// tickets to [`Dropped::Stopped`].
    pub fn shutdown(mut self) -> ServerReport {
        self.shared.close();
        let batcher = self.batcher.take().expect("shutdown consumes the server");
        let workers = batcher.join().expect("batcher thread panicked");
        let per_replica = workers
            .into_iter()
            .map(|h| h.join().expect("replica worker panicked"))
            .collect();
        let wall = self.started.elapsed();
        build_report(&self.shared.registry, per_replica, wall)
    }
}

/// Why a [`Server::resize_pool`] call was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResizeError {
    /// No model of that name is registered.
    UnknownModel(String),
    /// Pools need at least one replica; drain a model by removing its
    /// traffic, not by resizing to zero.
    ZeroReplicas,
    /// The server had closed admission.
    Stopped,
}

impl fmt::Display for ResizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResizeError::UnknownModel(name) => {
                write!(f, "no model named {name:?} is registered")
            }
            ResizeError::ZeroReplicas => write!(f, "pools need at least one replica"),
            ResizeError::Stopped => write!(f, "server stopped before the resize"),
        }
    }
}

impl std::error::Error for ResizeError {}

/// The shutdown report: outcomes and latencies from the ledgers, batches
/// from the replicas (after the drain all have run).
fn build_report(
    registry: &ModelRegistry,
    mut per_replica: Vec<ReplicaStats>,
    wall: Duration,
) -> ServerReport {
    per_replica.sort_by_key(|r| r.replica);
    let models = registry.len();
    let tallies: Vec<Tally> = (0..models).map(|m| registry.ledger(m).tally()).collect();
    let latencies: Vec<Latencies> = (0..models).map(|m| registry.ledger(m).latencies()).collect();

    let class = |p: Priority, tallies: &[Tally], latency: &Histogram| ClassStats {
        priority: p,
        completed: tallies.iter().map(|t| t.completed[p.index()]).sum(),
        shed: tallies.iter().map(|t| t.shed[p.index()]).sum(),
        latency: LatencySummary::from_histogram(latency),
    };
    let per_model: Vec<ModelStats> = (0..models)
        .map(|m| ModelStats {
            model: registry.entry(m).name.to_string(),
            replicas: registry.replicas(m),
            submitted: tallies[m].admitted + tallies[m].rejected,
            completed: tallies[m].completed.iter().sum(),
            rejected: tallies[m].rejected,
            shed: tallies[m].shed.iter().sum(),
            weight_publishes: registry.publishes(m),
            latency: LatencySummary::from_histogram(&Histogram::sum(&latencies[m].latency)),
            per_priority: Priority::ALL
                .map(|p| class(p, &tallies[m..=m], &latencies[m].latency[p.index()]))
                .into(),
        })
        .collect();
    let per_priority = Priority::ALL
        .map(|p| {
            let latency = Histogram::sum(latencies.iter().map(|l| &l.latency[p.index()]));
            class(p, &tallies, &latency)
        })
        .into();
    let latency = Histogram::sum(latencies.iter().flat_map(|l| &l.latency));
    let queue_wait = Histogram::sum(latencies.iter().map(|l| &l.queue_wait));
    let (submitted, completed, rejected, shed) = per_model.iter().fold((0, 0, 0, 0), |t, m| {
        (t.0 + m.submitted, t.1 + m.completed, t.2 + m.rejected, t.3 + m.shed)
    });

    let batches = per_replica.iter().map(|r| r.batches).sum();
    let images: u64 = per_replica.iter().map(|r| r.images).sum();
    ServerReport {
        // Final pool sizes (a resize changes these); retired workers still
        // appear in `per_replica` with the counters they accumulated.
        replicas: (0..models).map(|m| registry.replicas(m)).sum(),
        submitted,
        completed,
        rejected,
        shed,
        batches,
        lowerings: per_replica.iter().map(|r| r.lowerings).sum(),
        replayed_batches: per_replica.iter().map(|r| r.replayed_batches).sum(),
        wall,
        mean_batch_occupancy: if batches > 0 { images as f64 / batches as f64 } else { 0.0 },
        queue_wait: LatencySummary::from_histogram(&queue_wait),
        latency: LatencySummary::from_histogram(&latency),
        per_replica,
        per_model,
        per_priority,
    }
}
