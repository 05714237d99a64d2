//! The model registry: names → compiled artifacts, with hot weight swaps,
//! and each model's serving [`Ledger`].
//!
//! Each registered model owns one slot holding the *current*
//! [`ModelArtifact`] behind a mutex. The batcher samples the slot once per
//! flushed batch, so a [`ModelRegistry::publish`] behaves exactly like the
//! paper's PCIe parameter streaming: batches dispatched before the publish
//! finish on the old snapshot, batches flushed after it run on the new one,
//! and no batch ever sees a mix — the snapshot is pinned by `Arc` for the
//! batch's whole lifetime.

use crate::config::Priority;
use crate::server::{Dropped, Response};
use crate::stats::Histogram;
use qnn_compiler::ModelArtifact;
use qnn_nn::Network;
use qnn_tensor::Shape3;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Cap on buffered interactive-latency samples per model: the autoscaler
/// drains the buffer every control tick, so the cap only bites when no
/// one is sampling — old samples are dropped, newest kept.
const LIVE_SAMPLE_CAP: usize = 1024;

/// One model's serving ledger, the only place a request is accounted for:
/// counted in once at admission ([`Ledger::admit`] or [`Ledger::reject`]),
/// out once on the answer path ([`Ledger::answer`]), which also keeps a
/// completed request's latencies. Reports, live windows and the backlog all
/// derive from a [`Tally`] and the [`Latencies`] of it. Counts are written
/// `Release` and read `Acquire`, so a tally that sees an answer also sees
/// the admission that happened before it (through the inbox lock and the
/// batch channel), and a reader that saw the completion sees it counted.
#[derive(Default)]
pub(crate) struct Ledger {
    /// Requests admitted, and attempts refused at admission.
    admitted: AtomicU64,
    rejected: AtomicU64,
    /// Requests answered with a response, and shed at dispatch, per class.
    completed: [AtomicU64; 2],
    shed: [AtomicU64; 2],
    /// Every latency the ledger keeps, behind its one lock.
    latencies: Mutex<Latencies>,
}

/// The latencies of a model's completed requests.
#[derive(Clone, Default)]
pub(crate) struct Latencies {
    /// Interactive end-to-end latencies since the last window read.
    window: VecDeque<Duration>,
    /// End-to-end latencies per class, and queue waits, since server start.
    pub latency: [Histogram; 2],
    pub queue_wait: Histogram,
}

/// A read of one [`Ledger`]. Answers are loaded before admissions, so no
/// request is seen answered but not admitted.
pub(crate) struct Tally {
    pub admitted: u64,
    pub rejected: u64,
    pub completed: [u64; 2],
    pub shed: [u64; 2],
}

impl Tally {
    /// Admitted but not yet answered: queued, batching, or running.
    pub fn in_flight(&self) -> u64 {
        self.admitted.saturating_sub(self.completed.iter().chain(&self.shed).sum())
    }
}

impl Ledger {
    /// Count one admitted request in — inside the critical section that
    /// publishes it, so no answer can be counted before it.
    pub fn admit(&self) {
        self.admitted.fetch_add(1, Ordering::Release);
    }

    /// Count one submission attempt refused at admission.
    pub fn reject(&self) {
        self.rejected.fetch_add(1, Ordering::Release);
    }

    /// Count one answered request of class `priority` out, by outcome. A
    /// response's latency and queue wait are kept too, and an interactive
    /// one's latency also feeds the live window.
    pub fn answer(&self, priority: Priority, result: &Result<Response, Dropped>) {
        let class = priority.index();
        match result {
            Ok(response) => {
                self.completed[class].fetch_add(1, Ordering::Release);
                let latency = response.stats.latency;
                let mut kept = self.lock_latencies();
                kept.latency[class].record(latency);
                kept.queue_wait.record(response.stats.queue_wait);
                if priority == Priority::Interactive {
                    if kept.window.len() >= LIVE_SAMPLE_CAP {
                        kept.window.pop_front();
                    }
                    kept.window.push_back(latency);
                }
            }
            Err(Dropped::Deadline) => _ = self.shed[class].fetch_add(1, Ordering::Release),
            // Only a reply channel closed unanswered reports it.
            Err(Dropped::Stopped) => unreachable!("Dropped::Stopped is never sent"),
        }
    }

    /// Read the counters: answers first, admissions last (written order).
    pub fn tally(&self) -> Tally {
        let load = |c: &AtomicU64| c.load(Ordering::Acquire);
        Tally {
            completed: self.completed.each_ref().map(load),
            shed: self.shed.each_ref().map(load),
            rejected: load(&self.rejected),
            admitted: load(&self.admitted),
        }
    }

    /// Drain the buffered interactive latencies (the window read).
    pub fn take_interactive(&self) -> Vec<Duration> {
        std::mem::take(&mut self.lock_latencies().window).into()
    }

    /// A copy of the latencies kept so far.
    pub fn latencies(&self) -> Latencies {
        self.lock_latencies().clone()
    }

    fn lock_latencies(&self) -> MutexGuard<'_, Latencies> {
        self.latencies.lock().expect("ledger latencies poisoned")
    }
}

/// Why a weight publish was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PublishError {
    /// No model of that name is registered.
    UnknownModel(String),
    /// The new parameters belong to a different architecture than the
    /// registered spec — weight swapping replaces parameters, never the
    /// network shape.
    SpecMismatch(String),
}

impl fmt::Display for PublishError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PublishError::UnknownModel(name) => {
                write!(f, "no model named {name:?} is registered")
            }
            PublishError::SpecMismatch(name) => write!(
                f,
                "published weights for {name:?} belong to a different architecture"
            ),
        }
    }
}

impl std::error::Error for PublishError {}

/// One registered model: its name, pool geometry, and the mutable slot the
/// hot-swap protocol revolves around.
pub(crate) struct ModelEntry {
    pub name: Arc<str>,
    /// Shape every image submitted to this model must have: fixed, since
    /// `publish` refuses a spec change.
    pub input: Shape3,
    /// Current weight snapshot; swapped wholesale by `publish`.
    current: Mutex<Arc<ModelArtifact>>,
    /// Number of replica workers currently in this model's pool
    /// (atomic: pools resize at runtime via `Server::resize_pool`).
    replicas: AtomicUsize,
    /// How many weight versions were published after registration.
    publishes: AtomicU64,
    /// This model's serving ledger.
    ledger: Ledger,
}

/// Maps model names to compiled artifacts and carries the swap protocol.
///
/// Shared (read-mostly) between the [`crate::Server`] handle, its
/// [`crate::Client`]s (name resolution at submit time), and the batcher
/// (artifact sampling at dispatch time).
pub struct ModelRegistry {
    models: Vec<ModelEntry>,
}

impl ModelRegistry {
    pub(crate) fn new(models: Vec<ModelEntry>) -> Self {
        Self { models }
    }

    pub(crate) fn entry(&self, idx: usize) -> &ModelEntry {
        &self.models[idx]
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// True when no models are registered (never the case for a started
    /// server).
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Registered model names, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.models.iter().map(|m| m.name.to_string()).collect()
    }

    /// Index of `name`, if registered.
    pub(crate) fn resolve(&self, name: &str) -> Option<usize> {
        self.models.iter().position(|m| &*m.name == name)
    }

    /// The model's current weight snapshot (sampled once per batch by the
    /// batcher — the atomicity unit of the swap protocol).
    pub(crate) fn current(&self, idx: usize) -> Arc<ModelArtifact> {
        Arc::clone(&self.models[idx].current.lock().expect("registry slot poisoned"))
    }

    /// The current weight version of `name` (0 until the first publish).
    pub fn version(&self, name: &str) -> Option<u64> {
        self.resolve(name).map(|i| self.current(i).version())
    }

    /// How many weight publishes `idx` has seen.
    pub(crate) fn publishes(&self, idx: usize) -> u64 {
        self.models[idx].publishes.load(Ordering::Relaxed)
    }

    /// The serving ledger of model `idx`.
    pub(crate) fn ledger(&self, idx: usize) -> &Ledger {
        &self.models[idx].ledger
    }

    /// Current pool size of model `idx`.
    pub(crate) fn replicas(&self, idx: usize) -> usize {
        self.models[idx].replicas.load(Ordering::Relaxed)
    }

    /// Record a pool resize (called by the batcher after reshaping).
    pub(crate) fn set_replicas(&self, idx: usize, replicas: usize) {
        self.models[idx].replicas.store(replicas, Ordering::Relaxed);
    }

    /// Publish new parameters for `name`: subsequent batches run on the
    /// new weights, in-flight batches finish on the old ones. Returns the
    /// new weight version.
    pub fn publish(&self, name: &str, net: Network) -> Result<u64, PublishError> {
        let idx = self
            .resolve(name)
            .ok_or_else(|| PublishError::UnknownModel(name.to_string()))?;
        let entry = &self.models[idx];
        let mut slot = entry.current.lock().expect("registry slot poisoned");
        let next = slot
            .with_weights(net)
            .map_err(|_| PublishError::SpecMismatch(name.to_string()))?;
        let version = next.version();
        *slot = Arc::new(next);
        entry.publishes.fetch_add(1, Ordering::Relaxed);
        Ok(version)
    }
}

pub(crate) fn entry(name: String, artifact: Arc<ModelArtifact>, replicas: usize) -> ModelEntry {
    ModelEntry {
        name: Arc::from(name),
        input: artifact.network().spec.input,
        current: Mutex::new(artifact),
        replicas: AtomicUsize::new(replicas),
        publishes: AtomicU64::new(0),
        ledger: Ledger::default(),
    }
}
