//! Serving-runtime configuration: admission, batching, and the
//! scheduling classes of the two-level scheduler.

use qnn_compiler::{CompileOptions, OptionsError};
use std::fmt;
use std::time::Duration;

/// What `submit` does when the bounded submission queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Block the submitting thread until the queue drains (backpressure
    /// propagates to the traffic source, like a PCIe link asserting halt).
    Block,
    /// Fail fast with [`crate::SubmitError::QueueFull`], returning the
    /// image to the caller (load shedding at the admission edge).
    Reject,
}

/// Scheduling class of a request — level 1 of the two-level scheduler.
///
/// Classes keep separate batcher lanes per model: an `Interactive` lane
/// is dispatched ahead of `Batch` work at every scheduling decision and,
/// while the pool is busy, closes at its own (shorter) deadline — so
/// latency traffic never queues behind a throughput backlog.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive traffic: on a busy pool partial batches close
    /// after [`ServerConfig::interactive_flush_deadline`], and ready lanes
    /// of this class always dispatch before `Batch` lanes.
    Interactive,
    /// Throughput traffic: on a busy pool fills batches to `max_batch`
    /// under the longer [`ServerConfig::flush_deadline`]. The default.
    #[default]
    Batch,
}

impl Priority {
    /// Both classes, scheduling order first.
    pub const ALL: [Priority; 2] = [Priority::Interactive, Priority::Batch];

    /// Dense index for per-class tables.
    pub(crate) fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Batch => 1,
        }
    }

    /// Human-readable class name.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a [`ServerConfig`] (or a server built from one) was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `replicas == 0` — serving needs at least one replica per pool.
    ZeroReplicas,
    /// `max_batch == 0` — batches must hold at least one image.
    ZeroBatch,
    /// `queue_depth == 0` — the submission queue cannot be zero-depth.
    ZeroQueueDepth,
    /// `Server::start` was called with no registered models.
    NoModels,
    /// Two models were registered under the same name.
    DuplicateModel(String),
    /// A model's compile options do not fit its network (an unknown
    /// layer or stream, a zero override, a short `stage_device`).
    InvalidOptions {
        /// The model the options were registered with.
        model: String,
        /// What [`qnn_compiler::elaborate`] rejected.
        error: OptionsError,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroReplicas => write!(f, "serving needs at least one replica"),
            ConfigError::ZeroBatch => write!(f, "batches must hold at least one image"),
            ConfigError::ZeroQueueDepth => {
                write!(f, "the submission queue cannot be zero-depth")
            }
            ConfigError::NoModels => write!(f, "a server needs at least one model"),
            ConfigError::DuplicateModel(name) => {
                write!(f, "model {name:?} registered twice")
            }
            ConfigError::InvalidOptions { model, error } => {
                write!(f, "model {model:?}: {error}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Configuration of a serving runtime instance ([`crate::Server`]).
///
/// Fields stay public for struct-literal construction in tests and
/// benches; [`ServerConfig::builder`] is the validating path — it returns
/// [`ConfigError`] instead of letting a nonsensical config reach the
/// runtime.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Default pool size: independent pipeline replicas (worker threads)
    /// per registered model that does not override it. Each replica runs
    /// its own warm pipeline on its own thread; a flushed batch goes to
    /// the pool replica with the fewest in-flight images (queued +
    /// running, ties to the lowest id), so a slow or busy replica stops
    /// attracting work until it drains.
    pub replicas: usize,
    /// Maximum images per batch. A lane that reaches it closes into the
    /// batch a busy replica queues behind the one it is running.
    pub max_batch: usize,
    /// Upper bound while the pool is busy: the longest a partial
    /// [`Priority::Batch`] batch keeps filling, measured from the
    /// submission of its oldest request, before it closes into a busy
    /// replica's queue. A lane whose pool has an idle replica never waits
    /// for it. Mirrors the paper's PCIe burst assembly: under load the
    /// host trades a little latency for occupancy.
    pub flush_deadline: Duration,
    /// Upper bound while the pool is busy for partial
    /// [`Priority::Interactive`] batches — the latency-class analogue of
    /// `flush_deadline`, normally much shorter.
    pub interactive_flush_deadline: Duration,
    /// Admission bound: requests admitted but not yet placed in a batch
    /// (requests, not batches), across all models.
    pub queue_depth: usize,
    /// Behaviour when the submission queue is full.
    pub admission: AdmissionPolicy,
    /// Compile options shared by every replica of models that do not
    /// override them (placement, FIFO sizing, parameter streaming).
    pub compile: CompileOptions,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            replicas: 1,
            max_batch: 8,
            flush_deadline: Duration::from_millis(2),
            interactive_flush_deadline: Duration::from_micros(500),
            queue_depth: 64,
            admission: AdmissionPolicy::Block,
            compile: CompileOptions::default(),
        }
    }
}

impl ServerConfig {
    /// A validating builder starting from [`ServerConfig::default`].
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder { config: ServerConfig::default() }
    }

    /// Check the invariants the runtime relies on.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        if self.replicas == 0 {
            return Err(ConfigError::ZeroReplicas);
        }
        if self.max_batch == 0 {
            return Err(ConfigError::ZeroBatch);
        }
        if self.queue_depth == 0 {
            return Err(ConfigError::ZeroQueueDepth);
        }
        Ok(())
    }
}

/// Builder for [`ServerConfig`]; [`ServerConfigBuilder::build`] validates
/// and returns [`ConfigError`] for nonsensical settings instead of
/// panicking inside the runtime.
#[derive(Clone, Debug)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
}

impl ServerConfigBuilder {
    /// Default pool size (replica worker threads per model).
    pub fn replicas(mut self, replicas: usize) -> Self {
        self.config.replicas = replicas;
        self
    }

    /// Maximum images per batch.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.config.max_batch = max_batch;
        self
    }

    /// Flush deadline for partial [`Priority::Batch`] batches on a busy
    /// pool.
    pub fn flush_deadline(mut self, deadline: Duration) -> Self {
        self.config.flush_deadline = deadline;
        self
    }

    /// Flush deadline for partial [`Priority::Interactive`] batches on a
    /// busy pool.
    pub fn interactive_flush_deadline(mut self, deadline: Duration) -> Self {
        self.config.interactive_flush_deadline = deadline;
        self
    }

    /// Admission bound (requests not yet batched).
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.config.queue_depth = depth;
        self
    }

    /// Behaviour when the submission queue is full.
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.config.admission = policy;
        self
    }

    /// Default compile options for registered models.
    pub fn compile_options(mut self, compile: CompileOptions) -> Self {
        self.config.compile = compile;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<ServerConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(ServerConfig::default().validate().is_ok());
        let built = ServerConfig::builder().build().expect("default builds");
        assert_eq!(built.replicas, 1);
    }

    #[test]
    fn builder_round_trips_every_knob() {
        let config = ServerConfig::builder()
            .replicas(3)
            .max_batch(4)
            .flush_deadline(Duration::from_millis(7))
            .interactive_flush_deadline(Duration::from_millis(1))
            .queue_depth(16)
            .admission(AdmissionPolicy::Reject)
            .build()
            .expect("valid");
        assert_eq!(config.replicas, 3);
        assert_eq!(config.max_batch, 4);
        assert_eq!(config.flush_deadline, Duration::from_millis(7));
        assert_eq!(config.interactive_flush_deadline, Duration::from_millis(1));
        assert_eq!(config.queue_depth, 16);
        assert_eq!(config.admission, AdmissionPolicy::Reject);
    }

    #[test]
    fn zero_replicas_rejected_with_typed_error() {
        assert_eq!(
            ServerConfig::builder().replicas(0).build().err(),
            Some(ConfigError::ZeroReplicas)
        );
    }

    #[test]
    fn zero_batch_rejected_with_typed_error() {
        assert_eq!(
            ServerConfig::builder().max_batch(0).build().err(),
            Some(ConfigError::ZeroBatch)
        );
    }

    #[test]
    fn zero_queue_rejected_with_typed_error() {
        assert_eq!(
            ServerConfig::builder().queue_depth(0).build().err(),
            Some(ConfigError::ZeroQueueDepth)
        );
    }

    #[test]
    fn priority_order_and_names() {
        assert_eq!(Priority::ALL[0], Priority::Interactive);
        assert_eq!(Priority::default(), Priority::Batch);
        assert_eq!(Priority::Interactive.name(), "interactive");
        assert_eq!(Priority::Batch.to_string(), "batch");
    }
}
