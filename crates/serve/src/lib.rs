//! `qnn-serve` — a multi-model, priority-aware inference serving runtime
//! for the streaming-QNN pipeline.
//!
//! The paper's architecture hides layer latency by overlapping images
//! *inside one pipeline*; the host side of a production deployment must
//! additionally keep **several** pipelines fed at line rate (FINN-R's
//! batching runtime makes the same point for their accelerator). This
//! crate is that host runtime:
//!
//! * a **model registry** ([`ModelRegistry`]) mapping names to compiled
//!   artifacts, each backed by its own **replica pool**; one server hosts
//!   many networks side by side;
//! * **hot weight swapping** ([`Server::publish_weights`]): batches
//!   already dispatched finish on the old parameters, later batches run
//!   bit-identically on the new ones, and no batch ever mixes versions —
//!   the host-side analogue of the paper's PCIe parameter streaming;
//! * a **two-level scheduler**: level 1 orders scheduling classes
//!   ([`Priority::Interactive`] before [`Priority::Batch`], each class
//!   with its own flush deadline) and sheds requests whose per-request
//!   deadline has already passed; level 2 picks the replica inside the
//!   target model's pool (the least-loaded one);
//! * **bounded admission** (at most `queue_depth` requests not yet placed
//!   in a batch) with a configurable policy (block for backpressure, or
//!   reject-when-full for load shedding);
//! * a **work-conserving batcher** that assembles per-(model, class)
//!   batches and dispatches a lane the moment a replica of its pool is
//!   idle; `max_batch` (the PCIe image burst of §III-B6) and the class's
//!   flush deadline bound how long a lane fills while the pool is busy;
//! * **warm replicas**: each worker lowers its network once per weight
//!   version and re-arms that pipeline between batches;
//! * **one serving ledger per model**, counting a request in at admission
//!   and out where it is answered, with its latency and queue wait, read by
//!   the [`ServerReport`] (per-class,
//!   per-model and per-replica counts, queue wait, batch occupancy, p50/p95
//!   latency, images/sec), [`Server::load_window`] and [`Client::queue_depth`];
//! * **handle-based lifecycle**: [`Server::builder`] →
//!   [`ServerBuilder::model`] → [`ServerBuilder::start`], submit through
//!   [`Server::client`] handles, and [`Server::shutdown`] drains every
//!   in-flight batch before returning the [`ServerReport`].
//!
//! Everything is `std`-only (`std::sync::mpsc` + `std::thread`), per the
//! workspace's hermetic-build policy.
//!
//! ## Example: multi-model server with priorities
//!
//! ```
//! use qnn_nn::{models, Network};
//! use qnn_serve::{Priority, Server, ServerConfig, SubmitOptions};
//! use qnn_tensor::{Shape3, Tensor3};
//!
//! let mnist = Network::random(models::test_net(8, 4, 2), 42);
//! let cifar = Network::random(models::test_net(8, 6, 3), 43);
//! let config = ServerConfig::builder()
//!     .replicas(2)
//!     .max_batch(4)
//!     .build()
//!     .expect("valid config");
//! let server = Server::builder()
//!     .config(config)
//!     .model("mnist", &mnist)
//!     .model("cifar", &cifar)
//!     .start()
//!     .expect("valid server");
//! let client = server.client();
//! let img = Tensor3::from_fn(Shape3::square(8, 3), |y, x, c| ((y * 31 + x * 7 + c) % 255) as i8);
//! let opts = SubmitOptions::model("mnist").priority(Priority::Interactive);
//! let ticket = client.submit_with(img, opts).expect("admitted");
//! let response = ticket.wait().expect("answered");
//! assert_eq!(response.model, "mnist");
//! let report = server.shutdown();
//! assert_eq!(report.completed, 1);
//! ```

#![forbid(unsafe_code)]

mod config;
mod core;
mod registry;
mod server;
mod stats;

pub use config::{AdmissionPolicy, ConfigError, Priority, ServerConfig, ServerConfigBuilder};
pub use registry::{ModelRegistry, PublishError};
pub use server::{
    Client, Completion, Dropped, ModelOptions, ResizeError, Response, Server, ServerBuilder,
    SubmitError, SubmitOptions, Ticket,
};
pub use stats::{
    ClassStats, LatencySummary, LoadWindow, ModelStats, ReplicaStats, RequestStats, ServerReport,
};
