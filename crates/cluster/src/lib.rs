//! `qnn-cluster` — the network and cluster layer over `qnn-serve`: a
//! wire protocol with a TCP edge, a sharding router, and a replica
//! autoscaler.
//!
//! The paper's dataflow platform scales out by putting **several**
//! accelerator cards behind one deployment; this crate is the host-side
//! machinery that makes a fleet of serving runtimes look like one
//! endpoint, in three layers (each usable alone):
//!
//! * **[`wire`]** + **[`NetServer`]/[`NetClient`]** — a versioned,
//!   length-prefixed binary frame format with strict, typed decoding
//!   ([`WireError`]; adversarial bytes never panic), and a TCP edge that
//!   submits decoded requests straight into a wrapped
//!   [`Server`](qnn_serve::Server). Responses stream back **out of
//!   order** by request id, and [`NetServer::shutdown`] reuses the
//!   runtime's drain, returning the usual
//!   [`ServerReport`](qnn_serve::ServerReport) with its admission-ledger
//!   guarantee intact. A single-backend edge is bit-identical to the
//!   in-process client: same logits, same weight-version semantics.
//! * **[`Router`]** — consistent hashing on the model name shards
//!   traffic across backends (local clients or remote connections
//!   behind one [`Backend`] enum), spilling to the next ring node when
//!   the primary's queue depth crosses the configured threshold, and
//!   respecting per-backend health ([`BackendHealth::Draining`] backends
//!   finish their work but take no new traffic).
//! * **[`Autoscaler`]** — a control loop over the serving runtime's live
//!   [`LoadWindow`](qnn_serve::LoadWindow)s that grows a model's replica
//!   pool when interactive p95 or backlog breaches its target and
//!   shrinks it when the model goes idle, with hysteresis and cooldown
//!   so a noisy window never causes oscillation (see [`autoscale`] for
//!   the stability argument).
//!
//! Everything is `std`-only (`std::net` + `std::thread`), per the
//! workspace's hermetic-build policy.
//!
//! ## Example: loopback edge, remote client
//!
//! ```
//! use qnn_cluster::{NetClient, NetServer};
//! use qnn_nn::{models, Network};
//! use qnn_serve::{Server, SubmitOptions};
//! use qnn_tensor::{Shape3, Tensor3};
//!
//! let net = Network::random(models::test_net(8, 4, 2), 42);
//! let server = Server::builder().model("mnist", &net).start().expect("valid server");
//! let edge = NetServer::bind(server, "127.0.0.1:0").expect("bind loopback");
//!
//! let client = NetClient::connect(edge.local_addr()).expect("connect");
//! let img = Tensor3::from_fn(Shape3::square(8, 3), |y, x, c| ((y * 31 + x * 7 + c) % 255) as i8);
//! let ticket = client.submit(img, SubmitOptions::model("mnist")).expect("submit");
//! let response = ticket.wait().expect("answered");
//! assert_eq!(response.logits.len(), 4);
//!
//! drop(client);
//! let report = edge.shutdown();
//! assert_eq!(report.completed, 1);
//! ```

#![forbid(unsafe_code)]

pub mod autoscale;
pub mod config;
pub mod net;
pub mod router;
pub mod wire;

pub use autoscale::{Autoscaler, ScaleAction};
pub use config::{
    AutoscalerConfig, AutoscalerConfigBuilder, ClusterConfigError, RouterConfig,
    RouterConfigBuilder,
};
pub use net::{NetClient, NetError, NetResponse, NetServer, NetTicket};
pub use router::{
    Backend, BackendHealth, BackendStats, RouteDropped, RouteError, RouteResponse, RouteTicket,
    Router,
};
pub use wire::{
    ErrorCode, ErrorFrame, Frame, FrameBuffer, RequestFrame, ResponseFrame, WireError, MAGIC,
    MAX_FRAME, NO_REQUEST, VERSION,
};
