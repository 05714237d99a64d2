//! `qnn-testkit` — hermetic, std-only test infrastructure for the
//! streaming-QNN reproduction.
//!
//! The workspace's hermetic-build policy (README "Hermetic builds") bans
//! external crates: tier-1 verification must succeed on a network-isolated
//! machine, from a clean checkout, with bit-identical results across runs.
//! This crate supplies the three things the suite previously pulled from
//! crates.io:
//!
//! * [`Rng`] — a deterministic xoshiro256** PRNG (replaces `rand`), used
//!   both by tests and by seeded parameter/image generation in `qnn-nn`
//!   and `qnn-data`;
//! * [`prop`] + the [`props!`] macro — a seeded property-testing harness
//!   with shrink-on-failure (replaces `proptest`), tuned via
//!   `QNN_TEST_SEED` / `QNN_TEST_CASES`;
//! * [`mod@bench`] — a wall-clock warmup/iterate/median/p95 runner for the
//!   `harness = false` benches (replaces `criterion`).

#![forbid(unsafe_code)]

pub mod bench;
pub mod prop;
pub mod rng;

pub use bench::{black_box, Bench};
pub use prop::{any, map, vec, Strategy};
pub use rng::{splitmix64, Rng};
