//! The replica autoscaler: a control loop that grows and shrinks each
//! model's replica pool from its live load windows.
//!
//! ## Control law
//!
//! Every tick, for every model, the scaler reads one
//! [`LoadWindow`] and classifies it:
//!
//! * **breached** — the window's interactive p95 exceeds `target_p95`,
//!   *or* the backlog exceeds `backlog_per_replica × replicas` (the
//!   backlog test catches pure batch floods, which produce no
//!   interactive samples at all);
//! * **idle** — nothing in flight and nothing new submitted since the
//!   previous tick;
//! * **steady** — otherwise.
//!
//! A pool grows by one replica after `up_hysteresis` *consecutive*
//! breached ticks and shrinks by one after `down_hysteresis` consecutive
//! idle ticks; a steady tick resets both streaks. After any resize the
//! model holds for `cooldown_ticks` ticks. Growth stops at
//! `max_replicas` (and at the cluster-wide `total_budget`, when set);
//! shrink stops at `min_replicas`.
//!
//! ## Why hysteresis + cooldown suffice for stability
//!
//! A single noisy window can look breached (one slow batch) or idle (a
//! gap between arrivals), so acting on one sample oscillates. Requiring a
//! *streak* means a transient of length `< up_hysteresis` ticks never
//! scales; and because a resize resets the streak **and** starts a
//! cooldown longer than the pipeline's flush latency, the loop always
//! observes at least one window produced by the *new* pool shape before
//! acting again — the feedback path never chases its own tail. Up- and
//! down-thresholds are separated (`down_hysteresis` is deliberately the
//! longer default), giving the classic asymmetric deadband: quick to add
//! capacity when latency is burning, slow to give it back.

use crate::config::{AutoscalerConfig, ClusterConfigError};
use qnn_serve::{LoadWindow, Server};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

/// One resize the autoscaler performed (its audit trail; the pool change
/// itself already happened via `Server::resize_pool`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScaleAction {
    /// Grew `model` from `from` to `to` replicas.
    Up {
        /// The scaled model.
        model: String,
        /// Pool size before.
        from: usize,
        /// Pool size after.
        to: usize,
    },
    /// Shrank `model` from `from` to `to` replicas.
    Down {
        /// The scaled model.
        model: String,
        /// Pool size before.
        from: usize,
        /// Pool size after.
        to: usize,
    },
}

/// Per-model control-loop state.
struct ModelState {
    model: String,
    breach_streak: u32,
    idle_streak: u32,
    cooldown: u32,
    last_submitted: u64,
}

/// The control loop. Drive it manually with [`Autoscaler::tick`] (tests,
/// custom pacing) or hand it a thread with [`Autoscaler::run`].
pub struct Autoscaler {
    config: AutoscalerConfig,
    states: Vec<ModelState>,
}

impl Autoscaler {
    /// An autoscaler managing every model registered on `server`, or why
    /// `config` is refused ([`AutoscalerConfig::validate`]).
    pub fn new(
        config: AutoscalerConfig,
        server: &Server,
    ) -> Result<Autoscaler, ClusterConfigError> {
        config.validate()?;
        let states = server
            .models()
            .into_iter()
            .map(|model| ModelState {
                model,
                breach_streak: 0,
                idle_streak: 0,
                cooldown: 0,
                last_submitted: 0,
            })
            .collect();
        Ok(Autoscaler { config, states })
    }

    /// The config the loop runs under.
    pub fn config(&self) -> &AutoscalerConfig {
        &self.config
    }

    /// One control tick: sample every model's window, update streaks, and
    /// apply at most one resize per model. Returns the resizes performed.
    pub fn tick(&mut self, server: &Server) -> Vec<ScaleAction> {
        let mut actions = Vec::new();
        // Exactly one window read per model per tick — reading drains the
        // interactive sample buffer, so a second read would see an empty
        // window.
        let windows: Vec<Option<LoadWindow>> =
            self.states.iter().map(|s| server.load_window(&s.model)).collect();
        // Budget check sums the *current* pool sizes across all managed
        // models — a grow is refused when it would push the sum past the
        // shared hardware budget.
        let mut total: usize = windows.iter().flatten().map(|w| w.replicas).sum();
        for (state, window) in self.states.iter_mut().zip(windows) {
            let Some(window) = window else { continue };
            let replicas = window.replicas;

            let breached = window
                .interactive
                .map(|l| l.p95 > self.config.target_p95)
                .unwrap_or(false)
                || window.in_flight > self.config.backlog_per_replica * replicas as u64;
            let idle = window.in_flight == 0 && window.submitted == state.last_submitted;
            state.last_submitted = window.submitted;

            if breached {
                state.breach_streak += 1;
                state.idle_streak = 0;
            } else if idle {
                state.idle_streak += 1;
                state.breach_streak = 0;
            } else {
                state.breach_streak = 0;
                state.idle_streak = 0;
            }

            if state.cooldown > 0 {
                state.cooldown -= 1;
                continue;
            }

            let budget_ok = self.config.total_budget.map(|b| total < b).unwrap_or(true);
            if state.breach_streak >= self.config.up_hysteresis
                && replicas < self.config.max_replicas
                && budget_ok
            {
                if let Ok((from, to)) = server.resize_pool(&state.model, replicas + 1) {
                    total += to - from;
                    actions.push(ScaleAction::Up { model: state.model.clone(), from, to });
                    state.breach_streak = 0;
                    state.cooldown = self.config.cooldown_ticks;
                }
            } else if state.idle_streak >= self.config.down_hysteresis
                && replicas > self.config.min_replicas
            {
                if let Ok((from, to)) = server.resize_pool(&state.model, replicas - 1) {
                    total -= from - to;
                    actions.push(ScaleAction::Down { model: state.model.clone(), from, to });
                    state.idle_streak = 0;
                    state.cooldown = self.config.cooldown_ticks;
                }
            }
        }
        actions
    }

    /// Run ticks every `config.interval` until `stop` is set (check beat
    /// = one interval). Returns every action taken, in order.
    pub fn run(mut self, server: &Server, stop: &AtomicBool) -> Vec<ScaleAction> {
        let mut actions = Vec::new();
        while !stop.load(Ordering::Acquire) {
            actions.extend(self.tick(server));
            thread::sleep(self.config.interval);
        }
        actions
    }
}
