//! The batcher's decisions as a state machine: lanes, flush rule, replica
//! choice, dispatch-time shedding and pool shape, with no threads, clock
//! reads, channels, locks or shared counters inside.
//!
//! The server's batcher thread drives a [`Core`]: it feeds each [`Event`]
//! to [`Core::on`] with the instant it woke at, performs the [`Action`]s
//! that come back (send a batch, answer a shed request, spawn or drop a
//! worker), and sleeps until an event arrives or [`Core::next_wake`]. The
//! same core runs in virtual time under the seeded suite in `core/tests.rs`.

use crate::config::Priority;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Batches a replica may hold: the one it runs and one queued behind it,
/// so it never idles between back-to-back batches but the batcher cannot
/// run arbitrarily far ahead of a slow replica.
pub(crate) const SLOT_DEPTH: usize = 2;

/// What the core reads of a request; everything else it carries opaquely.
pub(crate) trait Job {
    /// Index of the model the request is for.
    fn model(&self) -> usize;
    fn priority(&self) -> Priority;
    fn submitted_at(&self) -> Instant;
    /// Latency budget from submission; a request past it is shed.
    fn deadline(&self) -> Option<Duration>;
}

pub(crate) enum Event<R> {
    /// An admitted request.
    Arrive(R),
    /// Replica `replica` (a global id) answered its oldest batch.
    Done { replica: usize },
    /// Grow or shrink a model's pool to `replicas` workers.
    Resize { model: usize, replicas: usize },
    /// A wake-up with nothing new: only the clock moved.
    Tick,
    /// Admission closed: close every lane, whatever the replicas hold.
    Shutdown,
}

pub(crate) enum Action<R> {
    /// Send `requests` (1..=`max_batch` of one lane, in arrival order) to
    /// replica `replica` as batch `batch_id`.
    Dispatch { model: usize, replica: usize, batch_id: u64, priority: Priority, requests: Vec<R> },
    /// Answer a request whose deadline passed before its batch closed.
    Shed(R),
    /// Start a worker with global id `replica` at position `slot` of
    /// `model`'s pool.
    Spawn { model: usize, replica: usize, slot: usize },
    /// Stop feeding `replica`: it drains what it holds and exits.
    Retire { replica: usize },
}

/// The scheduler. A lane of (model, class) is *ready* when it is non-empty
/// and a replica of its pool has nothing in flight (work conservation), or
/// it holds `max_batch` requests, or its oldest request has waited the
/// class's flush deadline. A ready lane closes into a batch for the pool's
/// least-loaded replica among those holding fewer than [`SLOT_DEPTH`]
/// batches; with none, it stays one lane until a replica reports `Done`.
pub(crate) struct Core<R> {
    max_batch: usize,
    /// Flush deadline per class index.
    flush: [Duration; 2],
    /// Per model, per class index, in arrival order.
    lanes: Vec<[VecDeque<R>; 2]>,
    /// Per model, the global ids of its live replicas in slot order.
    pools: Vec<Vec<usize>>,
    /// Per global replica id (retired ones too), the image counts of the
    /// batches it holds, oldest first: a replica answers in send order.
    loads: Vec<VecDeque<usize>>,
    next_batch: u64,
    /// The instant of the last event.
    now: Option<Instant>,
    /// Actions of the event being applied.
    out: Vec<Action<R>>,
}

impl<R: Job> Core<R> {
    /// A core for `models` models with empty pools: size them with
    /// [`Event::Resize`].
    pub fn new(models: usize, max_batch: usize, flush: [Duration; 2]) -> Self {
        Core {
            max_batch,
            flush,
            lanes: (0..models).map(|_| Default::default()).collect(),
            pools: vec![Vec::new(); models],
            loads: Vec::new(),
            next_batch: 0,
            now: None,
            out: Vec::new(),
        }
    }

    /// Apply one event at `now` and return what the caller must do, in
    /// order: every ready lane closes, interactive lanes first.
    pub fn on(&mut self, event: Event<R>, now: Instant) -> Vec<Action<R>> {
        self.now = Some(now);
        // The shutdown drain closes every lane, ready or not, past
        // `SLOT_DEPTH` if it must.
        let drain = matches!(event, Event::Shutdown);
        match event {
            Event::Arrive(req) => self.lanes[req.model()][req.priority().index()].push_back(req),
            Event::Done { replica } => _ = self.loads[replica].pop_front(),
            Event::Resize { model, replicas } => self.resize(model, replicas),
            Event::Tick | Event::Shutdown => {}
        }
        for priority in Priority::ALL {
            for model in 0..self.lanes.len() {
                while (drain || self.ready(model, priority, now))
                    && self.close(model, priority, drain, now)
                {}
            }
        }
        std::mem::take(&mut self.out)
    }

    /// When the earliest lane still filling (under `max_batch`, oldest
    /// request inside its flush deadline) hits that deadline. A lane past
    /// it waits for a replica, not for the clock: `Done` wakes those.
    pub fn next_wake(&self) -> Option<Instant> {
        let now = self.now?;
        let lanes = self.lanes.iter().flat_map(|pair| pair.iter().zip(self.flush));
        let filling = lanes.filter(|(lane, _)| lane.len() < self.max_batch);
        let due = filling.filter_map(|(lane, flush)| Some(lane.front()?.submitted_at() + flush));
        due.filter(|&at| at > now).min()
    }

    fn resize(&mut self, model: usize, replicas: usize) {
        let pool = &mut self.pools[model];
        for replica in pool.drain(replicas.min(pool.len())..) {
            self.out.push(Action::Retire { replica });
        }
        while pool.len() < replicas {
            let replica = self.loads.len();
            self.loads.push(VecDeque::new());
            self.out.push(Action::Spawn { model, replica, slot: pool.len() });
            pool.push(replica);
        }
    }

    fn ready(&self, model: usize, priority: Priority, now: Instant) -> bool {
        let lane = &self.lanes[model][priority.index()];
        let Some(oldest) = lane.front() else { return false };
        lane.len() >= self.max_batch
            || now.duration_since(oldest.submitted_at()) >= self.flush[priority.index()]
            || self.pools[model].iter().any(|&r| self.loads[r].is_empty())
    }

    /// Close the front of a lane (up to `max_batch` requests) into a batch
    /// for the replica with the fewest images in flight among those that
    /// can take one (any, when `force`d; ties to the lowest slot), shedding
    /// requests already past their deadline. `false` when the lane is
    /// empty or no replica can take a batch.
    fn close(&mut self, model: usize, priority: Priority, force: bool, now: Instant) -> bool {
        let lane = &mut self.lanes[model][priority.index()];
        let loads = &mut self.loads;
        let accepts = |r: &&usize| force || loads[**r].len() < SLOT_DEPTH;
        let images = |r: &&usize| loads[**r].iter().sum::<usize>();
        let least = self.pools[model].iter().filter(accepts).min_by_key(images);
        let Some(&replica) = least.filter(|_| !lane.is_empty()) else { return false };
        let take = lane.len().min(self.max_batch);
        let mut requests = Vec::with_capacity(take);
        for req in lane.drain(..take) {
            match req.deadline() {
                Some(budget) if now.duration_since(req.submitted_at()) > budget => {
                    self.out.push(Action::Shed(req));
                }
                _ => requests.push(req),
            }
        }
        if !requests.is_empty() {
            loads[replica].push_back(requests.len());
            let batch_id = self.next_batch;
            self.next_batch += 1;
            self.out.push(Action::Dispatch { model, replica, batch_id, priority, requests });
        }
        true
    }
}

#[cfg(test)]
mod tests;
