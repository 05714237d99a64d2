//! The scheduling core in virtual time: time is a base `Instant` plus
//! `Duration`s and every replica is a fake that answers a batch after its
//! own service time, so nothing here sleeps and every outcome is exact.
//!
//! [`Sim`] drives a [`Core`] and checks it after every event against a
//! model of its own (mirror lanes, per-replica loads counted from the
//! actions). The seeded property draws whole traffic histories; the exact
//! cases replay the scenarios of the wall-clock policy tests in
//! `tests/serving.rs` and pin every batch id and size.

use super::*;
use qnn_testkit::prop::CaseError;
use qnn_testkit::{any, Rng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const INTERACTIVE: Priority = Priority::Interactive;
const BATCH: Priority = Priority::Batch;

fn ms(ms: u64) -> Duration {
    Duration::from_millis(ms)
}

#[derive(Clone, Debug, PartialEq)]
struct Req {
    id: u64,
    model: usize,
    priority: Priority,
    submitted_at: Instant,
    deadline: Option<Duration>,
}

impl Job for Req {
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

/// One `Dispatch`, as the exact cases read it back.
#[derive(Clone, Debug, PartialEq)]
struct Sent {
    /// Virtual time of the step that sent it.
    at: Duration,
    batch_id: u64,
    model: usize,
    replica: usize,
    priority: Priority,
    ids: Vec<u64>,
}

/// A core, fake replicas, a virtual clock and the checker.
struct Sim {
    core: Core<Req>,
    base: Instant,
    now: Instant,
    max_batch: usize,
    flush: [Duration; 2],
    /// Service time of a replica, drawn when it is spawned.
    service: Box<dyn FnMut(usize) -> Duration>,
    /// Per replica id: service time, and when its last batch finishes.
    services: Vec<Duration>,
    busy_until: Vec<Instant>,
    /// Pending `Done` deliveries: (when, sequence, replica).
    done: BinaryHeap<Reverse<(Instant, u64, usize)>>,
    seq: u64,
    next_id: u64,
    // The checker's own model of the core.
    lanes: Vec<[VecDeque<Req>; 2]>,
    pools: Vec<Vec<usize>>,
    inflight: Vec<VecDeque<usize>>,
    arrived: Vec<u64>,
    dispatched: Vec<u64>,
    shed: Vec<u64>,
    last_batch: Option<u64>,
    draining: bool,
    sent: Vec<Sent>,
    trace: Vec<String>,
}

impl Sim {
    fn new(
        max_batch: usize,
        flush: [Duration; 2],
        pools: &[usize],
        service: impl FnMut(usize) -> Duration + 'static,
    ) -> Sim {
        let base = Instant::now();
        let models = pools.len();
        let mut sim = Sim {
            core: Core::new(models, max_batch, flush),
            base,
            now: base,
            max_batch,
            flush,
            service: Box::new(service),
            services: Vec::new(),
            busy_until: Vec::new(),
            done: BinaryHeap::new(),
            seq: 0,
            next_id: 0,
            lanes: (0..models).map(|_| Default::default()).collect(),
            pools: vec![Vec::new(); models],
            inflight: Vec::new(),
            arrived: vec![0; models],
            dispatched: vec![0; models],
            shed: vec![0; models],
            last_batch: None,
            draining: false,
            sent: Vec::new(),
            trace: Vec::new(),
        };
        for (model, &replicas) in pools.iter().enumerate() {
            sim.step(Event::Resize { model, replicas }).unwrap_or_else(|e| panic!("{e}"));
        }
        sim
    }

    fn t(&self) -> Duration {
        self.now - self.base
    }

    /// Deliver every `Done` and timer wake-up due by `at`, then set the
    /// clock to `at`.
    fn advance(&mut self, at: Duration) -> Result<(), String> {
        let at = self.base + at;
        loop {
            let done = self.done.peek().map(|Reverse((when, _, _))| *when).filter(|&w| w <= at);
            let wake = self.core.next_wake().filter(|&w| w <= at);
            match (done, wake) {
                (Some(d), w) if w.is_none_or(|w| d <= w) => {
                    let Reverse((when, _, replica)) = self.done.pop().expect("peeked");
                    self.now = when;
                    self.step(Event::Done { replica })?;
                }
                (_, Some(w)) => {
                    self.now = w;
                    self.step(Event::Tick)?;
                }
                _ => break,
            }
        }
        self.now = at;
        Ok(())
    }

    /// A request for `model` of class `priority` arrives now.
    fn arrive(
        &mut self,
        model: usize,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<u64, String> {
        let id = self.next_id;
        self.next_id += 1;
        let req = Req { id, model, priority, submitted_at: self.now, deadline };
        self.step(Event::Arrive(req))?;
        Ok(id)
    }

    fn resize(&mut self, model: usize, replicas: usize) -> Result<(), String> {
        self.step(Event::Resize { model, replicas })
    }

    /// Run until every replica has answered everything and no lane waits:
    /// the moment a client has every answer.
    fn settle(&mut self) -> Result<(), String> {
        let done = |sim: &Sim| sim.done.peek().map(|Reverse((when, _, _))| *when);
        while let Some(next) = done(self).into_iter().chain(self.core.next_wake()).min() {
            self.advance(next - self.base)?;
        }
        Ok(())
    }

    /// Shut down now and deliver every outstanding `Done`.
    fn finish(&mut self) -> Result<(), String> {
        self.step(Event::Shutdown)?;
        while let Some(Reverse((when, _, replica))) = self.done.pop() {
            self.now = when;
            self.step(Event::Done { replica })?;
        }
        if let Some(r) = self.inflight.iter().position(|held| !held.is_empty()) {
            return Err(format!("replica {r} still holds {:?} at quiescence", self.inflight[r]));
        }
        if let Some(r) = self.core.loads.iter().position(|held| !held.is_empty()) {
            return Err(format!("the core still counts {:?} on replica {r}", self.core.loads[r]));
        }
        Ok(())
    }

    /// The checker's readiness of a lane (the rule, restated).
    fn ready(&self, model: usize, priority: Priority) -> bool {
        let lane = &self.lanes[model][priority.index()];
        let Some(oldest) = lane.front() else { return false };
        lane.len() >= self.max_batch
            || self.now - oldest.submitted_at >= self.flush[priority.index()]
            || self.pools[model].iter().any(|&r| self.inflight[r].is_empty())
    }

    fn step(&mut self, event: Event<Req>) -> Result<(), String> {
        let t = self.t();
        let line = match &event {
            Event::Arrive(r) => {
                let (id, model, priority) = (r.id, r.model, r.priority);
                format!("{t:?} arrive #{id} m{model} {priority} deadline {:?}", r.deadline)
            }
            Event::Done { replica } => format!("{t:?} done r{replica}"),
            Event::Resize { model, replicas } => format!("{t:?} resize m{model} to {replicas}"),
            Event::Tick => format!("{t:?} tick"),
            Event::Shutdown => format!("{t:?} shutdown"),
        };
        self.trace.push(line);
        match &event {
            Event::Arrive(r) => {
                self.arrived[r.model] += 1;
                self.lanes[r.model][r.priority.index()].push_back(r.clone());
            }
            Event::Done { replica } => {
                if self.inflight[*replica].pop_front().is_none() {
                    return Err(format!("done from r{replica}, which holds nothing"));
                }
            }
            Event::Shutdown => self.draining = true,
            Event::Resize { .. } | Event::Tick => {}
        }
        let actions = self.core.on(event, self.now);
        for action in actions {
            self.trace.push(match &action {
                Action::Dispatch { model, replica, batch_id, priority, requests } => {
                    let ids: Vec<u64> = requests.iter().map(|r| r.id).collect();
                    format!("    dispatch b{batch_id} m{model} {priority} to r{replica}: {ids:?}")
                }
                Action::Shed(r) => format!("    shed #{}", r.id),
                Action::Spawn { model, replica, slot } => {
                    format!("    spawn r{replica} at m{model} slot {slot}")
                }
                Action::Retire { replica } => format!("    retire r{replica}"),
            });
            self.check_action(action)?;
        }
        self.check_state()
    }

    fn check_action(&mut self, action: Action<Req>) -> Result<(), String> {
        match action {
            Action::Spawn { model, replica, slot } => {
                if replica != self.inflight.len() || slot != self.pools[model].len() {
                    return Err(format!("spawned r{replica} at slot {slot} out of order"));
                }
                self.inflight.push(VecDeque::new());
                self.services.push((self.service)(replica));
                self.busy_until.push(self.now);
                self.pools[model].push(replica);
            }
            Action::Retire { replica } => {
                let Some(pool) = self.pools.iter_mut().find(|p| p.contains(&replica)) else {
                    return Err(format!("retired r{replica}, which is in no pool"));
                };
                pool.retain(|&r| r != replica);
            }
            Action::Shed(req) => {
                let budget = req.deadline.ok_or("shed a request with no deadline")?;
                if self.now - req.submitted_at <= budget {
                    return Err(format!("shed #{} inside its deadline", req.id));
                }
                let lane = &mut self.lanes[req.model][req.priority.index()];
                let at = lane.iter().position(|r| r.id == req.id).ok_or("shed an unknown request")?;
                lane.remove(at);
                self.shed[req.model] += 1;
            }
            Action::Dispatch { model, replica, batch_id, priority, requests } => {
                let n = requests.len();
                if n == 0 || n > self.max_batch {
                    return Err(format!("batch {batch_id} holds {n} requests"));
                }
                if self.last_batch.is_some_and(|last| batch_id <= last) {
                    return Err(format!("batch id {batch_id} after {:?}", self.last_batch));
                }
                self.last_batch = Some(batch_id);
                if !self.pools[model].contains(&replica) {
                    return Err(format!("batch {batch_id} sent to r{replica}, outside m{model}"));
                }
                if priority == BATCH && !self.draining && self.ready(model, INTERACTIVE) {
                    let before = "went before a ready interactive lane";
                    return Err(format!("batch-class batch {batch_id} {before}"));
                }
                let lane = &mut self.lanes[model][priority.index()];
                let front: Vec<Req> = lane.drain(..n.min(lane.len())).collect();
                if front != requests {
                    return Err(format!("batch {batch_id} is not the front of its lane in order"));
                }
                if let Some(late) = requests
                    .iter()
                    .find(|r| r.deadline.is_some_and(|d| self.now - r.submitted_at > d))
                {
                    return Err(format!("dispatched #{} past its deadline", late.id));
                }
                self.dispatched[model] += n as u64;
                self.inflight[replica].push_back(n);
                if !self.draining && self.inflight[replica].len() > SLOT_DEPTH {
                    return Err(format!("r{replica} holds {:?} batches", self.inflight[replica]));
                }
                let finish = self.busy_until[replica].max(self.now) + self.services[replica];
                self.busy_until[replica] = finish;
                self.done.push(Reverse((finish, self.seq, replica)));
                self.seq += 1;
                let ids = requests.iter().map(|r| r.id).collect();
                let at = self.t();
                self.sent.push(Sent { at, batch_id, model, replica, priority, ids });
            }
        }
        Ok(())
    }

    fn check_state(&self) -> Result<(), String> {
        for model in 0..self.lanes.len() {
            let laned: usize = self.core.lanes[model].iter().map(VecDeque::len).sum();
            let (arrived, dispatched, shed) =
                (self.arrived[model], self.dispatched[model], self.shed[model]);
            if arrived != laned as u64 + dispatched + shed {
                return Err(format!(
                    "m{model}: arrived {arrived} != laned {laned} + sent {dispatched} + shed {shed}"
                ));
            }
            for priority in Priority::ALL {
                let lane = &self.lanes[model][priority.index()];
                if self.draining && !lane.is_empty() {
                    let held = lane.len();
                    return Err(format!("m{model} {priority} lane holds {held} after shutdown"));
                }
                let idle = self.pools[model].iter().find(|&&r| self.inflight[r].is_empty());
                if let (false, Some(r)) = (lane.is_empty(), idle) {
                    return Err(format!("m{model} {priority} lane waits beside idle r{r}"));
                }
                let open = self.pools[model].iter().find(|&&r| self.inflight[r].len() < SLOT_DEPTH);
                if let (true, Some(r)) = (self.ready(model, priority), open) {
                    return Err(format!("m{model} {priority} lane is ready and r{r} has room"));
                }
            }
        }
        if !self.draining {
            let now = self.now;
            let lanes = self.lanes.iter().flat_map(|pair| pair.iter().zip(self.flush));
            let expect = lanes
                .filter(|(lane, _)| !lane.is_empty() && lane.len() < self.max_batch)
                .map(|(lane, flush)| lane[0].submitted_at + flush)
                .filter(|&at| at > now)
                .min();
            if self.core.next_wake() != expect {
                return Err(format!("next_wake {:?}, expected {expect:?}", self.core.next_wake()));
            }
        }
        Ok(())
    }

    /// The batches sent, as (batch id, replica, ids).
    fn batches(&self) -> Vec<(u64, usize, Vec<u64>)> {
        self.sent.iter().map(|s| (s.batch_id, s.replica, s.ids.clone())).collect()
    }

    /// Fail with the trace.
    fn check(&self, result: Result<(), String>) {
        if let Err(e) = result {
            panic!("{e}\ntrace:\n{}", self.trace.join("\n"));
        }
    }
}

/// Draw one traffic history from `seed` and run it to quiescence.
fn simulate(seed: u64) -> Result<(), String> {
    let mut rng = Rng::seed_from_u64(seed);
    let models = rng.gen_range(1..=3usize);
    let max_batch = rng.gen_range(1..=5usize);
    let flush = [Duration::from_micros(rng.gen_range(0..3_000u64)), ms(rng.gen_range(0..12u64))];
    let pools: Vec<usize> = (0..models).map(|_| rng.gen_range(1..=3usize)).collect();
    let mut draws = Rng::seed_from_u64(seed ^ 0x5EED);
    let service = move |_| Duration::from_micros(draws.gen_range(200..15_000u64));
    let mut sim = Sim::new(max_batch, flush, &pools, service);
    let steps = rng.gen_range(20..160);
    let run = (|| {
        let mut at = Duration::ZERO;
        for _ in 0..steps {
            at += Duration::from_micros(rng.gen_range(0..2_500u64));
            sim.advance(at)?;
            let model = rng.gen_range(0..models);
            if rng.gen_bool(0.06) {
                sim.resize(model, rng.gen_range(1..=3usize))?;
            } else {
                let priority = Priority::ALL[rng.gen_range(0..2usize)];
                let deadline = rng.gen_bool(0.3).then(|| ms(rng.gen_range(0..20u64)));
                sim.arrive(model, priority, deadline)?;
            }
        }
        sim.advance(at + Duration::from_micros(rng.gen_range(0..30_000u64)))?;
        sim.finish()
    })();
    run.map_err(|e| {
        let trace = &sim.trace[sim.trace.len().saturating_sub(120)..];
        format!("seed {seed:#x}: {e}\nlast {} trace lines:\n{}", trace.len(), trace.join("\n"))
    })
}

qnn_testkit::props! {
    #![cases = 256]
    /// Arrivals across 1–3 models, both classes and optional deadlines,
    /// with pool resizes, against fake replicas of drawn service times:
    /// every invariant the checker knows holds after every event.
    #[test]
    fn drawn_traffic_keeps_every_scheduling_invariant(seed in any::<u64>()) {
        if let Err(report) = simulate(seed) {
            return Err(CaseError::Fail(report));
        }
    }
}

/// Twin of `idle_pool_answers_a_lone_request_without_waiting_for_company`:
/// flush bounds far away, and the lone request still leaves on arrival.
#[test]
fn idle_pool_dispatches_a_lone_request_on_arrival() {
    let mut sim = Sim::new(64, [ms(10_000); 2], &[1], |_| ms(5));
    let id = sim.arrive(0, BATCH, None).unwrap();
    assert_eq!(sim.batches(), vec![(0, 0, vec![id])]);
    assert_eq!(sim.sent[0].at, Duration::ZERO);
    let result = sim.finish();
    sim.check(result);
    assert_eq!(sim.sent.len(), 1);
}

/// Twin of `work_is_sharded_across_replicas`: 12 single-image batches on
/// three 5 ms replicas go round the pool, four each.
#[test]
fn least_loaded_dispatch_shards_round_the_pool() {
    let mut sim = Sim::new(1, [ms(2), ms(2)], &[3], |_| ms(5));
    for _ in 0..12 {
        let result = sim.arrive(0, BATCH, None).map(drop);
        sim.check(result);
    }
    let result = sim.settle().and_then(|()| sim.finish());
    sim.check(result);
    let expect: Vec<_> = (0..12u64).map(|b| (b, b as usize % 3, vec![b])).collect();
    assert_eq!(sim.batches(), expect);
}

/// Twin of `least_loaded_dispatch_steers_work_away_from_a_slow_replica`:
/// the 60 ms replica takes two batches before it can take no more; the
/// 1 ms one takes the other ten as it drains.
#[test]
fn least_loaded_dispatch_keeps_a_slow_replica_to_its_two_slots() {
    let mut sim = Sim::new(1, [ms(2), ms(2)], &[2], |r| [ms(60), ms(1)][r]);
    for _ in 0..12 {
        let result = sim.arrive(0, BATCH, None).map(drop);
        sim.check(result);
    }
    let result = sim.settle().and_then(|()| sim.finish());
    sim.check(result);
    let on = |replica| -> Vec<u64> {
        sim.sent.iter().filter(|s| s.replica == replica).map(|s| s.batch_id).collect()
    };
    assert_eq!(on(0), vec![0, 2]);
    assert_eq!(on(1), vec![1, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
    assert!(sim.sent.iter().all(|s| s.ids == vec![s.batch_id]));
}

/// Twin of `busy_pool_coalesces_arrivals_and_serves_interactive_first`.
#[test]
fn busy_pool_coalesces_and_serves_interactive_first() {
    let mut sim = Sim::new(4, [ms(10_000); 2], &[1], |_| ms(300));
    let run = (|| {
        let head = sim.arrive(0, BATCH, None)?;
        sim.advance(ms(50))?;
        let batch: Vec<u64> = (0..6).map(|_| sim.arrive(0, BATCH, None)).collect::<Result<_, _>>()?;
        let fast: Vec<u64> =
            (0..2).map(|_| sim.arrive(0, INTERACTIVE, None)).collect::<Result<_, _>>()?;
        sim.settle()?;
        sim.finish()?;
        Ok::<_, String>((head, batch, fast))
    })();
    let (head, batch, fast) = run.unwrap_or_else(|e| panic!("{e}\n{}", sim.trace.join("\n")));
    assert_eq!(
        sim.batches(),
        vec![
            (0, 0, vec![head]),
            (1, 0, batch[..4].to_vec()),
            (2, 0, fast.clone()),
            (3, 0, batch[4..].to_vec()),
        ]
    );
    let at: Vec<Duration> = sim.sent.iter().map(|s| s.at).collect();
    assert_eq!(at, vec![ms(0), ms(50), ms(600), ms(900)]);
    assert_eq!(sim.sent[2].priority, INTERACTIVE);
}

/// Twin of `partial_interactive_batch_closes_at_its_own_deadline_on_a_busy_pool`:
/// a batch-class flood fills its lane while the replica is busy; one
/// interactive request closes alone at its 2 ms deadline, ahead of it.
#[test]
fn partial_interactive_batch_closes_at_its_own_deadline() {
    let mut sim = Sim::new(400, [ms(2), ms(10_000)], &[1], |_| ms(150));
    let run = (|| {
        let head = sim.arrive(0, BATCH, None)?;
        let mut flood = Vec::new();
        let mut fast = None;
        for i in 1..=50 {
            sim.advance(ms(2 * i))?;
            flood.push(sim.arrive(0, BATCH, None)?);
            if i == 25 {
                sim.advance(ms(51))?;
                fast = Some(sim.arrive(0, INTERACTIVE, None)?);
            }
        }
        sim.settle()?;
        sim.finish()?;
        Ok::<_, String>((head, fast.expect("sent"), flood))
    })();
    let (head, fast, flood) = run.unwrap_or_else(|e| panic!("{e}\n{}", sim.trace.join("\n")));
    assert_eq!(sim.batches(), vec![(0, 0, vec![head]), (1, 0, vec![fast]), (2, 0, flood)]);
    let at: Vec<Duration> = sim.sent.iter().map(|s| s.at).collect();
    assert_eq!(at, vec![ms(0), ms(53), ms(300)]);
}

/// Twin of `saturated_model_does_not_delay_another_models_idle_replica`:
/// model 0's lane is full and overdue behind its one busy replica; model
/// 1's request goes to model 1's idle replica on arrival.
#[test]
fn saturated_model_does_not_hold_back_another_models_idle_replica() {
    let mut sim = Sim::new(2, [ms(1), ms(1)], &[1, 1], |r| [ms(100), ms(1)][r]);
    let run = (|| {
        let flood: Vec<u64> =
            (0..12).map(|_| sim.arrive(0, BATCH, None)).collect::<Result<_, _>>()?;
        sim.advance(ms(10))?;
        let other = sim.arrive(1, BATCH, None)?;
        sim.settle()?;
        sim.finish()?;
        Ok::<_, String>((flood, other))
    })();
    let (a, b) = run.unwrap_or_else(|e| panic!("{e}\n{}", sim.trace.join("\n")));
    assert_eq!(
        sim.batches(),
        vec![
            (0, 0, vec![a[0]]),
            (1, 0, a[1..3].to_vec()),
            (2, 1, vec![b]),
            (3, 0, a[3..5].to_vec()),
            (4, 0, a[5..7].to_vec()),
            (5, 0, a[7..9].to_vec()),
            (6, 0, a[9..11].to_vec()),
            (7, 0, a[11..].to_vec()),
        ]
    );
    assert_eq!(sim.sent[2].at, ms(10));
}

/// Loads are keyed by global replica id: a replica retired with a batch
/// still queued answers it late, and that `Done` must not credit the
/// replica spawned at its old slot, which takes work at once when it is
/// idle and none past `SLOT_DEPTH` when it is not.
#[test]
fn a_retired_replicas_late_done_credits_no_one_else() {
    let mut sim = Sim::new(1, [ms(1), ms(1)], &[2], |r| [ms(1_000), ms(100), ms(1_000)][r]);
    let run = (|| {
        for _ in 0..4 {
            sim.arrive(0, BATCH, None)?;
        }
        sim.advance(ms(1))?;
        sim.resize(0, 1)?;
        sim.advance(ms(2))?;
        sim.resize(0, 2)?;
        sim.advance(ms(3))?;
        sim.arrive(0, BATCH, None)?;
        sim.advance(ms(4))?;
        sim.arrive(0, BATCH, None)?;
        // Replica 1's first late `Done` lands at 100 ms.
        sim.advance(ms(150))?;
        sim.arrive(0, BATCH, None)?;
        sim.settle()?;
        sim.finish()
    })();
    sim.check(run);
    assert_eq!(sim.pools, vec![vec![0, 2]]);
    assert_eq!(
        sim.batches()[..6],
        [
            (0, 0, vec![0]),
            (1, 1, vec![1]),
            (2, 0, vec![2]),
            (3, 1, vec![3]),
            (4, 2, vec![4]),
            (5, 2, vec![5]),
        ]
    );
    let at: Vec<Duration> = sim.sent.iter().map(|s| s.at).collect();
    assert_eq!(at[4..6], [ms(3), ms(4)], "the fresh replica took work on arrival");
    // Request 6 waits for a slot: the next `Done` of replica 0 or 2.
    assert_eq!(sim.sent[6].at, ms(1_000));
}

/// Shed requests leave the lane with the batch they would have joined,
/// and the lane's live requests still go out together.
#[test]
fn expired_requests_are_shed_when_their_lane_closes() {
    let mut sim = Sim::new(4, [ms(1), ms(1)], &[1], |_| ms(50));
    let run = (|| {
        sim.arrive(0, BATCH, None)?;
        let late = sim.arrive(0, BATCH, Some(ms(5)))?;
        let kept = sim.arrive(0, BATCH, Some(ms(500)))?;
        sim.settle()?;
        sim.finish()?;
        Ok::<_, String>((late, kept))
    })();
    let (_, kept) = run.unwrap_or_else(|e| panic!("{e}\n{}", sim.trace.join("\n")));
    assert_eq!(sim.shed, vec![0]);
    // The lane closes at its 1 ms deadline, before the 5 ms budget ends.
    assert_eq!(sim.batches()[1], (1, 0, vec![1, kept]));
    let mut shed = Sim::new(4, [ms(10), ms(10)], &[1], |_| ms(50));
    let run = (|| {
        shed.arrive(0, BATCH, None)?;
        shed.arrive(0, BATCH, Some(ms(5)))?;
        shed.advance(ms(10))?;
        shed.finish()
    })();
    shed.check(run);
    assert_eq!(shed.shed, vec![1]);
    assert_eq!(shed.batches(), vec![(0, 0, vec![0])]);
}
