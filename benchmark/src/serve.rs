//! `serve_mix_loopback`: requests through `Router` → `NetClient` → loopback
//! TCP → `NetServer` → `Server` batcher → replica and back. The models are
//! small, so serving, wire and per-batch lowering are a large share of a
//! request and the simulator a small one: the inverse of the sim workloads.
//!
//! Phase 1 is an open loop (independent users): requests are due on a fixed
//! schedule and timed from the instant they were due, while new weights for
//! `cnn-a` are published beside the reads. Phase 2 is a closed loop
//! (callers that each wait for their reply) and gives the throughput.

use crate::iso;
use crate::json::Value;
use crate::measure::{fastest, median, ms, peak_rss_mib, percentile, Trace, Yardstick};
use crate::report::Outcome;
use crate::sim::{self, random_image, OpInput, SplitOp};
use crate::Plan;
use qnn::cluster::{Backend, NetClient, NetServer, NetTicket, RouteTicket, Router, RouterConfig};
use qnn::compiler::{run_images, CompileOptions};
use qnn::hw::{CycleModel, FoldPlan};
use qnn::nn::{models, Network, NetworkSpec};
use qnn::serve::{
    Client, Priority, RequestStats, Server, ServerConfig, ServerReport, SubmitOptions, Ticket,
};
use qnn::tensor::Tensor3;
use qnn_testkit::Rng;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

pub const NAME: &str = "serve_mix_loopback";

const MODELS: [&str; 4] = ["cnn-a", "cnn-b", "txf-a", "txf-b"];
/// Under these names the router's consistent hash gives each edge two of
/// the four models (`cluster.backend_share_max` shows the split); under
/// `a`/`b` one edge would own all four and the other would idle.
const EDGES: [&str; 2] = ["edge0", "edge1"];
/// Open-loop arrival rate, about a third of what the cluster saturates at.
const OPEN_RATE: f64 = 400.0;
/// A request later than this after it was due, or failed, counts as late.
const LIMIT_MS: f64 = 20.0;
const PUBLISH_EVERY: Duration = Duration::from_secs(2);
/// In `--quick` runs, whose phases are shorter than `PUBLISH_EVERY`.
const QUICK_PUBLISH_EVERY: Duration = Duration::from_millis(400);
const CLOSED_CLIENTS: usize = 8;
const INTERACTIVE_SHARE: f64 = 0.2;
const IMAGE_POOL: usize = 16;
const WARM_UP_REQUESTS: u64 = 40;
/// How long before a request is due the open-loop generator stops sleeping.
const SPIN: Duration = Duration::from_micros(200);

fn spec_of(model: usize) -> NetworkSpec {
    if model < 2 {
        models::test_net(16, 10, 2)
    } else {
        models::tiny_transformer(16, 2, 8, 10, 2, 32)
    }
}

#[derive(Clone, Copy)]
struct Req {
    model: usize,
    interactive: bool,
    image: usize,
}

/// Request `i` of the schedule `seed` names: an even model mix, a fifth of
/// it interactive.
fn request(seed: u64, i: u64) -> Req {
    let mut rng = Rng::seed_from_u64(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    Req {
        model: rng.below(MODELS.len() as u64) as usize,
        interactive: rng.gen_bool(INTERACTIVE_SHARE),
        image: rng.below(IMAGE_POOL as u64) as usize,
    }
}

struct Fixture {
    nets: Vec<Network>,
    /// `payloads[k]` becomes version `k + 1` of `cnn-a`.
    payloads: Vec<Network>,
    /// One pool per model; models of one spec share the images.
    inputs: Vec<OpInput>,
    /// `cnn_a_refs[v][image]`: the oracle for `cnn-a` at weight version `v`.
    cnn_a_refs: Vec<Vec<Vec<i32>>>,
    /// Simulated cycles of one image alone, per model.
    cycles: Vec<u64>,
}

impl Fixture {
    fn generate(seed: u64, publishes: usize) -> Fixture {
        let mut rng = Rng::seed_from_u64(seed);
        let nets: Vec<Network> = (0..MODELS.len())
            .map(|m| Network::random(spec_of(m), rng.next_u64()))
            .collect();
        let payloads: Vec<Network> = (0..publishes)
            .map(|_| Network::random(spec_of(0), rng.next_u64()))
            .collect();
        let pools: Vec<Vec<Tensor3<i8>>> = [0, 2]
            .iter()
            .map(|&m| {
                (0..IMAGE_POOL)
                    .map(|_| random_image(nets[m].spec.input, &mut rng))
                    .collect()
            })
            .collect();
        let refs_of = |net: &Network, pool: &[Tensor3<i8>]| -> Vec<Vec<i32>> {
            pool.iter().map(|img| net.forward(img).logits).collect()
        };
        let inputs: Vec<OpInput> = nets
            .iter()
            .enumerate()
            .map(|(m, net)| OpInput {
                images: pools[m / 2].clone(),
                refs: refs_of(net, &pools[m / 2]),
            })
            .collect();
        let cnn_a_refs = std::iter::once(&nets[0])
            .chain(&payloads)
            .map(|net| refs_of(net, &pools[0]))
            .collect();
        let cycles = nets
            .iter()
            .zip(&inputs)
            .map(|(net, input)| {
                let sim = run_images(net, &input.images[..1], &CompileOptions::default())
                    .expect("single-image sim of a served model");
                assert_eq!(
                    sim.logits[0], input.refs[0],
                    "sim disagrees with Network::forward"
                );
                sim.cycles()
            })
            .collect();
        Fixture {
            nets,
            payloads,
            inputs,
            cnn_a_refs,
            cycles,
        }
    }

    fn is_correct(&self, req: &Req, version: u64, logits: &[i32]) -> bool {
        let expected = if req.model == 0 {
            self.cnn_a_refs
                .get(version as usize)
                .map(|refs| &refs[req.image])
        } else {
            (version == 0).then(|| &self.inputs[req.model].refs[req.image])
        };
        expected.is_some_and(|e| e == logits)
    }
}

/// Two edges on loopback behind one router.
struct Cluster {
    edges: Vec<NetServer>,
    router: Router,
    /// Edge index the router sends each model to.
    owner: Vec<usize>,
    published: AtomicUsize,
}

impl Cluster {
    fn start(fx: &Fixture) -> Cluster {
        let config = ServerConfig::builder()
            .replicas(1)
            .max_batch(4)
            .flush_deadline(Duration::from_millis(4))
            .interactive_flush_deadline(Duration::from_millis(1))
            .build()
            .expect("valid server config");
        let edges: Vec<NetServer> = EDGES
            .iter()
            .map(|_| {
                let mut builder = Server::builder().config(config.clone());
                for (name, net) in MODELS.iter().zip(&fx.nets) {
                    builder = builder.model(*name, net);
                }
                let server = builder.start().expect("valid server");
                NetServer::bind(server, "127.0.0.1:0").expect("bind a loopback edge")
            })
            .collect();
        let backends = EDGES
            .iter()
            .zip(&edges)
            .map(|(name, edge)| {
                let client = NetClient::connect(edge.local_addr()).expect("connect to an edge");
                (name.to_string(), Backend::Remote(client))
            })
            .collect();
        let router = Router::new(RouterConfig::default(), backends).expect("valid router");
        let owner = MODELS
            .iter()
            .map(|m| {
                let backend = router.route(m).expect("routable model");
                EDGES
                    .iter()
                    .position(|e| *e == backend)
                    .expect("a known edge")
            })
            .collect();
        Cluster {
            edges,
            router,
            owner,
            published: AtomicUsize::new(0),
        }
    }

    /// Publish the next `cnn-a` payload on the edge that owns it; returns
    /// how long the publish call took.
    fn publish(&self, fx: &Fixture) -> Duration {
        let k = self.published.fetch_add(1, Ordering::SeqCst);
        let payload = fx
            .payloads
            .get(k)
            .expect("a payload for every publish")
            .clone();
        let t = Instant::now();
        let version = self.edges[self.owner[0]]
            .server()
            .publish_weights(MODELS[0], payload)
            .expect("publish of a same-spec network");
        let took = t.elapsed();
        assert_eq!(version, k as u64 + 1, "weight versions count publishes");
        took
    }

    /// Largest share of routed requests one backend got, and spill-ins.
    fn routing(&self) -> (f64, u64) {
        let stats = self.router.stats();
        let routed: u64 = stats.iter().map(|s| s.routed).sum();
        let most = stats.iter().map(|s| s.routed).max().unwrap_or(0);
        (
            most as f64 / routed.max(1) as f64,
            stats.iter().map(|s| s.spilled_in).sum(),
        )
    }

    fn stop(self) -> Vec<ServerReport> {
        drop(self.router);
        self.edges.into_iter().map(NetServer::shutdown).collect()
    }
}

/// The three ways in: the whole path, the path without the router, and the
/// path without router and wire.
enum Target<'a> {
    Router(&'a Router),
    Net(&'a [NetClient]),
    InProc(&'a [Client]),
}

enum Pending {
    Route(RouteTicket),
    Net(NetTicket),
    Local(Ticket),
}

struct Reply {
    version: u64,
    logits: Vec<i32>,
    /// The server's own timing of the request; only in-process replies
    /// carry it.
    stats: Option<RequestStats>,
}

impl Target<'_> {
    fn submit(&self, fx: &Fixture, owner: &[usize], req: &Req) -> Result<Pending, String> {
        let image = fx.inputs[req.model].images[req.image].clone();
        let priority = if req.interactive {
            Priority::Interactive
        } else {
            Priority::Batch
        };
        let opts = SubmitOptions::model(MODELS[req.model]).priority(priority);
        match self {
            Target::Router(router) => router
                .submit(image, opts)
                .map(Pending::Route)
                .map_err(|e| e.to_string()),
            Target::Net(clients) => clients[owner[req.model]]
                .submit(image, opts)
                .map(Pending::Net)
                .map_err(|e| e.to_string()),
            Target::InProc(clients) => clients[owner[req.model]]
                .submit_with(image, opts)
                .map(Pending::Local)
                .map_err(|e| e.to_string()),
        }
    }
}

impl Pending {
    fn wait(self) -> Result<Reply, String> {
        match self {
            Pending::Route(t) => t
                .wait()
                .map(|r| Reply {
                    version: r.weight_version,
                    logits: r.logits,
                    stats: None,
                })
                .map_err(|e| e.to_string()),
            Pending::Net(t) => t
                .wait()
                .map(|r| Reply {
                    version: r.weight_version,
                    logits: r.logits,
                    stats: None,
                })
                .map_err(|e| e.to_string()),
            Pending::Local(t) => t
                .wait()
                .map(|r| Reply {
                    version: r.stats.weight_version,
                    logits: r.logits,
                    stats: Some(r.stats),
                })
                .map_err(|e| e.to_string()),
        }
    }
}

/// One open-loop request, as seen from outside.
struct Sample {
    req: Req,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    /// `None` when the request was refused, dropped or answered wrongly.
    done: Option<Instant>,
    stats: Option<RequestStats>,
}

impl Sample {
    /// Client latency from the instant the request was due.
    fn latency_ms(&self) -> Option<f64> {
        self.done.map(|done| ms(done - self.due))
    }
}

struct OpenLoop {
    samples: Vec<Sample>,
    publish_ms: Vec<f64>,
}

impl OpenLoop {
    fn latencies_ms(&self, keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| keep(s))
            .filter_map(Sample::latency_ms)
            .collect()
    }

    fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| s.done.is_none()).count() as u64
    }

    /// Median latency over the requests due in the quietest second of the
    /// phase (see `measure::fastest` for why the quietest).
    fn quiet_p50_ms(&self) -> f64 {
        let t0 = self.samples[0].due;
        let mut seconds: Vec<Vec<f64>> = Vec::new();
        for (sample, latency) in self
            .samples
            .iter()
            .filter_map(|s| Some((s, s.latency_ms()?)))
        {
            let second = (sample.due - t0).as_secs() as usize;
            seconds.resize_with(seconds.len().max(second + 1), Vec::new);
            seconds[second].push(latency);
        }
        // A second cut short by the end of the phase is not a second.
        seconds.retain(|s| s.len() as f64 >= OPEN_RATE * 0.9);
        fastest(&seconds.iter().map(|s| median(s)).collect::<Vec<_>>())
    }

    fn late_share(&self) -> f64 {
        let late = self
            .samples
            .iter()
            .filter(|s| s.latency_ms().is_none_or(|l| l > LIMIT_MS));
        late.count() as f64 / self.samples.len() as f64
    }

    fn ledger(&self) -> Value {
        let sent = self.samples.len() as u64;
        Value::obj([
            ("sent", Value::from(sent)),
            ("succeeded", Value::from(sent - self.failed())),
            ("failed", Value::from(self.failed())),
        ])
    }
}

/// Send `OPEN_RATE` requests a second for `seconds`, whatever the replies
/// do. One thread submits on schedule; one thread per (model, class) lane
/// redeems tickets, so a slow lane does not delay the timestamp of a fast
/// one's reply; one thread publishes `cnn-a` weights.
fn open_loop(
    fx: &Fixture,
    cluster: &Cluster,
    target: &Target<'_>,
    seconds: f64,
    plan: &Plan,
) -> OpenLoop {
    let seed = plan.seed;
    let publish_every = publish_every(plan);
    let count = (OPEN_RATE * seconds) as u64;
    let t0 = Instant::now() + Duration::from_millis(5);
    let (stop_tx, stop_rx) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let (lanes, drains): (Vec<_>, Vec<_>) = (0..MODELS.len() * 2)
            .map(|_| {
                let (tx, rx) = mpsc::channel::<(usize, Req, Pending)>();
                let drain = scope.spawn(move || {
                    rx.into_iter()
                        .map(|(i, req, pending)| {
                            let reply = pending.wait();
                            let done = Instant::now();
                            let ok = reply
                                .as_ref()
                                .is_ok_and(|r| fx.is_correct(&req, r.version, &r.logits));
                            (i, ok.then_some(done), reply.ok().and_then(|r| r.stats))
                        })
                        .collect::<Vec<_>>()
                });
                (tx, drain)
            })
            .unzip();
        let publisher = scope.spawn(move || {
            let mut publish_ms = Vec::new();
            while let Err(mpsc::RecvTimeoutError::Timeout) = stop_rx.recv_timeout(publish_every) {
                publish_ms.push(ms(cluster.publish(fx)));
            }
            publish_ms
        });

        let mut samples: Vec<Sample> = Vec::with_capacity(count as usize);
        for i in 0..count {
            let due = t0 + Duration::from_secs_f64(i as f64 / OPEN_RATE);
            // Sleep to just short of the due time, then spin: a sleeping
            // thread wakes late on a busy machine, and that lateness would
            // be the generator's, not the system's.
            std::thread::sleep(due.saturating_duration_since(Instant::now() + SPIN));
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            let req = request(seed, i);
            let submit_start = Instant::now();
            let pending = target.submit(fx, &cluster.owner, &req);
            let submit_end = Instant::now();
            if let Ok(pending) = pending {
                let lane = req.model * 2 + usize::from(req.interactive);
                lanes[lane]
                    .send((samples.len(), req, pending))
                    .expect("drain thread is alive");
            }
            samples.push(Sample {
                req,
                due,
                submit_start,
                submit_end,
                done: None,
                stats: None,
            });
        }
        drop(lanes);
        for drain in drains {
            for (i, done, stats) in drain.join().expect("drain thread") {
                samples[i].done = done;
                samples[i].stats = stats;
            }
        }
        drop(stop_tx);
        OpenLoop {
            samples,
            publish_ms: publisher.join().expect("publisher thread"),
        }
    })
}

struct ClosedLoop {
    sent: u64,
    failed: u64,
    wall_s: f64,
    /// When each correct reply arrived, in seconds since the phase began.
    done_s: Vec<f64>,
}

impl ClosedLoop {
    /// Correct replies in the best whole second of the phase.
    fn quiet_img_per_s(&self) -> f64 {
        let mut seconds = vec![0u64; (self.wall_s as usize).max(1)];
        for &at in &self.done_s {
            if let Some(count) = seconds.get_mut(at as usize) {
                *count += 1;
            }
        }
        seconds.into_iter().max().unwrap_or(0) as f64
    }

    fn ledger(&self) -> Value {
        Value::obj([
            ("sent", Value::from(self.sent)),
            ("succeeded", Value::from(self.sent - self.failed)),
            ("failed", Value::from(self.failed)),
        ])
    }
}

/// `CLOSED_CLIENTS` callers, each sending its next request when the reply
/// to its last arrives, for `seconds`.
fn closed_loop(fx: &Fixture, cluster: &Cluster, seconds: f64, seed: u64) -> ClosedLoop {
    let next = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let target = Target::Router(&cluster.router);
    let done_s: Vec<f64> = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..CLOSED_CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut done_s = Vec::new();
                    let mut now = Instant::now();
                    while now < deadline {
                        let req = request(seed, next.fetch_add(1, Ordering::Relaxed));
                        let reply = target
                            .submit(fx, &cluster.owner, &req)
                            .and_then(Pending::wait);
                        now = Instant::now();
                        if reply.is_ok_and(|r| fx.is_correct(&req, r.version, &r.logits)) {
                            done_s.push((now - t0).as_secs_f64());
                        } else {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    done_s
                })
            })
            .collect();
        callers
            .into_iter()
            .flat_map(|c| c.join().expect("caller thread"))
            .collect()
    });
    ClosedLoop {
        sent: next.load(Ordering::Relaxed),
        failed: failed.load(Ordering::Relaxed),
        wall_s: done_s.iter().copied().fold(0.0, f64::max),
        done_s,
    }
}

/// Weights, images, the oracle's logits per weight version, both edges and
/// the router started, and a few requests through the whole path.
fn setup(seed: u64, publishes: usize) -> (Fixture, Cluster) {
    let fx = Fixture::generate(seed, publishes);
    let cluster = Cluster::start(&fx);
    let target = Target::Router(&cluster.router);
    for i in 0..WARM_UP_REQUESTS {
        let req = request(seed ^ 0xA11, i);
        let reply = target
            .submit(&fx, &cluster.owner, &req)
            .and_then(Pending::wait);
        let reply = reply.expect("warm-up request");
        assert!(
            fx.is_correct(&req, reply.version, &reply.logits),
            "warm-up reply is wrong"
        );
    }
    (fx, cluster)
}

fn publish_every(plan: &Plan) -> Duration {
    if plan.quick {
        QUICK_PUBLISH_EVERY
    } else {
        PUBLISH_EVERY
    }
}

/// Payloads enough for open loops of `seconds` in total.
fn publishes_in(seconds: f64, plan: &Plan) -> usize {
    (seconds / publish_every(plan).as_secs_f64()).ceil() as usize + 1
}

pub fn run(plan: &Plan) -> Outcome {
    if plan.traced {
        return run_traced(plan);
    }
    // Just over half the run for the open loop: 5 000+ requests at 24 s.
    let (open_s, closed_s) = if plan.quick {
        (1.0, 1.0)
    } else {
        (plan.seconds * 0.55, plan.seconds * 0.45)
    };
    let ((fx, cluster), setup_s) = plan.set_up(
        || setup(plan.seed, publishes_in(open_s, plan)),
        |(_, cluster): (Fixture, Cluster)| drop(cluster.stop()),
    );

    let open = open_loop(
        &fx,
        &cluster,
        &Target::Router(&cluster.router),
        open_s,
        plan,
    );
    let closed = closed_loop(&fx, &cluster, closed_s, plan.seed ^ 0xC105ED);
    let reports = cluster.stop();

    let mut out = Outcome {
        attempted: open.samples.len() as u64 + closed.sent,
        failed: open.failed() + closed.failed,
        ..Outcome::default()
    };
    let img_per_s = closed.quiet_img_per_s();
    // The nominal mix: each model as often as the others.
    let cycles_per_img = fx.cycles.iter().sum::<u64>() as f64 / fx.cycles.len() as f64;
    out.set("setup_s", setup_s);
    out.set("img_per_s", img_per_s);
    out.set("img_ms", open.quiet_p50_ms());
    out.set("peak_rss_mb", peak_rss_mib());
    out.set("host_ns_per_sim_cycle", 1e9 / img_per_s / cycles_per_img);
    out.set("sim_cycles_per_img", cycles_per_img);
    out.note("open_loop", open.ledger());
    out.note("closed_loop", closed.ledger());
    out.note(
        "ledger_balanced",
        Value::Bool(reports.iter().all(ledger_balanced)),
    );
    out
}

/// Images per batch over every edge.
fn batch_occupancy(reports: &[ServerReport]) -> f64 {
    let batches: u64 = reports.iter().map(|r| r.batches).sum();
    let images: f64 = reports
        .iter()
        .map(|r| r.mean_batch_occupancy * r.batches as f64)
        .sum();
    images / batches as f64
}

fn ledger_balanced(report: &ServerReport) -> bool {
    report.completed + report.rejected + report.shed == report.submitted
}

/// One image of each spec through lower → run → take: what a replica does
/// per batch, measured where the benchmark can see it.
fn direct_ops(fx: &Fixture, seconds: f64, trace: &mut Trace, out: &mut Outcome) -> Vec<SplitOp> {
    let opts = CompileOptions::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut ops = Vec::new();
    let mut yard = Yardstick::start();
    let mut rounds = 0;
    while rounds < sim::MIN_OPS || Instant::now() < deadline {
        rounds += 1;
        let image = ops.len() % IMAGE_POOL;
        let mut halves = Vec::new();
        for model in [0, 2] {
            let input = &fx.inputs[model];
            out.attempted += 1;
            let images = std::slice::from_ref(&input.images[image]);
            match sim::split_op(&fx.nets[model], images, &opts, &mut yard, trace, rounds) {
                Ok(op) if op.logits[0] == input.refs[image] => halves.push(op),
                _ => out.failed += 1,
            }
        }
        // Only a whole pair has the counts every other pair has.
        if halves.len() == 2 {
            ops.extend(halves.into_iter().reduce(SplitOp::then));
        }
    }
    ops
}

fn run_traced(plan: &Plan) -> Outcome {
    // Shares of the run: the direct ops 8 %, the router open loop 20 % twice
    // (untraced, traced), the NetClient and in-process replays 16 % each, the
    // closed loop 20 %.
    let s = plan.seconds;
    let (direct_s, open_s, bare_s, closed_s) = if plan.quick {
        (0.2, 1.0, 1.0, 1.0)
    } else {
        (s * 0.08, s * 0.2, s * 0.16, s * 0.2)
    };
    let (fx, cluster) = setup(plan.seed, publishes_in(2.0 * open_s + 2.0 * bare_s, plan));
    let mut rng = Rng::seed_from_u64(plan.seed ^ 0x150);
    let mut out = Outcome::default();
    let mut trace = Trace::new();

    // compiler, dfe, hwmodel, nn: the two specs run directly.
    let ops = direct_ops(&fx, direct_s, &mut trace, &mut out);
    sim::layer_metrics(&mut out, &ops);
    let models: Vec<CycleModel> = [0, 2]
        .iter()
        .map(|&m| CycleModel::analyze_folded(&fx.nets[m].spec, &FoldPlan::new()))
        .collect();
    let runs: Vec<_> = models.iter().zip(ops[0].reports.chunks(1)).collect();
    let layers = sim::hwmodel_metrics(&mut out, &runs, 1);
    println!("no hardware reference for these models: the projection is unvalidated");
    let forward: Vec<f64> = (0..40)
        .map(|i| {
            let t = Instant::now();
            std::hint::black_box(
                fx.nets[(i % 2) * 2].forward(&fx.inputs[(i % 2) * 2].images[i % IMAGE_POOL]),
            );
            ms(t.elapsed())
        })
        .collect();
    out.set("nn.forward_ms", fastest(&forward));

    // The whole path twice, untraced then traced, on one schedule.
    let router = Target::Router(&cluster.router);
    let plain = open_loop(&fx, &cluster, &router, open_s, plan);
    let traced = open_loop(&fx, &cluster, &router, open_s, plan);
    for (i, sample) in traced.samples.iter().enumerate() {
        let Some(done) = sample.done else { continue };
        let root = trace.span("request", i as u64, None, sample.due, done);
        trace.span(
            "bench.gen_lag",
            i as u64,
            Some(root),
            sample.due,
            sample.submit_start,
        );
        trace.span(
            "cluster.router_submit",
            i as u64,
            Some(root),
            sample.submit_start,
            sample.submit_end,
        );
        trace.span(
            "cluster.wait",
            i as u64,
            Some(root),
            sample.submit_end,
            done,
        );
    }
    // The same schedule without the router, then without the wire.
    let net_clients: Vec<NetClient> = cluster
        .edges
        .iter()
        .map(|e| NetClient::connect(e.local_addr()).expect("connect to an edge"))
        .collect();
    let bare = open_loop(&fx, &cluster, &Target::Net(&net_clients), bare_s, plan);
    drop(net_clients);
    let clients: Vec<Client> = cluster.edges.iter().map(|e| e.server().client()).collect();
    let inproc = open_loop(&fx, &cluster, &Target::InProc(&clients), bare_s, plan);
    drop(clients);
    let (share_open, spilled_open) = cluster.routing();
    let reports = cluster.stop();

    let all = |_: &Sample| true;
    let routed_ms: Vec<f64> = plain
        .latencies_ms(all)
        .into_iter()
        .chain(traced.latencies_ms(all))
        .collect();
    let lag_ms: Vec<f64> = plain
        .samples
        .iter()
        .chain(&traced.samples)
        .map(|s| ms(s.submit_start - s.due))
        .collect();
    out.set("e2e.img_ms_p50", median(&plain.latencies_ms(all)));
    out.set("e2e.img_ms_p99", percentile(&plain.latencies_ms(all), 99.0));
    out.set("e2e.late_share", plain.late_share());
    out.set("bench.gen_lag_ms_p99", percentile(&lag_ms, 99.0));
    out.set(
        "bench.trace_overhead_pct",
        (median(&traced.latencies_ms(all)) / median(&plain.latencies_ms(all)) - 1.0) * 100.0,
    );
    out.set(
        "cluster.router_submit_us_p50",
        median(&trace.durations_ms("cluster.router_submit")) * 1e3,
    );
    let (bare_p50, inproc_p50) = (
        median(&bare.latencies_ms(all)),
        median(&inproc.latencies_ms(all)),
    );
    out.set("cluster.router_added_ms_p50", median(&routed_ms) - bare_p50);
    out.set("cluster.edge_added_ms_p50", bare_p50 - inproc_p50);
    out.set("serve.inproc_ms_p50", inproc_p50);

    // The server's own account of the in-process requests.
    let stats: Vec<(&Sample, &RequestStats)> = inproc
        .samples
        .iter()
        .filter_map(|s| s.stats.as_ref().map(|st| (s, st)))
        .collect();
    let of = |keep: &dyn Fn(&Sample) -> bool, f: &dyn Fn(&RequestStats) -> Duration| -> Vec<f64> {
        stats
            .iter()
            .filter(|(s, _)| keep(s))
            .map(|(_, st)| ms(f(st)))
            .collect()
    };
    let queue_wait = of(&all, &|st| st.queue_wait);
    out.set("serve.queue_wait_ms_p50", median(&queue_wait));
    out.set("serve.queue_wait_ms_p99", percentile(&queue_wait, 99.0));
    out.set(
        "serve.service_ms_p50",
        median(&of(&all, &|st| st.latency - st.queue_wait)),
    );
    out.set(
        "serve.interactive_ms_p50",
        median(&of(&|s| s.req.interactive, &|st| st.latency)),
    );
    out.set(
        "serve.batch_ms_p50",
        median(&of(&|s| !s.req.interactive, &|st| st.latency)),
    );
    out.set(
        "serve.cnn_ms_p50",
        median(&of(&|s| s.req.model < 2, &|st| st.latency)),
    );
    out.set(
        "serve.txf_ms_p50",
        median(&of(&|s| s.req.model >= 2, &|st| st.latency)),
    );
    let phases = [&plain, &traced, &bare, &inproc];
    let publish_ms: Vec<f64> = phases
        .iter()
        .flat_map(|phase| phase.publish_ms.iter().copied())
        .collect();
    out.set("serve.publish_ms_p50", median(&publish_ms));
    out.set("serve.batch_occupancy_mean", batch_occupancy(&reports));
    out.set(
        "serve.shed",
        reports.iter().map(|r| r.shed).sum::<u64>() as f64,
    );
    out.set(
        "serve.rejected",
        reports.iter().map(|r| r.rejected).sum::<u64>() as f64,
    );
    out.set(
        "serve.ledger_balanced",
        f64::from(u8::from(reports.iter().all(ledger_balanced))),
    );

    // The closed loop on a fresh cluster, so replica busy time is its own.
    let (fx, cluster) = setup(plan.seed, 0);
    let closed = closed_loop(&fx, &cluster, closed_s, plan.seed ^ 0xC105ED);
    let (share_closed, spilled_closed) = cluster.routing();
    let reports = cluster.stop();
    let busy: f64 = reports
        .iter()
        .flat_map(|r| &r.per_replica)
        .map(|r| r.busy.as_secs_f64())
        .sum();
    let replicas: usize = reports.iter().map(|r| r.replicas).sum();
    out.set(
        "serve.replica_busy_share",
        busy / (closed.wall_s * replicas as f64),
    );
    out.set("e2e.img_per_s", closed.done_s.len() as f64 / closed.wall_s);
    out.set(
        "serve.closed_batch_occupancy_mean",
        batch_occupancy(&reports),
    );
    out.set("cluster.backend_share_max", share_open.max(share_closed));
    out.set("cluster.spilled_in", (spilled_open + spilled_closed) as f64);

    // Codec and attention head alone.
    let shapes = [fx.nets[0].spec.input, fx.nets[2].spec.input];
    let wire = iso::wire(&shapes, 10, &mut rng, 2000);
    out.set("cluster.wire_encode_ns_p50", wire.encode_ns);
    out.set("cluster.wire_decode_ns_p50", wire.decode_ns);
    out.set("cluster.wire_bytes_per_req", wire.bytes_per_req);
    // tiny_transformer(16, 2, 8, ..): two encoders of two heads per image.
    out.set(
        "kernels.attn_iso_ms_per_img",
        iso::attention_ms_per_img(16, 8, 2, 4, &mut rng, 200),
    );

    out.attempted += phases.iter().map(|p| p.samples.len() as u64).sum::<u64>() + closed.sent;
    out.failed += phases.iter().map(|p| p.failed()).sum::<u64>() + closed.failed;
    out.set("e2e.fail_share", out.failed as f64 / out.attempted as f64);
    out.note("open_loop_router", plain.ledger());
    out.note("open_loop_router_traced", traced.ledger());
    out.note("open_loop_netclient", bare.ledger());
    out.note("open_loop_inproc", inproc.ledger());
    out.note("closed_loop", closed.ledger());
    out.note("layers", layers);
    out.note("trace", trace.to_json());
    out
}
