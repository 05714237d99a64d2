//! Integration tests for the serving runtime: correctness of responses,
//! batching policy, admission control, drain-on-shutdown, and statistics
//! invariants. Everything uses the small `test_net` so the whole file runs
//! in tier-1 time.

use qnn_compiler::{CompileOptions, OptionsError};
use qnn_nn::{models, Network};
use qnn_serve::{
    AdmissionPolicy, ConfigError, DispatchPolicy, ModelOptions, Priority, ResizeError, Response,
    Server, ServerConfig, SubmitError, SubmitOptions, Ticket,
};
use qnn_tensor::{Shape3, Tensor3};
use qnn_testkit::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn image(side: usize, seed: u64) -> Tensor3<i8> {
    let mut rng = Rng::seed_from_u64(seed);
    Tensor3::from_fn(Shape3::square(side, 3), |_, _, _| rng.gen_range(-127i8..=127))
}

fn net() -> Network {
    Network::random(models::test_net(8, 4, 2), 42)
}

/// A running single-model server under `config`.
fn start(net: &Network, config: ServerConfig) -> Server {
    Server::builder().config(config).model("m", net).start().expect("valid server")
}

/// A single-model server whose one replica takes `service` per batch.
fn start_slow(net: &Network, config: ServerConfig, service: Duration) -> Server {
    Server::builder()
        .config(config)
        .model_with("m", net, ModelOptions::new().replicas(1).synthetic_delay(service))
        .start()
        .expect("valid server")
}

fn wait_all(tickets: Vec<Ticket>) -> Vec<Response> {
    tickets.into_iter().map(|t| t.wait().expect("answered")).collect()
}

#[test]
fn responses_match_the_reference_interpreter() {
    let net = net();
    let imgs: Vec<_> = (0..6).map(|s| image(8, s)).collect();
    let server = start(&net, ServerConfig { replicas: 2, max_batch: 3, ..ServerConfig::default() });
    let client = server.client();
    let tickets = imgs.iter().map(|i| client.submit(i.clone()).expect("admitted")).collect();
    let responses = wait_all(tickets);
    let report = server.shutdown();
    assert_eq!(report.completed, imgs.len() as u64);
    assert_eq!(report.rejected, 0);
    for (resp, img) in responses.iter().zip(&imgs) {
        assert_eq!(resp.logits, net.forward(img).logits, "request {}", resp.id);
    }
}

#[test]
fn responses_are_matched_to_their_requests_not_merely_in_order() {
    // Submit distinct images and redeem tickets in reverse order; each
    // ticket must still carry its own image's logits.
    let net = net();
    let imgs: Vec<_> = (0..5).map(|s| image(8, 100 + s)).collect();
    let server = start(&net, ServerConfig { replicas: 3, max_batch: 2, ..ServerConfig::default() });
    let client = server.client();
    let tickets: Vec<Ticket> =
        imgs.iter().map(|i| client.submit(i.clone()).expect("admitted")).collect();
    let mut responses: Vec<_> =
        tickets.into_iter().rev().map(|t| t.wait().expect("answered")).collect();
    responses.reverse();
    server.shutdown();
    for (resp, img) in responses.iter().zip(&imgs) {
        assert_eq!(resp.logits, net.forward(img).logits, "request {}", resp.id);
    }
}

#[test]
fn shutdown_drains_every_admitted_request() {
    // Shut down without waiting on any ticket: the drain must still
    // execute every admitted request, and the buffered responses must be
    // redeemable afterwards.
    let net = net();
    let imgs: Vec<_> = (0..5).map(|s| image(8, 200 + s)).collect();
    let server = start(&net, ServerConfig { replicas: 2, max_batch: 2, ..ServerConfig::default() });
    let client = server.client();
    let tickets: Vec<Ticket> =
        imgs.iter().map(|i| client.submit(i.clone()).expect("admitted")).collect();
    let report = server.shutdown();
    assert_eq!(report.completed, imgs.len() as u64, "drain lost requests");
    for (t, img) in tickets.into_iter().zip(&imgs) {
        let resp = t.wait().expect("response was buffered before shutdown");
        assert_eq!(resp.logits, net.forward(img).logits);
    }
}

#[test]
fn idle_pool_answers_a_lone_request_without_waiting_for_company() {
    // A huge max_batch and flush deadlines far beyond the test: nothing
    // but the work-conserving rule can close this lane. An idle replica
    // takes the request at once, alone.
    let net = net();
    let config = ServerConfig {
        replicas: 1,
        max_batch: 64,
        flush_deadline: Duration::from_secs(10),
        interactive_flush_deadline: Duration::from_secs(10),
        ..ServerConfig::default()
    };
    let server = start(&net, config);
    let started = Instant::now();
    let resp = server.client().submit(image(8, 7)).expect("admitted").wait().expect("answered");
    let waited = started.elapsed();
    assert_eq!(resp.stats.batch_size, 1);
    assert!(waited < Duration::from_secs(1), "lone request waited {waited:?} beside an idle replica");
    let report = server.shutdown();
    assert_eq!(report.completed, 1);
    assert_eq!(report.batches, 1);
}

#[test]
fn reject_admission_sheds_load_without_losing_accepted_requests() {
    // Tiny queue + reject policy + a fast submission burst: every attempt
    // either completes or is cleanly rejected with its image handed back.
    let net = net();
    let attempts = 24usize;
    let config = ServerConfig {
        replicas: 1,
        max_batch: 2,
        queue_depth: 1,
        admission: AdmissionPolicy::Reject,
        ..ServerConfig::default()
    };
    let server = start(&net, config);
    let client = server.client();
    let mut tickets = Vec::new();
    let mut rejected = 0u64;
    for s in 0..attempts {
        match client.submit(image(8, 300 + s as u64)) {
            Ok(t) => tickets.push(t),
            Err(SubmitError::QueueFull(img)) => {
                assert_eq!(img.shape(), Shape3::square(8, 3), "image handed back");
                rejected += 1;
            }
            Err(e) => panic!("unexpected submit error: {e:?}"),
        }
    }
    let completed = wait_all(tickets).len() as u64;
    let report = server.shutdown();
    assert_eq!(completed + rejected, attempts as u64, "an attempt vanished");
    assert_eq!(report.completed, completed);
    assert_eq!(report.rejected, rejected);
    assert!(completed >= 1, "nothing was ever admitted");
}

#[test]
fn report_statistics_are_internally_consistent() {
    let net = net();
    let n = 8usize;
    let server = start(&net, ServerConfig { replicas: 2, max_batch: 4, ..ServerConfig::default() });
    let client = server.client();
    let tickets = (0..n).map(|s| client.submit(image(8, s as u64)).expect("admitted")).collect();
    for resp in wait_all(tickets) {
        assert!(resp.stats.batch_size >= 1 && resp.stats.batch_size <= 4);
        assert!(resp.stats.replica < 2);
        assert!(resp.stats.queue_wait <= resp.stats.latency);
        assert!(resp.stats.cycles > 0);
    }
    let report = server.shutdown();
    assert_eq!(report.submitted, n as u64);
    assert_eq!(report.completed, n as u64);
    assert!(report.batches >= (n as u64).div_ceil(4), "too few batches");
    assert!(report.mean_batch_occupancy >= 1.0 && report.mean_batch_occupancy <= 4.0);
    assert!(report.images_per_sec() > 0.0);
    let lat = report.latency.expect("completed requests imply a summary");
    let qw = report.queue_wait.expect("completed requests imply a summary");
    assert!(lat.p50 <= lat.p95 && lat.p95 <= lat.max);
    assert!(qw.p50 <= lat.max, "queue wait cannot exceed worst latency");
    let per_replica_images: u64 = report.per_replica.iter().map(|r| r.images).sum();
    assert_eq!(per_replica_images, n as u64);
    assert!(!report.render().is_empty());
}

#[test]
fn work_is_sharded_across_replicas() {
    // With more batches than replicas and round-robin dispatch, every
    // replica must execute at least one batch (round-robin pinned: the
    // guarantee is policy-specific).
    let net = net();
    let config = ServerConfig {
        replicas: 3,
        max_batch: 1,
        dispatch: DispatchPolicy::RoundRobin,
        ..ServerConfig::default()
    };
    let server = start(&net, config);
    let client = server.client();
    wait_all((0..12).map(|s| client.submit(image(8, s)).expect("admitted")).collect());
    let report = server.shutdown();
    assert_eq!(report.per_replica.len(), 3);
    for r in &report.per_replica {
        assert!(r.batches >= 1, "replica {} never ran a batch", r.replica);
        assert!(r.busy > Duration::ZERO);
    }
}

#[test]
fn least_loaded_dispatch_steers_work_away_from_a_slow_replica() {
    // Replica 0 is artificially slowed by 60 ms per batch; replica 1 runs
    // at full speed. Under least-loaded dispatch the slow replica holds at
    // most the batch it runs and the one queued behind it, so nearly every
    // batch goes to the fast replica as it drains. Round-robin would split
    // the 12 single-image batches 6/6; least-loaded must give the fast
    // replica strictly more (in practice ~3/9).
    let net = net();
    let n = 12usize;
    let config = ServerConfig {
        replicas: 2,
        max_batch: 1,
        synthetic_replica_delay: vec![Duration::from_millis(60), Duration::ZERO],
        ..ServerConfig::default()
    };
    assert_eq!(config.dispatch, DispatchPolicy::LeastLoaded, "the default policy");
    let server = start(&net, config);
    let client = server.client();
    wait_all((0..n).map(|s| client.submit(image(8, 500 + s as u64)).expect("admitted")).collect());
    let report = server.shutdown();
    assert_eq!(report.completed, n as u64);
    let slow = report.per_replica.iter().find(|r| r.replica == 0).expect("replica 0");
    let fast = report.per_replica.iter().find(|r| r.replica == 1).expect("replica 1");
    assert!(
        fast.batches > slow.batches,
        "least-loaded dispatch kept feeding the slow replica: slow {} vs fast {}",
        slow.batches,
        fast.batches
    );
}

#[test]
fn serving_works_over_a_partitioned_pipeline() {
    // Replicas of a two-device placement: a cut network is one graph with
    // device tags, so the warm serve path must stay bit-exact over it.
    let spec = models::test_net(8, 4, 2);
    let cut = spec.stages.len() / 2;
    let stage_device: Vec<usize> =
        (0..spec.stages.len()).map(|i| usize::from(i >= cut)).collect();
    let net = Network::random(spec, 9);
    let config = ServerConfig {
        replicas: 2,
        max_batch: 2,
        compile: qnn_compiler::CompileOptions {
            stage_device: Some(stage_device),
            ..Default::default()
        },
        ..ServerConfig::default()
    };
    let imgs: Vec<_> = (0..4).map(|s| image(8, 400 + s)).collect();
    let server = start(&net, config);
    let client = server.client();
    let responses =
        wait_all(imgs.iter().map(|i| client.submit(i.clone()).expect("admitted")).collect());
    server.shutdown();
    for (resp, img) in responses.iter().zip(&imgs) {
        assert_eq!(resp.logits, net.forward(img).logits);
    }
}

#[test]
fn concurrent_submitters_share_one_client() {
    // &Client is Sync: several scoped threads submit through it at once.
    let net = net();
    let net = &net;
    let per_thread = 3usize;
    let server = start(net, ServerConfig { replicas: 2, max_batch: 4, ..ServerConfig::default() });
    let client = &server.client();
    let all: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3u64)
            .map(|t| {
                s.spawn(move || {
                    (0..per_thread)
                        .map(|i| {
                            let img = image(8, 1000 * t + i as u64);
                            let expect = net.forward(&img).logits;
                            let got = client
                                .submit(img)
                                .expect("admitted")
                                .wait()
                                .expect("answered")
                                .logits;
                            (got, expect)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("submitter")).collect()
    });
    let report = server.shutdown();
    assert_eq!(all.len(), 9);
    for (got, expect) in all {
        assert_eq!(got, expect);
    }
    assert_eq!(report.completed, 9);
}

#[test]
fn busy_pool_coalesces_arrivals_and_serves_interactive_first() {
    // One replica held busy 300 ms per batch, flush deadlines far beyond
    // the test: while it runs the first request, arrivals can only coalesce.
    let net = net();
    let config = ServerConfig {
        max_batch: 4,
        flush_deadline: Duration::from_secs(10),
        interactive_flush_deadline: Duration::from_secs(10),
        ..ServerConfig::default()
    };
    let server = start_slow(&net, config, Duration::from_millis(300));
    let client = server.client();
    let submit = |seed, priority| {
        let opts = SubmitOptions::default().priority(priority);
        client.submit_with(image(8, seed), opts).expect("admitted")
    };
    let head = submit(0, Priority::Batch);
    // Let the idle replica take it before the rest arrive.
    std::thread::sleep(Duration::from_millis(50));
    let batch: Vec<Ticket> = (1..=6).map(|s| submit(s, Priority::Batch)).collect();
    let interactive: Vec<Ticket> = (7..=8).map(|s| submit(s, Priority::Interactive)).collect();

    let head = head.wait().expect("answered");
    let batch = wait_all(batch);
    let interactive = wait_all(interactive);
    server.shutdown();

    assert_eq!(head.stats.batch_size, 1, "the idle replica took the first request alone");
    // The batch lane reached max_batch while the replica was busy: it
    // closed into the one batch a busy replica queues.
    for resp in &batch[..4] {
        assert_eq!(resp.stats.batch_size, 4);
        assert_eq!(resp.stats.batch_id, batch[0].stats.batch_id);
    }
    // When the replica next freed, both lanes were waiting: the interactive
    // one went first although it was submitted last.
    for resp in &interactive {
        assert_eq!(resp.stats.batch_size, 2);
        assert!(
            resp.stats.batch_id < batch[4].stats.batch_id,
            "interactive batch {} dispatched after batch-class batch {}",
            resp.stats.batch_id,
            batch[4].stats.batch_id
        );
    }
    assert_eq!(batch[4].stats.batch_id, batch[5].stats.batch_id);
    assert_eq!(batch[4].stats.batch_size, 2);
}

#[test]
fn partial_interactive_batch_closes_at_its_own_deadline_on_a_busy_pool() {
    // On a busy pool the class deadlines are what closes a partial lane.
    // The replica runs 150 ms per batch; a batch-class flood fills its
    // lane (max_batch 400, 10 s deadline: it keeps filling for as long as
    // the pool is busy) while one interactive request arrives mid-flood.
    // Its 2 ms deadline closes it, alone, into the slot queued behind the
    // running batch — ahead of the whole flood.
    let net = net();
    let config = ServerConfig {
        max_batch: 400,
        flush_deadline: Duration::from_secs(10),
        interactive_flush_deadline: Duration::from_millis(2),
        ..ServerConfig::default()
    };
    let server = start_slow(&net, config, Duration::from_millis(150));
    let client = server.client();

    let head = client.submit(image(8, 1)).expect("admitted");
    let feeder = {
        let client = client.clone();
        std::thread::spawn(move || {
            (0..50u64)
                .map(|i| {
                    std::thread::sleep(Duration::from_millis(2));
                    client.submit(image(8, 9000 + i)).expect("admitted")
                })
                .collect::<Vec<_>>()
        })
    };

    // Let the flood establish a steady stream, then time one interactive
    // request through the middle of it.
    std::thread::sleep(Duration::from_millis(50));
    let started = Instant::now();
    let resp = client
        .submit_with(image(8, 77), SubmitOptions::default().priority(Priority::Interactive))
        .expect("admitted")
        .wait()
        .expect("answered");
    let waited = started.elapsed();

    assert_eq!(resp.stats.priority, Priority::Interactive);
    assert_eq!(resp.stats.batch_size, 1, "partial interactive batch must close alone");
    assert!(
        waited < Duration::from_secs(2),
        "interactive request starved behind the batch flood: waited {waited:?}"
    );

    // The batch-class lane had not closed when the interactive batch did:
    // every flood request rides a later batch.
    let head = head.wait().expect("answered");
    assert!(head.stats.batch_id < resp.stats.batch_id);
    let flood = wait_all(feeder.join().expect("feeder thread"));
    for r in &flood {
        assert!(
            r.stats.batch_id > resp.stats.batch_id,
            "batch-class lane closed (batch {}) before the interactive one (batch {})",
            r.stats.batch_id,
            resp.stats.batch_id
        );
    }

    let report = server.shutdown();
    assert_eq!(report.completed, 52);
    assert_eq!(report.class(Priority::Interactive).map(|c| c.completed), Some(1));
    assert_eq!(report.class(Priority::Batch).map(|c| c.completed), Some(51));
}

#[test]
fn saturated_model_does_not_delay_another_models_idle_replica() {
    // Model "a" is flooded far past what its pool can hold (one replica,
    // 100 ms per batch, lanes long past their 1 ms deadlines); model "b"
    // idles. A request for "b" must go straight to b's replica — the
    // batcher may never wait on a's pool.
    let net = net();
    let config = ServerConfig {
        max_batch: 2,
        flush_deadline: Duration::from_millis(1),
        interactive_flush_deadline: Duration::from_millis(1),
        ..ServerConfig::default()
    };
    let server = Server::builder()
        .config(config)
        .model_with("a", &net, ModelOptions::new().synthetic_delay(Duration::from_millis(100)))
        .model("b", &net)
        .start()
        .expect("valid server");
    let client = server.client();
    let flood: Vec<Ticket> = (0..12)
        .map(|s| client.submit_with(image(8, s), SubmitOptions::model("a")).expect("admitted"))
        .collect();
    // a's replica now runs one batch and queues another; the rest of the
    // flood sits in a's lane, overdue.
    std::thread::sleep(Duration::from_millis(10));
    let started = Instant::now();
    client
        .submit_with(image(8, 99), SubmitOptions::model("b"))
        .expect("admitted")
        .wait()
        .expect("answered");
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_millis(50),
        "b's idle replica waited {waited:?} behind a's saturated pool"
    );
    wait_all(flood);
    let report = server.shutdown();
    assert_eq!(report.completed, 13);
}

#[test]
fn publish_during_traffic_is_batch_atomic_and_balances_the_ledger() {
    let spec = models::test_net(8, 4, 2);
    let versions: Vec<Network> = (0..4).map(|v| Network::random(spec.clone(), 70 + v)).collect();
    let imgs: Vec<_> = (0..8).map(|s| image(8, 600 + s)).collect();
    let oracle: Vec<Vec<Vec<i32>>> = versions
        .iter()
        .map(|net| imgs.iter().map(|img| net.forward(img).logits).collect())
        .collect();
    let server =
        start(&versions[0], ServerConfig { replicas: 2, max_batch: 3, ..ServerConfig::default() });
    let client = &server.client();
    let imgs = &imgs;

    let responses: Vec<(usize, Response)> = std::thread::scope(|s| {
        let submitters: Vec<_> = (0..3usize)
            .map(|t| {
                s.spawn(move || {
                    (0..40usize)
                        .map(|i| {
                            let which = (t * 3 + i) % imgs.len();
                            let ticket = client.submit(imgs[which].clone()).expect("admitted");
                            // Keep a few in flight so batches form.
                            if i % 4 == 3 {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            (which, ticket)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for net in &versions[1..] {
            std::thread::sleep(Duration::from_millis(15));
            server.publish_weights("m", net.clone()).expect("same architecture");
        }
        submitters
            .into_iter()
            .flat_map(|h| h.join().expect("submitter"))
            .map(|(which, ticket)| (which, ticket.wait().expect("answered")))
            .collect()
    });
    let report = server.shutdown();

    let mut version_of_batch = BTreeMap::new();
    for (which, resp) in &responses {
        let version = resp.stats.weight_version;
        assert_eq!(
            resp.logits, oracle[version as usize][*which],
            "request {} does not match the oracle of the version it carries ({version})",
            resp.id
        );
        let seen = *version_of_batch.entry(resp.stats.batch_id).or_insert(version);
        assert_eq!(seen, version, "batch {} mixed weight versions", resp.stats.batch_id);
    }
    assert_eq!(responses.len(), 120);
    assert_eq!(report.completed + report.rejected + report.shed, report.submitted);
    assert_eq!(report.model("m").map(|m| m.weight_publishes), Some(3));
}

#[test]
fn replica_lowers_once_per_weight_version_not_once_per_batch() {
    let spec = models::test_net(8, 4, 2);
    let v0 = Network::random(spec.clone(), 81);
    let v1 = Network::random(spec, 82);
    let server = start(&v0, ServerConfig { replicas: 1, max_batch: 1, ..ServerConfig::default() });
    let client = server.client();
    let mut versions = BTreeSet::new();
    for i in 0..60u64 {
        if i == 50 {
            server.publish_weights("m", v1.clone()).expect("same architecture");
        }
        let resp = client.submit(image(8, i)).expect("admitted").wait().expect("answered");
        versions.insert(resp.stats.weight_version);
    }
    let report = server.shutdown();
    assert_eq!(report.batches, 60);
    assert_eq!(versions.len(), 2);
    assert_eq!(report.per_replica[0].lowerings, versions.len() as u64);
    assert_eq!(report.lowerings, versions.len() as u64);
}

#[test]
fn queue_depth_never_exceeds_unanswered_submissions() {
    // Regression: `submit` used to count a request in *after* publishing
    // it, so a fast worker could count it out first and wrap the backlog
    // gauge to 2⁶⁴ − 1 — which a cluster router reads as saturation.
    let net = net();
    let server = start(&net, ServerConfig { replicas: 1, max_batch: 2, ..ServerConfig::default() });
    let client = &server.client();
    // Bumped before each submit and after each answer, so at any instant
    // the server's own backlog is at most `submitted − answered`.
    let (submitted, answered) = (&AtomicU64::new(0), &AtomicU64::new(0));
    let done = &AtomicBool::new(false);
    std::thread::scope(|s| {
        let submitters: Vec<_> = (0..4u64)
            .map(|t| {
                s.spawn(move || {
                    for i in 0..150 {
                        submitted.fetch_add(1, Ordering::SeqCst);
                        let ticket = client.submit(image(8, 10 * t + i % 10)).expect("admitted");
                        ticket.wait().expect("answered");
                        answered.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        let sampler = s.spawn(move || {
            let mut reads = 0u64;
            while !done.load(Ordering::SeqCst) {
                // Both counters only grow, so reading `answered` first and
                // `submitted` last can only loosen the bound.
                let answered = answered.load(Ordering::SeqCst);
                let depth = client.queue_depth();
                let submitted = submitted.load(Ordering::SeqCst);
                assert!(
                    depth <= submitted - answered,
                    "queue_depth {depth} with only {} unanswered",
                    submitted - answered
                );
                reads += 1;
            }
            reads
        });
        for h in submitters {
            h.join().expect("submitter");
        }
        done.store(true, Ordering::SeqCst);
        assert!(sampler.join().expect("sampler") > 0);
    });
    assert_eq!(client.queue_depth(), 0);
    let report = server.shutdown();
    assert_eq!(report.completed, 600);
}

#[test]
fn model_resolution_errors_hand_the_image_back() {
    let net = net();
    let other = Network::random(models::test_net(8, 6, 3), 43);
    let server = Server::builder()
        .config(ServerConfig { replicas: 1, ..ServerConfig::default() })
        .model("alpha", &net)
        .model("beta", &other)
        .start()
        .expect("start");
    let client = server.client();

    match client.submit_with(image(8, 1), SubmitOptions::model("gamma")) {
        Err(SubmitError::UnknownModel { model, image }) => {
            assert_eq!(model, "gamma");
            assert_eq!(image.shape(), Shape3::square(8, 3), "image handed back");
        }
        Ok(_) => panic!("expected UnknownModel, got a ticket"),
        Err(other) => panic!("expected UnknownModel, got {other:?}"),
    }
    // With several models registered, a bare submit has no unique target.
    match client.submit(image(8, 2)) {
        Err(SubmitError::AmbiguousModel(img)) => {
            assert_eq!(img.shape(), Shape3::square(8, 3), "image handed back");
        }
        Ok(_) => panic!("expected AmbiguousModel, got a ticket"),
        Err(other) => panic!("expected AmbiguousModel, got {other:?}"),
    }

    let report = server.shutdown();
    assert_eq!(report.submitted, 0, "failed resolutions never reach admission");
}

#[test]
fn builder_rejects_invalid_registrations_with_typed_errors() {
    let net = net();
    assert!(matches!(Server::builder().start(), Err(ConfigError::NoModels)));
    assert!(matches!(
        Server::builder().model("m", &net).model("m", &net).start(),
        Err(ConfigError::DuplicateModel(name)) if name == "m"
    ));
    assert!(matches!(
        Server::builder()
            .model_with("m", &net, ModelOptions::new().replicas(0))
            .start(),
        Err(ConfigError::ZeroReplicas)
    ));
}

/// Options the model cannot take refuse the server before any replica
/// starts: a worker would otherwise panic on its first batch and leave the
/// ticket unresolved.
#[test]
fn unknown_fifo_override_refuses_the_server() {
    let net = net();
    let compile = CompileOptions {
        fifo_overrides: vec![("no_such_stream".into(), 4)],
        ..CompileOptions::default()
    };
    let started = Server::builder()
        .model("ok", &net)
        .model_with("m", &net, ModelOptions { compile: Some(compile), ..ModelOptions::new() })
        .start();
    match started {
        Err(ConfigError::InvalidOptions { model, error }) => {
            assert_eq!(model, "m");
            assert_eq!(error, OptionsError::UnknownStream("no_such_stream".into()));
        }
        Err(e) => panic!("expected InvalidOptions, got {e}"),
        Ok(_) => panic!("a server whose replicas cannot elaborate must not start"),
    }
}

#[test]
fn short_stage_device_refuses_the_server() {
    let net = net();
    let stages = net.spec.stages.len();
    let compile =
        CompileOptions { stage_device: Some(vec![0; stages - 1]), ..CompileOptions::default() };
    let started = Server::builder()
        .model_with("m", &net, ModelOptions { compile: Some(compile), ..ModelOptions::new() })
        .start();
    match started {
        Err(err @ ConfigError::InvalidOptions { .. }) => {
            assert_eq!(
                err,
                ConfigError::InvalidOptions {
                    model: "m".into(),
                    error: OptionsError::StageDeviceCount { stages, got: stages - 1 },
                }
            );
            assert!(err.to_string().contains("\"m\""), "{err}");
        }
        Err(e) => panic!("expected InvalidOptions, got {e}"),
        Ok(_) => panic!("a server with a short stage_device must not start"),
    }
}

#[test]
fn ticket_wait_timeout_reports_pending_then_delivers() {
    let net = net();
    let server = Server::builder()
        .config(ServerConfig { replicas: 1, max_batch: 1, ..ServerConfig::default() })
        .model_with(
            "m",
            &net,
            ModelOptions::new().replicas(1).synthetic_delay(Duration::from_millis(120)),
        )
        .start()
        .expect("start");
    let client = server.client();

    let ticket = client.submit(image(8, 5)).expect("admitted");
    // Well before the synthetic service time: the poll must return None
    // without consuming the eventual response.
    assert!(ticket.wait_timeout(Duration::ZERO).is_none(), "instant poll can't have an answer");
    assert!(
        ticket.wait_timeout(Duration::from_millis(1)).is_none(),
        "short poll can't have an answer"
    );
    // Generous bound: the same ticket still delivers the real response.
    let resp = ticket
        .wait_timeout(Duration::from_secs(20))
        .expect("response within bound")
        .expect("answered");
    assert_eq!(resp.logits, net.forward(&image(8, 5)).logits);
    server.shutdown();
}

#[test]
fn resize_pool_lands_while_the_pool_is_saturated() {
    let net = net();
    let server = Server::builder()
        .config(ServerConfig { max_batch: 1, ..ServerConfig::default() })
        .model_with(
            "m",
            &net,
            ModelOptions::new().replicas(1).synthetic_delay(Duration::from_millis(100)),
        )
        .start()
        .expect("start");
    let client = server.client();

    // Typed refusals first.
    assert_eq!(server.resize_pool("nope", 2), Err(ResizeError::UnknownModel("nope".into())));
    assert_eq!(server.resize_pool("m", 0), Err(ResizeError::ZeroReplicas));

    // Bury the single replica under a backlog (~30 × 100 ms of work),
    // then resize. The resize must take effect while that backlog is
    // still queued — not after it drains — or an autoscaler could never
    // relieve the very saturation that triggered it.
    let held: Vec<Ticket> =
        (0..30).map(|i| client.submit(image(8, 100 + i)).expect("admitted")).collect();
    let resized_in = {
        let t0 = Instant::now();
        assert_eq!(server.resize_pool("m", 3), Ok((1, 3)));
        t0.elapsed()
    };
    assert!(
        resized_in < Duration::from_millis(1500),
        "resize waited for the backlog to drain: {resized_in:?}"
    );
    assert_eq!(server.load_window("m").expect("known model").replicas, 3);

    // Shrink back below the backlog too, then drain everything: no
    // request may be lost across either reshape.
    assert_eq!(server.resize_pool("m", 2), Ok((3, 2)));
    for t in held {
        t.wait().expect("survives both reshapes");
    }
    let report = server.shutdown();
    assert_eq!(report.completed, 30);
    assert_eq!(report.rejected + report.shed, 0);
}
