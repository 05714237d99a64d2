//! Multi-model serving guarantees: registry isolation, hot weight-swap
//! atomicity, and the deadline-shedding accounting ledger.
//!
//! The multi-model server adds a registry, per-model replica pools, and a
//! two-level priority scheduler on top of the single-model runtime; these
//! tests pin down that none of it weakens the repo's core invariant —
//! every answered request is bit-identical to direct execution of the
//! *exact* weight version its response claims, no matter how batches,
//! pools, classes, and publishes interleave.

mod common;

use common::run_dense;
use qnn::compiler::CompileOptions;
use qnn::nn::{models, Network};
use qnn::serve::{
    AdmissionPolicy, ClassStats, Dropped, Priority, Server, ServerConfig, SubmitError,
    SubmitOptions,
};
use qnn::tensor::{Shape3, Tensor3};
use qnn_testkit::{prop_assert, prop_assert_eq, props, Rng};
use std::collections::HashMap;
use std::time::Duration;

fn trace(seed: u64, n: usize) -> Vec<Tensor3<i8>> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| Tensor3::from_fn(Shape3::square(8, 3), |_, _, _| rng.gen_range(-127i8..=127)))
        .collect()
}

/// Direct references run on the dense oracle, which shares no parking,
/// span or replay code with the replicas' stepping, so a crediting bug in
/// the serving path cannot hide by also infecting the reference.
fn direct(net: &Network, images: &[Tensor3<i8>]) -> Vec<Vec<i32>> {
    run_dense(net, images, &CompileOptions::default()).expect("direct run").logits
}

/// Two models behind one server answer exactly what each would answer
/// behind its own dedicated single-model server — the pools share nothing
/// but the submission queue.
#[test]
fn two_models_served_concurrently_match_single_model_baselines() {
    let alpha = Network::random(models::test_net(8, 4, 2), 31);
    let beta = Network::random(models::test_net(8, 6, 3), 32);
    let alpha_trace = trace(0xA1FA, 6);
    let beta_trace = trace(0xBE7A, 6);
    let alpha_direct = direct(&alpha, &alpha_trace);
    let beta_direct = direct(&beta, &beta_trace);

    let server = Server::builder()
        .config(ServerConfig { replicas: 2, max_batch: 3, ..ServerConfig::default() })
        .model("alpha", &alpha)
        .model("beta", &beta)
        .start()
        .expect("valid server");
    assert_eq!(server.models(), vec!["alpha".to_string(), "beta".to_string()]);
    let client = server.client();

    // Interleave the two traces through one client so batches of both
    // models are in flight simultaneously.
    let tickets: Vec<_> = alpha_trace
        .iter()
        .zip(&beta_trace)
        .flat_map(|(a, b)| {
            [
                client
                    .submit_with(a.clone(), SubmitOptions::model("alpha"))
                    .expect("admitted"),
                client
                    .submit_with(b.clone(), SubmitOptions::model("beta"))
                    .expect("admitted"),
            ]
        })
        .collect();
    let responses: Vec<_> =
        tickets.into_iter().map(|t| t.wait().expect("answered")).collect();

    for (i, pair) in responses.chunks(2).enumerate() {
        assert_eq!(pair[0].model, "alpha");
        assert_eq!(
            pair[0].logits, alpha_direct[i],
            "alpha image {i} diverged"
        );
        assert_eq!(pair[1].model, "beta");
        assert_eq!(
            pair[1].logits, beta_direct[i],
            "beta image {i} diverged"
        );
    }

    let report = server.shutdown();
    assert_eq!(report.completed, 12);
    assert_eq!(report.replicas, 4, "two pools of two replicas each");
    assert_eq!(report.model("alpha").map(|m| m.completed), Some(6));
    assert_eq!(report.model("beta").map(|m| m.completed), Some(6));
}

/// Hot weight swap, quiesced: the cohort submitted before the publish is
/// bit-identical to direct execution on the old weights, the cohort after
/// it to direct execution on the new ones.
#[test]
fn weight_swap_cohorts_each_match_direct_execution() {
    let spec = models::test_net(8, 4, 2);
    let old_net = Network::random(spec.clone(), 41);
    let new_net = Network::random(spec, 42);
    let images = trace(0x5A4B, 6);
    let old_direct = direct(&old_net, &images);
    let new_direct = direct(&new_net, &images);
    assert_ne!(old_direct, new_direct, "seeds must give distinct weights");

    let server = Server::builder()
        .config(ServerConfig { replicas: 2, max_batch: 2, ..ServerConfig::default() })
        .model("m", &old_net)
        .start()
        .expect("valid server");
    let client = server.client();
    assert_eq!(server.registry().version("m"), Some(0));

    let submit_all = |imgs: &[Tensor3<i8>]| -> Vec<_> {
        imgs.iter()
            .map(|i| client.submit(i.clone()).expect("admitted"))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| t.wait().expect("answered"))
            .collect()
    };

    let old_cohort = submit_all(&images);
    let version = server.publish_weights("m", new_net.clone()).expect("spec matches");
    assert_eq!(version, 1);
    assert_eq!(server.registry().version("m"), Some(1));
    let new_cohort = submit_all(&images);

    for (i, r) in old_cohort.iter().enumerate() {
        assert_eq!(r.stats.weight_version, 0, "old cohort ran pre-publish weights");
        assert_eq!(
            r.logits, old_direct[i],
            "old cohort image {i} diverged"
        );
    }
    for (i, r) in new_cohort.iter().enumerate() {
        assert_eq!(r.stats.weight_version, 1, "new cohort ran post-publish weights");
        assert_eq!(
            r.logits, new_direct[i],
            "new cohort image {i} diverged"
        );
    }

    let report = server.shutdown();
    assert_eq!(report.model("m").map(|m| m.weight_publishes), Some(1));
}

/// Hot weight swap, racing: publishes land *while* batches are in flight.
/// Every response must still be bit-identical to the interpreter running
/// the exact version its `weight_version` claims, and no batch may mix
/// versions.
#[test]
fn racing_publish_never_mixes_weight_versions_within_a_batch() {
    let spec = models::test_net(8, 4, 2);
    let versions: Vec<Network> =
        (0..3).map(|v| Network::random(spec.clone(), 50 + v)).collect();
    let images = trace(0xACE5, 18);

    let server = Server::builder()
        .config(ServerConfig { replicas: 2, max_batch: 4, ..ServerConfig::default() })
        .model("m", &versions[0])
        .start()
        .expect("valid server");
    let client = server.client();

    // Publish twice mid-stream with no quiescing: in-flight batches keep
    // the snapshot they were flushed with.
    let mut tickets = Vec::new();
    for (i, img) in images.iter().enumerate() {
        if i == 6 {
            server.publish_weights("m", versions[1].clone()).expect("publish v1");
        }
        if i == 12 {
            server.publish_weights("m", versions[2].clone()).expect("publish v2");
        }
        tickets.push(client.submit(img.clone()).expect("admitted"));
    }
    let responses: Vec<_> =
        tickets.into_iter().map(|t| t.wait().expect("answered")).collect();

    let mut batch_versions: HashMap<u64, u64> = HashMap::new();
    for (i, r) in responses.iter().enumerate() {
        let v = r.stats.weight_version as usize;
        assert!(v < versions.len(), "unknown weight version {v}");
        // Bit-identity against the interpreter running the claimed version.
        let expect = versions[v].forward(&images[i]).logits;
        assert_eq!(
            r.logits, expect,
            "image {i} diverged from claimed version {v}"
        );
        // Swap atomicity: one batch, one version.
        if let Some(prev) = batch_versions.insert(r.stats.batch_id, r.stats.weight_version)
        {
            assert_eq!(
                prev, r.stats.weight_version,
                "batch {} mixed weight versions",
                r.stats.batch_id
            );
        }
    }

    let report = server.shutdown();
    assert_eq!(report.completed, images.len() as u64);
    assert_eq!(report.model("m").map(|m| m.weight_publishes), Some(2));
}

props! {
    /// The admission ledger is a partition: across random traffic mixes
    /// (priorities, deadlines, queue pressure), every submission attempt
    /// is accounted exactly once — completed, rejected at admission, or
    /// shed at dispatch — and only zero-deadline requests ever shed. The
    /// per-class counts match what the clients saw, the per-model and
    /// per-class breakdowns sum to the totals, and the live window agrees
    /// with the report once every ticket has resolved.
    #[test]
    fn deadline_shedding_accounting_identity(
        n in 1usize..24,
        replicas in 1usize..4,
        max_batch in 1usize..6,
        queue_depth in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let net = Network::random(models::test_net(8, 2, 1), 7);
        let config = ServerConfig::builder()
            .replicas(replicas)
            .max_batch(max_batch)
            .queue_depth(queue_depth)
            .admission(AdmissionPolicy::Reject)
            .flush_deadline(Duration::from_micros(200))
            .interactive_flush_deadline(Duration::from_micros(50))
            .build()
            .expect("valid config");
        let server = Server::builder()
            .config(config)
            .model("m", &net)
            .start()
            .expect("valid server");
        let client = server.client();

        let mut rng = Rng::seed_from_u64(seed);
        let mut tickets = Vec::new();
        let mut client_rejected = 0u64;
        for i in 0..n {
            let img = Tensor3::from_fn(Shape3::square(8, 3), |y, x, c| {
                ((seed as usize).wrapping_add(i * 131 + y * 31 + x * 7 + c) % 255) as i8
            });
            let priority = if rng.gen_bool(0.5) { Priority::Interactive } else { Priority::Batch };
            // Zero-budget requests are sheddable (any queueing at all blows
            // the budget); one-minute budgets must never shed in a test run.
            let deadline = match rng.gen_range(0u32..3) {
                0 => None,
                1 => Some(Duration::ZERO),
                _ => Some(Duration::from_secs(60)),
            };
            let mut opts = SubmitOptions::default().priority(priority);
            if let Some(d) = deadline {
                opts = opts.deadline(d);
            }
            match client.submit_with(img, opts) {
                Ok(t) => tickets.push((t, priority, deadline)),
                Err(SubmitError::QueueFull(_)) => client_rejected += 1,
                Err(e) => return Err(qnn_testkit::prop::CaseError::Fail(
                    format!("unexpected submit error: {e}"),
                )),
            }
        }

        let mut client_completed = 0u64;
        let mut client_shed = 0u64;
        // Per class, as the clients saw it: [completed, shed].
        let mut client_class: HashMap<Priority, [u64; 2]> = HashMap::new();
        for (t, priority, deadline) in tickets {
            match t.wait() {
                Ok(_) => {
                    client_completed += 1;
                    client_class.entry(priority).or_default()[0] += 1;
                }
                Err(Dropped::Deadline) => {
                    prop_assert!(
                        deadline == Some(Duration::ZERO),
                        "a request with budget {deadline:?} was shed"
                    );
                    client_shed += 1;
                    client_class.entry(priority).or_default()[1] += 1;
                }
                Err(Dropped::Stopped) => {
                    prop_assert!(false, "server stopped before draining an admitted request");
                }
            }
        }

        let window = server.load_window("m").expect("known model");
        prop_assert_eq!(window.in_flight, 0, "every ticket has resolved");
        let report = server.shutdown();
        prop_assert_eq!(report.submitted, n as u64, "every attempt reached admission");
        prop_assert_eq!(
            report.completed + report.rejected + report.shed,
            report.submitted,
            "the admission ledger must partition"
        );
        prop_assert_eq!(report.completed, client_completed);
        prop_assert_eq!(report.rejected, client_rejected);
        prop_assert_eq!(report.shed, client_shed);

        prop_assert_eq!(window.admitted, report.submitted - report.rejected, "window admitted");
        prop_assert_eq!(window.rejected, report.rejected, "window rejected");
        prop_assert_eq!(window.completed, report.completed, "window completed");
        prop_assert_eq!(window.shed, report.shed, "window shed");
        for priority in Priority::ALL {
            let class = report.class(priority).expect("every class is reported");
            let [completed, shed] = client_class.get(&priority).copied().unwrap_or_default();
            prop_assert_eq!(class.completed, completed, "{priority} completed");
            prop_assert_eq!(class.shed, shed, "{priority} shed");
        }
        let sum = |classes: &[ClassStats]| {
            classes.iter().fold((0, 0), |(c, s), k| (c + k.completed, s + k.shed))
        };
        prop_assert_eq!(sum(&report.per_priority), (report.completed, report.shed), "per class");
        let mut per_model = (0, 0, 0, 0);
        for m in &report.per_model {
            prop_assert_eq!(sum(&m.per_priority), (m.completed, m.shed), "{} per class", m.model);
            prop_assert_eq!(
                m.completed + m.rejected + m.shed,
                m.submitted,
                "{}'s ledger must partition",
                m.model
            );
            per_model = (
                per_model.0 + m.submitted,
                per_model.1 + m.completed,
                per_model.2 + m.rejected,
                per_model.3 + m.shed,
            );
        }
        prop_assert_eq!(
            per_model,
            (report.submitted, report.completed, report.rejected, report.shed),
            "per model"
        );
    }
}
