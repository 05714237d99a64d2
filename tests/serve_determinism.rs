//! Determinism guarantees of the serving runtime.
//!
//! The serving path adds host-side concurrency (batcher + replica worker
//! threads) and warm, re-armed pipelines on top of the device executor;
//! these tests pin down that none of it leaks into results. However the
//! batcher happens to cut a fixed request trace into batches, (a) every
//! batch a replica ran is bit-identical — logits *and* simulated cycles —
//! to a direct run of exactly that batch on a freshly lowered pipeline on
//! the dense oracle, and (b) responses are identical across repeated runs with
//! several replicas, even though batch boundaries and replica assignment
//! are timing-dependent.

mod common;

use common::run_dense;
use qnn::compiler::CompileOptions;
use qnn::nn::{models, Network};
use qnn::serve::{Response, Server, ServerConfig, Ticket};
use qnn::tensor::{Shape3, Tensor3};
use qnn_testkit::Rng;
use std::collections::BTreeMap;

fn trace(n: usize) -> Vec<Tensor3<i8>> {
    let mut rng = Rng::seed_from_u64(0xD57);
    (0..n)
        .map(|_| {
            Tensor3::from_fn(Shape3::square(8, 3), |_, _, _| rng.gen_range(-127i8..=127))
        })
        .collect()
}

/// Serve `images` in submission order; responses come back in that order.
fn serve_trace(net: &Network, images: &[Tensor3<i8>], config: &ServerConfig) -> Vec<Response> {
    let server =
        Server::builder().config(config.clone()).model("m", net).start().expect("valid server");
    let client = server.client();
    let tickets: Vec<Ticket> =
        images.iter().map(|i| client.submit(i.clone()).expect("admitted")).collect();
    let responses: Vec<Response> =
        tickets.into_iter().map(|t| t.wait().expect("answered")).collect();
    let report = server.shutdown();
    assert_eq!(report.completed, images.len() as u64);
    responses
}

#[test]
fn every_served_batch_matches_a_direct_run_of_that_batch_bit_for_bit() {
    let net = Network::random(models::test_net(8, 4, 2), 21);
    // Submitted as one burst to one replica: the first request runs alone
    // and the rest coalesce behind it, so the warm pipeline runs several
    // batches of several sizes.
    let images = trace(12);
    let config = ServerConfig { replicas: 1, max_batch: 4, ..ServerConfig::default() };
    let responses = serve_trace(&net, &images, &config);
    // A batch holds its requests in submission order.
    let mut batches: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, resp) in responses.iter().enumerate() {
        batches.entry(resp.stats.batch_id).or_default().push(i);
    }
    for (batch_id, members) in batches {
        let batch: Vec<_> = members.iter().map(|&i| images[i].clone()).collect();
        // The reference runs on the dense oracle, which shares no parking,
        // span or replay code with the replicas' stepping, so a
        // span-crediting or tape-replay bug in the serving path cannot hide
        // by also infecting the reference.
        let direct = run_dense(&net, &batch, &CompileOptions::default()).expect("direct");
        for (slot, &i) in members.iter().enumerate() {
            let resp = &responses[i];
            let at = format!("batch {batch_id} of {}", members.len());
            assert_eq!(resp.stats.batch_size, members.len(), "{at}");
            assert_eq!(resp.logits, direct.logits[slot], "{at}: logits diverged");
            assert_eq!(resp.stats.cycles, direct.cycles(), "{at}: cycles diverged");
        }
    }
}

#[test]
fn multi_replica_serving_is_identical_across_ten_runs() {
    // Batch composition and replica assignment vary run to run with the
    // thread scheduler; the logits must not.
    let net = Network::random(models::test_net(8, 4, 2), 22);
    let images = trace(8);
    let expected: Vec<Vec<i32>> = images.iter().map(|i| net.forward(i).logits).collect();
    let config = ServerConfig { replicas: 3, max_batch: 2, ..ServerConfig::default() };
    for run in 0..10 {
        let logits: Vec<Vec<i32>> =
            serve_trace(&net, &images, &config).into_iter().map(|r| r.logits).collect();
        assert_eq!(logits, expected, "run {run} diverged from the interpreter");
    }
}
