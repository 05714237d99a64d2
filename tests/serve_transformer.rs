//! Mixed CNN + transformer serving: a residual CNN and a two-encoder
//! transformer registered behind one server, with interleaved traffic.
//!
//! Both graphs burst and replay: the attention family offers span
//! promises and replay tokens like the CNN kernels, so each model's warm
//! replicas record and replay whole-batch schedule tapes of their own.
//! Every response must stay bit-identical to direct execution on the dense
//! oracle, with no cross-talk between the two models' pipelines, and the
//! admission ledger balanced.

mod common;

use common::run_dense;
use qnn::compiler::CompileOptions;
use qnn::nn::{models, Network};
use qnn::serve::{Server, ServerConfig, SubmitOptions};
use qnn::tensor::{Shape3, Tensor3};
use qnn_testkit::Rng;

fn trace(shape: Shape3, seed: u64, n: usize) -> Vec<Tensor3<i8>> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n).map(|_| Tensor3::from_fn(shape, |_, _, _| rng.gen_range(-127i8..=127))).collect()
}

fn cnn() -> Network {
    Network::random(models::test_net(8, 4, 2), 61)
}

fn transformer() -> Network {
    Network::random(models::tiny_transformer(6, 2, 3, 5, 2, 8), 62)
}

/// Interleaved CNN and transformer requests through one server: responses
/// bit-identical to direct execution on the dense oracle, ledger balanced
/// across both models.
#[test]
fn mixed_cnn_and_transformer_traffic_matches_direct_execution() {
    let cnn_net = cnn();
    let tf_net = transformer();
    let cnn_trace = trace(cnn_net.spec.input, 0xC44, 5);
    let tf_trace = trace(tf_net.spec.input, 0x7F0, 5);
    let opts = CompileOptions::default();
    let cnn_direct = run_dense(&cnn_net, &cnn_trace, &opts).expect("cnn direct");
    let tf_direct = run_dense(&tf_net, &tf_trace, &opts).expect("transformer direct");

    let server = Server::builder()
        .config(ServerConfig {
            replicas: 2,
            max_batch: 3,
            ..ServerConfig::default()
        })
        .model("cnn", &cnn_net)
        .model("transformer", &tf_net)
        .start()
        .expect("valid server");
    let client = server.client();

    let tickets: Vec<_> = cnn_trace
        .iter()
        .zip(&tf_trace)
        .flat_map(|(c, t)| {
            [
                client
                    .submit_with(c.clone(), SubmitOptions::model("cnn"))
                    .expect("admitted"),
                client
                    .submit_with(t.clone(), SubmitOptions::model("transformer"))
                    .expect("admitted"),
            ]
        })
        .collect();
    let responses: Vec<_> =
        tickets.into_iter().map(|t| t.wait().expect("answered")).collect();

    for (i, pair) in responses.chunks(2).enumerate() {
        assert_eq!(pair[0].model, "cnn");
        assert_eq!(
            pair[0].logits, cnn_direct.logits[i],
            "cnn image {i} diverged"
        );
        assert_eq!(pair[1].model, "transformer");
        assert_eq!(
            pair[1].logits, tf_direct.logits[i],
            "transformer image {i} diverged"
        );
    }

    let report = server.shutdown();
    assert_eq!(report.submitted, 10);
    assert_eq!(report.completed, 10);
    assert_eq!(report.completed + report.rejected + report.shed, report.submitted);
    assert_eq!(report.model("cnn").map(|m| m.completed), Some(5));
    assert_eq!(report.model("transformer").map(|m| m.completed), Some(5));
}

/// Two identical serving runs of the same mixed trace return identical
/// response streams — scheduling noise between the CNN's replay-capable
/// replicas and the transformer's live-planned ones must never reach the
/// answer bits.
#[test]
fn mixed_serving_is_deterministic_across_runs() {
    let cnn_net = cnn();
    let tf_net = transformer();
    let cnn_trace = trace(cnn_net.spec.input, 0xD311, 4);
    let tf_trace = trace(tf_net.spec.input, 0xD312, 4);

    let run = || {
        let server = Server::builder()
            .config(ServerConfig { replicas: 2, max_batch: 2, ..ServerConfig::default() })
            .model("cnn", &cnn_net)
            .model("transformer", &tf_net)
            .start()
            .expect("valid server");
        let client = server.client();
        let tickets: Vec<_> = cnn_trace
            .iter()
            .zip(&tf_trace)
            .flat_map(|(c, t)| {
                [
                    client
                        .submit_with(c.clone(), SubmitOptions::model("cnn"))
                        .expect("admitted"),
                    client
                        .submit_with(t.clone(), SubmitOptions::model("transformer"))
                        .expect("admitted"),
                ]
            })
            .collect();
        let logits: Vec<Vec<i32>> =
            tickets.into_iter().map(|t| t.wait().expect("answered").logits).collect();
        let report = server.shutdown();
        assert_eq!(report.completed + report.rejected + report.shed, report.submitted);
        logits
    };

    assert_eq!(run(), run());
}
