//! Multi-model serving of CIFAR-10 traffic with priorities and a hot
//! weight swap.
//!
//! Hosts two networks behind one `qnn_serve::Server` — the VGG-like (CNV)
//! model for latency-sensitive "interactive" traffic and a smaller model
//! for bulk "batch" traffic — then publishes new CNV weights mid-stream
//! and prints the aggregate report: per-model and per-class completed/shed
//! counts, batch occupancy, queue wait, p50/p95 latency and images/sec.
//! Every response is checked against the reference interpreter running the
//! exact weight version the response claims, so the numbers are for
//! bit-exact inference across the swap, not an approximation; the
//! report's serving ledger must partition in total, per model and per
//! class; and warm replicas must have replayed batches from their schedule
//! tapes.
//!
//! ```text
//! cargo run --release --example serve
//! ```

use qnn::data::CIFAR10;
use qnn::nn::{models, Network};
use qnn::serve::{ClassStats, Priority, Server, ServerConfig, ServerReport, SubmitOptions, Ticket};

fn main() {
    let cnv_v0 = Network::random(models::vgg_like(32, 10, 2), 7);
    let cnv_v1 = Network::random(models::vgg_like(32, 10, 2), 8);
    let small = Network::random(models::test_net(32, 10, 2), 9);
    let images = CIFAR10.images(8);

    let config = ServerConfig::builder()
        .replicas(2)
        .max_batch(2)
        .build()
        .expect("valid config");
    let server = Server::builder()
        .config(config)
        .model("cnv", &cnv_v0)
        .model("small", &small)
        .start()
        .expect("valid server");
    let client = server.client();

    // Interleave interactive CNV traffic with bulk traffic to the small
    // model, three passes over the images; halfway through, hot-swap the
    // CNV weights. In-flight batches finish on v0, later batches run
    // bit-identically on v1.
    let passes = 3;
    let mut tickets: Vec<Ticket> = Vec::new();
    for (i, img) in images.iter().cycle().take(passes * images.len()).enumerate() {
        if i == passes * images.len() / 2 {
            let version =
                server.publish_weights("cnv", cnv_v1.clone()).expect("same architecture");
            println!("published cnv weight version {version} mid-stream\n");
        }
        let interactive =
            SubmitOptions::model("cnv").priority(Priority::Interactive);
        tickets.push(client.submit_with(img.clone(), interactive).expect("admitted"));
        tickets.push(
            client.submit_with(img.clone(), SubmitOptions::model("small")).expect("admitted"),
        );
    }

    for t in tickets {
        let resp = t.wait().expect("answered");
        let idx = (resp.id / 2) as usize % images.len();
        let reference = match (resp.model.as_str(), resp.stats.weight_version) {
            ("cnv", 0) => &cnv_v0,
            ("cnv", _) => &cnv_v1,
            _ => &small,
        };
        assert_eq!(
            resp.logits,
            reference.forward(&images[idx]).logits,
            "request {} diverged from reference weight version {}",
            resp.id,
            resp.stats.weight_version,
        );
    }

    let report = server.shutdown();
    println!("{}", report.render());
    let per_model = (passes * images.len()) as u64;
    check_ledger(&report, per_model);
    // Each model ran at least 12 batches of at most two images on two
    // replicas, so some replica ran 6: its second batch recorded a size's
    // schedule tape and a later batch of that size replayed it.
    assert!(report.replayed_batches > 0, "no warm replica replayed a batch");
    println!("all {} responses bit-exact across the weight swap", 2 * per_model);
}

/// Every request was admitted (blocking admission) and none carried a
/// deadline, so each model completed `per_model` requests in one class,
/// each model's ledger partitions, and the breakdowns sum to the totals.
fn check_ledger(report: &ServerReport, per_model: u64) {
    let sum = |classes: &[ClassStats]| {
        classes.iter().fold((0, 0), |(c, s), k| (c + k.completed, s + k.shed))
    };
    assert_eq!(report.completed + report.rejected + report.shed, report.submitted);
    assert_eq!((report.submitted, report.completed), (2 * per_model, 2 * per_model));
    assert_eq!(sum(&report.per_priority), (report.completed, report.shed));
    let mut totals = (0, 0);
    for m in &report.per_model {
        assert_eq!(
            (m.submitted, m.completed, m.rejected, m.shed),
            (per_model, per_model, 0, 0),
            "model {}",
            m.model
        );
        assert_eq!(m.completed + m.rejected + m.shed, m.submitted, "model {}", m.model);
        assert_eq!(sum(&m.per_priority), (m.completed, m.shed), "model {}", m.model);
        totals = (totals.0 + m.submitted, totals.1 + m.rejected);
    }
    assert_eq!(totals, (report.submitted, report.rejected), "per-model sums");
    for priority in Priority::ALL {
        let class = report.class(priority).expect("every class is reported");
        assert_eq!((class.completed, class.shed), (per_model, 0), "class {priority}");
    }
}
