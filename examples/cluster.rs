//! Cluster serving over loopback TCP: a sharding router in front of two
//! network edges, with replica autoscalers relieving saturation mid-run.
//!
//! Two backend servers each host the same two models behind a
//! `qnn_cluster::NetServer` TCP edge. A `Router` consistent-hashes model
//! names across the edges (spilling when a shard saturates), while each
//! backend runs an `Autoscaler` control loop that grows a pool the moment
//! its backlog breaches the control law — visibly, in the middle of the
//! flood. Every response that comes back over the wire is checked
//! bit-for-bit against the reference interpreter.
//!
//! ```text
//! cargo run --release --example cluster
//! ```

use qnn::cluster::{
    Autoscaler, AutoscalerConfig, Backend, NetClient, NetServer, Router, RouterConfig,
};
use qnn::data::CIFAR10;
use qnn::nn::{models, Network};
use qnn::serve::{ModelOptions, Priority, Server, ServerConfig, SubmitOptions};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn main() {
    let cnv = Network::random(models::test_net(32, 10, 2), 7);
    let small = Network::random(models::test_net(32, 10, 4), 9);
    let images = CIFAR10.images(16);

    // Each backend: single-replica pools, with a synthetic service time on
    // `cnv` so a flood builds a visible backlog on any host.
    let backend = || {
        Server::builder()
            .config(ServerConfig { max_batch: 2, ..ServerConfig::default() })
            .model_with(
                "cnv",
                &cnv,
                ModelOptions::new().replicas(1).synthetic_delay(Duration::from_millis(25)),
            )
            .model_with("small", &small, ModelOptions::new().replicas(1))
            .start()
            .expect("valid server")
    };
    let edge_a = NetServer::bind(backend(), "127.0.0.1:0").expect("bind edge a");
    let edge_b = NetServer::bind(backend(), "127.0.0.1:0").expect("bind edge b");
    println!("edge a on {}, edge b on {}", edge_a.local_addr(), edge_b.local_addr());

    let router = Router::new(
        RouterConfig::builder().spill_threshold(6).build().expect("valid config"),
        vec![
            ("a".to_string(), Backend::Remote(NetClient::connect(edge_a.local_addr()).expect("connect a"))),
            ("b".to_string(), Backend::Remote(NetClient::connect(edge_b.local_addr()).expect("connect b"))),
        ],
    )
    .expect("valid router");
    println!("shard owner for cnv: {}, for small: {}", router.route("cnv").expect("routable"), router.route("small").expect("routable"));

    let scaler_config = AutoscalerConfig::builder()
        .min_replicas(1)
        .max_replicas(3)
        .backlog_per_replica(2)
        .interval(Duration::from_millis(15))
        .up_hysteresis(2)
        .down_hysteresis(50)
        .cooldown_ticks(2)
        .build()
        .expect("valid config");
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let stop = &stop;
        // One control loop per backend, each watching its own server.
        let scalers: Vec<_> = [&edge_a, &edge_b]
            .into_iter()
            .map(|edge| {
                let scaler = Autoscaler::new(scaler_config.clone(), edge.server())
                    .expect("valid autoscaler config");
                scope.spawn(move || scaler.run(edge.server(), stop))
            })
            .collect();

        // Flood interactive cnv traffic (three rounds over the image set)
        // plus a trickle of batch-class small traffic, all through the
        // router — it shards by model name and spills when a shard backs
        // up.
        let mut tickets = Vec::new();
        for round in 0..3 {
            for img in &images {
                let interactive = SubmitOptions::model("cnv").priority(Priority::Interactive);
                tickets.push(("cnv", router.submit(img.clone(), interactive).expect("routed")));
                if round == 0 {
                    tickets.push((
                        "small",
                        router.submit(img.clone(), SubmitOptions::model("small")).expect("routed"),
                    ));
                }
            }
        }

        // Router tickets resolve in any order; every response must match
        // the reference interpreter on one of the submitted images.
        let cnv_refs: Vec<Vec<i32>> = images.iter().map(|i| cnv.forward(i).logits).collect();
        let small_refs: Vec<Vec<i32>> = images.iter().map(|i| small.forward(i).logits).collect();
        for (model, ticket) in tickets {
            let resp = ticket.wait().expect("answered");
            let refs = if model == "cnv" { &cnv_refs } else { &small_refs };
            assert!(
                refs.contains(&resp.logits),
                "a {model} response diverged from the reference interpreter"
            );
        }

        // The flood is drained; pools scaled while it was in flight.
        for (name, edge) in [("a", &edge_a), ("b", &edge_b)] {
            let replicas = edge.server().load_window("cnv").expect("known model").replicas;
            println!("backend {name}: cnv pool now at {replicas} replica(s)");
        }
        stop.store(true, Ordering::Release);
        for (edge, handle) in ["a", "b"].into_iter().zip(scalers) {
            let actions = handle.join().expect("scaler thread");
            println!("backend {edge} autoscaler actions: {actions:?}");
        }
    });

    let report_a = edge_a.shutdown();
    let report_b = edge_b.shutdown();
    println!("\nbackend a:\n{}", report_a.render());
    println!("backend b:\n{}", report_b.render());
    println!("all responses bit-exact across sharding, spillover and scale-up");
}
