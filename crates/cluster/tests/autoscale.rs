//! Autoscaler control-law tests, driven tick by tick (no wall-clock
//! control loop) so every transition is deterministic: hysteresis holds
//! off transients, breaches grow pools, idleness shrinks them, and the
//! min/max/budget bounds are never crossed.

use qnn_cluster::{Autoscaler, AutoscalerConfig, ClusterConfigError, ScaleAction};
use qnn_nn::{models, Network};
use qnn_serve::{ModelOptions, Server, ServerConfig, SubmitOptions, Ticket};
use qnn_tensor::{Shape3, Tensor3};
use qnn_testkit::Rng;
use std::time::{Duration, Instant};

fn image(seed: u64) -> Tensor3<i8> {
    let mut rng = Rng::seed_from_u64(seed);
    Tensor3::from_fn(Shape3::square(8, 3), |_, _, _| rng.gen_range(-127i8..=127))
}

/// A single-model server whose service time is dominated by a synthetic
/// per-batch delay — load behaviour is then reproducible on any host.
fn slow_server(delay: Duration) -> Server {
    let net = Network::random(models::test_net(8, 4, 2), 17);
    Server::builder()
        .config(ServerConfig { max_batch: 1, ..ServerConfig::default() })
        .model_with("mnist", &net, ModelOptions::new().replicas(1).synthetic_delay(delay))
        .start()
        .expect("valid server")
}

/// Flood `n` batch requests at the server, returning the tickets.
fn flood(server: &Server, n: usize) -> Vec<Ticket> {
    let client = server.client();
    (0..n)
        .map(|i| {
            client.submit_with(image(i as u64), SubmitOptions::model("mnist")).expect("admitted")
        })
        .collect()
}

/// Poll until the model's backlog drains (bounded wait).
fn wait_for_drain(server: &Server) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let window = server.load_window("mnist").expect("known model");
        if window.in_flight == 0 {
            return;
        }
        assert!(Instant::now() < deadline, "backlog never drained");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn config() -> AutoscalerConfig {
    AutoscalerConfig::builder()
        .min_replicas(1)
        .max_replicas(3)
        .backlog_per_replica(2)
        .up_hysteresis(2)
        .down_hysteresis(3)
        .cooldown_ticks(1)
        .build()
        .expect("valid config")
}

/// A struct-literal config goes through the same validation as the
/// builder's: a zero interval would spin `run` on the load-window locks,
/// and a floor above the ceiling has no legal pool size.
#[test]
fn new_refuses_an_invalid_config() {
    let server = slow_server(Duration::ZERO);
    let zero = AutoscalerConfig { interval: Duration::ZERO, ..AutoscalerConfig::default() };
    assert_eq!(Autoscaler::new(zero, &server).err(), Some(ClusterConfigError::ZeroInterval));
    let inverted =
        AutoscalerConfig { min_replicas: 3, max_replicas: 2, ..AutoscalerConfig::default() };
    assert_eq!(
        Autoscaler::new(inverted, &server).err(),
        Some(ClusterConfigError::MinExceedsMax { min: 3, max: 2 })
    );
    server.shutdown();
}

#[test]
fn backlog_breach_grows_the_pool_after_hysteresis() {
    let server = slow_server(Duration::from_millis(60));
    let mut scaler = Autoscaler::new(config(), &server).expect("valid config");

    let held = flood(&server, 12); // backlog 12 > 2 × 1 replica → breach
    assert_eq!(scaler.tick(&server), Vec::new(), "one breached tick must not scale yet");
    let actions = scaler.tick(&server);
    assert_eq!(
        actions,
        vec![ScaleAction::Up { model: "mnist".to_string(), from: 1, to: 2 }],
        "two consecutive breaches must grow the pool"
    );
    assert_eq!(server.load_window("mnist").expect("known model").replicas, 2);

    for t in held {
        t.wait().expect("flood completes");
    }
    server.shutdown();
}

#[test]
fn transients_shorter_than_the_hysteresis_never_scale() {
    let server = slow_server(Duration::from_millis(40));
    let mut scaler = Autoscaler::new(config(), &server).expect("valid config");

    // Breach once, then drain: the streak must reset, so a later
    // single-tick breach doesn't scale either.
    let held = flood(&server, 8);
    assert_eq!(scaler.tick(&server), Vec::new());
    for t in held {
        t.wait().expect("completes");
    }
    wait_for_drain(&server);
    assert_eq!(scaler.tick(&server), Vec::new(), "steady/idle tick resets the breach streak");

    let held = flood(&server, 8);
    assert_eq!(scaler.tick(&server), Vec::new(), "streak must restart after the reset");
    for t in held {
        t.wait().expect("completes");
    }
    assert_eq!(server.load_window("mnist").expect("known model").replicas, 1);
    server.shutdown();
}

#[test]
fn cooldown_blocks_back_to_back_resizes() {
    let server = slow_server(Duration::from_millis(60));
    let mut scaler = Autoscaler::new(config(), &server).expect("valid config");

    let held = flood(&server, 20);
    scaler.tick(&server);
    assert_eq!(scaler.tick(&server).len(), 1, "second breach scales");
    // Still heavily breached, but the cooldown tick must hold.
    assert_eq!(scaler.tick(&server), Vec::new(), "cooldown tick must not scale");

    for t in held {
        t.wait().expect("completes");
    }
    server.shutdown();
}

#[test]
fn idle_pool_shrinks_to_min_replicas_and_stops() {
    let server = slow_server(Duration::from_millis(30));
    let mut scaler = Autoscaler::new(config(), &server).expect("valid config");

    // Grow to 2 first.
    let held = flood(&server, 12);
    scaler.tick(&server);
    assert_eq!(scaler.tick(&server).len(), 1);
    for t in held {
        t.wait().expect("completes");
    }
    wait_for_drain(&server);

    // Now idle: cooldown (1 tick) + down_hysteresis (3 idle ticks).
    let mut downs = Vec::new();
    for _ in 0..8 {
        downs.extend(scaler.tick(&server));
    }
    assert_eq!(
        downs,
        vec![ScaleAction::Down { model: "mnist".to_string(), from: 2, to: 1 }],
        "idleness must shrink back to min_replicas exactly once"
    );
    assert_eq!(server.load_window("mnist").expect("known model").replicas, 1);
    server.shutdown();
}

/// Refused attempts are traffic: a pool whose every request is refused at
/// admission has nothing in flight, but it is not idle, so it keeps its
/// replicas until the attempts stop.
#[test]
fn a_pool_refusing_traffic_is_not_idle() {
    let net = Network::random(models::test_net(8, 4, 2), 17);
    let server = Server::builder()
        .model_with("mnist", &net, ModelOptions::new().replicas(2))
        .start()
        .expect("valid server");
    let mut scaler = Autoscaler::new(config(), &server).expect("valid config");
    let client = server.client();
    let misshapen = Tensor3::from_fn(Shape3::square(9, 3), |_, _, _| 0i8);
    for _ in 0..8 {
        let refused = client.submit_with(misshapen.clone(), SubmitOptions::model("mnist"));
        assert!(refused.is_err(), "a misshapen image is refused at admission");
        assert_eq!(scaler.tick(&server), vec![], "a refusing pool is not idle");
    }
    let window = server.load_window("mnist").expect("known model");
    assert_eq!((window.admitted, window.rejected, window.in_flight), (0, 8, 0));

    // The attempts stop: the third idle tick (down_hysteresis) shrinks it.
    let downs: Vec<ScaleAction> = (0..4).flat_map(|_| scaler.tick(&server)).collect();
    assert_eq!(downs, vec![ScaleAction::Down { model: "mnist".to_string(), from: 2, to: 1 }]);
    server.shutdown();
}

#[test]
fn growth_respects_max_replicas() {
    let server = slow_server(Duration::from_millis(80));
    let mut scaler = Autoscaler::new(config(), &server).expect("valid config"); // max 3
    let held = flood(&server, 60);
    let mut ups = 0;
    for _ in 0..20 {
        ups += scaler.tick(&server).len();
    }
    assert_eq!(ups, 2, "1 → 2 → 3 replicas and then the ceiling holds");
    assert_eq!(server.load_window("mnist").expect("known model").replicas, 3);
    for t in held {
        t.wait().expect("completes");
    }
    server.shutdown();
}

#[test]
fn total_budget_caps_growth_across_models() {
    let net = Network::random(models::test_net(8, 4, 2), 19);
    let server = Server::builder()
        .config(ServerConfig { max_batch: 1, ..ServerConfig::default() })
        .model_with(
            "hot",
            &net,
            ModelOptions::new().replicas(1).synthetic_delay(Duration::from_millis(60)),
        )
        .model_with("cold", &net, ModelOptions::new().replicas(1))
        .start()
        .expect("valid server");
    let config = AutoscalerConfig::builder()
        .min_replicas(1)
        .max_replicas(4)
        .total_budget(3) // hot may grow to 2 (2 + 1 cold = 3), never to 3
        .backlog_per_replica(2)
        .up_hysteresis(1)
        .down_hysteresis(10)
        .cooldown_ticks(0)
        .build()
        .expect("valid config");
    let mut scaler = Autoscaler::new(config, &server).expect("valid config");

    let client = server.client();
    let held: Vec<Ticket> = (0..40)
        .map(|i| client.submit_with(image(i), SubmitOptions::model("hot")).expect("admitted"))
        .collect();
    let mut ups = 0;
    for _ in 0..10 {
        ups += scaler.tick(&server).len();
    }
    assert_eq!(ups, 1, "the shared budget admits exactly one grow");
    assert_eq!(server.load_window("hot").expect("known model").replicas, 2);
    assert_eq!(server.load_window("cold").expect("known model").replicas, 1);
    for t in held {
        t.wait().expect("completes");
    }
    server.shutdown();
}
