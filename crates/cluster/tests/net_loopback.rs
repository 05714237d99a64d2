//! Loopback TCP tests for the wire edge. Everything binds `127.0.0.1:0`
//! (OS-assigned ports, no external network).
//!
//! The acceptance property: a single-backend [`NetServer`] is
//! **bit-identical** to the in-process client — the wire adds transport,
//! not arithmetic. Plus: out-of-order response streaming, typed errors
//! for unknown models / bad frames / unsupported versions over a real
//! socket, and a balanced admission ledger when the client disconnects
//! mid-request.

use qnn_cluster::wire::{ErrorCode, ErrorFrame, Frame, FrameBuffer, NO_REQUEST, VERSION};
use qnn_cluster::{NetClient, NetError, NetServer};
use qnn_compiler::{run_images, CompileOptions};
use qnn_nn::{models, Network};
use qnn_serve::{ModelOptions, Priority, Server, ServerConfig, SubmitOptions};
use qnn_tensor::{Shape3, Tensor3};
use qnn_testkit::Rng;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

fn trace(n: usize, seed: u64) -> Vec<Tensor3<i8>> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| Tensor3::from_fn(Shape3::square(8, 3), |_, _, _| rng.gen_range(-127i8..=127)))
        .collect()
}

#[test]
fn single_backend_edge_is_bit_identical_to_in_process() {
    let net = Network::random(models::test_net(8, 4, 2), 21);
    let images = trace(6, 0xD57);
    let direct = run_images(&net, &images, &CompileOptions::default()).expect("direct");

    // One replica and a max_batch covering the trace, exactly like the
    // in-process determinism test — the edge must not perturb batching.
    let config = ServerConfig {
        replicas: 1,
        max_batch: images.len(),
        flush_deadline: Duration::from_secs(10),
        ..ServerConfig::default()
    };
    let server =
        Server::builder().config(config).model("mnist", &net).start().expect("valid server");
    let edge = NetServer::bind(server, "127.0.0.1:0").expect("bind loopback");

    let client = NetClient::connect(edge.local_addr()).expect("connect");
    let tickets: Vec<_> = images
        .iter()
        .map(|img| client.submit(img.clone(), SubmitOptions::model("mnist")).expect("submit"))
        .collect();
    let logits: Vec<Vec<i32>> =
        tickets.into_iter().map(|t| t.wait().expect("answered").logits).collect();
    assert_eq!(logits, direct.logits, "wire transport changed the bits");

    drop(client);
    let report = edge.shutdown();
    assert_eq!(report.completed, images.len() as u64);
    assert_eq!(report.completed + report.rejected + report.shed, report.submitted);
}

#[test]
fn responses_stream_out_of_order_by_request_id() {
    let fast = Network::random(models::test_net(8, 4, 2), 31);
    let slow = Network::random(models::test_net(8, 4, 2), 32);
    let server = Server::builder()
        .model("fast", &fast)
        .model_with(
            "slow",
            &slow,
            ModelOptions::new().synthetic_delay(Duration::from_millis(400)),
        )
        .start()
        .expect("valid server");
    let edge = NetServer::bind(server, "127.0.0.1:0").expect("bind loopback");
    let client = NetClient::connect(edge.local_addr()).expect("connect");

    let img = trace(1, 0xF00).pop().expect("one image");
    // Submit the slow request FIRST (lower id), then the fast one.
    let slow_ticket =
        client.submit(img.clone(), SubmitOptions::model("slow")).expect("submit slow");
    let fast_ticket = client.submit(img, SubmitOptions::model("fast")).expect("submit fast");
    assert!(slow_ticket.id() < fast_ticket.id());

    // The fast response overtakes the slow one on the same connection —
    // an in-order server would hold it behind the 400 ms batch.
    let fast_resp =
        fast_ticket.wait_timeout(Duration::from_secs(5)).expect("fast resolved").expect("ok");
    assert_eq!(
        slow_ticket.wait_timeout(Duration::ZERO),
        None,
        "slow request should still be in flight when the fast response lands"
    );
    assert!(!fast_resp.logits.is_empty());

    let slow_resp = slow_ticket.wait().expect("slow eventually answers");
    assert!(!slow_resp.logits.is_empty());

    drop(client);
    let report = edge.shutdown();
    assert_eq!(report.completed, 2);
}

#[test]
fn resolved_reply_does_not_wait_behind_an_older_slower_one() {
    // The completion thread sleeps on the connection's reply channel, not
    // on its oldest request: with a 100 ms request outstanding, a later
    // request to an idle pool is on the wire as soon as it resolves.
    let net = Network::random(models::test_net(8, 4, 2), 33);
    let server = Server::builder()
        .model("fast", &net)
        .model_with(
            "slow",
            &net,
            ModelOptions::new().synthetic_delay(Duration::from_millis(100)),
        )
        .start()
        .expect("valid server");
    let edge = NetServer::bind(server, "127.0.0.1:0").expect("bind loopback");
    let client = NetClient::connect(edge.local_addr()).expect("connect");
    let img = trace(1, 0xF00).pop().expect("one image");

    // Warm the fast pool's pipeline so the timed request only runs it.
    client.submit(img.clone(), SubmitOptions::model("fast")).expect("submit").wait().expect("ok");
    let slow = client.submit(img.clone(), SubmitOptions::model("slow")).expect("submit slow");
    let started = Instant::now();
    client.submit(img, SubmitOptions::model("fast")).expect("submit fast").wait().expect("ok");
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_millis(20),
        "resolved reply waited {waited:?} behind an older, slower request"
    );
    assert_eq!(slow.wait_timeout(Duration::ZERO), None, "the slow request is still in flight");
    slow.wait().expect("slow eventually answers");

    drop(client);
    let report = edge.shutdown();
    assert_eq!(report.completed, 3);
}

#[test]
fn duplicate_in_flight_request_id_is_refused() {
    // Replies are routed by wire id, so an id may be in flight once.
    let net = Network::random(models::test_net(8, 4, 2), 34);
    let server = Server::builder()
        .model_with("m", &net, ModelOptions::new().synthetic_delay(Duration::from_millis(100)))
        .start()
        .expect("valid server");
    let edge = NetServer::bind(server, "127.0.0.1:0").expect("bind loopback");
    let mut raw = TcpStream::connect(edge.local_addr()).expect("connect raw");
    let request = Frame::Request(qnn_cluster::wire::RequestFrame {
        id: 7,
        model: "m".into(),
        priority: Priority::Batch,
        deadline_us: None,
        image: trace(1, 0xD0B).pop().expect("one image"),
    })
    .encode();
    raw.write_all(&request).expect("first request");
    raw.write_all(&request).expect("same id again");
    match read_one_frame(&mut raw) {
        Some(Frame::Error(ErrorFrame { id: 7, code: ErrorCode::BadRequest, message })) => {
            assert!(message.contains("already in flight"), "message was: {message}");
        }
        other => panic!("expected a BadRequest for the duplicate id, got {other:?}"),
    }
    match read_one_frame(&mut raw) {
        Some(Frame::Response(r)) => assert_eq!(r.id, 7),
        other => panic!("expected the first request's response, got {other:?}"),
    }
    drop(raw);
    let report = edge.shutdown();
    assert_eq!(report.submitted, 1);
    assert_eq!(report.completed, 1);
}

#[test]
fn unknown_model_resolves_to_a_typed_remote_error() {
    let net = Network::random(models::test_net(8, 4, 2), 41);
    let server = Server::builder().model("mnist", &net).start().expect("valid server");
    let edge = NetServer::bind(server, "127.0.0.1:0").expect("bind loopback");
    let client = NetClient::connect(edge.local_addr()).expect("connect");

    let img = trace(1, 0xBAD).pop().expect("one image");
    let ticket = client.submit(img, SubmitOptions::model("nope")).expect("submit");
    match ticket.wait() {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::UnknownModel),
        other => panic!("expected a remote UnknownModel error, got {other:?}"),
    }

    drop(client);
    let report = edge.shutdown();
    // The refused request never entered admission: the ledger is all
    // zeros and still balances.
    assert_eq!(report.completed + report.rejected + report.shed, report.submitted);
}

/// A well-formed frame whose image is not the model's input shape is
/// answered with `BadRequest` at admission, and the edge keeps serving.
#[test]
fn wrongly_shaped_image_is_a_bad_request_and_the_edge_keeps_serving() {
    let net = Network::random(models::test_net(8, 4, 2), 43);
    let server = Server::builder()
        .config(ServerConfig { replicas: 1, ..ServerConfig::default() })
        .model("mnist", &net)
        .start()
        .expect("valid server");
    let edge = NetServer::bind(server, "127.0.0.1:0").expect("bind loopback");
    let client = NetClient::connect(edge.local_addr()).expect("connect");

    let wide = Tensor3::from_fn(Shape3::square(9, 3), |_, _, _| 1i8);
    let ticket = client.submit(wide, SubmitOptions::model("mnist")).expect("submit");
    match ticket.wait() {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected a remote BadRequest error, got {other:?}"),
    }
    let img = trace(1, 0x9E7).pop().expect("one image");
    let ticket = client.submit(img.clone(), SubmitOptions::model("mnist")).expect("submit");
    assert_eq!(ticket.wait().expect("answered").logits, net.forward(&img).logits);

    drop(client);
    let report = edge.shutdown();
    assert_eq!((report.completed, report.rejected), (1, 1));
    assert_eq!(report.completed + report.rejected + report.shed, report.submitted);
}

#[test]
fn expired_deadline_sheds_over_the_wire() {
    let net = Network::random(models::test_net(8, 4, 2), 43);
    let server = Server::builder()
        .model_with(
            "mnist",
            &net,
            ModelOptions::new().synthetic_delay(Duration::from_millis(50)),
        )
        .start()
        .expect("valid server");
    let edge = NetServer::bind(server, "127.0.0.1:0").expect("bind loopback");
    let client = NetClient::connect(edge.local_addr()).expect("connect");

    let images = trace(4, 0x5EED);
    // First request occupies the replica; the rest carry an
    // already-tiny deadline and shed at dispatch.
    let opts = SubmitOptions::model("mnist");
    let head = client.submit(images[0].clone(), opts.clone()).expect("submit");
    let doomed: Vec<_> = images[1..]
        .iter()
        .map(|img| {
            client
                .submit(
                    img.clone(),
                    opts.clone().priority(Priority::Batch).deadline(Duration::from_micros(1)),
                )
                .expect("submit")
        })
        .collect();
    head.wait().expect("head completes");
    let mut sheds = 0u64;
    for t in doomed {
        match t.wait() {
            Err(NetError::Remote { code: ErrorCode::DeadlineShed, .. }) => sheds += 1,
            Ok(_) => {}
            other => panic!("expected DeadlineShed or success, got {other:?}"),
        }
    }
    assert!(sheds > 0, "a 1 µs deadline behind a 50 ms batch must shed");

    drop(client);
    let report = edge.shutdown();
    assert_eq!(report.shed, sheds);
    assert_eq!(report.completed + report.rejected + report.shed, report.submitted);
}

/// A request still unresolved after the edge's response timeout is
/// answered `Timeout`; the connection keeps serving, and the request itself
/// still completes inside the server.
#[test]
fn unresolved_request_times_out_and_the_connection_keeps_serving() {
    let net = Network::random(models::test_net(8, 4, 2), 47);
    let server = Server::builder()
        .model("fast", &net)
        .model_with("slow", &net, ModelOptions::new().synthetic_delay(Duration::from_millis(400)))
        .start()
        .expect("valid server");
    let img = trace(1, 0x71E).pop().expect("one image");
    // Warm the fast pool in process, so its wire request only runs the
    // pipeline and answers well inside the timeout.
    let warm = server.client().submit_with(img.clone(), SubmitOptions::model("fast"));
    warm.expect("admitted").wait().expect("warm-up answered");
    let edge = NetServer::bind_with(server, "127.0.0.1:0", Duration::from_millis(50))
        .expect("bind loopback");
    let client = NetClient::connect(edge.local_addr()).expect("connect");

    let slow = client.submit(img.clone(), SubmitOptions::model("slow")).expect("submit slow");
    match slow.wait() {
        Err(NetError::Remote { code: ErrorCode::Timeout, .. }) => {}
        other => panic!("expected a remote Timeout error, got {other:?}"),
    }
    let fast = client.submit(img.clone(), SubmitOptions::model("fast")).expect("submit fast");
    assert_eq!(fast.wait().expect("answered").logits, net.forward(&img).logits);

    drop(client);
    let report = edge.shutdown();
    let slow = report.model("slow").expect("slow is reported");
    assert_eq!((slow.submitted, slow.completed), (1, 1), "the timed-out request still ran");
    assert_eq!(report.model("fast").map(|m| m.completed), Some(2));
    for m in &report.per_model {
        assert_eq!(m.completed + m.rejected + m.shed, m.submitted, "model {}", m.model);
    }
    assert_eq!(report.completed + report.rejected + report.shed, report.submitted);
}

#[test]
fn client_disconnect_mid_request_keeps_the_ledger_balanced() {
    let net = Network::random(models::test_net(8, 4, 2), 51);
    let server = Server::builder()
        .model_with(
            "mnist",
            &net,
            ModelOptions::new().synthetic_delay(Duration::from_millis(100)),
        )
        .start()
        .expect("valid server");
    let edge = NetServer::bind(server, "127.0.0.1:0").expect("bind loopback");

    let client = NetClient::connect(edge.local_addr()).expect("connect");
    let n = 5;
    for img in trace(n, 0x0DD) {
        let _ = client.submit(img, SubmitOptions::model("mnist")).expect("submit");
    }
    // Submission only guarantees the frames left the client socket; wait
    // until the edge has actually admitted all five before hanging up
    // (an early close can RST away frames still in the receive buffer,
    // which would be a *different* scenario: a partially-heard client).
    let deadline = Instant::now() + Duration::from_secs(10);
    while edge.server().load_window("mnist").expect("known model").submitted < n as u64 {
        assert!(Instant::now() < deadline, "edge never admitted the submitted requests");
        thread::sleep(Duration::from_millis(2));
    }
    // Hang up with every request still in flight: the tickets die with
    // the connection, but the admitted requests must still be served (or
    // shed) inside the runtime.
    drop(client);

    let report = edge.shutdown();
    assert_eq!(report.submitted, n as u64);
    assert_eq!(
        report.completed + report.rejected + report.shed,
        report.submitted,
        "disconnect mid-request unbalanced the admission ledger"
    );
}

/// Read frames off a raw socket until it yields one (or EOF).
fn read_one_frame(stream: &mut TcpStream) -> Option<Frame> {
    let mut fb = FrameBuffer::new();
    let mut chunk = [0u8; 4096];
    loop {
        match fb.next_frame() {
            Ok(Some(frame)) => return Some(frame),
            Ok(None) => {}
            Err(_) => return None,
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => fb.feed(&chunk[..n]),
        }
    }
}

#[test]
fn garbage_bytes_get_a_typed_error_frame_and_a_close() {
    let net = Network::random(models::test_net(8, 4, 2), 61);
    let server = Server::builder().model("mnist", &net).start().expect("valid server");
    let edge = NetServer::bind(server, "127.0.0.1:0").expect("bind loopback");

    let mut raw = TcpStream::connect(edge.local_addr()).expect("connect raw");
    // A well-framed body that is pure garbage: length prefix 8, body "XX…".
    raw.write_all(&8u32.to_be_bytes()).expect("write len");
    raw.write_all(b"XXXXXXXX").expect("write body");
    match read_one_frame(&mut raw) {
        Some(Frame::Error(ErrorFrame { id, code, .. })) => {
            assert_eq!(id, NO_REQUEST);
            assert_eq!(code, ErrorCode::BadRequest);
        }
        other => panic!("expected a BadRequest error frame, got {other:?}"),
    }
    // The server then drops the connection.
    let mut rest = Vec::new();
    let _ = raw.read_to_end(&mut rest);

    let report = edge.shutdown();
    assert_eq!(report.submitted, 0);
}

#[test]
fn unsupported_version_is_answered_with_bad_request() {
    let net = Network::random(models::test_net(8, 4, 2), 62);
    let server = Server::builder().model("mnist", &net).start().expect("valid server");
    let edge = NetServer::bind(server, "127.0.0.1:0").expect("bind loopback");

    let frame =
        Frame::Error(ErrorFrame { id: 4, code: ErrorCode::Stopped, message: String::new() });
    let mut bytes = frame.encode();
    bytes[4 + 2] = VERSION + 1; // version byte, after the 4-byte prefix and 2-byte magic
    let mut raw = TcpStream::connect(edge.local_addr()).expect("connect raw");
    raw.write_all(&bytes).expect("write frame");
    match read_one_frame(&mut raw) {
        Some(Frame::Error(ErrorFrame { id, code, message })) => {
            assert_eq!(id, NO_REQUEST);
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("version"), "message was: {message}");
        }
        other => panic!("expected a BadRequest error frame, got {other:?}"),
    }

    let report = edge.shutdown();
    assert_eq!(report.submitted, 0);
}

#[test]
fn oversized_length_prefix_is_rejected_without_allocation() {
    let net = Network::random(models::test_net(8, 4, 2), 63);
    let server = Server::builder().model("mnist", &net).start().expect("valid server");
    let edge = NetServer::bind(server, "127.0.0.1:0").expect("bind loopback");

    let mut raw = TcpStream::connect(edge.local_addr()).expect("connect raw");
    raw.write_all(&u32::MAX.to_be_bytes()).expect("write hostile prefix");
    match read_one_frame(&mut raw) {
        Some(Frame::Error(ErrorFrame { id, code, message })) => {
            assert_eq!(id, NO_REQUEST);
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("exceeds"), "message was: {message}");
        }
        other => panic!("expected a BadRequest error frame, got {other:?}"),
    }

    let report = edge.shutdown();
    assert_eq!(report.submitted, 0);
}

#[test]
fn hot_weight_swap_is_visible_through_the_wire() {
    let spec = models::test_net(8, 4, 2);
    let v0 = Network::random(spec.clone(), 71);
    let v1 = Network::random(spec, 72);
    let server = Server::builder().model("mnist", &v0).start().expect("valid server");
    let edge = NetServer::bind(server, "127.0.0.1:0").expect("bind loopback");
    let client = NetClient::connect(edge.local_addr()).expect("connect");

    let img = trace(1, 0x7E57).pop().expect("one image");
    let before = client
        .submit(img.clone(), SubmitOptions::model("mnist"))
        .expect("submit")
        .wait()
        .expect("answered");
    assert_eq!(before.weight_version, 0);

    let version = edge.server().publish_weights("mnist", v1.clone()).expect("publish");
    assert_eq!(version, 1);
    // Weight swaps are batch-atomic, not submission-atomic: wait for a
    // batch that actually ran on the new snapshot.
    let expected = v1.forward(&img).logits;
    let after = client
        .submit(img.clone(), SubmitOptions::model("mnist"))
        .expect("submit")
        .wait()
        .expect("answered");
    assert_eq!(after.weight_version, 1);
    assert_eq!(after.logits, expected, "post-swap logits must come from the new weights");

    drop(client);
    let report = edge.shutdown();
    assert_eq!(report.completed, 2);
}
