//! Deadline, overload, and backoff behavior — the load-shedding
//! contract: under pressure the daemon answers typed
//! `Timeout`/`Overloaded` with bounded memory, and the client backs off
//! and gives up typed instead of spinning.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use rwbc_serve::protocol::{
    decode_response, encode_request, read_frame, write_frame, Request, RequestEnvelope, Response,
};
use rwbc_serve::{Client, ClientError, Daemon, ServeConfig, SolverConfig};

/// A daemon whose solve never finishes during the test (slow rounds) —
/// every query path is exercised against a stable `Solving` state.
fn slow_daemon(queue_depth: usize, workers: usize, work_delay_ms: u64) -> Daemon {
    let mut solver = SolverConfig::new(64, 5);
    solver.slow_ms = 1000;
    let mut config = ServeConfig::new(solver);
    config.queue_depth = queue_depth;
    config.workers = workers;
    config.work_delay_ms = work_delay_ms;
    config.retry_after_ms = 7;
    Daemon::start(config).expect("bind loopback")
}

/// Raw exchange: one request frame, one response frame, no retries.
fn raw_request(addr: std::net::SocketAddr, env: &RequestEnvelope) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write_frame(&mut stream, &encode_request(env)).expect("send");
    let payload = read_frame(&mut stream).expect("receive");
    decode_response(&payload).expect("decode")
}

fn stats_request(deadline_ms: u32) -> RequestEnvelope {
    RequestEnvelope {
        deadline_ms,
        request: Request::Stats,
    }
}

#[test]
fn slow_worker_produces_typed_timeout() {
    // One worker that takes 400 ms per request; a 30 ms deadline must
    // come back as a typed Timeout, well before the worker finishes.
    let daemon = slow_daemon(8, 1, 400);
    let t0 = Instant::now();
    let response = raw_request(daemon.local_addr(), &stats_request(30));
    let elapsed = t0.elapsed();
    assert_eq!(response, Response::Timeout { deadline_ms: 30 });
    assert!(
        elapsed < Duration::from_millis(350),
        "timeout must fire at the deadline, not when the worker finishes ({elapsed:?})"
    );
    daemon.drain();
    daemon.wait();
}

#[test]
fn full_queue_sheds_with_typed_overloaded() {
    // Queue depth 1, one worker busy for 600 ms per request: the first
    // request occupies the worker, the second fills the queue, the
    // third must be shed immediately with the configured hint.
    let daemon = slow_daemon(1, 1, 600);
    let addr = daemon.local_addr();
    // Staggered, so the first is already *on* the worker (not in the
    // queue) before the second arrives to fill the queue slot.
    let mut busy = Vec::new();
    for _ in 0..2 {
        busy.push(std::thread::spawn(move || {
            raw_request(addr, &stats_request(2000))
        }));
        std::thread::sleep(Duration::from_millis(100));
    }
    let t0 = Instant::now();
    let response = raw_request(addr, &stats_request(2000));
    let elapsed = t0.elapsed();
    assert_eq!(response, Response::Overloaded { retry_after_ms: 7 });
    assert!(
        elapsed < Duration::from_millis(200),
        "shedding must be immediate, not queued ({elapsed:?})"
    );
    for handle in busy {
        handle.join().unwrap();
    }
    daemon.drain();
    daemon.wait();
}

#[test]
fn queries_before_the_solve_finishes_get_not_ready() {
    let daemon = slow_daemon(8, 2, 0);
    let response = raw_request(
        daemon.local_addr(),
        &RequestEnvelope {
            deadline_ms: 500,
            request: Request::Centrality { node: 0 },
        },
    );
    assert_eq!(response, Response::NotReady { retry_after_ms: 7 });
    daemon.drain();
    daemon.wait();
}

#[test]
fn client_backs_off_and_gives_up_typed() {
    // The solve never finishes, so every retry sees NotReady; the
    // client must walk the 4-8-16... backoff schedule and then give up
    // with the typed error instead of spinning forever.
    let daemon = slow_daemon(8, 2, 0);
    let client = Client::new(daemon.local_addr().to_string())
        .with_max_attempts(3)
        .with_jitter_seed(11);
    let t0 = Instant::now();
    match client.centrality(0, 200) {
        Err(ClientError::GaveUp { attempts: 3, last }) => {
            assert!(last.contains("NotReady"), "last attempt saw: {last}");
        }
        other => panic!("expected GaveUp, got {other:?}"),
    }
    // Two sleeps happen (after attempts 1 and 2): at least
    // base + doubled = 4 + 8 ms even before jitter and hints.
    assert!(
        t0.elapsed() >= Duration::from_millis(12),
        "backoff must actually wait"
    );
    daemon.drain();
    daemon.wait();
}

#[test]
fn draining_daemon_refuses_queries_typed() {
    let daemon = slow_daemon(8, 2, 0);
    let addr = daemon.local_addr();
    // Open the connection before the drain: admission stops, but
    // established connections get the typed refusal.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    daemon.drain();
    write_frame(&mut stream, &encode_request(&stats_request(100))).expect("send");
    let payload = read_frame(&mut stream).expect("receive");
    assert_eq!(decode_response(&payload).unwrap(), Response::Draining);
    daemon.wait();
}

#[test]
fn malformed_frames_get_typed_errors_not_disconnects() {
    let daemon = slow_daemon(8, 2, 0);
    let mut stream = TcpStream::connect(daemon.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // A well-framed but undecodable payload: typed Error response, and
    // the connection stays usable for a correct follow-up.
    write_frame(&mut stream, &[0xFF, 0xEE, 0xDD]).expect("send garbage");
    let payload = read_frame(&mut stream).expect("receive");
    match decode_response(&payload).unwrap() {
        Response::Error { reason } => assert!(reason.contains("malformed")),
        other => panic!("expected Error, got {other:?}"),
    }
    write_frame(&mut stream, &encode_request(&stats_request(500))).expect("send");
    let payload = read_frame(&mut stream).expect("receive");
    assert!(matches!(
        decode_response(&payload).unwrap(),
        Response::Stats(_)
    ));
    daemon.drain();
    daemon.wait();
}

#[test]
fn served_results_carry_slo_flags_and_health_transitions() {
    // A fast solve: wait for readiness, then check flags and ranking.
    let solver = SolverConfig::new(48, 9);
    let mut config = ServeConfig::new(solver);
    config.retry_after_ms = 5;
    let daemon = Daemon::start(config).expect("bind loopback");
    let client = Client::new(daemon.local_addr().to_string())
        .with_max_attempts(40)
        .with_jitter_seed(3);
    // Retries ride NotReady until the solve lands.
    match client.centrality(0, 2000).expect("eventually served") {
        Response::Value { node: 0, slo, .. } => {
            assert!(!slo.degraded, "clean solve must not be flagged");
            assert!(!slo.resumed);
            assert_eq!(slo.walks_lost, 0);
        }
        other => panic!("expected Value, got {other:?}"),
    }
    match client.health().expect("health") {
        Response::Health(h) => {
            assert!(h.ready);
            assert_eq!(h.phase, 2, "done phase");
        }
        other => panic!("expected Health, got {other:?}"),
    }
    match client.top_k(5, 2000).expect("ranking") {
        Response::Ranking { top, .. } => {
            assert_eq!(top.len(), 5);
            // Highest first.
            for pair in top.windows(2) {
                assert!(pair[0].1 >= pair[1].1);
            }
        }
        other => panic!("expected Ranking, got {other:?}"),
    }
    // Out-of-range node: typed error, not a panic or a wrong answer.
    match client.centrality(10_000, 2000).expect("typed") {
        Response::Error { reason } => assert!(reason.contains("out of range")),
        other => panic!("expected Error, got {other:?}"),
    }
    daemon.drain();
    daemon.wait();
}

#[test]
fn invalid_solve_parameters_fail_typed_instead_of_hanging() {
    // A daemon handed parameters the pipeline rejects reports the failure
    // (phase 3, typed query error) rather than solving forever.
    let mut solver = SolverConfig::new(32, 5);
    solver.sketch_precision = 1;
    let daemon = Daemon::start(ServeConfig::new(solver)).expect("bind loopback");
    let client = Client::new(daemon.local_addr().to_string());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client.health().expect("health") {
            Response::Health(h) if h.phase == 3 => {
                assert!(!h.ready);
                break;
            }
            Response::Health(_) => {
                assert!(
                    Instant::now() < deadline,
                    "the solve failure never surfaced"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("expected Health, got {other:?}"),
        }
    }
    match client.centrality(0, 2000).expect("typed") {
        Response::Error { reason } => assert!(reason.contains("sketch precision"), "{reason}"),
        other => panic!("expected Error, got {other:?}"),
    }
    daemon.drain();
    daemon.wait();

    // The CLI refuses them before binding, with the usage exit status.
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_rwbc-serve"))
        .args(["run", "--addr", "127.0.0.1:0", "--n", "32"])
        .args(["--sketch-precision", "1"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn rwbc-serve");
    let deadline = Instant::now() + Duration::from_secs(20);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("rwbc-serve run with invalid parameters did not exit");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(2));
}
