//! Integration tests for the experiment service: byte-identity between
//! concurrent HTTP responses and one-shot CLI output, overload
//! behaviour, typed errors, idle-connection timeouts, and
//! cancel-on-shutdown drain.
//!
//! The server runs in-process (so tests can steer the thread budget and
//! observe `in_flight`); the CLI runs as a real subprocess — exactly
//! the two surfaces a user can drive, compared byte-for-byte.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::Command;
use std::time::{Duration, Instant};

use sustain_hpc::service::{serve, ServeOptions};

/// CI runs this suite under `SUSTAIN_THREADS=2` as well: honor the env
/// knob, so the servers size their pools from it and not from the
/// hardware count.
fn parallelism_init() {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(restore_env_threads);
}

/// Applies the thread budget `SUSTAIN_THREADS` asks for, or the
/// default when it is unset.
fn restore_env_threads() {
    let applied = sustain_hpc::core::sweep::init_threads_from_env();
    if applied.expect("valid SUSTAIN_THREADS in CI").is_none() {
        sustain_hpc::core::sweep::set_threads(0);
    }
}

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sustain-hpc"))
}

/// Sends one raw HTTP request and returns (status, body).
fn http(addr: SocketAddr, raw: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(raw.as_bytes()).expect("send");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("recv");
    parse_response(&response)
}

fn parse_response(response: &str) -> (u16, String) {
    let status: u16 = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad response head: {response:?}"));
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn post(addr: SocketAddr, path: &str, json: &str) -> (u16, String) {
    http(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{json}",
            json.len()
        ),
    )
}

/// Runs the one-shot CLI with a request file and returns its stdout.
fn cli_body(subcommand: &str, request_json: &str, threads: &str) -> String {
    let file = std::env::temp_dir().join(format!(
        "sustain-service-test-{}-{subcommand}-{threads}.json",
        std::process::id()
    ));
    std::fs::write(&file, request_json).expect("write request file");
    let out = cli()
        .args([subcommand, "--request"])
        .arg(&file)
        .args(["--threads", threads])
        .output()
        .expect("CLI runs");
    std::fs::remove_file(&file).ok();
    assert!(
        out.status.success(),
        "CLI {subcommand} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("CLI output is UTF-8")
}

/// The tentpole invariant: N concurrent identical `/run` requests all
/// return exactly the bytes the one-shot CLI prints, at more than one
/// thread setting — the service is a front-end, never a fork, of the
/// simulation.
#[test]
fn concurrent_requests_are_byte_identical_to_the_cli() {
    parallelism_init();
    let run_req = r#"{"days": 2, "nodes": 600, "policy": "carbon"}"#;
    let sweep_req = r#"{"base": {"days": 2, "nodes": 600}, "axis": "seed", "values": [1, 2, 3]}"#;
    for threads in [1usize, 2] {
        sustain_hpc::core::sweep::set_threads(threads);
        let handle = serve(ServeOptions::default()).expect("serve");
        let addr = handle.local_addr();

        let expected_run = cli_body("run", run_req, &threads.to_string());
        let workers: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(move || post(addr, "/run", run_req)))
            .collect();
        for w in workers {
            let (status, body) = w.join().expect("request thread");
            assert_eq!(status, 200, "{body}");
            // CLI output is the body plus the trailing println newline.
            assert_eq!(
                format!("{body}\n"),
                expected_run,
                "HTTP /run body must be byte-identical to CLI output at {threads} thread(s)"
            );
        }

        let expected_sweep = cli_body("sweep", sweep_req, &threads.to_string());
        let (status, body) = post(addr, "/sweep", sweep_req);
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            format!("{body}\n"),
            expected_sweep,
            "HTTP /sweep body must be byte-identical to CLI output at {threads} thread(s)"
        );

        handle.shutdown_and_join();
    }
    restore_env_threads();
}

/// Overload: with one worker wedged and the accept queue full, new
/// connections get an immediate typed 429 — and the wedged request
/// still completes once its body arrives (no accepted request is
/// dropped).
#[test]
fn overload_returns_429_and_the_stalled_request_still_completes() {
    parallelism_init();
    let handle = serve(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        max_inflight: 1,
        queue_depth: 1,
        ..ServeOptions::default()
    })
    .expect("serve");
    let addr = handle.local_addr();

    // Wedge the single worker: declare a body, then withhold it.
    let body = r#"{"days": 2}"#;
    let mut stalled = TcpStream::connect(addr).expect("connect");
    stalled
        .write_all(
            format!(
                "POST /run HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        )
        .expect("send head");
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.in_flight() < 1 {
        assert!(
            Instant::now() < deadline,
            "worker never picked up the request"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // Fill the queue with a request that will drain cleanly later.
    let mut queued = TcpStream::connect(addr).expect("connect queued");
    queued
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send queued");

    // Queue full + worker wedged: connections now bounce with 429.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut saw_overload = false;
    while !saw_overload && Instant::now() < deadline {
        let (status, over_body) = http(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        if status == 429 {
            assert!(over_body.contains("overloaded"), "{over_body}");
            saw_overload = true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(saw_overload, "never observed a 429 under overload");

    // Deliver the withheld body: the wedged request must finish with a
    // full 200 response.
    stalled.write_all(body.as_bytes()).expect("send body");
    let mut response = String::new();
    stalled.read_to_string(&mut response).expect("recv stalled");
    let (status, run_body) = parse_response(&response);
    assert_eq!(status, 200, "{run_body}");
    assert!(
        run_body.contains("\"outcome\""),
        "stalled request lost its result"
    );

    // And the queued request drains with a real response too.
    let mut response = String::new();
    queued.read_to_string(&mut response).expect("recv queued");
    let (status, _) = parse_response(&response);
    assert_eq!(status, 200);

    handle.shutdown_and_join();
}

/// Shutdown cancels: a request in flight when shutdown begins is
/// answered with a typed 408 `Cancelled` body instead of holding the
/// drain hostage — and still gets a full response before the workers
/// exit (the worker drains by answering, never by dropping).
#[test]
fn shutdown_cancels_in_flight_requests_with_typed_408() {
    parallelism_init();
    let handle = serve(ServeOptions::default()).expect("serve");
    let addr = handle.local_addr();

    let body = r#"{"days": 2}"#;
    let mut inflight = TcpStream::connect(addr).expect("connect");
    inflight
        .write_all(
            format!(
                "POST /run HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        )
        .expect("send head");
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.in_flight() < 1 {
        assert!(
            Instant::now() < deadline,
            "worker never picked up the request"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // Shutdown begins while the request is mid-read: the server token
    // is already cancelled when the body finally arrives, so the run
    // is cooperatively cancelled before simulating anything.
    handle.shutdown();
    inflight.write_all(body.as_bytes()).expect("send body");
    let mut response = String::new();
    inflight.read_to_string(&mut response).expect("recv");
    let (status, drained) = parse_response(&response);
    assert_eq!(status, 408, "{drained}");
    let v: serde_json::Value = serde_json::from_str(&drained).expect("typed body");
    assert_eq!(v["error"]["kind"].as_str(), Some("cancelled"), "{drained}");
    assert!(drained.contains("shutdown requested"), "{drained}");

    // join() returning proves every worker exited after the drain.
    handle.join();
}

/// A stalled `/sweep` in flight at shutdown is cancelled with a typed
/// `Cancelled` body (carrying partial-progress stats) instead of
/// blocking the drain until every remaining point has simulated.
#[test]
fn stalled_sweep_is_cancelled_rather_than_blocking_shutdown() {
    parallelism_init();
    let handle = serve(ServeOptions::default()).expect("serve");
    let addr = handle.local_addr();

    // Big enough that it cannot finish between "worker picked it up"
    // and the shutdown call a few milliseconds later.
    let sweep_req =
        r#"{"base": {"nodes": 2000}, "axis": "days", "values": [100, 120, 140]}"#.to_string();
    let requester = std::thread::spawn(move || post(addr, "/sweep", &sweep_req));
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.in_flight() < 1 {
        assert!(
            Instant::now() < deadline,
            "worker never picked up the sweep"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    handle.shutdown();
    let (status, body) = requester.join().expect("request thread");
    assert_eq!(status, 408, "{body}");
    let v: serde_json::Value = serde_json::from_str(&body).expect("typed body");
    assert_eq!(v["error"]["kind"].as_str(), Some("cancelled"), "{body}");
    assert!(body.contains("sweep points completed"), "{body}");

    handle.join();
}

/// An idle connection — opened, never sending a request — is answered
/// a typed 408 `timeout` once the read deadline fires, instead of
/// pinning a worker until the peer goes away.
#[test]
fn idle_connection_is_timed_out_with_typed_408() {
    parallelism_init();
    let handle = serve(ServeOptions {
        read_timeout_ms: 200,
        ..ServeOptions::default()
    })
    .expect("serve");
    let addr = handle.local_addr();

    let started = Instant::now();
    let mut idle = TcpStream::connect(addr).expect("connect");
    let mut response = String::new();
    idle.read_to_string(&mut response).expect("recv");
    let (status, body) = parse_response(&response);
    assert_eq!(status, 408, "{body}");
    let v: serde_json::Value = serde_json::from_str(&body).expect("typed body");
    assert_eq!(v["error"]["kind"].as_str(), Some("timeout"), "{body}");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "timeout took far longer than the configured deadline"
    );

    // The worker that served the idle peer is still alive for real work.
    let (status, _) = http(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);

    handle.shutdown_and_join();
}

/// Typed error surface over real sockets: malformed JSON, unknown
/// endpoint, unsupported method, and a config rejection.
#[test]
fn error_responses_are_typed_json() {
    parallelism_init();
    let handle = serve(ServeOptions::default()).expect("serve");
    let addr = handle.local_addr();

    let (status, body) = post(addr, "/run", "{definitely not json");
    assert_eq!(status, 400);
    let v: serde_json::Value = serde_json::from_str(&body).expect("error body is JSON");
    assert_eq!(v["error"]["kind"].as_str(), Some("bad_request"));

    let (status, body) = post(addr, "/run", r#"{"days": 0}"#);
    assert_eq!(status, 400);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["error"]["kind"].as_str(), Some("config"));
    assert_eq!(v["error"]["field"].as_str(), Some("days"));

    let (status, body) = http(addr, "GET /no-such HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 404);
    assert!(body.contains("not_found"));

    let (status, body) = http(addr, "DELETE /run HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 405);
    assert!(body.contains("method_not_allowed"));

    // /stats reflects the traffic above.
    let (status, body) = http(addr, "GET /stats HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert!(v["trace_cache"]["capacity"].as_u64().is_some(), "{body}");
    let endpoints = v["requests"].as_array().expect("requests array");
    let run = endpoints
        .iter()
        .find(|e| e["endpoint"].as_str() == Some("POST /run"))
        .expect("POST /run tracked");
    assert!(run["errors_4xx"].as_u64().unwrap() >= 2, "{body}");

    handle.shutdown_and_join();
}
