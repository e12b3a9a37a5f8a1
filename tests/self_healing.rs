//! Self-healing suite: the acceptance contract of the retry/quarantine/
//! circuit-breaker layer, driven end to end —
//!
//! * transient faults heal invisibly: a retried sweep is byte-identical
//!   to the fault-free run (in-process and across a SIGKILL + journal
//!   resume at more than one thread setting);
//! * permanent faults quarantine as hash-validated tombstones that
//!   replay skips (reporting the recorded error) unless `--retry-failed`
//!   re-runs them;
//! * a persistently faulting endpoint trips its circuit breaker into
//!   typed 503s with `Retry-After`, half-opens after a bounded number of
//!   rejections, and recloses on a successful probe — `GET /readyz`
//!   tracking the whole arc;
//! * a request held past its own deadline budget is answered a typed
//!   408 naming the deadline, and its worker serves on.
//!
//! The fault registry and the retry/health knobs are process-global, so
//! every test serializes on one mutex and disarms on drop.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use sustain_hpc::core::prelude::*;
use sustain_hpc::service::health;
use sustain_hpc::service::{
    serve, sweep_body, sweep_body_with_ctl, RunRequest, ServeOptions, SweepRequest,
};
use sustain_hpc::sim_core::faults;
use sustain_hpc::sim_core::retry::{self, run_with_retry};

/// CI runs this suite under `SUSTAIN_THREADS=2` as well: honor the env
/// knob so healing is exercised under the shared thread budget too.
fn parallelism_init() {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| {
        sustain_hpc::core::sweep::init_threads_from_env().expect("valid SUSTAIN_THREADS in CI");
    });
}

/// Serializes tests on the process-global fault registry and disarms
/// on drop, even when the test body panics.
struct FaultGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for FaultGuard {
    fn drop(&mut self) {
        faults::disarm();
    }
}

fn fault_lock() -> FaultGuard {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    faults::disarm();
    parallelism_init();
    FaultGuard(guard)
}

/// Monotonic seed source: unique seeds force cache misses so the armed
/// fault sites are actually on the exercised path.
fn fresh_seed() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0x5E1F_4EA1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("self-healing-{}-{name}", std::process::id()))
}

fn small_sweep_request() -> SweepRequest {
    SweepRequest {
        base: RunRequest {
            days: 2,
            nodes: 200,
            seed: fresh_seed(),
            ..RunRequest::default()
        },
        axis: "days".to_string(),
        values: vec![2.0, 3.0],
        ..SweepRequest::default()
    }
}

// ---- raw-socket helpers (same shapes the service's own tests use) ----

fn raw_response(addr: SocketAddr, raw: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(raw.as_bytes()).expect("send");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("recv");
    response
}

fn header_of(response: &str, name: &str) -> Option<String> {
    let head = response.split("\r\n\r\n").next().unwrap_or_default();
    head.lines().find_map(|line| {
        let (n, v) = line.split_once(':')?;
        n.eq_ignore_ascii_case(name).then(|| v.trim().to_string())
    })
}

fn split_response(response: &str) -> (u16, String) {
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

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    split_response(&raw_response(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"),
    ))
}

/// POST /run with a unique seed; returns the full raw response so
/// callers can assert on headers as well as status and body.
fn post_run_raw(addr: SocketAddr, json: &str) -> String {
    raw_response(
        addr,
        &format!(
            "POST /run HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{json}",
            json.len()
        ),
    )
}

fn post_run(addr: SocketAddr, seed: u64) -> (u16, String) {
    split_response(&post_run_raw(
        addr,
        &format!(r#"{{"days": 2, "nodes": 600, "seed": {seed}}}"#),
    ))
}

// ---------------------------------------------------------------------
// Transient faults heal invisibly: byte-identity of the retried sweep.
// ---------------------------------------------------------------------

/// A seeded transient fault (error mode, exact-Nth trigger) at either
/// the sweep-point boundary or inside the scenario run fails exactly one
/// attempt; the retry layer heals it and the journaled response is
/// byte-identical to the fault-free run of the same request.
#[test]
fn transient_faults_heal_and_the_retried_sweep_is_byte_identical() {
    let _guard = fault_lock();

    for site in ["scenario::run", "sweep::point"] {
        for trigger in [1, 2] {
            let req = small_sweep_request();
            let journal = temp_path(&format!("heal-{}-{trigger}.jsonl", site.replace(':', "_")));
            std::fs::remove_file(&journal).ok();

            let before = retry::retry_stats();
            faults::arm(&format!("{site}:error:{trigger}"), 7).expect("valid spec");
            let journal = SweepJournal {
                path: journal,
                retry_failed: false,
            };
            let healed = sweep_body_with_ctl(&req, None, Some(journal.clone()))
                .unwrap_or_else(|e| panic!("{site}:{trigger}: retried sweep failed: {e}"));
            assert_eq!(
                faults::fired_count(site),
                1,
                "{site}:{trigger}: exactly one attempt must have faulted"
            );
            faults::disarm();

            let after = retry::retry_stats();
            assert!(
                after.retries > before.retries,
                "{site}:{trigger}: the faulted attempt must be retried: {before:?} -> {after:?}"
            );
            assert!(
                after.healed > before.healed,
                "{site}:{trigger}: the retried point must be recorded as healed"
            );

            // Fault-free reference, computed after disarm: healing must
            // be invisible in the bytes.
            let reference = sweep_body(&req).expect("fault-free sweep");
            assert_eq!(
                healed, reference,
                "{site}:{trigger}: healed sweep must be byte-identical to the fault-free run"
            );
            assert!(
                !healed.contains("injected fault"),
                "{site}:{trigger}: no point error may leak into a healed response"
            );
            std::fs::remove_file(&journal.path).ok();
        }
    }
}

// ---------------------------------------------------------------------
// Quarantine: exhausted and permanent failures become tombstones.
// ---------------------------------------------------------------------

/// A point that stays transiently broken for its whole attempt budget
/// is quarantined with the recorded attempt count; a point that heals
/// mid-budget reports exactly how many attempts it took.
#[test]
fn exhausted_transient_retries_quarantine_with_recorded_attempts() {
    let _guard = fault_lock();
    let points: Vec<u64> = vec![7, 8];
    let broken_calls = AtomicUsize::new(0);
    let flaky_calls = AtomicUsize::new(0);
    let policy = RetryPolicy::new(2, Duration::ZERO);
    let ctl = RunCtl::unlimited();

    let before = retry::retry_stats();
    let plan = SweepPlan {
        master_seed: Some(99),
        retry: policy,
        ..SweepPlan::new(&points, &ctl)
    };
    let runs = plan
        .run(|p, seed| match *p {
            // Broken forever: transient error on every attempt.
            7 => {
                broken_calls.fetch_add(1, Ordering::Relaxed);
                Err(SimError::Faulted {
                    unit: "point 7".into(),
                    message: "flaky interconnect".into(),
                })
            }
            // Flaky once: fails the first attempt, heals on the second.
            _ => {
                if flaky_calls.fetch_add(1, Ordering::Relaxed) == 0 {
                    Err(SimError::Faulted {
                        unit: "point 8".into(),
                        message: "transient blip".into(),
                    })
                } else {
                    Ok(format!("{p}/{seed}"))
                }
            }
        })
        .expect("retrying sweep driver runs");

    assert!(
        matches!(runs[0].result, Err(SimError::Faulted { .. })),
        "exhausted point surfaces its last transient error: {:?}",
        runs[0].result
    );
    assert_eq!(runs[0].attempts, 2, "whole attempt budget consumed");
    assert_eq!(broken_calls.load(Ordering::Relaxed), 2);
    assert!(
        runs[1].result.is_ok(),
        "flaky point heals: {:?}",
        runs[1].result
    );
    assert_eq!(runs[1].attempts, 2, "healed on the second attempt");

    let after = retry::retry_stats();
    assert!(after.retries >= before.retries + 2);
    assert!(after.healed > before.healed);
    // Quarantine accounting belongs to the tombstone path: only the
    // journaled driver can quarantine (asserted in the test below).
}

/// A permanently failing point is quarantined after exactly one attempt
/// (permanent errors are never retried) as a journal tombstone; replay
/// skips it and reports the recorded error without re-running anything,
/// `--retry-failed` semantics re-run it, and the superseding success
/// then replays like any other record.
#[test]
fn a_permanent_fault_quarantines_and_only_retry_failed_reruns_it() {
    let _guard = fault_lock();
    let points: Vec<u64> = vec![10, 20, 30];
    let journal = temp_path("quarantine.jsonl");
    std::fs::remove_file(&journal).ok();
    let policy = RetryPolicy::new(3, Duration::ZERO);
    let ctl = RunCtl::unlimited();

    let journaled = |retry_failed| SweepPlan {
        master_seed: Some(99),
        retry: policy.clone(),
        journal: Some(SweepJournal {
            path: journal.clone(),
            retry_failed,
        }),
        ..SweepPlan::new(&points, &ctl)
    };

    let poisoned = std::sync::atomic::AtomicBool::new(true);
    let poison_calls = AtomicUsize::new(0);
    let work = |p: &u64, seed: u64| -> Result<String, SimError> {
        if *p == 20 {
            poison_calls.fetch_add(1, Ordering::Relaxed);
            if poisoned.load(Ordering::Relaxed) {
                return Err(SimError::InvalidInput {
                    message: "poison point".into(),
                });
            }
        }
        Ok(format!("{p}/{seed}"))
    };

    // Pass 1: the poison point quarantines after ONE attempt.
    let before = retry::retry_stats();
    let runs = journaled(false)
        .run(work)
        .expect("sweep with a quarantined point still completes");
    assert!(
        matches!(runs[1].result, Err(SimError::InvalidInput { .. })),
        "poison point surfaces its permanent error: {:?}",
        runs[1].result
    );
    assert_eq!(runs[1].attempts, 1, "permanent errors are never retried");
    assert_eq!(poison_calls.load(Ordering::Relaxed), 1);
    assert!(runs[0].result.is_ok() && runs[2].result.is_ok());
    let after = retry::retry_stats();
    assert_eq!(
        after.retries, before.retries,
        "no retry for a permanent error"
    );
    assert!(after.quarantined > before.quarantined);
    let text = std::fs::read_to_string(&journal).expect("journal exists");
    assert!(
        text.contains("tombstone") && text.contains("poison point"),
        "the quarantined point must be journaled as a tombstone: {text}"
    );

    // Pass 2: the poison is gone, but without --retry-failed the replay
    // skips the tombstone and reports the recorded error verbatim.
    poisoned.store(false, Ordering::Relaxed);
    let before = retry::retry_stats();
    let runs = journaled(false)
        .run(work)
        .expect("replay with a tombstone completes");
    match &runs[1].result {
        Err(SimError::InvalidInput { message }) => assert_eq!(message, "poison point"),
        other => panic!("tombstone replay must surface the recorded error, got {other:?}"),
    }
    assert_eq!(runs[1].attempts, 1, "recorded attempt count is preserved");
    assert_eq!(
        poison_calls.load(Ordering::Relaxed),
        1,
        "a skipped tombstone must not re-run the point"
    );
    assert_eq!(runs[0].attempts, 0, "clean points replay without running");
    let after = retry::retry_stats();
    assert!(
        after.tombstone_skips > before.tombstone_skips,
        "the skip must be counted: {before:?} -> {after:?}"
    );

    // Pass 3: --retry-failed re-runs exactly the tombstoned point.
    let runs = journaled(true)
        .run(work)
        .expect("retry-failed replay completes");
    assert!(
        runs[1].result.is_ok(),
        "re-run point heals: {:?}",
        runs[1].result
    );
    assert_eq!(runs[1].attempts, 1, "one fresh attempt");
    assert_eq!(poison_calls.load(Ordering::Relaxed), 2);

    // Pass 4: the success superseded the tombstone — a plain replay now
    // returns it without running anything.
    let runs = journaled(false)
        .run(work)
        .expect("post-heal replay completes");
    assert!(runs.iter().all(|r| r.result.is_ok()));
    assert!(runs.iter().all(|r| r.attempts == 0), "pure replay");
    assert_eq!(poison_calls.load(Ordering::Relaxed), 2);
    std::fs::remove_file(&journal).ok();
}

// ---------------------------------------------------------------------
// Crash + tombstone: SIGKILL, resume, skip — byte-identical stdout.
// ---------------------------------------------------------------------

/// A journaled CLI sweep with an injected fault and a single-attempt
/// budget quarantines its first point, is killed hard mid-run, and
/// resumes (fault-free) skipping the tombstone: stdout is byte-identical
/// to an uninterrupted faulted run at 1 and 2 threads. `--retry-failed`
/// then re-runs the quarantined point and matches the fault-free run.
#[test]
fn killed_faulted_sweep_resumes_skipping_the_tombstone_byte_identically() {
    let bin = || Command::new(env!("CARGO_BIN_EXE_sustain-hpc"));
    let request = r#"{"base": {"nodes": 800}, "axis": "days", "values": [20, 26, 32, 38]}"#;
    let req_file = temp_path("tombstone-request.json");
    std::fs::write(&req_file, request).expect("write request file");
    let fault_env: [(&str, &str); 3] = [
        ("SUSTAIN_FAULTS", "scenario::run:error:1"),
        ("SUSTAIN_FAULTS_SEED", "7"),
        ("SUSTAIN_RETRY_MAX", "1"),
    ];

    // Fault-free reference: what a fully healed sweep must print.
    let clean = bin()
        .args(["sweep", "--request"])
        .arg(&req_file)
        .args(["--threads", "1"])
        .env_remove("SUSTAIN_FAULTS")
        .output()
        .expect("clean reference sweep runs");
    assert!(clean.status.success());

    // Faulted reference (no journal, single attempt, sequential): the
    // first scenario::run attempt — point 0 — fails with a typed error.
    let faulted = {
        let mut cmd = bin();
        cmd.args(["sweep", "--request"])
            .arg(&req_file)
            .args(["--threads", "1"]);
        for (k, v) in fault_env {
            cmd.env(k, v);
        }
        cmd.output().expect("faulted reference sweep runs")
    };
    assert!(
        faulted.status.success(),
        "a faulted point is isolated, not fatal: {}",
        String::from_utf8_lossy(&faulted.stderr)
    );
    let faulted_stdout = String::from_utf8_lossy(&faulted.stdout).to_string();
    assert!(
        faulted_stdout.contains("injected fault at scenario::run (hit 1)"),
        "faulted reference must carry the typed point error: {faulted_stdout}"
    );

    // Journaled run under the same fault: the failed point quarantines
    // as a tombstone. Kill the process hard once the tombstone is
    // committed (if the sweep wins the race and finishes, the resume
    // below simply replays everything — identity still holds).
    let journal = temp_path("tombstone-journal.jsonl");
    std::fs::remove_file(&journal).ok();
    let mut child = {
        let mut cmd = bin();
        cmd.args(["sweep", "--request"])
            .arg(&req_file)
            .args(["--threads", "1", "--journal"])
            .arg(&journal)
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        for (k, v) in fault_env {
            cmd.env(k, v);
        }
        cmd.spawn().expect("spawn journaled sweep")
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let committed = std::fs::read_to_string(&journal).unwrap_or_default();
        if committed.contains("tombstone") || child.try_wait().expect("try_wait").is_some() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no tombstone appeared in the journal within 60s"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    child.kill().ok();
    child.wait().expect("reap killed sweep");
    assert!(
        std::fs::read_to_string(&journal)
            .expect("journal survives the kill")
            .contains("tombstone"),
        "the quarantined point must be tombstoned in the journal"
    );

    // Resume fault-free at 1 and 2 threads: the tombstone is skipped
    // (its recorded error reported, the point NOT silently re-run) and
    // stdout is byte-identical to the uninterrupted faulted run.
    for threads in ["1", "2"] {
        let copy = temp_path(&format!("tombstone-journal-{threads}.jsonl"));
        std::fs::copy(&journal, &copy).expect("copy journal");
        let resumed = bin()
            .args(["sweep", "--request"])
            .arg(&req_file)
            .args(["--threads", threads, "--journal"])
            .arg(&copy)
            .env_remove("SUSTAIN_FAULTS")
            .env_remove("SUSTAIN_RETRY_MAX")
            .output()
            .expect("resumed sweep runs");
        assert!(
            resumed.status.success(),
            "resume failed at {threads} thread(s): {}",
            String::from_utf8_lossy(&resumed.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&resumed.stdout),
            faulted_stdout,
            "tombstone-skipping resume must be byte-identical at {threads} thread(s)"
        );
        std::fs::remove_file(&copy).ok();
    }

    // --retry-failed re-runs the quarantined point (faults disarmed →
    // it heals) and the output matches the fault-free reference.
    let healed = bin()
        .args(["sweep", "--request"])
        .arg(&req_file)
        .args(["--threads", "1", "--journal"])
        .arg(&journal)
        .arg("--retry-failed")
        .env_remove("SUSTAIN_FAULTS")
        .env_remove("SUSTAIN_RETRY_MAX")
        .output()
        .expect("retry-failed resume runs");
    assert!(
        healed.status.success(),
        "retry-failed resume failed: {}",
        String::from_utf8_lossy(&healed.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&healed.stdout),
        String::from_utf8_lossy(&clean.stdout),
        "--retry-failed must heal the sweep to the fault-free bytes"
    );
    std::fs::remove_file(&journal).ok();
    std::fs::remove_file(&req_file).ok();
}

// ---------------------------------------------------------------------
// Circuit breaker: open → typed 503 + Retry-After → probe → reclose.
// ---------------------------------------------------------------------

/// A persistently faulting /run endpoint trips its breaker after the
/// configured number of consecutive 5xx; the open breaker sheds load as
/// typed 503s with `Retry-After`, half-opens after a bounded number of
/// rejections, reopens when the probe fails, and recloses when a probe
/// finally succeeds — with `/readyz` flipping 503 → 200 alongside.
#[test]
fn breaker_opens_probes_and_recloses_with_typed_503s() {
    let _guard = fault_lock();
    let handle = serve(ServeOptions::default()).expect("serve");
    let addr = handle.local_addr();

    let (status, body) = get(addr, "/readyz");
    assert_eq!(status, 200, "fresh service is ready: {body}");
    assert!(body.contains("healthy"), "{body}");

    // Every /run attempt faults: consecutive 5xx trip the breaker.
    faults::arm("scenario::run:error:p1.0", 7).expect("valid spec");
    for i in 0..health::breaker_trip() {
        let (status, body) = post_run(addr, fresh_seed());
        assert_eq!(status, 500, "pre-trip fault {i} is an isolated 500: {body}");
    }

    // Open: readiness degrades and requests are shed without running.
    let ready = raw_response(addr, "GET /readyz HTTP/1.1\r\nHost: t\r\n\r\n");
    let (status, body) = split_response(&ready);
    assert_eq!(status, 503, "open breaker must degrade readiness: {body}");
    assert!(body.contains("degraded"), "{body}");
    assert_eq!(
        header_of(&ready, "retry-after").as_deref(),
        Some("1"),
        "degraded readiness carries Retry-After"
    );
    let hits_when_open = faults::hit_count("scenario::run");
    for _ in 0..health::BREAKER_PROBE_AFTER {
        let raw = post_run_raw(
            addr,
            &format!(r#"{{"days": 2, "nodes": 600, "seed": {}}}"#, fresh_seed()),
        );
        let (status, body) = split_response(&raw);
        assert_eq!(status, 503, "open breaker sheds load: {body}");
        assert!(
            body.contains("unavailable") && body.contains("circuit breaker"),
            "rejection is typed: {body}"
        );
        assert_eq!(
            header_of(&raw, "retry-after").as_deref(),
            Some("1"),
            "breaker 503 carries Retry-After"
        );
    }
    assert_eq!(
        faults::hit_count("scenario::run"),
        hits_when_open,
        "shed requests must not reach the simulation at all"
    );

    // Half-open: the next request is admitted as a probe; it still
    // faults, so the breaker reopens and sheds again.
    let (status, _) = post_run(addr, fresh_seed());
    assert_eq!(status, 500, "failed probe surfaces its own fault");
    for _ in 0..health::BREAKER_PROBE_AFTER {
        let (status, _) = post_run(addr, fresh_seed());
        assert_eq!(status, 503, "a failed probe reopens the breaker");
    }

    // Fault fixed: the next probe succeeds and the breaker recloses.
    faults::disarm();
    let (status, body) = post_run(addr, fresh_seed());
    assert_eq!(status, 200, "successful probe recloses: {body}");
    let (status, _) = post_run(addr, fresh_seed());
    assert_eq!(status, 200, "reclosed breaker admits traffic normally");

    let (status, body) = get(addr, "/stats");
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&body).expect("stats parse");
    let sh = &v["self_healing"];
    assert!(sh["breaker_opens"].as_u64().unwrap_or(0) >= 2, "{body}");
    assert!(sh["breaker_recloses"].as_u64().unwrap_or(0) >= 1, "{body}");
    assert!(
        sh["breaker_rejections"].as_u64().unwrap_or(0) >= 2 * health::BREAKER_PROBE_AFTER as u64,
        "{body}"
    );
    assert!(
        sh["breakers"]
            .as_array()
            .expect("breaker snapshots")
            .iter()
            .any(|b| b["endpoint"].as_str() == Some("POST /run")
                && b["state"].as_str() == Some("closed")),
        "stats must show the /run breaker reclosed: {body}"
    );

    // Readiness heals once the recent-error window drains below the
    // degraded threshold (successes push the 5xx burst out).
    for _ in 0..16 {
        let (status, _) = get(addr, "/healthz");
        assert_eq!(status, 200);
    }
    let (status, body) = get(addr, "/readyz");
    assert_eq!(status, 200, "recovered service is ready again: {body}");
    assert!(body.contains("healthy"), "{body}");

    handle.shutdown_and_join();
}

// ---------------------------------------------------------------------
// Stuck requests: a request held past its budget is a typed 408.
// ---------------------------------------------------------------------

/// A request held (injected delay) past its own deadline budget is
/// cancelled at its next check with a typed 408 naming the deadline —
/// and the worker survives to serve the next request normally.
#[test]
fn a_stuck_request_gets_a_typed_408_naming_its_deadline() {
    let _guard = fault_lock();
    let handle = serve(ServeOptions::default()).expect("serve");
    let addr = handle.local_addr();
    let seed = fresh_seed();

    // Warm the trace cache for this (profile, days, seed) — different
    // node count, so the outcome cache cannot short-circuit the stuck
    // request — letting it reach the simulation well inside its 20ms
    // budget.
    let (status, body) = split_response(&post_run_raw(
        addr,
        &format!(r#"{{"days": 2, "nodes": 500, "seed": {seed}}}"#),
    ));
    assert_eq!(status, 200, "warmup run: {body}");

    // The 50ms injected delay holds the request past its 20ms budget.
    faults::arm("scenario::run:delay:1", 7).expect("valid spec");
    let raw = post_run_raw(
        addr,
        &format!(r#"{{"days": 2, "nodes": 600, "seed": {seed}, "timeout_ms": 20}}"#),
    );
    faults::disarm();

    let (status, body) = split_response(&raw);
    assert_eq!(status, 408, "stuck request is a typed 408: {body}");
    let v: serde_json::Value = serde_json::from_str(&body).expect("typed body");
    assert_eq!(v["error"]["kind"].as_str(), Some("cancelled"), "{body}");
    assert!(
        body.contains("deadline of 0.020s exceeded"),
        "the 408 must name the deadline: {body}"
    );

    // The worker survives.
    let (status, _) = post_run(addr, fresh_seed());
    assert_eq!(status, 200, "worker must survive a stuck request");

    handle.shutdown_and_join();
}

/// Restores the process thread count on drop, even when the test body
/// panics.
struct ThreadsGuard(usize);

impl Drop for ThreadsGuard {
    fn drop(&mut self) {
        sustain_hpc::core::sweep::set_threads(self.0);
    }
}

/// `POST /shutdown` alone, with no `ServerHandle::shutdown` call,
/// reaches a run already in flight: every request's control holds a
/// clone of the server's one cancel token, so the run ends at its next
/// check with a typed 408 instead of riding out the drain.
#[test]
fn post_shutdown_cancels_a_run_already_in_flight() {
    let _guard = fault_lock();
    // Two workers: one holds the run, the other serves the shutdown.
    let _threads = ThreadsGuard(sustain_hpc::core::sweep::effective_threads());
    sustain_hpc::core::sweep::set_threads(2);
    let handle = serve(ServeOptions {
        max_inflight: 2,
        ..ServeOptions::default()
    })
    .expect("serve");
    let addr = handle.local_addr();

    // Every hourly tick of the carbon-aware run sleeps 50ms, so the run
    // stays in flight for seconds, checking its control at each tick.
    faults::arm("sim::tick:delay:p1.0", 7).expect("valid spec");
    let json = format!(
        r#"{{"days": 3, "nodes": 600, "policy": "carbon", "seed": {}}}"#,
        fresh_seed()
    );
    let run = std::thread::spawn(move || post_run_raw(addr, &json));
    let deadline = Instant::now() + Duration::from_secs(10);
    while faults::hit_count("sim::tick") == 0 {
        assert!(
            Instant::now() < deadline,
            "the run never reached its event loop"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    let (status, body) = split_response(&raw_response(
        addr,
        "POST /shutdown HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
    ));
    assert_eq!(status, 200, "{body}");
    let (status, body) = split_response(&run.join().expect("run thread"));
    faults::disarm();
    let head = &body[..body.len().min(200)];
    assert_eq!(status, 408, "the in-flight run must be cancelled: {head}");
    let v: serde_json::Value = serde_json::from_str(&body).expect("typed body");
    assert_eq!(v["error"]["kind"].as_str(), Some("cancelled"), "{body}");
    assert!(body.contains("shutdown requested"), "{body}");
    assert!(handle.shutdown_requested());

    handle.shutdown_and_join();
}

// ---------------------------------------------------------------------
// Determinism properties of the retry layer itself.
// ---------------------------------------------------------------------

/// Property-style sweep over seeds: the backoff schedule is a pure
/// function of `(policy, seed, attempt)` and always bounded by the cap;
/// cancellation — pending, or surfaced by the work itself — is never
/// retried; permanent errors fail after exactly one attempt; a point
/// that heals on attempt `k` executes exactly `k` attempts.
#[test]
fn retry_backoff_is_deterministic_and_cancellation_is_never_retried() {
    for seed in (0..256).map(|i| i * 2654435761 % 1000003) {
        let a = RetryPolicy::new(5, Duration::from_millis(25));
        let b = RetryPolicy::new(5, Duration::from_millis(25));
        for attempt in 1..=8 {
            let d = a.backoff_for(seed, attempt);
            assert_eq!(
                d,
                b.backoff_for(seed, attempt),
                "backoff must be pure in (seed={seed}, attempt={attempt})"
            );
            assert!(
                d.as_millis() as u64 <= sustain_hpc::sim_core::retry::BACKOFF_CAP_MS,
                "backoff is capped: seed={seed} attempt={attempt} -> {d:?}"
            );
            assert!(!d.is_zero(), "a nonzero base never collapses to zero");
        }
    }

    let policy = RetryPolicy::new(4, Duration::ZERO);
    for seed in 0..32u64 {
        // Pending cancellation preempts the very first attempt.
        let token = CancelToken::new();
        token.cancel("power cap");
        let ctl = RunCtl::unlimited().with_token(token);
        let mut calls = 0usize;
        let (result, attempts) = run_with_retry(&policy, seed, &ctl, || {
            calls += 1;
            Ok(())
        });
        assert!(matches!(result, Err(SimError::Cancelled { .. })));
        assert_eq!((attempts, calls), (0, 0), "cancelled work must never start");

        // Cancellation surfaced BY the work is never retried either.
        let ctl = RunCtl::unlimited();
        let mut calls = 0usize;
        let (result, attempts) = run_with_retry(&policy, seed, &ctl, || {
            calls += 1;
            Err::<(), _>(SimError::Cancelled {
                at_sim_time: SimTime::ZERO,
                reason: "deadline of 0.001s exceeded".into(),
            })
        });
        assert!(matches!(result, Err(SimError::Cancelled { .. })));
        assert_eq!((attempts, calls), (1, 1), "Cancelled is NeverRetry");

        // Permanent errors fail after exactly one attempt.
        let mut calls = 0usize;
        let (result, attempts) = run_with_retry(&policy, seed, &ctl, || {
            calls += 1;
            Err::<(), _>(SimError::InvalidInput {
                message: "bad shape".into(),
            })
        });
        assert!(matches!(result, Err(SimError::InvalidInput { .. })));
        assert_eq!((attempts, calls), (1, 1), "Permanent is never retried");

        // Healing on attempt k takes exactly k executions.
        for k in 1..=4usize {
            let mut calls = 0usize;
            let (result, attempts) = run_with_retry(&policy, seed, &ctl, || {
                calls += 1;
                if calls < k {
                    Err(SimError::Faulted {
                        unit: "unit".into(),
                        message: "transient".into(),
                    })
                } else {
                    Ok(calls)
                }
            });
            assert_eq!(result.ok(), Some(k), "heals on attempt {k}");
            assert_eq!((attempts, calls), (k, k));
        }
    }
}
