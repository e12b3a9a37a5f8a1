//! Chaos-recovery suite for the deterministic fault-injection layer:
//! every `faultpoint!` site is armed in every mode and driven through
//! the public surface it sits behind, asserting the recovery contract —
//! a typed error or a clean result, never an escaping unwind, no
//! poisoned locks (the next operation still works), and the shared
//! worker budget back at its baseline once the dust settles.
//!
//! The fault registry is process-global, so every test serializes on
//! one mutex and disarms on drop — a failing assertion must not leak an
//! armed fault plan into the next test.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use sustain_hpc::core::prelude::*;
use sustain_hpc::service::{serve, ServeOptions};
use sustain_hpc::sim_core::faults;

/// CI runs this suite under `SUSTAIN_THREADS=2` as well: honor the env
/// knob, so fault isolation is exercised under sweep parallelism and the
/// shared budget too.
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

/// Monotonic seed source: unique seeds force trace-cache misses so the
/// `grid::trace_fill` site is actually on the exercised path.
fn fresh_seed() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0xC0FF_EE00);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

fn small_scenario(seed: u64) -> Scenario {
    let mut s = Scenario::baseline(
        "chaos-recovery",
        RegionProfile::january_2023(Region::Germany),
        3,
    );
    s.cluster = Cluster::new(16);
    s.workload.arrivals_per_hour = 0.5;
    s.workload.max_nodes = 8;
    // Hourly ticks only run when time-varying machinery is active;
    // malleability keeps the `sim::tick` fault site on this path.
    s.malleable = true;
    s.seed = seed;
    s
}

/// Large enough that a millisecond deadline always trips mid-loop.
fn heavy_scenario() -> Scenario {
    let mut s = Scenario::baseline(
        "chaos-heavy",
        RegionProfile::january_2023(Region::Germany),
        365,
    );
    s.cluster = Cluster::new(2000);
    s.workload.arrivals_per_hour = 8.0;
    s.workload.max_nodes = 256;
    s.seed = fresh_seed();
    s
}

fn temp_journal(case: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "chaos-recovery-{}-{case}.jsonl",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    path
}

/// Runs `scenarios` through a seeded sweep plan and returns each point's
/// result.
fn seeded_sweep(
    scenarios: &[Scenario],
    ctl: &RunCtl,
) -> Result<Vec<Result<f64, SimError>>, SimError> {
    let plan = SweepPlan {
        master_seed: Some(11),
        ..SweepPlan::new(scenarios, ctl)
    };
    plan.run(|s, _| run(s, &RunCtl::unlimited()).map(|r| r.grid_mean_ci))
        .map(|runs| runs.into_iter().map(|run| run.result).collect())
}

/// A seeded, journaled sweep plan writing to `path`.
fn journaled<'a, P: Sync + sustain_hpc::sim_core::hash::CanonicalHash>(
    points: &'a [P],
    path: &std::path::Path,
    ctl: &'a RunCtl,
    master_seed: u64,
) -> SweepPlan<'a, P> {
    SweepPlan {
        master_seed: Some(master_seed),
        journal: Some(SweepJournal {
            path: path.to_path_buf(),
            retry_failed: false,
        }),
        ..SweepPlan::new(points, ctl)
    }
}

/// Polls until the shared worker budget is back at `baseline` — leases
/// are Drop-released, so transient lag is fine but a leak is not.
fn assert_budget_restored(baseline: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while rayon::available_extra_workers() < baseline {
        assert!(
            Instant::now() < deadline,
            "worker budget never returned to baseline: {} < {baseline}",
            rayon::available_extra_workers()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Simulation-path sites (`grid::trace_fill`, `sweep::point`,
/// `scenario::run`, `sim::tick`) in panic and error mode: the injected
/// fault is isolated to one sweep point as a typed `Faulted`, every
/// other point completes, and after disarming the same sweep heals.
/// Delay mode slows a point without failing anything.
#[test]
fn simulation_faults_are_isolated_per_point_and_heal_after_disarm() {
    let _guard = fault_lock();
    let baseline = rayon::available_extra_workers();

    for site in [
        "grid::trace_fill",
        "workload::job_fill",
        "sweep::point",
        "scenario::run",
        "scenario::outcome_fill",
        "sim::tick",
    ] {
        for mode in ["panic", "error", "delay"] {
            faults::arm(&format!("{site}:{mode}:1"), 7).expect("valid spec");
            let scenarios: Vec<Scenario> = (0..3).map(|_| small_scenario(fresh_seed())).collect();
            let ctl = RunCtl::unlimited();
            let results = seeded_sweep(&scenarios, &ctl)
                .unwrap_or_else(|e| panic!("{site}:{mode}: whole sweep failed: {e}"));

            let errs: Vec<String> = results
                .iter()
                .filter_map(|r| r.as_ref().err().map(|e| e.to_string()))
                .collect();
            if mode == "delay" {
                assert!(errs.is_empty(), "{site}:delay must not fail: {errs:?}");
            } else {
                assert_eq!(
                    errs.len(),
                    1,
                    "{site}:{mode}: exactly one point fails: {errs:?}"
                );
                assert!(
                    errs[0].contains(&format!("injected fault at {site}")),
                    "{site}:{mode}: error must name the site: {}",
                    errs[0]
                );
            }
            assert_eq!(faults::fired_count(site), 1, "{site}:{mode} fired once");
            faults::disarm();

            // No poisoned locks, no broken cache: the same sweep heals.
            let healed = seeded_sweep(&scenarios, &ctl).expect("healed sweep runs");
            assert!(
                healed.iter().all(Result::is_ok),
                "{site}:{mode}: sweep must heal after disarm"
            );
        }
    }
    assert_budget_restored(baseline);
}

/// Journal sites in error and panic mode: the resumable sweep returns a
/// typed `SimError` naming the injected fault (never an unwind), and
/// after disarming a resume against the same — possibly partial —
/// journal completes with results identical to an undisturbed run.
#[test]
fn journal_faults_are_typed_and_a_resume_heals_the_sweep() {
    let _guard = fault_lock();
    let points: Vec<u64> = vec![10, 20, 30];
    let run = |p: &u64, seed: u64| -> Result<String, SimError> { Ok(format!("{p}/{seed}")) };

    let clean_path = temp_journal("clean");
    let ctl = RunCtl::unlimited();
    let clean = journaled(&points, &clean_path, &ctl, 99)
        .run(run)
        .expect("undisturbed resumable sweep");
    let clean: Vec<String> = clean
        .into_iter()
        .map(|r| r.result.expect("clean point"))
        .collect();
    std::fs::remove_file(&clean_path).ok();

    for site in [
        "sweep::journal_write",
        "sweep::journal_sync",
        "sweep::journal_replay",
    ] {
        for mode in ["error", "panic"] {
            let path = temp_journal(&format!("{}-{mode}", site.replace(':', "_")));
            faults::arm(&format!("{site}:{mode}:1"), 7).expect("valid spec");
            let err = journaled(&points, &path, &ctl, 99)
                .run(run)
                .expect_err("injected journal fault must surface");
            assert!(
                err.to_string().contains("injected fault at"),
                "{site}:{mode}: typed error must carry the fault: {err}"
            );
            faults::disarm();

            // The journal left behind (possibly partial, possibly
            // absent) must resume to the exact undisturbed results.
            let resumed = journaled(&points, &path, &ctl, 99)
                .run(run)
                .unwrap_or_else(|e| panic!("{site}:{mode}: resume failed: {e}"));
            let resumed: Vec<String> = resumed
                .into_iter()
                .map(|r| r.result.expect("resumed point"))
                .collect();
            assert_eq!(resumed, clean, "{site}:{mode}: resume must heal exactly");
            std::fs::remove_file(&path).ok();
        }
    }
}

/// A panic during a trace-cache fill leaves the cache fully usable: the
/// same `(profile, days, seed)` generates cleanly on the next request
/// and later requests hit the cache as usual.
#[test]
fn a_faulted_trace_fill_leaves_the_cache_usable() {
    let _guard = fault_lock();
    let seed = fresh_seed();
    let profile = RegionProfile::january_2023(Region::Germany);

    faults::arm("grid::trace_fill:panic:1", 7).expect("valid spec");
    let scenarios = vec![small_scenario(seed)];
    let ctl = RunCtl::unlimited();
    let results = seeded_sweep(&scenarios, &ctl).expect("sweep survives the fill panic");
    assert!(results[0].is_err(), "the filling point observed the panic");

    // Trigger exhausted (exact-Nth), registry still armed: the retry
    // must generate the very trace whose fill just panicked.
    let trace = calibrated_trace(&profile, 3, seed);
    assert!(
        trace.overall_mean().grams_per_kwh() > 0.0,
        "retry after a fill panic produced a usable trace"
    );
    assert!(faults::hit_count("grid::trace_fill") >= 2);
}

/// A panic during an outcome-cache fill leaves that cache fully usable:
/// nothing partial is cached, the same scenario computes cleanly on the
/// next request (and is inserted), and the request after that is served
/// from the cache byte-identically.
#[test]
fn a_faulted_outcome_fill_leaves_the_cache_usable() {
    let _guard = fault_lock();
    let scenario = small_scenario(fresh_seed());

    faults::arm("scenario::outcome_fill:panic:1", 7).expect("valid spec");
    let ctl = RunCtl::unlimited();
    let results =
        seeded_sweep(std::slice::from_ref(&scenario), &ctl).expect("sweep survives the fill panic");
    assert!(results[0].is_err(), "the filling point observed the panic");
    faults::disarm();

    // The failed fill must not have cached anything: the retry computes
    // for real and inserts, so the run after it is a cache hit with a
    // byte-identical result.
    let cache = global_outcome_cache();
    let before = cache.stats();
    let first = run(&scenario, &RunCtl::unlimited()).expect("retry after a fill panic");
    let second = run(&scenario, &RunCtl::unlimited()).expect("cached rerun");
    let after = cache.stats();
    assert!(
        after.hits > before.hits,
        "second run must hit the outcome cache: {before:?} -> {after:?}"
    );
    assert_eq!(
        serde_json::to_string(&first).expect("serializable"),
        serde_json::to_string(&second).expect("serializable"),
        "cache hit must be byte-identical to the cold run"
    );
}

/// Core-level cancellation contract: a pre-cancelled token wins
/// immediately with its reason, a millisecond deadline cancels a heavy
/// run mid-loop with a `deadline` reason, and a cancelled sweep reports
/// partial progress.
#[test]
fn tokens_and_deadlines_cancel_runs_and_sweeps_with_typed_errors() {
    let _guard = fault_lock();

    let token = CancelToken::new();
    token.cancel("unplugged");
    let ctl = RunCtl::unlimited().with_token(token.clone());
    match run(&small_scenario(fresh_seed()), &ctl) {
        Err(SimError::Cancelled {
            at_sim_time,
            reason,
        }) => {
            assert_eq!(at_sim_time, SimTime::ZERO);
            assert_eq!(reason, "unplugged");
        }
        other => panic!("pre-cancelled run must be Cancelled, got {other:?}"),
    }

    let ctl = RunCtl::unlimited().with_deadline(Deadline::after_millis(1));
    match run(&heavy_scenario(), &ctl) {
        Err(SimError::Cancelled { reason, .. }) => {
            assert!(
                reason.contains("deadline"),
                "reason names the deadline: {reason}"
            );
        }
        other => panic!("deadline-bounded heavy run must be Cancelled, got {other:?}"),
    }

    let ctl = RunCtl::unlimited().with_token(token);
    let scenarios: Vec<Scenario> = (0..3).map(|_| small_scenario(fresh_seed())).collect();
    match seeded_sweep(&scenarios, &ctl) {
        Err(SimError::Cancelled { reason, .. }) => {
            assert!(
                reason.contains("sweep points completed"),
                "cancelled sweep reports progress: {reason}"
            );
        }
        other => panic!("cancelled sweep must be Cancelled, got {other:?}"),
    }
}

/// Service sites over real sockets: an injected read fault is a typed
/// 400, dispatch/respond faults are isolated 500s — and in every case
/// the worker survives to answer the next request.
#[test]
fn service_faults_yield_typed_responses_and_workers_survive() {
    let _guard = fault_lock();
    let baseline = rayon::available_extra_workers();
    let handle = serve(ServeOptions::default()).expect("serve");
    let addr = handle.local_addr();
    let healthz = || {
        use std::io::{Read, Write};
        let mut conn = std::net::TcpStream::connect(addr).expect("connect");
        conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("send");
        let mut response = String::new();
        conn.read_to_string(&mut response).expect("recv");
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
    };

    for (spec, status, needle) in [
        (
            "service::read:error:1",
            400,
            "injected fault at service::read",
        ),
        (
            "service::dispatch:panic:1",
            500,
            "fault isolated in request handler",
        ),
        (
            "service::dispatch:error:1",
            500,
            "fault isolated in request handler",
        ),
        (
            "service::respond:panic:1",
            500,
            "fault isolated in request handler",
        ),
        ("service::dispatch:delay:1", 200, "ok"),
    ] {
        faults::arm(spec, 7).expect("valid spec");
        let (got_status, body) = healthz();
        assert_eq!(got_status, status, "{spec}: {body}");
        assert!(
            body.contains(needle),
            "{spec}: body {body:?} lacks {needle:?}"
        );
        faults::disarm();

        // The worker that absorbed the fault still answers.
        let (ok_status, _) = healthz();
        assert_eq!(ok_status, 200, "{spec}: worker must survive the fault");
    }

    handle.shutdown_and_join();
    assert_budget_restored(baseline);
}

/// Coverage backstop: every documented fault site, armed with a trigger
/// that never matches, registers hits when its surface is driven — so a
/// site silently falling off the exercised path fails loudly here.
#[test]
fn every_fault_site_is_on_an_exercised_path() {
    let _guard = fault_lock();
    const SITES: [&str; 12] = [
        "grid::trace_fill",
        "workload::job_fill",
        "sweep::point",
        "sweep::journal_write",
        "sweep::journal_sync",
        "sweep::journal_replay",
        "scenario::run",
        "scenario::outcome_fill",
        "sim::tick",
        "service::read",
        "service::dispatch",
        "service::respond",
    ];
    let spec: Vec<String> = SITES.iter().map(|s| format!("{s}:error:1000000")).collect();
    faults::arm(&spec.join(","), 7).expect("valid spec");

    let path = temp_journal("coverage");
    let scenarios: Vec<Scenario> = (0..2).map(|_| small_scenario(fresh_seed())).collect();
    let ctl = RunCtl::unlimited();
    let results = journaled(&scenarios, &path, &ctl, 11)
        .run(|s, _| run(s, &RunCtl::unlimited()).map(|r| r.grid_mean_ci))
        .expect("coverage sweep");
    assert!(results.iter().all(|r| r.result.is_ok()));
    std::fs::remove_file(&path).ok();

    let handle = serve(ServeOptions::default()).expect("serve");
    let addr = handle.local_addr();
    {
        use std::io::{Read, Write};
        let mut conn = std::net::TcpStream::connect(addr).expect("connect");
        conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("send");
        let mut response = String::new();
        conn.read_to_string(&mut response).expect("recv");
        assert!(response.contains("200"), "{response}");
    }
    handle.shutdown_and_join();

    for site in SITES {
        assert!(
            faults::hit_count(site) > 0,
            "site {site} was never reached — did it fall off the exercised path?"
        );
        assert_eq!(
            faults::fired_count(site),
            0,
            "{site} must not fire at 1000000"
        );
    }
}
