//! Cache-effectiveness suite for the memoization layers: results are
//! byte-identical whether the outcome cache is disabled, thrashing at
//! capacity 1, or at its default size; a repeated run actually hits;
//! and the service serves a repeated `POST /run` byte-equal to the cold
//! response while `/stats` shows the hit.
//!
//! The outcome and workload caches are process-global, and these tests
//! resize them — so every test serializes on one mutex and restores the
//! default capacity on drop, even when an assertion panics.

use std::sync::{Mutex, MutexGuard, OnceLock};
use sustain_hpc::core::cache::{global_outcome_cache, DEFAULT_OUTCOME_CACHE_CAPACITY};
use sustain_hpc::core::prelude::*;
use sustain_hpc::service::{serve, ServeOptions};
use sustain_hpc::workload::synth::global_workload_cache;

/// Serializes tests on the global caches and restores the default
/// outcome-cache capacity on drop.
struct CacheGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for CacheGuard {
    fn drop(&mut self) {
        global_outcome_cache().set_capacity(DEFAULT_OUTCOME_CACHE_CAPACITY);
    }
}

fn cache_lock() -> CacheGuard {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    global_outcome_cache().set_capacity(DEFAULT_OUTCOME_CACHE_CAPACITY);
    CacheGuard(guard)
}

/// A small corpus spanning the policy surface, with seeds unique to
/// this suite so other tests cannot pre-populate its entries.
fn corpus(salt: u64) -> Vec<Scenario> {
    let mut scenarios = Vec::new();
    for (i, policy) in [
        Policy::Fcfs,
        Policy::EasyBackfill,
        Policy::CarbonAware(CarbonAwareCfg::default()),
    ]
    .into_iter()
    .enumerate()
    {
        let mut s = Scenario::baseline(
            format!("cache-effectiveness-{i}"),
            RegionProfile::january_2023(Region::Finland),
            2,
        );
        s.cluster = Cluster::new(16);
        s.workload.arrivals_per_hour = 0.5;
        s.workload.max_nodes = 8;
        s.policy = policy;
        s.seed = 0xEFFE_C000 + salt * 100 + i as u64;
        scenarios.push(s);
    }
    scenarios
}

fn run_corpus_json(scenarios: &[Scenario]) -> Vec<String> {
    scenarios
        .iter()
        .map(|s| {
            let r = run(s, &RunCtl::unlimited()).expect("valid scenario");
            serde_json::to_string(&r).expect("serializable")
        })
        .collect()
}

/// The headline byte-identity claim: disabled, capacity-1, and
/// default-capacity runs of the same corpus all produce identical
/// bytes — memoization changes wall time, never answers.
#[test]
fn results_are_byte_identical_across_cache_capacities() {
    let _guard = cache_lock();
    let scenarios = corpus(1);
    let cache = global_outcome_cache();

    cache.set_capacity(0);
    let disabled = run_corpus_json(&scenarios);

    cache.set_capacity(1);
    let thrashing = run_corpus_json(&scenarios);

    cache.set_capacity(DEFAULT_OUTCOME_CACHE_CAPACITY);
    let cached_cold = run_corpus_json(&scenarios);
    let cached_warm = run_corpus_json(&scenarios);

    assert_eq!(disabled, thrashing, "capacity 1 must not change bytes");
    assert_eq!(
        disabled, cached_cold,
        "default capacity must not change bytes"
    );
    assert_eq!(disabled, cached_warm, "a cache hit must not change bytes");
}

/// A repeated corpus at the default capacity actually hits — one hit
/// per scenario on the second pass — and the workload cache hits too
/// (same config/horizon/seed triple resynthesized).
#[test]
fn repeated_runs_hit_the_caches() {
    let _guard = cache_lock();
    let scenarios = corpus(2);

    let outcome_before = global_outcome_cache().stats();
    let workload_before = global_workload_cache().stats();
    let first = run_corpus_json(&scenarios);
    let second = run_corpus_json(&scenarios);
    let outcome_after = global_outcome_cache().stats();
    let workload_after = global_workload_cache().stats();

    assert_eq!(first, second);
    assert!(
        outcome_after.hits >= outcome_before.hits + scenarios.len() as u64,
        "each scenario must hit on the second pass: {outcome_before:?} -> {outcome_after:?}"
    );
    assert!(
        workload_after.misses > workload_before.misses,
        "the first pass synthesizes workloads: {workload_before:?} -> {workload_after:?}"
    );
}

/// Capacity 1 still memoizes back-to-back repeats of one scenario, and
/// an eviction (a second distinct scenario) does not corrupt anything.
#[test]
fn capacity_one_memoizes_repeats_and_survives_eviction() {
    let _guard = cache_lock();
    let scenarios = corpus(3);
    let cache = global_outcome_cache();
    cache.set_capacity(1);

    let a1 = serde_json::to_string(&run(&scenarios[0], &RunCtl::unlimited()).expect("valid"))
        .expect("json");
    let before = cache.stats();
    let a2 = serde_json::to_string(&run(&scenarios[0], &RunCtl::unlimited()).expect("valid"))
        .expect("json");
    assert!(cache.stats().hits > before.hits, "back-to-back repeat hits");
    assert_eq!(a1, a2);

    // Evict with a different scenario, then re-run the first: a miss,
    // but byte-identical output.
    let _ = run(&scenarios[1], &RunCtl::unlimited()).expect("valid");
    let a3 = serde_json::to_string(&run(&scenarios[0], &RunCtl::unlimited()).expect("valid"))
        .expect("json");
    assert_eq!(a1, a3, "recomputation after eviction is byte-identical");
    assert!(cache.stats().evictions > 0, "capacity 1 must have evicted");
}

/// End-to-end over sockets: a repeated identical `POST /run` returns a
/// byte-equal body, and `GET /stats` reports the outcome-cache hit.
#[test]
fn service_serves_repeated_runs_from_the_outcome_cache() {
    use std::io::{Read, Write};
    let _guard = cache_lock();

    let handle = serve(ServeOptions::default()).expect("serve");
    let addr = handle.local_addr();
    let send = |raw: &str| -> String {
        let mut conn = std::net::TcpStream::connect(addr).expect("connect");
        conn.write_all(raw.as_bytes()).expect("send");
        let mut response = String::new();
        conn.read_to_string(&mut response).expect("recv");
        response
    };
    let body_of = |response: &str| -> String {
        response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default()
    };

    let json = r#"{"days": 2, "nodes": 16, "seed": 4025314305, "name": "cache-effectiveness-svc"}"#;
    let raw = format!(
        "POST /run HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{json}",
        json.len()
    );
    let cold = send(&raw);
    assert!(cold.starts_with("HTTP/1.1 200"), "{cold}");
    let warm = send(&raw);
    assert!(warm.starts_with("HTTP/1.1 200"), "{warm}");
    assert_eq!(
        body_of(&cold),
        body_of(&warm),
        "repeated /run must be byte-equal"
    );

    let stats = send("GET /stats HTTP/1.1\r\nHost: t\r\n\r\n");
    let v: serde::Value = serde_json::from_str(&body_of(&stats)).expect("stats json");
    let hits = v["outcome_cache"]["hits"].as_u64().expect("hits counter");
    assert!(hits >= 1, "stats must report the outcome-cache hit: {v:?}");

    handle.shutdown_and_join();
}
