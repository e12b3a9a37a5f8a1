//! Per-endpoint request accounting for long-running front-ends.
//!
//! The service front-end (§3.4 envisions user-facing carbon accounting
//! as an always-on *service*, not a one-shot report) needs the same
//! operational-data treatment this crate gives jobs: how many requests
//! each endpoint served, how many failed, and how long they took. A
//! [`RequestLog`] is a small, lock-cheap registry of per-endpoint
//! counters plus a fixed-bucket latency histogram, snapshot-able as
//! serializable rows for a stats endpoint.
//!
//! Counters are atomics and the registry map is only locked to resolve
//! an endpoint label to its `Arc`, so recording is cheap enough to sit
//! on every request path.

use parking_lot::Mutex;
use serde::Serialize;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Capacity of the sliding error window: the readiness state machine
/// judges the last this-many requests, not lifetime totals, so a burst
/// of faults degrades the process and a burst of successes heals it.
pub(crate) const ERROR_WINDOW: usize = 64;

/// Fewest window samples before an error *rate* is meaningful; below
/// this the window reports a zero rate rather than letting one early
/// fault read as "100 % failing".
pub const ERROR_WINDOW_MIN_SAMPLES: usize = 8;

/// Snapshot of the sliding error window: the last `ERROR_WINDOW`
/// requests and how many of them were 5xx.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct WindowStats {
    /// Requests currently in the window (saturates at `ERROR_WINDOW`).
    pub samples: u64,
    /// 5xx responses among them.
    pub errors_5xx: u64,
}

impl WindowStats {
    /// Fraction of windowed requests that failed 5xx; zero until
    /// [`ERROR_WINDOW_MIN_SAMPLES`] requests have been observed.
    pub fn error_rate(&self) -> f64 {
        if (self.samples as usize) < ERROR_WINDOW_MIN_SAMPLES {
            return 0.0;
        }
        self.errors_5xx as f64 / self.samples as f64
    }
}

/// Upper bounds (inclusive, microseconds) of the latency histogram
/// buckets; a final unbounded bucket catches everything slower. The
/// spacing is roughly geometric: sub-millisecond health checks land in
/// the first buckets, multi-second scenario runs in the last.
pub(crate) const LATENCY_BUCKET_BOUNDS_US: [u64; 12] = [
    250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000, 5_000_000,
];

/// Number of histogram buckets (the bounds above plus the overflow
/// bucket).
pub(crate) const LATENCY_BUCKETS: usize = LATENCY_BUCKET_BOUNDS_US.len() + 1;

/// Live (atomic) counters for one endpoint.
#[derive(Debug, Default)]
struct EndpointCounters {
    requests: AtomicU64,
    /// Responses with a 4xx status (client errors: malformed JSON,
    /// rejected configs, unknown routes, overload shedding).
    errors_4xx: AtomicU64,
    /// Responses with a 5xx status (faulted work units).
    errors_5xx: AtomicU64,
    total_us: AtomicU64,
    max_us: AtomicU64,
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl EndpointCounters {
    fn record(&self, status: u16, latency_us: u64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if (400..500).contains(&status) {
            self.errors_4xx.fetch_add(1, Ordering::Relaxed);
        } else if status >= 500 {
            self.errors_5xx.fetch_add(1, Ordering::Relaxed);
        }
        self.total_us.fetch_add(latency_us, Ordering::Relaxed);
        self.max_us.fetch_max(latency_us, Ordering::Relaxed);
        let idx = LATENCY_BUCKET_BOUNDS_US
            .iter()
            .position(|&bound| latency_us <= bound)
            .unwrap_or(LATENCY_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }
}

/// One latency-histogram bucket in a snapshot: the count of requests
/// that completed in at most `le_us` microseconds (exclusive of faster
/// buckets). `le_us == u64::MAX` marks the overflow bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct BucketCount {
    /// Inclusive upper bound of the bucket, microseconds.
    pub le_us: u64,
    /// Requests that landed in this bucket.
    pub count: u64,
}

/// Serializable snapshot of one endpoint's counters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct EndpointSnapshot {
    /// Endpoint label (e.g. `"POST /run"`).
    pub endpoint: String,
    /// Total requests recorded.
    pub requests: u64,
    /// Responses with a 4xx status.
    pub errors_4xx: u64,
    /// Responses with a 5xx status.
    pub errors_5xx: u64,
    /// Sum of all request latencies, microseconds.
    pub total_us: u64,
    /// Slowest request, microseconds.
    pub max_us: u64,
    /// Latency histogram (fixed bounds, then one overflow bucket).
    pub latency: Vec<BucketCount>,
}

/// Per-endpoint request counters and latency histograms for one
/// front-end instance (each server owns its own log, so tests running
/// several servers in one process do not bleed into each other).
#[derive(Debug, Default)]
pub struct RequestLog {
    endpoints: Mutex<BTreeMap<String, Arc<EndpointCounters>>>,
    /// Ring of the last [`ERROR_WINDOW`] request outcomes
    /// (`true` = 5xx), feeding the readiness error rate.
    window: Mutex<VecDeque<bool>>,
}

impl RequestLog {
    /// Creates an empty log.
    pub fn new() -> RequestLog {
        RequestLog::default()
    }

    /// Records one completed request against `endpoint`.
    pub fn record(&self, endpoint: &str, status: u16, latency_us: u64) {
        let counters = {
            let mut map = self.endpoints.lock();
            match map.get(endpoint) {
                Some(c) => Arc::clone(c),
                None => {
                    let c = Arc::new(EndpointCounters::default());
                    map.insert(endpoint.to_string(), Arc::clone(&c));
                    c
                }
            }
        };
        counters.record(status, latency_us);
        let mut window = self.window.lock();
        if window.len() == ERROR_WINDOW {
            window.pop_front();
        }
        window.push_back(status >= 500);
    }

    /// Snapshot of the sliding error window across all endpoints.
    pub fn window(&self) -> WindowStats {
        let window = self.window.lock();
        WindowStats {
            samples: window.len() as u64,
            errors_5xx: window.iter().filter(|&&failed| failed).count() as u64,
        }
    }

    /// Snapshot of every endpoint seen so far, sorted by endpoint label
    /// (BTreeMap order) so serialized output is stable.
    pub fn snapshot(&self) -> Vec<EndpointSnapshot> {
        let map = self.endpoints.lock();
        map.iter()
            .map(|(endpoint, c)| EndpointSnapshot {
                endpoint: endpoint.clone(),
                requests: c.requests.load(Ordering::Relaxed),
                errors_4xx: c.errors_4xx.load(Ordering::Relaxed),
                errors_5xx: c.errors_5xx.load(Ordering::Relaxed),
                total_us: c.total_us.load(Ordering::Relaxed),
                max_us: c.max_us.load(Ordering::Relaxed),
                latency: LATENCY_BUCKET_BOUNDS_US
                    .iter()
                    .copied()
                    .chain(std::iter::once(u64::MAX))
                    .zip(c.buckets.iter())
                    .map(|(le_us, bucket)| BucketCount {
                        le_us,
                        count: bucket.load(Ordering::Relaxed),
                    })
                    .collect(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_counts_statuses_and_buckets() {
        let log = RequestLog::new();
        log.record("POST /run", 200, 1_200);
        log.record("POST /run", 400, 100);
        log.record("POST /run", 500, 7_000_000);
        log.record("GET /healthz", 200, 50);
        let snap = log.snapshot();
        assert_eq!(snap.len(), 2);
        // BTreeMap order: GET before POST.
        assert_eq!(snap[0].endpoint, "GET /healthz");
        let run = &snap[1];
        assert_eq!(run.requests, 3);
        assert_eq!(run.errors_4xx, 1);
        assert_eq!(run.errors_5xx, 1);
        assert_eq!(run.max_us, 7_000_000);
        assert_eq!(run.total_us, 1_200 + 100 + 7_000_000);
        assert_eq!(run.latency.len(), LATENCY_BUCKETS);
        // 100us -> first bucket (<=250), 1200us -> <=2500, 7s -> overflow.
        assert_eq!(run.latency[0].count, 1);
        assert_eq!(run.latency[3].count, 1);
        assert_eq!(run.latency[LATENCY_BUCKETS - 1].count, 1);
        assert_eq!(run.latency[LATENCY_BUCKETS - 1].le_us, u64::MAX);
        let total: u64 = run.latency.iter().map(|b| b.count).sum();
        assert_eq!(total, run.requests);
    }

    #[test]
    fn sliding_window_tracks_recent_errors_and_heals() {
        let log = RequestLog::new();
        // Below the minimum sample count the rate is pinned to zero.
        log.record("POST /run", 500, 10);
        assert_eq!(log.window().errors_5xx, 1);
        assert_eq!(log.window().error_rate(), 0.0);
        for _ in 0..ERROR_WINDOW_MIN_SAMPLES {
            log.record("POST /run", 500, 10);
        }
        let w = log.window();
        assert!(w.error_rate() > 0.99, "{w:?}");
        // A full window of successes pushes every failure out.
        for _ in 0..ERROR_WINDOW {
            log.record("POST /run", 200, 10);
        }
        let w = log.window();
        assert_eq!(w.samples, ERROR_WINDOW as u64);
        assert_eq!(w.errors_5xx, 0);
        assert_eq!(w.error_rate(), 0.0);
    }

    #[test]
    fn snapshot_is_serializable_and_stable() {
        let log = RequestLog::new();
        log.record("GET /stats", 200, 400);
        let a = serde_json::to_string(&log.snapshot()).unwrap();
        let b = serde_json::to_string(&log.snapshot()).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("\"endpoint\":\"GET /stats\""), "{a}");
    }
}
