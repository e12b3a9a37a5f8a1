//! The four workloads (their request streams, phase lengths and the
//! fixed calibration every later comparison relies on) and the metrics
//! `BENCHMARK.json` declares.
//!
//! Request *shapes* (days, nodes, policy, region) are a fixed function of
//! the request index, and only the simulation seeds, arrival times,
//! popularity draws and conditional-request coins come from `--seed`.
//! Every seed therefore exercises the same mix of sizes, which keeps the
//! run-to-run spread small enough to resolve a 10% change. The mixes are
//! assumptions: there is no access log to fit them to.

use serde_json::Value;

use crate::util::Rng;

/// Open-loop rate of `service_hot`, requests/s: a third of the
/// closed-loop capacity (about 300 requests/s) the parent commit reached
/// on the reference host. At half of it, a spell in which the shared host
/// ran a third slower pushed the open loop into a growing backlog (median
/// latency 94 ms) in three of ten runs.
pub const R_HOT: f64 = 100.0;
/// Open-loop rate of `service_cold`, requests/s: under a third of the
/// parent's capacity (about 53 requests/s), for the same reason.
pub const R_COLD: f64 = 15.0;
/// `GET /healthz` probe rate during open loops, requests/s.
pub const HEALTHZ_RPS: f64 = 2.0;
/// Thread budget every workload runs at (`SUSTAIN_THREADS`).
pub const THREADS: usize = 2;
/// Generator threads = concurrent connections in the service workloads.
pub const CLIENTS: usize = 2;
/// Distinct requests in `service_hot`: twice the outcome-cache capacity.
pub const HOT_DISTINCT: u32 = 128;
/// Share of repeated `service_hot` requests that send `If-None-Match`.
pub const INM_SHARE: f64 = 0.25;
/// Points in a `conservative` sweep (two of them duplicates).
pub const SWEEP_POINTS: usize = 8;
/// The program's scenario step cap (`core::scenario`): a run whose
/// event count exceeds it stopped at the cap, not at the end of its work.
pub const MAX_STEPS: u64 = 50_000_000;

/// One metric as `BENCHMARK.json` declares it.
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The metrics `BENCHMARK.json` declares under `key` (`end_to_end` or
/// `per_layer`), in order.
pub fn metric_specs(path: &str, key: &str) -> Result<Vec<MetricSpec>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    doc[key]
        .as_array()
        .ok_or(format!("{path} has no {key} list"))?
        .iter()
        .map(|m| {
            Ok(MetricSpec {
                name: m["name"]
                    .as_str()
                    .ok_or(format!("a {key} metric has no name"))?
                    .to_string(),
                unit: m["unit"].as_str().unwrap_or_default().to_string(),
                lower_is_better: m["better"].as_str() == Some("lower"),
                bound: m["bound"].as_f64(),
            })
        })
        .collect()
}

const REGIONS: [&str; 5] = ["Germany", "France", "Finland", "Poland", "Spain"];
const POLICIES: [&str; 3] = ["easy", "fcfs", "carbon"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServiceHot,
    ServiceCold,
    RunLong,
    Conservative,
}

/// One operation's input: request bytes for `POST /run` / CLI `run`, or
/// for `POST /sweep` / CLI `sweep`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Body {
    Run(String),
    Sweep(String),
}

impl Body {
    pub fn bytes(&self) -> &[u8] {
        match self {
            Body::Run(s) | Body::Sweep(s) => s.as_bytes(),
        }
    }
}

/// How long each phase lasts for a run of `seconds` measured seconds.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// Untimed open-loop warm-up (service workloads).
    pub warmup: f64,
    /// Timed open loop (service workloads).
    pub open: f64,
    /// Timed closed loop.
    pub closed: f64,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServiceHot,
        Workload::ServiceCold,
        Workload::RunLong,
        Workload::Conservative,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServiceHot => "service_hot",
            Workload::ServiceCold => "service_cold",
            Workload::RunLong => "run_long",
            Workload::Conservative => "conservative",
        }
    }

    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload {name:?}; expected one of {}",
                    known.join(", ")
                )
            })
    }

    pub fn is_service(self) -> bool {
        matches!(self, Workload::ServiceHot | Workload::ServiceCold)
    }

    /// Open-loop arrival rate (service workloads only).
    pub fn rate(self) -> f64 {
        match self {
            Workload::ServiceHot => R_HOT,
            Workload::ServiceCold => R_COLD,
            _ => 0.0,
        }
    }

    /// The latency limit behind `slo_ratio`, per request or cycle.
    /// Service limits are the dashboard (50 ms) and analyst (500 ms)
    /// budgets; the batch limits sit at about twice (run_long) and three
    /// times (conservative) the parent's median cycle.
    pub fn latency_limit_ms(self) -> f64 {
        match self {
            Workload::ServiceHot => 50.0,
            Workload::ServiceCold => 500.0,
            Workload::RunLong | Workload::Conservative => 3_000.0,
        }
    }

    /// Phase lengths, scaled from the 45 s / 48 s service designs so that
    /// the timed phases add up to `seconds`.
    pub fn phases(self, seconds: f64) -> Phases {
        match self {
            Workload::ServiceHot => Phases {
                warmup: seconds / 8.0,
                open: seconds * 0.75,
                closed: seconds * 0.25,
            },
            Workload::ServiceCold => Phases {
                warmup: seconds / 15.0,
                open: seconds * 2.0 / 3.0,
                closed: seconds / 3.0,
            },
            Workload::RunLong | Workload::Conservative => Phases {
                warmup: 0.0,
                open: 0.0,
                closed: seconds,
            },
        }
    }

    /// The tail quantile printed beside the results of a service
    /// workload: the highest one with comfortably more than ten samples
    /// beyond it at the default run length. A batch run has too few
    /// cycles for a tail.
    pub fn tail_quantile(self) -> Option<f64> {
        match self {
            Workload::ServiceHot => Some(0.99),
            Workload::ServiceCold => Some(0.93),
            Workload::RunLong | Workload::Conservative => None,
        }
    }

    /// Operations per closed-loop cycle: `run_long` alternates an easy
    /// and a carbon call and `conservative` a run and a sweep, so a cycle
    /// is the unit whose latency is reported (single calls are bimodal).
    pub fn cycle(self) -> usize {
        if self.is_service() {
            1
        } else {
            2
        }
    }

    /// Simulation points one operation with this id delivers.
    pub fn points(self, id: u32) -> u64 {
        match (self, id % 2) {
            (Workload::Conservative, 1) => SWEEP_POINTS as u64,
            _ => 1,
        }
    }

    /// The request with index `id` under `seed`.
    ///
    /// * `service_hot`: `id` is a popularity rank in `0..128`; 3–7 days,
    ///   128 or 256 nodes.
    /// * `service_cold`: every `id` is a distinct request; 7–30 days,
    ///   128–512 nodes, 10% malleable.
    /// * `run_long`: 90 days × 256 nodes, alternating easy and carbon.
    /// * `conservative`: even ids are 10-day/96-node runs, odd ids sweeps
    ///   over 8 seeds (6 distinct) of a 7-day/64-node base.
    pub fn body(self, seed: u64, id: u32) -> Body {
        // Shapes come from a fixed stream, seeds from the workload seed.
        let mut shape = Rng::derive(0x5EED_5AA9E, self as u64, id as u64);
        let mut rng = Rng::derive(seed, self as u64, id as u64);
        let sim_seed = rng.below(1 << 32);
        let region = REGIONS[shape.below(5) as usize];
        match self {
            Workload::ServiceHot => {
                let days = 3 + shape.below(5);
                let nodes = [128, 256][shape.below(2) as usize];
                let policy = POLICIES[shape.below(3) as usize];
                Body::Run(run_json(region, days, sim_seed, nodes, policy, false))
            }
            Workload::ServiceCold => {
                let days = 7 + shape.below(24);
                let nodes = 128 + 32 * shape.below(13);
                let policy = POLICIES[shape.below(3) as usize];
                let malleable = shape.below(10) == 0;
                Body::Run(run_json(region, days, sim_seed, nodes, policy, malleable))
            }
            Workload::RunLong => {
                let policy = if id.is_multiple_of(2) {
                    "easy"
                } else {
                    "carbon"
                };
                Body::Run(run_json(region, 90, sim_seed, 256, policy, false))
            }
            Workload::Conservative if id.is_multiple_of(2) => {
                Body::Run(run_json(region, 10, sim_seed, 96, "conservative", false))
            }
            Workload::Conservative => {
                let base = run_json(region, 7, sim_seed, 64, "conservative", false);
                let distinct: Vec<u64> = (0..6).map(|_| rng.below(1 << 32)).collect();
                let values: Vec<String> = [0, 1, 2, 3, 4, 5, 0, 3]
                    .iter()
                    .map(|&i| distinct[i].to_string())
                    .collect();
                Body::Sweep(format!(
                    "{{\"base\":{base},\"axis\":\"seed\",\"values\":[{}]}}",
                    values.join(",")
                ))
            }
        }
    }
}

fn run_json(
    region: &str,
    days: u64,
    seed: u64,
    nodes: u64,
    policy: &str,
    malleable: bool,
) -> String {
    let mut json = format!(
        "{{\"name\":\"bench\",\"region\":\"{region}\",\"days\":{days},\"seed\":{seed},\
         \"nodes\":{nodes},\"policy\":\"{policy}\""
    );
    if malleable {
        json.push_str(",\"malleable\":true");
    }
    json.push('}');
    json
}

/// Zipf(s = 1) over `0..n` by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u32) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_parse_as_program_requests() {
        for w in Workload::ALL {
            for id in 0..6 {
                match w.body(7, id) {
                    Body::Run(s) => {
                        let req: sustain_hpc::service::RunRequest =
                            serde_json::from_str(&s).expect("run request parses");
                        assert!(sustain_hpc::service::run_etag(&req).is_some(), "{s}");
                    }
                    Body::Sweep(s) => {
                        let req: sustain_hpc::service::SweepRequest =
                            serde_json::from_str(&s).expect("sweep request parses");
                        assert_eq!(req.values.len(), SWEEP_POINTS);
                    }
                }
            }
        }
    }

    #[test]
    fn shapes_are_fixed_and_seeds_vary() {
        let a = Workload::ServiceHot.body(1, 5);
        let b = Workload::ServiceHot.body(2, 5);
        assert_ne!(a, b);
        let strip = |b: Body| {
            let Body::Run(s) = b else { unreachable!() };
            let v: serde_json::Value = serde_json::from_str(&s).expect("json");
            (
                v["days"].as_u64(),
                v["nodes"].as_u64(),
                v["policy"].as_str().map(str::to_string),
            )
        };
        assert_eq!(strip(a), strip(b));
        assert_eq!(Workload::RunLong.body(3, 9), Workload::RunLong.body(3, 9));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(HOT_DISTINCT);
        let mut rng = Rng::derive(1, 0, 0);
        let draws: Vec<u32> = (0..10_000).map(|_| z.sample(&mut rng)).collect();
        let top = draws.iter().filter(|&&r| r == 0).count();
        assert!(draws.iter().all(|&r| r < HOT_DISTINCT));
        // P(rank 0) = 1 / H_128 ≈ 0.18.
        assert!((1500..2200).contains(&top), "{top}");
    }
}
