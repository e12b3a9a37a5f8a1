//! The traced replay: feeds a workload's operations, in the order they
//! were sent, through each layer's public functions in the order the
//! program calls them, with a span around every call.
//!
//! 1. `serde_json::from_slice::<RunRequest>` (`service.parse`)
//! 2. `to_scenario`, `validate` (`core.scenario`), `OutcomeKey::new`
//! 3. `global_outcome_cache().lookup` (`core.outcome_cache.lookup`)
//! 4. on a miss: `generate_calibrated_arc` (`grid.trace`), `generate_arc`
//!    (`workload.synth`), `simulate_with_ctl` (`scheduler.simulate`),
//!    `profile_job` for every record plus `site_account`
//!    (`telemetry.accounting`), then `insert`
//! 5. `to_string_pretty` (`serde_json.render`)
//!
//! Sweeps go through `core::sweep::try_sweep_memo_with_ctl` with a
//! closure that replays each point. The rendered bodies must match the
//! digests of the driven run; otherwise the replay's numbers describe
//! different work and are marked invalid.

use std::sync::{Arc, LazyLock, Mutex};

use sustain_hpc::core::cache::{global_outcome_cache, OutcomeKey};
use sustain_hpc::core::scenario::{Scenario, ScenarioResult};
use sustain_hpc::core::sweep::{global_trace_cache, try_sweep_memo_with_ctl};
use sustain_hpc::grid::green::GreenDetector;
use sustain_hpc::grid::synth::generate_calibrated_arc;
use sustain_hpc::scheduler::sim::{simulate_with_ctl, SimConfig};
use sustain_hpc::service::api::{SweepPointOutcome, SweepResponse, SweepRow};
use sustain_hpc::service::{run_etag, RunRequest, SweepRequest};
use sustain_hpc::sim_core::cache::CacheStats;
use sustain_hpc::sim_core::ctl::RunCtl;
use sustain_hpc::sim_core::error::{SimError, Validate};
use sustain_hpc::sim_core::time::{SimDuration, SimTime};
use sustain_hpc::sim_core::units::Power;
use sustain_hpc::telemetry::accounting::{profile_job, site_account, JobCarbonProfile};
use sustain_hpc::workload::synth::{generate_arc, global_workload_cache};

use crate::spec::{Workload, MAX_STEPS, THREADS};
use crate::trace::{self, span, LAYERS};
use crate::util::{self, ratio};

/// One replayed operation: a full run or sweep, or the conditional
/// request check a `304` took (parse and tag only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Run(u32),
    Sweep(u32),
    Tag(u32),
}

impl Op {
    pub fn encode(self) -> String {
        match self {
            Op::Run(id) => format!("r {id}"),
            Op::Sweep(id) => format!("s {id}"),
            Op::Tag(id) => format!("e {id}"),
        }
    }

    pub fn decode(line: &str) -> Result<Op, String> {
        let (kind, id) = line
            .split_once(' ')
            .ok_or_else(|| format!("bad op {line:?}"))?;
        let id: u32 = id
            .trim()
            .parse()
            .map_err(|_| format!("bad op id {line:?}"))?;
        match kind {
            "r" => Ok(Op::Run(id)),
            "s" => Ok(Op::Sweep(id)),
            "e" => Ok(Op::Tag(id)),
            _ => Err(format!("bad op kind {line:?}")),
        }
    }
}

/// Work counted where it happens, summed over the replay.
#[derive(Debug, Default)]
struct Counters {
    hits: u64,
    hit_s: f64,
    simulations: u64,
    sim_s: f64,
    events: u64,
    schedule_passes: u64,
    schedule_skips: u64,
    spec_planned: u64,
    spec_hits: u64,
    spec_invalidations: u64,
    records: u64,
    unfinished: u64,
    step_cap_runs: u64,
    profiles: u64,
    sweep_points: u64,
    point_calls: u64,
    busy_s: f64,
    sweep_wall_s: f64,
    rendered: u64,
    body_bytes: u64,
}

static COUNTERS: LazyLock<Mutex<Counters>> = LazyLock::new(Default::default);

fn counters() -> std::sync::MutexGuard<'static, Counters> {
    COUNTERS.lock().expect("replay counters")
}

/// The uncached scenario computation, as `core::scenario` does it.
fn compute(scenario: &Scenario, parent: u32, op: u32) -> Result<ScenarioResult, SimError> {
    if scenario.scaling.is_some() {
        return Err(SimError::invalid_input(
            "the replay covers requests without power scaling",
        ));
    }
    let (trace, _) = span("grid.trace", parent, op, |_| {
        generate_calibrated_arc(&scenario.region, scenario.days, scenario.seed)
    });
    let horizon = SimDuration::from_days(scenario.days as f64);
    let (jobs, _) = span("workload.synth", parent, op, |_| {
        generate_arc(&scenario.workload, horizon, scenario.seed.wrapping_add(1))
    });
    let cfg = SimConfig {
        cluster: scenario.cluster.clone(),
        policy: scenario.policy.clone(),
        queues: scenario.queues.clone(),
        carbon_trace: Some((*trace).clone()),
        power_budget: None,
        checkpoint: scenario.checkpoint.clone(),
        fair_share: None,
        failures: None,
        enable_malleability: scenario.malleable,
        reshape_cost: SimDuration::from_secs(30.0),
        tick: SimDuration::from_hours(1.0),
        max_steps: MAX_STEPS,
    };
    let (outcome, sim_s) = span("scheduler.simulate", parent, op, |_| {
        simulate_with_ctl(&jobs, &cfg, &RunCtl::unlimited())
    });
    let outcome = outcome?;
    let ((profiles, site), _) = span("telemetry.accounting", parent, op, |_| {
        let detector = GreenDetector::default();
        let profiles: Vec<JobCarbonProfile> = outcome
            .records
            .iter()
            .map(|r| profile_job(r, &trace, &detector))
            .collect();
        let site = site_account(&profiles);
        (profiles, site)
    });
    {
        let mut c = counters();
        let h = &outcome.hot_path;
        c.simulations += 1;
        c.sim_s += sim_s;
        c.events += h.events;
        c.schedule_passes += h.schedule_passes;
        c.schedule_skips += h.schedule_skips;
        c.spec_planned += h.spec_planned;
        c.spec_hits += h.spec_hits;
        c.spec_invalidations += h.spec_invalidations;
        c.records += outcome.records.len() as u64;
        c.unfinished += outcome.unfinished as u64;
        c.step_cap_runs += u64::from(h.events > MAX_STEPS);
        c.profiles += profiles.len() as u64;
    }
    let total_it_energy = outcome.job_energy + outcome.idle_energy;
    let mean_it_power = if outcome.makespan.as_secs() > 0.0 {
        total_it_energy.over_duration(outcome.makespan - SimTime::ZERO)
    } else {
        Power::ZERO
    };
    let pue = if mean_it_power.watts() > 0.0 {
        scenario.pue.pue_at(mean_it_power)
    } else {
        1.0
    };
    let facility_carbon = outcome.carbon * pue;
    let grid_mean_ci = trace.series().stats().mean();
    Ok(ScenarioResult {
        name: scenario.name.clone(),
        outcome,
        profiles,
        site,
        facility_carbon,
        grid_mean_ci,
    })
}

/// `core::scenario::run_with_ctl`: outcome-cache lookup, compute on a
/// miss, insert, and the clone every caller receives.
fn run_scenario(scenario: &Scenario, parent: u32, op: u32) -> Result<ScenarioResult, SimError> {
    let (result, _) = span("core.run", parent, op, |run| {
        let cache = global_outcome_cache();
        let key = OutcomeKey::new(scenario);
        let (hit, lookup_s) = span("core.outcome_cache.lookup", run, op, |_| cache.lookup(&key));
        let is_hit = hit.is_some();
        let shared = match hit {
            Some(h) => h,
            None => {
                let result = compute(scenario, run, op)?;
                span("core.outcome_cache.insert", run, op, |_| {
                    cache.insert(key, Arc::new(result))
                })
                .0
            }
        };
        let (result, clone_s) = span("core.outcome_cache.clone", run, op, |_| (*shared).clone());
        if is_hit {
            let mut c = counters();
            c.hits += 1;
            c.hit_s += lookup_s + clone_s;
        }
        Ok(result)
    });
    result
}

fn render<T: serde::Serialize>(value: &T, parent: u32, op: u32) -> Result<String, SimError> {
    let (body, _) = span("serde_json.render", parent, op, |_| {
        serde_json::to_string_pretty(value)
    });
    let body = body.map_err(|e| SimError::invalid_input(format!("cannot serialize: {e}")))?;
    let mut c = counters();
    c.rendered += 1;
    c.body_bytes += body.len() as u64;
    Ok(body)
}

fn parse<T: serde::Deserialize>(bytes: &[u8], parent: u32, op: u32) -> Result<T, SimError> {
    span("service.parse", parent, op, |_| {
        serde_json::from_slice::<T>(bytes)
    })
    .0
    .map_err(|e| SimError::invalid_input(format!("invalid request: {e}")))
}

fn replay_run(bytes: &[u8], root: u32, op: u32) -> Result<String, SimError> {
    let req: RunRequest = parse(bytes, root, op)?;
    let (scenario, _) = span(
        "core.scenario",
        root,
        op,
        |_| -> Result<Scenario, SimError> {
            let scenario = req.to_scenario()?;
            scenario.validate()?;
            Ok(scenario)
        },
    );
    let result = run_scenario(&scenario?, root, op)?;
    render(&result, root, op)
}

/// `api::sweep_body` for the seed-axis sweeps the benchmark sends.
fn replay_sweep(bytes: &[u8], root: u32, op: u32) -> Result<String, SimError> {
    let req: SweepRequest = parse(bytes, root, op)?;
    if req.axis != "seed" || req.derive_seeds {
        return Err(SimError::invalid_input(
            "the replay covers seed-axis sweeps only",
        ));
    }
    let (scenarios, _) = span("core.scenario", root, op, |_| {
        req.values
            .iter()
            .map(|&v| -> Result<Scenario, SimError> {
                let point = RunRequest {
                    seed: v as u64,
                    ..req.base.clone()
                };
                let scenario = point.to_scenario()?;
                scenario.validate()?;
                Ok(scenario)
            })
            .collect::<Result<Vec<_>, _>>()
    });
    let scenarios = scenarios?;
    let ctl = RunCtl::unlimited();
    let (results, wall) = span("core.sweep", root, op, |sweep| {
        try_sweep_memo_with_ctl(&scenarios, &ctl, |scenario| {
            let start = util::now_s();
            let r = run_scenario(scenario, sweep, op).map(|r| sweep_row(scenario.seed, r));
            let mut c = counters();
            c.point_calls += 1;
            c.busy_s += util::now_s() - start;
            r
        })
    });
    let results = results?;
    {
        let mut c = counters();
        c.sweep_points += scenarios.len() as u64;
        c.sweep_wall_s += wall;
    }
    let points = results
        .into_iter()
        .enumerate()
        .map(|(index, result)| {
            let (row, error) = match result {
                Ok(row) => (Some(row), None),
                Err(e) => (None, Some(e)),
            };
            SweepPointOutcome {
                index,
                value: req.values[index],
                row,
                error,
            }
        })
        .collect();
    let response = SweepResponse {
        axis: req.axis.clone(),
        master_seed: req.master_seed,
        derive_seeds: req.derive_seeds,
        points,
    };
    render(&response, root, op)
}

/// `api`'s summary row of one sweep point.
fn sweep_row(seed: u64, r: ScenarioResult) -> SweepRow {
    SweepRow {
        name: r.name,
        seed,
        jobs: r.outcome.records.len(),
        unfinished: r.outcome.unfinished,
        makespan_hours: r.outcome.makespan.as_secs() / 3600.0,
        mean_wait_hours: r.outcome.wait.mean / 3600.0,
        utilization: r.outcome.utilization,
        energy_kwh: (r.outcome.job_energy + r.outcome.idle_energy).kwh(),
        carbon_kg: r.outcome.carbon.grams() / 1000.0,
        facility_carbon_kg: r.facility_carbon.grams() / 1000.0,
        grid_mean_ci: r.grid_mean_ci,
    }
}

/// What a replay pass reports.
pub struct Replayed {
    /// (request id, digest) of every rendered body, in replay order.
    pub digests: Vec<(u32, u64)>,
    /// Wall time of every replayed operation, ms.
    pub latencies_ms: Vec<f64>,
    pub failures: usize,
    /// Per-layer metrics (traced passes only).
    pub metrics: Vec<(&'static str, f64)>,
    pub summary: Option<trace::Summary>,
    pub spans: Vec<trace::Span>,
}

fn hit_ratio(before: CacheStats, after: CacheStats) -> (f64, u64) {
    let hits = after.hits - before.hits;
    let lookups = hits + after.misses - before.misses;
    (ratio(hits as f64, lookups as f64), lookups)
}

pub fn replay(workload: Workload, seed: u64, ops: &[Op], traced: bool) -> Replayed {
    if traced {
        trace::enable();
    }
    let caches = || {
        (
            global_outcome_cache().stats(),
            global_trace_cache().stats(),
            global_workload_cache().stats(),
        )
    };
    let before = caches();
    let mut out = Replayed {
        digests: Vec::new(),
        latencies_ms: Vec::with_capacity(ops.len()),
        failures: 0,
        metrics: Vec::new(),
        summary: None,
        spans: Vec::new(),
    };
    for (n, &op) in ops.iter().enumerate() {
        let n = n as u32;
        let (result, wall) = span("service.request", 0, n, |root| match op {
            Op::Run(id) => {
                replay_run(workload.body(seed, id).bytes(), root, n).map(|b| Some((id, b)))
            }
            Op::Sweep(id) => {
                replay_sweep(workload.body(seed, id).bytes(), root, n).map(|b| Some((id, b)))
            }
            Op::Tag(id) => {
                let req: RunRequest = parse(workload.body(seed, id).bytes(), root, n)?;
                span("core.etag", root, n, |_| run_etag(&req));
                Ok(None)
            }
        });
        out.latencies_ms.push(wall * 1e3);
        match result {
            Ok(Some((id, body))) => out.digests.push((id, util::digest(body.as_bytes()))),
            Ok(None) => {}
            Err(e) => {
                eprintln!("replay of {op:?} failed: {e}");
                out.failures += 1;
            }
        }
    }
    if !traced {
        return out;
    }
    let after = caches();
    let spans = trace::take();
    let summary = trace::summarize(&spans);
    let c = counters();
    let (outcome_hits, outcome_lookups) = hit_ratio(before.0, after.0);
    let (trace_hits, trace_lookups) = hit_ratio(before.1, after.1);
    let (workload_hits, workload_lookups) = hit_ratio(before.2, after.2);
    eprintln!(
        "replay bases: {outcome_lookups} outcome-cache lookups, {trace_lookups} trace-cache \
         lookups, {workload_lookups} workload-cache lookups, {} of {} sweep points simulated, \
         {} of {} speculative slots used",
        c.point_calls, c.sweep_points, c.spec_hits, c.spec_planned
    );
    let mut m = vec![
        ("service.parse_ms", summary.mean_ms("service.parse")),
        ("core.outcome_cache.hit_ratio", outcome_hits),
        (
            "core.outcome_cache.hit_ms",
            ratio(c.hit_s, c.hits as f64) * 1e3,
        ),
        (
            "core.outcome_cache.evictions",
            (after.0.evictions - before.0.evictions) as f64,
        ),
        (
            "core.sweep.memo_ratio",
            ratio(c.point_calls as f64, c.sweep_points as f64),
        ),
        (
            "core.sweep.busy_ratio",
            ratio(c.busy_s, c.sweep_wall_s * THREADS as f64),
        ),
        ("grid.trace_ms", summary.mean_ms("grid.trace")),
        ("grid.trace_cache.hit_ratio", trace_hits),
        ("workload.synth_ms", summary.mean_ms("workload.synth")),
        ("workload.cache.hit_ratio", workload_hits),
        (
            "scheduler.simulate_ms",
            ratio(c.sim_s, c.simulations as f64) * 1e3,
        ),
        ("scheduler.events_per_s", ratio(c.events as f64, c.sim_s)),
        ("scheduler.events", c.events as f64),
        ("scheduler.schedule_passes", c.schedule_passes as f64),
        ("scheduler.schedule_skips", c.schedule_skips as f64),
        ("scheduler.spec_planned", c.spec_planned as f64),
        (
            "scheduler.spec_hit_ratio",
            ratio(c.spec_hits as f64, c.spec_planned as f64),
        ),
        ("scheduler.spec_invalidations", c.spec_invalidations as f64),
        (
            "scheduler.unfinished_ratio",
            ratio(c.unfinished as f64, (c.records + c.unfinished) as f64),
        ),
        ("scheduler.step_cap_runs", c.step_cap_runs as f64),
        (
            "telemetry.accounting_ms",
            summary.mean_ms("telemetry.accounting"),
        ),
        ("telemetry.profiles", c.profiles as f64),
        ("serde_json.render_ms", summary.mean_ms("serde_json.render")),
        (
            "serde_json.body_mb",
            ratio(c.body_bytes as f64, c.rendered as f64) / (1024.0 * 1024.0),
        ),
    ];
    for layer in LAYERS {
        m.push((self_share_name(layer), summary.self_share(layer)));
    }
    drop(c);
    out.metrics = m;
    out.summary = Some(summary);
    out.spans = spans;
    out
}

fn self_share_name(layer: &str) -> &'static str {
    match layer {
        "service" => "service.self_share",
        "core" => "core.self_share",
        "grid" => "grid.self_share",
        "workload" => "workload.self_share",
        "scheduler" => "scheduler.self_share",
        "telemetry" => "telemetry.self_share",
        _ => "serde_json.self_share",
    }
}

/// The ops of a driven run to replay, from its records in send order.
pub fn ops_of(recs: &[crate::drive::Rec]) -> Vec<Op> {
    use crate::drive::Kind;
    recs.iter()
        .filter_map(|r| match (r.kind, r.status) {
            (Kind::Run, 200) => Some(Op::Run(r.id)),
            (Kind::Run, 304) => Some(Op::Tag(r.id)),
            (Kind::Sweep, 200) => Some(Op::Sweep(r.id)),
            _ => None,
        })
        .collect()
}
