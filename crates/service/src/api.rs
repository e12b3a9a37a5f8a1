//! Request/response payloads of the experiment service, and the
//! handlers that turn them into canonical JSON bodies.
//!
//! The handlers here are the **single source of truth** for both the
//! HTTP endpoints and the CLI's one-shot `run`/`sweep` subcommands:
//! the server returns exactly the string a CLI invocation prints, so
//! "service response == one-shot output" holds byte-for-byte by
//! construction — and is still locked end-to-end by `tests/service.rs`
//! across concurrent requests and thread counts.
//!
//! Deserialization is *strict*: unknown fields are rejected with a
//! typed error rather than silently ignored, for the same reason the
//! env knobs are strict — a config the caller tried to set and got
//! wrong must not be dropped on the floor.

use serde::{DeError, Deserialize, Serialize, Value};
use sustain_grid::region::{Region, RegionProfile};
use sustain_hpc_core::scenario::{run, Scenario, ScenarioResult};
use sustain_hpc_core::sweep::{point_seed, SweepJournal, SweepPlan};
use sustain_scheduler::cluster::Cluster;
use sustain_scheduler::sim::{CarbonAwareCfg, Policy};
use sustain_sim_core::ctl::{CancelToken, Deadline, RunCtl};
use sustain_sim_core::error::{ConfigError, SimError, Validate};
use sustain_sim_core::hash::CanonicalHash;
use sustain_sim_core::retry::RetryPolicy;

/// Looks a region up by name, case-insensitively and ignoring spaces
/// (`"greatbritain"`, `"Great Britain"`, and `"GreatBritain"` all
/// resolve). Unknown names list the valid set in the error.
pub(crate) fn parse_region(name: &str) -> Result<Region, ConfigError> {
    let canon = |s: &str| s.to_ascii_lowercase().replace(' ', "");
    let wanted = canon(name);
    Region::ALL
        .into_iter()
        .find(|r| canon(r.name()) == wanted)
        .ok_or_else(|| {
            let known: Vec<&str> = Region::ALL.iter().map(|r| r.name()).collect();
            ConfigError::new(
                "RunRequest",
                "region",
                format!(
                    "unknown region {name:?}; known regions: {}",
                    known.join(", ")
                ),
            )
        })
}

/// Parameters of one scenario run (`POST /run`, CLI `run`).
///
/// Every field is optional in the JSON payload; the defaults reproduce
/// the library's baseline scenario on the Finnish grid.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunRequest {
    /// Scenario name echoed into the result.
    pub name: String,
    /// Grid region (see `parse_region`).
    pub region: String,
    /// Simulated days.
    pub days: usize,
    /// Master seed.
    pub seed: u64,
    /// Cluster node count.
    pub nodes: u32,
    /// Scheduling policy: `easy`, `fcfs`, `conservative`, or `carbon`.
    pub policy: String,
    /// Green-gate threshold fraction; only valid with `policy: carbon`.
    pub green_threshold: Option<f64>,
    /// Enable malleable reshaping.
    pub malleable: bool,
    /// Per-request wall-clock budget in milliseconds: work past this
    /// deadline is cooperatively cancelled and reported as a typed
    /// `Cancelled` error (HTTP 408). `None` = no deadline.
    pub timeout_ms: Option<u64>,
}

impl Default for RunRequest {
    fn default() -> Self {
        RunRequest {
            name: "service".to_string(),
            region: "Finland".to_string(),
            days: 3,
            seed: 2023,
            nodes: 256,
            policy: "easy".to_string(),
            green_threshold: None,
            malleable: false,
            timeout_ms: None,
        }
    }
}

// Manual impl: the derive requires every field and accepts no unknown
// keys policy; the API wants the opposite on both counts — absent
// fields default, unknown fields are a hard error.
impl Deserialize for RunRequest {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| DeError::expected("RunRequest object", v))?;
        let mut req = RunRequest::default();
        for (key, val) in obj {
            match key.as_str() {
                "name" => req.name = String::from_value(val)?,
                "region" => req.region = String::from_value(val)?,
                "days" => req.days = usize::from_value(val)?,
                "seed" => req.seed = u64::from_value(val)?,
                "nodes" => req.nodes = u32::from_value(val)?,
                "policy" => req.policy = String::from_value(val)?,
                "green_threshold" => req.green_threshold = Option::<f64>::from_value(val)?,
                "malleable" => req.malleable = bool::from_value(val)?,
                "timeout_ms" => req.timeout_ms = Option::<u64>::from_value(val)?,
                other => return Err(DeError::new(format!("unknown RunRequest field `{other}`"))),
            }
        }
        Ok(req)
    }
}

impl RunRequest {
    /// Builds the scheduling policy from the `policy`/`green_threshold`
    /// pair.
    fn build_policy(&self) -> Result<Policy, ConfigError> {
        let policy = match self.policy.as_str() {
            "easy" => Policy::EasyBackfill,
            "fcfs" => Policy::Fcfs,
            "conservative" => Policy::ConservativeBackfill,
            "carbon" => {
                let mut cfg = CarbonAwareCfg::default();
                if let Some(t) = self.green_threshold {
                    cfg.green_threshold_fraction = t;
                }
                return Ok(Policy::CarbonAware(cfg));
            }
            other => {
                return Err(ConfigError::new(
                    "RunRequest",
                    "policy",
                    format!(
                        "unknown policy {other:?}; expected easy, fcfs, conservative, or carbon"
                    ),
                ))
            }
        };
        if self.green_threshold.is_some() {
            return Err(ConfigError::new(
                "RunRequest",
                "green_threshold",
                format!(
                    "only valid with policy \"carbon\", got policy {:?}",
                    self.policy
                ),
            ));
        }
        Ok(policy)
    }

    /// Materializes the scenario this request describes. Structural
    /// errors (unknown region/policy) surface here; value-range errors
    /// surface from `Scenario::validate` inside `scenario::run`.
    pub fn to_scenario(&self) -> Result<Scenario, ConfigError> {
        let region = parse_region(&self.region)?;
        let mut scenario = Scenario::baseline(
            self.name.clone(),
            RegionProfile::january_2023(region),
            self.days,
        );
        // Degenerate node counts flow into `Scenario::validate` (which
        // reports them as typed errors) instead of asserting here.
        scenario.cluster = Cluster {
            nodes: self.nodes,
            ..scenario.cluster
        };
        scenario.policy = self.build_policy()?;
        scenario.seed = self.seed;
        scenario.malleable = self.malleable;
        Ok(scenario)
    }
}

/// Deterministic entity tag for a run request: the quoted hex canonical
/// hash of the scenario the request materializes. The simulation is a
/// pure function of that scenario (seed included), so the tag
/// fingerprints the *response* without running anything — the server
/// can answer `If-None-Match` with `304 Not Modified` before any
/// simulation work. Returns `None` when the request does not
/// materialize a valid scenario (that request is headed for a 400
/// anyway, which carries no tag).
pub fn run_etag(req: &RunRequest) -> Option<String> {
    let scenario = req.to_scenario().ok()?;
    scenario.validate().ok()?;
    Some(format!("\"{:016x}\"", scenario.canonical_hash()))
}

/// Builds the cancellation control for one request: the request's own
/// `timeout_ms` deadline plus (in the service) the server-wide shutdown
/// token. Both absent yields the unlimited, zero-overhead control.
pub(crate) fn request_ctl(timeout_ms: Option<u64>, token: Option<&CancelToken>) -> RunCtl {
    let mut ctl = RunCtl::unlimited();
    if let Some(token) = token {
        ctl = ctl.with_token(token.clone());
    }
    if let Some(ms) = timeout_ms {
        ctl = ctl.with_deadline(Deadline::after_millis(ms));
    }
    ctl
}

/// Handles one run request: validate, simulate, and render the
/// canonical response body (pretty JSON of the full `ScenarioResult`,
/// identical to what the one-shot CLI prints). Honors the request's
/// own `timeout_ms`; a server shutdown token is only attached by
/// `run_body_with_ctl`.
pub fn run_body(req: &RunRequest) -> Result<String, SimError> {
    run_body_with_ctl(req, None)
}

/// [`run_body`] under the server's shutdown token: in-flight work is
/// cooperatively cancelled (typed `Cancelled`, HTTP 408) when the
/// token fires, instead of holding shutdown hostage until the
/// simulation completes.
pub(crate) fn run_body_with_ctl(
    req: &RunRequest,
    token: Option<&CancelToken>,
) -> Result<String, SimError> {
    let scenario = req.to_scenario()?;
    let ctl = request_ctl(req.timeout_ms, token);
    let result = run(&scenario, &ctl)?;
    serde_json::to_string_pretty(&result)
        .map_err(|e| SimError::invalid_input(format!("cannot serialize result: {e}")))
}

/// Parameters of one parameterized sweep (`POST /sweep`, CLI `sweep`):
/// a base scenario plus one swept axis, fanned out through the shared
/// fault-isolated sweep executor (`core::sweep::SweepPlan`) on the
/// process-wide thread budget and trace cache.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepRequest {
    /// Base scenario; each point overrides one axis of it.
    pub base: RunRequest,
    /// Swept axis: `days`, `nodes`, `seed`, or `green_threshold`.
    pub axis: String,
    /// Axis values, one sweep point each (integral axes reject
    /// fractional values).
    pub values: Vec<f64>,
    /// Master seed for per-point seed derivation (see `derive_seeds`).
    pub master_seed: u64,
    /// When `true`, each point's scenario seed is replaced by the
    /// deterministic per-point sub-seed `point_seed(master_seed, i)` —
    /// the sweep driver's independent-randomness mode. Incompatible
    /// with `axis: seed`.
    pub derive_seeds: bool,
    /// Per-request wall-clock budget in milliseconds for the whole
    /// sweep; see `RunRequest::timeout_ms`.
    pub timeout_ms: Option<u64>,
}

impl Default for SweepRequest {
    fn default() -> Self {
        SweepRequest {
            base: RunRequest::default(),
            axis: "days".to_string(),
            values: Vec::new(),
            master_seed: 2023,
            derive_seeds: false,
            timeout_ms: None,
        }
    }
}

impl Deserialize for SweepRequest {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| DeError::expected("SweepRequest object", v))?;
        let mut req = SweepRequest::default();
        for (key, val) in obj {
            match key.as_str() {
                "base" => req.base = RunRequest::from_value(val)?,
                "axis" => req.axis = String::from_value(val)?,
                "values" => req.values = Vec::<f64>::from_value(val)?,
                "master_seed" => req.master_seed = u64::from_value(val)?,
                "derive_seeds" => req.derive_seeds = bool::from_value(val)?,
                "timeout_ms" => req.timeout_ms = Option::<u64>::from_value(val)?,
                other => {
                    return Err(DeError::new(format!(
                        "unknown SweepRequest field `{other}`"
                    )))
                }
            }
        }
        Ok(req)
    }
}

/// Summary row of one completed sweep point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepRow {
    /// Scenario name (base name; the axis value is in the containing
    /// point).
    pub name: String,
    /// Seed the point actually ran with (differs from the base seed
    /// under `derive_seeds` or `axis: seed`).
    pub seed: u64,
    /// Completed jobs.
    pub jobs: usize,
    /// Jobs still pending/running at the horizon.
    pub unfinished: usize,
    /// Time of the last completion, hours.
    pub makespan_hours: f64,
    /// Mean queue wait, hours.
    pub mean_wait_hours: f64,
    /// Allocated node-seconds over nodes × makespan.
    pub utilization: f64,
    /// Total job energy, kWh.
    pub energy_kwh: f64,
    /// Operational carbon (jobs + idle), kg.
    pub carbon_kg: f64,
    /// Operational carbon scaled by the facility PUE, kg.
    pub facility_carbon_kg: f64,
    /// Mean grid intensity over the window, g/kWh.
    pub grid_mean_ci: f64,
}

/// One sweep point: either a summary row or the typed error that took
/// it down (a panicking point is isolated by the sweep driver and lands
/// here as a `Faulted` error; the other points still complete).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepPointOutcome {
    /// Index of the point in `values`.
    pub index: usize,
    /// The axis value of this point.
    pub value: f64,
    /// Summary row, when the point completed.
    pub row: Option<SweepRow>,
    /// Typed error, when it did not.
    pub error: Option<SimError>,
}

/// Full sweep response.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepResponse {
    /// Swept axis.
    pub axis: String,
    /// Master seed used for per-point derivation.
    pub master_seed: u64,
    /// Whether per-point sub-seeds replaced the base seed.
    pub derive_seeds: bool,
    /// Per-point outcomes, in `values` order.
    pub points: Vec<SweepPointOutcome>,
}

/// Applies one axis value to a copy of the base scenario parameters.
fn apply_axis(base: &RunRequest, axis: &str, value: f64) -> Result<RunRequest, ConfigError> {
    let integral = |field: &str| -> Result<u64, ConfigError> {
        if value.is_finite() && value >= 0.0 && value.fract() == 0.0 && value <= u64::MAX as f64 {
            Ok(value as u64)
        } else {
            Err(ConfigError::new(
                "SweepRequest",
                field,
                format!("axis value must be a non-negative integer, got {value}"),
            ))
        }
    };
    let mut point = base.clone();
    match axis {
        "days" => point.days = integral("values")? as usize,
        "nodes" => {
            let n = integral("values")?;
            point.nodes = u32::try_from(n).map_err(|_| {
                ConfigError::new(
                    "SweepRequest",
                    "values",
                    format!("node count {n} exceeds u32::MAX"),
                )
            })?;
        }
        "seed" => point.seed = integral("values")?,
        "green_threshold" => point.green_threshold = Some(value),
        other => {
            return Err(ConfigError::new(
                "SweepRequest",
                "axis",
                format!("unknown axis {other:?}; expected days, nodes, seed, or green_threshold"),
            ))
        }
    }
    Ok(point)
}

/// Validates a sweep request up front (typed error before any work
/// runs) and materializes one scenario per axis value.
fn sweep_scenarios(req: &SweepRequest) -> Result<Vec<Scenario>, SimError> {
    if req.values.is_empty() {
        return Err(ConfigError::new("SweepRequest", "values", "must not be empty").into());
    }
    if req.derive_seeds && req.axis == "seed" {
        return Err(ConfigError::new(
            "SweepRequest",
            "derive_seeds",
            "incompatible with axis \"seed\" (derived sub-seeds would overwrite the axis)",
        )
        .into());
    }
    // Validate every point before running any: a sweep with a malformed
    // point is a bad request, not a half-completed response.
    let mut scenarios = Vec::with_capacity(req.values.len());
    for (i, &value) in req.values.iter().enumerate() {
        let point = apply_axis(&req.base, &req.axis, value).map_err(|e| {
            SimError::Config(ConfigError::new(
                e.context.clone(),
                e.field.clone(),
                format!("point {i}: {}", e.message),
            ))
        })?;
        let mut scenario = point.to_scenario()?;
        if req.derive_seeds {
            scenario.seed = point_seed(req.master_seed, i as u64);
        }
        scenario.validate()?;
        scenarios.push(scenario);
    }
    Ok(scenarios)
}

/// Collapses one scenario result into its sweep summary row.
fn sweep_row(seed: u64, r: &ScenarioResult) -> SweepRow {
    let wait_mean_secs = r.outcome.wait.mean;
    SweepRow {
        name: r.name.clone(),
        seed,
        jobs: r.outcome.records.len(),
        unfinished: r.outcome.unfinished,
        makespan_hours: r.outcome.makespan.as_secs() / 3600.0,
        mean_wait_hours: wait_mean_secs / 3600.0,
        utilization: r.outcome.utilization,
        energy_kwh: (r.outcome.job_energy + r.outcome.idle_energy).kwh(),
        carbon_kg: r.outcome.carbon.grams() / 1000.0,
        facility_carbon_kg: r.facility_carbon.grams() / 1000.0,
        grid_mean_ci: r.grid_mean_ci,
    }
}

/// Renders the canonical sweep response body from per-point results.
fn render_sweep_response(
    req: &SweepRequest,
    results: Vec<Result<SweepRow, SimError>>,
) -> Result<String, SimError> {
    let points: Vec<SweepPointOutcome> = results
        .into_iter()
        .enumerate()
        .map(|(index, result)| match result {
            Ok(row) => SweepPointOutcome {
                index,
                value: req.values[index],
                row: Some(row),
                error: None,
            },
            Err(e) => SweepPointOutcome {
                index,
                value: req.values[index],
                row: None,
                error: Some(e),
            },
        })
        .collect();

    let response = SweepResponse {
        axis: req.axis.clone(),
        master_seed: req.master_seed,
        derive_seeds: req.derive_seeds,
        points,
    };
    serde_json::to_string_pretty(&response)
        .map_err(|e| SimError::invalid_input(format!("cannot serialize sweep: {e}")))
}

/// Handles one sweep request: validate every point up front, fan the
/// points out through the shared sweep executor, and render the
/// canonical response body. Honors the request's own `timeout_ms`; a
/// server shutdown token or a journal is only attached by
/// [`sweep_body_with_ctl`].
pub fn sweep_body(req: &SweepRequest) -> Result<String, SimError> {
    sweep_body_with_ctl(req, None, None)
}

/// [`sweep_body`] under the server's shutdown token and, for the CLI's
/// `sweep --journal`, a crash-resumable checkpoint journal. A fired
/// deadline or token cancels the whole sweep with a typed `Cancelled`
/// error carrying partial-progress stats (`N/M sweep points
/// completed`); per-point panics and errors land in their own slots.
///
/// Without a journal, each point's effective seed is already baked into
/// its scenario by `sweep_scenarios`, so the plan runs seedless and
/// duplicate axis values simulate once. With one, points take the
/// request's master seed (the journal validates its lines against the
/// derived per-point seeds), transient failures retry under the
/// process-wide [`RetryPolicy`], and points that fail for good are
/// quarantined as tombstones that a replay skips unless
/// `journal.retry_failed`. Either way, a sweep whose faults all heal
/// renders byte-identically to a fault-free [`sweep_body`] run: attempt
/// counts surface through the retry counters (`GET /stats`, CLI
/// `--stats`), not the body.
pub fn sweep_body_with_ctl(
    req: &SweepRequest,
    token: Option<&CancelToken>,
    journal: Option<SweepJournal>,
) -> Result<String, SimError> {
    let scenarios = sweep_scenarios(req)?;
    let ctl = request_ctl(req.timeout_ms, token);
    let plan = SweepPlan {
        master_seed: journal.as_ref().map(|_| req.master_seed),
        retry: match journal {
            Some(_) => RetryPolicy::from_global(),
            None => RetryPolicy::none(),
        },
        journal,
        ..SweepPlan::new(&scenarios, &ctl)
    };
    let runs = plan.run(|scenario, _| run(scenario, &ctl).map(|r| sweep_row(scenario.seed, &r)))?;
    render_sweep_response(req, runs.into_iter().map(|run| run.result).collect())
}

/// Structured error payload: every non-2xx response carries one.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub(crate) struct ErrorBody {
    /// The error detail (wrapped so the top-level JSON shape is
    /// `{"error": {...}}`).
    pub error: ErrorDetail,
}

/// The payload of an [`ErrorBody`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub(crate) struct ErrorDetail {
    /// Machine-readable kind: `config`, `invalid_input`, `faulted`,
    /// `cancelled`, `timeout`, `bad_request`, `not_found`,
    /// `method_not_allowed`, `overloaded`, `unavailable` (circuit
    /// breaker open), or `payload_too_large`.
    pub kind: String,
    /// Human-readable message.
    pub message: String,
    /// For `config` errors: the config type that rejected.
    pub context: Option<String>,
    /// For `config` errors: the offending field.
    pub field: Option<String>,
}

/// Renders a structured error body.
pub(crate) fn error_body(
    kind: &str,
    message: &str,
    context: Option<&str>,
    field: Option<&str>,
) -> String {
    let body = ErrorBody {
        error: ErrorDetail {
            kind: kind.to_string(),
            message: message.to_string(),
            context: context.map(str::to_string),
            field: field.map(str::to_string),
        },
    };
    // A struct of strings cannot fail to serialize.
    serde_json::to_string_pretty(&body).unwrap_or_else(|_| "{\"error\":{}}".to_string())
}

/// Maps a typed simulation error to its HTTP status and body:
/// validation failures are the client's fault (400), an isolated fault
/// inside the work unit is ours (500), and cooperatively cancelled
/// work — deadline expiry or server shutdown — is a request timeout
/// (408) whose message carries the partial-progress stats.
pub(crate) fn sim_error_response(e: &SimError) -> (u16, String) {
    match e {
        SimError::Config(c) => (
            400,
            error_body("config", &c.to_string(), Some(&c.context), Some(&c.field)),
        ),
        SimError::InvalidInput { message } => {
            (400, error_body("invalid_input", message, None, None))
        }
        SimError::Faulted { unit, message } => (
            500,
            error_body(
                "faulted",
                &format!("fault isolated in {unit}: {message}"),
                None,
                None,
            ),
        ),
        SimError::Cancelled { .. } => (408, error_body("cancelled", &e.to_string(), None, None)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_parsing_is_forgiving_about_case_and_spaces() {
        assert_eq!(parse_region("finland").unwrap(), Region::Finland);
        assert_eq!(parse_region("Great Britain").unwrap(), Region::GreatBritain);
        assert_eq!(parse_region("greatbritain").unwrap(), Region::GreatBritain);
        let err = parse_region("atlantis").unwrap_err();
        assert!(err.to_string().contains("known regions"), "{err}");
    }

    #[test]
    fn run_request_defaults_and_strict_fields() {
        let req: RunRequest = serde_json::from_str("{}").unwrap();
        assert_eq!(req, RunRequest::default());
        let req: RunRequest =
            serde_json::from_str(r#"{"region": "Germany", "days": 5, "policy": "carbon"}"#)
                .unwrap();
        assert_eq!(req.region, "Germany");
        assert_eq!(req.days, 5);
        assert_eq!(req.seed, 2023);
        let err = serde_json::from_str::<RunRequest>(r#"{"dayz": 5}"#).unwrap_err();
        assert!(
            err.to_string().contains("unknown RunRequest field"),
            "{err}"
        );
    }

    #[test]
    fn run_body_is_deterministic_and_validates() {
        let req = RunRequest {
            days: 2,
            nodes: 600,
            ..RunRequest::default()
        };
        let a = run_body(&req).unwrap();
        let b = run_body(&req).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("\"outcome\""), "body should carry the outcome");

        let bad_region = RunRequest {
            region: "atlantis".into(),
            ..req.clone()
        };
        assert!(matches!(
            run_body(&bad_region).unwrap_err(),
            SimError::Config(_)
        ));

        let bad_days = RunRequest {
            days: 0,
            ..req.clone()
        };
        let err = run_body(&bad_days).unwrap_err();
        assert!(err.to_string().contains("days"), "{err}");

        let threshold_without_carbon = RunRequest {
            green_threshold: Some(0.9),
            ..req
        };
        let err = run_body(&threshold_without_carbon).unwrap_err();
        assert!(err.to_string().contains("green_threshold"), "{err}");
    }

    #[test]
    fn sweep_body_runs_points_in_order_and_rejects_bad_axes() {
        let req = SweepRequest {
            base: RunRequest {
                days: 2,
                nodes: 600,
                ..RunRequest::default()
            },
            axis: "seed".into(),
            values: vec![1.0, 2.0, 1.0],
            ..SweepRequest::default()
        };
        let body = sweep_body(&req).unwrap();
        let v: Value = serde_json::from_str(&body).unwrap();
        let points = v["points"].as_array().unwrap();
        assert_eq!(points.len(), 3);
        assert_eq!(points[0]["row"]["seed"].as_u64(), Some(1));
        assert_eq!(points[1]["row"]["seed"].as_u64(), Some(2));
        // Same seed, same point: rows 0 and 2 must be identical.
        assert_eq!(points[0]["row"], points[2]["row"]);
        assert_ne!(points[0]["row"], points[1]["row"]);

        let bad_axis = SweepRequest {
            axis: "phase_of_moon".into(),
            values: vec![1.0],
            ..req.clone()
        };
        assert!(sweep_body(&bad_axis).is_err());

        let fractional_days = SweepRequest {
            axis: "days".into(),
            values: vec![2.5],
            ..req.clone()
        };
        let err = sweep_body(&fractional_days).unwrap_err();
        assert!(err.to_string().contains("non-negative integer"), "{err}");

        let empty = SweepRequest {
            values: vec![],
            ..req.clone()
        };
        assert!(sweep_body(&empty).is_err());

        let conflicted = SweepRequest {
            derive_seeds: true,
            ..req
        };
        assert!(sweep_body(&conflicted).is_err());
    }

    #[test]
    fn derived_seeds_match_the_sweep_driver_derivation() {
        let req = SweepRequest {
            base: RunRequest {
                days: 2,
                nodes: 600,
                ..RunRequest::default()
            },
            axis: "days".into(),
            values: vec![2.0, 3.0],
            master_seed: 42,
            derive_seeds: true,
            timeout_ms: None,
        };
        let body = sweep_body(&req).unwrap();
        let v: Value = serde_json::from_str(&body).unwrap();
        let points = v["points"].as_array().unwrap();
        assert_eq!(points[0]["row"]["seed"].as_u64(), Some(point_seed(42, 0)));
        assert_eq!(points[1]["row"]["seed"].as_u64(), Some(point_seed(42, 1)));
    }

    #[test]
    fn error_mapping_statuses() {
        let (status, body) = sim_error_response(&SimError::Config(ConfigError::new(
            "Scenario",
            "days",
            "must be >= 1, got 0",
        )));
        assert_eq!(status, 400);
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["error"]["kind"].as_str(), Some("config"));
        assert_eq!(v["error"]["field"].as_str(), Some("days"));

        let (status, _) = sim_error_response(&SimError::invalid_input("nope"));
        assert_eq!(status, 400);

        let (status, body) = sim_error_response(&SimError::Faulted {
            unit: "sweep point 3".into(),
            message: "boom".into(),
        });
        assert_eq!(status, 500);
        assert!(body.contains("faulted"));

        let (status, body) = sim_error_response(&SimError::Cancelled {
            at_sim_time: sustain_sim_core::time::SimTime::from_hours(3.0),
            reason: "deadline of 1ms exceeded".into(),
        });
        assert_eq!(status, 408);
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["error"]["kind"].as_str(), Some("cancelled"));
        assert!(body.contains("deadline of 1ms exceeded"), "{body}");
    }

    #[test]
    fn timed_out_run_is_a_typed_cancelled_error() {
        // A 365-day, 10k-node run takes seconds; a 1 ms budget cannot
        // finish it, so the deadline must fire inside the event loop.
        let req = RunRequest {
            days: 365,
            nodes: 10_000,
            timeout_ms: Some(1),
            ..RunRequest::default()
        };
        let err = run_body(&req).unwrap_err();
        match &err {
            SimError::Cancelled { reason, .. } => {
                assert!(reason.contains("deadline"), "{reason}");
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn cancelled_sweep_reports_partial_progress() {
        let token = CancelToken::new();
        token.cancel("shutdown requested");
        let req = SweepRequest {
            base: RunRequest {
                days: 2,
                nodes: 600,
                ..RunRequest::default()
            },
            axis: "days".into(),
            values: vec![2.0, 3.0],
            ..SweepRequest::default()
        };
        let err = sweep_body_with_ctl(&req, Some(&token), None).unwrap_err();
        match &err {
            SimError::Cancelled { reason, .. } => {
                assert!(reason.contains("shutdown requested"), "{reason}");
                assert!(reason.contains("sweep points completed"), "{reason}");
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn resumable_sweep_body_matches_the_plain_body() {
        let req = SweepRequest {
            base: RunRequest {
                days: 2,
                nodes: 600,
                ..RunRequest::default()
            },
            axis: "days".into(),
            values: vec![2.0, 3.0],
            ..SweepRequest::default()
        };
        let dir = std::env::temp_dir().join(format!(
            "sustain-api-journal-{}-{}",
            std::process::id(),
            "match"
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("sweep.journal");
        let _ = std::fs::remove_file(&journal);

        let journaled = || {
            let journal = SweepJournal {
                path: journal.clone(),
                retry_failed: false,
            };
            sweep_body_with_ctl(&req, None, Some(journal)).unwrap()
        };
        let plain = sweep_body(&req).unwrap();
        let fresh = journaled();
        assert_eq!(plain, fresh, "fresh resumable run must match plain run");
        // Second invocation replays every point from the journal.
        let replayed = journaled();
        assert_eq!(plain, replayed, "replayed run must be byte-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
