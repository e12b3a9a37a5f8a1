//! Per-job records and aggregate scheduling/carbon metrics.

use serde::{DeError, Deserialize, Serialize, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use sustain_grid::trace::CarbonTrace;
use sustain_sim_core::stats::Summary;
use sustain_sim_core::time::{SimDuration, SimTime};
use sustain_sim_core::units::{Carbon, Energy, Power};
use sustain_workload::job::JobId;

/// One contiguous execution segment of a job (allocation and power are
/// constant within a segment; malleability and suspend/resume create
/// multiple segments).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Segment start.
    pub start: SimTime,
    /// Segment end.
    pub end: SimTime,
    /// Nodes allocated during the segment.
    pub nodes: u32,
    /// Total power drawn during the segment.
    pub power: Power,
}

impl Segment {
    /// Segment duration.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }

    /// Energy drawn in this segment.
    pub fn energy(&self) -> Energy {
        self.power.for_duration(self.duration())
    }

    /// Carbon emitted in this segment under a carbon trace.
    pub fn carbon(&self, trace: &CarbonTrace) -> Carbon {
        self.energy()
            .carbon_at(trace.mean_over(self.start, self.end))
    }

    /// Node-seconds consumed.
    pub fn node_seconds(&self) -> f64 {
        self.nodes as f64 * self.duration().as_secs()
    }
}

/// Completed-job record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Job id.
    pub id: JobId,
    /// Owning user.
    pub user: u32,
    /// Submission time.
    pub submit: SimTime,
    /// First start time.
    pub start: SimTime,
    /// Completion time.
    pub end: SimTime,
    /// Execution segments (≥1).
    pub segments: Vec<Segment>,
    /// Times the job was suspended (checkpointed away).
    pub suspensions: u32,
    /// Times the job was reshaped (malleability events).
    pub reshapes: u32,
    /// Times the job was restarted after a node failure.
    pub restarts: u32,
}

impl JobRecord {
    /// Queue wait before first start.
    pub fn wait(&self) -> SimDuration {
        self.start - self.submit
    }

    /// Total wall time from first start to completion (including suspended
    /// gaps).
    pub fn span(&self) -> SimDuration {
        self.end - self.start
    }

    /// Actual computing wall time (sum of segment durations).
    pub fn compute_time(&self) -> SimDuration {
        self.segments
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc + s.duration())
    }

    /// Bounded slowdown with the conventional 10-second bound.
    pub(crate) fn bounded_slowdown(&self) -> f64 {
        let rt = self.compute_time().as_secs().max(10.0);
        ((self.wait().as_secs() + rt) / rt).max(1.0)
    }

    /// Total energy over all segments.
    pub fn energy(&self) -> Energy {
        self.segments.iter().map(Segment::energy).sum()
    }

    /// Total carbon over all segments under a carbon trace.
    pub fn carbon(&self, trace: &CarbonTrace) -> Carbon {
        self.segments.iter().map(|s| s.carbon(trace)).sum()
    }

    /// Total node-seconds.
    pub fn node_seconds(&self) -> f64 {
        self.segments.iter().map(Segment::node_seconds).sum()
    }
}

/// Hot-path work counters for one simulation run: how much work the
/// event loop did, not what it decided. The numbers are the profile
/// baseline for perf work (`--stats` on the CLI) and are expected to
/// change across optimizations — golden byte-identity snapshots strip
/// this block, and it is serialized last so outcome JSONs written
/// before the counters existed (e.g. sweep trace caches) still load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct HotPathStats {
    /// Events dispatched by the main loop.
    pub events: u64,
    /// Full scheduling passes executed.
    pub schedule_passes: u64,
    /// Scheduling passes skipped by the quiescence fast path (nothing
    /// changed since a pass that started nothing).
    pub schedule_skips: u64,
    /// Fair-share pending-queue resorts actually performed.
    pub resorts_taken: u64,
    /// Resorts skipped because no usage was recorded since the last one.
    pub resorts_skipped: u64,
    /// CI/budget point lookups served from the cached current bucket.
    pub trace_bucket_hits: u64,
    /// CI/budget point lookups that crossed into a new bucket.
    pub trace_bucket_misses: u64,
    /// Times a planning scratch buffer had to grow its allocation
    /// (plateaus after warm-up: the steady-state schedule path performs
    /// no heap allocation).
    pub scratch_grows: u64,
    /// Counters of the removed speculative conservative planner
    /// (DESIGN.md §6); always 0. They stay so outcome JSONs keep their
    /// field set and the benchmark, which reads them, still compiles.
    pub spec_planned: u64,
    /// Always 0 (see `spec_planned`).
    pub spec_hits: u64,
    /// Always 0 (see `spec_planned`).
    pub spec_invalidations: u64,
    /// Pending jobs repositioned by the incremental fair-share fix-up
    /// (remove + sorted re-insert of dirty users' jobs; the work that
    /// replaced full resorts).
    pub fs_repositions: u64,
    /// Renormalizations of the fair-share usage epoch (exact
    /// power-of-two rescale of every user's normalized usage; rare).
    pub fs_renorms: u64,
    /// Pending entries the backfill actually worked on. Under EASY:
    /// entries the walk examined (reached the eligibility and
    /// allocation checks). Only entries whose minimum allocation passes
    /// both the node test (at most the free nodes) and the time test
    /// (at most the spare nodes, or an estimate that ends by the
    /// shadow) are examined; the rest are skipped in bulk and not
    /// counted. Under
    /// conservative backfill: entries a plan pass placed (a slot search
    /// each); entries that kept their reservation from an earlier pass,
    /// and the entries behind the last one that could start now, are
    /// not placed.
    pub backfill_visits: u64,
    /// Pending entries the backfill would have worked on without its
    /// skips: under EASY, the entries the walk passed over, examined or
    /// skipped in bulk; under conservative backfill, the pending length
    /// at the start of each plan pass, and again at each full rebuild
    /// within a pass. `backfill_visits / backfill_scanned` is the share
    /// of the queue actually worked on.
    pub backfill_scanned: u64,
}

impl HotPathStats {
    /// Adds another run's counters into this one.
    #[cfg(test)]
    pub(crate) fn absorb(&mut self, other: &HotPathStats) {
        self.events += other.events;
        self.schedule_passes += other.schedule_passes;
        self.schedule_skips += other.schedule_skips;
        self.resorts_taken += other.resorts_taken;
        self.resorts_skipped += other.resorts_skipped;
        self.trace_bucket_hits += other.trace_bucket_hits;
        self.trace_bucket_misses += other.trace_bucket_misses;
        self.scratch_grows += other.scratch_grows;
        self.spec_planned += other.spec_planned;
        self.spec_hits += other.spec_hits;
        self.spec_invalidations += other.spec_invalidations;
        self.fs_repositions += other.fs_repositions;
        self.fs_renorms += other.fs_renorms;
        self.backfill_visits += other.backfill_visits;
        self.backfill_scanned += other.backfill_scanned;
    }
}

// Counters are append-only across PRs: a manual impl (instead of the
// derive, which errors on missing fields) defaults absent counters to 0
// so outcome JSONs serialized before a counter existed still load.
impl Deserialize for HotPathStats {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let field = |name: &str| -> Result<u64, DeError> {
            match v.get(name) {
                Some(x) => u64::from_value(x),
                None => Ok(0),
            }
        };
        Ok(HotPathStats {
            events: field("events")?,
            schedule_passes: field("schedule_passes")?,
            schedule_skips: field("schedule_skips")?,
            resorts_taken: field("resorts_taken")?,
            resorts_skipped: field("resorts_skipped")?,
            trace_bucket_hits: field("trace_bucket_hits")?,
            trace_bucket_misses: field("trace_bucket_misses")?,
            scratch_grows: field("scratch_grows")?,
            spec_planned: field("spec_planned")?,
            spec_hits: field("spec_hits")?,
            spec_invalidations: field("spec_invalidations")?,
            fs_repositions: field("fs_repositions")?,
            fs_renorms: field("fs_renorms")?,
            backfill_visits: field("backfill_visits")?,
            backfill_scanned: field("backfill_scanned")?,
        })
    }
}

/// Process-wide accumulators: every `simulate` run (including the
/// parallel sweep workers) folds its counters in, so the CLI can print
/// one aggregate block after a multi-scenario command.
static TOTAL_EVENTS: AtomicU64 = AtomicU64::new(0);
static TOTAL_PASSES: AtomicU64 = AtomicU64::new(0);
static TOTAL_SKIPS: AtomicU64 = AtomicU64::new(0);
static TOTAL_RESORTS_TAKEN: AtomicU64 = AtomicU64::new(0);
static TOTAL_RESORTS_SKIPPED: AtomicU64 = AtomicU64::new(0);
static TOTAL_TRACE_HITS: AtomicU64 = AtomicU64::new(0);
static TOTAL_TRACE_MISSES: AtomicU64 = AtomicU64::new(0);
static TOTAL_SCRATCH_GROWS: AtomicU64 = AtomicU64::new(0);
static TOTAL_FS_REPOSITIONS: AtomicU64 = AtomicU64::new(0);
static TOTAL_FS_RENORMS: AtomicU64 = AtomicU64::new(0);
static TOTAL_BACKFILL_VISITS: AtomicU64 = AtomicU64::new(0);
static TOTAL_BACKFILL_SCANNED: AtomicU64 = AtomicU64::new(0);

pub(crate) fn record_hot_path_totals(s: &HotPathStats) {
    TOTAL_EVENTS.fetch_add(s.events, Ordering::Relaxed);
    TOTAL_PASSES.fetch_add(s.schedule_passes, Ordering::Relaxed);
    TOTAL_SKIPS.fetch_add(s.schedule_skips, Ordering::Relaxed);
    TOTAL_RESORTS_TAKEN.fetch_add(s.resorts_taken, Ordering::Relaxed);
    TOTAL_RESORTS_SKIPPED.fetch_add(s.resorts_skipped, Ordering::Relaxed);
    TOTAL_TRACE_HITS.fetch_add(s.trace_bucket_hits, Ordering::Relaxed);
    TOTAL_TRACE_MISSES.fetch_add(s.trace_bucket_misses, Ordering::Relaxed);
    TOTAL_SCRATCH_GROWS.fetch_add(s.scratch_grows, Ordering::Relaxed);
    TOTAL_FS_REPOSITIONS.fetch_add(s.fs_repositions, Ordering::Relaxed);
    TOTAL_FS_RENORMS.fetch_add(s.fs_renorms, Ordering::Relaxed);
    TOTAL_BACKFILL_VISITS.fetch_add(s.backfill_visits, Ordering::Relaxed);
    TOTAL_BACKFILL_SCANNED.fetch_add(s.backfill_scanned, Ordering::Relaxed);
}

/// Snapshot of the process-wide hot-path counters aggregated over every
/// simulation run so far (all threads).
pub fn hot_path_totals() -> HotPathStats {
    HotPathStats {
        events: TOTAL_EVENTS.load(Ordering::Relaxed),
        schedule_passes: TOTAL_PASSES.load(Ordering::Relaxed),
        schedule_skips: TOTAL_SKIPS.load(Ordering::Relaxed),
        resorts_taken: TOTAL_RESORTS_TAKEN.load(Ordering::Relaxed),
        resorts_skipped: TOTAL_RESORTS_SKIPPED.load(Ordering::Relaxed),
        trace_bucket_hits: TOTAL_TRACE_HITS.load(Ordering::Relaxed),
        trace_bucket_misses: TOTAL_TRACE_MISSES.load(Ordering::Relaxed),
        scratch_grows: TOTAL_SCRATCH_GROWS.load(Ordering::Relaxed),
        fs_repositions: TOTAL_FS_REPOSITIONS.load(Ordering::Relaxed),
        fs_renorms: TOTAL_FS_RENORMS.load(Ordering::Relaxed),
        backfill_visits: TOTAL_BACKFILL_VISITS.load(Ordering::Relaxed),
        backfill_scanned: TOTAL_BACKFILL_SCANNED.load(Ordering::Relaxed),
        ..HotPathStats::default()
    }
}

/// Aggregate outcome of a simulation run.
#[derive(Debug, Clone, Serialize)]
pub struct SimOutcome {
    /// Per-job records (completed jobs only).
    pub records: Vec<JobRecord>,
    /// Jobs without a completion record: `jobs − completed`. Besides
    /// jobs still pending, running or suspended at the horizon, this
    /// counts jobs rejected at submit: wider than the cluster, admitted
    /// by no queue, or drawing more than the largest power budget.
    /// Splitting the two is ROADMAP item 2.
    pub unfinished: usize,
    /// Time of the last completion.
    pub makespan: SimTime,
    /// Wait-time summary, seconds.
    pub wait: Summary,
    /// Bounded-slowdown summary.
    pub slowdown: Summary,
    /// Allocated node-seconds / (nodes × makespan).
    pub utilization: f64,
    /// Total job energy.
    pub job_energy: Energy,
    /// Idle-node energy over the run.
    pub idle_energy: Energy,
    /// Total operational carbon (jobs + idle).
    pub carbon: Carbon,
    /// Emission-weighted mean intensity paid by job energy, g/kWh.
    pub effective_job_ci: f64,
    /// Seconds during which running power exceeded the power budget.
    pub budget_violation_seconds: f64,
    /// Event-loop work counters (volatile across perf changes; excluded
    /// from golden snapshots). Declared last so it serializes after the
    /// result fields.
    pub hot_path: HotPathStats,
}

impl Deserialize for SimOutcome {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(SimOutcome {
            records: Vec::<JobRecord>::from_value(serde::get_field(v, "records")?)?,
            unfinished: usize::from_value(serde::get_field(v, "unfinished")?)?,
            makespan: SimTime::from_value(serde::get_field(v, "makespan")?)?,
            wait: Summary::from_value(serde::get_field(v, "wait")?)?,
            slowdown: Summary::from_value(serde::get_field(v, "slowdown")?)?,
            utilization: f64::from_value(serde::get_field(v, "utilization")?)?,
            job_energy: Energy::from_value(serde::get_field(v, "job_energy")?)?,
            idle_energy: Energy::from_value(serde::get_field(v, "idle_energy")?)?,
            carbon: Carbon::from_value(serde::get_field(v, "carbon")?)?,
            effective_job_ci: f64::from_value(serde::get_field(v, "effective_job_ci")?)?,
            budget_violation_seconds: f64::from_value(serde::get_field(
                v,
                "budget_violation_seconds",
            )?)?,
            // Absent in outcomes serialized before the counter block
            // existed (sweep trace caches): default instead of erroring.
            hot_path: match v.get("hot_path") {
                Some(hp) => HotPathStats::from_value(hp)?,
                None => HotPathStats::default(),
            },
        })
    }
}

impl SimOutcome {
    /// Builds the aggregate outcome from records plus run-level numbers.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_records(
        records: Vec<JobRecord>,
        unfinished: usize,
        total_nodes: u32,
        trace: Option<&CarbonTrace>,
        idle_energy: Energy,
        idle_carbon: Carbon,
        budget_violation_seconds: f64,
    ) -> SimOutcome {
        let makespan = records.iter().map(|r| r.end).max().unwrap_or(SimTime::ZERO);
        let waits: Vec<f64> = records.iter().map(|r| r.wait().as_secs()).collect();
        let slowdowns: Vec<f64> = records.iter().map(|r| r.bounded_slowdown()).collect();
        let node_seconds: f64 = records.iter().map(|r| r.node_seconds()).sum();
        let capacity = total_nodes as f64 * makespan.as_secs();
        let job_energy: Energy = records.iter().map(|r| r.energy()).sum();
        let job_carbon: Carbon = trace
            .map(|t| records.iter().map(|r| r.carbon(t)).sum())
            .unwrap_or(Carbon::ZERO);
        SimOutcome {
            unfinished,
            makespan,
            wait: Summary::of(&waits),
            slowdown: Summary::of(&slowdowns),
            utilization: if capacity > 0.0 {
                node_seconds / capacity
            } else {
                0.0
            },
            job_energy,
            idle_energy,
            carbon: job_carbon + idle_carbon,
            effective_job_ci: if job_energy.kwh() > 0.0 {
                job_carbon.grams() / job_energy.kwh()
            } else {
                0.0
            },
            budget_violation_seconds,
            records,
            hot_path: HotPathStats::default(),
        }
    }
}

/// Reconstructs the cluster's power profile from job records: mean total
/// job power per `step` bucket over `[0, horizon)`. The verification
/// artifact for power-budget experiments (compare against the budget
/// series) and the input for facility-level integration.
pub fn power_profile(
    records: &[JobRecord],
    step: SimDuration,
    horizon: SimTime,
) -> sustain_sim_core::series::TimeSeries {
    assert!(!step.is_zero(), "step must be positive");
    let buckets = (horizon.as_secs() / step.as_secs()).ceil() as usize;
    let mut energy_j = vec![0.0f64; buckets.max(1)];
    for rec in records {
        for seg in &rec.segments {
            // Distribute the segment's energy into overlapping buckets.
            let mut t = seg.start;
            while t < seg.end {
                let idx = ((t.as_secs() / step.as_secs()) as usize).min(energy_j.len() - 1);
                let bucket_end = SimTime::from_secs((idx as f64 + 1.0) * step.as_secs());
                let until = bucket_end.min(seg.end);
                if until <= t {
                    // Segment extends past the horizon (clamped bucket):
                    // attribute the tail to the last bucket and stop.
                    energy_j[idx] += seg.power.watts() * (seg.end - t).as_secs();
                    break;
                }
                energy_j[idx] += seg.power.watts() * (until - t).as_secs();
                t = until;
            }
        }
    }
    let values = energy_j.into_iter().map(|e| e / step.as_secs()).collect();
    sustain_sim_core::series::TimeSeries::new(SimTime::ZERO, step, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sustain_sim_core::series::TimeSeries;

    fn seg(start_h: f64, end_h: f64, nodes: u32, kw: f64) -> Segment {
        Segment {
            start: SimTime::from_hours(start_h),
            end: SimTime::from_hours(end_h),
            nodes,
            power: Power::from_kw(kw),
        }
    }

    fn record() -> JobRecord {
        JobRecord {
            id: JobId(1),
            user: 0,
            submit: SimTime::from_hours(0.0),
            start: SimTime::from_hours(1.0),
            end: SimTime::from_hours(4.0),
            segments: vec![seg(1.0, 2.0, 4, 2.0), seg(3.0, 4.0, 4, 2.0)],
            suspensions: 1,
            reshapes: 0,
            restarts: 0,
        }
    }

    #[test]
    fn record_derived_times() {
        let r = record();
        assert_eq!(r.wait().as_hours(), 1.0);
        assert_eq!(r.span().as_hours(), 3.0);
        assert_eq!(r.compute_time().as_hours(), 2.0);
    }

    #[test]
    fn bounded_slowdown_math() {
        let r = record();
        // wait 3600 s, runtime 7200 s → (3600+7200)/7200 = 1.5.
        assert!((r.bounded_slowdown() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn energy_and_node_seconds() {
        let r = record();
        assert!((r.energy().kwh() - 4.0).abs() < 1e-9);
        assert!((r.node_seconds() - 8.0 * 3600.0).abs() < 1e-6);
    }

    #[test]
    fn carbon_uses_segment_windows() {
        let r = record();
        // CI: 100 g for hours 0-2, 300 g for hours 2+.
        let trace = CarbonTrace::new(
            "t",
            TimeSeries::new(
                SimTime::ZERO,
                SimDuration::from_hours(2.0),
                vec![100.0, 300.0],
            ),
        );
        // Segment 1 (1-2h): 2 kWh × 100 g; segment 2 (3-4h): 2 kWh × 300 g.
        let c = r.carbon(&trace);
        assert!((c.grams() - 800.0).abs() < 1e-6);
    }

    #[test]
    fn outcome_aggregates() {
        let out = SimOutcome::from_records(
            vec![record()],
            2,
            8,
            None,
            Energy::from_kwh(1.0),
            Carbon::from_grams(50.0),
            0.0,
        );
        assert_eq!(out.unfinished, 2);
        assert_eq!(out.makespan, SimTime::from_hours(4.0));
        // 8 node-hours of work over 8 nodes × 4 h = 25 %.
        assert!((out.utilization - 0.25).abs() < 1e-9);
        assert_eq!(out.carbon.grams(), 50.0);
        assert_eq!(out.wait.count, 1);
    }

    #[test]
    fn power_profile_reconstructs_segments() {
        let recs = vec![record()];
        // record(): 2 kW over 1-2h and 3-4h on 4 nodes.
        let profile = power_profile(
            &recs,
            SimDuration::from_hours(1.0),
            SimTime::from_hours(5.0),
        );
        assert_eq!(profile.len(), 5);
        let v = profile.values();
        assert!((v[0] - 0.0).abs() < 1e-9);
        assert!((v[1] - 2000.0).abs() < 1e-9);
        assert!((v[2] - 0.0).abs() < 1e-9);
        assert!((v[3] - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn power_profile_splits_partial_buckets() {
        let rec = JobRecord {
            segments: vec![seg(0.5, 1.5, 2, 1.0)],
            ..record()
        };
        let profile = power_profile(
            &[rec],
            SimDuration::from_hours(1.0),
            SimTime::from_hours(2.0),
        );
        let v = profile.values();
        // Half the energy in each of the two buckets.
        assert!((v[0] - 500.0).abs() < 1e-9);
        assert!((v[1] - 500.0).abs() < 1e-9);
    }

    #[test]
    fn power_profile_tolerates_short_horizon() {
        // Horizon shorter than the records: the tail lands in the last
        // bucket instead of panicking.
        let rec = JobRecord {
            segments: vec![seg(0.0, 4.0, 2, 1.0)],
            ..record()
        };
        let profile = power_profile(
            &[rec],
            SimDuration::from_hours(1.0),
            SimTime::from_hours(2.0),
        );
        assert_eq!(profile.len(), 2);
        // 4 kWh total: 1 kWh in bucket 0, 3 kWh in the clamped last bucket.
        assert!((profile.values()[0] - 1000.0).abs() < 1e-9);
        assert!((profile.values()[1] - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn hot_path_stats_tolerate_missing_counters() {
        // A counter block serialized before the `spec_*` counters
        // existed must still load, with absent fields at 0.
        let old = r#"{
            "events": 10, "schedule_passes": 3, "schedule_skips": 1,
            "resorts_taken": 2, "resorts_skipped": 4,
            "trace_bucket_hits": 5, "trace_bucket_misses": 6,
            "scratch_grows": 7
        }"#;
        let v = serde_json::from_str(old).unwrap();
        let s = HotPathStats::from_value(&v).unwrap();
        assert_eq!(s.events, 10);
        assert_eq!(s.scratch_grows, 7);
        assert_eq!(s.spec_planned, 0);
        assert_eq!(s.spec_hits, 0);
        assert_eq!(s.spec_invalidations, 0);
        assert_eq!(s.fs_repositions, 0);
        assert_eq!(s.fs_renorms, 0);
        assert_eq!(s.backfill_visits, 0);
        assert_eq!(s.backfill_scanned, 0);
    }

    #[test]
    fn hot_path_stats_tolerate_pre_fair_share_counters() {
        // A block that has spec_* but predates the fs_* counters still
        // loads, fs_* defaulting to 0.
        let old = r#"{
            "events": 10, "schedule_passes": 3, "schedule_skips": 1,
            "resorts_taken": 2, "resorts_skipped": 4,
            "trace_bucket_hits": 5, "trace_bucket_misses": 6,
            "scratch_grows": 7, "spec_planned": 8, "spec_hits": 6,
            "spec_invalidations": 2
        }"#;
        let v = serde_json::from_str(old).unwrap();
        let s = HotPathStats::from_value(&v).unwrap();
        assert_eq!(s.spec_planned, 8);
        assert_eq!(s.fs_repositions, 0);
        assert_eq!(s.fs_renorms, 0);
    }

    #[test]
    fn fs_counters_serialize_last() {
        // Append-only contract: new counters go at the end of the
        // struct so the serialized field order keeps old prefixes
        // stable for any order-sensitive consumer.
        let json = serde_json::to_string(&HotPathStats::default()).unwrap();
        let pos = |name: &str| json.find(name).unwrap();
        assert!(pos("spec_invalidations") < pos("fs_repositions"));
        assert!(pos("fs_repositions") < pos("fs_renorms"));
        assert_eq!(pos("fs_renorms"), json.rfind("fs_").unwrap());
        assert!(pos("fs_renorms") < pos("backfill_visits"));
        assert!(pos("backfill_visits") < pos("backfill_scanned"));
    }

    #[test]
    fn hot_path_stats_roundtrip() {
        let s = HotPathStats {
            events: 1,
            spec_planned: 8,
            spec_hits: 6,
            spec_invalidations: 2,
            fs_repositions: 9,
            fs_renorms: 1,
            backfill_visits: 4,
            backfill_scanned: 12,
            ..Default::default()
        };
        let v = s.to_value();
        assert_eq!(HotPathStats::from_value(&v).unwrap(), s);
    }

    #[test]
    fn empty_outcome_is_safe() {
        let out = SimOutcome::from_records(vec![], 0, 8, None, Energy::ZERO, Carbon::ZERO, 0.0);
        assert_eq!(out.makespan, SimTime::ZERO);
        assert_eq!(out.utilization, 0.0);
        assert_eq!(out.effective_job_ci, 0.0);
    }
}
