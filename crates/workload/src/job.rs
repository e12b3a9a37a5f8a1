//! Job model: the unit of work an RJMS schedules.
//!
//! Jobs carry the attributes every §3 policy needs: resource class
//! (rigid / moldable / malleable, §3.2), true vs requested parallelism
//! (the §3.4 over-allocation study), per-node power draw (PowerStack
//! coupling, §3.1), and checkpointability (§3.3).

use crate::speedup::SpeedupModel;
use serde::{Deserialize, Serialize};
use sustain_sim_core::time::{SimDuration, SimTime};
use sustain_sim_core::units::Power;

/// Unique job identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// Resource-allocation flexibility class (§3.2 terminology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobClass {
    /// Fixed node count, decided at submission.
    Rigid,
    /// Node count chosen by the scheduler at start, fixed afterwards.
    Moldable {
        /// Smallest usable allocation.
        min_nodes: u32,
        /// Largest usable allocation.
        max_nodes: u32,
    },
    /// Node count adjustable at runtime.
    Malleable {
        /// Smallest usable allocation.
        min_nodes: u32,
        /// Largest usable allocation.
        max_nodes: u32,
    },
}

impl JobClass {
    /// `true` for malleable jobs.
    pub fn is_malleable(&self) -> bool {
        matches!(self, JobClass::Malleable { .. })
    }

    /// The `(min, max)` allocation bounds given the requested node count.
    pub fn bounds(&self, requested: u32) -> (u32, u32) {
        match *self {
            JobClass::Rigid => (requested, requested),
            JobClass::Moldable {
                min_nodes,
                max_nodes,
            }
            | JobClass::Malleable {
                min_nodes,
                max_nodes,
            } => (min_nodes, max_nodes),
        }
    }
}

/// A batch job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// Unique id.
    pub id: JobId,
    /// Owning user (for the §3.4 accounting experiments).
    pub user: u32,
    /// Submission time.
    pub submit: SimTime,
    /// Nodes the user requested.
    pub requested_nodes: u32,
    /// Nodes the job can actually exploit (≤ requested when the user
    /// over-allocates; the §3.4 study quantifies this gap).
    pub efficient_nodes: u32,
    /// Resource class.
    pub class: JobClass,
    /// Total work in node-seconds at one node (runtime × speedup
    /// normalization): `runtime_at(n) = work / speedup(n)`.
    pub work: f64,
    /// User-supplied walltime estimate (overestimated in practice; EASY
    /// backfilling relies on it).
    pub walltime_estimate: SimDuration,
    /// Speedup model.
    pub speedup: SpeedupModel,
    /// Average power drawn per allocated node while running.
    pub power_per_node: Power,
    /// Whether the job can be checkpointed and restarted (§3.3).
    pub checkpointable: bool,
}

impl Job {
    /// Actual runtime on `nodes` nodes (ignoring checkpoint overheads).
    ///
    /// Over-allocated nodes beyond [`Job::efficient_nodes`] contribute no
    /// speedup — they idle (and still burn power), which is precisely the
    /// waste §3.4 describes.
    pub(crate) fn runtime_at(&self, nodes: u32) -> SimDuration {
        assert!(nodes > 0, "runtime on zero nodes");
        let useful = nodes.min(self.efficient_nodes).max(1);
        SimDuration::from_secs(self.work / self.speedup.speedup(useful))
    }

    /// Runtime at the requested allocation.
    pub fn runtime_requested(&self) -> SimDuration {
        self.runtime_at(self.requested_nodes)
    }

    /// Total power drawn at an allocation.
    pub fn power_at(&self, nodes: u32) -> Power {
        self.power_per_node * nodes as f64
    }

    /// Over-allocation factor: requested / efficient (1.0 = right-sized).
    #[cfg(test)]
    pub(crate) fn overallocation_factor(&self) -> f64 {
        self.requested_nodes as f64 / self.efficient_nodes.max(1) as f64
    }

    /// `(min, max)` allocation bounds for this job.
    pub fn bounds(&self) -> (u32, u32) {
        self.class.bounds(self.requested_nodes)
    }
}

/// Builder for [`Job`] with sensible defaults, used by tests and examples.
#[derive(Debug, Clone)]
pub struct JobBuilder {
    job: Job,
}

impl JobBuilder {
    /// Starts a rigid job with the given id, submit time, nodes and
    /// runtime-at-requested-allocation.
    pub fn new(id: u64, submit: SimTime, nodes: u32, runtime: SimDuration) -> JobBuilder {
        assert!(nodes > 0, "job needs at least one node");
        let speedup = SpeedupModel::Linear;
        JobBuilder {
            job: Job {
                id: JobId(id),
                user: 0,
                submit,
                requested_nodes: nodes,
                efficient_nodes: nodes,
                class: JobClass::Rigid,
                work: runtime.as_secs() * speedup.speedup(nodes),
                walltime_estimate: runtime * 1.5,
                speedup,
                power_per_node: Power::from_watts(500.0),
                checkpointable: false,
            },
        }
    }

    /// Sets the owning user.
    pub fn user(mut self, user: u32) -> Self {
        self.job.user = user;
        self
    }

    /// Sets the resource class (also re-derives `work` so the runtime at
    /// the requested allocation is preserved).
    pub fn class(mut self, class: JobClass) -> Self {
        self.job.class = class;
        self
    }

    /// Sets the speedup model, preserving runtime at the requested
    /// allocation.
    pub fn speedup(mut self, model: SpeedupModel) -> Self {
        let runtime = self.job.runtime_requested();
        self.job.speedup = model;
        let useful = self.job.requested_nodes.min(self.job.efficient_nodes);
        self.job.work = runtime.as_secs() * model.speedup(useful.max(1));
        self
    }

    /// Marks the job as over-allocated: it can only use `efficient` of its
    /// requested nodes.
    pub fn efficient_nodes(mut self, efficient: u32) -> Self {
        assert!(efficient > 0);
        // Preserve the runtime at the *requested* allocation: the job runs
        // as if on `efficient` nodes.
        let runtime = self.job.runtime_requested();
        self.job.efficient_nodes = efficient;
        let useful = self.job.requested_nodes.min(efficient);
        self.job.work = runtime.as_secs() * self.job.speedup.speedup(useful);
        self
    }

    /// Sets the user walltime estimate.
    pub fn walltime(mut self, estimate: SimDuration) -> Self {
        self.job.walltime_estimate = estimate;
        self
    }

    /// Sets the per-node power draw.
    pub fn power_per_node(mut self, p: Power) -> Self {
        self.job.power_per_node = p;
        self
    }

    /// Marks the job checkpointable.
    pub fn checkpointable(mut self, yes: bool) -> Self {
        self.job.checkpointable = yes;
        self
    }

    /// Finalizes the job.
    pub fn build(self) -> Job {
        let (min, max) = self.job.bounds();
        assert!(min <= max, "invalid class bounds");
        assert!(min > 0, "minimum allocation must be positive");
        self.job
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_job() -> Job {
        JobBuilder::new(1, SimTime::ZERO, 8, SimDuration::from_hours(2.0)).build()
    }

    #[test]
    fn builder_defaults_are_consistent() {
        let j = base_job();
        assert_eq!(j.id, JobId(1));
        assert_eq!(j.requested_nodes, 8);
        assert_eq!(j.efficient_nodes, 8);
        assert!((j.runtime_requested().as_hours() - 2.0).abs() < 1e-9);
        assert_eq!(j.overallocation_factor(), 1.0);
        assert_eq!(j.bounds(), (8, 8));
    }

    #[test]
    fn linear_job_runtime_scales_inversely() {
        let j = base_job();
        assert!((j.runtime_at(4).as_hours() - 4.0).abs() < 1e-9);
        assert!((j.runtime_at(16).as_hours() - 2.0).abs() < 1e-9);
        // 16 > efficient_nodes=8 → no further speedup.
    }

    #[test]
    fn overallocated_job_wastes_nodes() {
        let j = JobBuilder::new(2, SimTime::ZERO, 16, SimDuration::from_hours(1.0))
            .efficient_nodes(4)
            .build();
        // Runtime at the requested 16 nodes equals runtime at 4 nodes.
        assert_eq!(j.runtime_at(16), j.runtime_at(4));
        assert_eq!(j.overallocation_factor(), 4.0);
    }

    #[test]
    fn speedup_builder_preserves_requested_runtime() {
        let j = JobBuilder::new(3, SimTime::ZERO, 32, SimDuration::from_hours(3.0))
            .speedup(SpeedupModel::Amdahl {
                serial_fraction: 0.05,
            })
            .build();
        assert!((j.runtime_requested().as_hours() - 3.0).abs() < 1e-9);
        // Fewer nodes → longer, but sub-linearly under Amdahl.
        let r16 = j.runtime_at(16).as_hours();
        assert!(r16 > 3.0 && r16 < 6.0, "r16 = {r16}");
    }

    #[test]
    fn malleable_bounds() {
        let j = JobBuilder::new(4, SimTime::ZERO, 16, SimDuration::from_hours(1.0))
            .class(JobClass::Malleable {
                min_nodes: 4,
                max_nodes: 32,
            })
            .build();
        assert!(j.class.is_malleable());
        assert_eq!(j.bounds(), (4, 32));
    }

    #[test]
    fn power_accounting() {
        let j = JobBuilder::new(5, SimTime::ZERO, 10, SimDuration::from_hours(1.0))
            .power_per_node(Power::from_watts(400.0))
            .build();
        assert_eq!(j.power_at(10).kw(), 4.0);
        assert_eq!(j.power_at(3).kw(), 1.2);
    }

    #[test]
    fn display_and_ordering_of_ids() {
        assert_eq!(format!("{}", JobId(7)), "job#7");
        assert!(JobId(1) < JobId(2));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_job_rejected() {
        JobBuilder::new(1, SimTime::ZERO, 0, SimDuration::from_hours(1.0));
    }
}
