//! Multi-queue RJMS configuration (§3.4).
//!
//! The paper: HPC centers configure *"multiple queues ... characterized by
//! varying job scheduling priorities, constraints on the number of
//! permissible nodes per job, and maximum job run times"*. Queues here
//! validate job admission and contribute a priority used by the
//! scheduler's pending-order and by the incentive accounting in the
//! telemetry crate.

use serde::{Deserialize, Serialize};
use sustain_sim_core::error::{ConfigError, Validate};
use sustain_sim_core::time::SimDuration;
use sustain_workload::job::Job;

/// One queue (partition) definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueueConfig {
    /// Queue name.
    pub name: String,
    /// Scheduling priority (higher = scheduled first).
    pub priority: u32,
    /// Node range a job must request to be admitted.
    pub min_nodes: u32,
    /// Largest admissible node request.
    pub max_nodes: u32,
    /// Longest admissible walltime estimate.
    pub max_walltime: SimDuration,
}

impl QueueConfig {
    /// `true` if the queue admits the job.
    pub fn admits(&self, job: &Job) -> bool {
        job.requested_nodes >= self.min_nodes
            && job.requested_nodes <= self.max_nodes
            && job.walltime_estimate <= self.max_walltime
    }
}

impl Validate for QueueConfig {
    fn validate(&self) -> Result<(), ConfigError> {
        if self.max_nodes == 0 {
            return Err(ConfigError::new(
                "QueueConfig",
                "max_nodes",
                format!("queue '{}' admits no node count (max_nodes = 0)", self.name),
            ));
        }
        if self.min_nodes > self.max_nodes {
            return Err(ConfigError::new(
                "QueueConfig",
                "min_nodes..max_nodes",
                format!(
                    "queue '{}' requires min_nodes ({}) <= max_nodes ({})",
                    self.name, self.min_nodes, self.max_nodes
                ),
            ));
        }
        if self.max_walltime.is_zero() {
            return Err(ConfigError::new(
                "QueueConfig",
                "max_walltime",
                format!(
                    "queue '{}' admits no walltime (max_walltime = 0)",
                    self.name
                ),
            ));
        }
        Ok(())
    }
}

/// An ordered set of queues.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueueSet {
    /// Queues, any order.
    pub queues: Vec<QueueConfig>,
}

impl QueueSet {
    /// A typical three-queue layout: test / general / large.
    pub fn typical(system_nodes: u32) -> QueueSet {
        QueueSet {
            queues: vec![
                QueueConfig {
                    name: "test".into(),
                    priority: 10,
                    min_nodes: 1,
                    max_nodes: 8.min(system_nodes),
                    max_walltime: SimDuration::from_mins(30.0),
                },
                QueueConfig {
                    name: "general".into(),
                    priority: 5,
                    min_nodes: 1,
                    max_nodes: system_nodes / 4,
                    max_walltime: SimDuration::from_hours(48.0),
                },
                QueueConfig {
                    name: "large".into(),
                    priority: 3,
                    min_nodes: system_nodes / 4 + 1,
                    max_nodes: system_nodes,
                    max_walltime: SimDuration::from_hours(24.0),
                },
            ],
        }
    }

    /// The highest-priority queue that admits the job, if any.
    pub fn classify(&self, job: &Job) -> Option<&QueueConfig> {
        self.queues
            .iter()
            .filter(|q| q.admits(job))
            .max_by_key(|q| q.priority)
    }
}

impl Validate for QueueSet {
    fn validate(&self) -> Result<(), ConfigError> {
        if self.queues.is_empty() {
            return Err(ConfigError::new(
                "QueueSet",
                "queues",
                "at least one queue is required (use None for a single FIFO)",
            ));
        }
        for q in &self.queues {
            q.validate().map_err(|e| e.nested("QueueSet"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sustain_sim_core::time::SimTime;
    use sustain_workload::job::JobBuilder;

    fn job(nodes: u32, walltime_h: f64) -> Job {
        JobBuilder::new(
            1,
            SimTime::ZERO,
            nodes,
            SimDuration::from_hours(walltime_h / 2.0),
        )
        .walltime(SimDuration::from_hours(walltime_h))
        .build()
    }

    #[test]
    fn admission_rules() {
        let qs = QueueSet::typical(1024);
        let q = &qs.queues[1]; // general: 1..=256 nodes, ≤48 h
        assert!(q.admits(&job(128, 10.0)));
        assert!(!q.admits(&job(512, 10.0)));
        assert!(!q.admits(&job(128, 72.0)));
    }

    #[test]
    fn classification_prefers_high_priority() {
        let qs = QueueSet::typical(1024);
        // A tiny short job is admitted by both test and general; test wins.
        let j = job(4, 0.4);
        assert_eq!(qs.classify(&j).unwrap().name, "test");
        // A big job lands in "large".
        let j = job(512, 10.0);
        assert_eq!(qs.classify(&j).unwrap().name, "large");
    }

    #[test]
    fn unadmittable_job_classifies_none() {
        let qs = QueueSet::typical(64);
        // 64-node system: large queue tops out at 64 nodes.
        let j = job(65, 1.0);
        assert!(qs.classify(&j).is_none());
        // Over-walltime everywhere.
        let j = job(4, 100.0);
        assert!(qs.classify(&j).is_none());
    }
}
