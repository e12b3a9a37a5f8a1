//! Malleable-job reconfiguration decisions (§3.2).
//!
//! The paper: *"the system manager and job manager in the PowerStack
//! combined with a malleability supporting software stack should
//! collaboratively and dynamically orchestrate (1) job power budget,
//! (2) node allocation, and (3) power budget distributions ... during
//! runtime."* In the MPI-Sessions/PMIx-style protocols the paper cites
//! (\[27\], \[34\]), the *system* offers resources and the *job* accepts or
//! declines based on whether reconfiguring pays off.
//!
//! This module contains the decision logic: a grow offer is worth taking
//! only if the speedup on the remaining work amortizes the
//! reconfiguration cost. The simulator consults [`evaluate_grow`] at
//! every tick.

use serde::{Deserialize, Serialize};
use sustain_sim_core::time::SimDuration;
use sustain_workload::speedup::SpeedupModel;

/// Outcome of evaluating a reconfiguration offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OfferDecision {
    /// The job accepts the new allocation.
    Accept,
    /// The job declines: reconfiguring does not pay off.
    Decline,
}

/// Evaluates a *grow* offer: accept iff the remaining work finishes
/// earlier after paying the reconfiguration cost.
///
/// `remaining_work` is in the job's work units (`runtime = work /
/// speedup(alloc)`); `useful_cap` bounds exploitable parallelism
/// (requested/efficient nodes).
pub fn evaluate_grow(
    speedup: SpeedupModel,
    current: u32,
    proposed: u32,
    useful_cap: u32,
    remaining_work: f64,
    reconfig_cost: SimDuration,
) -> OfferDecision {
    assert!(proposed > current, "not a grow offer");
    let cur_useful = current.min(useful_cap).max(1);
    let new_useful = proposed.min(useful_cap).max(1);
    let t_now = remaining_work / speedup.speedup(cur_useful);
    let t_after = reconfig_cost.as_secs() + remaining_work / speedup.speedup(new_useful);
    if t_after < t_now {
        OfferDecision::Accept
    } else {
        OfferDecision::Decline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grow_accepted_when_work_remains() {
        // 10 000 work units on 4 nodes (linear): 2500 s left. Growing to 8
        // costs 60 s, finishes in 1250 s → accept.
        let d = evaluate_grow(
            SpeedupModel::Linear,
            4,
            8,
            64,
            10_000.0,
            SimDuration::from_secs(60.0),
        );
        assert_eq!(d, OfferDecision::Accept);
    }

    #[test]
    fn grow_declined_near_completion() {
        // Only 100 work units left: 25 s on 4 nodes; reconfig costs 60 s.
        let d = evaluate_grow(
            SpeedupModel::Linear,
            4,
            8,
            64,
            100.0,
            SimDuration::from_secs(60.0),
        );
        assert_eq!(d, OfferDecision::Decline);
    }

    #[test]
    fn grow_declined_beyond_useful_parallelism() {
        // Job can only exploit 4 nodes; growing 4 → 8 buys nothing.
        let d = evaluate_grow(
            SpeedupModel::Linear,
            4,
            8,
            4,
            1e6,
            SimDuration::from_secs(1.0),
        );
        assert_eq!(d, OfferDecision::Decline);
    }

    #[test]
    fn amdahl_saturated_job_declines() {
        // Heavy serial fraction: speedup(32)≈speedup(64); not worth 300 s.
        let m = SpeedupModel::Amdahl {
            serial_fraction: 0.25,
        };
        // speedup(32)=3.66, speedup(64)=3.82: doubling nodes saves only
        // ~117 s on 10 000 work units — not worth a 300 s reconfiguration.
        let d = evaluate_grow(m, 32, 64, 64, 10_000.0, SimDuration::from_secs(300.0));
        assert_eq!(d, OfferDecision::Decline);
    }
}
