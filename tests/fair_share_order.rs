//! Fair-share pending-order proptests.
//!
//! The production path keeps the pending queue sorted under the
//! normalized usage key and repositions only dirty users' jobs. Its
//! correctness check lives in the simulator as a debug-build invariant:
//! after every fix-up outside the legacy-key regime, the queue must be
//! strictly increasing under the unique pending key — exactly the order
//! a full rebuild-and-sort would produce. Test builds keep debug
//! assertions, so random workloads driving arbitrary interleavings of
//! usage recordings, decay, inserts and removals through the simulator
//! check that order at every scheduling pass. The normal-regime run must
//! also get through without a single full resort.
//!
//! A second property forces pathological half-lives (minutes against a
//! multi-day horizon) so the epoch renormalization — and, past ~1000
//! half-lives of drift, the sticky legacy-key regime — actually fire
//! inside the run, not just in the long-horizon goldens.

use proptest::prelude::*;
use sustain_hpc::prelude::*;
use sustain_hpc::scheduler::queue::QueueSet;
use sustain_hpc::scheduler::sim::FairShareCfg;
use sustain_hpc::workload::synth::generate;

fn build(
    seed: u64,
    users: u32,
    arrivals: f64,
    max_nodes: u32,
    half_life_secs: f64,
    conservative: bool,
    queues: bool,
) -> (Vec<Job>, SimConfig) {
    let wl = WorkloadConfig {
        arrivals_per_hour: arrivals,
        max_nodes,
        users,
        checkpointable_fraction: 0.3,
        ..WorkloadConfig::default()
    };
    let jobs = generate(&wl, SimDuration::from_days(3.0), seed);
    let mut cfg = SimConfig::easy(Cluster::new(max_nodes * 2));
    if conservative {
        cfg.policy = Policy::ConservativeBackfill;
    }
    if queues {
        cfg.queues = Some(QueueSet::typical(max_nodes * 2));
    }
    cfg.fair_share = Some(FairShareCfg {
        half_life: SimDuration::from_secs(half_life_secs),
    });
    (jobs, cfg)
}

proptest! {
    /// Normal regime: day-scale half-lives over a 3-day horizon stay far
    /// from both the renormalization threshold and the subnormal legacy
    /// switch, so the incremental path must handle the entire run
    /// without one full resort, keeping the key order (checked inside
    /// the simulator) at every pass.
    #[test]
    fn incremental_ordering_matches_full_resort_oracle(
        seed in any::<u64>(),
        users in 2u32..40,
        arrivals in 4.0f64..10.0,
        max_nodes in 8u32..32,
        half_life_days in 0.5f64..10.0,
        conservative in any::<bool>(),
        queues in any::<bool>(),
    ) {
        let (jobs, cfg) = build(
            seed,
            users,
            arrivals,
            max_nodes,
            half_life_days * 86_400.0,
            conservative,
            queues,
        );
        let out = simulate(&jobs, &cfg);
        prop_assert_eq!(out.hot_path.resorts_taken, 0);
        prop_assert_eq!(out.hot_path.fs_renorms, 0);
    }

    /// Pathological half-lives: minutes against a 3-day horizon push the
    /// normalization exponent through many renormalizations and — past
    /// ~1000 half-lives of inactivity for some user — into the sticky
    /// legacy-key regime. The key order must survive both transitions.
    #[test]
    fn renorm_and_legacy_regimes_match_oracle(
        seed in any::<u64>(),
        users in 2u32..12,
        half_life_secs in 60.0f64..900.0,
        conservative in any::<bool>(),
    ) {
        let (jobs, cfg) = build(seed, users, 5.0, 16, half_life_secs, conservative, false);
        let out = simulate(&jobs, &cfg);
        // 3 days / ≤15-minute half-life ≥ 288 half-lives of drift per
        // day: the 512-half-life renormalization epoch must roll over.
        prop_assert!(out.hot_path.fs_renorms > 0);
    }
}
