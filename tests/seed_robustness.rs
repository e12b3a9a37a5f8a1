//! Cross-seed robustness of the headline experiment orderings: the
//! qualitative results (who wins) must not depend on the default seed.
//! Backs the fidelity claim in `EXPERIMENTS.md`.

use sustain_hpc::core::experiments::operations::{
    carbon_aware_power_scaling, carbon_aware_scheduling, malleability_under_power,
};
use sustain_hpc::grid::region::Region;

const SEEDS: [u64; 3] = [101, 202, 303];

/// E8: every carbon-aware scaling policy beats the capacity-matched
/// static baseline on effective CI, for every seed.
#[test]
fn e8_ordering_holds_across_seeds() {
    for seed in SEEDS {
        let rows = carbon_aware_power_scaling(Region::Finland, 10, seed).unwrap();
        let static_ci = rows[0].effective_job_ci;
        for row in &rows[1..] {
            assert!(
                row.effective_job_ci < static_ci,
                "seed {seed}, {}: {} !< static {}",
                row.label,
                row.effective_job_ci,
                static_ci
            );
        }
        // Savings stay in a sane band (<10 % at matched capacity).
        let best = rows[1..]
            .iter()
            .map(|r| 1.0 - r.effective_job_ci / static_ci)
            .fold(0.0f64, f64::max);
        assert!(best < 0.10, "seed {seed}: implausible saving {best}");
    }
}

/// E9: malleability reduces budget-violation time for every seed.
#[test]
fn e9_ordering_holds_across_seeds() {
    for seed in SEEDS {
        let rows = malleability_under_power(Region::GreatBritain, 10, seed).unwrap();
        assert!(
            rows[1].violation_s < rows[0].violation_s,
            "seed {seed}: malleable {} !< rigid {}",
            rows[1].violation_s,
            rows[0].violation_s
        );
        assert_eq!(rows[0].completed, rows[1].completed, "seed {seed}");
    }
}

/// E10: the carbon gate lowers effective CI vs EASY for every seed, and
/// the workload always completes.
#[test]
fn e10_ordering_holds_across_seeds() {
    for seed in SEEDS {
        let rows = carbon_aware_scheduling(Region::Finland, 10, seed).unwrap();
        let (easy, gate) = (&rows[0], &rows[1]);
        assert!(
            gate.effective_job_ci < easy.effective_job_ci,
            "seed {seed}: gate {} !< easy {}",
            gate.effective_job_ci,
            easy.effective_job_ci
        );
        assert!(gate.green_energy_fraction > easy.green_energy_fraction);
        assert_eq!(easy.completed, gate.completed);
    }
}
