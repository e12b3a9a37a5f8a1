//! Parallel speedup models.
//!
//! Schedulers need to know how a job's runtime responds to its node
//! allocation — especially for the moldable and malleable jobs of §3.2.
//! All models are normalized to `speedup(1) == 1`.

use serde::{Deserialize, Serialize};

/// How a job's performance scales with its node count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SpeedupModel {
    /// Perfect linear scaling.
    Linear,
    /// Amdahl's law with the given serial fraction.
    Amdahl {
        /// Fraction of the work that cannot be parallelized, in `[0,1]`.
        serial_fraction: f64,
    },
    /// Power-law scaling: `speedup(n) = n^alpha`, `alpha ∈ (0,1]`. A common
    /// empirical fit for communication-bound HPC codes.
    PowerLaw {
        /// Scaling exponent.
        alpha: f64,
    },
    /// Communication-overhead model: `speedup(n) = n / (1 + c·(n-1))`,
    /// saturating at `1/c` for large `n`.
    Communication {
        /// Per-node communication overhead coefficient, `c ≥ 0`.
        overhead: f64,
    },
}

impl SpeedupModel {
    /// Speedup at `nodes` relative to one node.
    ///
    /// # Panics
    /// Panics if `nodes == 0`.
    pub fn speedup(&self, nodes: u32) -> f64 {
        assert!(nodes > 0, "speedup of zero nodes");
        let n = nodes as f64;
        match *self {
            SpeedupModel::Linear => n,
            SpeedupModel::Amdahl { serial_fraction } => {
                debug_assert!((0.0..=1.0).contains(&serial_fraction));
                1.0 / (serial_fraction + (1.0 - serial_fraction) / n)
            }
            SpeedupModel::PowerLaw { alpha } => {
                debug_assert!(alpha > 0.0 && alpha <= 1.0);
                n.powf(alpha)
            }
            SpeedupModel::Communication { overhead } => {
                debug_assert!(overhead >= 0.0);
                n / (1.0 + overhead * (n - 1.0))
            }
        }
    }

    /// Parallel efficiency at `nodes`: `speedup(n)/n`.
    pub fn efficiency(&self, nodes: u32) -> f64 {
        self.speedup(nodes) / nodes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_normalized_at_one_node() {
        let models = [
            SpeedupModel::Linear,
            SpeedupModel::Amdahl {
                serial_fraction: 0.05,
            },
            SpeedupModel::PowerLaw { alpha: 0.8 },
            SpeedupModel::Communication { overhead: 0.01 },
        ];
        for m in models {
            assert!((m.speedup(1) - 1.0).abs() < 1e-12, "{m:?}");
            assert!((m.efficiency(1) - 1.0).abs() < 1e-12, "{m:?}");
        }
    }

    #[test]
    fn linear_is_ideal() {
        assert_eq!(SpeedupModel::Linear.speedup(64), 64.0);
        assert_eq!(SpeedupModel::Linear.efficiency(64), 1.0);
    }

    #[test]
    fn amdahl_saturates_at_inverse_serial_fraction() {
        let m = SpeedupModel::Amdahl {
            serial_fraction: 0.1,
        };
        assert!(m.speedup(10_000) < 10.0);
        assert!(m.speedup(10_000) > 9.9);
        // Known value: s=0.1, n=10 → 1/(0.1+0.09) ≈ 5.263.
        assert!((m.speedup(10) - 5.263).abs() < 0.001);
    }

    #[test]
    fn power_law_known_values() {
        let m = SpeedupModel::PowerLaw { alpha: 0.5 };
        assert!((m.speedup(16) - 4.0).abs() < 1e-12);
        assert!((m.efficiency(16) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn communication_model_saturates() {
        let m = SpeedupModel::Communication { overhead: 0.05 };
        // Limit is 1/c = 20.
        assert!(m.speedup(100_000) < 20.0);
        assert!(m.speedup(100_000) > 19.5);
    }

    #[test]
    fn speedup_monotone_nondecreasing() {
        let models = [
            SpeedupModel::Amdahl {
                serial_fraction: 0.02,
            },
            SpeedupModel::PowerLaw { alpha: 0.7 },
            SpeedupModel::Communication { overhead: 0.002 },
        ];
        for m in models {
            let mut last = 0.0;
            for n in 1..256 {
                let s = m.speedup(n);
                assert!(s >= last, "{m:?} at {n}");
                last = s;
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero nodes")]
    fn zero_nodes_rejected() {
        SpeedupModel::Linear.speedup(0);
    }
}
