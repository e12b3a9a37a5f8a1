//! Application phase model and a Countdown-like DVFS runtime (§3.4).
//!
//! The paper: *"users can proactively reduce the carbon footprint of their
//! applications by utilizing application libraries such as Cesarini et
//! al. \[24\]"* — COUNTDOWN, a runtime that drops CPU frequency during MPI
//! communication/wait phases for "performance-neutral energy saving".
//!
//! The model: an application is a sequence of compute and communication
//! phases. Compute phases scale with frequency; communication phases are
//! network-bound and frequency-insensitive. The governor reacts after a
//! trigger delay (it cannot clairvoyantly switch at phase boundaries), so
//! very short phases yield less saving — the central design trade-off of
//! such runtimes.

use serde::{Deserialize, Serialize};
use sustain_sim_core::rng::RngStream;
use sustain_sim_core::time::SimDuration;
use sustain_sim_core::units::{Energy, Power};

/// One application phase (durations at the nominal frequency).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Phase {
    /// Frequency-sensitive computation.
    Compute {
        /// Duration at nominal frequency, seconds.
        seconds: f64,
    },
    /// Frequency-insensitive communication / MPI wait.
    Communication {
        /// Duration, seconds.
        seconds: f64,
    },
}

impl Phase {
    /// Phase duration at nominal frequency, seconds.
    pub fn seconds(&self) -> f64 {
        match *self {
            Phase::Compute { seconds } | Phase::Communication { seconds } => seconds,
        }
    }

    /// `true` for communication phases.
    #[cfg(test)]
    pub(crate) fn is_communication(&self) -> bool {
        matches!(self, Phase::Communication { .. })
    }
}

/// CPU frequency/power model for the runtime: `P(f) = static +
/// dyn·(f/f_nom)³`, performance of compute phases ∝ f.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuFreqModel {
    /// Nominal frequency, GHz.
    pub nominal_ghz: f64,
    /// Lowest DVFS state, GHz.
    pub min_ghz: f64,
    /// Static (frequency-independent) power, W.
    pub static_w: f64,
    /// Dynamic power at nominal frequency, W.
    pub dynamic_w: f64,
}

impl Default for CpuFreqModel {
    fn default() -> Self {
        CpuFreqModel {
            nominal_ghz: 2.6,
            min_ghz: 1.2,
            static_w: 70.0,
            dynamic_w: 170.0,
        }
    }
}

impl CpuFreqModel {
    /// Power at a frequency.
    pub fn power_at(&self, ghz: f64) -> Power {
        let f = ghz.clamp(self.min_ghz, self.nominal_ghz);
        let ratio = f / self.nominal_ghz;
        Power::from_watts(self.static_w + self.dynamic_w * ratio.powi(3))
    }
}

/// A Countdown-like governor: drops to the minimum frequency inside
/// communication phases after a trigger delay, and restores nominal
/// frequency for compute.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CountdownGovernor {
    /// Delay before the down-switch takes effect inside a communication
    /// phase (the "countdown" timer that avoids thrashing on short waits).
    pub trigger_delay: SimDuration,
    /// Whether the governor is active (false = baseline run).
    pub enabled: bool,
}

impl Default for CountdownGovernor {
    fn default() -> Self {
        CountdownGovernor {
            trigger_delay: SimDuration::from_secs(0.5),
            enabled: true,
        }
    }
}

/// Outcome of executing an application phase list under a governor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AppRunOutcome {
    /// Total wall time.
    pub wall_time: SimDuration,
    /// Total CPU energy.
    pub energy: Energy,
    /// Fraction of wall time spent at reduced frequency.
    pub throttled_fraction: f64,
}

/// Executes the phases under the frequency model and governor.
///
/// Compute always runs at nominal frequency (the governor is
/// performance-neutral by design); communication runs at minimum
/// frequency once the trigger delay elapses within the phase.
pub fn run_phases(
    phases: &[Phase],
    cpu: &CpuFreqModel,
    governor: &CountdownGovernor,
) -> AppRunOutcome {
    let p_nom = cpu.power_at(cpu.nominal_ghz);
    let p_min = cpu.power_at(cpu.min_ghz);
    let mut wall = 0.0;
    let mut energy_j = 0.0;
    let mut throttled = 0.0;
    for phase in phases {
        let dur = phase.seconds();
        match phase {
            Phase::Compute { .. } => {
                wall += dur;
                energy_j += p_nom.watts() * dur;
            }
            Phase::Communication { .. } => {
                wall += dur;
                if governor.enabled {
                    let delay = governor.trigger_delay.as_secs().min(dur);
                    let low = dur - delay;
                    energy_j += p_nom.watts() * delay + p_min.watts() * low;
                    throttled += low;
                } else {
                    energy_j += p_nom.watts() * dur;
                }
            }
        }
    }
    AppRunOutcome {
        wall_time: SimDuration::from_secs(wall),
        energy: Energy::from_joules(energy_j),
        throttled_fraction: if wall > 0.0 { throttled / wall } else { 0.0 },
    }
}

/// Generates a synthetic phase list for an iterative MPI application:
/// `iterations` × (compute phase, communication phase) with lognormal
/// jitter, hitting a target communication fraction.
pub fn synth_phases(
    iterations: usize,
    mean_iteration_s: f64,
    communication_fraction: f64,
    seed: u64,
) -> Vec<Phase> {
    assert!((0.0..1.0).contains(&communication_fraction));
    assert!(iterations > 0 && mean_iteration_s > 0.0);
    let mut rng = RngStream::new(seed).derive("phases");
    let mut phases = Vec::with_capacity(iterations * 2);
    for _ in 0..iterations {
        let jitter = rng.lognormal(0.0, 0.25);
        let total = mean_iteration_s * jitter;
        let comm = total * communication_fraction;
        phases.push(Phase::Compute {
            seconds: total - comm,
        });
        phases.push(Phase::Communication { seconds: comm });
    }
    phases
}

/// Communication fraction of a phase list (by nominal time).
#[cfg(test)]
pub(crate) fn communication_fraction(phases: &[Phase]) -> f64 {
    let total: f64 = phases.iter().map(Phase::seconds).sum();
    if total == 0.0 {
        return 0.0;
    }
    let comm: f64 = phases
        .iter()
        .filter(|p| p.is_communication())
        .map(Phase::seconds)
        .sum();
    comm / total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> CpuFreqModel {
        CpuFreqModel::default()
    }

    #[test]
    fn power_model_endpoints() {
        let c = cpu();
        assert_eq!(c.power_at(2.6).watts(), 240.0);
        // 1.2/2.6 cubed ≈ 0.0983 → 70 + 16.7 ≈ 86.7 W.
        assert!((c.power_at(1.2).watts() - 86.7).abs() < 0.1);
        // Clamping.
        assert_eq!(c.power_at(99.0).watts(), 240.0);
    }

    #[test]
    fn governor_is_performance_neutral() {
        let phases = synth_phases(100, 10.0, 0.3, 1);
        let on = run_phases(&phases, &cpu(), &CountdownGovernor::default());
        let off = run_phases(
            &phases,
            &cpu(),
            &CountdownGovernor {
                enabled: false,
                ..CountdownGovernor::default()
            },
        );
        // Identical wall time: the governor never touches compute phases.
        assert_eq!(on.wall_time, off.wall_time);
        assert!(on.energy < off.energy);
    }

    #[test]
    fn savings_grow_with_communication_fraction() {
        let mut last_saving = -1.0;
        for comm in [0.1, 0.3, 0.5, 0.7] {
            let phases = synth_phases(200, 8.0, comm, 2);
            let on = run_phases(&phases, &cpu(), &CountdownGovernor::default());
            let off = run_phases(
                &phases,
                &cpu(),
                &CountdownGovernor {
                    enabled: false,
                    ..CountdownGovernor::default()
                },
            );
            let saving = 1.0 - on.energy.joules() / off.energy.joules();
            assert!(saving > last_saving, "comm {comm}: saving {saving}");
            last_saving = saving;
        }
        // At 70 % communication the saving is substantial.
        assert!(last_saving > 0.3, "saving {last_saving}");
    }

    #[test]
    fn compute_only_app_saves_nothing() {
        let phases = vec![Phase::Compute { seconds: 100.0 }];
        let on = run_phases(&phases, &cpu(), &CountdownGovernor::default());
        let off = run_phases(
            &phases,
            &cpu(),
            &CountdownGovernor {
                enabled: false,
                ..CountdownGovernor::default()
            },
        );
        assert_eq!(on.energy, off.energy);
        assert_eq!(on.throttled_fraction, 0.0);
    }

    #[test]
    fn short_phases_blunt_the_governor() {
        // 0.4 s communication bursts < 0.5 s trigger delay → no throttling.
        let phases: Vec<Phase> = (0..100)
            .flat_map(|_| {
                [
                    Phase::Compute { seconds: 1.0 },
                    Phase::Communication { seconds: 0.4 },
                ]
            })
            .collect();
        let on = run_phases(&phases, &cpu(), &CountdownGovernor::default());
        assert_eq!(on.throttled_fraction, 0.0);
        // Long bursts do get throttled.
        let long: Vec<Phase> = (0..100)
            .flat_map(|_| {
                [
                    Phase::Compute { seconds: 1.0 },
                    Phase::Communication { seconds: 4.0 },
                ]
            })
            .collect();
        let on_long = run_phases(&long, &cpu(), &CountdownGovernor::default());
        assert!(on_long.throttled_fraction > 0.5);
    }

    #[test]
    fn synth_phases_hit_target_fraction() {
        let phases = synth_phases(500, 10.0, 0.35, 7);
        assert_eq!(phases.len(), 1000);
        let frac = communication_fraction(&phases);
        assert!((frac - 0.35).abs() < 0.02, "fraction {frac}");
    }

    #[test]
    fn deterministic_synthesis() {
        let a = synth_phases(50, 5.0, 0.2, 9);
        let b = synth_phases(50, 5.0, 0.2, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_phase_list_is_safe() {
        let out = run_phases(&[], &cpu(), &CountdownGovernor::default());
        assert_eq!(out.wall_time, SimDuration::ZERO);
        assert_eq!(out.energy, Energy::ZERO);
        assert_eq!(communication_fraction(&[]), 0.0);
    }
}
