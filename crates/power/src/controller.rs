//! Closed-loop power control (§3.1).
//!
//! The PowerStack is "based on a hierarchical and closed-loop control":
//! measured power is compared against the budget and the cap setpoint is
//! nudged to track it. This module provides a proportional controller with
//! a deadband and slew-rate limit — the standard shape of production
//! power-capping loops (RAPL governors, Redfish power control).

use serde::{Deserialize, Serialize};
use sustain_sim_core::units::Power;

/// A proportional setpoint controller with deadband and slew limiting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerController {
    /// Proportional gain (fraction of the error applied per step).
    pub gain: f64,
    /// Errors smaller than this fraction of the budget are ignored.
    pub deadband_fraction: f64,
    /// Largest cap change per step.
    pub max_step: Power,
    /// Current cap setpoint.
    setpoint: Power,
    /// Hard bounds on the setpoint.
    min: Power,
    max: Power,
}

impl PowerController {
    /// Creates a controller with the given bounds, starting at `max`.
    pub fn new(min: Power, max: Power) -> PowerController {
        assert!(min <= max, "min exceeds max");
        PowerController {
            gain: 0.5,
            deadband_fraction: 0.02,
            max_step: (max - min) * 0.25,
            setpoint: max,
            min,
            max,
        }
    }

    /// Current setpoint.
    pub fn setpoint(&self) -> Power {
        self.setpoint
    }

    /// Overrides the setpoint (e.g. on a budget change), clamped to bounds.
    pub fn set(&mut self, p: Power) {
        self.setpoint = p.clamp(self.min, self.max);
    }

    /// One control step: adjusts the setpoint toward keeping `measured`
    /// at or under `budget`, and returns the new setpoint.
    ///
    /// The loop is asymmetric in spirit: over-budget errors always act
    /// (safety), under-budget errors act only outside the deadband
    /// (performance recovery without chatter).
    pub fn step(&mut self, measured: Power, budget: Power) -> Power {
        let error = budget - measured; // positive = headroom
        let deadband = budget * self.deadband_fraction;
        if measured > budget {
            // Over budget: cut immediately, proportionally.
            let cut = ((measured - budget) * self.gain).min(self.max_step);
            self.setpoint = (self.setpoint - cut.min(self.setpoint)).clamp(self.min, self.max);
        } else if error > deadband {
            // Headroom: raise the cap gently.
            let raise = (error * self.gain).min(self.max_step);
            self.setpoint = (self.setpoint + raise).clamp(self.min, self.max);
        }
        self.setpoint
    }
}

/// Simulates the closed loop against a plant whose power consumption
/// tracks the cap with the given responsiveness, returning the sequence of
/// measured powers.
pub fn simulate_loop(
    controller: &mut PowerController,
    budget: impl Fn(usize) -> Power,
    plant_demand: Power,
    responsiveness: f64,
    steps: usize,
) -> Vec<Power> {
    let mut measured = plant_demand.min(controller.setpoint());
    let mut history = Vec::with_capacity(steps);
    for k in 0..steps {
        let cap = controller.step(measured, budget(k));
        // The plant consumes min(demand, cap), approached exponentially.
        let target = plant_demand.min(cap);
        measured = measured + (target - measured) * responsiveness;
        history.push(measured);
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kw(x: f64) -> Power {
        Power::from_kw(x)
    }

    #[test]
    fn setpoint_clamped_to_bounds() {
        let mut c = PowerController::new(kw(1.0), kw(10.0));
        c.set(kw(50.0));
        assert_eq!(c.setpoint(), kw(10.0));
        c.set(kw(0.1));
        assert_eq!(c.setpoint(), kw(1.0));
    }

    #[test]
    fn over_budget_cuts_setpoint() {
        let mut c = PowerController::new(kw(1.0), kw(10.0));
        let before = c.setpoint();
        c.step(kw(12.0), kw(8.0));
        assert!(c.setpoint() < before);
    }

    #[test]
    fn within_deadband_holds_steady() {
        let mut c = PowerController::new(kw(1.0), kw(10.0));
        c.set(kw(8.0));
        // Measured 7.9 vs budget 8.0: error 0.1 < deadband 0.16.
        c.step(kw(7.9), kw(8.0));
        assert_eq!(c.setpoint(), kw(8.0));
    }

    #[test]
    fn loop_converges_under_budget() {
        let mut c = PowerController::new(kw(1.0), kw(10.0));
        let history = simulate_loop(&mut c, |_| kw(6.0), kw(9.0), 0.8, 60);
        let settled = history.last().unwrap();
        assert!(
            settled.kw() <= 6.05,
            "did not settle under budget: {}",
            settled
        );
        assert!(settled.kw() > 5.5, "overthrottled: {}", settled);
    }

    #[test]
    fn loop_tracks_budget_increase() {
        let mut c = PowerController::new(kw(1.0), kw(10.0));
        // Budget steps from 4 kW to 9 kW halfway; plant wants 9 kW.
        let history = simulate_loop(
            &mut c,
            |k| if k < 50 { kw(4.0) } else { kw(9.0) },
            kw(9.0),
            0.8,
            100,
        );
        assert!(history[45].kw() <= 4.1);
        assert!(history[99].kw() > 8.5, "did not recover: {}", history[99]);
    }

    #[test]
    fn slew_rate_limited() {
        let mut c = PowerController::new(kw(0.0), kw(100.0));
        c.set(kw(100.0));
        // Enormous overshoot; the cut is bounded by max_step (25 kW).
        c.step(kw(1000.0), kw(10.0));
        assert!(c.setpoint() >= kw(75.0) - kw(0.001));
    }

    #[test]
    fn plant_never_exceeds_demand() {
        let mut c = PowerController::new(kw(1.0), kw(10.0));
        let history = simulate_loop(&mut c, |_| kw(10.0), kw(3.0), 0.9, 40);
        for p in history {
            assert!(p.kw() <= 3.0 + 1e-9);
        }
    }
}
