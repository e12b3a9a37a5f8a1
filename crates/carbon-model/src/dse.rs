//! Processor design-space exploration under carbon metrics (§2.1) —
//! experiment E6.
//!
//! The design space is `(technology node, core count, clock frequency)`.
//! For a fixed reference workload the analytic models give delay, energy,
//! embodied carbon (amortized to the workload) and operational carbon at
//! the deployment grid's intensity; each [`DesignMetric`] then picks its
//! own optimum. The experiment reproduces the qualitative result of Gupta
//! et al. \[32\] that the paper cites: *the optimal design point changes with
//! the objective metric and with the grid carbon intensity*.

use crate::metrics::{CarbonFootprint, DesignMetric};
use crate::process::{FabProfile, TechnologyNode};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use sustain_sim_core::time::SimDuration;
use sustain_sim_core::units::{Carbon, CarbonIntensity, Energy, Power};

/// A candidate processor design.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesignPoint {
    /// Technology node.
    pub node: TechnologyNode,
    /// Number of cores.
    pub cores: u32,
    /// Clock frequency in GHz.
    pub freq_ghz: f64,
}

/// The workload and deployment context designs are evaluated against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DseContext {
    /// Total work in Gflop (reference workload size).
    pub work_gflop: f64,
    /// Parallel fraction of the workload (Amdahl).
    pub parallel_fraction: f64,
    /// Grid carbon intensity at the deployment site.
    pub grid_ci: CarbonIntensity,
    /// Processor service life for embodied amortization.
    pub lifetime: SimDuration,
}

impl DseContext {
    /// A large, highly parallel HPC workload at the given grid intensity.
    pub fn hpc_default(grid_ci: CarbonIntensity) -> DseContext {
        DseContext {
            work_gflop: 1.0e9, // 1 Exaflop of work
            parallel_fraction: 0.999,
            grid_ci,
            lifetime: SimDuration::from_years(5.0),
        }
    }
}

/// Microarchitectural constants for the analytic models.
mod model {
    /// Core area at the 28 nm reference node, cm².
    pub(crate) const CORE_AREA_REF_CM2: f64 = 0.80;
    /// Uncore/IO area at the reference node, cm².
    pub(crate) const UNCORE_AREA_REF_CM2: f64 = 2.0;
    /// Double-precision flops per core per cycle.
    pub(crate) const FLOPS_PER_CYCLE: f64 = 16.0;
    /// Dynamic power per core at the reference node and 1 GHz, W.
    /// Voltage tracks frequency, so dynamic power scales with f³.
    pub(crate) const CORE_DYN_W_PER_GHZ3: f64 = 1.1;
    /// Static (leakage) power per cm² of die at the reference node, W.
    pub(crate) const LEAKAGE_W_PER_CM2: f64 = 2.0;
    /// Uncore power at the reference node, W.
    pub(crate) const UNCORE_W: f64 = 18.0;
}

/// Evaluated design: the models' outputs plus the metric value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluatedDesign {
    /// The design point.
    pub design: DesignPoint,
    /// Die area, cm².
    pub area_cm2: f64,
    /// Time to complete the reference workload.
    pub delay: SimDuration,
    /// Average power while running it.
    pub power: Power,
    /// Energy to complete it.
    pub energy: Energy,
    /// Embodied carbon of the die (whole part).
    pub embodied_total: Carbon,
    /// Footprint attributed to the workload (amortized embodied +
    /// operational).
    pub footprint: CarbonFootprint,
    /// Metric value (lower is better).
    pub metric_value: f64,
}

/// Applies the analytic models to one design point.
pub(crate) fn evaluate_design(d: DesignPoint, ctx: &DseContext) -> EvaluatedDesign {
    assert!(d.cores > 0 && d.freq_ghz > 0.0, "invalid design point");
    let density = d.node.density_vs_28nm();
    let eff = d.node.energy_efficiency_vs_28nm();

    // Area and embodied carbon.
    let area_cm2 =
        (d.cores as f64 * model::CORE_AREA_REF_CM2 + model::UNCORE_AREA_REF_CM2) / density;
    let embodied_total = FabProfile::for_node(d.node).die_carbon(area_cm2);

    // Performance: Amdahl-limited scaling over cores.
    let per_core_gflops = d.freq_ghz * model::FLOPS_PER_CYCLE;
    let speedup = 1.0 / ((1.0 - ctx.parallel_fraction) + ctx.parallel_fraction / d.cores as f64);
    let sustained_gflops = per_core_gflops * speedup;
    let delay = SimDuration::from_secs(ctx.work_gflop / sustained_gflops);

    // Power: per-core dynamic (f³ with voltage tracking) + leakage + uncore,
    // all improved by the node's energy efficiency.
    let dyn_w = d.cores as f64 * model::CORE_DYN_W_PER_GHZ3 * d.freq_ghz.powi(3) / eff;
    let leak_w = area_cm2 * model::LEAKAGE_W_PER_CM2;
    let uncore_w = model::UNCORE_W / eff;
    let power = Power::from_watts(dyn_w + leak_w + uncore_w);

    let energy = power.for_duration(delay);
    let operational = energy.carbon_at(ctx.grid_ci);
    let amortized = crate::metrics::amortize(embodied_total, ctx.lifetime, delay);
    let footprint = CarbonFootprint::new(amortized, operational);

    EvaluatedDesign {
        design: d,
        area_cm2,
        delay,
        power,
        energy,
        embodied_total,
        footprint,
        metric_value: 0.0,
    }
}

/// The default design space: all nodes × a core-count sweep × a frequency
/// sweep.
pub fn default_design_space() -> Vec<DesignPoint> {
    let cores = [8u32, 16, 24, 32, 48, 64, 96, 128];
    let freqs = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0];
    let mut space = Vec::with_capacity(TechnologyNode::ALL.len() * cores.len() * freqs.len());
    for node in TechnologyNode::ALL {
        for &c in &cores {
            for &f in &freqs {
                space.push(DesignPoint {
                    node,
                    cores: c,
                    freq_ghz: f,
                });
            }
        }
    }
    space
}

/// Evaluates every design point in `space` against `ctx`, in parallel,
/// preserving input order. Metric values are left at `0.0`; pick a
/// metric with [`best_for_metric`] (cheap per metric, since the model
/// evaluation is shared).
pub(crate) fn evaluate_space(space: &[DesignPoint], ctx: &DseContext) -> Vec<EvaluatedDesign> {
    space.par_iter().map(|&d| evaluate_design(d, ctx)).collect()
}

/// Picks the best already-evaluated design under `metric`, filling in
/// its `metric_value`. Ties break deterministically toward lower
/// embodied carbon, then fewer cores, then lower frequency.
pub(crate) fn best_for_metric(evals: &[EvaluatedDesign], metric: DesignMetric) -> EvaluatedDesign {
    assert!(!evals.is_empty(), "empty design space");
    evals
        .iter()
        .map(|e| {
            let mut e = e.clone();
            e.metric_value = metric.evaluate(e.delay, e.energy, &e.footprint);
            e
        })
        .min_by(|a, b| {
            a.metric_value
                .total_cmp(&b.metric_value)
                .then_with(|| a.footprint.embodied.cmp(&b.footprint.embodied))
                .then_with(|| a.design.cores.cmp(&b.design.cores))
                .then_with(|| a.design.freq_ghz.total_cmp(&b.design.freq_ghz))
        })
        .unwrap_or_else(|| panic!("design space must be non-empty"))
}

/// Exhaustively evaluates `space` under `metric` (parallel) and returns the
/// best design. Ties break deterministically toward lower embodied carbon.
/// The reference that [`metric_ci_sweep`] rows are checked against.
#[cfg(test)]
fn optimize(space: &[DesignPoint], ctx: &DseContext, metric: DesignMetric) -> EvaluatedDesign {
    best_for_metric(&evaluate_space(space, ctx), metric)
}

/// Full E6 sweep: optimum for every metric at every grid intensity.
/// Returns `(ci, metric, best design)` rows. The analytic models run
/// once per grid intensity (in parallel across the space); each metric
/// then reduces over the shared evaluations.
pub fn metric_ci_sweep(
    space: &[DesignPoint],
    cis_g_per_kwh: &[f64],
    base_ctx: &DseContext,
) -> Vec<(f64, DesignMetric, EvaluatedDesign)> {
    let mut rows = Vec::with_capacity(cis_g_per_kwh.len() * DesignMetric::ALL.len());
    for &ci in cis_g_per_kwh {
        let ctx = DseContext {
            grid_ci: CarbonIntensity::from_grams_per_kwh(ci),
            ..base_ctx.clone()
        };
        let evals = evaluate_space(space, &ctx);
        for metric in DesignMetric::ALL {
            rows.push((ci, metric, best_for_metric(&evals, metric)));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(ci: f64) -> DseContext {
        DseContext::hpc_default(CarbonIntensity::from_grams_per_kwh(ci))
    }

    #[test]
    fn evaluate_design_basic_sanity() {
        let d = DesignPoint {
            node: TechnologyNode::N7,
            cores: 64,
            freq_ghz: 2.5,
        };
        let e = evaluate_design(d, &ctx(300.0));
        assert!(e.area_cm2 > 0.0);
        assert!(e.delay.as_secs() > 0.0);
        assert!(e.power.watts() > 0.0);
        assert!(e.footprint.operational.grams() > 0.0);
        assert!(e.footprint.embodied.grams() > 0.0);
        // Amortized embodied is a small share of the part's total.
        assert!(e.footprint.embodied < e.embodied_total);
    }

    #[test]
    fn higher_frequency_lowers_delay_raises_energy() {
        let slow = evaluate_design(
            DesignPoint {
                node: TechnologyNode::N7,
                cores: 64,
                freq_ghz: 1.5,
            },
            &ctx(300.0),
        );
        let fast = evaluate_design(
            DesignPoint {
                node: TechnologyNode::N7,
                cores: 64,
                freq_ghz: 3.5,
            },
            &ctx(300.0),
        );
        assert!(fast.delay < slow.delay);
        assert!(fast.energy > slow.energy, "f³ power must dominate 1/f time");
    }

    #[test]
    fn delay_metric_picks_fast_designs() {
        let space = default_design_space();
        let best = optimize(&space, &ctx(300.0), DesignMetric::Delay);
        // Fastest = max cores × max frequency.
        assert_eq!(best.design.cores, 128);
        assert_eq!(best.design.freq_ghz, 4.0);
    }

    /// Core claim of §2.1/E6: the optimum changes with the metric.
    #[test]
    fn optimum_changes_with_metric() {
        let space = default_design_space();
        let c = ctx(300.0);
        let delay_opt = optimize(&space, &c, DesignMetric::Delay);
        let cep_opt = optimize(&space, &c, DesignMetric::Cep);
        let cdp_opt = optimize(&space, &c, DesignMetric::Cdp);
        assert_ne!(delay_opt.design, cep_opt.design);
        // CEP leans harder toward low energy than CDP.
        assert!(cep_opt.design.freq_ghz <= cdp_opt.design.freq_ghz);
    }

    /// Core claim of §2.1/E6: the carbon-optimal design shifts with the
    /// deployment grid's carbon intensity.
    #[test]
    fn carbon_optimum_shifts_with_grid_ci() {
        let space = default_design_space();
        let clean = optimize(&space, &ctx(20.0), DesignMetric::Cdp);
        let dirty = optimize(&space, &ctx(1025.0), DesignMetric::Cdp);
        assert_ne!(
            clean.design, dirty.design,
            "CDP optimum should move between hydro (20g) and coal (1025g) grids"
        );
        // On the dirty grid operational carbon dominates: the chosen design
        // must be at least as energy-lean (lower or equal frequency).
        assert!(dirty.design.freq_ghz <= clean.design.freq_ghz);
    }

    #[test]
    fn non_carbon_metrics_ignore_grid_ci() {
        let space = default_design_space();
        let a = optimize(&space, &ctx(20.0), DesignMetric::Edp);
        let b = optimize(&space, &ctx(1025.0), DesignMetric::Edp);
        assert_eq!(a.design, b.design);
    }

    #[test]
    fn sweep_covers_all_combinations() {
        let space = default_design_space();
        let rows = metric_ci_sweep(&space, &[20.0, 300.0], &ctx(0.0));
        assert_eq!(rows.len(), 2 * DesignMetric::ALL.len());
    }

    /// The evaluate-once restructure must be invisible: every sweep row
    /// equals a from-scratch `optimize` at the same (CI, metric).
    #[test]
    fn sweep_rows_match_individual_optimize() {
        let space = default_design_space();
        let rows = metric_ci_sweep(&space, &[100.0, 600.0], &ctx(0.0));
        for (ci, metric, best) in rows {
            assert_eq!(best, optimize(&space, &ctx(ci), metric), "{ci} {metric:?}");
        }
    }

    #[test]
    fn optimize_is_deterministic() {
        let space = default_design_space();
        let a = optimize(&space, &ctx(150.0), DesignMetric::Cdp);
        let b = optimize(&space, &ctx(150.0), DesignMetric::Cdp);
        assert_eq!(a.design, b.design);
    }

    #[test]
    fn amdahl_limits_many_core_scaling() {
        let mut c = ctx(300.0);
        c.parallel_fraction = 0.90; // serial-heavy workload
        let few = evaluate_design(
            DesignPoint {
                node: TechnologyNode::N7,
                cores: 8,
                freq_ghz: 2.0,
            },
            &c,
        );
        let many = evaluate_design(
            DesignPoint {
                node: TechnologyNode::N7,
                cores: 128,
                freq_ghz: 2.0,
            },
            &c,
        );
        let speedup = few.delay.as_secs() / many.delay.as_secs();
        assert!(
            speedup < 16.0,
            "Amdahl must cap the 16x core ratio: {speedup}"
        );
    }
}
