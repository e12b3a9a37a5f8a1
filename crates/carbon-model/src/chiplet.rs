//! Package-level chiplet/fab optimization (§2.1, step 2) — experiment E13.
//!
//! Modern HPC processors are built from many chiplets integrated on a 2.5D
//! interposer, and the chiplets may come from *different* fabs and nodes
//! (the paper cites Ponte Vecchio: 63 chiplets, five technology nodes).
//! The paper argues carbon-aware processors must be optimized end-to-end:
//! given the deployment grid's carbon intensity, choose for every chiplet
//! the fabrication node that minimizes a total-carbon design metric.
//!
//! [`optimize_package`] enumerates the node assignment space (optionally in
//! parallel with Rayon) and returns the best assignment under a
//! [`DesignMetric`].

use crate::metrics::{CarbonFootprint, DesignMetric};
use crate::process::{FabProfile, TechnologyNode};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use sustain_sim_core::time::SimDuration;
use sustain_sim_core::units::{Carbon, CarbonIntensity, Energy, Power};

/// A functional block that must exist in the package, with its size and
/// activity expressed at a reference node (28 nm equivalents).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipletSpec {
    /// Block name ("compute tile", "IO", "cache", …).
    pub name: String,
    /// Logic area at the 28 nm reference node, cm².
    pub ref_area_cm2: f64,
    /// Average power at the 28 nm reference node, W.
    pub ref_power_w: f64,
    /// Number of identical copies of this chiplet.
    pub count: u32,
    /// Candidate technology nodes for this block (IO often cannot scale to
    /// leading-edge nodes).
    pub candidate_nodes: Vec<TechnologyNode>,
}

impl ChipletSpec {
    /// Area if implemented at `node` (density scaling from 28 nm).
    pub(crate) fn area_at(&self, node: TechnologyNode) -> f64 {
        self.ref_area_cm2 / node.density_vs_28nm()
    }

    /// Power if implemented at `node` (energy-efficiency scaling).
    pub fn power_at(&self, node: TechnologyNode) -> Power {
        Power::from_watts(self.ref_power_w / node.energy_efficiency_vs_28nm())
    }
}

/// One evaluated node assignment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackageDesign {
    /// Chosen node per chiplet spec (same order as the input specs).
    pub nodes: Vec<TechnologyNode>,
    /// Embodied carbon of all silicon (yielded) plus packaging.
    pub embodied: Carbon,
    /// Package power.
    pub power: Power,
    /// Operational carbon over the amortization window at the given grid.
    pub operational: Carbon,
    /// Metric value (lower is better).
    pub metric_value: f64,
}

/// Deployment context for package optimization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploymentContext {
    /// Carbon intensity of the grid where the package will operate
    /// (§2.1 step 1: "assessment for the typical carbon intensity of the
    /// power grid where the processor will operate").
    pub grid_ci: CarbonIntensity,
    /// Service life over which embodied and operational carbon are summed.
    pub lifetime: SimDuration,
    /// Average utilization of the package over its life, in `[0,1]`.
    pub utilization: f64,
    /// Fixed packaging/integration carbon (interposer, assembly), kg.
    pub packaging_kg: f64,
}

impl DeploymentContext {
    /// A context with typical values: 5-year life, 70 % utilization, 2 kg
    /// interposer packaging.
    pub fn new(grid_ci: CarbonIntensity) -> DeploymentContext {
        DeploymentContext {
            grid_ci,
            lifetime: SimDuration::from_years(5.0),
            utilization: 0.7,
            packaging_kg: 2.0,
        }
    }
}

/// Evaluates one node assignment.
pub(crate) fn evaluate_assignment(
    specs: &[ChipletSpec],
    nodes: &[TechnologyNode],
    ctx: &DeploymentContext,
) -> PackageDesign {
    assert_eq!(specs.len(), nodes.len(), "assignment arity mismatch");
    let mut embodied = Carbon::from_kg(ctx.packaging_kg);
    let mut power = Power::ZERO;
    for (spec, &node) in specs.iter().zip(nodes) {
        let fab = FabProfile::for_node(node);
        let area = spec.area_at(node);
        embodied += fab.die_carbon(area) * spec.count as f64;
        power += spec.power_at(node) * spec.count as f64;
    }
    let energy: Energy = (power * ctx.utilization).for_duration(ctx.lifetime);
    let operational = energy.carbon_at(ctx.grid_ci);
    PackageDesign {
        nodes: nodes.to_vec(),
        embodied,
        power,
        operational,
        metric_value: 0.0,
    }
}

/// Exhaustively optimizes the per-chiplet node assignment under `metric`.
///
/// The search space is the cartesian product of each spec's candidate
/// nodes; it is enumerated in parallel. Delay is modelled as constant
/// across assignments (the blocks implement the same microarchitecture),
/// so `Delay`-only metrics degenerate to ties broken by carbon.
///
/// # Panics
/// Panics if the space exceeds 10 million assignments or any candidate
/// list is empty.
pub fn optimize_package(
    specs: &[ChipletSpec],
    ctx: &DeploymentContext,
    metric: DesignMetric,
) -> PackageDesign {
    assert!(!specs.is_empty(), "no chiplet specs");
    let mut space: u64 = 1;
    for s in specs {
        assert!(
            !s.candidate_nodes.is_empty(),
            "{}: no candidate nodes",
            s.name
        );
        space = space.saturating_mul(s.candidate_nodes.len() as u64);
    }
    assert!(space <= 10_000_000, "assignment space too large: {space}");

    let reference_delay = SimDuration::from_secs(1.0);
    let eval = |idx: u64| -> PackageDesign {
        let mut nodes = Vec::with_capacity(specs.len());
        let mut rest = idx;
        for s in specs {
            let n = s.candidate_nodes.len() as u64;
            nodes.push(s.candidate_nodes[(rest % n) as usize]);
            rest /= n;
        }
        let mut d = evaluate_assignment(specs, &nodes, ctx);
        let footprint = CarbonFootprint::new(d.embodied, d.operational);
        let energy = (d.power * ctx.utilization).for_duration(ctx.lifetime);
        d.metric_value = metric.evaluate(reference_delay, energy, &footprint);
        d
    };

    let best = (0..space).into_par_iter().map(eval).min_by(|a, b| {
        a.metric_value
            .total_cmp(&b.metric_value)
            // Deterministic tie-break: lower embodied, then node list.
            .then_with(|| a.embodied.cmp(&b.embodied))
            .then_with(|| format!("{:?}", a.nodes).cmp(&format!("{:?}", b.nodes)))
    });
    match best {
        Some(b) => b,
        None => panic!("assignment space must be non-empty"),
    }
}

/// A Ponte-Vecchio-like spec set for the E13 experiment: compute tiles that
/// can use leading-edge nodes, cache at mid nodes, IO pinned to mature
/// nodes.
pub fn ponte_vecchio_like_specs() -> Vec<ChipletSpec> {
    use TechnologyNode::*;
    vec![
        ChipletSpec {
            name: "compute tile".into(),
            ref_area_cm2: 2.2,
            ref_power_w: 30.0,
            count: 16,
            candidate_nodes: vec![N10, N7, N5, N3],
        },
        ChipletSpec {
            name: "cache tile".into(),
            ref_area_cm2: 0.9,
            ref_power_w: 6.0,
            count: 8,
            candidate_nodes: vec![N14, N10, N7],
        },
        ChipletSpec {
            name: "base/IO tile".into(),
            ref_area_cm2: 8.0,
            ref_power_w: 25.0,
            count: 2,
            candidate_nodes: vec![N28, N16, N14],
        },
        ChipletSpec {
            name: "link tile".into(),
            ref_area_cm2: 1.2,
            ref_power_w: 8.0,
            count: 2,
            candidate_nodes: vec![N16, N14, N12],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn low_ci() -> DeploymentContext {
        // Hydropower-like grid (LRZ): 20 g/kWh.
        DeploymentContext::new(CarbonIntensity::from_grams_per_kwh(20.0))
    }

    fn high_ci() -> DeploymentContext {
        // Coal-like grid: 1025 g/kWh.
        DeploymentContext::new(CarbonIntensity::from_grams_per_kwh(1025.0))
    }

    #[test]
    fn newer_node_shrinks_area_and_power() {
        let spec = &ponte_vecchio_like_specs()[0];
        assert!(spec.area_at(TechnologyNode::N5) < spec.area_at(TechnologyNode::N10));
        assert!(
            spec.power_at(TechnologyNode::N5).watts() < spec.power_at(TechnologyNode::N10).watts()
        );
    }

    #[test]
    fn evaluate_assignment_accumulates() {
        let specs = ponte_vecchio_like_specs();
        let nodes: Vec<_> = specs.iter().map(|s| s.candidate_nodes[0]).collect();
        let d = evaluate_assignment(&specs, &nodes, &low_ci());
        assert!(d.embodied.kg() > 2.0); // at least packaging
        assert!(d.power.watts() > 0.0);
        assert!(d.operational.kg() > 0.0);
    }

    /// Core claim of §2.1: the optimal design depends on the grid's carbon
    /// intensity — on a clean grid embodied carbon dominates (favouring
    /// mature nodes); on a dirty grid operational dominates (favouring
    /// efficient leading-edge nodes).
    #[test]
    fn optimum_shifts_with_grid_carbon_intensity() {
        let specs = ponte_vecchio_like_specs();
        let clean = optimize_package(&specs, &low_ci(), DesignMetric::Carbon);
        let dirty = optimize_package(&specs, &high_ci(), DesignMetric::Carbon);
        assert_ne!(clean.nodes, dirty.nodes, "optimum did not shift");
        // Dirty grid should pick at least as advanced a compute node.
        assert!(dirty.nodes[0].nanometres() <= clean.nodes[0].nanometres());
        // And draw less power.
        assert!(dirty.power.watts() <= clean.power.watts());
    }

    #[test]
    fn optimizer_beats_naive_assignments() {
        let specs = ponte_vecchio_like_specs();
        let ctx = high_ci();
        let best = optimize_package(&specs, &ctx, DesignMetric::Carbon);
        // Compare against "everything at the first candidate".
        let naive_nodes: Vec<_> = specs.iter().map(|s| s.candidate_nodes[0]).collect();
        let naive = evaluate_assignment(&specs, &naive_nodes, &ctx);
        let naive_total = (naive.embodied + naive.operational).grams();
        let best_total = (best.embodied + best.operational).grams();
        assert!(best_total <= naive_total);
    }

    #[test]
    fn optimization_is_deterministic() {
        let specs = ponte_vecchio_like_specs();
        let a = optimize_package(&specs, &low_ci(), DesignMetric::Cep);
        let b = optimize_package(&specs, &low_ci(), DesignMetric::Cep);
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.metric_value, b.metric_value);
    }

    #[test]
    #[should_panic(expected = "no candidate nodes")]
    fn empty_candidates_rejected() {
        let specs = vec![ChipletSpec {
            name: "x".into(),
            ref_area_cm2: 1.0,
            ref_power_w: 1.0,
            count: 1,
            candidate_nodes: vec![],
        }];
        optimize_package(&specs, &low_ci(), DesignMetric::Carbon);
    }
}
