//! Trading embodied vs operational carbon under a total carbon budget
//! (§2.2) — experiment E7.
//!
//! The paper: *"If this embodied carbon budget is not fully used, the
//! remaining part can be shifted to the operational carbon budget in order
//! to boost the system performance by raising the system power limit ...
//! Trading-off the embodied and operational carbon budgets under a total
//! carbon footprint budget will be another optimization opportunity for
//! system designs."*
//!
//! The model: procurement picks a node count `n` and a lifetime power-cap
//! fraction. Embodied carbon scales with `n`; operational carbon scales
//! with `n × power(cap) × lifetime × CI`; delivered science scales with
//! `n × perf(cap) × lifetime`, where `perf(cap)` is concave (power capping
//! costs less performance than it saves power). `optimize_joint` searches
//! the full `(n, cap)` plane; `evaluate_fixed_split` models the naive
//! policy of budgeting embodied and operational separately.

use serde::{Deserialize, Serialize};
use sustain_sim_core::time::SimDuration;
use sustain_sim_core::units::{Carbon, CarbonIntensity, Power};

/// Performance/power/embodied characteristics of one node design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeDesign {
    /// Embodied carbon per node (components + platform).
    pub embodied_per_node: Carbon,
    /// Node power at the full (uncapped) limit.
    pub tdp: Power,
    /// Lowest usable cap as a fraction of TDP.
    pub min_cap_fraction: f64,
    /// Sustained node performance at TDP, Gflop/s.
    pub perf_at_tdp_gflops: f64,
    /// Concavity of perf vs power: `perf = perf_tdp · cap^alpha`,
    /// `alpha < 1`.
    pub perf_exponent: f64,
}

impl NodeDesign {
    /// A contemporary dual-socket + accelerator node.
    pub fn hpc_default() -> NodeDesign {
        NodeDesign {
            embodied_per_node: Carbon::from_kg(1500.0),
            tdp: Power::from_kw(2.0),
            min_cap_fraction: 0.4,
            perf_at_tdp_gflops: 40_000.0,
            perf_exponent: 0.6,
        }
    }

    /// Node power at a cap fraction in `[min_cap_fraction, 1]`.
    pub fn power_at(&self, cap_fraction: f64) -> Power {
        let f = cap_fraction.clamp(self.min_cap_fraction, 1.0);
        self.tdp * f
    }

    /// Node performance at a cap fraction (concave).
    pub(crate) fn perf_at(&self, cap_fraction: f64) -> f64 {
        let f = cap_fraction.clamp(self.min_cap_fraction, 1.0);
        self.perf_at_tdp_gflops * f.powf(self.perf_exponent)
    }
}

/// Deployment assumptions for the procurement optimization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcurementContext {
    /// System lifetime.
    pub lifetime: SimDuration,
    /// Average grid carbon intensity at the site.
    pub avg_ci: CarbonIntensity,
    /// Average utilization over the lifetime, in `[0,1]`.
    pub utilization: f64,
}

impl ProcurementContext {
    /// 6-year life at 90 % utilization at the given grid intensity.
    pub fn new(avg_ci: CarbonIntensity) -> ProcurementContext {
        ProcurementContext {
            lifetime: SimDuration::from_years(6.0),
            avg_ci,
            utilization: 0.9,
        }
    }
}

/// One evaluated procurement plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcurementPlan {
    /// Number of nodes bought.
    pub nodes: u64,
    /// Lifetime power-cap fraction.
    pub cap_fraction: f64,
    /// Total embodied carbon.
    pub embodied: Carbon,
    /// Total operational carbon over the lifetime.
    pub operational: Carbon,
    /// Total delivered work over the lifetime, in Exaflop.
    pub total_work_exaflop: f64,
}

impl ProcurementPlan {
    /// Total carbon of the plan.
    pub fn total_carbon(&self) -> Carbon {
        self.embodied + self.operational
    }
}

/// Evaluates a `(nodes, cap)` plan.
pub(crate) fn evaluate_plan(
    nodes: u64,
    cap_fraction: f64,
    design: &NodeDesign,
    ctx: &ProcurementContext,
) -> ProcurementPlan {
    let embodied = design.embodied_per_node * nodes as f64;
    let power = design.power_at(cap_fraction) * nodes as f64 * ctx.utilization;
    let energy = power.for_duration(ctx.lifetime);
    let operational = energy.carbon_at(ctx.avg_ci);
    let gflops = design.perf_at(cap_fraction) * nodes as f64 * ctx.utilization;
    let total_work_exaflop = gflops * ctx.lifetime.as_secs() / 1e9;
    ProcurementPlan {
        nodes,
        cap_fraction,
        embodied,
        operational,
        total_work_exaflop,
    }
}

/// Jointly optimizes node count and power cap under `total_budget`,
/// maximizing delivered work. For each node count the optimal cap is
/// computed in closed form: work is increasing in the cap, so the best
/// feasible cap is the one that exactly exhausts the operational
/// remainder of the budget (clamped to the cap range).
pub(crate) fn optimize_joint(
    total_budget: Carbon,
    design: &NodeDesign,
    ctx: &ProcurementContext,
    max_nodes: u64,
) -> Option<ProcurementPlan> {
    assert!(max_nodes > 0, "degenerate search space");
    let mut best: Option<ProcurementPlan> = None;
    for n in 1..=max_nodes {
        let embodied = design.embodied_per_node * n as f64;
        // Early exit: embodied alone exceeds the budget; higher n only worse.
        if embodied > total_budget {
            break;
        }
        let op_budget = total_budget - embodied;
        // Operational carbon scales linearly with the cap fraction:
        // op(cap) = full_op × cap, with full_op the TDP-level emission.
        let full_op = evaluate_plan(n, 1.0, design, ctx).operational;
        let cap = if full_op.grams() <= 0.0 {
            1.0
        } else {
            (op_budget.grams() / full_op.grams()).min(1.0)
        };
        if cap < design.min_cap_fraction {
            // Even the lowest usable cap blows the budget at this scale.
            continue;
        }
        let plan = evaluate_plan(n, cap, design, ctx);
        debug_assert!(plan.total_carbon() <= total_budget * 1.000001);
        let better = match &best {
            None => true,
            Some(b) => {
                plan.total_work_exaflop > b.total_work_exaflop
                    || (plan.total_work_exaflop == b.total_work_exaflop
                        && plan.total_carbon() < b.total_carbon())
            }
        };
        if better {
            best = Some(plan);
        }
    }
    best
}

/// The naive policy: a fixed fraction `embodied_share` of the budget buys
/// nodes at full TDP planning, and the operational remainder then dictates
/// the feasible power cap. Returns `None` if the split affords no nodes.
pub(crate) fn evaluate_fixed_split(
    total_budget: Carbon,
    embodied_share: f64,
    design: &NodeDesign,
    ctx: &ProcurementContext,
) -> Option<ProcurementPlan> {
    assert!((0.0..=1.0).contains(&embodied_share), "share out of range");
    let embodied_budget = total_budget * embodied_share;
    let nodes = (embodied_budget.grams() / design.embodied_per_node.grams()).floor() as u64;
    if nodes == 0 {
        return None;
    }
    let op_budget = total_budget - design.embodied_per_node * nodes as f64;
    // Operational carbon at cap f: nodes · tdp·f · util · T · CI.
    let full = evaluate_plan(nodes, 1.0, design, ctx);
    let cap = if full.operational <= op_budget {
        1.0
    } else {
        (op_budget.grams() / full.operational.grams()).clamp(design.min_cap_fraction, 1.0)
    };
    let plan = evaluate_plan(nodes, cap, design, ctx);
    // Even at the minimum cap the operational budget may be blown; report
    // the infeasible plan as None.
    if plan.total_carbon() > total_budget * 1.0001 {
        return None;
    }
    Some(plan)
}

/// E7 sweep rows: delivered work across embodied-share choices plus the
/// joint optimum.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BudgetTradeoffRow {
    /// Fixed embodied share (or `None` for the joint optimum row).
    pub embodied_share: Option<f64>,
    /// The evaluated plan (or `None` if infeasible).
    pub plan: Option<ProcurementPlan>,
}

/// Runs the E7 experiment: fixed splits vs joint optimization.
pub fn budget_tradeoff_sweep(
    total_budget: Carbon,
    design: &NodeDesign,
    ctx: &ProcurementContext,
    shares: &[f64],
    max_nodes: u64,
) -> Vec<BudgetTradeoffRow> {
    let mut rows: Vec<BudgetTradeoffRow> = shares
        .iter()
        .map(|&s| BudgetTradeoffRow {
            embodied_share: Some(s),
            plan: evaluate_fixed_split(total_budget, s, design, ctx),
        })
        .collect();
    rows.push(BudgetTradeoffRow {
        embodied_share: None,
        plan: optimize_joint(total_budget, design, ctx, max_nodes),
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ProcurementContext {
        // A fairly clean grid: the regime where embodied and operational
        // budgets are of comparable size and the trade-off is interesting.
        ProcurementContext::new(CarbonIntensity::from_grams_per_kwh(50.0))
    }

    fn budget() -> Carbon {
        Carbon::from_tons(5_000.0)
    }

    #[test]
    fn capping_is_concave() {
        let d = NodeDesign::hpc_default();
        // Halving power costs less than half the performance.
        let perf_ratio = d.perf_at(0.5) / d.perf_at(1.0);
        let power_ratio = d.power_at(0.5) / d.power_at(1.0);
        assert!(perf_ratio > power_ratio);
        assert!(perf_ratio > 0.6 && perf_ratio < 1.0);
    }

    #[test]
    fn cap_clamps_to_min() {
        let d = NodeDesign::hpc_default();
        assert_eq!(d.power_at(0.0), d.power_at(d.min_cap_fraction));
        assert_eq!(d.perf_at(2.0), d.perf_at(1.0));
    }

    #[test]
    fn plan_accounting_adds_up() {
        let d = NodeDesign::hpc_default();
        let plan = evaluate_plan(100, 1.0, &d, &ctx());
        assert_eq!(plan.embodied.kg(), 150_000.0);
        assert!(plan.operational.grams() > 0.0);
        assert!(plan.total_work_exaflop > 0.0);
        assert_eq!(
            plan.total_carbon().grams(),
            (plan.embodied + plan.operational).grams()
        );
    }

    #[test]
    fn joint_respects_budget() {
        let d = NodeDesign::hpc_default();
        let plan = optimize_joint(budget(), &d, &ctx(), 3000).expect("feasible");
        assert!(plan.total_carbon() <= budget());
        assert!(plan.nodes > 0);
    }

    /// Core §2.2 claim: joint embodied/operational budgeting beats any fixed
    /// split.
    #[test]
    fn joint_beats_fixed_splits() {
        let d = NodeDesign::hpc_default();
        let c = ctx();
        let joint = optimize_joint(budget(), &d, &c, 3000).expect("feasible");
        for share in [0.2, 0.35, 0.5, 0.65, 0.8] {
            if let Some(fixed) = evaluate_fixed_split(budget(), share, &d, &c) {
                assert!(
                    joint.total_work_exaflop >= fixed.total_work_exaflop * 0.999,
                    "share {share}: fixed {} > joint {}",
                    fixed.total_work_exaflop,
                    joint.total_work_exaflop
                );
            }
        }
    }

    /// §2.2: unused embodied budget shifted to operational raises the power
    /// limit and boosts performance.
    #[test]
    fn shifting_unused_embodied_budget_boosts_performance() {
        let d = NodeDesign::hpc_default();
        let c = ctx();
        // Buy few nodes (20 % embodied share)…
        let conservative = evaluate_fixed_split(budget(), 0.2, &d, &c).expect("feasible");
        // …the leftover operational budget allows a high cap.
        assert!(conservative.cap_fraction > 0.9);
        // A plan with the same nodes but a throttled cap does less work.
        let throttled = evaluate_plan(conservative.nodes, 0.5, &d, &c);
        assert!(conservative.total_work_exaflop > throttled.total_work_exaflop);
    }

    #[test]
    fn cleaner_grid_affords_more_operational_power() {
        let d = NodeDesign::hpc_default();
        let clean = optimize_joint(
            budget(),
            &d,
            &ProcurementContext::new(CarbonIntensity::from_grams_per_kwh(20.0)),
            5000,
        )
        .expect("feasible");
        let dirty = optimize_joint(
            budget(),
            &d,
            &ProcurementContext::new(CarbonIntensity::from_grams_per_kwh(1025.0)),
            5000,
        )
        .expect("feasible");
        assert!(clean.total_work_exaflop > dirty.total_work_exaflop);
        // On a clean grid more of the budget goes to silicon.
        assert!(clean.nodes >= dirty.nodes);
    }

    #[test]
    fn infeasible_budget_returns_none() {
        let d = NodeDesign::hpc_default();
        assert!(optimize_joint(Carbon::from_kg(1.0), &d, &ctx(), 100).is_none());
        assert!(evaluate_fixed_split(Carbon::from_kg(1.0), 0.5, &d, &ctx()).is_none());
    }

    #[test]
    fn sweep_contains_joint_row() {
        let d = NodeDesign::hpc_default();
        let rows = budget_tradeoff_sweep(budget(), &d, &ctx(), &[0.3, 0.6], 2000);
        assert_eq!(rows.len(), 3);
        assert!(rows.last().unwrap().embodied_share.is_none());
        assert!(rows.last().unwrap().plan.is_some());
    }
}
