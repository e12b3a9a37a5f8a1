//! Every quantitative anchor the paper states, asserted end-to-end
//! against the public API. This is the reproduction contract: if one of
//! these fails, the repo no longer reproduces the paper.

use sustain_hpc::core::prelude::*;
use sustain_hpc::grid::region::{CI_COAL_G_PER_KWH, CI_HYDRO_G_PER_KWH};

/// §2 / Fig. 1: "memory and storage account for 43.5%, 59.6%, and 55.5%
/// embodied carbon emissions for the three systems".
#[test]
fn fig1_memory_storage_shares() {
    let rows = fig1_embodied_breakdown();
    let expect = [
        ("Juwels Booster", 0.435),
        ("SuperMUC-NG", 0.596),
        ("Hawk", 0.555),
    ];
    for ((name, target), row) in expect.iter().zip(&rows) {
        assert_eq!(&row.system, name);
        assert!(
            (row.memory_storage_share - target).abs() < 0.015,
            "{name}: {} vs paper {target}",
            row.memory_storage_share
        );
    }
}

/// §2 / Fig. 1: "GPUs have a significantly higher carbon embodied
/// footprint than the others".
#[test]
fn fig1_gpu_dominance() {
    let jb = &fig1_embodied_breakdown()[0];
    assert!(jb.gpu_t > jb.cpu_t);
    assert!(jb.gpu_t > jb.dram_t);
    assert!(jb.gpu_t > jb.storage_t);
}

/// Table 1: the five LRZ systems with their exact years.
#[test]
fn table1_exact_contents() {
    let rows = table1_lrz_lifetimes().rows;
    let expect = [
        ("SuperMUC", 2012, Some(2018)),
        ("SuperMUC Phase 2", 2015, Some(2019)),
        ("SuperMUC-NG", 2019, Some(2024)),
        ("SuperMUC-NG Phase 2", 2023, None),
        ("ExaMUC", 2025, None),
    ];
    assert_eq!(rows.len(), expect.len());
    for (row, (name, start, end)) in rows.iter().zip(&expect) {
        assert_eq!(&row.name, name);
        assert_eq!(row.start_year, *start);
        assert_eq!(row.decommissioned_year, *end);
    }
}

/// §2.3: "the hardware refresh cycles ... range between four and six
/// years".
#[test]
fn refresh_cycles_four_to_six_years() {
    for row in table1_lrz_lifetimes().rows {
        if let Some(end) = row.decommissioned_year {
            let life = end - row.start_year;
            assert!((4..=6).contains(&life), "{}: {life} years", row.name);
        }
    }
}

/// §3 / Fig. 2: "Finland had 2.1x higher carbon intensity compared to
/// France" and "a standard deviation of 47.21".
#[test]
fn fig2_finland_anchors() {
    let fig2 = fig2_carbon_intensity(2023);
    assert!(
        (fig2.finland_france_ratio - 2.1).abs() < 0.02,
        "ratio {}",
        fig2.finland_france_ratio
    );
    assert!(
        (fig2.finland_daily_std - 47.21).abs() < 0.05,
        "std {}",
        fig2.finland_daily_std
    );
}

/// §2: "LRZ ... operates exclusively on hydropower, resulting in a
/// relatively low carbon intensity of 20 gCO2/kWh, in contrast to ...
/// coal which has a significantly higher carbon intensity of 1025
/// gCO2/kWh".
#[test]
fn hydro_and_coal_constants() {
    assert_eq!(CI_HYDRO_G_PER_KWH, 20.0);
    assert_eq!(CI_COAL_G_PER_KWH, 1025.0);
    assert_eq!(RegionProfile::lrz_hydropower().mean_g_per_kwh, 20.0);
    assert_eq!(RegionProfile::coal_supply().mean_g_per_kwh, 1025.0);
}

/// §2: "for LRZ, embodied carbon emissions dominate the overall carbon
/// footprint".
#[test]
fn lrz_embodied_dominates() {
    let r = lrz_embodied_dominance();
    assert!(r.embodied_t > r.operational_hydro_t);
    assert!(r.operational_coal_t > r.embodied_t);
}

/// §2: "for data centers operating with 70 – 75% renewable energy, the
/// embodied carbon accounts for 50% of the total carbon emissions".
#[test]
fn renewable_rule_of_thumb() {
    let crossover = renewable_fraction_at_half_embodied().unwrap();
    assert!(
        (0.70..=0.75).contains(&crossover),
        "embodied hits 50 % at {crossover}"
    );
}

/// §2.3: "resuing hard disk drives leads to 275x more carbon emissions
/// reductions than recycling".
#[test]
fn hdd_reuse_275x() {
    let r = claim_reuse_vs_recycle();
    assert!((r.hdd_reuse_vs_recycle - 275.0).abs() < 1e-6);
}

/// §2.3: "server lifetime extensions are more effective than component
/// reuse" and "recycling yields relatively limited returns".
#[test]
fn eol_strategy_ordering() {
    for (name, o) in claim_reuse_vs_recycle().systems {
        assert!(
            o.extension_savings > o.reuse_savings && o.reuse_savings > o.recycle_savings,
            "{name}: ordering violated"
        );
    }
}

/// §1: "Frontier ... consumes 20MW of power in continuous operation,
/// while the upcoming Aurora system ... is estimated to draw 60MW".
#[test]
fn frontier_aurora_power() {
    assert_eq!(SystemInventory::frontier_like().nominal_power.mw(), 20.0);
    assert_eq!(SystemInventory::aurora_like().nominal_power.mw(), 60.0);
}

/// §2.1: "Ponte Vecchio GPU consists of 63 chiplets".
#[test]
fn ponte_vecchio_chiplet_count() {
    use sustain_hpc::carbon_model::components::{catalog, Part};
    if let Part::Processor { dies, .. } = catalog::ponte_vecchio_like() {
        let total: u32 = dies.iter().map(|d| d.count).sum();
        assert_eq!(total, 63);
    } else {
        panic!("expected processor part");
    }
}

/// §2.1: "the optimal design point could change depending on the design
/// objective metric such as CDP ..., CEP ..., and others".
#[test]
fn dse_optimum_depends_on_metric_and_grid() {
    let rows = dse_carbon_metrics();
    let find = |ci: f64, m: DesignMetric| {
        rows.iter()
            .find(|r| r.grid_ci == ci && r.metric == m)
            .unwrap()
    };
    let delay = find(300.0, DesignMetric::Delay);
    let cep = find(300.0, DesignMetric::Cep);
    assert!(delay.node != cep.node || delay.cores != cep.cores || delay.freq_ghz != cep.freq_ghz);
    let carbon_clean = find(20.0, DesignMetric::Carbon);
    let carbon_dirty = find(1025.0, DesignMetric::Carbon);
    assert!(
        carbon_clean.node != carbon_dirty.node
            || carbon_clean.cores != carbon_dirty.cores
            || carbon_clean.freq_ghz != carbon_dirty.freq_ghz
    );
}

/// §2.2: joint embodied/operational budgeting boosts delivered science
/// over any fixed split.
#[test]
fn budget_tradeoff_joint_wins() {
    let t = budget_tradeoff();
    let joint = t.rows.last().unwrap().plan.as_ref().unwrap();
    for row in &t.rows[..t.rows.len() - 1] {
        if let Some(plan) = &row.plan {
            assert!(joint.total_work_exaflop >= plan.total_work_exaflop * 0.9999);
        }
    }
}
