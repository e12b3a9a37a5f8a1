//! The JSON writer streams each value straight to text; `to_value`
//! lowers it to a `Value` tree through the same `serialize` method.
//! Every experiment the CLI renders must come out byte-identical both
//! ways, pretty (the artifact form) and compact (the journal form).

use serde::Serialize;
use sustain_hpc::core::prelude::*;
use sustain_hpc::core::{lifetime_report, Site};
use sustain_hpc::grid::region::Region;

fn assert_streams_like_its_tree<T: Serialize>(name: &str, x: &T) {
    let tree = x.to_value();
    assert_eq!(
        serde_json::to_string_pretty(x).unwrap(),
        serde_json::to_string_pretty(&tree).unwrap(),
        "{name}: pretty"
    );
    assert_eq!(
        serde_json::to_string(x).unwrap(),
        serde_json::to_string(&tree).unwrap(),
        "{name}: compact"
    );
}

#[test]
fn every_experiment_streams_like_its_value_tree() {
    let (days, seed) = (3, 2023);
    assert_streams_like_its_tree("fig1", &fig1_embodied_breakdown());
    assert_streams_like_its_tree("table1", &table1_lrz_lifetimes());
    assert_streams_like_its_tree("fig2", &fig2_carbon_intensity(seed));
    assert_streams_like_its_tree("e4", &renewable_share_sweep(21).unwrap());
    assert_streams_like_its_tree("e5", &claim_reuse_vs_recycle());
    assert_streams_like_its_tree("e6", &dse_carbon_metrics());
    assert_streams_like_its_tree("e7", &budget_tradeoff());
    assert_streams_like_its_tree(
        "e8",
        &carbon_aware_power_scaling(Region::Finland, days, seed).unwrap(),
    );
    assert_streams_like_its_tree(
        "e9",
        &malleability_under_power(Region::GreatBritain, days, seed).unwrap(),
    );
    assert_streams_like_its_tree(
        "e10",
        &carbon_aware_scheduling(Region::Finland, days, seed).unwrap(),
    );
    assert_streams_like_its_tree(
        "e11a",
        &user_overallocation(Region::Germany, days, seed).unwrap(),
    );
    assert_streams_like_its_tree("e11b", &green_incentives(Region::Finland, seed));
    assert_streams_like_its_tree("e12", &carbon500());
    assert_streams_like_its_tree("e13", &chiplet_packaging());
    assert_streams_like_its_tree("e14", &countdown_savings(Region::Germany, seed));
    assert_streams_like_its_tree(
        "a1",
        &green_threshold_sweep(Region::Finland, days, seed).unwrap(),
    );
    assert_streams_like_its_tree(
        "a2",
        &checkpoint_overhead_sweep(Region::Finland, days, seed).unwrap(),
    );
    assert_streams_like_its_tree(
        "a3",
        &malleable_fraction_sweep(Region::GreatBritain, days, seed).unwrap(),
    );
    assert_streams_like_its_tree(
        "a4",
        &forecast_scaling_ablation(Region::Finland, days, seed).unwrap(),
    );
    assert_streams_like_its_tree(
        "a5",
        &backfill_flavour_sweep(Region::Germany, days, seed).unwrap(),
    );
    assert_streams_like_its_tree("a6", &failure_resilience_sweep(days, seed).unwrap());
    assert_streams_like_its_tree(
        "site",
        &[
            Site::lrz_like(),
            Site::german_grid_like(),
            Site::coal_like(),
        ]
        .iter()
        .map(lifetime_report)
        .collect::<Vec<_>>(),
    );
}
