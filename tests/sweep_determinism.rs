//! The sweep driver's headline guarantee: parallel execution is
//! bit-for-bit identical to serial execution, and the trace cache is
//! transparent (same values, shared allocations).
//!
//! These tests mutate the global thread count. That is safe alongside
//! other tests because the vendored pool reassembles results in input
//! order — thread count affects speed only, never output.

use proptest::prelude::*;
use std::sync::Arc;
use sustain_hpc::core::prelude::*;
use sustain_hpc::core::sweep::{calibrated_trace, set_threads};
use sustain_hpc::grid::region::{Region, RegionProfile};

/// A1 at one thread vs many threads: the serialized rows (the exact
/// bytes a user would get from the CLI) must match.
#[test]
fn a1_parallel_bytes_match_serial() {
    set_threads(1);
    let serial =
        serde_json::to_vec(&green_threshold_sweep(Region::Finland, 3, 5).unwrap()).unwrap();
    set_threads(4);
    let parallel =
        serde_json::to_vec(&green_threshold_sweep(Region::Finland, 3, 5).unwrap()).unwrap();
    set_threads(0);
    assert_eq!(serial, parallel, "A1 must not depend on thread count");
}

/// The 10-region Fig. 2 grid sweep, serial vs parallel, byte-identical.
#[test]
fn region_grid_parallel_bytes_match_serial() {
    set_threads(1);
    let serial = serde_json::to_vec(&fig2_carbon_intensity(2023)).unwrap();
    set_threads(4);
    let parallel = serde_json::to_vec(&fig2_carbon_intensity(2023)).unwrap();
    set_threads(0);
    assert_eq!(serial, parallel, "Fig. 2 must not depend on thread count");
}

/// A6 (the FailureModel-enabled sweep: stochastic node failures inside
/// the simulator) at one thread vs many threads, byte-identical — the
/// failure RNG is seeded per point, never by scheduling.
#[test]
fn a6_failure_model_parallel_bytes_match_serial() {
    set_threads(1);
    let serial = serde_json::to_vec(&failure_resilience_sweep(2, 13).unwrap()).unwrap();
    set_threads(4);
    let parallel = serde_json::to_vec(&failure_resilience_sweep(2, 13).unwrap()).unwrap();
    set_threads(0);
    assert_eq!(serial, parallel, "A6 must not depend on thread count");
}

/// `SweepPlan` fault isolation: one injected panicking point fails
/// alone — its neighbors all succeed, and output order is preserved.
#[test]
fn try_sweep_injected_panic_fails_alone() {
    let points: Vec<u32> = (0..12).collect();
    let ctl = RunCtl::unlimited();
    let run = || {
        SweepPlan::new(&points, &ctl)
            .run(|&p, _| {
                assert!(p != 7, "injected fault in point 7");
                Ok(p as u64 + 100)
            })
            .expect("no cancellation")
    };
    let results = run();
    assert_eq!(results.len(), points.len());
    for (i, r) in results.iter().enumerate() {
        if i == 7 {
            let e = r.result.as_ref().unwrap_err().to_string();
            assert!(e.contains("sweep point 7"), "{e}");
            assert!(e.contains("injected fault"), "{e}");
        } else {
            assert_eq!(r.result, Ok(i as u64 + 100), "neighbor {i} must succeed");
        }
    }
    // And the failure report is itself deterministic across thread counts.
    set_threads(1);
    let serial = run();
    set_threads(0);
    assert_eq!(serial, results);
}

proptest! {
    /// Cache hits for equal (profile, days, seed) keys return the very
    /// same `Arc` (pointer-identical), and its contents equal a fresh
    /// uncached generation. Calibration needs at least two daily means
    /// to scale, so `days` starts at 2.
    #[test]
    fn trace_cache_hits_are_arc_identical(
        region_idx in 0usize..Region::ALL.len(),
        days in 2usize..5,
        seed in 0u64..1_000_000,
    ) {
        let profile = RegionProfile::january_2023(Region::ALL[region_idx]);
        let first = calibrated_trace(&profile, days, seed);
        let second = calibrated_trace(&profile, days, seed);
        prop_assert!(Arc::ptr_eq(&first, &second));
        let fresh = generate_calibrated(&profile, days, seed);
        prop_assert_eq!(first.series().values(), fresh.series().values());
    }
}
