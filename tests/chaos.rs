//! Chaos harness: adversarial configurations driven through every
//! fallible entry point of the stack, asserting the no-panic contract —
//! **`Ok` or a typed `Err`, never an unwind**.
//!
//! Adversarial floats (NaN, ±∞, huge, tiny-negative) are injected via
//! integer selector indices so the generator can reach values a plain
//! float range never produces.

use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use sustain_hpc::core::prelude::*;
use sustain_hpc::grid::synth::TraceCache;
use sustain_hpc::scheduler::sim::{simulate_with_ctl, SimConfig};
use sustain_hpc::sim_core::units::Power;

/// CI also runs this harness under `SUSTAIN_THREADS=2`: honor the env
/// knob, so the no-panic contract is exercised under sweep parallelism
/// and the shared worker budget too.
fn parallelism_init() {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| {
        sustain_hpc::core::sweep::init_threads_from_env().expect("valid SUSTAIN_THREADS in CI");
    });
}

/// The adversarial float pool. Index 0..=3 are "plausible" values so the
/// harness also exercises the success path.
const EVIL: [f64; 10] = [
    0.5,
    1.0,
    0.0,
    2.0,
    -1.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1.0e300,
    -1.0e-300,
];

fn small_scenario(days: usize, seed: u64) -> Scenario {
    let mut s = Scenario::baseline(
        "chaos",
        RegionProfile::january_2023(Region::Germany),
        days.max(1),
    );
    s.days = days; // allow the degenerate 0 the builder cannot express
    s.cluster = Cluster::new(16);
    s.workload.arrivals_per_hour = 0.5;
    s.workload.max_nodes = 8;
    s.seed = seed;
    s
}

proptest! {
    /// `scenario::run` with adversarial workload/region/checkpoint/
    /// scaling floats: must return `Ok` or a typed `Err`, never unwind.
    #[test]
    fn scenario_run_never_unwinds(
        days in 0usize..3,
        seed in 0u64..1_000_000,
        w_arr in 0usize..EVIL.len(),
        w_frac in 0usize..EVIL.len(),
        r_mean in 0usize..EVIL.len(),
        ck_sel in 0usize..4,
        ck_lo in 0usize..EVIL.len(),
        ck_hi in 0usize..EVIL.len(),
        sc_sel in 0usize..3,
        sc_val in 0usize..EVIL.len(),
    ) {
        parallelism_init();
        let mut s = small_scenario(days, seed);
        s.workload.arrivals_per_hour = EVIL[w_arr];
        s.workload.malleable_fraction = EVIL[w_frac];
        s.region.mean_g_per_kwh = EVIL[r_mean];
        s.checkpoint = match ck_sel {
            0 => None,
            1 => Some(CheckpointCfg::default()),
            // Possibly-inverted hysteresis, possibly non-finite.
            _ => Some(CheckpointCfg {
                suspend_threshold_fraction: EVIL[ck_lo],
                resume_threshold_fraction: EVIL[ck_hi],
                ..CheckpointCfg::default()
            }),
        };
        s.scaling = match sc_sel {
            0 => None,
            1 => Some(ScalingPolicy::Static {
                budget: Power::from_watts(1000.0),
            }),
            _ => Some(ScalingPolicy::Linear {
                floor: Power::from_watts(100.0),
                ceiling: Power::from_watts(1000.0),
                ci_low: EVIL[sc_val],
                ci_high: EVIL[sc_val] + 1.0,
            }),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| run(&s, &RunCtl::unlimited())));
        prop_assert!(outcome.is_ok(), "run unwound instead of returning Err");
        // Known-bad inputs must be *rejected*, not silently accepted.
        if let Ok(result) = outcome {
            if EVIL[w_arr].is_nan() || EVIL[r_mean] <= 0.0 || days < 2 {
                prop_assert!(result.is_err(), "degenerate scenario accepted");
            }
        }
    }

    /// `simulate_with_ctl` with degenerate simulator configs: zero tick,
    /// zero max_steps, empty cluster, inverted hysteresis — typed errors
    /// only.
    #[test]
    fn sim_config_simulate_with_ctl_never_unwinds(
        nodes in 0u32..4,
        tick_sel in 0usize..3,
        steps_sel in 0usize..3,
        ck_lo in 0usize..EVIL.len(),
        ck_hi in 0usize..EVIL.len(),
    ) {
        parallelism_init();
        let mut cfg = SimConfig::easy(Cluster::new(1));
        // Degenerate cluster built literally: the asserting constructor
        // cannot express it, but a deserialized config could.
        cfg.cluster = Cluster {
            nodes,
            idle_node_power: Power::from_watts(120.0),
        };
        cfg.tick = [
            SimDuration::from_secs(0.0),
            SimDuration::from_hours(1.0),
            SimDuration::from_secs(1.0),
        ][tick_sel];
        cfg.max_steps = [0u64, 1, 1000][steps_sel];
        cfg.checkpoint = Some(CheckpointCfg {
            suspend_threshold_fraction: EVIL[ck_lo],
            resume_threshold_fraction: EVIL[ck_hi],
            ..CheckpointCfg::default()
        });
        let outcome =
            catch_unwind(AssertUnwindSafe(|| simulate_with_ctl(&[], &cfg, &RunCtl::unlimited())));
        prop_assert!(outcome.is_ok(), "simulate_with_ctl unwound");
        if let Ok(result) = outcome {
            if nodes == 0 || tick_sel == 0 || steps_sel == 0 || EVIL[ck_lo].is_nan() {
                prop_assert!(result.is_err(), "degenerate SimConfig accepted");
            }
        }
    }

    /// `SweepPlan` fault isolation under random failure patterns: every
    /// panicking point yields its own error, every other point its value,
    /// in input order.
    #[test]
    fn try_sweep_isolates_random_failures(
        n in 1usize..20,
        fail_mask in 0u32..1_048_576,
    ) {
        parallelism_init();
        let points: Vec<usize> = (0..n).collect();
        let ctl = RunCtl::unlimited();
        let results = SweepPlan::new(&points, &ctl)
            .run(|&i, _| {
                assert!(fail_mask & (1 << i) == 0, "chaos-injected failure");
                Ok(i * 3)
            })
            .expect("no cancellation");
        prop_assert_eq!(results.len(), n);
        for (i, r) in results.iter().enumerate() {
            if fail_mask & (1 << i) != 0 {
                let e = r.result.as_ref().expect_err("injected failure must surface");
                prop_assert!(
                    matches!(e, SimError::Faulted { unit, .. } if *unit == format!("sweep point {i}")),
                    "{e}"
                );
            } else {
                prop_assert_eq!(r.result.as_ref().ok().copied(), Some(i * 3));
            }
        }
    }
}

/// Every parameterized experiment entry point rejects degenerate
/// horizons with a typed error — no unwind, nonempty message.
#[test]
fn experiment_entry_points_reject_degenerate_days() {
    for days in [0usize, 1] {
        let errs: Vec<SimError> = [
            carbon_aware_power_scaling(Region::Finland, days, 1).err(),
            malleability_under_power(Region::GreatBritain, days, 1).err(),
            carbon_aware_scheduling(Region::Finland, days, 1).err(),
            green_threshold_sweep(Region::Finland, days, 1).err(),
            checkpoint_overhead_sweep(Region::Finland, days, 1).err(),
            malleable_fraction_sweep(Region::GreatBritain, days, 1).err(),
            forecast_scaling_ablation(Region::Finland, days, 1).err(),
            backfill_flavour_sweep(Region::Germany, days, 1).err(),
            user_overallocation(Region::Germany, days, 1).err(),
        ]
        .into_iter()
        .map(|e| e.expect("days < 2 must be rejected"))
        .collect();
        for e in errs {
            assert!(e.to_string().contains("days"), "unhelpful error: {e}");
        }
    }
    // A6 needs no calibration: days=1 is legal, days=0 is not.
    assert!(failure_resilience_sweep(0, 1).is_err());
    // E4's axis needs two endpoints.
    assert!(renewable_share_sweep(0).is_err());
    assert!(renewable_share_sweep(1).is_err());
}

/// The minimal valid horizon goes through end to end.
#[test]
fn experiment_entry_points_accept_minimal_valid_inputs() {
    let rows = backfill_flavour_sweep(Region::Germany, 2, 7).expect("valid horizon");
    assert_eq!(rows.len(), 3);
    let rows = renewable_share_sweep(2).expect("two steps span the axis");
    assert_eq!(rows.len(), 2);
    let rows = failure_resilience_sweep(1, 7).expect("one day is legal for A6");
    assert_eq!(rows.len(), 8);
}

/// The documented degenerate cases are rejected by `validate()` itself.
#[test]
fn validate_rejects_documented_degenerates() {
    // Inverted checkpoint hysteresis: resume above suspend.
    let inverted = CheckpointCfg {
        suspend_threshold_fraction: 0.5,
        resume_threshold_fraction: 0.9,
        ..CheckpointCfg::default()
    };
    let e = inverted.validate().unwrap_err();
    assert!(e.to_string().contains("resume"), "{e}");

    // Zero durations.
    let zero_interval = CheckpointCfg {
        interval: SimDuration::from_secs(0.0),
        ..CheckpointCfg::default()
    };
    assert!(zero_interval.validate().is_err());

    // Non-finite floats.
    let w = WorkloadConfig {
        runtime_log_mean: f64::INFINITY,
        ..WorkloadConfig::default()
    };
    assert!(w.validate().is_err());
    let nan_linear = ScalingPolicy::Linear {
        floor: Power::from_watts(1.0),
        ceiling: Power::from_watts(2.0),
        ci_low: f64::NAN,
        ci_high: 1.0,
    };
    assert!(nan_linear.validate().is_err());

    // Negative ranges.
    let mut r = RegionProfile::january_2023(Region::Poland);
    r.noise_std = -0.1;
    assert!(r.validate().is_err());
}

/// A bounded cache never exceeds its capacity under churn, and live
/// entries keep `Arc` identity.
#[test]
fn trace_cache_respects_capacity_under_churn() {
    let cache = TraceCache::with_capacity(3);
    let profiles: Vec<RegionProfile> = Region::ALL
        .iter()
        .map(|&r| RegionProfile::january_2023(r))
        .collect();
    for pass in 0..3 {
        for p in &profiles {
            let a = cache.get_or_generate(p, 2, 9);
            let b = cache.get_or_generate(p, 2, 9);
            assert!(
                std::sync::Arc::ptr_eq(&a, &b),
                "live entry lost Arc identity on pass {pass}"
            );
            assert!(cache.len() <= 3, "capacity exceeded: {}", cache.len());
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.capacity, 3);
    assert!(stats.len <= 3);
    assert!(stats.evictions > 0, "churn over 10 regions must evict");
    assert!(stats.hits > 0 && stats.misses > 0);
}
