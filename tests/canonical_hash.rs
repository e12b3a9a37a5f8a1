//! Canonical-hash contract tests backing the memoization layers:
//!
//! * serde round-trips preserve the hash (a config that survives a
//!   JSON journey still addresses the same cache entry);
//! * flipping any single scenario field changes the hash (no two
//!   distinct inputs silently share an entry);
//! * floats hash at the bit level — `-0.0` and `0.0` hash differently,
//!   and NaN payloads are significant (the documented rule: hash
//!   equality tracks input *identity*, not numeric equality);
//! * the soundness oracle: hash-equal scenarios produce byte-equal
//!   results even with the outcome cache disabled, so a cache hit can
//!   never change an answer.

use proptest::prelude::*;
use sustain_hpc::core::cache::{global_outcome_cache, DEFAULT_OUTCOME_CACHE_CAPACITY};
use sustain_hpc::core::prelude::*;
use sustain_hpc::power::pue::PueModel;
use sustain_hpc::scheduler::queue::QueueSet;
use sustain_hpc::sim_core::hash::{CanonicalHash, CanonicalHasher};
use sustain_hpc::sim_core::time::SimDuration;

fn hash_f64(v: f64) -> u64 {
    let mut hasher = CanonicalHasher::new();
    hasher.write_f64(v);
    hasher.finish()
}

#[test]
fn floats_hash_at_the_bit_level() {
    // -0.0 == 0.0 numerically, but they are different inputs: a cache
    // keyed on numeric equality would have to prove the simulation
    // cannot distinguish them; bit-level keying sidesteps the proof.
    assert_ne!(hash_f64(0.0), hash_f64(-0.0));
    // NaN != NaN numerically, yet an input NaN deterministically yields
    // whatever it yields: identical payloads must share an entry, and
    // distinct payloads must not.
    let nan = f64::NAN;
    let other_payload = f64::from_bits(nan.to_bits() ^ 1);
    assert_eq!(hash_f64(nan), hash_f64(nan));
    assert_ne!(hash_f64(nan), hash_f64(other_payload));
}

/// One small, fast scenario used by the flip and oracle tests.
fn base_scenario() -> Scenario {
    let mut s = Scenario::baseline(
        "canonical-hash",
        RegionProfile::january_2023(Region::Germany),
        2,
    );
    s.cluster = Cluster::new(16);
    s.workload.arrivals_per_hour = 0.5;
    s.workload.max_nodes = 8;
    s.seed = 0x00C4_0FF3;
    s
}

#[test]
fn every_scenario_field_feeds_the_hash() {
    let base = base_scenario();
    let base_hash = base.canonical_hash();
    assert_eq!(
        base_hash,
        base_scenario().canonical_hash(),
        "hashing is deterministic"
    );

    type Flip = (&'static str, Box<dyn Fn(&mut Scenario)>);
    let flips: Vec<Flip> = vec![
        ("name", Box::new(|s| s.name.push('!'))),
        ("cluster.nodes", Box::new(|s| s.cluster.nodes += 1)),
        (
            "cluster.idle_node_power",
            Box::new(|s| s.cluster.idle_node_power = Power::from_watts(999.0)),
        ),
        (
            "region.mean_g_per_kwh",
            Box::new(|s| s.region.mean_g_per_kwh += 1.0),
        ),
        ("days", Box::new(|s| s.days += 1)),
        (
            "workload.arrivals_per_hour",
            Box::new(|s| s.workload.arrivals_per_hour += 0.25),
        ),
        (
            "workload.max_runtime",
            Box::new(|s| s.workload.max_runtime = SimDuration::from_hours(24.0)),
        ),
        (
            "workload.node_power_range_w",
            Box::new(|s| s.workload.node_power_range_w.1 += 10.0),
        ),
        ("policy", Box::new(|s| s.policy = Policy::Fcfs)),
        (
            "policy carbon cfg",
            Box::new(|s| s.policy = Policy::CarbonAware(CarbonAwareCfg::default())),
        ),
        (
            "queues",
            Box::new(|s| s.queues = Some(QueueSet::typical(s.cluster.nodes))),
        ),
        (
            "scaling",
            Box::new(|s| {
                s.scaling = Some(ScalingPolicy::Static {
                    budget: Power::from_watts(5_000.0),
                })
            }),
        ),
        (
            "checkpoint",
            Box::new(|s| s.checkpoint = Some(CheckpointCfg::default())),
        ),
        ("malleable", Box::new(|s| s.malleable = true)),
        ("pue", Box::new(|s| s.pue = PueModel::legacy_aircooled())),
        ("seed", Box::new(|s| s.seed += 1)),
    ];

    for (field, flip) in &flips {
        let mut flipped = base_scenario();
        flip(&mut flipped);
        assert_ne!(
            flipped.canonical_hash(),
            base_hash,
            "flipping {field} must change the canonical hash"
        );
    }
}

/// The memoization soundness oracle: two independently constructed,
/// hash-equal scenarios produce byte-equal result JSON *with the
/// outcome cache disabled* — purity is a property of the simulation,
/// not an artifact of the cache returning stored bytes.
#[test]
fn hash_equal_scenarios_produce_byte_equal_results() {
    let a = base_scenario();
    let b = base_scenario();
    assert_eq!(a.canonical_hash(), b.canonical_hash());

    let cache = global_outcome_cache();
    cache.set_capacity(0);
    let result = std::panic::catch_unwind(|| {
        let ra = run(&a, &RunCtl::unlimited()).expect("valid scenario");
        let rb = run(&b, &RunCtl::unlimited()).expect("valid scenario");
        (
            serde_json::to_string(&ra).expect("serializable"),
            serde_json::to_string(&rb).expect("serializable"),
        )
    });
    cache.set_capacity(DEFAULT_OUTCOME_CACHE_CAPACITY);
    let (ja, jb) = result.expect("runs with the cache disabled");
    assert_eq!(ja, jb, "hash-equal scenarios must be byte-equal");
}

proptest! {
    /// A `WorkloadConfig` that survives a JSON round trip still has the
    /// same canonical hash — JSON float formatting is shortest-round-
    /// trip, so the bits (and therefore the cache key) are preserved.
    #[test]
    fn workload_config_serde_round_trip_preserves_hash(
        arrivals in 0.01f64..50.0,
        diurnal in 0.0f64..0.99,
        log_mean in 1.0f64..12.0,
        log_std in 0.1f64..3.0,
        max_runtime_h in 0.5f64..100.0,
        max_nodes in 1u32..2048,
        malleable in 0.0f64..1.0,
        checkpointable in 0.0f64..1.0,
        users in 1u32..500,
        power_lo in 50.0f64..400.0,
        power_span in 1.0f64..600.0,
    ) {
        let cfg = WorkloadConfig {
            arrivals_per_hour: arrivals,
            diurnal_amplitude: diurnal,
            runtime_log_mean: log_mean,
            runtime_log_std: log_std,
            max_runtime: SimDuration::from_hours(max_runtime_h),
            max_nodes,
            malleable_fraction: malleable,
            checkpointable_fraction: checkpointable,
            users,
            node_power_range_w: (power_lo, power_lo + power_span),
            ..WorkloadConfig::default()
        };
        let json = serde_json::to_string(&cfg).expect("serializable");
        let back: WorkloadConfig = serde_json::from_str(&json).expect("deserializable");
        prop_assert_eq!(back.canonical_hash(), cfg.canonical_hash());
        prop_assert_eq!(back, cfg);
    }

    /// Same contract for `RegionProfile`.
    #[test]
    fn region_profile_serde_round_trip_preserves_hash(
        name_tag in any::<u32>(),
        mean in 10.0f64..1500.0,
        diurnal in 0.0f64..0.5,
        solar in 0.0f64..0.5,
        syn_std in 0.0f64..200.0,
        corr in 1.0f64..200.0,
        noise in 0.0f64..50.0,
        weekend in 0.0f64..0.5,
    ) {
        let profile = RegionProfile {
            name: format!("region-{name_tag:08x}"),
            mean_g_per_kwh: mean,
            diurnal_amplitude: diurnal,
            solar_dip: solar,
            synoptic_std: syn_std,
            synoptic_corr_hours: corr,
            noise_std: noise,
            weekend_drop: weekend,
        };
        let json = serde_json::to_string(&profile).expect("serializable");
        let back: RegionProfile = serde_json::from_str(&json).expect("deserializable");
        prop_assert_eq!(back.canonical_hash(), profile.canonical_hash());
        prop_assert_eq!(back, profile);
    }

    /// Same contract for `CheckpointCfg` (durations included).
    #[test]
    fn checkpoint_cfg_serde_round_trip_preserves_hash(
        suspend in 1.0f64..2.0,
        resume_gap in 0.0f64..0.5,
        overhead_min in 0.0f64..30.0,
        restart_min in 0.0f64..30.0,
        min_remaining_h in 0.0f64..4.0,
        interval_h in 0.1f64..8.0,
    ) {
        let cfg = CheckpointCfg {
            suspend_threshold_fraction: suspend,
            resume_threshold_fraction: suspend - resume_gap,
            checkpoint_overhead: SimDuration::from_mins(overhead_min),
            restart_overhead: SimDuration::from_mins(restart_min),
            min_remaining: SimDuration::from_hours(min_remaining_h),
            interval: SimDuration::from_hours(interval_h),
        };
        let json = serde_json::to_string(&cfg).expect("serializable");
        let back: CheckpointCfg = serde_json::from_str(&json).expect("deserializable");
        prop_assert_eq!(back.canonical_hash(), cfg.canonical_hash());
        prop_assert_eq!(back, cfg);
    }

    /// Distinct seeds produce distinct scenario hashes across the whole
    /// u64 range — the seed is part of the content address.
    #[test]
    fn distinct_seeds_hash_distinctly(a in any::<u64>(), b in any::<u64>()) {
        let mut sa = base_scenario();
        sa.seed = a;
        let mut sb = base_scenario();
        sb.seed = b;
        if a == b {
            prop_assert_eq!(sa.canonical_hash(), sb.canonical_hash());
        } else {
            prop_assert_ne!(sa.canonical_hash(), sb.canonical_hash());
        }
    }
}
