//! Property-based tests (proptest) on the core invariants of every
//! substrate: scheduler feasibility, time-series integration bounds,
//! speedup monotonicity, carbon accounting linearity, and yield-model
//! ranges.

use proptest::prelude::*;
use sustain_hpc::carbon_model::process::{FabProfile, TechnologyNode, YieldModel};
use sustain_hpc::grid::trace::CarbonTrace;
use sustain_hpc::scheduler::cluster::Cluster;
use sustain_hpc::scheduler::sim::{simulate, Policy, SimConfig};
use sustain_hpc::sim_core::series::TimeSeries;
use sustain_hpc::sim_core::time::{SimDuration, SimTime};
use sustain_hpc::workload::job::JobBuilder;
use sustain_hpc::workload::phases::{run_phases, synth_phases, CountdownGovernor, CpuFreqModel};
use sustain_hpc::workload::speedup::SpeedupModel;

proptest! {
    /// Time-series step integration is bounded by min/max times the window
    /// and is additive over adjacent windows.
    #[test]
    fn series_integration_bounds(
        values in prop::collection::vec(0.0f64..1000.0, 2..50),
        split_frac in 0.1f64..0.9,
    ) {
        let ts = TimeSeries::new(SimTime::ZERO, SimDuration::from_hours(1.0), values.clone());
        let end = ts.end();
        let whole = ts.integrate(SimTime::ZERO, end);
        let lo = ts.min() * end.as_secs();
        let hi = ts.max() * end.as_secs();
        prop_assert!(whole >= lo - 1e-6 && whole <= hi + 1e-6);
        // Additivity.
        let mid = SimTime::from_secs(end.as_secs() * split_frac);
        let parts = ts.integrate(SimTime::ZERO, mid) + ts.integrate(mid, end);
        prop_assert!((whole - parts).abs() < 1e-6 * whole.abs().max(1.0));
    }

    /// Speedup models: monotone non-decreasing in nodes, efficiency
    /// monotone non-increasing, both within physical ranges.
    #[test]
    fn speedup_model_properties(
        serial in 0.0f64..0.5,
        alpha in 0.05f64..1.0,
        overhead in 0.0f64..0.2,
    ) {
        let models = [
            SpeedupModel::Amdahl { serial_fraction: serial },
            SpeedupModel::PowerLaw { alpha },
            SpeedupModel::Communication { overhead },
        ];
        for m in models {
            let mut last_s = 0.0;
            let mut last_e = f64::INFINITY;
            for n in 1..=64u32 {
                let s = m.speedup(n);
                let e = m.efficiency(n);
                prop_assert!(s >= last_s - 1e-9, "{m:?} speedup not monotone at {n}");
                prop_assert!(e <= last_e + 1e-9, "{m:?} efficiency not monotone at {n}");
                prop_assert!(s <= n as f64 + 1e-9, "superlinear speedup {s} at {n}");
                prop_assert!(e > 0.0 && e <= 1.0 + 1e-9);
                last_s = s;
                last_e = e;
            }
        }
    }

    /// Yield models produce probabilities, and yield decreases with both
    /// area and defect density.
    #[test]
    fn yield_model_ranges(area in 0.01f64..20.0, d0 in 0.0f64..1.0) {
        for m in [YieldModel::Murphy, YieldModel::Poisson] {
            let y = m.yield_for(area, d0);
            prop_assert!((0.0..=1.0).contains(&y));
            let y_bigger = m.yield_for(area * 2.0, d0);
            prop_assert!(y_bigger <= y + 1e-12);
            let y_dirtier = m.yield_for(area, d0 + 0.1);
            prop_assert!(y_dirtier <= y + 1e-12);
        }
    }

    /// Die carbon scales super-linearly in area (yield premium) and
    /// linearly in fab carbon intensity's energy share.
    #[test]
    fn die_carbon_monotone(area in 0.1f64..10.0) {
        let fab = FabProfile::for_node(TechnologyNode::N7);
        let c1 = fab.die_carbon(area).kg();
        let c2 = fab.die_carbon(area * 2.0).kg();
        prop_assert!(c2 >= 2.0 * c1 - 1e-9, "no yield premium: {c1} vs {c2}");
    }

    /// Scheduler feasibility for arbitrary small job sets: every job
    /// completes, node allocations never exceed the cluster, no job
    /// starts before submission, and segments are well-formed. Walltime
    /// overestimates make conservative reservations outlast the jobs, so
    /// later passes re-plan against stale profiles; alternating
    /// generous/tight power budgets power-block `start == now` candidates
    /// so the conservative commit loop takes its reservation fallback.
    #[test]
    fn scheduler_feasibility(
        jobs_spec in prop::collection::vec(
            (1u32..16, 60.0f64..7200.0, 0.0f64..86400.0, 0.0f64..14400.0),
            1..25,
        ),
        policy_idx in 0usize..3,
        budget_sel in 0usize..3,
    ) {
        let cluster_nodes = 16u32;
        let jobs: Vec<_> = jobs_spec
            .iter()
            .enumerate()
            .map(|(i, &(nodes, runtime_s, submit_s, over_s))| {
                JobBuilder::new(
                    i as u64 + 1,
                    SimTime::from_secs(submit_s),
                    nodes,
                    SimDuration::from_secs(runtime_s),
                )
                .walltime(SimDuration::from_secs(runtime_s + over_s))
                .build()
            })
            .collect();
        let policy = [Policy::Fcfs, Policy::EasyBackfill, Policy::ConservativeBackfill][policy_idx]
            .clone();
        let mut cfg = SimConfig {
            policy,
            ..SimConfig::easy(Cluster::new(cluster_nodes))
        };
        if budget_sel > 0 {
            // 6-hour blocks alternating between a budget the whole
            // cluster fits under (16 × 500 W) and a tight level.
            let tight = [4_000.0, 1_500.0][budget_sel - 1];
            let values: Vec<f64> = (0..400)
                .map(|i| if i % 2 == 0 { 40_000.0 } else { tight })
                .collect();
            cfg.power_budget = Some(TimeSeries::new(
                SimTime::ZERO,
                SimDuration::from_hours(6.0),
                values,
            ));
        }
        let out = simulate(&jobs, &cfg);
        prop_assert_eq!(out.unfinished, 0);
        prop_assert_eq!(out.records.len(), jobs.len());
        for (rec, job) in out.records.iter().zip(&jobs) {
            prop_assert_eq!(rec.id, job.id);
            prop_assert!(rec.start >= job.submit);
            prop_assert!(rec.end > rec.start);
            for seg in &rec.segments {
                prop_assert!(seg.nodes <= cluster_nodes);
                prop_assert!(seg.end > seg.start);
            }
            // Compute time equals the requested runtime (rigid jobs, no
            // interruptions under these configs).
            let expect = job.runtime_requested().as_secs();
            prop_assert!((rec.compute_time().as_secs() - expect).abs() < 1e-6 * expect.max(1.0));
        }
        // Concurrency: sweep segment events; allocated nodes never exceed
        // the cluster.
        let mut events: Vec<(f64, i64)> = Vec::new();
        for rec in &out.records {
            for seg in &rec.segments {
                events.push((seg.start.as_secs(), seg.nodes as i64));
                events.push((seg.end.as_secs(), -(seg.nodes as i64)));
            }
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut used = 0i64;
        for (_, d) in events {
            used += d;
            prop_assert!(used <= cluster_nodes as i64);
        }
    }

    /// Carbon accounting linearity: doubling a trace's intensity doubles
    /// every window's emission.
    #[test]
    fn carbon_linearity(
        values in prop::collection::vec(1.0f64..1000.0, 2..48),
        from_frac in 0.0f64..0.5,
        to_frac in 0.5f64..1.0,
    ) {
        let n = values.len() as f64;
        let t1 = CarbonTrace::new(
            "a",
            TimeSeries::new(SimTime::ZERO, SimDuration::from_hours(1.0), values.clone()),
        );
        let doubled: Vec<f64> = values.iter().map(|v| v * 2.0).collect();
        let t2 = CarbonTrace::new(
            "b",
            TimeSeries::new(SimTime::ZERO, SimDuration::from_hours(1.0), doubled),
        );
        let from = SimTime::from_hours(n * from_frac);
        let to = SimTime::from_hours(n * to_frac);
        let e = sustain_hpc::sim_core::units::Energy::from_kwh(10.0);
        let c1 = e.carbon_at(t1.mean_over(from, to)).grams();
        let c2 = e.carbon_at(t2.mean_over(from, to)).grams();
        prop_assert!((c2 - 2.0 * c1).abs() < 1e-6 * c1.abs().max(1.0));
    }


    /// Countdown runtime: energy is bounded by [min-power, nominal-power]
    /// × wall time, the governor never changes wall time, and savings are
    /// non-negative.
    #[test]
    fn countdown_energy_bounds(
        iterations in 1usize..200,
        mean_iter_s in 1.0f64..60.0,
        comm in 0.0f64..0.9,
        seed in any::<u64>(),
    ) {
        let phases = synth_phases(iterations, mean_iter_s, comm, seed);
        let cpu = CpuFreqModel::default();
        let on = run_phases(&phases, &cpu, &CountdownGovernor::default());
        let off = run_phases(
            &phases,
            &cpu,
            &CountdownGovernor { enabled: false, ..CountdownGovernor::default() },
        );
        prop_assert_eq!(on.wall_time, off.wall_time);
        prop_assert!(on.energy <= off.energy);
        let wall = on.wall_time.as_secs();
        let lo = cpu.power_at(cpu.min_ghz).watts() * wall;
        let hi = cpu.power_at(cpu.nominal_ghz).watts() * wall;
        prop_assert!(on.energy.joules() >= lo - 1e-6);
        prop_assert!(on.energy.joules() <= hi + 1e-6);
        prop_assert!((0.0..=1.0).contains(&on.throttled_fraction));
    }

    /// Malleability protocol: an accepted grow offer always shortens the
    /// projected completion.
    #[test]
    fn malleable_decisions_consistent(
        current in 1u32..64,
        extra in 1u32..64,
        work in 10.0f64..1e6,
        cost_s in 0.0f64..600.0,
        serial in 0.0f64..0.3,
    ) {
        use sustain_hpc::scheduler::malleable::{evaluate_grow, OfferDecision};
        let proposed = current + extra;
        let model = SpeedupModel::Amdahl { serial_fraction: serial };
        let cap = 128u32;
        let decision = evaluate_grow(
            model,
            current,
            proposed,
            cap,
            work,
            sustain_hpc::sim_core::time::SimDuration::from_secs(cost_s),
        );
        let t_now = work / model.speedup(current.min(cap).max(1));
        let t_after = cost_s + work / model.speedup(proposed.min(cap).max(1));
        match decision {
            OfferDecision::Accept => prop_assert!(t_after < t_now),
            OfferDecision::Decline => prop_assert!(t_after >= t_now),
        }
    }

    /// Seasonal year synthesis: always 8760 hourly samples, all at or
    /// above the physical floor, and monthly means finite.
    #[test]
    fn seasonal_year_wellformed(seed in any::<u64>(), region_idx in 0usize..10) {
        use sustain_hpc::grid::region::{Region, RegionProfile};
        use sustain_hpc::grid::seasonal::{generate_year, monthly_means, SeasonalShape};
        let region = Region::ALL[region_idx];
        let year = generate_year(
            &RegionProfile::january_2023(region),
            &SeasonalShape::thermal_winter_peak(),
            seed,
        );
        prop_assert_eq!(year.series().len(), 8760);
        prop_assert!(year.series().min() >= 5.0);
        for (_, mean) in monthly_means(&year) {
            prop_assert!(mean.is_finite() && mean > 0.0);
        }
    }

    /// RNG determinism and stream independence hold for arbitrary seeds.
    #[test]
    fn rng_streams_deterministic(seed in any::<u64>()) {
        use sustain_hpc::sim_core::rng::RngStream;
        use rand::RngCore;
        let mut a = RngStream::new(seed);
        let mut b = RngStream::new(seed);
        for _ in 0..64 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        let root = RngStream::new(seed);
        let mut c = root.derive("x");
        let mut d = root.derive("y");
        let collisions = (0..64).filter(|_| c.next_u64() == d.next_u64()).count();
        prop_assert!(collisions <= 1);
    }
}
