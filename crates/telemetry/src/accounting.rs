//! Per-job and per-user carbon accounting (§3.4).
//!
//! The paper: *"extend operational data analytics tools ... to quantify
//! and aggregate carbon emissions data derived from submitted HPC jobs;
//! only then a comprehensive HPC job carbon profile can be established and
//! integrated into job reports."* This module turns scheduler
//! [`JobRecord`]s plus a grid [`CarbonTrace`] into exactly that profile.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use sustain_grid::green::GreenDetector;
use sustain_grid::trace::CarbonTrace;
use sustain_scheduler::metrics::JobRecord;
use sustain_sim_core::units::{Carbon, Energy};
use sustain_workload::job::JobId;

/// Carbon profile of one job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobCarbonProfile {
    /// Job id.
    pub id: JobId,
    /// Owning user.
    pub user: u32,
    /// Total energy.
    pub energy: Energy,
    /// Total operational carbon.
    pub carbon: Carbon,
    /// Node-seconds consumed.
    pub node_seconds: f64,
    /// Fraction of the job's energy drawn during green periods.
    pub green_energy_fraction: f64,
    /// Emission-weighted intensity paid, g/kWh.
    pub effective_ci: f64,
}

/// Builds a job's carbon profile from its record and the grid trace.
///
/// "Green period" here is the paper's §3.3 definition as implemented by
/// [`GreenDetector`]: a trace bucket is green when its intensity lies
/// strictly below `threshold_fraction` × the mean of *all* the trace's
/// samples — the location's average over the whole trace horizon, not
/// a per-day or rolling mean. Energy is green when it is drawn inside a
/// green bucket: each segment is split at bucket boundaries and every
/// piece is classified by the bucket it lies in, so a segment that
/// starts or ends mid-bucket contributes exactly its share. Time past
/// either end of the trace takes the clamped edge value, as everywhere
/// else in `series`.
pub fn profile_job(
    record: &JobRecord,
    trace: &CarbonTrace,
    detector: &GreenDetector,
) -> JobCarbonProfile {
    let energy = record.energy();
    let carbon = record.carbon(trace);
    // Green share: split each segment at trace-bucket boundaries and
    // classify every piece by the bucket it lies in.
    let threshold = detector.threshold_for(trace);
    let mut green_energy = 0.0;
    for seg in &record.segments {
        let mut t = seg.start;
        while t < seg.end {
            let seg_end = trace.bucket_end_after(t).min(seg.end);
            let e = seg.power.for_duration(seg_end - t).kwh();
            if trace.at(t).grams_per_kwh() < threshold {
                green_energy += e;
            }
            t = seg_end;
        }
    }
    let total_kwh = energy.kwh();
    JobCarbonProfile {
        id: record.id,
        user: record.user,
        energy,
        carbon,
        node_seconds: record.node_seconds(),
        green_energy_fraction: if total_kwh > 0.0 {
            green_energy / total_kwh
        } else {
            0.0
        },
        effective_ci: if total_kwh > 0.0 {
            carbon.grams() / total_kwh
        } else {
            0.0
        },
    }
}

/// Aggregate carbon account of one user.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct UserAccount {
    /// Jobs completed.
    pub jobs: usize,
    /// Total energy.
    pub energy: Energy,
    /// Total carbon.
    pub carbon: Carbon,
    /// Total node-seconds.
    pub node_seconds: f64,
}

/// Aggregates job profiles per user.
pub fn aggregate_by_user(profiles: &[JobCarbonProfile]) -> BTreeMap<u32, UserAccount> {
    let mut map: BTreeMap<u32, UserAccount> = BTreeMap::new();
    for p in profiles {
        let acc = map.entry(p.user).or_default();
        acc.jobs += 1;
        acc.energy += p.energy;
        acc.carbon += p.carbon;
        acc.node_seconds += p.node_seconds;
    }
    map
}

/// Site-level summary across all profiles.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SiteAccount {
    /// Jobs profiled.
    pub jobs: usize,
    /// Total energy.
    pub energy: Energy,
    /// Total carbon.
    pub carbon: Carbon,
    /// Mean green-energy fraction (energy-weighted).
    pub green_energy_fraction: f64,
}

/// Aggregates profiles into the site account.
pub fn site_account(profiles: &[JobCarbonProfile]) -> SiteAccount {
    let energy: Energy = profiles.iter().map(|p| p.energy).sum();
    let carbon: Carbon = profiles.iter().map(|p| p.carbon).sum();
    let green_kwh: f64 = profiles
        .iter()
        .map(|p| p.energy.kwh() * p.green_energy_fraction)
        .sum();
    SiteAccount {
        jobs: profiles.len(),
        energy,
        carbon,
        green_energy_fraction: if energy.kwh() > 0.0 {
            green_kwh / energy.kwh()
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sustain_scheduler::metrics::Segment;
    use sustain_sim_core::series::TimeSeries;
    use sustain_sim_core::time::{SimDuration, SimTime};
    use sustain_sim_core::units::Power;

    fn trace() -> CarbonTrace {
        // 4 h: green, green, dirty, dirty (mean 250; detector 0.9 → 225).
        CarbonTrace::new(
            "t",
            TimeSeries::new(
                SimTime::ZERO,
                SimDuration::from_hours(1.0),
                vec![100.0, 100.0, 400.0, 400.0],
            ),
        )
    }

    fn record(user: u32, start_h: f64, end_h: f64) -> JobRecord {
        JobRecord {
            id: JobId(start_h as u64 + 1),
            user,
            submit: SimTime::ZERO,
            start: SimTime::from_hours(start_h),
            end: SimTime::from_hours(end_h),
            segments: vec![Segment {
                start: SimTime::from_hours(start_h),
                end: SimTime::from_hours(end_h),
                nodes: 2,
                power: Power::from_kw(1.0),
            }],
            suspensions: 0,
            reshapes: 0,
            restarts: 0,
        }
    }

    #[test]
    fn profile_green_job() {
        let p = profile_job(&record(1, 0.0, 2.0), &trace(), &GreenDetector::default());
        assert!((p.energy.kwh() - 2.0).abs() < 1e-9);
        assert!((p.carbon.grams() - 200.0).abs() < 1e-6);
        assert!((p.green_energy_fraction - 1.0).abs() < 1e-9);
        assert!((p.effective_ci - 100.0).abs() < 1e-9);
    }

    #[test]
    fn profile_mixed_job() {
        // Runs hours 1-3: one green hour, one dirty hour.
        let p = profile_job(&record(1, 1.0, 3.0), &trace(), &GreenDetector::default());
        assert!((p.green_energy_fraction - 0.5).abs() < 1e-9);
        assert!((p.carbon.grams() - 500.0).abs() < 1e-6);
        assert!((p.effective_ci - 250.0).abs() < 1e-9);
    }

    #[test]
    fn green_energy_matches_hand_integration_over_days() {
        // Three days, hourly. Day 0 is dirty (300 g/kWh at night, 400 by
        // day), day 1 clean (100 / 200), day 2 flat at 300. Whole-trace
        // mean = (375 + 175 + 300) / 3 = 283.3; threshold 0.9 × that =
        // 255. So every day-1 bucket is green and no other is — even
        // though day 0's night (300) sits below day 0's own 0.9 × 375.
        let mut values = Vec::new();
        for (night, day) in [(300.0, 400.0), (100.0, 200.0), (300.0, 300.0)] {
            values.extend([night; 6]);
            values.extend([day; 18]);
        }
        let tr = CarbonTrace::new(
            "three-days",
            TimeSeries::new(SimTime::ZERO, SimDuration::from_hours(1.0), values),
        );
        let det = GreenDetector::default();
        assert!((det.threshold_for(&tr) - 255.0).abs() < 1e-9);

        let h = |hours: f64, minutes: f64| SimTime::from_secs(hours * 3600.0 + minutes * 60.0);
        let seg = |start, end, kw| Segment {
            start,
            end,
            nodes: 1,
            power: Power::from_kw(kw),
        };
        let rec = JobRecord {
            segments: vec![
                // Day 0 04:30 → day 1 01:15 at 2 kW: only the last
                // 1.25 h are green.
                seg(h(4.0, 30.0), h(25.0, 15.0), 2.0),
                // Day 1 05:10 → 05:50 at 1.5 kW, inside one green bucket.
                seg(h(29.0, 10.0), h(29.0, 50.0), 1.5),
                // Day 1 22:40 → day 2 00:20 at 3 kW: the first 80 min
                // are green.
                seg(h(46.0, 40.0), h(48.0, 20.0), 3.0),
            ],
            ..record(1, 4.5, 48.0 + 1.0 / 3.0)
        };
        let p = profile_job(&rec, &tr, &det);

        // Energy: 2 kW × 20.75 h + 1.5 kW × 2/3 h + 3 kW × 5/3 h.
        let total_kwh = 41.5 + 1.0 + 5.0;
        // Green: 2 kW × 1.25 h + 1.5 kW × 2/3 h + 3 kW × 4/3 h.
        let green_kwh = 2.5 + 1.0 + 4.0;
        // Carbon, g: segment 1 = 3 kWh × 300 + 36 kWh × 400 + 2.5 kWh ×
        // 100; segment 2 = 1 kWh × 100; segment 3 = 4 kWh × 200 +
        // 1 kWh × 300.
        let grams = 900.0 + 14_400.0 + 250.0 + 100.0 + 800.0 + 300.0;
        assert!((p.energy.kwh() - total_kwh).abs() < 1e-9);
        assert!((p.green_energy_fraction - green_kwh / total_kwh).abs() < 1e-12);
        assert!((p.carbon.grams() - grams).abs() < 1e-6);
        assert!((p.effective_ci - grams / total_kwh).abs() < 1e-9);
    }

    #[test]
    fn user_aggregation() {
        let tr = trace();
        let det = GreenDetector::default();
        let profiles = vec![
            profile_job(&record(1, 0.0, 1.0), &tr, &det),
            profile_job(&record(1, 2.0, 3.0), &tr, &det),
            profile_job(&record(2, 1.0, 2.0), &tr, &det),
        ];
        let by_user = aggregate_by_user(&profiles);
        assert_eq!(by_user.len(), 2);
        assert_eq!(by_user[&1].jobs, 2);
        assert!((by_user[&1].energy.kwh() - 2.0).abs() < 1e-9);
        // User 1: 100 g (green hour) + 400 g (dirty hour).
        assert!((by_user[&1].carbon.grams() - 500.0).abs() < 1e-6);
        assert_eq!(by_user[&2].jobs, 1);
    }

    #[test]
    fn site_summary_energy_weighted() {
        let tr = trace();
        let det = GreenDetector::default();
        let profiles = vec![
            profile_job(&record(1, 0.0, 2.0), &tr, &det), // 2 kWh green
            profile_job(&record(2, 2.0, 3.0), &tr, &det), // 1 kWh dirty
        ];
        let site = site_account(&profiles);
        assert_eq!(site.jobs, 2);
        assert!((site.energy.kwh() - 3.0).abs() < 1e-9);
        assert!((site.green_energy_fraction - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_profiles_are_safe() {
        let site = site_account(&[]);
        assert_eq!(site.jobs, 0);
        assert_eq!(site.green_energy_fraction, 0.0);
    }
}
