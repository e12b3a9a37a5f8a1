//! User-facing job carbon reports (§3.4).
//!
//! The paper: carbon data should be "integrated into job reports, ensuring
//! accessibility to HPC users. Moreover, the carbon footprint data can
//! also be presented using analogies that resonate with typical HPC system
//! users. For example, by equating the emitted carbon to the carbon
//! produced by driving a car between two regions within a country."

use crate::accounting::JobCarbonProfile;
use serde::{Deserialize, Serialize};
use sustain_sim_core::units::Carbon;

/// Average combustion-car emissions, g CO₂e per km (EU fleet average).
pub(crate) const CAR_G_PER_KM: f64 = 120.0;

/// CO₂ sequestered by one tree in one year, kg.
pub(crate) const TREE_KG_PER_YEAR: f64 = 21.0;

/// Reference driving distances for the car analogy (the paper's "between
/// two regions within a country").
pub(crate) const DRIVES: [(&str, f64); 4] = [
    ("Munich → Garching", 13.0),
    ("Munich → Nuremberg", 170.0),
    ("Munich → Berlin", 585.0),
    ("Lisbon → Helsinki", 4_400.0),
];

/// Kilometres of average-car driving equivalent to `carbon`.
pub(crate) fn car_km_equivalent(carbon: Carbon) -> f64 {
    carbon.grams() / CAR_G_PER_KM
}

/// Tree-years of sequestration equivalent to `carbon`.
pub(crate) fn tree_years_equivalent(carbon: Carbon) -> f64 {
    carbon.kg() / TREE_KG_PER_YEAR
}

/// The longest reference drive not exceeding the carbon's car-km
/// equivalent, if any.
pub(crate) fn nearest_drive(carbon: Carbon) -> Option<(&'static str, f64)> {
    let km = car_km_equivalent(carbon);
    DRIVES.iter().rfind(|(_, d)| *d <= km).copied()
}

/// A rendered job carbon report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobReport {
    /// Job id value.
    pub job_id: u64,
    /// Energy, kWh.
    pub energy_kwh: f64,
    /// Carbon, kg CO₂e.
    pub carbon_kg: f64,
    /// Effective intensity paid, g/kWh.
    pub effective_ci: f64,
    /// Green-energy fraction.
    pub green_fraction: f64,
    /// Car-km analogy.
    pub car_km: f64,
    /// Human-readable analogy line.
    pub analogy: String,
}

/// Builds the report for one profile.
pub fn render(profile: &JobCarbonProfile) -> JobReport {
    let km = car_km_equivalent(profile.carbon);
    let analogy = match nearest_drive(profile.carbon) {
        Some((name, d)) => {
            format!("equivalent to driving {km:.0} km by car (more than {name}, {d:.0} km)")
        }
        None => format!("equivalent to driving {km:.1} km by car"),
    };
    JobReport {
        job_id: profile.id.0,
        energy_kwh: profile.energy.kwh(),
        carbon_kg: profile.carbon.kg(),
        effective_ci: profile.effective_ci,
        green_fraction: profile.green_energy_fraction,
        car_km: km,
        analogy,
    }
}

/// Formats the report as the text block appended to job epilogues.
pub fn to_text(report: &JobReport) -> String {
    format!(
        "==== Job {} carbon profile ====\n\
         energy:        {:.2} kWh\n\
         carbon:        {:.3} kg CO2e ({:.1} g/kWh effective)\n\
         green energy:  {:.1} %\n\
         analogy:       {}\n",
        report.job_id,
        report.energy_kwh,
        report.carbon_kg,
        report.effective_ci,
        report.green_fraction * 100.0,
        report.analogy
    )
}

/// Renders a site's monthly operations report as markdown: the §3.4
/// operational-data-analytics deliverable a center would publish to its
/// users (site totals, green share, top emitters, and the car analogy).
pub fn site_markdown_report(
    title: &str,
    site: &crate::accounting::SiteAccount,
    by_user: &std::collections::BTreeMap<u32, crate::accounting::UserAccount>,
    top_n: usize,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {title}\n\n"));
    out.push_str("## Site totals\n\n");
    out.push_str(&format!("- jobs completed: **{}**\n", site.jobs));
    out.push_str(&format!("- energy: **{:.1} MWh**\n", site.energy.mwh()));
    out.push_str(&format!(
        "- operational carbon: **{:.2} t CO2e** ({:.0} km by car)\n",
        site.carbon.tons(),
        car_km_equivalent(site.carbon)
    ));
    out.push_str(&format!(
        "- green-energy share: **{:.1} %**\n\n",
        site.green_energy_fraction * 100.0
    ));
    out.push_str(&format!("## Top {top_n} users by carbon\n\n"));
    out.push_str("| user | jobs | energy kWh | carbon kg | tree-years |\n");
    out.push_str("|---|---|---|---|---|\n");
    let mut users: Vec<_> = by_user.iter().collect();
    users.sort_by_key(|(_, acc)| std::cmp::Reverse(acc.carbon));
    for (user, acc) in users.into_iter().take(top_n) {
        out.push_str(&format!(
            "| {} | {} | {:.1} | {:.2} | {:.2} |\n",
            user,
            acc.jobs,
            acc.energy.kwh(),
            acc.carbon.kg(),
            tree_years_equivalent(acc.carbon)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sustain_sim_core::units::Energy;
    use sustain_workload::job::JobId;

    fn profile(carbon_kg: f64) -> JobCarbonProfile {
        JobCarbonProfile {
            id: JobId(42),
            user: 7,
            energy: Energy::from_kwh(100.0),
            carbon: Carbon::from_kg(carbon_kg),
            node_seconds: 1000.0,
            green_energy_fraction: 0.25,
            effective_ci: carbon_kg * 1000.0 / 100.0,
        }
    }

    #[test]
    fn car_km_math() {
        // 12 kg at 120 g/km = 100 km.
        assert!((car_km_equivalent(Carbon::from_kg(12.0)) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn tree_years_math() {
        assert!((tree_years_equivalent(Carbon::from_kg(42.0)) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn nearest_drive_selection() {
        // 2.4 kg → 20 km → beyond Garching (13) but short of Nuremberg.
        let d = nearest_drive(Carbon::from_kg(2.4)).unwrap();
        assert_eq!(d.0, "Munich → Garching");
        // 100 kg → 833 km → beyond Berlin.
        let d = nearest_drive(Carbon::from_kg(100.0)).unwrap();
        assert_eq!(d.0, "Munich → Berlin");
        // Tiny job: no reference drive.
        assert!(nearest_drive(Carbon::from_grams(100.0)).is_none());
    }

    #[test]
    fn render_and_text() {
        let r = render(&profile(24.0));
        assert_eq!(r.job_id, 42);
        assert!((r.car_km - 200.0).abs() < 1e-9);
        assert!(r.analogy.contains("Nuremberg"));
        let text = to_text(&r);
        assert!(text.contains("Job 42"));
        assert!(text.contains("24.000 kg CO2e"));
        assert!(text.contains("25.0 %"));
    }

    #[test]
    fn site_markdown_report_contents() {
        use crate::accounting::{SiteAccount, UserAccount};
        use sustain_sim_core::units::Energy;
        let site = SiteAccount {
            jobs: 42,
            energy: Energy::from_kwh(3500.0),
            carbon: Carbon::from_tons(1.2),
            green_energy_fraction: 0.31,
        };
        let mut by_user = std::collections::BTreeMap::new();
        by_user.insert(
            7,
            UserAccount {
                jobs: 10,
                energy: Energy::from_kwh(900.0),
                carbon: Carbon::from_kg(400.0),
                node_seconds: 1e6,
            },
        );
        by_user.insert(
            9,
            UserAccount {
                jobs: 2,
                energy: Energy::from_kwh(100.0),
                carbon: Carbon::from_kg(900.0),
                node_seconds: 2e5,
            },
        );
        let md = site_markdown_report("January report", &site, &by_user, 1);
        assert!(md.starts_with("# January report"));
        assert!(md.contains("**42**"));
        assert!(md.contains("3.5 MWh"));
        assert!(md.contains("31.0 %"));
        // Only the top-1 user appears, and it is the highest emitter (9).
        assert!(md.contains("| 9 | 2 |"));
        assert!(!md.contains("| 7 | 10 |"));
    }

    #[test]
    fn small_job_analogy_has_no_drive() {
        let r = render(&JobCarbonProfile {
            carbon: Carbon::from_grams(240.0),
            ..profile(0.0)
        });
        assert!((r.car_km - 2.0).abs() < 1e-9);
        assert!(!r.analogy.contains("more than"));
    }
}
