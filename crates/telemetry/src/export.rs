//! CSV export of job carbon profiles.
//!
//! Operational-data-analytics output must land in tools users already
//! have; CSV covers spreadsheets and plotting scripts (the profiles
//! serialize to JSON through serde for dashboards).

use crate::accounting::JobCarbonProfile;

/// Renders job carbon profiles as CSV.
pub fn profiles_to_csv(profiles: &[JobCarbonProfile]) -> String {
    let mut out = String::from(
        "job_id,user,energy_kwh,carbon_kg,node_seconds,green_energy_fraction,effective_ci_g_per_kwh\n",
    );
    for p in profiles {
        out.push_str(&format!(
            "{},{},{:.6},{:.6},{:.1},{:.4},{:.2}\n",
            p.id.0,
            p.user,
            p.energy.kwh(),
            p.carbon.kg(),
            p.node_seconds,
            p.green_energy_fraction,
            p.effective_ci
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sustain_sim_core::units::{Carbon, Energy};
    use sustain_workload::job::JobId;

    fn profile() -> JobCarbonProfile {
        JobCarbonProfile {
            id: JobId(3),
            user: 9,
            energy: Energy::from_kwh(12.5),
            carbon: Carbon::from_kg(3.75),
            node_seconds: 7200.0,
            green_energy_fraction: 0.4,
            effective_ci: 300.0,
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = profiles_to_csv(&[profile()]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("job_id,"));
        assert!(lines[1].starts_with("3,9,12.5"));
        assert!(lines[1].contains("0.4000"));
    }

    #[test]
    fn json_roundtrips() {
        let json = serde_json::to_string_pretty(&profile()).unwrap();
        let back: JobCarbonProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, profile());
    }
}
