//! Import of real carbon-intensity data.
//!
//! The synthetic generator reproduces the paper's published statistics,
//! but a site operator has real data (Electricity Maps exports, ENTSO-E
//! downloads). This module ingests the common CSV shape —
//! `timestamp,intensity` rows at a fixed cadence — into a
//! [`CarbonTrace`], so every policy and experiment in the workspace runs
//! unchanged on real traces.
//!
//! Accepted timestamp forms: integer epoch/offset seconds, or an index
//! implied by row order when the column is empty. Cadence is validated
//! (rows must be equally spaced).

use crate::trace::CarbonTrace;
use sustain_sim_core::series::TimeSeries;
use sustain_sim_core::time::{SimDuration, SimTime};

/// Error from parsing a carbon-intensity CSV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvImportError {
    /// 1-based line number (0 for structural errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for CsvImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "carbon CSV line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CsvImportError {}

/// Parses `timestamp_s,gco2_per_kwh` CSV text. A header row is detected
/// and skipped when its first field is not numeric. Timestamps are
/// rebased so the trace starts at simulation time zero.
pub fn parse_carbon_csv(name: &str, text: &str) -> Result<CarbonTrace, CsvImportError> {
    let mut rows: Vec<(f64, f64)> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split(',');
        let (a, b) = (
            parts.next().unwrap_or("").trim(),
            parts.next().unwrap_or("").trim(),
        );
        if parts.next().is_some() {
            return Err(CsvImportError {
                line: lineno + 1,
                message: "expected exactly two columns".into(),
            });
        }
        let ts: f64 = match a.parse() {
            Ok(v) => v,
            Err(_) if rows.is_empty() => continue, // header row
            Err(_) => {
                return Err(CsvImportError {
                    line: lineno + 1,
                    message: format!("bad timestamp: {a:?}"),
                })
            }
        };
        let ci: f64 = b.parse().map_err(|_| CsvImportError {
            line: lineno + 1,
            message: format!("bad intensity: {b:?}"),
        })?;
        if !ci.is_finite() || ci < 0.0 {
            return Err(CsvImportError {
                line: lineno + 1,
                message: format!("intensity out of range: {ci}"),
            });
        }
        rows.push((ts, ci));
    }
    if rows.len() < 2 {
        return Err(CsvImportError {
            line: 0,
            message: "need at least two data rows".into(),
        });
    }
    // Validate the cadence.
    let step = rows[1].0 - rows[0].0;
    if step <= 0.0 {
        return Err(CsvImportError {
            line: 2,
            message: "timestamps must be strictly increasing".into(),
        });
    }
    for (i, w) in rows.windows(2).enumerate() {
        let dt = w[1].0 - w[0].0;
        if (dt - step).abs() > 1e-6 * step.max(1.0) {
            return Err(CsvImportError {
                line: i + 2,
                message: format!("irregular cadence: {dt} s vs {step} s"),
            });
        }
    }
    // The subtraction above only guarantees `step > 0` for ordinary
    // inputs; timestamps parsed as `inf`/`nan` still reach here, so the
    // untrusted value goes through the fallible constructor.
    let step = SimDuration::try_from_secs(step).map_err(|e| CsvImportError {
        line: 2,
        message: format!("bad cadence: {e}"),
    })?;
    let values: Vec<f64> = rows.iter().map(|r| r.1).collect();
    Ok(CarbonTrace::new(
        name,
        TimeSeries::new(SimTime::ZERO, step, values),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
timestamp_s,gco2_per_kwh
0,480.5
3600,462.0
7200,455.1
10800,470.9
";

    #[test]
    fn parses_hourly_csv_with_header() {
        let t = parse_carbon_csv("fi", SAMPLE).unwrap();
        assert_eq!(t.name(), "fi");
        assert_eq!(t.series().len(), 4);
        assert_eq!(t.series().step().as_secs(), 3600.0);
        assert_eq!(t.at(SimTime::from_hours(1.5)).grams_per_kwh(), 462.0);
    }

    #[test]
    fn rebases_to_time_zero() {
        let text = "7200,100\n10800,200\n";
        let t = parse_carbon_csv("x", text).unwrap();
        assert_eq!(t.series().start(), SimTime::ZERO);
        assert_eq!(t.at(SimTime::ZERO).grams_per_kwh(), 100.0);
    }

    #[test]
    fn irregular_cadence_rejected() {
        let text = "0,1\n3600,2\n7300,3\n";
        let err = parse_carbon_csv("x", text).unwrap_err();
        assert!(err.message.contains("irregular cadence"), "{err}");
    }

    #[test]
    fn bad_values_rejected() {
        for (text, needle) in [
            ("0,abc\n3600,1\n", "bad intensity"),
            ("0,1\nxyz,2\n", "bad timestamp"),
            ("0,-5\n3600,1\n", "out of range"),
            ("0,1,9\n3600,2,9\n", "two columns"),
            ("0,1\n", "two data rows"),
            // Parseable but non-finite timestamps must yield a typed
            // error, not a panicking SimDuration construction.
            ("0,1\ninf,2\n", "bad cadence"),
            ("nan,1\nnan,2\n", "bad cadence"),
        ] {
            let err = parse_carbon_csv("x", text).unwrap_err();
            assert!(err.message.contains(needle), "{text:?} → {err}");
        }
    }

    #[test]
    fn imported_trace_drives_policies() {
        use crate::green::GreenDetector;
        let t = parse_carbon_csv("fi", SAMPLE).unwrap();
        // Green detection works on imported data like on synthetic data.
        let det = GreenDetector::new(0.99);
        let periods = det.detect(&t);
        assert!(!periods.is_empty());
    }
}
