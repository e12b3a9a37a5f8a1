//! `compare A.jsonl B.jsonl`: two sets of untraced runs (as written by
//! `collect`), judged metric by metric against the bounds in
//! `BENCHMARK.json`.
//!
//! For each workload × end-to-end metric it prints both medians and
//! quartiles, the change, the bound and a verdict:
//!
//! * `unresolved` — either set's quartile spread exceeds the bound, and
//!   B does not read better than A on every run;
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `better` — B wins at least nine tenths of the seed-paired runs and
//!   the medians differ by more than A's quartile spread;
//! * `within bound` — otherwise.

use std::collections::BTreeMap;

use serde_json::Value;

/// Python's `statistics.quantiles(values, n=4)` (the default, exclusive
/// method): the three quartile cut points.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld == 0 {
        return [0.0; 3];
    }
    if ld == 1 {
        return [d[0]; 3];
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k as i64 + 1;
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        let delta = i * m - j * 4;
        let j = j as usize;
        *slot = (d[j - 1] * (4 - delta) as f64 + d[j] * delta as f64) / 4.0;
    }
    out
}

/// Python's `statistics.median`.
pub fn median(values: &[f64]) -> f64 {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => 0.0,
        n if n % 2 == 1 => d[n / 2],
        n => (d[n / 2 - 1] + d[n / 2]) / 2.0,
    }
}

/// Quartile spread as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let q = quartiles(values);
    crate::util::ratio(q[2] - q[0], median(values).abs())
}

/// workload → seed → metric → value.
type Set = BTreeMap<String, BTreeMap<u64, BTreeMap<String, f64>>>;

pub fn load_set(path: &str) -> Result<(Set, Vec<String>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut set = Set::new();
    let mut order = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let workload = v["workload"]
            .as_str()
            .ok_or(format!("{path}:{}: no workload", n + 1))?;
        let seed = v["seed"]
            .as_u64()
            .ok_or(format!("{path}:{}: no seed", n + 1))?;
        if !order.iter().any(|w| w == workload) {
            order.push(workload.to_string());
        }
        let metrics = v["result"]["metrics"]
            .as_object()
            .cloned()
            .unwrap_or_default();
        let row = set
            .entry(workload.to_string())
            .or_default()
            .entry(seed)
            .or_default();
        for (name, m) in metrics {
            if let Some(x) = m["value"].as_f64() {
                row.insert(name, x);
            }
        }
    }
    Ok((set, order))
}

fn series(set: &Set, workload: &str, metric: &str) -> BTreeMap<u64, f64> {
    set.get(workload)
        .map(|runs| {
            runs.iter()
                .filter_map(|(seed, m)| m.get(metric).map(|&x| (*seed, x)))
                .collect()
        })
        .unwrap_or_default()
}

/// Prints the comparison; returns how many metric × workload pairs came
/// out `worse`.
pub fn run(a_path: &str, b_path: &str, benchmark_json: &str) -> Result<usize, String> {
    let specs = crate::spec::metric_specs(benchmark_json, "end_to_end")?;
    let (a, order) = load_set(a_path)?;
    let (b, _) = load_set(b_path)?;
    println!("A = {a_path}\nB = {b_path}");
    println!(
        "{:<13} {:<16} {:>27} {:>27} {:>8} {:>6} {:>7} {:>7}  verdict",
        "workload",
        "metric",
        "A median [q1, q3]",
        "B median [q1, q3]",
        "change",
        "bound",
        "sprdA",
        "sprdB"
    );
    let mut worse = 0;
    for workload in &order {
        for spec in &specs {
            let sa = series(&a, workload, &spec.name);
            let sb = series(&b, workload, &spec.name);
            if sa.is_empty() || sb.is_empty() {
                println!("{workload:<13} {:<16} missing in one set", spec.name);
                continue;
            }
            let va: Vec<f64> = sa.values().copied().collect();
            let vb: Vec<f64> = sb.values().copied().collect();
            let (ma, mb) = (median(&va), median(&vb));
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            let (spread_a, spread_b) = (spread(&va), spread(&vb));
            let change = crate::util::ratio(mb - ma, ma.abs());
            let worse_by = if spec.lower_is_better {
                change
            } else {
                -change
            };
            let better = |x: f64, y: f64| if spec.lower_is_better { x < y } else { x > y };
            let b_always_better = vb.iter().all(|&x| va.iter().all(|&y| better(x, y)));
            let pairs: Vec<(f64, f64)> = sa
                .iter()
                .filter_map(|(seed, &x)| sb.get(seed).map(|&y| (x, y)))
                .collect();
            let wins = pairs.iter().filter(|(x, y)| better(*y, *x)).count();
            let bound = spec.bound.unwrap_or(0.0);
            let verdict = if worse_by > bound {
                worse += 1;
                "worse"
            } else if (spread_a > bound || spread_b > bound) && !b_always_better {
                "unresolved"
            } else if !pairs.is_empty()
                && wins * 10 >= pairs.len() * 9
                && (mb - ma).abs() > qa[2] - qa[0]
            {
                "better"
            } else {
                "within bound"
            };
            println!(
                "{workload:<13} {:<16} {:>27} {:>27} {:>+7.2}% {:>5.1}% {:>6.1}% {:>6.1}%  {verdict}",
                spec.name,
                format!("{} [{}, {}]", sig(ma), sig(qa[0]), sig(qa[2])),
                format!("{} [{}, {}]", sig(mb), sig(qb[0]), sig(qb[2])),
                change * 100.0,
                bound * 100.0,
                spread_a * 100.0,
                spread_b * 100.0,
            );
        }
    }
    println!("spread = (q3 - q1) / median; steady when below a third of the bound");
    Ok(worse)
}

/// Four significant digits.
fn sig(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return format!("{x}");
    }
    let digits = (3 - x.abs().log10().floor() as i32).max(0) as usize;
    format!("{x:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
