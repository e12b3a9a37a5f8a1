//! Regenerates `BENCH_sim.json`: every `sim_loop` scenario at full
//! scale, timed with a warm-up pass plus repeated samples (median and
//! quartiles reported), alongside the hot-path counters the simulator
//! reports. One JSON object per scenario. A single simulation runs on
//! one thread, so the thread budget does not enter the timing.
//!
//! ```text
//! cargo run --release -p sustain-bench --example sim_timing > BENCH_sim.json
//! ```

use serde::Serialize;
use std::time::Instant;
use sustain_bench::simloop::{scenarios, Scale};
use sustain_scheduler::metrics::SimOutcome;
use sustain_scheduler::sim::simulate;

#[derive(Serialize)]
struct Row {
    scenario: &'static str,
    cpu_cores: usize,
    wall_s: f64,
    samples: usize,
    wall_s_p25: f64,
    wall_s_p75: f64,
    records: usize,
    unfinished: usize,
    events: u64,
    schedule_passes: u64,
    schedule_skips: u64,
    resorts_taken: u64,
    resorts_skipped: u64,
    trace_bucket_hits: u64,
    trace_bucket_misses: u64,
    scratch_grows: u64,
    fs_repositions: u64,
    fs_renorms: u64,
    backfill_visits: u64,
    backfill_scanned: u64,
}

/// The `q`-quantile of ascending `sorted`, linearly interpolated
/// between the two nearest ranks (so the median of an even count is
/// the mean of the middle pair).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let h = (sorted.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// Warm-up pass, then repeated samples: until 2 s of data with at
/// least 3 samples, capped at 25. Heavy scenarios land at the 3-sample
/// floor, the sub-10 ms ones at the 25-sample cap. Returns the samples
/// in ascending order.
fn time_scenario(
    jobs: &[sustain_workload::job::Job],
    cfg: &sustain_scheduler::sim::SimConfig,
) -> (Vec<f64>, SimOutcome) {
    let warm = simulate(jobs, cfg);
    let mut samples = Vec::new();
    let budget = Instant::now();
    while samples.len() < 25 && (samples.len() < 3 || budget.elapsed().as_secs_f64() < 2.0) {
        let t0 = Instant::now();
        let out = simulate(jobs, cfg);
        samples.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(out);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    (samples, warm)
}

fn main() {
    let corpus = scenarios(Scale::Full);
    let cpu_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut rows = Vec::new();
    for sc in &corpus {
        let (samples, out) = time_scenario(&sc.jobs, &sc.cfg);
        let hp = &out.hot_path;
        rows.push(Row {
            scenario: sc.name,
            cpu_cores,
            wall_s: quantile(&samples, 0.5),
            samples: samples.len(),
            wall_s_p25: quantile(&samples, 0.25),
            wall_s_p75: quantile(&samples, 0.75),
            records: out.records.len(),
            unfinished: out.unfinished,
            events: hp.events,
            schedule_passes: hp.schedule_passes,
            schedule_skips: hp.schedule_skips,
            resorts_taken: hp.resorts_taken,
            resorts_skipped: hp.resorts_skipped,
            trace_bucket_hits: hp.trace_bucket_hits,
            trace_bucket_misses: hp.trace_bucket_misses,
            scratch_grows: hp.scratch_grows,
            fs_repositions: hp.fs_repositions,
            fs_renorms: hp.fs_renorms,
            backfill_visits: hp.backfill_visits,
            backfill_scanned: hp.backfill_scanned,
        });
    }
    println!(
        "{}",
        serde_json::to_string_pretty(&rows).expect("serializable")
    );
}
