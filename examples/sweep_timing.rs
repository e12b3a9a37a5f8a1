//! Regenerates `BENCH_sweep.json`: wall times for the two headline
//! sweeps (A1 and the 10-region Fig. 2 grid) under three configurations
//! — serial (1 thread, cold caches), parallel (all threads, cold
//! caches), and cached (all threads, warm caches) — plus the
//! `sweep_memo` experiment: a duplicate-heavy sweep run point-by-point
//! with outcome memoization disabled versus a seedless `SweepPlan`,
//! which dedupes duplicate points. One JSON object per configuration, each carrying the
//! host core count and the cache-hit counts observed during the timed
//! reps.
//!
//! ```text
//! cargo run --release --example sweep_timing > BENCH_sweep.json
//! ```

use serde::Serialize;
use std::time::Instant;
use sustain_hpc::core::cache::{global_outcome_cache, DEFAULT_OUTCOME_CACHE_CAPACITY};
use sustain_hpc::core::prelude::*;
use sustain_hpc::core::scenario::try_run;
use sustain_hpc::core::sweep::{effective_threads, global_trace_cache, set_threads};
use sustain_hpc::grid::region::Region;
use sustain_hpc::workload::synth::global_workload_cache;

const REPS: u32 = 3;

#[derive(Serialize)]
struct Row {
    experiment: &'static str,
    config: &'static str,
    threads: usize,
    cpu_cores: usize,
    wall_s: f64,
    speedup_vs_serial: f64,
    trace_cache_hits: u64,
    outcome_cache_hits: u64,
    workload_cache_hits: u64,
}

fn cpu_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Hit counters of the three process-wide caches, in (trace, outcome,
/// workload) order; rows report the delta across their timed reps.
fn cache_hits() -> (u64, u64, u64) {
    (
        global_trace_cache().stats().hits,
        global_outcome_cache().stats().hits,
        global_workload_cache().stats().hits,
    )
}

/// Drops every process-wide cache so a "cold" rep really recomputes.
fn clear_all_caches() {
    global_trace_cache().clear();
    global_outcome_cache().clear();
    global_workload_cache().clear();
}

/// Best-of-`reps` wall time, seconds.
fn time(mut f: impl FnMut(), reps: u32) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Times one configuration and records the cache-hit delta it produced.
fn timed_row(
    experiment: &'static str,
    config: &'static str,
    threads: usize,
    serial_wall_s: Option<f64>,
    reps: u32,
    f: impl FnMut(),
) -> Row {
    let before = cache_hits();
    let wall_s = time(f, reps);
    let after = cache_hits();
    Row {
        experiment,
        config,
        threads,
        cpu_cores: cpu_cores(),
        wall_s,
        speedup_vs_serial: serial_wall_s.map_or(1.0, |serial| serial / wall_s),
        trace_cache_hits: after.0 - before.0,
        outcome_cache_hits: after.1 - before.1,
        workload_cache_hits: after.2 - before.2,
    }
}

fn measure(experiment: &'static str, rows: &mut Vec<Row>, mut run: impl FnMut()) {
    set_threads(1);
    let serial = timed_row(experiment, "serial", 1, None, REPS, || {
        clear_all_caches();
        run();
    });
    let serial_wall = serial.wall_s;
    rows.push(serial);
    set_threads(0);
    let threads = effective_threads();
    rows.push(timed_row(
        experiment,
        "parallel",
        threads,
        Some(serial_wall),
        REPS,
        || {
            clear_all_caches();
            run();
        },
    ));
    run(); // warm the caches
    rows.push(timed_row(
        experiment,
        "parallel+cached",
        threads,
        Some(serial_wall),
        REPS,
        &mut run,
    ));
}

/// The memoization headline: a 12-point sweep with only 2 distinct
/// scenarios, timed point-by-point with outcome memoization disabled
/// ("cold") and through a seedless `SweepPlan` ("memoized", which
/// simulates each distinct scenario once and fans the shared row back
/// out).
fn measure_memo(rows: &mut Vec<Row>) {
    set_threads(1);
    // Points heavy enough (two weeks on a 64-node cluster) that
    // simulation cost dominates the plan's hashing + fan-out
    // overhead; the 12-point / 2-distinct sweep then approaches its
    // ideal 6x.
    let mut base = Scenario::baseline(
        "bench-memo",
        RegionProfile::january_2023(Region::Finland),
        14,
    );
    base.cluster = Cluster::new(64);
    base.workload.arrivals_per_hour = 8.0;
    let points: Vec<Scenario> = (0..12)
        .map(|i| {
            let mut s = base.clone();
            s.name = format!("bench-memo-{}", i % 2);
            s.seed = 9000 + (i % 2) as u64;
            s
        })
        .collect();

    // Cold baseline: outcome memoization off, every duplicate point
    // re-simulates from scratch.
    global_outcome_cache().set_capacity(0);
    let cold = timed_row("sweep_memo_duplicate_points", "cold", 1, None, REPS, || {
        clear_all_caches();
        for p in &points {
            std::hint::black_box(try_run(p).expect("bench scenario is valid"));
        }
    });
    global_outcome_cache().set_capacity(DEFAULT_OUTCOME_CACHE_CAPACITY);
    let cold_wall = cold.wall_s;
    rows.push(cold);

    rows.push(timed_row(
        "sweep_memo_duplicate_points",
        "memoized",
        1,
        Some(cold_wall),
        REPS,
        || {
            clear_all_caches();
            let ctl = RunCtl::unlimited();
            let results = SweepPlan::new(&points, &ctl)
                .run(|point, _| try_run(point))
                .expect("bench sweep cannot be cancelled");
            std::hint::black_box(results);
        },
    ));
}

fn main() {
    let mut rows = Vec::new();
    measure("a1_green_threshold_sweep_3d", &mut rows, || {
        std::hint::black_box(green_threshold_sweep(Region::Finland, 3, 5));
    });
    measure("fig2_region_grid_31d", &mut rows, || {
        std::hint::black_box(fig2_carbon_intensity(2023));
    });
    measure_memo(&mut rows);
    set_threads(0);
    println!(
        "{}",
        serde_json::to_string_pretty(&rows).expect("serializable")
    );
}
