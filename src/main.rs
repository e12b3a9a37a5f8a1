//! `sustain-hpc` — the reproduction CLI.
//!
//! Runs any experiment of the paper by name and writes its rows as JSON
//! to stdout and, with `--out DIR`, also to `DIR/<name>.json`.
//!
//! ```text
//! sustain-hpc <experiment> [--out DIR] [--seed N] [--days N] [--threads N] [--stats]
//! sustain-hpc all --out results/
//! sustain-hpc list
//! sustain-hpc run [--request FILE] [--timeout SECS]
//! sustain-hpc sweep --request FILE [--timeout SECS] [--journal FILE] [--retry-failed]
//! sustain-hpc serve [--addr HOST:PORT] [--max-inflight N] [--queue-depth N] [--read-timeout-ms N]
//! ```
//!
//! Sweep parallelism: `--threads N` (or the `SUSTAIN_THREADS` environment
//! variable; the flag wins) caps the worker threads used by the
//! experiment sweep driver. `0` or unset = all hardware threads. Output
//! is bit-for-bit identical at every thread count.
//!
//! `run` and `sweep` print exactly the body the service's `POST /run` /
//! `POST /sweep` endpoints return (plus a trailing newline) — the CLI
//! and the server call the same handlers. `--timeout SECS` attaches a
//! wall-clock deadline: work past it is cooperatively cancelled with a
//! typed `cancelled` error and a non-zero exit. `sweep --journal FILE`
//! makes the sweep crash-resumable: each completed point is appended
//! to the journal (fsync'd), and re-running the same command replays
//! completed points instead of re-simulating them — the merged output
//! is byte-identical to an uninterrupted run. Journaled sweeps are
//! self-healing: transiently-failed points are retried with
//! deterministic backoff, and points that exhaust their attempts are
//! quarantined as journal tombstones — replays skip them (reporting
//! the recorded error) unless `--retry-failed` re-runs them. `serve`
//! runs until SIGINT, SIGTERM, or `POST /shutdown`, then cancels
//! in-flight work (typed 408) and answers every accepted request
//! before exiting.
//!
//! Environment knobs (`SUSTAIN_THREADS`, `SUSTAIN_TRACE_CACHE_CAP`,
//! `SUSTAIN_OUTCOME_CACHE_CAP`, `SUSTAIN_WORKLOAD_CACHE_CAP`,
//! `SUSTAIN_FAULTS`, `SUSTAIN_FAULTS_SEED`, `SUSTAIN_RETRY_MAX`,
//! `SUSTAIN_RETRY_BACKOFF_MS`, `SUSTAIN_BREAKER_TRIP`) are parsed
//! strictly at startup: an invalid value is a typed error and a
//! non-zero exit, never a silent fallback.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use sustain_hpc::core::prelude::*;
use sustain_hpc::core::sweep::global_trace_cache;
use sustain_hpc::core::{lifetime_report, Site};
use sustain_hpc::grid::region::Region;
use sustain_hpc::sim_core::cache::CacheStats;
use sustain_hpc::workload::synth::global_workload_cache;

/// Everything the CLI can run, with one-line descriptions.
const EXPERIMENTS: &[(&str, &str)] = &[
    (
        "fig1",
        "Fig. 1: embodied carbon by component (German Top-3)",
    ),
    (
        "table1",
        "Table 1: LRZ system lifetimes + fleet amortization",
    ),
    ("fig2", "Fig. 2: daily marginal carbon intensity, Jan 2023"),
    ("e4", "renewable share vs embodied share (rule of thumb)"),
    ("e5", "reuse vs recycling vs lifetime extension"),
    ("e6", "CDP/CEP processor design-space exploration"),
    ("e7", "embodied vs operational carbon-budget trade-off"),
    ("e8", "carbon-aware power-budget scaling"),
    ("e9", "malleability under a power constraint"),
    ("e10", "carbon-aware scheduling + checkpointing"),
    ("e11a", "user over-allocation waste"),
    ("e11b", "green core-hour incentives"),
    ("e12", "Carbon500 ranking"),
    ("e13", "chiplet/fab package optimization"),
    ("e14", "Countdown-like runtime energy savings"),
    ("a1", "ablation: green-gate threshold sweep"),
    ("a2", "ablation: checkpoint overhead sweep"),
    ("a3", "ablation: malleable adoption sweep"),
    ("a4", "ablation: forecast-driven budget quality"),
    ("a5", "ablation: backfilling flavours"),
    ("a6", "ablation: checkpointing under node failures"),
    (
        "site",
        "lifetime carbon reports for LRZ / German grid / coal sites",
    ),
];

struct Args {
    command: String,
    out: Option<PathBuf>,
    seed: u64,
    days: usize,
    threads: Option<usize>,
    stats: bool,
    /// `run`/`sweep`: path of the JSON request body.
    request: Option<PathBuf>,
    /// `run`/`sweep`: wall-clock budget in seconds (overrides the
    /// request's own `timeout_ms`).
    timeout_secs: Option<f64>,
    /// `sweep`: checkpoint-journal path for crash-resumable sweeps.
    journal: Option<PathBuf>,
    /// `sweep`: re-run journal-tombstoned (quarantined) points instead
    /// of replaying their recorded errors.
    retry_failed: bool,
    /// `serve`: bind address.
    addr: String,
    /// `serve`: concurrent request cap.
    max_inflight: usize,
    /// `serve`: accept-queue bound before 429s.
    queue_depth: usize,
    /// `serve`: idle-connection read deadline, milliseconds.
    read_timeout_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or("missing command; try `list`")?;
    let mut out = None;
    let mut seed = 2023u64;
    let mut days = 14usize;
    let mut threads = None;
    let mut stats = false;
    let mut request = None;
    let mut timeout_secs = None;
    let mut journal = None;
    let mut retry_failed = false;
    let mut addr = "127.0.0.1:8725".to_string();
    let mut max_inflight = 4usize;
    let mut queue_depth = 16usize;
    let mut read_timeout_ms = 30_000u64;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--out" => {
                let v = args.next().ok_or("--out needs a directory")?;
                out = Some(PathBuf::from(v));
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|_| format!("bad seed: {v}"))?;
            }
            "--days" => {
                let v = args.next().ok_or("--days needs a value")?;
                days = v.parse().map_err(|_| format!("bad days: {v}"))?;
                if days == 0 {
                    return Err("--days must be at least 1".into());
                }
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value")?;
                threads = Some(v.parse().map_err(|_| format!("bad threads: {v}"))?);
            }
            "--stats" => stats = true,
            "--request" => {
                let v = args.next().ok_or("--request needs a file path")?;
                request = Some(PathBuf::from(v));
            }
            "--timeout" => {
                let v = args.next().ok_or("--timeout needs seconds")?;
                let secs: f64 = v.parse().map_err(|_| format!("bad timeout: {v}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(format!("--timeout must be a positive number, got {v}"));
                }
                timeout_secs = Some(secs);
            }
            "--journal" => {
                let v = args.next().ok_or("--journal needs a file path")?;
                journal = Some(PathBuf::from(v));
            }
            "--retry-failed" => retry_failed = true,
            "--addr" => {
                addr = args.next().ok_or("--addr needs HOST:PORT")?;
            }
            "--max-inflight" => {
                let v = args.next().ok_or("--max-inflight needs a value")?;
                max_inflight = v.parse().map_err(|_| format!("bad max-inflight: {v}"))?;
                if max_inflight == 0 {
                    return Err("--max-inflight must be at least 1".into());
                }
            }
            "--queue-depth" => {
                let v = args.next().ok_or("--queue-depth needs a value")?;
                queue_depth = v.parse().map_err(|_| format!("bad queue-depth: {v}"))?;
                if queue_depth == 0 {
                    return Err("--queue-depth must be at least 1".into());
                }
            }
            "--read-timeout-ms" => {
                let v = args.next().ok_or("--read-timeout-ms needs a value")?;
                read_timeout_ms = v.parse().map_err(|_| format!("bad read-timeout-ms: {v}"))?;
                if read_timeout_ms == 0 {
                    return Err("--read-timeout-ms must be at least 1".into());
                }
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if retry_failed && journal.is_none() {
        return Err("--retry-failed needs --journal (tombstones live in the journal)".into());
    }
    Ok(Args {
        command,
        out,
        seed,
        days,
        threads,
        stats,
        request,
        timeout_secs,
        journal,
        retry_failed,
        addr,
        max_inflight,
        queue_depth,
        read_timeout_ms,
    })
}

/// `--timeout SECS` → the request's `timeout_ms` field (the flag wins
/// over a value already present in the JSON body).
fn timeout_ms_of(args: &Args) -> Option<u64> {
    args.timeout_secs.map(|secs| (secs * 1000.0).ceil() as u64)
}

/// Reads the `--request` body (defaults to `{}`, i.e. the baseline
/// request) and parses it as `T`.
fn load_request<T: serde::Deserialize>(path: &Option<PathBuf>) -> Result<T, String> {
    let raw = match path {
        Some(p) => {
            fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))?
        }
        None => "{}".to_string(),
    };
    serde_json::from_str(&raw).map_err(|e| format!("invalid request body: {e}"))
}

/// Strict startup parsing of every environment knob: an invalid value
/// is a typed error, not a silent fallback.
fn init_env_knobs() -> Result<(), String> {
    sustain_hpc::core::sweep::init_threads_from_env().map_err(|e| e.to_string())?;
    sustain_hpc::core::sweep::init_trace_cache_cap_from_env().map_err(|e| e.to_string())?;
    sustain_hpc::core::cache::init_outcome_cache_cap_from_env().map_err(|e| e.to_string())?;
    sustain_hpc::workload::synth::init_workload_cache_cap_from_env().map_err(|e| e.to_string())?;
    sustain_hpc::sim_core::faults::init_from_env().map_err(|e| e.to_string())?;
    sustain_hpc::sim_core::retry::init_retry_from_env().map_err(|e| e.to_string())?;
    sustain_hpc::service::init_health_from_env().map_err(|e| e.to_string())?;
    Ok(())
}

/// The `serve` subcommand: run until SIGINT/SIGTERM or `POST /shutdown`,
/// then drain and exit.
fn serve_forever(args: &Args) -> Result<(), String> {
    sustain_hpc::service::signal::install();
    let options = sustain_hpc::service::ServeOptions {
        addr: args.addr.clone(),
        max_inflight: args.max_inflight,
        queue_depth: args.queue_depth,
        read_timeout_ms: args.read_timeout_ms,
    };
    let handle = sustain_hpc::service::serve(options)
        .map_err(|e| format!("cannot bind {}: {e}", args.addr))?;
    eprintln!(
        "serving on http://{} ({} thread budget); stop with SIGINT or POST /shutdown",
        handle.local_addr(),
        sustain_hpc::core::sweep::effective_threads()
    );
    while !sustain_hpc::service::signal::triggered() && !handle.shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    eprintln!("shutting down: cancelling in-flight work and draining the queue");
    handle.shutdown_and_join();
    eprintln!("drained; all accepted requests were answered");
    Ok(())
}

fn write_json<T: serde::Serialize>(
    out: &Option<PathBuf>,
    name: &str,
    value: &T,
) -> Result<(), String> {
    let json =
        serde_json::to_string_pretty(value).map_err(|e| format!("cannot serialize {name}: {e}"))?;
    println!("{json}");
    if let Some(dir) = out {
        fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create output directory {}: {e}", dir.display()))?;
        let path: &Path = dir;
        let file = path.join(format!("{name}.json"));
        fs::write(&file, json.as_bytes())
            .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
        eprintln!("wrote {}", file.display());
    }
    Ok(())
}

/// Maps a typed simulation error to the CLI's stderr string.
fn sim_err<T>(r: Result<T, SimError>) -> Result<T, String> {
    r.map_err(|e| e.to_string())
}

/// `--stats`: prints the process-wide counters accumulated across
/// everything this invocation ran (stderr, so JSON output stays
/// pipeable): the simulator hot path, the memoization caches (outcome,
/// workload and trace), and self-healing (retries, heals, quarantines,
/// tombstone replays).
fn print_stats() {
    let s = sustain_hpc::scheduler::metrics::hot_path_totals();
    let skip_pct = if s.schedule_passes + s.schedule_skips > 0 {
        100.0 * s.schedule_skips as f64 / (s.schedule_passes + s.schedule_skips) as f64
    } else {
        0.0
    };
    eprintln!(
        "sim hot path: {} events | {} schedule passes, {} skipped ({skip_pct:.1} %) | \
         {} resorts taken, {} skipped | trace cache {} hits / {} misses | {} scratch grows",
        s.events,
        s.schedule_passes,
        s.schedule_skips,
        s.resorts_taken,
        s.resorts_skipped,
        s.trace_bucket_hits,
        s.trace_bucket_misses,
        s.scratch_grows
    );
    eprintln!(
        "sim fair share: {} jobs repositioned | {} usage-epoch renorms",
        s.fs_repositions, s.fs_renorms
    );
    eprintln!(
        "sim backfill: {} of {} pending entries visited",
        s.backfill_visits, s.backfill_scanned
    );
    print_cache_stats("outcome", global_outcome_cache().stats());
    print_cache_stats("workload", global_workload_cache().stats());
    print_cache_stats("trace", global_trace_cache().stats());
    let r = sustain_hpc::sim_core::retry::retry_stats();
    eprintln!(
        "self healing: {} retries, {} healed, {} quarantined, {} tombstone skips \
         (max {} attempts, {} ms base backoff)",
        r.retries,
        r.healed,
        r.quarantined,
        r.tombstone_skips,
        sustain_hpc::sim_core::retry::max_attempts(),
        sustain_hpc::sim_core::retry::base_backoff_ms()
    );
}

fn run_one(name: &str, args: &Args) -> Result<(), String> {
    let out = &args.out;
    let seed = args.seed;
    let days = args.days;
    match name {
        "fig1" => write_json(out, "fig1", &fig1_embodied_breakdown()),
        "table1" => write_json(out, "table1", &table1_lrz_lifetimes()),
        "fig2" => write_json(out, "fig2", &fig2_carbon_intensity(seed)),
        "e4" => write_json(out, "e4", &sim_err(renewable_share_sweep(21))?),
        "e5" => write_json(out, "e5", &claim_reuse_vs_recycle()),
        "e6" => write_json(out, "e6", &dse_carbon_metrics()),
        "e7" => write_json(out, "e7", &budget_tradeoff()),
        "e8" => write_json(
            out,
            "e8",
            &sim_err(carbon_aware_power_scaling(Region::Finland, days, seed))?,
        ),
        "e9" => write_json(
            out,
            "e9",
            &sim_err(malleability_under_power(Region::GreatBritain, days, seed))?,
        ),
        "e10" => write_json(
            out,
            "e10",
            &sim_err(carbon_aware_scheduling(Region::Finland, days, seed))?,
        ),
        "e11a" => write_json(
            out,
            "e11a",
            &sim_err(user_overallocation(Region::Germany, days.min(7), seed))?,
        ),
        "e11b" => write_json(out, "e11b", &green_incentives(Region::Finland, seed)),
        "e12" => write_json(out, "e12", &carbon500()),
        "e13" => write_json(out, "e13", &chiplet_packaging()),
        "e14" => write_json(out, "e14", &countdown_savings(Region::Germany, seed)),
        "a1" => write_json(
            out,
            "a1",
            &sim_err(green_threshold_sweep(Region::Finland, days.min(7), seed))?,
        ),
        "a2" => write_json(
            out,
            "a2",
            &sim_err(checkpoint_overhead_sweep(
                Region::Finland,
                days.min(7),
                seed,
            ))?,
        ),
        "a3" => write_json(
            out,
            "a3",
            &sim_err(malleable_fraction_sweep(
                Region::GreatBritain,
                days.min(7),
                seed,
            ))?,
        ),
        "a4" => write_json(
            out,
            "a4",
            &sim_err(forecast_scaling_ablation(
                Region::Finland,
                days.min(7),
                seed,
            ))?,
        ),
        "a5" => write_json(
            out,
            "a5",
            &sim_err(backfill_flavour_sweep(Region::Germany, days.min(7), seed))?,
        ),
        "a6" => write_json(
            out,
            "a6",
            &sim_err(failure_resilience_sweep(days.min(5), seed))?,
        ),
        "site" => {
            let reports = vec![
                lifetime_report(&Site::lrz_like()),
                lifetime_report(&Site::german_grid_like()),
                lifetime_report(&Site::coal_like()),
            ];
            write_json(out, "site", &reports)
        }
        other => Err(format!("unknown experiment: {other}; try `list`")),
    }
}

/// `all`: every experiment in [`EXPERIMENTS`] order, then the trace
/// cache's counters (stderr), which show how much trace synthesis the
/// shared cache saved across the whole suite.
fn run_all(args: &Args) -> Result<(), String> {
    for (name, desc) in EXPERIMENTS {
        eprintln!("=== {name}: {desc}");
        run_one(name, args)?;
    }
    print_cache_stats("trace", global_trace_cache().stats());
    Ok(())
}

/// One memoization cache's counters on stderr, as `--stats` and `all`
/// print them.
fn print_cache_stats(name: &str, c: CacheStats) {
    eprintln!(
        "{name} cache: {} hits, {} misses, {} evictions, {} live entries (capacity {})",
        c.hits, c.misses, c.evictions, c.len, c.capacity
    );
}

const USAGE: &str = "usage: sustain-hpc <experiment|all|list|run|sweep|serve> [--out DIR] [--seed N] [--days N] [--threads N] [--stats] [--request FILE] [--timeout SECS] [--journal FILE] [--retry-failed] [--addr HOST:PORT] [--max-inflight N] [--queue-depth N] [--read-timeout-ms N]";

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if matches!(args.command.as_str(), "--help" | "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if let Err(e) = init_env_knobs() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(n) = args.threads {
        sustain_hpc::core::sweep::set_threads(n);
    }
    let result = match args.command.as_str() {
        "list" => {
            println!("available experiments:");
            for (name, desc) in EXPERIMENTS {
                println!("  {name:<8} {desc}");
            }
            Ok(())
        }
        "all" => run_all(&args),
        "run" => {
            load_request::<sustain_hpc::service::RunRequest>(&args.request).and_then(|mut req| {
                if let Some(ms) = timeout_ms_of(&args) {
                    req.timeout_ms = Some(ms);
                }
                let body = sustain_hpc::service::run_body(&req).map_err(|e| e.to_string())?;
                println!("{body}");
                Ok(())
            })
        }
        "sweep" => {
            load_request::<sustain_hpc::service::SweepRequest>(&args.request).and_then(|mut req| {
                if let Some(ms) = timeout_ms_of(&args) {
                    req.timeout_ms = Some(ms);
                }
                // Journaled sweeps self-heal: transient failures retry,
                // exhausted points quarantine as tombstones, and
                // `--retry-failed` re-runs quarantined points.
                let journal = args.journal.clone().map(|path| SweepJournal {
                    path,
                    retry_failed: args.retry_failed,
                });
                let body = sustain_hpc::service::sweep_body_with_ctl(&req, None, journal)
                    .map_err(|e| e.to_string())?;
                println!("{body}");
                Ok(())
            })
        }
        "serve" => serve_forever(&args),
        cmd => run_one(cmd, &args),
    };
    if args.stats {
        print_stats();
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
