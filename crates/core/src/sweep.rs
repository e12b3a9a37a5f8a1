//! Shared sweep execution for the experiments, the service and the CLI.
//!
//! Every experiment in this workspace is a *sweep*: a list of points
//! (thresholds, regions, policies, years, …) mapped independently to
//! result rows. There are two ways to run one:
//!
//! * [`sweep`] fans infallible points out over the Rayon thread pool.
//!   The pool's `collect` reassembles results in input order, so a
//!   parallel sweep is **bit-for-bit identical** to a serial run
//!   regardless of thread count (asserted in `tests/sweep_determinism.rs`).
//! * [`SweepPlan::run`] executes fallible points through one pipeline.
//!   Each point runs behind a fault boundary (the `sweep::point` fault
//!   site plus `catch_unwind`), so a panic becomes that point's typed
//!   [`SimError::Faulted`] while every other point completes. Around
//!   that boundary the plan applies three stages, in order:
//!   1. **dedupe** — slots sharing `(canonical hash, seed)` compute once
//!      and the outcome fans back out in input order. A point's seed is
//!      [`point_seed`]`(master, i)` under a master seed (pre-computed
//!      serially, so it never depends on scheduling) and its
//!      [`CanonicalHash`] without one, so only seedless plans collapse
//!      duplicates;
//!   2. **retry** — each computation runs under the plan's
//!      [`RetryPolicy`]: transient failures re-execute with backoff
//!      jittered from the point's seed, so retry schedules replay too;
//!   3. **journal** — with a [`SweepJournal`], every terminal outcome is
//!      appended to an fsync'd JSON-lines file: a row, or a quarantine
//!      tombstone for a point that failed for good. A rerun replays
//!      rows, skips tombstones unless `retry_failed`, and runs only the
//!      rest, so a sweep killed mid-run resumes byte-identically
//!      (asserted in `tests/sweep_resume.rs`).
//!
//!   The plan's [`RunCtl`] is checked before every attempt; a cancelled
//!   plan fails as a whole with [`SimError::Cancelled`] reporting
//!   `N/M sweep points completed`.
//! * [`calibrated_trace`] resolves a `(region profile, days, seed)` key
//!   through the process-wide [`TraceCache`], so a sweep whose points
//!   share a grid window synthesizes and calibrates that trace once.
//!
//! The worker thread count is controlled by [`set_threads`] (the CLI's
//! `--threads` flag) or the `THREADS_ENV` environment variable; `0`
//! or unset means "use all available hardware parallelism".
//!
//! That count is a single **process-wide worker budget**, not a
//! per-call-site pool size: every parallel pipeline (the sweep fan-out
//! here, the service's request workers) leases spare workers from the
//! same budget and runs inline when none are left, so nesting degrades
//! to serial execution instead of oversubscribing the host (asserted in
//! the vendored `rayon` shim's
//! `nested_pipelines_share_the_budget_and_stay_ordered` test). A single
//! simulation always runs on one thread.

use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::fs::File;
use std::io::{Read as _, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use sustain_grid::region::RegionProfile;
use sustain_grid::synth::generate_calibrated_arc;
use sustain_grid::trace::CarbonTrace;
use sustain_sim_core::ctl::RunCtl;
use sustain_sim_core::error::{env_knob_usize, ConfigError, SimError};
use sustain_sim_core::hash::{fnv1a, CanonicalHash};
use sustain_sim_core::retry::{self, RetryPolicy};
use sustain_sim_core::rng::RngStream;
use sustain_sim_core::time::SimTime;

use rayon::prelude::*;

pub use sustain_grid::synth::{
    global_trace_cache, init_trace_cache_cap_from_env, CacheStats, TraceCache, TraceKey,
};

/// Environment variable that sets the sweep worker-thread count
/// (equivalent to the CLI's `--threads`). `0` = hardware parallelism.
pub(crate) const THREADS_ENV: &str = "SUSTAIN_THREADS";

/// Fallible [`set_threads`]: applies the worker-thread count and
/// propagates a pool-reconfiguration failure as a typed
/// [`ConfigError`]. A long-running process (the service front-end)
/// must use this path — a swallowed failure would silently keep a
/// stale thread count for the rest of its lifetime.
pub(crate) fn try_set_threads(n: usize) -> Result<(), ConfigError> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .map_err(|e| {
            ConfigError::new(
                "sweep",
                "threads",
                format!("failed to apply worker-thread count {n}: {e}"),
            )
        })
}

/// Sets the number of worker threads used by all subsequent sweeps.
/// `0` restores the default (all available hardware parallelism).
/// `1` forces fully serial, in-thread execution.
///
/// The vendored pool has no persistent workers to rebuild, so
/// reconfiguration cannot currently fail; should a future upstream
/// error occur, it is logged loudly to stderr (the previous count stays
/// in effect) instead of being discarded. Callers that need to *react*
/// to the failure use `try_set_threads`.
pub fn set_threads(n: usize) {
    if let Err(e) = try_set_threads(n) {
        eprintln!("warning: {e}; the previous thread count stays in effect");
    }
}

/// Number of worker threads sweeps will currently use.
pub fn effective_threads() -> usize {
    rayon::current_num_threads()
}

/// Applies `THREADS_ENV` if set; returns the applied count. Call once
/// at process start; an explicit `--threads` flag should be applied
/// after this and wins.
///
/// An unparseable value (`two`, `-1`, `1.5`) is a hard, typed error —
/// the operator asked for a specific thread count and must not silently
/// get all cores instead.
pub fn init_threads_from_env() -> Result<Option<usize>, ConfigError> {
    match env_knob_usize(THREADS_ENV)? {
        Some(n) => {
            try_set_threads(n)?;
            Ok(Some(n))
        }
        None => Ok(None),
    }
}

/// Maps every point to a row in parallel, preserving input order.
///
/// The output is exactly `points.iter().map(f).collect()` — same rows,
/// same order, bit-for-bit — for every thread count, because the pool
/// reassembles chunk results by index before returning.
pub fn sweep<P, R, F>(points: &[P], f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    points.par_iter().map(f).collect()
}

/// The deterministic sub-seed a [`SweepPlan`] with master seed
/// `master_seed` hands to point `index`. Exposed so callers that bake
/// seeds into their points (`service::sweep_scenarios`) reproduce the
/// exact per-point seeds.
pub fn point_seed(master_seed: u64, index: u64) -> u64 {
    let mut stream = RngStream::new(master_seed).derive_idx(index);
    rand::RngCore::next_u64(&mut stream)
}

/// A crash-resumable checkpoint journal for a [`SweepPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepJournal {
    /// The JSON-lines journal file; created on first use.
    pub path: PathBuf,
    /// Re-run quarantined (tombstoned) points instead of reporting
    /// their recorded error — the CLI's `sweep --retry-failed`.
    pub retry_failed: bool,
}

/// One fallible sweep: the points and the stages to run them through
/// (see the module docs). Build it with [`SweepPlan::new`] and struct
/// update syntax, e.g. `SweepPlan { master_seed: Some(7),
/// ..SweepPlan::new(&points, &ctl) }`.
pub struct SweepPlan<'a, P> {
    /// The points, one result slot each.
    pub points: &'a [P],
    /// Derive per-point seeds from this master seed; `None` seeds each
    /// point with its canonical hash, which makes duplicates collapse.
    pub master_seed: Option<u64>,
    /// Cancellation control, checked before every attempt.
    pub ctl: &'a RunCtl,
    /// Per-point retry policy for transient failures.
    pub retry: RetryPolicy,
    /// Optional checkpoint journal.
    pub journal: Option<SweepJournal>,
}

/// One point's outcome from [`SweepPlan::run`]: the final result plus
/// how many attempts it took to get there.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRun<R> {
    /// The point's final result after retries (the last error when the
    /// attempt budget was exhausted).
    pub result: Result<R, SimError>,
    /// Executed attempts: `1` = first-try success, `> 1` = healed or
    /// exhausted after retries, `0` = never ran (pre-cancelled, or
    /// replayed from a journal row). A skipped tombstone reports the
    /// attempts it recorded.
    pub attempts: usize,
}

/// How the journal stage turns a row into JSON and back.
type RowCodec<R> = (fn(&R) -> Value, fn(&Value) -> Result<R, DeError>);

impl<'a, P: Sync + CanonicalHash> SweepPlan<'a, P> {
    /// A plan with no master seed, no retries and no journal.
    pub fn new(points: &'a [P], ctl: &'a RunCtl) -> Self {
        SweepPlan {
            points,
            master_seed: None,
            ctl,
            retry: RetryPolicy::none(),
            journal: None,
        }
    }

    /// Runs `f(point, seed)` for every point through the plan's stages
    /// and returns one [`PointRun`] per point, in input order.
    ///
    /// `f` must be pure in `(point, seed)`: dedupe, retry and journal
    /// replay all substitute one evaluation for another. The outer
    /// `Err` is a cancelled plan, a journal that belongs to a different
    /// sweep (a typed [`ConfigError`]), or a journal I/O failure;
    /// everything else lands in its point's slot.
    pub fn run<R, F>(&self, f: F) -> Result<Vec<PointRun<R>>, SimError>
    where
        R: Send + Clone + Serialize + Deserialize,
        F: Fn(&P, u64) -> Result<R, SimError> + Sync,
    {
        self.execute(f, Some((R::to_value, R::from_value)))
    }

    /// [`run`](Self::run) with the journal codec passed in, so the
    /// journal-free [`try_sweep_memo_with_ctl`] needs no serde bounds.
    fn execute<R, F>(&self, f: F, codec: Option<RowCodec<R>>) -> Result<Vec<PointRun<R>>, SimError>
    where
        R: Send + Clone,
        F: Fn(&P, u64) -> Result<R, SimError> + Sync,
    {
        let points = self.points;
        let hashes: Vec<u64> = points.iter().map(CanonicalHash::canonical_hash).collect();
        let seeds: Vec<u64> = match self.master_seed {
            Some(master) => (0..points.len() as u64)
                .map(|i| point_seed(master, i))
                .collect(),
            None => hashes.clone(),
        };

        // Journal stage, replay half: rows replay verbatim; tombstones
        // replay their recorded error unless `retry_failed`.
        let (mut slots, journal): (Replayed<R>, _) = match (&self.journal, codec) {
            (Some(journal), Some((encode, decode))) => {
                let (replayed, file) = isolate(
                    || open_journal(&journal.path, &seeds, decode),
                    |message| journal_io_error("journal replay panicked", message),
                )?;
                let slots = replayed
                    .into_iter()
                    .map(|slot| slot.filter(|run| run.result.is_ok() || !journal.retry_failed))
                    .collect();
                let file = Mutex::new(file);
                (slots, Some(JournalWriter { file, encode }))
            }
            _ => ((0..points.len()).map(|_| None).collect(), None),
        };
        let skipped = slots
            .iter()
            .flatten()
            .filter(|run| run.result.is_err())
            .count();

        // Dedupe stage: group the slots still to run by (hash, seed);
        // each group computes once, through its first slot.
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut group_of: HashMap<(u64, u64), usize> = HashMap::new();
        for index in (0..points.len()).filter(|&i| slots[i].is_none()) {
            let group = *group_of
                .entry((hashes[index], seeds[index]))
                .or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
            groups[group].push(index);
        }

        // Retry stage around the fault boundary, then the journal's
        // append half for each terminal outcome.
        let fresh: Vec<(PointRun<R>, Result<(), SimError>)> = groups
            .par_iter()
            .map(|group| {
                let (index, seed) = (group[0], seeds[group[0]]);
                let (result, attempts) = retry::run_with_retry(&self.retry, seed, self.ctl, || {
                    run_point(index, || f(&points[index], seed))
                });
                let journaled = match &journal {
                    Some(journal) => journal.record(group, seed, &result, attempts),
                    None => Ok(()),
                };
                (PointRun { result, attempts }, journaled)
            })
            .collect();
        let mut journal_failure = None;
        for (group, (run, journaled)) in groups.iter().zip(fresh) {
            journal_failure = journal_failure.or(journaled.err());
            for &index in group {
                slots[index] = Some(run.clone());
            }
        }

        if let Some(e) = journal_failure {
            return Err(e);
        }
        let runs: Vec<PointRun<R>> = slots
            .into_iter()
            .map(|slot| slot.unwrap_or_else(|| unreachable!("every slot is replayed or run")))
            .collect();
        if let Some(reason) = self.ctl.cancelled_reason() {
            let completed = runs.iter().filter(|run| run.result.is_ok()).count();
            let total = runs.len();
            return Err(SimError::Cancelled {
                at_sim_time: SimTime::ZERO,
                reason: format!("{reason}; {completed}/{total} sweep points completed"),
            });
        }
        (0..skipped).for_each(|_| retry::note_tombstone_skip());
        Ok(runs)
    }
}

/// Content-addressed sweep over pure, seedless points: a
/// [`SweepPlan::new`] plan (no retries, no journal), so duplicate
/// points compute once and share their result — an error included.
/// `f` receives no seed: the point value is its entire input.
pub fn try_sweep_memo_with_ctl<P, R, F>(
    points: &[P],
    ctl: &RunCtl,
    f: F,
) -> Result<Vec<Result<R, SimError>>, SimError>
where
    P: Sync + CanonicalHash,
    R: Send + Clone,
    F: Fn(&P) -> Result<R, SimError> + Sync,
{
    SweepPlan::new(points, ctl)
        .execute(|point, _| f(point), None)
        .map(|runs| runs.into_iter().map(|run| run.result).collect())
}

/// Runs `body` behind a fault boundary: a panic (organic or injected)
/// becomes the typed error `on_panic` builds from its message.
fn isolate<T>(
    body: impl FnOnce() -> Result<T, SimError>,
    on_panic: impl FnOnce(String) -> SimError,
) -> Result<T, SimError> {
    catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|payload| {
        // `panic!`/`assert!` messages arrive as `&str` or `String`.
        let message = match payload.downcast_ref::<&str>() {
            Some(s) => s.to_string(),
            None => payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "non-string panic payload".to_string()),
        };
        Err(on_panic(message))
    })
}

/// Runs one point body under the sweep's fault boundary: the
/// `sweep::point` fault site, then [`isolate`], so a panic becomes a
/// typed [`SimError::Faulted`] for this point alone.
fn run_point<R>(index: usize, body: impl FnOnce() -> Result<R, SimError>) -> Result<R, SimError> {
    isolate(
        || {
            sustain_sim_core::faultpoint!(infallible "sweep::point");
            body()
        },
        |message| SimError::Faulted {
            unit: format!("sweep point {index}"),
            message,
        },
    )
}

// ---------------------------------------------------------------------------
// The checkpoint journal: one JSON line per terminal point outcome,
// `{"index":I,"seed":S,"hash":"H","payload":ROW}` or
// `{"index":I,"seed":S,"hash":"H","tombstone":ERROR,"attempts":N}`,
// where H is the FNV-1a hash of the payload or tombstone JSON.
// ---------------------------------------------------------------------------

fn journal_io_error(action: &str, err: impl std::fmt::Display) -> SimError {
    SimError::Faulted {
        unit: "sweep journal".to_string(),
        message: format!("{action}: {err}"),
    }
}

/// The append half of an open journal.
struct JournalWriter<R> {
    file: Mutex<File>,
    encode: fn(&R) -> Value,
}

impl<R> JournalWriter<R> {
    /// Journals one computation's terminal outcome for every slot that
    /// shares it: a row, or a quarantine tombstone with the attempts it
    /// burned. Cancelled points are never journaled — a shutdown
    /// mid-sweep must not quarantine healthy work.
    fn record(
        &self,
        slots: &[usize],
        seed: u64,
        result: &Result<R, SimError>,
        attempts: usize,
    ) -> Result<(), SimError> {
        let (key, body, attempts) = match result {
            Ok(row) => ("payload", (self.encode)(row), String::new()),
            Err(SimError::Cancelled { .. }) => return Ok(()),
            Err(terminal) => {
                retry::note_quarantine();
                let attempts = format!(",\"attempts\":{attempts}");
                ("tombstone", terminal.to_value(), attempts)
            }
        };
        let body = serde_json::to_string(&body)
            .map_err(|e| journal_io_error("serializing journal payload", e))?;
        let hash = fnv1a(body.as_bytes());
        slots.iter().try_for_each(|index| {
            let line = format!(
                "{{\"index\":{index},\"seed\":{seed},\"hash\":\"{hash:016x}\",\"{key}\":{body}{attempts}}}\n"
            );
            // Appends run inside their own fault boundary: an injected
            // panic here must stay isolated too.
            isolate(
                || self.append(&line),
                |message| journal_io_error("journal append panicked", message),
            )
        })
    }

    /// Appends and fsyncs one line. A line is only trusted on replay if
    /// its hash matches, so a line torn by a crash mid-write is
    /// detected and re-run, never half-replayed.
    fn append(&self, line: &str) -> Result<(), SimError> {
        // Fault sites fire before taking the lock: a panic-mode fault
        // must not poison the file mutex other points still append
        // through.
        sustain_sim_core::faultpoint!("sweep::journal_write").map_err(SimError::from)?;
        sustain_sim_core::faultpoint!("sweep::journal_sync").map_err(SimError::from)?;
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        file.write_all(line.as_bytes())
            .map_err(|e| journal_io_error("appending journal line", e))?;
        file.sync_data()
            .map_err(|e| journal_io_error("fsyncing journal", e))
    }
}

/// Validates one journal line against this sweep's derived seeds and
/// resolves it to its point's replayed outcome: a row (0 attempts) or
/// a tombstone's recorded error and attempts. Rows and tombstones are
/// validated identically — index range, seed match, body hash — so a
/// tombstone from a foreign journal is rejected like a corrupt row.
fn parse_journal_line<R>(
    line: &str,
    seeds: &[u64],
    decode: fn(&Value) -> Result<R, DeError>,
) -> Result<(usize, PointRun<R>), String> {
    let value: Value = serde_json::from_str(line).map_err(|e| format!("unparseable JSON: {e}"))?;
    let field = |key: &str| {
        value[key]
            .as_u64()
            .ok_or(format!("missing or non-integer {key:?}"))
    };
    let (index, seed) = (field("index")? as usize, field("seed")?);
    if index >= seeds.len() {
        return Err(format!(
            "point index {index} out of range for a {}-point sweep",
            seeds.len()
        ));
    }
    if seed != seeds[index] {
        return Err(format!(
            "seed {seed} at point {index} does not match this sweep's derived seed \
             {} — the journal belongs to a different sweep",
            seeds[index]
        ));
    }
    let hash = value["hash"].as_str().ok_or("missing \"hash\"")?;
    let tombstone = value.get("tombstone");
    let body = tombstone.unwrap_or(&value["payload"]);
    let body_json =
        serde_json::to_string(body).map_err(|e| format!("payload re-serialization: {e}"))?;
    let expected = format!("{:016x}", fnv1a(body_json.as_bytes()));
    if hash != expected {
        return Err(format!(
            "hash mismatch at point {index}: journal says {hash}, payload hashes to {expected}"
        ));
    }
    let run = match tombstone {
        Some(error) => PointRun {
            result: Err(SimError::from_value(error)
                .map_err(|e| format!("tombstone at point {index}: {e:?}"))?),
            attempts: field("attempts")? as usize,
        },
        None => PointRun {
            result: Ok(decode(body).map_err(|e| format!("payload at point {index}: {e:?}"))?),
            attempts: 0,
        },
    };
    Ok((index, run))
}

/// Each point's replayed outcome, if the journal has one.
type Replayed<R> = Vec<Option<PointRun<R>>>;

/// Opens (creating if needed) the journal at `path` for appending and
/// replays it: `replayed[i]` is point `i`'s last valid line, so a
/// point re-run under `--retry-failed` supersedes its tombstone.
///
/// The *final* line may be torn by a crash mid-append: it is dropped
/// from the file, so the point re-runs and a second crash-and-resume
/// cannot find it mid-file. Any earlier malformed or mismatched line is
/// a typed [`ConfigError`] — the journal belongs to a different sweep
/// or was corrupted, and silently re-running would mask that.
fn open_journal<R>(
    path: &Path,
    seeds: &[u64],
    decode: fn(&Value) -> Result<R, DeError>,
) -> Result<(Replayed<R>, File), SimError> {
    sustain_sim_core::faultpoint!("sweep::journal_replay").map_err(SimError::from)?;
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .append(true)
        .create(true)
        .open(path)
        .map_err(|e| journal_io_error("opening journal", e))?;
    let mut text = String::new();
    file.read_to_string(&mut text)
        .map_err(|e| journal_io_error("reading journal", e))?;
    // Non-blank lines, each with the byte offset just past it.
    let lines: Vec<(u64, &str)> = text
        .split_inclusive('\n')
        .scan(0u64, |end, raw| {
            *end += raw.len() as u64;
            Some((*end, raw.trim()))
        })
        .filter(|(_, line)| !line.is_empty())
        .collect();
    let mut replayed: Replayed<R> = seeds.iter().map(|_| None).collect();
    let mut valid_bytes = 0u64;
    for (pos, (end, line)) in lines.iter().enumerate() {
        match parse_journal_line(line, seeds, decode) {
            Ok((index, run)) => {
                replayed[index] = Some(run);
                valid_bytes = *end;
            }
            Err(_) if pos + 1 == lines.len() => {}
            Err(message) => {
                let line = format!("line {}", pos + 1);
                return Err(ConfigError::new("SweepJournal", line, message).into());
            }
        }
    }
    if text.len() as u64 > valid_bytes {
        file.set_len(valid_bytes)
            .and_then(|()| file.sync_data())
            .map_err(|e| journal_io_error("truncating a torn journal tail", e))?;
    }
    Ok((replayed, file))
}

/// Calibrated carbon trace for `(profile, days, seed)`, served from the
/// process-wide [`TraceCache`]: the first caller generates and
/// calibrates, every later caller (any thread) gets the same `Arc`.
///
/// # Panics
/// Calibration rescales the spread of *daily means*, so `days` must be
/// at least 2 (a single day has no daily-mean variance to scale).
pub fn calibrated_trace(profile: &RegionProfile, days: usize, seed: u64) -> Arc<CarbonTrace> {
    generate_calibrated_arc(profile, days, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;
    use sustain_grid::region::Region;
    use sustain_sim_core::ctl::CancelToken;

    fn temp_journal(tag: &str) -> PathBuf {
        let name = format!("sustain-sweep-journal-{}-{tag}.jsonl", std::process::id());
        let path = std::env::temp_dir().join(name);
        std::fs::remove_file(&path).ok();
        path
    }

    /// A plan under master seed 11 with `attempts` per point, journaled
    /// to `(path, retry_failed)` when given.
    fn plan<'a>(
        points: &'a [u64],
        ctl: &'a RunCtl,
        attempts: usize,
        journal: Option<(&Path, bool)>,
    ) -> SweepPlan<'a, u64> {
        SweepPlan {
            master_seed: Some(11),
            retry: RetryPolicy::new(attempts, Duration::ZERO),
            journal: journal.map(|(path, retry_failed)| SweepJournal {
                path: path.to_path_buf(),
                retry_failed,
            }),
            ..SweepPlan::new(points, ctl)
        }
    }

    fn rows<R: Clone + std::fmt::Debug>(runs: &[PointRun<R>]) -> Vec<R> {
        runs.iter().map(|run| run.result.clone().unwrap()).collect()
    }

    fn poison(p: u64) -> SimError {
        SimError::Faulted {
            unit: format!("point {p}"),
            message: "poison".into(),
        }
    }

    #[test]
    fn sweep_matches_serial_map() {
        let points: Vec<u64> = (0..257).collect();
        let f = |&x: &u64| (x * x).wrapping_mul(0x9E37_79B9) as f64 / 7.0;
        let serial: Vec<f64> = points.iter().map(f).collect();
        assert_eq!(serial, sweep(&points, f));
    }

    #[test]
    fn dedupe_computes_each_distinct_point_once() {
        let points = [3u64, 7, 3, 5, 7, 3, 5];
        let ctl = RunCtl::unlimited();
        let calls = AtomicUsize::new(0);
        let f = |&x: &u64, seed| {
            calls.fetch_add(1, Ordering::Relaxed);
            match x {
                5 => Err(SimError::invalid_input("five is out")),
                _ => Ok((x * 100, seed)),
            }
        };
        let runs = SweepPlan::new(&points, &ctl).run(f).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 3, "3 distinct points");
        let results: Vec<_> = runs.iter().map(|run| run.result.clone().ok()).collect();
        let expected = points.map(|x| (x != 5).then(|| (x * 100, x.canonical_hash())));
        assert_eq!(results, expected, "fanned back out in input order");
        assert!(runs[3].result.is_err());
        assert_eq!(runs[3], runs[6], "duplicates share the failed result");

        // A master seed gives every slot its own seed: nothing collapses.
        calls.store(0, Ordering::Relaxed);
        let seeded = plan(&points, &ctl, 1, None).run(f).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), points.len());
        assert_eq!(seeded[2].result, Ok((300, point_seed(11, 2))));

        // Cancellation counts completed slots, not computations.
        let token = CancelToken::new();
        let ctl = RunCtl::unlimited().with_token(token.clone());
        let err = SweepPlan::new(&[4u64, 4, 4], &ctl)
            .run(|&x, _| {
                token.cancel("shutdown requested");
                Ok(x)
            })
            .unwrap_err();
        let expected = "shutdown requested; 3/3 sweep points completed";
        assert!(err.to_string().contains(expected), "{err}");
        let err = SweepPlan::new(&points, &ctl).run(f).unwrap_err();
        assert!(err.to_string().contains("; 0/7 sweep points"), "{err}");
    }

    #[test]
    fn plan_isolates_panics_and_typed_errors_per_point() {
        let points: Vec<u64> = (0..5).collect();
        let ctl = RunCtl::unlimited();
        let run = || {
            let f = |&p: &u64, seed| {
                assert!(p != 1, "injected panic");
                match p {
                    3 => Err(SimError::invalid_input("point three rejected")),
                    _ => Ok(seed),
                }
            };
            plan(&points, &ctl, 1, None).run(f).unwrap()
        };
        let runs = run();
        assert_eq!(runs[0].result, Ok(point_seed(11, 0)));
        let panicked = SimError::Faulted {
            unit: "sweep point 1".into(),
            message: "injected panic".into(),
        };
        assert_eq!(runs[1].result, Err(panicked));
        let rejected = SimError::invalid_input("point three rejected");
        assert_eq!(runs[3].result, Err(rejected));
        assert_eq!(runs[4].result, Ok(point_seed(11, 4)));
        assert_eq!(runs, run(), "fault isolation must stay deterministic");
    }

    #[test]
    fn calibrated_trace_is_cached() {
        let profile = RegionProfile::january_2023(Region::Sweden);
        let a = calibrated_trace(&profile, 3, 99);
        let b = calibrated_trace(&profile, 3, 99);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn thread_knob_roundtrips() {
        // Note: global state; other tests' *results* are unaffected by
        // the thread count (order-preserving pool), only their speed.
        set_threads(3);
        assert_eq!(effective_threads(), 3);
        try_set_threads(2).unwrap();
        assert_eq!(effective_threads(), 2);
        set_threads(0);
        assert!(effective_threads() >= 1);
    }

    /// Replayed rows are bit-identical to computed ones (floats
    /// included), and a torn tail re-runs just its point.
    #[test]
    fn torn_tail_reruns_one_point_and_is_truncated_so_a_second_crash_resumes() {
        let path = temp_journal("torn");
        let points: Vec<u64> = (0..4).collect();
        let ctl = RunCtl::unlimited();
        let reruns = AtomicUsize::new(0);
        let f = |&p: &u64, _| {
            reruns.fetch_add(1, Ordering::Relaxed);
            Ok(p as f64 / 3.0 + 0.1)
        };
        let journaled = || plan(&points, &ctl, 1, Some((&path, false)));
        journaled().run(f).expect("seed the journal");
        for crash in 0..2 {
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::write(&path, &text[..text.len() - 15]).unwrap();
            reruns.store(0, Ordering::Relaxed);
            let resumed = journaled()
                .run(f)
                .unwrap_or_else(|e| panic!("resume after crash {crash}: {e}"));
            assert_eq!(reruns.load(Ordering::Relaxed), 1, "only the torn point");
            let expected: Vec<f64> = points.iter().map(|&p| p as f64 / 3.0 + 0.1).collect();
            assert_eq!(rows(&resumed), expected);
            // The torn line is gone: every remaining line parses.
            for line in std::fs::read_to_string(&path).unwrap().lines() {
                serde_json::from_str::<Value>(line).expect("no torn line survives");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// Journal text in the format earlier releases wrote (one row, one
    /// tombstone, a torn final line) must keep resuming: the line format
    /// is a compatibility contract with users' `--journal` files.
    #[test]
    fn journal_format_is_stable_across_releases() {
        let path = temp_journal("format");
        let points: Vec<u64> = vec![10, 20, 30];
        let ctl = RunCtl::unlimited();
        let row =
            r#"{"index":0,"seed":16019205026014419424,"hash":"4568b718181c937c","payload":100}"#;
        let tombstone = r#"{"index":1,"seed":6943326612830245061,"hash":"dab3ad97746f3f91","tombstone":{"Faulted":{"unit":"point 20","message":"poison"}},"attempts":2}"#;
        let rerun =
            r#"{"index":2,"seed":12584744290078674339,"hash":"57288d1822492c52","payload":300}"#;
        std::fs::write(&path, format!("{row}\n{tombstone}\n{}", &rerun[..50])).unwrap();
        let calls = Mutex::new(Vec::new());
        let f = |&p: &u64, _| {
            calls.lock().unwrap().push(p);
            Ok(p * 10)
        };
        let runs = plan(&points, &ctl, 2, Some((&path, false))).run(f).unwrap();
        assert_eq!(
            *calls.lock().unwrap(),
            vec![30],
            "row replays, tombstone skips"
        );
        assert_eq!((runs[0].result.clone(), runs[0].attempts), (Ok(100), 0));
        assert_eq!(runs[1].result, Err(poison(20)));
        assert_eq!(runs[1].attempts, 2, "recorded attempts replay");
        assert_eq!((runs[2].result.clone(), runs[2].attempts), (Ok(300), 1));
        // The torn tail was truncated before the re-run point appended.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, format!("{row}\n{tombstone}\n{rerun}\n"));
        // `retry_failed` re-runs exactly the tombstoned point.
        let runs = plan(&points, &ctl, 2, Some((&path, true))).run(f).unwrap();
        assert_eq!(*calls.lock().unwrap(), vec![30, 20]);
        assert_eq!(rows(&runs), vec![100, 200, 300]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_from_a_different_sweep_is_rejected() {
        let path = temp_journal("mismatch");
        let points: Vec<u64> = (0..3).collect();
        let ctl = RunCtl::unlimited();
        let f = |&p: &u64, _| if p == 1 { Err(poison(p)) } else { Ok(p) };
        let journaled = || plan(&points, &ctl, 1, Some((&path, false)));
        journaled().run(f).expect("seed the journal");
        let config_error = |plan: SweepPlan<'_, u64>| match plan.run(f) {
            Err(SimError::Config(e)) if e.context == "SweepJournal" => e.message,
            other => panic!("expected a SweepJournal config error, got {other:?}"),
        };
        // Same journal, different master seed: derived seeds mismatch,
        // tombstone lines included.
        let foreign = SweepPlan {
            master_seed: Some(12),
            ..journaled()
        };
        assert!(config_error(foreign).contains("different sweep"));
        // A tampered tombstone body is corrupt; as a *non-final* line it
        // is a hard typed error, never silently re-run.
        let text = std::fs::read_to_string(&path).unwrap();
        let (tombstones, rows): (Vec<&str>, Vec<&str>) =
            text.lines().partition(|l| l.contains("tombstone"));
        assert_eq!(tombstones.len(), 1, "exactly one quarantined point");
        let doctored = tombstones[0].replace("poison", "doctored");
        std::fs::write(&path, format!("{doctored}\n{}\n", rows.join("\n"))).unwrap();
        assert!(config_error(journaled()).contains("hash mismatch"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retry_heals_transient_failures_byte_identically() {
        let points: Vec<u64> = (0..6).collect();
        let ctl = RunCtl::unlimited();
        // Every point fails transiently on its first attempt; the
        // healed output must equal the fault-free run's exactly.
        let failed = Mutex::new(std::collections::HashSet::new());
        let runs = plan(&points, &ctl, 3, None)
            .run(|&p, seed| match failed.lock().unwrap().insert(p) {
                true => Err(poison(p)),
                false => Ok(p * 1000 + seed % 100),
            })
            .unwrap();
        let clean = plan(&points, &ctl, 1, None)
            .run(|&p, seed| Ok(p * 1000 + seed % 100))
            .unwrap();
        assert_eq!(rows(&runs), rows(&clean));
        assert!(runs.iter().all(|run| run.attempts == 2));
    }

    #[test]
    fn retry_exhausts_attempts_but_never_retries_permanent_or_cancelled() {
        let points: Vec<u64> = (0..4).collect();
        let ctl = RunCtl::unlimited();
        let calls = AtomicUsize::new(0);
        let cancelled = SimError::Cancelled {
            at_sim_time: SimTime::ZERO,
            reason: "per-point deadline".into(),
        };
        let runs = plan(&points, &ctl, 3, None)
            .run(|&p, _| {
                calls.fetch_add(1, Ordering::Relaxed);
                match p {
                    0 => Err(SimError::invalid_input("bad point")),
                    1 => Err(cancelled.clone()),
                    2 => Err(poison(p)),
                    _ => Ok(p),
                }
            })
            .unwrap();
        let attempts: Vec<usize> = runs.iter().map(|run| run.attempts).collect();
        assert_eq!(attempts, vec![1, 1, 3, 1]);
        assert_eq!(calls.load(Ordering::Relaxed), 6);
        assert_eq!(runs[0].result, Err(SimError::invalid_input("bad point")));
        assert_eq!(runs[1].result, Err(cancelled));
        assert_eq!(runs[2].result, Err(poison(2)));
        assert_eq!(runs[3].result, Ok(3));
    }

    #[test]
    fn quarantined_points_are_tombstoned_and_skipped_on_resume() {
        let path = temp_journal("tombstone");
        let points: Vec<u64> = (0..5).collect();
        let ctl = RunCtl::unlimited();
        let journaled = |retry_failed| plan(&points, &ctl, 2, Some((&path, retry_failed)));
        let healthy = |&p: &u64, seed: u64| Ok(p * 10 + seed % 10);
        let first = journaled(false)
            .run(|&p, seed| {
                if p == 3 {
                    Err(poison(p))
                } else {
                    healthy(&p, seed)
                }
            })
            .unwrap();
        assert_eq!(
            (first[3].result.clone(), first[3].attempts),
            (Err(poison(3)), 2)
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let tombstones: Vec<&str> = text.lines().filter(|l| l.contains("tombstone")).collect();
        assert_eq!((text.lines().count(), tombstones.len()), (5, 1));
        assert!(
            tombstones[0].starts_with("{\"index\":3,"),
            "{}",
            tombstones[0]
        );
        // Resume: the tombstone is skipped even though the point would
        // now succeed, reporting the recorded error and attempt count.
        let untouched = |_: &u64, _| -> Result<u64, SimError> { panic!("nothing may re-run") };
        assert_eq!(journaled(false).run(untouched).unwrap()[3], first[3]);
        // `retry_failed` re-runs it; the fresh success supersedes the
        // tombstone for every later replay.
        let healed = journaled(true).run(healthy).unwrap();
        assert_eq!(healed[3].result, Ok(30 + point_seed(11, 3) % 10));
        assert_eq!(
            rows(&journaled(false).run(untouched).unwrap()),
            rows(&healed)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn env_init_accepts_absent_or_valid_knob_only() {
        // The process environment is shared across the test binary, so
        // only assert properties that hold for whatever SUSTAIN_THREADS
        // the runner exported: absent → Ok(None); a valid integer →
        // Ok(Some(n)). The rejection of malformed values is asserted in
        // the subprocess CLI tests (tests/cli.rs), where the environment
        // is controlled per invocation.
        match std::env::var(THREADS_ENV) {
            Err(_) => assert_eq!(init_threads_from_env(), Ok(None)),
            Ok(raw) => match raw.trim().parse::<usize>() {
                Ok(n) => assert_eq!(init_threads_from_env(), Ok(Some(n))),
                Err(_) => assert!(init_threads_from_env().is_err()),
            },
        }
    }
}
