//! The event-driven RJMS simulator.
//!
//! One simulator covers all the §3 experiments: it schedules a job trace
//! onto a cluster under a (possibly time-varying, carbon-derived) power
//! budget, with pluggable queueing policies (FCFS, EASY backfilling,
//! carbon-aware backfilling), carbon-aware checkpoint/suspend (§3.3), and
//! malleable reshaping (§3.2).
//!
//! Semantics and simplifications (documented here, asserted in tests):
//!
//! * Nodes are homogeneous; a job's power is `power_per_node × alloc`.
//! * Reservation (EASY "shadow time") uses exact remaining runtimes of
//!   running jobs; *backfill candidates* are gated by their user walltime
//!   estimates, as in production EASY.
//! * Suspending a checkpointable job costs `checkpoint_overhead` of extra
//!   work; resuming costs `restart_overhead` (both stretch the remaining
//!   runtime, modelling write-out and restore).
//! * Power budgets bind at scheduling decisions and at hourly ticks; if
//!   shedding (shrink + suspend) cannot get under a newly lowered budget,
//!   the overshoot is recorded as violation time rather than killing jobs.

use crate::cluster::{Allocation, Cluster};
use crate::metrics::{HotPathStats, JobRecord, Segment, SimOutcome};
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use sustain_grid::trace::CarbonTrace;
use sustain_sim_core::ctl::RunCtl;
use sustain_sim_core::error::{ensure_ordered, ensure_positive, ConfigError, SimError, Validate};
use sustain_sim_core::event::{EventId, EventQueue};
use sustain_sim_core::series::TimeSeries;
use sustain_sim_core::time::{SimDuration, SimTime};
use sustain_sim_core::units::{Carbon, Energy, Power};
use sustain_workload::job::{Job, JobId};

/// Queueing/backfilling policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Policy {
    /// First-come-first-served; the head of the queue blocks.
    Fcfs,
    /// EASY backfilling: jobs may jump the queue if they do not delay the
    /// reservation of the head job.
    EasyBackfill,
    /// Conservative backfilling: every queued job holds a reservation; a
    /// job may only start early if it delays no earlier reservation.
    ConservativeBackfill,
    /// EASY backfilling plus carbon-aware start gating (§3.3): delayable
    /// jobs only start in green periods, bounded by a maximum delay.
    CarbonAware(CarbonAwareCfg),
}

impl Validate for Policy {
    fn validate(&self) -> Result<(), ConfigError> {
        match self {
            Policy::CarbonAware(cfg) => cfg.validate().map_err(|e| e.nested("Policy")),
            _ => Ok(()),
        }
    }
}

/// Configuration of the carbon-aware start gate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CarbonAwareCfg {
    /// A start is "green" when CI < this fraction of the trace mean.
    pub green_threshold_fraction: f64,
    /// Jobs with walltime estimates at or below this start regardless of
    /// the grid (delaying short jobs saves little carbon and hurts users).
    pub short_job_cutoff: SimDuration,
    /// After waiting this long a job becomes eligible unconditionally
    /// (bounds the worst-case wait).
    pub max_delay: SimDuration,
}

impl Default for CarbonAwareCfg {
    fn default() -> Self {
        CarbonAwareCfg {
            green_threshold_fraction: 0.95,
            short_job_cutoff: SimDuration::from_hours(2.0),
            max_delay: SimDuration::from_hours(24.0),
        }
    }
}

impl Validate for CarbonAwareCfg {
    fn validate(&self) -> Result<(), ConfigError> {
        ensure_positive(
            "CarbonAwareCfg",
            "green_threshold_fraction",
            self.green_threshold_fraction,
        )
        // Durations (`short_job_cutoff`, `max_delay`) are non-negative
        // and finite by construction of `SimDuration`.
    }
}

/// Node-failure injection model: failures strike nodes at a per-node
/// MTBF; a failed busy node kills its job (checkpointable jobs roll back
/// to their last segment boundary, which acts as the checkpoint; others
/// restart from scratch), and the node returns after the repair time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureModel {
    /// Per-node mean time between failures.
    pub node_mtbf: SimDuration,
    /// Node repair time.
    pub mttr: SimDuration,
    /// RNG seed for the failure process.
    pub seed: u64,
}

impl Default for FailureModel {
    fn default() -> Self {
        FailureModel {
            node_mtbf: SimDuration::from_days(365.0),
            mttr: SimDuration::from_hours(8.0),
            seed: 0xFA11,
        }
    }
}

impl Validate for FailureModel {
    fn validate(&self) -> Result<(), ConfigError> {
        // MTBF is a rate denominator: zero would mean "every node fails
        // continuously" and divides by zero in the arrival sampling.
        ensure_positive("FailureModel", "node_mtbf", self.node_mtbf.as_secs())
    }
}

/// Fair-share configuration: users' recent (exponentially decayed) usage
/// demotes their pending jobs within the same queue priority — the
/// standard RJMS fairness mechanism, and the §3.4 hook for usage-based
/// incentives.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FairShareCfg {
    /// Half-life of the usage decay.
    pub half_life: SimDuration,
}

impl Default for FairShareCfg {
    fn default() -> Self {
        FairShareCfg {
            half_life: SimDuration::from_days(7.0),
        }
    }
}

impl Validate for FairShareCfg {
    fn validate(&self) -> Result<(), ConfigError> {
        ensure_positive("FairShareCfg", "half_life", self.half_life.as_secs())
    }
}

/// Carbon-aware checkpoint/suspend configuration (§3.3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointCfg {
    /// Suspend checkpointable jobs when CI > this fraction of the mean.
    pub suspend_threshold_fraction: f64,
    /// Allow resumes when CI < this fraction of the mean (must be ≤ the
    /// suspend threshold for hysteresis).
    pub resume_threshold_fraction: f64,
    /// Extra work (wall time at current allocation) to write a checkpoint.
    pub checkpoint_overhead: SimDuration,
    /// Extra work to restore from a checkpoint.
    pub restart_overhead: SimDuration,
    /// Jobs with less remaining runtime than this are never suspended.
    pub min_remaining: SimDuration,
    /// Periodic checkpoint cadence while running: on a node failure a
    /// checkpointable job loses only the work since its last whole
    /// interval.
    pub interval: SimDuration,
}

impl Default for CheckpointCfg {
    fn default() -> Self {
        CheckpointCfg {
            suspend_threshold_fraction: 1.15,
            resume_threshold_fraction: 1.0,
            checkpoint_overhead: SimDuration::from_mins(5.0),
            restart_overhead: SimDuration::from_mins(3.0),
            min_remaining: SimDuration::from_hours(1.0),
            interval: SimDuration::from_hours(1.0),
        }
    }
}

impl Validate for CheckpointCfg {
    fn validate(&self) -> Result<(), ConfigError> {
        // `+∞` is a legal suspend threshold ("never CI-suspend", used by
        // the E8 failure experiments), so only NaN and negatives are
        // rejected here; `ensure_ordered` enforces the hysteresis.
        for (field, v) in [
            (
                "suspend_threshold_fraction",
                self.suspend_threshold_fraction,
            ),
            ("resume_threshold_fraction", self.resume_threshold_fraction),
        ] {
            if v.is_nan() || v < 0.0 {
                return Err(ConfigError::new(
                    "CheckpointCfg",
                    field,
                    format!("must be >= 0 (NaN rejected), got {v}"),
                ));
            }
        }
        ensure_ordered(
            "CheckpointCfg",
            "resume_threshold_fraction",
            self.resume_threshold_fraction,
            "suspend_threshold_fraction",
            self.suspend_threshold_fraction,
        )?;
        // The periodic-checkpoint cadence divides remaining work.
        ensure_positive("CheckpointCfg", "interval", self.interval.as_secs())
    }
}

/// Full simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The cluster.
    pub cluster: Cluster,
    /// Queueing policy.
    pub policy: Policy,
    /// Multi-queue admission/priority configuration (§3.4). Jobs that no
    /// queue admits are rejected; admitted jobs inherit their queue's
    /// priority for pending-order. `None` = single FIFO queue.
    pub queues: Option<crate::queue::QueueSet>,
    /// Grid carbon-intensity trace (enables carbon accounting and the
    /// carbon-aware policies).
    pub carbon_trace: Option<CarbonTrace>,
    /// Time-varying total power budget in watts (e.g. produced by a
    /// `ScalingPolicy`); `None` = unlimited.
    pub power_budget: Option<TimeSeries>,
    /// Carbon-aware checkpointing (requires a carbon trace).
    pub checkpoint: Option<CheckpointCfg>,
    /// Fair-share usage-based ordering within queue priorities.
    pub fair_share: Option<FairShareCfg>,
    /// Node-failure injection (None = reliable hardware).
    pub failures: Option<FailureModel>,
    /// Enable malleable reshaping at ticks (§3.2).
    pub enable_malleability: bool,
    /// Wall-time cost a job pays on every reshape (data redistribution,
    /// MPI session reconfiguration). Grow offers are declined when the
    /// remaining work cannot amortize this cost (see [`crate::malleable`]).
    pub reshape_cost: SimDuration,
    /// Tick interval for budget/checkpoint re-evaluation.
    pub tick: SimDuration,
    /// Safety cap on dispatched events.
    pub max_steps: u64,
}

impl SimConfig {
    /// A plain EASY-backfilling setup with no carbon coupling.
    pub fn easy(cluster: Cluster) -> SimConfig {
        SimConfig {
            cluster,
            policy: Policy::EasyBackfill,
            queues: None,
            carbon_trace: None,
            power_budget: None,
            checkpoint: None,
            fair_share: None,
            failures: None,
            enable_malleability: false,
            reshape_cost: SimDuration::from_secs(30.0),
            tick: SimDuration::from_hours(1.0),
            max_steps: 10_000_000,
        }
    }
}

impl Validate for SimConfig {
    fn validate(&self) -> Result<(), ConfigError> {
        if self.cluster.nodes == 0 {
            return Err(ConfigError::new(
                "SimConfig",
                "cluster.nodes",
                "cluster needs at least one node",
            ));
        }
        self.policy.validate().map_err(|e| e.nested("SimConfig"))?;
        self.queues.validate().map_err(|e| e.nested("SimConfig"))?;
        self.checkpoint
            .validate()
            .map_err(|e| e.nested("SimConfig"))?;
        self.fair_share
            .validate()
            .map_err(|e| e.nested("SimConfig"))?;
        self.failures
            .validate()
            .map_err(|e| e.nested("SimConfig"))?;
        if let Some(trace) = &self.carbon_trace {
            if trace.series().values().is_empty() {
                return Err(ConfigError::new(
                    "SimConfig",
                    "carbon_trace",
                    "trace must contain at least one sample",
                ));
            }
            if let Some(bad) = trace.series().values().iter().find(|v| !v.is_finite()) {
                return Err(ConfigError::new(
                    "SimConfig",
                    "carbon_trace",
                    format!("trace contains a non-finite sample ({bad})"),
                ));
            }
        }
        if let Some(budget) = &self.power_budget {
            if let Some(bad) = budget.values().iter().find(|v| !v.is_finite() || **v < 0.0) {
                return Err(ConfigError::new(
                    "SimConfig",
                    "power_budget",
                    format!("budget samples must be finite and >= 0, got {bad}"),
                ));
            }
        }
        // A zero tick would re-fire the periodic event at the same
        // instant until `max_steps` trips.
        ensure_positive("SimConfig", "tick", self.tick.as_secs())?;
        if self.max_steps == 0 {
            return Err(ConfigError::new("SimConfig", "max_steps", "must be >= 1"));
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    Submit(usize),
    Finish(JobId),
    Tick,
    NodeRepaired,
}

struct RunJob {
    idx: usize,
    alloc: u32,
    rate: f64,
    work_remaining: f64,
    last_update: SimTime,
    seg_start: SimTime,
    /// Work remaining at the segment start — the rollback point when a
    /// failure strikes a checkpointable job.
    seg_start_work: f64,
    finish_ev: EventId,
    /// When `finish_ev` fires: the job's end, fixed when the event was
    /// scheduled rather than re-derived from `now` and the remaining
    /// work, so a conservative reservation planned against it is the
    /// same at every later pass.
    finish_at: SimTime,
}

struct Book {
    start: Option<SimTime>,
    end: Option<SimTime>,
    segments: Vec<Segment>,
    suspensions: u32,
    reshapes: u32,
    restarts: u32,
    rejected: bool,
}

/// Reusable planning buffers owned by the sim (the DESIGN.md §6
/// scratch-buffer audit): the schedule, backfill, conservative-planning
/// and resort passes borrow these instead of allocating per pass, so
/// once they have warmed up to the high-water mark the steady-state
/// tick/schedule path performs no heap allocation. `scratch_grows` in
/// [`HotPathStats`] counts the warm-up growths and is expected to
/// plateau.
#[derive(Default)]
struct Scratch {
    /// Time-sorted availability/reservation profile for conservative
    /// planning. Unlike the other buffers it carries state between
    /// passes: the first [`Sim::plan_len`] entries' reservations stay in
    /// it (DESIGN.md §6).
    profile: Vec<Step>,
    /// Time-sorted (time, freed nodes) profile for the EASY shadow.
    frees: Vec<(SimTime, u32)>,
    /// Keyed pending entries: the dirty users' repositioned entries in
    /// the incremental fix-up, every entry in a legacy resort.
    keyed: Vec<(std::cmp::Reverse<u32>, f64, SimTime, JobId, usize)>,
    /// Per-user decayed-usage memo for one legacy resort.
    usage_memo: UserMap<f64>,
}

/// Whose step a conservative profile [`Step`] is.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Owner {
    /// The end of the running job with this job index.
    Run(usize),
    /// The reservation of the pending entry at this queue position.
    Res(usize),
}

/// One step of the conservative availability profile: at `t`, `delta`
/// nodes are freed (+) or reserved (−). Within a time, running jobs'
/// ends come first, in `Sim::running` order, then reservations in the
/// order they were placed: the order a fresh build produces, which the
/// slot search's window check can see.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Step {
    t: SimTime,
    delta: i64,
    owner: Owner,
}

/// Inserts the end of running job `idx` (`nodes` freed at `t`) into a
/// conservative profile: after the running jobs' ends of equal time and
/// before the reservations, where a fresh build puts the job that
/// started last.
fn insert_run_end(profile: &mut Vec<Step>, t: SimTime, nodes: u32, idx: usize) {
    let at = profile.partition_point(|e| e.t < t || (e.t == t && matches!(e.owner, Owner::Run(_))));
    let (delta, owner) = (nodes as i64, Owner::Run(idx));
    profile.insert(at, Step { t, delta, owner });
}

/// Inserts a step of the reservation of the entry at `pos` at the upper
/// bound of its time, after every step of equal time (see
/// [`sorted_insert`]).
fn insert_reservation(profile: &mut Vec<Step>, t: SimTime, delta: i64, pos: usize) {
    let at = profile.partition_point(|e| e.t <= t);
    let owner = Owner::Res(pos);
    profile.insert(at, Step { t, delta, owner });
}

#[cfg(test)]
thread_local! {
    /// Test-only switch: rebuild the conservative plan at every pass
    /// and after every start, as before the plan was kept. The
    /// differential tests compare it with the kept plan; production
    /// code has no such switch.
    static REBUILD_EVERY_PASS: Cell<bool> = const { Cell::new(false) };
}

#[cfg(test)]
fn rebuild_every_pass() -> bool {
    REBUILD_EVERY_PASS.with(Cell::get)
}

#[cfg(not(test))]
#[inline(always)]
fn rebuild_every_pass() -> bool {
    false
}

#[cfg(test)]
thread_local! {
    /// Test-only switch: the EASY walk skips only entries that cannot
    /// fit the free nodes, as before it skipped by time too. The
    /// differential tests compare it with the full skip; production
    /// code has no such switch.
    static NODES_ONLY_WALK: Cell<bool> = const { Cell::new(false) };
}

#[cfg(test)]
fn nodes_only_walk() -> bool {
    NODES_ONLY_WALK.with(Cell::get)
}

/// Entries per bit mask in [`PendQueue::next_start`].
const MASK_LANES: usize = 16;

/// Bit k set iff `need[k] <= free`, for up to [`MASK_LANES`] entries.
/// Branch-free, so a full chunk compiles to vector compares.
#[inline(always)]
fn fit_mask(need: &[u32], free: u32) -> u32 {
    need.iter()
        .enumerate()
        .fold(0, |mask, (k, &m)| mask | ((m <= free) as u32) << k)
}

/// `base` plus the lowest set bit k of `mask` for which `ok(base + k)`
/// holds, if any.
#[inline(always)]
fn first_set(mut mask: u32, base: usize, ok: impl Fn(usize) -> bool) -> Option<usize> {
    while mask != 0 {
        let p = base + mask.trailing_zeros() as usize;
        if ok(p) {
            return Some(p);
        }
        mask &= mask - 1;
    }
    None
}

/// The single pending-order key (see [`Sim::pending_key`]).
type PendKey = (std::cmp::Reverse<u32>, f64, SimTime, JobId);

/// Multiplicative hasher for the u32 user-id key space: one odd-
/// constant multiply instead of SipHash. User-keyed lookups sit on the
/// pending-order hot path (every binary-search probe reads the user's
/// normalized usage), where the default hasher's ~20 ns per probe was
/// measurable. The multiply is bijective mod 2^64, so sequential ids
/// spread over the table; nothing iterates these maps in an order-
/// sensitive way, so the hasher cannot affect outcomes.
#[derive(Default)]
struct UserIdHasher(u64);

impl std::hash::Hasher for UserIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by u32 keys, which hit `write_u32`).
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type UserBuildHasher = std::hash::BuildHasherDefault<UserIdHasher>;
type UserMap<V> = std::collections::HashMap<u32, V, UserBuildHasher>;
type UserSet = std::collections::HashSet<u32, UserBuildHasher>;

/// The pending queue: job indices in scheduling order plus parallel
/// dense arrays of per-entry (immutable) job facts, so the hot scans
/// over the queue read sequential `u32`s instead of one random
/// `jobs[i]` load per entry — on long queues those cache misses
/// dominated. Reads deref to the index slice; every mutation goes
/// through a method that keeps the arrays in lockstep.
///
/// `need` serves the backfilling schedulers: EASY walks scan it
/// forward ([`PendQueue::next_start`]) and the conservative plan scans
/// it backward ([`PendQueue::fit_end`]). FCFS never backfills, so it is
/// maintained only when something reads it (`track_need`). `wall`
/// serves only the EASY walk (`track_wall`), and `user` and `counts`
/// only the fair-share fix-up (`track_users`). A scheduler does not pay
/// for the upkeep of an array it never reads.
#[derive(Default)]
struct PendQueue {
    idx: Vec<usize>,
    /// Each entry's minimum allocation (`job.bounds().0`): an entry
    /// with `need > free` cannot start, so backfill skips it in bulk
    /// and the conservative plan stops before a tail of such entries.
    /// Backfilling schedulers only (`track_need`).
    need: Vec<u32>,
    /// Each entry's walltime estimate in seconds: an entry that would
    /// outlive the EASY shadow can start only within `spare`, so the
    /// walk skips it in bulk too. EASY and carbon-aware only
    /// (`track_wall`).
    wall: Vec<f64>,
    /// Each entry's user id (fair share only; see above). Makes the
    /// fair-share dirty scan in [`Sim::fixup_pending`] a sequential
    /// sweep.
    user: Vec<u32>,
    /// Pending-entry count per user, maintained only under fair share
    /// (`track_users`). Lets the ordering fix-up know *how many*
    /// entries a dirty user has — zero skips the extraction scan
    /// entirely, and a reached count turns the clean suffix into one
    /// bulk `copy_within` instead of a per-element test.
    counts: UserMap<u32>,
    track_need: bool,
    track_wall: bool,
    track_users: bool,
}

impl std::ops::Deref for PendQueue {
    type Target = [usize];
    fn deref(&self) -> &[usize] {
        &self.idx
    }
}

impl PendQueue {
    fn insert(&mut self, pos: usize, idx: usize, job: &Job) {
        self.idx.insert(pos, idx);
        if self.track_need {
            self.need.insert(pos, job.bounds().0);
        }
        if self.track_wall {
            self.wall.insert(pos, job.walltime_estimate.as_secs());
        }
        if self.track_users {
            self.user.insert(pos, job.user);
            *self.counts.entry(job.user).or_insert(0) += 1;
        }
    }

    fn remove(&mut self, pos: usize) -> usize {
        if self.track_users {
            self.uncount(pos);
            self.user.remove(pos);
        }
        if self.track_need {
            self.need.remove(pos);
        }
        if self.track_wall {
            self.wall.remove(pos);
        }
        self.idx.remove(pos)
    }

    fn drain_front(&mut self, n: usize) {
        if self.track_users {
            for i in 0..n {
                self.uncount(i);
            }
            self.user.drain(..n);
        }
        if self.track_need {
            self.need.drain(..n);
        }
        if self.track_wall {
            self.wall.drain(..n);
        }
        self.idx.drain(..n);
    }

    /// Refills the arrays from `order`, job indices in their new queue
    /// order (the full resorts). The per-user counts are unchanged: the
    /// same entries are pending.
    fn refill(&mut self, order: impl Iterator<Item = usize>, jobs: &[Job]) {
        self.idx.clear();
        self.need.clear();
        self.wall.clear();
        self.user.clear();
        for i in order {
            self.idx.push(i);
            if self.track_need {
                self.need.push(jobs[i].bounds().0);
            }
            if self.track_wall {
                self.wall.push(jobs[i].walltime_estimate.as_secs());
            }
            if self.track_users {
                self.user.push(jobs[i].user);
            }
        }
    }

    /// In-place compaction step: keep the entry at `read` by moving it
    /// to `write` (every maintained array). Sits in the backfill walk's
    /// innermost loop, hence the forced inlining.
    #[inline(always)]
    fn keep(&mut self, write: usize, read: usize) {
        self.idx[write] = self.idx[read];
        if self.track_need {
            self.need[write] = self.need[read];
        }
        if self.track_wall {
            self.wall[write] = self.wall[read];
        }
        if self.track_users {
            self.user[write] = self.user[read];
        }
    }

    /// Compaction of a whole block: keeps the entries `from..to` by
    /// moving them down to `write` (one `copy_within` per array; a
    /// no-op while nothing has been dropped yet).
    fn shift(&mut self, write: usize, from: usize, to: usize) {
        if write == from {
            return;
        }
        self.idx.copy_within(from..to, write);
        if self.track_need {
            self.need.copy_within(from..to, write);
        }
        if self.track_wall {
            self.wall.copy_within(from..to, write);
        }
        if self.track_users {
            self.user.copy_within(from..to, write);
        }
    }

    /// First position at or after `from` whose entry could start in an
    /// EASY walk with `free` nodes free, `spare` nodes spare at the
    /// `shadow` and the clock at `now` (seconds), or `len` if none can:
    /// `need <= free && (need <= spare || now + wall <= shadow)`, the
    /// walk's own start test with the allocation replaced by its lower
    /// bound `need`.
    ///
    /// The node test runs [`MASK_LANES`] entries at a time into a bit
    /// mask, and the time test only on its set bits: on long queues few
    /// entries fit the free nodes, and a per-entry branch on the node
    /// test mispredicts on every one that does.
    #[inline]
    fn next_start(&self, from: usize, free: u32, spare: u32, now: f64, shadow: f64) -> usize {
        debug_assert!(self.track_wall);
        #[cfg(test)]
        if nodes_only_walk() {
            return self.need[from..]
                .iter()
                .position(|&m| m <= free)
                .map_or(self.need.len(), |p| from + p);
        }
        let can_start = |p: usize| self.need[p] <= spare || now + self.wall[p] <= shadow;
        let mut chunks = self.need[from..].chunks_exact(MASK_LANES);
        let mut base = from;
        for chunk in &mut chunks {
            if let Some(p) = first_set(fit_mask(chunk, free), base, can_start) {
                return p;
            }
            base += MASK_LANES;
        }
        first_set(fit_mask(chunks.remainder(), free), base, can_start).unwrap_or(self.need.len())
    }

    /// One past the last position before `end` whose entry could fit in
    /// `free` nodes, or 0 if none can: the nodes-only reverse of
    /// [`PendQueue::next_start`], for the conservative plan's exit.
    #[inline]
    fn fit_end(&self, end: usize, free: u32) -> usize {
        debug_assert!(self.track_need);
        self.need[..end]
            .iter()
            .rposition(|&m| m <= free)
            .map_or(0, |p| p + 1)
    }

    /// Drops the entry at `pos` from the per-user counts without
    /// touching the arrays — for compaction loops, which overwrite
    /// non-kept entries implicitly. An entry that leaves the queue must
    /// be uncounted exactly once: an over-count merely costs the fix-up
    /// its early exit, but an under-count would strand a dirty entry.
    fn uncount(&mut self, pos: usize) {
        if self.track_users {
            if let Some(c) = self.counts.get_mut(&self.user[pos]) {
                debug_assert!(*c > 0);
                *c = c.saturating_sub(1);
            } else {
                debug_assert!(false, "uncount for untracked user");
            }
        }
    }

    fn count(&self, user: u32) -> u32 {
        self.counts.get(&user).copied().unwrap_or(0)
    }

    /// Ends a compaction walk that kept `write` entries out of the
    /// first `read`: the unvisited tail `read..` moves down to `write`
    /// in order, and everything past it is dropped. A walk that visited
    /// every entry (`read == len`) just truncates to `write`.
    fn close_gap(&mut self, write: usize, read: usize) {
        let len = self.idx.len();
        self.shift(write, read, len);
        self.idx.truncate(write + len - read);
        if self.track_need {
            self.need.truncate(write + len - read);
        }
        if self.track_wall {
            self.wall.truncate(write + len - read);
        }
        if self.track_users {
            self.user.truncate(write + len - read);
        }
    }
}

/// Total order on pending keys: queue priority (desc, via `Reverse`),
/// normalized fair-share usage (asc), submit time, then id. Ids are
/// unique, so the order is total and stable/unstable sorts agree.
fn pend_key_cmp(a: &PendKey, b: &PendKey) -> std::cmp::Ordering {
    a.0.cmp(&b.0)
        .then_with(|| a.1.total_cmp(&b.1))
        .then_with(|| a.2.cmp(&b.2))
        .then_with(|| a.3.cmp(&b.3))
}

/// Inserts into a time-sorted profile at the upper bound of its time
/// key. Sequential upper-bound inserts reproduce exactly the order that
/// "append everything, then stable-sort by time" used to produce, while
/// staying allocation-free (within capacity).
fn sorted_insert<T>(v: &mut Vec<(SimTime, T)>, item: (SimTime, T)) {
    let pos = v.partition_point(|e| e.0 <= item.0);
    v.insert(pos, item);
}

/// Formerly applied `SUSTAIN_PAR_PENDING_MIN`, the threshold of a
/// speculative planning phase that no longer exists (DESIGN.md §6). Kept
/// as a no-op only because `examples/benchmark` calls it at startup; the
/// benchmark is its only caller.
#[doc(hidden)]
pub fn init_par_pending_min_from_env() -> Result<Option<usize>, ConfigError> {
    Ok(None)
}

/// Renormalization threshold for the fair-share usage epoch, in
/// half-lives. Normalized usage grows by `2^(t / half_life - shift)`;
/// once that exponent would exceed this bound at a recording,
/// [`Sim::record_usage`] rescales every stored value by an exact power
/// of two and advances the shift. 512 keeps `exp2(e) ≤ 2^512 ≈ 1.3e154`,
/// far from f64 overflow (~1.8e308) even after multiplying by
/// node-seconds, while renormalizing rarely enough to never matter for
/// performance (`fs_renorms` counts occurrences).
const FS_RENORM_HALF_LIVES: f64 = 512.0;

/// Binary exponent below which a decayed fair-share usage is treated as
/// dangerously close to the subnormal range (f64 subnormals start at
/// 2^-1022). Once any user's decayed value sinks past `2^-1000`,
/// ordering switches — stickily — to the legacy per-read `powf` keys:
/// in the subnormal range the legacy values round so coarsely that
/// comparing full-precision normalized values no longer reproduces
/// their order, and the golden snapshots pin the legacy bits. The
/// 22-half-life margin keeps the switch strictly inside the regime
/// where both keys still agree. Reaching it at all takes a thousand
/// half-lives of drain (centuries of simulated idle at realistic
/// half-lives) — no benchmark scenario comes within an order of
/// magnitude of it.
const FS_DEGRADE_MIN_EXP: f64 = -1000.0;

struct Sim<'a> {
    jobs: &'a [Job],
    cfg: &'a SimConfig,
    queue: EventQueue<Ev>,
    alloc: Allocation,
    pending: PendQueue,
    priorities: Vec<u32>,
    running: Vec<RunJob>,
    suspended: Vec<(usize, f64)>, // (job idx, work_remaining)
    books: Vec<Book>,
    running_power: Power,
    submitted: usize,
    completed: usize,
    rejected: usize,
    trace_mean: f64,
    // Continuous accounting.
    last_account: SimTime,
    idle_energy: Energy,
    idle_carbon: Carbon,
    violation_seconds: f64,
    tick_scheduled: bool,
    failure_rng: Option<sustain_sim_core::rng::RngStream>,
    total_failures: u32,
    /// Largest budget the series ever offers (jobs that cannot fit even
    /// this are rejected at submit rather than pending forever).
    max_budget: Option<Power>,
    /// Set at the end of every completed scheduling pass (a pass runs to
    /// fixpoint: nothing more can start *now*); cleared by any mutation
    /// that could enable a start. While set, `try_schedule` is a no-op
    /// under the guards proven in [`Sim::can_skip_schedule`].
    quiescent: bool,
    /// Budget value observed when the last pass went quiescent.
    quiescent_budget: Option<Power>,
    /// `resume_allowed` observed when the last pass went quiescent.
    quiescent_resume_ok: bool,
    /// Cached current carbon bucket: (valid_from, valid_to, g/kWh).
    ci_cache: Cell<Option<(SimTime, SimTime, f64)>>,
    /// Cached current budget bucket: (valid_from, valid_to, watts).
    budget_cache: Cell<Option<(SimTime, SimTime, f64)>>,
    /// CI/budget lookups served from the cached bucket (interior
    /// mutability: the lookups happen behind `&self`).
    trace_hits: Cell<u64>,
    /// CI/budget lookups that crossed a bucket boundary.
    trace_misses: Cell<u64>,
    /// Remaining hot-path counters for this run.
    stats: HotPathStats,
    // Per-user *normalized* fair-share usage: the decayed node-seconds
    // value scaled by `2^(t_rec / half_life - fs_shift)` at recording
    // time. Uniform decay multiplies every user's usage by the same
    // factor, so normalized values compare exactly like decayed ones —
    // without a per-read `powf` (see DESIGN.md §6).
    fs_usage: UserMap<f64>,
    // Integer count of half-lives subtracted from the normalization
    // exponent so far (exact in f64 far beyond any reachable value).
    fs_shift: f64,
    // Users whose usage changed since the last ordering fix-up; only
    // their pending jobs can be out of place.
    fs_dirty: UserSet,
    // The legacy representation the pre-incremental code kept: per-user
    // (decayed node-seconds, last decay time), chained through one
    // `powf` per recording. Maintained alongside the normalized map —
    // one powf per *recording* is cheap; it is the per-*read* powf the
    // normalized key eliminates — so the legacy-key regime below can
    // reproduce the reference behavior bit for bit.
    fs_legacy: UserMap<(f64, SimTime)>,
    // Conservative lower bound on the positive normalized usages (stale
    // entries may since have grown, so the bound only errs low, which
    // only makes the legacy switch trigger earlier — always safe).
    fs_min_nu: f64,
    // Sticky switch into the legacy-key regime: set once any user's
    // decayed usage approaches the subnormal range, where the legacy
    // `powf` values lose the precision that makes them order-equivalent
    // to the normalized key (see DESIGN.md §6). From then on ordering
    // uses per-read legacy keys, exactly like the reference code.
    fs_legacy_keys: bool,
    /// Set by a legacy resort that found every pending user's decayed
    /// usage to be exactly `0.0`. Zero is absorbing — decay only
    /// multiplies by a factor in `[0, 1]` — so from that moment the
    /// legacy key is time-invariant and the pending order frozen, which
    /// is what lets [`Sim::can_skip_schedule`] skip again after the
    /// legacy switch. Cleared by usage recordings and by inserts
    /// carrying nonzero usage.
    usage_all_zero: bool,
    /// Leading pending entries whose conservative reservations are in
    /// `scratch.profile`, as a fresh plan at the last pass placed them.
    /// 0 means the profile is rebuilt at the next pass. Every change
    /// the rules of DESIGN.md §6 cannot prove harmless sets it to 0.
    plan_len: usize,
    /// Nodes taken out by failures and not yet repaired. While any is
    /// down the conservative plan is rebuilt at every pass.
    nodes_down: u32,
    /// Reusable planning buffers.
    scratch: Scratch,
}

impl<'a> Sim<'a> {
    fn new(jobs: &'a [Job], cfg: &'a SimConfig) -> Self {
        let trace_mean = cfg
            .carbon_trace
            .as_ref()
            .map(|t| t.series().stats().mean())
            .unwrap_or(0.0);
        Sim {
            jobs,
            cfg,
            queue: EventQueue::with_capacity(jobs.len() * 2 + 16),
            alloc: Allocation::new(cfg.cluster.nodes),
            pending: PendQueue {
                track_need: !matches!(cfg.policy, Policy::Fcfs),
                track_wall: matches!(cfg.policy, Policy::EasyBackfill | Policy::CarbonAware(_)),
                track_users: cfg.fair_share.is_some(),
                ..PendQueue::default()
            },
            priorities: vec![0; jobs.len()],
            fs_usage: UserMap::default(),
            fs_shift: 0.0,
            fs_dirty: UserSet::default(),
            fs_legacy: UserMap::default(),
            fs_min_nu: f64::INFINITY,
            fs_legacy_keys: false,
            usage_all_zero: false,
            running: Vec::new(),
            suspended: Vec::new(),
            books: jobs
                .iter()
                .map(|_| Book {
                    start: None,
                    end: None,
                    segments: Vec::new(),
                    suspensions: 0,
                    reshapes: 0,
                    restarts: 0,
                    rejected: false,
                })
                .collect(),
            running_power: Power::ZERO,
            submitted: 0,
            completed: 0,
            rejected: 0,
            trace_mean,
            last_account: SimTime::ZERO,
            idle_energy: Energy::ZERO,
            idle_carbon: Carbon::ZERO,
            violation_seconds: 0.0,
            tick_scheduled: false,
            failure_rng: cfg
                .failures
                .as_ref()
                .map(|f| sustain_sim_core::rng::RngStream::new(f.seed)),
            total_failures: 0,
            max_budget: cfg
                .power_budget
                .as_ref()
                .map(|b| Power::from_watts(b.values().iter().copied().fold(0.0, f64::max))),
            quiescent: false,
            quiescent_budget: None,
            quiescent_resume_ok: true,
            ci_cache: Cell::new(None),
            budget_cache: Cell::new(None),
            trace_hits: Cell::new(0),
            trace_misses: Cell::new(0),
            stats: HotPathStats::default(),
            plan_len: 0,
            nodes_down: 0,
            scratch: Scratch::default(),
        }
    }

    /// Exponent of the normalization factor at `t`: how many half-lives
    /// `t` sits past the current epoch. A value recorded at `t` enters
    /// the map as `node_seconds × 2^e(t)`; dividing two users' stored
    /// values cancels the common factor, so comparing them IS comparing
    /// decayed usage — no per-read `powf`.
    fn fs_exponent(&self, t: SimTime) -> f64 {
        // Only called with fair share enabled; the identity exponent is
        // a harmless answer for the unreachable disabled case.
        let Some(cfg) = self.cfg.fair_share.as_ref() else {
            return 0.0;
        };
        t.as_secs() / cfg.half_life.as_secs() - self.fs_shift
    }

    /// Normalized usage of a user (identically 0.0 when fair share is
    /// off: the map stays empty).
    fn norm_usage(&self, user: u32) -> f64 {
        self.fs_usage.get(&user).copied().unwrap_or(0.0)
    }

    /// Records usage for a user at `now`, in both representations. The
    /// only operation that can change *relative* fair-share order:
    /// decay between recordings scales every user's usage by the same
    /// factor, preserving order, so only the recorded user goes dirty.
    fn record_usage(&mut self, user: u32, node_seconds: f64, now: SimTime) {
        if self.cfg.fair_share.is_none() {
            return;
        }
        // The legacy representation: decay-to-now, then add. One `powf`
        // per recording, exactly as the reference code chained them.
        let decayed = self.legacy_usage(user, now);
        self.fs_legacy.insert(user, (decayed + node_seconds, now));
        self.fs_dirty.insert(user);
        self.usage_all_zero = false;
        self.quiescent = false;
        let mut e = self.fs_exponent(now);
        if e > FS_RENORM_HALF_LIVES {
            self.fs_renormalize(e);
            e = self.fs_exponent(now);
        }
        let nu = self.fs_usage.entry(user).or_insert(0.0);
        *nu += node_seconds * f64::exp2(e);
        self.fs_min_nu = self.fs_min_nu.min(*nu);
    }

    /// Decayed usage of a user at `now` under the legacy representation
    /// (node-seconds, half-life decay, per-read `powf`).
    fn legacy_usage(&self, user: u32, now: SimTime) -> f64 {
        let Some(cfg) = &self.cfg.fair_share else {
            return 0.0;
        };
        match self.fs_legacy.get(&user) {
            Some(&(value, at)) => {
                let dt = now.saturating_since(at).as_secs();
                value * 0.5f64.powf(dt / cfg.half_life.as_secs())
            }
            None => 0.0,
        }
    }

    /// Whether ordering must switch to legacy keys at `now`: true once
    /// the smallest positive normalized usage corresponds to a decayed
    /// value within [`FS_DEGRADE_MARGIN_HALF_LIVES`] half-lives of the
    /// subnormal range. Below that, the legacy values' own rounding —
    /// which the goldens pin — is no longer reproduced by comparing
    /// normalized values at full precision. Evaluated in log space so
    /// the probe itself cannot underflow.
    fn fs_should_degrade(&self, now: SimTime) -> bool {
        if self.fs_min_nu == f64::INFINITY {
            return false;
        }
        self.fs_min_nu.log2() - self.fs_exponent(now) < FS_DEGRADE_MIN_EXP
    }

    /// Advances the normalization epoch by `⌊e⌋` half-lives, rescaling
    /// every stored value by the exact power of two `2^-⌊e⌋`. The
    /// rescale is exact (power-of-two multiply) unless a value
    /// underflows toward subnormal range — and a subnormal collapse can
    /// merge previously-distinct usages into a tie, so every pending
    /// user is marked dirty and the next fix-up restores full sorted
    /// order under the rescaled keys. Underflow all the way to `0.0`
    /// mirrors the old `powf` path, which also underflowed after
    /// ~1000 half-lives of decay.
    fn fs_renormalize(&mut self, e: f64) {
        let k = e.floor();
        let scale = f64::exp2(-k);
        for v in self.fs_usage.values_mut() {
            *v *= scale;
        }
        self.fs_shift += k;
        self.stats.fs_renorms += 1;
        for &u in &self.pending.user {
            self.fs_dirty.insert(u);
        }
        // The bound rescales exactly like the values, but recompute it
        // from scratch: entries that grew since the bound was taken make
        // the stale bound pessimistic, and underflowed-to-zero entries
        // must drop out (zero has no legacy precision left to protect —
        // by the time a *renorm* can underflow a value, the legacy
        // switch below has long since fired for it).
        self.fs_min_nu = self
            .fs_usage
            .values()
            .copied()
            .filter(|&v| v > 0.0)
            .fold(f64::INFINITY, f64::min);
    }

    /// THE pending-order key — the one definition the sorted insert,
    /// the incremental fix-up and its debug ordering check all use: queue
    /// priority (desc), normalized fair-share usage (asc; identically
    /// 0.0 when fair share is off), submit time, then id. The id makes
    /// the key unique, so sorted-insert and full-sort produce the same
    /// total order. Time-invariant between usage recordings — the key
    /// needs no `now`.
    fn pending_key(&self, i: usize) -> PendKey {
        (
            std::cmp::Reverse(self.priorities[i]),
            self.norm_usage(self.jobs[i].user),
            self.jobs[i].submit,
            self.jobs[i].id,
        )
    }

    /// Restores pending order after usage recordings: repositions only
    /// the dirty users' jobs (remove + sorted re-insert, O(k log n))
    /// instead of rebuilding and sorting the whole queue. Keys are
    /// unique and the clean entries are already in order, so the result
    /// equals a full sort exactly. Debug builds assert that after every
    /// pass: the queue must be strictly increasing under
    /// [`Sim::pending_key`], the one order a full sort can produce. A
    /// pass with no recordings since the last fix-up has provably
    /// unchanged order (the key is time-invariant) and skips outright —
    /// the gate the old timestamp-keyed skip could never hit under load.
    ///
    /// Once decayed usage approaches the subnormal range the whole
    /// ordering switches — stickily — to [`Sim::resort_pending_legacy`],
    /// which reproduces the reference `powf`-per-read behavior (see
    /// [`FS_DEGRADE_MIN_EXP`]).
    #[inline]
    fn fixup_pending(&mut self, now: SimTime) {
        if self.cfg.fair_share.is_none() {
            return;
        }
        self.fixup_pending_fs(now);
        debug_assert!(
            self.fs_legacy_keys
                || self.pending.windows(2).all(|w| {
                    pend_key_cmp(&self.pending_key(w[0]), &self.pending_key(w[1]))
                        == std::cmp::Ordering::Less
                }),
            "fair-share fix-up left the pending queue out of key order"
        );
    }

    /// The fair-share-only body of [`Sim::fixup_pending`], outlined so
    /// the (large) extraction-and-merge machinery never inlines into —
    /// and pessimizes register allocation across — `schedule_pass`,
    /// which non-fair-share configs drive through the same call site.
    #[inline(never)]
    fn fixup_pending_fs(&mut self, now: SimTime) {
        if !self.fs_legacy_keys && self.fs_should_degrade(now) {
            self.fs_legacy_keys = true;
        }
        if self.fs_legacy_keys {
            self.resort_pending_legacy(now);
            return;
        }
        if self.fs_dirty.is_empty() {
            self.stats.resorts_skipped += 1;
            return;
        }
        if self.pending.len() < 2 {
            self.fs_dirty.clear();
            return;
        }
        // The per-user counts bound the extraction: no pending work for
        // any dirty user means the order is provably unchanged, without
        // touching the queue at all.
        let k: usize = self
            .fs_dirty
            .iter()
            .map(|&u| self.pending.count(u) as usize)
            .sum();
        if k == 0 {
            self.fs_dirty.clear();
            self.stats.resorts_skipped += 1;
            return;
        }
        // Extract the dirty users' entries (with their new keys) in one
        // lockstep compaction over the queue's dense user array — no
        // random `jobs[i]` loads for the clean majority. The dirty set
        // is almost always a single user (one completion, one recording,
        // one fix-up), so it is tested from a small stack copy instead
        // of hashing every element. The compaction itself is three
        // phases: scan the untouched clean prefix without copies, test-
        // and-compact until all `k` counted entries are found, then
        // bulk-move the clean suffix.
        let mut moved = std::mem::take(&mut self.scratch.keyed);
        let cap = moved.capacity();
        moved.clear();
        let mut q = std::mem::take(&mut self.pending);
        let mut small = [0u32; 8];
        let nd = self.fs_dirty.len();
        let use_small = nd <= small.len();
        if use_small {
            for (s, &u) in small.iter_mut().zip(self.fs_dirty.iter()) {
                *s = u;
            }
        }
        let is_dirty = |fsd: &UserSet, u: u32| {
            if use_small {
                small[..nd].contains(&u)
            } else {
                fsd.contains(&u)
            }
        };
        let n = q.idx.len();
        // Phase 1: clean prefix — pure scan, no copies.
        let mut read = 0;
        while read < n && !is_dirty(&self.fs_dirty, q.user[read]) {
            read += 1;
        }
        // Phase 2: compact until every counted dirty entry is out.
        let mut write = read;
        while read < n && moved.len() < k {
            let u = q.user[read];
            if is_dirty(&self.fs_dirty, u) {
                let i = q.idx[read];
                moved.push((
                    std::cmp::Reverse(self.priorities[i]),
                    self.norm_usage(u),
                    self.jobs[i].submit,
                    self.jobs[i].id,
                    i,
                ));
            } else {
                q.keep(write, read);
                write += 1;
            }
            read += 1;
        }
        debug_assert_eq!(moved.len(), k);
        // Phase 3: clean suffix — one bulk move per array.
        q.close_gap(write, read);
        self.fs_dirty.clear();
        if moved.is_empty() {
            // The recorded users had nothing pending: order unchanged.
            self.pending = q;
            self.stats.resorts_skipped += 1;
            self.scratch.keyed = moved;
            return;
        }
        moved.sort_unstable_by(|a, b| pend_key_cmp(&(a.0, a.1, a.2, a.3), &(b.0, b.1, b.2, b.3)));
        // Block merge of the two sorted runs, from the back: each moved
        // entry's insertion point is found by binary search (O(k log n)
        // key evaluations total) and the clean entries between two
        // insertion points shift as one `copy_within` block — no per-
        // element key reads, unlike a classic two-finger merge. Keys are
        // unique, so the result is the one total order a full sort
        // would produce.
        let clean = q.idx.len();
        let total = clean + moved.len();
        q.idx.resize(total, usize::MAX);
        if q.track_need {
            q.need.resize(total, 0);
        }
        if q.track_wall {
            q.wall.resize(total, 0.0);
        }
        q.user.resize(total, 0);
        let mut src = clean; // clean entries still at [0..src)
        let mut dst = total; // everything at [dst..total) is placed
        for j in (0..moved.len()).rev() {
            let m = &moved[j];
            let mk = (m.0, m.1, m.2, m.3);
            // First clean position whose key exceeds the moved key —
            // keys are unique, so "not Greater" is exactly "Less".
            let pos = q.idx[..src].partition_point(|&p| {
                pend_key_cmp(&self.pending_key(p), &mk) != std::cmp::Ordering::Greater
            });
            let len = src - pos;
            if len > 0 {
                q.idx.copy_within(pos..src, dst - len);
                if q.track_need {
                    q.need.copy_within(pos..src, dst - len);
                }
                if q.track_wall {
                    q.wall.copy_within(pos..src, dst - len);
                }
                q.user.copy_within(pos..src, dst - len);
                dst -= len;
            }
            dst -= 1;
            q.idx[dst] = m.4;
            if q.track_need {
                q.need[dst] = self.jobs[m.4].bounds().0;
            }
            if q.track_wall {
                q.wall[dst] = self.jobs[m.4].walltime_estimate.as_secs();
            }
            q.user[dst] = self.jobs[m.4].user;
            src = pos;
        }
        debug_assert_eq!(src, dst);
        self.pending = q;
        self.stats.fs_repositions += moved.len() as u64;
        if moved.capacity() != cap {
            self.stats.scratch_grows += 1;
        }
        self.scratch.keyed = moved;
    }

    /// The reference resort, bit for bit: rebuild and fully sort the
    /// pending queue under per-read legacy `powf` keys at `now`,
    /// memoizing the decay per user. Runs on every pass once the legacy
    /// switch has fired; also maintains `usage_all_zero`, the absorbing
    /// state that lets [`Sim::can_skip_schedule`] skip again after
    /// every usage has underflowed to exactly zero.
    fn resort_pending_legacy(&mut self, now: SimTime) {
        self.fs_dirty.clear();
        if self.pending.len() < 2 {
            return;
        }
        self.stats.resorts_taken += 1;
        let mut keyed = std::mem::take(&mut self.scratch.keyed);
        let mut memo = std::mem::take(&mut self.scratch.usage_memo);
        let caps = (keyed.capacity(), memo.capacity());
        keyed.clear();
        memo.clear();
        for &i in self.pending.iter() {
            let user = self.jobs[i].user;
            let usage = *memo
                .entry(user)
                .or_insert_with(|| self.legacy_usage(user, now));
            keyed.push((
                std::cmp::Reverse(self.priorities[i]),
                usage,
                self.jobs[i].submit,
                self.jobs[i].id,
                i,
            ));
        }
        keyed.sort_unstable_by(|a, b| pend_key_cmp(&(a.0, a.1, a.2, a.3), &(b.0, b.1, b.2, b.3)));
        self.usage_all_zero = memo.values().all(|&v| v == 0.0);
        self.pending.refill(keyed.iter().map(|k| k.4), self.jobs);
        if (keyed.capacity(), memo.capacity()) != caps {
            self.stats.scratch_grows += 1;
        }
        self.scratch.keyed = keyed;
        self.scratch.usage_memo = memo;
    }

    /// Legacy-regime pending key at `now` (per-read `powf`).
    fn pending_key_legacy(&self, i: usize, now: SimTime) -> PendKey {
        (
            std::cmp::Reverse(self.priorities[i]),
            self.legacy_usage(self.jobs[i].user, now),
            self.jobs[i].submit,
            self.jobs[i].id,
        )
    }

    /// Sorted insert by [`Sim::pending_key`] — the same key the fix-up
    /// uses, so the list is in final order immediately.
    /// O(log n) key evaluations along the binary search path,
    /// allocation-free; the normalized key is time-invariant, so `now`
    /// only matters in the legacy regime (where the insert replays the
    /// reference per-read `powf` keys, and a nonzero usage un-freezes
    /// the absorbed all-zero state).
    fn pending_insert(&mut self, idx: usize, now: SimTime) {
        self.quiescent = false;
        // The binary search probes *live* keys, so it requires the queue
        // to be fully sorted under them — i.e. no usage recording may be
        // outstanding. That holds structurally: `record_usage` only runs
        // from `finish_job`, and every Finish event is followed by a
        // `try_schedule` whose pass (never skippable — the finish
        // cleared `quiescent`) fixes the order before the next event can
        // insert.
        debug_assert!(self.fs_dirty.is_empty());
        if self.cfg.fair_share.is_some() && !self.fs_legacy_keys && self.fs_should_degrade(now) {
            self.fs_legacy_keys = true;
        }
        let job = &self.jobs[idx];
        if self.fs_legacy_keys {
            let key = self.pending_key_legacy(idx, now);
            if key.1 != 0.0 {
                self.usage_all_zero = false;
            }
            let pos = self.pending.partition_point(|&p| {
                pend_key_cmp(&self.pending_key_legacy(p, now), &key) != std::cmp::Ordering::Greater
            });
            self.pending.insert(pos, idx, job);
            self.plan_len = self.plan_len.min(pos);
            return;
        }
        let key = self.pending_key(idx);
        let pos = self.pending.partition_point(|&p| {
            pend_key_cmp(&self.pending_key(p), &key) != std::cmp::Ordering::Greater
        });
        self.pending.insert(pos, idx, job);
        // The entries ahead of a new one keep their reservations.
        self.plan_len = self.plan_len.min(pos);
    }

    /// Budget lookup hoisted to bucket granularity: the value is cached
    /// together with its validity window, so the (many) lookups inside
    /// one bucket — every tick, accounting step and start attempt — pay
    /// one comparison instead of a series index computation.
    fn budget_at(&self, t: SimTime) -> Option<Power> {
        let series = self.cfg.power_budget.as_ref()?;
        if let Some((from, to, w)) = self.budget_cache.get() {
            if t >= from && t < to {
                self.trace_hits.set(self.trace_hits.get() + 1);
                return Some(Power::from_watts(w));
            }
        }
        self.trace_misses.set(self.trace_misses.get() + 1);
        let w = series.at(t);
        self.budget_cache
            .set(Some((t, series.next_boundary_after(t), w)));
        Some(Power::from_watts(w))
    }

    /// Carbon-intensity lookup with the same bucket-granularity cache as
    /// [`Sim::budget_at`].
    fn ci_at(&self, t: SimTime) -> Option<f64> {
        let trace = self.cfg.carbon_trace.as_ref()?;
        if let Some((from, to, ci)) = self.ci_cache.get() {
            if t >= from && t < to {
                self.trace_hits.set(self.trace_hits.get() + 1);
                return Some(ci);
            }
        }
        self.trace_misses.set(self.trace_misses.get() + 1);
        let ci = trace.at(t).grams_per_kwh();
        self.ci_cache.set(Some((t, trace.bucket_end_after(t), ci)));
        Some(ci)
    }

    /// Accumulates idle energy/carbon and budget-violation time since the
    /// last accounting point. Must be called before any state change.
    fn account(&mut self, now: SimTime) {
        if now <= self.last_account {
            return;
        }
        let window = now - self.last_account;
        let idle_power = self.cfg.cluster.idle_node_power * self.alloc.free() as f64;
        let e = idle_power.for_duration(window);
        self.idle_energy += e;
        if let Some(trace) = &self.cfg.carbon_trace {
            self.idle_carbon += e.carbon_at(trace.mean_over(self.last_account, now));
        }
        if let Some(budget) = self.budget_at(self.last_account) {
            if self.running_power > budget * 1.000001 {
                self.violation_seconds += window.as_secs();
            }
        }
        self.last_account = now;
    }

    /// Whether [`Sim::choose_alloc`] returns `None` for *every* job at
    /// `now`: no free node, or a power budget with no headroom. These are
    /// its only two job-independent refusals. Free nodes are checked
    /// first, so the common saturated case costs no budget lookup.
    #[inline]
    fn no_start_possible(&self, now: SimTime) -> bool {
        self.alloc.free() == 0
            || self
                .budget_at(now)
                .is_some_and(|budget| budget - self.running_power <= Power::ZERO)
    }

    /// Chooses the allocation for a start attempt, or `None` if the job
    /// cannot start now.
    #[inline]
    fn choose_alloc(&self, idx: usize, now: SimTime) -> Option<u32> {
        let job = &self.jobs[idx];
        let (min, max) = job.bounds();
        let desired = job.requested_nodes.clamp(min, max);
        let mut alloc = desired.min(self.alloc.free());
        if let Some(budget) = self.budget_at(now) {
            let headroom = budget - self.running_power;
            if headroom <= Power::ZERO {
                return None;
            }
            let power_fit = (headroom.watts() / job.power_per_node.watts().max(1e-9)) as u32;
            alloc = alloc.min(power_fit);
        }
        if alloc >= min && alloc > 0 {
            Some(alloc)
        } else {
            None
        }
    }

    fn start_job(&mut self, idx: usize, alloc: u32, work_remaining: f64, now: SimTime) {
        self.quiescent = false;
        let job = &self.jobs[idx];
        self.alloc.claim(alloc);
        self.running_power += job.power_at(alloc);
        let rate = job.speedup.speedup(alloc.min(job.efficient_nodes).max(1));
        let finish_at = now + SimDuration::from_secs(work_remaining / rate);
        let finish_ev = self.queue.schedule(finish_at, Ev::Finish(job.id));
        let book = &mut self.books[idx];
        if book.start.is_none() {
            book.start = Some(now);
        }
        self.running.push(RunJob {
            idx,
            alloc,
            rate,
            work_remaining,
            last_update: now,
            seg_start: now,
            seg_start_work: work_remaining,
            finish_ev,
            finish_at,
        });
    }

    /// Updates a running job's remaining work to `now`.
    fn progress(run: &mut RunJob, now: SimTime) {
        let elapsed = (now - run.last_update).as_secs();
        run.work_remaining = (run.work_remaining - elapsed * run.rate).max(0.0);
        run.last_update = now;
    }

    fn close_segment(&mut self, pos: usize, now: SimTime) {
        let run = &self.running[pos];
        let job = &self.jobs[run.idx];
        if now > run.seg_start {
            self.books[run.idx].segments.push(Segment {
                start: run.seg_start,
                end: now,
                nodes: run.alloc,
                power: job.power_at(run.alloc),
            });
        }
    }

    fn finish_job(&mut self, id: JobId, now: SimTime) {
        let Some(pos) = self.running.iter().position(|r| self.jobs[r.idx].id == id) else {
            return; // stale event (job was suspended/reshaped; event cancelled)
        };
        self.quiescent = false;
        self.close_segment(pos, now);
        let run = self.running.remove(pos);
        if self.plan_len > 0 {
            self.drop_run_end(run.idx, run.finish_at);
        }
        let job = &self.jobs[run.idx];
        self.alloc.release(run.alloc);
        self.running_power -= job.power_at(run.alloc);
        self.books[run.idx].end = Some(now);
        self.completed += 1;
        let user = job.user;
        let node_seconds: f64 = self.books[run.idx]
            .segments
            .iter()
            .map(|s| s.node_seconds())
            .sum();
        self.record_usage(user, node_seconds, now);
    }

    /// Removes a finished job's end from the kept conservative profile.
    /// A kept plan holds every running job's end, so the step is there;
    /// should it not be, the plan is rebuilt.
    fn drop_run_end(&mut self, idx: usize, finish_at: SimTime) {
        let profile = &mut self.scratch.profile;
        let from = profile.partition_point(|e| e.t < finish_at);
        let found = profile[from..]
            .iter()
            .take_while(|e| e.t == finish_at)
            .position(|e| e.owner == Owner::Run(idx));
        match found {
            Some(i) => {
                profile.remove(from + i);
            }
            None => {
                debug_assert!(false, "kept plan lacks a running job's end");
                self.plan_len = 0;
            }
        }
    }

    /// Reshapes a running job to a new allocation (malleability, §3.2).
    fn reshape(&mut self, pos: usize, new_alloc: u32, now: SimTime) {
        self.quiescent = false;
        self.plan_len = 0;
        Self::progress(&mut self.running[pos], now);
        self.close_segment(pos, now);
        let run = &mut self.running[pos];
        let job = &self.jobs[run.idx];
        let old = run.alloc;
        if new_alloc > old {
            self.alloc.claim(new_alloc - old);
        } else {
            self.alloc.release(old - new_alloc);
        }
        self.running_power -= job.power_at(old);
        self.running_power += job.power_at(new_alloc);
        run.alloc = new_alloc;
        run.rate = job
            .speedup
            .speedup(new_alloc.min(job.efficient_nodes).max(1));
        run.seg_start = now;
        // The reshape itself costs wall time at the new rate.
        run.work_remaining += self.cfg.reshape_cost.as_secs() * run.rate;
        run.seg_start_work = run.work_remaining;
        self.queue.cancel(run.finish_ev);
        run.finish_at = now + SimDuration::from_secs(run.work_remaining / run.rate);
        run.finish_ev = self.queue.schedule(run.finish_at, Ev::Finish(job.id));
        self.books[run.idx].reshapes += 1;
    }

    /// Suspends a running checkpointable job (§3.3): pays the checkpoint
    /// overhead, frees its nodes.
    fn suspend(&mut self, pos: usize, now: SimTime) {
        self.quiescent = false;
        self.plan_len = 0;
        Self::progress(&mut self.running[pos], now);
        self.close_segment(pos, now);
        let run = self.running.remove(pos);
        let job = &self.jobs[run.idx];
        self.alloc.release(run.alloc);
        self.running_power -= job.power_at(run.alloc);
        self.queue.cancel(run.finish_ev);
        let overhead = self
            .cfg
            .checkpoint
            .as_ref()
            .map(|c| c.checkpoint_overhead.as_secs())
            .unwrap_or(0.0);
        // The overhead stretches remaining work at the (former) rate.
        let work = run.work_remaining + overhead * run.rate;
        self.books[run.idx].suspensions += 1;
        self.suspended.push((run.idx, work));
    }

    /// Whether a pending job may start now under the carbon-aware gate.
    #[inline]
    fn eligible(&self, idx: usize, now: SimTime) -> bool {
        let Policy::CarbonAware(cfg) = &self.cfg.policy else {
            return true;
        };
        let job = &self.jobs[idx];
        if job.walltime_estimate <= cfg.short_job_cutoff {
            return true;
        }
        if now.saturating_since(job.submit) >= cfg.max_delay {
            return true;
        }
        match self.ci_at(now) {
            Some(ci) => ci < cfg.green_threshold_fraction * self.trace_mean,
            None => true,
        }
    }

    /// Whether suspended jobs may resume now (checkpoint hysteresis).
    fn resume_allowed(&self, now: SimTime) -> bool {
        match (&self.cfg.checkpoint, self.ci_at(now)) {
            (Some(cfg), Some(ci)) => ci < cfg.resume_threshold_fraction * self.trace_mean,
            _ => true,
        }
    }

    /// The core scheduling entry point: skips the pass outright when it
    /// is provably a no-op (the dominant case in long post-workload
    /// tick tails), otherwise runs it and records the new quiescent
    /// state.
    fn try_schedule(&mut self, now: SimTime) {
        if self.can_skip_schedule(now) {
            self.stats.schedule_skips += 1;
            return;
        }
        self.stats.schedule_passes += 1;
        self.schedule_pass(now);
        // The pass ran to fixpoint: nothing more can start at `now`.
        // Any mutation (start, finish, suspend, reshape, failure,
        // repair, submit) clears the flag again.
        self.quiescent = true;
        self.quiescent_budget = self.budget_at(now);
        self.quiescent_resume_ok = self.resume_allowed(now);
    }

    /// Whether a scheduling pass at `now` is provably a no-op.
    ///
    /// Proof sketch: while `quiescent` holds, no mutation has occurred
    /// since the last pass ran to fixpoint — free nodes, running power,
    /// the pending list and its order, and every job's absolute finish
    /// projection are all unchanged. Every start in every policy is
    /// gated on `choose_alloc`, whose inputs are free nodes, running
    /// power and the budget value — so with an identical budget value
    /// the same `None`s fall out. EASY backfill additionally compares
    /// `now + walltime` against the absolute shadow time, which only
    /// flips feasible→infeasible as `now` advances. Resumes are gated
    /// on `resume_allowed` (tracked as a bool) and `choose_alloc`.
    /// Fair share imposes no extra guard: the normalized pending key is
    /// time-invariant, and the only operation that changes relative
    /// order (`record_usage`) clears `quiescent` itself — so while
    /// quiescent holds, the pending order is frozen.
    fn can_skip_schedule(&self, now: SimTime) -> bool {
        if !self.quiescent {
            return false;
        }
        // Time-dependent machinery: the carbon-aware gate compares
        // `now` against per-job delay deadlines and the CI trace, and
        // malleable growth is re-probed every tick. Never skip those.
        if matches!(self.cfg.policy, Policy::CarbonAware(_)) || self.cfg.enable_malleability {
            return false;
        }
        // Conservative reservations start at absolute times: running
        // jobs' ends, or an earlier reservation's estimated end, which
        // is no event. Advancing `now` past such a time can let an entry
        // start, and a reservation blocked by power is held from `now`,
        // taking the reservations chained behind it along. Only skip
        // once nothing is running — then every reservation chains from
        // `now` and the profile shifts uniformly.
        if matches!(self.cfg.policy, Policy::ConservativeBackfill) && !self.running.is_empty() {
            return false;
        }
        // Fair share blocks skipping only in the legacy-key regime,
        // where the per-read `powf` key drifts as `now` advances (and
        // underflows to exactly 0.0 at a user-specific time). Once a
        // legacy resort has observed every pending user's usage at
        // exactly 0.0, zero is absorbing and the order is frozen again.
        // In the normalized regime the key is time-invariant, so no
        // guard is needed — but a pass that *would* cross into the
        // legacy regime must run so the switch happens on schedule.
        if self.cfg.fair_share.is_some()
            && self.pending.len() >= 2
            && !self.usage_all_zero
            && (self.fs_legacy_keys || self.fs_should_degrade(now))
        {
            return false;
        }
        // A budget change alters `choose_alloc`. Compare the value, not
        // the bucket index: flat stretches and the clamped tail past
        // the end of the series still skip.
        if self.cfg.power_budget.is_some() && self.budget_at(now) != self.quiescent_budget {
            return false;
        }
        // Checkpoint hysteresis: resume eligibility follows the CI
        // trace; skip only while the verdict is unchanged.
        if !self.suspended.is_empty() && self.resume_allowed(now) != self.quiescent_resume_ok {
            return false;
        }
        true
    }

    /// The core scheduling pass: resume suspended, start pending (with
    /// EASY backfilling where enabled).
    #[inline(never)]
    fn schedule_pass(&mut self, now: SimTime) {
        self.fixup_pending(now);
        // 1. Resume suspended jobs (FIFO) if the grid allows it. Jobs
        // that resume are compacted out in place — same visit order and
        // intervening mutations as the old remove-and-continue loop,
        // without the O(n) removes.
        if !self.suspended.is_empty() && self.resume_allowed(now) {
            let mut write = 0;
            let mut read = 0;
            while read < self.suspended.len() {
                let (idx, work) = self.suspended[read];
                if let Some(alloc) = self.choose_alloc(idx, now) {
                    let restart = self
                        .cfg
                        .checkpoint
                        .as_ref()
                        .map(|c| c.restart_overhead.as_secs())
                        .unwrap_or(0.0);
                    let job = &self.jobs[idx];
                    let rate = job.speedup.speedup(alloc.min(job.efficient_nodes).max(1));
                    self.start_job(idx, alloc, work + restart * rate, now);
                    self.plan_len = 0;
                } else {
                    self.suspended[write] = self.suspended[read];
                    write += 1;
                }
                read += 1;
            }
            self.suspended.truncate(write);
        }

        if matches!(self.cfg.policy, Policy::ConservativeBackfill) {
            self.conservative_schedule(now);
            return;
        }

        // 2. Start pending jobs. Head-of-queue starts are drained once
        // on exit (`consumed`) instead of one O(n) front-removal each.
        let mut consumed = 0;
        loop {
            // First eligible pending job is the "head" holding the
            // reservation.
            let Some(head_pos) =
                (consumed..self.pending.len()).find(|&p| self.eligible(self.pending[p], now))
            else {
                self.pending.drain_front(consumed);
                return;
            };
            let head_idx = self.pending[head_pos];
            if let Some(alloc) = self.choose_alloc(head_idx, now) {
                if head_pos == consumed {
                    // Contiguous head start: defer the removal.
                    consumed += 1;
                } else {
                    // Mid-list head (carbon-aware eligibility gaps).
                    self.pending.remove(head_pos);
                }
                let work = self.jobs[head_idx].work;
                self.start_job(head_idx, alloc, work, now);
                continue;
            }
            // Head blocked: drain started heads before backfill walks
            // the list, then backfill if the policy allows.
            self.pending.drain_front(consumed);
            if matches!(self.cfg.policy, Policy::Fcfs) {
                return;
            }
            self.backfill(head_idx, now);
            return;
        }
    }

    /// Conservative backfilling: plan a reservation for every pending job
    /// in queue order against the running jobs' ends, and start exactly
    /// the jobs whose reservation begins now. Reservation durations use
    /// user walltime estimates; actual completions free resources
    /// earlier and the next pass re-plans.
    ///
    /// The plan persists between passes: the first [`Sim::plan_len`]
    /// entries keep the reservations an earlier pass gave them, and a
    /// pass places entries only from the first reservation an event
    /// since then can have moved. A start at position p keeps the
    /// entries ahead of it and continues at p. Placing stops after the
    /// last entry whose minimum allocation fits the free nodes
    /// ([`PendQueue::fit_end`]); no entry behind it can start now. Proof
    /// sketches of each rule are in DESIGN.md §6. `backfill_visits`
    /// counts the entries a pass places (a slot search each),
    /// `backfill_scanned` the pending entries at its start and at each
    /// full rebuild within it.
    #[inline(never)]
    fn conservative_schedule(&mut self, now: SimTime) {
        // The profile lives in a reusable scratch buffer: a steady-state
        // pass allocates nothing.
        let mut profile = std::mem::take(&mut self.scratch.profile);
        let cap = profile.capacity();
        self.stats.backfill_scanned += self.pending.len() as u64;
        let fresh_only =
            self.cfg.fair_share.is_some() || self.nodes_down > 0 || rebuild_every_pass();
        let mut keep = if fresh_only { 0 } else { self.plan_len };
        // Every kept step lies at or after `now`. A running job ending
        // at `now` still has its Finish queued and a fresh plan leaves it
        // out; an entry whose reservation begins at `now` is the first
        // that may start, so it and every entry behind it are re-placed.
        if keep > 0 {
            for step in profile.iter().take_while(|e| e.t <= now) {
                keep = match step.owner {
                    Owner::Run(_) => 0,
                    Owner::Res(p) => keep.min(p),
                };
            }
        }
        let mut end = self.pending.fit_end(self.pending.len(), self.alloc.free());
        let mut pos = keep;
        // Either makes the plan hold for this pass only: `stale` when a
        // running job's end at `now` is left out of the profile,
        // `blocked` when power blocks an entry whose slot is `now`.
        let mut stale = false;
        let mut blocked = false;
        if pos < end {
            if keep == 0 {
                stale = !self.rebuild_profile(&mut profile, now);
            } else {
                profile.retain(|e| !matches!(e.owner, Owner::Res(p) if p >= keep));
            }
            let mut free_now = self.alloc.free() as i64;
            while pos < end {
                let idx = self.pending[pos];
                let job = &self.jobs[idx];
                let (min_alloc, _) = job.bounds();
                let alloc = job
                    .requested_nodes
                    .max(min_alloc)
                    .min(self.cfg.cluster.nodes);
                let dur = job.walltime_estimate;
                // Find the earliest start ≥ now where `alloc` nodes stay
                // free for `dur`, given the profile.
                let start = earliest_slot_sorted(free_now, &profile, now, alloc as i64, dur);
                self.stats.backfill_visits += 1;
                if start == now {
                    // Can the job actually start (power check happens only
                    // at real starts)? `choose_alloc` already guarantees
                    // the class minimum when it returns Some.
                    if let Some(actual) = self.choose_alloc(idx, now) {
                        self.pending.remove(pos);
                        let work = job.work;
                        self.start_job(idx, actual, work, now);
                        let finish_at = self.running[self.running.len() - 1].finish_at;
                        free_now = self.alloc.free() as i64;
                        end = self.pending.fit_end(self.pending.len(), self.alloc.free());
                        if blocked || finish_at > now + dur || rebuild_every_pass() {
                            // The entries ahead may have moved: a blocked
                            // one is held from `now`, and a job that runs
                            // past its reservation can push them later.
                            self.stats.backfill_scanned += self.pending.len() as u64;
                            stale = !self.rebuild_profile(&mut profile, now);
                            blocked = false;
                            pos = 0;
                        } else if finish_at > now {
                            // The job runs inside the window its plan gave
                            // it, so the entries ahead keep their slots.
                            insert_run_end(&mut profile, finish_at, actual, idx);
                        } else {
                            stale = true;
                        }
                        continue;
                    }
                    // Blocked: reserve instead. Steps at or before `now`
                    // stay out of the profile (`earliest_slot_sorted`
                    // relies on it).
                    blocked = true;
                    free_now -= alloc as i64;
                } else {
                    insert_reservation(&mut profile, start, -(alloc as i64), pos);
                }
                let end_t = start + dur;
                if end_t > now {
                    insert_reservation(&mut profile, end_t, alloc as i64, pos);
                }
                pos += 1;
            }
        }
        self.plan_len = if fresh_only || stale || blocked {
            0
        } else {
            pos
        };
        if profile.capacity() != cap {
            self.stats.scratch_grows += 1;
        }
        self.scratch.profile = profile;
    }

    /// Refills `profile` with the running jobs' ends alone, the start of
    /// a fresh plan. Returns false when it left out a job ending at or
    /// before `now`: its Finish is still queued, so a plan built without
    /// it holds only for this pass.
    fn rebuild_profile(&self, profile: &mut Vec<Step>, now: SimTime) -> bool {
        profile.clear();
        let mut whole = true;
        for r in &self.running {
            if r.finish_at > now {
                insert_run_end(profile, r.finish_at, r.alloc, r.idx);
            } else {
                whole = false;
            }
        }
        whole
    }

    /// EASY backfilling around a blocked head job.
    ///
    /// Returns at once when [`Sim::no_start_possible`] holds, and the
    /// walk stops at the first start that makes it hold, keeping the
    /// unvisited tail in order. Proof sketch: every backfill start is
    /// gated on `choose_alloc`, and `no_start_possible` names exactly its
    /// job-independent `None`s. Within one pass `now` (hence the budget
    /// value) is fixed and a start only lowers free nodes and raises
    /// running power, so once the state holds it holds for every later
    /// job of the walk — visiting them could only re-keep them in place.
    ///
    /// Likewise, each step jumps over every entry that could not start
    /// even with its minimum allocation `need` ([`PendQueue::next_start`]):
    /// one with `need` above the free nodes, or one that would outlive
    /// the shadow with `need` above `spare`. `choose_alloc` caps the
    /// allocation at the free nodes and refuses anything below `need`,
    /// so the allocation is at least `need` and the start test below
    /// refuses such an entry. Free nodes and `spare` only fall during the
    /// walk, `now` and `shadow` are fixed, and the time test is the same
    /// f64 sum and comparison, so visiting it could only keep it in
    /// place.
    ///
    /// The skipped calls (`eligible`, `choose_alloc`) mutate nothing but
    /// the lookup counters and the bucket caches, whose values are a
    /// pure function of the bucket. `backfill_visits` counts the entries
    /// the walk examines, `backfill_scanned` those it passes over.
    #[inline(never)]
    fn backfill(&mut self, head_idx: usize, now: SimTime) {
        if self.no_start_possible(now) {
            return;
        }
        let head_job = &self.jobs[head_idx];
        let (head_min, _) = head_job.bounds();
        let head_need = head_job.requested_nodes.max(head_min);

        // Shadow time: when will enough nodes be free for the head?
        // Uses exact remaining runtimes of running jobs. The frees list
        // lives in scratch and is built pre-sorted (ties in insertion
        // order, matching the old stable sort).
        let mut frees = std::mem::take(&mut self.scratch.frees);
        let frees_cap = frees.capacity();
        frees.clear();
        for r in &self.running {
            let remaining = SimDuration::from_secs(
                (r.work_remaining - (now - r.last_update).as_secs().max(0.0) * r.rate).max(0.0)
                    / r.rate,
            );
            sorted_insert(&mut frees, (now + remaining, r.alloc));
        }
        let mut avail = self.alloc.free();
        let mut shadow = now;
        let mut feasible = true;
        let mut iter = frees.iter();
        while avail < head_need {
            match iter.next() {
                Some(&(t, n)) => {
                    avail += n;
                    shadow = t;
                }
                None => {
                    // Head can never fit (bigger than cluster) — guarded
                    // at submit, but be safe.
                    feasible = false;
                    break;
                }
            }
        }
        if frees.capacity() != frees_cap {
            self.stats.scratch_grows += 1;
        }
        self.scratch.frees = frees;
        if !feasible {
            return;
        }
        // Nodes spare at the shadow time after the head takes its share.
        // Consumed as backfills that outlive the shadow are admitted, so a
        // single pass cannot overdraw it and delay the head.
        let mut spare = avail - head_need;

        // Try to backfill later pending jobs. Started jobs are compacted
        // out in place — same visit order and intervening mutations as
        // the old remove-and-continue loop, without the O(n) removes.
        // Each step first keeps, in bulk and unvisited, the block of
        // entries that cannot start (see above).
        let len = self.pending.len();
        let (now_s, shadow_s) = (now.as_secs(), shadow.as_secs());
        let mut write = 0;
        let mut read = 0;
        let mut skipped = 0;
        loop {
            let free = self.alloc.free();
            let next = self.pending.next_start(read, free, spare, now_s, shadow_s);
            self.pending.shift(write, read, next);
            write += next - read;
            skipped += next - read;
            read = next;
            if read == len {
                break;
            }
            let idx = self.pending.idx[read];
            // Keep the head; skip ineligible jobs (carbon-aware gate).
            if idx == head_idx || !self.eligible(idx, now) {
                self.pending.keep(write, read);
                write += 1;
                read += 1;
                continue;
            }
            let job = &self.jobs[idx];
            let mut started = false;
            if let Some(alloc) = self.choose_alloc(idx, now) {
                let fits_before_shadow = now + job.walltime_estimate <= shadow;
                let fits_in_spare = alloc <= spare;
                if fits_before_shadow || fits_in_spare {
                    if !fits_before_shadow {
                        // This job holds nodes past the shadow: it draws
                        // down the spare pool.
                        spare -= alloc;
                    }
                    // The compaction drops this entry implicitly: keep
                    // the per-user counts in step.
                    self.pending.uncount(read);
                    let work = job.work;
                    self.start_job(idx, alloc, work, now);
                    started = true;
                }
            }
            if !started {
                self.pending.keep(write, read);
                write += 1;
            }
            read += 1;
            if started && self.no_start_possible(now) {
                break;
            }
        }
        self.stats.backfill_visits += (read - skipped) as u64;
        self.stats.backfill_scanned += read as u64;
        self.pending.close_gap(write, read);
    }

    /// Injects node failures for the elapsed tick: the per-node hazard is
    /// tick/MTBF; each failure strikes a uniformly random node. A busy
    /// node kills its job.
    fn inject_failures(&mut self, now: SimTime) {
        let Some(model) = self.cfg.failures.clone() else {
            return;
        };
        // Take the stream out to sidestep aliasing with &mut self calls.
        let Some(mut rng) = self.failure_rng.take() else {
            return;
        };
        let lambda =
            self.cfg.cluster.nodes as f64 * self.cfg.tick.as_secs() / model.node_mtbf.as_secs();
        let failures = rng.poisson(lambda);
        if failures > 0 {
            self.quiescent = false;
            self.plan_len = 0;
        }
        for _ in 0..failures {
            let node = rng.uniform_u64(self.cfg.cluster.nodes as u64) as u32;
            let busy = self.alloc.busy();
            self.total_failures += 1;
            // The node is busy with probability busy/total; map the node
            // index onto the busy range deterministically.
            if node < busy {
                // Pick the victim job weighted by allocation size.
                let mut cursor = node;
                let mut victim = None;
                for (pos, run) in self.running.iter().enumerate() {
                    if cursor < run.alloc {
                        victim = Some(pos);
                        break;
                    }
                    cursor -= run.alloc;
                }
                if let Some(pos) = victim {
                    self.fail_job(pos, now);
                }
            }
            // The failed node goes down for the repair window: take it out
            // of the free pool (a just-killed job freed at least one).
            if self.alloc.free() > 0 {
                self.alloc.claim(1);
                self.nodes_down += 1;
                self.queue.schedule(now + model.mttr, Ev::NodeRepaired);
            }
        }
        self.failure_rng = Some(rng);
    }

    /// Kills a running job after a node failure: checkpointable jobs roll
    /// back to the segment boundary; others lose everything and requeue.
    fn fail_job(&mut self, pos: usize, now: SimTime) {
        self.quiescent = false;
        Self::progress(&mut self.running[pos], now);
        self.close_segment(pos, now);
        let run = self.running.remove(pos);
        let job = &self.jobs[run.idx];
        self.alloc.release(run.alloc);
        self.running_power -= job.power_at(run.alloc);
        self.queue.cancel(run.finish_ev);
        self.books[run.idx].restarts += 1;
        if job.checkpointable {
            // Roll back to the last periodic checkpoint: lose only the
            // work since the last whole interval of this segment. The
            // restart overhead is charged once, at resume.
            let interval = self
                .cfg
                .checkpoint
                .as_ref()
                .map(|c| c.interval.as_secs())
                .unwrap_or(3600.0);
            let interval_work = (interval * run.rate).max(1e-9);
            let done_in_segment = (run.seg_start_work - run.work_remaining).max(0.0);
            let covered = (done_in_segment / interval_work).floor() * interval_work;
            let resume_work = run.seg_start_work - covered;
            self.suspended.push((run.idx, resume_work));
        } else {
            // Total loss: back to pending with full work (start_job always
            // begins rigid restarts from job.work).
            self.pending_insert(run.idx, now);
        }
    }

    /// Consults the job-side §3.2 protocol: is a grow offer worth the
    /// reconfiguration cost given the job's remaining work?
    fn grow_accepted(&mut self, pos: usize, proposed: u32, now: SimTime) -> bool {
        Self::progress(&mut self.running[pos], now);
        let run = &self.running[pos];
        let job = &self.jobs[run.idx];
        crate::malleable::evaluate_grow(
            job.speedup,
            run.alloc,
            proposed,
            job.efficient_nodes.max(1),
            run.work_remaining,
            self.cfg.reshape_cost,
        ) == crate::malleable::OfferDecision::Accept
    }

    /// Hourly tick: budget enforcement, checkpoint policy, malleable
    /// growth.
    fn tick(&mut self, now: SimTime) {
        self.tick_scheduled = false;
        sustain_sim_core::faultpoint!(infallible "sim::tick");
        self.inject_failures(now);
        // --- Checkpoint policy: CI-driven suspends (§3.3).
        if let (Some(cfg), Some(ci)) = (self.cfg.checkpoint.clone(), self.ci_at(now)) {
            if ci > cfg.suspend_threshold_fraction * self.trace_mean {
                let mut pos = 0;
                while pos < self.running.len() {
                    let run = &mut self.running[pos];
                    let job = &self.jobs[run.idx];
                    Self::progress(run, now);
                    let remaining = SimDuration::from_secs(run.work_remaining / run.rate);
                    if job.checkpointable && remaining > cfg.min_remaining {
                        self.suspend(pos, now);
                    } else {
                        pos += 1;
                    }
                }
            }
        }

        // --- Power budget enforcement.
        if let Some(budget) = self.budget_at(now) {
            // Shrink malleable jobs first.
            if self.running_power > budget && self.cfg.enable_malleability {
                for pos in 0..self.running.len() {
                    if self.running_power <= budget {
                        break;
                    }
                    let idx = self.running[pos].idx;
                    let job = &self.jobs[idx];
                    let (min, _) = job.bounds();
                    if job.class.is_malleable() && self.running[pos].alloc > min {
                        // Shrink as far as needed, at most to min.
                        let over = self.running_power - budget;
                        let sheddable = (over.watts() / job.power_per_node.watts()).ceil() as u32;
                        let new_alloc = self.running[pos].alloc.saturating_sub(sheddable).max(min);
                        if new_alloc < self.running[pos].alloc {
                            self.reshape(pos, new_alloc, now);
                        }
                    }
                }
            }
            // Then suspend checkpointable jobs (largest power first).
            if self.running_power > budget && self.cfg.checkpoint.is_some() {
                loop {
                    if self.running_power <= budget {
                        break;
                    }
                    let candidate = self
                        .running
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| self.jobs[r.idx].checkpointable)
                        .max_by(|a, b| {
                            self.jobs[a.1.idx]
                                .power_at(a.1.alloc)
                                .cmp(&self.jobs[b.1.idx].power_at(b.1.alloc))
                        })
                        .map(|(pos, _)| pos);
                    match candidate {
                        Some(pos) => self.suspend(pos, now),
                        None => break,
                    }
                }
            }
            // Growth: malleable jobs absorb new headroom.
            if self.cfg.enable_malleability {
                for pos in 0..self.running.len() {
                    let idx = self.running[pos].idx;
                    let job = &self.jobs[idx];
                    let (_, max) = job.bounds();
                    let cur = self.running[pos].alloc;
                    if !job.class.is_malleable() || cur >= max {
                        continue;
                    }
                    let headroom = budget - self.running_power;
                    if headroom <= Power::ZERO {
                        break;
                    }
                    let power_fit = (headroom.watts() / job.power_per_node.watts()) as u32;
                    let useful_cap = job.efficient_nodes.max(1);
                    let grow = (max - cur)
                        .min(self.alloc.free())
                        .min(power_fit)
                        .min(useful_cap.saturating_sub(cur));
                    if grow > 0 && self.grow_accepted(pos, cur + grow, now) {
                        self.reshape(pos, cur + grow, now);
                    }
                }
            }
        } else if self.cfg.enable_malleability {
            // No budget: malleable jobs can still absorb free nodes.
            for pos in 0..self.running.len() {
                let idx = self.running[pos].idx;
                let job = &self.jobs[idx];
                let (_, max) = job.bounds();
                let cur = self.running[pos].alloc;
                if !job.class.is_malleable() || cur >= max {
                    continue;
                }
                let useful_cap = job.efficient_nodes.max(1);
                let grow = (max - cur)
                    .min(self.alloc.free())
                    .min(useful_cap.saturating_sub(cur));
                if grow > 0 && self.grow_accepted(pos, cur + grow, now) {
                    self.reshape(pos, cur + grow, now);
                }
            }
        }

        self.try_schedule(now);
        self.maybe_schedule_tick(now);
    }

    fn work_outstanding(&self) -> bool {
        !self.pending.is_empty()
            || !self.running.is_empty()
            || !self.suspended.is_empty()
            || self.submitted < self.jobs.len()
    }

    fn needs_ticks(&self) -> bool {
        // Ticks matter only when time-varying machinery is active.
        (self.cfg.power_budget.is_some()
            || self.cfg.checkpoint.is_some()
            || self.cfg.enable_malleability
            || self.cfg.failures.is_some()
            || matches!(self.cfg.policy, Policy::CarbonAware(_)))
            && self.work_outstanding()
    }

    fn maybe_schedule_tick(&mut self, now: SimTime) {
        if !self.tick_scheduled && self.needs_ticks() {
            self.queue.schedule(now + self.cfg.tick, Ev::Tick);
            self.tick_scheduled = true;
        }
    }

    /// Number of event-loop steps between cancellation checks.
    /// Power-of-two so the gate is a mask; easy runs can have zero
    /// ticks, so gating on ticks alone would never observe a
    /// cancellation there.
    const CTL_CHECK_MASK: u64 = 255;

    fn run(mut self, ctl: &RunCtl) -> Result<SimOutcome, SimError> {
        for (i, job) in self.jobs.iter().enumerate() {
            self.queue.schedule(job.submit, Ev::Submit(i));
        }
        self.maybe_schedule_tick(SimTime::ZERO);

        let mut steps = 0u64;
        while let Some((t, ev)) = self.queue.pop() {
            steps += 1;
            if steps > self.cfg.max_steps {
                break;
            }
            // Bucket-granularity cancellation: every 256 events or at
            // any tick, whichever comes first.
            if steps & Self::CTL_CHECK_MASK == 0 || matches!(ev, Ev::Tick) {
                ctl.check(t)?;
            }
            self.account(t);
            match ev {
                Ev::Submit(idx) => {
                    self.submitted += 1;
                    let job = &self.jobs[idx];
                    let (min, _) = job.bounds();
                    // A job whose minimum allocation can never fit the
                    // best-ever power budget would pend forever: reject.
                    let power_feasible = match self.max_budget {
                        Some(max) => job.power_at(min) <= max,
                        None => true,
                    };
                    let admitted = match &self.cfg.queues {
                        Some(qs) => match qs.classify(job) {
                            Some(q) => {
                                self.priorities[idx] = q.priority;
                                true
                            }
                            None => false,
                        },
                        None => true,
                    };
                    if min > self.cfg.cluster.nodes || !admitted || !power_feasible {
                        self.books[idx].rejected = true;
                        self.rejected += 1;
                    } else {
                        self.pending_insert(idx, t);
                        self.try_schedule(t);
                    }
                    self.maybe_schedule_tick(t);
                }
                Ev::Finish(id) => {
                    self.finish_job(id, t);
                    self.try_schedule(t);
                }
                Ev::Tick => self.tick(t),
                Ev::NodeRepaired => {
                    self.quiescent = false;
                    self.plan_len = 0;
                    self.nodes_down -= 1;
                    self.alloc.release(1);
                    self.try_schedule(t);
                }
            }
        }

        self.stats.events = steps;
        self.stats.trace_bucket_hits = self.trace_hits.get();
        self.stats.trace_bucket_misses = self.trace_misses.get();

        // Build records.
        let mut records = Vec::with_capacity(self.completed);
        for (idx, book) in self.books.iter().enumerate() {
            if let (Some(start), Some(end)) = (book.start, book.end) {
                let job = &self.jobs[idx];
                records.push(JobRecord {
                    id: job.id,
                    user: job.user,
                    submit: job.submit,
                    start,
                    end,
                    segments: book.segments.clone(),
                    suspensions: book.suspensions,
                    reshapes: book.reshapes,
                    restarts: book.restarts,
                });
            }
        }
        records.sort_by_key(|a| a.id);
        let unfinished = self.jobs.len() - records.len();
        let mut out = SimOutcome::from_records(
            records,
            unfinished,
            self.cfg.cluster.nodes,
            self.cfg.carbon_trace.as_ref(),
            self.idle_energy,
            self.idle_carbon,
            self.violation_seconds,
        );
        out.hot_path = self.stats;
        crate::metrics::record_hot_path_totals(&out.hot_path);
        Ok(out)
    }
}

/// Earliest time ≥ `now` at which `alloc` nodes remain continuously free
/// for `dur`. Unlike the reference [`earliest_slot`], this expects
/// `evs` pre-sorted by time with every entry strictly after `now` — the
/// conservative pass maintains its profile that way — so the search is a
/// single allocation-free sweep: a running prefix (`free`, `consumed`)
/// advances candidate by candidate instead of re-summing per candidate.
fn earliest_slot_sorted(
    free_now: i64,
    evs: &[Step],
    now: SimTime,
    alloc: i64,
    dur: SimDuration,
) -> SimTime {
    // Candidate start times: `now`, then every event time.
    let mut free = free_now;
    let mut consumed = 0usize;
    let mut candidate = now;
    loop {
        // Fold in every event at or before the candidate; equal-time
        // runs fold together, like the reference's `take_while(<= t0)`,
        // which also means duplicate candidate times are visited once.
        while consumed < evs.len() && evs[consumed].t <= candidate {
            free += evs[consumed].delta;
            consumed += 1;
        }
        if free >= alloc {
            // Check the window [candidate, candidate + dur) stays
            // feasible against the strictly-later events.
            let t_end = candidate + dur;
            let mut ok = true;
            let mut f = free;
            for e in &evs[consumed..] {
                if e.t >= t_end {
                    break;
                }
                f += e.delta;
                if f < alloc {
                    ok = false;
                    break;
                }
            }
            if ok {
                return candidate;
            }
        }
        if consumed >= evs.len() {
            break;
        }
        candidate = evs[consumed].t;
    }
    // No feasible window found (should not happen when alloc ≤ cluster);
    // fall back to after the last event.
    evs.last().map(|e| e.t).unwrap_or(now)
}

/// Earliest time ≥ `now` at which `alloc` nodes remain continuously free
/// for `dur`, given `free_now` free nodes and a list of (time, delta)
/// availability events (positive = nodes freed, negative = reservation).
///
/// Reference implementation: filters and sorts per call. Kept as the
/// oracle [`earliest_slot_sorted`] is tested against.
#[cfg(test)]
fn earliest_slot(
    free_now: i64,
    events: &[(SimTime, i64)],
    now: SimTime,
    alloc: i64,
    dur: SimDuration,
) -> SimTime {
    let mut evs: Vec<(SimTime, i64)> = events.iter().copied().filter(|e| e.0 > now).collect();
    evs.sort_by_key(|a| a.0);
    // Candidate start times: now and every event time.
    let mut candidates: Vec<SimTime> = Vec::with_capacity(evs.len() + 1);
    candidates.push(now);
    candidates.extend(evs.iter().map(|e| e.0));
    for &t0 in &candidates {
        let t_end = t0 + dur;
        // Free nodes at t0.
        let mut free = free_now
            + evs
                .iter()
                .take_while(|e| e.0 <= t0)
                .map(|e| e.1)
                .sum::<i64>();
        if free < alloc {
            continue;
        }
        // Check the window stays feasible.
        let mut ok = true;
        for e in evs.iter().skip_while(|e| e.0 <= t0) {
            if e.0 >= t_end {
                break;
            }
            free += e.1;
            if free < alloc {
                ok = false;
                break;
            }
        }
        if ok {
            return t0;
        }
    }
    // No feasible window found (should not happen when alloc ≤ cluster);
    // fall back to after the last event.
    evs.last().map(|e| e.0).unwrap_or(now)
}

/// Runs the simulator over a job list.
///
/// ```
/// use sustain_scheduler::cluster::Cluster;
/// use sustain_scheduler::sim::{simulate, SimConfig};
/// use sustain_sim_core::time::{SimDuration, SimTime};
/// use sustain_workload::job::JobBuilder;
///
/// let job = JobBuilder::new(1, SimTime::ZERO, 4, SimDuration::from_hours(2.0)).build();
/// let out = simulate(&[job], &SimConfig::easy(Cluster::new(8)));
/// assert_eq!(out.records.len(), 1);
/// assert!((out.records[0].span().as_hours() - 2.0).abs() < 1e-9);
/// ```
pub fn simulate(jobs: &[Job], cfg: &SimConfig) -> SimOutcome {
    match Sim::new(jobs, cfg).run(&RunCtl::unlimited()) {
        Ok(out) => out,
        // An unlimited control never fires.
        Err(_) => unreachable!("uncontrolled simulation cannot be cancelled"),
    }
}

/// The checked front door: validates `cfg` up front, returning a typed
/// [`SimError`] instead of panicking somewhere in the event loop, then
/// runs under the cooperative cancellation control `ctl`. The event
/// loop checks `ctl` at bucket granularity (every 256 events or at any
/// tick) and returns [`SimError::Cancelled`] stamped with the
/// simulation time reached. Internal invariant asserts remain — they
/// fire on simulator bugs, not on bad input that got past this gate.
pub fn simulate_with_ctl(
    jobs: &[Job],
    cfg: &SimConfig,
    ctl: &RunCtl,
) -> Result<SimOutcome, SimError> {
    cfg.validate()?;
    Sim::new(jobs, cfg).run(ctl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sustain_sim_core::series::TimeSeries;
    use sustain_workload::job::{JobBuilder, JobClass};

    fn rigid(id: u64, submit_h: f64, nodes: u32, runtime_h: f64) -> Job {
        JobBuilder::new(
            id,
            SimTime::from_hours(submit_h),
            nodes,
            SimDuration::from_hours(runtime_h),
        )
        .power_per_node(Power::from_watts(500.0))
        .build()
    }

    #[test]
    fn single_job_runs_to_completion() {
        let jobs = vec![rigid(1, 0.0, 4, 2.0)];
        let out = simulate(&jobs, &SimConfig::easy(Cluster::new(8)));
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.unfinished, 0);
        let r = &out.records[0];
        assert_eq!(r.wait(), SimDuration::ZERO);
        assert!((r.span().as_hours() - 2.0).abs() < 1e-9);
        assert_eq!(r.segments.len(), 1);
        assert_eq!(r.segments[0].nodes, 4);
        // Energy: 4 × 500 W × 2 h = 4 kWh.
        assert!((r.energy().kwh() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn fcfs_queues_when_full() {
        // 8-node cluster; two 8-node jobs must serialize.
        let jobs = vec![rigid(1, 0.0, 8, 2.0), rigid(2, 0.0, 8, 1.0)];
        let out = simulate(
            &jobs,
            &SimConfig {
                policy: Policy::Fcfs,
                ..SimConfig::easy(Cluster::new(8))
            },
        );
        let r2 = &out.records[1];
        assert!((r2.wait().as_hours() - 2.0).abs() < 1e-9);
        assert!((out.makespan.as_hours() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn easy_backfills_small_job() {
        // Cluster 8. Job1 takes 6 nodes for 4 h. Job2 wants 8 (blocked
        // until t=4). Job3 wants 2 nodes for 1 h → backfills immediately
        // (2 ≤ free and finishes before the shadow anyway).
        let jobs = vec![
            rigid(1, 0.0, 6, 4.0),
            rigid(2, 0.1, 8, 1.0),
            rigid(3, 0.2, 2, 1.0),
        ];
        let out = simulate(&jobs, &SimConfig::easy(Cluster::new(8)));
        let r3 = out.records.iter().find(|r| r.id == JobId(3)).unwrap();
        assert!(
            r3.start.as_hours() < 0.3,
            "job3 should backfill, started at {}",
            r3.start
        );
        // FCFS would have made job3 wait behind job2 until t=4.
        let fcfs = simulate(
            &jobs,
            &SimConfig {
                policy: Policy::Fcfs,
                ..SimConfig::easy(Cluster::new(8))
            },
        );
        let r3f = fcfs.records.iter().find(|r| r.id == JobId(3)).unwrap();
        assert!(r3f.start.as_hours() >= 4.0);
    }

    #[test]
    fn backfill_spare_not_overcommitted() {
        // All candidates queue while jobA fills the cluster, so one
        // scheduling pass (jobA's finish at t=1) sees them all. Then:
        // jobB takes 4 nodes until t=5; the head (job2) needs 8 → shadow
        // t=5 with spare 2. Jobs 3 and 4 (2 nodes × 8 h) each fit the
        // spare alone, but both together would overdraw it and delay the
        // head past t=5.
        let jobs = vec![
            rigid(1, 0.0, 10, 1.0), // fills the cluster until t=1
            rigid(5, 0.05, 4, 4.0), // jobB: 4 nodes, t=1..5
            rigid(2, 0.1, 8, 1.0),  // the head reservation
            rigid(3, 0.2, 2, 8.0),
            rigid(4, 0.3, 2, 8.0),
        ];
        let out = simulate(&jobs, &SimConfig::easy(Cluster::new(10)));
        let r2 = out.records.iter().find(|r| r.id == JobId(2)).unwrap();
        assert!(
            (r2.start.as_hours() - 5.0).abs() < 1e-6,
            "head delayed to {} by overcommitted spare",
            r2.start
        );
    }

    #[test]
    fn backfill_does_not_delay_head_reservation() {
        // Cluster 8. Job1: 6 nodes, 4 h. Job2 (head): 8 nodes → shadow t=4.
        // Job3: 4 nodes, 8 h — would push the head past t=4 (only 2 spare),
        // must NOT backfill.
        let jobs = vec![
            rigid(1, 0.0, 6, 4.0),
            rigid(2, 0.1, 8, 1.0),
            rigid(3, 0.2, 4, 8.0),
        ];
        let out = simulate(&jobs, &SimConfig::easy(Cluster::new(8)));
        let r2 = out.records.iter().find(|r| r.id == JobId(2)).unwrap();
        assert!(
            (r2.start.as_hours() - 4.0).abs() < 1e-6,
            "head delayed to {}",
            r2.start
        );
        let r3 = out.records.iter().find(|r| r.id == JobId(3)).unwrap();
        assert!(r3.start >= r2.start);
    }

    #[test]
    fn oversized_job_rejected_not_hung() {
        let jobs = vec![rigid(1, 0.0, 64, 1.0), rigid(2, 0.0, 4, 1.0)];
        let out = simulate(&jobs, &SimConfig::easy(Cluster::new(8)));
        assert_eq!(out.unfinished, 1);
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.records[0].id, JobId(2));
    }

    #[test]
    fn power_budget_limits_concurrency() {
        // Each job: 4 nodes × 500 W = 2 kW. Budget 3 kW → jobs serialize.
        let jobs = vec![rigid(1, 0.0, 4, 1.0), rigid(2, 0.0, 4, 1.0)];
        let budget = TimeSeries::constant(SimTime::ZERO, SimDuration::from_hours(1.0), 3000.0, 100);
        let out = simulate(
            &jobs,
            &SimConfig {
                power_budget: Some(budget),
                ..SimConfig::easy(Cluster::new(16))
            },
        );
        let r2 = out.records.iter().find(|r| r.id == JobId(2)).unwrap();
        assert!(
            r2.start.as_hours() >= 1.0,
            "job2 must wait for power, started {}",
            r2.start
        );
        assert_eq!(out.budget_violation_seconds, 0.0);
    }

    #[test]
    fn utilization_and_idle_energy_accounted() {
        let jobs = vec![rigid(1, 0.0, 4, 2.0)];
        let cluster = Cluster::new(8).with_idle_power(Power::from_watts(100.0));
        let out = simulate(&jobs, &SimConfig::easy(cluster));
        // 4 of 8 nodes busy for the whole 2 h makespan → 50 %.
        assert!((out.utilization - 0.5).abs() < 1e-9);
        // Idle: 4 idle nodes × 100 W × 2 h = 0.8 kWh.
        assert!((out.idle_energy.kwh() - 0.8).abs() < 1e-6);
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = sustain_workload::synth::WorkloadConfig::default();
        let jobs = sustain_workload::synth::generate(&cfg, SimDuration::from_hours(48.0), 5);
        let a = simulate(&jobs, &SimConfig::easy(Cluster::new(256)));
        let b = simulate(&jobs, &SimConfig::easy(Cluster::new(256)));
        assert_eq!(a.records.len(), b.records.len());
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.utilization, b.utilization);
    }

    #[test]
    fn synthetic_trace_completes_under_easy() {
        let cfg = sustain_workload::synth::WorkloadConfig::default();
        let jobs = sustain_workload::synth::generate(&cfg, SimDuration::from_hours(24.0 * 7.0), 9);
        let out = simulate(&jobs, &SimConfig::easy(Cluster::new(600)));
        assert_eq!(out.unfinished, 0, "all jobs should finish");
        assert!(out.utilization > 0.05 && out.utilization < 1.0);
        // No job may ever hold more nodes than the cluster.
        for r in &out.records {
            for s in &r.segments {
                assert!(s.nodes <= 600);
            }
        }
    }

    #[test]
    fn malleable_job_grows_into_free_nodes() {
        let malleable = JobBuilder::new(1, SimTime::ZERO, 4, SimDuration::from_hours(8.0))
            .class(JobClass::Malleable {
                min_nodes: 2,
                max_nodes: 16,
            })
            .efficient_nodes(16)
            .build();
        let mut cfg = SimConfig::easy(Cluster::new(16));
        cfg.enable_malleability = true;
        let out = simulate(&[malleable], &cfg);
        let r = &out.records[0];
        assert!(r.reshapes > 0, "job should have grown");
        // Growth speeds the job up beyond its 8 h @ 4-node runtime.
        assert!(
            r.span().as_hours() < 8.0,
            "span {} should beat the rigid runtime",
            r.span()
        );
        assert_eq!(out.unfinished, 0);
    }

    #[test]
    fn checkpoint_suspends_during_high_carbon() {
        // CI: mean 200; hours 2-9 are 400 (high) → suspend threshold hit.
        let mut ci = vec![100.0; 2];
        ci.extend(vec![400.0; 7]);
        ci.extend(vec![100.0; 15]);
        let trace = CarbonTrace::new(
            "t",
            TimeSeries::new(SimTime::ZERO, SimDuration::from_hours(1.0), ci),
        );
        let job = JobBuilder::new(1, SimTime::ZERO, 4, SimDuration::from_hours(6.0))
            .checkpointable(true)
            .build();
        let mut cfg = SimConfig::easy(Cluster::new(8));
        cfg.carbon_trace = Some(trace);
        cfg.checkpoint = Some(CheckpointCfg::default());
        let out = simulate(&[job], &cfg);
        let r = &out.records[0];
        assert!(r.suspensions >= 1, "job should suspend in the brown window");
        assert!(r.segments.len() >= 2);
        // Span exceeds pure compute time because of the suspension gap.
        assert!(r.span() > r.compute_time());
        assert_eq!(out.unfinished, 0);
    }

    #[test]
    fn carbon_aware_gate_delays_long_jobs_to_green_windows() {
        // CI: first 6 h dirty (400), then green (100). Mean ≈ 175..250.
        let mut ci = vec![400.0; 6];
        ci.extend(vec![100.0; 42]);
        let trace = CarbonTrace::new(
            "t",
            TimeSeries::new(SimTime::ZERO, SimDuration::from_hours(1.0), ci),
        );
        let long_job = JobBuilder::new(1, SimTime::ZERO, 4, SimDuration::from_hours(5.0))
            .walltime(SimDuration::from_hours(8.0))
            .build();
        let mut cfg = SimConfig::easy(Cluster::new(8));
        cfg.carbon_trace = Some(trace);
        cfg.policy = Policy::CarbonAware(CarbonAwareCfg::default());
        let out = simulate(&[long_job], &cfg);
        let r = &out.records[0];
        assert!(
            r.start.as_hours() >= 6.0,
            "long job should wait for the green window, started {}",
            r.start
        );
    }

    #[test]
    fn carbon_aware_gate_lets_short_jobs_through() {
        let mut ci = vec![400.0; 6];
        ci.extend(vec![100.0; 42]);
        let trace = CarbonTrace::new(
            "t",
            TimeSeries::new(SimTime::ZERO, SimDuration::from_hours(1.0), ci),
        );
        let short_job = JobBuilder::new(1, SimTime::ZERO, 4, SimDuration::from_hours(0.5))
            .walltime(SimDuration::from_hours(1.0))
            .build();
        let mut cfg = SimConfig::easy(Cluster::new(8));
        cfg.carbon_trace = Some(trace);
        cfg.policy = Policy::CarbonAware(CarbonAwareCfg::default());
        let out = simulate(&[short_job], &cfg);
        assert_eq!(out.records[0].start, SimTime::ZERO);
    }

    #[test]
    fn max_delay_bounds_carbon_waiting() {
        // Permanently dirty grid: the gate must still release jobs after
        // max_delay.
        let trace = CarbonTrace::new(
            "t",
            TimeSeries::new(
                SimTime::ZERO,
                SimDuration::from_hours(1.0),
                vec![400.0; 200],
            ),
        );
        let job = JobBuilder::new(1, SimTime::ZERO, 4, SimDuration::from_hours(5.0))
            .walltime(SimDuration::from_hours(8.0))
            .build();
        let mut cfg = SimConfig::easy(Cluster::new(8));
        cfg.carbon_trace = Some(trace);
        cfg.policy = Policy::CarbonAware(CarbonAwareCfg {
            max_delay: SimDuration::from_hours(12.0),
            ..CarbonAwareCfg::default()
        });
        let out = simulate(&[job], &cfg);
        assert_eq!(out.unfinished, 0);
        let r = &out.records[0];
        assert!(r.start.as_hours() <= 13.0, "started {}", r.start);
        assert!(r.start.as_hours() >= 11.0, "started {}", r.start);
    }

    #[test]
    fn failures_restart_jobs_and_repair_nodes() {
        // Aggressive failures: per-node MTBF of 2 days on an 8-node
        // cluster running a long job.
        let job = JobBuilder::new(1, SimTime::ZERO, 8, SimDuration::from_hours(48.0))
            .walltime(SimDuration::from_hours(96.0))
            .build();
        let mut cfg = SimConfig::easy(Cluster::new(8));
        cfg.failures = Some(FailureModel {
            node_mtbf: SimDuration::from_days(2.0),
            mttr: SimDuration::from_hours(4.0),
            seed: 7,
        });
        let out = simulate(&[job], &cfg);
        assert_eq!(out.unfinished, 0, "job must eventually complete");
        let r = &out.records[0];
        assert!(
            r.restarts > 0,
            "48 h on failing hardware must hit a failure"
        );
        // Non-checkpointable: every restart redoes the full 48 h, so the
        // span is at least restarts+1 full runs minus the last partials.
        assert!(r.span().as_hours() > 48.0);
    }

    #[test]
    fn checkpointable_jobs_lose_less_to_failures() {
        let mk = |ckpt: bool| {
            JobBuilder::new(1, SimTime::ZERO, 8, SimDuration::from_hours(48.0))
                .walltime(SimDuration::from_hours(96.0))
                .checkpointable(ckpt)
                .build()
        };
        let run_with = |job| {
            let mut cfg = SimConfig::easy(Cluster::new(8));
            cfg.failures = Some(FailureModel {
                node_mtbf: SimDuration::from_days(2.0),
                mttr: SimDuration::from_hours(1.0),
                seed: 11,
            });
            cfg.checkpoint = Some(CheckpointCfg {
                // Disable CI-driven behaviour; we only want failure
                // recovery overheads here.
                suspend_threshold_fraction: f64::INFINITY,
                resume_threshold_fraction: f64::INFINITY,
                ..CheckpointCfg::default()
            });
            simulate(&[job], &cfg)
        };
        let plain = run_with(mk(false));
        let ckpt = run_with(mk(true));
        assert_eq!(plain.unfinished, 0);
        assert_eq!(ckpt.unfinished, 0);
        // Same failure seed: the checkpointable variant wastes less
        // compute redoing lost work.
        assert!(
            ckpt.records[0].compute_time() <= plain.records[0].compute_time(),
            "ckpt {} vs plain {}",
            ckpt.records[0].compute_time(),
            plain.records[0].compute_time()
        );
    }

    #[test]
    fn reliable_hardware_has_no_restarts() {
        let jobs = vec![rigid(1, 0.0, 4, 10.0)];
        let out = simulate(&jobs, &SimConfig::easy(Cluster::new(8)));
        assert_eq!(out.records[0].restarts, 0);
    }

    #[test]
    fn power_infeasible_job_rejected_not_pending_forever() {
        // 100-node job × 500 W = 50 kW demand, but the budget never
        // exceeds 10 kW: the job must be rejected at submit (not pend
        // forever, burning ticks to the step cap).
        let jobs = vec![rigid(1, 0.0, 100, 1.0), rigid(2, 0.0, 4, 1.0)];
        let budget =
            TimeSeries::constant(SimTime::ZERO, SimDuration::from_hours(1.0), 10_000.0, 48);
        let mut cfg = SimConfig::easy(Cluster::new(128));
        cfg.power_budget = Some(budget);
        cfg.max_steps = 100_000;
        let out = simulate(&jobs, &cfg);
        assert_eq!(out.unfinished, 1);
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.records[0].id, JobId(2));
        // And the run terminated quickly (no runaway tick loop): the
        // makespan is the small job's completion.
        assert!(out.makespan.as_hours() <= 2.0);
    }

    #[test]
    fn fair_share_demotes_heavy_user() {
        // User 0 hogs the machine with job1; then user 0 and user 1 submit
        // identical jobs while it runs. Under fair-share, user 1 goes
        // first once nodes free, despite user 0 submitting earlier.
        let mk = |id: u64, user: u32, submit_h: f64| {
            JobBuilder::new(
                id,
                SimTime::from_hours(submit_h),
                8,
                SimDuration::from_hours(1.0),
            )
            .user(user)
            .build()
        };
        let jobs = vec![mk(1, 0, 0.0), mk(2, 0, 0.1), mk(3, 1, 0.2)];
        let mut cfg = SimConfig::easy(Cluster::new(8));
        cfg.fair_share = Some(FairShareCfg::default());
        let out = simulate(&jobs, &cfg);
        let r2 = out.records.iter().find(|r| r.id == JobId(2)).unwrap();
        let r3 = out.records.iter().find(|r| r.id == JobId(3)).unwrap();
        assert!(
            r3.start < r2.start,
            "light user's job3 ({}) should beat heavy user's job2 ({})",
            r3.start,
            r2.start
        );
        // Without fair-share, FIFO order holds.
        let plain = simulate(&jobs, &SimConfig::easy(Cluster::new(8)));
        let p2 = plain.records.iter().find(|r| r.id == JobId(2)).unwrap();
        let p3 = plain.records.iter().find(|r| r.id == JobId(3)).unwrap();
        assert!(p2.start < p3.start);
    }

    #[test]
    fn fair_share_usage_decays() {
        // After a long idle gap, past usage decays away and FIFO returns.
        let mk = |id: u64, user: u32, submit_h: f64| {
            JobBuilder::new(
                id,
                SimTime::from_hours(submit_h),
                8,
                SimDuration::from_hours(1.0),
            )
            .user(user)
            .build()
        };
        // User 0 used the machine long ago (job1 at t=0); hundreds of
        // half-lives later both users submit.
        let jobs = vec![mk(1, 0, 0.0), mk(2, 0, 10_000.0), mk(3, 1, 10_000.1)];
        let mut cfg = SimConfig::easy(Cluster::new(8));
        cfg.fair_share = Some(FairShareCfg {
            half_life: SimDuration::from_hours(1.0),
        });
        let out = simulate(&jobs, &cfg);
        let r2 = out.records.iter().find(|r| r.id == JobId(2)).unwrap();
        let r3 = out.records.iter().find(|r| r.id == JobId(3)).unwrap();
        assert!(
            r2.start <= r3.start,
            "decayed usage should restore FIFO: job2 {} vs job3 {}",
            r2.start,
            r3.start
        );
    }

    #[test]
    fn conservative_backfill_does_not_delay_any_reservation() {
        // Cluster 8. Job1: 6 nodes, 4 h. Job2: 8 nodes (reserved at t=4).
        // Job3: 2 nodes, walltime 8 h — EASY would backfill it into the
        // 2 spare nodes; conservative also allows it (it delays nothing:
        // job2 needs all 8 at t=4, but job3 uses spare nodes until t=4?
        // No — job3 holds 2 nodes until t≈8, which WOULD delay job2, so
        // conservative must NOT start it now).
        let jobs = vec![
            rigid(1, 0.0, 6, 4.0),
            rigid(2, 0.1, 8, 1.0),
            rigid(3, 0.2, 2, 8.0),
        ];
        let out = simulate(
            &jobs,
            &SimConfig {
                policy: Policy::ConservativeBackfill,
                ..SimConfig::easy(Cluster::new(8))
            },
        );
        assert_eq!(out.unfinished, 0);
        let r2 = out.records.iter().find(|r| r.id == JobId(2)).unwrap();
        let r3 = out.records.iter().find(|r| r.id == JobId(3)).unwrap();
        assert!(
            (r2.start.as_hours() - 4.0).abs() < 1e-6,
            "head reservation delayed: {}",
            r2.start
        );
        assert!(r3.start >= r2.start, "job3 jumped ahead and delayed job2");
    }

    #[test]
    fn conservative_backfills_truly_harmless_jobs() {
        // Same as above but job3 fits entirely before the shadow (1 h
        // walltime): conservative lets it in.
        let jobs = vec![
            rigid(1, 0.0, 6, 4.0),
            rigid(2, 0.1, 8, 1.0),
            rigid(3, 0.2, 2, 1.0),
        ];
        let out = simulate(
            &jobs,
            &SimConfig {
                policy: Policy::ConservativeBackfill,
                ..SimConfig::easy(Cluster::new(8))
            },
        );
        let r3 = out.records.iter().find(|r| r.id == JobId(3)).unwrap();
        assert!(r3.start.as_hours() < 0.3, "harmless job not backfilled");
        let r2 = out.records.iter().find(|r| r.id == JobId(2)).unwrap();
        assert!((r2.start.as_hours() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn conservative_completes_random_workload() {
        let cfg_wl = sustain_workload::synth::WorkloadConfig::default();
        let jobs = sustain_workload::synth::generate(&cfg_wl, SimDuration::from_hours(48.0), 21);
        let out = simulate(
            &jobs,
            &SimConfig {
                policy: Policy::ConservativeBackfill,
                ..SimConfig::easy(Cluster::new(600))
            },
        );
        assert_eq!(out.unfinished, 0);
        // Conservative is at least as conservative as EASY: mean wait is
        // not lower than EASY's by construction artifacts; just check
        // sanity bounds.
        assert!(out.utilization > 0.0 && out.utilization <= 1.0);
    }

    #[test]
    fn queue_priorities_reorder_pending() {
        use crate::queue::{QueueConfig, QueueSet};
        // Two queues: "fast" (small jobs, high priority) and "slow".
        let queues = QueueSet {
            queues: vec![
                QueueConfig {
                    name: "fast".into(),
                    priority: 10,
                    min_nodes: 1,
                    max_nodes: 2,
                    max_walltime: SimDuration::from_hours(100.0),
                },
                QueueConfig {
                    name: "slow".into(),
                    priority: 1,
                    min_nodes: 1,
                    max_nodes: 64,
                    max_walltime: SimDuration::from_hours(100.0),
                },
            ],
        };
        // Cluster 4 busy until t=2 with job0; then a slow 4-node job
        // (submitted first) and a fast 2-node job (submitted later)
        // compete. Priority puts the fast job first in line under FCFS.
        let jobs = vec![
            rigid(1, 0.0, 4, 2.0),
            rigid(2, 0.5, 4, 1.0),
            rigid(3, 0.6, 2, 1.0),
        ];
        let out = simulate(
            &jobs,
            &SimConfig {
                policy: Policy::Fcfs,
                queues: Some(queues),
                ..SimConfig::easy(Cluster::new(4))
            },
        );
        let r2 = out.records.iter().find(|r| r.id == JobId(2)).unwrap();
        let r3 = out.records.iter().find(|r| r.id == JobId(3)).unwrap();
        assert!(
            r3.start < r2.start,
            "high-priority job3 ({}) should start before job2 ({})",
            r3.start,
            r2.start
        );
    }

    #[test]
    fn unadmittable_jobs_rejected_by_queues() {
        use crate::queue::QueueSet;
        let queues = QueueSet::typical(64);
        // 65-node request: no queue admits it on a 64-node layout.
        let jobs = vec![rigid(1, 0.0, 65, 1.0), rigid(2, 0.0, 4, 1.0)];
        let out = simulate(
            &jobs,
            &SimConfig {
                queues: Some(queues),
                ..SimConfig::easy(Cluster::new(128))
            },
        );
        assert_eq!(out.unfinished, 1);
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.records[0].id, JobId(2));
    }

    #[test]
    fn shrink_on_budget_drop() {
        // Malleable job at 8 nodes × 500 W = 4 kW; budget drops to 2 kW at
        // hour 1 → shrink to 4 nodes.
        let job = JobBuilder::new(1, SimTime::ZERO, 8, SimDuration::from_hours(4.0))
            .class(JobClass::Malleable {
                min_nodes: 2,
                max_nodes: 8,
            })
            .build();
        let mut budget = vec![5000.0];
        budget.extend(vec![2000.0; 100]);
        let series = TimeSeries::new(SimTime::ZERO, SimDuration::from_hours(1.0), budget);
        let mut cfg = SimConfig::easy(Cluster::new(8));
        cfg.power_budget = Some(series);
        cfg.enable_malleability = true;
        let out = simulate(&[job], &cfg);
        let r = &out.records[0];
        assert!(r.reshapes >= 1, "job should shrink");
        // After the shrink it runs slower (fewer nodes) → span > 4 h.
        assert!(r.span().as_hours() > 4.0);
        // Violation window at most the tick quantization.
        assert!(out.budget_violation_seconds <= 3700.0);
        assert_eq!(out.unfinished, 0);
    }

    /// The allocation-free sweep must agree with the filter-and-sort
    /// reference on a dense grid of profiles, including duplicate event
    /// times, reservations (negative deltas), infeasible windows and
    /// events at or before `now` (which the sorted variant expects to be
    /// pre-filtered).
    #[test]
    fn earliest_slot_sorted_matches_reference() {
        let t = SimTime::from_hours;
        let d = SimDuration::from_hours;
        let patterns: &[&[(f64, i64)]] = &[
            &[],
            &[(1.0, 4)],
            &[(1.0, 2), (1.0, 2), (2.0, -4), (3.0, 4)],
            &[(0.5, -2), (0.5, 2), (1.5, 4), (1.5, -4), (4.0, 8)],
            &[(2.0, -3), (2.0, -1), (5.0, 4), (6.0, 4)],
            &[(1.0, 1), (2.0, 1), (3.0, 1), (4.0, 1), (5.0, 1)],
            &[(3.0, -8), (7.0, 8)],
        ];
        let mut cases = 0u32;
        for raw in patterns {
            for free_now in 0..6i64 {
                for alloc in 1..6i64 {
                    for dur_h in [0.25, 1.0, 2.5, 10.0] {
                        let now = t(1.0);
                        let events: Vec<(SimTime, i64)> =
                            raw.iter().map(|&(h, n)| (t(h), n)).collect();
                        // The sorted variant's contract: strictly-future
                        // events, pre-sorted, ties in insertion order —
                        // exactly what the reference's filter + stable
                        // sort produces internally.
                        let mut sorted: Vec<Step> = events
                            .iter()
                            .filter(|e| e.0 > now)
                            .map(|&(t, delta)| Step {
                                t,
                                delta,
                                owner: Owner::Run(0),
                            })
                            .collect();
                        sorted.sort_by_key(|e| e.t);
                        assert_eq!(
                            earliest_slot_sorted(free_now, &sorted, now, alloc, d(dur_h)),
                            earliest_slot(free_now, &events, now, alloc, d(dur_h)),
                            "pattern {raw:?} free_now={free_now} alloc={alloc} dur={dur_h}h"
                        );
                        cases += 1;
                    }
                }
            }
        }
        assert!(cases > 500);
    }

    /// Steady-state scheduling skips must not change outcomes: a budget
    /// scenario that strands jobs past the end of the series ticks in a
    /// quiescent tail, and the skip counter must grow while the outcome
    /// stays byte-identical to a run with skipping disabled (the goldens
    /// lock this across the corpus; this is the fast in-tree check).
    #[test]
    fn quiescent_skips_accumulate_in_budget_tail() {
        // 4 jobs × 2 nodes × 500 W = 1 kW each; budget 1 kW admits one
        // at a time, then collapses to 100 W so the last job strands.
        let jobs: Vec<Job> = (0..4).map(|i| rigid(i, 0.0, 2, 1.0)).collect();
        let mut budget = vec![1000.0; 3];
        budget.push(100.0);
        let series = TimeSeries::new(SimTime::ZERO, SimDuration::from_hours(1.0), budget);
        let mut cfg = SimConfig::easy(Cluster::new(4));
        cfg.power_budget = Some(series);
        cfg.max_steps = 5_000;
        let out = simulate(&jobs, &cfg);
        assert_eq!(out.unfinished, 1, "last job should strand on 100 W");
        // The tail is thousands of hourly ticks at a flat budget value:
        // nearly all of them must skip the scheduling pass.
        assert!(
            out.hot_path.schedule_skips > 4_000,
            "expected a skipped tail, got {:?}",
            out.hot_path
        );
        assert!(out.hot_path.schedule_passes < 100);
        assert_eq!(out.hot_path.events, 5_001);
    }

    /// A sim at t = 0 with `running` started directly and `pending`
    /// queued through `pending_insert`, so `backfill` runs against a
    /// hand-built state instead of whatever the event loop reaches.
    fn staged<'a>(
        jobs: &'a [Job],
        cfg: &'a SimConfig,
        running: &[usize],
        pending: &[usize],
    ) -> Sim<'a> {
        let mut sim = Sim::new(jobs, cfg);
        for &i in running {
            let alloc = sim
                .choose_alloc(i, SimTime::ZERO)
                .expect("staged start fits");
            sim.start_job(i, alloc, jobs[i].work, SimTime::ZERO);
        }
        for &i in pending {
            sim.pending_insert(i, SimTime::ZERO);
        }
        sim
    }

    /// Pending job ids in queue order.
    fn pending_ids(sim: &Sim) -> Vec<u64> {
        sim.pending.iter().map(|&i| sim.jobs[i].id.0).collect()
    }

    /// Per-user pending counts for users `0..n` (all zero when users
    /// are not tracked).
    fn pending_counts(sim: &Sim, n: u32) -> Vec<u32> {
        (0..n).map(|u| sim.pending.count(u)).collect()
    }

    /// Budget/CI lookups so far. Every `choose_alloc` under a power
    /// budget makes one, so the delta across a `backfill` call bounds
    /// how many jobs its walk visited.
    fn lookups(sim: &Sim) -> u64 {
        sim.trace_hits.get() + sim.trace_misses.get()
    }

    /// The untracked and the fair-share (`track_users`) variant of one
    /// EASY config; `backfill`'s compaction loop branches on the flag.
    fn untracked_and_tracked(cfg: SimConfig) -> [SimConfig; 2] {
        let mut fs = cfg.clone();
        fs.fair_share = Some(FairShareCfg::default());
        [cfg, fs]
    }

    /// A budget far above anything the staged jobs draw: it never
    /// refuses a start, but makes every `choose_alloc` count a lookup.
    fn ample_budget() -> TimeSeries {
        TimeSeries::constant(SimTime::ZERO, SimDuration::from_hours(1.0), 1e9, 100)
    }

    #[test]
    fn backfill_with_no_free_node_starts_nothing_and_visits_nothing() {
        // Job 1 fills all 8 nodes; job 2 is the blocked head and jobs
        // 3..=7 are 1-node backfill candidates of three users.
        let mut jobs = vec![rigid(1, 0.0, 8, 10.0), rigid(2, 0.0, 8, 1.0)];
        jobs.extend((3..=7).map(|id| {
            JobBuilder::new(id, SimTime::ZERO, 1, SimDuration::from_hours(1.0))
                .user(id as u32 % 3)
                .build()
        }));
        let mut cfg = SimConfig::easy(Cluster::new(8));
        cfg.power_budget = Some(ample_budget());
        for cfg in untracked_and_tracked(cfg) {
            let mut sim = staged(&jobs, &cfg, &[0], &[1, 2, 3, 4, 5, 6]);
            assert_eq!(sim.alloc.free(), 0);
            let (order, users) = (pending_ids(&sim), sim.pending.user.clone());
            let (counts, before) = (pending_counts(&sim, 3), lookups(&sim));
            sim.backfill(1, SimTime::ZERO);
            assert_eq!(sim.running.len(), 1, "nothing may start");
            assert_eq!(pending_ids(&sim), order);
            assert_eq!(sim.pending.user, users);
            assert_eq!(pending_counts(&sim, 3), counts);
            assert_eq!(lookups(&sim), before, "the walk must not run");
        }
    }

    #[test]
    fn backfill_taking_the_last_free_node_keeps_the_tail_in_order() {
        // Job 1 holds 7 of 8 nodes for 10 h, so the head (job 2, 8
        // nodes) waits for the shadow at 10 h. Job 3 needs 2 nodes and
        // cannot start; job 4 takes the last node; jobs 5..=8 are never
        // visited and must keep their order behind job 3.
        let mut jobs = vec![rigid(1, 0.0, 7, 10.0), rigid(2, 0.0, 8, 1.0)];
        jobs.push(rigid(3, 0.0, 2, 1.0));
        jobs.extend((4..=8).map(|id| {
            JobBuilder::new(id, SimTime::ZERO, 1, SimDuration::from_hours(1.0))
                .user(id as u32 % 3)
                .build()
        }));
        let mut cfg = SimConfig::easy(Cluster::new(8));
        cfg.power_budget = Some(ample_budget());
        for cfg in untracked_and_tracked(cfg) {
            let mut sim = staged(&jobs, &cfg, &[0], &[1, 2, 3, 4, 5, 6, 7]);
            let mut counts = pending_counts(&sim, 3);
            let before = lookups(&sim);
            sim.backfill(1, SimTime::ZERO);
            assert_eq!(sim.alloc.free(), 0);
            let started: Vec<u64> = sim.running.iter().map(|r| jobs[r.idx].id.0).collect();
            assert_eq!(started, vec![1, 4]);
            assert_eq!(pending_ids(&sim), vec![2, 3, 5, 6, 7, 8]);
            if sim.pending.track_users {
                let users: Vec<u32> = sim.pending.iter().map(|&i| jobs[i].user).collect();
                assert_eq!(sim.pending.user, users);
                counts[(4 % 3) as usize] -= 1;
            }
            assert_eq!(pending_counts(&sim, 3), counts);
            // The entry check, then jobs 3 and 4 — not the tail.
            assert!(lookups(&sim) - before <= 3, "the walk ran past the start");
        }
    }

    #[test]
    fn backfill_with_no_power_headroom_starts_nothing() {
        // 16 nodes, 9 of them free, but job 1's 7 × 500 W uses the
        // whole 3.5 kW budget: no candidate can start.
        let mut jobs = vec![rigid(1, 0.0, 7, 10.0), rigid(2, 0.0, 16, 1.0)];
        jobs.extend((3..=6).map(|id| rigid(id, 0.0, 1, 1.0)));
        let mut cfg = SimConfig::easy(Cluster::new(16));
        cfg.power_budget = Some(TimeSeries::constant(
            SimTime::ZERO,
            SimDuration::from_hours(1.0),
            3500.0,
            100,
        ));
        for cfg in untracked_and_tracked(cfg) {
            let mut sim = staged(&jobs, &cfg, &[0], &[1, 2, 3, 4, 5]);
            assert!(sim.alloc.free() > 0);
            let order = pending_ids(&sim);
            let (counts, before) = (pending_counts(&sim, 1), lookups(&sim));
            sim.backfill(1, SimTime::ZERO);
            assert_eq!(sim.running.len(), 1, "nothing may start");
            assert_eq!(pending_ids(&sim), order);
            assert_eq!(pending_counts(&sim, 1), counts);
            // Only the entry check's own budget lookup.
            assert!(lookups(&sim) - before <= 1, "the walk must not run");
        }
    }

    /// The maintained parallel arrays, and under fair share the
    /// per-user counts, describe exactly the jobs `idx` names.
    fn assert_lockstep(sim: &Sim, users: u32) {
        let q = &sim.pending;
        if q.track_need {
            let need: Vec<u32> = q.iter().map(|&i| sim.jobs[i].bounds().0).collect();
            assert_eq!(q.need, need, "`need` out of step with `idx`");
        } else {
            assert!(q.need.is_empty());
        }
        let wall: Vec<f64> = q
            .iter()
            .map(|&i| sim.jobs[i].walltime_estimate.as_secs())
            .collect();
        if q.track_wall {
            assert_eq!(q.wall, wall, "`wall` out of step with `idx`");
        } else {
            assert!(q.wall.is_empty());
        }
        if q.track_users {
            let user: Vec<u32> = q.iter().map(|&i| sim.jobs[i].user).collect();
            assert_eq!(q.user, user, "`user` out of step with `idx`");
            for u in 0..users {
                let n = user.iter().filter(|&&x| x == u).count() as u32;
                assert_eq!(q.count(u), n, "count of user {u}");
            }
        } else {
            assert!(q.user.is_empty());
        }
    }

    #[test]
    fn pending_arrays_stay_in_lockstep_under_random_operations() {
        // Rigid and moldable jobs of 5 users on 12 nodes, so `need`
        // (the minimum allocation) often differs from the request.
        let mut rng = sustain_sim_core::rng::RngStream::new(21);
        let jobs: Vec<Job> = (0..120u64)
            .map(|i| {
                let req = 1 + rng.uniform_u64(12) as u32;
                let b = JobBuilder::new(
                    i,
                    SimTime::ZERO,
                    req,
                    SimDuration::from_hours(1.0 + rng.uniform_u64(8) as f64),
                )
                .user(i as u32 % 5);
                if rng.uniform_u64(2) == 0 {
                    b.build()
                } else {
                    let min_nodes = 1 + rng.uniform_u64(req as u64) as u32;
                    b.class(JobClass::Moldable {
                        min_nodes,
                        max_nodes: req,
                    })
                    .build()
                }
            })
            .collect();
        let plain = SimConfig::easy(Cluster::new(12));
        let mut fs = plain.clone();
        fs.fair_share = Some(FairShareCfg::default());
        let mut fcfs = plain.clone();
        fcfs.policy = Policy::Fcfs;
        let mut fcfs_fs = fs.clone();
        fcfs_fs.policy = Policy::Fcfs;
        // EASY plain, with fair share, and with fair share in the
        // legacy-key regime; then FCFS, which maintains no `need`,
        // without and with fair share.
        let mut work = HotPathStats::default();
        for (cfg, legacy) in [
            (&plain, false),
            (&fs, false),
            (&fs, true),
            (&fcfs, false),
            (&fcfs_fs, false),
        ] {
            for seed in 0..8 {
                let mut rng = sustain_sim_core::rng::RngStream::new(seed);
                let mut sim = Sim::new(&jobs, cfg);
                sim.fs_legacy_keys = legacy;
                let mut now = SimTime::ZERO;
                let mut next = 0;
                for _ in 0..400 {
                    match rng.uniform_u64(8) {
                        0 | 1 if next < jobs.len() => {
                            sim.pending_insert(next, now);
                            next += 1;
                        }
                        2 => {
                            // Head drain: start heads while they fit.
                            let mut n = 0;
                            while let Some(&head) = sim.pending.get(n) {
                                let Some(alloc) = sim.choose_alloc(head, now) else {
                                    break;
                                };
                                sim.start_job(head, alloc, jobs[head].work, now);
                                n += 1;
                            }
                            sim.pending.drain_front(n);
                        }
                        // FCFS never backfills.
                        3 if !sim.pending.is_empty() && sim.pending.track_need => {
                            let head =
                                sim.pending[rng.uniform_u64(sim.pending.len() as u64) as usize];
                            sim.backfill(head, now);
                        }
                        4 if !sim.running.is_empty() => {
                            // A completion records usage; the fix-up
                            // repositions the user's pending jobs.
                            now += SimDuration::from_hours(0.25);
                            let pos = rng.uniform_u64(sim.running.len() as u64) as usize;
                            let id = jobs[sim.running[pos].idx].id;
                            sim.finish_job(id, now);
                            sim.fixup_pending(now);
                        }
                        6 => sim.resort_pending_legacy(now),
                        7 if !sim.pending.is_empty() => {
                            // A start from mid-queue (a head behind
                            // carbon-gated jobs, or a conservative start).
                            let pos = rng.uniform_u64(sim.pending.len() as u64) as usize;
                            let i = sim.pending[pos];
                            if let Some(alloc) = sim.choose_alloc(i, now) {
                                sim.start_job(i, alloc, jobs[i].work, now);
                                sim.pending.remove(pos);
                            }
                        }
                        _ => {}
                    }
                    assert_lockstep(&sim, 5);
                }
                work.absorb(&sim.stats);
            }
        }
        // The operations did real work: walks that examined and skipped
        // entries, and fix-ups that merged repositioned entries back.
        assert!(work.backfill_visits > 0 && work.backfill_scanned > work.backfill_visits);
        assert!(work.fs_repositions > 0 && work.resorts_taken > 0);
    }

    #[test]
    fn backfill_skips_past_jobs_that_cannot_fit_to_the_one_that_can() {
        // Job 1 holds 6 of 8 nodes for 10 h, so 2 are free. Job 2 is
        // the blocked head; jobs 3..=12 and 14..=20 need 3 or more
        // nodes. Job 13 (1 node) and job 17 (moldable down to 1 node,
        // though it asks for 8) are the only ones that fit, deep in the
        // queue.
        let mut jobs = vec![rigid(1, 0.0, 6, 10.0), rigid(2, 0.0, 8, 1.0)];
        for id in 3..=20u64 {
            let b = JobBuilder::new(
                id,
                SimTime::ZERO,
                3 + id as u32 % 6,
                SimDuration::from_hours(1.0),
            )
            .user(id as u32 % 3);
            jobs.push(match id {
                13 => JobBuilder::new(id, SimTime::ZERO, 1, SimDuration::from_hours(1.0))
                    .user(1)
                    .build(),
                17 => b
                    .class(JobClass::Moldable {
                        min_nodes: 1,
                        max_nodes: 6,
                    })
                    .build(),
                _ => b.build(),
            });
        }
        let mut cfg = SimConfig::easy(Cluster::new(8));
        cfg.power_budget = Some(ample_budget());
        for cfg in untracked_and_tracked(cfg) {
            let pending: Vec<usize> = (1..jobs.len()).collect();
            let mut sim = staged(&jobs, &cfg, &[0], &pending);
            assert_eq!(sim.alloc.free(), 2);
            let mut counts = pending_counts(&sim, 3);
            sim.backfill(1, SimTime::ZERO);
            let started: Vec<u64> = sim.running.iter().map(|r| jobs[r.idx].id.0).collect();
            assert_eq!(started, vec![1, 13, 17]);
            assert_eq!(sim.alloc.free(), 0);
            let rest: Vec<u64> = (2..=20).filter(|&id| id != 13 && id != 17).collect();
            assert_eq!(pending_ids(&sim), rest);
            assert_lockstep(&sim, 3);
            if sim.pending.track_users {
                counts[1] -= 1; // job 13
                counts[17 % 3] -= 1;
            }
            assert_eq!(pending_counts(&sim, 3), counts);
            // Only the two jobs that fit were examined; the walk stopped
            // at job 17, which took the last free node.
            assert_eq!(sim.stats.backfill_visits, 2);
            assert_eq!(sim.stats.backfill_scanned, 16);
        }
    }

    #[test]
    fn backfill_examines_nothing_when_no_pending_job_fits() {
        // 3 nodes free, every pending job needs 4 or more.
        let mut jobs = vec![rigid(1, 0.0, 5, 10.0), rigid(2, 0.0, 8, 1.0)];
        jobs.extend((3..=9).map(|id| {
            JobBuilder::new(id, SimTime::ZERO, 4, SimDuration::from_hours(1.0))
                .user(id as u32 % 3)
                .class(JobClass::Moldable {
                    min_nodes: 4,
                    max_nodes: 8,
                })
                .build()
        }));
        let mut cfg = SimConfig::easy(Cluster::new(8));
        cfg.power_budget = Some(ample_budget());
        for cfg in untracked_and_tracked(cfg) {
            let pending: Vec<usize> = (1..jobs.len()).collect();
            let mut sim = staged(&jobs, &cfg, &[0], &pending);
            assert_eq!(sim.alloc.free(), 3);
            let (order, counts, before) =
                (pending_ids(&sim), pending_counts(&sim, 3), lookups(&sim));
            sim.backfill(1, SimTime::ZERO);
            assert_eq!(sim.running.len(), 1, "nothing may start");
            assert_eq!(pending_ids(&sim), order);
            assert_eq!(pending_counts(&sim, 3), counts);
            assert_lockstep(&sim, 3);
            assert_eq!(sim.stats.backfill_visits, 0);
            assert_eq!(sim.stats.backfill_scanned, 8);
            // Only the entry check's own budget lookup.
            assert!(lookups(&sim) - before <= 1, "the walk examined a job");
        }
    }

    /// Runs one backfill walk under both EASY configs and checks the
    /// started jobs, the pending order left behind and the walk's
    /// visits. 12 nodes: job 1 holds 4 of them for 10 h, and the blocked
    /// head (job 2) needs 10, so 8 nodes are free, the shadow is at 10 h
    /// and 2 nodes are spare. `extra` jobs queue behind the head.
    fn check_shadow_walk(extra: &[Job], started: &[u64], pending: &[u64], visits: u64) {
        let mut jobs = vec![rigid(1, 0.0, 4, 10.0), rigid(2, 0.0, 10, 1.0)];
        jobs.extend_from_slice(extra);
        let mut cfg = SimConfig::easy(Cluster::new(12));
        cfg.power_budget = Some(ample_budget());
        for cfg in untracked_and_tracked(cfg) {
            let queued: Vec<usize> = (1..jobs.len()).collect();
            let mut sim = staged(&jobs, &cfg, &[0], &queued);
            assert_eq!(sim.alloc.free(), 8);
            let before = lookups(&sim);
            sim.backfill(1, SimTime::ZERO);
            let ran: Vec<u64> = sim.running.iter().map(|r| jobs[r.idx].id.0).collect();
            assert_eq!(ran, started);
            assert_eq!(pending_ids(&sim), pending);
            assert_lockstep(&sim, 1);
            assert_eq!(sim.stats.backfill_visits, visits);
            assert_eq!(sim.stats.backfill_scanned, extra.len() as u64 + 1);
            // The entry check's own lookup, then per visit one for the
            // start test and, after a start, one for the exit check.
            assert!(
                lookups(&sim) - before <= 1 + 2 * visits,
                "the walk examined a skipped job"
            );
        }
    }

    #[test]
    fn backfill_skips_a_job_that_would_outlive_the_shadow_beyond_spare() {
        // Job 3 fits the 8 free nodes, but it needs 3 > 2 spare nodes
        // and its 30 h estimate outlives the shadow: it is not visited.
        check_shadow_walk(&[rigid(3, 0.0, 3, 20.0)], &[1], &[2, 3], 0);
    }

    #[test]
    fn backfill_starts_a_short_job_behind_one_that_cannot_start() {
        // Job 4 (1 node, 1.5 h estimate) ends before the shadow.
        let extra = [rigid(3, 0.0, 3, 20.0), rigid(4, 0.0, 1, 1.0)];
        check_shadow_walk(&extra, &[1, 4], &[2, 3], 1);
    }

    #[test]
    fn backfill_starts_a_long_job_within_spare_and_draws_spare_down() {
        // Job 3 outlives the shadow on the 2 spare nodes and starts,
        // leaving none spare: job 4, its twin, is then skipped unvisited
        // although 6 nodes are still free. Job 5 is short and starts.
        let extra = [
            rigid(3, 0.0, 2, 20.0),
            rigid(4, 0.0, 2, 20.0),
            rigid(5, 0.0, 1, 1.0),
        ];
        check_shadow_walk(&extra, &[1, 3, 5], &[2, 4], 2);
    }

    #[test]
    fn backfill_visits_and_refuses_a_moldable_job_whose_allocation_exceeds_spare() {
        // Job 3 may run on 2 nodes, which fit the spare, so the skip
        // cannot pass it over; but it asks for 8, gets all 8 free nodes
        // and would then outlive the shadow on more than the spare.
        let moldable = JobBuilder::new(3, SimTime::ZERO, 8, SimDuration::from_hours(20.0))
            .class(JobClass::Moldable {
                min_nodes: 2,
                max_nodes: 8,
            })
            .build();
        check_shadow_walk(&[moldable], &[1], &[2, 3], 1);
    }

    /// A queue holding only the `need` and `wall` arrays.
    fn walk_queue(need: Vec<u32>, wall: Vec<f64>) -> PendQueue {
        PendQueue {
            idx: (0..need.len()).collect(),
            need,
            wall,
            track_need: true,
            track_wall: true,
            ..PendQueue::default()
        }
    }

    /// [`PendQueue::next_start`]'s definition, one entry at a time.
    fn next_start_reference(q: &PendQueue, from: usize, t: (u32, u32, f64, f64)) -> usize {
        let (free, spare, now, shadow) = t;
        (from..q.need.len())
            .find(|&p| q.need[p] <= free && (q.need[p] <= spare || now + q.wall[p] <= shadow))
            .unwrap_or(q.need.len())
    }

    #[test]
    fn next_start_finds_the_first_hit_across_mask_boundaries() {
        // 40 entries that need 5 nodes, with 4 free. One hit at `at`,
        // behind decoys that fit the nodes but neither the spare nor the
        // time left before the shadow, in the same mask and the one
        // before.
        let test = (4, 1, 100.0, 200.0);
        for at in [0usize, 1, 15, 16, 17, 31, 32, 39] {
            for decoys in [vec![], vec![at.saturating_sub(1)], vec![3, 14, 15, 16, 30]] {
                let mut need = vec![5; 40];
                let mut wall = vec![500.0; 40];
                for &d in decoys.iter().filter(|&&d| d < at) {
                    need[d] = 2;
                }
                need[at] = 2;
                wall[at] = 100.0;
                let q = walk_queue(need, wall);
                for from in [0, 1, 15, 16, at] {
                    let want = if from <= at { at } else { 40 };
                    assert_eq!(q.next_start(from, test.0, test.1, test.2, test.3), want);
                    assert_eq!(next_start_reference(&q, from, test), want);
                }
            }
        }
        // No hit at all, and a start at the end.
        let q = walk_queue(vec![2; 40], vec![500.0; 40]);
        assert_eq!(q.next_start(0, 4, 1, 100.0, 200.0), 40);
        assert_eq!(q.next_start(40, 4, 1, 100.0, 200.0), 40);
        // A hit by `spare` alone, and by the time test exactly at the
        // shadow (`now + wall == shadow` starts).
        assert_eq!(q.next_start(0, 4, 2, 100.0, 200.0), 0);
        let mut wall = vec![500.0; 40];
        wall[39] = 100.0;
        let q = walk_queue(vec![2; 40], wall);
        assert_eq!(q.next_start(0, 4, 1, 100.0, 200.0), 39);
    }

    #[test]
    fn next_start_matches_a_scan_of_one_entry_at_a_time() {
        let mut rng = sustain_sim_core::rng::RngStream::new(29);
        for _ in 0..2_000 {
            let len = rng.uniform_u64(70) as usize;
            let need: Vec<u32> = (0..len).map(|_| 1 + rng.uniform_u64(32) as u32).collect();
            let wall: Vec<f64> = (0..len)
                .map(|_| rng.uniform_u64(48) as f64 * 900.0)
                .collect();
            let q = walk_queue(need, wall);
            let free = rng.uniform_u64(33) as u32;
            let spare = rng.uniform_u64(free as u64 + 1) as u32;
            let now = rng.uniform_u64(8) as f64 * 3600.0;
            let shadow = now + rng.uniform_u64(24) as f64 * 1800.0;
            let from = rng.uniform_u64(len as u64 + 1) as usize;
            let t = (free, spare, now, shadow);
            assert_eq!(
                q.next_start(from, free, spare, now, shadow),
                next_start_reference(&q, from, t),
                "len {len}, from {from}, {t:?}"
            );
        }
    }

    /// A conservative config on `nodes` nodes with an ample budget.
    fn conservative(nodes: u32) -> SimConfig {
        SimConfig {
            policy: Policy::ConservativeBackfill,
            power_budget: Some(ample_budget()),
            ..SimConfig::easy(Cluster::new(nodes))
        }
    }

    #[test]
    fn conservative_plan_places_nothing_when_no_pending_job_fits() {
        // 3 nodes free, every pending job needs 4 or more.
        let mut jobs = vec![rigid(1, 0.0, 5, 10.0)];
        jobs.extend((2..=7).map(|id| rigid(id, 0.0, 4 + id as u32 % 3, 1.0)));
        let cfg = conservative(8);
        let mut sim = staged(&jobs, &cfg, &[0], &[1, 2, 3, 4, 5, 6]);
        assert_eq!(sim.alloc.free(), 3);
        let (order, before) = (pending_ids(&sim), lookups(&sim));
        sim.conservative_schedule(SimTime::ZERO);
        assert_eq!(sim.running.len(), 1, "nothing may start");
        assert_eq!(pending_ids(&sim), order);
        assert_eq!(sim.stats.backfill_visits, 0);
        assert_eq!(sim.stats.backfill_scanned, 6);
        assert_eq!(lookups(&sim), before, "the plan tried a start");
    }

    #[test]
    fn conservative_plan_keeps_the_reservations_ahead_of_the_exit() {
        // Job 1 holds 4 of 8 nodes until 2 h, so job 2 (8 nodes) is
        // reserved at 2 h. Job 3 (4 nodes) is the last entry that could
        // start now; jobs 4..=6 need more than the 4 free nodes. Job 3
        // may start only if its walltime estimate (1.5 × runtime) ends
        // before job 2's reservation, which the plan must have placed.
        for (runtime_h, starts) in [(2.0, false), (1.0, true)] {
            let mut jobs = vec![
                rigid(1, 0.0, 4, 2.0),
                rigid(2, 0.0, 8, 1.0),
                rigid(3, 0.0, 4, runtime_h),
            ];
            jobs.extend((4..=6).map(|id| rigid(id, 0.0, 5, 1.0)));
            let cfg = conservative(8);
            let mut sim = staged(&jobs, &cfg, &[0], &[1, 2, 3, 4, 5]);
            sim.conservative_schedule(SimTime::ZERO);
            let started: Vec<u64> = sim.running.iter().map(|r| jobs[r.idx].id.0).collect();
            if starts {
                assert_eq!(started, vec![1, 3], "job 3 fits before the reservation");
                assert_eq!(pending_ids(&sim), vec![2, 4, 5, 6]);
                // The pass placed jobs 2 and 3; after the start no free
                // node is left, so it placed nothing more.
                assert_eq!(sim.stats.backfill_visits, 2);
                assert_eq!(sim.stats.backfill_scanned, 5);
            } else {
                assert_eq!(started, vec![1], "job 3 would delay job 2");
                assert_eq!(pending_ids(&sim), vec![2, 3, 4, 5, 6]);
                assert_eq!(sim.stats.backfill_visits, 2);
                assert_eq!(sim.stats.backfill_scanned, 5);
            }
        }
    }

    /// What a conservative pass leaves behind: started job ids, pending
    /// job ids and the profile.
    type PlanState = (Vec<u64>, Vec<u64>, Vec<Step>);

    fn plan_state(sim: &Sim) -> PlanState {
        let started = sim.running.iter().map(|r| sim.jobs[r.idx].id.0).collect();
        (started, pending_ids(sim), sim.scratch.profile.clone())
    }

    /// Runs `stage` with the plan kept, then with it rebuilt at every
    /// pass and after every start, and returns both results.
    fn kept_and_rebuilt<T>(stage: impl Fn() -> T) -> (T, T) {
        let kept = stage();
        REBUILD_EVERY_PASS.with(|f| f.set(true));
        let rebuilt = stage();
        REBUILD_EVERY_PASS.with(|f| f.set(false));
        (kept, rebuilt)
    }

    /// The reservation steps of the entry at `pos`.
    fn reservation(profile: &[Step], pos: usize) -> Vec<(f64, i64)> {
        profile
            .iter()
            .filter(|e| e.owner == Owner::Res(pos))
            .map(|e| (e.t.as_hours(), e.delta))
            .collect()
    }

    /// 10 nodes: job 1 (4 nodes) ends at 2 h and job 2 (4 nodes) at
    /// 4 h, so 2 are free. Pending: job 3 (all 10 nodes) reserves at 4 h,
    /// job 4 (4 nodes) fits between 2 h and job 3, and job 5 (1 node for
    /// 10 h) must wait behind job 3. `extra` jobs queue after them.
    fn finish_stage(extra: &[Job]) -> Vec<Job> {
        let mut jobs = vec![
            rigid(1, 0.0, 4, 2.0),
            rigid(2, 0.0, 4, 4.0),
            rigid(3, 0.0, 10, 1.0),
            rigid(4, 0.0, 4, 1.0),
            rigid(5, 0.0, 1, 10.0),
        ];
        jobs.extend_from_slice(extra);
        jobs
    }

    #[test]
    fn a_finish_keeps_every_reservation_ahead_of_the_first_that_starts() {
        let jobs = finish_stage(&[]);
        let cfg = conservative(10);
        let (kept, rebuilt) = kept_and_rebuilt(|| {
            let mut sim = staged(&jobs, &cfg, &[0, 1], &[2, 3, 4]);
            sim.conservative_schedule(SimTime::ZERO);
            let first = (plan_state(&sim), sim.plan_len, sim.stats);
            let at = SimTime::from_hours(2.0);
            sim.finish_job(JobId(1), at);
            sim.conservative_schedule(at);
            (first, plan_state(&sim), sim.plan_len, sim.stats)
        });
        let ((first, first_len, first_stats), state, plan_len, stats) = kept;
        // The first pass placed all three: job 3 at 4 h, job 4 at 2 h and
        // job 5 after job 3's window.
        assert_eq!(first_len, 3);
        assert_eq!(first_stats.backfill_visits, 3);
        assert_eq!(reservation(&first.2, 0), vec![(4.0, -10), (5.5, 10)]);
        assert_eq!(reservation(&first.2, 1), vec![(2.0, -4), (3.5, 4)]);
        // At 2 h job 4's reservation begins: it starts, and only it and
        // job 5 behind it were placed again. Job 3 kept its slot.
        assert_eq!(state.0, vec![2, 4]);
        assert_eq!(state.1, vec![3, 5]);
        assert_eq!(stats.backfill_visits - first_stats.backfill_visits, 2);
        assert_eq!(stats.backfill_scanned - first_stats.backfill_scanned, 3);
        assert_eq!(reservation(&state.2, 0), reservation(&first.2, 0));
        assert_eq!(plan_len, 2);
        // The same profile, step for step, as a fresh plan.
        assert_eq!(state, rebuilt.1);
        assert_eq!(first, rebuilt.0 .0);
    }

    #[test]
    fn a_tail_submit_places_only_the_new_tail() {
        // Job 6 (2 nodes for 10 h) arrives behind the planned queue.
        let jobs = finish_stage(&[rigid(6, 0.0, 2, 10.0)]);
        let cfg = conservative(10);
        let (kept, rebuilt) = kept_and_rebuilt(|| {
            let mut sim = staged(&jobs, &cfg, &[0, 1], &[2, 3, 4]);
            sim.conservative_schedule(SimTime::ZERO);
            let before = sim.stats;
            sim.pending_insert(5, SimTime::ZERO);
            let len_after_submit = sim.plan_len;
            sim.conservative_schedule(SimTime::ZERO);
            (
                plan_state(&sim),
                len_after_submit,
                sim.plan_len,
                sim.stats,
                before,
            )
        });
        let (state, len_after_submit, plan_len, stats, before) = kept;
        assert_eq!(len_after_submit, 3, "a tail submit keeps the whole plan");
        assert_eq!(stats.backfill_visits - before.backfill_visits, 1);
        assert_eq!(stats.backfill_scanned - before.backfill_scanned, 4);
        assert_eq!(plan_len, 4);
        assert_eq!(state.0, vec![1, 2], "job 6 overlaps job 3's window");
        assert_eq!(state, rebuilt.0);
    }

    #[test]
    fn a_start_at_p_keeps_the_entries_ahead_of_it() {
        // Job 5 (1 node for 1 h, 1.5 h estimated) fits a free node
        // before job 4's reservation at 2 h: it starts at position 2,
        // and job 6 (1 node for 10 h) behind it is placed next.
        let mut jobs = finish_stage(&[rigid(6, 0.0, 1, 10.0)]);
        jobs[4] = rigid(5, 0.0, 1, 1.0);
        let cfg = conservative(10);
        let (kept, rebuilt) = kept_and_rebuilt(|| {
            let mut sim = staged(&jobs, &cfg, &[0, 1], &[2, 3, 4, 5]);
            sim.conservative_schedule(SimTime::ZERO);
            (plan_state(&sim), sim.plan_len, sim.stats)
        });
        let (state, plan_len, stats) = kept;
        assert_eq!(state.0, vec![1, 2, 5]);
        assert_eq!(state.1, vec![3, 4, 6]);
        // Jobs 3, 4, 5 and 6, each once: no restart from the head.
        assert_eq!(stats.backfill_visits, 4);
        assert_eq!(stats.backfill_scanned, 4);
        assert_eq!(plan_len, 3);
        // A restart re-places jobs 3 and 4 and finds the same slots.
        assert_eq!(rebuilt.2.backfill_visits, 6);
        assert_eq!(state, rebuilt.0);
    }

    #[test]
    fn a_moldable_start_that_outruns_its_reservation_rebuilds_the_plan() {
        // 8 nodes under a 2.5 kW budget: job 1 (4 × 500 W) ends at 2 h,
        // leaving 4 nodes but power for only one more. Job 2 (8 nodes,
        // low power) reserves at 2 h. Job 3 asks for 4 nodes for 1 h
        // (1.5 h estimated) and fits before it, but is moldable down to
        // 1 node: the budget gives it 1, so it runs 4 h, past its
        // window, and job 2 must move to 4 h. Job 4 (1 node for 10 h)
        // still fits the free nodes, so the plan re-places job 2.
        let jobs = vec![
            rigid(1, 0.0, 4, 2.0),
            JobBuilder::new(2, SimTime::ZERO, 8, SimDuration::from_hours(1.0))
                .power_per_node(Power::from_watts(10.0))
                .build(),
            JobBuilder::new(3, SimTime::ZERO, 4, SimDuration::from_hours(1.0))
                .class(JobClass::Moldable {
                    min_nodes: 1,
                    max_nodes: 4,
                })
                .build(),
            rigid(4, 0.0, 1, 10.0),
        ];
        let cfg = SimConfig {
            power_budget: Some(TimeSeries::constant(
                SimTime::ZERO,
                SimDuration::from_hours(1.0),
                2500.0,
                100,
            )),
            ..conservative(8)
        };
        let (kept, rebuilt) = kept_and_rebuilt(|| {
            let mut sim = staged(&jobs, &cfg, &[0], &[1, 2, 3]);
            sim.conservative_schedule(SimTime::ZERO);
            (plan_state(&sim), sim.stats)
        });
        let (state, stats) = kept;
        assert_eq!(state.0, vec![1, 3]);
        assert_eq!(state.1, vec![2, 4]);
        assert_eq!(reservation(&state.2, 0), vec![(4.0, -8), (5.5, 8)]);
        // Jobs 2 and 3, then jobs 2 and 4 on the rebuilt profile.
        assert_eq!(stats.backfill_visits, 4);
        assert_eq!(stats.backfill_scanned, 3 + 2);
        assert_eq!(state, rebuilt.0);
    }

    /// `n` random jobs on `nodes` nodes for the plan differential:
    /// rigid, moldable and malleable, a third checkpointable, walltime
    /// estimates from 0.75× to 3× the runtime, submitted in bursts.
    fn random_jobs(seed: u64, n: u64, nodes: u32) -> Vec<Job> {
        let mut rng = sustain_sim_core::rng::RngStream::new(seed);
        let mut t = 0.0;
        (0..n)
            .map(|i| {
                t += rng.uniform_u64(4) as f64 * 0.25;
                let req = 1 + rng.uniform_u64(nodes as u64) as u32;
                let runtime = 0.25 + rng.uniform_u64(16) as f64 * 0.5;
                let est = runtime * [0.75, 1.0, 1.5, 3.0][rng.uniform_u64(4) as usize];
                let min_nodes = 1 + rng.uniform_u64(req as u64) as u32;
                let b = JobBuilder::new(
                    i,
                    SimTime::from_hours(t),
                    req,
                    SimDuration::from_hours(runtime),
                )
                .user(i as u32 % 3)
                .checkpointable(rng.uniform_u64(3) == 0);
                let b = match rng.uniform_u64(4) {
                    0 => b.class(JobClass::Moldable {
                        min_nodes,
                        max_nodes: req,
                    }),
                    1 => b.class(JobClass::Malleable {
                        min_nodes,
                        max_nodes: (2 * req).min(nodes),
                    }),
                    _ => b,
                };
                b.walltime(SimDuration::from_hours(est)).build()
            })
            .collect()
    }

    /// The eight conservative configurations of the plan differential:
    /// plain, carbon trace with checkpointing, power budget,
    /// malleability, failures with checkpointing, priority queues, and
    /// two mixes.
    fn differential_configs(seed: u64, nodes: u32) -> Vec<SimConfig> {
        use crate::queue::{QueueConfig, QueueSet};
        let mut rng = sustain_sim_core::rng::RngStream::new(seed ^ 0xD1FF);
        let hourly = SimDuration::from_hours(1.0);
        // Both series end at a value that lets every job finish: a low
        // carbon intensity (suspended jobs resume) and the full power.
        let mut ci: Vec<f64> = (0..96)
            .map(|_| 50.0 + rng.uniform_u64(400) as f64)
            .collect();
        ci.push(50.0);
        let trace = CarbonTrace::new("t", TimeSeries::new(SimTime::ZERO, hourly, ci));
        let full = nodes as f64 * 500.0;
        let mut watts: Vec<f64> = (0..96)
            .map(|_| full * (0.3 + rng.uniform_u64(8) as f64 * 0.1))
            .collect();
        watts.push(full);
        let budget = TimeSeries::new(SimTime::ZERO, hourly, watts);
        let failures = FailureModel {
            node_mtbf: SimDuration::from_days(4.0),
            mttr: SimDuration::from_hours(3.0),
            seed,
        };
        let queues = QueueSet {
            queues: vec![
                QueueConfig {
                    name: "small".into(),
                    priority: 5,
                    min_nodes: 1,
                    max_nodes: nodes / 4,
                    max_walltime: SimDuration::from_hours(100.0),
                },
                QueueConfig {
                    name: "big".into(),
                    priority: 1,
                    min_nodes: 1,
                    max_nodes: nodes,
                    max_walltime: SimDuration::from_hours(100.0),
                },
            ],
        };
        let plain = SimConfig {
            policy: Policy::ConservativeBackfill,
            ..SimConfig::easy(Cluster::new(nodes))
        };
        let carbon = SimConfig {
            carbon_trace: Some(trace.clone()),
            checkpoint: Some(CheckpointCfg::default()),
            ..plain.clone()
        };
        let power = SimConfig {
            power_budget: Some(budget.clone()),
            ..plain.clone()
        };
        let malleable = SimConfig {
            enable_malleability: true,
            ..plain.clone()
        };
        let failing = SimConfig {
            failures: Some(failures.clone()),
            checkpoint: Some(CheckpointCfg::default()),
            ..plain.clone()
        };
        let queued = SimConfig {
            queues: Some(queues.clone()),
            ..plain.clone()
        };
        let mix_a = SimConfig {
            power_budget: Some(budget),
            enable_malleability: true,
            ..carbon.clone()
        };
        let mix_b = SimConfig {
            failures: Some(failures),
            queues: Some(queues),
            carbon_trace: Some(trace),
            checkpoint: Some(CheckpointCfg::default()),
            ..power.clone()
        };
        vec![
            plain, carbon, power, malleable, failing, queued, mix_a, mix_b,
        ]
    }

    /// The outcome as bytes, without the hot-path counters.
    fn outcome_bytes(mut out: SimOutcome) -> String {
        out.hot_path = HotPathStats::default();
        serde_json::to_string(&out).expect("outcome serializes")
    }

    #[test]
    fn kept_plan_matches_a_plan_rebuilt_at_every_pass() {
        let mut visits = [0u64; 2];
        let mut runs = 0;
        for seed in 0..25 {
            let nodes = [16, 24, 32][seed as usize % 3];
            let jobs = random_jobs(seed, 60, nodes);
            for (c, cfg) in differential_configs(seed, nodes).iter().enumerate() {
                let (kept, rebuilt) = kept_and_rebuilt(|| simulate(&jobs, cfg));
                visits[0] += kept.hot_path.backfill_visits;
                visits[1] += rebuilt.hot_path.backfill_visits;
                assert_eq!(
                    outcome_bytes(kept),
                    outcome_bytes(rebuilt),
                    "seed {seed}, configuration {c}"
                );
                runs += 1;
            }
        }
        assert_eq!(runs, 200);
        // The kept plan did less work, so the comparison is not vacuous.
        assert!(visits[0] < visits[1], "visits kept/rebuilt: {visits:?}");
    }

    /// The EASY configurations of the walk differential: the plan
    /// differential's eight with EASY backfill, the carbon-aware gate on
    /// its carbon trace (with and without its power budget), and fair
    /// share without and with the gate.
    fn easy_differential_configs(seed: u64, nodes: u32) -> Vec<SimConfig> {
        let mut cfgs: Vec<SimConfig> = differential_configs(seed, nodes)
            .into_iter()
            .map(|cfg| SimConfig {
                policy: Policy::EasyBackfill,
                ..cfg
            })
            .collect();
        let gate = Policy::CarbonAware(CarbonAwareCfg::default());
        let gated = SimConfig {
            policy: gate.clone(),
            ..cfgs[1].clone()
        };
        let gated_mix = SimConfig {
            policy: gate,
            ..cfgs[6].clone()
        };
        let fair = SimConfig {
            fair_share: Some(FairShareCfg::default()),
            ..cfgs[0].clone()
        };
        let fair_gated = SimConfig {
            fair_share: Some(FairShareCfg::default()),
            ..gated.clone()
        };
        cfgs.extend([gated, gated_mix, fair, fair_gated]);
        cfgs
    }

    #[test]
    fn time_skip_matches_the_nodes_only_walk() {
        let mut visits = [0u64; 2];
        let mut runs = 0;
        for seed in 0..25 {
            let nodes = [16, 24, 32][seed as usize % 3];
            let jobs = random_jobs(seed, 60, nodes);
            for (c, cfg) in easy_differential_configs(seed, nodes).iter().enumerate() {
                let skip = simulate(&jobs, cfg);
                NODES_ONLY_WALK.with(|f| f.set(true));
                let nodes_only = simulate(&jobs, cfg);
                NODES_ONLY_WALK.with(|f| f.set(false));
                visits[0] += skip.hot_path.backfill_visits;
                visits[1] += nodes_only.hot_path.backfill_visits;
                assert_eq!(
                    outcome_bytes(skip),
                    outcome_bytes(nodes_only),
                    "seed {seed}, configuration {c}"
                );
                runs += 1;
            }
        }
        assert_eq!(runs, 300);
        // The time skip passed over entries the nodes-only walk visited,
        // so the comparison is not vacuous.
        assert!(visits[0] < visits[1], "visits skip/nodes-only: {visits:?}");
    }
}
