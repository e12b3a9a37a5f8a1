//! Deterministic fault injection for chaos testing.
//!
//! The workspace compiles ~10 named *fault sites* into release and test
//! builds via the [`faultpoint!`] macro. Each site is default-off: the
//! fast path is one relaxed atomic load of a process-wide `ARMED` flag,
//! so un-armed sites cost nothing measurable. Sites are armed through
//! the `FAULTS_ENV` environment variable (or programmatically via
//! [`arm`] in tests) with a spec of the form
//!
//! ```text
//! SUSTAIN_FAULTS=site:mode:trigger[,site:mode:trigger...]
//! ```
//!
//! * `site` — a fault-site name, e.g. `sweep::journal_write` (see the
//!   DESIGN.md fault-site table).
//! * `mode` — `panic` (unwind, exercising catch boundaries), `error`
//!   (return a typed [`FaultError`]; at infallible sites this escalates
//!   to a panic so the nearest fault boundary still converts it), or
//!   `delay` (sleep 50 ms, exercising deadlines without failing).
//! * `trigger` — `N` (a 1-based hit ordinal: fire on exactly the Nth
//!   time the site is reached) or `pF` (fire each hit with probability
//!   `F` in `(0, 1]`, drawn from an [`RngStream`] seeded by
//!   `FAULTS_SEED_ENV`, default 0 — deterministic across runs).
//!
//! Injection is observable: [`hit_count`] / [`fired_count`] report how
//! often a site was reached / actually fired, so chaos tests can assert
//! the site they armed was really on the exercised path.

use crate::error::{ConfigError, SimError};
use crate::rng::RngStream;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Environment variable holding the fault spec (see module docs).
pub(crate) const FAULTS_ENV: &str = "SUSTAIN_FAULTS";
/// Environment variable seeding probabilistic triggers (default 0).
pub(crate) const FAULTS_SEED_ENV: &str = "SUSTAIN_FAULTS_SEED";

/// How long `delay`-mode faults sleep when they fire.
pub(crate) const DELAY_MODE_SLEEP: Duration = Duration::from_millis(50);

/// An injected fault surfaced as a typed error by a fallible site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    /// The fault site that fired.
    pub site: String,
    /// Which hit of the site fired (1-based).
    pub hit: u64,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at {} (hit {})", self.site, self.hit)
    }
}

impl std::error::Error for FaultError {}

impl From<FaultError> for SimError {
    fn from(e: FaultError) -> SimError {
        SimError::Faulted {
            unit: format!("faultpoint {}", e.site),
            message: e.to_string(),
        }
    }
}

/// What an armed site does when its trigger matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultMode {
    Panic,
    Error,
    Delay,
}

/// When an armed site fires.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Trigger {
    /// Fire on exactly the nth hit (1-based).
    Nth(u64),
    /// Fire each hit with this probability, from the seeded stream.
    Prob(f64),
}

#[derive(Debug)]
struct ArmedFault {
    site: String,
    mode: FaultMode,
    trigger: Trigger,
    hits: u64,
    fired: u64,
}

#[derive(Debug)]
struct Registry {
    faults: Vec<ArmedFault>,
    rng: RngStream,
}

/// Fast-path flag: true only while at least one site is armed.
static ARMED: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

fn registry() -> std::sync::MutexGuard<'static, Option<Registry>> {
    // A panic-mode fault fires *after* the guard is dropped, so the
    // registry lock can only be poisoned by a bug; recover regardless.
    REGISTRY
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn parse_mode(raw: &str) -> Result<FaultMode, ConfigError> {
    match raw {
        "panic" => Ok(FaultMode::Panic),
        "error" => Ok(FaultMode::Error),
        "delay" => Ok(FaultMode::Delay),
        other => Err(ConfigError::new(
            "env",
            FAULTS_ENV,
            format!("mode must be panic|error|delay, got {other:?}"),
        )),
    }
}

fn parse_trigger(raw: &str) -> Result<Trigger, ConfigError> {
    if let Some(prob) = raw.strip_prefix('p') {
        let p: f64 = prob.parse().map_err(|_| {
            ConfigError::new(
                "env",
                FAULTS_ENV,
                format!("probability must be a float in (0, 1], got {raw:?}"),
            )
        })?;
        if !(p > 0.0 && p <= 1.0) {
            return Err(ConfigError::new(
                "env",
                FAULTS_ENV,
                format!("probability must be in (0, 1], got {p}"),
            ));
        }
        return Ok(Trigger::Prob(p));
    }
    let nth: u64 = raw.parse().map_err(|_| {
        ConfigError::new(
            "env",
            FAULTS_ENV,
            format!("trigger must be a 1-based hit ordinal or pF, got {raw:?}"),
        )
    })?;
    if nth == 0 {
        return Err(ConfigError::new(
            "env",
            FAULTS_ENV,
            "hit ordinal is 1-based; 0 never fires",
        ));
    }
    Ok(Trigger::Nth(nth))
}

/// Parses a fault spec and arms the registry with it, replacing any
/// previous arming. Returns the number of sites armed. An empty spec
/// is rejected (use [`disarm`] to turn injection off).
pub fn arm(spec: &str, seed: u64) -> Result<usize, ConfigError> {
    let mut faults = Vec::new();
    for entry in spec.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            return Err(ConfigError::new(
                "env",
                FAULTS_ENV,
                format!("empty entry in fault spec {spec:?}"),
            ));
        }
        // Split from the right: site names contain `::`.
        let parts: Vec<&str> = entry.rsplitn(3, ':').collect();
        let [trigger, mode, site] = parts[..] else {
            return Err(ConfigError::new(
                "env",
                FAULTS_ENV,
                format!("expected site:mode:trigger, got {entry:?}"),
            ));
        };
        if site.is_empty() || site.ends_with(':') {
            return Err(ConfigError::new(
                "env",
                FAULTS_ENV,
                format!("empty site name in {entry:?}"),
            ));
        }
        faults.push(ArmedFault {
            site: site.to_string(),
            mode: parse_mode(mode)?,
            trigger: parse_trigger(trigger)?,
            hits: 0,
            fired: 0,
        });
    }
    let count = faults.len();
    let mut guard = registry();
    *guard = Some(Registry {
        faults,
        rng: RngStream::new(seed).derive("faults"),
    });
    ARMED.store(true, Ordering::Release);
    Ok(count)
}

/// Disarms every site and clears hit counters. Safe to call when
/// nothing is armed.
pub fn disarm() {
    let mut guard = registry();
    ARMED.store(false, Ordering::Release);
    *guard = None;
}

/// Strictly applies `FAULTS_ENV` (seeded by `FAULTS_SEED_ENV`,
/// default 0) if set; returns the number of sites armed, `None` when
/// the variable is unset, and a typed [`ConfigError`] on a malformed
/// spec or seed — a fault plan the operator *tried* to set and got
/// wrong must never be silently ignored.
pub fn init_from_env() -> Result<Option<usize>, ConfigError> {
    let spec = match std::env::var(FAULTS_ENV) {
        Ok(raw) => raw,
        Err(std::env::VarError::NotPresent) => return Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => {
            return Err(ConfigError::new(
                "env",
                FAULTS_ENV,
                "must be a site:mode:trigger list, got non-unicode bytes",
            ))
        }
    };
    let seed = match std::env::var(FAULTS_SEED_ENV) {
        Ok(raw) => raw.trim().parse::<u64>().map_err(|_| {
            ConfigError::new(
                "env",
                FAULTS_SEED_ENV,
                format!("must be a non-negative integer, got {raw:?}"),
            )
        })?,
        Err(std::env::VarError::NotPresent) => 0,
        Err(std::env::VarError::NotUnicode(_)) => {
            return Err(ConfigError::new(
                "env",
                FAULTS_SEED_ENV,
                "must be a non-negative integer, got non-unicode bytes",
            ))
        }
    };
    arm(&spec, seed).map(Some)
}

/// How often `site` has been reached since arming (0 when un-armed or
/// unknown). Lets chaos tests assert an armed site is really on the
/// exercised path even when its trigger never matches.
pub fn hit_count(site: &str) -> u64 {
    let guard = registry();
    guard
        .as_ref()
        .and_then(|r| r.faults.iter().find(|f| f.site == site))
        .map(|f| f.hits)
        .unwrap_or(0)
}

/// How often `site` has actually fired since arming.
pub fn fired_count(site: &str) -> u64 {
    let guard = registry();
    guard
        .as_ref()
        .and_then(|r| r.faults.iter().find(|f| f.site == site))
        .map(|f| f.fired)
        .unwrap_or(0)
}

/// What `fire` decided while holding the registry lock; acted on after
/// the guard is dropped so a panic never poisons the registry.
enum Action {
    None,
    Panic(FaultError),
    Error(FaultError),
    Delay,
}

fn decide(site: &str) -> Action {
    let mut guard = registry();
    let Some(reg) = guard.as_mut() else {
        return Action::None;
    };
    // Split borrows: the RNG draw must not overlap the fault borrow.
    let rng = &mut reg.rng;
    let Some(fault) = reg.faults.iter_mut().find(|f| f.site == site) else {
        return Action::None;
    };
    fault.hits += 1;
    let fires = match fault.trigger {
        Trigger::Nth(n) => fault.hits == n,
        Trigger::Prob(p) => rng.uniform() < p,
    };
    if !fires {
        return Action::None;
    }
    fault.fired += 1;
    let err = FaultError {
        site: fault.site.clone(),
        hit: fault.hits,
    };
    match fault.mode {
        FaultMode::Panic => Action::Panic(err),
        FaultMode::Error => Action::Error(err),
        FaultMode::Delay => Action::Delay,
    }
}

/// A fallible fault site: returns the injected [`FaultError`] in
/// `error` mode, panics in `panic` mode, sleeps in `delay` mode.
/// Un-armed cost: one relaxed atomic load.
pub fn fire(site: &str) -> Result<(), FaultError> {
    if !ARMED.load(Ordering::Relaxed) {
        return Ok(());
    }
    match decide(site) {
        Action::None => Ok(()),
        Action::Error(err) => Err(err),
        Action::Panic(err) => panic!("{err}"),
        Action::Delay => {
            std::thread::sleep(DELAY_MODE_SLEEP);
            Ok(())
        }
    }
}

/// An infallible fault site (inside code with no error channel):
/// `error` mode escalates to a panic so the nearest fault boundary
/// (`catch_unwind` in sweeps / the service) still converts it to a
/// typed error. Un-armed cost: one relaxed atomic load.
pub fn fire_infallible(site: &str) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    match decide(site) {
        Action::None => {}
        Action::Error(err) | Action::Panic(err) => panic!("{err}"),
        Action::Delay => std::thread::sleep(DELAY_MODE_SLEEP),
    }
}

/// Marks a named fault site. `faultpoint!("site")` expands to a
/// fallible [`fire`] call returning `Result<(), FaultError>` (use `?`
/// after mapping, or match); `faultpoint!(infallible "site")` expands
/// to [`fire_infallible`] and is statement-position.
#[macro_export]
macro_rules! faultpoint {
    (infallible $site:expr) => {
        $crate::faults::fire_infallible($site)
    };
    ($site:expr) => {
        $crate::faults::fire($site)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; tests that arm it serialize here.
    static LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn unarmed_sites_are_free_and_ok() {
        let _guard = lock();
        disarm();
        assert!(fire("nowhere").is_ok());
        fire_infallible("nowhere");
        assert_eq!(hit_count("nowhere"), 0);
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let _guard = lock();
        arm("t::site:error:3", 0).unwrap();
        assert!(fire("t::site").is_ok());
        assert!(fire("t::site").is_ok());
        let err = fire("t::site").unwrap_err();
        assert_eq!(err.site, "t::site");
        assert_eq!(err.hit, 3);
        assert!(fire("t::site").is_ok(), "nth fires once, not from-nth-on");
        assert_eq!(hit_count("t::site"), 4);
        assert_eq!(fired_count("t::site"), 1);
        disarm();
    }

    #[test]
    fn panic_mode_unwinds_with_site_in_payload() {
        let _guard = lock();
        arm("t::boom:panic:1", 0).unwrap();
        let caught = std::panic::catch_unwind(|| fire("t::boom").ok());
        disarm();
        let payload = caught.unwrap_err();
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("t::boom"), "{message}");
    }

    #[test]
    fn error_mode_escalates_to_panic_at_infallible_sites() {
        let _guard = lock();
        arm("t::inf:error:1", 0).unwrap();
        let caught = std::panic::catch_unwind(|| fire_infallible("t::inf"));
        disarm();
        assert!(caught.is_err());
    }

    #[test]
    fn probabilistic_trigger_is_seeded_and_deterministic() {
        let _guard = lock();
        let mut pattern_a = Vec::new();
        arm("t::p:error:p0.5", 42).unwrap();
        for _ in 0..32 {
            pattern_a.push(fire("t::p").is_err());
        }
        let fired = fired_count("t::p");
        assert!(fired > 0 && fired < 32, "p=0.5 over 32 hits, got {fired}");
        arm("t::p:error:p0.5", 42).unwrap();
        let pattern_b: Vec<bool> = (0..32).map(|_| fire("t::p").is_err()).collect();
        assert_eq!(pattern_a, pattern_b, "same seed, same firing pattern");
        disarm();
    }

    #[test]
    fn multi_site_specs_and_unknown_sites() {
        let _guard = lock();
        let count = arm("a::x:delay:1, b::y:error:1", 0).unwrap();
        assert_eq!(count, 2);
        assert!(fire("c::unarmed").is_ok());
        assert!(fire("b::y").is_err());
        disarm();
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        let _guard = lock();
        disarm();
        for bad in [
            "",
            "site",
            "site:panic",
            "site:explode:1",
            "site:panic:0",
            "site:panic:p0",
            "site:panic:p1.5",
            "site:panic:soon",
            ":panic:1",
            "a:panic:1,,b:panic:1",
        ] {
            let err = arm(bad, 0).unwrap_err();
            assert_eq!(err.context, "env", "{bad:?}");
            assert_eq!(err.field, FAULTS_ENV, "{bad:?}");
        }
        // A rejected spec arms nothing.
        assert!(fire("a").is_ok());
        disarm();
    }

    #[test]
    fn faultpoint_macro_expands_to_both_forms() {
        let _guard = lock();
        arm("t::mac:error:1", 0).unwrap();
        let r: Result<(), FaultError> = crate::faultpoint!("t::mac");
        assert!(r.is_err());
        crate::faultpoint!(infallible "t::mac");
        disarm();
    }

    #[test]
    fn fault_error_converts_to_typed_sim_error() {
        let e = FaultError {
            site: "sweep::journal_write".into(),
            hit: 2,
        };
        let sim: SimError = e.into();
        match &sim {
            SimError::Faulted { unit, message } => {
                assert!(unit.contains("sweep::journal_write"));
                assert!(message.contains("hit 2"));
            }
            other => panic!("expected Faulted, got {other:?}"),
        }
    }
}
