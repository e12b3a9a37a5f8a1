//! Integration tests for the `sustain-hpc` reproduction CLI, exercised as
//! a real subprocess (the same surface a user drives).

use std::collections::BTreeSet;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sustain-hpc"))
}

#[test]
fn list_names_every_experiment() {
    let out = bin().arg("list").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for name in [
        "fig1", "table1", "fig2", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11a", "e11b", "e12",
        "e13", "e14", "a1", "a2", "a3", "a4", "a5", "a6", "site",
    ] {
        assert!(text.contains(name), "missing experiment {name}");
    }
}

#[test]
fn fig1_outputs_valid_json_with_anchor() {
    let out = bin().arg("fig1").output().expect("binary runs");
    assert!(out.status.success());
    let rows: serde_json::Value = serde_json::from_slice(&out.stdout).expect("stdout is pure JSON");
    let share = rows[0]["memory_storage_share"].as_f64().unwrap();
    assert!(
        (share - 0.435).abs() < 0.015,
        "Fig. 1 anchor drifted: {share}"
    );
}

#[test]
fn out_flag_writes_artifact() {
    let dir = std::env::temp_dir().join(format!("sustain-cli-test-{}", std::process::id()));
    let out = bin()
        .args(["e12", "--out"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let artifact = dir.join("e12.json");
    let data = std::fs::read(&artifact).expect("artifact written");
    let rows: serde_json::Value = serde_json::from_slice(&data).unwrap();
    assert_eq!(rows.as_array().unwrap().len(), 5); // the Carbon500 entries
    std::fs::remove_dir_all(&dir).ok();

    // `all --out` is the one artifact generator: one parseable
    // `<name>.json` per listed experiment, the same set as `results/`.
    let json_names = |dir: &std::path::Path| -> BTreeSet<String> {
        std::fs::read_dir(dir)
            .expect("directory readable")
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect()
    };
    let list = bin().arg("list").output().expect("binary runs");
    let listed: BTreeSet<String> = String::from_utf8(list.stdout)
        .unwrap()
        .lines()
        .filter_map(|l| l.strip_prefix("  ")?.split_whitespace().next())
        .map(|name| format!("{name}.json"))
        .collect();
    let out = bin()
        .args(["all", "--out"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let written = json_names(&dir);
    assert_eq!(written, listed, "one artifact per listed experiment");
    for name in &written {
        let data = std::fs::read(dir.join(name)).unwrap();
        serde_json::from_slice::<serde_json::Value>(&data)
            .unwrap_or_else(|e| panic!("{name} is not JSON: {e}"));
    }
    let committed = json_names(&std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results"));
    assert_eq!(committed.len(), 22);
    assert_eq!(written, committed, "artifact set differs from results/");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn same_seed_is_byte_identical() {
    let a = bin().args(["fig2", "--seed", "5"]).output().unwrap();
    let b = bin().args(["fig2", "--seed", "5"]).output().unwrap();
    assert!(a.status.success());
    assert_eq!(a.stdout, b.stdout, "same seed must reproduce bytes");
    let c = bin().args(["fig2", "--seed", "6"]).output().unwrap();
    assert_ne!(a.stdout, c.stdout, "different seed must differ");
}

#[test]
fn bad_inputs_fail_cleanly() {
    for args in [
        vec!["nonsense"],
        vec!["fig1", "--bogus"],
        vec!["fig2", "--seed"],
        vec!["e10", "--days", "0"],
        vec!["e10", "--days", "abc"],
    ] {
        let out = bin().args(&args).output().unwrap();
        assert!(
            !out.status.success(),
            "{args:?} should fail with a nonzero exit"
        );
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("error:"), "{args:?}: stderr was {err:?}");
        // No panic backtraces on user errors.
        assert!(!err.contains("panicked"), "{args:?} panicked: {err}");
    }
}

#[test]
fn unwritable_out_dir_fails_cleanly() {
    // A path *under a regular file* can never become a directory.
    let blocker = std::env::temp_dir().join(format!("sustain-cli-blocker-{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").unwrap();
    let out = bin()
        .args(["fig1", "--out"])
        .arg(blocker.join("sub"))
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "unwritable --out must exit nonzero");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("error:") && err.contains("output directory"),
        "stderr was {err:?}"
    );
    assert!(!err.contains("panicked"), "panicked: {err}");
    std::fs::remove_file(&blocker).ok();
}

#[test]
fn degenerate_days_yield_typed_error() {
    // days=1 parses fine but fails experiment validation (calibration
    // needs two days of data) — typed error on stderr, nonzero exit.
    let out = bin().args(["e8", "--days", "1"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("error:") && err.contains("days"), "{err:?}");
    assert!(!err.contains("panicked"), "panicked: {err}");
}

#[test]
fn invalid_env_knobs_are_rejected_with_typed_errors() {
    for (var, val) in [
        ("SUSTAIN_THREADS", "two"),
        ("SUSTAIN_THREADS", "-1"),
        ("SUSTAIN_THREADS", "1.5"),
        ("SUSTAIN_TRACE_CACHE_CAP", "0x10"),
        ("SUSTAIN_FAULTS", "nonsense"),
        ("SUSTAIN_FAULTS", "sim::tick:explode:1"),
        ("SUSTAIN_FAULTS", "sim::tick:panic:p2.0"),
        ("SUSTAIN_FAULTS_SEED", "not-a-seed"),
        ("SUSTAIN_RETRY_MAX", "many"),
        ("SUSTAIN_RETRY_MAX", "0"),
        ("SUSTAIN_RETRY_BACKOFF_MS", "soon"),
        ("SUSTAIN_BREAKER_TRIP", "0"),
        ("SUSTAIN_BREAKER_TRIP", "-3"),
    ] {
        let out = if var == "SUSTAIN_FAULTS_SEED" {
            // The seed is only read when a fault plan is present.
            bin()
                .arg("list")
                .env("SUSTAIN_FAULTS", "sim::tick:panic:1")
                .env(var, val)
                .output()
                .unwrap()
        } else {
            bin().arg("list").env(var, val).output().unwrap()
        };
        assert!(
            !out.status.success(),
            "{var}={val} must be rejected, not silently ignored"
        );
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains("error:") && err.contains(var),
            "{var}={val}: stderr must name the variable, was {err:?}"
        );
        assert!(!err.contains("panicked"), "{var}={val} panicked: {err}");
    }
}

#[test]
fn valid_env_knobs_are_accepted() {
    let out = bin()
        .arg("list")
        .env("SUSTAIN_THREADS", "2")
        .env("SUSTAIN_TRACE_CACHE_CAP", "8")
        .env(
            "SUSTAIN_FAULTS",
            "sweep::point:delay:3,sim::tick:panic:p0.5",
        )
        .env("SUSTAIN_FAULTS_SEED", "9")
        .env("SUSTAIN_RETRY_MAX", "5")
        .env("SUSTAIN_RETRY_BACKOFF_MS", "10")
        .env("SUSTAIN_BREAKER_TRIP", "4")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "valid knobs must not fail: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn timeout_flag_cancels_a_long_run_with_a_typed_error() {
    // A run that takes seconds against a millisecond budget: the
    // deadline must cancel it with a typed error on stderr — nonzero
    // exit, no panic, and a reason naming the deadline.
    let file =
        std::env::temp_dir().join(format!("sustain-cli-timeout-{}.json", std::process::id()));
    std::fs::write(&file, br#"{"days": 365, "nodes": 2000}"#).unwrap();
    let out = bin()
        .args(["run", "--request"])
        .arg(&file)
        .args(["--timeout", "0.001"])
        .output()
        .unwrap();
    std::fs::remove_file(&file).ok();
    assert!(!out.status.success(), "timed-out run must exit nonzero");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("error:") && err.contains("cancelled") && err.contains("deadline"),
        "stderr was {err:?}"
    );
    assert!(!err.contains("panicked"), "panicked: {err}");

    // A generous budget changes nothing: same bytes as no --timeout.
    let plain = bin().arg("run").output().unwrap();
    let bounded = bin().args(["run", "--timeout", "600"]).output().unwrap();
    assert!(plain.status.success() && bounded.status.success());
    assert_eq!(
        plain.stdout, bounded.stdout,
        "an unexpired deadline must not change the result"
    );

    // A malformed budget is a usage error.
    for bad in ["0", "-1", "abc", "inf"] {
        let out = bin().args(["run", "--timeout", bad]).output().unwrap();
        assert!(!out.status.success(), "--timeout {bad} must be rejected");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("error:") && err.contains("timeout"), "{err:?}");
    }
}

#[test]
fn run_subcommand_defaults_and_rejects_bad_requests() {
    // `run` with no --request uses the baseline request and prints JSON.
    let out = bin().arg("run").output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("stdout is pure JSON");
    assert!(v["outcome"].as_object().is_some());

    // A malformed request file is a typed error, not a panic.
    let file = std::env::temp_dir().join(format!("sustain-cli-badreq-{}.json", std::process::id()));
    std::fs::write(&file, br#"{"dayz": 3}"#).unwrap();
    let out = bin()
        .args(["run", "--request"])
        .arg(&file)
        .output()
        .unwrap();
    std::fs::remove_file(&file).ok();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("error:") && err.contains("dayz"), "{err:?}");
    assert!(!err.contains("panicked"), "panicked: {err}");
}

#[test]
fn run_stats_flag_prints_counters_and_leaves_stdout_unchanged() {
    let plain = bin().arg("run").output().unwrap();
    let stats = bin().args(["run", "--stats"]).output().unwrap();
    assert!(plain.status.success() && stats.status.success());
    let err = String::from_utf8(stats.stderr).unwrap();
    for line in [
        "sim hot path:",
        "outcome cache:",
        "workload cache:",
        "trace cache:",
        "self healing:",
    ] {
        assert!(
            err.contains(line),
            "`run --stats` stderr lacks {line:?}: {err:?}"
        );
    }
    assert!(!String::from_utf8(plain.stderr)
        .unwrap()
        .contains("sim hot path:"));
    assert_eq!(
        plain.stdout, stats.stdout,
        "--stats must not change the result body"
    );
}

#[test]
fn missing_command_prints_usage() {
    let out = bin().output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("usage:"));
}

#[test]
fn help_flags_print_usage_and_succeed() {
    for flag in ["--help", "-h"] {
        let out = bin().arg(flag).output().unwrap();
        assert!(out.status.success(), "{flag} failed");
        let usage = String::from_utf8(out.stdout).unwrap();
        assert!(usage.starts_with("usage: sustain-hpc"), "{flag}: {usage}");
        assert!(out.stderr.is_empty(), "{flag} wrote to stderr");
    }
}
