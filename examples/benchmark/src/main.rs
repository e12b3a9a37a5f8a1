//! End-to-end, layer-by-layer benchmark of sustain-hpc.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1
//! benchmark --smoke [--seed N] [--trace 0|1]
//! benchmark collect --seeds A-B --seconds S --out SET.jsonl [--workload W]...
//! benchmark compare A.jsonl B.jsonl
//! ```
//!
//! Each run spawns fresh processes of this binary, so the program's
//! caches and thread budget start empty: a few set-up probes, the
//! workload itself, verifiers that recompute a seeded sample of bodies,
//! and with `--trace 1` an untraced and a traced replay. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See README.md.

mod client;
mod compare;
mod drive;
mod replay;
mod spec;
mod trace;
mod util;

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use serde_json::Value;

use spec::{Body, Workload};
use util::Rng;

/// Set-up is measured this many times per run (the workload process's
/// own set-up plus separate probes); `setup_s` is their median.
const SETUP_SAMPLES: usize = 11;
/// Every child must be done this long after the run started, so a run
/// never exceeds three minutes even when the program hangs.
const RUN_DEADLINE: Duration = Duration::from_secs(170);
/// Trace files go under this directory, one subdirectory per workload.
const TRACE_DIR: &str = ".bench_trace";

/// Declares the metrics (names, units, bounds); read from the directory
/// the benchmark runs in, the repository root.
const BENCHMARK_JSON: &str = "BENCHMARK.json";

#[derive(Debug, Default)]
struct Args {
    positional: Vec<String>,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    role: Option<String>,
    ids: Vec<u32>,
    seeds: Option<(u64, u64)>,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => args.workloads.push(Workload::parse(&value("--workload")?)?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => args.smoke = true,
            "--role" => args.role = Some(value("--role")?),
            "--ids" => {
                let list = value("--ids")?;
                args.ids = list
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.parse().map_err(|_| format!("bad id {s:?}")))
                    .collect::<Result<_, _>>()?;
            }
            "--seeds" => {
                let range = value("--seeds")?;
                let (a, b) = range.split_once('-').ok_or("--seeds takes A-B")?;
                let a = a.parse().map_err(|_| "--seeds takes A-B")?;
                let b = b.parse().map_err(|_| "--seeds takes A-B")?;
                args.seeds = Some((a, b));
            }
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => args.positional.push(other.to_string()),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    util::now_s();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: benchmark --workload W --seed N --seconds S --trace 0|1 | --smoke | \
                 collect --seeds A-B --seconds S --out FILE | compare A.jsonl B.jsonl"
            );
            return ExitCode::from(2);
        }
    };
    let result = if let Some(role) = args.role.clone() {
        child_main(&role, &args)
    } else {
        match args.positional.first().map(String::as_str) {
            Some("compare") => compare_main(&args),
            Some("collect") => collect_main(&args),
            Some(other) => Err(format!("unknown command {other:?}")),
            None if args.smoke => smoke_main(&args),
            None => bench_main(&args),
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn one_workload(args: &Args) -> Result<Workload, String> {
    match args.workloads.as_slice() {
        [w] => Ok(*w),
        _ => Err("give exactly one --workload".into()),
    }
}

// ---------------------------------------------------------------------------
// Child processes
// ---------------------------------------------------------------------------

fn child_main(role: &str, args: &Args) -> Result<bool, String> {
    let workload = one_workload(args)?;
    let seconds = args.seconds.ok_or("--seconds is required")?;
    match role {
        "setup" => {
            // The probe ends as soon as set-up is done: exiting the
            // process stops the server threads with it.
            let _setup = drive::setup(workload, args.seed, seconds)?;
            println!("ready");
            std::io::stdout().flush().map_err(|e| e.to_string())?;
            Ok(true)
        }
        "workload" => workload_child(workload, args.seed, seconds, args.trace),
        "verify" => {
            drive::init_env()?;
            for &id in &args.ids {
                let body = drive::handle(&workload.body(args.seed, id))?;
                println!("{id} {:016x}", util::digest(body.as_bytes()));
            }
            Ok(true)
        }
        "replay" => replay_child(workload, args.seed, args.trace),
        other => Err(format!("unknown role {other:?}")),
    }
}

fn hex_table(table: &[(u32, u64)]) -> Value {
    Value::Array(
        table
            .iter()
            .map(|&(id, d)| {
                Value::Array(vec![Value::U64(id as u64), Value::Str(format!("{d:016x}"))])
            })
            .collect(),
    )
}

fn metrics_value(metrics: &[(&str, f64)]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|&(k, v)| (k.to_string(), Value::F64(v)))
            .collect(),
    )
}

fn workload_child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<bool, String> {
    let setup = drive::setup(workload, seed, seconds)?;
    println!("ready");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let outcome = drive::run(setup)?;
    let e2e = drive::end_to_end(workload, &outcome);
    let (digests, bad, failed) = drive::check(workload, seed, &outcome);
    let mut fields = vec![
        (
            "attempted".to_string(),
            Value::U64(outcome.recs.len() as u64),
        ),
        ("failed".to_string(), Value::U64(failed as u64)),
        ("bad".to_string(), Value::U64(bad as u64)),
        (
            "non_2xx".to_string(),
            Value::U64(drive::non_2xx(&outcome) as u64),
        ),
        (
            "step_cap".to_string(),
            Value::U64(outcome.recs.iter().filter(|r| r.step_cap).count() as u64),
        ),
        (
            "e2e".to_string(),
            metrics_value(&[
                ("latency_p50_ms", e2e.latency_p50_ms),
                ("latency_tail_ms", e2e.latency_tail_ms),
                ("samples", e2e.samples as f64),
                ("slo_ratio", e2e.slo_ratio),
                ("points_per_s", e2e.points_per_s),
                ("points", e2e.points as f64),
                ("closed_s", outcome.closed_elapsed),
                ("peak_rss_mb", e2e.peak_rss_mb),
            ]),
        ),
        (
            "layer".to_string(),
            metrics_value(&drive::service_layer(&outcome)),
        ),
        ("digests".to_string(), hex_table(&digests)),
    ];
    if traced {
        let ops = replay::ops_of(&outcome.recs);
        fields.push((
            "ops".to_string(),
            Value::Array(ops.iter().map(|op| Value::Str(op.encode())).collect()),
        ));
    }
    let line = serde_json::to_string(&Value::Object(fields)).map_err(|e| e.to_string())?;
    println!("{line}");
    Ok(true)
}

fn replay_child(workload: Workload, seed: u64, traced: bool) -> Result<bool, String> {
    drive::init_env()?;
    let ops = std::io::stdin()
        .lock()
        .lines()
        .map(|l| {
            l.map_err(|e| e.to_string())
                .and_then(|l| replay::Op::decode(&l))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let out = replay::replay(workload, seed, &ops, traced);
    if let Some(summary) = &out.summary {
        let dir = PathBuf::from(TRACE_DIR).join(workload.name());
        trace::write(&dir, &out.spans, summary)
            .map_err(|e| format!("cannot write spans to {}: {e}", dir.display()))?;
        eprintln!(
            "wrote {} spans to {}",
            out.spans.len(),
            dir.join("spans.jsonl").display()
        );
    }
    let doc = Value::Object(vec![
        ("digests".to_string(), hex_table(&out.digests)),
        ("failures".to_string(), Value::U64(out.failures as u64)),
        // A mean, not a median: run_long alternates two policies, and a
        // median of alternating costs jumps between them.
        (
            "op_ms".to_string(),
            Value::F64(util::mean(&out.latencies_ms)),
        ),
        ("metrics".to_string(), metrics_value(&out.metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&doc).map_err(|e| e.to_string())?
    );
    Ok(true)
}

/// A running child process of this binary, with its stdout lines
/// delivered through a channel so every wait can time out.
struct Child {
    name: String,
    proc: std::process::Child,
    lines: mpsc::Receiver<String>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl Child {
    fn spawn(
        name: &str,
        args: &[String],
        env: &Env,
        stdin: Option<String>,
    ) -> Result<Child, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args(args)
            .stdin(if stdin.is_some() {
                Stdio::piped()
            } else {
                Stdio::null()
            })
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (key, value) in env {
            match value {
                Some(v) => cmd.env(key, v),
                None => cmd.env_remove(key),
            };
        }
        let mut proc = cmd
            .spawn()
            .map_err(|e| format!("cannot start {name}: {e}"))?;
        if let (Some(text), Some(mut pipe)) = (stdin, proc.stdin.take()) {
            // The child reads all of its input before it writes anything,
            // so writing it all here cannot deadlock against stdout.
            pipe.write_all(text.as_bytes())
                .map_err(|e| format!("cannot feed {name}: {e}"))?;
        }
        let stdout = proc.stdout.take().ok_or("child has no stdout")?;
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Ok(Child {
            name: name.to_string(),
            proc,
            lines: rx,
            reader: Some(reader),
        })
    }

    fn next_line(&mut self, deadline: Instant) -> Result<String, String> {
        let left = deadline.saturating_duration_since(Instant::now());
        match self.lines.recv_timeout(left) {
            Ok(line) => Ok(line),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(format!("{} timed out", self.name)),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Err(format!("{} exited without reporting", self.name))
            }
        }
    }

    /// Waits for the child to exit and returns the rest of its output.
    fn finish(mut self, deadline: Instant) -> Result<Vec<String>, String> {
        let mut rest = Vec::new();
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.lines.recv_timeout(left) {
                Ok(line) => rest.push(line),
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    return Err(format!("{} timed out", self.name))
                }
            }
        }
        let status = self.proc.wait().map_err(|e| e.to_string())?;
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
        if !status.success() {
            return Err(format!("{} failed with {status}", self.name));
        }
        Ok(rest)
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        // Only reached early on an error path: never leave a child behind.
        if let Ok(None) = self.proc.try_wait() {
            let _ = self.proc.kill();
            let _ = self.proc.wait();
        }
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

fn role_args(role: &str, workload: Workload, seed: u64, seconds: f64) -> Vec<String> {
    vec![
        "--role".into(),
        role.into(),
        "--workload".into(),
        workload.name().into(),
        "--seed".into(),
        seed.to_string(),
        "--seconds".into(),
        seconds.to_string(),
    ]
}

/// Environment changes for a child: `None` removes the variable.
type Env = [(&'static str, Option<&'static str>)];

/// The workload and set-up processes run at the benchmark's fixed thread
/// budget; verifiers and replays never see injected faults. Run bodies
/// carry the event loop's work counters, which depend on the thread
/// budget (speculative planning needs a spare worker), so runs are
/// recomputed at the same budget and sweeps, whose rows carry no
/// counters, single-threaded.
const WORKLOAD_ENV: &Env = &[("SUSTAIN_THREADS", Some("2"))];
const RUN_VERIFY_ENV: &Env = &[
    ("SUSTAIN_THREADS", Some("2")),
    ("SUSTAIN_OUTCOME_CACHE_CAP", Some("0")),
    ("SUSTAIN_FAULTS", None),
];
const SWEEP_VERIFY_ENV: &Env = &[
    ("SUSTAIN_THREADS", Some("1")),
    ("SUSTAIN_OUTCOME_CACHE_CAP", Some("0")),
    ("SUSTAIN_FAULTS", None),
];
const REPLAY_ENV: &Env = &[("SUSTAIN_THREADS", Some("2")), ("SUSTAIN_FAULTS", None)];

// ---------------------------------------------------------------------------
// One benchmark run
// ---------------------------------------------------------------------------

/// (name, value, unit) of each reported metric.
type Metrics = Vec<(String, f64, String)>;

struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn parse_table(v: &Value) -> Vec<(u32, u64)> {
    v.as_array()
        .map(|rows| {
            rows.iter()
                .filter_map(|r| {
                    let id = r[0].as_u64()? as u32;
                    let d = u64::from_str_radix(r[1].as_str()?, 16).ok()?;
                    Some((id, d))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn num(v: &Value, key: &str) -> f64 {
    v[key].as_f64().unwrap_or(0.0)
}

/// How many distinct requests the verifiers recompute: every service
/// request up to 32, fewer of the long batch operations so the check
/// stays a fraction of the run.
fn sample_size(workload: Workload, is_sweep: bool) -> usize {
    match (workload, is_sweep) {
        (Workload::ServiceHot | Workload::ServiceCold, _) => 32,
        (Workload::RunLong, _) => 8,
        (Workload::Conservative, false) => 4,
        (Workload::Conservative, true) => 2,
    }
}

/// Recomputes a seeded sample of distinct requests in separate verifier
/// processes and returns how many were checked and how many disagree.
/// Runs are recomputed with the outcome cache off, in two processes
/// (one per core); sweeps single-threaded.
fn verify(
    workload: Workload,
    seed: u64,
    seconds: f64,
    table: &HashMap<u32, u64>,
    deadline: Instant,
) -> Result<(usize, usize), String> {
    let mut ids: Vec<u32> = table.keys().copied().collect();
    ids.sort_unstable();
    let mut rng = Rng::derive(seed, 0x7E51F, workload as u64);
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let is_sweep = |id: &u32| matches!(workload.body(seed, *id), Body::Sweep(_));
    let (sweeps, runs): (Vec<u32>, Vec<u32>) = ids.into_iter().partition(is_sweep);
    let runs = &runs[..runs.len().min(sample_size(workload, false))];
    let sweeps = &sweeps[..sweeps.len().min(sample_size(workload, true))];
    let groups: [(Vec<u32>, &Env); 3] = [
        (runs.iter().copied().step_by(2).collect(), RUN_VERIFY_ENV),
        (
            runs.iter().copied().skip(1).step_by(2).collect(),
            RUN_VERIFY_ENV,
        ),
        (sweeps.to_vec(), SWEEP_VERIFY_ENV),
    ];
    let mut children = Vec::new();
    for (n, (group, env)) in groups.iter().enumerate().filter(|(_, g)| !g.0.is_empty()) {
        let mut args = role_args("verify", workload, seed, seconds);
        args.push("--ids".into());
        args.push(
            group
                .iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join(","),
        );
        children.push(Child::spawn(&format!("verifier {n}"), &args, env, None)?);
    }
    let checked = runs.len() + sweeps.len();
    let mut mismatches = 0;
    for child in children {
        for line in child.finish(deadline)? {
            let (id, d) = line.split_once(' ').ok_or("bad verifier line")?;
            let id: u32 = id.parse().map_err(|_| "bad verifier id")?;
            let d = u64::from_str_radix(d, 16).map_err(|_| "bad verifier digest")?;
            if table.get(&id) != Some(&d) {
                eprintln!(
                    "{}: request {id} differs from its recomputation",
                    workload.name()
                );
                mismatches += 1;
            }
        }
    }
    Ok((checked, mismatches))
}

/// Replays the run's operations in a fresh process; returns the replay
/// report and how many rendered bodies disagree with the driven run.
fn replay_pass(
    workload: Workload,
    seed: u64,
    seconds: f64,
    ops: &str,
    traced: bool,
    table: &HashMap<u32, u64>,
    deadline: Instant,
) -> Result<(Value, usize), String> {
    let mut args = role_args("replay", workload, seed, seconds);
    args.extend([
        "--trace".to_string(),
        if traced { "1" } else { "0" }.to_string(),
    ]);
    let name = if traced {
        "traced replay"
    } else {
        "untraced replay"
    };
    let child = Child::spawn(name, &args, REPLAY_ENV, Some(ops.to_string()))?;
    let lines = child.finish(deadline)?;
    let report: Value = serde_json::from_str(lines.last().ok_or("replay printed nothing")?)
        .map_err(|e| format!("bad replay report: {e}"))?;
    let mismatches = parse_table(&report["digests"])
        .iter()
        .filter(|(id, d)| table.get(id) != Some(d))
        .count()
        + report["failures"].as_u64().unwrap_or(0) as usize;
    Ok((report, mismatches))
}

fn host_line(workload: Workload, seed: u64, seconds: f64) -> String {
    format!(
        "host: nproc={} cpu={:?} threads={} | workload={} seed={seed} seconds={seconds} | \
         R_hot={} rps R_cold={} rps | latency limit {} ms",
        util::nproc(),
        util::cpu_model(),
        spec::THREADS,
        workload.name(),
        spec::R_HOT,
        spec::R_COLD,
        workload.latency_limit_ms(),
    )
}

fn run_benchmark(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<RunResult, String> {
    let deadline = Instant::now() + RUN_DEADLINE;
    let declared = spec::metric_specs(
        BENCHMARK_JSON,
        if traced { "per_layer" } else { "end_to_end" },
    )?;
    println!("{}", host_line(workload, seed, seconds));
    let base = role_args("setup", workload, seed, seconds);
    let probe = |n: usize| -> Result<f64, String> {
        let started = Instant::now();
        let mut child = Child::spawn(&format!("set-up probe {n}"), &base, WORKLOAD_ENV, None)?;
        child.next_line(deadline)?;
        let took = started.elapsed().as_secs_f64();
        child.finish(deadline)?;
        Ok(took)
    };
    // Half the probes run before the workload and half after it, so one
    // run's set-up median spans the run instead of one moment of it.
    let mut setups = (0..SETUP_SAMPLES / 2)
        .map(probe)
        .collect::<Result<Vec<f64>, String>>()?;

    let mut args = role_args("workload", workload, seed, seconds);
    args.extend([
        "--trace".to_string(),
        if traced { "1" } else { "0" }.to_string(),
    ]);
    let started = Instant::now();
    let mut child = Child::spawn("workload", &args, WORKLOAD_ENV, None)?;
    let ready = child.next_line(deadline)?;
    setups.push(started.elapsed().as_secs_f64());
    if ready != "ready" {
        return Err(format!("workload process said {ready:?} instead of ready"));
    }
    let lines = child.finish(deadline)?;
    for n in SETUP_SAMPLES / 2..SETUP_SAMPLES - 1 {
        setups.push(probe(n)?);
    }
    let report: Value = serde_json::from_str(lines.last().ok_or("workload printed nothing")?)
        .map_err(|e| format!("bad workload report: {e}"))?;
    let table: HashMap<u32, u64> = parse_table(&report["digests"]).into_iter().collect();

    let (verified, verify_mismatches) = verify(workload, seed, seconds, &table, deadline)?;
    let bad = report["bad"].as_u64().unwrap_or(0) as usize;
    let attempted = report["attempted"].as_u64().unwrap_or(0);
    let failed = report["failed"].as_u64().unwrap_or(0) + verify_mismatches as u64;
    let non_2xx = report["non_2xx"].as_u64().unwrap_or(0);
    let e2e = &report["e2e"];
    let setup_s = compare::median(&setups);
    println!(
        "{}: {attempted} operations, {failed} failed (error_rate {:.4}, non-2xx {non_2xx}, \
         step-cap runs {}); {} distinct bodies consistent across repeats, {verified} recomputed \
         by the verifiers, {} mismatches",
        workload.name(),
        util::ratio(failed as f64, attempted as f64),
        report["step_cap"].as_u64().unwrap_or(0),
        table.len(),
        bad + verify_mismatches,
    );
    let mut correct = bad == 0 && verify_mismatches == 0;
    let mut values: HashMap<String, f64> = HashMap::new();
    if traced {
        let ops: String = report["ops"]
            .as_array()
            .map(|a| {
                a.iter()
                    .filter_map(Value::as_str)
                    .map(|s| format!("{s}\n"))
                    .collect()
            })
            .unwrap_or_default();
        let (plain, plain_bad) =
            replay_pass(workload, seed, seconds, &ops, false, &table, deadline)?;
        let (traced_report, traced_bad) =
            replay_pass(workload, seed, seconds, &ops, true, &table, deadline)?;
        if plain_bad + traced_bad > 0 {
            println!(
                "INVALID: {} replayed bodies differ from the driven run; the per-layer numbers \
                 below do not describe it",
                plain_bad + traced_bad
            );
            correct = false;
        }
        let overhead = num(&traced_report, "op_ms") - num(&plain, "op_ms");
        println!(
            "tracing overhead on the mean replayed operation: {overhead:+.4} ms \
             ({:.4} traced vs {:.4} untraced)",
            num(&traced_report, "op_ms"),
            num(&plain, "op_ms")
        );
        for source in [&report["layer"], &traced_report["metrics"]] {
            for (k, v) in source.as_object().cloned().unwrap_or_default() {
                values.insert(k, v.as_f64().unwrap_or(0.0));
            }
        }
        values.insert("trace.overhead_ms".into(), overhead);
        values.insert("replay.op_ms".into(), num(&traced_report, "op_ms"));
    } else {
        for (k, v) in e2e.as_object().cloned().unwrap_or_default() {
            values.insert(k, v.as_f64().unwrap_or(0.0));
        }
        values.insert("setup_s".into(), setup_s);
    }
    let metrics = declared
        .into_iter()
        .map(|m| match values.get(&m.name) {
            Some(&v) => Ok((m.name, v, m.unit)),
            None => Err(format!(
                "{BENCHMARK_JSON} declares {}, which is not measured",
                m.name
            )),
        })
        .collect::<Result<Metrics, String>>()?;
    for (name, value, unit) in &metrics {
        let note = match name.as_str() {
            "setup_s" => format!("median of {} set-ups", setups.len()),
            "latency_p50_ms" => format!("n={}", num(e2e, "samples")),
            "slo_ratio" => format!("limit {} ms", workload.latency_limit_ms()),
            "points_per_s" => format!(
                "{} points in {:.3} s of closed loop",
                num(e2e, "points"),
                num(e2e, "closed_s")
            ),
            _ => String::new(),
        };
        println!("  {name:<30} {value:>14.6} {unit:<9} {note}");
    }
    if let (false, Some(q)) = (traced, workload.tail_quantile()) {
        println!(
            "  (not gated) latency p{:.0} {:.3} ms over {} samples",
            q * 100.0,
            num(e2e, "latency_tail_ms"),
            num(e2e, "samples")
        );
    }
    Ok(RunResult {
        correct,
        attempted,
        failed,
        metrics,
    })
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let metrics = Value::Object(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Value::Object(vec![
                        ("value".to_string(), Value::F64(*value)),
                        ("unit".to_string(), Value::Str(unit.clone())),
                    ]),
                )
            })
            .collect(),
    );
    let doc = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::U64(attempted)),
        ("failed".to_string(), Value::U64(failed)),
        ("metrics".to_string(), metrics),
    ]);
    serde_json::to_string(&doc).unwrap_or_default()
}

fn bench_main(args: &Args) -> Result<bool, String> {
    let workload = one_workload(args)?;
    let seconds = args.seconds.ok_or("--seconds is required")?;
    let r = run_benchmark(workload, args.seed, seconds, args.trace)?;
    println!(
        "{}",
        result_line(r.correct, r.attempted, r.failed, &r.metrics)
    );
    Ok(r.correct)
}

/// Every workload on the same code paths with each phase cut to about
/// two seconds and every check on.
fn smoke_main(args: &Args) -> Result<bool, String> {
    let started = Instant::now();
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for workload in Workload::ALL {
        let r = run_benchmark(workload, args.seed, 2.0, args.trace)?;
        correct &= r.correct;
        attempted += r.attempted;
        failed += r.failed;
        for (name, value, unit) in r.metrics {
            metrics.push((format!("{}.{name}", workload.name()), value, unit));
        }
    }
    println!(
        "smoke run of all workloads took {:.1} s",
        started.elapsed().as_secs_f64()
    );
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

/// Runs every workload at every seed of a range, untraced and one
/// workload at a time, and writes one JSON line per run for `compare`.
fn collect_main(args: &Args) -> Result<bool, String> {
    let (first, last) = args.seeds.ok_or("collect needs --seeds A-B")?;
    let seconds = args.seconds.ok_or("collect needs --seconds")?;
    let out_path = args.out.clone().ok_or("collect needs --out FILE")?;
    let workloads = if args.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        args.workloads.clone()
    };
    let mut out = std::fs::File::create(&out_path)
        .map_err(|e| format!("cannot create {}: {e}", out_path.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    for &workload in &workloads {
        for seed in first..=last {
            let output = Command::new(&exe)
                .args([
                    "--workload",
                    workload.name(),
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    "0",
                ])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            for line in stdout.lines() {
                eprintln!("{line}");
            }
            let last_line = stdout.lines().last().unwrap_or("");
            let result: Value = serde_json::from_str(last_line)
                .map_err(|e| format!("{} seed {seed}: no result ({e})", workload.name()))?;
            all_ok &= output.status.success() && result["correct"].as_bool() == Some(true);
            writeln!(
                out,
                "{{\"workload\":\"{}\",\"seed\":{seed},\"result\":{last_line}}}",
                workload.name()
            )
            .map_err(|e| e.to_string())?;
        }
    }
    Ok(all_ok)
}

fn compare_main(args: &Args) -> Result<bool, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err("usage: compare A.jsonl B.jsonl".into());
    };
    let worse = compare::run(a, b, BENCHMARK_JSON)?;
    Ok(worse == 0)
}
