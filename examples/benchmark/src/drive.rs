//! The workload process: sets up, drives the program through its public
//! entry points for the timed phases, checks what came back, and reports
//! one JSON line to the orchestrating parent.
//!
//! Service workloads run `sustain_service::serve` in this process and
//! drive it over loopback TCP from at most [`CLIENTS`] generator threads
//! (one connection each). Batch workloads call the CLI's handlers
//! (`run_body` / `sweep_body`) on request bytes and write each body to a
//! file sink, as `sustain-hpc run` writes it to stdout.

use std::collections::HashMap;
use std::io::Write;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use serde_json::Value;
use sustain_hpc::service::{self, RunRequest, ServeOptions, ServerHandle, SweepRequest};

use crate::client;
use crate::spec::{
    Body, Phases, Workload, Zipf, CLIENTS, HEALTHZ_RPS, HOT_DISTINCT, INM_SHARE, MAX_STEPS,
};
use crate::util::{self, mean, quantile, ratio, Rng};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Warmup,
    Open,
    Closed,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Run,
    Sweep,
    Healthz,
}

/// One planned operation.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    /// Due time, seconds from the start of its phase (open loops).
    pub at: f64,
    pub kind: Kind,
    pub id: u32,
    /// Send `If-None-Match` if a tag for this request is known.
    pub inm_coin: bool,
}

/// One completed (or failed) operation.
#[derive(Debug, Clone)]
pub struct Rec {
    pub seq: u64,
    pub phase: Phase,
    pub kind: Kind,
    pub id: u32,
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    /// HTTP status; CLI calls report 200 on success and 500 on error;
    /// 0 is a transport error.
    pub status: u16,
    pub etag: Option<String>,
    pub digest: u64,
    pub step_cap: bool,
}

impl Rec {
    pub fn ok(&self) -> bool {
        (self.status == 200 || self.status == 304) && !self.step_cap
    }
}

/// The `POST /run` stream of a service workload, shared by every phase
/// so warm-up, timed and closed-loop requests continue one sequence.
pub struct Source {
    workload: Workload,
    rng: Rng,
    zipf: Zipf,
    next_id: u32,
}

impl Source {
    pub fn new(workload: Workload, seed: u64) -> Source {
        Source {
            workload,
            rng: Rng::derive(seed, 0x50, workload as u64),
            zipf: Zipf::new(HOT_DISTINCT),
            next_id: 0,
        }
    }

    pub fn next(&mut self, at: f64) -> Planned {
        let id = match self.workload {
            Workload::ServiceHot => self.zipf.sample(&mut self.rng),
            _ => {
                self.next_id += 1;
                self.next_id - 1
            }
        };
        let inm_coin = self.workload == Workload::ServiceHot && self.rng.unit() < INM_SHARE;
        Planned {
            at,
            kind: Kind::Run,
            id,
            inm_coin,
        }
    }
}

/// Poisson arrivals at the workload's rate over `duration` seconds, plus
/// `/healthz` probes at [`HEALTHZ_RPS`], ordered by due time.
fn open_plan(source: &mut Source, arrivals: &mut Rng, duration: f64) -> Vec<Planned> {
    let rate = source.workload.rate();
    let mut plan = Vec::new();
    let mut t = arrivals.exp(rate);
    while t < duration {
        plan.push(source.next(t));
        t += arrivals.exp(rate);
    }
    let mut probe = arrivals.unit() / HEALTHZ_RPS;
    while probe < duration {
        plan.push(Planned {
            at: probe,
            kind: Kind::Healthz,
            id: 0,
            inm_coin: false,
        });
        probe += 1.0 / HEALTHZ_RPS;
    }
    plan.sort_by(|a, b| a.at.total_cmp(&b.at));
    plan
}

/// Everything prepared before the first timed operation can be sent.
pub struct Setup {
    pub workload: Workload,
    pub seed: u64,
    pub phases: Phases,
    pub source: Source,
    pub warmup_plan: Vec<Planned>,
    pub open_plan: Vec<Planned>,
    pub server: Option<ServerHandle>,
    pub sink: PathBuf,
}

/// Applies the program's environment knobs exactly as the CLI does at
/// startup, so `SUSTAIN_*` settings reach the benchmark's processes.
pub fn init_env() -> Result<(), String> {
    use sustain_hpc::{core, scheduler, sim_core, workload};
    core::sweep::init_threads_from_env().map_err(|e| e.to_string())?;
    scheduler::sim::init_par_pending_min_from_env().map_err(|e| e.to_string())?;
    core::sweep::init_trace_cache_cap_from_env().map_err(|e| e.to_string())?;
    core::cache::init_outcome_cache_cap_from_env().map_err(|e| e.to_string())?;
    workload::synth::init_workload_cache_cap_from_env().map_err(|e| e.to_string())?;
    sim_core::faults::init_from_env().map_err(|e| e.to_string())?;
    sim_core::retry::init_retry_from_env().map_err(|e| e.to_string())?;
    service::init_health_from_env().map_err(|e| e.to_string())?;
    Ok(())
}

/// Input generation and the server bind. The first `/healthz` is sent
/// after set-up ends: the accept loop polls every 5 ms, so whether it
/// waits depends on which thread starts first, and including it would
/// make set-up time bimodal.
pub fn setup(workload: Workload, seed: u64, seconds: f64) -> Result<Setup, String> {
    init_env()?;
    let phases = workload.phases(seconds);
    let mut source = Source::new(workload, seed);
    let mut arrivals = Rng::derive(seed, 0xA2, workload as u64);
    let (mut warmup_plan, mut open_plan_) = (Vec::new(), Vec::new());
    let mut server = None;
    if workload.is_service() {
        warmup_plan = open_plan(&mut source, &mut arrivals, phases.warmup);
        open_plan_ = open_plan(&mut source, &mut arrivals, phases.open);
        let handle = service::serve(ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            ..ServeOptions::default()
        })
        .map_err(|e| format!("cannot start the service: {e}"))?;
        server = Some(handle);
    }
    let dir = PathBuf::from(".bench_work");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(Setup {
        workload,
        seed,
        phases,
        source,
        warmup_plan,
        open_plan: open_plan_,
        server,
        sink: dir.join(format!("{}-{}.out", workload.name(), std::process::id())),
    })
}

/// Shared state of the generator threads.
struct Gen {
    addr: SocketAddr,
    workload: Workload,
    seed: u64,
    /// Last tag received per request, for conditional repeats.
    tags: Mutex<HashMap<u32, String>>,
    seq: AtomicU64,
}

impl Gen {
    fn op(&self, p: &Planned, phase: Phase, due: f64, buf: &mut Vec<u8>) -> Rec {
        let (method, path, body) = match p.kind {
            Kind::Healthz => ("GET", "/healthz", None),
            _ => ("POST", "/run", Some(self.workload.body(self.seed, p.id))),
        };
        let tag = if p.inm_coin {
            self.tags.lock().expect("tag map").get(&p.id).cloned()
        } else {
            None
        };
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        let sent = util::now_s();
        let reply = client::send(
            self.addr,
            method,
            path,
            body.as_ref().map_or(&[][..], Body::bytes),
            tag.as_deref(),
            buf,
        );
        let done = util::now_s();
        let mut rec = Rec {
            seq,
            phase,
            kind: p.kind,
            id: p.id,
            due,
            sent,
            done,
            status: 0,
            etag: None,
            digest: 0,
            step_cap: false,
        };
        match reply {
            Ok(r) => {
                rec.status = r.status;
                let out = &buf[r.body_start..];
                if r.status == 200 && p.kind != Kind::Healthz {
                    rec.digest = util::digest(out);
                    rec.step_cap = p.kind == Kind::Run && hit_step_cap(out);
                    if let Some(tag) = &r.etag {
                        self.tags.lock().expect("tag map").insert(p.id, tag.clone());
                    }
                }
                rec.etag = r.etag;
            }
            Err(e) => eprintln!("{} request {} failed: {e}", self.workload.name(), p.id),
        }
        rec
    }
}

/// True when a run body's event count shows it stopped at the step cap.
fn hit_step_cap(body: &[u8]) -> bool {
    let text = String::from_utf8_lossy(body);
    let events = text.find("\"hot_path\"").and_then(|at| {
        let rest = &text[at..];
        let after = &rest[rest.find("\"events\":")? + 9..];
        let digits: String = after
            .trim_start()
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse::<u64>().ok()
    });
    events.is_some_and(|e| e > MAX_STEPS)
}

fn open_loop(gen: &Gen, plan: &[Planned], phase: Phase) -> Vec<Rec> {
    let start = util::now_s();
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(plan.len()));
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                let mut buf = Vec::new();
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(p) = plan.get(i) else { break };
                    let due = start + p.at;
                    util::sleep_until(due);
                    mine.push(gen.op(p, phase, due, &mut buf));
                }
                out.lock().expect("records").extend(mine);
            });
        }
    });
    out.into_inner().expect("records")
}

fn closed_loop(gen: &Gen, source: &Mutex<Source>, duration: f64) -> (Vec<Rec>, f64) {
    let start = util::now_s();
    let end = start + duration;
    let out = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                let mut buf = Vec::new();
                let mut mine = Vec::new();
                while util::now_s() < end {
                    let p = source.lock().expect("source").next(0.0);
                    let now = util::now_s();
                    mine.push(gen.op(&p, Phase::Closed, now, &mut buf));
                }
                out.lock().expect("records").extend(mine);
            });
        }
    });
    let recs = out.into_inner().expect("records");
    let last = recs.iter().map(|r| r.done).fold(start, f64::max);
    (recs, last - start)
}

/// An untimed `GET`, retried a few times so an injected fault in the
/// service cannot take the benchmark's own bookkeeping down.
fn get_ok(addr: SocketAddr, path: &str) -> Result<Vec<u8>, String> {
    let mut last = String::new();
    for _ in 0..20 {
        let mut buf = Vec::new();
        match client::send(addr, "GET", path, b"", None, &mut buf) {
            Ok(r) if r.status == 200 => return Ok(buf.split_off(r.body_start)),
            Ok(r) => last = format!("status {}", r.status),
            Err(e) => last = e,
        }
    }
    Err(format!("GET {path} kept failing: {last}"))
}

/// `POST /run` totals from `GET /stats`: (requests, total µs).
fn run_stats(addr: SocketAddr) -> Result<(f64, f64), String> {
    let body = get_ok(addr, "/stats")?;
    let v: Value = serde_json::from_slice(&body).map_err(|e| e.to_string())?;
    let run = v["requests"].as_array().and_then(|eps| {
        eps.iter()
            .find(|e| e["endpoint"].as_str() == Some("POST /run"))
    });
    Ok(run.map_or((0.0, 0.0), |e| {
        (
            e["requests"].as_f64().unwrap_or(0.0),
            e["total_us"].as_f64().unwrap_or(0.0),
        )
    }))
}

/// What CLI `run` / `sweep` do with request bytes: parse them and run
/// the handler, returning the body they print.
pub fn handle(body: &Body) -> Result<String, String> {
    match body {
        Body::Run(s) => serde_json::from_str::<RunRequest>(s)
            .map_err(|e| e.to_string())
            .and_then(|req| service::run_body(&req).map_err(|e| e.to_string())),
        Body::Sweep(s) => serde_json::from_str::<SweepRequest>(s)
            .map_err(|e| e.to_string())
            .and_then(|req| service::sweep_body(&req).map_err(|e| e.to_string())),
    }
}

/// Runs one CLI-path call and writes the body to the sink.
fn cli_op(setup: &Setup, id: u32, seq: u64) -> Rec {
    let body = setup.workload.body(setup.seed, id);
    let sent = util::now_s();
    let out = handle(&body).and_then(|text| {
        let mut f = std::fs::File::create(&setup.sink).map_err(|e| e.to_string())?;
        f.write_all(text.as_bytes())
            .and_then(|()| f.write_all(b"\n"))
            .map_err(|e| e.to_string())?;
        Ok(text)
    });
    let done = util::now_s();
    let mut rec = Rec {
        seq,
        phase: Phase::Closed,
        kind: if matches!(body, Body::Run(_)) {
            Kind::Run
        } else {
            Kind::Sweep
        },
        id,
        due: sent,
        sent,
        done,
        status: 500,
        etag: None,
        digest: 0,
        step_cap: false,
    };
    match out {
        Ok(text) => {
            rec.status = 200;
            rec.digest = util::digest(text.as_bytes());
            rec.step_cap = rec.kind == Kind::Run && hit_step_cap(text.as_bytes());
        }
        Err(e) => eprintln!("{} call {id} failed: {e}", setup.workload.name()),
    }
    rec
}

/// What the workload process hands back to the parent.
pub struct Outcome {
    pub recs: Vec<Rec>,
    /// Seconds the timed closed loop ran.
    pub closed_elapsed: f64,
    /// `POST /run` server totals before and after the timed open phase.
    pub stats_before: (f64, f64),
    pub stats_after: (f64, f64),
}

/// Runs every phase of the workload after [`setup`].
pub fn run(mut setup: Setup) -> Result<Outcome, String> {
    let mut outcome = Outcome {
        recs: Vec::new(),
        closed_elapsed: 0.0,
        stats_before: (0.0, 0.0),
        stats_after: (0.0, 0.0),
    };
    if let Some(server) = setup.server.take() {
        get_ok(server.local_addr(), "/healthz")?;
        let gen = Gen {
            addr: server.local_addr(),
            workload: setup.workload,
            seed: setup.seed,
            tags: Mutex::new(HashMap::new()),
            seq: AtomicU64::new(0),
        };
        outcome.recs = open_loop(&gen, &setup.warmup_plan, Phase::Warmup);
        outcome.stats_before = run_stats(gen.addr)?;
        outcome
            .recs
            .extend(open_loop(&gen, &setup.open_plan, Phase::Open));
        outcome.stats_after = run_stats(gen.addr)?;
        let source = Mutex::new(setup.source);
        let (closed, elapsed) = closed_loop(&gen, &source, setup.phases.closed);
        outcome.recs.extend(closed);
        outcome.closed_elapsed = elapsed;
        server.shutdown_and_join();
    } else {
        let mut seq = 0;
        let mut next_id = 0;
        if setup.workload == Workload::RunLong {
            // One untimed call; timed cycles start at the next easy call.
            let mut warm = cli_op(&setup, 0, seq);
            warm.phase = Phase::Warmup;
            outcome.recs.push(warm);
            next_id = 2;
            seq += 1;
        }
        let start = util::now_s();
        let end = start + setup.phases.closed;
        while util::now_s() < end {
            for _ in 0..setup.workload.cycle() {
                outcome.recs.push(cli_op(&setup, next_id, seq));
                next_id += 1;
                seq += 1;
            }
        }
        let last = outcome.recs.last().map_or(start, |r| r.done);
        outcome.closed_elapsed = last - start;
        let _ = std::fs::remove_file(&setup.sink);
    }
    outcome.recs.sort_by_key(|r| r.seq);
    Ok(outcome)
}

/// The end-to-end metrics of one run (besides `setup_s`, which the
/// parent measures).
pub struct EndToEnd {
    pub latency_p50_ms: f64,
    /// At [`Workload::tail_quantile`]; 0 for the batch workloads.
    pub latency_tail_ms: f64,
    pub samples: usize,
    pub slo_ratio: f64,
    pub points_per_s: f64,
    pub points: u64,
    pub peak_rss_mb: f64,
}

pub fn end_to_end(workload: Workload, o: &Outcome) -> EndToEnd {
    let limit = workload.latency_limit_ms();
    // (latency ms, succeeded) per latency sample.
    let samples: Vec<(f64, bool)> = if workload.is_service() {
        o.recs
            .iter()
            .filter(|r| r.phase == Phase::Open && r.kind == Kind::Run)
            .map(|r| ((r.done - r.due) * 1e3, r.ok()))
            .collect()
    } else {
        let timed: Vec<&Rec> = o.recs.iter().filter(|r| r.phase == Phase::Closed).collect();
        let per = workload.cycle();
        timed
            .chunks(per)
            .filter(|c| c.len() == per)
            .map(|c| {
                (
                    (c[per - 1].done - c[0].sent) * 1e3,
                    c.iter().all(|r| r.ok()),
                )
            })
            .collect()
    };
    let mut lat: Vec<f64> = samples.iter().map(|s| s.0).collect();
    lat.sort_by(f64::total_cmp);
    let met = samples
        .iter()
        .filter(|(ms, ok)| *ok && *ms <= limit)
        .count();
    let points: u64 = o
        .recs
        .iter()
        .filter(|r| r.phase == Phase::Closed && r.kind != Kind::Healthz && r.ok())
        .map(|r| workload.points(r.id))
        .sum();
    EndToEnd {
        latency_p50_ms: quantile(&lat, 0.5),
        latency_tail_ms: workload.tail_quantile().map_or(0.0, |q| quantile(&lat, q)),
        samples: lat.len(),
        slo_ratio: ratio(met as f64, samples.len() as f64),
        points_per_s: ratio(points as f64, o.closed_elapsed),
        points,
        peak_rss_mb: util::peak_rss_mib(),
    }
}

/// Service-side and generator-side per-layer numbers taken from the
/// driven run itself (0 where a workload has no HTTP front end).
pub fn service_layer(o: &Outcome) -> Vec<(&'static str, f64)> {
    let open: Vec<&Rec> = o.recs.iter().filter(|r| r.phase == Phase::Open).collect();
    let sorted = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v
    };
    let lag = sorted(open.iter().map(|r| (r.sent - r.due) * 1e3).collect());
    let healthz = sorted(
        open.iter()
            .filter(|r| r.kind == Kind::Healthz && r.status == 200)
            .map(|r| (r.done - r.sent) * 1e3)
            .collect(),
    );
    let not_modified = sorted(
        o.recs
            .iter()
            .filter(|r| r.status == 304)
            .map(|r| (r.done - r.sent) * 1e3)
            .collect(),
    );
    let client: Vec<f64> = open
        .iter()
        .filter(|r| r.kind == Kind::Run)
        .map(|r| (r.done - r.sent) * 1e3)
        .collect();
    let (n0, us0) = o.stats_before;
    let (n1, us1) = o.stats_after;
    let server_ms = ratio(us1 - us0, n1 - n0) / 1e3;
    let outside = if client.is_empty() {
        0.0
    } else {
        mean(&client) - server_ms
    };
    vec![
        ("loadgen.lag_p99_ms", quantile(&lag, 0.99)),
        ("service.healthz_p50_ms", quantile(&healthz, 0.5)),
        ("service.not_modified_p50_ms", quantile(&not_modified, 0.5)),
        ("service.outside_handler_ms", outside),
        ("service.non_2xx", non_2xx(o) as f64),
    ]
}

/// HTTP operations that did not end in 200/304 (including transport
/// errors), or CLI calls that returned an error.
pub fn non_2xx(o: &Outcome) -> usize {
    o.recs
        .iter()
        .filter(|r| r.status != 200 && r.status != 304)
        .count()
}

/// Output checks that need no recomputation: every 200 for one request
/// carries the same body digest, and every `/run` 200/304 carries
/// `ETag == api::run_etag(req)`. Returns the digest of each distinct
/// request and how many operations failed a check and how many failed
/// in any way.
pub fn check(workload: Workload, seed: u64, o: &Outcome) -> (Vec<(u32, u64)>, usize, usize) {
    let mut digests: HashMap<u32, u64> = HashMap::new();
    let mut expected_tags: HashMap<u32, Option<String>> = HashMap::new();
    let (mut bad, mut failed) = (0, 0);
    for r in &o.recs {
        let mut ok = r.ok();
        if r.kind == Kind::Healthz {
            failed += usize::from(!ok);
            continue;
        }
        if r.status == 200 && *digests.entry(r.id).or_insert(r.digest) != r.digest {
            eprintln!(
                "{}: request {} returned two different bodies",
                workload.name(),
                r.id
            );
            bad += 1;
            ok = false;
        }
        if workload.is_service() && r.kind == Kind::Run && (r.status == 200 || r.status == 304) {
            let want =
                expected_tags
                    .entry(r.id)
                    .or_insert_with(|| match workload.body(seed, r.id) {
                        Body::Run(s) => serde_json::from_str::<RunRequest>(&s)
                            .ok()
                            .and_then(|req| service::run_etag(&req)),
                        Body::Sweep(_) => None,
                    });
            if want.is_none() || *want != r.etag {
                eprintln!(
                    "{}: request {} carried ETag {:?}, expected {:?}",
                    workload.name(),
                    r.id,
                    r.etag,
                    want
                );
                bad += 1;
                ok = false;
            }
        }
        failed += usize::from(!ok);
    }
    let mut table: Vec<(u32, u64)> = digests.into_iter().collect();
    table.sort_unstable();
    (table, bad, failed)
}
