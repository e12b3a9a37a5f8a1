//! An idle server does not wake: with no client connected, its accept
//! thread blocks in `accept()` and its workers block on the queue, so
//! none of its threads runs until there is work.
//!
//! Linux-only: the test counts each `svc-*` thread's voluntary context
//! switches (every block on a sleep, lock or condvar is one) from
//! `/proc/self/task/*/{comm,status}`. It is its own test binary so that
//! no other server shares the process. Honors `SUSTAIN_THREADS`, so CI
//! runs it at 1 and 2 threads (one and two workers).
#![cfg(target_os = "linux")]

use std::collections::BTreeMap;
use std::fs;
use std::time::Duration;

use sustain_hpc::service::{serve, ServeOptions};

/// Most wake-ups all of an idle server's threads together may make in
/// one second. A poll of any period under 200 ms breaks it.
const MAX_IDLE_WAKEUPS: u64 = 5;

/// Thread name and voluntary context switches of every `svc-*` thread
/// in this process, keyed by thread id.
fn service_threads() -> BTreeMap<String, (String, u64)> {
    let mut threads = BTreeMap::new();
    for task in fs::read_dir("/proc/self/task").expect("procfs").flatten() {
        let path = task.path();
        // A thread that exits between the listing and the reads is
        // not a server thread still waiting.
        let Ok(comm) = fs::read_to_string(path.join("comm")) else {
            continue;
        };
        let comm = comm.trim();
        if !comm.starts_with("svc-") {
            continue;
        }
        let Ok(status) = fs::read_to_string(path.join("status")) else {
            continue;
        };
        let switches = status
            .lines()
            .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|n| n.trim().parse().ok())
            .expect("status has a voluntary_ctxt_switches line");
        threads.insert(
            task.file_name().to_string_lossy().into_owned(),
            (comm.to_string(), switches),
        );
    }
    threads
}

#[test]
fn an_idle_server_makes_at_most_a_handful_of_wakeups() {
    sustain_hpc::core::sweep::init_threads_from_env().expect("valid SUSTAIN_THREADS");
    let handle = serve(ServeOptions::default()).expect("serve");
    // Let every thread reach its first blocking wait.
    std::thread::sleep(Duration::from_millis(100));
    let before = service_threads();
    std::thread::sleep(Duration::from_secs(1));
    let after = service_threads();
    handle.shutdown_and_join();

    let names: Vec<&str> = before.values().map(|(name, _)| name.as_str()).collect();
    assert!(
        names.contains(&"svc-accept") && names.contains(&"svc-worker-0"),
        "the server's threads must be found, got {names:?}"
    );
    let mut wakeups = 0;
    let mut per_thread = Vec::new();
    for (tid, (name, start)) in &before {
        let end = after.get(tid).map_or(*start, |(_, n)| *n);
        wakeups += end - start;
        per_thread.push(format!("{name}: {}", end - start));
    }
    assert!(
        wakeups <= MAX_IDLE_WAKEUPS,
        "an idle server woke {wakeups} times in 1 s ({})",
        per_thread.join(", ")
    );
}
