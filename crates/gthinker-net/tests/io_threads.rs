//! The TCP data plane's headline structural property: a worker's
//! entire peer mesh is serviced by exactly **one** I/O thread,
//! regardless of cluster size — and injected delays and wall-clock
//! crash schedules ride in that loop's poll timeout rather than on
//! threads of their own. Counted for real from `/proc/self/task`
//! while the mesh is up — all workers live in this test process, so
//! the process-wide census is the per-worker figure times the worker
//! count. This file holds a single `#[test]` so no concurrent test's
//! sockets pollute the count.
#![cfg(target_os = "linux")]

use gthinker_graph::ids::WorkerId;
use gthinker_net::fault::{CrashSchedule, FaultConfig};
use gthinker_net::tcp::{ClusterManifest, TcpTransport};
use gthinker_net::transport::Transport;
use std::sync::{Arc, Barrier};
use std::time::Duration;

const N: usize = 3;
const RENDEZVOUS: Duration = Duration::from_secs(10);

/// Live threads whose name starts with `prefix` (comm truncates names
/// to 15 bytes, so match on the prefix, never the full name).
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end().starts_with(prefix))
        .count()
}

/// Polls until `prefix` counts exactly `want` threads, then returns the
/// settled count. A freshly spawned thread only takes its name once it
/// first runs, so on a loaded box the census lags the spawn calls by a
/// scheduling quantum; transient over- or under-counts are not real.
fn await_threads(prefix: &str, want: usize) -> usize {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let got = threads_named(prefix);
        if got == want || std::time::Instant::now() >= deadline {
            return got;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Brings up an `N`-worker loopback mesh under `fault` and runs
/// `census()` on worker 0's thread while every endpoint is alive (two
/// barriers pin all workers in place around the count).
fn census_mesh(fault: FaultConfig, census: impl Fn() + Send + Sync + 'static) {
    let (manifest, listeners) = ClusterManifest::loopback(N).expect("bind loopback");
    let gate = Arc::new(Barrier::new(N));
    let census = Arc::new(census);
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(w, listener)| {
            let manifest = manifest.clone();
            let fault = fault.clone();
            let gate = Arc::clone(&gate);
            let census = Arc::clone(&census);
            std::thread::spawn(move || {
                let me = WorkerId(w as u16);
                let mut t = TcpTransport::connect_on(&manifest, me, fault, RENDEZVOUS, listener)
                    .expect("rendezvous");
                let net = t.take_endpoint(me);
                gate.wait();
                if w == 0 {
                    census();
                }
                gate.wait();
                drop(net);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread");
    }
}

fn one_io_thread_per_worker_and_nothing_else() {
    assert_eq!(await_threads("tcp-io-", N), N, "one poll loop per hosted worker");
    assert_eq!(await_threads("tcp-accept-", N), N, "one acceptor per hosted worker");
    assert_eq!(threads_named("tcp-read-"), 0, "no per-peer reader threads");
    assert_eq!(threads_named("tcp-delay-"), 0, "no delay-heap thread");
    assert_eq!(threads_named("tcp-crash-"), 0, "no crash-timer thread");
}

#[test]
fn data_plane_runs_one_io_thread_per_worker() {
    census_mesh(FaultConfig::default(), one_io_thread_per_worker_and_nothing_else);
    // Every fault that needs a clock — delayed frames, and a wall-clock
    // crash schedule (armed for a worker other than the one counting,
    // with a mark no test run reaches: the victim lives in this
    // process) — still costs no thread.
    let hostile = FaultConfig {
        reorder_prob: 0.5,
        reorder_jitter: Duration::from_millis(2),
        spike_prob: 0.1,
        spike: Duration::from_millis(5),
        crash: Some(CrashSchedule {
            worker: WorkerId(1),
            after_messages: None,
            after: Some(Duration::from_secs(24 * 3600)),
        }),
        ..FaultConfig::default()
    };
    census_mesh(hostile, one_io_thread_per_worker_and_nothing_else);
}
