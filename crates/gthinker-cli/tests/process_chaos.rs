//! Real-process chaos: a 3-OS-process TCP cluster in which worker 1 is
//! killed for real (`--die-after-msgs` aborts the process mid-syscall,
//! standing in for `kill -9`), respawned by `gthinker supervise` with a
//! bumped `--generation`, rejoins the surviving mesh and resumes from
//! the last validated checkpoint — and the master must print exactly
//! the fault-free result.
//!
//! Two miners die at different logical points: triangle counting is
//! pull-dominated (the kill lands mid vertex-pull), maximum-clique
//! finding on a hub-skewed graph drives master-brokered stealing (the
//! kill lands amid steal traffic). Nothing here sleeps to detect
//! failure: the cluster's own TCP peer-down events and deadlines drive
//! recovery, and the tests bound the whole scenario with a watchdog.

use std::net::TcpListener;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

const BIN: &str = env!("CARGO_BIN_EXE_gthinker");

/// Generous bound on one whole kill/respawn/resume scenario; the jobs
/// themselves finish in seconds even in debug builds.
const WATCHDOG: Duration = Duration::from_secs(240);

/// Reserves `n` free loopback ports (bind-then-drop, same small race as
/// the tcp_cluster suite accepts).
fn free_hosts(n: usize) -> String {
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind")).collect();
    let hosts: Vec<String> =
        listeners.iter().map(|l| format!("127.0.0.1:{}", l.local_addr().unwrap().port())).collect();
    hosts.join(",")
}

fn run_ok(args: &[&str]) -> String {
    let out = Command::new(BIN).args(args).output().expect("spawn gthinker");
    assert!(
        out.status.success(),
        "gthinker {:?} failed:\nstdout: {}\nstderr: {}",
        args,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

/// The first line of a mining report: the result, stripped of timing.
fn result_prefix(out: &str) -> String {
    let line = out.lines().next().expect("nonempty output");
    line.split(" in ").next().expect("result line").to_string()
}

/// The master's `recovery: N recoveries, ...` count.
fn recoveries(out: &str) -> u64 {
    let line = out
        .lines()
        .find(|l| l.starts_with("recovery: "))
        .unwrap_or_else(|| panic!("no recovery line in:\n{out}"));
    line.split_whitespace().nth(1).unwrap().parse().expect("recovery count")
}

/// Runs `f` on its own thread and panics if it outlives the watchdog.
fn with_watchdog<T: Send + 'static>(label: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(v) => {
            handle.join().unwrap();
            v
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The scenario thread died without sending: re-raise its panic.
            handle.join().unwrap();
            unreachable!("scenario thread disconnected without panicking ({label})")
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("process-chaos scenario hung past {WATCHDOG:?} ({label})")
        }
    }
}

/// Outputs of one chaos cluster run: the master's stdout, the
/// supervisor wrapping the doomed worker 1, and plain worker 2.
struct ChaosRun {
    master: String,
    supervisor: String,
    worker2: String,
}

/// Launches the 3-process cluster with recovery enabled: worker 2 is a
/// plain recovering worker, worker 1 runs under `supervise` with a
/// scheduled self-abort after `die_after_msgs` of its own messages, the
/// master coordinates checkpoints and the recovery rendezvous.
fn run_chaos_cluster(hosts: &str, ck_dir: &str, die_after_msgs: u64, miner: &[&str]) -> ChaosRun {
    let recovery = ["--checkpoint-dir", ck_dir, "--checkpoint-interval", "0.25"];
    let die = die_after_msgs.to_string();

    let mut w2_args = vec!["worker", "--hosts", hosts, "--me", "2"];
    w2_args.extend_from_slice(&recovery);
    w2_args.extend_from_slice(miner);
    let worker2 = Command::new(BIN)
        .args(&w2_args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn worker 2");

    let mut sup_args =
        vec!["supervise", "--respawn-limit", "3", "worker", "--hosts", hosts, "--me", "1"];
    sup_args.extend_from_slice(&recovery);
    sup_args.extend_from_slice(&["--die-after-msgs", &die]);
    sup_args.extend_from_slice(miner);
    let supervisor = Command::new(BIN)
        .args(&sup_args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn supervisor");

    let mut master_args =
        vec!["master", "--hosts", hosts, "--max-recoveries", "8", "--connect-timeout", "60"];
    master_args.extend_from_slice(&recovery);
    master_args.extend_from_slice(miner);
    let master = run_ok(&master_args);

    let drain = |child: std::process::Child, who: &str| {
        let out = child.wait_with_output().expect("child exit");
        assert!(
            out.status.success(),
            "{who} failed:\nstdout: {}\nstderr: {}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf8")
    };
    let supervisor = drain(supervisor, "supervisor");
    let worker2 = drain(worker2, "worker 2");
    ChaosRun { master, supervisor, worker2 }
}

/// Asserts the chaos run actually exercised kill → respawn → rejoin →
/// resume, not just a lucky fault-free pass.
fn assert_recovered(run: &ChaosRun) {
    assert!(
        recoveries(&run.master) >= 1,
        "the scheduled kill must trigger at least one recovery:\n{}",
        run.master
    );
    let sup_line = run
        .supervisor
        .lines()
        .find(|l| l.starts_with("supervise: worker exited cleanly after"))
        .unwrap_or_else(|| panic!("no supervise summary in:\n{}", run.supervisor));
    let n: u32 = sup_line.split_whitespace().nth(5).unwrap().parse().expect("respawn count");
    assert!(n >= 1, "the supervisor must have respawned the dead worker: {sup_line}");
    assert!(
        recoveries(&run.worker2) >= 1,
        "the surviving worker must have seen the abort-to-checkpoint round:\n{}",
        run.worker2
    );
}

#[test]
fn triangle_count_survives_a_real_process_kill_mid_pull() {
    let (reference, chaos) = with_watchdog("tc", || {
        let tmp = std::env::temp_dir().join(format!("gthinker-chaos-tc-{}", std::process::id()));
        std::fs::create_dir_all(&tmp).expect("mkdir");
        let graph = tmp.join("g.el").to_str().unwrap().to_string();
        run_ok(&["gen", "gnp", "-n", "700", "-p", "0.04", "--seed", "13", "-o", &graph]);
        let reference = run_ok(&["tc", &graph, "--workers", "3", "--compers", "2"]);

        let hosts = free_hosts(3);
        let ck = tmp.join("ck").to_str().unwrap().to_string();
        // Triangle counting is pull-dominated, and pulls are batched —
        // a worker's whole run is about two dozen messages, five of
        // them its first tick (sync, report, clock ping and the two
        // replies). 10 of worker 1's own messages lands the abort
        // inside the pull phase.
        let chaos = run_chaos_cluster(&hosts, &ck, 10, &["tc", &graph, "--compers", "2"]);
        let _ = std::fs::remove_dir_all(&tmp);
        (reference, chaos)
    });
    assert_eq!(
        result_prefix(&chaos.master),
        result_prefix(&reference),
        "the recovered cluster must print exactly the fault-free triangle count\n\
         master:\n{}\nreference:\n{reference}",
        chaos.master
    );
    assert_recovered(&chaos);
}

#[test]
fn max_clique_survives_a_real_process_kill_mid_steal() {
    let (reference, chaos) = with_watchdog("mcf", || {
        let tmp = std::env::temp_dir().join(format!("gthinker-chaos-mcf-{}", std::process::id()));
        std::fs::create_dir_all(&tmp).expect("mkdir");
        let graph = tmp.join("g.el").to_str().unwrap().to_string();
        // A hub-skewed graph: the hub owner's task queue dwarfs the
        // others', forcing master-brokered cluster steals.
        run_ok(&["gen", "ba", "-n", "800", "-m", "5", "--seed", "31", "-o", &graph]);
        let reference = run_ok(&["mcf", &graph, "--workers", "3", "--compers", "2"]);

        let hosts = free_hosts(3);
        let ck = tmp.join("ck").to_str().unwrap().to_string();
        // The mark must land inside the build-independent pull/steal
        // phase: timer-driven traffic (syncs, reports) inflates debug
        // message counts, so a higher mark that is mid-job in debug
        // can fire after termination in release (a release run is over
        // in ~20 ms and ~25 of worker 1's messages).
        let chaos = run_chaos_cluster(&hosts, &ck, 10, &["mcf", &graph, "--compers", "2"]);
        let _ = std::fs::remove_dir_all(&tmp);
        (reference, chaos)
    });
    // The maximum-clique SIZE is deterministic (the witness may be any
    // optimum); the first line carries only the size.
    assert_eq!(
        result_prefix(&chaos.master),
        result_prefix(&reference),
        "the recovered cluster must print exactly the fault-free clique size\n\
         master:\n{}\nreference:\n{reference}",
        chaos.master
    );
    assert_recovered(&chaos);
}

/// Stale-generation rejection end to end: a worker that claims an
/// already-superseded generation must be refused cleanly at the CLI
/// layer (flag validation), not poison a mesh.
#[test]
fn rejoin_flags_are_validated_end_to_end() {
    let out = Command::new(BIN)
        .args(["worker", "--hosts", "127.0.0.1:9000,127.0.0.1:9001", "--me", "1", "--rejoin"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--generation"), "--rejoin alone must name the missing flag: {err}");
}
