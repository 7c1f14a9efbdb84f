//! End-to-end multi-process cluster test: three real `gthinker` OS
//! processes on 127.0.0.1, speaking the framed TCP protocol, must
//! report exactly the result of the in-process run — and must have
//! actually moved bytes across the sockets.

use std::net::TcpListener;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_gthinker");

/// Reserves `n` free loopback ports. The listeners are dropped before
/// the cluster starts, so a tiny race with other port users exists —
/// acceptable for CI, where nothing else binds ephemeral ports.
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

/// Launches a 3-process cluster for `miner_args` and returns the
/// master's stdout plus both workers' stdout.
fn run_cluster(hosts: &str, miner_args: &[&str]) -> (String, Vec<String>) {
    let workers: Vec<_> = ["1", "2"]
        .iter()
        .map(|me| {
            let mut args = vec!["worker", "--hosts", hosts, "--me", me];
            args.extend_from_slice(miner_args);
            Command::new(BIN)
                .args(&args)
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn worker")
        })
        .collect();
    let mut master_args = vec!["master", "--hosts", hosts];
    master_args.extend_from_slice(miner_args);
    let master_out = run_ok(&master_args);
    let worker_outs: Vec<String> = workers
        .into_iter()
        .map(|w| {
            let out = w.wait_with_output().expect("worker exit");
            assert!(
                out.status.success(),
                "worker failed:\nstdout: {}\nstderr: {}",
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr)
            );
            String::from_utf8(out.stdout).expect("utf8")
        })
        .collect();
    (master_out, worker_outs)
}

/// Extracts "sent N bytes" from a worker/master byte-counter line.
fn sent_bytes(out: &str) -> u64 {
    let line = out.lines().find(|l| l.contains("sent ")).expect("byte counter line");
    let after = line.split("sent ").nth(1).expect("sent field");
    after.split(' ').next().unwrap().parse().expect("byte count")
}

/// The result line with its elapsed time cut out: what a local and a
/// cluster run of the same job must agree on, word for word.
fn result_line(out: &str) -> String {
    let line = out.lines().next().expect("nonempty output");
    let (head, tail) = line.split_once(" in ").expect("result line");
    format!("{head}{}", tail.split_once(' ').map_or(String::new(), |(_, rest)| format!(" {rest}")))
}

/// One miner arm serves every placement, so for all six miners the
/// master of a 3-process run prints what `--workers 3` prints in one
/// process — including the `(N tasks)` of `tc`, which a cluster run
/// used to leave out.
#[test]
fn all_six_miners_print_the_same_line_locally_and_on_a_cluster() {
    let graph = std::env::temp_dir().join(format!("gthinker-e2e-six-{}.bin", std::process::id()));
    let graph = graph.to_str().unwrap().to_string();
    run_ok(&[
        "gen", "gnp", "-n", "120", "-p", "0.08", "--seed", "17", "--labels", "3", "-o", &graph,
    ]);
    let miners: [&[&str]; 6] = [
        &["mcf", "--tau", "20"],
        &["tc"],
        &["mc"],
        &["qc", "--gamma", "0.7", "--min", "3", "--max", "4"],
        &["kp", "--k", "2", "--max", "4"],
        &["gm", "--pattern", "triangle:0,1,2"],
    ];
    for miner in miners {
        let mut args = miner.to_vec();
        args.extend([graph.as_str(), "--compers", "2"]);
        let (master, workers) = run_cluster(&free_hosts(3), &args);
        args.extend(["--workers", "3"]);
        let local = run_ok(&args);
        assert_eq!(result_line(&master), result_line(&local), "{miner:?}");
        for out in workers.iter().chain([&master]) {
            assert!(sent_bytes(out) > 0, "{miner:?}: a process sent no bytes: {out}");
        }
    }
    assert!(result_line(&run_ok(&["tc", &graph])).ends_with(" tasks)"), "tc reports its tasks");
    let _ = std::fs::remove_file(&graph);
}

/// `tc --list` under master/worker: every process streams its own
/// triangles to its own part file, and the master's record count is the
/// cluster's.
#[test]
fn cluster_tc_list_writes_every_triangle_once() {
    let tmp = std::env::temp_dir().join(format!("gthinker-e2e-list-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("mkdir");
    let graph = tmp.join("g.el").to_str().unwrap().to_string();
    let dir = tmp.join("out").to_str().unwrap().to_string();
    run_ok(&["gen", "gnp", "-n", "200", "-p", "0.08", "--seed", "19", "-o", &graph]);
    let g = gthinker_cli::load_graph(&graph).expect("load");
    let expected = gthinker_apps::serial::triangle::count_triangles(&g);
    assert!(expected > 0, "the test graph has triangles");

    let (master, _workers) =
        run_cluster(&free_hosts(3), &["tc", &graph, "--list", &dir, "--compers", "2"]);
    let line = master.lines().next().unwrap();
    assert!(line.starts_with(&format!("triangles: {expected} in ")), "{master}");
    assert!(line.ends_with(&format!("; {expected} records written under {dir}")), "{master}");
    let records = gthinker_core::output::read_all_records(std::path::Path::new(&dir)).unwrap();
    assert_eq!(records.len() as u64, expected);
    let parts = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(parts, 3, "one part file per process");
    let _ = std::fs::remove_dir_all(&tmp);
}

/// `--metrics-json` / `--trace-out` on cluster processes: the master's
/// exports cover the whole cluster (every worker's counters and trace
/// spans), a worker's cover its own process.
#[test]
fn cluster_metrics_exports_cover_all_workers() {
    let tmp = |name: &str| {
        std::env::temp_dir()
            .join(format!("gthinker-e2e-metrics-{}-{name}", std::process::id()))
            .to_str()
            .unwrap()
            .to_string()
    };
    let graph = tmp("g.el");
    run_ok(&["gen", "gnp", "-n", "300", "-p", "0.06", "--seed", "29", "-o", &graph]);
    let hosts = free_hosts(3);
    let master_json = tmp("master.json");
    let master_trace = tmp("master-trace.json");
    let worker_jsons = [tmp("w1.json"), tmp("w2.json")];
    let worker_traces = [tmp("w1-trace.json"), tmp("w2-trace.json")];

    let workers: Vec<_> = ["1", "2"]
        .iter()
        .enumerate()
        .map(|(i, me)| {
            Command::new(BIN)
                .args([
                    "worker",
                    "--hosts",
                    &hosts,
                    "--me",
                    me,
                    "tc",
                    &graph,
                    "--compers",
                    "2",
                    "--metrics-json",
                    &worker_jsons[i],
                    "--trace-out",
                    &worker_traces[i],
                ])
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn worker")
        })
        .collect();
    let master_out = run_ok(&[
        "master",
        "--hosts",
        &hosts,
        "tc",
        &graph,
        "--compers",
        "2",
        "--report-interval",
        "0.05",
        "--metrics-json",
        &master_json,
        "--trace-out",
        &master_trace,
        "--tail",
    ]);
    for w in workers {
        let out = w.wait_with_output().expect("worker exit");
        assert!(out.status.success(), "worker: {}", String::from_utf8_lossy(&out.stderr));
    }

    assert!(master_out.contains("metrics JSON written"), "{master_out}");
    assert!(master_out.contains("task latency tail"), "{master_out}");

    // The master's JSON holds one entry per cluster worker; counting a
    // per-worker key is a dependency-free proxy for array length.
    let j = std::fs::read_to_string(&master_json).expect("master metrics json");
    assert_eq!(j.matches("\"compute_calls\"").count(), 3, "want 3 workers in {j}");
    assert!(j.contains("\"trace_events_dropped\""), "{j}");
    assert!(j.contains("\"clock_offset_nanos\""), "{j}");

    // The merged trace carries all three processes' rows, with real
    // spans (not just metadata) shipped over from the remote workers.
    let t = std::fs::read_to_string(&master_trace).expect("master trace");
    assert!(t.trim_start().starts_with('['), "not a JSON array: {t}");
    for pid in 0..3 {
        assert!(t.contains(&format!("\"name\":\"worker-{pid}\"")), "missing worker {pid}: {t}");
        let spans =
            t.lines().any(|l| l.contains("\"ph\":\"X\"") && l.contains(&format!("\"pid\":{pid},")));
        assert!(spans, "no spans from worker {pid} in the merged trace");
    }

    // Each worker exported its own single-process view.
    for path in &worker_jsons {
        let j = std::fs::read_to_string(path).expect("worker metrics json");
        assert_eq!(j.matches("\"compute_calls\"").count(), 1, "worker view is its own: {j}");
    }

    let mut cleanup = vec![graph, master_json, master_trace];
    cleanup.extend(worker_jsons);
    cleanup.extend(worker_traces);
    for f in &cleanup {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn cluster_flag_validation() {
    let out = Command::new(BIN).args(["worker", "--hosts", "127.0.0.1:1"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--me"), "worker without --me should name the flag: {err}");

    let out = Command::new(BIN)
        .args(["master", "--hosts", "not a host list", "tc", "x.el"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--hosts"), "bad hosts should be named: {err}");

    let out = Command::new(BIN)
        .args(["worker", "--hosts", "127.0.0.1:9000,127.0.0.1:9001", "--me", "5", "tc", "x.el"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("out of range"), "out-of-range --me should say so: {err}");
}
