//! Chaos equivalence: every miner, run over a seeded fault-injected
//! interconnect (dropped, duplicated and reordered data-plane messages
//! plus one scheduled worker crash) with automatic recovery, must
//! produce exactly the result of a fault-free run. A hang — lost
//! wakeup, un-retried pull, un-detected crash — fails the watchdog
//! instead of wedging CI.

use gthinker_apps::{
    KPlexApp, MatchingApp, MaxCliqueApp, MaximalCliqueApp, Pattern, QuasiCliqueApp, SumAgg,
    TriangleApp,
};
use gthinker_core::prelude::*;
use gthinker_graph::gen;
use gthinker_graph::ids::WorkerId;
use gthinker_graph::partition::HashPartitioner;
use gthinker_net::fault::{CrashSchedule, FaultConfig};
use gthinker_tests::join_cluster;
use std::sync::{mpsc, Arc};
use std::time::Duration;

const WATCHDOG: Duration = Duration::from_secs(180);
const MAX_RECOVERIES: u32 = 8;

fn recovering() -> RecoveryOptions {
    RecoveryOptions { max_recoveries: MAX_RECOVERIES, ..Default::default() }
}

/// Lossy-wire-plus-crash configuration: every fault class the injector
/// knows, all seeded, with worker 1 killed after `crash_after` router
/// messages. Pull deadlines are short so retries actually fire inside
/// the test's runtime.
fn chaos_config(seed: u64, crash_after: u64) -> JobConfig {
    let mut cfg = JobConfig::cluster(3, 2);
    cfg.cache.pull_timeout = Duration::from_millis(50);
    cfg.checkpoint_interval = Some(Duration::from_millis(150));
    cfg.heartbeat_timeout = Some(Duration::from_secs(1));
    cfg.fault = FaultConfig {
        seed,
        drop_prob: 0.05,
        dup_prob: 0.05,
        reorder_prob: 0.25,
        reorder_jitter: Duration::from_micros(500),
        spike_prob: 0.01,
        spike: Duration::from_millis(2),
        crash: Some(CrashSchedule {
            worker: WorkerId(1),
            after_messages: Some(crash_after),
            after: None,
        }),
    };
    cfg
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
        Err(_) => panic!("chaos job hung past {WATCHDOG:?} ({label})"),
    }
}

/// Data-plane messages the fault-injected wire touched in any way.
fn injected_faults(w: &WorkerMetricsSnapshot) -> u64 {
    w.net_msgs_dropped + w.net_msgs_duplicated + w.net_msgs_delayed
}

/// Fault-free reference vs. recovery-managed chaos run of the same
/// counting app; returns (expected, actual, report).
fn chaos_vs_clean<A: App>(
    app: impl Fn() -> A,
    g: &gthinker_graph::graph::Graph,
    seed: u64,
    crash_after: u64,
) -> (
    <A::Agg as gthinker_core::Aggregator>::Global,
    <A::Agg as gthinker_core::Aggregator>::Global,
    RecoveryReport,
) {
    let expected = run_job(Arc::new(app()), g, &JobConfig::single_machine(2)).unwrap().global;
    let result = Job::new(Arc::new(app()), g, &chaos_config(seed, crash_after))
        .recover(recovering())
        .run()
        .unwrap();
    assert_eq!(result.outcome, JobOutcome::Completed);
    (expected, result.global, result.recovery)
}

#[test]
fn triangles_survive_chaos_and_recovery() {
    let (expected, actual, report) = with_watchdog("tc", || {
        let g = gen::barabasi_albert(900, 5, 11);
        chaos_vs_clean(TriangleApp::default, &g, 0xC0FFEE, 60)
    });
    assert_eq!(actual, expected, "chaos run must match the fault-free count");
    // The crash fires well inside this workload, so the run must have
    // actually exercised the recovery path, not just survived drops.
    assert!(report.recoveries >= 1, "expected at least one recovery: {report:?}");
    assert_eq!(report.failed_workers[0], WorkerId(1), "the scheduled victim is detected");
}

#[test]
fn max_clique_survives_chaos_and_recovery() {
    let (g, expected, actual) = with_watchdog("mcf", || {
        let base = gen::barabasi_albert(600, 5, 23);
        let (g, planted) = gen::plant_clique(&base, 11, 29);
        let expected =
            run_job(Arc::new(MaxCliqueApp::default()), &g, &JobConfig::single_machine(2))
                .unwrap()
                .global;
        assert!(expected.len() >= planted.len());
        let result = Job::new(Arc::new(MaxCliqueApp::default()), &g, &chaos_config(0xBADC0DE, 60))
            .recover(recovering())
            .run()
            .unwrap();
        assert_eq!(result.outcome, JobOutcome::Completed);
        (g, expected, result.global)
    });
    // The maximum clique is unique only in size; check size and
    // validity rather than the vertex set.
    assert_eq!(actual.len(), expected.len(), "chaos run must find a maximum clique");
    for i in 0..actual.len() {
        for j in (i + 1)..actual.len() {
            assert!(g.has_edge(actual[i], actual[j]), "reported clique must be a clique");
        }
    }
}

#[test]
fn maximal_cliques_survive_chaos_and_recovery() {
    let (expected, actual, _report) = with_watchdog("mc", || {
        let g = gen::gnp(160, 0.08, 37);
        chaos_vs_clean(|| MaximalCliqueApp, &g, 0xFEED, 60)
    });
    assert_eq!(actual, expected, "chaos run must match the fault-free count");
}

#[test]
fn quasi_cliques_survive_chaos_and_recovery() {
    let (expected, actual, _report) = with_watchdog("qc", || {
        let g = gen::gnp(70, 0.12, 41);
        chaos_vs_clean(|| QuasiCliqueApp::new(0.6, 3, 5), &g, 0xD1CE, 40)
    });
    assert_eq!(actual, expected, "chaos run must match the fault-free count");
}

#[test]
fn kplexes_survive_chaos_and_recovery() {
    let (expected, actual, _report) = with_watchdog("kp", || {
        let g = gen::barabasi_albert(250, 5, 43);
        chaos_vs_clean(|| KPlexApp::new(2, 5, 8), &g, 0x5EED, 60)
    });
    assert_eq!(actual, expected, "chaos run must match the fault-free count");
}

#[test]
fn subgraph_matching_survives_chaos_and_recovery() {
    let (expected, actual, _report) = with_watchdog("gm", || {
        let g = gen::random_labels(gen::gnp(130, 0.10, 47), 2, 53);
        let labels = g.labels().unwrap().to_vec();
        let app = move || {
            MatchingApp::new(Pattern::triangle(Label(0), Label(0), Label(1)), labels.clone())
        };
        chaos_vs_clean(app, &g, 0xACE, 60)
    });
    assert_eq!(actual, expected, "chaos run must match the fault-free count");
}

#[test]
fn lossy_wire_without_crash_completes_via_retries() {
    // Drops/dups/reorder only — no crash, no recovery runner. The job
    // must complete through the pull-retry path alone, and the fault
    // and retry counters must show the wire was actually hostile.
    let (expected, result) = with_watchdog("lossy", || {
        let g = gen::barabasi_albert(700, 5, 59);
        let expected = run_job(Arc::new(TriangleApp::default()), &g, &JobConfig::single_machine(2))
            .unwrap()
            .global;
        let mut cfg = chaos_config(0xDEAF, 0);
        cfg.fault.crash = None;
        cfg.fault.drop_prob = 0.10;
        cfg.checkpoint_interval = None;
        let result = run_job(Arc::new(TriangleApp::default()), &g, &cfg).unwrap();
        (expected, result)
    });
    assert_eq!(result.outcome, JobOutcome::Completed);
    assert_eq!(result.global, expected);
    let total = result.metrics.totals();
    let (dropped, retries) = (total.net_msgs_dropped, total.pull_retries);
    assert!(dropped > 0, "a 10% drop rate must actually drop something");
    assert!(retries > 0, "dropped pulls must be re-requested");
}

#[test]
fn lossy_tcp_wire_completes_via_retries() {
    use gthinker_net::tcp::ClusterManifest;

    // The same seeded drop/dup injection, but on the real TCP loopback
    // backend: three workers on their own threads, framed sockets in
    // between, the shared fault runtime discarding and duplicating
    // data-plane frames. The job must still complete with the exact
    // fault-free answer through the pull-retry path — with periodic
    // telemetry reports streaming the whole time (the control plane is
    // not fault-injected, so the master's merged view must still cover
    // every worker).
    let (expected, global, metrics) = with_watchdog("lossy-tcp", || {
        let g = gen::barabasi_albert(700, 5, 67);
        let expected = run_job(Arc::new(TriangleApp::default()), &g, &JobConfig::single_machine(2))
            .unwrap()
            .global;
        let mut cfg = chaos_config(0x7C9, 0);
        cfg.fault.crash = None;
        cfg.fault.drop_prob = 0.10;
        cfg.fault.dup_prob = 0.10;
        cfg.checkpoint_interval = None;
        cfg.heartbeat_timeout = None;
        cfg.report_interval = Some(Duration::from_millis(10));
        let (manifest, listeners) = ClusterManifest::loopback(3).unwrap();
        let g = Arc::new(g);
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(w, listener)| {
                let (g, cfg, manifest) = (Arc::clone(&g), cfg.clone(), manifest.clone());
                std::thread::spawn(move || {
                    Job::new(Arc::new(TriangleApp::default()), &*g, &cfg)
                        .run_process(
                            &manifest,
                            WorkerId(w as u16),
                            listener,
                            Duration::from_secs(20),
                        )
                        .expect("tcp chaos worker")
                })
            })
            .collect();
        let r = join_cluster(handles);
        assert_eq!(r.outcome, JobOutcome::Completed);
        (expected, r.global, r.metrics)
    });
    assert_eq!(global, expected, "TCP chaos run must match the fault-free count");
    // The master's result covers every process, not just its own.
    let total = metrics.totals();
    assert!(total.net_msgs_dropped > 0, "a 10% drop rate must actually drop TCP frames");
    assert!(total.net_msgs_duplicated > 0, "a 10% dup rate must actually duplicate TCP frames");
    assert!(total.pull_retries > 0, "dropped pulls must be re-requested over TCP");
    // The lossy data plane never touches the metrics stream: the
    // master's merged view still covers all three workers.
    assert_eq!(metrics.workers.len(), 3, "merged view has one entry per worker");
    for (w, m) in metrics.workers.iter().enumerate() {
        assert!(m.compute_calls > 0, "worker {w}'s final report missing from the merged view");
    }
}

/// Deterministic cluster skew: only vertices that hash to worker 0
/// spawn tasks (`STEAL_FAN` timed tasks each), so on a 3-worker run
/// workers 1 and 2 start idle and the master must broker cluster-wide
/// steals to balance. The aggregate is a pure function of the task
/// seeds — any schedule, steal interleaving, duplicate delivery or
/// resend must produce the identical sum.
struct StealSkewApp;

const STEAL_FAN: u64 = 24;

impl App for StealSkewApp {
    type Context = u64;
    type Agg = SumAgg;

    fn make_aggregator(&self) -> SumAgg {
        SumAgg
    }

    fn task_spawn(&self, v: VertexId, _adj: &AdjList, env: &mut SpawnEnv<'_, Self>) {
        // Hash with the *test's* worker count so the task set is the
        // same whether the reference run uses 1 worker or 3.
        if HashPartitioner::new(3).owner(v).index() != 0 {
            return;
        }
        for i in 0..STEAL_FAN {
            env.add_task(Task::new(u64::from(v.0) * 1000 + i));
        }
    }

    fn compute(
        &self,
        task: &mut Task<u64>,
        _frontier: &Frontier,
        env: &mut ComputeEnv<'_, Self>,
    ) -> bool {
        // A small think time keeps worker 0 loaded long enough for the
        // master to observe the imbalance and broker steals.
        std::thread::sleep(Duration::from_millis(1));
        env.aggregate(task.context.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40);
        false
    }
}

/// Skewed steal-forcing config on top of the chaotic wire: small task
/// batches so queue depth crosses the steal threshold, fast sync so
/// brokering keeps up with the short job.
fn steal_chaos_config(seed: u64, crash_after: Option<u64>) -> JobConfig {
    let mut cfg = match crash_after {
        Some(after) => chaos_config(seed, after),
        None => {
            let mut c = chaos_config(seed, 0);
            c.fault.crash = None;
            c.checkpoint_interval = None;
            c.heartbeat_timeout = None;
            c
        }
    };
    cfg.task_batch = 16;
    cfg.sync_interval = Duration::from_millis(5);
    cfg
}

#[test]
fn cluster_steals_survive_lossy_wire() {
    let (expected, result) = with_watchdog("steal-lossy", || {
        let g = gen::complete(30);
        let expected =
            run_job(Arc::new(StealSkewApp), &g, &JobConfig::single_machine(2)).unwrap().global;
        let mut cfg = steal_chaos_config(0x57EA1, None);
        cfg.fault.drop_prob = 0.20;
        cfg.fault.dup_prob = 0.20;
        let result = run_job(Arc::new(StealSkewApp), &g, &cfg).unwrap();
        (expected, result)
    });
    assert_eq!(result.outcome, JobOutcome::Completed);
    assert_eq!(result.global, expected, "steal chaos run must match the fault-free sum");
    let total = result.metrics.totals();
    assert!(total.remote_steals > 0, "the skew must actually force cluster steals");
    assert!(total.steal_batch_bytes > 0, "sealed batches must be accounted");
    // Steal frames are the only data-plane traffic here (the app pulls
    // nothing), so assert on the union of injected faults — each class
    // individually could legitimately draw zero on a short run.
    assert!(injected_faults(&total) > 0, "the hostile wire must actually touch steal frames");
}

#[test]
fn cluster_steals_survive_crash_and_recovery() {
    // Kill the thief mid-job: in-flight steal batches, the victim's
    // unacked ledger and the checkpointed queues must all reconcile so
    // the recovered run still produces the fault-free sum.
    let (expected, global, report) = with_watchdog("steal-crash", || {
        let g = gen::complete(30);
        let expected =
            run_job(Arc::new(StealSkewApp), &g, &JobConfig::single_machine(2)).unwrap().global;
        let cfg = steal_chaos_config(0x57EA2, Some(40));
        let result =
            Job::new(Arc::new(StealSkewApp), &g, &cfg).recover(recovering()).run().unwrap();
        assert_eq!(result.outcome, JobOutcome::Completed);
        (expected, result.global, result.recovery)
    });
    assert_eq!(global, expected, "post-recovery sum must match the fault-free sum");
    assert!(report.recoveries >= 1, "the scheduled crash must fire: {report:?}");
}

#[test]
fn cluster_steals_survive_lossy_tcp_wire() {
    use gthinker_net::tcp::ClusterManifest;

    // The same skewed steal-forcing workload on the real TCP loopback
    // backend: steal requests, batches and acks cross framed sockets
    // through the fault runtime, and the answer must still be exactly
    // the fault-free sum.
    let (expected, global, total) = with_watchdog("steal-lossy-tcp", || {
        let g = gen::complete(30);
        let expected =
            run_job(Arc::new(StealSkewApp), &g, &JobConfig::single_machine(2)).unwrap().global;
        let mut cfg = steal_chaos_config(0x57EA3, None);
        cfg.fault.drop_prob = 0.20;
        cfg.fault.dup_prob = 0.20;
        let (manifest, listeners) = ClusterManifest::loopback(3).unwrap();
        let g = Arc::new(g);
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(w, listener)| {
                let (g, cfg, manifest) = (Arc::clone(&g), cfg.clone(), manifest.clone());
                std::thread::spawn(move || {
                    Job::new(Arc::new(StealSkewApp), &*g, &cfg)
                        .run_process(
                            &manifest,
                            WorkerId(w as u16),
                            listener,
                            Duration::from_secs(20),
                        )
                        .expect("tcp steal chaos worker")
                })
            })
            .collect();
        let r = join_cluster(handles);
        assert_eq!(r.outcome, JobOutcome::Completed);
        (expected, r.global, r.metrics.totals())
    });
    assert_eq!(global, expected, "TCP steal chaos run must match the fault-free sum");
    assert!(total.remote_steals > 0, "the skew must force cluster steals over TCP");
    assert!(injected_faults(&total) > 0, "the hostile wire must actually touch TCP steal frames");
}

#[test]
fn fault_counters_are_zero_on_a_clean_wire() {
    let result = with_watchdog("clean", || {
        let g = gen::gnp(300, 0.05, 61);
        run_job(Arc::new(TriangleApp::default()), &g, &JobConfig::cluster(3, 2)).unwrap()
    });
    for (w, stats) in result.metrics.workers.iter().enumerate() {
        assert_eq!(stats.net_msgs_dropped, 0, "worker {w}");
        assert_eq!(stats.net_msgs_duplicated, 0, "worker {w}");
        assert_eq!(stats.net_msgs_delayed, 0, "worker {w}");
        assert_eq!(stats.pull_retries, 0, "worker {w}");
    }
}
