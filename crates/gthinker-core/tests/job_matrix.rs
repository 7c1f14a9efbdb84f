//! One job, every way `Job` can run it: {in-RAM, memory-mapped} graph
//! × {plain, resumed from a suspension, recovering from an injected
//! crash} × {unobserved, observed} on the sim router, plus loopback
//! `run_process` pairs. Every cell must give the same answer, and every
//! observed cell must see its observer fire — options are fields read
//! by one runner, so no combination is a special case.

use gthinker_core::prelude::*;
use gthinker_core::ClusterRole;
use gthinker_graph::compressed::{write_compressed, CompressedGraph};
use gthinker_graph::gen;
use gthinker_graph::graph::Graph;
use gthinker_graph::ids::WorkerId;
use gthinker_net::fault::{CrashSchedule, FaultConfig};
use gthinker_net::tcp::ClusterManifest;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Edge counter that pulls every larger neighbour and thinks for 20 µs
/// per task, so a job lasts many sync intervals — long enough to be
/// suspended mid-way and for an observer to fire — on any host.
struct SlowEdgeCount;
impl App for SlowEdgeCount {
    type Context = ();
    type Agg = SumAgg;
    fn make_aggregator(&self) -> SumAgg {
        SumAgg
    }
    fn task_spawn(&self, v: VertexId, adj: &AdjList, env: &mut SpawnEnv<'_, Self>) {
        let mut t = Task::new(());
        for u in adj.greater_than(v) {
            t.pull(*u);
        }
        if t.has_pulls() {
            env.add_task(t);
        }
    }
    fn compute(&self, _t: &mut Task<()>, f: &Frontier, env: &mut ComputeEnv<'_, Self>) -> bool {
        let think = Instant::now();
        while think.elapsed() < Duration::from_micros(20) {
            std::hint::spin_loop();
        }
        env.aggregate(f.len() as u64);
        false
    }
}

#[derive(Clone, Copy, Debug)]
enum Mode {
    Plain,
    Resumed,
    Recovering,
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gthinker-matrix-{}-{tag}", std::process::id()))
}

/// Recovery scratch bases (`$TMPDIR/gthinker-recovery-<pid>-<n>`, made
/// up when no `checkpoint_dir` is configured) this process has left
/// behind.
fn leftover_recovery_bases() -> Vec<PathBuf> {
    let prefix = format!("gthinker-recovery-{}-", std::process::id());
    std::fs::read_dir(std::env::temp_dir())
        .expect("read temp dir")
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with(&prefix)))
        .collect()
}

/// Serializes the tests that run recovering jobs on a scratch base, so
/// the leftover scan of one cannot see the live base of the other.
static SCRATCH_BASES: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Worker 1 dies after 20 router messages.
fn crash_worker_1() -> FaultConfig {
    FaultConfig {
        crash: Some(CrashSchedule { worker: WorkerId(1), after_messages: Some(20), after: None }),
        ..FaultConfig::default()
    }
}

fn base_config() -> JobConfig {
    let mut cfg = JobConfig::cluster(2, 2);
    cfg.sync_interval = Duration::from_millis(1);
    cfg
}

/// Runs one cell on the sim router; returns the answer and how often
/// the observer fired.
fn run_cell(source: GraphSource<'_>, mode: Mode, observe: bool, tag: &str) -> (u64, u64) {
    let fired = AtomicU64::new(0);
    let observed = |job: Job<'_, SlowEdgeCount>| -> JobResult<u64> {
        let job = if observe {
            job.observe(|m| {
                assert!(m.progress().elapsed > Duration::ZERO);
                fired.fetch_add(1, Ordering::Relaxed);
            })
        } else {
            job
        };
        job.run().expect("job runs")
    };
    let mut cfg = base_config();
    let result = match mode {
        Mode::Plain => observed(Job::new(Arc::new(SlowEdgeCount), source, &cfg)),
        Mode::Resumed => {
            let mut first = cfg.clone();
            first.suspend_after = Some(Duration::from_millis(2));
            first.checkpoint_dir = Some(scratch(tag));
            let suspended = run_job(Arc::new(SlowEdgeCount), source.clone(), &first).unwrap();
            let JobOutcome::Suspended { checkpoint } = suspended.outcome else {
                panic!("{tag}: a 2 ms budget cannot finish this job: {:?}", suspended.outcome);
            };
            // Only the resumed half is observed.
            let r =
                observed(Job::new(Arc::new(SlowEdgeCount), source, &cfg).resume_from(&checkpoint));
            let _ = std::fs::remove_dir_all(scratch(tag));
            r
        }
        Mode::Recovering => {
            cfg.checkpoint_interval = Some(Duration::from_millis(10));
            cfg.heartbeat_timeout = Some(Duration::from_millis(500));
            cfg.fault = crash_worker_1();
            let r = observed(
                Job::new(Arc::new(SlowEdgeCount), source, &cfg).recover(RecoveryOptions::default()),
            );
            assert!(r.recovery.recoveries >= 1, "{tag}: the crash must fire: {:?}", r.recovery);
            r
        }
    };
    assert_eq!(result.outcome, JobOutcome::Completed, "{tag}");
    (result.global, fired.load(Ordering::Relaxed))
}

#[test]
fn every_option_combination_gives_one_answer() {
    let _serial = SCRATCH_BASES.lock().unwrap_or_else(|e| e.into_inner());
    let g = gen::barabasi_albert(3_000, 5, 5);
    let expected = g.num_edges() as u64;
    let gtc = scratch("graph.gtc");
    write_compressed(&g, &gtc).expect("encode");
    let mapped = Arc::new(CompressedGraph::open(&gtc).expect("map"));

    for mapped_source in [false, true] {
        for mode in [Mode::Plain, Mode::Resumed, Mode::Recovering] {
            for observe in [false, true] {
                let tag = format!("{mode:?}-mapped{mapped_source}-observed{observe}");
                let source = match mapped_source {
                    false => GraphSource::InMemory(&g),
                    true => GraphSource::Mapped(Arc::clone(&mapped)),
                };
                let (global, fired) = run_cell(source, mode, observe, &tag);
                assert_eq!(global, expected, "{tag}");
                assert_eq!(fired > 0, observe, "{tag}: observer fired {fired} times");
            }
        }
    }
    let _ = std::fs::remove_file(&gtc);
    assert_eq!(leftover_recovery_bases(), Vec::<PathBuf>::new(), "completed jobs clean up");
}

/// A job that gives up must not leak its scratch base either. The
/// victim dies early and silently; the 10 ms checkpoint deadline then
/// passes long before the 300 ms heartbeat notices, so the survivor
/// has written its shard — the base directory exists — by the time the
/// attempt is declared failed and, with no recovery allowed, the job
/// is abandoned.
#[test]
fn giving_up_removes_the_scratch_base() {
    let _serial = SCRATCH_BASES.lock().unwrap_or_else(|e| e.into_inner());
    let g = gen::barabasi_albert(3_000, 5, 5);
    let mut cfg = base_config();
    cfg.checkpoint_interval = Some(Duration::from_millis(10));
    cfg.heartbeat_timeout = Some(Duration::from_millis(300));
    cfg.fault = crash_worker_1();
    let err = Job::new(Arc::new(SlowEdgeCount), &g, &cfg)
        .recover(RecoveryOptions { max_recoveries: 0, generation: 0 })
        .run()
        .expect_err("one crash is one too many with max_recoveries = 0");
    assert!(err.to_string().contains("giving up"), "{err}");
    assert_eq!(leftover_recovery_bases(), Vec::<PathBuf>::new(), "the give-up exit cleans up");
}

/// A loopback `run_process` pair, one thread per worker; the master is
/// observed. Returns the master's result and its observer count.
fn run_pair(g: &Arc<Graph>, cfg: &JobConfig, recover: bool) -> (JobResult<u64>, u64) {
    let (manifest, listeners) = ClusterManifest::loopback(2).expect("bind loopback");
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(w, listener)| {
            let (g, cfg, manifest) = (Arc::clone(g), cfg.clone(), manifest.clone());
            std::thread::spawn(move || {
                let fired = AtomicU64::new(0);
                let mut job = Job::new(Arc::new(SlowEdgeCount), &*g, &cfg).observe(|_| {
                    fired.fetch_add(1, Ordering::Relaxed);
                });
                if recover {
                    job = job.recover(RecoveryOptions::default());
                }
                let role = job
                    .run_process(&manifest, WorkerId(w as u16), listener, Duration::from_secs(20))
                    .expect("process job");
                (role, fired.load(Ordering::Relaxed))
            })
        })
        .collect();
    let mut master = None;
    for h in handles {
        if let (ClusterRole::Master(r), fired) = h.join().expect("worker thread") {
            master = Some((r, fired));
        }
    }
    master.expect("worker 0 is the master")
}

#[test]
fn process_pairs_give_the_same_answer_plain_and_recovering() {
    let g = Arc::new(gen::barabasi_albert(3_000, 5, 5));
    let expected = g.num_edges() as u64;
    let mut cfg = base_config();

    let (plain, fired) = run_pair(&g, &cfg, false);
    assert_eq!(plain.outcome, JobOutcome::Completed);
    assert_eq!(plain.global, expected);
    assert!(fired > 0, "an observed process job samples its own worker");
    assert_eq!(plain.recovery.checkpoints, 0, "no recovery, no epochs");

    // No crash can be injected here (it would abort the test process),
    // but the recovering runner still works in checkpointed segments:
    // every epoch is a suspend, a re-rendezvous through the persistent
    // acceptor, a Resume decision and a restore.
    cfg.checkpoint_dir = Some(scratch("pair-epochs"));
    cfg.checkpoint_interval = Some(Duration::from_millis(5));
    let (recovering, fired) = run_pair(&g, &cfg, true);
    assert_eq!(recovering.outcome, JobOutcome::Completed);
    assert_eq!(recovering.global, expected);
    assert!(fired > 0, "the observer survives across attempts");
    assert!(recovering.recovery.checkpoints >= 1, "{:?}", recovering.recovery);
    assert_eq!(recovering.recovery.recoveries, 0);
    assert!(
        recovering.metrics.workers[0].resumed_epoch >= 0,
        "the final attempt restored an epoch"
    );
    let _ = std::fs::remove_dir_all(scratch("pair-epochs"));

    // A process job cannot take an arbitrary checkpoint path: the
    // master announces the epoch.
    let (manifest, mut listeners) = ClusterManifest::loopback(2).expect("bind loopback");
    let cp = scratch("nowhere");
    let err = Job::new(Arc::new(SlowEdgeCount), &*g, &cfg)
        .resume_from(&cp)
        .run_process(&manifest, WorkerId(0), listeners.remove(0), Duration::from_secs(1))
        .expect_err("resume_from + run_process");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}
