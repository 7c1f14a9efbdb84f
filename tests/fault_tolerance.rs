//! Suspend/resume checkpointing: a job interrupted mid-flight must,
//! after resuming from its checkpoint, produce exactly the result of
//! an uninterrupted run.

use gthinker_apps::{MaxCliqueApp, TriangleApp};
use gthinker_core::prelude::*;
use gthinker_graph::gen;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn checkpoint_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("gthinker-ft-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Runs with a suspension deadline; resumes (repeatedly, if a resumed
/// run suspends again) until completion; returns the final global.
fn run_with_interruptions<A: gthinker_core::App>(
    app: impl Fn() -> A,
    graph: &gthinker_graph::graph::Graph,
    mut cfg: JobConfig,
    tag: &str,
) -> (<A::Agg as gthinker_core::Aggregator>::Global, usize) {
    cfg.checkpoint_dir = Some(checkpoint_dir(tag));
    let mut suspensions = 0usize;
    let mut result = run_job(Arc::new(app()), graph, &cfg).unwrap();
    loop {
        match result.outcome {
            JobOutcome::Completed => return (result.global, suspensions),
            JobOutcome::Suspended { checkpoint } => {
                suspensions += 1;
                assert!(suspensions < 50, "job never finishes");
                // Allow more time per resumed attempt.
                let mut next = cfg.clone();
                next.suspend_after = cfg.suspend_after.map(|d| d * 2u32.pow(suspensions as u32));
                result =
                    Job::new(Arc::new(app()), graph, &next).resume_from(&checkpoint).run().unwrap();
            }
            JobOutcome::Failed { worker } => {
                panic!("no faults are injected here, yet worker {worker:?} was declared dead")
            }
        }
    }
}

#[test]
fn triangle_count_survives_suspension() {
    let g = gen::barabasi_albert(3_000, 6, 5);
    let expected = run_job(Arc::new(TriangleApp::default()), &g, &JobConfig::single_machine(2))
        .unwrap()
        .global;
    let mut cfg = JobConfig::cluster(2, 2);
    cfg.suspend_after = Some(Duration::from_millis(120));
    let (global, suspensions) = run_with_interruptions(TriangleApp::default, &g, cfg, "tc");
    assert_eq!(global, expected);
    // The deadline is tuned to interrupt this workload at least once;
    // if the machine is so fast it finished first, the test still
    // validated the result (but log it).
    if suspensions == 0 {
        eprintln!("note: job completed before the suspension deadline");
    }
}

#[test]
fn max_clique_survives_suspension() {
    let base = gen::barabasi_albert(1_500, 6, 6);
    let (g, planted) = gen::plant_clique(&base, 12, 7);
    let expected = run_job(Arc::new(MaxCliqueApp::default()), &g, &JobConfig::single_machine(2))
        .unwrap()
        .global;
    assert!(expected.len() >= planted.len());
    let mut cfg = JobConfig::cluster(2, 2);
    cfg.suspend_after = Some(Duration::from_millis(100));
    let (global, _suspensions) = run_with_interruptions(MaxCliqueApp::default, &g, cfg, "mcf");
    assert_eq!(global.len(), expected.len());
    for i in 0..global.len() {
        for j in (i + 1)..global.len() {
            assert!(g.has_edge(global[i], global[j]));
        }
    }
}

#[test]
fn immediate_suspension_checkpoints_everything() {
    // Suspend before any meaningful progress: the checkpoint carries
    // essentially the whole job.
    let g = gen::barabasi_albert(2_000, 5, 8);
    let expected = run_job(Arc::new(TriangleApp::default()), &g, &JobConfig::single_machine(2))
        .unwrap()
        .global;
    let mut cfg = JobConfig::cluster(2, 2);
    cfg.suspend_after = Some(Duration::from_millis(1));
    let (global, _) = run_with_interruptions(TriangleApp::default, &g, cfg, "early");
    assert_eq!(global, expected);
}

#[test]
fn resume_with_wrong_topology_is_rejected() {
    let g = gen::gnp(200, 0.05, 9);
    let mut cfg = JobConfig::cluster(2, 1);
    cfg.suspend_after = Some(Duration::from_millis(1));
    cfg.checkpoint_dir = Some(checkpoint_dir("wrong-topo"));
    let result = run_job(Arc::new(TriangleApp::default()), &g, &cfg).unwrap();
    let JobOutcome::Suspended { checkpoint } = result.outcome else {
        eprintln!("note: job finished before suspension; skipping");
        return;
    };
    let bad = JobConfig::cluster(3, 1);
    let err = Job::new(Arc::new(TriangleApp::default()), &g, &bad)
        .resume_from(&checkpoint)
        .run()
        .expect_err("mismatched worker count must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    let msg = err.to_string();
    assert!(msg.contains("2 workers") && msg.contains("3"), "error should name both counts: {msg}");
}

/// Edge counter that thinks for 20 µs per task: 3 000 tasks on four
/// compers take 15 ms of spinning at least, so a 2 ms deadline always
/// suspends it.
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

#[test]
fn concurrent_suspensions_without_a_checkpoint_dir_do_not_share_one() {
    let graphs = [gen::barabasi_albert(3_000, 5, 21), gen::barabasi_albert(3_200, 6, 22)];
    let plain = JobConfig::cluster(2, 2);
    let expected: Vec<u64> = graphs
        .iter()
        .map(|g| run_job(Arc::new(SlowEdgeCount), g, &plain).unwrap().global)
        .collect();
    assert_ne!(expected[0], expected[1], "the two jobs must have different answers");
    let mut suspending = plain.clone();
    suspending.suspend_after = Some(Duration::from_millis(2));
    let cfg = &suspending;
    let checkpoints: Vec<std::path::PathBuf> = std::thread::scope(|s| {
        let jobs: Vec<_> = graphs
            .iter()
            .map(|g| s.spawn(move || run_job(Arc::new(SlowEdgeCount), g, cfg).unwrap()))
            .collect();
        jobs.into_iter()
            .map(|j| match j.join().unwrap().outcome {
                JobOutcome::Suspended { checkpoint } => checkpoint,
                other => panic!("a 15 ms job ended {other:?} before its 2 ms deadline"),
            })
            .collect()
    });
    assert_ne!(checkpoints[0], checkpoints[1], "two jobs suspended into one directory");
    for ((g, cp), want) in graphs.iter().zip(&checkpoints).zip(expected) {
        let resumed = Job::new(Arc::new(SlowEdgeCount), g, &plain).resume_from(cp).run().unwrap();
        assert!(matches!(resumed.outcome, JobOutcome::Completed));
        assert_eq!(resumed.global, want, "resumed from {}", cp.display());
        std::fs::remove_dir_all(cp).unwrap();
    }
}

/// How [`FanOut`] damages its own worker's spill directory.
#[derive(Clone, Copy, PartialEq)]
enum Sabotage {
    None,
    /// The first subtask replaces every spilled `batch-*.tasks` file
    /// with a directory: every later read of one fails.
    UnreadableBatches,
    /// Like `UnreadableBatches`, after sleeping 300 ms — long past a
    /// 5 ms suspension deadline, so the suspend drain meets the damage.
    UnreadableBatchesLate,
    /// The root task replaces the worker's spill directory with a plain
    /// file before it fans out: every spill write fails.
    SpillDirIsAFile,
    /// Like `SpillDirIsAFile` for every worker but the one running the
    /// root task, whose subtasks then take 20 ms each: the idle worker
    /// steals one of the root's spilled batches and cannot append it.
    ThiefSpillDirIsAFile,
}

/// One root task (vertex 0) that fans out into 20 subtasks, each
/// counting 1. With `task_batch = 1` most subtasks go through spill
/// files, so a job that drops a batch ends short of 20.
struct FanOut {
    spill_dir: std::path::PathBuf,
    sabotage: Sabotage,
    sabotaged: std::sync::atomic::AtomicBool,
}

const FAN_OUT: u64 = 20;

impl FanOut {
    fn new(spill_dir: &std::path::Path, sabotage: Sabotage) -> Self {
        FanOut {
            spill_dir: spill_dir.to_path_buf(),
            sabotage,
            sabotaged: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Every `job-*/worker-*` spill directory of this app's jobs.
    fn worker_dirs(&self) -> Vec<std::path::PathBuf> {
        let children = |dir: &std::path::Path| -> Vec<std::path::PathBuf> {
            std::fs::read_dir(dir)
                .map(|d| d.filter_map(|e| Some(e.ok()?.path())).collect())
                .unwrap_or_default()
        };
        children(&self.spill_dir).iter().flat_map(|job| children(job)).collect()
    }

    fn break_batches(&self) {
        for dir in self.worker_dirs() {
            for f in std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()) {
                if f.extension().is_some_and(|x| x == "tasks") {
                    std::fs::remove_file(&f).unwrap();
                    std::fs::create_dir(&f).unwrap();
                }
            }
        }
    }
}

impl App for FanOut {
    type Context = u32;
    type Agg = SumAgg;
    fn make_aggregator(&self) -> SumAgg {
        SumAgg
    }
    fn task_spawn(&self, v: VertexId, _adj: &AdjList, env: &mut SpawnEnv<'_, Self>) {
        if v == VertexId(0) {
            env.add_task(Task::new(0));
        }
    }
    fn compute(&self, t: &mut Task<u32>, _f: &Frontier, env: &mut ComputeEnv<'_, Self>) -> bool {
        use std::sync::atomic::Ordering;
        if t.context == 0 {
            // The root task may have been stolen before it ran (a thief
            // is sent freshly spawned tasks too), so the worker running
            // it, named by this `comper-w<W>-<i>` thread, is the victim.
            let me = std::thread::current().name().unwrap_or_default().to_owned();
            let me = me.strip_prefix("comper-w").and_then(|n| n.split('-').next());
            let root = format!("worker-{}", me.expect("compute runs on a comper thread"));
            for dir in self.worker_dirs() {
                if self.sabotage == Sabotage::SpillDirIsAFile
                    || (self.sabotage == Sabotage::ThiefSpillDirIsAFile && !dir.ends_with(&root))
                {
                    std::fs::remove_dir_all(&dir).unwrap();
                    std::fs::write(&dir, b"not a directory").unwrap();
                }
            }
            for i in 1..=FAN_OUT as u32 {
                env.add_task(Task::new(i));
            }
            return false;
        }
        if self.sabotage == Sabotage::ThiefSpillDirIsAFile {
            std::thread::sleep(Duration::from_millis(20));
        }
        let late = self.sabotage == Sabotage::UnreadableBatchesLate;
        if (late || self.sabotage == Sabotage::UnreadableBatches)
            && !self.sabotaged.swap(true, Ordering::SeqCst)
        {
            if late {
                std::thread::sleep(Duration::from_millis(300));
            }
            self.break_batches();
        }
        env.aggregate(1);
        false
    }
}

fn fan_out_config(tag: &str) -> JobConfig {
    let mut cfg = JobConfig::single_machine(1);
    cfg.task_batch = 1;
    cfg.spill_dir = checkpoint_dir(&format!("{tag}-spill"));
    cfg
}

/// Runs `job` on a thread of its own and waits at most 30 s for it; a
/// panic (how a failed job ends) comes back as its message.
fn run_bounded<T: Send + 'static>(
    job: impl FnOnce() -> std::io::Result<T> + Send + 'static,
) -> Result<std::io::Result<T>, String> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)));
    });
    let ended = rx.recv_timeout(Duration::from_secs(30)).expect("the job hangs");
    ended.map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}

#[test]
fn an_unreadable_spill_batch_fails_the_job() {
    let cfg = fan_out_config("fan-unreadable");
    let app = FanOut::new(&cfg.spill_dir, Sabotage::UnreadableBatches);
    let ended = run_bounded(move || run_job(Arc::new(app), &gen::gnp(8, 0.3, 1), &cfg));
    match ended {
        Err(msg) => {
            assert!(msg.contains("cannot refill") && msg.contains("directory"), "{msg}")
        }
        Ok(r) => panic!("the job dropped spilled tasks and ended {:?}", r.map(|r| r.global)),
    }
}

#[test]
fn an_unwritable_spill_directory_fails_the_job() {
    let cfg = fan_out_config("fan-unwritable");
    let app = FanOut::new(&cfg.spill_dir, Sabotage::SpillDirIsAFile);
    let ended = run_bounded(move || run_job(Arc::new(app), &gen::gnp(8, 0.3, 1), &cfg));
    match ended {
        Err(msg) => {
            assert!(msg.contains("cannot spill") && msg.contains("Not a directory"), "{msg}")
        }
        Ok(r) => panic!("the job lost its spill directory and ended {:?}", r.map(|r| r.global)),
    }
}

#[test]
fn a_thief_that_cannot_append_a_stolen_batch_fails_the_job() {
    let mut cfg = fan_out_config("fan-thief");
    cfg.num_workers = 2;
    cfg.work_stealing = true;
    let app = FanOut::new(&cfg.spill_dir, Sabotage::ThiefSpillDirIsAFile);
    let ended = run_bounded(move || run_job(Arc::new(app), &gen::gnp(8, 0.3, 1), &cfg));
    match ended {
        Err(msg) => assert!(
            msg.contains("cannot take a stolen task batch") && msg.contains("Not a directory"),
            "{msg}"
        ),
        Ok(r) => panic!("the thief lost its spill directory and ended {:?}", r.map(|r| r.global)),
    }
}

#[test]
fn a_suspend_that_cannot_read_a_spill_batch_leaves_no_short_checkpoint() {
    let mut cfg = fan_out_config("fan-suspend");
    cfg.suspend_after = Some(Duration::from_millis(5));
    cfg.checkpoint_dir = Some(checkpoint_dir("fan-suspend"));
    let g = gen::gnp(8, 0.3, 1);
    let app = FanOut::new(&cfg.spill_dir, Sabotage::UnreadableBatchesLate);
    let first = {
        let (g, cfg) = (g.clone(), cfg.clone());
        run_bounded(move || run_job(Arc::new(app), &g, &cfg))
    };
    let checkpoint = match first {
        // The drain met the damage: the job fails with the I/O error.
        Ok(Err(e)) => return assert!(e.to_string().contains("directory"), "{e}"),
        Err(msg) => return assert!(msg.contains("directory"), "{msg}"),
        Ok(Ok(r)) => match r.outcome {
            JobOutcome::Suspended { checkpoint } => checkpoint,
            other => panic!("a job sleeping 300 ms past its 5 ms deadline ended {other:?}"),
        },
    };
    // A checkpoint that was written must hold every subtask.
    let mut plain = fan_out_config("fan-suspend-resume");
    plain.checkpoint_dir = cfg.checkpoint_dir.clone();
    let app = FanOut::new(&plain.spill_dir, Sabotage::None);
    let resumed = Job::new(Arc::new(app), &g, &plain).resume_from(&checkpoint).run().unwrap();
    assert_eq!(resumed.global, FAN_OUT, "resumed from {}", checkpoint.display());
}

#[test]
fn a_spill_heavy_checkpoint_is_the_spill_files() {
    let base = gen::gnp(250, 0.12, 41);
    let (g, _) = gen::plant_clique(&base, 10, 42);
    let reference =
        run_job(Arc::new(MaxCliqueApp::default()), &g, &JobConfig::single_machine(1)).unwrap();
    // stress.rs's torture shape on two workers: τ = 12 decomposition
    // through C = 3 queues spills constantly.
    let mut cfg = JobConfig::cluster(2, 2);
    cfg.task_batch = 3;
    cfg.cache.capacity = 32;
    cfg.cache.num_buckets = 8;
    cfg.cache.alpha = 0.02;
    cfg.request_batch = 16;
    cfg.link = gthinker_net::router::LinkConfig {
        latency: Duration::from_micros(500),
        bytes_per_sec: Some(2_000_000),
    };
    cfg.checkpoint_dir = Some(checkpoint_dir("spill-heavy"));
    cfg.suspend_after = Some(Duration::from_millis(30));
    let r = run_job(Arc::new(MaxCliqueApp::with_tau(12)), &g, &cfg).unwrap();
    let JobOutcome::Suspended { checkpoint } = r.outcome else {
        panic!("the torture job finished before its 30 ms deadline");
    };
    let size = |name: &str| std::fs::metadata(checkpoint.join(name)).unwrap().len();
    let files: Vec<String> = std::fs::read_dir(&checkpoint)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    let tasks_of = |w: usize| {
        let prefix = format!("worker-{w:04}-");
        files.iter().filter(|f| f.starts_with(&prefix) && f.ends_with(".tasks")).count()
    };
    for (w, m) in r.metrics.workers.iter().enumerate() {
        let shard = size(&format!("worker-{w:04}.ckpt"));
        assert!(shard < 1024, "worker {w}'s shard is {shard} bytes: it holds tasks");
        if m.spill_bytes > 0 {
            assert!(tasks_of(w) > 0, "worker {w} spilled but left no .tasks file");
        }
    }
    let ckpt_bytes: u64 = files.iter().filter(|f| f.ends_with(".ckpt")).map(|f| size(f)).sum();
    let task_bytes: u64 = files.iter().filter(|f| f.ends_with(".tasks")).map(|f| size(f)).sum();
    assert!(task_bytes > ckpt_bytes, "{task_bytes} B of batches vs {ckpt_bytes} B of shards");
    cfg.suspend_after = None;
    let resumed = Job::new(Arc::new(MaxCliqueApp::with_tau(12)), &g, &cfg)
        .resume_from(&checkpoint)
        .run()
        .unwrap();
    assert!(matches!(resumed.outcome, JobOutcome::Completed));
    assert_eq!(resumed.global.len(), reference.global.len());
    std::fs::remove_dir_all(&checkpoint).unwrap();
}
