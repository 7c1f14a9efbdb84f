//! The job runner: wires graph, workers, threads and the master
//! together. [`Job`] is the one entry point ([`run_job`] its
//! shorthand); [`crate::cluster`] holds its multi-process terminal
//! call.

use crate::agg::Aggregator;
use crate::api::App;
use crate::checkpoint::{self, Manifest, WorkerShard};
use crate::comper::comper_loop;
use crate::config::{JobConfig, JobOutcome, JobResult};
use crate::master::{Collect, MasterState};
use crate::metrics::{ClusterTelemetry, MetricsRegistry, MetricsSnapshot};
use crate::worker::{
    gc_loop, receiver_loop, responder_loop, worker_tick, ResponderRing, WorkerShared,
};
use crossbeam::channel::RecvTimeoutError;
use gthinker_graph::compressed::CompressedGraph;
use gthinker_graph::graph::Graph;
use gthinker_graph::ids::{Label, VertexId, WorkerId};
use gthinker_graph::partition::HashPartitioner;
use gthinker_graph::store::AdjacencyStore;
use gthinker_graph::trim::Trimmer;
use gthinker_net::message::Message;
use gthinker_net::router::Router;
use gthinker_net::transport::{NetEndpoint, Transport};
use gthinker_store::cache::VertexCache;
use gthinker_store::local::LocalTable;
use gthinker_task::codec::to_bytes;
use gthinker_task::spill::SpillManager;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub(crate) type Global<A> = <<A as App>::Agg as Aggregator>::Global;
type Partial<A> = <<A as App>::Agg as Aggregator>::Partial;

/// Where a job reads its graph from.
///
/// The storage backend is invisible above the worker's `T_local`: the
/// six miners, the cache, trimming and partitioning all behave
/// identically over either variant (the differential suite in
/// `tests/storage_equivalence.rs` pins this down result-for-result).
#[derive(Clone)]
pub enum GraphSource<'a> {
    /// An in-RAM graph: trimmed while partitioning, every partition
    /// materialized into an eager local table (the classic path).
    InMemory(&'a Graph),
    /// A memory-mapped compressed graph (`.gtc`, built by
    /// `gthinker-cli graph build`): every worker shares the mapping,
    /// decodes `Γ(v)` lazily per lookup, and applies the job's trimmer
    /// at decode time — resident memory stays near the bitset + page
    /// cache instead of a full adjacency copy.
    Mapped(Arc<CompressedGraph>),
}

impl<'a> From<&'a Graph> for GraphSource<'a> {
    fn from(g: &'a Graph) -> Self {
        GraphSource::InMemory(g)
    }
}

impl From<Arc<CompressedGraph>> for GraphSource<'static> {
    fn from(c: Arc<CompressedGraph>) -> Self {
        GraphSource::Mapped(c)
    }
}

/// A point-in-time view of a running job: the projection of a
/// [`MetricsSnapshot`] (see [`MetricsSnapshot::progress`]) an observer
/// installed with [`Job::observe`] usually wants. This is the paper's
/// "periodically synchronize job status to monitor progress" made
/// visible to the embedding application (e.g. the current total in
/// triangle counting).
#[derive(Clone, Debug)]
pub struct ProgressSnapshot {
    /// Time since the job started.
    pub elapsed: std::time::Duration,
    /// Tasks finished so far, across all workers.
    pub tasks_finished: u64,
    /// Estimated remaining load in tasks (queued + spilled + unspawned).
    pub remaining: u64,
    /// Cache hits / misses so far.
    pub cache_hits: u64,
    /// Cache misses (actual network pulls) so far.
    pub cache_misses: u64,
    /// Bytes sent over the simulated network so far.
    pub net_bytes: u64,
    /// Workers currently quiescent.
    pub quiescent_workers: usize,
}

/// Crash-recovery policy, switched on with [`Job::recover`].
#[derive(Clone, Copy, Debug)]
pub struct RecoveryOptions {
    /// Recovery rounds (crash → fall back to the last validated
    /// checkpoint → rerun) tolerated before the job is abandoned with
    /// an error.
    pub max_recoveries: u32,
    /// This process's rejoin generation in a multi-process job: 0 on a
    /// first launch, `g + 1` when a supervisor respawns it after
    /// generation `g` died. Peers accept the bumped hello and reject
    /// frames from the dead generation's sockets. Unused by
    /// [`Job::run`], where no process is ever respawned.
    pub generation: u32,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions { max_recoveries: 8, generation: 0 }
    }
}

/// What a recovering job ([`Job::recover`]) did to finish; all zero on
/// a job that ran without recovery.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Times a crashed worker was detected and the job rerun.
    pub recoveries: u32,
    /// Valid checkpoint epochs written along the way.
    pub checkpoints: u32,
    /// The worker declared dead at each recovery, in order (known to
    /// the master only).
    pub failed_workers: Vec<WorkerId>,
}

type Observer<'a> = Box<dyn FnMut(&MetricsSnapshot) + Send + 'a>;
type TelemetryHook<'a> = Box<dyn FnOnce(Arc<ClusterTelemetry>) + 'a>;

/// One job: an [`App`], the graph it mines and a [`JobConfig`], plus
/// whichever of the optional behaviours below were switched on. The
/// options are fields read by one runner, so every combination works;
/// the terminal call picks where the workers live — [`Job::run`] (all
/// of them in this process, over the simulated [`Router`]) or
/// [`Job::run_process`] (this process's one worker of a multi-process
/// TCP cluster).
pub struct Job<'a, A: App> {
    pub(crate) app: Arc<A>,
    pub(crate) source: GraphSource<'a>,
    pub(crate) config: &'a JobConfig,
    pub(crate) observer: Option<Observer<'a>>,
    pub(crate) resume_from: Option<&'a Path>,
    pub(crate) recovery: Option<RecoveryOptions>,
    pub(crate) on_telemetry: Option<TelemetryHook<'a>>,
}

impl<'a, A: App> Job<'a, A> {
    /// A job over `source` — a `&Graph`, an `Arc<CompressedGraph>`
    /// (memory-mapped `.gtc`) or an explicit [`GraphSource`].
    pub fn new(
        app: Arc<A>,
        source: impl Into<GraphSource<'a>>,
        config: &'a JobConfig,
    ) -> Job<'a, A> {
        Job {
            app,
            source: source.into(),
            config,
            observer: None,
            resume_from: None,
            recovery: None,
            on_telemetry: None,
        }
    }

    /// Invokes `observer` with a [`MetricsSnapshot`] of this process's
    /// workers (counters, cache stats, per-comper latency histograms;
    /// [`MetricsSnapshot::progress`] projects it to a
    /// [`ProgressSnapshot`]) every `config.sync_interval` until the job
    /// ends.
    pub fn observe(mut self, observer: impl FnMut(&MetricsSnapshot) + Send + 'a) -> Self {
        self.observer = Some(Box::new(observer));
        self
    }

    /// Starts from the checkpoint a suspended run
    /// ([`JobOutcome::Suspended`]) wrote instead of from scratch.
    /// Topology (worker count) must match the original run; the graph
    /// source need not — a checkpoint holds only tasks, aggregator
    /// state and the spawn pointer, never adjacency. [`Job::run`] only:
    /// a multi-process job resumes from the epoch its master announces.
    pub fn resume_from(mut self, checkpoint: &'a Path) -> Self {
        self.resume_from = Some(checkpoint);
        self
    }

    /// Survives worker crashes: the job runs in segments of
    /// `config.checkpoint_interval`, each ending in a validated
    /// checkpoint epoch under `config.checkpoint_dir`, and when the
    /// master's failure detector declares a worker dead the job is
    /// rerun from the last epoch that validates (or from scratch if
    /// none does yet). Gives up with an error after
    /// `opts.max_recoveries` reruns. With `checkpoint_interval == None`
    /// the job never suspends — a crash simply reruns it from the
    /// start. What happened is reported in [`JobResult::recovery`].
    pub fn recover(mut self, opts: RecoveryOptions) -> Self {
        self.recovery = Some(opts);
        self
    }

    /// Hands the master's live [`ClusterTelemetry`] to `hook` before a
    /// multi-process job starts (status lines, scrape endpoints). Fires
    /// once, on worker 0 of [`Job::run_process`] — the only place that
    /// aggregates remote workers' reports.
    pub fn on_telemetry(mut self, hook: impl FnOnce(Arc<ClusterTelemetry>) + 'a) -> Self {
        self.on_telemetry = Some(Box::new(hook));
        self
    }

    /// Runs every worker in this process, blocking until completion
    /// (or suspension if `config.suspend_after` fires first).
    pub fn run(mut self) -> io::Result<JobResult<Global<A>>> {
        let Some(opts) = self.recovery else {
            return self.run_sim(self.config, self.resume_from);
        };
        let mut ledger = RecoveryLedger::new(self.config, opts.max_recoveries);
        loop {
            let seg = ledger.segment();
            let last_good = ledger.last_good.map(|e| ledger.epoch_dir(e));
            let mut result = self.run_sim(&seg, last_good.as_deref().or(self.resume_from))?;
            if let JobOutcome::Failed { .. } = result.outcome {
                // An injected crash schedule fires once per job run —
                // and counts messages from zero again on a rerun, which
                // would kill the same worker at the same point forever.
                // The fault it models has happened; clear it.
                ledger.config.fault.crash = None;
            }
            if ledger.settle::<A>(&result.outcome, result.total_tasks())? {
                // Parity with the process runner, where each process
                // counts its own recovery rounds in its metrics.
                for w in &mut result.metrics.workers {
                    w.recoveries = ledger.report.recoveries as u64;
                }
                result.recovery = ledger.finish();
                return Ok(result);
            }
        }
    }

    /// One attempt with every worker in this process, on a fresh sim
    /// [`Router`]. Worker code only ever sees the
    /// `Transport`/`NetEndpoint` traits, which is what makes
    /// [`Job::run_process`] the same job over TCP.
    fn run_sim(
        &mut self,
        config: &JobConfig,
        resume: Option<&Path>,
    ) -> io::Result<JobResult<Global<A>>> {
        assert!(config.num_workers >= 1);
        assert!(config.compers_per_worker >= 1);
        let start = Instant::now();

        let partitioner = HashPartitioner::new(config.num_workers as u16);
        let every_worker: Vec<usize> = (0..config.num_workers).collect();
        let (locals, label_table) =
            build_locals(&self.app, &self.source, partitioner, &every_worker);

        let mut router = Router::with_faults(config.num_workers, config.link, config.fault.clone());
        let handles: Vec<Box<dyn NetEndpoint>> =
            Transport::hosted(&router).into_iter().map(|w| router.take_endpoint(w)).collect();

        let job_dir = new_job_dir(config);
        let mut workers: Vec<Arc<WorkerShared<A>>> = Vec::with_capacity(config.num_workers);
        let mut resume_global = None;
        for (w, (local, net)) in locals.into_iter().zip(handles).enumerate() {
            let shared = build_worker(
                &self.app,
                config,
                &label_table,
                partitioner,
                w,
                local,
                net,
                &job_dir,
            )?;
            if let Some(cp) = resume {
                resume_global = Some(restore_worker(&shared, cp)?);
            }
            workers.push(shared);
        }

        let attempt =
            run_workers(&workers, resume_global, self.observer.as_mut(), start, &job_dir, true)?;
        drop(router);
        let (global, outcome) = attempt.outcome.expect("master worker returns the job outcome");
        Ok(JobResult {
            global,
            elapsed: start.elapsed(),
            outcome,
            metrics: attempt.registry.final_snapshot(),
            recovery: RecoveryReport::default(),
        })
    }
}

/// Runs an application over a graph with the given configuration,
/// blocking until completion (or suspension if `config.suspend_after`
/// fires first): shorthand for `Job::new(app, source, config).run()`.
pub fn run_job<'a, A: App>(
    app: Arc<A>,
    source: impl Into<GraphSource<'a>>,
    config: &'a JobConfig,
) -> io::Result<JobResult<Global<A>>> {
    Job::new(app, source, config).run()
}

/// The recovery rules every recovering job follows, whichever runner
/// supplies the fresh cluster for the next attempt: attempt `k` runs a
/// segment that checkpoints into `base/epoch-k`; only an epoch that
/// validates end-to-end becomes the recovery point, replacing (and
/// deleting) its predecessor; a failed attempt's epoch is deleted; the
/// cadence backs off when a segment finishes nothing; and the job is
/// abandoned past `max_recoveries`.
pub(crate) struct RecoveryLedger {
    /// The job's config with the failure detector armed: a killed
    /// worker must never hang the survivors.
    pub config: JobConfig,
    base: PathBuf,
    /// `base` is a scratch directory this ledger made up (no
    /// `checkpoint_dir` was configured) and removes on drop.
    auto_base: bool,
    max_recoveries: u32,
    interval: Option<Duration>,
    /// The attempt about to run (or running); names its epoch.
    pub attempt: u64,
    /// The last attempt whose epoch validated.
    pub last_good: Option<u64>,
    pub report: RecoveryReport,
}

impl RecoveryLedger {
    pub fn new(config: &JobConfig, max_recoveries: u32) -> RecoveryLedger {
        let (base, auto_base) = match &config.checkpoint_dir {
            Some(dir) => (dir.clone(), false),
            None => {
                let id = JOB_SEQ.fetch_add(1, Ordering::Relaxed);
                let name = format!("gthinker-recovery-{}-{id}", std::process::id());
                (std::env::temp_dir().join(name), true)
            }
        };
        let mut config = config.clone();
        config.heartbeat_timeout = config.heartbeat_timeout.or(Some(DEFAULT_HEARTBEAT));
        RecoveryLedger {
            interval: config.checkpoint_interval,
            config,
            base,
            auto_base,
            max_recoveries,
            attempt: 0,
            last_good: None,
            report: RecoveryReport::default(),
        }
    }

    pub fn epoch_dir(&self, epoch: u64) -> PathBuf {
        self.base.join(format!("epoch-{epoch}"))
    }

    fn discard(&self, epoch: u64) {
        let _ = std::fs::remove_dir_all(self.epoch_dir(epoch));
    }

    /// The current attempt's config: suspend after the checkpoint
    /// interval, into this attempt's epoch directory.
    pub fn segment(&self) -> JobConfig {
        let mut seg = self.config.clone();
        seg.suspend_after = self.interval;
        seg.checkpoint_dir = Some(self.epoch_dir(self.attempt));
        seg
    }

    /// Books the current attempt's outcome as the master saw it and
    /// moves on to the next attempt; `Ok(true)` when the job is done.
    /// `tasks_finished` is what the segment got through.
    pub fn settle<A: App>(
        &mut self,
        outcome: &JobOutcome,
        tasks_finished: u64,
    ) -> io::Result<bool> {
        let epoch = self.attempt;
        self.attempt += 1;
        match outcome {
            JobOutcome::Completed => {
                if let Some(old) = self.last_good.take() {
                    self.discard(old);
                }
                self.discard(epoch);
                Ok(true)
            }
            JobOutcome::Suspended { .. } => {
                // Only a checkpoint that validates end-to-end (manifest
                // + every shard, CRCs intact, topology matching) may
                // become the recovery point.
                match checkpoint::validate::<A::Context, Partial<A>, Global<A>>(
                    &self.epoch_dir(epoch),
                    self.config.num_workers,
                ) {
                    Ok(()) => {
                        self.report.checkpoints += 1;
                        if let Some(old) = self.last_good.replace(epoch) {
                            self.discard(old);
                        }
                    }
                    Err(_) => self.discard(epoch),
                }
                // A segment that checkpointed without finishing a single
                // task would loop forever at this cadence; back off.
                if tasks_finished == 0 {
                    if let Some(i) = self.interval.as_mut() {
                        *i *= 2;
                    }
                }
                Ok(false)
            }
            JobOutcome::Failed { worker } => {
                // The failed attempt's epoch is incomplete; remove it
                // so nothing ever resumes from it.
                self.discard(epoch);
                self.report.failed_workers.push(*worker);
                self.count_recovery(format_args!("worker {} crashed", worker.index()))?;
                Ok(false)
            }
        }
    }

    /// The job is over: hands back the report (and, on drop, removes a
    /// scratch base).
    pub fn finish(mut self) -> RecoveryReport {
        std::mem::take(&mut self.report)
    }

    /// Counts one recovery round; an error once the job has used up
    /// `max_recoveries`.
    pub fn count_recovery(&mut self, cause: std::fmt::Arguments<'_>) -> io::Result<()> {
        self.report.recoveries += 1;
        if self.report.recoveries > self.max_recoveries {
            return Err(io::Error::other(format!(
                "{cause} and the job failed {} times; giving up",
                self.report.recoveries
            )));
        }
        Ok(())
    }
}

impl Drop for RecoveryLedger {
    /// Every exit path — completion, give-up, an I/O error mid-attempt
    /// — removes the scratch base. A configured `checkpoint_dir` is the
    /// caller's: it keeps its last validated epoch.
    fn drop(&mut self) {
        if self.auto_base {
            let _ = std::fs::remove_dir_all(&self.base);
        }
    }
}

/// Restores one freshly built worker from its shard of checkpoint `cp`
/// and returns the checkpointed global (the starting point for the
/// master's further merges).
pub(crate) fn restore_worker<A: App>(shared: &WorkerShared<A>, cp: &Path) -> io::Result<Global<A>> {
    let manifest: Manifest<Global<A>> = checkpoint::read_manifest(cp)?;
    if manifest.num_workers as usize != shared.config.num_workers {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "checkpoint {} was taken with {} workers, cannot resume with {}",
                cp.display(),
                manifest.num_workers,
                shared.config.num_workers
            ),
        ));
    }
    let shard = checkpoint::read_shard::<A::Context, Partial<A>>(cp, shared.me.index())?;
    shared.local.reset_spawn_pointer(shard.spawn_position as usize);
    shared.agg.set_partial(shard.partial);
    // Restored tasks go through L_file so compers pick them up with
    // the normal refill priority.
    for chunk in shard.tasks.chunks(shared.config.task_batch.max(1)) {
        shared.spill.spill(chunk)?;
    }
    shared.agg.set_global(manifest.global.clone());
    Ok(manifest.global)
}

/// What one attempt's workers handed back.
pub(crate) struct Attempt<A: App> {
    /// The job outcome, when worker 0 was among `workers`.
    pub outcome: Option<(Global<A>, JobOutcome)>,
    /// Reads every worker's atomics/histograms lock-free.
    pub registry: MetricsRegistry<A>,
}

/// Runs `workers` to the end of the attempt — each on a `worker-<w>`
/// thread of its own, or (`threads == false`, exactly one worker) on
/// the calling thread — sampling them for `observer` meanwhile, then
/// tears the attempt down: spill directory removed, the first UDF
/// panic re-raised, the first checkpoint/output I/O error returned.
pub(crate) fn run_workers<A: App>(
    workers: &[Arc<WorkerShared<A>>],
    resume_global: Option<Global<A>>,
    observer: Option<&mut Observer<'_>>,
    start: Instant,
    job_dir: &Path,
    threads: bool,
) -> io::Result<Attempt<A>> {
    let registry = MetricsRegistry::new(workers.to_vec(), start);
    let interval = workers[0].config.sync_interval;
    // The channel doubles as the observer's sampling timer
    // (recv_timeout) and as its shutdown wakeup, so no sleep-polling is
    // involved; a worker panic unwinding out of the scope drops the
    // sender, which stops the observer just the same.
    let (stop_tx, stop_rx) = crossbeam::channel::unbounded::<()>();
    let exits: Vec<WorkerExit<A>> = std::thread::scope(|s| {
        let stop_tx = stop_tx;
        if let Some(obs) = observer {
            let registry = &registry;
            std::thread::Builder::new()
                .name("job-observer".into())
                .spawn_scoped(s, move || {
                    while let Err(RecvTimeoutError::Timeout) = stop_rx.recv_timeout(interval) {
                        obs(&registry.snapshot());
                    }
                })
                .expect("spawn observer");
        }
        let exits = if threads {
            let handles: Vec<_> = workers
                .iter()
                .map(|shared| {
                    let shared = Arc::clone(shared);
                    let resume_global = resume_global.clone();
                    std::thread::Builder::new()
                        .name(format!("worker-{}", shared.me.index()))
                        .spawn(move || worker_main(shared, resume_global))
                        .expect("spawn worker thread")
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
        } else {
            vec![worker_main(Arc::clone(&workers[0]), resume_global)]
        };
        let _ = stop_tx.send(());
        exits
    });
    // Best-effort cleanup of the attempt's spill directory.
    let _ = std::fs::remove_dir_all(job_dir);

    // Propagate the first UDF panic (after the orderly shutdown above)
    // so the caller sees the application's own message.
    for shared in workers {
        if let Some(msg) = shared.failure.lock().take() {
            panic!("{msg}");
        }
    }
    let mut outcome = None;
    let mut io_error = None;
    for (o, e) in exits {
        if o.is_some() {
            outcome = o;
        }
        if io_error.is_none() {
            io_error = e;
        }
    }
    // First checkpoint/output I/O error wins, after the orderly
    // shutdown (so no thread is left dangling behind the `?`).
    if let Some(e) = io_error {
        return Err(e);
    }
    let outcome = outcome.map(|o| match o {
        WorkerOutcome::Completed(g) => (g, JobOutcome::Completed),
        WorkerOutcome::Suspended(g, dir) => (g, JobOutcome::Suspended { checkpoint: dir }),
        WorkerOutcome::Failed(g, w) => (g, JobOutcome::Failed { worker: w }),
    });
    Ok(Attempt { outcome, registry })
}

static JOB_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh spill directory for one job of this process.
pub(crate) fn new_job_dir(config: &JobConfig) -> PathBuf {
    let job_id = JOB_SEQ.fetch_add(1, Ordering::Relaxed);
    config.spill_dir.join(format!("job-{}-{}", std::process::id(), job_id))
}

/// Builds the local tables for the requested `workers` (all of them in
/// the sim runner, just one in a cluster process) plus the replicated
/// label table, from either graph source.
///
/// One walk over the vertex set decides membership for both sources
/// (ownership is hash-by-ID, members in ascending ID order), so they
/// produce identical partitions and only a requested worker's lists are
/// ever fetched. Trimming (§IV item 7) is [`Trimmer::fetch_trimmed`]
/// either way — while partitioning on the in-RAM path, at decode time
/// on the mapped path — a per-vertex rewrite that cannot observe the
/// difference.
pub(crate) fn build_locals<A: App>(
    app: &Arc<A>,
    source: &GraphSource<'_>,
    partitioner: HashPartitioner,
    workers: &[usize],
) -> (Vec<LocalTable>, Option<Arc<Vec<Label>>>) {
    let num_vertices = match source {
        GraphSource::InMemory(graph) => graph.num_vertices(),
        GraphSource::Mapped(store) => store.num_vertices(),
    };
    let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); workers.len()];
    for v in (0..num_vertices as u32).map(VertexId) {
        let owner = partitioner.owner(v).index();
        if let Some(i) = workers.iter().position(|&w| w == owner) {
            members[i].push(v);
        }
    }
    match source {
        GraphSource::InMemory(graph) => {
            let trimmer = app.trimmer();
            let locals = members
                .into_iter()
                .map(|members| {
                    let records = members
                        .iter()
                        .map(|&v| match &trimmer {
                            Some(t) => (v, t.fetch_trimmed(*graph, v)),
                            None => (v, graph.neighbors(v).clone()),
                        })
                        .collect();
                    let labels = members.iter().filter_map(|&v| Some((v, graph.label(v)?)));
                    LocalTable::with_labels(records, labels.collect())
                })
                .collect();
            // Labels are replicated to every worker (2 bytes/vertex).
            (locals, graph.labels().map(|l| Arc::new(l.to_vec())))
        }
        GraphSource::Mapped(store) => {
            let trimmer: Option<Arc<dyn Trimmer>> = app.trimmer().map(Arc::from);
            let locals = members
                .into_iter()
                .map(|members| {
                    let shared: Arc<dyn AdjacencyStore> = Arc::<CompressedGraph>::clone(store);
                    LocalTable::lazy(shared, trimmer.clone(), members)
                })
                .collect();
            (locals, store.labels().map(Arc::new))
        }
    }
}

/// Builds one worker's shared state from its local table and its
/// interconnect endpoint. Used by [`Job::run`] (all workers, sim
/// backend) and by [`Job::run_process`] (one worker, TCP backend).
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_worker<A: App>(
    app: &Arc<A>,
    config: &JobConfig,
    label_table: &Option<Arc<Vec<Label>>>,
    partitioner: HashPartitioner,
    w: usize,
    local: LocalTable,
    net: Box<dyn NetEndpoint>,
    job_dir: &Path,
) -> io::Result<Arc<WorkerShared<A>>> {
    let cache = VertexCache::new(config.cache.clone());
    let spill = SpillManager::new(job_dir.join(format!("worker-{w}")))?;
    let output = match config.output_dir.as_ref() {
        Some(dir) => Some(Arc::new(crate::output::OutputSink::create(dir, w)?)),
        None => None,
    };
    Ok(WorkerShared::new(
        WorkerId(w as u16),
        Arc::clone(app),
        config.clone(),
        local,
        cache,
        spill,
        net,
        partitioner,
        label_table.clone(),
        output,
    ))
}

pub(crate) enum WorkerOutcome<A: App> {
    Completed(Global<A>),
    Suspended(Global<A>, PathBuf),
    /// The master's heartbeat declared a worker dead; the global is
    /// whatever had been merged when the job was torn down.
    Failed(Global<A>, WorkerId),
}

/// What each worker's main thread hands back to [`run_workers`]: the
/// job outcome (master only), and the first checkpoint/output I/O
/// error hit during shutdown (reported instead of panicking, after all
/// threads have joined).
pub(crate) type WorkerExit<A> = (Option<WorkerOutcome<A>>, Option<io::Error>);

/// Failure-detection window used when the caller enabled recovery (or
/// armed a crash schedule) without picking an explicit
/// [`JobConfig::heartbeat_timeout`].
pub(crate) const DEFAULT_HEARTBEAT: std::time::Duration = std::time::Duration::from_secs(2);

/// One worker's main thread: spawns the receiver/GC/comper threads,
/// runs the periodic tick (plus master logic on worker 0), coordinates
/// shutdown or suspension.
pub(crate) fn worker_main<A: App>(
    shared: Arc<WorkerShared<A>>,
    resume_global: Option<Global<A>>,
) -> WorkerExit<A> {
    let is_master = shared.me == WorkerId(0);
    let (ctrl_tx, ctrl_rx) = crossbeam::channel::unbounded();

    // Responder pool (one channel per responder; the receiver
    // round-robins request batches over them and, by dropping the ring
    // on exit, hangs them up — so responders always drain fully before
    // the join below).
    let respond_n = shared.config.responders_per_worker.max(1);
    let mut responder_txs = Vec::with_capacity(respond_n);
    let responders: Vec<_> = (0..respond_n)
        .map(|r| {
            let (tx, rx) = crossbeam::channel::unbounded();
            responder_txs.push(tx);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("respond-{}-{r}", shared.me))
                .spawn(move || responder_loop(&shared, rx, r))
                .expect("spawn responder")
        })
        .collect();

    let receiver = {
        let shared = Arc::clone(&shared);
        let ring = ResponderRing::new(responder_txs);
        std::thread::Builder::new()
            .name(format!("recv-{}", shared.me))
            .spawn(move || receiver_loop(&shared, ctrl_tx, ring))
            .expect("spawn receiver")
    };
    let gc = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name(format!("gc-{}", shared.me))
            .spawn(move || gc_loop(&shared))
            .expect("spawn gc")
    };
    let compers: Vec<_> = (0..shared.config.compers_per_worker)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("comper-{}-{i}", shared.me))
                .spawn(move || comper_loop(shared, i))
                .expect("spawn comper")
        })
        .collect();

    // Failure detection is armed explicitly, or implicitly whenever a
    // crash schedule is — a killed worker must not hang the job.
    let heartbeat = shared
        .config
        .heartbeat_timeout
        .or_else(|| shared.config.fault.crash.as_ref().map(|_| DEFAULT_HEARTBEAT));
    let mut master = is_master.then(|| {
        let mut m = MasterState::new(Arc::clone(&shared), ctrl_rx, heartbeat);
        // On resume, the checkpointed global is the starting point for
        // all further merges (e.g. the best clique found pre-suspend).
        if let Some(g) = resume_global.clone() {
            m.set_global(g);
        }
        m
    });
    let deadline = shared.config.suspend_after.map(|d| Instant::now() + d);

    // Synchronization loop. The main thread sleeps on `tick_events`
    // until the next periodic tick is due or something wakes it: this
    // worker's quiescence edge, verdict-changing control traffic at the
    // master, stop/suspend. The wait key is taken *before* the state is
    // examined, so an event that lands while this iteration runs makes
    // the wait below return at once instead of being lost. The first
    // tick is due immediately.
    let mut was_idle = false;
    let mut abort_broadcast = false;
    let mut next_tick = Instant::now();
    loop {
        let key = shared.tick_events.listen();
        let now = Instant::now();
        let periodic = now >= next_tick;
        if periodic {
            next_tick = now + shared.config.sync_interval;
            worker_tick(&shared, WorkerId(0));
        }
        let idle = shared.report_progress(WorkerId(0), periodic);
        // Mark quiescence edges in the timeline.
        if idle != was_idle {
            was_idle = idle;
            shared.trace_main(
                if idle {
                    gthinker_metrics::EventKind::QuiesceEnter
                } else {
                    gthinker_metrics::EventKind::QuiesceExit
                },
                0,
            );
        }
        // A UDF panic on this worker aborts the whole job: tell every
        // other worker to stop, then go through the normal shutdown
        // path (final syncs keep the master's collection loop sound).
        if shared.failure.lock().is_some() {
            abort_broadcast = true;
            shared.net.broadcast(&Message::Terminate);
            shared.done.store(true, Ordering::SeqCst);
            shared.wake_all();
        }
        if let Some(m) = master.as_mut() {
            let decided = m.step(periodic);
            if !decided {
                if let Some(dl) = deadline {
                    if Instant::now() >= dl {
                        // Idempotent: the actual broadcast is deferred
                        // inside the master until no steal batch is in
                        // flight anywhere (exactly-once across epochs).
                        m.request_suspend();
                    }
                }
            }
        }
        if shared.stopping() {
            break;
        }
        shared.tick_events.wait(key, next_tick.saturating_duration_since(Instant::now()));
    }
    // A panicking comper records the failure and flips `done` itself;
    // both stores can land between this iteration's failure check and
    // the stop check above, exiting the loop with the abort broadcast
    // never sent — stranding every peer (they never quiesce, and the
    // master waits in `collect` forever). The failure is
    // recorded strictly before `done`, so a post-loop re-check cannot
    // miss it.
    if !abort_broadcast && !shared.crashed.load(Ordering::SeqCst) && shared.failure.lock().is_some()
    {
        shared.net.broadcast(&Message::Terminate);
    }

    // Compers stop on the flag; wait for them.
    for c in compers {
        c.join().expect("comper panicked");
    }

    let crashed = shared.crashed.load(Ordering::SeqCst);
    let suspended = shared.suspend.load(Ordering::SeqCst);
    let mut outcome = None;
    let mut io_error: Option<io::Error> = None;
    if crashed {
        // A crashed machine does nothing on the way out: no checkpoint
        // shard, no final sync. The master's heartbeat notices the
        // silence and fails the job. (The router refuses crash
        // schedules for worker 0, so the master itself never gets here.)
    } else if suspended {
        // Gather every remaining task: drained queues, pending tables,
        // ready buffers, spilled files. The receiver thread is still
        // installing responses, which moves tasks pending → ready
        // (never back, and atomically with respect to the drain — see
        // `PendingTable::notify_with`), so the pending table is emptied
        // first: a task that became ready before that is found in the
        // buffer after.
        let mut tasks: Vec<gthinker_task::task::Task<A::Context>> =
            shared.drained_queues.lock().drain(..).collect();
        for c in &shared.compers {
            tasks.extend(c.pending.drain());
            tasks.extend(c.buffer.drain());
        }
        while let Ok(Some(batch)) = shared.spill.refill::<A::Context>() {
            tasks.extend(batch);
        }
        // Unacked outgoing steal batches still belong to this worker
        // (the thief has provably not applied them: the master defers
        // the suspend broadcast until every worker reports zero
        // in-flight batches, so this ledger is empty on the normal
        // path — draining it is the ownership invariant's backstop).
        for (_, o) in shared.steal_outgoing.lock().drain() {
            let payload = gthinker_net::frame::open(&o.framed).expect("own sealed frame");
            let batch: Vec<gthinker_task::task::Task<A::Context>> =
                gthinker_task::codec::from_bytes(payload).expect("own batch encoding");
            debug_assert_eq!(batch.len() as u64, o.tasks);
            tasks.extend(batch);
        }
        let dir = shared
            .config
            .checkpoint_dir
            .clone()
            .unwrap_or_else(|| std::env::temp_dir().join("gthinker-checkpoint"));
        let shard = WorkerShard {
            spawn_position: shared.local.spawn_position() as u64,
            tasks,
            partial: shared.agg.take_partial(),
        };
        if let Err(e) = checkpoint::write_shard(&dir, shared.me.index(), &shard) {
            // Report instead of panicking; SuspendDone still goes out
            // so the master's collection loop stays live (the epoch is
            // discarded by validation on the recovery side).
            io_error = Some(e);
        }
        shared.net.send(WorkerId(0), Message::SuspendDone { worker: shared.me });
        if let Some(m) = master.as_mut() {
            let global = m.collect(Collect::Suspends);
            outcome = Some(match m.failed() {
                // A worker died before writing its shard: the epoch is
                // incomplete, so no manifest — surface the failure and
                // let the recovery runner fall back to the last good
                // checkpoint.
                Some(w) => WorkerOutcome::Failed(global, w),
                None => {
                    let manifest = Manifest {
                        num_workers: shared.config.num_workers as u64,
                        global: global.clone(),
                    };
                    if let Err(e) = checkpoint::write_manifest(&dir, &manifest) {
                        io_error.get_or_insert(e);
                    }
                    WorkerOutcome::Suspended(global, dir)
                }
            });
        }
    } else {
        // Final metrics report (carrying the event ring) goes out
        // before the final aggregator sync on the same ordered channel:
        // by the time the master has collected every worker's final
        // sync, it has provably absorbed every final telemetry report.
        if shared.remote_report.load(Ordering::Relaxed) {
            crate::metrics::send_report(&shared, WorkerId(0), true);
        }
        // Final aggregator sync: one per worker, marked final.
        let partial = shared.agg.take_partial();
        shared.net.send(
            WorkerId(0),
            Message::AggregatorSync {
                worker: shared.me,
                payload: to_bytes(&partial),
                is_final: true,
            },
        );
        if let Some(m) = master.as_mut() {
            let global = m.collect(Collect::Finals);
            outcome = Some(match m.failed() {
                Some(w) => WorkerOutcome::Failed(global, w),
                None => WorkerOutcome::Completed(global),
            });
        }
    }

    // All control traffic this worker cares about has been consumed.
    shared.receiver_stop.store(true, Ordering::SeqCst);
    receiver.join().expect("receiver panicked");
    // The receiver dropped the responder ring on exit; each responder
    // drains its channel and sees the hangup.
    for r in responders {
        r.join().expect("responder panicked");
    }
    gc.join().expect("gc panicked");

    shared.sample_memory();
    if let Some(output) = &shared.output {
        output.flush();
    }
    (outcome, io_error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::NoAgg;
    use crate::api::{ComputeEnv, SpawnEnv};
    use gthinker_graph::adj::AdjList;
    use gthinker_graph::compressed::write_compressed;
    use gthinker_graph::gen;
    use gthinker_graph::trim::{trim_graph, GreaterIdTrimmer, LabelSetTrimmer};
    use gthinker_task::task::{Frontier, Task};

    #[derive(Clone, Copy, Debug)]
    enum Trim {
        None,
        GreaterId,
        LabelSet,
    }

    /// An app that is nothing but its trimmer.
    struct TrimApp {
        trim: Trim,
        labels: Vec<Label>,
    }

    impl App for TrimApp {
        type Context = ();
        type Agg = NoAgg;
        fn make_aggregator(&self) -> NoAgg {
            NoAgg
        }
        fn task_spawn(&self, _v: VertexId, _adj: &AdjList, _env: &mut SpawnEnv<'_, Self>) {}
        fn compute(
            &self,
            _t: &mut Task<()>,
            _f: &Frontier,
            _env: &mut ComputeEnv<'_, Self>,
        ) -> bool {
            false
        }
        fn trimmer(&self) -> Option<Box<dyn Trimmer>> {
            match self.trim {
                Trim::None => None,
                Trim::GreaterId => Some(Box::new(GreaterIdTrimmer)),
                Trim::LabelSet => {
                    Some(Box::new(LabelSetTrimmer::new(&[Label(0), Label(2)], self.labels.clone())))
                }
            }
        }
    }

    fn assert_same_table(got: &LocalTable, want: &LocalTable, what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: len");
        assert_eq!(got.vertices(), want.vertices(), "{what}: spawn order");
        for &v in want.vertices() {
            assert_eq!(got.get(v), want.get(v), "{what}: Γ({v})");
            assert_eq!(got.label(v), want.label(v), "{what}: label of {v}");
        }
    }

    /// Every table `build_locals` returns equals the construction it
    /// replaced — trim the whole graph, then keep what `owner` assigns
    /// to the worker — and the mapped arm's table over the same graph.
    #[test]
    fn build_locals_matches_trim_then_filter_and_the_mapped_arm() {
        let partitioner = HashPartitioner::new(3);
        let plain = gen::gnp(90, 0.12, 5);
        let labeled = gen::random_labels(plain.clone(), 3, 11);
        for (g, tag) in [(&plain, "unlabeled"), (&labeled, "labeled")] {
            let gtc = std::env::temp_dir()
                .join(format!("gthinker-build-locals-{}-{tag}.gtc", std::process::id()));
            write_compressed(g, &gtc).unwrap();
            let mapped = GraphSource::Mapped(Arc::new(CompressedGraph::open(&gtc).unwrap()));
            for trim in [Trim::None, Trim::GreaterId, Trim::LabelSet] {
                let labels = g.labels().map(<[Label]>::to_vec).unwrap_or_default();
                let app = Arc::new(TrimApp { trim, labels });
                let reference = match app.trimmer() {
                    Some(t) => trim_graph(g, t.as_ref()),
                    None => g.clone(),
                };
                for workers in [&[0, 1, 2][..], &[1][..]] {
                    let what = format!("{tag} {trim:?} workers {workers:?}");
                    let (locals, label_table) =
                        build_locals(&app, &GraphSource::InMemory(g), partitioner, workers);
                    let (lazy, lazy_labels) = build_locals(&app, &mapped, partitioner, workers);
                    // A process job asks for one worker and gets exactly
                    // that worker's table, nobody else's lists.
                    assert_eq!(locals.len(), workers.len(), "{what}");
                    assert_eq!(label_table.as_deref().map(Vec::as_slice), g.labels(), "{what}");
                    assert_eq!(label_table, lazy_labels, "{what}");
                    for ((&w, local), lazy) in workers.iter().zip(&locals).zip(&lazy) {
                        let owned: Vec<VertexId> = reference
                            .vertices()
                            .filter(|&v| partitioner.owner(v).index() == w)
                            .collect();
                        let records =
                            owned.iter().map(|&v| (v, reference.neighbors(v).clone())).collect();
                        let labels =
                            owned.iter().filter_map(|&v| Some((v, reference.label(v)?))).collect();
                        let want = LocalTable::with_labels(records, labels);
                        assert_same_table(local, &want, &what);
                        assert_same_table(lazy, &want, &format!("{what} (mapped)"));
                    }
                }
            }
            let _ = std::fs::remove_file(&gtc);
        }
    }
}
