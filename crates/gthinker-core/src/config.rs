//! Job configuration and result/statistics types.

use crate::job::RecoveryReport;
use crate::metrics::MetricsSnapshot;
use gthinker_graph::ids::WorkerId;
use gthinker_net::fault::FaultConfig;
use gthinker_net::router::LinkConfig;
use gthinker_store::cache::CacheConfig;
use std::path::PathBuf;
use std::time::Duration;

/// Configuration for one G-thinker job.
#[derive(Clone, Debug)]
pub struct JobConfig {
    /// Number of simulated worker machines.
    pub num_workers: usize,
    /// Comper (mining) threads per worker.
    pub compers_per_worker: usize,
    /// Network model between workers.
    pub link: LinkConfig,
    /// Remote-vertex cache configuration (`c_cache`, `α`, buckets, δ).
    pub cache: CacheConfig,
    /// Task-batch size `C` (paper default 150). `Q_task` holds `3C`.
    pub task_batch: usize,
    /// Vertex pull requests per network message.
    pub request_batch: usize,
    /// Aggregator / progress synchronization period (paper default 1 s;
    /// the simulator defaults lower so short jobs still sync).
    pub sync_interval: Duration,
    /// Directory for spilled task batches (a per-job subdirectory is
    /// created inside).
    pub spill_dir: PathBuf,
    /// Enable work stealing between workers.
    pub work_stealing: bool,
    /// Enable intra-worker stealing: an idle comper refilling its
    /// `Q_task` may take the newest half of the largest sibling queue
    /// (between spilled files and fresh spawns in the refill priority).
    pub intra_steal: bool,
    /// Suspend the job (writing a checkpoint) after this long; used by
    /// the fault-tolerance path and tests.
    pub suspend_after: Option<Duration>,
    /// Directory checkpoints are written to when suspending. `Job::run`
    /// makes up a fresh `$TMPDIR/gthinker-checkpoint-<pid>-<seq>` per job
    /// when it is unset; `Job::run_process` refuses to suspend without it.
    pub checkpoint_dir: Option<PathBuf>,
    /// When set, `ComputeEnv::emit` streams records to one
    /// `part-<worker>.out` file per worker in this directory (the
    /// paper's workers commit outputs to HDFS).
    pub output_dir: Option<PathBuf>,
    /// Capacity of each worker's scheduler/cache event ring (events
    /// kept, overwrite-oldest). 0 — the default — disables event
    /// recording entirely; the CLI sets it when `--trace-out` is given.
    pub trace_capacity: usize,
    /// Fault injection on the simulated interconnect (drops, dups,
    /// reorder jitter, latency spikes, scheduled crashes). Disabled by
    /// default; the chaos tests turn it on.
    pub fault: FaultConfig,
    /// Checkpoint cadence for `Job::recover`: the job suspends
    /// and writes an epoch this often. `None` (the default) means no
    /// periodic checkpoints — recovery falls back to rerunning from
    /// scratch.
    pub checkpoint_interval: Option<Duration>,
    /// How long the master waits without hearing from a worker before
    /// declaring it crashed (`JobOutcome::Failed`). `None` — the
    /// default — disables detection; `Job::recover` enables it
    /// (as does an armed crash schedule, so a killed worker cannot hang
    /// the job).
    pub heartbeat_timeout: Option<Duration>,
    /// Straggler splitting, `N`: a task with more than `N` pieces of
    /// work left (an app's first-level branches, rows or kernels)
    /// mines its first `N` and hands the rest out as fresh tasks of at
    /// most `N` pieces each, which other compers or remote thieves can
    /// take (`ComputeEnv::split`). `Some(0)` acts as 1. `None` (the
    /// default) never splits a task.
    pub compute_budget: Option<u64>,
    /// Cluster telemetry streaming: when set, every worker pushes a
    /// compact metrics snapshot (no events) to the master this often,
    /// feeding the master's live cluster view (`--status`, the
    /// Prometheus exposition endpoint). `None` — the default — sends
    /// only the final end-of-job report on multi-worker runs, so the
    /// hot path is unchanged.
    pub report_interval: Option<Duration>,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            num_workers: 1,
            compers_per_worker: std::thread::available_parallelism().map_or(4, |n| n.get().min(8)),
            link: LinkConfig::INSTANT,
            cache: CacheConfig::default(),
            task_batch: gthinker_task::queue::DEFAULT_BATCH,
            request_batch: gthinker_net::batch::DEFAULT_REQUEST_BATCH,
            sync_interval: Duration::from_millis(20),
            spill_dir: std::env::temp_dir().join("gthinker-spill"),
            work_stealing: true,
            intra_steal: true,
            suspend_after: None,
            checkpoint_dir: None,
            output_dir: None,
            trace_capacity: 0,
            fault: FaultConfig::default(),
            checkpoint_interval: None,
            heartbeat_timeout: None,
            compute_budget: None,
            report_interval: None,
        }
    }
}

impl JobConfig {
    /// Convenience: a single-machine job with `compers` threads.
    pub fn single_machine(compers: usize) -> Self {
        JobConfig { num_workers: 1, compers_per_worker: compers, ..Default::default() }
    }

    /// Convenience: a simulated cluster of `workers` × `compers` with a
    /// GigE-like interconnect.
    pub fn cluster(workers: usize, compers: usize) -> Self {
        JobConfig {
            num_workers: workers,
            compers_per_worker: compers,
            link: LinkConfig::gige(),
            ..Default::default()
        }
    }

    /// The pending gate `D = PENDING_FACTOR × C` on `|T_task| + |B_task|`.
    pub fn pending_limit(&self) -> usize {
        PENDING_FACTOR * self.task_batch
    }
}

/// `D` as a multiple of `C` (paper: `D = 8C`).
const PENDING_FACTOR: usize = 8;

/// Why a job returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobOutcome {
    /// Ran to completion; the aggregate is final.
    Completed,
    /// Suspended after `suspend_after`; a checkpoint was written and
    /// the job can be resumed with `Job::resume_from`.
    Suspended {
        /// Checkpoint directory.
        checkpoint: PathBuf,
    },
    /// A worker stopped responding (crashed) and the master's heartbeat
    /// timeout fired; partial results are unreliable and the job should
    /// be rerun from the latest checkpoint (`Job::recover` does this
    /// automatically).
    Failed {
        /// The worker that went silent.
        worker: WorkerId,
    },
}

/// The result of a job.
#[derive(Clone, Debug)]
pub struct JobResult<G> {
    /// Final (or at-suspension) global aggregate.
    pub global: G,
    /// Wall-clock runtime.
    pub elapsed: Duration,
    /// Completion or suspension.
    pub outcome: JobOutcome,
    /// Full end-of-run metrics, one entry per worker of the whole
    /// cluster (also at the master of a multi-process job): every
    /// counter and gauge, per-comper latency histograms and (when
    /// `trace_capacity > 0`) the event timelines.
    pub metrics: MetricsSnapshot,
    /// What crash recovery did along the way; all zero unless the job
    /// ran with `Job::recover`.
    pub recovery: RecoveryReport,
}

impl<G> JobResult<G> {
    /// Maximum per-worker peak memory (the paper's "peak VM memory,
    /// maximum over machines").
    pub fn peak_mem_bytes(&self) -> u64 {
        self.metrics.totals().peak_mem_bytes
    }

    /// Total network bytes sent by all workers.
    pub fn total_net_bytes(&self) -> u64 {
        self.metrics.totals().net_bytes_sent
    }

    /// Total tasks finished across workers.
    pub fn total_tasks(&self) -> u64 {
        self.metrics.total_tasks()
    }

    /// Total bytes ever spilled to disk (the paper reports this as
    /// negligible).
    pub fn total_spill_bytes(&self) -> u64 {
        self.metrics.totals().spill_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WorkerMetricsSnapshot;

    #[test]
    fn defaults_follow_paper() {
        let c = JobConfig::default();
        assert_eq!(c.task_batch, 150);
        assert_eq!(c.pending_limit(), 1200, "D = 8C");
        assert_eq!(c.cache.capacity, 2_000_000);
        assert!((c.cache.alpha - 0.2).abs() < 1e-9);
        assert!(c.intra_steal, "intra-worker stealing is on by default");
    }

    #[test]
    fn cluster_config_uses_latency() {
        let c = JobConfig::cluster(4, 2);
        assert_eq!(c.num_workers, 4);
        assert_eq!(c.compers_per_worker, 2);
        assert!(!c.link.is_instant());
        let s = JobConfig::single_machine(3);
        assert!(s.link.is_instant());
    }

    #[test]
    fn result_accessors_aggregate_worker_metrics() {
        let worker = |peak_mem_bytes, net_bytes_sent, tasks_finished| WorkerMetricsSnapshot {
            peak_mem_bytes,
            net_bytes_sent,
            tasks_finished,
            ..Default::default()
        };
        let r = JobResult {
            global: (),
            elapsed: Duration::ZERO,
            outcome: JobOutcome::Completed,
            metrics: MetricsSnapshot {
                elapsed: Duration::ZERO,
                workers: vec![worker(10, 5, 2), worker(30, 7, 3)],
            },
            recovery: RecoveryReport::default(),
        };
        assert_eq!(r.peak_mem_bytes(), 30);
        assert_eq!(r.total_net_bytes(), 12);
        assert_eq!(r.total_tasks(), 5);
    }
}
