//! Multi-process job execution over the TCP backend.
//!
//! [`Job::run_process`] is the per-process counterpart of
//! [`Job::run`]: every OS process in the cluster calls it with the
//! **same** graph, config and [`ClusterManifest`], plus its own worker
//! ID and its own bound listener. Each process reads only its own hash
//! partition of the graph (the partitioner is deterministic, so the
//! partitions agree), trimming each list as it reads it, joins the TCP
//! rendezvous, and then runs the exact same worker main loop the sim
//! backend runs — master logic included on worker 0. When the master's
//! termination protocol fires, its Terminate broadcast shuts every
//! process down gracefully.
//!
//! Differences from the in-process runner, by design:
//!
//! * The master's [`JobResult::metrics`] — and with it
//!   [`JobResult::peak_mem_bytes`] and the `total_*` accessors — covers
//!   the **whole cluster**: every process ships a final `MetricsReport`
//!   (sealed snapshot with its event ring) over the control plane just
//!   before its final aggregator sync, and the master splices the
//!   reports — remote event timelines shifted onto its own clock by
//!   each worker's ping/pong offset estimate — into one cluster-wide
//!   snapshot. Every other process gets its own snapshot back as
//!   [`ClusterRole::Worker`].
//! * `config.link` is ignored: the real network provides the latency.
//! * Fault injection is fully supported: drops/dups/delays are seeded
//!   identically on every process by [`gthinker_net::FaultConfig`], and
//!   a crash schedule *really kills the process* (`process::abort`) at
//!   the same logical trigger the sim backend uses.
//!
//! # Crash recovery ([`Job::recover`])
//!
//! A recovering process job repeats the attempt body under the same
//! recovery ledger [`Job::run`] uses; what differs is how the next
//! attempt gets its cluster:
//!
//! 1. Every process rendezvouses through a **persistent**
//!    [`MeshAcceptor`], so a later re-rendezvous reuses the same
//!    listener; a respawned worker dials in with a **bumped generation**
//!    and survivors accept the rejoin (stale-generation hellos are
//!    rejected at the socket).
//! 2. The master broadcasts a [`Message::Resume`] decision right after
//!    each rendezvous: whether to resume, from which validated epoch,
//!    and the authoritative attempt number (which names the next
//!    epoch's checkpoint directory on the shared filesystem — the
//!    paper's HDFS analog,
//!    [`JobConfig::checkpoint_dir`](crate::JobConfig::checkpoint_dir)).
//! 3. The job runs one segment (bounded by `checkpoint_interval`).
//!    Worker death is detected event-style — a closed socket surfaces
//!    as `PeerDown` at the master — with the heartbeat window as the
//!    backstop; the master then broadcasts `Abort`, every survivor
//!    shuts down cleanly and loops back to step 1, waiting (bounded by
//!    `connect_timeout`, with backoff on refused dials) for the
//!    replacement to join.
//!
//! Without [`Job::recover`] the attempt body runs exactly once: no
//! `Resume` on the wire, no default heartbeat, and a dead peer fails
//! the job ([`JobOutcome::Failed`](crate::JobOutcome::Failed)).

use crate::api::App;
use crate::config::JobResult;
use crate::job::{
    build_locals, build_worker, check_counts, new_job_dir, restore_worker, run_workers, Global,
    Job, RecoveryLedger, RecoveryReport,
};
use crate::metrics::{ClusterTelemetry, MetricsRegistry, MetricsSnapshot};
use gthinker_graph::ids::WorkerId;
use gthinker_graph::partition::HashPartitioner;
use gthinker_net::message::Message;
use gthinker_net::tcp::{ClusterManifest, MeshAcceptor, TcpTransport};
use gthinker_net::transport::{NetEndpoint, Transport};
use std::io;
use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What this process was in the cluster, with the payload it gets back.
// Returned once per process at job end; variant size is irrelevant.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum ClusterRole<G> {
    /// Worker 0: the full job result, with cluster-wide
    /// [`JobResult::metrics`] merged from every worker's final report.
    Master(JobResult<G>),
    /// Any other worker: its own final metrics snapshot (one entry; for
    /// worker-local exports — the cluster-wide view lives at the
    /// master) and the recovery rounds it went through.
    Worker(MetricsSnapshot, RecoveryReport),
}

impl<A: App> Job<'_, A> {
    /// Runs this process's worker `me` of a multi-process job, blocking
    /// until the master's termination (or failure) protocol shuts it
    /// down. `connect_timeout` bounds each cluster rendezvous, not the
    /// job.
    ///
    /// `listener` is this worker's mesh listener, bound to
    /// `manifest.addr(me)` (or one of [`ClusterManifest::loopback`]'s):
    /// a process that binds it *before* calling this (which reads its
    /// partition of the graph first) lets faster peers' dials wait in
    /// the kernel backlog instead of being refused into a retry backoff.
    ///
    /// With [`Job::recover`] or `config.suspend_after`,
    /// `config.checkpoint_dir` is required — a directory visible to
    /// every process (the paper's HDFS analog) that epochs or the
    /// suspended job's checkpoint are written under.
    pub fn run_process(
        mut self,
        manifest: &ClusterManifest,
        me: WorkerId,
        listener: TcpListener,
        connect_timeout: Duration,
    ) -> io::Result<ClusterRole<Global<A>>> {
        let config = self.config;
        check_counts(config)?;
        let invalid = |msg: String| Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        let n = config.num_workers;
        if n != manifest.num_workers() {
            return invalid(format!(
                "config says {n} workers but the manifest lists {}",
                manifest.num_workers()
            ));
        }
        if self.resume_from.is_some() {
            return invalid(
                "resume_from applies to Job::run; a multi-process job resumes from the epoch \
                 its master announces (Job::recover)"
                    .into(),
            );
        }
        if (self.recovery.is_some() || config.suspend_after.is_some())
            && config.checkpoint_dir.is_none()
        {
            return invalid(
                "cluster recovery and suspend_after need JobConfig::checkpoint_dir — a directory \
                 every process can reach (the paper's HDFS), holding the checkpoints"
                    .into(),
            );
        }
        let mut ledger = self.recovery.map(|o| RecoveryLedger::new(config, o.max_recoveries));
        let generation = self.recovery.map_or(0, |o| o.generation);
        let start = Instant::now();
        let partitioner = HashPartitioner::new(n as u16);

        // The acceptor outlives every attempt: a re-rendezvous (ours or
        // a respawned peer's) runs through the same listener, and its
        // per-peer generation ledger is what rejects stale hellos.
        let acceptor = MeshAcceptor::new(listener, me, n)?;
        let telemetry = Arc::new(ClusterTelemetry::new(n));

        loop {
            // Same pipeline as the in-process runner: ownership is
            // deterministic, so every process computes the same
            // partitions and this one reads only its own (or, on a
            // mapped source, its own member list over the shared
            // file). Read again per attempt, as the paper's workers
            // reload from HDFS; ownership never moves.
            let (mut locals, label_table) =
                build_locals(&self.app, &self.source, partitioner, &[me.index()])?;
            let local = locals.pop().expect("one local table requested");

            // Rendezvous before building worker state, so a peer that
            // never shows up fails fast. After a failed attempt the
            // survivors' links to the dead peer are gone, so this
            // blocks (dials backing off through connection-refused)
            // until the replacement binds and joins — bounded by
            // `connect_timeout`, after which the whole cluster errors
            // out.
            let mut transport = TcpTransport::connect_via(
                &acceptor,
                manifest,
                me,
                config.fault.clone(),
                connect_timeout,
                generation,
            )?;
            let net = transport.take_endpoint(me);

            let resume = match &mut ledger {
                Some(l) => agree_on_resume(l, &*net, n, connect_timeout)?
                    .map(|epoch| (epoch, l.epoch_dir(epoch))),
                None => None,
            };
            let segment = ledger.as_ref().map(RecoveryLedger::segment);
            let config = segment.as_ref().unwrap_or(config);

            let job_dir = new_job_dir(config);
            let shared = build_worker(
                &self.app,
                config,
                &label_table,
                partitioner,
                me.index(),
                local,
                net,
                &job_dir,
            )?;
            // Every cluster process ships a final metrics report to the
            // master just before its final aggregator sync; the master
            // merges them into the cluster-wide view below.
            shared.remote_report.store(true, Ordering::Relaxed);
            if let Some(l) = &ledger {
                shared.abort_on_failure.store(true, Ordering::Relaxed);
                shared.recoveries.store(l.report.recoveries as u64, Ordering::Relaxed);
                shared.rejoins.store((generation > 0) as u64, Ordering::Relaxed);
            }
            if me == WorkerId(0) {
                let _ = shared.telemetry.set(Arc::clone(&telemetry));
                if let Some(hook) = self.on_telemetry.take() {
                    hook(Arc::clone(&telemetry));
                }
            }
            let resume_global = match &resume {
                Some((epoch, cp)) => {
                    shared.resumed_epoch.store(*epoch as i64, Ordering::Relaxed);
                    Some(restore_worker(&shared, cp)?)
                }
                None => None,
            };

            // The worker main loop is byte-for-byte the sim backend's:
            // compers, GC, inbox dispatch and periodic ticks on the main
            // thread, master logic on 0.
            let attempt = run_workers(
                std::slice::from_ref(&shared),
                resume_global,
                self.observer.as_mut(),
                start,
                &job_dir,
                false,
            )?;

            if me == WorkerId(0) {
                let (global, outcome) =
                    attempt.outcome.expect("master worker returns the job outcome");
                let done = match &mut ledger {
                    // Conservative master-local cadence backoff: the
                    // segment's task count is this process's own.
                    Some(l) => {
                        l.settle::<A>(&outcome, attempt.registry.snapshot().total_tasks())?
                    }
                    None => true,
                };
                if done {
                    return Ok(ClusterRole::Master(JobResult {
                        global,
                        elapsed: start.elapsed(),
                        outcome,
                        metrics: assemble_cluster_metrics(&telemetry, &attempt.registry, me, n),
                        recovery: ledger.map(RecoveryLedger::finish).unwrap_or_default(),
                    }));
                }
            } else {
                // A worker learns the attempt's fate from how it was
                // stopped: Abort (a peer died), Suspend (segment
                // checkpointed) or a clean Terminate (job complete).
                let again = match &mut ledger {
                    Some(l) if shared.aborted.load(Ordering::SeqCst) => {
                        l.count_recovery(format_args!("worker {me} was aborted"))?;
                        true
                    }
                    Some(_) => shared.suspend.load(Ordering::SeqCst),
                    None => false,
                };
                if !again {
                    return Ok(ClusterRole::Worker(
                        attempt.registry.final_snapshot(),
                        ledger.map(RecoveryLedger::finish).unwrap_or_default(),
                    ));
                }
            }
            drop(transport);
        }
    }
}

/// The resume decision that opens every attempt of a recovering
/// process job. The master is authoritative for both the epoch to
/// restore and the attempt number (which names the next epoch's
/// directory identically on every process): it announces them, every
/// other worker waits for the announcement and adopts the attempt
/// number. Returns the epoch to restore, if any.
fn agree_on_resume(
    ledger: &mut RecoveryLedger,
    net: &dyn NetEndpoint,
    n: usize,
    timeout: Duration,
) -> io::Result<Option<u64>> {
    let me = net.id();
    if me == WorkerId(0) {
        let (resume, epoch) = ledger.last_good.map_or((false, 0), |e| (true, e));
        for w in 1..n {
            net.send(
                WorkerId(w as u16),
                Message::Resume { resume, epoch, attempt: ledger.attempt },
            );
        }
        return Ok(ledger.last_good);
    }
    let deadline = Instant::now() + timeout;
    // Faster peers may start mining before our decision arrives; their
    // early data-plane traffic (vertex pulls, steal batches — all
    // reorder-tolerant) is stashed and re-injected below.
    let mut stash = Vec::new();
    let decision = loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "worker {me} rendezvoused but got no resume decision from the \
                     master within {timeout:?}"
                ),
            ));
        }
        match net.recv_timeout(remaining) {
            Some(Message::Resume { resume, epoch, attempt }) => {
                ledger.attempt = attempt;
                break resume.then_some(epoch);
            }
            Some(other) => stash.push(other),
            None => {}
        }
    };
    for m in stash {
        net.requeue(m);
    }
    Ok(decision)
}

/// Cluster-wide metrics at the master: this process's own final
/// snapshot plus every remote worker's final report, each remote event
/// timeline shifted onto the master's clock by the worker's ping/pong
/// offset estimate. A worker whose report never arrived (it crashed)
/// appears as an all-zero entry so the indices stay aligned.
fn assemble_cluster_metrics<A: App>(
    telemetry: &Arc<ClusterTelemetry>,
    registry: &MetricsRegistry<A>,
    me: WorkerId,
    num_workers: usize,
) -> MetricsSnapshot {
    let own = registry.final_snapshot();
    let elapsed = own.elapsed;
    let own_snap = own.workers.into_iter().next().expect("one local worker");
    telemetry.publish(me.index(), own_snap.clone(), true);
    let finals = telemetry.final_snapshots();
    let workers = (0..num_workers)
        .map(|w| match finals[w].clone() {
            Some(mut f) => {
                gthinker_metrics::trace::shift_events(&mut f.events, f.clock_offset_nanos);
                f
            }
            None => Default::default(),
        })
        .collect();
    MetricsSnapshot { elapsed, workers }
}
