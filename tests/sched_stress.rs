//! Randomized termination stress for the tail-latency scheduler: many
//! short jobs with more compers than cores, intra-worker stealing and
//! event-driven parking all active. Each iteration must (a) terminate
//! inside a watchdog window — a lost wakeup or a broken quiescence
//! argument shows up here as a hang — and (b) produce the same
//! aggregate and task count with stealing on and off.
//!
//! Sized so the whole test stays in CI budget: `ITERATIONS` jobs on
//! graphs of ≤ 90 vertices, each pair of runs well under a second.
//!
//! `back_to_back_tiny_jobs_neither_end_early_nor_hang` aims the same
//! harness at the termination protocol itself (DESIGN.md §7): hundreds
//! of jobs so short that the end-of-job races — a steal brokered into a
//! finishing cluster, a delayed or duplicated batch landing on an idle
//! worker mid-wave — happen in most of them.

use gthinker_apps::serial::triangle::count_triangles;
use gthinker_apps::TriangleApp;
use gthinker_core::prelude::*;
use gthinker_graph::gen;
use gthinker_net::fault::FaultConfig;
use gthinker_net::router::LinkConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const ITERATIONS: u64 = 50;
const WATCHDOG: Duration = Duration::from_secs(120);

/// One randomized scheduler configuration. Compers always outnumber
/// the host's cores in CI, so parked threads, fallback timeouts and
/// steal races all interleave on real preemption.
fn random_config(rng: &mut StdRng, intra_steal: bool) -> JobConfig {
    let mut cfg = JobConfig::cluster(rng.gen_range(1..4), rng.gen_range(3..9));
    cfg.task_batch = rng.gen_range(1..7); // tiny C: constant spill + steal churn
    cfg.request_batch = rng.gen_range(4..65);
    cfg.intra_steal = intra_steal;
    cfg.link = LinkConfig {
        latency: Duration::from_micros(rng.gen_range(0u64..300)),
        bytes_per_sec: Some(rng.gen_range(2_000_000u64..50_000_000)),
    };
    cfg
}

/// Runs one job on its own thread and panics if it outlives the
/// watchdog — a termination hang must fail the test, not wedge it.
fn run_with_watchdog(seed: u64, n: usize, cfg: JobConfig, label: &str) -> (u64, u64) {
    let r = job_with_watchdog(seed, n, cfg, label);
    (r.global, r.total_tasks())
}

fn job_with_watchdog(seed: u64, n: usize, cfg: JobConfig, label: &str) -> JobResult<u64> {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let g = gen::gnp(n, 0.12, seed);
        let _ = tx.send(run_job(Arc::new(TriangleApp::default()), &g, &cfg).unwrap());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(result) => {
            handle.join().unwrap();
            result
        }
        Err(_) => panic!("job hung past {WATCHDOG:?} (seed {seed}, {label})"),
    }
}

/// Termination-protocol stress: 300 back-to-back tiny jobs on 3 sim
/// workers with compers outnumbering cores, cluster stealing on, and a
/// data plane that duplicates, reorders and latency-spikes vertex pulls
/// and steal batches. Each job is over within a few milliseconds of
/// starting, so the master's confirmation wave routinely races steal
/// requests, late batches and duplicate deliveries. A `Terminate` sent
/// while any task is still owned somewhere loses that task's triangles
/// — a wrong count; a quiescence edge nobody reports or a wave nobody
/// restarts leaves the job running — the watchdog.
#[test]
fn back_to_back_tiny_jobs_neither_end_early_nor_hang() {
    const JOBS: u64 = 300;
    let mut remote_steals = 0;
    for job in 0..JOBS {
        let mut rng = StdRng::seed_from_u64(0x7E2A11 ^ job);
        let n = rng.gen_range(30..80);
        let graph_seed = rng.gen();
        let expected = count_triangles(&gen::gnp(n, 0.12, graph_seed));

        let intra = rng.gen_bool(0.5);
        let mut cfg = random_config(&mut rng, intra);
        cfg.num_workers = 3;
        cfg.work_stealing = true;
        cfg.compute_budget = rng.gen_bool(0.5).then(|| rng.gen_range(1u64..4));
        // Duplicates and delays only: a dropped batch or pull waits
        // out a retry deadline (`pull_timeout`, 500 ms), which would
        // stretch every job far past the window this test is about.
        cfg.fault = FaultConfig {
            seed: job,
            dup_prob: 0.1,
            reorder_prob: 0.25,
            reorder_jitter: Duration::from_micros(rng.gen_range(100u64..800)),
            spike_prob: 0.05,
            spike: Duration::from_millis(rng.gen_range(1u64..4)),
            ..FaultConfig::default()
        };
        let r = job_with_watchdog(graph_seed, n, cfg, "tiny job");
        assert_eq!(r.global, expected, "job {job} (graph seed {graph_seed}) ended early");
        remote_steals += r.metrics.totals().remote_steals;
    }
    eprintln!("{JOBS} tiny jobs, {remote_steals} cross-worker steal batches");
    assert!(remote_steals > 0, "no job brokered a steal; the stress lost its steal races");
}

/// Randomized cluster-steal + straggler-split stress: multi-worker
/// jobs with cluster stealing racing tiny task batches, randomized
/// compute budgets and the usual comper oversubscription. Each
/// iteration must terminate (steal batches count as outstanding work
/// in the quiescence predicate — a leak hangs here) and produce the
/// serial triangle count with stealing on and off; same-budget runs
/// must also agree on the total task count, since splitting is
/// deterministic and steals only move tasks, never create them.
#[test]
fn randomized_cluster_steal_jobs_terminate_and_agree() {
    const STEAL_ITERATIONS: u64 = 12;
    for iter in 0..STEAL_ITERATIONS {
        let mut rng = StdRng::seed_from_u64(0x57EA1 ^ iter);
        let n = rng.gen_range(40..91);
        let graph_seed = rng.gen();
        let expected = count_triangles(&gen::gnp(n, 0.12, graph_seed));
        let budget = if rng.gen_bool(0.7) { Some(rng.gen_range(1u64..4)) } else { None };

        let intra = rng.gen_bool(0.5);
        let mut steal_cfg = random_config(&mut rng, intra);
        steal_cfg.num_workers = rng.gen_range(2..4);
        steal_cfg.work_stealing = true;
        steal_cfg.compute_budget = budget;
        steal_cfg.sync_interval = Duration::from_millis(rng.gen_range(2u64..10));

        let mut plain_cfg = steal_cfg.clone();
        plain_cfg.work_stealing = false;

        let (agg_steal, tasks_steal) =
            run_with_watchdog(graph_seed, n, steal_cfg, "cluster-steal on");
        let (agg_plain, tasks_plain) =
            run_with_watchdog(graph_seed, n, plain_cfg, "cluster-steal off");

        assert_eq!(agg_steal, expected, "steal run wrong (iter {iter}, seed {graph_seed})");
        assert_eq!(agg_plain, expected, "no-steal run wrong (iter {iter}, seed {graph_seed})");
        assert_eq!(
            tasks_steal, tasks_plain,
            "task counts diverged (iter {iter}, seed {graph_seed}, budget {budget:?})"
        );
    }
}

#[test]
fn randomized_short_jobs_terminate_and_agree() {
    for iter in 0..ITERATIONS {
        // Deterministically seeded per iteration so a CI failure
        // reproduces locally from the printed seed alone.
        let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ iter);
        let n = rng.gen_range(40..91);
        let graph_seed = rng.gen();
        let expected = count_triangles(&gen::gnp(n, 0.12, graph_seed));

        let steal_cfg = random_config(&mut rng, true);
        let plain_cfg = random_config(&mut rng, false);
        let (agg_steal, tasks_steal) =
            run_with_watchdog(graph_seed, n, steal_cfg, "intra-steal on");
        let (agg_plain, tasks_plain) =
            run_with_watchdog(graph_seed, n, plain_cfg, "intra-steal off");

        assert_eq!(agg_steal, expected, "steal run wrong (iter {iter}, seed {graph_seed})");
        assert_eq!(agg_plain, expected, "no-steal run wrong (iter {iter}, seed {graph_seed})");
        assert_eq!(
            tasks_steal, tasks_plain,
            "task counts diverged (iter {iter}, seed {graph_seed})"
        );
    }
}
