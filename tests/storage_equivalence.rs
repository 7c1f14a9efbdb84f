//! Storage-backend equivalence: every miner must produce the same
//! answer running off the memory-mapped compressed format (lazy
//! per-vertex decode, trim-at-decode) as off the in-RAM graph
//! (trim-then-partition). This is the contract that lets `.gtc` files
//! stand in for loaded graphs everywhere — sim and TCP backends alike.

use gthinker_apps::{
    KPlexApp, MatchingApp, MaxCliqueApp, MaximalCliqueApp, Pattern, QuasiCliqueApp, TriangleApp,
};
use gthinker_core::prelude::*;
use gthinker_graph::compressed::{write_compressed, CompressedGraph};
use gthinker_graph::gen;
use gthinker_graph::graph::Graph;
use gthinker_graph::ids::WorkerId;
use gthinker_net::fault::{CrashSchedule, FaultConfig};
use gthinker_net::tcp::ClusterManifest;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const WORKERS: usize = 3;
const COMPERS: usize = 2;

/// Encodes `g` to a scratch `.gtc` file and memory-maps it back.
/// The file is deleted on drop so failed tests don't litter /tmp.
struct MappedCopy {
    path: PathBuf,
    graph: Arc<CompressedGraph>,
}

impl MappedCopy {
    fn of(g: &Graph, name: &str) -> MappedCopy {
        let path =
            std::env::temp_dir().join(format!("gthinker-eq-{}-{name}.gtc", std::process::id()));
        write_compressed(g, &path).expect("encode");
        let graph = Arc::new(CompressedGraph::open(&path).expect("map"));
        MappedCopy { path, graph }
    }

    fn source(&self) -> GraphSource<'static> {
        GraphSource::Mapped(Arc::clone(&self.graph))
    }
}

impl Drop for MappedCopy {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Runs `app` on both backings over the sim router and returns
/// (in-RAM global, mapped global).
fn sim_both<A: App>(
    app: impl Fn() -> Arc<A>,
    g: &Graph,
    name: &str,
) -> (<<A as App>::Agg as Aggregator>::Global, <<A as App>::Agg as Aggregator>::Global) {
    let cfg = JobConfig::cluster(WORKERS, COMPERS);
    let ram = run_job(app(), g, &cfg).expect("ram job");
    assert!(matches!(ram.outcome, JobOutcome::Completed));
    let mapped_copy = MappedCopy::of(g, name);
    let mapped = run_job(app(), mapped_copy.source(), &cfg).expect("mapped job");
    assert!(matches!(mapped.outcome, JobOutcome::Completed));
    (ram.global, mapped.global)
}

#[test]
fn triangle_count_equal_across_backends() {
    let g = gen::barabasi_albert(500, 5, 97);
    let (ram, mapped) = sim_both(|| Arc::new(TriangleApp), &g, "tc");
    assert_eq!(ram, mapped);
}

#[test]
fn max_clique_equal_across_backends() {
    // MaxCliqueApp installs a trimmer, so this exercises the
    // trim-at-decode path against eager trim-then-partition.
    let base = gen::barabasi_albert(300, 4, 101);
    let (g, planted) = gen::plant_clique(&base, 8, 103);
    let (ram, mapped) = sim_both(|| Arc::new(MaxCliqueApp::default()), &g, "mcf");
    assert!(ram.len() >= planted.len());
    assert_eq!(ram.len(), mapped.len(), "witness may differ; the optimum size may not");
}

#[test]
fn maximal_cliques_equal_across_backends() {
    let g = gen::gnp(130, 0.08, 107);
    let (ram, mapped) = sim_both(|| Arc::new(MaximalCliqueApp), &g, "mc");
    assert_eq!(ram, mapped);
}

#[test]
fn quasi_cliques_equal_across_backends() {
    let g = gen::gnp(60, 0.12, 109);
    let (ram, mapped) = sim_both(|| Arc::new(QuasiCliqueApp::new(0.6, 3, 4)), &g, "qc");
    assert_eq!(ram, mapped);
}

#[test]
fn k_plexes_equal_across_backends() {
    let g = gen::gnp(55, 0.12, 113);
    let (ram, mapped) = sim_both(|| Arc::new(KPlexApp::new(2, 4, 5)), &g, "kp");
    assert_eq!(ram, mapped);
}

#[test]
fn graph_matching_equal_across_backends() {
    // Labeled graph: the label table must round-trip through the
    // compressed file and reach the matching filter on every worker.
    let g = gen::random_labels(gen::gnp(110, 0.06, 127), 3, 0xfeed);
    let labels = g.labels().expect("labeled").to_vec();
    let pattern = Pattern::triangle(
        gthinker_graph::ids::Label(0),
        gthinker_graph::ids::Label(1),
        gthinker_graph::ids::Label(2),
    );
    let mapped_labels = MappedCopy::of(&g, "gm-labels").graph.labels().expect("mapped labels");
    assert_eq!(labels, mapped_labels);
    let (ram, mapped) =
        sim_both(|| Arc::new(MatchingApp::new(pattern.clone(), labels.clone())), &g, "gm");
    assert_eq!(ram, mapped);
}

/// Crash recovery off the mapped backing: a worker is killed mid-job,
/// the run restarts from the last validated checkpoint, and the final
/// answer still matches the fault-free in-RAM reference. This is the
/// contract that lets `.gtc` files back recovering cluster jobs —
/// restored tasks and re-spawned frontiers both decode lazily from the
/// same mapping.
#[test]
fn recovery_on_mapped_graph_matches_fault_free_ram_run() {
    let g = gen::barabasi_albert(700, 5, 137);
    let expected = run_job(Arc::new(TriangleApp), &g, &JobConfig::single_machine(2))
        .expect("reference")
        .global;

    let mapped = MappedCopy::of(&g, "recovery");
    let mut cfg = JobConfig::cluster(WORKERS, COMPERS);
    cfg.checkpoint_interval = Some(Duration::from_millis(150));
    // Generous heartbeat window: on a loaded test host a healthy sim
    // worker can go quiet for over a second, and a false positive here
    // burns a recovery attempt on nothing.
    cfg.heartbeat_timeout = Some(Duration::from_secs(5));
    cfg.fault = FaultConfig {
        crash: Some(CrashSchedule { worker: WorkerId(1), after_messages: Some(20), after: None }),
        ..FaultConfig::default()
    };
    let result = Job::new(Arc::new(TriangleApp), mapped.source(), &cfg)
        .recover(RecoveryOptions::default())
        .run()
        .expect("recovering mapped job");
    let report = &result.recovery;
    assert_eq!(result.outcome, JobOutcome::Completed);
    assert_eq!(result.global, expected, "recovered mapped run must match the fault-free count");
    assert!(report.recoveries >= 1, "the crash must actually fire: {report:?}");
    assert_eq!(report.failed_workers[0], WorkerId(1));
    assert!(
        result.metrics.workers.iter().all(|w| w.recoveries == report.recoveries as u64),
        "worker stats must carry the recovery count"
    );
}

/// The TCP scenario: three loopback worker threads, each opening the
/// compressed source, versus the in-RAM sim reference. Exercises the
/// responder path serving lazily decoded lists over the wire.
#[test]
fn tcp_cluster_on_mapped_graph_matches_in_ram_sim() {
    let g = gen::barabasi_albert(400, 4, 131);
    let reference = run_job(Arc::new(TriangleApp), &g, &JobConfig::cluster(WORKERS, COMPERS))
        .expect("sim job")
        .global;

    let mapped = MappedCopy::of(&g, "tcp");
    let mut cfg = JobConfig::cluster(WORKERS, COMPERS);
    cfg.sync_interval = Duration::from_millis(5);
    let (manifest, listeners) = ClusterManifest::loopback(WORKERS).expect("bind loopback");
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(w, listener)| {
            let source = mapped.source();
            let cfg = cfg.clone();
            let manifest = manifest.clone();
            std::thread::spawn(move || {
                Job::new(Arc::new(TriangleApp), source, &cfg)
                    .run_process(&manifest, WorkerId(w as u16), listener, Duration::from_secs(20))
                    .expect("cluster worker")
            })
        })
        .collect();
    let master = gthinker_tests::join_cluster(handles);
    assert_eq!(master.global, reference);
    assert!(matches!(master.outcome, JobOutcome::Completed));
    assert!(master.total_net_bytes() > 0, "no bytes crossed the TCP mesh");
}
