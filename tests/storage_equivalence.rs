//! Storage-backend equivalence: every miner must produce the same
//! answer running off the memory-mapped compressed format (lazy
//! per-vertex decode, trim-at-decode) and off a graph file each worker
//! reads only its own partition of (trim-as-read) as off the in-RAM
//! graph (trim-then-partition). This is the contract that lets `.gtc`
//! and plain graph files stand in for loaded graphs everywhere — sim
//! and TCP backends alike.

use gthinker_apps::{
    KPlexApp, MatchingApp, MaxCliqueApp, MaximalCliqueApp, Pattern, QuasiCliqueApp, TriangleApp,
};
use gthinker_core::prelude::*;
use gthinker_graph::compressed::{write_compressed, CompressedGraph};
use gthinker_graph::gen;
use gthinker_graph::graph::Graph;
use gthinker_graph::ids::WorkerId;
use gthinker_graph::load::write_binary;
use gthinker_net::fault::{CrashSchedule, FaultConfig};
use gthinker_net::tcp::ClusterManifest;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const WORKERS: usize = 3;
const COMPERS: usize = 2;

/// `g` on disk twice: encoded to a scratch `.gtc` file and
/// memory-mapped back, and written as a plain `.bin` file for a file
/// source. Both files are deleted on drop so failed tests don't litter
/// /tmp.
struct DiskCopies {
    gtc: PathBuf,
    bin: PathBuf,
    graph: Arc<CompressedGraph>,
}

impl DiskCopies {
    fn of(g: &Graph, name: &str) -> DiskCopies {
        let path = |ext: &str| {
            std::env::temp_dir().join(format!("gthinker-eq-{}-{name}.{ext}", std::process::id()))
        };
        let (gtc, bin) = (path("gtc"), path("bin"));
        write_compressed(g, &gtc).expect("encode");
        write_binary(g, std::fs::File::create(&bin).expect("create .bin")).expect("write .bin");
        let graph = Arc::new(CompressedGraph::open(&gtc).expect("map"));
        DiskCopies { gtc, bin, graph }
    }

    fn mapped(&self) -> GraphSource<'static> {
        GraphSource::Mapped(Arc::clone(&self.graph))
    }

    fn file(&self) -> GraphSource<'static> {
        GraphSource::File(self.bin.clone())
    }
}

impl Drop for DiskCopies {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.gtc);
        let _ = std::fs::remove_file(&self.bin);
    }
}

type GlobalOf<A> = <<A as App>::Agg as Aggregator>::Global;

/// Runs `app` on every backing over the sim router and returns the
/// globals: in RAM, mapped, read from the file.
fn sim_all<A: App>(app: impl Fn() -> Arc<A>, g: &Graph, name: &str) -> [GlobalOf<A>; 3] {
    let cfg = JobConfig::cluster(WORKERS, COMPERS);
    let copies = DiskCopies::of(g, name);
    [g.into(), copies.mapped(), copies.file()].map(|source| {
        let r = run_job(app(), source, &cfg).expect("job");
        assert!(matches!(r.outcome, JobOutcome::Completed));
        r.global
    })
}

#[test]
fn triangle_count_equal_across_backends() {
    let g = gen::barabasi_albert(500, 5, 97);
    let [ram, mapped, file] = sim_all(|| Arc::new(TriangleApp::default()), &g, "tc");
    assert_eq!(ram, mapped);
    assert_eq!(ram, file);
}

#[test]
fn max_clique_equal_across_backends() {
    // MaxCliqueApp installs a trimmer, so this exercises the
    // trim-at-decode and trim-as-read paths against eager
    // trim-then-partition.
    let base = gen::barabasi_albert(300, 4, 101);
    let (g, planted) = gen::plant_clique(&base, 8, 103);
    let [ram, mapped, file] = sim_all(|| Arc::new(MaxCliqueApp::default()), &g, "mcf");
    assert!(ram.len() >= planted.len());
    assert_eq!(ram.len(), mapped.len(), "witness may differ; the optimum size may not");
    assert_eq!(ram.len(), file.len(), "witness may differ; the optimum size may not");
}

#[test]
fn maximal_cliques_equal_across_backends() {
    let g = gen::gnp(130, 0.08, 107);
    let [ram, mapped, file] = sim_all(|| Arc::new(MaximalCliqueApp), &g, "mc");
    assert_eq!(ram, mapped);
    assert_eq!(ram, file);
}

#[test]
fn quasi_cliques_equal_across_backends() {
    let g = gen::gnp(60, 0.12, 109);
    let [ram, mapped, file] = sim_all(|| Arc::new(QuasiCliqueApp::new(0.6, 3, 4)), &g, "qc");
    assert_eq!(ram, mapped);
    assert_eq!(ram, file);
}

#[test]
fn k_plexes_equal_across_backends() {
    let g = gen::gnp(55, 0.12, 113);
    let [ram, mapped, file] = sim_all(|| Arc::new(KPlexApp::new(2, 4, 5)), &g, "kp");
    assert_eq!(ram, mapped);
    assert_eq!(ram, file);
}

#[test]
fn graph_matching_equal_across_backends() {
    // Labeled graph: the label table must round-trip through both files
    // and reach the matching filter on every worker.
    let g = gen::random_labels(gen::gnp(110, 0.06, 127), 3, 0xfeed);
    let labels = g.labels().expect("labeled").to_vec();
    let pattern = Pattern::triangle(
        gthinker_graph::ids::Label(0),
        gthinker_graph::ids::Label(1),
        gthinker_graph::ids::Label(2),
    );
    let copies = DiskCopies::of(&g, "gm-labels");
    for source in [copies.mapped(), copies.file()] {
        assert_eq!(source.labels().expect("read labels"), Some(labels.clone()));
    }
    let [ram, mapped, file] =
        sim_all(|| Arc::new(MatchingApp::new(pattern.clone(), labels.clone())), &g, "gm");
    assert_eq!(ram, mapped);
    assert_eq!(ram, file);
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
    let expected = run_job(Arc::new(TriangleApp::default()), &g, &JobConfig::single_machine(2))
        .expect("reference")
        .global;

    let mapped = DiskCopies::of(&g, "recovery");
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
    let result = Job::new(Arc::new(TriangleApp::default()), mapped.mapped(), &cfg)
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

/// The TCP scenario: three loopback worker threads, each opening
/// `source`, versus the in-RAM sim reference. Exercises the responder
/// path serving lazily decoded (mapped) or read-from-file lists over
/// the wire.
fn tcp_cluster_matches_in_ram_sim(source: impl Fn(&DiskCopies) -> GraphSource<'static>) {
    let g = gen::barabasi_albert(400, 4, 131);
    let reference =
        run_job(Arc::new(TriangleApp::default()), &g, &JobConfig::cluster(WORKERS, COMPERS))
            .expect("sim job")
            .global;

    let copies = DiskCopies::of(&g, "tcp");
    let mut cfg = JobConfig::cluster(WORKERS, COMPERS);
    cfg.sync_interval = Duration::from_millis(5);
    let (manifest, listeners) = ClusterManifest::loopback(WORKERS).expect("bind loopback");
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(w, listener)| {
            let source = source(&copies);
            let cfg = cfg.clone();
            let manifest = manifest.clone();
            std::thread::spawn(move || {
                Job::new(Arc::new(TriangleApp::default()), source, &cfg)
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

#[test]
fn tcp_cluster_on_mapped_graph_matches_in_ram_sim() {
    tcp_cluster_matches_in_ram_sim(DiskCopies::mapped);
}

#[test]
fn tcp_cluster_on_graph_file_matches_in_ram_sim() {
    tcp_cluster_matches_in_ram_sim(DiskCopies::file);
}
