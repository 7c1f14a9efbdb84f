//! An NScale-like two-phase engine.
//!
//! NScale (§II) extracts the subgraphs of interest around each vertex
//! with rounds of MapReduce **before any mining starts**, holding them
//! on disk: "this design requires that all subgraphs be constructed
//! before any of them can begin its mining, leading to poor CPU
//! utilization and the straggler's problem". This engine reproduces
//! that architecture:
//!
//! * **Phase 1 (construction)** — every vertex's oriented ego network
//!   `(v, {(u, Γ_>(u) ∩ Γ_>(v))})` is serialized to a disk-resident
//!   subgraph store, sequentially, MapReduce-style (the full shuffle
//!   machinery is elided; what's preserved is the materialize-
//!   everything-first dataflow and its disk volume).
//! * **Phase 2 (mining)** — worker threads stream the store back and
//!   mine each ego network (triangle counting or clique search).
//!
//! An ego network is the G-thinker app's candidate graph, and the
//! clique search its serial solve, both from
//! [`gthinker_apps::maxclique`]: only the construct-then-mine dataflow
//! is NScale's.
//!
//! The reported peak bytes are the materialized store size; phase
//! times are reported separately so the idle-CPU phase is visible.

use crate::outcome::{RunOutcome, RunStatus};
use crate::{anchor_graph, offer};
use gthinker_apps::maxclique::{solve, Clique};
use gthinker_graph::graph::Graph;
use gthinker_graph::ids::VertexId;
use gthinker_graph::subgraph::Subgraph;
use gthinker_task::codec::{from_bytes, to_bytes};
use parking_lot::Mutex;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct NScaleConfig {
    /// Mining threads for phase 2.
    pub threads: usize,
    /// Directory for the subgraph store.
    pub dir: std::path::PathBuf,
    /// Abort when the materialized store exceeds this many bytes.
    pub disk_budget: u64,
}

impl Default for NScaleConfig {
    fn default() -> Self {
        NScaleConfig {
            threads: 4,
            dir: std::env::temp_dir().join("nscale-store"),
            disk_budget: 8 << 30,
        }
    }
}

/// Timing breakdown of an NScale-like run.
#[derive(Clone, Copy, Debug)]
pub struct PhaseTimes {
    /// Subgraph construction (no mining can overlap it).
    pub construction: Duration,
    /// Parallel mining over the disk store.
    pub mining: Duration,
}

/// Builds the disk store of every anchor with at least `min_candidates`
/// candidates — one `(anchor, candidate graph)` record each (phase 1) —
/// then streams it back to `config.threads` threads that run `mine` on
/// one record at a time (phase 2). No mining starts before the store is
/// whole.
fn two_phase(
    graph: &Graph,
    config: &NScaleConfig,
    min_candidates: usize,
    mine: impl Fn(VertexId, Subgraph) + Sync,
) -> (RunOutcome<()>, Option<PhaseTimes>) {
    std::fs::create_dir_all(&config.dir).expect("store dir");
    let path = config.dir.join(format!("ego-{}.store", std::process::id()));
    let start = Instant::now();
    let offsets = match build_store(graph, &path, config.disk_budget, min_candidates) {
        Ok(offsets) => offsets,
        Err(status) => {
            let _ = std::fs::remove_file(&path);
            let peak_bytes = config.disk_budget;
            return (
                RunOutcome { result: None, elapsed: start.elapsed(), peak_bytes, status },
                None,
            );
        }
    };
    let construction = start.elapsed();
    mine_store(&path, &offsets, config.threads, mine);
    let mining = start.elapsed() - construction;
    let _ = std::fs::remove_file(&path);
    let peak_bytes = offsets.last().map_or(0, |&(at, len)| at + len as u64);
    let status = RunStatus::Completed;
    let out = RunOutcome { result: Some(()), elapsed: start.elapsed(), peak_bytes, status };
    (out, Some(PhaseTimes { construction, mining }))
}

/// Phase 1: writes the store. Returns record offsets or a DNF.
fn build_store(
    graph: &Graph,
    path: &Path,
    budget: u64,
    min_candidates: usize,
) -> Result<Vec<(u64, u32)>, RunStatus> {
    let mut w = BufWriter::new(File::create(path).expect("store creatable"));
    let mut offsets = Vec::new();
    let mut at = 0u64;
    for v in graph.vertices() {
        if graph.neighbors(v).greater_than(v).len() < min_candidates {
            continue;
        }
        let bytes = to_bytes(&(v, anchor_graph(graph, v)));
        w.write_all(&bytes).expect("store writable");
        offsets.push((at, bytes.len() as u32));
        at += bytes.len() as u64;
        if at > budget {
            return Err(RunStatus::DiskBudgetExceeded);
        }
    }
    w.flush().expect("store flush");
    Ok(offsets)
}

/// Phase 2: streams the records to `threads` miners.
fn mine_store(
    path: &Path,
    offsets: &[(u64, u32)],
    threads: usize,
    mine: impl Fn(VertexId, Subgraph) + Sync,
) {
    let file = Mutex::new(File::open(path).expect("store readable"));
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                while let Some(&(offset, len)) = offsets.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let mut buf = vec![0u8; len as usize];
                    {
                        let mut f = file.lock();
                        f.seek(SeekFrom::Start(offset)).expect("seek");
                        f.read_exact(&mut buf).expect("read record");
                    }
                    let (v, ego) = from_bytes(&buf).expect("store round-trips");
                    mine(v, ego);
                }
            });
        }
    });
}

/// NScale-like triangle counting. The `RunOutcome` is augmented with
/// phase times through the returned tuple.
pub fn nscale_triangle_count(
    graph: &Graph,
    config: &NScaleConfig,
) -> (RunOutcome<u64>, Option<PhaseTimes>) {
    let total = AtomicU64::new(0);
    // An anchor with fewer than two candidates closes no triangle; each
    // edge among the candidates closes one with the anchor.
    let (out, phases) = two_phase(graph, config, 2, |_, ego| {
        total.fetch_add(ego.num_edges() as u64, Ordering::Relaxed);
    });
    (out.map(|()| total.into_inner()), phases)
}

/// NScale-like maximum clique finding: the G-thinker app's serial solve
/// on each stored candidate graph.
pub fn nscale_max_clique(
    graph: &Graph,
    config: &NScaleConfig,
) -> (RunOutcome<Clique>, Option<PhaseTimes>) {
    // Global bound shared across miners (NScale's mining phase is
    // embarrassingly parallel; sharing the bound only helps it).
    let best = Mutex::new(Vec::new());
    let (out, phases) = two_phase(graph, config, 0, |v, ego| {
        let bound = best.lock().len();
        offer(&best, solve(&[v], &ego, bound));
    });
    (out.map(|()| best.into_inner()), phases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::TestConfig;
    use gthinker_apps::serial::clique::max_clique_brute;
    use gthinker_apps::serial::triangle::count_triangles;
    use gthinker_graph::gen;

    fn config(tag: &str) -> TestConfig<NScaleConfig> {
        TestConfig::new("nscale", tag, |dir| NScaleConfig { threads: 2, dir, ..Default::default() })
    }

    #[test]
    fn triangle_counts_match_serial() {
        for seed in 0..3 {
            let g = gen::gnp(70, 0.12, seed);
            let (out, phases) = nscale_triangle_count(&g, &config("tc"));
            assert!(out.completed());
            assert_eq!(out.result.unwrap(), count_triangles(&g), "seed {seed}");
            assert!(out.peak_bytes > 0, "ego nets were materialized");
            assert!(phases.is_some());
        }
    }

    #[test]
    fn max_clique_matches_brute_force() {
        for seed in 0..3 {
            let g = gen::gnp(15, 0.45, seed);
            let sg = Subgraph::from_graph(&g);
            let expected = max_clique_brute(&sg.to_local()).len();
            let (out, _) = nscale_max_clique(&g, &config("mcf"));
            assert_eq!(out.result.unwrap().len(), expected, "seed {seed}");
        }
    }

    #[test]
    fn anchors_with_one_candidate_or_none_still_answer() {
        let path: Vec<_> = (0..4).map(|i| (VertexId(i), VertexId(i + 1))).collect();
        for (g, expected) in [(Graph::from_edges(5, &path), 2), (Graph::with_vertices(3), 1)] {
            let (out, _) = nscale_max_clique(&g, &config("sparse"));
            assert_eq!(out.result.unwrap().len(), expected);
        }
    }

    #[test]
    fn disk_budget_aborts_construction() {
        let g = gen::complete(60);
        let mut cfg = config("budget");
        cfg.disk_budget = 2_000;
        let (out, phases) = nscale_triangle_count(&g, &cfg);
        assert_eq!(out.status, RunStatus::DiskBudgetExceeded);
        assert!(out.result.is_none());
        assert!(phases.is_none(), "mining never started");
    }

    #[test]
    fn construction_completes_before_mining() {
        let g = gen::barabasi_albert(300, 6, 2);
        let (out, phases) = nscale_triangle_count(&g, &config("phases"));
        assert!(out.completed());
        let p = phases.unwrap();
        // Both phases are real and strictly ordered by design.
        assert!(p.construction + p.mining <= out.elapsed + Duration::from_millis(5));
    }
}
