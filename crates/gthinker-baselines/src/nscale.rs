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
//! The reported peak bytes are the materialized store size; phase
//! times are reported separately so the idle-CPU phase is visible.

use crate::outcome::{RunOutcome, RunStatus};
use gthinker_apps::serial::clique::max_clique_above;
use gthinker_graph::adj::AdjList;
use gthinker_graph::graph::Graph;
use gthinker_graph::ids::VertexId;
use gthinker_graph::subgraph::Subgraph;
use gthinker_task::codec::{from_bytes, to_bytes, Decode, Encode};
use parking_lot::Mutex;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
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

/// One stored ego network: the anchor and its candidates' oriented,
/// filtered adjacency.
type EgoRecord = (VertexId, Vec<(VertexId, AdjList)>);

/// Builds the disk store (phase 1). Returns record offsets or a DNF.
fn build_store(
    graph: &Graph,
    path: &std::path::Path,
    budget: u64,
) -> Result<(Vec<(u64, u32)>, u64), RunStatus> {
    let file = std::fs::File::create(path).expect("store creatable");
    let mut w = BufWriter::new(file);
    let mut offsets = Vec::new();
    let mut at = 0u64;
    for v in graph.vertices() {
        let gv = graph.neighbors(v).greater_than(v);
        if gv.len() < 2 {
            continue;
        }
        let ego: EgoRecord = (
            v,
            gv.iter()
                .map(|&u| {
                    let filtered: Vec<VertexId> = graph
                        .neighbors(u)
                        .greater_than(u)
                        .iter()
                        .copied()
                        .filter(|w| gv.binary_search(w).is_ok())
                        .collect();
                    (u, AdjList::from_sorted(filtered))
                })
                .collect(),
        );
        let bytes = to_bytes(&ego);
        w.write_all(&bytes).expect("store writable");
        offsets.push((at, bytes.len() as u32));
        at += bytes.len() as u64;
        if at > budget {
            return Err(RunStatus::DiskBudgetExceeded);
        }
    }
    w.flush().expect("store flush");
    Ok((offsets, at))
}

fn read_record(file: &Mutex<std::fs::File>, offset: u64, len: u32) -> EgoRecord {
    let mut buf = vec![0u8; len as usize];
    let mut f = file.lock();
    f.seek(SeekFrom::Start(offset)).expect("seek");
    f.read_exact(&mut buf).expect("read record");
    drop(f);
    from_bytes(&buf).expect("store round-trips")
}

/// Phase-2 driver: streams records to `threads` miners.
fn mine_store<T: Send>(
    path: &std::path::Path,
    offsets: &[(u64, u32)],
    threads: usize,
    mine: impl Fn(EgoRecord) -> T + Sync,
    fold: impl Fn(&mut T, T) + Sync,
    init: impl Fn() -> T + Sync,
) -> T {
    let file = Mutex::new(std::fs::File::open(path).expect("store readable"));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results: Vec<T> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let file = &file;
                let next = &next;
                let mine = &mine;
                let fold = &fold;
                let init = &init;
                s.spawn(move || {
                    let mut acc = init();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= offsets.len() {
                            return acc;
                        }
                        let (offset, len) = offsets[i];
                        fold(&mut acc, mine(read_record(file, offset, len)));
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("miner")).collect()
    });
    let mut total = init();
    for r in results {
        fold(&mut total, r);
    }
    total
}

/// NScale-like triangle counting. The `RunOutcome` is augmented with
/// phase times through the returned tuple.
pub fn nscale_triangle_count(
    graph: &Graph,
    config: &NScaleConfig,
) -> (RunOutcome<u64>, Option<PhaseTimes>) {
    std::fs::create_dir_all(&config.dir).expect("store dir");
    let path = config.dir.join(format!("tc-{}.store", std::process::id()));
    let start = Instant::now();
    let (offsets, bytes) = match build_store(graph, &path, config.disk_budget) {
        Ok(ok) => ok,
        Err(status) => {
            let _ = std::fs::remove_file(&path);
            return (
                RunOutcome {
                    result: None,
                    elapsed: start.elapsed(),
                    peak_bytes: config.disk_budget,
                    status,
                },
                None,
            );
        }
    };
    let construction = start.elapsed();
    let t1 = Instant::now();
    let count = mine_store(
        &path,
        &offsets,
        config.threads,
        |(_, ego)| {
            // Every stored edge among the candidates closes a triangle
            // with the anchor.
            ego.iter().map(|(_, adj)| adj.degree() as u64).sum::<u64>()
        },
        |acc, x| *acc += x,
        || 0u64,
    );
    let mining = t1.elapsed();
    let _ = std::fs::remove_file(&path);
    (
        RunOutcome {
            result: Some(count),
            elapsed: start.elapsed(),
            peak_bytes: bytes,
            status: RunStatus::Completed,
        },
        Some(PhaseTimes { construction, mining }),
    )
}

/// NScale-like maximum clique finding.
pub fn nscale_max_clique(
    graph: &Graph,
    config: &NScaleConfig,
) -> (RunOutcome<Vec<VertexId>>, Option<PhaseTimes>) {
    std::fs::create_dir_all(&config.dir).expect("store dir");
    let path = config.dir.join(format!("mcf-{}.store", std::process::id()));
    let start = Instant::now();
    let (offsets, bytes) = match build_store(graph, &path, config.disk_budget) {
        Ok(ok) => ok,
        Err(status) => {
            let _ = std::fs::remove_file(&path);
            return (
                RunOutcome {
                    result: None,
                    elapsed: start.elapsed(),
                    peak_bytes: config.disk_budget,
                    status,
                },
                None,
            );
        }
    };
    let construction = start.elapsed();
    let t1 = Instant::now();
    // Global bound shared across miners (NScale's mining phase is
    // embarrassingly parallel; sharing the bound only helps it).
    let best: Mutex<Vec<VertexId>> = Mutex::new(Vec::new());
    mine_store(
        &path,
        &offsets,
        config.threads,
        |(v, ego)| {
            let bound = best.lock().len();
            if ego.len() < bound {
                return;
            }
            let mut sub = Subgraph::with_capacity(ego.len());
            for (u, adj) in ego {
                sub.add_vertex(u, adj);
            }
            let local = sub.to_local();
            if let Some(found) = max_clique_above(&local, bound.saturating_sub(1)) {
                let mut clique = vec![v];
                clique.extend(local.to_global(&found));
                clique.sort_unstable();
                let mut b = best.lock();
                if clique.len() > b.len() {
                    *b = clique;
                }
            }
        },
        |_, _| {},
        || (),
    );
    let mining = t1.elapsed();
    let _ = std::fs::remove_file(&path);
    let mut result = best.into_inner();
    if result.is_empty() && graph.num_vertices() > 0 {
        result = vec![VertexId(0)]; // degenerate: no vertex had 2 larger nbrs
    }
    (
        RunOutcome {
            result: Some(result),
            elapsed: start.elapsed(),
            peak_bytes: bytes,
            status: RunStatus::Completed,
        },
        Some(PhaseTimes { construction, mining }),
    )
}

// EgoRecord codec: provided by the generic tuple/Vec impls, but the
// nested tuple needs Encode/Decode for (VertexId, AdjList) pairs, which
// exist via the generic (A, B) impl.
const _: fn() = || {
    fn assert_codec<T: Encode + Decode>() {}
    assert_codec::<EgoRecord>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use gthinker_apps::serial::clique::max_clique_brute;
    use gthinker_apps::serial::triangle::count_triangles;
    use gthinker_graph::gen;

    fn config(tag: &str) -> NScaleConfig {
        NScaleConfig {
            threads: 2,
            dir: std::env::temp_dir().join(format!("nscale-test-{tag}-{}", std::process::id())),
            ..Default::default()
        }
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
