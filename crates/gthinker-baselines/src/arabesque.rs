//! An Arabesque-like level-synchronous filter-process engine.
//!
//! Arabesque grows subgraphs one vertex per iteration: level `i` holds
//! every embedding with `i` vertices that passed the filter; level
//! `i+1` is produced by extending each with one adjacent vertex. The
//! paper's complaint is exactly this **materialization of every node of
//! the set-enumeration tree**: the level buffers grow exponentially and
//! exhaust memory on large/dense graphs. The engine tracks its level
//! sizes and aborts when they exceed a memory budget, reproducing the
//! OOM entries of Table III.
//!
//! Extension is canonical: an embedding `{v₁ < ... < vᵢ}` is extended
//! only by neighbors greater than `vᵢ`, so each vertex set is generated
//! once. This covers clique-style workloads (the filter requires
//! connectivity-by-construction anyway for cliques and triangles).

use crate::outcome::{RunOutcome, RunStatus};
use gthinker_graph::graph::Graph;
use gthinker_graph::ids::VertexId;
use parking_lot::Mutex;
use std::time::{Duration, Instant};

/// A filter-process application.
pub trait FilterProcessApp: Send + Sync {
    /// Keep `embedding` for further extension?
    fn filter(&self, graph: &Graph, embedding: &[VertexId]) -> bool;
    /// Consume a surviving embedding (aggregate, output...).
    fn process(&self, graph: &Graph, embedding: &[VertexId]);
    /// Largest embedding size to explore.
    fn max_size(&self) -> usize;
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct FilterProcessConfig {
    /// Worker threads per level.
    pub threads: usize,
    /// Abort when a level's embedding bytes exceed this.
    pub memory_budget: u64,
    /// Abort when the wall clock exceeds this, also in mid-level.
    pub time_budget: Duration,
}

impl Default for FilterProcessConfig {
    fn default() -> Self {
        FilterProcessConfig {
            threads: 4,
            memory_budget: 4 << 30,
            time_budget: Duration::from_secs(3600),
        }
    }
}

/// Runs the filter-process loop; returns peak level bytes.
pub fn run_filter_process<A: FilterProcessApp>(
    graph: &Graph,
    app: &A,
    config: &FilterProcessConfig,
) -> RunOutcome<()> {
    let start = Instant::now();
    let mut peak: u64 = 0;
    // Level 1: single vertices.
    let mut level: Vec<Vec<VertexId>> = graph
        .vertices()
        .map(|v| vec![v])
        .filter(|e| {
            let keep = app.filter(graph, e);
            if keep {
                app.process(graph, e);
            }
            keep
        })
        .collect();
    let mut size = 1usize;
    while size < app.max_size() && !level.is_empty() {
        let next: Mutex<Vec<Vec<VertexId>>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            let chunk = level.len().div_ceil(config.threads).max(1);
            for slice in level.chunks(chunk) {
                let next = &next;
                s.spawn(move || {
                    let mut mine: Vec<Vec<VertexId>> = Vec::new();
                    for emb in slice {
                        if start.elapsed() > config.time_budget {
                            break;
                        }
                        let last = *emb.last().expect("non-empty embedding");
                        // Canonical extension: neighbors of any member,
                        // greater than the current maximum.
                        let mut cands: Vec<VertexId> = Vec::new();
                        for &m in emb {
                            for u in graph.neighbors(m).greater_than(last) {
                                if !cands.contains(u) && !emb.contains(u) {
                                    cands.push(*u);
                                }
                            }
                        }
                        for u in cands {
                            let mut e2 = emb.clone();
                            e2.push(u);
                            if app.filter(graph, &e2) {
                                app.process(graph, &e2);
                                mine.push(e2);
                            }
                        }
                    }
                    next.lock().extend(mine);
                });
            }
        });
        level = next.into_inner();
        size += 1;
        let bytes: u64 = level.iter().map(|e| 24 + 4 * e.len() as u64).sum();
        peak = peak.max(bytes);
        let over = if start.elapsed() > config.time_budget {
            Some(RunStatus::TimeBudgetExceeded)
        } else if bytes > config.memory_budget {
            Some(RunStatus::MemoryBudgetExceeded)
        } else {
            None
        };
        if let Some(status) = over {
            return RunOutcome { result: None, elapsed: start.elapsed(), peak_bytes: peak, status };
        }
    }
    RunOutcome {
        result: Some(()),
        elapsed: start.elapsed(),
        peak_bytes: peak,
        status: RunStatus::Completed,
    }
}

/// Clique exploration: keep embeddings that are cliques, track the
/// largest (Arabesque's MCF formulation: grow cliques level by level).
pub struct ArabesqueMaxClique {
    best: Mutex<Vec<VertexId>>,
    max_size: usize,
}

impl ArabesqueMaxClique {
    /// Explores cliques up to `max_size` vertices.
    pub fn new(max_size: usize) -> Self {
        ArabesqueMaxClique { best: Mutex::new(Vec::new()), max_size }
    }

    /// The largest clique processed.
    pub fn best(&self) -> Vec<VertexId> {
        self.best.lock().clone()
    }
}

impl FilterProcessApp for ArabesqueMaxClique {
    fn filter(&self, graph: &Graph, embedding: &[VertexId]) -> bool {
        // Incremental clique check: the new (last) vertex must be
        // adjacent to all others.
        let (&last, rest) = embedding.split_last().expect("non-empty");
        rest.iter().all(|&u| graph.has_edge(u, last))
    }

    fn process(&self, _graph: &Graph, embedding: &[VertexId]) {
        let mut best = self.best.lock();
        if embedding.len() > best.len() {
            *best = embedding.to_vec();
        }
    }

    fn max_size(&self) -> usize {
        self.max_size
    }
}

/// Triangle counting as 3-vertex clique embeddings.
pub struct ArabesqueTriangles {
    count: std::sync::atomic::AtomicU64,
}

impl ArabesqueTriangles {
    /// Fresh counter.
    pub fn new() -> Self {
        ArabesqueTriangles { count: std::sync::atomic::AtomicU64::new(0) }
    }

    /// Triangles seen.
    pub fn count(&self) -> u64 {
        self.count.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl Default for ArabesqueTriangles {
    fn default() -> Self {
        Self::new()
    }
}

impl FilterProcessApp for ArabesqueTriangles {
    fn filter(&self, graph: &Graph, embedding: &[VertexId]) -> bool {
        let (&last, rest) = embedding.split_last().expect("non-empty");
        rest.iter().all(|&u| graph.has_edge(u, last))
    }

    fn process(&self, _graph: &Graph, embedding: &[VertexId]) {
        if embedding.len() == 3 {
            self.count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    fn max_size(&self) -> usize {
        3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gthinker_apps::serial::triangle::count_triangles;
    use gthinker_graph::gen;

    #[test]
    fn triangles_match_serial() {
        for seed in 0..3 {
            let g = gen::gnp(60, 0.1, seed);
            let app = ArabesqueTriangles::new();
            let out = run_filter_process(&g, &app, &FilterProcessConfig::default());
            assert!(out.completed());
            assert_eq!(app.count(), count_triangles(&g), "seed {seed}");
        }
    }

    #[test]
    fn max_clique_found_level_by_level() {
        let base = gen::gnp(100, 0.04, 7);
        let (g, members) = gen::plant_clique(&base, 7, 8);
        let app = ArabesqueMaxClique::new(10);
        let out = run_filter_process(&g, &app, &FilterProcessConfig::default());
        assert!(out.completed());
        assert_eq!(app.best(), members);
        assert!(out.peak_bytes > 0);
    }

    #[test]
    fn memory_budget_reproduces_oom() {
        let g = gen::complete(30);
        let app = ArabesqueMaxClique::new(30);
        let cfg = FilterProcessConfig { threads: 2, memory_budget: 10_000, ..Default::default() };
        let out = run_filter_process(&g, &app, &cfg);
        assert_eq!(out.status, RunStatus::MemoryBudgetExceeded);
    }

    #[test]
    fn time_budget_ends_a_level_that_would_not() {
        // C(40, 20) embeddings in the widest level: never, without a bound.
        let g = gen::complete(40);
        let app = ArabesqueMaxClique::new(40);
        let cfg = FilterProcessConfig {
            threads: 2,
            memory_budget: u64::MAX,
            time_budget: Duration::from_millis(50),
        };
        let out = run_filter_process(&g, &app, &cfg);
        assert_eq!(out.status_label(), "timeout");
        assert!(out.elapsed < Duration::from_secs(20), "{:?}", out.elapsed);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = gthinker_graph::graph::Graph::with_vertices(0);
        let app = ArabesqueTriangles::new();
        let out = run_filter_process(&g, &app, &FilterProcessConfig::default());
        assert!(out.completed());
        assert_eq!(app.count(), 0);
    }
}
