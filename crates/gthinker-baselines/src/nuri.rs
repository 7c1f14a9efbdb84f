//! A Nuri-like single-threaded **best-first** subgraph expander.
//!
//! Nuri prioritizes the most promising subgraphs (here: clique search
//! states with the highest upper bound `|S| + |ext(S)|`) in a priority
//! queue. Because expansion is best-first rather than depth-first, the
//! number of buffered states can be huge; states beyond an in-memory
//! cap are managed on disk — the IO-bound behaviour §II describes. The
//! engine is deliberately single-threaded, like Nuri's Java prototype.

use crate::outcome::{RunOutcome, RunStatus};
use gthinker_apps::serial::clique::max_clique_above;
use gthinker_graph::adj::AdjList;
use gthinker_graph::graph::Graph;
use gthinker_graph::ids::VertexId;
#[cfg(test)]
use gthinker_graph::subgraph::Subgraph;
use gthinker_task::codec::{from_bytes, to_bytes};
use gthinker_task::task::Task;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct NuriConfig {
    /// States kept in memory; the rest overflow to disk.
    pub memory_states: usize,
    /// Directory for overflowed states.
    pub dir: std::path::PathBuf,
    /// Serial-solve threshold: states at least this small stop
    /// expanding and are solved exactly (keeps runs comparable to the
    /// other engines).
    pub solve_below: usize,
    /// Abort after this much wall-clock time.
    pub time_budget: Duration,
}

impl Default for NuriConfig {
    fn default() -> Self {
        NuriConfig {
            memory_states: 10_000,
            dir: std::env::temp_dir().join("nuri-states"),
            solve_below: 64,
            time_budget: Duration::from_secs(3600),
        }
    }
}

struct State {
    upper_bound: usize,
    task: Task<Vec<VertexId>>,
}

impl PartialEq for State {
    fn eq(&self, other: &Self) -> bool {
        self.upper_bound == other.upper_bound
    }
}
impl Eq for State {}
impl PartialOrd for State {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for State {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.upper_bound.cmp(&other.upper_bound)
    }
}

/// Best-first maximum clique search.
pub fn nuri_max_clique(graph: &Graph, config: &NuriConfig) -> RunOutcome<Vec<VertexId>> {
    let start = Instant::now();
    std::fs::create_dir_all(&config.dir).expect("state dir writable");
    let overflow_path = config.dir.join(format!("overflow-{}.states", std::process::id()));
    let mut overflow: Vec<(u64, u32)> = Vec::new(); // (offset, len) of spilled states
    let mut overflow_tail: u64 = 0;
    let mut disk_bytes: u64 = 0;
    let mut file: Option<std::fs::File> = None;

    let mut heap: BinaryHeap<State> = BinaryHeap::new();
    let mut best: Vec<VertexId> = Vec::new();

    // Seed with per-vertex states.
    for v in graph.vertices() {
        let gv = graph.neighbors(v).greater_than(v);
        if gv.is_empty() {
            if best.is_empty() {
                best = vec![v];
            }
            continue;
        }
        let mut t: Task<Vec<VertexId>> = Task::new(vec![v]);
        for &u in gv {
            let filtered: Vec<VertexId> = graph
                .neighbors(u)
                .greater_than(u)
                .iter()
                .copied()
                .filter(|w| gv.binary_search(w).is_ok())
                .collect();
            t.subgraph.add_vertex(u, AdjList::from_sorted(filtered));
        }
        heap.push(State { upper_bound: 1 + gv.len(), task: t });
    }

    loop {
        if start.elapsed() > config.time_budget {
            let _ = std::fs::remove_file(&overflow_path);
            return RunOutcome {
                result: None,
                elapsed: start.elapsed(),
                peak_bytes: disk_bytes,
                status: RunStatus::TimeBudgetExceeded,
            };
        }
        // Refill from disk when memory runs dry (reads back spilled
        // states — Nuri's on-disk subgraph management).
        if heap.is_empty() {
            let Some((offset, len)) = overflow.pop() else { break };
            use std::io::{Read, Seek, SeekFrom};
            let f = file.as_mut().expect("overflow file exists");
            let mut buf = vec![0u8; len as usize];
            f.seek(SeekFrom::Start(offset)).unwrap();
            f.read_exact(&mut buf).unwrap();
            let task: Task<Vec<VertexId>> = from_bytes(&buf).expect("state round-trip");
            let ub = task.context.len() + task.subgraph.num_vertices();
            heap.push(State { upper_bound: ub, task });
            continue;
        }
        let state = heap.pop().expect("non-empty heap");
        if state.upper_bound <= best.len() {
            // Best-first property: nothing left can beat the bound.
            // (Disk states were spilled with smaller bounds.)
            if overflow.is_empty() {
                break;
            }
            continue;
        }
        let s = &state.task.context;
        let g = &state.task.subgraph;
        if g.num_vertices() <= config.solve_below {
            let local = g.to_local();
            let delta = best.len().saturating_sub(s.len());
            if let Some(found) = max_clique_above(&local, delta) {
                let mut clique = s.clone();
                clique.extend(local.to_global(&found));
                clique.sort_unstable();
                if clique.len() > best.len() {
                    best = clique;
                }
            } else if g.num_vertices() == 0 && s.len() > best.len() {
                best = s.clone();
            }
            continue;
        }
        // Expand: one child per candidate.
        for &u in g.vertex_ids() {
            let ext: Vec<VertexId> = g.neighbors(u).expect("member").iter().collect();
            let ub = s.len() + 1 + ext.len();
            if ub <= best.len() {
                continue;
            }
            let mut child: Task<Vec<VertexId>> = Task::new({
                let mut s2 = s.clone();
                s2.push(u);
                s2
            });
            for &w in &ext {
                let wadj = g.neighbors(w).expect("candidate");
                child.subgraph.add_vertex(w, AdjList::from_sorted(wadj.intersect_slice(&ext)));
            }
            if heap.len() >= config.memory_states {
                // Spill the *worst* in-memory state to disk.
                use std::io::{Seek, SeekFrom, Write};
                let spill = heap.pop().expect("non-empty");
                let bytes = to_bytes(&spill.task);
                let f = file.get_or_insert_with(|| {
                    std::fs::OpenOptions::new()
                        .create(true)
                        .read(true)
                        .write(true)
                        .truncate(true)
                        .open(&overflow_path)
                        .expect("create overflow file")
                });
                f.seek(SeekFrom::Start(overflow_tail)).unwrap();
                f.write_all(&bytes).unwrap();
                overflow.push((overflow_tail, bytes.len() as u32));
                overflow_tail += bytes.len() as u64;
                disk_bytes = disk_bytes.max(overflow_tail);
            }
            heap.push(State { upper_bound: ub, task: child });
        }
    }
    let _ = std::fs::remove_file(&overflow_path);
    RunOutcome {
        result: Some(best),
        elapsed: start.elapsed(),
        peak_bytes: disk_bytes,
        status: RunStatus::Completed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gthinker_apps::serial::clique::max_clique_brute;
    use gthinker_graph::gen;

    fn config(tag: &str) -> NuriConfig {
        NuriConfig {
            dir: std::env::temp_dir().join(format!("nuri-test-{tag}-{}", std::process::id())),
            ..Default::default()
        }
    }

    fn brute_size(g: &Graph) -> usize {
        max_clique_brute(&Subgraph::from_graph(g).to_local()).len()
    }

    #[test]
    fn finds_max_clique_small() {
        for seed in 0..4 {
            let g = gen::gnp(15, 0.45, seed);
            let out = nuri_max_clique(&g, &config("small"));
            assert!(out.completed());
            assert_eq!(out.result.unwrap().len(), brute_size(&g), "seed {seed}");
        }
    }

    #[test]
    fn expansion_path_agrees_with_direct_solve() {
        let g = gen::gnp(60, 0.3, 7);
        let direct = nuri_max_clique(&g, &config("direct"));
        let mut cfg = config("expand");
        cfg.solve_below = 4; // force deep best-first expansion
        let expanded = nuri_max_clique(&g, &cfg);
        assert_eq!(direct.result.unwrap().len(), expanded.result.unwrap().len());
    }

    #[test]
    fn disk_overflow_round_trips_states() {
        let g = gen::gnp(40, 0.4, 3);
        let mut cfg = config("overflow");
        cfg.memory_states = 4;
        cfg.solve_below = 4;
        let out = nuri_max_clique(&g, &cfg);
        assert!(out.completed());
        let direct = nuri_max_clique(&g, &config("overflow-direct"));
        assert_eq!(out.result.unwrap().len(), direct.result.unwrap().len());
        assert!(out.peak_bytes > 0, "states must have spilled");
    }

    #[test]
    fn planted_clique_found() {
        let base = gen::barabasi_albert(150, 3, 4);
        let (g, members) = gen::plant_clique(&base, 8, 5);
        let out = nuri_max_clique(&g, &config("plant"));
        assert_eq!(out.result.unwrap(), members);
    }
}
