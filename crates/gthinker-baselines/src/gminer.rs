//! A G-Miner-like engine: a **disk-resident, LSH-ordered task queue**.
//!
//! The design the paper criticizes (§II): all tasks are generated
//! upfront into a disk-backed priority queue keyed by locality-
//! sensitive hashing over each task's requested vertex set `P(t)`;
//! worker threads pop tasks in LSH order, process one step, and
//! **reinsert** unfinished tasks (decomposition children) back into the
//! disk queue. Because tasks are not processed in generation order,
//! the queue accumulates partially-computed tasks, and serializing
//! them to disk and back dominates the runtime on large inputs —
//! exactly the behaviour Table III attributes to G-Miner.
//!
//! The workloads are maximum clique finding — the G-thinker app's task,
//! through [`gthinker_apps::maxclique`]'s functions, so only the queue
//! differs — and triangle counting over the same candidate graphs.

use crate::outcome::{RunOutcome, RunStatus};
use crate::{anchor_graph, offer};
use gthinker_apps::maxclique::{branches, solve, Clique};
use gthinker_graph::graph::Graph;
use gthinker_graph::hash::hash_u64;
use gthinker_graph::ids::VertexId;
use gthinker_task::codec::{from_bytes, to_bytes, Decode, Encode};
use gthinker_task::task::Task;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct GMinerConfig {
    /// Worker threads.
    pub threads: usize,
    /// Directory for the disk-resident queue log.
    pub dir: std::path::PathBuf,
    /// Decomposition threshold τ (same meaning as the G-thinker app).
    pub tau: usize,
    /// Abort after this much wall-clock time (paper: "> 24 hr").
    pub time_budget: Duration,
    /// Abort when the queue log exceeds this many bytes.
    pub disk_budget: u64,
}

impl Default for GMinerConfig {
    fn default() -> Self {
        GMinerConfig {
            threads: 4,
            dir: std::env::temp_dir().join("gminer-queue"),
            tau: 40_000,
            time_budget: Duration::from_secs(3600),
            disk_budget: 8 << 30,
        }
    }
}

/// LSH key: min-hash over the task's vertex set, so tasks touching
/// similar vertices sort near each other (G-Miner's data-reuse idea).
fn lsh_key(vertices: &[VertexId]) -> u64 {
    vertices.iter().map(|v| hash_u64(v.0 as u64)).min().unwrap_or(0)
}

/// The disk-resident priority queue: an append-only log file plus an
/// in-memory index ordered by LSH key. Every pop is a disk read;
/// every insert is a disk write — the IO-bound core of the design.
struct DiskQueue {
    /// `queue-<pid>-<run>.log`: one file per run, removed when the run
    /// ends.
    path: PathBuf,
    file: Mutex<File>,
    index: Mutex<BTreeMap<(u64, u64), (u64, u32)>>, // (lsh, seq) -> (offset, len)
    seq: AtomicU64,
    tail: AtomicU64,
}

impl DiskQueue {
    fn new(dir: &Path) -> std::io::Result<Self> {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(dir)?;
        let run = RUNS.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("queue-{}-{run}.log", std::process::id()));
        let file =
            File::options().create(true).truncate(true).read(true).write(true).open(&path)?;
        Ok(DiskQueue {
            path,
            file: Mutex::new(file),
            index: Mutex::new(BTreeMap::new()),
            seq: AtomicU64::new(0),
            tail: AtomicU64::new(0),
        })
    }

    /// Appends `task`, keyed by its candidate set.
    fn insert<C: Encode>(&self, task: &Task<C>) -> std::io::Result<()> {
        let key = lsh_key(task.subgraph.vertex_ids());
        let bytes = to_bytes(task);
        let offset = {
            let mut f = self.file.lock();
            let offset = self.tail.fetch_add(bytes.len() as u64, Ordering::SeqCst);
            f.seek(SeekFrom::Start(offset))?;
            f.write_all(&bytes)?;
            offset
        };
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.index.lock().insert((key, seq), (offset, bytes.len() as u32));
        Ok(())
    }

    fn pop<C: Decode>(&self) -> std::io::Result<Option<Task<C>>> {
        let Some((_, (offset, len))) = self.index.lock().pop_first() else { return Ok(None) };
        let mut buf = vec![0u8; len as usize];
        {
            let mut f = self.file.lock();
            f.seek(SeekFrom::Start(offset))?;
            f.read_exact(&mut buf)?;
        }
        from_bytes(&buf)
            .map(Some)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    fn is_empty(&self) -> bool {
        self.index.lock().is_empty()
    }

    fn log_bytes(&self) -> u64 {
        // The log is append-only: reinserted tasks grow it forever
        // (G-Miner's dominant cost on large graphs).
        self.tail.load(Ordering::SeqCst)
    }
}

impl Drop for DiskQueue {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The engine: generates one task per anchor with at least
/// `min_candidates` candidates — G-Miner generates ALL tasks at the
/// beginning (§II) — then `config.threads` threads pop in LSH order and
/// run one `step` per pop until the queue drains or a budget runs out.
fn run_queue(
    graph: &Graph,
    config: &GMinerConfig,
    min_candidates: usize,
    step: impl Fn(Task<Clique>, &DiskQueue) + Sync,
) -> RunOutcome<()> {
    let start = Instant::now();
    let queue = DiskQueue::new(&config.dir).expect("queue dir writable");
    for v in graph.vertices() {
        if graph.neighbors(v).greater_than(v).len() >= min_candidates {
            let mut t = Task::new(vec![v]);
            t.subgraph = anchor_graph(graph, v);
            queue.insert(&t).expect("queue insert");
        }
    }
    let aborted = Mutex::new(None::<RunStatus>);
    let in_flight = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..config.threads {
            s.spawn(|| loop {
                if aborted.lock().is_some() {
                    return;
                }
                if start.elapsed() > config.time_budget {
                    *aborted.lock() = Some(RunStatus::TimeBudgetExceeded);
                    return;
                }
                if queue.log_bytes() > config.disk_budget {
                    *aborted.lock() = Some(RunStatus::DiskBudgetExceeded);
                    return;
                }
                in_flight.fetch_add(1, Ordering::SeqCst);
                let Some(task) = queue.pop().expect("queue pop") else {
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                    // Finished only when nobody is mid-step (a step may
                    // reinsert children).
                    if queue.is_empty() && in_flight.load(Ordering::SeqCst) == 0 {
                        return;
                    }
                    std::thread::sleep(Duration::from_micros(50));
                    continue;
                };
                step(task, &queue);
                in_flight.fetch_sub(1, Ordering::SeqCst);
            });
        }
    });
    let status = aborted.into_inner().unwrap_or(RunStatus::Completed);
    let result = (status == RunStatus::Completed).then_some(());
    RunOutcome { result, elapsed: start.elapsed(), peak_bytes: queue.log_bytes(), status }
}

/// Runs G-Miner-like maximum clique finding. Returns the best clique.
/// A step is one of the G-thinker app's: decompose or solve — but
/// children go back through the disk queue, the IO-bound reinsert the
/// paper highlights.
pub fn gminer_max_clique(graph: &Graph, config: &GMinerConfig) -> RunOutcome<Clique> {
    let best = Mutex::new(Vec::new());
    let out = run_queue(graph, config, 0, |task, queue| {
        let (s, g) = (&task.context, &task.subgraph);
        let bound = best.lock().len();
        if g.num_vertices() > config.tau {
            for child in branches(s, g, bound) {
                queue.insert(&child).expect("queue insert");
            }
        } else {
            offer(&best, solve(s, g, bound));
        }
    });
    out.map(|()| best.into_inner())
}

/// G-Miner-like triangle counting: one task per vertex, generated
/// upfront into the disk queue; each pop deserializes the task's
/// oriented neighborhood subgraph from disk, counts its triangles and
/// discards it. Answers match the other engines; the cost profile is
/// dominated by queue serialization.
pub fn gminer_triangle_count(graph: &Graph, config: &GMinerConfig) -> RunOutcome<u64> {
    let total = AtomicU64::new(0);
    // An anchor with fewer than two candidates closes no triangle; each
    // edge among the candidates closes one with the anchor.
    let out = run_queue(graph, config, 2, |task, _| {
        total.fetch_add(task.subgraph.num_edges() as u64, Ordering::Relaxed);
    });
    out.map(|()| total.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::TestConfig;
    use gthinker_apps::serial::clique::max_clique_brute;
    use gthinker_graph::gen;
    use gthinker_graph::subgraph::Subgraph;

    fn config(tag: &str, tau: usize) -> TestConfig<GMinerConfig> {
        TestConfig::new("gminer", tag, |dir| GMinerConfig {
            threads: 2,
            dir,
            tau,
            ..Default::default()
        })
    }

    fn brute(g: &Graph) -> usize {
        max_clique_brute(&Subgraph::from_graph(g).to_local()).len()
    }

    #[test]
    fn finds_max_clique() {
        for seed in 0..4 {
            let g = gen::gnp(15, 0.45, seed);
            let out = gminer_max_clique(&g, &config("find", 40_000));
            assert!(out.completed());
            assert_eq!(out.result.unwrap().len(), brute(&g), "seed {seed}");
        }
    }

    #[test]
    fn decomposition_through_disk_queue() {
        let g = gen::gnp(30, 0.4, 5);
        let full = gminer_max_clique(&g, &config("d1", 40_000));
        let decomposed = gminer_max_clique(&g, &config("d2", 3));
        assert_eq!(
            full.result.unwrap().len(),
            decomposed.result.unwrap().len(),
            "τ must not change the answer"
        );
        assert!(decomposed.peak_bytes > full.peak_bytes, "reinserting children grows the disk log");
    }

    #[test]
    fn disk_budget_aborts() {
        let g = gen::gnp(40, 0.5, 6);
        let mut cfg = config("disk", 2);
        cfg.disk_budget = 4_096;
        let out = gminer_max_clique(&g, &cfg);
        assert_eq!(out.status, RunStatus::DiskBudgetExceeded);
        assert!(out.result.is_none());
    }

    #[test]
    fn triangle_count_matches_serial() {
        for seed in 0..3 {
            let g = gen::gnp(70, 0.12, seed);
            let out = gminer_triangle_count(&g, &config(&format!("tc{seed}"), 40_000));
            assert!(out.completed());
            assert_eq!(
                out.result.unwrap(),
                gthinker_apps::serial::triangle::count_triangles(&g),
                "seed {seed}"
            );
            assert!(out.peak_bytes > 0, "tasks went through the disk queue");
        }
    }

    /// Every run removes its queue log, one that ran out of disk too,
    /// and a test's queue directory goes with its config.
    #[test]
    fn runs_leave_no_queue_log_behind() {
        let g = gen::gnp(40, 0.5, 6);
        let mut cfg = config("cleanup", 2);
        let _ = std::fs::remove_dir_all(&cfg.dir);
        assert!(gminer_max_clique(&g, &cfg).completed());
        assert!(gminer_triangle_count(&g, &cfg).completed());
        cfg.disk_budget = 4_096;
        assert_eq!(gminer_max_clique(&g, &cfg).status, RunStatus::DiskBudgetExceeded);
        let left: Vec<_> =
            std::fs::read_dir(&cfg.dir).unwrap().map(|e| e.unwrap().path()).collect();
        assert!(left.is_empty(), "{left:?}");
        let dir = cfg.dir.clone();
        drop(cfg);
        assert!(!dir.exists(), "{} outlives its test", dir.display());
    }

    #[test]
    fn planted_clique_found() {
        let base = gen::barabasi_albert(200, 3, 9);
        let (g, members) = gen::plant_clique(&base, 9, 10);
        let out = gminer_max_clique(&g, &config("plant", 40_000));
        assert_eq!(out.result.unwrap(), members);
    }
}
