//! A Nuri-like single-threaded **best-first** subgraph expander.
//!
//! Nuri prioritizes the most promising subgraphs (here: clique search
//! states with the highest upper bound `|S| + |ext(S)|`) in a priority
//! queue. Because expansion is best-first rather than depth-first, the
//! number of buffered states can be huge; states beyond an in-memory
//! cap — the least promising ones — are managed on disk, the IO-bound
//! behaviour §II describes. The engine is deliberately single-threaded,
//! like Nuri's Java prototype. A state is the G-thinker app's task,
//! built, expanded and solved by [`gthinker_apps::maxclique`]'s
//! functions: only the order and the storage of states are Nuri's.

use crate::anchor_graph;
use crate::outcome::{RunOutcome, RunStatus};
use gthinker_apps::maxclique::{branches, solve, Clique};
use gthinker_graph::graph::Graph;
use gthinker_task::codec::{from_bytes, to_bytes};
use gthinker_task::task::Task;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
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

/// The best-first state store: the `cap` most promising states in
/// memory, ordered by upper bound `|S| + |ext(S)|`; a state pushed out
/// of memory is the least promising one and goes to an overflow file,
/// read back (last written first) once memory runs dry.
struct States {
    memory: BTreeMap<(usize, u64), Task<Clique>>,
    cap: usize,
    seq: u64,
    path: PathBuf,
    file: File,
    /// `(upper bound, offset, len)` of each state on disk.
    spilled: Vec<(usize, u64, u32)>,
    tail: u64,
}

impl States {
    fn new(cap: usize, path: PathBuf) -> std::io::Result<Self> {
        let file =
            File::options().create(true).read(true).write(true).truncate(true).open(&path)?;
        let (memory, spilled) = (BTreeMap::new(), Vec::new());
        Ok(States { memory, cap, seq: 0, path, file, spilled, tail: 0 })
    }

    fn push(&mut self, task: Task<Clique>) -> std::io::Result<()> {
        let bound = task.context.len() + task.subgraph.num_vertices();
        self.memory.insert((bound, self.seq), task);
        self.seq += 1;
        if self.memory.len() > self.cap {
            let ((bound, _), worst) = self.memory.pop_first().expect("over the cap");
            let bytes = to_bytes(&worst);
            self.file.seek(SeekFrom::Start(self.tail))?;
            self.file.write_all(&bytes)?;
            self.spilled.push((bound, self.tail, bytes.len() as u32));
            self.tail += bytes.len() as u64;
        }
        Ok(())
    }

    /// The most promising state in memory, else the last one spilled.
    fn pop(&mut self) -> std::io::Result<Option<Task<Clique>>> {
        if let Some((_, task)) = self.memory.pop_last() {
            return Ok(Some(task));
        }
        let Some((_, offset, len)) = self.spilled.pop() else { return Ok(None) };
        let mut buf = vec![0u8; len as usize];
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.read_exact(&mut buf)?;
        from_bytes(&buf)
            .map(Some)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

impl Drop for States {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Best-first maximum clique search over the G-thinker app's tasks.
pub fn nuri_max_clique(graph: &Graph, config: &NuriConfig) -> RunOutcome<Clique> {
    let start = Instant::now();
    std::fs::create_dir_all(&config.dir).expect("state dir writable");
    let path = config.dir.join(format!("overflow-{}.states", std::process::id()));
    let mut states = States::new(config.memory_states, path).expect("state dir writable");
    let mut best: Clique = Vec::new();
    for v in graph.vertices() {
        let mut t = Task::new(vec![v]);
        t.subgraph = anchor_graph(graph, v);
        states.push(t).expect("overflow writable");
    }
    while let Some(task) = states.pop().expect("overflow readable") {
        if start.elapsed() > config.time_budget {
            return RunOutcome {
                result: None,
                elapsed: start.elapsed(),
                peak_bytes: states.tail,
                status: RunStatus::TimeBudgetExceeded,
            };
        }
        let (s, g) = (&task.context, &task.subgraph);
        if s.len() + g.num_vertices() <= best.len() {
            // Best-first: what is left in memory cannot win either.
            states.memory.clear();
        } else if g.num_vertices() <= config.solve_below {
            best = solve(s, g, best.len()).unwrap_or(best);
        } else {
            for child in branches(s, g, best.len()) {
                states.push(child).expect("overflow writable");
            }
        }
    }
    RunOutcome {
        result: Some(best),
        elapsed: start.elapsed(),
        peak_bytes: states.tail,
        status: RunStatus::Completed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::TestConfig;
    use gthinker_apps::serial::clique::max_clique_brute;
    use gthinker_graph::adj::AdjList;
    use gthinker_graph::gen;
    use gthinker_graph::ids::VertexId;
    use gthinker_graph::subgraph::Subgraph;

    fn config(tag: &str) -> TestConfig<NuriConfig> {
        TestConfig::new("nuri", tag, |dir| NuriConfig { dir, ..Default::default() })
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
        for seed in 0..4 {
            let g = gen::gnp(16, 0.45, seed);
            let mut cfg = config("overflow-small");
            cfg.memory_states = 2;
            cfg.solve_below = 2;
            let out = nuri_max_clique(&g, &cfg);
            assert!(out.peak_bytes > 0, "seed {seed}: states must have spilled");
            assert_eq!(out.result.unwrap().len(), brute_size(&g), "seed {seed}");
        }
    }

    #[test]
    fn overflow_takes_the_least_promising_states() {
        let cfg = config("order");
        std::fs::create_dir_all(&cfg.dir).unwrap();
        let mut states = States::new(4, cfg.dir.join("states")).unwrap();
        for (i, bound) in [3u32, 9, 1, 7, 5, 8, 2, 6, 4].into_iter().enumerate() {
            let mut t = Task::new(vec![VertexId(i as u32)]);
            for w in 1..bound {
                t.subgraph.add_vertex(VertexId(100 + w), AdjList::new());
            }
            states.push(t).unwrap();
        }
        let kept = states.memory.keys().map(|&(bound, _)| bound).min().unwrap();
        let spilled = states.spilled.iter().map(|&(bound, ..)| bound).max().unwrap();
        assert!(spilled <= kept, "spilled a state of bound {spilled}, kept one of {kept}");
        let mut bounds = Vec::new();
        while let Some(t) = states.pop().unwrap() {
            bounds.push(t.context.len() + t.subgraph.num_vertices());
        }
        assert_eq!(bounds[..4], [9, 8, 7, 6], "memory pops best-first");
        bounds.sort_unstable();
        assert_eq!(bounds, (1..=9).collect::<Vec<_>>(), "every spilled state reads back");
    }

    #[test]
    fn planted_clique_found() {
        let base = gen::barabasi_albert(150, 3, 4);
        let (g, members) = gen::plant_clique(&base, 8, 5);
        let out = nuri_max_clique(&g, &config("plant"));
        assert_eq!(out.result.unwrap(), members);
    }
}
