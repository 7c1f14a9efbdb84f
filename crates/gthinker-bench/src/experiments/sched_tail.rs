//! Tail-latency scheduler benchmark — skewed workload (DESIGN.md
//! §"Intra-worker scheduling & wakeup protocol").
//!
//! A handful of hub root tasks each decompose into a `B`-ary task tree
//! whose leaves run the serial branch-and-bound clique miner on a
//! seeded `G(n, 1/2)` instance with a **fixed** lower bound of zero.
//! Because the leaf kernels never consult the global aggregate, total
//! work is identical whatever order the scheduler runs tasks in — the
//! bench measures scheduling, not bound-propagation luck (MaxClique's
//! task counts vary run-to-run with how fast the bound tightens, which
//! made it useless as a scheduler yardstick).
//!
//! All of one worker's roots land in a single spawn batch, so one
//! comper's `Q_task` holds the whole region (the tree's frontier stays
//! below the `3C` spill threshold by construction): exactly the skew
//! intra-worker stealing and event-driven parking exist for. Siblings
//! either steal half the hub queue (default scheduler) or park
//! (`intra_steal = false`). The harness runs both modes, reports
//! wall-clock, summed per-comper idle time and the scheduler counters,
//! asserts the two modes agree on the aggregate and task count, and
//! emits `BENCH_sched.json`.
//!
//! `cargo run -p gthinker-bench --release -- sched_tail [--scale f]`

use gthinker_apps::serial::clique::max_clique_above;
use gthinker_core::prelude::*;
use gthinker_graph::adj::AdjList;
use gthinker_graph::gen;
use gthinker_graph::graph::Graph;
use gthinker_graph::subgraph::Subgraph;
use gthinker_net::router::LinkConfig;
use std::sync::Arc;
use std::time::Duration;

/// Each root vertex spawns a `BREADTH`-ary tree of depth `DEPTH`;
/// interior tasks only fan out, leaves mine a seeded `G(LEAF_N, 1/2)`.
/// `BREADTH^DEPTH ≤ 2C` keeps the hub queue below the spill threshold,
/// so without stealing the region cannot leave its comper.
struct TreeApp {
    breadth: u64,
    depth: u32,
    leaf_n: usize,
}

fn leaf_graph(n: usize, seed: u64) -> gthinker_graph::subgraph::LocalGraph {
    let g = gen::gnp(n, 0.5, seed);
    let mut sg = Subgraph::with_capacity(n);
    for v in g.vertices() {
        sg.add_vertex(v, g.neighbors(v).clone());
    }
    sg.to_local()
}

impl App for TreeApp {
    /// `(depth, seed)` — the position in the task tree.
    type Context = (u32, u64);
    type Agg = SumAgg;

    fn make_aggregator(&self) -> SumAgg {
        SumAgg
    }

    fn task_spawn(&self, v: VertexId, adj: &AdjList, env: &mut SpawnEnv<'_, Self>) {
        // Pull the sibling roots so each run exercises the request /
        // responder / wake-on-response path at least once per root.
        let mut t = Task::new((0u32, u64::from(v.0) + 1));
        for u in adj.iter() {
            t.pull(u);
        }
        env.add_task(t);
    }

    fn compute(
        &self,
        task: &mut Task<Self::Context>,
        _frontier: &Frontier,
        env: &mut ComputeEnv<'_, Self>,
    ) -> bool {
        let (d, seed) = task.context;
        if d < self.depth {
            for i in 0..self.breadth {
                let child = seed.wrapping_mul(self.breadth + 1).wrapping_add(i);
                env.add_task(Task::new((d + 1, child)));
            }
        } else {
            let local = leaf_graph(self.leaf_n, seed);
            let best = max_clique_above(&local, 0).map_or(0, |c| c.len());
            env.aggregate(best as u64);
        }
        false
    }
}

struct RunStats {
    wall_ms: f64,
    idle_ms: f64,
    /// Every counter, summed over the workers.
    sum: WorkerMetricsSnapshot,
    total: u64,
}

fn run_once(g: &Graph, app: Arc<TreeApp>, intra_steal: bool) -> RunStats {
    let mut cfg = JobConfig::cluster(2, 8);
    cfg.task_batch = 32;
    cfg.intra_steal = intra_steal;
    cfg.link = LinkConfig { latency: Duration::from_micros(100), bytes_per_sec: Some(125_000_000) };
    let start = std::time::Instant::now();
    let r = run_job(app, g, &cfg).expect("job runs");
    let wall = start.elapsed();
    let sum = r.metrics.totals();
    RunStats {
        wall_ms: wall.as_secs_f64() * 1e3,
        idle_ms: sum.idle_nanos as f64 / 1e6,
        sum,
        total: r.global,
    }
}

/// Median-by-wall-clock representative of `reps` runs.
fn run_mode(g: &Graph, app: &Arc<TreeApp>, intra_steal: bool, reps: usize) -> RunStats {
    let mut runs: Vec<RunStats> =
        (0..reps).map(|_| run_once(g, Arc::clone(app), intra_steal)).collect();
    runs.sort_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms));
    runs.remove(runs.len() / 2)
}

fn json_mode(s: &RunStats) -> String {
    format!(
        concat!(
            "{{\"wall_ms\": {:.1}, \"idle_ms\": {:.1}, \"steals\": {}, ",
            "\"stolen_tasks\": {}, \"parks\": {}, \"wakeups\": {}, ",
            "\"responses_served\": {}, \"tasks\": {}, \"aggregate\": {}}}"
        ),
        s.wall_ms,
        s.idle_ms,
        s.sum.steals,
        s.sum.stolen_tasks,
        s.sum.parks,
        s.sum.wakeups,
        s.sum.responses_served,
        s.sum.tasks_finished,
        s.total
    )
}

pub fn run(scale: f64) {
    let reps = ((3.0 * scale).round() as usize).clamp(1, 9);
    let app = Arc::new(TreeApp { breadth: 4, depth: 3, leaf_n: 110 });
    println!("Tail-latency scheduler — skewed deterministic task-tree workload\n");
    println!(
        "4 hub roots x {}^{} tree, G({}, 0.5) leaf kernels; 2 workers x 8 compers, C = 32; {reps} rep(s)\n",
        app.breadth, app.depth, app.leaf_n
    );

    let g = gen::complete(4);

    let steal = run_mode(&g, &app, true, reps);
    let nosteal = run_mode(&g, &app, false, reps);
    assert_eq!(steal.total, nosteal.total, "modes must agree on the aggregate");
    assert_eq!(
        steal.sum.tasks_finished, nosteal.sum.tasks_finished,
        "total work is scheduling-independent"
    );

    println!(
        "{:>9} | {:>9} {:>10} | {:>7} {:>7} {:>8} {:>8} | {:>6}",
        "mode", "wall ms", "idle ms", "steals", "stolen", "parks", "wakeups", "tasks"
    );
    crate::rule(78);
    for (name, s) in [("steal", &steal), ("no-steal", &nosteal)] {
        println!(
            "{:>9} | {:>9.1} {:>10.1} | {:>7} {:>7} {:>8} {:>8} | {:>6}",
            name,
            s.wall_ms,
            s.idle_ms,
            s.sum.steals,
            s.sum.stolen_tasks,
            s.sum.parks,
            s.sum.wakeups,
            s.sum.tasks_finished
        );
    }
    println!(
        "\naggregate = {}; wall-clock steal/no-steal = {:.2}, idle steal/no-steal = {:.2}",
        steal.total,
        steal.wall_ms / nosteal.wall_ms.max(1e-9),
        steal.idle_ms / nosteal.idle_ms.max(1e-9)
    );

    // `main_reference` is the same workload measured on the pre-scheduler
    // main (sleep-polling compers, no intra-worker stealing): the
    // numbers the acceptance criterion compares against.
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"sched_tail\",\n",
            "  \"workload\": \"4 roots x 4^3 task tree, gnp(110,0.5) leaf kernels, ",
            "2x8 compers, C=32\",\n",
            "  \"reps\": {},\n",
            "  \"steal\": {},\n",
            "  \"no_steal\": {},\n",
            "  \"main_reference\": {{\"wall_ms\": 464.6, \"idle_ms\": 6218.9, ",
            "\"steals\": 0, \"note\": ",
            "\"median of sleep-poll scheduler runs at bb1b417, same workload/host\"}}\n",
            "}}\n"
        ),
        reps,
        json_mode(&steal),
        json_mode(&nosteal),
    );
    std::fs::write("BENCH_sched.json", &json).expect("write BENCH_sched.json");
    println!("\nwrote BENCH_sched.json");
}
