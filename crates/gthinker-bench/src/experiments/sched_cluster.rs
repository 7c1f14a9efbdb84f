//! Cluster-wide work stealing benchmark — skewed 3-worker workload
//! (DESIGN.md §12 "Cluster-wide stealing").
//!
//! Every heavy root task lands on worker 0: `task_spawn` hashes the
//! spawn vertex with the same partitioner the runtime uses and only
//! vertices owned by worker 0 grow a task tree. Interior nodes fan out,
//! leaves are *stragglers* — each runs a batch of timed kernels (a
//! seeded `G(n, 1/2)` clique search for the aggregate plus a fixed
//! think time), so total work is identical whatever worker runs which
//! task and wall clock measures *scheduling* rather than the host's
//! core count (compers overlap think time even on a 1-core box).
//! Without cluster stealing workers 1 and 2 idle for the whole job;
//! with it the master observes the imbalance from progress reports and
//! brokers steal batches.
//!
//! Three ablations:
//! * `steal` — cluster stealing on, `compute_budget` set, so straggler
//!   leaves split into per-kernel subtasks that spread across the
//!   cluster;
//! * `split_off` — stealing on but no budget: leaves stay indivisible,
//!   stealing moves only whole stragglers;
//! * `steal_off` — no cluster stealing: the skewed region never leaves
//!   worker 0.
//!
//! The harness asserts all modes agree on the aggregate, reports wall
//! clock, per-worker idle time and the steal/split counters, and emits
//! `BENCH_steal.json`.
//!
//! `cargo run -p gthinker-bench --release -- sched_cluster [--scale f]`

use gthinker_apps::serial::clique::max_clique_above;
use gthinker_core::prelude::*;
use gthinker_graph::adj::AdjList;
use gthinker_graph::gen;
use gthinker_graph::graph::Graph;
use gthinker_graph::partition::HashPartitioner;
use gthinker_graph::subgraph::Subgraph;
use gthinker_net::router::LinkConfig;
use std::sync::Arc;
use std::time::Duration;

const WORKERS: u16 = 3;
const COMPERS: usize = 4;
const BREADTH: u64 = 3;
const DEPTH: u32 = 2;
const LEAF_KERNELS: u64 = 6;
const LEAF_N: usize = 60;
/// Fixed think time per kernel; dominates the kernel's CPU cost so the
/// bench stays scheduling-bound on any host.
const KERNEL_TIME: Duration = Duration::from_millis(8);

/// Roots owned by worker 0 grow a `BREADTH`-ary tree of depth `DEPTH`;
/// each leaf runs `LEAF_KERNELS` timed kernels (a straggler). Under a
/// compute budget a leaf splits its kernel batch into fresh tasks of at
/// most `budget` kernels each — the straggler-splitting half of the
/// cluster-stealing design.
struct SkewApp;

fn leaf_kernel(seed: u64) -> u64 {
    let local = Subgraph::from_graph(&gen::gnp(LEAF_N, 0.5, seed)).to_local();
    let best = max_clique_above(&local, 0).map_or(0, |c| c.len()) as u64;
    std::thread::sleep(KERNEL_TIME);
    best
}

impl App for SkewApp {
    /// `(depth, seed, kernel_seeds)` — tree position plus, for a leaf,
    /// the seeds of the kernels it still has to run.
    type Context = (u32, u64, Vec<u64>);
    type Agg = SumAgg;

    fn make_aggregator(&self) -> SumAgg {
        SumAgg
    }

    fn task_spawn(&self, v: VertexId, _adj: &AdjList, env: &mut SpawnEnv<'_, Self>) {
        // The whole workload hangs off worker 0's vertices: maximal skew.
        if HashPartitioner::new(WORKERS).owner(v).index() != 0 {
            return;
        }
        env.add_task(Task::new((0u32, u64::from(v.0) + 1, Vec::new())));
    }

    fn compute(
        &self,
        task: &mut Task<Self::Context>,
        _frontier: &Frontier,
        env: &mut ComputeEnv<'_, Self>,
    ) -> bool {
        let (d, seed, kernels) = task.context.clone();
        if !kernels.is_empty() {
            // A straggler leaf (or a chunk split off one).
            if env.compute_budget().is_some_and(|b| kernels.len() as u64 > b) {
                let budget = env.compute_budget().unwrap().max(1) as usize;
                let mut spawned = 0u64;
                for chunk in kernels.chunks(budget) {
                    env.add_task(Task::new((d, seed, chunk.to_vec())));
                    spawned += 1;
                }
                env.note_split(spawned);
                return false;
            }
            let mut sum = 0u64;
            for &k in &kernels {
                sum += leaf_kernel(k);
            }
            env.aggregate(sum);
            return false;
        }
        if d < DEPTH {
            for i in 0..BREADTH {
                let child = seed.wrapping_mul(BREADTH + 1).wrapping_add(i);
                env.add_task(Task::new((d + 1, child, Vec::new())));
            }
        } else {
            let seeds: Vec<u64> =
                (0..LEAF_KERNELS).map(|i| seed.wrapping_mul(LEAF_KERNELS + 1) + i).collect();
            env.add_task(Task::new((d, seed, seeds)));
        }
        false
    }
}

struct RunStats {
    wall_ns: u128,
    idle_ns: Vec<u128>,
    /// Every counter, summed over the workers.
    sum: WorkerMetricsSnapshot,
    total: u64,
}

fn run_once(g: &Graph, steal: bool, budget: Option<u64>) -> RunStats {
    let mut cfg = JobConfig::cluster(WORKERS as usize, COMPERS);
    cfg.task_batch = 16;
    cfg.sync_interval = Duration::from_millis(5);
    cfg.work_stealing = steal;
    cfg.compute_budget = budget;
    cfg.link = LinkConfig { latency: Duration::from_micros(100), bytes_per_sec: Some(125_000_000) };
    let start = std::time::Instant::now();
    let r = run_job(Arc::new(SkewApp), g, &cfg).expect("job runs");
    let wall = start.elapsed();
    RunStats {
        wall_ns: wall.as_nanos(),
        idle_ns: r.metrics.workers.iter().map(|w| w.idle_nanos as u128).collect(),
        sum: r.metrics.totals(),
        total: r.global,
    }
}

/// Median-by-wall-clock representative of `reps` runs.
fn run_mode(g: &Graph, steal: bool, budget: Option<u64>, reps: usize) -> RunStats {
    let mut runs: Vec<RunStats> = (0..reps).map(|_| run_once(g, steal, budget)).collect();
    runs.sort_by_key(|r| r.wall_ns);
    runs.remove(runs.len() / 2)
}

fn json_mode(s: &RunStats) -> String {
    let idle: Vec<String> = s.idle_ns.iter().map(|n| n.to_string()).collect();
    format!(
        concat!(
            "{{\"wall_ns\": {}, \"idle_ns_per_worker\": [{}], \"idle_ns_total\": {}, ",
            "\"remote_steals\": {}, \"remote_stolen_tasks\": {}, \"steal_batch_bytes\": {}, ",
            "\"yields\": {}, \"split_tasks\": {}, \"tasks\": {}, \"aggregate\": {}}}"
        ),
        s.wall_ns,
        idle.join(", "),
        s.idle_ns.iter().sum::<u128>(),
        s.sum.remote_steals,
        s.sum.remote_stolen_tasks,
        s.sum.steal_batch_bytes,
        s.sum.yields,
        s.sum.split_tasks,
        s.sum.tasks_finished,
        s.total
    )
}

pub fn run(scale: f64) {
    let reps = ((3.0 * scale).round() as usize).clamp(1, 9);
    let budget = Some(1u64);
    let g = gen::complete(24);
    let roots =
        g.vertices().filter(|&v| HashPartitioner::new(WORKERS).owner(v).index() == 0).count();
    println!("Cluster-wide stealing — skewed deterministic task-tree workload\n");
    println!(
        "{roots} hub roots (all on worker 0) x {BREADTH}^{DEPTH} tree, {LEAF_KERNELS} \
         8ms timed G({LEAF_N}, 0.5) kernels per leaf; {WORKERS} workers x {COMPERS} compers; {reps} rep(s)\n"
    );

    let steal = run_mode(&g, true, budget, reps);
    let split_off = run_mode(&g, true, None, reps);
    let steal_off = run_mode(&g, false, budget, reps);
    assert_eq!(steal.total, steal_off.total, "modes must agree on the aggregate");
    assert_eq!(steal.total, split_off.total, "modes must agree on the aggregate");
    assert!(steal.sum.remote_steals > 0, "skew must trigger cluster steals");
    assert_eq!(steal_off.sum.remote_steals, 0, "steal-off must not steal");

    println!(
        "{:>10} | {:>9} {:>10} | {:>7} {:>7} {:>9} | {:>7} {:>7} | {:>6}",
        "mode", "wall ms", "idle ms", "steals", "stolen", "bytes", "yields", "splits", "tasks"
    );
    crate::rule(92);
    for (name, s) in [("steal", &steal), ("split-off", &split_off), ("steal-off", &steal_off)] {
        println!(
            "{:>10} | {:>9.1} {:>10.1} | {:>7} {:>7} {:>9} | {:>7} {:>7} | {:>6}",
            name,
            s.wall_ns as f64 / 1e6,
            s.idle_ns.iter().sum::<u128>() as f64 / 1e6,
            s.sum.remote_steals,
            s.sum.remote_stolen_tasks,
            s.sum.steal_batch_bytes,
            s.sum.yields,
            s.sum.split_tasks,
            s.sum.tasks_finished
        );
    }
    let wall_ratio = steal.wall_ns as f64 / steal_off.wall_ns.max(1) as f64;
    let idle_ratio = steal.idle_ns.iter().sum::<u128>() as f64
        / steal_off.idle_ns.iter().sum::<u128>().max(1) as f64;
    println!(
        "\naggregate = {}; wall steal/steal-off = {:.2}, summed idle steal/steal-off = {:.2}",
        steal.total, wall_ratio, idle_ratio
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"sched_cluster\",\n",
            "  \"workload\": \"{} roots on worker 0 x {}^{} task tree, {} 8ms timed gnp({},0.5) ",
            "kernels per leaf, {} workers x {} compers\",\n",
            "  \"reps\": {},\n",
            "  \"compute_budget\": 1,\n",
            "  \"steal\": {},\n",
            "  \"split_off\": {},\n",
            "  \"steal_off\": {},\n",
            "  \"wall_ratio_steal_vs_off\": {:.3},\n",
            "  \"idle_ratio_steal_vs_off\": {:.3}\n",
            "}}\n"
        ),
        roots,
        BREADTH,
        DEPTH,
        LEAF_KERNELS,
        LEAF_N,
        WORKERS,
        COMPERS,
        reps,
        json_mode(&steal),
        json_mode(&split_off),
        json_mode(&steal_off),
        wall_ratio,
        idle_ratio,
    );
    std::fs::write("BENCH_steal.json", &json).expect("write BENCH_steal.json");
    println!("\nwrote BENCH_steal.json");
}
