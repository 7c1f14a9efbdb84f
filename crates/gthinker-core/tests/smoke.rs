//! End-to-end smoke tests of the framework with a minimal application.

use gthinker_core::prelude::*;
use gthinker_graph::gen;
use gthinker_task::codec::{CodecError, Decode, Encode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Counts edges by pulling each vertex's neighbors-greater-than set and
/// summing degrees: every task pulls its larger neighbors (forcing
/// remote traffic in multi-worker runs) and adds |Γ_>(v)| of each
/// pulled vertex's existence (i.e. 1 per pulled vertex = degree sum).
struct DegreeSum;

impl App for DegreeSum {
    type Context = u32; // iteration marker
    type Agg = SumAgg;

    fn make_aggregator(&self) -> SumAgg {
        SumAgg
    }

    fn task_spawn(&self, v: VertexId, adj: &AdjList, env: &mut SpawnEnv<'_, Self>) {
        let mut t = Task::new(0u32);
        for u in adj.greater_than(v) {
            t.pull(*u);
        }
        // Count Γ_>(v) immediately; pulled vertices are counted in
        // compute to exercise the pull path.
        if t.has_pulls() {
            env.add_task(t);
        }
    }

    fn compute(
        &self,
        _task: &mut Task<u32>,
        frontier: &Frontier,
        env: &mut ComputeEnv<'_, Self>,
    ) -> bool {
        // One unit per pulled vertex: total = Σ_v |Γ_>(v)| = |E|.
        env.aggregate(frontier.len() as u64);
        false
    }
}

#[test]
fn single_worker_counts_edges() {
    let g = gen::gnp(300, 0.05, 42);
    let result = run_job(Arc::new(DegreeSum), &g, &JobConfig::single_machine(4)).unwrap();
    assert_eq!(result.global, g.num_edges() as u64);
    assert_eq!(result.outcome, JobOutcome::Completed);
    assert!(result.total_tasks() > 0);
}

#[test]
fn multi_worker_matches_single_worker() {
    let g = gen::barabasi_albert(500, 4, 7);
    let single = run_job(Arc::new(DegreeSum), &g, &JobConfig::single_machine(2)).unwrap();
    let mut cfg = JobConfig::cluster(4, 2);
    cfg.link.latency = Duration::from_micros(50);
    let multi = run_job(Arc::new(DegreeSum), &g, &cfg).unwrap();
    assert_eq!(single.global, g.num_edges() as u64);
    assert_eq!(multi.global, single.global);
    // Remote pulls actually happened.
    let misses: u64 = multi.metrics.totals().cache.misses;
    assert!(misses > 0, "multi-worker run should pull remote vertices");
    assert!(multi.total_net_bytes() > 0);
}

#[test]
fn empty_graph_terminates() {
    let g = gthinker_graph::graph::Graph::with_vertices(0);
    let result = run_job(Arc::new(DegreeSum), &g, &JobConfig::single_machine(1)).unwrap();
    assert_eq!(result.global, 0);
}

/// An app whose compute panics on a specific vertex.
struct PanicsOnVertex(u32);

impl App for PanicsOnVertex {
    type Context = u32;
    type Agg = SumAgg;
    fn make_aggregator(&self) -> SumAgg {
        SumAgg
    }
    fn task_spawn(&self, v: VertexId, _adj: &AdjList, env: &mut SpawnEnv<'_, Self>) {
        env.add_task(Task::new(v.0));
    }
    fn compute(&self, t: &mut Task<u32>, _f: &Frontier, env: &mut ComputeEnv<'_, Self>) -> bool {
        if t.context == self.0 {
            panic!("boom on vertex {}", self.0);
        }
        env.aggregate(1);
        false
    }
}

#[test]
fn udf_panic_aborts_the_job_and_propagates_the_message() {
    let g = gen::gnp(200, 0.02, 1);
    let err = std::panic::catch_unwind(|| {
        let _ = run_job(Arc::new(PanicsOnVertex(50)), &g, &JobConfig::cluster(2, 2));
    })
    .expect_err("job must propagate the UDF panic");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("boom on vertex 50"), "got: {msg}");
}

/// Vertex `v` spawns a task whose work is `v % 9` pieces, numbered
/// `16·v + i`; a task split off one carries the group it was handed.
/// `compute` checks what `ComputeEnv::split` returns against the job's
/// budget `N` and adds up the pieces it keeps, so the global is the
/// same whatever was split.
struct Pieces {
    budget: Option<usize>,
    /// Calls of the `pieces` closure.
    listed: AtomicU64,
}

impl App for Pieces {
    type Context = Vec<u64>;
    type Agg = SumAgg;
    fn make_aggregator(&self) -> SumAgg {
        SumAgg
    }
    fn task_spawn(&self, v: VertexId, _adj: &AdjList, env: &mut SpawnEnv<'_, Self>) {
        let v = u64::from(v.0);
        env.add_task(Task::new((0..v % 9).map(|i| 16 * v + i).collect()));
    }
    fn compute(
        &self,
        t: &mut Task<Vec<u64>>,
        _f: &Frontier,
        env: &mut ComputeEnv<'_, Self>,
    ) -> bool {
        let pieces = std::mem::take(&mut t.context);
        let listed = || {
            self.listed.fetch_add(1, Ordering::Relaxed);
            pieces.clone()
        };
        let kept = match env.split(listed) {
            None => pieces,
            Some((kept, groups)) => {
                let n = self.budget.expect("no split without a budget");
                assert_eq!(kept, pieces[..n], "the task keeps the first N pieces, in order");
                assert!(groups.iter().all(|g| !g.is_empty() && g.len() <= n), "{groups:?}");
                assert_eq!(groups.concat(), pieces[n..], "the groups are the rest, in order");
                groups.into_iter().for_each(|g| env.add_task(Task::new(g)));
                kept
            }
        };
        env.aggregate(kept.iter().sum());
        false
    }
}

#[test]
fn a_split_keeps_the_first_n_pieces_and_hands_out_the_rest_n_per_task() {
    let g = gen::gnp(120, 0.05, 3);
    let pieces = |v: u64| (0..v % 9).map(move |i| 16 * v + i);
    let want: u64 = (0..120).flat_map(pieces).sum();
    // `Some(0)` from the library acts as 1.
    for budget in [None, Some(0), Some(1), Some(3), Some(8)] {
        let n = budget.map(|b: u64| b.max(1) as usize);
        let app = Arc::new(Pieces { budget: n, listed: AtomicU64::new(0) });
        let mut cfg = JobConfig::cluster(2, 2);
        cfg.compute_budget = budget;
        let r = run_job(app.clone(), &g, &cfg).unwrap();
        assert_eq!(r.global, want, "budget {budget:?}");
        let t = r.metrics.totals();
        // Each task with k > N pieces hands out ⌈(k − N) / N⌉ tasks.
        let split: Vec<u64> =
            (0..120).map(|v| v % 9).filter(|&k| n.is_some_and(|n| k > n as u64)).collect();
        let handed_out: u64 =
            split.iter().map(|&k| (k - n.unwrap() as u64).div_ceil(n.unwrap() as u64)).sum();
        assert_eq!(t.yields, split.len() as u64, "budget {budget:?}: one yield per split task");
        assert_eq!(t.split_tasks, handed_out, "budget {budget:?}");
        assert_eq!(t.tasks_finished, 120 + handed_out, "budget {budget:?}");
        let listed = app.listed.load(Ordering::Relaxed);
        assert_eq!(listed == 0, budget.is_none(), "budget {budget:?}: {listed} listings");
    }
}

/// A global value that encodes but never decodes: the master's
/// broadcast of it is corrupt at every other worker.
#[derive(Clone)]
struct Undecodable;

impl Encode for Undecodable {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(0);
    }
}

impl Decode for Undecodable {
    fn decode(_buf: &mut &[u8]) -> Result<Self, CodecError> {
        Err(CodecError::Invalid("undecodable global"))
    }
}

struct UndecodableAgg;

impl Aggregator for UndecodableAgg {
    type Item = ();
    type Partial = ();
    type Global = Undecodable;
    fn init_partial(&self) {}
    fn init_global(&self) -> Undecodable {
        Undecodable
    }
    fn aggregate(&self, _partial: &mut (), _item: ()) {}
    fn merge(&self, _global: &mut Undecodable, _partial: &()) {}
}

/// Pulls like `DegreeSum`, so the job outlives the first broadcast.
struct BroadcastsUndecodable;

impl App for BroadcastsUndecodable {
    type Context = ();
    type Agg = UndecodableAgg;
    fn make_aggregator(&self) -> UndecodableAgg {
        UndecodableAgg
    }
    fn task_spawn(&self, v: VertexId, adj: &AdjList, env: &mut SpawnEnv<'_, Self>) {
        let mut t = Task::new(());
        for u in adj.greater_than(v) {
            t.pull(*u);
        }
        env.add_task(t);
    }
    fn compute(&self, _t: &mut Task<()>, _f: &Frontier, _env: &mut ComputeEnv<'_, Self>) -> bool {
        std::thread::sleep(Duration::from_millis(1));
        false
    }
}

/// A panic while a worker applies an inbound message (here: the
/// master's aggregator broadcast fails to decode at the other worker)
/// fails the job with that message instead of hanging it.
#[test]
fn a_panic_on_an_inbound_message_fails_the_job_with_its_message() {
    let g = gen::gnp(200, 0.05, 2);
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let outcome = std::panic::catch_unwind(|| {
            let _ = run_job(Arc::new(BroadcastsUndecodable), &g, &JobConfig::cluster(2, 2));
        });
        let _ = tx.send(outcome.map_err(|e| e.downcast_ref::<String>().cloned()));
    });
    let outcome = rx.recv_timeout(Duration::from_secs(60)).expect("the job hung");
    let msg = outcome.expect_err("job must propagate the dispatch panic").unwrap_or_default();
    assert!(msg.contains("corrupt aggregator broadcast"), "got: {msg}");
}

#[test]
fn tiny_cache_still_completes() {
    // Force constant eviction pressure.
    let g = gen::gnp(200, 0.1, 3);
    let mut cfg = JobConfig::cluster(3, 2);
    cfg.cache.capacity = 16;
    cfg.cache.num_buckets = 8;
    let result = run_job(Arc::new(DegreeSum), &g, &cfg).unwrap();
    assert_eq!(result.global, g.num_edges() as u64);
    let evictions: u64 = result.metrics.totals().cache.evictions;
    assert!(evictions > 0, "GC must have evicted under a 16-vertex cache");
}

#[test]
fn worker_and_comper_counts_outside_u16_are_invalid_input() {
    // Both counts are packed into u16 ids; neither may be 0.
    let g = gen::gnp(50, 0.1, 3);
    for cfg in [JobConfig::single_machine(0), JobConfig::cluster(65_536, 1)] {
        let e = run_job(Arc::new(DegreeSum), &g, &cfg).map(|_| ()).unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{e}");
    }
}
