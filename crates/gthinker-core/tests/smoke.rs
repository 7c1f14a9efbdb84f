//! End-to-end smoke tests of the framework with a minimal application.

use gthinker_core::prelude::*;
use gthinker_graph::gen;
use std::sync::Arc;
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
