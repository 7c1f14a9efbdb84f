//! Distributed triangle counting (TC) and listing: one task.
//!
//! With adjacency lists trimmed to `Γ_>`, every triangle `v < u < w`
//! is found exactly once by the task anchored at its minimum vertex
//! `v`: it pulls `Γ_>(u)` for every `u ∈ Γ_>(v)` and merges each with
//! the part of `Γ_>(v)` above `u` only, since nothing in `Γ_>(u)` is
//! `≤ u` (on average half of each merge). Counts stream into a summing
//! aggregator whose periodically broadcast global value gives the
//! "current total count for reporting" the paper describes.

use gthinker_core::prelude::*;
use gthinker_graph::adj::SharedAdj;
use gthinker_graph::trim::{GreaterIdTrimmer, Trimmer};
use gthinker_task::codec::{from_bytes, to_bytes, CodecError};

/// The triangle application; `Default` is plain counting.
#[derive(Clone, Copy, Debug, Default)]
pub struct TriangleApp {
    /// Low-degree task bundling — the paper's future-work optimization
    /// (\[38\], under Table IV(b)): "tasks spawned from many low-degree
    /// vertices do not generate large enough subgraphs to hide IO cost
    /// in the computation, but this can be solved by bundling tasks of
    /// low-degree vertices into big tasks". Within each spawn batch,
    /// every vertex with `|Γ_>(v)| ≤ bundle` joins one task that pulls
    /// the union of their `Γ_>`. `0` bundles nothing.
    pub bundle: usize,
    /// Enumeration: also stream every triangle to the worker's output
    /// sink, one record (see [`decode_triangle`]) each. The output is
    /// the regime §II calls potentially exponential in the input, so
    /// tasks never buffer it. Requires `JobConfig::output_dir`.
    pub list: bool,
}

/// Decodes a triangle record `(v, u, w)`, `v < u < w`, read back from a
/// `list` run's output files.
pub fn decode_triangle(record: &[u8]) -> Result<(VertexId, VertexId, VertexId), CodecError> {
    let (v, (u, w)): (VertexId, (VertexId, VertexId)) = from_bytes(record)?;
    Ok((v, u, w))
}

impl App for TriangleApp {
    /// The task's anchors `(v, Γ_>(v))`. A root leaves `Γ_>(v)` empty:
    /// its pulled set is exactly that, in ascending pull order. Only
    /// listing reads an anchor's ID, so a counting root carries no
    /// anchor at all — nothing to allocate or encode per task.
    type Context = Vec<(VertexId, Vec<VertexId>)>;
    type Agg = SumAgg;

    fn make_aggregator(&self) -> SumAgg {
        SumAgg
    }

    fn trimmer(&self) -> Option<Box<dyn Trimmer>> {
        Some(Box::new(GreaterIdTrimmer))
    }

    fn task_spawn(&self, v: VertexId, adj: &AdjList, env: &mut SpawnEnv<'_, Self>) {
        if adj.degree() < 2 {
            return; // a triangle needs two larger neighbors
        }
        let mut t = Task::new(if self.list { vec![(v, Vec::new())] } else { Vec::new() });
        for u in adj.iter() {
            t.pull(u);
        }
        env.add_task(t);
    }

    fn task_spawn_batch(
        &self,
        verts: &[(VertexId, SharedAdj, Option<Label>)],
        env: &mut SpawnEnv<'_, Self>,
    ) {
        let mut bundle: Option<Task<Self::Context>> = None;
        let mut rows = Vec::new();
        for (v, adj, _) in verts {
            if !(2..=self.bundle).contains(&adj.degree()) {
                self.task_spawn(*v, adj, env);
                continue;
            }
            let t = bundle.get_or_insert_with(|| Task::new(Vec::new()));
            t.context.push((*v, adj.iter().collect()));
            rows.extend(adj.iter());
        }
        if let Some(mut t) = bundle {
            // Ascending: no pull scans for a duplicate, and `compute`
            // finds each row by binary search.
            rows.sort_unstable();
            rows.dedup();
            rows.into_iter().for_each(|u| t.pull(u));
            env.add_task(t);
        }
    }

    fn compute(
        &self,
        task: &mut Task<Self::Context>,
        frontier: &Frontier,
        env: &mut ComputeEnv<'_, Self>,
    ) -> bool {
        let mut count = 0u64;
        if task.context.len() > 1 {
            // A bundle: every anchor pulled all of its Γ_>, in ascending order.
            let rows: Vec<(VertexId, &SharedAdj)> = frontier.iter().collect();
            debug_assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "a bundle pulls in order");
            let at = |u| rows.binary_search_by_key(&u, |r| r.0).expect("a bundle pulls every row");
            let row = |&u: &VertexId| rows[at(u)];
            for (v, gv) in &task.context {
                let take = split(*v, gv, gv, env);
                count += merge(self.list, *v, gv, gv[..take].iter().map(row), env);
            }
        } else {
            // One anchor, its rows the pulled set: a root, or a chunk or
            // a bundle of one. A counting root's chunks carry 0 as its ID.
            let pulled: Vec<VertexId> = frontier.vertex_ids().collect();
            let (v, gv) = match task.context.first() {
                Some((v, gv)) if !gv.is_empty() => (*v, &gv[..]),
                root => (root.map_or(VertexId(0), |a| a.0), &pulled[..]),
            };
            debug_assert!(gv.windows(2).all(|w| w[0] < w[1]));
            let take = split(v, gv, &pulled, env);
            count += merge(self.list, v, gv, frontier.iter().take(take), env);
        }
        if count > 0 {
            env.aggregate(count);
        }
        false
    }
}

/// Merges each row `(u, Γ_>(u))` of anchor `v` with `above(gv, u)`: each
/// common `w` closes a triangle `v < u < w`, counted and, if listing, emitted.
fn merge<'a>(
    list: bool,
    v: VertexId,
    gv: &[VertexId],
    rows: impl Iterator<Item = (VertexId, &'a SharedAdj)>,
    env: &ComputeEnv<'_, TriangleApp>,
) -> u64 {
    let mut count = 0u64;
    let mut common = Vec::new(); // one buffer for every row
    for (u, adj) in rows {
        if list {
            adj.intersect_slice_into(above(gv, u), &mut common);
            for &w in &common {
                env.emit(&to_bytes(&(v, (u, w))));
            }
            count += common.len() as u64;
        } else {
            count += adj.intersection_count(above(gv, u)) as u64;
        }
    }
    count
}

/// Straggler splitting, in every mode: under a compute budget an anchor
/// with more than `budget` rows keeps its first `budget` and spins the
/// rest off as fresh tasks of `budget` rows each, carrying `(v,
/// Γ_>(v))` — every chunk re-pulls its own rows, so a stolen chunk
/// resolves them wherever it lands. Returns how many rows stay.
fn split(
    v: VertexId,
    gv: &[VertexId],
    rows: &[VertexId],
    env: &mut ComputeEnv<'_, TriangleApp>,
) -> usize {
    let budget = env.compute_budget().map_or(usize::MAX, |b| (b as usize).max(1));
    if rows.len() <= budget {
        return rows.len();
    }
    let chunks = rows[budget..].chunks(budget);
    env.note_split(chunks.len() as u64);
    for chunk in chunks {
        let mut sub = Task::new(vec![(v, gv.to_vec())]);
        for &u in chunk {
            sub.pull(u);
        }
        env.add_task(sub);
    }
    budget
}

/// The suffix of the ascending `gv` strictly above `u`: all of
/// `Γ_>(v)` that `Γ_>(u)` can share with it.
fn above(gv: &[VertexId], u: VertexId) -> &[VertexId] {
    &gv[gv.partition_point(|&w| w <= u)..]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::triangle::count_triangles;
    use gthinker_core::output::read_all_records;
    use gthinker_graph::gen;
    use gthinker_graph::graph::Graph;
    use std::sync::Arc;

    fn run(g: &Graph, cfg: &JobConfig) -> u64 {
        run_job(Arc::new(TriangleApp::default()), g, cfg).unwrap().global
    }

    /// Runs `app`; when it lists, into a fresh directory named by `tag`,
    /// whose records come back sorted.
    fn run_app(
        app: TriangleApp,
        g: &Graph,
        mut cfg: JobConfig,
        tag: &str,
    ) -> (JobResult<u64>, Vec<(VertexId, VertexId, VertexId)>) {
        let dir = std::env::temp_dir().join(format!("gthinker-tri-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        if app.list {
            cfg.output_dir = Some(dir.clone());
        }
        let r = run_job(Arc::new(app), g, &cfg).unwrap();
        let mut triangles = Vec::new();
        if app.list {
            for rec in read_all_records(&dir).unwrap() {
                triangles.push(decode_triangle(&rec).unwrap());
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        triangles.sort_unstable();
        assert_eq!(r.metrics.totals().output_records, triangles.len() as u64);
        (r, triangles)
    }

    fn run_and_collect(
        g: &Graph,
        cfg: JobConfig,
        tag: &str,
    ) -> (u64, Vec<(VertexId, VertexId, VertexId)>) {
        let (r, triangles) = run_app(TriangleApp { bundle: 0, list: true }, g, cfg, tag);
        (r.global, triangles)
    }

    #[test]
    fn matches_serial_on_random_graphs() {
        for seed in 0..4 {
            let g = gen::gnp(120, 0.08, seed);
            assert_eq!(run(&g, &JobConfig::single_machine(2)), count_triangles(&g));
        }
    }

    #[test]
    fn distributed_matches_serial() {
        let g = gen::barabasi_albert(600, 5, 3);
        let expected = count_triangles(&g);
        assert_eq!(run(&g, &JobConfig::cluster(4, 2)), expected);
    }

    #[test]
    fn compute_budget_chunking_gives_same_count() {
        let g = gen::barabasi_albert(300, 5, 7);
        let expected = count_triangles(&g);
        for budget in [1u64, 2, 7] {
            let mut cfg = JobConfig::single_machine(2);
            cfg.compute_budget = Some(budget);
            let r = run_job(Arc::new(TriangleApp::default()), &g, &cfg).unwrap();
            assert_eq!(r.global, expected, "budget {budget}");
            let splits: u64 = r.metrics.totals().split_tasks;
            assert!(splits > 0, "budget {budget} should have chunked some task");
        }
    }

    /// The suffix merge against the serial count, on root tasks and on
    /// the chunks a compute budget splits off (which find `Γ_>(v)` in
    /// their context, not in their frontier), on vertex IDs as
    /// generated and degeneracy-ordered.
    #[test]
    fn suffix_merge_matches_serial_with_and_without_chunks() {
        let ba = gen::barabasi_albert(400, 6, 19);
        let (ordered, _) = gthinker_graph::order::degeneracy_relabel(&ba);
        for g in [gen::gnp(150, 0.1, 23), ba, ordered] {
            let expected = count_triangles(&g);
            for budget in [None, Some(1), Some(3)] {
                let mut cfg = JobConfig::cluster(2, 2);
                cfg.compute_budget = budget;
                assert_eq!(run(&g, &cfg), expected, "budget {budget:?}");
            }
        }
    }

    /// Every combination of the two fields and a compute budget, in one
    /// process and across three workers, on vertex IDs as generated and
    /// degeneracy-ordered: the serial count, the plain listing's
    /// triangles, fewer tasks where bundled and chunks where budgeted.
    #[test]
    fn every_mode_counts_and_lists_the_same_triangles() {
        let ba = gen::barabasi_albert(300, 5, 11);
        let (ordered, _) = gthinker_graph::order::degeneracy_relabel(&ba);
        for (name, g) in [("ba", ba), ("ordered", ordered)] {
            let expected = count_triangles(&g);
            let (_, listing) = run_and_collect(&g, JobConfig::single_machine(2), name);
            assert_eq!(listing.len() as u64, expected);
            for (c, cfg) in
                [JobConfig::single_machine(2), JobConfig::cluster(3, 2)].iter().enumerate()
            {
                for budget in [None, Some(1), Some(3)] {
                    for list in [false, true] {
                        let mut unbundled_tasks = 0;
                        for bundle in [0, 4, usize::MAX] {
                            let mode =
                                format!("{name}-{c}-{}-{list}-{bundle}", budget.unwrap_or(0));
                            let cfg = JobConfig { compute_budget: budget, ..cfg.clone() };
                            let (r, listed) = run_app(TriangleApp { bundle, list }, &g, cfg, &mode);
                            assert_eq!(r.global, expected, "{mode}");
                            if list {
                                assert_eq!(listed, listing, "{mode}");
                            }
                            if bundle == 0 {
                                unbundled_tasks = r.total_tasks();
                            } else {
                                assert!(r.total_tasks() < unbundled_tasks, "{mode}");
                            }
                            if budget.is_some() {
                                assert!(r.metrics.totals().split_tasks > 0, "{mode}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn above_is_the_strict_suffix() {
        let gv: Vec<VertexId> = [2, 5, 9].map(VertexId).to_vec();
        assert_eq!(above(&gv, VertexId(1)), &gv[..]);
        assert_eq!(above(&gv, VertexId(5)), &gv[2..]);
        assert_eq!(above(&gv, VertexId(6)), &gv[2..]);
        assert!(above(&gv, VertexId(9)).is_empty());
    }

    #[test]
    fn triangle_free_graphs_count_zero() {
        assert_eq!(run(&gen::cycle(10), &JobConfig::single_machine(1)), 0);
        assert_eq!(run(&gen::star(20), &JobConfig::single_machine(1)), 0);
    }

    #[test]
    fn complete_graph_count() {
        // K7 has C(7,3) = 35 triangles.
        assert_eq!(run(&gen::complete(7), &JobConfig::single_machine(2)), 35);
    }

    #[test]
    fn bundled_counts_match_unbundled() {
        let g = gen::barabasi_albert(800, 4, 13);
        let expected = count_triangles(&g);
        for bundle in [0usize, 4, 16, 1_000_000] {
            let app = TriangleApp { bundle, list: false };
            let r = run_job(Arc::new(app), &g, &JobConfig::single_machine(2)).unwrap();
            assert_eq!(r.global, expected, "bundle {bundle}");
        }
    }

    #[test]
    fn bundling_reduces_task_count() {
        let g = gen::barabasi_albert(2_000, 3, 5);
        let plain =
            run_job(Arc::new(TriangleApp::default()), &g, &JobConfig::single_machine(2)).unwrap();
        let app = TriangleApp { bundle: 16, list: false };
        let bundled = run_job(Arc::new(app), &g, &JobConfig::single_machine(2)).unwrap();
        assert_eq!(plain.global, bundled.global);
        assert!(
            bundled.total_tasks() < plain.total_tasks() / 2,
            "bundling should collapse low-degree tasks: {} vs {}",
            bundled.total_tasks(),
            plain.total_tasks()
        );
    }

    #[test]
    fn distributed_bundled_matches() {
        let g = gen::barabasi_albert(600, 5, 21);
        let expected = count_triangles(&g);
        let app = TriangleApp { bundle: 8, list: false };
        let r = run_job(Arc::new(app), &g, &JobConfig::cluster(3, 2)).unwrap();
        assert_eq!(r.global, expected);
    }

    #[test]
    fn enumerates_every_triangle_exactly_once() {
        let g = gen::gnp(80, 0.12, 4);
        let expected = count_triangles(&g);
        let (count, triangles) = run_and_collect(&g, JobConfig::single_machine(2), "single");
        assert_eq!(count, expected);
        assert_eq!(triangles.len() as u64, expected);
        let mut dedup = triangles.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), triangles.len(), "duplicate triangle emitted");
        for (v, u, w) in triangles {
            assert!(v < u && u < w, "canonical order violated");
            assert!(g.has_edge(v, u) && g.has_edge(u, w) && g.has_edge(v, w));
        }
    }

    #[test]
    fn distributed_enumeration_matches_single_machine() {
        let g = gen::barabasi_albert(400, 5, 6);
        let (_, single) = run_and_collect(&g, JobConfig::single_machine(2), "s2");
        let (_, multi) = run_and_collect(&g, JobConfig::cluster(3, 2), "m2");
        assert_eq!(single, multi);
    }

    #[test]
    #[should_panic(expected = "requires JobConfig::output_dir")]
    fn emit_without_output_dir_panics() {
        let g = gen::complete(4);
        let app = TriangleApp { bundle: 0, list: true };
        let _ = run_job(Arc::new(app), &g, &JobConfig::single_machine(1));
    }
}
