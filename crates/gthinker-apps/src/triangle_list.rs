//! Triangle **enumeration** with streamed output.
//!
//! Counting aggregates a single number; enumeration materializes every
//! instance — the output regime §II calls out as potentially
//! exponential in the input. Each task streams its triangles to the
//! worker's output sink instead of buffering them, so memory stays
//! bounded no matter how many triangles exist.

use gthinker_core::prelude::*;
use gthinker_graph::adj::AdjList;
use gthinker_graph::trim::{GreaterIdTrimmer, Trimmer};
use gthinker_task::codec::{from_bytes, to_bytes, CodecError};

/// A triangle record `(v, u, w)` with `v < u < w`.
pub type Triangle = (VertexId, (VertexId, VertexId));

/// Encodes a triangle for the output sink.
pub fn encode_triangle(v: VertexId, u: VertexId, w: VertexId) -> Vec<u8> {
    to_bytes(&(v, (u, w)))
}

/// Decodes a triangle record read back from an output file.
pub fn decode_triangle(record: &[u8]) -> Result<(VertexId, VertexId, VertexId), CodecError> {
    let (v, (u, w)): Triangle = from_bytes(record)?;
    Ok((v, u, w))
}

/// Lists every triangle once (by its minimum vertex) into the job's
/// output directory, while also counting via the aggregator so the
/// `JobResult` carries the total.
#[derive(Default)]
pub struct TriangleListApp;

impl App for TriangleListApp {
    type Context = ();
    type Agg = SumAgg;

    fn make_aggregator(&self) -> SumAgg {
        SumAgg
    }

    fn trimmer(&self) -> Option<Box<dyn Trimmer>> {
        Some(Box::new(GreaterIdTrimmer))
    }

    fn task_spawn(&self, v: VertexId, adj: &AdjList, env: &mut SpawnEnv<'_, Self>) {
        if adj.degree() < 2 {
            return;
        }
        let mut t = Task::new(());
        t.subgraph.add_vertex(v, adj.clone());
        for u in adj.iter() {
            t.pull(u);
        }
        env.add_task(t);
    }

    fn compute(
        &self,
        task: &mut Task<()>,
        frontier: &Frontier,
        env: &mut ComputeEnv<'_, Self>,
    ) -> bool {
        let v = *task.subgraph.vertex_ids().first().expect("anchor present");
        let gv: Vec<VertexId> = frontier.vertex_ids().collect();
        let mut count = 0u64;
        let mut common = Vec::new(); // one buffer for every frontier entry
        for (u, adj) in frontier.iter() {
            adj.intersect_slice_into(&gv, &mut common);
            for &w in &common {
                env.emit(&encode_triangle(v, u, w));
                count += 1;
            }
        }
        if count > 0 {
            env.aggregate(count);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::triangle::count_triangles;
    use gthinker_core::output::read_all_records;
    use gthinker_graph::gen;
    use std::sync::Arc;

    fn out_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("gthinker-trilist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn run_and_collect(
        g: &gthinker_graph::graph::Graph,
        mut cfg: JobConfig,
        tag: &str,
    ) -> (u64, Vec<(VertexId, VertexId, VertexId)>) {
        let dir = out_dir(tag);
        cfg.output_dir = Some(dir.clone());
        let r = run_job(Arc::new(TriangleListApp), g, &cfg).unwrap();
        let mut triangles: Vec<_> = read_all_records(&dir)
            .unwrap()
            .iter()
            .map(|rec| decode_triangle(rec).unwrap())
            .collect();
        triangles.sort_unstable();
        let emitted: u64 = r.metrics.totals().output_records;
        assert_eq!(emitted, triangles.len() as u64);
        (r.global, triangles)
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
        let _ = run_job(Arc::new(TriangleListApp), &g, &JobConfig::single_machine(1));
    }
}
