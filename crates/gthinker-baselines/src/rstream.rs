//! An RStream-like single-machine **out-of-core** engine.
//!
//! RStream expresses mining as relational joins over disk-resident
//! tables (its GRAS model). Triangle counting becomes
//! `E ⋈ E ⋈ E`: phase 1 streams the edge table from disk and joins it
//! with itself to produce the **wedge table** (2-paths), written back
//! to disk; phase 2 streams the wedges and probes an in-memory edge
//! index to count closures. The materialized intermediate is what
//! makes the execution IO-bound — and what "used up all our disk
//! space" for the paper's two big graphs.

use crate::outcome::{RunOutcome, RunStatus};
use gthinker_graph::graph::Graph;
use gthinker_graph::ids::VertexId;
use std::io::{BufReader, BufWriter, Read, Write};
use std::time::Instant;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct RStreamConfig {
    /// Directory for the on-disk tables.
    pub dir: std::path::PathBuf,
    /// Abort when the wedge table exceeds this many bytes.
    pub disk_budget: u64,
}

impl Default for RStreamConfig {
    fn default() -> Self {
        RStreamConfig { dir: std::env::temp_dir().join("rstream-tables"), disk_budget: 8 << 30 }
    }
}

fn write_u32<W: Write>(w: &mut W, v: u32) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32<R: Read>(r: &mut R) -> std::io::Result<Option<u32>> {
    let mut buf = [0u8; 4];
    match r.read_exact(&mut buf) {
        Ok(()) => Ok(Some(u32::from_le_bytes(buf))),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(None),
        Err(e) => Err(e),
    }
}

/// Out-of-core triangle counting via the wedge join.
pub fn rstream_triangle_count(graph: &Graph, config: &RStreamConfig) -> RunOutcome<u64> {
    let start = Instant::now();
    std::fs::create_dir_all(&config.dir).expect("table dir writable");
    let edges_path = config.dir.join(format!("edges-{}.tbl", std::process::id()));
    let wedges_path = config.dir.join(format!("wedges-{}.tbl", std::process::id()));

    // Materialize the oriented edge table E = {(u, v) : u < v} on disk.
    {
        let mut w = BufWriter::new(std::fs::File::create(&edges_path).expect("create edges"));
        for (u, v) in graph.edges() {
            write_u32(&mut w, u.0).unwrap();
            write_u32(&mut w, v.0).unwrap();
        }
        w.flush().unwrap();
    }

    // Phase 1: E ⋈ E on shared smaller endpoint → wedge table
    // {(u, v, w) : u < v < w, uv ∈ E, uw ∈ E}, streamed to disk.
    let mut wedge_bytes: u64 = 0;
    {
        let mut r = BufReader::new(std::fs::File::open(&edges_path).expect("open edges"));
        let mut w = BufWriter::new(std::fs::File::create(&wedges_path).expect("create wedges"));
        while let Some(u) = read_u32(&mut r).unwrap() {
            let v = read_u32(&mut r).unwrap().expect("edge pairs");
            // Join partner edges (u, w) with w > v come from u's list.
            for &cand in graph.neighbors(VertexId(u)).greater_than(VertexId(v)) {
                write_u32(&mut w, u).unwrap();
                write_u32(&mut w, v).unwrap();
                write_u32(&mut w, cand.0).unwrap();
                wedge_bytes += 12;
                if wedge_bytes > config.disk_budget {
                    let _ = std::fs::remove_file(&edges_path);
                    let _ = std::fs::remove_file(&wedges_path);
                    return RunOutcome {
                        result: None,
                        elapsed: start.elapsed(),
                        peak_bytes: wedge_bytes,
                        status: RunStatus::DiskBudgetExceeded,
                    };
                }
            }
        }
        w.flush().unwrap();
    }

    // Phase 2: stream wedges, probe edges for the closing (v, w) edge.
    let mut count = 0u64;
    {
        let mut r = BufReader::new(std::fs::File::open(&wedges_path).expect("open wedges"));
        while let Some(_u) = read_u32(&mut r).unwrap() {
            let v = read_u32(&mut r).unwrap().expect("wedge triple");
            let w = read_u32(&mut r).unwrap().expect("wedge triple");
            if graph.has_edge(VertexId(v), VertexId(w)) {
                count += 1;
            }
        }
    }
    let _ = std::fs::remove_file(&edges_path);
    let _ = std::fs::remove_file(&wedges_path);
    RunOutcome {
        result: Some(count),
        elapsed: start.elapsed(),
        peak_bytes: wedge_bytes,
        status: RunStatus::Completed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::TestConfig;
    use gthinker_apps::serial::triangle::count_triangles;
    use gthinker_graph::gen;

    fn config(tag: &str) -> TestConfig<RStreamConfig> {
        TestConfig::new("rstream", tag, |dir| RStreamConfig { dir, ..Default::default() })
    }

    #[test]
    fn counts_match_serial() {
        for seed in 0..3 {
            let g = gen::gnp(80, 0.1, seed);
            let out = rstream_triangle_count(&g, &config("match"));
            assert!(out.completed());
            assert_eq!(out.result.unwrap(), count_triangles(&g), "seed {seed}");
        }
    }

    #[test]
    fn wedge_table_is_materialized() {
        let g = gen::complete(20);
        let out = rstream_triangle_count(&g, &config("wedge"));
        // K20: wedges = C(20,3) * 3? No: ordered wedges u<v<w with
        // uv, uw edges = C(20, 3) per (u fixed smallest) — each triple
        // yields exactly one wedge = 1140, 12 bytes each.
        assert_eq!(out.peak_bytes, 1140 * 12);
        assert_eq!(out.result.unwrap(), 1140);
    }

    #[test]
    fn disk_budget_reproduces_out_of_disk() {
        let g = gen::complete(40);
        let mut cfg = config("budget");
        cfg.disk_budget = 1_000;
        let out = rstream_triangle_count(&g, &cfg);
        assert_eq!(out.status, RunStatus::DiskBudgetExceeded);
        assert_eq!(out.status_label(), "out-of-disk");
    }
}
