//! Deterministic random-graph generators.
//!
//! The paper evaluates on real social/web graphs (Table II). Those files
//! are not available offline, so the benchmark harness generates
//! *stand-ins* with comparable structure: heavy-tailed degrees
//! ([`barabasi_albert`]), controllable density ([`gnp`], [`gnm`]) and
//! planted dense regions ([`plant_clique`]) so that maximum-clique
//! finding has a nontrivial answer. All generators are deterministic in
//! their seed.

use crate::graph::Graph;
use crate::ids::{Label, VertexId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::io;

/// The consumer side of a streaming generator: called once per edge as
/// it is produced. Sinks typically append to a file
/// ([`crate::load::EdgeFileWriter`]) or feed a compressed-graph build
/// directly — the generator itself holds no edge list.
pub type EdgeSink<'a> = &'a mut dyn FnMut(VertexId, VertexId) -> io::Result<()>;

/// Streaming Erdős–Rényi `G(n, p)` via geometric skipping: walks the
/// `n·(n−1)/2` edge slots in lexicographic order, jumping ahead by
/// geometrically distributed gaps. Working state is O(1) — two cursors
/// and the RNG — regardless of how many edges are emitted, so it scales
/// to 10⁸–10⁹ edges. Emits each edge exactly once as `(u, v)` with
/// `u < v`; identical edge sequence to [`gnp`] for the same seed.
/// Returns the number of edges emitted.
pub fn stream_gnp(n: usize, p: f64, seed: u64, sink: EdgeSink) -> io::Result<u64> {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut count = 0u64;
    if p <= 0.0 || n < 2 {
        return Ok(0);
    }
    if p >= 1.0 {
        for u in 0..n {
            for v in (u + 1)..n {
                sink(VertexId(u as u32), VertexId(v as u32))?;
                count += 1;
            }
        }
        return Ok(count);
    }
    let log1mp = (1.0 - p).ln();
    let (mut u, mut v) = (0usize, 0usize);
    loop {
        let r: f64 = rng.gen_range(f64::EPSILON..1.0);
        let skip = (r.ln() / log1mp).floor() as usize + 1;
        v += skip;
        while v >= n {
            u += 1;
            if u >= n - 1 {
                return Ok(count);
            }
            v = u + 1 + (v - n);
        }
        sink(VertexId(u as u32), VertexId(v as u32))?;
        count += 1;
    }
}

/// Erdős–Rényi `G(n, p)`: each of the `n·(n−1)/2` possible edges is
/// present independently with probability `p`. In-memory wrapper over
/// [`stream_gnp`].
pub fn gnp(n: usize, p: f64, seed: u64) -> Graph {
    let mut edges = Vec::new();
    stream_gnp(n, p, seed, &mut |u, v| {
        edges.push((u, v));
        Ok(())
    })
    .expect("in-memory sink cannot fail");
    Graph::from_edges(n, &edges)
}

/// `G(n, m)`: exactly `m` distinct random edges (or fewer when `m`
/// exceeds the number of available slots).
pub fn gnm(n: usize, m: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let max_edges = n.saturating_mul(n.saturating_sub(1)) / 2;
    let m = m.min(max_edges);
    let mut seen = std::collections::HashSet::with_capacity(m * 2);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u == v {
            continue;
        }
        let key = if u < v { ((u as u64) << 32) | v as u64 } else { ((v as u64) << 32) | u as u64 };
        if seen.insert(key) {
            edges.push((VertexId(u), VertexId(v)));
        }
    }
    Graph::from_edges(n, &edges)
}

/// Streaming Barabási–Albert preferential attachment. Edges are
/// emitted as they are created rather than collected; the required
/// working state is the endpoint multiset the model itself samples
/// from (two `u32`s per generated edge — inherent to BA, documented
/// here: at 10⁸ edges that is ~800 MB of *sampling state*, but still no
/// materialized edge list or graph). Identical edge sequence to
/// [`barabasi_albert`] for the same seed. Returns the edge count.
pub fn stream_barabasi_albert(n: usize, m: usize, seed: u64, sink: EdgeSink) -> io::Result<u64> {
    assert!(m >= 1, "each new vertex must attach at least one edge");
    assert!(n > m, "need more vertices than the attachment count");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut count = 0u64;
    // `endpoints` holds one entry per edge endpoint: sampling uniformly
    // from it is sampling proportionally to degree.
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * m);
    // Seed clique.
    for u in 0..=(m as u32) {
        for v in (u + 1)..=(m as u32) {
            sink(VertexId(u), VertexId(v))?;
            count += 1;
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    let mut picked = std::collections::HashSet::with_capacity(m * 2);
    for new in (m as u32 + 1)..n as u32 {
        picked.clear();
        while picked.len() < m {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            picked.insert(t);
        }
        // HashSet iteration order is randomized per process; sort so the
        // endpoint vector (and thus later sampling) is deterministic.
        let mut targets: Vec<u32> = picked.iter().copied().collect();
        targets.sort_unstable();
        for t in targets {
            sink(VertexId(new), VertexId(t))?;
            count += 1;
            endpoints.push(new);
            endpoints.push(t);
        }
    }
    Ok(count)
}

/// Barabási–Albert preferential attachment: starts from a clique of
/// `m + 1` vertices and attaches each new vertex to `m` existing
/// vertices chosen proportionally to degree. Produces the heavy-tailed
/// degree distribution typical of the social networks in Table II.
/// In-memory wrapper over [`stream_barabasi_albert`].
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> Graph {
    let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(n * m);
    stream_barabasi_albert(n, m, seed, &mut |u, v| {
        edges.push((u, v));
        Ok(())
    })
    .expect("in-memory sink cannot fail");
    Graph::from_edges(n, &edges)
}

/// Plants a clique over `k` distinct random vertices of `g`, returning
/// the new graph and the (sorted) clique members. Guarantees the
/// maximum clique is at least `k`, giving MCF workloads a known target.
pub fn plant_clique(g: &Graph, k: usize, seed: u64) -> (Graph, Vec<VertexId>) {
    let n = g.num_vertices();
    assert!(k <= n, "cannot plant a clique larger than the graph");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ids: Vec<u32> = (0..n as u32).collect();
    ids.shuffle(&mut rng);
    let mut members: Vec<VertexId> = ids[..k].iter().copied().map(VertexId).collect();
    members.sort_unstable();
    let mut edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    for i in 0..k {
        for j in (i + 1)..k {
            edges.push((members[i], members[j]));
        }
    }
    (Graph::from_edges(n, &edges), members)
}

/// Assigns each vertex a uniform random label from `0..num_labels`.
pub fn random_labels(g: Graph, num_labels: u16, seed: u64) -> Graph {
    assert!(num_labels >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let labels = (0..g.num_vertices()).map(|_| Label(rng.gen_range(0..num_labels))).collect();
    g.with_labels(labels)
}

/// A complete graph `K_n` (every pair adjacent) — handy in tests.
pub fn complete(n: usize) -> Graph {
    gnp(n, 1.0, 0)
}

/// A cycle `C_n`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 vertices");
    let edges: Vec<_> =
        (0..n).map(|i| (VertexId(i as u32), VertexId(((i + 1) % n) as u32))).collect();
    Graph::from_edges(n, &edges)
}

/// A star with `n - 1` leaves around vertex 0.
pub fn star(n: usize) -> Graph {
    assert!(n >= 2);
    let edges: Vec<_> = (1..n).map(|i| (VertexId(0), VertexId(i as u32))).collect();
    Graph::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnp_is_deterministic_in_seed() {
        let a = gnp(100, 0.05, 7);
        let b = gnp(100, 0.05, 7);
        let c = gnp(100, 0.05, 8);
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
        assert_ne!(a.edges().collect::<Vec<_>>(), c.edges().collect::<Vec<_>>());
    }

    #[test]
    fn gnp_edge_count_near_expectation() {
        let n = 400;
        let p = 0.1;
        let g = gnp(n, p, 42);
        let expected = (n * (n - 1) / 2) as f64 * p;
        let got = g.num_edges() as f64;
        assert!((got - expected).abs() < expected * 0.15, "got {got}, expected ~{expected}");
        g.validate_undirected().unwrap();
    }

    #[test]
    fn gnp_extremes() {
        assert_eq!(gnp(10, 0.0, 1).num_edges(), 0);
        assert_eq!(gnp(5, 1.0, 1).num_edges(), 10);
        assert_eq!(gnp(0, 0.5, 1).num_vertices(), 0);
        assert_eq!(gnp(1, 0.5, 1).num_edges(), 0);
    }

    #[test]
    fn gnm_produces_exact_count() {
        let g = gnm(50, 100, 3);
        assert_eq!(g.num_edges(), 100);
        g.validate_undirected().unwrap();
        // Saturating case.
        let g2 = gnm(4, 100, 3);
        assert_eq!(g2.num_edges(), 6);
    }

    #[test]
    fn barabasi_albert_shape() {
        let n = 500;
        let m = 3;
        let g = barabasi_albert(n, m, 11);
        assert_eq!(g.num_vertices(), n);
        // seed clique (m+1 choose 2) + (n - m - 1) * m edges, minus any
        // duplicate collapses (none expected since picks are distinct).
        let expect = (m + 1) * m / 2 + (n - m - 1) * m;
        assert_eq!(g.num_edges(), expect);
        g.validate_undirected().unwrap();
        // Heavy tail: max degree far above average.
        let max_deg = g.vertices().map(|v| g.degree(v)).max().unwrap();
        let avg = 2.0 * g.num_edges() as f64 / n as f64;
        assert!(max_deg as f64 > 3.0 * avg, "max {max_deg} vs avg {avg}");
    }

    #[test]
    fn planted_clique_is_a_clique() {
        let base = gnp(200, 0.02, 5);
        let (g, members) = plant_clique(&base, 12, 6);
        assert_eq!(members.len(), 12);
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                assert!(g.has_edge(members[i], members[j]));
            }
        }
        g.validate_undirected().unwrap();
    }

    #[test]
    fn random_labels_within_range() {
        let g = random_labels(gnp(50, 0.1, 1), 4, 2);
        assert!(g.is_labeled());
        for v in g.vertices() {
            assert!(g.label(v).unwrap().value() < 4);
        }
    }

    #[test]
    fn streaming_generators_match_in_memory_twins() {
        // Same seed ⇒ byte-identical edge sequences.
        let collect = |f: &dyn Fn(EdgeSink) -> io::Result<u64>| {
            let mut edges = Vec::new();
            let n = f(&mut |u, v| {
                edges.push((u, v));
                Ok(())
            })
            .unwrap();
            assert_eq!(n as usize, edges.len());
            edges
        };
        let streamed = collect(&|s| stream_gnp(120, 0.07, 3, s));
        assert_eq!(
            Graph::from_edges(120, &streamed).edges().collect::<Vec<_>>(),
            gnp(120, 0.07, 3).edges().collect::<Vec<_>>()
        );

        let streamed = collect(&|s| stream_barabasi_albert(200, 3, 9, s));
        assert_eq!(
            Graph::from_edges(200, &streamed).edges().collect::<Vec<_>>(),
            barabasi_albert(200, 3, 9).edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn streaming_generators_replay_exactly() {
        // The compressed builder relies on two passes over the same
        // seed producing identical streams.
        for _ in 0..2 {
            let mut a = Vec::new();
            let mut b = Vec::new();
            stream_gnp(300, 0.02, 77, &mut |u, v| {
                a.push((u, v));
                Ok(())
            })
            .unwrap();
            stream_gnp(300, 0.02, 77, &mut |u, v| {
                b.push((u, v));
                Ok(())
            })
            .unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn sink_errors_propagate() {
        let mut left = 3;
        let err = stream_gnp(100, 0.5, 1, &mut |_, _| {
            left -= 1;
            if left == 0 {
                Err(io::Error::other("disk full"))
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "disk full");
    }

    #[test]
    fn small_topologies() {
        assert_eq!(complete(4).num_edges(), 6);
        assert_eq!(cycle(5).num_edges(), 5);
        let s = star(6);
        assert_eq!(s.num_edges(), 5);
        assert_eq!(s.degree(VertexId(0)), 5);
    }
}
