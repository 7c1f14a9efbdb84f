//! Serial triangle counting.
//!
//! The standard `O(|E|^1.5)`-ish algorithm: orient every edge from the
//! smaller to the larger endpoint, then for each edge `(u, v)` with `u
//! < v` count `|Γ_>(u) ∩ Γ_>(v)|`. Used as the single-threaded
//! reference (the paper compares against RStream's out-of-core TC with
//! exactly this workload) and to validate the distributed app.

use gthinker_graph::bitset::and_count_from;
use gthinker_graph::graph::Graph;
use gthinker_graph::subgraph::LocalGraph;

/// Counts triangles of `g` exactly.
pub fn count_triangles(g: &Graph) -> u64 {
    let mut count = 0u64;
    for u in g.vertices() {
        let gu = g.neighbors(u).greater_than(u);
        for &v in gu {
            let gv = g.neighbors(v).greater_than(v);
            count += gthinker_graph::adj::count_intersect_sorted(gu, gv) as u64;
        }
    }
    count
}

/// Counts triangles of a task-local subgraph snapshot.
///
/// When the dense adjacency matrix is present, the per-edge inner loop
/// `|Γ_>(u) ∩ Γ_>(v)|` is a word-parallel AND-popcount over the two
/// adjacency rows, masked to indices above `v`; otherwise it falls back
/// to the sorted-merge count over the CSR rows.
pub fn count_triangles_local(g: &LocalGraph) -> u64 {
    let n = g.num_vertices() as u32;
    let mut count = 0u64;
    for u in 0..n {
        let row_u = g.dense_row(u);
        let gu = g.neighbors(u);
        let start = gu.partition_point(|&w| w <= u);
        for &v in &gu[start..] {
            match (row_u, g.dense_row(v)) {
                (Some(ru), Some(rv)) => {
                    count += and_count_from(ru, rv, v + 1) as u64;
                }
                _ => {
                    let gv = g.neighbors(v);
                    let sv = gv.partition_point(|&w| w <= v);
                    count += count_intersect_u32(&gu[start..], &gv[sv..]) as u64;
                }
            }
        }
    }
    count
}

/// Merge-count over two strictly ascending `u32` slices (local-index
/// counterpart of `adj::count_intersect_sorted`).
fn count_intersect_u32(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// O(n³) brute force for cross-checking in tests.
pub fn count_triangles_brute(g: &Graph) -> u64 {
    let n = g.num_vertices();
    let mut count = 0u64;
    for a in 0..n {
        for b in (a + 1)..n {
            for c in (b + 1)..n {
                use gthinker_graph::ids::VertexId;
                let (a, b, c) = (VertexId(a as u32), VertexId(b as u32), VertexId(c as u32));
                if g.has_edge(a, b) && g.has_edge(b, c) && g.has_edge(a, c) {
                    count += 1;
                }
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use gthinker_graph::gen;

    #[test]
    fn known_counts() {
        assert_eq!(count_triangles(&gen::complete(4)), 4);
        assert_eq!(count_triangles(&gen::complete(5)), 10);
        assert_eq!(count_triangles(&gen::cycle(5)), 0);
        assert_eq!(count_triangles(&gen::star(10)), 0);
    }

    #[test]
    fn matches_brute_force() {
        for seed in 0..8 {
            let g = gen::gnp(30, 0.2, seed);
            assert_eq!(count_triangles(&g), count_triangles_brute(&g), "seed {seed}");
        }
    }

    #[test]
    fn empty_graph() {
        assert_eq!(count_triangles(&gthinker_graph::graph::Graph::with_vertices(0)), 0);
    }

    #[test]
    fn local_kernels_match_graph_count() {
        use gthinker_graph::subgraph::Subgraph;
        for seed in 0..6 {
            let g = gen::gnp(40, 0.25, seed + 10);
            let expected = count_triangles(&g);
            let sg = Subgraph::from_graph(&g);
            let dense = sg.to_local();
            let sparse = sg.to_local_with_threshold(0);
            assert!(dense.is_dense() && !sparse.is_dense());
            assert_eq!(count_triangles_local(&dense), expected, "dense, seed {seed}");
            assert_eq!(count_triangles_local(&sparse), expected, "sparse, seed {seed}");
        }
    }

    #[test]
    fn local_count_on_empty_graph() {
        use gthinker_graph::subgraph::Subgraph;
        let l = Subgraph::new().to_local();
        assert_eq!(count_triangles_local(&l), 0);
    }
}
