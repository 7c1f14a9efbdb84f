//! Serial maximal-clique enumeration: Bron–Kerbosch with pivoting.
//!
//! `bron_kerbosch(g, R, P, X)` reports every maximal clique extending
//! `R` using candidates `P`, where `X` holds vertices adjacent to all
//! of `R` that were already covered by other branches (the classic
//! exclusion set). The G-thinker application seeds per-vertex calls in
//! degeneracy style: `R = {v}`, `P = Γ_>(v)`, `X = Γ_<(v)`, so each
//! maximal clique is reported exactly once — by its minimum vertex.
//!
//! [`bron_kerbosch`] is the one entry point, seeded or full, and it
//! dispatches on [`LocalGraph::is_dense`]. With the dense adjacency
//! matrix it runs the word-parallel kernel: `P` and `X` are
//! [`BitSet`]s, pivot scoring is an AND-popcount per candidate, and the
//! child sets `P ∧ Γ(v)` / `X ∧ Γ(v)` are single AND sweeps into
//! per-depth scratch. The sorted-list recursion is the fallback for
//! subgraphs above the dense threshold.

use gthinker_graph::bitset::BitSet;
use gthinker_graph::subgraph::LocalGraph;

/// Enumerates maximal cliques of `g` that contain all of `r`, can be
/// extended only by `p`, and must not be extendable by anything in
/// `x`. Calls `visit` once per maximal clique (local indices, sorted).
pub fn bron_kerbosch(
    g: &LocalGraph,
    r: &mut Vec<u32>,
    p: Vec<u32>,
    x: Vec<u32>,
    visit: &mut impl FnMut(&[u32]),
) {
    if !g.is_dense() {
        return bron_kerbosch_lists(g, r, p, x, visit);
    }
    let mut scratch = vec![BkLevel::new(g.num_vertices())];
    for v in p {
        scratch[0].p.insert(v);
    }
    for v in x {
        scratch[0].x.insert(v);
    }
    bron_kerbosch_bitset(g, 0, r, &mut scratch, visit);
}

/// The sorted-list recursion behind [`bron_kerbosch`] on a sparse
/// graph: one `has_edge` test per pair.
fn bron_kerbosch_lists(
    g: &LocalGraph,
    r: &mut Vec<u32>,
    mut p: Vec<u32>,
    mut x: Vec<u32>,
    visit: &mut impl FnMut(&[u32]),
) {
    if p.is_empty() && x.is_empty() {
        let mut clique = r.clone();
        clique.sort_unstable();
        visit(&clique);
        return;
    }
    // Pivot: the vertex of P ∪ X with most neighbors in P minimizes
    // branching (Tomita et al.).
    let pivot = p
        .iter()
        .chain(x.iter())
        .copied()
        .max_by_key(|&u| p.iter().filter(|&&w| g.has_edge(u, w)).count())
        .expect("P ∪ X non-empty");
    let branch: Vec<u32> = p.iter().copied().filter(|&u| !g.has_edge(pivot, u)).collect();
    for v in branch {
        let np: Vec<u32> = p.iter().copied().filter(|&u| g.has_edge(v, u)).collect();
        let nx: Vec<u32> = x.iter().copied().filter(|&u| g.has_edge(v, u)).collect();
        r.push(v);
        bron_kerbosch_lists(g, r, np, nx, visit);
        r.pop();
        p.retain(|&u| u != v);
        x.push(v);
    }
}

/// Per-depth scratch for the word-parallel recursion.
struct BkLevel {
    p: BitSet,
    x: BitSet,
    branch: BitSet,
}

impl BkLevel {
    fn new(n: usize) -> Self {
        BkLevel { p: BitSet::new(n), x: BitSet::new(n), branch: BitSet::new(n) }
    }
}

/// Word-parallel Bron–Kerbosch over the dense adjacency matrix, what
/// [`bron_kerbosch`] runs on a dense graph; same reporting contract.
/// `scratch[depth]` must hold the node's `P` and `X` on entry.
fn bron_kerbosch_bitset(
    g: &LocalGraph,
    depth: usize,
    r: &mut Vec<u32>,
    scratch: &mut Vec<BkLevel>,
    visit: &mut impl FnMut(&[u32]),
) {
    if scratch[depth].p.is_empty() && scratch[depth].x.is_empty() {
        let mut clique = r.clone();
        clique.sort_unstable();
        visit(&clique);
        return;
    }
    // Pivot scoring: |P ∧ Γ(u)| is one AND-popcount sweep per u ∈ P ∪ X.
    {
        let BkLevel { p, x, branch } = &mut scratch[depth];
        let mut pivot = u32::MAX;
        let mut best_score = usize::MAX; // sentinel: no pivot yet
        for u in p.iter().chain(x.iter()) {
            let score = p.and_count_words(g.dense_row(u).expect("dense"));
            if best_score == usize::MAX || score > best_score {
                best_score = score;
                pivot = u;
            }
        }
        branch.assign_and_not_words(p, g.dense_row(pivot).expect("dense"));
    }
    if scratch.len() <= depth + 1 {
        scratch.push(BkLevel::new(g.num_vertices()));
    }
    // Consume the branch set smallest-first; P and X evolve as vertices
    // are processed, exactly like the list variant.
    while let Some(v) = scratch[depth].branch.first_set() {
        scratch[depth].branch.remove(v);
        let (lo, hi) = scratch.split_at_mut(depth + 1);
        let lvl = &mut lo[depth];
        let child = &mut hi[0];
        let row = g.dense_row(v).expect("dense");
        child.p.assign_and_words(&lvl.p, row);
        child.x.assign_and_words(&lvl.x, row);
        r.push(v);
        bron_kerbosch_bitset(g, depth + 1, r, scratch, visit);
        r.pop();
        scratch[depth].p.remove(v);
        scratch[depth].x.insert(v);
    }
}

/// Runs the full enumeration (all vertices as initial candidates).
fn enumerate_all(g: &LocalGraph, visit: &mut impl FnMut(&[u32])) {
    let n = g.num_vertices();
    if n == 0 {
        return; // BK would report the empty clique
    }
    bron_kerbosch(g, &mut Vec::new(), (0..n as u32).collect(), Vec::new(), visit);
}

/// Counts all maximal cliques of `g`.
pub fn count_maximal_cliques(g: &LocalGraph) -> u64 {
    let mut count = 0u64;
    enumerate_all(g, &mut |_| count += 1);
    count
}

/// Lists all maximal cliques of `g` (sorted local indices each).
pub fn list_maximal_cliques(g: &LocalGraph) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    enumerate_all(g, &mut |c| out.push(c.to_vec()));
    out
}

/// Brute-force maximal-clique count for tests: every clique subset,
/// checked for maximality.
pub fn count_maximal_cliques_brute(g: &LocalGraph) -> u64 {
    let n = g.num_vertices();
    assert!(n <= 20, "brute force is for tiny graphs");
    let mut count = 0u64;
    'outer: for mask in 1u32..(1 << n) {
        let members: Vec<u32> = (0..n as u32).filter(|&i| mask & (1 << i) != 0).collect();
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                if !g.has_edge(members[i], members[j]) {
                    continue 'outer;
                }
            }
        }
        // Maximal: no outside vertex adjacent to all members.
        let extendable = (0..n as u32)
            .filter(|v| !members.contains(v))
            .any(|v| members.iter().all(|&m| g.has_edge(v, m)));
        if !extendable {
            count += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use gthinker_graph::gen;
    use gthinker_graph::graph::Graph;
    use gthinker_graph::subgraph::Subgraph;

    fn to_local(g: &Graph) -> LocalGraph {
        Subgraph::from_graph(g).to_local()
    }

    #[test]
    fn known_counts() {
        // K5 has 1 maximal clique; C5 has 5 (its edges); star has leaves.
        assert_eq!(count_maximal_cliques(&to_local(&gen::complete(5))), 1);
        assert_eq!(count_maximal_cliques(&to_local(&gen::cycle(5))), 5);
        assert_eq!(count_maximal_cliques(&to_local(&gen::star(7))), 6);
    }

    #[test]
    fn matches_brute_force() {
        for seed in 0..8 {
            let g = to_local(&gen::gnp(13, 0.4, seed));
            assert_eq!(count_maximal_cliques(&g), count_maximal_cliques_brute(&g), "seed {seed}");
        }
    }

    #[test]
    fn bitset_and_list_kernels_enumerate_identically() {
        for seed in 0..6 {
            let sg = Subgraph::from_graph(&gen::gnp(18, 0.45, seed));
            let mut dense = list_maximal_cliques(&sg.to_local());
            let mut sparse = list_maximal_cliques(&sg.to_local_with_threshold(0));
            dense.sort();
            sparse.sort();
            assert_eq!(dense, sparse, "seed {seed}");
        }
    }

    #[test]
    fn listed_cliques_are_maximal_and_distinct() {
        let g = to_local(&gen::gnp(15, 0.4, 99));
        let cliques = list_maximal_cliques(&g);
        let mut seen = std::collections::HashSet::new();
        for c in &cliques {
            assert!(seen.insert(c.clone()), "duplicate maximal clique {c:?}");
            // Clique property.
            for i in 0..c.len() {
                for j in (i + 1)..c.len() {
                    assert!(g.has_edge(c[i], c[j]));
                }
            }
            // Maximality.
            for v in 0..g.num_vertices() as u32 {
                if !c.contains(&v) {
                    assert!(!c.iter().all(|&m| g.has_edge(v, m)), "{c:?} extendable by {v}");
                }
            }
        }
    }

    #[test]
    fn empty_graph_has_none() {
        assert_eq!(count_maximal_cliques(&to_local(&Graph::with_vertices(0))), 0);
        // Isolated vertices are themselves maximal cliques.
        assert_eq!(count_maximal_cliques(&to_local(&Graph::with_vertices(3))), 3);
    }
}
