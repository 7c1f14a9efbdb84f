//! Serial maximum-clique search on a [`LocalGraph`].
//!
//! This is the per-task serial algorithm of Fig. 5 line 12 (the paper
//! cites the branch-and-bound solver of \[31\]): Bron–Kerbosch-style
//! expansion with a greedy-coloring upper bound, searching only for
//! cliques **strictly larger** than a caller-provided lower bound so
//! that G-thinker's aggregator-broadcast best (`S_max`) prunes the
//! search space across the whole cluster.
//!
//! Two interchangeable kernels implement the search (see DESIGN.md
//! §"Kernel selection"):
//!
//! * [`max_clique_above_bitset`] — BBMC style: candidate sets are
//!   [`BitSet`]s, greedy coloring removes a whole color class per
//!   `class ∧ ¬Γ(v)` sweep, and child candidates are one AND sweep
//!   (`new_cand = cand ∧ Γ(v)`). Per-depth scratch is reused across
//!   the entire recursion, so the hot path never allocates.
//! * [`max_clique_above_lists`] — the sorted-list fallback for
//!   subgraphs too large for the dense adjacency matrix.
//!
//! [`max_clique_above`] dispatches on [`LocalGraph::is_dense`].

use gthinker_graph::bitset::BitSet;
use gthinker_graph::subgraph::LocalGraph;

/// Finds the maximum clique of `g` **if** it is larger than
/// `lower_bound`; returns `None` otherwise. Returned vertices are local
/// indices, sorted ascending.
pub fn max_clique_above(g: &LocalGraph, lower_bound: usize) -> Option<Vec<u32>> {
    if g.is_dense() {
        max_clique_above_bitset(g, lower_bound)
    } else {
        max_clique_above_lists(g, lower_bound)
    }
}

// ---------------------------------------------------------------------------
// Word-parallel kernel (BBMC).
// ---------------------------------------------------------------------------

/// Per-depth recursion scratch: the candidate set entering this depth
/// plus the coloring workspace. Allocated once per depth, reused by
/// every branch-and-bound node at that depth.
struct Level {
    cand: BitSet,
    uncolored: BitSet,
    class: BitSet,
    order: Vec<u32>,
    colors: Vec<u32>,
}

impl Level {
    fn new(n: usize) -> Self {
        Level {
            cand: BitSet::new(n),
            uncolored: BitSet::new(n),
            class: BitSet::new(n),
            order: Vec::new(),
            colors: Vec::new(),
        }
    }
}

/// BBMC-style maximum clique over the dense adjacency bit matrix.
///
/// # Panics
/// Panics if `g` has no dense matrix (`!g.is_dense()`).
pub fn max_clique_above_bitset(g: &LocalGraph, lower_bound: usize) -> Option<Vec<u32>> {
    let n = g.num_vertices();
    if n == 0 || n <= lower_bound {
        return None;
    }
    assert!(g.is_dense(), "bitset kernel needs the dense adjacency matrix");
    let mut scratch = vec![Level::new(n)];
    scratch[0].cand.set_all();
    let mut best: Option<Vec<u32>> = None;
    let mut bound = lower_bound;
    let mut current: Vec<u32> = Vec::new();
    expand_bitset(g, 0, &mut current, &mut bound, &mut best, &mut scratch);
    best.map(|mut c| {
        c.sort_unstable();
        c
    })
}

/// Expands one search node whose candidate set is `scratch[depth].cand`.
fn expand_bitset(
    g: &LocalGraph,
    depth: usize,
    current: &mut Vec<u32>,
    bound: &mut usize,
    best: &mut Option<Vec<u32>>,
    scratch: &mut Vec<Level>,
) {
    let n = g.num_vertices();
    if scratch[depth].cand.is_empty() {
        if current.len() > *bound {
            *bound = current.len();
            *best = Some(current.clone());
        }
        return;
    }
    // Greedy coloring, one color class per pass: vertices of a class are
    // pairwise non-adjacent, so a clique uses at most one per class and
    // `|current| + color(v)` bounds any clique through v and the
    // vertices ordered before it. Peeling a class is word-parallel:
    // after taking v, `class ∧= ¬Γ(v)` discards all its neighbors.
    {
        let Level { cand, uncolored, class, order, colors } = &mut scratch[depth];
        order.clear();
        colors.clear();
        uncolored.copy_from(cand);
        let mut color = 0u32;
        while let Some(seed) = uncolored.first_set() {
            color += 1;
            class.copy_from(uncolored);
            let mut v = seed;
            loop {
                class.remove(v);
                uncolored.remove(v);
                order.push(v);
                colors.push(color);
                class.and_not_assign_words(g.dense_row(v).expect("dense"));
                match class.first_set() {
                    Some(next) => v = next,
                    None => break,
                }
            }
        }
    }
    if scratch.len() <= depth + 1 {
        scratch.push(Level::new(n));
    }
    // Visit highest-color vertices first; once the bound check fails it
    // fails for every earlier vertex too.
    for i in (0..scratch[depth].order.len()).rev() {
        let v = scratch[depth].order[i];
        if current.len() + scratch[depth].colors[i] as usize <= *bound {
            return;
        }
        // cand shrinks to the not-yet-visited prefix; the child's
        // candidates are that prefix ∧ Γ(v) in one AND sweep.
        let (lo, hi) = scratch.split_at_mut(depth + 1);
        let lvl = &mut lo[depth];
        let child = &mut hi[0];
        lvl.cand.remove(v);
        child.cand.assign_and_words(&lvl.cand, g.dense_row(v).expect("dense"));
        current.push(v);
        expand_bitset(g, depth + 1, current, bound, best, scratch);
        current.pop();
    }
}

// ---------------------------------------------------------------------------
// Sorted-list fallback kernel.
// ---------------------------------------------------------------------------

/// Sorted-list maximum clique: the fallback kernel for subgraphs above
/// the dense threshold. Same contract as [`max_clique_above`].
pub fn max_clique_above_lists(g: &LocalGraph, lower_bound: usize) -> Option<Vec<u32>> {
    let n = g.num_vertices();
    if n == 0 || n <= lower_bound {
        return None;
    }
    let mut best: Option<Vec<u32>> = None;
    let mut bound = lower_bound;
    let mut current: Vec<u32> = Vec::new();
    // Initial candidate ordering by descending degree speeds up the
    // first deep dive (better initial bound).
    let mut cand: Vec<u32> = (0..n as u32).collect();
    cand.sort_unstable_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    expand_lists(g, &mut current, cand, &mut bound, &mut best);
    best.map(|mut c| {
        c.sort_unstable();
        c
    })
}

/// Greedy coloring of `cand`; returns candidates reordered by color
/// with each one's color number (1-based). A clique can use at most one
/// vertex per color, so `|current| + color(v) ≤ bound` prunes `v` and
/// everything ordered before it.
fn color_sort(g: &LocalGraph, cand: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let mut color_classes: Vec<Vec<u32>> = Vec::new();
    for &v in cand {
        let mut placed = false;
        for class in &mut color_classes {
            if class.iter().all(|&u| !g.has_edge(u, v)) {
                class.push(v);
                placed = true;
                break;
            }
        }
        if !placed {
            color_classes.push(vec![v]);
        }
    }
    let mut order = Vec::with_capacity(cand.len());
    let mut colors = Vec::with_capacity(cand.len());
    for (i, class) in color_classes.iter().enumerate() {
        for &v in class {
            order.push(v);
            colors.push(i as u32 + 1);
        }
    }
    (order, colors)
}

fn expand_lists(
    g: &LocalGraph,
    current: &mut Vec<u32>,
    cand: Vec<u32>,
    bound: &mut usize,
    best: &mut Option<Vec<u32>>,
) {
    if cand.is_empty() {
        if current.len() > *bound {
            *bound = current.len();
            *best = Some(current.clone());
        }
        return;
    }
    let (order, colors) = color_sort(g, &cand);
    // Visit highest-color vertices first; once the bound check fails it
    // fails for every earlier vertex too.
    for i in (0..order.len()).rev() {
        let v = order[i];
        if current.len() + colors[i] as usize <= *bound {
            return;
        }
        current.push(v);
        let new_cand: Vec<u32> = order[..i].iter().copied().filter(|&u| g.has_edge(u, v)).collect();
        expand_lists(g, current, new_cand, bound, best);
        current.pop();
    }
}

/// Brute-force maximum clique by subset enumeration — O(2ⁿ·n²), for
/// cross-checking the solver in tests (n ≤ ~20).
pub fn max_clique_brute(g: &LocalGraph) -> Vec<u32> {
    let n = g.num_vertices();
    assert!(n <= 24, "brute force is for tiny graphs only");
    let mut best: Vec<u32> = Vec::new();
    for mask in 0u32..(1 << n) {
        let members: Vec<u32> = (0..n as u32).filter(|&i| mask & (1 << i) != 0).collect();
        if members.len() <= best.len() {
            continue;
        }
        let is_clique = members
            .iter()
            .enumerate()
            .all(|(i, &u)| members[i + 1..].iter().all(|&v| g.has_edge(u, v)));
        if is_clique {
            best = members;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use gthinker_graph::adj::AdjList;
    use gthinker_graph::gen;
    use gthinker_graph::graph::Graph;
    use gthinker_graph::ids::VertexId;
    use gthinker_graph::subgraph::Subgraph;

    fn to_local(g: &Graph) -> LocalGraph {
        Subgraph::from_graph(g).to_local()
    }

    #[test]
    fn complete_graph_is_its_own_max_clique() {
        let g = to_local(&gen::complete(7));
        let c = max_clique_above(&g, 0).unwrap();
        assert_eq!(c.len(), 7);
    }

    #[test]
    fn cycle_max_clique_is_an_edge() {
        let g = to_local(&gen::cycle(6));
        let c = max_clique_above(&g, 0).unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lower_bound_prunes_everything() {
        let g = to_local(&gen::complete(5));
        assert!(max_clique_above(&g, 5).is_none(), "no clique larger than 5 exists");
        assert_eq!(max_clique_above(&g, 4).unwrap().len(), 5);
    }

    #[test]
    fn empty_and_singleton() {
        let g = to_local(&Graph::with_vertices(0));
        assert!(max_clique_above(&g, 0).is_none());
        let g1 = to_local(&Graph::with_vertices(1));
        assert_eq!(max_clique_above(&g1, 0).unwrap(), vec![0]);
    }

    #[test]
    fn returned_vertices_form_a_clique() {
        let g = to_local(&gen::gnp(40, 0.4, 11));
        assert!(g.is_dense(), "n=40 uses the bitset kernel");
        let c = max_clique_above(&g, 0).unwrap();
        for i in 0..c.len() {
            for j in (i + 1)..c.len() {
                assert!(g.has_edge(c[i], c[j]));
            }
        }
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        for seed in 0..12 {
            let n = 14;
            let p = 0.2 + 0.05 * (seed % 8) as f64;
            let g = to_local(&gen::gnp(n, p, seed));
            let brute = max_clique_brute(&g);
            let fast = max_clique_above(&g, 0).unwrap();
            assert_eq!(fast.len(), brute.len(), "seed {seed}: {fast:?} vs {brute:?}");
        }
    }

    #[test]
    fn bitset_and_list_kernels_agree() {
        for seed in 0..10 {
            let graph = gen::gnp(30, 0.45, seed);
            let sg = Subgraph::from_graph(&graph);
            let dense = sg.to_local();
            let sparse = sg.to_local_with_threshold(0);
            for lb in [0usize, 2, 4] {
                let a = max_clique_above_bitset(&dense, lb).map(|c| c.len());
                let b = max_clique_above_lists(&sparse, lb).map(|c| c.len());
                assert_eq!(a, b, "seed {seed} lb {lb}");
            }
        }
    }

    #[test]
    fn finds_planted_clique() {
        let base = gen::gnp(120, 0.05, 3);
        let (g, members) = gen::plant_clique(&base, 10, 4);
        let local = to_local(&g);
        let c = max_clique_above(&local, 0).unwrap();
        assert!(c.len() >= 10);
        // The found clique should be exactly the planted one here
        // (background G(120, 0.05) has tiny cliques).
        let found: Vec<VertexId> = local.to_global(&c);
        assert_eq!(found, members);
    }

    #[test]
    fn oriented_subgraph_input_works() {
        // Tasks store oriented (Γ_>) lists; to_local symmetrizes.
        let mut sg = Subgraph::new();
        sg.add_vertex(VertexId(1), AdjList::from_unsorted(vec![VertexId(2), VertexId(3)]));
        sg.add_vertex(VertexId(2), AdjList::from_unsorted(vec![VertexId(3)]));
        sg.add_vertex(VertexId(3), AdjList::new());
        let local = sg.to_local();
        assert_eq!(max_clique_above(&local, 0).unwrap().len(), 3);
    }
}
