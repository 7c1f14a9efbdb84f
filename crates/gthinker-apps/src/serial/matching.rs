//! Serial subgraph matching (labeled subgraph isomorphism) on a
//! [`LocalGraph`].
//!
//! A [`Pattern`] is a small connected labeled query graph. An
//! *embedding* is an injective mapping from query vertices to data
//! vertices preserving labels and query edges. The distributed app
//! deduplicates by anchoring query vertex 0: each task counts the
//! embeddings that map query vertex 0 to its spawn vertex.

use gthinker_graph::ids::Label;
use gthinker_graph::subgraph::LocalGraph;

/// A small labeled query graph.
#[derive(Clone, Debug)]
pub struct Pattern {
    labels: Vec<Label>,
    adj: Vec<Vec<u8>>,
}

impl Pattern {
    /// Builds a pattern from per-vertex labels and an edge list.
    /// The pattern must be connected (required by the anchored search).
    pub fn new(labels: Vec<Label>, edges: &[(u8, u8)]) -> Self {
        let n = labels.len();
        assert!((1..=16).contains(&n), "patterns are small by design");
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            assert!((a as usize) < n && (b as usize) < n && a != b, "bad pattern edge");
            if !adj[a as usize].contains(&b) {
                adj[a as usize].push(b);
                adj[b as usize].push(a);
            }
        }
        let p = Pattern { labels, adj };
        assert!(p.is_connected(), "pattern must be connected");
        p
    }

    /// A labeled triangle query.
    pub fn triangle(l0: Label, l1: Label, l2: Label) -> Self {
        Pattern::new(vec![l0, l1, l2], &[(0, 1), (1, 2), (0, 2)])
    }

    /// A labeled 3-vertex path `l0 - l1 - l2`.
    pub fn path3(l0: Label, l1: Label, l2: Label) -> Self {
        Pattern::new(vec![l0, l1, l2], &[(0, 1), (1, 2)])
    }

    /// A labeled star: `center` adjacent to every leaf.
    pub fn star(center: Label, leaves: &[Label]) -> Self {
        assert!(!leaves.is_empty(), "a star needs at least one leaf");
        let mut labels = vec![center];
        labels.extend_from_slice(leaves);
        let edges: Vec<(u8, u8)> = (1..=leaves.len() as u8).map(|i| (0, i)).collect();
        Pattern::new(labels, &edges)
    }

    /// A labeled 4-clique.
    pub fn clique4(l0: Label, l1: Label, l2: Label, l3: Label) -> Self {
        Pattern::new(vec![l0, l1, l2, l3], &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    }

    /// Number of query vertices.
    pub fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    /// The label of query vertex `q`.
    pub fn label(&self, q: u8) -> Label {
        self.labels[q as usize]
    }

    /// All distinct labels used by the pattern.
    pub fn label_set(&self) -> Vec<Label> {
        let mut ls = self.labels.clone();
        ls.sort_unstable();
        ls.dedup();
        ls
    }

    /// Neighbors of query vertex `q`.
    pub fn neighbors(&self, q: u8) -> &[u8] {
        &self.adj[q as usize]
    }

    fn is_connected(&self) -> bool {
        let n = self.num_vertices();
        let mut seen = vec![false; n];
        let mut stack = vec![0u8];
        seen[0] = true;
        while let Some(q) = stack.pop() {
            for &u in self.neighbors(q) {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    stack.push(u);
                }
            }
        }
        seen.into_iter().all(|s| s)
    }

    /// Eccentricity of query vertex 0: how many hops of data-graph
    /// neighborhood a task must pull around its anchor.
    pub fn anchor_radius(&self) -> usize {
        let n = self.num_vertices();
        let mut dist = vec![usize::MAX; n];
        dist[0] = 0;
        let mut queue = std::collections::VecDeque::from([0u8]);
        while let Some(q) = queue.pop_front() {
            for &u in self.neighbors(q) {
                if dist[u as usize] == usize::MAX {
                    dist[u as usize] = dist[q as usize] + 1;
                    queue.push_back(u);
                }
            }
        }
        dist.into_iter().max().unwrap_or(0)
    }

    /// A matching order starting at vertex 0 in which every vertex is
    /// adjacent to an earlier one (BFS order).
    pub fn matching_order(&self) -> Vec<u8> {
        let n = self.num_vertices();
        let mut order = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::from([0u8]);
        seen[0] = true;
        while let Some(q) = queue.pop_front() {
            order.push(q);
            for &u in self.neighbors(q) {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    queue.push_back(u);
                }
            }
        }
        order
    }
}

/// Counts embeddings of `pattern` into `g` that map query vertex 0 to
/// local data vertex `anchor`. `g` must carry labels.
pub fn count_embeddings_from(g: &LocalGraph, pattern: &Pattern, anchor: u32) -> u64 {
    if g.label(anchor) != Some(pattern.label(0)) {
        return 0;
    }
    let order = pattern.matching_order();
    let mut map: Vec<Option<u32>> = vec![None; pattern.num_vertices()];
    map[0] = Some(anchor);
    let mut count = 0u64;
    backtrack(g, pattern, &order, 1, &mut map, &mut count);
    count
}

/// Counts embeddings that map query vertex 0 to `anchor` AND the
/// second vertex of the matching order to `second`. Summed over the
/// anchor's data-neighbors, this equals [`count_embeddings_from`] (the
/// depth-1 candidates are exactly `Γ(anchor)`); the distributed app
/// uses it to split one anchor task into per-second-vertex subtasks.
pub fn count_embeddings_from_pair(
    g: &LocalGraph,
    pattern: &Pattern,
    anchor: u32,
    second: u32,
) -> u64 {
    let order = pattern.matching_order();
    if order.len() < 2
        || g.label(anchor) != Some(pattern.label(0))
        || second == anchor
        || g.label(second) != Some(pattern.label(order[1]))
    {
        return 0;
    }
    let mut map: Vec<Option<u32>> = vec![None; pattern.num_vertices()];
    map[0] = Some(anchor);
    // Every query edge from order[1] to an already-mapped vertex (only
    // vertex 0 at this depth) must exist in the data graph.
    let consistent = pattern.neighbors(order[1]).iter().all(|&u| match map[u as usize] {
        Some(d) => g.has_edge(d, second),
        None => true,
    });
    if !consistent {
        return 0;
    }
    map[order[1] as usize] = Some(second);
    let mut count = 0u64;
    backtrack(g, pattern, &order, 2, &mut map, &mut count);
    count
}

fn backtrack(
    g: &LocalGraph,
    pattern: &Pattern,
    order: &[u8],
    depth: usize,
    map: &mut Vec<Option<u32>>,
    count: &mut u64,
) {
    if depth == order.len() {
        *count += 1;
        return;
    }
    let q = order[depth];
    // Candidates: data-neighbors of an already-mapped query neighbor.
    let pivot = pattern
        .neighbors(q)
        .iter()
        .find(|&&u| map[u as usize].is_some())
        .expect("BFS order guarantees a mapped neighbor");
    let pivot_data = map[*pivot as usize].expect("just checked");
    for &cand in g.neighbors(pivot_data) {
        if g.label(cand) != Some(pattern.label(q)) {
            continue;
        }
        if map.contains(&Some(cand)) {
            continue; // injectivity
        }
        // Every query edge to an already-mapped vertex must exist.
        let consistent = pattern.neighbors(q).iter().all(|&u| match map[u as usize] {
            Some(d) => g.has_edge(d, cand),
            None => true,
        });
        if !consistent {
            continue;
        }
        map[q as usize] = Some(cand);
        backtrack(g, pattern, order, depth + 1, map, count);
        map[q as usize] = None;
    }
}

/// Brute-force embedding count over all vertex tuples (tests only).
pub fn count_embeddings_brute(g: &LocalGraph, pattern: &Pattern) -> u64 {
    let n = g.num_vertices() as u32;
    let k = pattern.num_vertices();
    assert!(n.pow(k as u32) <= 10_000_000, "brute force too large");
    let mut count = 0u64;
    let mut map = vec![0u32; k];
    fn rec(g: &LocalGraph, p: &Pattern, map: &mut Vec<u32>, depth: usize, n: u32, count: &mut u64) {
        if depth == map.len() {
            // validate
            for q in 0..map.len() {
                if g.label(map[q]) != Some(p.label(q as u8)) {
                    return;
                }
                for &u in p.neighbors(q as u8) {
                    if !g.has_edge(map[q], map[u as usize]) {
                        return;
                    }
                }
            }
            // injectivity
            let mut sorted = map.clone();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() == map.len() {
                *count += 1;
            }
            return;
        }
        for v in 0..n {
            map[depth] = v;
            rec(g, p, map, depth + 1, n, count);
        }
    }
    rec(g, pattern, &mut map, 0, n, &mut count);
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
    fn pattern_construction_and_radius() {
        let p = Pattern::triangle(Label(0), Label(1), Label(2));
        assert_eq!(p.num_vertices(), 3);
        assert_eq!(p.anchor_radius(), 1);
        let path = Pattern::path3(Label(0), Label(1), Label(0));
        assert_eq!(path.anchor_radius(), 2);
        assert_eq!(path.label_set(), vec![Label(0), Label(1)]);
        assert_eq!(path.matching_order(), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn disconnected_pattern_rejected() {
        Pattern::new(vec![Label(0), Label(1)], &[]);
    }

    #[test]
    fn anchored_counts_sum_to_brute_force() {
        for seed in 0..6 {
            let g = to_local(&gen::random_labels(gen::gnp(12, 0.35, seed), 2, seed + 50));
            for pattern in [
                Pattern::triangle(Label(0), Label(1), Label(1)),
                Pattern::path3(Label(0), Label(1), Label(0)),
            ] {
                let brute = count_embeddings_brute(&g, &pattern);
                let sum: u64 = (0..12u32).map(|a| count_embeddings_from(&g, &pattern, a)).sum();
                assert_eq!(sum, brute, "seed {seed}, pattern {pattern:?}");
            }
        }
    }

    #[test]
    fn star_and_clique4_patterns_match_brute_force() {
        for seed in 0..3 {
            let g = to_local(&gen::random_labels(gen::gnp(11, 0.4, seed + 40), 2, seed + 60));
            for pattern in [
                Pattern::star(Label(0), &[Label(1), Label(1)]),
                Pattern::star(Label(1), &[Label(0), Label(0), Label(1)]),
                Pattern::clique4(Label(0), Label(0), Label(1), Label(1)),
            ] {
                let brute = count_embeddings_brute(&g, &pattern);
                let sum: u64 = (0..11u32).map(|a| count_embeddings_from(&g, &pattern, a)).sum();
                assert_eq!(sum, brute, "seed {seed}, pattern {pattern:?}");
            }
        }
    }

    #[test]
    fn pair_counts_partition_the_anchor_count() {
        // Pre-assigning the second matching-order vertex — the
        // distributed app's budget split — must partition each anchor's
        // count over the anchor's data-neighbors.
        for seed in 0..4 {
            let g = to_local(&gen::random_labels(gen::gnp(12, 0.35, seed + 10), 2, seed + 70));
            for pattern in [
                Pattern::triangle(Label(0), Label(1), Label(1)),
                Pattern::path3(Label(0), Label(1), Label(0)),
                Pattern::star(Label(0), &[Label(1), Label(1)]),
            ] {
                for a in 0..12u32 {
                    let whole = count_embeddings_from(&g, &pattern, a);
                    let split: u64 = g
                        .neighbors(a)
                        .iter()
                        .map(|&c| count_embeddings_from_pair(&g, &pattern, a, c))
                        .sum();
                    assert_eq!(split, whole, "seed {seed} anchor {a} pattern {pattern:?}");
                }
            }
        }
    }

    #[test]
    fn label_mismatch_at_anchor_gives_zero() {
        let g = to_local(&gen::random_labels(gen::complete(4), 1, 1)); // all Label(0)
        let p = Pattern::triangle(Label(1), Label(0), Label(0));
        for a in 0..4u32 {
            assert_eq!(count_embeddings_from(&g, &p, a), 0);
        }
    }

    #[test]
    fn unlabeled_graph_matches_nothing() {
        let g = to_local(&gen::complete(4));
        let p = Pattern::triangle(Label(0), Label(0), Label(0));
        assert_eq!(count_embeddings_from(&g, &p, 0), 0);
    }
}
