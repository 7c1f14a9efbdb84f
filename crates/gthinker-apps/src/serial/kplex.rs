//! The **k-plex** [`Rule`] of the set-enumeration search ([`super::setenum`]).
//!
//! A vertex set `S` is a *k-plex* if every member has at least
//! `|S| − k` neighbors inside `S` (k = 1 gives cliques), the
//! relaxed-clique workload of the T-thinker line that G-thinker opens
//! (§VII). Two facts drive the rule:
//!
//! * **Heredity** — every subset of a k-plex is a k-plex, so the search
//!   can discard a candidate permanently the moment adding it breaks
//!   the property.
//! * **Diameter** — a *connected* k-plex with `|S| ≥ 2k − 1` has
//!   diameter at most 2, so the distributed app's 2-hop ego networks
//!   are sufficient; the size floor is enforced.

use super::setenum::{Members, Rule};
use gthinker_graph::bitset::BitSet;
use gthinker_graph::subgraph::LocalGraph;

/// True if `s` is a k-plex of `g` (every member has ≥ `|s| − k`
/// neighbors inside `s`).
pub fn is_kplex(g: &LocalGraph, s: &[u32], k: usize) -> bool {
    if s.is_empty() {
        return false;
    }
    s.iter().all(|&v| {
        let inside = s.iter().filter(|&&u| u != v && g.has_edge(u, v)).count();
        inside + k >= s.len()
    })
}

/// True if the subgraph of `g` induced by `s` is connected.
pub fn is_connected(g: &LocalGraph, s: &[u32]) -> bool {
    if s.is_empty() {
        return false;
    }
    let mut seen = vec![false; s.len()];
    let mut stack = vec![0usize];
    seen[0] = true;
    let mut reached = 1;
    while let Some(i) = stack.pop() {
        for (j, &u) in s.iter().enumerate() {
            if !seen[j] && g.has_edge(s[i], u) {
                seen[j] = true;
                reached += 1;
                stack.push(j);
            }
        }
    }
    reached == s.len()
}

/// The connected k-plex [`Rule`]: counts the connected k-plexes with
/// sizes in `[min_size, max_size]`.
pub struct KPlex {
    /// Relaxation parameter k (1 = cliques).
    pub k: usize,
    /// Smallest k-plex size to count (at least 2k − 1).
    pub min_size: usize,
    /// Largest k-plex size to count.
    pub max_size: usize,
}

impl KPlex {
    /// The rule; panics if `min_size < 2k − 1` (the 2-hop candidate rule
    /// the distributed app relies on is only sound above that size).
    pub fn new(k: usize, min_size: usize, max_size: usize) -> Self {
        assert!(k >= 1);
        assert!(
            min_size >= 2 * k - 1 && min_size >= 2,
            "connected k-plexes need |S| ≥ 2k−1 for the diameter-2 bound"
        );
        assert!(max_size >= min_size);
        KPlex { k, min_size, max_size }
    }
}

impl Rule for KPlex {
    fn sizes(&self) -> (usize, usize) {
        (self.min_size, self.max_size)
    }

    /// Connectivity. The search adds no member that breaks the k-plex,
    /// so only a resumed node's `S` can fail the degree test: it counts 0.
    fn accept(&self, g: &LocalGraph, s: &Members) -> bool {
        s.iter().all(|v| g.count_in(v, s.bits()) + self.k >= s.size()) && s.is_connected(g)
    }

    /// Heredity: a candidate stays only if S ∪ {u} is a k-plex — `u` has
    /// `|S| + 1 − k` members as neighbours, and each member at its floor
    /// `|S| − k` has `u`. Below an `S` that is no k-plex, nothing is.
    fn shrink(
        &self,
        g: &LocalGraph,
        s: &Members,
        inside: &[usize],
        cand: &BitSet,
        viable: &mut BitSet,
    ) -> bool {
        let (k, size) = (self.k, s.size());
        if inside.iter().any(|&d| d + k < size) {
            return false;
        }
        let joins = |u| {
            g.count_in(u, s.bits()) + k > size
                && s.iter().zip(inside).all(|(v, &d)| d + k > size || g.has_edge(v, u))
        };
        viable.clear();
        cand.iter().filter(|&u| joins(u)).for_each(|u| viable.insert(u));
        true
    }
}

/// Brute force over all subsets (tests only): connected k-plexes with
/// sizes in range, counted once per minimum member by construction.
pub fn count_kplexes_brute(g: &LocalGraph, k: usize, min_size: usize, max_size: usize) -> u64 {
    let n = g.num_vertices();
    assert!(n <= 20, "brute force is for tiny graphs");
    let mut count = 0u64;
    for mask in 1u32..(1 << n) {
        let s: Vec<u32> = (0..n as u32).filter(|&i| mask & (1 << i) != 0).collect();
        if s.len() >= min_size && s.len() <= max_size && is_kplex(g, &s, k) && is_connected(g, &s) {
            count += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::setenum::{count, count_anchored, first_level};
    use gthinker_graph::gen;
    use gthinker_graph::graph::Graph;
    use gthinker_graph::ids::VertexId;
    use gthinker_graph::subgraph::Subgraph;

    fn to_local(g: &Graph) -> LocalGraph {
        Subgraph::from_graph(g).to_local()
    }

    /// The anchored counts of `g`, added up over every anchor.
    fn anchored_sum(g: &LocalGraph, k: usize, min: usize, max: usize) -> u64 {
        let rule = KPlex::new(k, min, max);
        (0..g.num_vertices() as u32).map(|a| count_anchored(g, &rule, a)).sum()
    }

    #[test]
    fn cliques_are_1_plexes() {
        let g = to_local(&gen::complete(5));
        assert!(is_kplex(&g, &[0, 1, 2, 3, 4], 1));
        // C5 is a 2-plex of size 5? Each vertex has 2 of 4 inside:
        // needs ≥ 5 − 2 = 3 — no.
        let c = to_local(&gen::cycle(5));
        assert!(!is_kplex(&c, &[0, 1, 2, 3, 4], 2));
        assert!(is_kplex(&c, &[0, 1, 2, 3, 4], 3));
    }

    #[test]
    fn heredity_holds_on_samples() {
        let g = to_local(&gen::gnp(12, 0.5, 3));
        for mask in 1u32..(1 << 12) {
            let s: Vec<u32> = (0..12u32).filter(|&i| mask & (1 << i) != 0).collect();
            if s.len() >= 2 && is_kplex(&g, &s, 2) {
                // Dropping any single member must preserve the property.
                for drop in &s {
                    let sub: Vec<u32> = s.iter().copied().filter(|v| v != drop).collect();
                    assert!(sub.is_empty() || is_kplex(&g, &sub, 2));
                }
            }
        }
    }

    #[test]
    fn anchored_counts_partition_the_total() {
        for seed in 0..5 {
            let g = to_local(&gen::gnp(10, 0.4, seed));
            for (k, min, max) in [(1, 3, 5), (2, 3, 5), (3, 5, 6)] {
                let brute = count_kplexes_brute(&g, k, min, max);
                let sum = anchored_sum(&g, k, min, max);
                assert_eq!(sum, brute, "seed {seed}, k {k}, sizes {min}..{max}");
            }
        }
    }

    #[test]
    fn one_plexes_are_cliques() {
        let g = to_local(&gen::gnp(12, 0.5, 9));
        // Count 1-plexes (cliques) of size 3..4 and compare with a
        // direct clique count.
        let sum = anchored_sum(&g, 1, 3, 4);
        let mut direct = 0u64;
        for mask in 1u32..(1 << 12) {
            let s: Vec<u32> = (0..12u32).filter(|&i| mask & (1 << i) != 0).collect();
            if (3..=4).contains(&s.len())
                && s.iter().enumerate().all(|(i, &u)| s[i + 1..].iter().all(|&v| g.has_edge(u, v)))
            {
                direct += 1;
            }
        }
        assert_eq!(sum, direct);
    }

    #[test]
    fn bitset_and_list_kernels_agree() {
        // The same search on the matrix form and the list form of each
        // graph (see `LocalGraph::count_in`/`neighbors_in`).
        for seed in 0..4 {
            let g = gen::gnp(11, 0.45, seed + 30);
            let sg = Subgraph::from_graph(&g);
            let dense = sg.to_local();
            let sparse = sg.to_local_with_threshold(0);
            assert!(dense.is_dense() && !sparse.is_dense());
            for (k, min, max) in [(1usize, 3usize, 5usize), (2, 3, 6), (3, 5, 7)] {
                let rule = KPlex::new(k, min, max);
                for a in 0..11u32 {
                    assert_eq!(
                        count_anchored(&dense, &rule, a),
                        count_anchored(&sparse, &rule, a),
                        "seed {seed} anchor {a} k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn first_level_split_partitions_each_anchor_count() {
        // Splitting a node into its viable first-level branches — the
        // distributed app's budget split — must partition the count.
        for seed in 0..5 {
            let g = to_local(&gen::gnp(11, 0.4, seed + 90));
            for (k, min, max) in [(1usize, 3usize, 5usize), (2, 3, 5)] {
                let rule = KPlex::new(k, min, max);
                for a in 0..11u32 {
                    let whole = count_anchored(&g, &rule, a);
                    let branches = first_level(&g, &rule, a);
                    assert!(branches.iter().all(|&u| is_kplex(&g, &[a, u], k)));
                    let split: u64 = (0..branches.len())
                        .map(|i| count(&g, &rule, &[a, branches[i]], &branches[i + 1..]))
                        .sum();
                    assert_eq!(split, whole, "seed {seed} anchor {a} k {k}");
                }
            }
        }
    }

    #[test]
    fn a_resumed_node_that_is_no_k_plex_counts_zero() {
        // K4 less the edge 0 – 2: {0, 1, 2} is the connected path
        // 0 – 1 – 2, no 1-plex, so neither it nor a superset counts.
        let edges =
            [(0, 1), (1, 2), (0, 3), (1, 3), (2, 3)].map(|(u, v)| (VertexId(u), VertexId(v)));
        let g = to_local(&Graph::from_edges(4, &edges));
        assert!(is_connected(&g, &[0, 1, 2]) && !is_kplex(&g, &[0, 1, 2], 1));
        assert_eq!(count(&g, &KPlex::new(1, 3, 4), &[0, 1, 2], &[3]), 0);
    }

    #[test]
    #[should_panic(expected = "2k−1")]
    fn size_floor_enforced() {
        KPlex::new(3, 3, 5); // min_size 3 < 2·3−1
    }
}
