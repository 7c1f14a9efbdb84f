//! The γ-quasi-clique [`Rule`] of the set-enumeration search ([`super::setenum`]).
//!
//! A vertex set `S` is a **γ-quasi-clique** if every `v ∈ S` has at
//! least `⌈γ·(|S|−1)⌉` neighbors inside `S`. The paper's quasi-clique
//! application (\[17\]) mines them over each vertex's 2-hop ego network
//! (for γ ≥ 0.5, any two members are within 2 hops). All of them with
//! sizes in `[min_size, max_size]` are counted, not only the *maximal*
//! ones (DESIGN.md's scope note). The property is not hereditary, so the
//! only cut is a degree bound on the members.

use super::setenum::{Members, Rule};
use gthinker_graph::bitset::BitSet;
use gthinker_graph::subgraph::LocalGraph;

/// `⌈γ·k⌉`, the inside degree a member of a `k + 1`-set needs. `γ·k` in
/// `f64` can land a hair above the integer it is (`0.56 × 25` gives
/// 14.000000000000002, so `ceil` would demand one neighbour too many);
/// γ is a decimal, so within 1e-9 of an integer is that integer.
fn threshold(gamma: f64, k: usize) -> usize {
    (gamma * k as f64 - 1e-9).ceil() as usize
}

/// True if local vertex set `s` (sorted) is a γ-quasi-clique of `g`.
pub fn is_quasi_clique(g: &LocalGraph, s: &[u32], gamma: f64) -> bool {
    if s.len() <= 1 {
        return !s.is_empty();
    }
    let need = threshold(gamma, s.len() - 1);
    s.iter().all(|&v| {
        let deg_in = s.iter().filter(|&&u| u != v && g.has_edge(u, v)).count();
        deg_in >= need
    })
}

/// The γ-quasi-clique [`Rule`]: counts the quasi-cliques with sizes in
/// `[min_size, max_size]`.
pub struct QuasiClique {
    /// Density threshold γ ∈ [0.5, 1].
    pub gamma: f64,
    /// Smallest quasi-clique size to count.
    pub min_size: usize,
    /// Largest quasi-clique size to count (bounds the enumeration).
    pub max_size: usize,
}

impl QuasiClique {
    /// The rule; `gamma` must be in `[0.5, 1]` for the 2-hop candidate
    /// rule to be sound, and `2 ≤ min_size ≤ max_size`.
    pub fn new(gamma: f64, min_size: usize, max_size: usize) -> Self {
        assert!((0.5..=1.0).contains(&gamma), "2-hop candidate rule requires γ ≥ 0.5");
        assert!(min_size >= 2 && max_size >= min_size);
        QuasiClique { gamma, min_size, max_size }
    }
}

impl Rule for QuasiClique {
    fn sizes(&self) -> (usize, usize) {
        (self.min_size, self.max_size)
    }

    fn accept(&self, g: &LocalGraph, s: &Members) -> bool {
        let need = threshold(self.gamma, s.size() - 1);
        s.iter().all(|v| g.count_in(v, s.bits()) >= need)
    }

    /// The quasi-clique property is not hereditary, but an *upper bound*
    /// on any member's final inside-degree is: within any superset of S
    /// drawn from S ∪ cand, vertex v has at most indeg_S(v) + |cand ∩ Γ(v)|
    /// inside-neighbors, while the requirement is at least
    /// ⌈γ·(min_size − 1)⌉ (it only grows with the set size). If some
    /// v ∈ S cannot ever reach the minimum bar, no descendant qualifies.
    fn shrink(
        &self,
        g: &LocalGraph,
        s: &Members,
        inside: &[usize],
        cand: &BitSet,
        viable: &mut BitSet,
    ) -> bool {
        let need = threshold(self.gamma, self.min_size - 1);
        if s.iter().zip(inside).any(|(v, &d)| d + g.count_in(v, cand) < need) {
            return false;
        }
        viable.copy_from(cand);
        true
    }
}

/// Brute force over all subsets of the whole graph (for tests):
/// counts all γ-quasi-cliques with size in `[min_size, max_size]`.
pub fn count_quasi_cliques_brute(
    g: &LocalGraph,
    gamma: f64,
    min_size: usize,
    max_size: usize,
) -> u64 {
    let n = g.num_vertices();
    assert!(n <= 20, "brute force is for tiny graphs");
    let mut count = 0u64;
    for mask in 1u32..(1 << n) {
        let s: Vec<u32> = (0..n as u32).filter(|&i| mask & (1 << i) != 0).collect();
        if s.len() >= min_size && s.len() <= max_size && is_quasi_clique(g, &s, gamma) {
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
    fn anchored_sum(g: &LocalGraph, gamma: f64, min: usize, max: usize) -> u64 {
        let rule = QuasiClique::new(gamma, min, max);
        (0..g.num_vertices() as u32).map(|a| count_anchored(g, &rule, a)).sum()
    }

    #[test]
    fn cliques_are_quasi_cliques() {
        let g = to_local(&gen::complete(5));
        assert!(is_quasi_clique(&g, &[0, 1, 2, 3, 4], 1.0));
        assert!(is_quasi_clique(&g, &[0, 2, 4], 0.9));
    }

    #[test]
    fn sparse_sets_fail_high_gamma() {
        let g = to_local(&gen::cycle(5));
        // In C5, each vertex of the full set has 2 of 4 possible
        // neighbors: γ=0.5 passes, γ=0.6 fails.
        assert!(is_quasi_clique(&g, &[0, 1, 2, 3, 4], 0.5));
        assert!(!is_quasi_clique(&g, &[0, 1, 2, 3, 4], 0.6));
    }

    #[test]
    fn threshold_is_exact_for_every_gamma_in_hundredths() {
        for h in 50..=100usize {
            for k in 1..=200 {
                let want = (h * k).div_ceil(100);
                assert_eq!(threshold(h as f64 / 100.0, k), want, "γ 0.{h}, k {k}");
            }
        }
    }

    #[test]
    fn a_regular_set_at_exactly_gamma_is_a_quasi_clique() {
        // Each of the 26 vertices has the 14 neighbours at offsets ±1..7:
        // 14 of 25 others, 0.56 × 25 = 14 exactly.
        let edges: Vec<_> = (0..26u32)
            .flat_map(|i| (1..=7).map(move |d| (VertexId(i), VertexId((i + d) % 26))))
            .collect();
        let g = to_local(&Graph::from_edges(26, &edges));
        let all: Vec<u32> = (0..26).collect();
        assert!(is_quasi_clique(&g, &all, 0.56));
        assert!(!is_quasi_clique(&g, &all, 0.57));
        assert_eq!(anchored_sum(&g, 0.56, 26, 26), 1, "the search keeps it too");
    }

    #[test]
    fn anchored_counts_partition_the_total() {
        // Summing the per-anchor counts must equal the global brute count.
        for seed in 0..5 {
            let g = to_local(&gen::gnp(10, 0.5, seed));
            let brute = count_quasi_cliques_brute(&g, 0.6, 3, 5);
            assert_eq!(anchored_sum(&g, 0.6, 3, 5), brute, "seed {seed}");
        }
    }

    #[test]
    fn two_hop_candidate_rule_is_safe_for_half_gamma() {
        // γ = 0.5 is the edge case of the 2-hop rule from [17].
        for seed in 5..9 {
            let g = to_local(&gen::gnp(9, 0.4, seed));
            let brute = count_quasi_cliques_brute(&g, 0.5, 3, 4);
            assert_eq!(anchored_sum(&g, 0.5, 3, 4), brute, "seed {seed}");
        }
    }

    #[test]
    fn pruning_preserves_counts_at_high_gamma() {
        // High γ and large min_size make the doomed-vertex prune fire
        // constantly; counts must still match brute force exactly.
        for seed in 20..28 {
            let g = to_local(&gen::gnp(11, 0.45, seed));
            for (gamma, min, max) in [(0.9, 4, 6), (1.0, 3, 5), (0.75, 5, 7)] {
                let brute = count_quasi_cliques_brute(&g, gamma, min, max);
                let sum = anchored_sum(&g, gamma, min, max);
                assert_eq!(sum, brute, "seed {seed}, γ {gamma}, sizes {min}..{max}");
            }
        }
    }

    #[test]
    fn bitset_and_list_kernels_agree() {
        // The search reads the graph through `count_in`/`neighbors_in`,
        // which run on the matrix (word AND/popcount) or on the lists
        // (a bit test per entry): both forms must count alike.
        for seed in 0..4 {
            let g = gen::gnp(11, 0.5, seed + 70);
            let sg = Subgraph::from_graph(&g);
            let dense = sg.to_local();
            let sparse = sg.to_local_with_threshold(0);
            assert!(dense.is_dense() && !sparse.is_dense());
            for (gamma, min, max) in [(0.5, 3usize, 5usize), (0.75, 3, 6), (1.0, 2, 5)] {
                let rule = QuasiClique::new(gamma, min, max);
                for a in 0..11u32 {
                    assert_eq!(
                        count_anchored(&dense, &rule, a),
                        count_anchored(&sparse, &rule, a),
                        "seed {seed} anchor {a} γ {gamma}"
                    );
                }
            }
        }
    }

    #[test]
    fn first_level_split_partitions_each_anchor_count() {
        // Splitting a node into its first-level branches — what the
        // distributed app does under a compute budget — must partition
        // the anchored count exactly.
        let rule = QuasiClique::new(0.6, 3, 5);
        for seed in 0..5 {
            let g = to_local(&gen::gnp(11, 0.45, seed + 80));
            for a in 0..11u32 {
                let whole = count_anchored(&g, &rule, a);
                let cand = first_level(&g, &rule, a);
                let split: u64 =
                    (0..cand.len()).map(|i| count(&g, &rule, &[a, cand[i]], &cand[i + 1..])).sum();
                assert_eq!(split, whole, "seed {seed} anchor {a}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "γ ≥ 0.5")]
    fn low_gamma_rejected() {
        QuasiClique::new(0.3, 2, 3);
    }
}
