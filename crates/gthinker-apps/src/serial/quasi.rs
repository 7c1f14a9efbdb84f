//! Serial γ-quasi-clique enumeration on a [`LocalGraph`].
//!
//! A vertex set `S` is a **γ-quasi-clique** if every `v ∈ S` has at
//! least `⌈γ·(|S|−1)⌉` neighbors inside `S`. The paper's quasi-clique
//! application (\[17\]) mines them with a set-enumeration search over
//! each vertex's 2-hop ego network (for γ ≥ 0.5, any two members are
//! within 2 hops).
//!
//! Scope note (documented in DESIGN.md): the reproduction enumerates
//! and counts all γ-quasi-cliques with sizes in `[min_size, max_size]`
//! whose minimum vertex is the task's anchor, rather than only the
//! *maximal* ones — maximality checking is orthogonal to the
//! framework behaviour being reproduced. Pruning uses the
//! size-monotone bound only (candidates exhausted), because the
//! quasi-clique property is not hereditary.

use gthinker_graph::bitset::BitSet;
use gthinker_graph::subgraph::LocalGraph;

/// Returns `⌈γ·k⌉` as a usize degree threshold.
fn threshold(gamma: f64, k: usize) -> usize {
    (gamma * k as f64).ceil() as usize
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

/// Counts the γ-quasi-cliques of `g` that contain local vertex
/// `anchor` as their minimum member, with `min_size ≤ |S| ≤ max_size`.
///
/// Candidates are restricted to vertices greater than `anchor` (set-
/// enumeration-tree deduplication, Fig. 1) within 2 hops of it.
pub fn count_quasi_cliques_from(
    g: &LocalGraph,
    anchor: u32,
    gamma: f64,
    min_size: usize,
    max_size: usize,
) -> u64 {
    let cand = quasi_candidates(g, anchor);
    count_quasi_cliques_state(g, &[anchor], &cand, gamma, min_size, max_size)
}

/// The anchor's candidate set: its 2-hop neighborhood restricted to IDs
/// greater than the anchor, sorted (the set-enumeration-tree order).
pub fn quasi_candidates(g: &LocalGraph, anchor: u32) -> Vec<u32> {
    let mut cand: Vec<u32> = Vec::new();
    for &u in g.neighbors(anchor) {
        if u > anchor && !cand.contains(&u) {
            cand.push(u);
        }
        for &w in g.neighbors(u) {
            if w > anchor && w != anchor && !cand.contains(&w) {
                cand.push(w);
            }
        }
    }
    cand.sort_unstable();
    cand
}

/// Resumes the set-enumeration search from an interior node: counts the
/// γ-quasi-cliques among `s ∪ (subsets of cand)` that contain all of
/// `s`, with sizes in `[min_size, max_size]`. With `s = [anchor]` and
/// `cand = quasi_candidates(..)` this is exactly
/// [`count_quasi_cliques_from`]; the distributed app uses it to split a
/// straggler task's first-level branches into independent subtasks.
pub fn count_quasi_cliques_state(
    g: &LocalGraph,
    s: &[u32],
    cand: &[u32],
    gamma: f64,
    min_size: usize,
    max_size: usize,
) -> u64 {
    assert!((0.5..=1.0).contains(&gamma), "2-hop candidate rule requires γ ≥ 0.5");
    assert!(min_size >= 2 && max_size >= min_size);
    let mut count = 0u64;
    let mut sv = s.to_vec();
    if g.is_dense() {
        let n = g.num_vertices();
        let mut scratch = QuasiScratch { sbits: BitSet::new(n), cand_bits: BitSet::new(n) };
        for &v in s {
            scratch.sbits.insert(v);
        }
        enumerate_bitset(g, &mut sv, cand, gamma, min_size, max_size, &mut count, &mut scratch);
    } else {
        enumerate(g, &mut sv, cand, gamma, min_size, max_size, &mut count);
    }
    count
}

/// Shared scratch for the word-parallel recursion: the member bitset
/// (maintained incrementally alongside `s`) and a candidate bitset
/// refilled at each node entry. Both are reused across all nodes.
struct QuasiScratch {
    sbits: BitSet,
    cand_bits: BitSet,
}

/// Word-parallel twin of [`enumerate`]: all inside-degree and potential
/// counts are AND-popcount sweeps against the dense adjacency rows.
#[allow(clippy::too_many_arguments)]
fn enumerate_bitset(
    g: &LocalGraph,
    s: &mut Vec<u32>,
    cand: &[u32],
    gamma: f64,
    min_size: usize,
    max_size: usize,
    count: &mut u64,
    scratch: &mut QuasiScratch,
) {
    if s.len() >= min_size {
        // is_quasi_clique, word-parallel: indeg_S(v) = |S ∧ Γ(v)|.
        let need = threshold(gamma, s.len() - 1);
        let ok = s
            .iter()
            .all(|&v| scratch.sbits.and_count_words(g.dense_row(v).expect("dense")) >= need);
        if ok {
            *count += 1;
        }
    }
    if s.len() >= max_size {
        return;
    }
    // Same sound upper-bound prune as the list kernel: if some member
    // can never reach the minimum inside-degree bar even with every
    // remaining candidate adjacent to it, the whole subtree is dead.
    if !s.is_empty() {
        let need = threshold(gamma, min_size - 1);
        scratch.cand_bits.clear();
        for &u in cand {
            scratch.cand_bits.insert(u);
        }
        let doomed = s.iter().any(|&v| {
            let row = g.dense_row(v).expect("dense");
            let inside = scratch.sbits.and_count_words(row);
            let potential = scratch.cand_bits.and_count_words(row);
            inside + potential < need
        });
        if doomed {
            return;
        }
    }
    // Size pruning: not enough candidates left to ever reach min_size.
    if s.len() + cand.len() < min_size {
        return;
    }
    for (i, &v) in cand.iter().enumerate() {
        s.push(v);
        scratch.sbits.insert(v);
        enumerate_bitset(g, s, &cand[i + 1..], gamma, min_size, max_size, count, scratch);
        scratch.sbits.remove(v);
        s.pop();
    }
}

fn enumerate(
    g: &LocalGraph,
    s: &mut Vec<u32>,
    cand: &[u32],
    gamma: f64,
    min_size: usize,
    max_size: usize,
    count: &mut u64,
) {
    if s.len() >= min_size && is_quasi_clique(g, s, gamma) {
        *count += 1;
    }
    if s.len() >= max_size {
        return;
    }
    // Sound subtree pruning. The quasi-clique property is not
    // hereditary, but an *upper bound* on any member's final inside-
    // degree is: within any superset of S drawn from S ∪ cand, vertex
    // v has at most indeg_S(v) + |cand ∩ Γ(v)| inside-neighbors, while
    // the requirement is at least ⌈γ·(min_size − 1)⌉ (it only grows
    // with the set size). If some v ∈ S cannot ever reach the minimum
    // bar, no descendant of this node can qualify.
    if !s.is_empty() {
        let need = threshold(gamma, min_size - 1);
        let doomed = s.iter().any(|&v| {
            let inside = s.iter().filter(|&&u| u != v && g.has_edge(u, v)).count();
            let potential = cand.iter().filter(|&&u| g.has_edge(u, v)).count();
            inside + potential < need
        });
        if doomed {
            return;
        }
    }
    // Size pruning: not enough candidates left to ever reach min_size.
    if s.len() + cand.len() < min_size {
        return;
    }
    for (i, &v) in cand.iter().enumerate() {
        s.push(v);
        enumerate(g, s, &cand[i + 1..], gamma, min_size, max_size, count);
        s.pop();
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
    use gthinker_graph::gen;
    use gthinker_graph::graph::Graph;
    use gthinker_graph::subgraph::Subgraph;

    fn to_local(g: &Graph) -> LocalGraph {
        Subgraph::from_graph(g).to_local()
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
    fn anchored_counts_partition_the_total() {
        // Summing the per-anchor counts must equal the global brute count.
        for seed in 0..5 {
            let g = to_local(&gen::gnp(10, 0.5, seed));
            let brute = count_quasi_cliques_brute(&g, 0.6, 3, 5);
            let sum: u64 = (0..10u32).map(|a| count_quasi_cliques_from(&g, a, 0.6, 3, 5)).sum();
            assert_eq!(sum, brute, "seed {seed}");
        }
    }

    #[test]
    fn two_hop_candidate_rule_is_safe_for_half_gamma() {
        // γ = 0.5 is the edge case of the 2-hop rule from [17].
        for seed in 5..9 {
            let g = to_local(&gen::gnp(9, 0.4, seed));
            let brute = count_quasi_cliques_brute(&g, 0.5, 3, 4);
            let sum: u64 = (0..9u32).map(|a| count_quasi_cliques_from(&g, a, 0.5, 3, 4)).sum();
            assert_eq!(sum, brute, "seed {seed}");
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
                let sum: u64 =
                    (0..11u32).map(|a| count_quasi_cliques_from(&g, a, gamma, min, max)).sum();
                assert_eq!(sum, brute, "seed {seed}, γ {gamma}, sizes {min}..{max}");
            }
        }
    }

    #[test]
    fn bitset_and_list_kernels_agree() {
        for seed in 0..4 {
            let g = gen::gnp(11, 0.5, seed + 70);
            let sg = Subgraph::from_graph(&g);
            let dense = sg.to_local();
            let sparse = sg.to_local_with_threshold(0);
            for (gamma, min, max) in [(0.5, 3usize, 5usize), (0.75, 3, 6), (1.0, 2, 5)] {
                for a in 0..11u32 {
                    assert_eq!(
                        count_quasi_cliques_from(&dense, a, gamma, min, max),
                        count_quasi_cliques_from(&sparse, a, gamma, min, max),
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
        for seed in 0..5 {
            let g = to_local(&gen::gnp(11, 0.45, seed + 80));
            for a in 0..11u32 {
                let whole = count_quasi_cliques_from(&g, a, 0.6, 3, 5);
                let cand = quasi_candidates(&g, a);
                let split: u64 = (0..cand.len())
                    .map(|i| {
                        count_quasi_cliques_state(&g, &[a, cand[i]], &cand[i + 1..], 0.6, 3, 5)
                    })
                    .sum();
                assert_eq!(split, whole, "seed {seed} anchor {a}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "γ ≥ 0.5")]
    fn low_gamma_rejected() {
        let g = to_local(&gen::complete(3));
        count_quasi_cliques_from(&g, 0, 0.3, 2, 3);
    }
}
