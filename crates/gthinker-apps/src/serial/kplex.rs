//! Serial **k-plex** enumeration on a [`LocalGraph`].
//!
//! A vertex set `S` is a *k-plex* if every member has at least
//! `|S| − k` neighbors inside `S` (k = 1 gives cliques). k-plexes are
//! the relaxed-clique workload of the T-thinker line of systems that
//! G-thinker opens (§VII); they slot into the same anchored
//! set-enumeration template as the other applications.
//!
//! Two structural facts drive the implementation:
//!
//! * **Heredity** — every subset of a k-plex is a k-plex, so the DFS
//!   can discard a candidate permanently the moment adding it breaks
//!   the property.
//! * **Diameter** — a *connected* k-plex with `|S| ≥ 2k − 1` has
//!   diameter at most 2, so the distributed app's 2-hop ego networks
//!   are sufficient; the size floor is enforced.

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

/// Counts the **connected** k-plexes of `g` whose minimum member is
/// `anchor`, with sizes in `[min_size, max_size]`.
///
/// # Panics
/// Panics if `min_size < 2k − 1` (the 2-hop candidate rule the
/// distributed app relies on is only sound above that size).
pub fn count_kplexes_from(
    g: &LocalGraph,
    anchor: u32,
    k: usize,
    min_size: usize,
    max_size: usize,
) -> u64 {
    assert!(k >= 1);
    assert!(
        min_size >= 2 * k - 1 && min_size >= 2,
        "connected k-plexes need |S| ≥ 2k−1 for the diameter-2 bound"
    );
    assert!(max_size >= min_size);
    let cand = kplex_candidates(g, anchor);
    count_kplexes_state(g, &[anchor], &cand, k, min_size, max_size)
}

/// The anchor's candidate set: its 2-hop neighborhood restricted to IDs
/// greater than the anchor, sorted.
pub fn kplex_candidates(g: &LocalGraph, anchor: u32) -> Vec<u32> {
    let mut cand: Vec<u32> = Vec::new();
    for &u in g.neighbors(anchor) {
        if u > anchor && !cand.contains(&u) {
            cand.push(u);
        }
        for &w in g.neighbors(u) {
            if w > anchor && !cand.contains(&w) {
                cand.push(w);
            }
        }
    }
    cand.sort_unstable();
    cand
}

/// Resumes the hereditary enumeration from an interior node: counts the
/// connected k-plexes among `s ∪ (subsets of cand)` that contain all of
/// `s`. Returns 0 when `s` itself is not a k-plex (heredity: no
/// superset can be one either). With `s = [anchor]` and
/// `cand = kplex_candidates(..)` this equals [`count_kplexes_from`];
/// the distributed app uses it to split a straggler task's first-level
/// branches into independent subtasks.
pub fn count_kplexes_state(
    g: &LocalGraph,
    s: &[u32],
    cand: &[u32],
    k: usize,
    min_size: usize,
    max_size: usize,
) -> u64 {
    assert!(k >= 1 && max_size >= min_size && min_size >= 2);
    if !is_kplex(g, s, k) {
        return 0;
    }
    let mut count = 0u64;
    let mut sv = s.to_vec();
    if g.is_dense() {
        let n = g.num_vertices();
        let mut scratch = KplexScratch {
            sbits: BitSet::new(n),
            visited: BitSet::new(n),
            reach: BitSet::new(n),
            stack: Vec::new(),
        };
        for &v in s {
            scratch.sbits.insert(v);
        }
        extend_bitset(g, &mut sv, cand, k, min_size, max_size, &mut count, &mut scratch);
    } else {
        extend(g, &mut sv, cand, k, min_size, max_size, &mut count);
    }
    count
}

/// Shared scratch for the word-parallel recursion: the member bitset
/// (maintained incrementally alongside `s`) and BFS workspace, reused
/// by every node so the hot path never allocates.
struct KplexScratch {
    sbits: BitSet,
    visited: BitSet,
    reach: BitSet,
    stack: Vec<u32>,
}

/// BFS connectivity over the members bitset: every frontier expansion
/// is `Γ(v) ∧ S ∧ ¬visited`, two word sweeps instead of a scan of `s`.
fn is_connected_bitset(g: &LocalGraph, s: &[u32], scratch: &mut KplexScratch) -> bool {
    let KplexScratch { sbits, visited, reach, stack } = scratch;
    visited.clear();
    stack.clear();
    visited.insert(s[0]);
    stack.push(s[0]);
    let mut reached = 1usize;
    while let Some(v) = stack.pop() {
        reach.assign_and_words(sbits, g.dense_row(v).expect("dense"));
        reach.and_not_assign(visited);
        for u in reach.iter() {
            visited.insert(u);
            stack.push(u);
            reached += 1;
        }
    }
    reached == s.len()
}

/// Word-parallel twin of [`extend`]: membership counts are AND-popcount
/// sweeps against the dense rows (`indeg_S(v) = |S ∧ Γ(v)|`).
#[allow(clippy::too_many_arguments)]
fn extend_bitset(
    g: &LocalGraph,
    s: &mut Vec<u32>,
    cand: &[u32],
    k: usize,
    min_size: usize,
    max_size: usize,
    count: &mut u64,
    scratch: &mut KplexScratch,
) {
    if s.len() >= min_size && is_connected_bitset(g, s, scratch) {
        *count += 1; // s is a k-plex by construction (heredity)
    }
    if s.len() >= max_size || s.len() + cand.len() < min_size {
        return;
    }
    // Heredity, word-parallel: S ∪ {u} stays a k-plex iff u has enough
    // members as neighbors and no member drops below the floor. Member
    // inside-degrees only grow by the u-adjacency bit, so one popcount
    // per member suffices.
    let viable: Vec<u32> = cand
        .iter()
        .copied()
        .filter(|&u| {
            let su_len = s.len() + 1;
            let urow = g.dense_row(u).expect("dense");
            let inside_u = scratch.sbits.and_count_words(urow);
            if inside_u + k < su_len {
                return false;
            }
            s.iter().all(|&v| {
                let vrow = g.dense_row(v).expect("dense");
                let inside_v = scratch.sbits.and_count_words(vrow) + usize::from(g.has_edge(u, v));
                inside_v + k >= su_len
            })
        })
        .collect();
    for (i, &u) in viable.iter().enumerate() {
        s.push(u);
        scratch.sbits.insert(u);
        extend_bitset(g, s, &viable[i + 1..], k, min_size, max_size, count, scratch);
        scratch.sbits.remove(u);
        s.pop();
    }
}

fn extend(
    g: &LocalGraph,
    s: &mut Vec<u32>,
    cand: &[u32],
    k: usize,
    min_size: usize,
    max_size: usize,
    count: &mut u64,
) {
    if s.len() >= min_size && is_connected(g, s) {
        *count += 1; // s is a k-plex by construction (heredity)
    }
    if s.len() >= max_size || s.len() + cand.len() < min_size {
        return;
    }
    // Heredity: only candidates that keep S ∪ {u} a k-plex can ever
    // appear in any descendant; the rest are dropped for this subtree.
    let viable: Vec<u32> = cand
        .iter()
        .copied()
        .filter(|&u| {
            s.push(u);
            let ok = is_kplex(g, s, k);
            s.pop();
            ok
        })
        .collect();
    for (i, &u) in viable.iter().enumerate() {
        s.push(u);
        extend(g, s, &viable[i + 1..], k, min_size, max_size, count);
        s.pop();
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
    use gthinker_graph::gen;
    use gthinker_graph::graph::Graph;
    use gthinker_graph::subgraph::Subgraph;

    fn to_local(g: &Graph) -> LocalGraph {
        Subgraph::from_graph(g).to_local()
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
                let sum: u64 = (0..10u32).map(|a| count_kplexes_from(&g, a, k, min, max)).sum();
                assert_eq!(sum, brute, "seed {seed}, k {k}, sizes {min}..{max}");
            }
        }
    }

    #[test]
    fn one_plexes_are_cliques() {
        let g = to_local(&gen::gnp(12, 0.5, 9));
        // Count 1-plexes (cliques) of size 3..4 and compare with a
        // direct clique count.
        let sum: u64 =
            (0..12u32).map(|a| count_kplexes_from(&g, a, 1, 3, 4)).collect::<Vec<_>>().iter().sum();
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
        for seed in 0..4 {
            let g = gen::gnp(11, 0.45, seed + 30);
            let sg = Subgraph::from_graph(&g);
            let dense = sg.to_local();
            let sparse = sg.to_local_with_threshold(0);
            assert!(dense.is_dense() && !sparse.is_dense());
            for (k, min, max) in [(1usize, 3usize, 5usize), (2, 3, 6), (3, 5, 7)] {
                for a in 0..11u32 {
                    assert_eq!(
                        count_kplexes_from(&dense, a, k, min, max),
                        count_kplexes_from(&sparse, a, k, min, max),
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
                for a in 0..11u32 {
                    let whole = count_kplexes_from(&g, a, k, min, max);
                    let branches: Vec<u32> = kplex_candidates(&g, a)
                        .into_iter()
                        .filter(|&u| is_kplex(&g, &[a, u], k))
                        .collect();
                    let split: u64 = (0..branches.len())
                        .map(|i| {
                            count_kplexes_state(
                                &g,
                                &[a, branches[i]],
                                &branches[i + 1..],
                                k,
                                min,
                                max,
                            )
                        })
                        .sum();
                    assert_eq!(split, whole, "seed {seed} anchor {a} k {k}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "2k−1")]
    fn size_floor_enforced() {
        let g = to_local(&gen::complete(4));
        count_kplexes_from(&g, 0, 3, 3, 5); // min_size 3 < 2·3−1
    }
}
