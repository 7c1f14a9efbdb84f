//! The set-enumeration search of Fig. 1, written once under `qc` and `kp`.
//!
//! A node below an anchor is `(S, cand)`: the members so far and the
//! vertices above the anchor that may still join. Each node counts `S`
//! if `|S| ≥ min` and the [`Rule`] accepts it; stops at `|S| = max` or
//! when `|S| + |cand| < min`; lets the rule shrink `cand` or cut the
//! subtree; then adds each kept candidate `u` in turn, with the kept
//! ones after `u` as the child's `cand`, so every set is visited once.
//! `S` and `cand` are bitsets, read through [`LocalGraph::count_in`] and
//! [`LocalGraph::neighbors_in`], which use the adjacency matrix when
//! there is one and the lists otherwise: the search runs on every ego
//! network, of any size.

use gthinker_graph::bitset::BitSet;
use gthinker_graph::subgraph::LocalGraph;

/// What one set-enumeration miner counts and cuts.
pub trait Rule {
    /// The counted sizes, `min..=max`.
    fn sizes(&self) -> (usize, usize);

    /// Whether `s`, of a counted size, is counted.
    fn accept(&self, g: &LocalGraph, s: &Members) -> bool;

    /// Writes into `viable` the candidates of `cand` that may still join
    /// `s`; `false` when no set below `s` can be counted. `inside[i]` is
    /// `|Γ(v) ∩ S|` of the `i`-th member `v` of [`Members::iter`].
    fn shrink(
        &self,
        g: &LocalGraph,
        s: &Members,
        inside: &[usize],
        cand: &BitSet,
        viable: &mut BitSet,
    ) -> bool;
}

/// The members `S` of a node, as a list and as a bitset.
pub struct Members {
    list: Vec<u32>,
    bits: BitSet,
}

impl Members {
    fn new(g: &LocalGraph, s: &[u32]) -> Self {
        let mut members = Members { list: Vec::new(), bits: BitSet::new(g.num_vertices()) };
        s.iter().for_each(|&v| members.push(v));
        members
    }

    /// `|S|`.
    pub fn size(&self) -> usize {
        self.list.len()
    }

    /// `S` as a bitset over the ego network.
    pub fn bits(&self) -> &BitSet {
        &self.bits
    }

    /// The members, in the order they joined.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.list.iter().copied()
    }

    /// Whether `S` induces a connected subgraph. Two members with `|S| − 1`
    /// inside neighbours between them are adjacent or share one, so no
    /// search is needed when each member has `(|S| − 1)/2`; otherwise a
    /// search from the first member must reach them all.
    pub fn is_connected(&self, g: &LocalGraph) -> bool {
        let Some(&first) = self.list.first() else { return false };
        if self.iter().all(|v| 2 * g.count_in(v, &self.bits) + 1 >= self.size()) {
            return true;
        }
        let mut reached = BitSet::new(g.num_vertices());
        let mut fresh = reached.clone();
        reached.insert(first);
        let mut stack = vec![first];
        while let Some(v) = stack.pop() {
            g.neighbors_in(v, &self.bits, &mut fresh);
            fresh.and_not_assign(&reached);
            reached.or_assign(&fresh);
            stack.extend(fresh.iter());
        }
        reached.count() == self.size()
    }

    fn push(&mut self, u: u32) {
        self.list.push(u);
        self.bits.insert(u);
    }

    fn pop(&mut self) {
        let u = self.list.pop().expect("a member to drop");
        self.bits.remove(u);
    }
}

/// `set` as a bitset over `g`'s vertices.
fn bitset(g: &LocalGraph, set: &[u32]) -> BitSet {
    let mut bits = BitSet::new(g.num_vertices());
    set.iter().for_each(|&u| bits.insert(u));
    bits
}

/// The anchor's candidates: its 2-hop neighbourhood above it, ascending.
/// Both miners count only sets whose members are within 2 hops of each
/// other (γ ≥ 0.5; a connected k-plex of 2k − 1 members or more).
pub fn two_hop_candidates(g: &LocalGraph, anchor: u32) -> Vec<u32> {
    let mut ball = BitSet::new(g.num_vertices());
    for &u in g.neighbors(anchor) {
        ball.insert(u);
        g.neighbors(u).iter().for_each(|&w| ball.insert(w));
    }
    ball.iter().filter(|&w| w > anchor).collect()
}

/// The candidates `rule` keeps at the root `{anchor}`, ascending: its
/// children are `({anchor, c[i]}, c[i+1..])`, and their counts add up
/// to [`count_anchored`].
pub fn first_level<R: Rule>(g: &LocalGraph, rule: &R, anchor: u32) -> Vec<u32> {
    let cand = bitset(g, &two_hop_candidates(g, anchor));
    let mut viable = BitSet::new(g.num_vertices());
    // The anchor has no neighbour inside `{anchor}`.
    match rule.shrink(g, &Members::new(g, &[anchor]), &[0], &cand, &mut viable) {
        true => viable.iter().collect(),
        false => Vec::new(),
    }
}

/// Counts the sets `rule` counts whose least member is `anchor`.
pub fn count_anchored<R: Rule>(g: &LocalGraph, rule: &R, anchor: u32) -> u64 {
    count(g, rule, &[anchor], &two_hop_candidates(g, anchor))
}

/// Counts the sets `s ∪ X`, `X ⊆ cand`, that `rule` counts: the subtree
/// under node `(s, cand)`, in local IDs.
pub fn count<R: Rule>(g: &LocalGraph, rule: &R, s: &[u32], cand: &[u32]) -> u64 {
    let s = Members::new(g, s);
    let mut search = Search { g, rule, s, inside: Vec::new(), spare: Vec::new(), count: 0 };
    search.node(&bitset(g, cand));
    search.count
}

/// One search: the node's members and their inside degrees, a kept-
/// candidate bitset per level of the recursion (reused), the count.
struct Search<'a, R> {
    g: &'a LocalGraph,
    rule: &'a R,
    s: Members,
    inside: Vec<usize>,
    spare: Vec<BitSet>,
    count: u64,
}

impl<R: Rule> Search<'_, R> {
    fn node(&mut self, cand: &BitSet) {
        let (min, max) = self.rule.sizes();
        let size = self.s.size();
        if size >= min && self.rule.accept(self.g, &self.s) {
            self.count += 1;
        }
        if size >= max || size + cand.count() < min {
            return;
        }
        self.inside.clear();
        self.inside.extend(self.s.iter().map(|v| self.g.count_in(v, self.s.bits())));
        let mut viable = self.spare.pop().unwrap_or_else(|| BitSet::new(self.g.num_vertices()));
        let kept = self.rule.shrink(self.g, &self.s, &self.inside, cand, &mut viable);
        if kept && size + 1 == max {
            // The children are leaves: each one counts or not, and no
            // `cand` of theirs is read.
            for u in viable.iter() {
                self.s.push(u);
                self.count += u64::from(self.rule.accept(self.g, &self.s));
                self.s.pop();
            }
        } else if kept {
            // Lowest first: what is left of `viable` is the child's `cand`.
            for w in 0..viable.words().len() {
                while viable.words()[w] != 0 {
                    let u = (w as u32) << 6 | viable.words()[w].trailing_zeros();
                    viable.remove(u);
                    self.s.push(u);
                    self.node(&viable);
                    self.s.pop();
                }
            }
        }
        self.spare.push(viable);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::kplex::{count_kplexes_brute, is_connected, KPlex};
    use crate::serial::quasi::{count_quasi_cliques_brute, QuasiClique};
    use gthinker_graph::gen;
    use gthinker_graph::graph::Graph;
    use gthinker_graph::ids::VertexId;
    use gthinker_graph::subgraph::Subgraph;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// On the matrix form of `graph` and on its list form: the anchored
    /// counts add up to `brute`, and each anchor's first-level nodes
    /// partition its count.
    fn agrees_with_brute<R: Rule>(graph: &Graph, rule: &R, brute: u64, what: &str) {
        let sg = Subgraph::from_graph(graph);
        for (form, g) in [("matrix", sg.to_local()), ("lists", sg.to_local_with_threshold(0))] {
            let mut sum = 0;
            for a in 0..g.num_vertices() as u32 {
                let whole = count_anchored(&g, rule, a);
                let c = first_level(&g, rule, a);
                let split: u64 =
                    (0..c.len()).map(|i| count(&g, rule, &[a, c[i]], &c[i + 1..])).sum();
                assert_eq!(split, whole, "{what}, {form}, anchor {a}");
                sum += whole;
            }
            assert_eq!(sum, brute, "{what}, {form}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn one_search_agrees_with_brute_force(
            ba in any::<bool>(),
            n in 2usize..17,
            p in 0.2f64..0.7,
            seed in any::<u64>(),
            min in 2usize..6,
            extra in 0usize..4,
        ) {
            let graph =
                if ba { gen::barabasi_albert(n.max(4), 2, seed) } else { gen::gnp(n, p, seed) };
            let local = Subgraph::from_graph(&graph).to_local();
            for gamma in [0.5, 0.6, 0.8, 1.0] {
                let brute = count_quasi_cliques_brute(&local, gamma, min, min + extra);
                let what = format!("qc γ {gamma} sizes {min}..{}", min + extra);
                agrees_with_brute(&graph, &QuasiClique::new(gamma, min, min + extra), brute, &what);
            }
            for k in [1, 2, 3] {
                let least = min.max(2 * k - 1);
                let brute = count_kplexes_brute(&local, k, least, least + extra);
                let what = format!("kp k {k} sizes {least}..{}", least + extra);
                agrees_with_brute(&graph, &KPlex::new(k, least, least + extra), brute, &what);
            }
        }
    }

    proptest! {
        #[test]
        fn members_are_connected_as_a_search_over_the_list_finds(
            n in 1usize..40,
            p in 0.05f64..0.5,
            seed in any::<u64>(),
            picks in proptest::collection::vec(any::<u32>(), 1..12),
        ) {
            let sg = Subgraph::from_graph(&gen::gnp(n, p, seed));
            let mut s: Vec<u32> = picks.iter().map(|p| p % n as u32).collect();
            s.sort_unstable();
            s.dedup();
            for g in [sg.to_local(), sg.to_local_with_threshold(0)] {
                prop_assert_eq!(Members::new(&g, &s).is_connected(&g), is_connected(&g, &s));
            }
        }
    }

    #[test]
    fn two_hop_candidates_are_the_ball_of_radius_two_above_the_anchor() {
        let graph = gen::barabasi_albert(300, 3, 17);
        let g = Subgraph::from_graph(&graph).to_local();
        for a in 0..300u32 {
            let mut ball = BTreeSet::from([VertexId(a)]);
            let mut hop = vec![VertexId(a)];
            for _ in 0..2 {
                hop = hop.iter().flat_map(|&u| graph.neighbors(u).iter()).collect();
                hop.retain(|&w| ball.insert(w));
            }
            let want: Vec<u32> = ball.iter().map(|v| v.0).filter(|&w| w > a).collect();
            let got = two_hop_candidates(&g, a);
            assert!(got.windows(2).all(|w| w[0] < w[1]), "anchor {a}: sorted and unique");
            assert!(got.iter().all(|&w| w > a), "anchor {a}: strictly above, never the anchor");
            assert_eq!(got, want, "anchor {a}");
        }
    }
}
