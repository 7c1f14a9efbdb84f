//! The task-local subgraph `g` of the paper's `Subgraph` class.
//!
//! A task grows its subgraph by saving pulled vertices (and the relevant
//! part of their adjacency lists) into `g` inside `compute()`; the
//! framework releases the pulled cache entries right after `compute()`
//! returns, so everything the task still needs must live here.
//!
//! Two forms are provided:
//! * [`Subgraph`] — what a task keeps and ships: one row block keyed
//!   by global [`VertexId`], IDs ascending and rows end to end, in
//!   memory as in the task codec; a lookup is one binary search.
//! * [`LocalGraph`] — a dense-index, symmetric snapshot for tight
//!   serial mining loops (Bron–Kerbosch, matching); built once, via
//!   [`Subgraph::to_local`] or, from members' whole symmetric lists,
//!   [`LocalGraph::induced`].

use crate::bitset::{words_for, BitSet};
use crate::graph::Graph;
use crate::ids::{Label, VertexId};

/// A [`Subgraph`] as it is stored: its IDs, where each row ends, the
/// rows end to end, and its labels.
pub type Parts<'a> = (&'a [VertexId], &'a [u32], &'a [VertexId], Option<&'a [Label]>);

/// A task's subgraph: one block of rows, one per vertex, keyed by
/// global vertex IDs.
///
/// The IDs are strictly ascending, and so is each row, the part of the
/// vertex's list the task keeps (it may name vertices off the block,
/// and may hold only one direction of an edge). Whether the block is
/// labeled, one label per row, is fixed when it is built.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Subgraph {
    ids: Vec<VertexId>,
    /// Where each row ends in `nbrs`; row `i` starts where row `i − 1`
    /// ends, row 0 at 0. One per row, so an empty block holds nothing.
    offsets: Vec<u32>,
    nbrs: Vec<VertexId>,
    labels: Option<Vec<Label>>,
}

impl Subgraph {
    /// Creates an empty, unlabeled subgraph.
    pub fn new() -> Self {
        Self::default()
    }

    /// The whole of `g` as a subgraph, labels included when `g` has
    /// them: what a serial kernel is handed when it mines a graph that
    /// fits in one task (tests, baselines, the kernel benchmarks).
    pub fn from_graph(g: &Graph) -> Self {
        Self::from_rows(g.vertices().map(|v| (v, g.neighbors(v).as_slice(), g.label(v))))
    }

    /// The block of `rows` given in any order, each `(v, its row, its
    /// label)`; labeled when the rows carry labels.
    ///
    /// # Panics
    /// Panics when two rows share a vertex, or some rows carry a label
    /// and others do not.
    pub fn from_rows<'a>(
        rows: impl IntoIterator<Item = (VertexId, &'a [VertexId], Option<Label>)>,
    ) -> Self {
        let mut rows: Vec<_> = rows.into_iter().collect();
        // Stable: rows that come as sorted runs are merged, not re-sorted.
        rows.sort_by_key(|r| r.0);
        let mut g = Subgraph::new();
        rows.iter().for_each(|&(v, row, _)| g.add_vertex(v, row));
        let labeled = rows.first().is_some_and(|r| r.2.is_some());
        assert!(rows.iter().all(|r| r.2.is_some() == labeled), "every row has a label, or none");
        g.labels = labeled.then(|| rows.iter().filter_map(|r| r.2).collect());
        g
    }

    /// The rows of `g` in global IDs, labels included: the block a task
    /// carries its kernel's input in, which [`Subgraph::to_local`]
    /// turns back into `g`.
    pub fn from_local(g: &LocalGraph) -> Self {
        Subgraph {
            ids: g.ids.clone(),
            offsets: g.offsets[1..].to_vec(),
            nbrs: g.nbrs.iter().map(|&j| g.ids[j as usize]).collect(),
            labels: g.labels.clone(),
        }
    }

    /// The block of the four parts [`Subgraph::parts`] returns, checked
    /// (a codec's decoder hands them over as they came off the wire):
    /// the first broken rule is the error.
    pub fn from_parts(
        ids: Vec<VertexId>,
        offsets: Vec<u32>,
        nbrs: Vec<VertexId>,
        labels: Option<Vec<Label>>,
    ) -> Result<Self, &'static str> {
        let g = Subgraph { ids, offsets, nbrs, labels };
        let n = g.ids.len();
        let sorted = |s: &[VertexId]| s.windows(2).all(|w| w[0] < w[1]);
        let rule = |kept: bool, broken| if kept { Ok(()) } else { Err(broken) };
        rule(sorted(&g.ids), "subgraph ids not strictly ascending")?;
        rule(g.offsets.len() == n, "one row end per subgraph vertex")?;
        rule(g.offsets.is_sorted(), "subgraph row ends not ascending")?;
        let end = g.offsets.last().map_or(0, |&end| end as usize);
        rule(end == g.nbrs.len(), "subgraph rows do not end at the last neighbor")?;
        rule((0..n).all(|i| sorted(g.row(i))), "subgraph row not strictly ascending")?;
        rule(g.labels.as_ref().is_none_or(|l| l.len() == n), "one label per subgraph vertex")?;
        Ok(g)
    }

    /// The block as it is stored (see [`Subgraph::from_parts`]).
    pub fn parts(&self) -> Parts<'_> {
        (&self.ids, &self.offsets, &self.nbrs, self.labels.as_deref())
    }

    /// Appends vertex `v` with `adj`, the part of `Γ(v)` the task keeps
    /// (strictly ascending).
    ///
    /// # Panics
    /// Panics when `v` is not above every vertex already in, or the
    /// block is labeled (a labeled block is built whole, by
    /// [`Subgraph::from_rows`]).
    pub fn add_vertex(&mut self, v: VertexId, adj: impl AsRef<[VertexId]>) {
        assert!(self.labels.is_none(), "a labeled subgraph is built by Subgraph::from_rows");
        let row = adj.as_ref();
        if let Some(&last) = self.ids.last() {
            assert!(v > last, "subgraph rows go in ascending order: {v} after {last}");
        }
        debug_assert!(row.windows(2).all(|w| w[0] < w[1]), "a row is strictly ascending");
        self.ids.push(v);
        self.nbrs.extend_from_slice(row);
        self.offsets.push(u32::try_from(self.nbrs.len()).expect("under 2³² row entries"));
    }

    /// The row of the `i`-th vertex.
    #[inline]
    fn row(&self, i: usize) -> &[VertexId] {
        let start = if i == 0 { 0 } else { self.offsets[i - 1] as usize };
        &self.nbrs[start..self.offsets[i] as usize]
    }

    /// Number of vertices `|V(g)|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.ids.len()
    }

    /// Number of undirected edges currently stored.
    ///
    /// Counts only edges whose **both** endpoints are in the subgraph;
    /// entries naming other vertices are ignored. An entry is counted
    /// once whether or not it is mirrored.
    pub fn num_edges(&self) -> usize {
        // Each unordered pair once: either u < v, or the mirror entry is
        // absent.
        let counted = |u: VertexId, v: VertexId| {
            self.neighbors(v).is_some_and(|back| u < v || back.binary_search(&u).is_err())
        };
        self.rows().map(|(u, row, _)| row.iter().filter(|&&v| counted(u, v)).count()).sum()
    }

    /// True if the subgraph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// True if `v` has a row.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.ids.binary_search(&v).is_ok()
    }

    /// The vertex IDs, ascending.
    pub fn vertex_ids(&self) -> &[VertexId] {
        &self.ids
    }

    /// The row of `v`, if present.
    pub fn neighbors(&self, v: VertexId) -> Option<&[VertexId]> {
        self.ids.binary_search(&v).ok().map(|i| self.row(i))
    }

    /// The label of `v`, if the block is labeled and `v` is present.
    pub fn label(&self, v: VertexId) -> Option<Label> {
        let labels = self.labels.as_ref()?;
        self.ids.binary_search(&v).ok().map(|i| labels[i])
    }

    /// Every row as `(v, its row, its label)`, by ascending `v`.
    pub fn rows(&self) -> impl Iterator<Item = (VertexId, &[VertexId], Option<Label>)> + '_ {
        let label = |i: usize| self.labels.as_ref().map(|l| l[i]);
        (0..self.ids.len()).map(move |i| (self.ids[i], self.row(i), label(i)))
    }

    /// Snapshots into a dense [`LocalGraph`] for serial mining, using
    /// the default dense-matrix threshold
    /// ([`LocalGraph::DEFAULT_DENSE_THRESHOLD`]).
    ///
    /// Local index `i` is the `i`-th vertex, so ID-based pruning rules
    /// keep working on local indices. Adjacency is symmetrized and
    /// restricted to subgraph members.
    pub fn to_local(&self) -> LocalGraph {
        self.to_local_with_threshold(LocalGraph::DEFAULT_DENSE_THRESHOLD)
    }

    /// Like [`Subgraph::to_local`], but builds the O(n²/8)-byte dense
    /// adjacency bit matrix only when `n ≤ dense_threshold` (pass `0` to
    /// force the sorted-list representation, `usize::MAX` to force the
    /// matrix; see DESIGN.md §"Kernel selection").
    ///
    /// Each row entry is found by a binary search that starts past the
    /// last one's, since a row is ascending.
    pub fn to_local_with_threshold(&self, dense_threshold: usize) -> LocalGraph {
        let n = self.ids.len();
        // Both directions of every entry inside the block and off the
        // diagonal; a mirrored entry lands twice, deduplicated below.
        let mut pairs = Vec::with_capacity(2 * self.nbrs.len());
        for i in 0..n {
            let mut at = 0;
            for v in self.row(i) {
                at += self.ids[at..].partition_point(|w| w < v);
                if self.ids.get(at) == Some(v) && at != i {
                    pairs.extend([(i as u32, at as u32), (at as u32, i as u32)]);
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut offsets = vec![0u32; n + 1];
        pairs.iter().for_each(|&(i, _)| offsets[i as usize + 1] += 1);
        (0..n).for_each(|i| offsets[i + 1] += offsets[i]);
        let nbrs: Vec<u32> = pairs.into_iter().map(|(_, j)| j).collect();
        let dense = DenseAdj::from_rows(dense_threshold, &offsets, &nbrs);
        LocalGraph { ids: self.ids.clone(), offsets, nbrs, labels: self.labels.clone(), dense }
    }

    /// Approximate heap bytes held by this subgraph (task memory
    /// accounting for the simulator).
    pub fn heap_bytes(&self) -> usize {
        (self.ids.capacity() + self.nbrs.capacity()) * std::mem::size_of::<VertexId>()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.labels.as_ref().map_or(0, |l| l.capacity() * std::mem::size_of::<Label>())
    }
}

/// Member → local ID for [`LocalGraph::induced`], which probes it once
/// per entry of every short list, most often for a non-member. Linear
/// probing over 16 slots per member (128 bytes each, freed on return)
/// makes a miss one load and a well-predicted branch: over all anchors
/// of the `mc_compute_local` graph (one thread, 2-vCPU Xeon host) the
/// build ran ≈ 35% faster than with the general map of [`crate::hash`]
/// and ≈ 10% faster than with 8 slots per member. A slot is `id << 32 | (local + 1)`; 0 is
/// empty.
struct MemberIndex {
    slots: Vec<u64>,
    shift: u32,
}

impl MemberIndex {
    fn new(ids: &[VertexId]) -> Self {
        let bits = (16 * ids.len()).max(2).next_power_of_two().trailing_zeros();
        let mut index = MemberIndex { slots: vec![0; 1 << bits], shift: 64 - bits };
        let mask = index.slots.len() - 1;
        for (i, &v) in ids.iter().enumerate() {
            let mut at = index.home(v);
            while index.slots[at] != 0 {
                at = (at + 1) & mask;
            }
            index.slots[at] = u64::from(v.0) << 32 | (i as u64 + 1);
        }
        index
    }

    /// Fibonacci hashing: the top bits of `v` times 2⁶⁴/φ.
    #[inline]
    fn home(&self, v: VertexId) -> usize {
        (u64::from(v.0).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    #[inline]
    fn get(&self, v: VertexId) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut at = self.home(v);
        loop {
            match self.slots[at] {
                0 => return None,
                slot if (slot >> 32) as u32 == v.0 => return Some(slot as u32 - 1),
                _ => at = (at + 1) & mask,
            }
        }
    }
}

/// The dense adjacency bit matrix: row `i` holds `words_per_row` words
/// whose set bits are the neighbors of local vertex `i`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct DenseAdj {
    words_per_row: usize,
    bits: Vec<u64>,
}

impl DenseAdj {
    /// The matrix of the CSR rows `offsets`/`nbrs` (symmetric, deduped),
    /// for word-parallel kernels; `None` past `threshold`. A zero
    /// threshold disables the matrix even for an empty graph, so it
    /// reliably forces the sorted-list kernels.
    fn from_rows(threshold: usize, offsets: &[u32], nbrs: &[u32]) -> Option<DenseAdj> {
        let n = offsets.len() - 1;
        if threshold == 0 || n > threshold {
            return None;
        }
        let wpr = words_for(n);
        let mut bits = vec![0u64; n * wpr];
        for i in 0..n {
            let row = &mut bits[i * wpr..(i + 1) * wpr];
            for &j in &nbrs[offsets[i] as usize..offsets[i + 1] as usize] {
                row[j as usize >> 6] |= 1u64 << (j & 63);
            }
        }
        Some(DenseAdj { words_per_row: wpr, bits })
    }
}

/// A dense-index, symmetric snapshot of a [`Subgraph`] for serial miners.
///
/// Adjacency is stored CSR-style (one flat sorted buffer plus offsets).
/// For subgraphs up to the dense threshold an adjacency **bit matrix**
/// is also kept, turning [`LocalGraph::has_edge`] into a single bit
/// test and exposing word rows ([`LocalGraph::dense_row`]) that the
/// serial miners combine with [`crate::bitset::BitSet`] scratch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocalGraph {
    ids: Vec<VertexId>,
    offsets: Vec<u32>,
    nbrs: Vec<u32>,
    labels: Option<Vec<Label>>,
    dense: Option<DenseAdj>,
}

impl LocalGraph {
    /// Largest vertex count for which [`Subgraph::to_local`] builds the
    /// dense bit matrix. At this size the matrix costs `n²/8` = 8 MiB —
    /// comparable to the CSR rows a task of that size already holds —
    /// while above it the quadratic memory (and row-scan cost on mostly
    /// empty words) overtakes the win; see DESIGN.md §"Kernel selection".
    pub const DEFAULT_DENSE_THRESHOLD: usize = 8192;

    /// The crossover of [`LocalGraph::induced`]: a member list longer
    /// than this many times the member count is never scanned. On the
    /// `mc_compute_local` graph (friendster-s ×0.8, all 19 200 anchors,
    /// one thread of a 2-vCPU host; ROADMAP's ego-network harness) the
    /// last hop took 1.21 s merge-intersecting every list with the
    /// members, 0.41 s probing each entry with galloping past 4×, and
    /// 0.25 s filling the rows of lists past 4× from the short side.
    pub const LONG_LIST_FACTOR: usize = 4;

    /// The subgraph induced on the members `ids` (strictly ascending:
    /// local IDs are positions in it), built straight from their whole
    /// adjacency lists — `lists[i]` is `Γ(ids[i])` — with `labels`, if
    /// any, one per member, and the default dense threshold.
    ///
    /// A list of at most [`LocalGraph::LONG_LIST_FACTOR`]`·n` entries
    /// is probed entry by entry against a member → local map and fills
    /// its own row, already sorted. A longer (hub) list is never
    /// scanned: its row is filled from the short side, and a pair of
    /// hubs costs one binary search. So the lists must be symmetric on
    /// the members, `w ∈ Γ(u) ⇔ u ∈ Γ(w)`, and loop-free (as every
    /// loaded [`Graph`] is): the result then equals [`Subgraph::to_local`]
    /// of the members with their lists.
    pub fn induced(ids: Vec<VertexId>, lists: &[&[VertexId]], labels: Option<Vec<Label>>) -> Self {
        let n = ids.len();
        assert_eq!(lists.len(), n, "one list per member");
        assert!(labels.as_ref().is_none_or(|l| l.len() == n), "one label per member");
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "members must be strictly ascending");
        let local = MemberIndex::new(&ids);
        let hub: Vec<bool> = lists.iter().map(|l| l.len() > Self::LONG_LIST_FACTOR * n).collect();
        // Short rows, each in one pass over its own list, end to end in
        // `short` (a hub's row is empty there); hub rows as `(row, entry)`.
        let mut short = Vec::new();
        let mut short_end = Vec::with_capacity(n);
        let mut to_hub: Vec<(u32, u32)> = Vec::new();
        for (i, list) in lists.iter().enumerate() {
            if !hub[i] {
                for w in list.iter() {
                    let Some(j) = local.get(*w) else { continue };
                    short.push(j);
                    if hub[j as usize] {
                        to_hub.push((j, i as u32));
                    }
                }
            }
            short_end.push(short.len());
        }
        let hubs: Vec<usize> = (0..n).filter(|&i| hub[i]).collect();
        for (k, &a) in hubs.iter().enumerate() {
            for &b in &hubs[k + 1..] {
                if lists[a].binary_search(&ids[b]).is_ok() {
                    to_hub.extend([(a as u32, b as u32), (b as u32, a as u32)]);
                }
            }
        }
        to_hub.sort_unstable();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut nbrs = Vec::with_capacity(short.len() + to_hub.len());
        let (mut s, mut h) = (0, 0);
        for i in 0..n {
            if hub[i] {
                let end = h + to_hub[h..].partition_point(|&(row, _)| row as usize == i);
                nbrs.extend(to_hub[h..end].iter().map(|&(_, j)| j));
                h = end;
            } else {
                nbrs.extend_from_slice(&short[s..short_end[i]]);
            }
            s = short_end[i];
            offsets.push(nbrs.len() as u32);
        }
        let dense = DenseAdj::from_rows(Self::DEFAULT_DENSE_THRESHOLD, &offsets, &nbrs);
        let g = LocalGraph { ids, offsets, nbrs, labels, dense };
        debug_assert!(
            (0..n as u32).all(|i| g.neighbors(i).iter().all(|&j| j != i && g.has_edge(j, i))),
            "member lists must be symmetric and loop-free on the members"
        );
        g
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.ids.len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.nbrs.len() / 2
    }

    /// Sorted neighbor indices of local vertex `i`.
    #[inline]
    pub fn neighbors(&self, i: u32) -> &[u32] {
        &self.nbrs[self.offsets[i as usize] as usize..self.offsets[i as usize + 1] as usize]
    }

    /// Degree of local vertex `i`.
    #[inline]
    pub fn degree(&self, i: u32) -> usize {
        (self.offsets[i as usize + 1] - self.offsets[i as usize]) as usize
    }

    /// The global ID of local vertex `i`.
    #[inline]
    pub fn global_id(&self, i: u32) -> VertexId {
        self.ids[i as usize]
    }

    /// The local index of global vertex `v` — the inverse of
    /// [`LocalGraph::global_id`] — or `None` when `v` is not a member.
    /// A binary search: local index order is global ID order.
    #[inline]
    pub fn local_id(&self, v: VertexId) -> Option<u32> {
        self.ids.binary_search(&v).ok().map(|i| i as u32)
    }

    /// The label of local vertex `i`, if labeled.
    pub fn label(&self, i: u32) -> Option<Label> {
        self.labels.as_ref().map(|l| l[i as usize])
    }

    /// True when the dense adjacency bit matrix is available and the
    /// word-parallel kernels apply.
    #[inline]
    pub fn is_dense(&self) -> bool {
        self.dense.is_some()
    }

    /// Words per dense adjacency row (`⌈n/64⌉`); 0 when sparse.
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.dense.as_ref().map_or(0, |d| d.words_per_row)
    }

    /// The dense adjacency row of local vertex `i` as a word slice, if
    /// the bit matrix was built.
    #[inline]
    pub fn dense_row(&self, i: u32) -> Option<&[u64]> {
        self.dense.as_ref().map(|d| {
            let start = i as usize * d.words_per_row;
            &d.bits[start..start + d.words_per_row]
        })
    }

    /// Edge membership between local indices: an O(1) bit test when the
    /// dense matrix is present, a binary search otherwise.
    #[inline]
    pub fn has_edge(&self, i: u32, j: u32) -> bool {
        match &self.dense {
            Some(d) => {
                d.bits[i as usize * d.words_per_row + (j as usize >> 6)] & (1u64 << (j & 63)) != 0
            }
            None => self.neighbors(i).binary_search(&j).is_ok(),
        }
    }

    /// `|Γ(i) ∩ set|`: an AND-popcount over the matrix row, or a bit
    /// test per entry of `i`'s list when there is no matrix. `set`'s
    /// universe is the vertex count.
    #[inline]
    pub fn count_in(&self, i: u32, set: &BitSet) -> usize {
        match self.dense_row(i) {
            Some(row) => set.and_count_words(row),
            None => self.neighbors(i).iter().filter(|&&j| set.contains(j)).count(),
        }
    }

    /// Writes `Γ(i) ∩ set` into `out`, both over the vertex count, the
    /// same two ways as [`LocalGraph::count_in`].
    #[inline]
    pub fn neighbors_in(&self, i: u32, set: &BitSet, out: &mut BitSet) {
        match self.dense_row(i) {
            Some(row) => out.assign_and_words(set, row),
            None => {
                out.clear();
                self.neighbors(i).iter().filter(|&&j| set.contains(j)).for_each(|&j| out.insert(j));
            }
        }
    }

    /// Maps a set of local indices back to global IDs.
    pub fn to_global(&self, locals: &[u32]) -> Vec<VertexId> {
        locals.iter().map(|&i| self.global_id(i)).collect()
    }

    /// Maps a set of global IDs to local indices — the inverse of
    /// [`LocalGraph::to_global`].
    ///
    /// # Panics
    /// Panics if one of them is not a member.
    pub fn to_local_ids(&self, globals: &[VertexId]) -> Vec<u32> {
        globals.iter().map(|&v| self.local_id(v).expect("vertex is in the subgraph")).collect()
    }

    /// Approximate heap bytes (CSR rows + bit matrix), for task memory
    /// accounting.
    pub fn heap_bytes(&self) -> usize {
        self.nbrs.capacity() * std::mem::size_of::<u32>()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.ids.capacity() * std::mem::size_of::<VertexId>()
            + self.dense.as_ref().map_or(0, |d| d.bits.capacity() * 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adj::AdjList;

    fn adj(v: &[u32]) -> AdjList {
        AdjList::from_unsorted(v.iter().map(|&x| VertexId(x)).collect())
    }

    fn ids(v: &[u32]) -> Vec<VertexId> {
        v.iter().map(|&x| VertexId(x)).collect()
    }

    #[test]
    fn add_and_query_vertices() {
        let mut g = Subgraph::new();
        g.add_vertex(VertexId(5), adj(&[7]));
        g.add_vertex(VertexId(7), adj(&[5]));
        assert_eq!(g.num_vertices(), 2);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(VertexId(5)), Some(&ids(&[7])[..]));
        assert_eq!(g.neighbors(VertexId(6)), None);
        assert!(g.contains(VertexId(7)));
        assert!(!g.contains(VertexId(9)));
    }

    #[test]
    #[should_panic(expected = "ascending order")]
    fn a_duplicate_append_panics() {
        let mut g = Subgraph::new();
        g.add_vertex(VertexId(5), adj(&[]));
        g.add_vertex(VertexId(5), adj(&[]));
    }

    #[test]
    #[should_panic(expected = "ascending order")]
    fn an_append_below_the_last_vertex_panics() {
        let mut g = Subgraph::new();
        g.add_vertex(VertexId(5), adj(&[]));
        g.add_vertex(VertexId(4), adj(&[]));
    }

    #[test]
    #[should_panic(expected = "ascending order")]
    fn from_rows_rejects_a_duplicate_vertex() {
        let row: &[VertexId] = &[];
        Subgraph::from_rows([(VertexId(3), row, None), (VertexId(3), row, None)]);
    }

    #[test]
    fn one_directional_storage_still_counts_each_edge_once() {
        // Typical task pattern: only store the edge at the smaller endpoint.
        let mut g = Subgraph::new();
        g.add_vertex(VertexId(1), adj(&[2, 3]));
        g.add_vertex(VertexId(2), adj(&[]));
        g.add_vertex(VertexId(3), adj(&[]));
        assert_eq!(g.num_edges(), 2);
        assert!(g.to_local().has_edge(1, 0));
    }

    #[test]
    fn dangling_adjacency_entries_ignored_by_num_edges() {
        let mut g = Subgraph::new();
        g.add_vertex(VertexId(1), adj(&[2, 99])); // 99 never added
        g.add_vertex(VertexId(2), adj(&[1]));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn to_local_sorts_by_global_id_and_symmetrizes() {
        // Rows given out of order: the block sorts them.
        let (r30, r10, r20) = (ids(&[10]), ids(&[20]), ids(&[]));
        let g = Subgraph::from_rows([
            (VertexId(30), &r30[..], None),
            (VertexId(10), &r10[..], None),
            (VertexId(20), &r20[..], None),
        ]);
        assert_eq!(g.vertex_ids(), ids(&[10, 20, 30]));
        let l = g.to_local();
        assert_eq!(l.num_vertices(), 3);
        assert_eq!(l.global_id(0), VertexId(10));
        assert_eq!(l.global_id(1), VertexId(20));
        assert_eq!(l.global_id(2), VertexId(30));
        // Edges 30-10 and 10-20 must appear symmetrically.
        assert!(l.has_edge(0, 2) && l.has_edge(2, 0));
        assert!(l.has_edge(0, 1) && l.has_edge(1, 0));
        assert!(!l.has_edge(1, 2));
        assert_eq!(l.num_edges(), 2);
        assert_eq!(l.to_global(&[0, 2]), vec![VertexId(10), VertexId(30)]);
    }

    #[test]
    fn a_labeled_block_keeps_one_label_per_row() {
        let (r1, r2) = (ids(&[2]), ids(&[1]));
        let g = Subgraph::from_rows([
            (VertexId(2), &r2[..], Some(Label(4))),
            (VertexId(1), &r1[..], Some(Label(7))),
        ]);
        assert_eq!(g.label(VertexId(1)), Some(Label(7)));
        assert_eq!(g.label(VertexId(2)), Some(Label(4)));
        assert_eq!(g.label(VertexId(3)), None);
        let l = g.to_local();
        assert_eq!((l.label(0), l.label(1)), (Some(Label(7)), Some(Label(4))));
    }

    #[test]
    #[should_panic(expected = "every row has a label")]
    fn from_rows_rejects_rows_with_and_without_labels() {
        let row: &[VertexId] = &[];
        Subgraph::from_rows([(VertexId(1), row, Some(Label(1))), (VertexId(2), row, None)]);
    }

    #[test]
    #[should_panic(expected = "built by Subgraph::from_rows")]
    fn a_labeled_block_takes_no_append() {
        let row: &[VertexId] = &[];
        let mut g = Subgraph::from_rows([(VertexId(1), row, Some(Label(1)))]);
        g.add_vertex(VertexId(2), adj(&[]));
    }

    #[test]
    fn unlabeled_subgraph_returns_no_labels() {
        let mut g = Subgraph::new();
        g.add_vertex(VertexId(1), adj(&[]));
        assert_eq!(g.label(VertexId(1)), None);
        assert_eq!(g.to_local().label(0), None);
    }

    #[test]
    fn from_parts_takes_what_parts_gives_and_names_each_broken_rule() {
        let mut g = Subgraph::new();
        g.add_vertex(VertexId(1), adj(&[2, 3]));
        g.add_vertex(VertexId(2), adj(&[]));
        g.add_vertex(VertexId(3), adj(&[1]));
        let (i, o, n) = (g.ids.clone(), g.offsets.clone(), g.nbrs.clone());
        assert_eq!(g.parts(), (&i[..], &[2, 2, 3][..], &n[..], None));
        assert_eq!(Subgraph::from_parts(i.clone(), o.clone(), n.clone(), None), Ok(g.clone()));
        let labels = Some(vec![Label(1), Label(2), Label(3)]);
        let labeled = Subgraph::from_parts(i.clone(), o.clone(), n.clone(), labels).unwrap();
        assert_eq!(labeled.label(VertexId(3)), Some(Label(3)));
        let broken = [
            (ids(&[1, 3, 2]), o.clone(), n.clone(), None, "ids not strictly ascending"),
            (ids(&[1, 1, 3]), o.clone(), n.clone(), None, "ids not strictly ascending"),
            (i.clone(), vec![2, 2], n.clone(), None, "one row end per"),
            (i.clone(), vec![2, 2, 2], n.clone(), None, "do not end at the last"),
            (i.clone(), vec![2, 1, 3], n.clone(), None, "row ends not ascending"),
            (i.clone(), o.clone(), ids(&[3, 2, 1]), None, "row not strictly ascending"),
            (i.clone(), o.clone(), n.clone(), Some(vec![Label(1)]), "one label per"),
        ];
        for (ids, offsets, nbrs, labels, want) in broken {
            let err = Subgraph::from_parts(ids, offsets, nbrs, labels).unwrap_err();
            assert!(err.contains(want), "{err}, want {want}");
        }
    }

    #[test]
    fn from_local_carries_a_local_graph_back_whole() {
        // Oriented, dangling and labeled rows: the snapshot symmetrizes
        // them, and its own rows rebuild it.
        let (r9, r2, r5) = (ids(&[2, 5, 77]), ids(&[5]), ids(&[]));
        let g = Subgraph::from_rows([
            (VertexId(9), &r9[..], Some(Label(1))),
            (VertexId(2), &r2[..], Some(Label(2))),
            (VertexId(5), &r5[..], Some(Label(3))),
        ]);
        let local = g.to_local();
        let carried = Subgraph::from_local(&local);
        assert_eq!(carried.vertex_ids(), ids(&[2, 5, 9]));
        assert_eq!(carried.neighbors(VertexId(5)), Some(&ids(&[2, 9])[..]));
        assert_eq!(carried.label(VertexId(9)), Some(Label(1)));
        assert_eq!(carried.to_local(), local);
        assert_eq!(Subgraph::from_local(&Subgraph::new().to_local()), Subgraph::new());
    }

    #[test]
    fn dense_matrix_built_iff_within_threshold() {
        let mut g = Subgraph::new();
        for v in 0..10u32 {
            g.add_vertex(VertexId(v), adj(&[(v + 1) % 10]));
        }
        assert!(g.to_local().is_dense(), "default threshold covers n=10");
        assert!(g.to_local_with_threshold(10).is_dense(), "exactly at threshold");
        assert!(!g.to_local_with_threshold(9).is_dense(), "just above threshold");
        let sparse = g.to_local_with_threshold(0);
        assert!(!sparse.is_dense());
        assert_eq!(sparse.words_per_row(), 0);
        assert_eq!(sparse.dense_row(0), None);
    }

    #[test]
    fn dense_and_sparse_agree_on_all_queries() {
        // Oriented storage with dangling entries, to stress the
        // symmetrize-and-restrict path of both representations.
        let rows = [(9, ids(&[2, 5, 77])), (2, ids(&[5, 9])), (5, ids(&[])), (14, ids(&[2]))];
        let g = Subgraph::from_rows(rows.iter().map(|(v, row)| (VertexId(*v), &row[..], None)));
        let dense = g.to_local();
        let sparse = g.to_local_with_threshold(0);
        assert!(dense.is_dense() && !sparse.is_dense());
        assert_eq!(dense.num_vertices(), sparse.num_vertices());
        assert_eq!(dense.num_edges(), sparse.num_edges());
        for i in 0..dense.num_vertices() as u32 {
            assert_eq!(dense.neighbors(i), sparse.neighbors(i));
            assert_eq!(dense.degree(i), sparse.degree(i));
            assert_eq!(dense.global_id(i), sparse.global_id(i));
            for j in 0..dense.num_vertices() as u32 {
                assert_eq!(dense.has_edge(i, j), sparse.has_edge(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn dense_rows_match_csr_rows() {
        let mut g = Subgraph::new();
        for v in 0..70u32 {
            // Ring + chords so rows span more than one word.
            g.add_vertex(VertexId(v), adj(&[(v + 1) % 70, (v + 13) % 70]));
        }
        let l = g.to_local();
        assert!(l.is_dense());
        assert_eq!(l.words_per_row(), 2);
        for i in 0..70u32 {
            let row = l.dense_row(i).unwrap();
            let from_bits: Vec<u32> =
                (0..70u32).filter(|&j| row[j as usize >> 6] & (1u64 << (j & 63)) != 0).collect();
            assert_eq!(from_bits, l.neighbors(i), "row {i}");
        }
    }

    #[test]
    fn mirrored_storage_dedups_rows() {
        // Both endpoints store the edge: the fill pass sees it twice
        // per row; compaction must leave a single entry.
        let mut g = Subgraph::new();
        g.add_vertex(VertexId(1), adj(&[2]));
        g.add_vertex(VertexId(2), adj(&[1]));
        let l = g.to_local();
        assert_eq!(l.num_edges(), 1);
        assert_eq!(l.neighbors(0), &[1]);
        assert_eq!(l.neighbors(1), &[0]);
    }

    #[test]
    fn empty_and_singleton_local_graphs() {
        let g = Subgraph::new();
        let l = g.to_local();
        assert_eq!(l.num_vertices(), 0);
        assert_eq!(l.num_edges(), 0);
        let mut g1 = Subgraph::new();
        g1.add_vertex(VertexId(3), adj(&[3, 99])); // self-loop + dangling: dropped
        let l1 = g1.to_local();
        assert_eq!(l1.num_vertices(), 1);
        assert_eq!(l1.num_edges(), 0);
        assert!(l1.neighbors(0).is_empty());
        assert!(!l1.has_edge(0, 0));
    }
}
