//! The task-local subgraph `g` of the paper's `Subgraph` class.
//!
//! A task grows its subgraph by saving pulled vertices (and the relevant
//! part of their adjacency lists) into `g` inside `compute()`; the
//! framework releases the pulled cache entries right after `compute()`
//! returns, so everything the task still needs must live here.
//!
//! Two forms are provided:
//! * [`Subgraph`] — keyed by global [`VertexId`], growable, cheap
//!   membership tests; what the user-facing API manipulates.
//! * [`LocalGraph`] — a dense-index snapshot for tight serial mining
//!   loops (Bron–Kerbosch, matching); built once, via
//!   [`Subgraph::to_local`] or, from members' whole symmetric lists,
//!   [`LocalGraph::induced`].

use crate::adj::AdjList;
use crate::bitset::{words_for, BitSet};
use crate::graph::Graph;
use crate::hash::{fast_map_with_capacity, FastMap};
use crate::ids::{Label, VertexId};

/// A growable subgraph keyed by global vertex IDs.
#[derive(Clone, Debug, Default)]
pub struct Subgraph {
    verts: Vec<VertexId>,
    index: FastMap<VertexId, u32>,
    adj: Vec<AdjList>,
    labels: Vec<Label>,
    labeled: bool,
}

impl Subgraph {
    /// Creates an empty subgraph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty subgraph sized for roughly `cap` vertices.
    pub fn with_capacity(cap: usize) -> Self {
        Subgraph {
            verts: Vec::with_capacity(cap),
            index: fast_map_with_capacity(cap),
            adj: Vec::with_capacity(cap),
            labels: Vec::new(),
            labeled: false,
        }
    }

    /// The whole of `g` as a subgraph, labels included when `g` has
    /// them: what a serial kernel is handed when it mines a graph that
    /// fits in one task (tests, baselines, the kernel benchmarks).
    pub fn from_graph(g: &Graph) -> Self {
        let mut sg = Subgraph::with_capacity(g.num_vertices());
        for v in g.vertices() {
            sg.insert(v, g.label(v), g.neighbors(v).clone());
        }
        sg
    }

    /// Number of vertices `|V(g)|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.verts.len()
    }

    /// Number of undirected edges currently stored.
    ///
    /// Counts only edges whose **both** endpoints are in the subgraph;
    /// adjacency entries referring to vertices not (yet) added are
    /// ignored. An entry is counted once whether or not it is mirrored.
    pub fn num_edges(&self) -> usize {
        let mut n = 0usize;
        for (i, a) in self.adj.iter().enumerate() {
            let u = self.verts[i];
            for v in a.iter() {
                if !self.contains(v) {
                    continue;
                }
                // Count each unordered pair once: either u < v, or the
                // mirror entry is absent.
                if u < v || !self.neighbors(v).is_some_and(|nb| nb.contains(u)) {
                    n += 1;
                }
            }
        }
        n
    }

    /// True if the subgraph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.verts.is_empty()
    }

    /// True if `v` has been added.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.index.contains_key(&v)
    }

    /// Adds vertex `v` with adjacency `adj` (the caller typically filters
    /// the pulled `Γ(v)` down to vertices relevant to this task first).
    /// Returns `false` without modifying anything if `v` is already
    /// present.
    pub fn add_vertex(&mut self, v: VertexId, adj: AdjList) -> bool {
        if self.contains(v) {
            return false;
        }
        self.index.insert(v, self.verts.len() as u32);
        self.verts.push(v);
        self.adj.push(adj);
        if self.labeled {
            self.labels.push(Label::default());
        }
        true
    }

    /// Adds a labeled vertex (for matching workloads).
    pub fn add_labeled_vertex(&mut self, v: VertexId, label: Label, adj: AdjList) -> bool {
        if self.contains(v) {
            return false;
        }
        if !self.labeled {
            // Upgrade: back-fill default labels for earlier vertices.
            self.labels = vec![Label::default(); self.verts.len()];
            self.labeled = true;
        }
        self.index.insert(v, self.verts.len() as u32);
        self.verts.push(v);
        self.adj.push(adj);
        self.labels.push(label);
        true
    }

    /// [`Subgraph::add_labeled_vertex`] when there is a label,
    /// [`Subgraph::add_vertex`] when there is none.
    pub fn insert(&mut self, v: VertexId, label: Option<Label>, adj: AdjList) -> bool {
        match label {
            Some(label) => self.add_labeled_vertex(v, label, adj),
            None => self.add_vertex(v, adj),
        }
    }

    /// The vertex IDs in insertion order.
    pub fn vertex_ids(&self) -> &[VertexId] {
        &self.verts
    }

    /// The stored adjacency of `v`, if present.
    pub fn neighbors(&self, v: VertexId) -> Option<&AdjList> {
        self.index.get(&v).map(|&i| &self.adj[i as usize])
    }

    /// The label of `v`, if labels are in use and `v` is present.
    pub fn label(&self, v: VertexId) -> Option<Label> {
        if !self.labeled {
            return None;
        }
        self.index.get(&v).map(|&i| self.labels[i as usize])
    }

    /// Edge membership within the subgraph (checks the stored entry of
    /// either endpoint, so one-directional storage suffices).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).map(|a| a.contains(v)).unwrap_or(false)
            || self.neighbors(v).map(|a| a.contains(u)).unwrap_or(false)
    }

    /// Snapshots into a dense [`LocalGraph`] for serial mining, using
    /// the default dense-matrix threshold
    /// ([`LocalGraph::DEFAULT_DENSE_THRESHOLD`]).
    ///
    /// Vertices are renumbered `0..n` **in ascending global-ID order** so
    /// that ID-based pruning rules keep working on local indices.
    /// Adjacency is symmetrized and restricted to subgraph members.
    pub fn to_local(&self) -> LocalGraph {
        self.to_local_with_threshold(LocalGraph::DEFAULT_DENSE_THRESHOLD)
    }

    /// Like [`Subgraph::to_local`], but builds the O(n²/8)-byte dense
    /// adjacency bit matrix only when `n ≤ dense_threshold` (pass `0` to
    /// force the sorted-list representation, `usize::MAX` to force the
    /// matrix; see DESIGN.md §"Kernel selection").
    ///
    /// Symmetric rows are assembled CSR-style with a degree-count pass
    /// followed by a fill pass into one flat buffer — no per-vertex
    /// vectors, no doubled peak memory from mirror-then-dedup.
    pub fn to_local_with_threshold(&self, dense_threshold: usize) -> LocalGraph {
        let n = self.verts.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&i| self.verts[i as usize]);
        let mut rank = vec![0u32; n];
        for (new, &old) in order.iter().enumerate() {
            rank[old as usize] = new as u32;
        }
        // Pass 1: count each local vertex's symmetric degree (mirror
        // entries and duplicates still counted; deduped after sorting).
        let mut deg = vec![0u32; n];
        for (old, a) in self.adj.iter().enumerate() {
            let lu = rank[old];
            for v in a.iter() {
                if let Some(&ov) = self.index.get(&v) {
                    let lv = rank[ov as usize];
                    if lu != lv {
                        deg[lu as usize] += 1;
                        deg[lv as usize] += 1;
                    }
                }
            }
        }
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + deg[i];
        }
        // Pass 2: scatter both directions of every edge into the flat
        // row buffer, reusing `deg` as per-row write cursors.
        let mut nbrs = vec![0u32; offsets[n] as usize];
        let mut cursor = std::mem::take(&mut deg);
        cursor.copy_from_slice(&offsets[..n]);
        for (old, a) in self.adj.iter().enumerate() {
            let lu = rank[old];
            for v in a.iter() {
                if let Some(&ov) = self.index.get(&v) {
                    let lv = rank[ov as usize];
                    if lu != lv {
                        nbrs[cursor[lu as usize] as usize] = lv;
                        cursor[lu as usize] += 1;
                        nbrs[cursor[lv as usize] as usize] = lu;
                        cursor[lv as usize] += 1;
                    }
                }
            }
        }
        // Sort each row in place, then compact duplicates (a mirror
        // entry stored at both endpoints lands twice in each row). The
        // write head never overtakes the read head, so this is safe in
        // the same buffer.
        let mut write = 0usize;
        let mut compact = vec![0u32; n + 1];
        for i in 0..n {
            let (s, e) = (offsets[i] as usize, offsets[i + 1] as usize);
            nbrs[s..e].sort_unstable();
            compact[i] = write as u32;
            let mut last = u32::MAX;
            for k in s..e {
                let v = nbrs[k];
                if v != last {
                    nbrs[write] = v;
                    write += 1;
                    last = v;
                }
            }
        }
        compact[n] = write as u32;
        nbrs.truncate(write);
        let offsets = compact;
        let dense = DenseAdj::from_rows(dense_threshold, &offsets, &nbrs);
        let ids: Vec<VertexId> = order.iter().map(|&i| self.verts[i as usize]).collect();
        let labels = if self.labeled {
            Some(order.iter().map(|&i| self.labels[i as usize]).collect())
        } else {
            None
        };
        LocalGraph { ids, offsets, nbrs, labels, dense }
    }

    /// Approximate heap bytes held by this subgraph (task memory
    /// accounting for the simulator).
    pub fn heap_bytes(&self) -> usize {
        let lists: usize = self.adj.iter().map(AdjList::heap_bytes).sum();
        lists
            + self.verts.capacity() * std::mem::size_of::<VertexId>()
            + self.adj.capacity() * std::mem::size_of::<AdjList>()
            + self.index.capacity() * (std::mem::size_of::<VertexId>() + std::mem::size_of::<u32>())
            + self.labels.capacity() * std::mem::size_of::<Label>()
    }
}

/// Member → local ID for [`LocalGraph::induced`], which probes it once
/// per entry of every short list, most often for a non-member. Linear
/// probing over 16 slots per member (128 bytes each, freed on return)
/// makes a miss one load and a well-predicted branch: over all anchors
/// of the `mc_compute_local` graph (one thread, 2-vCPU Xeon host) the
/// build ran ≈ 35% faster than with a [`FastMap`] and ≈ 10% faster than
/// with 8 slots per member. A slot is `id << 32 | (local + 1)`; 0 is
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

    fn adj(v: &[u32]) -> AdjList {
        AdjList::from_unsorted(v.iter().map(|&x| VertexId(x)).collect())
    }

    #[test]
    fn add_and_query_vertices() {
        let mut g = Subgraph::new();
        assert!(g.add_vertex(VertexId(5), adj(&[7])));
        assert!(g.add_vertex(VertexId(7), adj(&[5])));
        assert!(!g.add_vertex(VertexId(5), adj(&[])), "duplicate add rejected");
        assert_eq!(g.num_vertices(), 2);
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(VertexId(5), VertexId(7)));
        assert!(g.contains(VertexId(7)));
        assert!(!g.contains(VertexId(9)));
    }

    #[test]
    fn one_directional_storage_still_counts_each_edge_once() {
        // Typical task pattern: only store the edge at the smaller endpoint.
        let mut g = Subgraph::new();
        g.add_vertex(VertexId(1), adj(&[2, 3]));
        g.add_vertex(VertexId(2), adj(&[]));
        g.add_vertex(VertexId(3), adj(&[]));
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(VertexId(2), VertexId(1)));
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
        let mut g = Subgraph::new();
        g.add_vertex(VertexId(30), adj(&[10]));
        g.add_vertex(VertexId(10), adj(&[20]));
        g.add_vertex(VertexId(20), adj(&[]));
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
    fn labels_upgrade_backfills_existing_vertices() {
        let mut g = Subgraph::new();
        g.add_vertex(VertexId(1), adj(&[]));
        g.add_labeled_vertex(VertexId(2), Label(4), adj(&[]));
        assert_eq!(g.label(VertexId(1)), Some(Label(0)));
        assert_eq!(g.label(VertexId(2)), Some(Label(4)));
        let l = g.to_local();
        assert_eq!(l.label(1), Some(Label(4)));
    }

    #[test]
    fn unlabeled_subgraph_returns_no_labels() {
        let mut g = Subgraph::new();
        g.add_vertex(VertexId(1), adj(&[]));
        assert_eq!(g.label(VertexId(1)), None);
        assert_eq!(g.to_local().label(0), None);
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
        let mut g = Subgraph::new();
        g.add_vertex(VertexId(9), adj(&[2, 5, 77]));
        g.add_vertex(VertexId(2), adj(&[5, 9]));
        g.add_vertex(VertexId(5), adj(&[]));
        g.add_vertex(VertexId(14), adj(&[2]));
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
