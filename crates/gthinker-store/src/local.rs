//! The local vertex table `T_local`.
//!
//! Each worker loads its hash partition of the input graph into
//! `T_local`; together the tables of all workers form the distributed
//! key-value store that tasks pull `Γ(v)` from. `T_local` also owns the
//! shared **"next" spawn pointer** (Fig. 7): compers forward it
//! atomically to claim batches of not-yet-spawned vertices when they
//! need to generate fresh tasks.
//!
//! Two backings exist behind the same lookup API:
//!
//! * **Eager** — every owned `(v, Γ(v))` record materialized up front,
//!   the classic path for in-RAM graphs (each list is trimmed as it is
//!   fetched into the partition).
//! * **Lazy** — a shared [`AdjacencyStore`] (typically a memory-mapped
//!   compressed graph) plus a membership bitset; `Γ(v)` is decoded on
//!   each lookup, through the job's trimmer if it has one
//!   ([`Trimmer::fetch_trimmed`]: a trimmer that keeps only `Γ_>(v)`
//!   decodes only `Γ_>(v)`), and nothing decoded is retained here.
//!   The worker's own resident footprint is then just the bitset
//!   and spawn order, not the partition's adjacency bytes — those stay
//!   in the page cache.

use gthinker_graph::adj::{AdjList, SharedAdj};
use gthinker_graph::hash::{fast_map_with_capacity, FastMap};
use gthinker_graph::ids::{Label, VertexId};
use gthinker_graph::store::AdjacencyStore;
use gthinker_graph::trim::Trimmer;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A fixed-size bitset over vertex IDs `0..n`.
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn with_capacity(n: usize) -> Self {
        BitSet { words: vec![0; n.div_ceil(64)] }
    }

    fn set(&mut self, i: u32) {
        self.words[i as usize / 64] |= 1 << (i % 64);
    }

    fn contains(&self, i: u32) -> bool {
        self.words.get(i as usize / 64).is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    fn heap_bytes(&self) -> usize {
        self.words.capacity() * 8
    }
}

enum Backing {
    Eager { map: FastMap<VertexId, SharedAdj>, labels: FastMap<VertexId, Label> },
    Lazy { store: Arc<dyn AdjacencyStore>, trimmer: Option<Arc<dyn Trimmer>>, members: BitSet },
}

/// A worker's partition of `(v, Γ(v))` records.
pub struct LocalTable {
    backing: Backing,
    /// Vertex IDs in load order; the spawn pointer indexes into this.
    order: Vec<VertexId>,
    /// Index of the next vertex to spawn a task from. Every access is
    /// `SeqCst`: `unspawned() == 0` is a term of the worker's quiescence
    /// predicate, which is argued in one total order with the compers'
    /// busy flags.
    next: AtomicUsize,
}

impl LocalTable {
    /// Builds a table from `(v, Γ(v))` records (for unlabeled graphs).
    pub fn new(records: Vec<(VertexId, AdjList)>) -> Self {
        Self::with_labels(records, Vec::new())
    }

    /// Builds a table from records plus `(v, label)` pairs for labeled
    /// graphs.
    pub fn with_labels(records: Vec<(VertexId, AdjList)>, labels: Vec<(VertexId, Label)>) -> Self {
        let mut map = fast_map_with_capacity(records.len());
        let mut order = Vec::with_capacity(records.len());
        for (v, adj) in records {
            let prev = map.insert(v, Arc::new(adj));
            assert!(prev.is_none(), "duplicate local vertex {v}");
            order.push(v);
        }
        let mut label_map = fast_map_with_capacity(labels.len());
        for (v, l) in labels {
            label_map.insert(v, l);
        }
        LocalTable {
            backing: Backing::Eager { map, labels: label_map },
            order,
            next: AtomicUsize::new(0),
        }
    }

    /// Builds a lazily-decoding table over a shared store: `members`
    /// lists this worker's owned vertices in spawn order, and every
    /// [`LocalTable::get`] fetches the list from `store` through
    /// `trimmer` (the job's post-load trim, §IV item 7), which decodes
    /// `Γ(v)` and trims it or, if it can, decodes just what it keeps.
    /// Equivalent to the eager path because trimming is per-vertex and
    /// ownership depends only on the vertex ID.
    pub fn lazy(
        store: Arc<dyn AdjacencyStore>,
        trimmer: Option<Arc<dyn Trimmer>>,
        members: Vec<VertexId>,
    ) -> Self {
        let mut bits = BitSet::with_capacity(store.num_vertices());
        for &v in &members {
            assert!((v.0 as usize) < store.num_vertices(), "member {v} outside the store");
            assert!(!bits.contains(v.0), "duplicate local vertex {v}");
            bits.set(v.0);
        }
        LocalTable {
            backing: Backing::Lazy { store, trimmer, members: bits },
            order: members,
            next: AtomicUsize::new(0),
        }
    }

    /// Number of local vertices.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if the partition is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Looks up `Γ(v)` if `v` is local. Eager backing shares the one
    /// `Arc` per vertex; lazy backing decodes a fresh list per call —
    /// callers that need decode-once semantics hold on to the returned
    /// `Arc` (pinned frontiers and the remote-side `VertexCache`
    /// already do).
    #[inline]
    pub fn get(&self, v: VertexId) -> Option<SharedAdj> {
        match &self.backing {
            Backing::Eager { map, .. } => map.get(&v).cloned(),
            Backing::Lazy { store, trimmer, members } => {
                if !members.contains(v.0) {
                    return None;
                }
                let adj = match trimmer {
                    Some(t) => t.fetch_trimmed(store.as_ref(), v),
                    None => store.adjacency(v),
                };
                Some(Arc::new(adj))
            }
        }
    }

    /// True if `v` lives in this partition.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        match &self.backing {
            Backing::Eager { map, .. } => map.contains_key(&v),
            Backing::Lazy { members, .. } => members.contains(v.0),
        }
    }

    /// The label of local vertex `v`, if labeled.
    pub fn label(&self, v: VertexId) -> Option<Label> {
        match &self.backing {
            Backing::Eager { labels, .. } => labels.get(&v).copied(),
            Backing::Lazy { store, members, .. } => {
                if members.contains(v.0) {
                    store.label(v)
                } else {
                    None
                }
            }
        }
    }

    /// Vertices in load order (spawn order).
    pub fn vertices(&self) -> &[VertexId] {
        &self.order
    }

    /// Atomically claims up to `count` not-yet-spawned vertices by
    /// forwarding the "next" pointer; returns the claimed slice.
    ///
    /// Called by a comper when both its spilled-file list and `B_task`
    /// are empty and its queue needs refilling (§V-B refill priority).
    pub fn claim_spawn_batch(&self, count: usize) -> &[VertexId] {
        let end_of = |start: usize| start.saturating_add(count).min(self.order.len());
        let start = self
            .next
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |start| Some(end_of(start)))
            .expect("the update never declines");
        &self.order[start..end_of(start)]
    }

    /// Number of vertices that have not yet been claimed for spawning —
    /// used by the master to estimate a worker's remaining load for
    /// work-stealing plans.
    pub fn unspawned(&self) -> usize {
        self.order.len() - self.next.load(Ordering::SeqCst)
    }

    /// Resets the spawn pointer (used when restoring from a checkpoint).
    pub fn reset_spawn_pointer(&self, position: usize) {
        self.next.store(position.min(self.order.len()), Ordering::SeqCst);
    }

    /// Current spawn-pointer position (for checkpointing).
    pub fn spawn_position(&self) -> usize {
        self.next.load(Ordering::SeqCst)
    }

    /// Approximate heap bytes (memory accounting). Lazy backing counts
    /// its bitset and the store's own resident footprint — near zero
    /// for a memory-mapped store, which is the point of mapping it.
    pub fn heap_bytes(&self) -> usize {
        let backing = match &self.backing {
            Backing::Eager { map, .. } => map.values().map(|a| a.heap_bytes()).sum(),
            Backing::Lazy { store, members, .. } => members.heap_bytes() + store.heap_bytes(),
        };
        backing + self.order.capacity() * std::mem::size_of::<VertexId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gthinker_graph::compressed::{write_compressed, CompressedGraph};
    use gthinker_graph::gen;
    use gthinker_graph::graph::Graph;
    use gthinker_graph::trim::{trim_graph, GreaterIdTrimmer, LabelSetTrimmer};

    fn table(n: u32) -> LocalTable {
        let records = (0..n)
            .map(|i| (VertexId(i), AdjList::from_unsorted(vec![VertexId((i + 1) % n)])))
            .collect();
        LocalTable::new(records)
    }

    #[test]
    fn lookup_and_membership() {
        let t = table(5);
        assert_eq!(t.len(), 5);
        assert!(t.contains(VertexId(3)));
        assert!(!t.contains(VertexId(9)));
        assert_eq!(t.get(VertexId(2)).unwrap().as_slice(), &[VertexId(3)]);
        assert!(t.get(VertexId(9)).is_none());
    }

    #[test]
    fn spawn_batches_are_disjoint_and_exhaustive() {
        let t = table(10);
        let a: Vec<_> = t.claim_spawn_batch(4).to_vec();
        let b: Vec<_> = t.claim_spawn_batch(4).to_vec();
        let c: Vec<_> = t.claim_spawn_batch(4).to_vec();
        let d: Vec<_> = t.claim_spawn_batch(4).to_vec();
        assert_eq!(a.len(), 4);
        assert_eq!(b.len(), 4);
        assert_eq!(c.len(), 2, "only 2 left");
        assert!(d.is_empty());
        let mut all: Vec<_> = a.into_iter().chain(b).chain(c).collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).map(VertexId).collect::<Vec<_>>());
    }

    #[test]
    fn unspawned_tracks_progress() {
        let t = table(6);
        assert_eq!(t.unspawned(), 6);
        t.claim_spawn_batch(4);
        assert_eq!(t.unspawned(), 2);
        t.claim_spawn_batch(4);
        assert_eq!(t.unspawned(), 0);
    }

    #[test]
    fn spawn_pointer_checkpoint_round_trip() {
        let t = table(8);
        t.claim_spawn_batch(5);
        let pos = t.spawn_position();
        assert_eq!(pos, 5);
        t.reset_spawn_pointer(2);
        assert_eq!(t.unspawned(), 6);
        t.reset_spawn_pointer(100);
        assert_eq!(t.unspawned(), 0);
    }

    #[test]
    fn labels_attach_to_vertices() {
        let records = vec![(VertexId(1), AdjList::new()), (VertexId(2), AdjList::new())];
        let t = LocalTable::with_labels(records, vec![(VertexId(1), Label(7))]);
        assert_eq!(t.label(VertexId(1)), Some(Label(7)));
        assert_eq!(t.label(VertexId(2)), None);
    }

    #[test]
    #[should_panic(expected = "duplicate local vertex")]
    fn duplicate_vertices_rejected() {
        let _ = LocalTable::new(vec![(VertexId(1), AdjList::new()), (VertexId(1), AdjList::new())]);
    }

    #[test]
    fn lazy_table_matches_eager_on_the_same_partition() {
        let g = gen::random_labels(gen::gnp(120, 0.06, 42), 3, 7);
        let members: Vec<VertexId> = g.vertices().filter(|v| v.0 % 3 == 1).collect();
        let eager = LocalTable::with_labels(
            members.iter().map(|&v| (v, g.neighbors(v).clone())).collect(),
            members.iter().map(|&v| (v, g.label(v).unwrap())).collect(),
        );
        let store: Arc<dyn AdjacencyStore> = Arc::new(g.clone());
        let lazy = LocalTable::lazy(store, None, members.clone());
        assert_eq!(eager.len(), lazy.len());
        assert_eq!(eager.vertices(), lazy.vertices());
        for v in g.vertices() {
            assert_eq!(eager.contains(v), lazy.contains(v));
            assert_eq!(eager.label(v), lazy.label(v));
            match (eager.get(v), lazy.get(v)) {
                (Some(a), Some(b)) => assert_eq!(*a, *b, "Γ({v})"),
                (None, None) => {}
                _ => panic!("backing disagreement at {v}"),
            }
        }
    }

    /// The graph behind every store kind a lazy table can sit on: in
    /// RAM, and compressed (where `Γ_>(v)` is decoded on its own).
    fn stores(g: &Graph, tag: &str) -> Vec<Arc<dyn AdjacencyStore>> {
        let path =
            std::env::temp_dir().join(format!("gthinker-local-{}-{tag}.gtc", std::process::id()));
        write_compressed(g, &path).unwrap();
        let mapped = CompressedGraph::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        vec![Arc::new(g.clone()), Arc::new(mapped)]
    }

    #[test]
    fn greater_id_trimmer_lazy_matches_eager() {
        let unlabeled = gen::gnp(80, 0.1, 5);
        let labeled = gen::random_labels(gen::gnp(80, 0.1, 6), 3, 7);
        for (g, tag) in [(unlabeled, "plain"), (labeled, "labeled")] {
            let trimmed = trim_graph(&g, &GreaterIdTrimmer);
            let members: Vec<VertexId> = g.vertices().filter(|v| v.0 % 2 == 0).collect();
            let eager = LocalTable::new(
                members.iter().map(|&v| (v, trimmed.neighbors(v).clone())).collect(),
            );
            for store in stores(&g, tag) {
                let lazy =
                    LocalTable::lazy(store, Some(Arc::new(GreaterIdTrimmer)), members.clone());
                for v in g.vertices() {
                    assert_eq!(eager.get(v), lazy.get(v), "Γ_>({v})");
                    if let Some(got) = lazy.get(v) {
                        assert_eq!(got.as_slice(), g.neighbors(v).greater_than(v));
                        assert_eq!(lazy.label(v), g.label(v));
                    }
                }
            }
        }
    }

    /// A trimmer written against `trim` alone, as a user's would be:
    /// keeps `Γ_>(v)` too, but only after checking that it was handed
    /// the whole list and the owner's label.
    struct SeesEverything(Graph);

    impl Trimmer for SeesEverything {
        fn trim(&self, v: VertexId, label: Option<Label>, adj: &mut AdjList) {
            assert_eq!(adj, self.0.neighbors(v), "trim of {v} must see all of Γ({v})");
            assert_eq!(label, self.0.label(v));
            adj.keep_greater_than(v);
        }
    }

    #[test]
    fn trimmers_that_do_not_opt_in_see_the_whole_list() {
        let g = gen::random_labels(gen::gnp(80, 0.1, 9), 3, 2);
        let allowed = [Label(0), Label(2)];
        let by_label = LabelSetTrimmer::new(&allowed, g.labels().unwrap().to_vec());
        let members: Vec<VertexId> = g.vertices().collect();
        for store in stores(&g, "opt-out") {
            let lazy = LocalTable::lazy(
                Arc::clone(&store),
                Some(Arc::new(SeesEverything(g.clone()))),
                members.clone(),
            );
            for v in g.vertices() {
                assert_eq!(lazy.get(v).unwrap().as_slice(), g.neighbors(v).greater_than(v));
            }
            // The label trimmer keeps neighbors on both sides of v, which
            // only the full list holds.
            let lazy = LocalTable::lazy(store, Some(Arc::new(by_label.clone())), members.clone());
            for v in g.vertices() {
                let want: Vec<VertexId> = g
                    .neighbors(v)
                    .iter()
                    .filter(|&u| allowed.contains(&g.label(u).unwrap()))
                    .collect();
                assert_eq!(lazy.get(v).unwrap().as_slice(), want.as_slice(), "Γ({v}) by label");
            }
        }
    }

    #[test]
    fn lazy_table_decodes_fresh_lists_per_call() {
        let g = Graph::from_edges(4, &[(VertexId(0), VertexId(1)), (VertexId(0), VertexId(2))]);
        let store: Arc<dyn AdjacencyStore> = Arc::new(g);
        let lazy = LocalTable::lazy(store, None, vec![VertexId(0), VertexId(3)]);
        let a = lazy.get(VertexId(0)).unwrap();
        let b = lazy.get(VertexId(0)).unwrap();
        assert_eq!(*a, *b);
        assert!(!Arc::ptr_eq(&a, &b), "lazy lookups decode per call");
        assert!(lazy.get(VertexId(1)).is_none(), "unowned vertex is not local");
        assert_eq!(lazy.get(VertexId(3)).unwrap().degree(), 0, "isolated member decodes empty");
    }

    #[test]
    #[should_panic(expected = "duplicate local vertex")]
    fn lazy_duplicate_members_rejected() {
        let g = Graph::with_vertices(4);
        let store: Arc<dyn AdjacencyStore> = Arc::new(g);
        let _ = LocalTable::lazy(store, None, vec![VertexId(1), VertexId(1)]);
    }

    #[test]
    fn concurrent_claims_never_overlap() {
        let t = Arc::new(table(1000));
        let claimed: Vec<_> = (0..8)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let batch = t.claim_spawn_batch(7).to_vec();
                        if batch.is_empty() {
                            break;
                        }
                        mine.extend(batch);
                    }
                    mine
                })
            })
            .collect();
        let mut all: Vec<VertexId> = Vec::new();
        for h in claimed {
            all.extend(h.join().unwrap());
        }
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 1000, "every vertex claimed exactly once");
    }
}
