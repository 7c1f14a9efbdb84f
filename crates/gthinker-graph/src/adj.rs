//! Sorted adjacency lists and the set operations subgraph mining relies on.
//!
//! The paper writes `Γ(v)` for the neighbor set of `v` and `Γ_>(v)` for
//! the neighbors with IDs larger than `v` (used to walk the
//! set-enumeration tree of Fig. 1 without revisiting vertex sets).
//! [`AdjList`] keeps neighbors sorted ascending so that `Γ_>` is a binary
//! search and common-neighbor computation is a linear merge.

use crate::ids::VertexId;
use std::sync::Arc;

/// A sorted, deduplicated adjacency list `Γ(v)`.
///
/// Immutable once built; workers share adjacency lists across tasks via
/// `Arc<AdjList>` (the remote vertex cache hands out clones of the `Arc`,
/// never copies of the list).
///
/// ```
/// use gthinker_graph::adj::AdjList;
/// use gthinker_graph::ids::VertexId;
///
/// let adj = AdjList::from_unsorted(vec![VertexId(5), VertexId(2), VertexId(9)]);
/// assert_eq!(adj.degree(), 3);
/// assert!(adj.contains(VertexId(5)));
/// // Γ_>(v): neighbors larger than a pivot — the set-enumeration rule.
/// assert_eq!(adj.greater_than(VertexId(4)), &[VertexId(5), VertexId(9)]);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct AdjList {
    neighbors: Vec<VertexId>,
}

impl AdjList {
    /// Creates an empty adjacency list.
    pub fn new() -> Self {
        AdjList { neighbors: Vec::new() }
    }

    /// Builds from an arbitrary neighbor vector: sorts and deduplicates.
    pub fn from_unsorted(mut neighbors: Vec<VertexId>) -> Self {
        neighbors.sort_unstable();
        neighbors.dedup();
        AdjList { neighbors }
    }

    /// Builds from a vector the caller guarantees is sorted ascending and
    /// free of duplicates.
    ///
    /// # Panics
    /// Panics in debug builds if the invariant does not hold.
    pub fn from_sorted(neighbors: Vec<VertexId>) -> Self {
        debug_assert!(
            neighbors.windows(2).all(|w| w[0] < w[1]),
            "from_sorted requires strictly ascending neighbors"
        );
        AdjList { neighbors }
    }

    /// Number of neighbors, i.e. the degree of the owning vertex.
    #[inline]
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// True if the list has no neighbors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.neighbors.is_empty()
    }

    /// The sorted neighbor slice.
    #[inline]
    pub fn as_slice(&self) -> &[VertexId] {
        &self.neighbors
    }

    /// Iterates over neighbors in ascending ID order.
    pub fn iter(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.neighbors.iter().copied()
    }

    /// Membership test by binary search: is `u ∈ Γ(v)`?
    #[inline]
    pub fn contains(&self, u: VertexId) -> bool {
        self.neighbors.binary_search(&u).is_ok()
    }

    /// `Γ_>(v)`: the suffix of neighbors with IDs strictly greater than
    /// `pivot`. Used to extend set-enumeration tree nodes.
    pub fn greater_than(&self, pivot: VertexId) -> &[VertexId] {
        let start = self.neighbors.partition_point(|&u| u <= pivot);
        &self.neighbors[start..]
    }

    /// Linear-merge intersection with another sorted list; the workhorse
    /// of clique extension (`ext(S ∪ u) = ext(S) ∩ Γ(u)`).
    pub fn intersect(&self, other: &AdjList) -> Vec<VertexId> {
        intersect_sorted(&self.neighbors, other.as_slice())
    }

    /// Intersection with an arbitrary sorted slice.
    pub fn intersect_slice(&self, other: &[VertexId]) -> Vec<VertexId> {
        intersect_sorted(&self.neighbors, other)
    }

    /// Buffer-reusing form of [`AdjList::intersect`]: clears `out` and
    /// fills it with the intersection, so a caller looping over many
    /// lists allocates once instead of once per intersection.
    pub fn intersect_into(&self, other: &AdjList, out: &mut Vec<VertexId>) {
        intersect_sorted_into(&self.neighbors, other.as_slice(), out);
    }

    /// Buffer-reusing form of [`AdjList::intersect_slice`].
    pub fn intersect_slice_into(&self, other: &[VertexId], out: &mut Vec<VertexId>) {
        intersect_sorted_into(&self.neighbors, other, out);
    }

    /// Counts (without materializing) the intersection size with a sorted
    /// slice; the inner loop of triangle counting.
    pub fn intersection_count(&self, other: &[VertexId]) -> usize {
        count_intersect_sorted(&self.neighbors, other)
    }

    /// Retains only neighbors for which `keep` returns true (used by
    /// [`crate::trim::Trimmer`] implementations).
    pub fn retain(&mut self, mut keep: impl FnMut(VertexId) -> bool) {
        self.neighbors.retain(|&u| keep(u));
    }

    /// Cuts the list down to `Γ_>(pivot)` in place: drops every neighbor
    /// `≤ pivot` and gives the freed capacity back.
    pub fn keep_greater_than(&mut self, pivot: VertexId) {
        let start = self.neighbors.partition_point(|&u| u <= pivot);
        self.neighbors.drain(..start);
        self.neighbors.shrink_to_fit();
    }

    /// Consumes the list and returns the underlying sorted vector.
    pub fn into_vec(self) -> Vec<VertexId> {
        self.neighbors
    }

    /// Heap bytes occupied by this list (for the simulator's memory
    /// accounting).
    pub fn heap_bytes(&self) -> usize {
        self.neighbors.capacity() * std::mem::size_of::<VertexId>()
    }
}

impl FromIterator<VertexId> for AdjList {
    fn from_iter<T: IntoIterator<Item = VertexId>>(iter: T) -> Self {
        AdjList::from_unsorted(iter.into_iter().collect())
    }
}

impl AsRef<[VertexId]> for AdjList {
    fn as_ref(&self) -> &[VertexId] {
        &self.neighbors
    }
}

impl<'a> IntoIterator for &'a AdjList {
    type Item = VertexId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, VertexId>>;
    fn into_iter(self) -> Self::IntoIter {
        self.neighbors.iter().copied()
    }
}

/// A vertex paired with its adjacency list — the unit the distributed
/// key-value store serves (`(v, Γ(v))` in the paper).
pub type SharedAdj = Arc<AdjList>;

/// Merge-intersects two strictly ascending slices into a new vector.
///
/// When one side is over 32× shorter, each of its elements is instead
/// binary-searched in the longer side's suffix past the previous one,
/// which matters when intersecting a hub's list with a small candidate
/// set.
pub fn intersect_sorted(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    let mut out = Vec::new();
    intersect_sorted_into(a, b, &mut out);
    out
}

/// Merge-intersects two strictly ascending slices into `out` (cleared
/// first), reusing its capacity across calls.
pub fn intersect_sorted_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    out.clear();
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    out.reserve(short.len());
    // Searching pays off only with a large size imbalance.
    if long.len() / 32 > short.len() {
        let mut lo = 0usize;
        for &x in short {
            match long[lo..].binary_search(&x) {
                Ok(i) => {
                    out.push(x);
                    lo += i + 1;
                }
                Err(i) => lo += i,
            }
            if lo >= long.len() {
                break;
            }
        }
        return;
    }
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Counts the intersection of two strictly ascending slices.
pub fn count_intersect_sorted(a: &[VertexId], b: &[VertexId]) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if long.len() / 32 > short.len() {
        let mut n = 0usize;
        let mut lo = 0usize;
        for &x in short {
            match long[lo..].binary_search(&x) {
                Ok(i) => {
                    n += 1;
                    lo += i + 1;
                }
                Err(i) => lo += i,
            }
            if lo >= long.len() {
                break;
            }
        }
        return n;
    }
    // No data-dependent branch: on short lists the three-way `match`
    // mispredicts about once a step, which costs more than the step.
    let mut n = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        n += (x == y) as usize;
        i += (x <= y) as usize;
        j += (y <= x) as usize;
    }
    n
}

/// Hints the CPU to start loading the head of `adj`'s neighbor slice.
///
/// The framework calls this where it resolves a pulled vertex, a few
/// hundred nanoseconds before `compute()` walks the list: with the
/// merge branch-free, a short intersection costs about what the cache
/// misses on its two lists cost. A no-op off x86-64.
#[inline]
pub fn prefetch(adj: &AdjList) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let head = adj.neighbors.as_ptr().cast::<i8>();
        // SAFETY: a prefetch never faults and never reads or writes
        // program-visible memory, whatever the address — an empty or
        // one-line list makes these hints useless, not unsound — and
        // `wrapping_add` keeps the pointer arithmetic itself defined.
        unsafe {
            _mm_prefetch::<_MM_HINT_T0>(head);
            _mm_prefetch::<_MM_HINT_T0>(head.wrapping_add(64));
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = adj;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<VertexId> {
        v.iter().map(|&x| VertexId(x)).collect()
    }

    #[test]
    fn from_unsorted_sorts_and_dedups() {
        let a = AdjList::from_unsorted(ids(&[5, 1, 3, 1, 5]));
        assert_eq!(a.as_slice(), ids(&[1, 3, 5]).as_slice());
        assert_eq!(a.degree(), 3);
    }

    #[test]
    fn contains_uses_binary_search() {
        let a = AdjList::from_unsorted(ids(&[2, 4, 6, 8]));
        assert!(a.contains(VertexId(4)));
        assert!(!a.contains(VertexId(5)));
    }

    #[test]
    fn greater_than_returns_strict_suffix() {
        let a = AdjList::from_unsorted(ids(&[1, 3, 5, 7]));
        assert_eq!(a.greater_than(VertexId(3)), ids(&[5, 7]).as_slice());
        assert_eq!(a.greater_than(VertexId(4)), ids(&[5, 7]).as_slice());
        assert_eq!(a.greater_than(VertexId(0)), a.as_slice());
        assert!(a.greater_than(VertexId(7)).is_empty());
    }

    #[test]
    fn intersect_matches_naive() {
        let a = AdjList::from_unsorted(ids(&[1, 2, 3, 5, 8, 13]));
        let b = AdjList::from_unsorted(ids(&[2, 3, 4, 5, 13, 21]));
        assert_eq!(a.intersect(&b), ids(&[2, 3, 5, 13]));
        assert_eq!(a.intersection_count(b.as_slice()), 4);
    }

    #[test]
    fn galloping_path_taken_for_skewed_sizes() {
        let long: Vec<VertexId> = (0..10_000).map(VertexId).collect();
        let short = ids(&[3, 5_000, 9_999, 20_000]);
        let a = AdjList::from_sorted(long);
        assert_eq!(a.intersect_slice(&short), ids(&[3, 5_000, 9_999]));
        assert_eq!(a.intersection_count(&short), 3);
    }

    #[test]
    fn intersect_into_reuses_buffer_and_matches() {
        let a = AdjList::from_unsorted(ids(&[1, 2, 3, 5, 8, 13]));
        let b = AdjList::from_unsorted(ids(&[2, 3, 4, 5, 13, 21]));
        let mut buf = ids(&[99, 98]); // stale contents must be cleared
        a.intersect_into(&b, &mut buf);
        assert_eq!(buf, ids(&[2, 3, 5, 13]));
        a.intersect_slice_into(&ids(&[3, 21]), &mut buf);
        assert_eq!(buf, ids(&[3]));
        // Galloping path through the same entry point.
        let long = AdjList::from_sorted((0..10_000).map(VertexId).collect());
        long.intersect_slice_into(&ids(&[3, 5_000, 20_000]), &mut buf);
        assert_eq!(buf, ids(&[3, 5_000]));
    }

    #[test]
    fn empty_intersections() {
        let a = AdjList::new();
        let b = AdjList::from_unsorted(ids(&[1, 2]));
        assert!(a.intersect(&b).is_empty());
        assert_eq!(b.intersection_count(a.as_slice()), 0);
    }

    #[test]
    fn keep_greater_than_drains_the_prefix() {
        let mut a = AdjList::from_unsorted(ids(&[1, 3, 5, 7]));
        let suffix = a.greater_than(VertexId(3)).to_vec();
        a.keep_greater_than(VertexId(3));
        assert_eq!(a.as_slice(), suffix.as_slice());
        assert_eq!(a.heap_bytes(), 2 * std::mem::size_of::<VertexId>(), "capacity given back");
        a.keep_greater_than(VertexId(0));
        assert_eq!(a.as_slice(), suffix.as_slice(), "nothing at or below the pivot: unchanged");
        a.keep_greater_than(VertexId(7));
        assert!(a.is_empty());
    }

    #[test]
    fn retain_filters_in_place() {
        let mut a = AdjList::from_unsorted(ids(&[1, 2, 3, 4, 5, 6]));
        a.retain(|v| v.0 % 2 == 0);
        assert_eq!(a.as_slice(), ids(&[2, 4, 6]).as_slice());
    }
}
