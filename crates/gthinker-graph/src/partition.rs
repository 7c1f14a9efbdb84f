//! Hash partitioning of vertices over workers.
//!
//! G-thinker "adopts the approach of Pregel to hash vertices to machines
//! by vertex ID" instead of requiring an expensive graph-partitioning
//! preprocessing job (which the paper criticizes G-Miner for).

use crate::hash::hash_u64;
use crate::ids::{VertexId, WorkerId};

/// Maps vertex IDs to workers by hashing.
#[derive(Clone, Copy, Debug)]
pub struct HashPartitioner {
    num_workers: u16,
}

impl HashPartitioner {
    /// Creates a partitioner over `num_workers` workers.
    ///
    /// # Panics
    /// Panics if `num_workers == 0`.
    pub fn new(num_workers: u16) -> Self {
        assert!(num_workers > 0, "need at least one worker");
        HashPartitioner { num_workers }
    }

    /// Number of workers this partitioner spreads over.
    #[inline]
    pub fn num_workers(&self) -> u16 {
        self.num_workers
    }

    /// The worker that owns `v`'s `(v, Γ(v))` record.
    #[inline]
    pub fn owner(&self, v: VertexId) -> WorkerId {
        WorkerId((hash_u64(v.0 as u64) % self.num_workers as u64) as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_is_stable_and_in_range() {
        let p = HashPartitioner::new(4);
        for i in 0..1000u32 {
            let w = p.owner(VertexId(i));
            assert!(w.index() < 4);
            assert_eq!(w, p.owner(VertexId(i)));
        }
    }

    #[test]
    fn single_worker_owns_everything() {
        let p = HashPartitioner::new(1);
        for i in 0..100u32 {
            assert_eq!(p.owner(VertexId(i)), WorkerId(0));
        }
    }

    #[test]
    fn every_vertex_is_owned_by_exactly_one_worker() {
        let p = HashPartitioner::new(5);
        let mut sizes = [0usize; 5];
        for v in (0..200u32).map(VertexId) {
            let owners: Vec<u16> = (0..5).filter(|&w| p.owner(v) == WorkerId(w)).collect();
            assert_eq!(owners.len(), 1, "vertex {v} owned by {owners:?}");
            sizes[owners[0] as usize] += 1;
        }
        assert_eq!(sizes.iter().sum::<usize>(), 200);
    }

    #[test]
    fn partitions_are_roughly_balanced() {
        let p = HashPartitioner::new(8);
        let mut sizes = [0usize; 8];
        for v in (0..80_000u32).map(VertexId) {
            sizes[p.owner(v).index()] += 1;
        }
        let expect = 80_000 / 8;
        for size in sizes {
            assert!(size > expect / 2 && size < expect * 2, "skewed partition: {size}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = HashPartitioner::new(0);
    }
}
