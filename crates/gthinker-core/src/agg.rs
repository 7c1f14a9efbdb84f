//! Aggregators (§IV item 6 of the paper).
//!
//! Tasks aggregate data (e.g. the best clique found so far, or a
//! running triangle count) into a **worker-local partial**; worker main
//! threads periodically ship their partials to the master, which merges
//! them into a **global** value and broadcasts it back so that tasks on
//! every machine can prune against fresh information. A final
//! synchronization before job termination guarantees every task's
//! contribution is merged.

use gthinker_task::codec::{Decode, Encode};
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;

/// Application-defined aggregation logic.
pub trait Aggregator: Send + Sync + 'static {
    /// What a task contributes (e.g. a candidate clique, a count).
    type Item;
    /// Per-worker accumulated state; shipped to the master on sync.
    type Partial: Clone + Send + Sync + Encode + Decode + 'static;
    /// Globally merged state; broadcast to all workers.
    type Global: Clone + Send + Sync + Encode + Decode + 'static;

    /// Fresh empty partial (also the reset value after each sync).
    fn init_partial(&self) -> Self::Partial;
    /// Fresh global value at job start.
    fn init_global(&self) -> Self::Global;
    /// Folds one task contribution into the local partial.
    fn aggregate(&self, partial: &mut Self::Partial, item: Self::Item);
    /// Merges a worker's partial into the master's global value.
    fn merge(&self, global: &mut Self::Global, partial: &Self::Partial);
}

/// A no-op aggregator for applications that do not aggregate.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoAgg;

impl Aggregator for NoAgg {
    type Item = ();
    type Partial = ();
    type Global = ();
    fn init_partial(&self) {}
    fn init_global(&self) {}
    fn aggregate(&self, _partial: &mut (), _item: ()) {}
    fn merge(&self, _global: &mut (), _partial: &()) {}
}

/// Sums `u64` contributions: the aggregator of every counting miner.
#[derive(Clone, Copy, Debug, Default)]
pub struct SumAgg;

impl Aggregator for SumAgg {
    type Item = u64;
    type Partial = u64;
    type Global = u64;
    fn init_partial(&self) -> u64 {
        0
    }
    fn init_global(&self) -> u64 {
        0
    }
    fn aggregate(&self, p: &mut u64, item: u64) {
        *p += item;
    }
    fn merge(&self, g: &mut u64, p: &u64) {
        *g += *p;
    }
}

/// The worker-side aggregator state: the mutable partial plus the last
/// broadcast global snapshot.
pub struct LocalAgg<G: Aggregator> {
    agg: Arc<G>,
    partial: Mutex<G::Partial>,
    global: RwLock<G::Global>,
}

impl<G: Aggregator> LocalAgg<G> {
    /// Creates worker-local state from the aggregator definition.
    pub fn new(agg: Arc<G>) -> Self {
        let partial = Mutex::new(agg.init_partial());
        let global = RwLock::new(agg.init_global());
        LocalAgg { agg, partial, global }
    }

    /// Folds a task contribution into the partial (called from
    /// `compute()` via the environment).
    pub fn aggregate(&self, item: G::Item) {
        self.agg.aggregate(&mut self.partial.lock(), item);
    }

    /// Snapshot of the last broadcast global value.
    pub fn global(&self) -> G::Global {
        self.global.read().clone()
    }

    /// Reads partial and global together (e.g. for freshest-bound
    /// pruning decisions that should consider local finds not yet
    /// synchronized).
    pub fn read<R>(&self, f: impl FnOnce(&G::Partial, &G::Global) -> R) -> R {
        let p = self.partial.lock();
        let g = self.global.read();
        f(&p, &g)
    }

    /// Takes the partial for shipping to the master, resetting it.
    pub fn take_partial(&self) -> G::Partial {
        std::mem::replace(&mut self.partial.lock(), self.agg.init_partial())
    }

    /// Installs a freshly broadcast global snapshot.
    pub fn set_global(&self, g: G::Global) {
        *self.global.write() = g;
    }

    /// Restores a partial (checkpoint resume).
    pub fn set_partial(&self, p: G::Partial) {
        *self.partial.lock() = p;
    }

    /// The aggregator definition.
    pub fn aggregator(&self) -> &Arc<G> {
        &self.agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_take_merge_cycle() {
        let agg = Arc::new(SumAgg);
        let local = LocalAgg::new(Arc::clone(&agg));
        local.aggregate(3);
        local.aggregate(4);
        let p = local.take_partial();
        assert_eq!(p, 7);
        // Partial reset after take.
        assert_eq!(local.take_partial(), 0);
        let mut global = agg.init_global();
        agg.merge(&mut global, &p);
        assert_eq!(global, 7);
        local.set_global(global);
        assert_eq!(local.global(), 7);
    }

    #[test]
    fn read_sees_partial_and_global() {
        let local = LocalAgg::new(Arc::new(SumAgg));
        local.aggregate(5);
        local.set_global(10);
        let combined = local.read(|p, g| p + g);
        assert_eq!(combined, 15);
    }

    #[test]
    fn concurrent_aggregation_is_lossless() {
        let local = Arc::new(LocalAgg::new(Arc::new(SumAgg)));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let l = Arc::clone(&local);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        l.aggregate(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(local.take_partial(), 80_000);
    }

    #[test]
    fn noagg_compiles_and_runs() {
        let local = LocalAgg::new(Arc::new(NoAgg));
        local.aggregate(());
        local.take_partial();
        local.global();
    }
}
