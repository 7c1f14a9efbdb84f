//! Property-based tests for the vertex cache: under arbitrary
//! interleavings of OP1–OP4, lock counts never go negative, sizes
//! reconcile, and no locked vertex is ever evicted.

use gthinker_graph::adj::AdjList;
use gthinker_graph::ids::{TaskId, VertexId};
use gthinker_store::cache::{CacheConfig, RequestOutcome, VertexCache};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Request(u8),
    Respond(u8),
    Release(u8),
    Gc,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..32).prop_map(Op::Request),
        (0u8..32).prop_map(Op::Respond),
        (0u8..32).prop_map(Op::Release),
        Just(Op::Gc),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A reference model tracks, per vertex, whether it is requested /
    /// cached and how many locks the tasks hold; the cache must agree
    /// at every step.
    #[test]
    fn cache_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        let cache = VertexCache::new(CacheConfig {
            num_buckets: 8,
            capacity: 4, // small: GC constantly active
            alpha: 0.2,
            counter_delta: 1,
            ..CacheConfig::default()
        });
        let mut handle = cache.counter_handle();
        // Model: per vertex (requested, cached, locks).
        #[derive(Default, Clone, Copy)]
        struct M { requested: bool, cached: bool, locks: u32 }
        let mut model = [M::default(); 32];
        let mut next_task = 0u64;
        for op in ops {
            match op {
                Op::Request(i) => {
                    let v = VertexId(i as u32);
                    next_task += 1;
                    match cache.request(v, TaskId(next_task), &mut handle) {
                        RequestOutcome::Hit(_) => {
                            prop_assert!(model[i as usize].cached, "hit must mean cached");
                            model[i as usize].locks += 1;
                        }
                        RequestOutcome::AlreadyRequested => {
                            prop_assert!(model[i as usize].requested);
                            model[i as usize].locks += 1;
                        }
                        RequestOutcome::MustRequest => {
                            prop_assert!(!model[i as usize].requested);
                            prop_assert!(!model[i as usize].cached);
                            model[i as usize].requested = true;
                            model[i as usize].locks += 1;
                        }
                    }
                }
                Op::Respond(i) => {
                    let v = VertexId(i as u32);
                    let waiters = cache.insert_response(v, AdjList::new());
                    if model[i as usize].requested {
                        let waiters = waiters.expect("open request must consume the response");
                        prop_assert_eq!(waiters.len() as u32, model[i as usize].locks,
                            "lock count transfers from R-table");
                        model[i as usize].requested = false;
                        model[i as usize].cached = true;
                    } else {
                        prop_assert!(waiters.is_none(), "stale responses are dropped");
                    }
                }
                Op::Release(i) => {
                    let v = VertexId(i as u32);
                    // Only release when the model says a lock is held on
                    // a *cached* vertex (the framework guarantees this).
                    if model[i as usize].cached && model[i as usize].locks > 0 {
                        cache.release(v);
                        model[i as usize].locks -= 1;
                    }
                }
                Op::Gc => {
                    let _ = cache.gc_pass(&mut handle);
                    // GC may only evict unlocked cached vertices; sync the
                    // model by probing those, and assert the rest survive.
                    for (i, m) in model.iter_mut().enumerate() {
                        let present = cache.get_locked(VertexId(i as u32)).is_some();
                        if m.cached && m.locks == 0 {
                            m.cached = present;
                        } else if m.cached {
                            prop_assert!(present, "GC evicted a locked vertex");
                        }
                    }
                }
            }
            // Invariants after every operation:
            handle.flush();
            let model_size: i64 = model
                .iter()
                .filter(|m| m.requested || m.cached)
                .count() as i64;
            prop_assert_eq!(cache.exact_size() as i64, model_size, "size reconciles");
            prop_assert_eq!(cache.approx_size(), model_size, "counter exact at δ=1");
            prop_assert!(cache.candidate_bits_agree(),
                "a bucket's bit is set exactly when its Z-table is non-empty");
            for (i, m) in model.iter().enumerate() {
                let v = VertexId(i as u32);
                if m.cached {
                    prop_assert!(cache.get_locked(v).is_some(), "cached vertex present");
                }
            }
        }
    }

    /// The approximate counter's drift is bounded by handles × δ.
    #[test]
    fn approx_counter_drift_is_bounded(
        deltas in proptest::collection::vec(-20i64..20, 1..200),
        threshold in 1u32..16,
    ) {
        let c = gthinker_store::counter::ApproxCounter::new();
        let mut h = c.handle(threshold);
        let mut true_value = 0i64;
        for d in deltas {
            h.add(d);
            true_value += d;
            let drift = (c.read() - true_value).abs();
            prop_assert!(drift < threshold as i64 + 20, "drift {drift} vs δ {threshold}");
        }
        h.flush();
        prop_assert_eq!(c.read(), true_value);
    }

    /// Spawn batches partition the local table for any batch size.
    #[test]
    fn spawn_batches_partition(n in 1usize..500, batch in 1usize..64) {
        use gthinker_store::local::LocalTable;
        let records = (0..n as u32)
            .map(|i| (VertexId(i), AdjList::new()))
            .collect();
        let t = LocalTable::new(records);
        let mut seen = Vec::new();
        loop {
            let b = t.claim_spawn_batch(batch).to_vec();
            if b.is_empty() { break; }
            prop_assert!(b.len() <= batch);
            seen.extend(b);
        }
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), n);
        prop_assert_eq!(t.unspawned(), 0);
    }
}
