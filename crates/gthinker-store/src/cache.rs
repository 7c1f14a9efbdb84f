//! The remote-vertex cache `T_cache` (§V-A of the paper).
//!
//! `T_cache` is organized as an array of `k` buckets, each protected by
//! its own mutex; a vertex `v` lives in bucket `hash(v) mod k`, so
//! operations on vertices in different buckets proceed fully in
//! parallel. Each bucket holds three tables:
//!
//! * **Γ-table** — cached `(v, Γ(v))` entries with a `lock_count`
//!   tracking how many tasks currently hold `v`;
//! * **Z-table** — the eviction candidates: every vertex whose
//!   `lock_count` has reached zero since GC last looked at it (lets GC
//!   scan only candidates). Deletion is lazy — a hit on a zero-locked
//!   vertex leaves its candidate in place, and GC drops the candidates
//!   it finds locked again — so the hit path never edits the table;
//! * **R-table** — vertices whose pull request is in flight, with the
//!   IDs of the tasks waiting for the response (its length plays the
//!   role of `lock_count`, and prevents duplicate requests).
//!
//! Four atomic (per-bucket) operations cover the vertex lifecycle:
//! OP1 request, OP2 response insertion, OP3 release, OP4 GC eviction.
//!
//! Size accounting: `s_cache = |Γ-tables| + |R-tables|` is maintained
//! approximately via [`CounterHandle`]s. GC is *lazy*: it evicts only
//! when `s_cache > (1 + α) · c_cache`, removing up to
//! `s_cache − c_cache` vertices per pass in round-robin bucket order.

use crate::counter::{ApproxCounter, CounterHandle};
use gthinker_graph::adj::{AdjList, SharedAdj};
use gthinker_graph::hash::FastMap;
use gthinker_graph::ids::{TaskId, VertexId};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs for [`VertexCache`]; defaults follow the paper.
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Number of buckets `k`. Paper default: 10,000.
    pub num_buckets: usize,
    /// Capacity `c_cache` in vertices. Paper default: 2M.
    pub capacity: usize,
    /// Overflow tolerance `α`. Paper default: 0.2.
    pub alpha: f64,
    /// Per-thread counter commit threshold δ. Paper default: 10.
    pub counter_delta: u32,
    /// How long a pull request may stay unanswered before
    /// [`VertexCache::collect_timed_out`] schedules a re-request.
    /// Retries back off exponentially from this base.
    pub pull_timeout: Duration,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            num_buckets: 10_000,
            capacity: 2_000_000,
            alpha: 0.2,
            counter_delta: 10,
            pull_timeout: Duration::from_millis(500),
        }
    }
}

/// Outcome of OP1 (a task requesting `Γ(v)`).
#[derive(Clone, Debug)]
pub enum RequestOutcome {
    /// Case 1: `v` was cached; `lock_count` has been incremented and the
    /// adjacency list is immediately usable.
    Hit(SharedAdj),
    /// Case 2.2: `v` was already requested by some other task; this
    /// task's ID has been queued on the R-table entry and it must wait.
    AlreadyRequested,
    /// Case 2.1: `v` is requested for the first time; an R-table entry
    /// was created and **the caller must send the pull request**.
    MustRequest,
}

/// Aggregate cache statistics (monotonic counters).
#[derive(Debug, Default)]
pub struct CacheStats {
    /// OP1 case 1 outcomes.
    pub hits: AtomicU64,
    /// OP1 case 2.2 outcomes.
    pub shared_waits: AtomicU64,
    /// OP1 case 2.1 outcomes (actual network requests).
    pub misses: AtomicU64,
    /// Vertices evicted by GC.
    pub evictions: AtomicU64,
    /// GC passes that ran (i.e. overflow observed).
    pub gc_passes: AtomicU64,
    /// Pull requests that timed out and were scheduled for re-request.
    pub retries: AtomicU64,
    /// OP2 calls that found no R-table entry (duplicate or late
    /// responses, dropped idempotently).
    pub stale_responses: AtomicU64,
}

impl CacheStats {
    /// Point-in-time copy of the counters as a named plain-data struct.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            shared_waits: self.shared_waits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            gc_passes: self.gc_passes.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            stale_responses: self.stale_responses.load(Ordering::Relaxed),
        }
    }
}

/// Named snapshot of [`CacheStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// OP1 case 1 outcomes (Γ-table hits).
    pub hits: u64,
    /// OP1 case 2.2 outcomes (piggybacked on an in-flight request).
    pub shared_waits: u64,
    /// OP1 case 2.1 outcomes (actual network requests).
    pub misses: u64,
    /// Vertices evicted by GC.
    pub evictions: u64,
    /// GC passes that ran (i.e. overflow observed).
    pub gc_passes: u64,
    /// Pull requests that timed out and were re-requested.
    pub retries: u64,
    /// Duplicate/late responses dropped by OP2.
    pub stale_responses: u64,
}

impl CacheSnapshot {
    /// Hit ratio over all OP1 calls (0 when no requests were made).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.shared_waits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A Γ-table entry.
struct GammaEntry {
    adj: SharedAdj,
    lock_count: u32,
    /// `v` has a candidate in the bucket's Z-table — exactly one, so a
    /// vertex bouncing between 0 and 1 locks does not grow the list.
    in_zero: bool,
}

/// An R-table entry: the tasks waiting for the in-flight pull, plus
/// the loss-tolerance state driving re-requests.
struct PullRequest {
    waiters: Vec<TaskId>,
    /// When the current attempt is declared lost.
    deadline: Instant,
    /// Completed (timed-out) attempts; drives exponential backoff.
    attempts: u32,
}

/// One bucket: Γ-table, Z-table and R-table under a single mutex.
#[derive(Default)]
struct Bucket {
    gamma: FastMap<VertexId, GammaEntry>,
    /// Eviction candidates, oldest first: the vertices whose Γ entry
    /// has `in_zero` set. A candidate may have been locked again since
    /// it was pushed; OP4 checks.
    zero: Vec<VertexId>,
    requests: FastMap<VertexId, PullRequest>,
}

/// The concurrent remote-vertex cache.
///
/// ```
/// use gthinker_store::cache::{CacheConfig, RequestOutcome, VertexCache};
/// use gthinker_graph::adj::AdjList;
/// use gthinker_graph::ids::{TaskId, VertexId};
///
/// let cache = VertexCache::new(CacheConfig::default());
/// let mut counter = cache.counter_handle();
/// // OP1: first request misses — the caller must transmit it.
/// let outcome = cache.request(VertexId(7), TaskId(1), &mut counter);
/// assert!(matches!(outcome, RequestOutcome::MustRequest));
/// // OP2: the response arrives and wakes the waiting task.
/// let waiters = cache.insert_response(VertexId(7), AdjList::new());
/// assert_eq!(waiters, Some(vec![TaskId(1)]));
/// // A duplicated response is dropped idempotently.
/// assert_eq!(cache.insert_response(VertexId(7), AdjList::new()), None);
/// // OP3: the task releases its hold after computing.
/// cache.release(VertexId(7));
/// ```
pub struct VertexCache {
    buckets: Box<[Mutex<Bucket>]>,
    size: Arc<ApproxCounter>,
    config: CacheConfig,
    gc_cursor: AtomicUsize,
    stats: CacheStats,
    /// Exact count of open R-table entries; lets the per-tick timeout
    /// scan exit in one atomic load when no pull is in flight.
    in_flight: AtomicUsize,
}

impl VertexCache {
    /// Creates a cache with the given configuration.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.num_buckets >= 1, "need at least one bucket");
        assert!(config.alpha >= 0.0, "alpha must be non-negative");
        let buckets = (0..config.num_buckets)
            .map(|_| Mutex::new(Bucket::default()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        VertexCache {
            buckets,
            size: ApproxCounter::new(),
            config,
            gc_cursor: AtomicUsize::new(0),
            stats: CacheStats::default(),
            in_flight: AtomicUsize::new(0),
        }
    }

    /// The cache configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Cache statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Creates a per-thread handle for `s_cache` updates; every comper
    /// and the GC thread own one.
    pub fn counter_handle(&self) -> CounterHandle {
        self.size.handle(self.config.counter_delta)
    }

    /// The committed (approximate) `s_cache` value.
    pub fn approx_size(&self) -> i64 {
        self.size.read()
    }

    /// True when `s_cache > (1 + α) · c_cache` — the condition under
    /// which compers must stop fetching **new** tasks (§V-B) and GC must
    /// evict.
    pub fn over_limit(&self) -> bool {
        self.size.read() as f64 > (1.0 + self.config.alpha) * self.config.capacity as f64
    }

    #[inline]
    fn bucket_of(&self, v: VertexId) -> &Mutex<Bucket> {
        let i = gthinker_graph::hash::hash_u64(v.0 as u64) as usize % self.buckets.len();
        &self.buckets[i]
    }

    /// **OP1** — task `task` requests `Γ(v)`.
    ///
    /// On a Γ-table hit the entry's `lock_count` is incremented (a
    /// Z-table candidate for `v`, if any, stays where it is — OP4 skips
    /// it). Otherwise the task is queued on the R-table entry; if the
    /// entry is new, `s_cache` grows by one through `counter` and the
    /// caller must transmit the request.
    pub fn request(
        &self,
        v: VertexId,
        task: TaskId,
        counter: &mut CounterHandle,
    ) -> RequestOutcome {
        let mut b = self.bucket_of(v).lock();
        if let Some(entry) = b.gamma.get_mut(&v) {
            entry.lock_count += 1;
            let adj = Arc::clone(&entry.adj);
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            return RequestOutcome::Hit(adj);
        }
        match b.requests.get_mut(&v) {
            Some(req) => {
                req.waiters.push(task);
                self.stats.shared_waits.fetch_add(1, Ordering::Relaxed);
                RequestOutcome::AlreadyRequested
            }
            None => {
                b.requests.insert(
                    v,
                    PullRequest {
                        waiters: vec![task],
                        deadline: Instant::now() + self.config.pull_timeout,
                        attempts: 0,
                    },
                );
                self.in_flight.fetch_add(1, Ordering::Relaxed);
                counter.incr();
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                RequestOutcome::MustRequest
            }
        }
    }

    /// **OP2** — the response receiver delivers `(v, Γ(v))`.
    ///
    /// Moves `v` from the R-table to the Γ-table, transferring the
    /// waiting tasks' hold as the initial `lock_count`, and returns the
    /// waiter IDs so the receiver can notify their pending tasks.
    /// `s_cache` is unchanged (R-entry becomes a Γ-entry).
    ///
    /// **Idempotent**: if no R-table entry exists (a duplicated or late
    /// response — the fault-injected wire produces both, and retries
    /// can race the original answer), the response is dropped and
    /// `None` returned so the caller knows the pull was *not* consumed
    /// and must not adjust its outstanding-pull accounting. Adjacency
    /// payloads are immutable per vertex, so whichever copy wins
    /// installs identical data.
    pub fn insert_response(&self, v: VertexId, adj: AdjList) -> Option<Vec<TaskId>> {
        let mut b = self.bucket_of(v).lock();
        let Some(req) = b.requests.remove(&v) else {
            self.stats.stale_responses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        debug_assert!(!b.gamma.contains_key(&v), "response for already-cached vertex");
        let waiters = req.waiters;
        let lock_count = waiters.len() as u32;
        let in_zero = lock_count == 0;
        b.gamma.insert(v, GammaEntry { adj: Arc::new(adj), lock_count, in_zero });
        if in_zero {
            b.zero.push(v);
        }
        Some(waiters)
    }

    /// Number of open R-table entries (pulls awaiting a response).
    pub fn pulls_in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Scans the R-table for pulls whose deadline has passed and
    /// returns their vertices so the caller can re-send the requests.
    /// Each returned entry has its deadline pushed out by an
    /// exponential backoff (capped at `64 × pull_timeout`) plus a
    /// deterministic per-vertex jitter, so a burst of losses does not
    /// re-synchronize into a retry storm.
    ///
    /// Costs one atomic load when no pull is in flight — the common
    /// case on every worker tick.
    pub fn collect_timed_out(&self, now: Instant) -> Vec<VertexId> {
        if self.in_flight.load(Ordering::Relaxed) == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        for bucket in self.buckets.iter() {
            let mut b = bucket.lock();
            if b.requests.is_empty() {
                continue;
            }
            for (v, req) in b.requests.iter_mut() {
                if req.deadline <= now {
                    req.attempts += 1;
                    req.deadline = now + retry_backoff(self.config.pull_timeout, req.attempts, *v);
                    out.push(*v);
                }
            }
        }
        if !out.is_empty() {
            self.stats.retries.fetch_add(out.len() as u64, Ordering::Relaxed);
        }
        out
    }

    /// Fetches the adjacency list of a vertex the calling task already
    /// holds a lock on (used when a pending task becomes ready and its
    /// comper assembles the `frontier`). Does **not** change lock
    /// counts.
    pub fn get_locked(&self, v: VertexId) -> Option<SharedAdj> {
        let b = self.bucket_of(v).lock();
        b.gamma.get(&v).map(|e| Arc::clone(&e.adj))
    }

    /// **OP3** — a task releases its hold on `v` after finishing an
    /// iteration. When the `lock_count` reaches zero `v` becomes
    /// evictable, and enters the Z-table unless an earlier release
    /// already left a candidate there.
    ///
    /// # Panics
    /// Panics if `v` is not cached or not locked — that would mean a
    /// release without a matching request, a framework bug.
    pub fn release(&self, v: VertexId) {
        let mut b = self.bucket_of(v).lock();
        let Bucket { gamma, zero, .. } = &mut *b;
        let entry = gamma.get_mut(&v).expect("release of uncached vertex");
        assert!(entry.lock_count > 0, "release without matching request");
        entry.lock_count -= 1;
        if entry.lock_count == 0 && !entry.in_zero {
            entry.in_zero = true;
            zero.push(v);
        }
    }

    /// **OP4** — one lazy GC pass.
    ///
    /// If `s_cache ≤ (1 + α) · c_cache` this returns 0 immediately
    /// (releasing the GC thread's CPU core, per the paper). Otherwise it
    /// walks buckets round-robin, taking Z-table candidates oldest
    /// first — evicting those still unlocked, un-flagging those a task
    /// has locked again (their next release re-enters them) — until
    /// `s_cache − c_cache` vertices are gone or all buckets were
    /// scanned once (locked tasks may block full eviction; later passes
    /// catch up once tasks release).
    pub fn gc_pass(&self, counter: &mut CounterHandle) -> usize {
        if !self.over_limit() {
            return 0;
        }
        self.stats.gc_passes.fetch_add(1, Ordering::Relaxed);
        let target = (self.size.read() - self.config.capacity as i64).max(0) as usize;
        let mut evicted = 0usize;
        let k = self.buckets.len();
        for _ in 0..k {
            if evicted >= target {
                break;
            }
            let i = self.gc_cursor.fetch_add(1, Ordering::Relaxed) % k;
            let mut b = self.buckets[i].lock();
            let Bucket { gamma, zero, .. } = &mut *b;
            let mut scanned = 0;
            for &v in zero.iter() {
                if evicted >= target {
                    break;
                }
                scanned += 1;
                let entry = gamma.get_mut(&v).expect("Z-table candidate missing from Γ-table");
                debug_assert!(entry.in_zero, "candidate without its flag");
                if entry.lock_count == 0 {
                    gamma.remove(&v);
                    counter.decr();
                    evicted += 1;
                } else {
                    entry.in_zero = false;
                }
            }
            zero.drain(..scanned);
        }
        self.stats.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
        evicted
    }

    /// Exact total entries across Γ-tables and R-tables. O(k); test and
    /// diagnostics only.
    pub fn exact_size(&self) -> usize {
        self.buckets
            .iter()
            .map(|b| {
                let b = b.lock();
                b.gamma.len() + b.requests.len()
            })
            .sum()
    }

    /// Exact number of evictable (zero-locked) vertices. O(Γ); tests.
    pub fn exact_evictable(&self) -> usize {
        self.buckets
            .iter()
            .map(|b| b.lock().gamma.values().filter(|e| e.lock_count == 0).count())
            .sum()
    }

    /// Z-table candidates across all buckets, stale ones included.
    #[cfg(test)]
    fn candidates(&self) -> usize {
        self.buckets.iter().map(|b| b.lock().zero.len()).sum()
    }

    /// Approximate heap bytes of cached adjacency data.
    pub fn heap_bytes(&self) -> usize {
        self.buckets
            .iter()
            .map(|b| {
                let b = b.lock();
                b.gamma.values().map(|e| e.adj.heap_bytes()).sum::<usize>()
            })
            .sum()
    }
}

/// Deadline extension for the `attempts`-th retry of vertex `v`:
/// exponential in the attempt count (capped at `2^6`), plus a
/// deterministic jitter in `[0, base/2)` keyed on the vertex and
/// attempt so concurrent losses fan back out instead of retrying in
/// lockstep.
fn retry_backoff(base: Duration, attempts: u32, v: VertexId) -> Duration {
    let exp = base * 2u32.pow(attempts.min(6));
    let range = (base.as_nanos() as u64 / 2).max(1);
    let jitter = gthinker_graph::hash::hash_u64(v.0 as u64 ^ ((attempts as u64) << 32)) % range;
    exp + Duration::from_nanos(jitter)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache(capacity: usize) -> VertexCache {
        VertexCache::new(CacheConfig {
            num_buckets: 16,
            capacity,
            alpha: 0.2,
            counter_delta: 1, // exact counting in tests
            ..CacheConfig::default()
        })
    }

    fn adj(v: &[u32]) -> AdjList {
        AdjList::from_unsorted(v.iter().map(|&x| VertexId(x)).collect())
    }

    const T1: TaskId = TaskId(1);
    const T2: TaskId = TaskId(2);

    #[test]
    fn first_request_must_send_second_waits() {
        let c = small_cache(100);
        let mut h = c.counter_handle();
        assert!(matches!(c.request(VertexId(5), T1, &mut h), RequestOutcome::MustRequest));
        assert!(matches!(c.request(VertexId(5), T2, &mut h), RequestOutcome::AlreadyRequested));
        assert_eq!(c.approx_size(), 1, "one R-table entry counted once");
        let snap = c.stats().snapshot();
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.shared_waits, 1);
    }

    #[test]
    fn response_transfers_lock_count_and_waiters() {
        let c = small_cache(100);
        let mut h = c.counter_handle();
        c.request(VertexId(5), T1, &mut h);
        c.request(VertexId(5), T2, &mut h);
        let waiters = c.insert_response(VertexId(5), adj(&[1, 2]));
        assert_eq!(waiters, Some(vec![T1, T2]));
        assert_eq!(c.approx_size(), 1, "R entry became Γ entry");
        // Both tasks hold locks: not evictable yet.
        assert_eq!(c.exact_evictable(), 0);
        c.release(VertexId(5));
        assert_eq!(c.exact_evictable(), 0);
        c.release(VertexId(5));
        assert_eq!(c.exact_evictable(), 1);
    }

    #[test]
    fn hit_after_cached_increments_and_leaves_z() {
        let c = small_cache(100);
        let mut h = c.counter_handle();
        c.request(VertexId(7), T1, &mut h);
        c.insert_response(VertexId(7), adj(&[9]));
        c.release(VertexId(7)); // now zero-locked
        assert_eq!(c.exact_evictable(), 1);
        match c.request(VertexId(7), T2, &mut h) {
            RequestOutcome::Hit(a) => assert_eq!(a.as_slice(), &[VertexId(9)]),
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(c.exact_evictable(), 0, "a locked vertex is not evictable");
        c.release(VertexId(7));
        assert_eq!(c.exact_evictable(), 1);
        assert_eq!(c.candidates(), 1, "release, hit, release: one candidate, not two");
    }

    #[test]
    fn gc_skips_a_relocked_candidate_and_takes_it_after_its_next_release() {
        let c = small_cache(1);
        let mut h = c.counter_handle();
        for i in 0..4 {
            c.request(VertexId(i), T1, &mut h);
            c.insert_response(VertexId(i), adj(&[]));
            c.release(VertexId(i));
        }
        // Vertex 0 is hit again before GC looks: its candidate is stale.
        assert!(matches!(c.request(VertexId(0), T2, &mut h), RequestOutcome::Hit(_)));
        assert_eq!((c.candidates(), c.exact_evictable()), (4, 3));
        assert_eq!(c.gc_pass(&mut h), 3, "s_cache - c_cache = 3, and three are unlocked");
        assert!(c.get_locked(VertexId(0)).is_some(), "the locked vertex survived");
        assert_eq!(c.exact_size(), 1);
        // Over the limit again, with nothing evictable: the pass scans
        // every bucket, so it meets the stale candidate wherever it is.
        c.request(VertexId(9), T1, &mut h);
        c.insert_response(VertexId(9), adj(&[]));
        assert_eq!(c.gc_pass(&mut h), 0, "both survivors are locked");
        assert_eq!(c.candidates(), 0, "the stale candidate was dropped and un-flagged");
        c.release(VertexId(0));
        assert_eq!(c.candidates(), 1, "its next release re-enters it");
        assert_eq!(c.gc_pass(&mut h), 1);
        assert!(c.get_locked(VertexId(0)).is_none());
        assert!(c.get_locked(VertexId(9)).is_some());
    }

    #[test]
    fn get_locked_does_not_change_counts() {
        let c = small_cache(100);
        let mut h = c.counter_handle();
        c.request(VertexId(3), T1, &mut h);
        c.insert_response(VertexId(3), adj(&[4]));
        assert!(c.get_locked(VertexId(3)).is_some());
        assert!(c.get_locked(VertexId(99)).is_none());
        c.release(VertexId(3));
        assert_eq!(c.exact_evictable(), 1);
    }

    #[test]
    fn duplicate_response_is_dropped() {
        let c = small_cache(100);
        let mut h = c.counter_handle();
        c.request(VertexId(5), T1, &mut h);
        assert_eq!(c.pulls_in_flight(), 1);
        assert_eq!(c.insert_response(VertexId(5), adj(&[])).map(|w| w.len()), Some(1));
        assert_eq!(c.pulls_in_flight(), 0);
        // The wire can duplicate or replay responses: OP2 is idempotent
        // and reports them as stale so the receiver does not touch its
        // outstanding-pull accounting.
        assert!(c.insert_response(VertexId(5), adj(&[])).is_none());
        assert!(c.insert_response(VertexId(5), adj(&[])).is_none());
        assert_eq!(c.exact_size(), 1);
        assert_eq!(c.pulls_in_flight(), 0);
        assert_eq!(c.stats().snapshot().stale_responses, 2);
    }

    #[test]
    fn timed_out_pulls_are_collected_with_backoff() {
        let c = VertexCache::new(CacheConfig {
            num_buckets: 16,
            capacity: 100,
            alpha: 0.2,
            counter_delta: 1,
            pull_timeout: Duration::from_millis(10),
        });
        let mut h = c.counter_handle();
        c.request(VertexId(5), T1, &mut h);
        c.request(VertexId(9), T2, &mut h);

        let now = Instant::now();
        assert!(c.collect_timed_out(now).is_empty(), "fresh requests have not timed out");

        // Jump past the first deadline: both pulls report lost.
        let later = now + Duration::from_millis(20);
        let mut lost = c.collect_timed_out(later);
        lost.sort_unstable();
        assert_eq!(lost, vec![VertexId(5), VertexId(9)]);
        assert_eq!(c.stats().snapshot().retries, 2);

        // Backoff doubled the deadline: one base timeout later they are
        // still pending, well before 2×base + jitter.
        assert!(c.collect_timed_out(later + Duration::from_millis(10)).is_empty());
        // Far enough out, they time out again.
        assert_eq!(c.collect_timed_out(later + Duration::from_millis(40)).len(), 2);

        // An answered pull stops retrying.
        c.insert_response(VertexId(5), adj(&[]));
        let all_later = later + Duration::from_secs(3600);
        assert_eq!(c.collect_timed_out(all_later), vec![VertexId(9)]);
    }

    #[test]
    fn collect_timed_out_is_free_when_idle() {
        let c = small_cache(100);
        assert_eq!(c.pulls_in_flight(), 0);
        assert!(c.collect_timed_out(Instant::now() + Duration::from_secs(60)).is_empty());
    }

    #[test]
    fn retry_backoff_grows_and_caps() {
        let base = Duration::from_millis(10);
        let v = VertexId(3);
        let mut prev = Duration::ZERO;
        for attempts in 1..=6 {
            let b = retry_backoff(base, attempts, v);
            assert!(b > prev, "backoff grows");
            assert!(b >= base * 2u32.pow(attempts), "at least exponential");
            prev = b;
        }
        // Capped: attempt 20 is no more than the 2^6 step plus jitter.
        assert!(retry_backoff(base, 20, v) <= base * 64 + base / 2);
        // Deterministic.
        assert_eq!(retry_backoff(base, 3, v), retry_backoff(base, 3, v));
    }

    #[test]
    #[should_panic(expected = "release of uncached vertex")]
    fn release_unknown_vertex_panics() {
        let c = small_cache(100);
        c.release(VertexId(1));
    }

    #[test]
    #[should_panic(expected = "release without matching request")]
    fn over_release_panics() {
        let c = small_cache(100);
        let mut h = c.counter_handle();
        c.request(VertexId(1), T1, &mut h);
        c.insert_response(VertexId(1), adj(&[]));
        c.release(VertexId(1));
        c.release(VertexId(1));
    }

    #[test]
    fn gc_noop_below_threshold() {
        let c = small_cache(10);
        let mut h = c.counter_handle();
        for i in 0..5 {
            c.request(VertexId(i), T1, &mut h);
            c.insert_response(VertexId(i), adj(&[]));
            c.release(VertexId(i));
        }
        assert_eq!(c.gc_pass(&mut h), 0, "5 ≤ 1.2·10, no eviction");
        assert_eq!(c.exact_size(), 5);
    }

    #[test]
    fn gc_evicts_down_to_capacity() {
        let c = small_cache(10);
        let mut h = c.counter_handle();
        // 20 unlocked cached vertices: 20 > 12 = (1+0.2)*10.
        for i in 0..20 {
            c.request(VertexId(i), T1, &mut h);
            c.insert_response(VertexId(i), adj(&[]));
            c.release(VertexId(i));
        }
        assert!(c.over_limit());
        let evicted = c.gc_pass(&mut h);
        assert_eq!(evicted, 10, "evicts s_cache - c_cache");
        assert_eq!(c.exact_size(), 10);
        assert!(!c.over_limit());
    }

    #[test]
    fn gc_skips_locked_vertices() {
        let c = small_cache(4);
        let mut h = c.counter_handle();
        for i in 0..10 {
            c.request(VertexId(i), T1, &mut h);
            c.insert_response(VertexId(i), adj(&[]));
            if i % 2 == 0 {
                c.release(VertexId(i)); // 5 evictable, 5 locked
            }
        }
        assert!(c.over_limit());
        let evicted = c.gc_pass(&mut h);
        assert_eq!(evicted, 5, "only the released vertices can go");
        assert_eq!(c.exact_size(), 5);
        // Locked vertices all survived.
        for i in (1..10).step_by(2) {
            assert!(c.get_locked(VertexId(i)).is_some());
        }
    }

    #[test]
    fn requests_count_toward_size_and_limit() {
        let c = small_cache(4);
        let mut h = c.counter_handle();
        for i in 0..6 {
            c.request(VertexId(i), TaskId(i as u64), &mut h);
        }
        assert_eq!(c.approx_size(), 6);
        assert!(c.over_limit(), "in-flight requests count toward s_cache");
        // GC cannot evict R-table entries.
        assert_eq!(c.gc_pass(&mut h), 0);
    }

    #[test]
    fn concurrent_request_release_is_linearizable_per_vertex() {
        let c = Arc::new(small_cache(1_000_000));
        // Seed 64 vertices as cached and unlocked.
        {
            let mut h = c.counter_handle();
            for i in 0..64 {
                c.request(VertexId(i), T1, &mut h);
                c.insert_response(VertexId(i), adj(&[i + 1]));
                c.release(VertexId(i));
            }
        }
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    let mut h = c.counter_handle();
                    for round in 0..2_000u32 {
                        let v = VertexId((t * 8 + round) % 64);
                        match c.request(v, TaskId(t as u64), &mut h) {
                            RequestOutcome::Hit(_) => c.release(v),
                            _ => unreachable!("seeded vertices are always cached"),
                        }
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        // All locks released: every vertex evictable again.
        assert_eq!(c.exact_evictable(), 64);
        assert_eq!(c.exact_size(), 64);
    }
}
