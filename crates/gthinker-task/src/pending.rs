//! The pending-task table `T_task` (§V-B).
//!
//! A task that pulled vertices not yet locally available is *pending*:
//! its comper parks it here under a fresh 64-bit [`TaskId`] (16-bit
//! comper | 48-bit sequence). The table entry records `req(t)` — how
//! many pulled vertices the task waits for — and `met(t)` — how many
//! have arrived. The response-receiving thread looks the comper up from
//! the task ID, increments `met(t)`, and when `met(t) = req(t)` removes
//! the task and moves it to that comper's `B_task`.
//!
//! The table is shared between exactly one comper (inserts) and the
//! receiver threads (notifications), so a single mutex per comper
//! suffices — contention is inherently low.

use crate::task::Task;
use gthinker_graph::hash::FastMap;
use gthinker_graph::ids::TaskId;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

struct PendingEntry<C> {
    task: Task<C>,
    met: u32,
    req: u32,
}

struct Inner<C> {
    entries: FastMap<TaskId, PendingEntry<C>>,
    /// Notifications that arrived before their task was parked. The
    /// comper registers a task in the vertex cache's R-tables *before*
    /// inserting it here, so a fast response (served by another thread
    /// the instant a request batch flushes) can race the insert; these
    /// early arrivals are buffered and reconciled at insert time —
    /// otherwise the wakeup is lost and the task pends forever.
    early: FastMap<TaskId, u32>,
}

/// One comper's pending-task table.
pub struct PendingTable<C> {
    inner: Mutex<Inner<C>>,
    len: AtomicUsize,
}

impl<C> PendingTable<C> {
    /// Creates an empty table.
    pub fn new() -> Self {
        PendingTable {
            inner: Mutex::new(Inner { entries: FastMap::default(), early: FastMap::default() }),
            len: AtomicUsize::new(0),
        }
    }

    /// Parks `task` under `id`, waiting for `req` vertices of which
    /// `met` are already satisfied. If responses raced ahead of the
    /// insert (see [`PendingTable::notify`]), they are credited now;
    /// when they already complete the task, it is returned instead of
    /// parked and the caller must schedule it as ready.
    ///
    /// # Panics
    /// Panics if `met >= req` (such a task is ready and must not be
    /// parked) or if `id` is already present.
    #[must_use = "a returned task is ready and must be scheduled"]
    pub fn insert(&self, id: TaskId, task: Task<C>, req: u32, met: u32) -> Option<Task<C>> {
        assert!(met < req, "a task with met >= req is ready, not pending");
        let mut inner = self.inner.lock();
        let early = inner.early.remove(&id).unwrap_or(0);
        let met = met + early;
        debug_assert!(met <= req, "more early notifications than requests");
        if met >= req {
            return Some(task);
        }
        let prev = inner.entries.insert(id, PendingEntry { task, met, req });
        assert!(prev.is_none(), "duplicate pending task id {id}");
        self.len.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Records the arrival of one awaited vertex for task `id`. Returns
    /// the task when it became ready. Arrivals for a task not parked
    /// yet are buffered and credited when [`PendingTable::insert`] runs.
    pub fn notify(&self, id: TaskId) -> Option<Task<C>> {
        let mut ready = None;
        self.notify_with(id, |task| ready = Some(task));
        ready
    }

    /// [`PendingTable::notify`], handing a task that became ready to
    /// `ready` (which pushes it to `B_task`) while the table is still
    /// locked: a concurrent [`PendingTable::drain`] either runs before
    /// — and takes the task — or after `ready` has put it where the
    /// drainer looks next, never in between (a checkpoint that caught
    /// the task in neither place lost it).
    pub fn notify_with(&self, id: TaskId, ready: impl FnOnce(Task<C>)) {
        let mut inner = self.inner.lock();
        let Some(entry) = inner.entries.get_mut(&id) else {
            *inner.early.entry(id).or_insert(0) += 1;
            return;
        };
        entry.met += 1;
        debug_assert!(entry.met <= entry.req, "more notifications than requests");
        if entry.met == entry.req {
            let entry = inner.entries.remove(&id).expect("entry just seen");
            self.len.fetch_sub(1, Ordering::Relaxed);
            ready(entry.task);
        }
    }

    /// Number of pending tasks (used in the `|T_task| + |B_task| ≤ D`
    /// gate).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes and returns every pending task (checkpointing: pending
    /// tasks are re-queued so they re-request their vertices after
    /// restart, because `T_cache` starts cold).
    pub fn drain(&self) -> Vec<Task<C>> {
        let mut inner = self.inner.lock();
        let tasks: Vec<Task<C>> = inner.entries.drain().map(|(_, e)| e.task).collect();
        inner.early.clear();
        self.len.store(0, Ordering::Relaxed);
        tasks
    }
}

impl<C> Default for PendingTable<C> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn becomes_ready_after_req_notifications() {
        let t: PendingTable<u32> = PendingTable::new();
        assert!(t.insert(TaskId(1), Task::new(42), 3, 0).is_none());
        assert_eq!(t.len(), 1);
        assert!(t.notify(TaskId(1)).is_none());
        assert!(t.notify(TaskId(1)).is_none());
        let ready = t.notify(TaskId(1)).expect("third arrival completes");
        assert_eq!(ready.context, 42);
        assert!(t.is_empty());
    }

    #[test]
    fn partially_met_insert() {
        let t: PendingTable<u32> = PendingTable::new();
        // 2 of 3 pulls were already cached at park time.
        assert!(t.insert(TaskId(9), Task::new(7), 3, 2).is_none());
        let ready = t.notify(TaskId(9)).expect("one arrival completes");
        assert_eq!(ready.context, 7);
    }

    #[test]
    fn unknown_ids_ignored() {
        let t: PendingTable<u32> = PendingTable::new();
        assert!(t.notify(TaskId(123)).is_none());
    }

    #[test]
    fn early_notifications_credit_at_insert() {
        let t: PendingTable<u32> = PendingTable::new();
        // Responses race ahead of the park: 2 of 3 awaited vertices
        // arrive before insert.
        assert!(t.notify(TaskId(5)).is_none());
        assert!(t.notify(TaskId(5)).is_none());
        assert!(t.insert(TaskId(5), Task::new(50), 3, 0).is_none());
        assert_eq!(t.len(), 1);
        let ready = t.notify(TaskId(5)).expect("third arrival completes");
        assert_eq!(ready.context, 50);
    }

    #[test]
    fn fully_early_task_returned_ready_at_insert() {
        let t: PendingTable<u32> = PendingTable::new();
        // Every awaited response landed before the park.
        t.notify(TaskId(7));
        t.notify(TaskId(7));
        let ready = t.insert(TaskId(7), Task::new(70), 2, 0).expect("already complete");
        assert_eq!(ready.context, 70);
        assert!(t.is_empty());
        // The early credit was consumed.
        assert!(t.notify(TaskId(7)).is_none());
    }

    #[test]
    fn drain_returns_pending_tasks() {
        let t: PendingTable<u32> = PendingTable::new();
        let _ = t.insert(TaskId(1), Task::new(1), 2, 0);
        let _ = t.insert(TaskId(2), Task::new(2), 5, 1);
        let drained = t.drain();
        assert_eq!(drained.len(), 2);
        assert!(t.is_empty());
        assert!(t.notify(TaskId(1)).is_none(), "drained tasks no longer notifiable");
    }

    #[test]
    #[should_panic(expected = "ready, not pending")]
    fn ready_task_rejected() {
        let t: PendingTable<u32> = PendingTable::new();
        let _ = t.insert(TaskId(1), Task::new(1), 2, 2);
    }

    #[test]
    #[should_panic(expected = "duplicate pending task id")]
    fn duplicate_id_rejected() {
        let t: PendingTable<u32> = PendingTable::new();
        let _ = t.insert(TaskId(1), Task::new(1), 2, 0);
        let _ = t.insert(TaskId(1), Task::new(2), 2, 0);
    }

    #[test]
    fn concurrent_notifications_release_each_task_once() {
        let t: std::sync::Arc<PendingTable<u32>> = std::sync::Arc::new(PendingTable::new());
        // 100 tasks each waiting for 4 vertices.
        for i in 0..100u64 {
            assert!(t.insert(TaskId(i), Task::new(i as u32), 4, 0).is_none());
        }
        let released = std::sync::Arc::new(AtomicUsize::new(0));
        // 4 receiver threads each notify every task once.
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let t = std::sync::Arc::clone(&t);
                let released = std::sync::Arc::clone(&released);
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        if t.notify(TaskId(i)).is_some() {
                            released.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(released.load(Ordering::Relaxed), 100, "each task released exactly once");
        assert!(t.is_empty());
    }
}
