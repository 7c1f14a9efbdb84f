//! The ready-task buffer `B_task` (§V-B).
//!
//! `Q_task` is single-owner by design (its comper refills the head and
//! spills the tail). When the **response-receiving thread** finds that a
//! pending task's last awaited vertex arrived, it cannot touch `Q_task`;
//! it appends the task to this concurrent buffer instead, and the owning
//! comper drains it during `push()` rounds.

use crate::task::Task;
use crossbeam::queue::SegQueue;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A multi-producer (receiver threads), single-consumer (the owning
/// comper) ready-task buffer.
pub struct TaskBuffer<C> {
    queue: SegQueue<Task<C>>,
    len: AtomicUsize,
}

impl<C> TaskBuffer<C> {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        TaskBuffer { queue: SegQueue::new(), len: AtomicUsize::new(0) }
    }

    /// Appends a task that became ready. The count goes up *before*
    /// the task is visible, so it is never below the number of tasks a
    /// concurrent [`TaskBuffer::pop`] can take: counting after the push
    /// let a fast pop decrement first and wrap the count around.
    pub fn push(&self, task: Task<C>) {
        self.len.fetch_add(1, Ordering::Relaxed);
        self.queue.push(task);
    }

    /// Takes one ready task, if any.
    pub fn pop(&self) -> Option<Task<C>> {
        let t = self.queue.pop();
        if t.is_some() {
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        t
    }

    /// Approximate number of buffered tasks (used in the `|T_task| +
    /// |B_task| ≤ D` gate).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True when no ready task waits.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains all buffered tasks (checkpointing / shutdown).
    pub fn drain(&self) -> Vec<Task<C>> {
        let mut out = Vec::new();
        while let Some(t) = self.pop() {
            out.push(t);
        }
        out
    }
}

impl<C> Default for TaskBuffer<C> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_fifo() {
        let b: TaskBuffer<u32> = TaskBuffer::new();
        b.push(Task::new(1));
        b.push(Task::new(2));
        assert_eq!(b.len(), 2);
        assert_eq!(b.pop().unwrap().context, 1);
        assert_eq!(b.pop().unwrap().context, 2);
        assert!(b.pop().is_none());
        assert!(b.is_empty());
    }

    #[test]
    fn drain_returns_everything() {
        let b: TaskBuffer<u32> = TaskBuffer::new();
        for i in 0..7 {
            b.push(Task::new(i));
        }
        let all = b.drain();
        assert_eq!(all.len(), 7);
        assert!(b.is_empty());
    }

    #[test]
    fn concurrent_producers_single_consumer() {
        let b: Arc<TaskBuffer<u32>> = Arc::new(TaskBuffer::new());
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for i in 0..1_000u32 {
                        b.push(Task::new(p * 10_000 + i));
                    }
                })
            })
            .collect();
        for t in producers {
            t.join().unwrap();
        }
        let mut seen: Vec<u32> = Vec::new();
        while let Some(t) = b.pop() {
            seen.push(t.context);
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4_000, "all pushed tasks observed exactly once");
    }

    /// A consumer racing the producer must never see the count wrap
    /// below zero (the comper adds it to `|T_task|` for the pop gate).
    #[test]
    fn count_never_wraps_under_a_racing_consumer() {
        const N: usize = 200_000;
        let b: Arc<TaskBuffer<u32>> = Arc::new(TaskBuffer::new());
        let producer = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || (0..N as u32).for_each(|i| b.push(Task::new(i))))
        };
        let mut taken = 0;
        while taken < N {
            if b.pop().is_some() {
                taken += 1;
            }
            assert!(b.len() <= N, "count wrapped: {}", b.len());
        }
        producer.join().unwrap();
        assert!(b.is_empty());
    }
}
