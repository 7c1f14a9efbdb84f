//! Spilled-task files and the machine-wide file list `L_file` (§V-B).
//!
//! When a comper's `Q_task` overflows, the last `C` tasks are written as
//! one batch file (sequential IO); the file's path is appended to the
//! worker's shared `L_file` list. Refills pop files FIFO, which
//! prioritizes the earliest-spilled (and typically partially-processed)
//! tasks, keeping the disk-resident task volume minimal — the property
//! the paper credits for G-thinker's negligible disk usage, in contrast
//! to G-Miner's ever-growing disk queue.
//!
//! A batch file is a task batch's one form, a sealed [`frame`] around
//! the encoded `Vec<Task>` ([`seal_batch`]): a steal ships it as it is,
//! a checkpoint moves it, and [`SpillManager::refill`] opens it before
//! decoding, so a damaged or foreign file is `InvalidData`.

use crate::codec::{from_bytes, Decode, Encode};
use crate::frame;
use crate::task::Task;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// The spill directory plus the concurrent file list `L_file`.
pub struct SpillManager {
    dir: PathBuf,
    files: Mutex<VecDeque<PathBuf>>,
    next_file: AtomicU64,
    bytes_spilled: AtomicU64,
    bytes_refilled: AtomicU64,
}

impl SpillManager {
    /// Creates a manager writing batch files under `dir` (created if
    /// missing).
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(SpillManager {
            dir,
            files: Mutex::new(VecDeque::new()),
            next_file: AtomicU64::new(0),
            bytes_spilled: AtomicU64::new(0),
            bytes_refilled: AtomicU64::new(0),
        })
    }

    /// Number of batch files currently on disk.
    pub fn num_files(&self) -> usize {
        self.files.lock().len()
    }

    /// True when no spilled batches exist.
    pub fn is_empty(&self) -> bool {
        self.files.lock().is_empty()
    }

    /// Total bytes ever spilled (monotonic; for the disk-usage report).
    pub fn bytes_spilled(&self) -> u64 {
        self.bytes_spilled.load(Ordering::Relaxed)
    }

    /// Total bytes ever refilled (monotonic).
    pub fn bytes_refilled(&self) -> u64 {
        self.bytes_refilled.load(Ordering::Relaxed)
    }

    /// Writes `tasks` as one batch file and appends it to `L_file`.
    pub fn spill<C: Encode>(&self, tasks: &[Task<C>]) -> io::Result<()> {
        self.push_file_bytes(seal_batch(tasks))
    }

    /// Pops the oldest batch file, checks its frame, decodes its tasks
    /// and deletes it. Returns `None` when `L_file` is empty.
    pub fn refill<C: Decode>(&self) -> io::Result<Option<Vec<Task<C>>>> {
        let Some(sealed) = self.pop_file_bytes()? else {
            return Ok(None);
        };
        let batch = from_bytes(frame::open(&sealed)?);
        batch.map(Some).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Appends a sealed batch (stolen from another worker, or handed
    /// back by a checkpoint) to `L_file`, bytes as they are.
    pub fn push_file_bytes(&self, sealed: Vec<u8>) -> io::Result<()> {
        let id = self.next_file.fetch_add(1, Ordering::Relaxed);
        let path = self.dir.join(format!("batch-{id:08}.tasks"));
        std::fs::write(&path, &sealed)?;
        self.bytes_spilled.fetch_add(sealed.len() as u64, Ordering::Relaxed);
        self.files.lock().push_back(path);
        Ok(())
    }

    /// Pops the oldest batch file's path off `L_file`, leaving the file
    /// to the caller (a checkpoint moves it into its epoch).
    pub fn pop_file(&self) -> Option<PathBuf> {
        self.files.lock().pop_front()
    }

    /// Pops the oldest batch file and returns its sealed bytes (for
    /// refill or for handing to a stealing worker), deleting the file.
    pub fn pop_file_bytes(&self) -> io::Result<Option<Vec<u8>>> {
        let Some(path) = self.pop_file() else {
            return Ok(None);
        };
        let sealed = std::fs::read(&path)?;
        std::fs::remove_file(&path)?;
        self.bytes_refilled.fetch_add(sealed.len() as u64, Ordering::Relaxed);
        Ok(Some(sealed))
    }

    /// Removes every remaining batch file (job teardown).
    pub fn clear(&self) -> io::Result<()> {
        let mut files = self.files.lock();
        for path in files.drain(..) {
            std::fs::remove_file(path)?;
        }
        Ok(())
    }
}

/// A task batch in its one form: the tasks encoded as a `Vec<Task<C>>`
/// (u64 count, then each task) straight into a sealed frame.
pub fn seal_batch<C: Encode>(tasks: &[Task<C>]) -> Vec<u8> {
    let mut sealed = Vec::new();
    frame::seal_with(&mut sealed, |buf| {
        (tasks.len() as u64).encode(buf);
        tasks.iter().for_each(|t| t.encode(buf));
    });
    sealed
}

#[cfg(test)]
mod tests {
    use super::*;
    use gthinker_graph::adj::AdjList;
    use gthinker_graph::ids::VertexId;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gthinker-spill-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn task(n: u32) -> Task<u32> {
        let mut t = Task::new(n);
        t.subgraph.add_vertex(VertexId(n), AdjList::from_unsorted(vec![VertexId(n + 1)]));
        t.pull(VertexId(n + 1));
        t
    }

    #[test]
    fn spill_and_refill_round_trip() {
        let m = SpillManager::new(tempdir("rt")).unwrap();
        let batch: Vec<Task<u32>> = (0..10).map(task).collect();
        m.spill(&batch).unwrap();
        assert_eq!(m.num_files(), 1);
        let back: Vec<Task<u32>> = m.refill().unwrap().unwrap();
        assert_eq!(back.len(), 10);
        for (i, t) in back.iter().enumerate() {
            assert_eq!(t.context, i as u32);
            assert!(t.subgraph.contains(VertexId(i as u32)));
            assert_eq!(t.pending_pulls(), &[VertexId(i as u32 + 1)]);
        }
        assert!(m.is_empty());
        assert!(m.bytes_spilled() > 0);
        assert_eq!(m.bytes_spilled(), m.bytes_refilled());
    }

    #[test]
    fn files_pop_fifo() {
        let m = SpillManager::new(tempdir("fifo")).unwrap();
        m.spill(&[task(1)]).unwrap();
        m.spill(&[task(2)]).unwrap();
        let first: Vec<Task<u32>> = m.refill().unwrap().unwrap();
        assert_eq!(first[0].context, 1, "oldest batch first");
        let second: Vec<Task<u32>> = m.refill().unwrap().unwrap();
        assert_eq!(second[0].context, 2);
        let none: Option<Vec<Task<u32>>> = m.refill().unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn raw_bytes_transfer_models_stealing() {
        let victim = SpillManager::new(tempdir("victim")).unwrap();
        let thief = SpillManager::new(tempdir("thief")).unwrap();
        victim.spill(&[task(7), task(8)]).unwrap();
        let bytes = victim.pop_file_bytes().unwrap().unwrap();
        thief.push_file_bytes(bytes).unwrap();
        assert!(victim.is_empty());
        let stolen: Vec<Task<u32>> = thief.refill().unwrap().unwrap();
        assert_eq!(stolen.len(), 2);
        assert_eq!(stolen[1].context, 8);
    }

    #[test]
    fn clear_removes_files_from_disk() {
        let dir = tempdir("clear");
        let m = SpillManager::new(&dir).unwrap();
        m.spill(&[task(1)]).unwrap();
        m.clear().unwrap();
        assert!(m.is_empty());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
    }

    #[test]
    fn files_are_deleted_after_refill() {
        let dir = tempdir("del");
        let m = SpillManager::new(&dir).unwrap();
        m.spill(&[task(1)]).unwrap();
        let _: Vec<Task<u32>> = m.refill().unwrap().unwrap();
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
    }

    #[test]
    fn concurrent_spill_refill_preserves_all_tasks() {
        let m = std::sync::Arc::new(SpillManager::new(tempdir("conc")).unwrap());
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let m = std::sync::Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..50u32 {
                        m.spill(&[task(w * 1000 + i)]).unwrap();
                    }
                })
            })
            .collect();
        for t in writers {
            t.join().unwrap();
        }
        let mut seen = Vec::new();
        while let Some(batch) = m.refill::<u32>().unwrap() {
            seen.extend(batch.into_iter().map(|t| t.context));
        }
        seen.sort_unstable();
        assert_eq!(seen.len(), 200);
        seen.dedup();
        assert_eq!(seen.len(), 200, "no duplicate or lost tasks");
    }
}
