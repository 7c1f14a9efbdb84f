//! Spilled task batches and the machine-wide batch list `L_file` (§V-B).
//!
//! When a comper's `Q_task` overflows, the last `C` tasks are written as
//! one batch (sequential IO) and appended to the worker's shared
//! `L_file` list. Refills pop batches FIFO, which prioritizes the
//! earliest-spilled (and typically partially-processed) tasks, keeping
//! the disk-resident task volume minimal — the property the paper
//! credits for G-thinker's negligible disk usage, in contrast to
//! G-Miner's ever-growing disk queue.
//!
//! The batches are records in a per-worker log of segment files
//! (`segment-NNNNNNNN.tasks`), because creating a file costs far more
//! than writing one: an append is a positional write at the end of the
//! tail segment, and a new segment is created only when the batch
//! would take the tail past [`SEGMENT_BYTES`] or no tail exists. A
//! batch in `L_file` is one extent `(segment, offset, len)`, listed
//! only once its bytes are written. A segment is unlinked once its last
//! batch is read and either a newer segment exists or `L_file` is
//! empty, so a drained spill leaves no file and the files never hold
//! more than the live batches plus two segments. No file handle is kept
//! between calls: each append and each read opens its segment by path,
//! so a damaged or replaced segment fails the next operation on it.
//!
//! A spilled batch is a task batch's one form, a sealed [`frame`] around
//! the encoded `Vec<Task>` ([`seal_batch`]): a steal ships it as it is,
//! a checkpoint writes it into its epoch, and [`SpillManager::refill`]
//! opens it before decoding, so a damaged or foreign batch is
//! `InvalidData`.

use crate::codec::{from_bytes, Decode, Encode};
use crate::frame;
use crate::task::Task;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fs::{self, File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;

/// A tail segment holding this many bytes is full: the next append
/// starts a new one. A batch larger than this gets a segment of its own.
pub const SEGMENT_BYTES: u64 = 1 << 20;

/// Where one spilled batch sits in the log.
struct Extent {
    segment: u64,
    offset: u64,
    len: u64,
}

/// `L_file` plus the segment appends go to.
#[derive(Default)]
struct Log {
    batches: VecDeque<Extent>,
    /// The tail segment and its length, where the next append goes.
    tail: Option<(u64, u64)>,
    next_segment: u64,
    /// Bytes ever appended and ever popped (monotonic).
    spilled: u64,
    refilled: u64,
}

/// The spill directory plus the concurrent batch list `L_file`.
///
/// One lock covers the list and the segment IO, so a segment's batches
/// are contiguous in `L_file` and the unlink rule needs no counts.
pub struct SpillManager {
    dir: PathBuf,
    log: Mutex<Log>,
}

impl SpillManager {
    /// Creates a manager writing segment files under `dir` (created if
    /// missing).
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(SpillManager { dir, log: Mutex::new(Log::default()) })
    }

    /// Number of spilled batches in `L_file`.
    pub fn num_batches(&self) -> usize {
        self.log.lock().batches.len()
    }

    /// True when no spilled batches exist.
    pub fn is_empty(&self) -> bool {
        self.log.lock().batches.is_empty()
    }

    /// Total bytes ever spilled (monotonic; for the disk-usage report).
    pub fn bytes_spilled(&self) -> u64 {
        self.log.lock().spilled
    }

    /// Total bytes ever refilled (monotonic).
    pub fn bytes_refilled(&self) -> u64 {
        self.log.lock().refilled
    }

    /// Writes `tasks` as one batch and appends it to `L_file`.
    pub fn spill<C: Encode>(&self, tasks: &[Task<C>]) -> io::Result<()> {
        self.push_sealed(&seal_batch(tasks))
    }

    /// Pops the oldest batch, checks its frame and decodes its tasks.
    /// Returns `None` when `L_file` is empty.
    pub fn refill<C: Decode>(&self) -> io::Result<Option<Vec<Task<C>>>> {
        let Some(sealed) = self.pop_sealed()? else {
            return Ok(None);
        };
        let batch = from_bytes(frame::open(&sealed)?);
        batch.map(Some).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Appends a sealed batch (spilled here, stolen from another worker,
    /// or handed back by a checkpoint) to `L_file`, bytes as they are.
    pub fn push_sealed(&self, sealed: &[u8]) -> io::Result<()> {
        let len = sealed.len() as u64;
        let mut log = self.log.lock();
        let (segment, offset) = match log.tail {
            Some((segment, end)) if end == 0 || end + len <= SEGMENT_BYTES => (segment, end),
            _ => (log.next_segment, 0),
        };
        let fresh = segment == log.next_segment;
        let file =
            OpenOptions::new().write(true).create_new(fresh).open(self.segment_path(segment))?;
        if fresh {
            // The tail before the write, so `clear` removes the file even
            // if the write fails.
            log.next_segment += 1;
            log.tail = Some((segment, 0));
        }
        file.write_all_at(sealed, offset)?;
        log.tail = Some((segment, offset + len));
        log.batches.push_back(Extent { segment, offset, len });
        log.spilled += len;
        Ok(())
    }

    /// Pops the oldest batch and returns its sealed bytes (for refill, a
    /// thief or a checkpoint), unlinking its segment if that drained it.
    /// A segment cut short of the batch is `InvalidData`.
    pub fn pop_sealed(&self) -> io::Result<Option<Vec<u8>>> {
        let mut log = self.log.lock();
        let Some(Extent { segment, offset, len }) = log.batches.pop_front() else {
            return Ok(None);
        };
        let path = self.segment_path(segment);
        let mut sealed = vec![0; len as usize];
        let read = File::open(&path).and_then(|f| f.read_exact_at(&mut sealed, offset));
        let read = read.map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} ends inside a spilled batch of {len} B at {offset}", path.display()),
            ),
            _ => e,
        });
        // A segment's batches are contiguous in `L_file`, so this was its
        // last one unless the next batch is in it too.
        let mut removed = Ok(());
        if log.batches.front().is_none_or(|next| next.segment != segment) {
            if log.tail.is_some_and(|(tail, _)| tail == segment) {
                log.tail = None;
            }
            removed = fs::remove_file(&path);
        }
        read.and(removed)?;
        log.refilled += len;
        Ok(Some(sealed))
    }

    /// Removes every remaining batch and its segment files (job
    /// teardown).
    pub fn clear(&self) -> io::Result<()> {
        let mut guard = self.log.lock();
        let log = &mut *guard;
        let mut segments: Vec<u64> = log.batches.drain(..).map(|b| b.segment).collect();
        segments.extend(log.tail.take().map(|(segment, _)| segment));
        segments.dedup();
        segments.into_iter().try_for_each(|segment| fs::remove_file(self.segment_path(segment)))
    }

    fn segment_path(&self, segment: u64) -> PathBuf {
        self.dir.join(format!("segment-{segment:08}.tasks"))
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
    use std::path::Path;

    /// A spill directory of the test's own, removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir =
                std::env::temp_dir().join(format!("gthinker-spill-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            TempDir(dir)
        }

        fn files(&self) -> Vec<PathBuf> {
            fs::read_dir(&self.0).unwrap().map(|e| e.unwrap().path()).collect()
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    impl std::ops::Deref for TempDir {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    fn task(n: u32) -> Task<u32> {
        let mut t = Task::new(n);
        t.subgraph.add_vertex(VertexId(n), AdjList::from_unsorted(vec![VertexId(n + 1)]));
        t.pull(VertexId(n + 1));
        t
    }

    #[test]
    fn spill_and_refill_round_trip() {
        let dir = TempDir::new("rt");
        let m = SpillManager::new(&*dir).unwrap();
        let batch: Vec<Task<u32>> = (0..10).map(task).collect();
        m.spill(&batch).unwrap();
        assert_eq!(m.num_batches(), 1);
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
        let dir = TempDir::new("fifo");
        let m = SpillManager::new(&*dir).unwrap();
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
        let (victim_dir, thief_dir) = (TempDir::new("victim"), TempDir::new("thief"));
        let victim = SpillManager::new(&*victim_dir).unwrap();
        let thief = SpillManager::new(&*thief_dir).unwrap();
        victim.spill(&[task(7), task(8)]).unwrap();
        let bytes = victim.pop_sealed().unwrap().unwrap();
        thief.push_sealed(&bytes).unwrap();
        assert!(victim.is_empty());
        let stolen: Vec<Task<u32>> = thief.refill().unwrap().unwrap();
        assert_eq!(stolen.len(), 2);
        assert_eq!(stolen[1].context, 8);
    }

    #[test]
    fn clear_removes_files_from_disk() {
        let dir = TempDir::new("clear");
        let m = SpillManager::new(&*dir).unwrap();
        m.spill(&[task(1)]).unwrap();
        m.clear().unwrap();
        assert!(m.is_empty());
        assert_eq!(fs::read_dir(&*dir).unwrap().count(), 0);
    }

    #[test]
    fn files_are_deleted_after_refill() {
        let dir = TempDir::new("del");
        let m = SpillManager::new(&*dir).unwrap();
        m.spill(&[task(1)]).unwrap();
        let _: Vec<Task<u32>> = m.refill().unwrap().unwrap();
        assert_eq!(fs::read_dir(&*dir).unwrap().count(), 0);
    }

    /// Batches share the tail segment until it is full; a segment goes
    /// once a newer one exists and its last batch is read, and the last
    /// segment goes when `L_file` drains.
    #[test]
    fn batches_share_a_segment_until_it_is_full() {
        let dir = TempDir::new("segments");
        let m = SpillManager::new(&*dir).unwrap();
        let third = SEGMENT_BYTES as usize / 3;
        for (n, batch) in [2 * third, 2 * third, third / 2].into_iter().enumerate() {
            m.push_sealed(&vec![n as u8; batch]).unwrap();
        }
        assert_eq!((m.num_batches(), dir.files().len()), (3, 2));
        assert_eq!(m.pop_sealed().unwrap().unwrap(), vec![0; 2 * third]);
        assert_eq!(dir.files().len(), 1, "the first segment drained");
        m.spill(&[task(1)]).unwrap();
        assert_eq!(dir.files().len(), 1, "the tail segment has room");
        for _ in 0..3 {
            m.pop_sealed().unwrap().unwrap();
        }
        assert!(m.pop_sealed().unwrap().is_none());
        assert_eq!(dir.files().len(), 0);
    }

    /// A segment cut inside a batch refuses that batch with
    /// `InvalidData`, not `UnexpectedEof`, and still serves the batches
    /// before the cut.
    #[test]
    fn a_segment_cut_inside_a_batch_is_invalid_data() {
        let len = seal_batch(&[task(1)]).len() as u64;
        for (cut, whole) in [(len / 2, 0), (len + len / 2, 1), (0, 0)] {
            let dir = TempDir::new("cut");
            let m = SpillManager::new(&*dir).unwrap();
            m.spill(&[task(1)]).unwrap();
            m.spill(&[task(2)]).unwrap();
            fs::OpenOptions::new().write(true).open(&dir.files()[0]).unwrap().set_len(cut).unwrap();
            for _ in 0..whole {
                let _: Vec<Task<u32>> = m.refill().unwrap().unwrap();
            }
            let err = m.refill::<u32>().expect_err("a cut batch refills");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}: {err}");
            assert!(err.to_string().contains("ends inside a spilled batch"), "{err}");
            if whole == 0 {
                assert_eq!(m.refill::<u32>().unwrap_err().kind(), io::ErrorKind::InvalidData);
            }
            assert!(m.is_empty());
            assert_eq!(dir.files().len(), 0, "cut at {cut}");
        }
    }

    /// A segment path replaced by a directory fails the next append and
    /// the next refill with the error the filesystem gives.
    #[test]
    fn a_segment_replaced_by_a_directory_fails_append_and_refill() {
        let dir = TempDir::new("isdir");
        let m = SpillManager::new(&*dir).unwrap();
        m.spill(&[task(1)]).unwrap();
        let segment = dir.files().remove(0);
        fs::remove_file(&segment).unwrap();
        fs::create_dir(&segment).unwrap();
        let err = m.spill(&[task(2)]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::IsADirectory, "{err}");
        let err = m.refill::<u32>().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::IsADirectory, "{err}");
        assert!(m.is_empty());
    }

    #[test]
    fn concurrent_spill_refill_preserves_all_tasks() {
        let dir = TempDir::new("conc");
        let m = std::sync::Arc::new(SpillManager::new(&*dir).unwrap());
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
