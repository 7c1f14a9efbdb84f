//! Checkpointing for fault tolerance (§V-B "Fault Tolerance").
//!
//! The paper commits worker states — spilled file list, task queues,
//! pending/buffered tasks, spawn progress — plus outputs to HDFS; on
//! failure the job reruns from the latest checkpoint, with tasks from
//! `T_task`/`B_task` re-added to `Q_task` so they re-request their
//! vertices (the cache restarts cold).
//!
//! The reproduction writes one shard per worker plus a master manifest
//! to a local directory when a job **suspends** (after
//! `JobConfig::suspend_after`); `Job::resume_from` restores the shards and
//! continues to completion. A shard is the spawn pointer, the batch
//! count and the aggregator partial; the batches are the worker's
//! spilled batches, which [`write_shard`] pops off `L_file` and writes
//! into the epoch, one file each, and [`read_shard`] hands back. No
//! task is decoded: a batch's sealed bytes are written as they are.
//!
//! Every file is one sealed [`frame`]; the shard and manifest go to a
//! `*.tmp` sibling, fsynced, then renamed into place. A crash mid-write
//! leaves at worst a `*.tmp` orphan; a truncated, bit-flipped or foreign
//! file (an epoch of an older format too) fails its read with a clean
//! [`io::ErrorKind::InvalidData`] instead of decoding garbage, which is
//! what lets the recovery runner probe for the last-known-good epoch.
//! The shard is written last, after every batch is opened, written and
//! fsynced, so an I/O error or a damaged batch leaves no shard.

use gthinker_task::codec::{from_bytes, to_bytes, Decode, Encode};
use gthinker_task::frame;
use gthinker_task::spill::SpillManager;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// One worker's checkpoint shard, encoded as the tuple of its fields.
pub struct WorkerShard<P> {
    /// Spawn-pointer position in `T_local` load order.
    pub spawn_position: u64,
    /// Task batches written next to the shard, `worker-WWWW-KKKKKK.tasks`
    /// for `K` in `0..batches`: every in-memory and spilled task of this
    /// worker at suspension, pulls included — they re-request on resume.
    pub batches: u64,
    /// The worker's unsynchronized aggregator partial.
    pub partial: P,
}

fn shard_path(dir: &Path, worker: usize) -> PathBuf {
    dir.join(format!("worker-{worker:04}.ckpt"))
}

fn batch_path(dir: &Path, worker: usize, k: u64) -> PathBuf {
    dir.join(format!("worker-{worker:04}-{k:06}.tasks"))
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest.ckpt")
}

/// Seals `payload` into `path.tmp`, fsyncs, and renames into place so
/// readers only ever see a complete file or none.
fn write_atomic(path: &Path, payload: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, frame::seal(payload))?;
    fs::File::open(&tmp)?.sync_all()?;
    fs::rename(&tmp, path)
}

/// Opens the frame of `sealed`, the bytes of the checkpoint file at
/// `path`; truncation, corruption or another format is `InvalidData`.
fn open_frame<'a>(path: &Path, sealed: &'a [u8]) -> io::Result<&'a [u8]> {
    frame::open(sealed).map_err(|e| {
        let msg = format!("checkpoint file {} is corrupt: {e}", path.display());
        io::Error::new(io::ErrorKind::InvalidData, msg)
    })
}

/// Reads and decodes a file written by [`write_atomic`].
fn read_decoded<T: Decode>(path: &Path) -> io::Result<T> {
    from_bytes(open_frame(path, &fs::read(path)?)?)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Writes one worker's checkpoint: pops `spill`'s `L_file` into the
/// epoch one batch at a time, opening each batch's frame before writing
/// and fsyncing it, then the shard. The first I/O error or damaged
/// batch stops it before that.
pub fn write_shard<P: Encode>(
    dir: &Path,
    worker: usize,
    spill: &SpillManager,
    spawn_position: u64,
    partial: P,
) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let mut batches = 0;
    while let Some(sealed) = spill.pop_sealed()? {
        let path = batch_path(dir, worker, batches);
        open_frame(&path, &sealed)?;
        let mut file = fs::File::create(&path)?;
        file.write_all(&sealed)?;
        file.sync_all()?;
        batches += 1;
    }
    write_atomic(&shard_path(dir, worker), &to_bytes(&(spawn_position, batches, partial)))
}

/// Reads one worker's shard and checks every batch it lists, handing
/// each batch's bytes to `spill`'s `L_file` when one is given (resume)
/// and dropping them otherwise ([`validate`]). Truncation or corruption
/// of any file is `InvalidData`.
pub fn read_shard<P: Decode>(
    dir: &Path,
    worker: usize,
    spill: Option<&SpillManager>,
) -> io::Result<WorkerShard<P>> {
    let (spawn_position, batches, partial) = read_decoded(&shard_path(dir, worker))?;
    for k in 0..batches {
        let path = batch_path(dir, worker, k);
        let sealed = fs::read(&path)?;
        open_frame(&path, &sealed)?;
        if let Some(spill) = spill {
            spill.push_sealed(&sealed)?;
        }
    }
    Ok(WorkerShard { spawn_position, batches, partial })
}

/// Writes the master manifest, sealed and atomically: the worker count
/// the checkpoint was taken with and the master's merged global aggregate.
pub fn write_manifest<G: Encode>(dir: &Path, num_workers: usize, global: G) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    write_atomic(&manifest_path(dir), &to_bytes(&(num_workers as u64, global)))
}

/// Reads the global aggregate of a checkpoint that must have been taken
/// with `num_workers` workers; truncation/corruption is `InvalidData`,
/// another worker count `InvalidInput`.
pub fn read_manifest<G: Decode>(dir: &Path, num_workers: usize) -> io::Result<G> {
    let (stored, global): (u64, G) = read_decoded(&manifest_path(dir))?;
    if stored != num_workers as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "checkpoint {} was taken with {stored} workers, cannot resume with {num_workers}",
                dir.display(),
            ),
        ));
    }
    Ok(global)
}

/// Validates a whole checkpoint epoch: the manifest must exist and
/// match the expected topology, and every shard and every batch it
/// lists must read back clean. The recovery runner accepts an epoch as
/// last-known-good only after this passes.
pub fn validate<P: Decode, G: Decode>(dir: &Path, num_workers: usize) -> io::Result<()> {
    read_manifest::<G>(dir, num_workers)?;
    for w in 0..num_workers {
        read_shard::<P>(dir, w, None)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gthinker_graph::adj::AdjList;
    use gthinker_graph::ids::VertexId;
    use gthinker_task::task::Task;
    use proptest::prelude::*;
    use std::os::unix::fs::MetadataExt;

    /// A test's own directory, removed on drop.
    struct TempDir(PathBuf);

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

    fn tempdir(tag: &str) -> TempDir {
        let d = std::env::temp_dir().join(format!("gthinker-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        TempDir(d)
    }

    /// A spill manager under `dir` holding `batches` batches of two
    /// tasks each, task `n` pulling vertex `n + 1`.
    fn spilled(dir: &Path, batches: u32) -> SpillManager {
        let spill = SpillManager::new(dir).unwrap();
        let task = |n| {
            let mut t = Task::new(n);
            t.subgraph.add_vertex(VertexId(n), AdjList::from_unsorted(vec![]));
            t.pull(VertexId(n + 1));
            t
        };
        for n in (0..2 * batches).step_by(2) {
            spill.spill(&[task(n), task(n + 1)]).unwrap();
        }
        spill
    }

    /// Writes worker `w`'s shard into `dir/epoch` from [`spilled`].
    fn write_test_shard(dir: &Path, w: usize, batches: u32) -> io::Result<()> {
        let spill = spilled(&dir.join(format!("spill-{w}")), batches);
        write_shard(&dir.join("epoch"), w, &spill, 17, 123u64)?;
        assert!(spill.is_empty(), "the checkpoint pops L_file");
        Ok(())
    }

    /// Resumes worker `w` from `epoch`: [`spilled`]'s batches come back
    /// in order, bytes unchanged.
    fn assert_resumes(epoch: &Path, w: usize, batches: u64) {
        let resumed = SpillManager::new(epoch.with_extension("resumed")).unwrap();
        let back: WorkerShard<u64> = read_shard(epoch, w, Some(&resumed)).unwrap();
        assert_eq!((back.spawn_position, back.batches, back.partial), (17, batches, 123));
        for n in (0..2 * batches as u32).step_by(2) {
            let batch: Vec<Task<u32>> = resumed.refill().unwrap().unwrap();
            assert_eq!(batch.iter().map(|t| t.context).collect::<Vec<_>>(), [n, n + 1]);
            assert_eq!(batch[1].pending_pulls(), &[VertexId(n + 2)]);
        }
        assert!(resumed.is_empty());
    }

    #[test]
    fn shard_round_trip() {
        let dir = tempdir("shard");
        write_test_shard(&dir, 3, 3).unwrap();
        assert_resumes(&dir.join("epoch"), 3, 3);
        // The shard holds no task: its size does not grow with them.
        write_test_shard(&dir, 4, 0).unwrap();
        let size = |w: usize| fs::metadata(dir.join(format!("epoch/worker-000{w}.ckpt")));
        assert_eq!(size(3).unwrap().len(), size(4).unwrap().len());
    }

    #[test]
    fn a_checkpoint_writes_l_files_sealed_batches_in_order() {
        let dir = tempdir("batches");
        let (spill_dir, epoch) = (dir.join("spill"), dir.join("epoch"));
        let spill = spilled(&spill_dir, 3);
        // The three sealed batches, back to back in one segment.
        let segments: Vec<_> =
            fs::read_dir(&spill_dir).unwrap().map(|e| e.unwrap().path()).collect();
        let logged = fs::read(&segments[0]).unwrap();
        write_shard(&epoch, 0, &spill, 17, 123u64).unwrap();
        let written: Vec<Vec<u8>> =
            (0..4).map_while(|k| fs::read(batch_path(&epoch, 0, k)).ok()).collect();
        assert_eq!((segments.len(), written.len()), (1, 3));
        assert_eq!(written.concat(), logged, "the epoch's batches are L_file's bytes, in order");
        assert_eq!(fs::read_dir(&spill_dir).unwrap().count(), 0, "the spill directory ends empty");
        assert_resumes(&epoch, 0, 3);
    }

    #[test]
    fn a_checkpoint_on_another_filesystem_copies_the_spill_files() {
        let shm = Path::new("/dev/shm").join(format!("gthinker-ckpt-xdev-{}", std::process::id()));
        let dev = |p: &Path| fs::metadata(p).map(|m| m.dev()).ok();
        if dev(shm.parent().unwrap()).is_none_or(|d| Some(d) == dev(&std::env::temp_dir())) {
            return eprintln!("skipped: /dev/shm is missing or on the temp dir's device");
        }
        let dir = tempdir("xdev");
        let (epoch, spill) = (dir.join("epoch"), spilled(&shm, 3));
        write_shard(&epoch, 0, &spill, 17, 123u64).unwrap();
        write_manifest(&epoch, 1, 7u64).unwrap();
        assert_eq!(fs::read_dir(&shm).unwrap().count(), 0);
        fs::remove_dir(&shm).unwrap();
        validate::<u64, u64>(&epoch, 1).unwrap();
        assert_resumes(&epoch, 0, 3);
    }

    #[test]
    fn bit_flip_is_detected_as_invalid_data() {
        let dir = tempdir("bitflip");
        write_test_shard(&dir, 0, 0).unwrap();
        let path = dir.join("epoch/worker-0000.ckpt");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, bytes).unwrap();
        let err = read_shard::<u64>(&dir.join("epoch"), 0, None).err().expect("corrupt shard");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("CRC32"), "{err}");
    }

    #[test]
    fn truncation_is_detected_as_invalid_data() {
        let dir = tempdir("truncate");
        write_test_shard(&dir, 0, 0).unwrap();
        let path = dir.join("epoch/worker-0000.ckpt");
        let bytes = std::fs::read(&path).unwrap();
        // Cut the file mid-payload (keeping more than a header's worth
        // of bytes, so the length check has to catch it).
        std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        let err = read_shard::<u64>(&dir.join("epoch"), 0, None).err().expect("corrupt shard");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        // And a file shorter than the header itself.
        std::fs::write(&path, b"abc").unwrap();
        let err = read_shard::<u64>(&dir.join("epoch"), 0, None).err().expect("corrupt shard");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn manifest_round_trip() {
        let dir = tempdir("manifest");
        write_manifest(&dir, 4, 55u64).unwrap();
        assert_eq!(read_manifest::<u64>(&dir, 4).unwrap(), 55);
    }

    #[test]
    fn missing_shard_is_io_error() {
        let dir = tempdir("missing");
        assert!(read_shard::<u64>(&dir, 0, None).is_err());
    }

    #[test]
    fn no_tmp_files_survive_a_write() {
        let dir = tempdir("tmpclean");
        write_test_shard(&dir, 0, 2).unwrap();
        write_manifest(&dir.join("epoch"), 1, 1u64).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(dir.join("epoch"))
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "tmp files must be renamed away: {leftovers:?}");
    }

    #[test]
    fn validate_accepts_complete_epoch_and_rejects_damage() {
        let dir = tempdir("validate");
        let epoch = dir.join("epoch");
        for w in 0..2 {
            write_test_shard(&dir, w, 2).unwrap();
        }
        write_manifest(&epoch, 2, 7u64).unwrap();
        assert!(validate::<u64, u64>(&epoch, 2).is_ok());
        // Wrong topology.
        let err = validate::<u64, u64>(&epoch, 3).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("2 workers"), "{err}");
        // Damage the first payload byte of a shard, then of a task
        // batch: the epoch is no longer acceptable.
        for file in ["worker-0001.ckpt", "worker-0001-000001.tasks"] {
            let path = epoch.join(file);
            let good = std::fs::read(&path).unwrap();
            let mut bytes = good.clone();
            bytes[frame::HEADER_LEN] ^= 0x01;
            std::fs::write(&path, bytes).unwrap();
            let err = validate::<u64, u64>(&epoch, 2).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{file}: {err}");
            assert!(err.to_string().contains("CRC32"), "{file}: {err}");
            std::fs::write(&path, good).unwrap();
        }
        // A batch the shard lists is missing.
        std::fs::remove_file(epoch.join("worker-0000-000000.tasks")).unwrap();
        assert!(validate::<u64, u64>(&epoch, 2).is_err());
    }

    /// An epoch written by a build of wire version 5 (whose task
    /// batches hold per-vertex subgraph lists) is refused file by file.
    #[test]
    fn validate_refuses_an_epoch_of_wire_version_5() {
        let dir = tempdir("v5");
        let epoch = dir.join("epoch");
        write_test_shard(&dir, 0, 2).unwrap();
        write_manifest(&epoch, 1, 7u64).unwrap();
        validate::<u64, u64>(&epoch, 1).unwrap();
        for path in [shard_path(&epoch, 0), manifest_path(&epoch), batch_path(&epoch, 0, 1)] {
            let good = fs::read(&path).unwrap();
            let mut old = good.clone();
            old[4..6].copy_from_slice(&5u16.to_le_bytes());
            fs::write(&path, old).unwrap();
            let err = validate::<u64, u64>(&epoch, 1).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains("peer speaks v5"), "{err}");
            fs::write(&path, good).unwrap();
        }
    }

    #[test]
    fn an_io_error_while_copying_the_batches_leaves_no_shard() {
        let dir = tempdir("ioerr");
        // The second batch cannot be moved: a directory holds its name.
        std::fs::create_dir_all(dir.join("epoch/worker-0000-000001.tasks")).unwrap();
        assert!(write_test_shard(&dir, 0, 3).is_err());
        assert!(!dir.join("epoch/worker-0000.ckpt").exists());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every checkpoint file is one sealed frame: one flipped bit in
        /// the shard, the manifest or a batch, or any cut of the file,
        /// fails `validate` with `InvalidData`.
        #[test]
        fn a_damaged_checkpoint_file_fails_validate(
            nth in 0usize..3, at in any::<u32>(), bit in 0u8..8,
        ) {
            let dir = tempdir("damage");
            let epoch = dir.join("epoch");
            write_test_shard(&dir, 0, 2).unwrap();
            write_manifest(&epoch, 1, 7u64).unwrap();
            let path = &[shard_path(&epoch, 0), manifest_path(&epoch), batch_path(&epoch, 0, 1)][nth];
            let good = fs::read(path).unwrap();
            let mut flipped = good.clone();
            flipped[at as usize % good.len()] ^= 1 << bit;
            for damaged in (0..good.len()).map(|cut| &good[..cut]).chain([&flipped[..]]) {
                fs::write(path, damaged).unwrap();
                let err = validate::<u64, u64>(&epoch, 1).expect_err("damage validates");
                prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{}", err);
            }
        }
    }
}
