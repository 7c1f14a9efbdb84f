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
//! count and the aggregator partial; the batches are the worker's spill
//! files, which [`write_shard`] copies out of `L_file` one at a time,
//! bytes unchanged, and [`read_shard`] hands back. No task is decoded.
//!
//! Files are **atomic and self-validating**: each is written to a
//! `*.tmp` sibling, fsynced, then renamed into place, and carries a
//! trailer of `crc32(payload) ‖ payload length`. A crash mid-write
//! leaves at worst a `*.tmp` orphan; a truncated or bit-flipped file
//! fails its read with a clean [`io::ErrorKind::InvalidData`] instead
//! of decoding garbage, which is what lets the recovery runner probe
//! for the last-known-good epoch. The shard is written last, so an
//! I/O error while copying the batches leaves no shard and the epoch
//! fails [`validate`].

use gthinker_graph::crc::crc32;
use gthinker_task::codec::{from_bytes, to_bytes, Decode, Encode};
use gthinker_task::spill::SpillManager;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// One worker's checkpoint shard, encoded as the tuple of its fields.
pub struct WorkerShard<P> {
    /// Spawn-pointer position in `T_local` load order.
    pub spawn_position: u64,
    /// Task batches copied next to the shard, `worker-WWWW-KKKKKK.tasks`
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

/// Trailer: `crc32(payload)` (4 bytes LE) + payload length (8 bytes LE).
const TRAILER_LEN: usize = 12;

/// Writes `payload ‖ crc32 ‖ len` to `path.tmp`, fsyncs, and renames
/// into place so readers only ever see a complete file or none.
fn write_atomic(path: &Path, payload: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(payload)?;
        f.write_all(&crc32(payload).to_le_bytes())?;
        f.write_all(&(payload.len() as u64).to_le_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Reads a file written by [`write_atomic`], validating the length and
/// CRC trailer; truncation or corruption is a clean `InvalidData`.
fn read_validated(path: &Path) -> io::Result<Vec<u8>> {
    let mut bytes = std::fs::read(path)?;
    let corrupt = |what: &str| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("checkpoint file {} is corrupt: {what}", path.display()),
        )
    };
    if bytes.len() < TRAILER_LEN {
        return Err(corrupt("shorter than its trailer"));
    }
    let payload_end = bytes.len() - TRAILER_LEN;
    let stored_len =
        u64::from_le_bytes(bytes[payload_end + 4..].try_into().expect("8 trailer bytes"));
    if stored_len != payload_end as u64 {
        return Err(corrupt("length trailer mismatch (truncated?)"));
    }
    let stored_crc =
        u32::from_le_bytes(bytes[payload_end..payload_end + 4].try_into().expect("4 crc bytes"));
    if crc32(&bytes[..payload_end]) != stored_crc {
        return Err(corrupt("CRC32 mismatch"));
    }
    bytes.truncate(payload_end);
    Ok(bytes)
}

/// Reads and decodes a file written by [`write_atomic`].
fn read_decoded<T: Decode>(path: &Path) -> io::Result<T> {
    from_bytes(&read_validated(path)?)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Writes one worker's checkpoint: pops `spill`'s `L_file` one batch at
/// a time into the epoch, each batch's bytes unchanged, then the shard.
/// The first I/O error stops it before the shard is written.
pub fn write_shard<P: Encode>(
    dir: &Path,
    worker: usize,
    spill: &SpillManager,
    spawn_position: u64,
    partial: P,
) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut batches = 0;
    while let Some(bytes) = spill.pop_file_bytes()? {
        write_atomic(&batch_path(dir, worker, batches), &bytes)?;
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
        let bytes = read_validated(&batch_path(dir, worker, k))?;
        if let Some(spill) = spill {
            spill.push_file_bytes(bytes)?;
        }
    }
    Ok(WorkerShard { spawn_position, batches, partial })
}

/// Writes the master manifest — the worker count the checkpoint was
/// taken with and the master's merged global aggregate — atomically
/// with a CRC trailer.
pub fn write_manifest<G: Encode>(dir: &Path, num_workers: usize, global: G) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
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

    fn tempdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gthinker-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// Writes worker `w`'s shard into `dir/epoch` from a spill manager
    /// holding `batches` batches of two tasks each, task `n` pulling
    /// vertex `n + 1`.
    fn write_test_shard(dir: &Path, w: usize, batches: u32) -> io::Result<()> {
        let spill = SpillManager::new(dir.join(format!("spill-{w}"))).unwrap();
        for n in (0..2 * batches).step_by(2) {
            let tasks: Vec<Task<u32>> = (n..n + 2)
                .map(|n| {
                    let mut t = Task::new(n);
                    t.subgraph.add_vertex(VertexId(n), AdjList::from_unsorted(vec![]));
                    t.pull(VertexId(n + 1));
                    t
                })
                .collect();
            spill.spill(&tasks).unwrap();
        }
        write_shard(&dir.join("epoch"), w, &spill, 17, 123u64)?;
        assert!(spill.is_empty(), "the checkpoint pops L_file");
        Ok(())
    }

    #[test]
    fn shard_round_trip() {
        let dir = tempdir("shard");
        write_test_shard(&dir, 3, 3).unwrap();
        let resumed = SpillManager::new(dir.join("resumed")).unwrap();
        let back: WorkerShard<u64> = read_shard(&dir.join("epoch"), 3, Some(&resumed)).unwrap();
        assert_eq!((back.spawn_position, back.batches, back.partial), (17, 3, 123));
        // The batches come back in order, bytes unchanged.
        for n in (0..6).step_by(2) {
            let batch: Vec<Task<u32>> = resumed.refill().unwrap().unwrap();
            assert_eq!(batch.iter().map(|t| t.context).collect::<Vec<_>>(), [n, n + 1]);
            assert_eq!(batch[1].pending_pulls(), &[VertexId(n + 2)]);
        }
        assert!(resumed.is_empty());
        // The shard holds no task: its size does not grow with them.
        write_test_shard(&dir, 4, 0).unwrap();
        let size = |w: usize| std::fs::metadata(dir.join(format!("epoch/worker-000{w}.ckpt")));
        assert_eq!(size(3).unwrap().len(), size(4).unwrap().len());
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
        // Cut the file mid-payload (keeping more than a trailer's worth
        // of bytes, so the length check has to catch it).
        std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        let err = read_shard::<u64>(&dir.join("epoch"), 0, None).err().expect("corrupt shard");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        // And a file shorter than the trailer itself.
        std::fs::write(&path, b"abc").unwrap();
        let err = read_shard::<u64>(&dir.join("epoch"), 0, None).err().expect("corrupt shard");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
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
        // Damage one byte of a shard, then of a task batch: the epoch
        // is no longer acceptable.
        for file in ["worker-0001.ckpt", "worker-0001-000001.tasks"] {
            let path = epoch.join(file);
            let good = std::fs::read(&path).unwrap();
            let mut bytes = good.clone();
            bytes[0] ^= 0x01;
            std::fs::write(&path, bytes).unwrap();
            let err = validate::<u64, u64>(&epoch, 2).unwrap_err();
            assert!(err.to_string().contains("CRC32"), "{file}: {err}");
            std::fs::write(&path, good).unwrap();
        }
        // A batch the shard lists is missing.
        std::fs::remove_file(epoch.join("worker-0000-000000.tasks")).unwrap();
        assert!(validate::<u64, u64>(&epoch, 2).is_err());
    }

    #[test]
    fn an_io_error_while_copying_the_batches_leaves_no_shard() {
        let dir = tempdir("ioerr");
        // The second batch's temporary file cannot be created.
        std::fs::create_dir_all(dir.join("epoch/worker-0000-000001.tmp")).unwrap();
        assert!(write_test_shard(&dir, 0, 3).is_err());
        assert!(!dir.join("epoch/worker-0000.ckpt").exists());
    }
}
