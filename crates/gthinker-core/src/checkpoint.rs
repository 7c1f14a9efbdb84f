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
//! continues to completion. Unit and integration tests verify that
//! suspend + resume produces exactly the results of an uninterrupted
//! run.
//!
//! Files are **atomic and self-validating**: each is written to a
//! `*.tmp` sibling, fsynced, then renamed into place, and carries a
//! trailer of `crc32(payload) ‖ payload length`. A crash mid-write
//! leaves at worst a `*.tmp` orphan; a truncated or bit-flipped file
//! fails its read with a clean [`io::ErrorKind::InvalidData`] instead
//! of decoding garbage, which is what lets the recovery runner probe
//! for the last-known-good epoch.

use gthinker_graph::crc::crc32;
use gthinker_task::codec::{from_bytes, to_bytes, CodecError, Decode, Encode};
use gthinker_task::task::Task;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// One worker's checkpoint shard.
pub struct WorkerShard<C, P> {
    /// Spawn-pointer position in `T_local` load order.
    pub spawn_position: u64,
    /// Every in-memory and spilled task of this worker at suspension
    /// (queued + buffered + pending + spill files), pulls included —
    /// they re-request on resume.
    pub tasks: Vec<Task<C>>,
    /// The worker's unsynchronized aggregator partial.
    pub partial: P,
}

impl<C: Encode, P: Encode> Encode for WorkerShard<C, P> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.spawn_position.encode(buf);
        self.tasks.encode(buf);
        self.partial.encode(buf);
    }
}

impl<C: Decode, P: Decode> Decode for WorkerShard<C, P> {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(WorkerShard {
            spawn_position: u64::decode(buf)?,
            tasks: Vec::decode(buf)?,
            partial: P::decode(buf)?,
        })
    }
}

/// The master manifest: global aggregate + topology guard.
pub struct Manifest<G> {
    /// Worker count the checkpoint was taken with (resume must match).
    pub num_workers: u64,
    /// The master's merged global aggregate at suspension.
    pub global: G,
}

impl<G: Encode> Encode for Manifest<G> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.num_workers.encode(buf);
        self.global.encode(buf);
    }
}

impl<G: Decode> Decode for Manifest<G> {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(Manifest { num_workers: u64::decode(buf)?, global: G::decode(buf)? })
    }
}

fn shard_path(dir: &Path, worker: usize) -> PathBuf {
    dir.join(format!("worker-{worker:04}.ckpt"))
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

/// Writes one worker's shard atomically with a CRC trailer.
pub fn write_shard<C: Encode, P: Encode>(
    dir: &Path,
    worker: usize,
    shard: &WorkerShard<C, P>,
) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    write_atomic(&shard_path(dir, worker), &to_bytes(shard))
}

/// Reads one worker's shard; truncation/corruption is `InvalidData`.
pub fn read_shard<C: Decode, P: Decode>(
    dir: &Path,
    worker: usize,
) -> io::Result<WorkerShard<C, P>> {
    let bytes = read_validated(&shard_path(dir, worker))?;
    from_bytes(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Writes the master manifest atomically with a CRC trailer.
pub fn write_manifest<G: Encode>(dir: &Path, manifest: &Manifest<G>) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    write_atomic(&manifest_path(dir), &to_bytes(manifest))
}

/// Reads the master manifest; truncation/corruption is `InvalidData`.
pub fn read_manifest<G: Decode>(dir: &Path) -> io::Result<Manifest<G>> {
    let bytes = read_validated(&manifest_path(dir))?;
    from_bytes(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Validates a whole checkpoint epoch: the manifest must exist, match
/// the expected topology, and every shard must read back clean. The
/// recovery runner accepts an epoch as last-known-good only after this
/// passes.
pub fn validate<C: Decode, P: Decode, G: Decode>(dir: &Path, num_workers: usize) -> io::Result<()> {
    let manifest: Manifest<G> = read_manifest(dir)?;
    if manifest.num_workers as usize != num_workers {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "checkpoint {} was taken with {} workers, expected {num_workers}",
                dir.display(),
                manifest.num_workers
            ),
        ));
    }
    for w in 0..num_workers {
        read_shard::<C, P>(dir, w)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gthinker_graph::adj::AdjList;
    use gthinker_graph::ids::VertexId;

    fn tempdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gthinker-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn shard_round_trip() {
        let dir = tempdir("shard");
        let mut t: Task<u32> = Task::new(9);
        t.subgraph.add_vertex(VertexId(1), AdjList::from_unsorted(vec![VertexId(2)]));
        t.pull(VertexId(2));
        let shard = WorkerShard { spawn_position: 17, tasks: vec![t], partial: 123u64 };
        write_shard(&dir, 3, &shard).unwrap();
        let back: WorkerShard<u32, u64> = read_shard(&dir, 3).unwrap();
        assert_eq!(back.spawn_position, 17);
        assert_eq!(back.partial, 123);
        assert_eq!(back.tasks.len(), 1);
        assert_eq!(back.tasks[0].pending_pulls(), &[VertexId(2)]);
    }

    #[test]
    fn manifest_round_trip() {
        let dir = tempdir("manifest");
        write_manifest(&dir, &Manifest { num_workers: 4, global: 55u64 }).unwrap();
        let m: Manifest<u64> = read_manifest(&dir).unwrap();
        assert_eq!(m.num_workers, 4);
        assert_eq!(m.global, 55);
    }

    #[test]
    fn missing_shard_is_io_error() {
        let dir = tempdir("missing");
        assert!(read_shard::<u32, u64>(&dir, 0).is_err());
    }

    fn write_test_shard(dir: &Path) {
        let shard =
            WorkerShard { spawn_position: 5, tasks: Vec::<Task<u32>>::new(), partial: 9u64 };
        write_shard(dir, 0, &shard).unwrap();
    }

    #[test]
    fn bit_flip_is_detected_as_invalid_data() {
        let dir = tempdir("bitflip");
        write_test_shard(&dir);
        let path = dir.join("worker-0000.ckpt");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, bytes).unwrap();
        let err = read_shard::<u32, u64>(&dir, 0).err().expect("corrupt shard must not decode");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("CRC32"), "{err}");
    }

    #[test]
    fn truncation_is_detected_as_invalid_data() {
        let dir = tempdir("truncate");
        write_test_shard(&dir);
        let path = dir.join("worker-0000.ckpt");
        let bytes = std::fs::read(&path).unwrap();
        // Cut the file mid-payload (keeping more than a trailer's worth
        // of bytes, so the length check has to catch it).
        std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        let err = read_shard::<u32, u64>(&dir, 0).err().expect("corrupt shard must not decode");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        // And a file shorter than the trailer itself.
        std::fs::write(&path, b"abc").unwrap();
        let err = read_shard::<u32, u64>(&dir, 0).err().expect("corrupt shard must not decode");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn no_tmp_files_survive_a_write() {
        let dir = tempdir("tmpclean");
        write_test_shard(&dir);
        write_manifest(&dir, &Manifest { num_workers: 1, global: 1u64 }).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "tmp files must be renamed away: {leftovers:?}");
    }

    #[test]
    fn validate_accepts_complete_epoch_and_rejects_damage() {
        let dir = tempdir("validate");
        for w in 0..2 {
            let shard = WorkerShard {
                spawn_position: w as u64,
                tasks: Vec::<Task<u32>>::new(),
                partial: 0u64,
            };
            write_shard(&dir, w, &shard).unwrap();
        }
        write_manifest(&dir, &Manifest { num_workers: 2, global: 7u64 }).unwrap();
        assert!(validate::<u32, u64, u64>(&dir, 2).is_ok());
        // Wrong topology.
        let err = validate::<u32, u64, u64>(&dir, 3).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // Damage one shard: the epoch is no longer acceptable.
        let path = dir.join("worker-0001.ckpt");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();
        assert!(validate::<u32, u64, u64>(&dir, 2).is_err());
    }
}
