//! Property-based tests for task management: codec round-trips,
//! queue/spill conservation, pending-table readiness.

use gthinker_graph::adj::AdjList;
use gthinker_graph::ids::{Label, TaskId, VertexId};
use gthinker_graph::subgraph::Subgraph;
use gthinker_task::codec::{from_bytes, to_bytes, CodecError, Encode};
use gthinker_task::pending::PendingTable;
use gthinker_task::queue::TaskQueue;
use gthinker_task::spill::{seal_batch, SpillManager, SEGMENT_BYTES};
use gthinker_task::task::Task;
use proptest::prelude::*;
use std::collections::VecDeque;
use std::path::PathBuf;

/// The block of `verts`' rows, given in any order, with a label per
/// row when `labeled`.
fn make_block(verts: &[(u32, Vec<u32>)], labeled: bool) -> Subgraph {
    let rows: Vec<(VertexId, AdjList)> = verts
        .iter()
        .map(|(v, nbrs)| (VertexId(*v), nbrs.iter().map(|&x| VertexId(x)).collect()))
        .collect();
    let label = |v: VertexId| labeled.then_some(Label((v.0 % 5) as u16));
    Subgraph::from_rows(rows.iter().map(|(v, adj)| (*v, adj.as_slice(), label(*v))))
}

/// A spill directory of one test case's own, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!(
            "gthinker-prop-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }

    /// The summed sizes of the directory's files, and their count.
    fn usage(&self) -> (u64, usize) {
        let files: Vec<u64> = std::fs::read_dir(&self.0)
            .unwrap()
            .map(|e| e.unwrap().metadata().unwrap().len())
            .collect();
        (files.iter().sum(), files.len())
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Builds an arbitrary task from proptest inputs.
fn make_task(ctx: u32, verts: &[(u32, Vec<u32>)], pulls: &[u32], labeled: bool) -> Task<u32> {
    let mut t = Task::new(ctx);
    t.subgraph = make_block(verts, labeled);
    for &p in pulls {
        t.pull(VertexId(p));
    }
    t
}

/// Up to ten rows in any order, of distinct vertices (the block rejects
/// a repeat).
fn rows() -> impl Strategy<Value = Vec<(u32, Vec<u32>)>> {
    let row = (0u32..1000, proptest::collection::vec(0u32..1000, 0..12));
    proptest::collection::vec(row, 0..10).prop_map(|rows| {
        let mut seen = std::collections::HashSet::new();
        rows.into_iter().filter(|(v, _)| seen.insert(*v)).collect()
    })
}

/// A block's encoding written field by field, so that a test can break
/// any one field: the flag, then each part as a `u32` count and items.
fn raw(ids: &[u32], degrees: &[u32], nbrs: &[u32], labels: Option<&[u16]>) -> Vec<u8> {
    let mut buf = Vec::new();
    labels.is_some().encode(&mut buf);
    for part in [ids, degrees, nbrs] {
        (part.len() as u32).encode(&mut buf);
        part.iter().for_each(|x| x.encode(&mut buf));
    }
    if let Some(labels) = labels {
        (labels.len() as u32).encode(&mut buf);
        labels.iter().for_each(|x| x.encode(&mut buf));
    }
    buf
}

#[test]
fn each_broken_field_of_a_block_is_invalid() {
    let (ids, degrees, nbrs, labels) = ([1, 2, 3], [2, 0, 1], [2, 3, 1], [7u16, 8, 9]);
    let good: Subgraph = from_bytes(&raw(&ids, &degrees, &nbrs, Some(&labels))).unwrap();
    let three = [(1, vec![2, 3]), (2, vec![]), (3, vec![1])];
    let label = |v: u32| Label(6 + v as u16);
    let rows = three.iter().map(|(v, row)| (*v, row.iter().map(|&x| VertexId(x)).collect()));
    let rows: Vec<(u32, Vec<VertexId>)> = rows.collect();
    let want =
        Subgraph::from_rows(rows.iter().map(|(v, r)| (VertexId(*v), &r[..], Some(label(*v)))));
    assert_eq!(good, want);
    // The id count is at byte 1, the row-entry count at byte 33.
    let count_at = |at: usize, count: u32| {
        let mut bytes = raw(&ids, &degrees, &nbrs, None);
        bytes[at..at + 4].copy_from_slice(&count.to_le_bytes());
        bytes
    };
    // Each case, and the rule its decode must name.
    let broken = [
        ("not strictly ascending", raw(&[1, 3, 2], &degrees, &nbrs, None)),
        ("not strictly ascending", raw(&[1, 1, 3], &degrees, &nbrs, None)),
        ("do not end at the last", raw(&ids, &[2, 0, 2], &nbrs, None)),
        ("do not end at the last", raw(&ids, &[1, 0, 1], &nbrs, None)),
        ("degree sum", raw(&ids, &[u32::MAX, 0, 4], &nbrs, None)),
        ("one row end per", raw(&ids, &[2, 1], &nbrs, None)),
        ("row not strictly ascending", raw(&ids, &degrees, &[3, 2, 1], None)),
        ("row not strictly ascending", raw(&ids, &degrees, &[2, 2, 1], None)),
        ("one label per", raw(&ids, &degrees, &nbrs, Some(&[7, 8]))),
        ("one label per", raw(&ids, &degrees, &nbrs, Some(&[7, 8, 9, 9]))),
        ("length past the buffer", count_at(1, 100)),
        ("length past the buffer", count_at(33, u32::MAX)),
    ];
    for (rule, bytes) in broken {
        match from_bytes::<Subgraph>(&bytes) {
            Err(CodecError::Invalid(why)) => assert!(why.contains(rule), "{why}, want {rule}"),
            got => panic!("want Invalid({rule}), got {got:?}"),
        }
    }
}

proptest! {
    #[test]
    fn task_codec_round_trips(
        ctx in any::<u32>(),
        verts in rows(),
        pulls in proptest::collection::vec(0u32..1000, 0..8),
        labeled in any::<bool>(),
    ) {
        let t = make_task(ctx, &verts, &pulls, labeled);
        let back: Task<u32> = from_bytes(&to_bytes(&t)).unwrap();
        prop_assert_eq!(back.context, t.context);
        prop_assert_eq!(back.pending_pulls(), t.pending_pulls());
        prop_assert_eq!(back.subgraph.num_vertices(), t.subgraph.num_vertices());
        prop_assert_eq!(back.subgraph.vertex_ids(), t.subgraph.vertex_ids());
        for &v in t.subgraph.vertex_ids() {
            prop_assert_eq!(back.subgraph.neighbors(v), t.subgraph.neighbors(v));
            prop_assert_eq!(back.subgraph.label(v), t.subgraph.label(v));
        }
        prop_assert_eq!(back.subgraph, t.subgraph);
    }

    /// Decoding arbitrary bytes, as a block or as a task, returns and
    /// never panics.
    #[test]
    fn arbitrary_bytes_never_panic_the_block_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = from_bytes::<Subgraph>(&bytes);
        let _ = from_bytes::<Task<u32>>(&bytes);
    }

    /// A block's encoding with one byte overwritten never panics the
    /// decoder, and what still decodes encodes back to the same bytes.
    #[test]
    fn an_overwritten_byte_never_panics_the_block_decoder(
        verts in rows(), labeled in any::<bool>(), at in any::<u32>(), byte in any::<u8>(),
    ) {
        let mut bytes = to_bytes(&make_block(&verts, labeled));
        let at = at as usize % bytes.len();
        bytes[at] = byte;
        if let Ok(back) = from_bytes::<Subgraph>(&bytes) {
            prop_assert_eq!(to_bytes(&back), bytes);
        }
    }

    /// Every strict prefix of a block's encoding is an error.
    #[test]
    fn every_strict_prefix_of_a_block_is_an_error(verts in rows(), labeled in any::<bool>()) {
        let bytes = to_bytes(&make_block(&verts, labeled));
        for cut in 0..bytes.len() {
            prop_assert!(from_bytes::<Subgraph>(&bytes[..cut]).is_err(), "cut at {}", cut);
        }
    }

    /// Any push/pop interleaving conserves tasks: everything pushed is
    /// eventually popped or spilled exactly once, in FIFO order among
    /// the non-spilled.
    #[test]
    fn queue_conserves_tasks(
        batch in 1usize..8,
        n_push in 0usize..120,
        pop_every in 1usize..10,
    ) {
        let mut q: TaskQueue<u32> = TaskQueue::new(batch);
        let mut spilled: Vec<u32> = Vec::new();
        let mut popped: Vec<u32> = Vec::new();
        for i in 0..n_push as u32 {
            if let Some(b) = q.push(Task::new(i)) {
                prop_assert_eq!(b.len(), batch, "spills are exactly one batch");
                spilled.extend(b.into_iter().map(|t| t.context));
            }
            if (i as usize).is_multiple_of(pop_every) {
                if let Some(t) = q.pop() {
                    popped.push(t.context);
                }
            }
            prop_assert!(q.len() <= q.capacity());
        }
        while let Some(t) = q.pop() {
            popped.push(t.context);
        }
        let mut all: Vec<u32> = spilled.iter().chain(popped.iter()).copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n_push as u32).collect::<Vec<_>>());
        // FIFO among popped.
        prop_assert!(popped.windows(2).all(|w| w[0] < w[1]));
    }

    /// Spill + refill across a random number of batches returns every
    /// task exactly once in FIFO batch order.
    #[test]
    fn spill_manager_round_trips_batches(
        sizes in proptest::collection::vec(1usize..20, 1..8),
    ) {
        let dir = ScratchDir::new("spill");
        let m = SpillManager::new(&dir.0).unwrap();
        let mut next = 0u32;
        let mut expect: Vec<Vec<u32>> = Vec::new();
        for size in &sizes {
            let batch: Vec<Task<u32>> = (0..*size)
                .map(|_| {
                    next += 1;
                    Task::new(next)
                })
                .collect();
            expect.push(batch.iter().map(|t| t.context).collect());
            m.spill(&batch).unwrap();
        }
        prop_assert_eq!(m.num_batches(), sizes.len());
        for want in expect {
            let got: Vec<Task<u32>> = m.refill().unwrap().unwrap();
            prop_assert_eq!(got.into_iter().map(|t| t.context).collect::<Vec<_>>(), want);
        }
        prop_assert!(m.is_empty());
    }

    /// A pending task becomes ready after exactly `req - met`
    /// notifications, never earlier, regardless of interleaving with
    /// other tasks' notifications.
    #[test]
    fn pending_readiness_is_exact(
        tasks in proptest::collection::vec((1u32..6, 0u32..6), 1..20),
    ) {
        let table: PendingTable<u32> = PendingTable::new();
        let mut waiting: Vec<(TaskId, u32)> = Vec::new(); // (id, missing)
        for (i, (req_extra, met)) in tasks.iter().enumerate() {
            let req = met + req_extra; // req > met always
            let id = TaskId::new(0, i as u64);
            let none = table.insert(id, Task::new(i as u32), req, *met);
            prop_assert!(none.is_none());
            waiting.push((id, req - met));
        }
        // Round-robin notifications.
        let mut released = 0usize;
        while !waiting.is_empty() {
            let mut next = Vec::new();
            for (id, missing) in waiting {
                let out = table.notify(id);
                if missing == 1 {
                    prop_assert!(out.is_some(), "final notification releases");
                    released += 1;
                } else {
                    prop_assert!(out.is_none(), "early release!");
                    next.push((id, missing - 1));
                }
            }
            waiting = next;
        }
        prop_assert_eq!(released, tasks.len());
        prop_assert!(table.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A spilled batch is one sealed frame: one flipped bit anywhere in
    /// its segment, or a cut anywhere, makes `refill` refuse it with
    /// `InvalidData`, never a panic and never tasks. So does an
    /// unsealed batch, the spill format before batches were framed.
    #[test]
    fn a_damaged_spill_file_is_refused(
        size in 1usize..6, pos in any::<u32>(), bit in 0u8..8, cut in any::<bool>(),
    ) {
        let dir = ScratchDir::new("damage");
        let m = SpillManager::new(&dir.0).unwrap();
        let batch: Vec<Task<u32>> =
            (0..size as u32).map(|n| make_task(n, &[(n, vec![n + 1])], &[n + 1], false)).collect();
        m.spill(&batch).unwrap();
        let file = std::fs::read_dir(&dir.0).unwrap().next().unwrap().unwrap().path();
        let mut bytes = std::fs::read(&file).unwrap();
        let at = pos as usize % bytes.len();
        if cut {
            bytes.truncate(at);
        } else {
            bytes[at] ^= 1 << bit;
        }
        std::fs::write(&file, bytes).unwrap();
        m.push_sealed(&to_bytes(&batch)).unwrap();
        for what in ["damaged", "unsealed"] {
            let err = m.refill::<u32>().err().unwrap_or_else(|| panic!("a {what} batch refills"));
            prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{}: {}", what, err);
        }
        prop_assert!(m.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random interleavings of the four ways a batch enters or leaves
    /// `L_file`: a spill, a refill, a stolen batch taken in
    /// (`push_sealed`) and a batch shipped to a thief (`pop_sealed`).
    /// Batches come back FIFO, byte-identical; after every step the
    /// spill directory's files hold at most the live bytes plus two
    /// segments, and no file at all while `L_file` is empty.
    #[test]
    fn the_spill_log_is_fifo_and_bounded_on_disk(
        steps in proptest::collection::vec((0u8..4, 1usize..4, 0usize..40_000), 1..40),
    ) {
        let dir = ScratchDir::new("log");
        let m = SpillManager::new(&dir.0).unwrap();
        let mut live: VecDeque<Vec<u8>> = VecDeque::new();
        let mut next = 0u32;
        for (step, tasks, words) in steps {
            // `tasks` tasks of `words` context words each: batches from
            // a few bytes to about 0.45 segments.
            let batch: Vec<Task<Vec<u32>>> = (0..tasks)
                .map(|_| {
                    next += 1;
                    Task::new(vec![next; words])
                })
                .collect();
            match step {
                0 => {
                    m.spill(&batch).unwrap();
                    live.push_back(seal_batch(&batch));
                }
                1 => {
                    let got = m.refill::<Vec<u32>>().unwrap().map(|b| seal_batch(&b));
                    prop_assert_eq!(got, live.pop_front());
                }
                2 => {
                    let stolen = seal_batch(&batch);
                    m.push_sealed(&stolen).unwrap();
                    live.push_back(stolen);
                }
                _ => prop_assert_eq!(m.pop_sealed().unwrap(), live.pop_front()),
            }
            let live_bytes: u64 = live.iter().map(|b| b.len() as u64).sum();
            let (on_disk, files) = dir.usage();
            prop_assert_eq!(m.num_batches(), live.len());
            prop_assert!(
                on_disk <= live_bytes + 2 * SEGMENT_BYTES,
                "{} B on disk for {} live B", on_disk, live_bytes
            );
            prop_assert!(!live.is_empty() || files == 0, "{} files with L_file empty", files);
        }
    }
}
