//! Task management for G-thinker — the second pillar of CPU-bound
//! execution (§V-B of the paper).
//!
//! Each comper thread owns three task containers:
//!
//! * [`TaskQueue`] (`Q_task`) — a bounded deque (capacity `3C`) the
//!   comper pops work from; overflow spills the newest `C` tasks as
//!   one batch.
//! * [`PendingTable`] (`T_task`) — tasks suspended while waiting for
//!   pulled vertices, keyed by 64-bit task IDs.
//! * [`TaskBuffer`] (`B_task`) — a concurrent queue the response
//!   receiver moves newly-ready tasks into.
//!
//! The worker-wide [`SpillManager`] keeps the spilled batches
//! (`L_file`, records in a log of segment files) shared by all compers and by the work stealer. Everything
//! that crosses a thread, disk or (simulated) machine boundary uses the
//! hand-rolled binary [`codec`].
//!
//! For the tail-latency scheduler, `Q_task` is shared as a
//! [`SharedTaskQueue`] so idle sibling compers can steal the newest
//! half, and idle threads park on a per-worker [`EventCount`] instead
//! of sleep-polling.

pub mod buffer;
pub mod codec;
pub mod frame;
pub mod park;
pub mod pending;
pub mod queue;
pub mod spill;
pub mod task;

pub use buffer::TaskBuffer;
pub use codec::{CodecError, Decode, Encode};
pub use park::EventCount;
pub use pending::PendingTable;
pub use queue::{SharedTaskQueue, TaskQueue, DEFAULT_BATCH};
pub use spill::SpillManager;
pub use task::{Frontier, Task};
