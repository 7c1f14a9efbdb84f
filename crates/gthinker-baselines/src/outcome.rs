//! Common result type for baseline engine runs.

use std::time::Duration;

/// What happened when a baseline engine ran a workload.
#[derive(Clone, Debug)]
pub struct RunOutcome<T> {
    /// The computed answer, when the run completed.
    pub result: Option<T>,
    /// Wall-clock runtime (up to the abort point for DNFs).
    pub elapsed: Duration,
    /// Peak bytes of the engine's dominant data structure (message
    /// buffers, embedding levels, disk queue, join intermediates...).
    pub peak_bytes: u64,
    /// Why the run ended.
    pub status: RunStatus,
}

/// Completion status of a baseline run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// Ran to completion.
    Completed,
    /// Aborted: the engine exceeded its memory budget (the paper
    /// reports such entries as out-of-memory failures).
    MemoryBudgetExceeded,
    /// Aborted: exceeded the disk budget (the paper: "RStream used up
    /// all our disk space").
    DiskBudgetExceeded,
    /// Aborted: exceeded the time budget (the paper: "> 24 hr").
    TimeBudgetExceeded,
}

impl<T> RunOutcome<T> {
    /// True when the engine produced an answer.
    pub fn completed(&self) -> bool {
        self.status == RunStatus::Completed
    }

    /// The same outcome with its answer mapped through `f`.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> RunOutcome<U> {
        let RunOutcome { result, elapsed, peak_bytes, status } = self;
        RunOutcome { result: result.map(f), elapsed, peak_bytes, status }
    }

    /// Formats the status the way the paper's tables do.
    pub fn status_label(&self) -> &'static str {
        match self.status {
            RunStatus::Completed => "ok",
            RunStatus::MemoryBudgetExceeded => "OOM",
            RunStatus::DiskBudgetExceeded => "out-of-disk",
            RunStatus::TimeBudgetExceeded => "timeout",
        }
    }
}
