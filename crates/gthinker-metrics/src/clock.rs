//! Process-wide monotonic clock.
//!
//! Every worker thread of the simulated cluster stamps events and
//! latencies against one shared epoch, so timestamps taken on any
//! thread are directly comparable (and land on one common timeline in
//! a Chrome trace). The epoch is the first call to [`now_nanos`].

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide metrics epoch (first call).
#[inline]
pub fn now_nanos() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::now_nanos;

    #[test]
    fn clock_is_monotone_nondecreasing() {
        let a = now_nanos();
        let b = now_nanos();
        assert!(b >= a);
    }
}
