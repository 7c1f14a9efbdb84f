//! Helpers shared by the cross-crate integration tests under `tests/`.

use gthinker_core::{ClusterRole, JobResult};
use std::thread::JoinHandle;

/// Joins every process of a loopback TCP cluster (one thread each,
/// worker 0 first) and hands back the master's result, which covers
/// the whole cluster.
pub fn join_cluster<G>(handles: Vec<JoinHandle<ClusterRole<G>>>) -> JobResult<G> {
    let roles: Vec<_> = handles.into_iter().map(|h| h.join().expect("worker thread")).collect();
    match roles.into_iter().next() {
        Some(ClusterRole::Master(r)) => r,
        _ => panic!("worker 0 is the master"),
    }
}
