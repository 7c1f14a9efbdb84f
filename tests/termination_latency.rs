//! Job-end latency regression guard. Termination used to be decided by
//! counting three consecutive all-idle 20 ms progress rounds, which put
//! a fixed ~90 ms under every job however little work it had. It is now
//! event-driven (DESIGN.md §7): the idle report leaves on the
//! quiescence edge and one probe round trip confirms it. This file
//! holds one test in its own binary, so nothing else in the suite
//! competes for the cores while it is timed.

use gthinker_apps::serial::triangle::count_triangles;
use gthinker_apps::TriangleApp;
use gthinker_core::prelude::*;
use gthinker_graph::gen;
use std::sync::Arc;
use std::time::Duration;

/// A 2-worker sim job with a few milliseconds of work must finish in
/// well under one old floor; if a tick-wait creeps back into the
/// termination path, the median lands at a multiple of 20 ms.
#[test]
fn tiny_job_finishes_well_under_the_old_polling_floor() {
    let g = gen::gnp(300, 0.06, 7);
    let expected = count_triangles(&g);
    let cfg = JobConfig::cluster(2, 2);
    let mut elapsed: Vec<Duration> = (0..20)
        .map(|_| {
            let r = run_job(Arc::new(TriangleApp), &g, &cfg).unwrap();
            assert_eq!(r.global, expected);
            r.elapsed
        })
        .collect();
    elapsed.sort();
    let median = elapsed[elapsed.len() / 2];
    assert!(
        median < Duration::from_millis(40),
        "median job time {median:?} of 20 tiny jobs (all: {elapsed:?}); \
         the old 3 x 20 ms polled termination cost ~90 ms"
    );
}
