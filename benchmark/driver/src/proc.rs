//! Running the program under test as OS processes.
//!
//! The driver's main thread only spawns children and reaps them with
//! `wait4`, which hands back each child's CPU time and peak resident
//! set. The one other thread is a watchdog that sleeps on a condition
//! variable for the whole job and kills the children if the job
//! outlives its timeout.

use crate::spans::{Recorder, SpanId};
use std::net::TcpListener;
use std::process::Command;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs, of
/// which only `ru_maxrss` (KiB) is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;

/// What one process of a job cost.
#[derive(Clone, Debug)]
pub struct ProcOutcome {
    pub pid: u32,
    /// Exited by itself with status 0.
    pub ok: bool,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub max_rss_mb: f64,
}

/// What one job (all its processes) cost.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// First spawn to last process reaped.
    pub wall_s: f64,
    pub timed_out: bool,
    pub procs: Vec<ProcOutcome>,
}

impl JobOutcome {
    pub fn cpu_s(&self) -> f64 {
        self.procs.iter().map(|p| p.cpu_s).sum()
    }

    pub fn peak_rss_mb(&self) -> f64 {
        self.procs.iter().map(|p| p.max_rss_mb).fold(0.0, f64::max)
    }

    pub fn all_ok(&self) -> bool {
        !self.timed_out && self.procs.iter().all(|p| p.ok)
    }
}

/// Children still running, shared with the watchdog. A pid leaves the
/// list as soon as it is reaped, so the watchdog never signals a pid
/// the kernel may have handed to someone else.
struct Live {
    pids: Vec<i32>,
    timed_out: bool,
}

/// Spawns `commands` in order, waits for all of them, and kills what is
/// left when `timeout` passes. Spans `proc.spawn`, `proc.run` and
/// `proc.exit` (reaped → job end: how long this process's exit waited
/// for the job's last one) go under `parent`, one trace row per pid.
pub fn run_job(
    commands: Vec<Command>,
    timeout: Duration,
    rec: &mut Recorder,
    parent: Option<SpanId>,
) -> std::io::Result<JobOutcome> {
    let start = Instant::now();
    let mut spawned: Vec<(i32, Instant)> = Vec::with_capacity(commands.len());
    let live = Mutex::new(Live { pids: Vec::new(), timed_out: false });
    let wake = Condvar::new();

    let mut spawn_error = None;
    for mut cmd in commands {
        let before = Instant::now();
        match cmd.spawn() {
            // Dropping the `Child` neither kills nor reaps it; `wait4`
            // below does the reaping.
            Ok(child) => {
                let pid = child.id() as i32;
                let after = Instant::now();
                rec.add("proc.spawn", parent, rec.us_at(before), rec.us_at(after), pid as u32);
                spawned.push((pid, after));
                live.lock().expect("watchdog never panics").pids.push(pid);
            }
            Err(e) => {
                spawn_error = Some(e);
                break;
            }
        }
    }
    if spawn_error.is_some() {
        // Half a cluster would wait for its peers until the timeout.
        kill_all(&live.lock().expect("watchdog never panics").pids);
    }

    let mut reaped: Vec<(ProcOutcome, Instant)> = Vec::with_capacity(spawned.len());
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let guard = live.lock().expect("main thread never panics holding it");
            let (mut guard, _) = wake
                .wait_timeout_while(guard, timeout.saturating_sub(start.elapsed()), |l| {
                    !l.pids.is_empty()
                })
                .expect("main thread never panics holding it");
            if !guard.pids.is_empty() {
                guard.timed_out = true;
                kill_all(&guard.pids);
            }
        });

        while reaped.len() < spawned.len() {
            let mut status = 0i32;
            let mut ru = Rusage::default();
            // SAFETY: `status` and `ru` are valid for writes for the
            // whole call and `Rusage` has the layout of the kernel's
            // `struct rusage` on 64-bit Linux; -1 waits for any child.
            let pid = unsafe { wait4(-1, &mut status, 0, &mut ru) };
            let at = Instant::now();
            {
                let mut running = live.lock().expect("watchdog never panics");
                if pid <= 0 {
                    running.pids.clear(); // ECHILD: nothing left to reap
                    break;
                }
                running.pids.retain(|&p| p != pid);
            }
            let Some(&(_, since)) = spawned.iter().find(|(p, _)| *p == pid) else {
                continue; // not one of this job's children
            };
            let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
            reaped.push((
                ProcOutcome {
                    pid: pid as u32,
                    ok: status == 0,
                    wall_s: at.duration_since(since).as_secs_f64(),
                    cpu_s: secs(&ru.utime) + secs(&ru.stime),
                    max_rss_mb: ru.maxrss as f64 / 1024.0,
                },
                at,
            ));
            rec.add("proc.run", parent, rec.us_at(since), rec.us_at(at), pid as u32);
        }
        wake.notify_all();
    });

    let end = Instant::now();
    for (p, at) in &reaped {
        rec.add("proc.exit", parent, rec.us_at(*at), rec.us_at(end), p.pid);
    }
    if let Some(e) = spawn_error {
        return Err(e);
    }
    // Report processes in spawn order (the master first).
    let mut procs: Vec<ProcOutcome> = reaped.into_iter().map(|(p, _)| p).collect();
    procs.sort_by_key(|p| spawned.iter().position(|(pid, _)| *pid as u32 == p.pid));
    let timed_out = live.into_inner().expect("both threads are done").timed_out;
    Ok(JobOutcome { wall_s: end.duration_since(start).as_secs_f64(), timed_out, procs })
}

fn kill_all(pids: &[i32]) {
    for &pid in pids {
        // SAFETY: `kill` takes plain integers; `pid` is a child of this
        // process that has not been reaped yet, so it still names it.
        unsafe { kill(pid, SIGKILL) };
    }
}

/// Reserves `n` loopback ports: binds them all at port 0, notes what
/// the kernel chose, and releases them for the job to bind.
pub fn reserve_ports(n: usize) -> std::io::Result<Vec<u16>> {
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind(("127.0.0.1", 0))).collect::<Result<_, _>>()?;
    listeners.iter().map(|l| l.local_addr().map(|a| a.port())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `wait4(-1)` reaps any child of the test process, so tests that
    /// spawn children take turns.
    static ONE_JOB_AT_A_TIME: Mutex<()> = Mutex::new(());

    fn sh(script: &str) -> Command {
        let mut c = Command::new("sh");
        c.args(["-c", script]);
        c
    }

    #[test]
    fn reaps_every_process_and_reports_failures() {
        let _turn = ONE_JOB_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
        let mut rec = Recorder::new(true);
        let job =
            run_job(vec![sh("exit 0"), sh("exit 3")], Duration::from_secs(20), &mut rec, None)
                .unwrap();
        assert_eq!(job.procs.len(), 2);
        assert!(job.procs[0].ok && !job.procs[1].ok);
        assert!(!job.timed_out && !job.all_ok());
        assert!(job.peak_rss_mb() > 0.0);
        let names: Vec<String> = rec
            .chrome_trace()
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .iter()
            .map(|e| e.get("name").unwrap().render())
            .collect();
        for want in ["\"proc.spawn\"", "\"proc.run\"", "\"proc.exit\""] {
            assert_eq!(names.iter().filter(|n| *n == want).count(), 2, "{want}");
        }
    }

    #[test]
    fn kills_stragglers_at_the_timeout() {
        let _turn = ONE_JOB_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
        let mut rec = Recorder::new(false);
        let t = Instant::now();
        let job =
            run_job(vec![sh("sleep 30")], Duration::from_millis(200), &mut rec, None).unwrap();
        assert!(job.timed_out && !job.all_ok());
        assert!(t.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn reserved_ports_are_distinct_and_free() {
        // A child another test forks holds a copy of the listeners until
        // it execs, which would keep the ports busy.
        let _turn = ONE_JOB_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
        let ports = reserve_ports(2).unwrap();
        assert_ne!(ports[0], ports[1]);
        TcpListener::bind(("127.0.0.1", ports[0])).unwrap();
    }
}
