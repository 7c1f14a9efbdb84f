//! One workload being measured. Both ways into the driver walk the same
//! steps — set-up, reference answer, untraced jobs, traced jobs,
//! per-layer metrics — and all of them are here; the time-boxed run and
//! the suite differ only in when they stop asking for another job.

use crate::spans::Recorder;
use crate::stats;
use crate::workloads::{self, Ctx, Inputs, Rep, Workload};
use std::io;

/// The end-to-end samples of one workload.
pub struct Samples {
    pub reps: Vec<Rep>,
    pub setup_s: Vec<f64>,
}

impl Samples {
    pub fn failed(&self) -> usize {
        self.reps.iter().filter(|r| r.failure.is_some()).count()
    }

    /// One value per repetition that passed (per set-up for `setup_s`).
    /// When nothing passed, the failed repetitions' values stand in so
    /// the report still has numbers next to its `correct: false`.
    pub fn values(&self, metric: &str) -> Vec<f64> {
        if metric == "setup_s" {
            return self.setup_s.clone();
        }
        let all_failed = self.failed() == self.reps.len();
        self.reps
            .iter()
            .filter(|r| all_failed || r.failure.is_none())
            .map(|r| match metric {
                "wall_s" => r.wall_s,
                "cpu_s" => r.cpu_s,
                "peak_rss_mb" => r.peak_rss_mb,
                other => unreachable!("no end-to-end metric named {other}"),
            })
            .collect()
    }

    pub fn median(&self, metric: &str) -> Option<f64> {
        stats::median(&self.values(metric))
    }
}

pub struct Measured {
    pub w: &'static Workload,
    pub inputs: Inputs,
    /// The answer every job must give.
    pub expected: u64,
    /// Set-up times and the jobs the end-to-end metrics come from.
    pub untraced: Samples,
    /// Jobs run with `--metrics-json` and spans, for the per-layer metrics.
    pub traced: Vec<Rep>,
}

impl Measured {
    /// Sets the workload up `setups` times — more while set-up is so
    /// cheap that a few samples would mostly measure process start-up
    /// jitter — keeps the last set of files, and finds the reference
    /// answer.
    pub fn prepare(
        ctx: &Ctx,
        w: &'static Workload,
        setups: usize,
        rec: &mut Recorder,
    ) -> io::Result<Measured> {
        let dir = ctx.work.join(format!("inputs-{}", w.name));
        let mut setup_s = Vec::new();
        let inputs = loop {
            let span = rec.begin("setup", None);
            let done = workloads::setup(ctx, w, &dir, rec, Some(span));
            rec.end(span);
            let (inputs, took) = done?;
            setup_s.push(took);
            let cheap = setups > 1 && setup_s.iter().sum::<f64>() < 2.0 && setup_s.len() < 15;
            if setup_s.len() >= setups && !cheap {
                break inputs;
            }
        };
        let expected = workloads::reference(ctx, w, &inputs, rec, None)?;
        eprintln!("{}: set up {} time(s), expecting {expected}", w.name, setup_s.len());
        Ok(Measured {
            w,
            inputs,
            expected,
            untraced: Samples { reps: Vec::new(), setup_s },
            traced: Vec::new(),
        })
    }

    /// The same files, answer and set-up times with no job run yet: the
    /// start of a second set of runs.
    pub fn again(&self) -> Measured {
        Measured {
            w: self.w,
            inputs: self.inputs.clone(),
            expected: self.expected,
            untraced: Samples { reps: Vec::new(), setup_s: self.untraced.setup_s.clone() },
            traced: Vec::new(),
        }
    }

    /// Runs one more job and files it under the traced or the untraced
    /// ones.
    pub fn job(&mut self, ctx: &Ctx, traced: bool, rec: &mut Recorder) -> io::Result<()> {
        let rep = workloads::run_rep(ctx, self.w, &self.inputs, self.expected, traced, rec, None)?;
        let jobs = if traced { &mut self.traced } else { &mut self.untraced.reps };
        if let Some(why) = &rep.failure {
            eprintln!("{}: job {} failed: {why}", self.w.name, jobs.len());
        }
        jobs.push(rep);
        Ok(())
    }

    /// Every job run so far, untraced ones first.
    pub fn jobs(&self) -> impl Iterator<Item = &Rep> {
        self.untraced.reps.iter().chain(&self.traced)
    }

    pub fn failed(&self) -> usize {
        self.jobs().filter(|r| r.failure.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_repetitions_stay_out_of_the_medians() {
        let rep = |wall_s: f64, failure: Option<&str>| Rep {
            wall_s,
            cpu_s: 2.0 * wall_s,
            peak_rss_mb: 10.0,
            master_wall_s: wall_s,
            failure: failure.map(String::from),
            metrics: None,
        };
        let mut s = Samples {
            reps: vec![rep(1.0, None), rep(60.0, Some("timed out")), rep(3.0, None)],
            setup_s: vec![0.5],
        };
        assert_eq!(s.failed(), 1);
        assert_eq!(s.median("wall_s"), Some(2.0));
        assert_eq!(s.median("cpu_s"), Some(4.0));
        assert_eq!(s.median("setup_s"), Some(0.5));
        s.reps.retain(|r| r.failure.is_some());
        assert_eq!(s.median("wall_s"), Some(60.0));
    }
}
