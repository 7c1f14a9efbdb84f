//! Distributed termination detection as a pure state machine.
//!
//! The master feeds every observation that can change the verdict into
//! [`Termination::step`] and carries out the [`Action`] it returns; no
//! clock, thread or socket is involved, so the unit tests below walk
//! every interleaving of a small cluster instead of sampling a few.
//!
//! The protocol has two phases:
//!
//! 1. **Reports.** A worker reports `idle` together with its *activity
//!    epoch*, a counter it bumps on every idle → busy transition and
//!    reads just before evaluating its quiescence predicate.
//! 2. **One confirmation wave.** Once the latest report of every worker
//!    says idle and no steal plan is open, the master broadcasts
//!    `Probe { round }`. Each worker re-evaluates its predicate, then
//!    reads its epoch, and acks both. The wave succeeds when every ack
//!    says idle *with the epoch of the report it confirms*.
//!
//! **Why one wave is enough.** Let `P` be the instant the probe left.
//! Worker `w`'s report was evaluated at some `t1 < P` (the master had
//! already received it) and its ack at some `t2 > P` (it answers the
//! probe). The epoch did not move between the two reads that bracket
//! `[t1, t2]`, so `w` was quiescent on the whole interval and in
//! particular at `P`. All workers quiescent at one instant with no plan
//! open is a stable state, because every message that could create work
//! is owned by a non-quiescent worker until it has landed: a pull is
//! counted in its requester's `outstanding_pulls` before it leaves, a
//! steal batch in its victim's `steal_inflight` until the thief's
//! post-spill ack, and a `StealRequest` only exists while the plan that
//! issued it is open. So nothing can start again after `P`.
//!
//! Any change to a worker's report (or a plan opening) while a wave is
//! in flight cancels the wave: its `t1 < P` premise no longer holds for
//! the new report. Acks of a cancelled round are ignored by number.

/// An observation that can change the verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Event {
    /// A progress report from `worker`: its quiescence verdict and the
    /// activity epoch read just before evaluating it.
    Report { worker: usize, idle: bool, epoch: u64 },
    /// `worker`'s answer to `Probe { round }`: its quiescence verdict on
    /// arrival and the activity epoch read just after evaluating it.
    Ack { worker: usize, round: u64, idle: bool, epoch: u64 },
    /// The steal planner opened a plan (a `StealRequest` is on its way).
    PlanOpened,
    /// The open plan completed or was abandoned.
    PlanClosed,
}

/// What the master must do in response to an [`Event`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Action {
    /// Send `Probe { round }` to every worker, the master's own included.
    Probe { round: u64 },
    /// Broadcast `Terminate`: the job is provably finished.
    Terminate,
}

/// The master's termination verdict state.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Termination {
    /// Per worker: the epoch of its latest report if that report said
    /// idle and nothing has contradicted it since.
    idle_at: Vec<Option<u64>>,
    plan_open: bool,
    /// Number of the last wave started.
    round: u64,
    /// Which workers have confirmed the wave in flight, if one is.
    wave: Option<Vec<bool>>,
    terminated: bool,
}

impl Termination {
    pub fn new(num_workers: usize) -> Self {
        Termination {
            idle_at: vec![None; num_workers],
            plan_open: false,
            round: 0,
            wave: None,
            terminated: false,
        }
    }

    /// Advances the state by one event.
    pub fn step(&mut self, event: Event) -> Option<Action> {
        if self.terminated {
            return None;
        }
        match event {
            Event::Report { worker, idle, epoch } => {
                let report = idle.then_some(epoch);
                if self.idle_at[worker] == report {
                    return None; // periodic repeat: nothing changed
                }
                self.idle_at[worker] = report;
                self.wave = None;
                self.start_wave()
            }
            Event::Ack { worker, round, idle, epoch } => {
                if round != self.round {
                    return None; // answer to a cancelled wave
                }
                let acked = self.wave.as_mut()?;
                if !idle || self.idle_at[worker] != Some(epoch) {
                    // The report is stale. Forget it and wait for the
                    // worker's next one (it sends one on its next idle
                    // edge, and one per periodic tick regardless).
                    self.idle_at[worker] = None;
                    self.wave = None;
                    return None;
                }
                acked[worker] = true;
                if acked.iter().all(|&a| a) {
                    self.terminated = true;
                    return Some(Action::Terminate);
                }
                None
            }
            Event::PlanOpened => {
                // The thief's idle report is left standing: if a batch
                // reaches it, its epoch moves and the next wave's ack
                // refutes the report; if the victim had nothing to
                // give, the report is still true.
                self.plan_open = true;
                self.wave = None;
                None
            }
            Event::PlanClosed => {
                self.plan_open = false;
                self.start_wave()
            }
        }
    }

    fn start_wave(&mut self) -> Option<Action> {
        if self.plan_open || self.wave.is_some() || self.idle_at.iter().any(Option::is_none) {
            return None;
        }
        self.round += 1;
        self.wave = Some(vec![false; self.idle_at.len()]);
        Some(Action::Probe { round: self.round })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashSet, VecDeque};

    #[test]
    fn single_worker_terminates_after_one_wave() {
        let mut t = Termination::new(1);
        assert_eq!(t.step(Event::Report { worker: 0, idle: false, epoch: 0 }), None);
        assert_eq!(
            t.step(Event::Report { worker: 0, idle: true, epoch: 0 }),
            Some(Action::Probe { round: 1 })
        );
        // A periodic repeat neither cancels nor restarts the wave.
        assert_eq!(t.step(Event::Report { worker: 0, idle: true, epoch: 0 }), None);
        assert_eq!(
            t.step(Event::Ack { worker: 0, round: 1, idle: true, epoch: 0 }),
            Some(Action::Terminate)
        );
        assert_eq!(t.step(Event::PlanClosed), None, "terminal state absorbs everything");
    }

    #[test]
    fn moved_epoch_fails_the_wave_until_a_fresh_report() {
        let mut t = Termination::new(2);
        t.step(Event::Report { worker: 0, idle: true, epoch: 4 });
        assert_eq!(
            t.step(Event::Report { worker: 1, idle: true, epoch: 7 }),
            Some(Action::Probe { round: 1 })
        );
        assert_eq!(t.step(Event::Ack { worker: 0, round: 1, idle: true, epoch: 4 }), None);
        // Worker 1 was busy in between: idle again, but at a new epoch.
        assert_eq!(t.step(Event::Ack { worker: 1, round: 1, idle: true, epoch: 8 }), None);
        assert_eq!(t.idle_at[1], None, "the refuted report is forgotten");
        assert_eq!(
            t.step(Event::Report { worker: 1, idle: true, epoch: 8 }),
            Some(Action::Probe { round: 2 })
        );
        // Round 1's acks no longer count.
        assert_eq!(t.step(Event::Ack { worker: 0, round: 1, idle: true, epoch: 4 }), None);
        assert_eq!(t.step(Event::Ack { worker: 0, round: 2, idle: true, epoch: 4 }), None);
        assert_eq!(
            t.step(Event::Ack { worker: 1, round: 2, idle: true, epoch: 8 }),
            Some(Action::Terminate)
        );
    }

    #[test]
    fn open_plan_blocks_and_cancels_waves() {
        let mut t = Termination::new(2);
        t.step(Event::Report { worker: 0, idle: true, epoch: 0 });
        assert_eq!(
            t.step(Event::Report { worker: 1, idle: true, epoch: 0 }),
            Some(Action::Probe { round: 1 })
        );
        assert_eq!(t.step(Event::PlanOpened), None);
        assert_eq!(t.step(Event::Ack { worker: 0, round: 1, idle: true, epoch: 0 }), None);
        assert_eq!(t.step(Event::Ack { worker: 1, round: 1, idle: true, epoch: 0 }), None);
        assert_eq!(t.step(Event::Report { worker: 1, idle: true, epoch: 1 }), None);
        assert_eq!(t.step(Event::PlanClosed), Some(Action::Probe { round: 2 }));
    }

    // ---- exhaustive exploration -------------------------------------
    //
    // A small model of the cluster around the state machine: workers
    // hold tasks, finish them one at a time, report on idle edges and
    // once per "tick", answer probes, and take part in master-brokered
    // steals with the same ownership rules as `worker.rs` (the victim
    // counts a batch as its own until the thief's ack; the thief bumps
    // its epoch after the batch landed). The explorer walks every order
    // in which the enabled steps can be taken.

    const NOT_REPORTED: u64 = u64::MAX;

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    enum ToMaster {
        Report { idle: bool, epoch: u64 },
        Ack { round: u64, idle: bool, epoch: u64 },
        StealExecuted { sent: bool },
        StealDone,
    }

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    enum ToWorker {
        Probe { round: u64 },
        StealRequest { thief: usize },
        StealBatch { victim: usize },
        StealAck,
    }

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct ModelWorker {
        tasks: u8,
        /// Sealed steal batches not yet acked by the thief.
        inflight: u8,
        epoch: u64,
        /// Epoch of the last idle report sent (`NOT_REPORTED` if the
        /// last report said busy or none went out yet).
        reported: u64,
        /// Periodic reports this worker may still send.
        ticks_left: u8,
        /// Reports travel on one ordered link from the worker's main
        /// thread; acks and steal notices come from its receiver thread
        /// and may overtake them.
        reports: VecDeque<ToMaster>,
        notices: VecDeque<ToMaster>,
        /// Inbound: one ordered queue per sender (index `n` = master).
        inbox: Vec<VecDeque<ToWorker>>,
    }

    impl ModelWorker {
        fn quiescent(&self) -> bool {
            self.tasks == 0 && self.inflight == 0
        }

        /// The worker-side rule of `WorkerShared::report_progress`.
        fn report(&mut self, periodic: bool) {
            let epoch = self.epoch;
            let idle = self.quiescent();
            let report = if idle { epoch } else { NOT_REPORTED };
            if periodic || self.reported != report {
                self.reported = report;
                self.reports.push_back(ToMaster::Report { idle, epoch });
            }
        }

        /// `WorkerShared::signal_if_newly_quiescent` followed by the
        /// main thread's wake-up, collapsed into one step.
        fn idle_edge(&mut self) {
            if self.reported != self.epoch && self.quiescent() {
                self.report(false);
            }
        }
    }

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct World {
        term: Termination,
        workers: Vec<ModelWorker>,
        /// `(executed, acked)` of the open steal plan.
        plan: Option<(Option<bool>, bool)>,
        plans_left: u8,
    }

    impl World {
        fn new(tasks: &[u8], plans: u8, ticks: u8) -> World {
            let n = tasks.len();
            let mut workers: Vec<ModelWorker> = tasks
                .iter()
                .map(|&t| ModelWorker {
                    tasks: t,
                    inflight: 0,
                    epoch: 0,
                    reported: NOT_REPORTED,
                    ticks_left: ticks,
                    reports: VecDeque::new(),
                    notices: VecDeque::new(),
                    inbox: vec![VecDeque::new(); n + 1],
                })
                .collect();
            // A worker that starts with nothing to do finds that out as
            // soon as its compers have looked: its first idle edge.
            workers.iter_mut().for_each(ModelWorker::idle_edge);
            World { term: Termination::new(n), workers, plan: None, plans_left: plans }
        }

        fn master_link(&self) -> usize {
            self.workers.len()
        }

        /// Feeds the state machine and carries out its action. Panics
        /// on an unsound `Terminate`.
        fn feed(&mut self, event: Event) {
            match self.term.step(event) {
                Some(Action::Probe { round }) => {
                    let m = self.master_link();
                    for w in &mut self.workers {
                        w.inbox[m].push_back(ToWorker::Probe { round });
                    }
                }
                Some(Action::Terminate) => {
                    for (i, w) in self.workers.iter().enumerate() {
                        assert!(w.quiescent(), "terminated while worker {i} holds work: {self:?}");
                        assert_eq!(
                            self.term.idle_at[i],
                            Some(w.epoch),
                            "terminated after worker {i}'s epoch moved past its report: {self:?}"
                        );
                        assert!(
                            w.inbox.iter().flatten().all(|m| matches!(m, ToWorker::Probe { .. })),
                            "terminated with work-creating traffic in flight: {self:?}"
                        );
                    }
                    assert!(self.plan.is_none(), "terminated with a plan open: {self:?}");
                }
                None => {}
            }
        }

        fn close_plan_if_complete(&mut self) {
            if let Some((Some(sent), acked)) = self.plan {
                if !sent || acked {
                    self.plan = None;
                    self.feed(Event::PlanClosed);
                }
            }
        }

        /// Every state reachable in one step.
        fn successors(&self) -> Vec<World> {
            let n = self.workers.len();
            let mut out = Vec::new();
            for i in 0..n {
                let w = &self.workers[i];
                // A comper finishes a task.
                if w.tasks > 0 {
                    let mut s = self.clone();
                    s.workers[i].tasks -= 1;
                    s.workers[i].idle_edge();
                    out.push(s);
                }
                // The worker's periodic tick.
                if w.ticks_left > 0 {
                    let mut s = self.clone();
                    s.workers[i].ticks_left -= 1;
                    s.workers[i].report(true);
                    out.push(s);
                }
                // The master absorbs the head of either outbound queue.
                for from_reports in [true, false] {
                    let mut s = self.clone();
                    let q = if from_reports {
                        &mut s.workers[i].reports
                    } else {
                        &mut s.workers[i].notices
                    };
                    let Some(msg) = q.pop_front() else { continue };
                    match msg {
                        ToMaster::Report { idle, epoch } => {
                            s.feed(Event::Report { worker: i, idle, epoch })
                        }
                        ToMaster::Ack { round, idle, epoch } => {
                            s.feed(Event::Ack { worker: i, round, idle, epoch })
                        }
                        ToMaster::StealExecuted { sent } => {
                            s.plan.as_mut().expect("plan open").0 = Some(sent);
                            s.close_plan_if_complete();
                        }
                        ToMaster::StealDone => {
                            s.plan.as_mut().expect("plan open").1 = true;
                            s.close_plan_if_complete();
                        }
                    }
                    out.push(s);
                }
                // The worker's receiver handles the head of any link.
                for link in 0..=n {
                    let mut s = self.clone();
                    let Some(msg) = s.workers[i].inbox[link].pop_front() else { continue };
                    match msg {
                        ToWorker::Probe { round } => {
                            let w = &mut s.workers[i];
                            let (idle, epoch) = (w.quiescent(), w.epoch);
                            w.notices.push_back(ToMaster::Ack { round, idle, epoch });
                        }
                        ToWorker::StealRequest { thief } => {
                            let w = &mut s.workers[i];
                            w.epoch += 1;
                            let sent = w.tasks > 0;
                            if sent {
                                w.tasks -= 1;
                                w.inflight += 1;
                                s.workers[thief].inbox[i]
                                    .push_back(ToWorker::StealBatch { victim: i });
                            }
                            let w = &mut s.workers[i];
                            w.notices.push_back(ToMaster::StealExecuted { sent });
                            w.idle_edge();
                        }
                        ToWorker::StealBatch { victim } => {
                            let w = &mut s.workers[i];
                            w.tasks += 1;
                            w.epoch += 1;
                            w.notices.push_back(ToMaster::StealDone);
                            s.workers[victim].inbox[i].push_back(ToWorker::StealAck);
                        }
                        ToWorker::StealAck => {
                            let w = &mut s.workers[i];
                            w.inflight -= 1;
                            w.idle_edge();
                        }
                    }
                    out.push(s);
                }
            }
            // The planner brokers a steal between any two workers,
            // whatever their reports say (a superset of its policy).
            if self.plan.is_none() && self.plans_left > 0 && !self.term.terminated {
                for victim in 0..n {
                    for thief in (0..n).filter(|&t| t != victim) {
                        let mut s = self.clone();
                        s.plans_left -= 1;
                        s.plan = Some((None, false));
                        s.feed(Event::PlanOpened);
                        let m = s.master_link();
                        s.workers[victim].inbox[m].push_back(ToWorker::StealRequest { thief });
                        out.push(s);
                    }
                }
            }
            out
        }
    }

    /// Walks every reachable state once and returns how many there
    /// were. Safety is asserted on each `Terminate` (`World::feed`);
    /// liveness on each state with nothing left to do.
    fn explore(start: World) -> usize {
        let mut seen: HashSet<World> = HashSet::new();
        let mut stack = vec![start];
        while let Some(world) = stack.pop() {
            if !seen.insert(world.clone()) {
                continue;
            }
            let next = world.successors();
            if next.is_empty() {
                assert!(
                    world.term.terminated,
                    "every worker is stably idle and every message delivered, \
                     yet the master never terminated: {world:?}"
                );
            }
            stack.extend(next);
        }
        seen.len()
    }

    /// `(initial tasks per worker, steal plans the planner may open,
    /// periodic reports each worker may send)`. Sized so both tests
    /// together visit ~80k states in a few seconds unoptimized.
    type Scenario<const N: usize> = ([u8; N], u8, u8);

    fn explore_all<const N: usize>(scenarios: &[Scenario<N>]) -> usize {
        scenarios
            .iter()
            .map(|(tasks, plans, ticks)| explore(World::new(tasks, *plans, *ticks)))
            .sum()
    }

    #[test]
    fn exhaustive_two_workers() {
        let states = explore_all(&[
            ([0, 0], 1, 1),
            ([1, 0], 1, 1),
            ([1, 1], 1, 1),
            ([2, 1], 1, 1),
            ([1, 0], 2, 0),
            ([0, 2], 2, 0),
            ([1, 1], 2, 0),
        ]);
        assert!(states > 50_000, "exploration collapsed to {states} states");
    }

    #[test]
    fn exhaustive_three_workers() {
        let states = explore_all(&[
            ([0, 0, 0], 1, 0),
            ([1, 0, 0], 1, 0),
            ([0, 2, 0], 1, 0),
            ([1, 0, 1], 1, 0),
            ([1, 0, 0], 0, 1),
            ([0, 1, 1], 0, 1),
        ]);
        assert!(states > 15_000, "exploration collapsed to {states} states");
    }
}
