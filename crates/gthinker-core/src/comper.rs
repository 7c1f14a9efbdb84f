//! The comper (mining thread) loop — "Algorithm of a Comper" in §V-B.
//!
//! Every round a comper runs:
//!
//! * **push()** — if `B_task` has a ready task, compute one (or more)
//!   iterations of it. Runs every round so tasks keep flowing (and keep
//!   releasing cache locks) even when `pop()` is blocked.
//! * **pop()** — only if the cache is not over its overflow limit and
//!   `|T_task| + |B_task| ≤ D`: refill `Q_task` if it dropped to `≤ C`
//!   (spilled files first, then stealing from the largest sibling
//!   queue, then fresh spawns), pop a task and process it. Tasks whose
//!   pulled vertices are all locally available compute immediately;
//!   otherwise they park in `T_task`. A comper that finds the cache
//!   over its limit first runs a GC pass (OP4): there is no GC thread.
//!
//! A comper that makes no progress in a round flushes its worker's
//! request batches (so parked tasks' pulls actually go out) and parks
//! on the worker's scheduler event count until new work is published
//! (see `DESIGN.md` §"Intra-worker scheduling & wakeup protocol").

use crate::api::{App, ComputeEnv, SpawnEnv};
use crate::metrics::WorkerCounters;
use crate::worker::{task_cost, thread_cpu_nanos, WorkerShared};
use gthinker_graph::adj::{prefetch, SharedAdj};
use gthinker_graph::ids::{TaskId, VertexId};
use gthinker_metrics::{now_nanos, Event, EventKind};
use gthinker_net::message::Message;
use gthinker_store::cache::RequestOutcome;
use gthinker_store::counter::CounterHandle;
use gthinker_task::task::{Frontier, Task};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Safety-net timeout for a parked comper. Every work source has a
/// matching notify, so in a correct schedule parks end with an event;
/// the fallback only bounds the damage of a missed-notify bug.
const PARK_FALLBACK: Duration = Duration::from_millis(5);

/// Smallest sibling queue worth stealing from. Below this the transfer
/// costs more than letting the owner drain the queue, and halving
/// single tasks back and forth between idle compers is pure churn.
/// `stealable_sibling` (the park predicate) and `try_steal` must agree
/// on this threshold, and `enqueue` must notify when a queue crosses
/// it — together those three keep "parked" equivalent to "no reachable
/// work".
const STEAL_MIN: usize = 4;

/// Floor on the period (in queued tasks) of the redundant safety-net
/// notify in `enqueue`, so configs with a tiny task batch `C` don't
/// notify on every other push.
const PERIODIC_NOTIFY: usize = 32;

/// `compute()` calls per read of the thread-CPU clock (see
/// [`CpuWindow`]).
const CPU_WINDOW_CALLS: u32 = 64;

/// Runs one comper until the worker stops; `idx` is the comper's index
/// within the worker (also the comper half of its task IDs).
pub(crate) fn comper_loop<A: App>(shared: Arc<WorkerShared<A>>, idx: usize) {
    let mut ctx =
        ComperCtx { counter: shared.cache.counter_handle(), seq: 0, idx, cpu: CpuWindow::open() };
    let me = || &shared.compers[idx];
    // True from a park until the next round that finds work: leaving a
    // park with work is an idle → busy transition of the worker.
    let mut parked = false;
    loop {
        if shared.stopping() {
            break;
        }
        // Take the park key *before* checking sources: any work
        // published after this point bumps the event epoch, so the
        // wait at the bottom of an empty round returns immediately
        // instead of losing the wakeup.
        let key = shared.sched_events.listen();
        // Quick emptiness hint. If every source is empty the comper
        // stays provably idle this round: a task can only appear via
        // the main thread (making B_task non-empty → worker non-quiescent),
        // via another comper spilling (L_file non-empty → non-quiescent)
        // or via a sibling queue growing stealable (owner busy →
        // non-quiescent), so skipping the round cannot race termination.
        let may_have_work = !me().buffer.is_empty()
            || !me().queue.is_empty()
            || !shared.spill.is_empty()
            || shared.local.unspawned() > 0
            || stealable_sibling(&shared, idx);
        if !may_have_work {
            me().busy.store(false, Ordering::SeqCst);
            shared.batcher.flush_all(&*shared.net);
            park(&shared, &mut ctx, key);
            parked = true;
            continue;
        }
        // Declare busy *before* actually taking from the sources, so
        // the quiescence check cannot slip between "sources empty" and
        // "task started". Stays `SeqCst`: the store must be ordered
        // before the subsequent source reads (a StoreLoad edge only
        // seqcst provides) for the termination argument to hold.
        me().busy.store(true, Ordering::SeqCst);
        if std::mem::take(&mut parked) {
            // After the busy flag, so the bump is never visible before
            // the non-quiescence it announces (see
            // `WorkerShared::activity`).
            shared.activity.fetch_add(1, Ordering::SeqCst);
        }
        let mut progressed = false;

        // push(): consume one ready task.
        if let Some(task) = me().buffer.pop() {
            shared.task_mem.fetch_sub(task_cost(&task), Ordering::Relaxed);
            progressed = true;
            drive_spanned(&shared, &mut ctx, task, true);
        }

        // OP4, in time the closed pop gate would leave to a park.
        if shared.cache.over_limit() {
            collect_garbage(&shared, &mut ctx);
        }
        // pop(): gated on cache capacity and the pending limit D.
        let gate_open = !shared.cache.over_limit()
            && me().pending.len() + me().buffer.len() <= shared.config.pending_limit();
        if gate_open {
            if me().queue.needs_refill() {
                // Consuming a source (a spill file, a sibling's tasks,
                // or a claim on unspawned vertices) is progress even
                // when it yields no runnable task — apps may spawn
                // nothing for pruned vertices, and parking on such a
                // round would throttle spawning to one batch per
                // fallback period.
                progressed |= refill(&shared, &mut ctx);
            }
            if let Some(task) = me().queue.pop() {
                shared.task_mem.fetch_sub(task_cost(&task), Ordering::Relaxed);
                progressed = true;
                drive_spanned(&shared, &mut ctx, task, false);
            }
        }

        if !progressed {
            me().busy.store(false, Ordering::SeqCst);
            // Push out partial request batches so remote pulls that
            // tasks are parked on actually leave the machine.
            shared.batcher.flush_all(&*shared.net);
            // The round's sources were non-empty but unusable (e.g. the
            // pop gate is closed, or a steal raced): park on the same
            // key — evicting GC passes, response arrivals and sibling
            // enqueues all notify.
            park(&shared, &mut ctx, key);
            parked = true;
        }
    }
    me().busy.store(false, Ordering::SeqCst);
    ctx.counter.flush();
    ctx.cpu.roll(&shared.counters);
}

/// Parks the calling comper until new work is published (or the
/// fallback elapses), recording its duration (the `parks` and `idle_nanos`
/// rows), event wakeups and (when tracing) a `Park` span. The caller
/// has cleared its busy flag, which may have been the last thing
/// keeping the worker non-quiescent — if so the main thread is told
/// now, not at its next periodic tick. The CPU window is closed on both
/// sides of the wait, so no window's wall time contains a park.
fn park<A: App>(shared: &Arc<WorkerShared<A>>, ctx: &mut ComperCtx, key: u64) {
    let idx = ctx.idx;
    ctx.cpu.roll(&shared.counters);
    if shared.newly_quiescent() {
        shared.net.requeue(Message::Wake);
    }
    let start = Instant::now();
    let trace = shared.ring.enabled();
    let ts = if trace { now_nanos() } else { 0 };
    if shared.sched_events.wait(key, PARK_FALLBACK) {
        shared.counters.wakeups.fetch_add(1, Ordering::Relaxed);
    }
    let dur = start.elapsed().as_nanos() as u64;
    shared.compers[idx].hists.park.record(dur);
    if trace {
        shared.ring.push(Event { ts, dur, tid: idx as u32, arg: 0, kind: EventKind::Park });
    }
    ctx.cpu.roll(&shared.counters);
}

/// One GC pass on this comper's counter handle; one that evicted goes on
/// this comper's trace row and wakes siblings parked behind the pop gate.
fn collect_garbage<A: App>(shared: &Arc<WorkerShared<A>>, ctx: &mut ComperCtx) {
    let ts = shared.ring.enabled().then(now_nanos);
    let evicted = shared.cache.gc_pass(&mut ctx.counter);
    if evicted > 0 {
        if let Some(ts) = ts {
            let (dur, tid, arg) = (now_nanos().saturating_sub(ts), ctx.idx as u32, evicted as u64);
            shared.ring.push(Event { ts, dur, tid, arg, kind: EventKind::GcPass });
        }
        shared.sched_events.notify_all();
    }
}

/// True when some sibling's queue is worth visiting for a steal. Part
/// of the park predicate: a comper never parks while a sibling holds a
/// stealable queue, which is what makes "notify on crossing the
/// stealable threshold" a sufficient wakeup rule for enqueues. That
/// `refill` steals only into an empty queue does not weaken it: a
/// comper whose own queue holds a task does not park either (it pops
/// the task), and one whose queue is empty is exactly one that steals.
fn stealable_sibling<A: App>(shared: &Arc<WorkerShared<A>>, idx: usize) -> bool {
    shared.config.intra_steal
        && shared.compers.iter().enumerate().any(|(j, c)| j != idx && c.queue.len() >= STEAL_MIN)
}

/// Comper-local state threaded through the processing functions. The
/// task queue itself lives in `ComperShared` so siblings can steal
/// from it.
struct ComperCtx {
    counter: CounterHandle,
    seq: u64,
    idx: usize,
    cpu: CpuWindow,
}

/// Thread-CPU accounting without a system call per `compute()`.
///
/// `clock_gettime(CLOCK_THREAD_CPUTIME_ID)` is a real system call
/// (≈ 240 ns here; the monotonic clock is a vDSO read, ≈ 30 ns), and
/// two of them around every `compute()` were an eighth of the comper
/// loop on a pull-heavy triangle count. So each call is timed on the
/// wall clock, and the CPU clock is read once per window — every
/// [`CPU_WINDOW_CALLS`] calls, around every park and at exit. The
/// window's UDF wall time is scaled by the share of the
/// window the thread was actually on a core, `min(1, Δcpu / Δwall)`,
/// which keeps `compute_nanos` a CPU time: on a host with fewer cores
/// than compers, wall time inside `compute()` includes preemption and
/// would inflate the per-comper work that `modeled_parallel_time`
/// divides.
struct CpuWindow {
    /// Both clocks when the window opened.
    cpu0: u64,
    wall0: u64,
    /// Wall nanoseconds inside `compute()` since then, and the calls.
    udf_wall: u64,
    calls: u32,
}

impl CpuWindow {
    fn open() -> Self {
        CpuWindow { cpu0: thread_cpu_nanos(), wall0: now_nanos(), udf_wall: 0, calls: 0 }
    }

    /// Accounts one `compute()` call that took `wall` nanoseconds.
    fn record(&mut self, wall: u64, counters: &WorkerCounters) {
        self.udf_wall += wall;
        self.calls += 1;
        if self.calls >= CPU_WINDOW_CALLS {
            self.roll(counters);
        }
    }

    /// Closes the window into `compute_nanos` and `comper_cpu_nanos`
    /// and opens the next one where this one ended, so the windows of
    /// a comper add up to its thread's CPU time. `udf_wall ≤ Δwall`
    /// (the calls lie inside the window), hence what is added to
    /// `compute_nanos` never exceeds `Δcpu`.
    fn roll(&mut self, counters: &WorkerCounters) {
        let (cpu, wall) = (thread_cpu_nanos(), now_nanos());
        let d_cpu = cpu.saturating_sub(self.cpu0);
        let d_wall = wall.saturating_sub(self.wall0);
        let on_cpu = if d_cpu >= d_wall {
            self.udf_wall
        } else {
            (self.udf_wall as u128 * d_cpu as u128 / d_wall as u128) as u64
        };
        counters.compute_nanos.fetch_add(on_cpu, Ordering::Relaxed);
        counters.comper_cpu_nanos.fetch_add(d_cpu, Ordering::Relaxed);
        *self = CpuWindow { cpu0: cpu, wall0: wall, udf_wall: 0, calls: 0 };
    }
}

/// [`drive_task`] wrapped in a `Compute` trace span covering the whole
/// on-CPU streak (one or more iterations until the task finishes or
/// parks on missing pulls). The span is wall-clock on the shared
/// metrics timeline so streaks from all compers line up in one trace.
fn drive_spanned<A: App>(
    shared: &Arc<WorkerShared<A>>,
    ctx: &mut ComperCtx,
    task: Task<A::Context>,
    ready: bool,
) {
    let trace = shared.ring.enabled();
    let ts = if trace { now_nanos() } else { 0 };
    drive_task(shared, ctx, task, ready);
    if trace {
        shared.ring.push(Event {
            ts,
            dur: now_nanos().saturating_sub(ts),
            tid: ctx.idx as u32,
            arg: 0,
            kind: EventKind::Compute,
        });
    }
}

/// Drives a task through as many iterations as possible.
///
/// `ready` marks a task coming from `B_task`: its pull set is already
/// satisfied (every pulled vertex is local or cache-locked by this
/// task), so the first frontier is assembled without new requests.
/// Afterwards (and for non-ready tasks from the start) each iteration's
/// pulls go through the cache; the task parks in `T_task` when
/// something is missing.
///
/// Each pulled vertex is resolved once per iteration: the cache is
/// asked first, and `T_local` — a decode, on mapped storage — is read
/// only when the iteration is certain to run.
fn drive_task<A: App>(
    shared: &Arc<WorkerShared<A>>,
    ctx: &mut ComperCtx,
    mut task: Task<A::Context>,
    ready: bool,
) {
    let mut first_ready = ready;
    loop {
        let pulls = task.take_pulls();
        let frontier = if pulls.is_empty() {
            Frontier::default()
        } else if first_ready {
            // What the task's cache hits locked before it parked came
            // along with it (one slot per pull; a task that carries
            // none looks everything up); their lines had time to go
            // cold.
            let mut held = task.take_held();
            held.iter().flatten().for_each(|adj| prefetch(adj));
            held.resize(pulls.len(), None);
            assemble_frontier(shared, &pulls, held)
        } else {
            let id = TaskId::new(ctx.idx as u16, ctx.seq);
            ctx.seq += 1;
            let (held, missing) = request_pulls(shared, ctx, id, &pulls);
            if missing > 0 {
                // Park: remember P(t) and the hits, which stay locked
                // while parked, so the ready path can finish the
                // frontier. Responses may already have raced ahead of
                // this insert — in that case the table hands the task
                // straight back as ready.
                let req = pulls.len() as u32;
                task.set_pulls(pulls);
                task.set_held(held);
                shared.task_mem.fetch_add(task_cost(&task), Ordering::Relaxed);
                if let Some(ready) =
                    shared.compers[ctx.idx].pending.insert(id, task, req, req - missing)
                {
                    shared.compers[ctx.idx].buffer.push(ready);
                }
                return;
            }
            assemble_frontier(shared, &pulls, held)
        };
        first_ready = false;

        let proceed = compute_once(shared, ctx, &mut task, &frontier);

        // Release every remote vertex of this iteration (paper: a task
        // always releases its requested non-local vertices after each
        // iteration so GC can evict them in time).
        for v in frontier.locked_ids() {
            shared.cache.release(v);
        }
        if !proceed {
            // End-to-end latency: spawn → finish, including every pull
            // wait and queue/spill residence in between.
            shared.compers[ctx.idx].hists.e2e.record(now_nanos().saturating_sub(task.born_nanos));
            return;
        }
    }
}

/// OP1 for every non-local vertex of `pulls`, sending the requests the
/// cache asks for. Returns, per pull, the list a cache hit locked
/// (`None`: local, or on the wire) and how many are on the wire.
fn request_pulls<A: App>(
    shared: &Arc<WorkerShared<A>>,
    ctx: &mut ComperCtx,
    id: TaskId,
    pulls: &[VertexId],
) -> (Vec<Option<SharedAdj>>, u32) {
    let mut missing = 0u32;
    let held = pulls
        .iter()
        .map(|&v| {
            if shared.local.contains(v) {
                return None;
            }
            match shared.cache.request(v, id, &mut ctx.counter) {
                RequestOutcome::Hit(adj) => {
                    prefetch(&adj);
                    return Some(adj);
                }
                RequestOutcome::MustRequest => {
                    // Count before the request can possibly leave, so
                    // quiescence never under-counts. Stays `SeqCst`:
                    // this comper's `busy = true` store must be
                    // globally ordered before the increment, so a
                    // quiescence check that misses the increment
                    // necessarily sees the busy flag (see
                    // `WorkerShared::quiescent`).
                    shared.outstanding_pulls.fetch_add(1, Ordering::SeqCst);
                    let owner = shared.partitioner.owner(v);
                    shared.batcher.add(&*shared.net, owner, v);
                }
                RequestOutcome::AlreadyRequested => {}
            }
            missing += 1;
            None
        })
        .collect();
    (held, missing)
}

/// Builds the frontier of an iteration whose pulls are all available:
/// `held[i]` if a cache hit already produced it, else `T_local`, else —
/// a response installed it while the task was parked — the cache entry
/// this task holds a lock on.
fn assemble_frontier<A: App>(
    shared: &Arc<WorkerShared<A>>,
    pulls: &[VertexId],
    held: Vec<Option<SharedAdj>>,
) -> Frontier {
    let mut frontier = Frontier::with_capacity(pulls.len());
    for (&v, held) in pulls.iter().zip(held) {
        let (adj, locked) = match held {
            Some(adj) => (adj, true),
            None => {
                let found = match shared.local.get(v) {
                    Some(adj) => (adj, false),
                    None => match shared.cache.get_locked(v) {
                        Some(adj) => (adj, true),
                        None => panic!("ready task's vertex {v} vanished from the cache"),
                    },
                };
                prefetch(&found.0);
                found
            }
        };
        frontier.push(v, adj, locked);
    }
    frontier
}

/// Runs one `compute()` iteration and integrates its side effects
/// (decomposed tasks, statistics).
fn compute_once<A: App>(
    shared: &Arc<WorkerShared<A>>,
    ctx: &mut ComperCtx,
    task: &mut Task<A::Context>,
    frontier: &Frontier,
) -> bool {
    let mut env = ComputeEnv::<A>::new(
        &shared.agg,
        shared.labels.as_ref(),
        shared.output.as_deref(),
        shared.config.compute_budget,
    );
    let start = now_nanos();
    // A panicking UDF must not strand the job (the worker would never
    // reach quiescence): record it, abort the job, finish the task.
    let proceed = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        shared.app.compute(task, frontier, &mut env)
    })) {
        Ok(proceed) => proceed,
        Err(payload) => {
            shared.fail(payload);
            false
        }
    };
    let spent = now_nanos().saturating_sub(start);
    shared.compers[ctx.idx].hists.compute.record(spent);
    ctx.cpu.record(spent, &shared.counters);
    let tasks = env.take_tasks();
    if let Some(at) = env.split_at {
        shared.counters.yields.fetch_add(1, Ordering::Relaxed);
        shared.counters.split_tasks.fetch_add((tasks.len() - at) as u64, Ordering::Relaxed);
    }
    for t in tasks {
        enqueue(shared, ctx, t);
    }
    proceed
}

/// Adds a task to this comper's `Q_task`, spilling an overflow batch to
/// disk if needed, and waking parked siblings when the push creates
/// work they can reach.
fn enqueue<A: App>(shared: &Arc<WorkerShared<A>>, ctx: &mut ComperCtx, task: Task<A::Context>) {
    shared.task_mem.fetch_add(task_cost(&task), Ordering::Relaxed);
    let (batch, new_len) = shared.compers[ctx.idx].queue.push(task);
    if let Some(batch) = batch {
        for t in &batch {
            shared.task_mem.fetch_sub(task_cost(t), Ordering::Relaxed);
        }
        // Notify only on the pool's empty → non-empty edge: compers
        // never park while a spill file exists (`may_have_work` checks
        // `spill.is_empty()`), so parked siblings only need the edge,
        // and awake ones find further files through `refill`. Spilling
        // on every push — the tiny-`C` regime — would otherwise wake
        // the whole worker each time. The unsynchronized read can
        // over-notify under a concurrent refill, which is harmless.
        let was_empty = shared.spill.is_empty();
        if let Err(e) = shared.spill.spill(&batch) {
            shared.fail(Box::new(format!("cannot spill a task batch: {e}")));
            return;
        }
        if shared.ring.enabled() {
            shared.ring.push(Event {
                ts: now_nanos(),
                dur: 0,
                tid: ctx.idx as u32,
                arg: batch.len() as u64,
                kind: EventKind::Spill,
            });
        }
        if was_empty {
            shared.sched_events.notify_all();
        }
    } else if new_len == STEAL_MIN
        || new_len % shared.compers[ctx.idx].queue.batch().max(PERIODIC_NOTIFY) == 0
    {
        // Crossing the stealable threshold is the edge parked siblings
        // need: they only park while *no* queue holds ≥ `STEAL_MIN`
        // tasks (see `stealable_sibling`), so later growth needs no
        // wakeup. Notifying again periodically is a cheap safety net
        // for steal races; the period is floored so tiny `C` configs
        // do not turn every other push into a thundering herd.
        shared.sched_events.notify_all();
    }
}

/// Refills `Q_task` (§V-B priority, extended by the tail-latency
/// scheduler): (1) a spilled batch file if one exists, else (2) — only
/// when this comper's own queue is empty — steal the newest half of
/// the largest sibling queue, else (3) spawn fresh tasks from unspawned
/// vertices in `T_local`. A comper that still holds tasks pops its own:
/// stealing at the refill mark (≤ C) had two compers hand half their
/// queues back and forth, moving ~18 tasks per task run on a one-worker
/// `mc` job. (Ready tasks — the paper's source 2 — are consumed
/// directly from `B_task` by the push() phase each round, which keeps
/// the lock discipline simple: tasks inside `Q_task` or spill files
/// never hold cache locks.)
///
/// Returns `true` when a source was consumed — a file loaded, tasks
/// stolen, or spawn vertices claimed — even if no task reached the
/// queue (a claimed vertex may legitimately spawn nothing).
fn refill<A: App>(shared: &Arc<WorkerShared<A>>, ctx: &mut ComperCtx) -> bool {
    let spilled = shared.spill.refill::<A::Context>().unwrap_or_else(|e| {
        // The batch's path is already off `L_file`: fail the job rather
        // than finish without its tasks.
        shared.fail(Box::new(format!("cannot refill a spilled task batch: {e}")));
        None
    });
    if let Some(batch) = spilled {
        for t in &batch {
            shared.task_mem.fetch_add(task_cost(t), Ordering::Relaxed);
        }
        if shared.ring.enabled() {
            shared.ring.push(Event {
                ts: now_nanos(),
                dur: 0,
                tid: ctx.idx as u32,
                arg: batch.len() as u64,
                kind: EventKind::Refill,
            });
        }
        shared.compers[ctx.idx].queue.push_batch(batch);
        return true;
    }
    if shared.config.intra_steal
        && shared.compers[ctx.idx].queue.is_empty()
        && try_steal(shared, ctx)
    {
        return true;
    }
    let want = shared.compers[ctx.idx].queue.refill_amount().max(1);
    let verts: Vec<VertexId> = shared.local.claim_spawn_batch(want).to_vec();
    if verts.is_empty() {
        return false;
    }
    let batch: Vec<_> = verts
        .into_iter()
        .map(|v| {
            let adj = shared.local.get(v).expect("claimed vertex is local");
            (v, adj, shared.local.label(v))
        })
        .collect();
    let mut env = SpawnEnv::<A>::new(&shared.agg, None);
    if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        shared.app.task_spawn_batch(&batch, &mut env)
    })) {
        shared.fail(payload);
        return true;
    }
    for t in env.take_tasks() {
        enqueue(shared, ctx, t);
    }
    true
}

/// Steals the newest half of the largest sibling queue into this
/// comper's own, empty, `Q_task`. Returns `false` when no victim is
/// worth it.
///
/// While unspawned local vertices remain, spawning is cheaper than
/// contending on a sibling's lock, so a victim must then hold at least
/// a full batch; once spawns are exhausted any queue with ≥ `STEAL_MIN`
/// tasks qualifies. Capacity is safe without spilling: `refill` calls
/// this only when the thief's queue is empty, and a steal takes ≤ 1.5C
/// (half of a ≤ 3C victim), staying within the 3C bound.
///
/// Quiescence cannot miss a stolen task: the thief set its own `busy`
/// flag (`SeqCst`) before calling this, so from the moment tasks leave
/// the victim's queue until they are visible in the thief's queue, the
/// thief's flag keeps the worker non-quiescent.
fn try_steal<A: App>(shared: &Arc<WorkerShared<A>>, ctx: &mut ComperCtx) -> bool {
    let min_victim = if shared.local.unspawned() > 0 {
        shared.config.task_batch.max(STEAL_MIN)
    } else {
        STEAL_MIN
    };
    let victim = shared
        .compers
        .iter()
        .enumerate()
        .filter(|(j, _)| *j != ctx.idx)
        .map(|(j, c)| (j, c.queue.len()))
        .max_by_key(|&(_, len)| len)
        .filter(|&(_, len)| len >= min_victim);
    let Some((j, _)) = victim else {
        return false;
    };
    let Some(stolen) = shared.compers[j].queue.steal_half(min_victim) else {
        return false;
    };
    shared.counters.steals.fetch_add(1, Ordering::Relaxed);
    shared.counters.stolen_tasks.fetch_add(stolen.len() as u64, Ordering::Relaxed);
    if shared.ring.enabled() {
        shared.ring.push(Event {
            ts: now_nanos(),
            dur: 0,
            tid: ctx.idx as u32,
            arg: stolen.len() as u64,
            kind: EventKind::Steal,
        });
    }
    shared.compers[ctx.idx].queue.push_batch(stolen);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::NoAgg;
    use crate::config::JobConfig;
    use crate::job::build_worker;
    use gthinker_graph::adj::AdjList;
    use gthinker_graph::gen;
    use gthinker_graph::graph::Graph;
    use gthinker_graph::hash::FastMap;
    use gthinker_graph::ids::{Label, WorkerId};
    use gthinker_graph::partition::HashPartitioner;
    use gthinker_graph::store::AdjacencyStore;
    use gthinker_net::router::{LinkConfig, Router};
    use gthinker_net::transport::NetEndpoint;
    use gthinker_store::local::LocalTable;
    use parking_lot::Mutex;

    /// A graph that counts how often each list is fetched from it.
    struct CountingStore {
        graph: Graph,
        fetched: Mutex<FastMap<VertexId, u32>>,
    }

    impl AdjacencyStore for CountingStore {
        fn num_vertices(&self) -> usize {
            self.graph.num_vertices()
        }
        fn num_edges(&self) -> u64 {
            self.graph.num_edges() as u64
        }
        fn adjacency(&self, v: VertexId) -> AdjList {
            *self.fetched.lock().entry(v).or_default() += 1;
            self.graph.neighbors(v).clone()
        }
        fn label(&self, _v: VertexId) -> Option<Label> {
            None
        }
        fn is_labeled(&self) -> bool {
            false
        }
        fn heap_bytes(&self) -> usize {
            0
        }
    }

    /// Finishes every task in one iteration, recording what it was
    /// handed.
    #[derive(Default)]
    struct Record {
        frontiers: Mutex<Vec<Vec<(VertexId, AdjList)>>>,
    }

    impl App for Record {
        type Context = ();
        type Agg = NoAgg;
        fn make_aggregator(&self) -> NoAgg {
            NoAgg
        }
        fn task_spawn(&self, _v: VertexId, _adj: &AdjList, _env: &mut SpawnEnv<'_, Self>) {}
        fn compute(&self, _t: &mut Task<()>, f: &Frontier, _e: &mut ComputeEnv<'_, Self>) -> bool {
            self.frontiers.lock().push(f.iter().map(|(v, adj)| (v, (**adj).clone())).collect());
            false
        }
    }

    /// One resolve per pull on lazy storage: a task that parks on a
    /// remote miss has decoded nothing, and when it (or a task that
    /// never parks) computes, each local list was decoded exactly once
    /// and each cache hit is the list the response installed.
    #[test]
    fn a_parked_task_fetches_each_local_list_exactly_once() {
        let graph = gen::gnp(60, 0.2, 3);
        let partitioner = HashPartitioner::new(2);
        let (mine, theirs): (Vec<VertexId>, Vec<VertexId>) =
            graph.vertices().partition(|&v| partitioner.owner(v) == WorkerId(0));
        let store = Arc::new(CountingStore { graph: graph.clone(), fetched: Mutex::default() });
        let local =
            LocalTable::lazy(Arc::clone(&store) as Arc<dyn AdjacencyStore>, None, mine.clone());
        let mut router = Router::new(2, LinkConfig::INSTANT);
        let mut handles = router.take_handles();
        let peer = handles.pop().expect("two handles");
        let net: Box<dyn NetEndpoint> = Box::new(handles.pop().expect("two handles"));
        let dir = std::env::temp_dir().join(format!("gthinker-comper-test-{}", std::process::id()));
        let app = Arc::new(Record::default());
        let config = JobConfig::cluster(2, 1);
        let shared = build_worker(&app, &config, &None, partitioner, 0, local, net, &dir).unwrap();
        let mut ctx = ComperCtx {
            counter: shared.cache.counter_handle(),
            seq: 0,
            idx: 0,
            cpu: CpuWindow::open(),
        };

        let remote = theirs[0];
        let pulls: Vec<VertexId> =
            mine[..3].iter().chain([&remote]).chain(&mine[3..5]).copied().collect();
        let task = || {
            let mut t = Task::new(());
            pulls.iter().for_each(|&v| t.pull(v));
            t
        };
        let want: Vec<(VertexId, AdjList)> =
            pulls.iter().map(|&v| (v, graph.neighbors(v).clone())).collect();

        // The miss parks the task; nothing local was read for it.
        drive_task(&shared, &mut ctx, task(), false);
        assert_eq!(shared.compers[0].pending.len(), 1);
        assert!(store.fetched.lock().is_empty(), "a task that parks decodes nothing");
        shared.batcher.flush_all(&*shared.net);
        assert!(peer.try_recv().is_some(), "the pull left for its owner");

        // The response makes it ready, as the main thread would.
        let waiters = shared.cache.insert_response(remote, graph.neighbors(remote).clone());
        for id in waiters.expect("an open R-table entry") {
            let comper = &shared.compers[id.comper() as usize];
            comper.pending.notify_with(id, |t| comper.buffer.push(t));
        }
        let ready = shared.compers[0].buffer.pop().expect("the response completed the task");
        drive_task(&shared, &mut ctx, ready, true);
        assert_eq!(app.frontiers.lock().as_slice(), std::slice::from_ref(&want));
        let once = |n: u32| {
            let fetched = store.fetched.lock();
            assert_eq!(fetched.len(), 5, "only the five local pulls are read from the store");
            assert!(mine[..5].iter().all(|v| fetched[v] == n), "{fetched:?}");
        };
        once(1);
        assert_eq!(shared.cache.exact_evictable(), 1, "the one cache lock was released");

        // A second task hits the cache, never parks, and reads each
        // local list once more.
        drive_task(&shared, &mut ctx, task(), false);
        assert!(shared.compers[0].pending.is_empty());
        assert_eq!(app.frontiers.lock().as_slice(), &[want.clone(), want]);
        once(2);
        assert_eq!(shared.cache.exact_evictable(), 1);
        assert_eq!(crate::metrics::snapshot_worker(&shared, false).tasks_finished, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
