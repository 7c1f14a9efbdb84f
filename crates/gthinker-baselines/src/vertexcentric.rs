//! A Pregel/Giraph-like vertex-centric BSP engine.
//!
//! Reproduces the architectural property the paper blames for
//! vertex-centric systems' poor subgraph-mining performance: *all*
//! communication is materialized as per-vertex message lists between
//! supersteps, so neighborhood-exchange algorithms hold message volumes
//! comparable to (or far exceeding) the graph itself in memory — the
//! engine's peak message bytes are tracked and reported.
//!
//! Two programs are provided: triangle counting and maximum clique
//! finding, both via the standard "send your larger-neighbor list"
//! exchange (\[5\], \[24\] in the paper). Only the messages are
//! Giraph's: the clique task itself is the G-thinker app's.

use crate::offer;
use crate::outcome::{RunOutcome, RunStatus};
use gthinker_apps::maxclique::{candidate_graph, solve};
use gthinker_graph::graph::Graph;
use gthinker_graph::ids::VertexId;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A vertex-centric program: `compute` runs once per vertex per
/// superstep, consuming the messages sent to it in the previous one.
pub trait VertexProgram: Send + Sync {
    /// Message payload.
    type Message: Send + Sync + Clone;
    /// Final per-run output (aggregated by the program itself).
    type Output: Send;

    /// Per-vertex computation. Send messages via `ctx`. Returning
    /// `false` votes to halt (a vertex is re-activated by incoming
    /// messages).
    fn compute(
        &self,
        v: VertexId,
        graph: &Graph,
        superstep: usize,
        messages: &[Self::Message],
        ctx: &MessageCtx<'_, Self::Message>,
    ) -> bool;

    /// Size accounting for one message.
    fn message_bytes(msg: &Self::Message) -> usize;

    /// The program's final output after the run halts.
    fn output(&self) -> Self::Output;
}

/// Message-sending context handed to `compute`.
pub struct MessageCtx<'a, M> {
    outbox: &'a Mutex<Vec<(VertexId, M)>>,
}

impl<M> MessageCtx<'_, M> {
    /// Sends `msg` to vertex `to` for delivery next superstep.
    pub fn send(&self, to: VertexId, msg: M) {
        self.outbox.lock().push((to, msg));
    }
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct BspConfig {
    /// Worker threads per superstep.
    pub threads: usize,
    /// Abort when buffered message bytes exceed this (models OOM).
    pub memory_budget: u64,
    /// Abort when the wall clock exceeds this, also in mid-superstep.
    pub time_budget: Duration,
}

impl Default for BspConfig {
    fn default() -> Self {
        BspConfig { threads: 4, memory_budget: 4 << 30, time_budget: Duration::from_secs(3600) }
    }
}

/// Runs a vertex program to halting (or budget exhaustion).
pub fn run_bsp<P: VertexProgram>(
    graph: &Graph,
    program: &P,
    config: &BspConfig,
) -> RunOutcome<P::Output> {
    let start = Instant::now();
    let n = graph.num_vertices();
    let peak = AtomicU64::new(0);
    let mut inboxes: Vec<Vec<P::Message>> = (0..n).map(|_| Vec::new()).collect();
    let mut active: Vec<bool> = vec![true; n];
    let mut superstep = 0usize;
    loop {
        // Outboxes are per-thread to limit lock contention; sizes are
        // summed for the peak estimate.
        let outbox: Mutex<Vec<(VertexId, P::Message)>> = Mutex::new(Vec::new());
        let ctx = MessageCtx { outbox: &outbox };
        let halted: Vec<bool> = std::thread::scope(|s| {
            let chunk = n.div_ceil(config.threads).max(1);
            let handles: Vec<_> = (0..config.threads)
                .map(|t| {
                    let lo = (t * chunk).min(n);
                    let hi = ((t + 1) * chunk).min(n);
                    let inboxes = &inboxes;
                    let active = &active;
                    let ctx = &ctx;
                    s.spawn(move || {
                        let mut halted = Vec::with_capacity(hi - lo);
                        for i in lo..hi {
                            if start.elapsed() > config.time_budget {
                                break;
                            }
                            let v = VertexId(i as u32);
                            if !active[i] && inboxes[i].is_empty() {
                                halted.push(true);
                                continue;
                            }
                            let proceed = program.compute(v, graph, superstep, &inboxes[i], ctx);
                            halted.push(!proceed);
                        }
                        halted
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("bsp thread")).collect()
        });

        // Deliver: rebuild inboxes for the next superstep.
        let sent = outbox.into_inner();
        let msg_bytes: u64 = sent.iter().map(|(_, m)| P::message_bytes(m) as u64).sum();
        peak.fetch_max(msg_bytes, Ordering::Relaxed);
        let over = if start.elapsed() > config.time_budget {
            Some(RunStatus::TimeBudgetExceeded)
        } else if msg_bytes > config.memory_budget {
            Some(RunStatus::MemoryBudgetExceeded)
        } else {
            None
        };
        if let Some(status) = over {
            return RunOutcome {
                result: None,
                elapsed: start.elapsed(),
                peak_bytes: peak.load(Ordering::Relaxed),
                status,
            };
        }
        for inbox in &mut inboxes {
            inbox.clear();
        }
        let any_messages = !sent.is_empty();
        for (to, msg) in sent {
            inboxes[to.index()].push(msg);
        }
        for (i, h) in halted.iter().enumerate() {
            active[i] = !h;
        }
        superstep += 1;
        if !any_messages && active.iter().all(|a| !a) {
            break;
        }
    }
    RunOutcome {
        result: Some(program.output()),
        elapsed: start.elapsed(),
        peak_bytes: peak.load(Ordering::Relaxed),
        status: RunStatus::Completed,
    }
}

/// Vertex-centric triangle counting: in superstep 0 every vertex sends
/// `Γ_>(v)` to each larger neighbor; in superstep 1 each vertex
/// intersects received lists with its own `Γ_>`.
pub struct BspTriangleCount {
    total: AtomicU64,
}

impl BspTriangleCount {
    /// Fresh counter program.
    pub fn new() -> Self {
        BspTriangleCount { total: AtomicU64::new(0) }
    }
}

impl Default for BspTriangleCount {
    fn default() -> Self {
        Self::new()
    }
}

impl VertexProgram for BspTriangleCount {
    type Message = Vec<VertexId>;
    type Output = u64;

    fn compute(
        &self,
        v: VertexId,
        graph: &Graph,
        superstep: usize,
        messages: &[Vec<VertexId>],
        ctx: &MessageCtx<'_, Vec<VertexId>>,
    ) -> bool {
        match superstep {
            0 => {
                let gv = graph.neighbors(v).greater_than(v);
                if gv.len() >= 2 {
                    for &u in gv {
                        ctx.send(u, gv.to_vec());
                    }
                }
                false
            }
            _ => {
                let gv = graph.neighbors(v).greater_than(v);
                let mut local = 0u64;
                for msg in messages {
                    local += gthinker_graph::adj::count_intersect_sorted(msg, gv) as u64;
                }
                if local > 0 {
                    self.total.fetch_add(local, Ordering::Relaxed);
                }
                false
            }
        }
    }

    fn message_bytes(msg: &Vec<VertexId>) -> usize {
        24 + 4 * msg.len()
    }

    fn output(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }
}

/// Vertex-centric maximum clique: superstep 0 sends `Γ_>(u)` to every
/// *smaller* neighbor; superstep 1 builds each vertex's candidate graph
/// from the received lists and solves it serially — the G-thinker
/// app's task, through [`gthinker_apps::maxclique`]'s functions.
/// The message volume materializes every ego network simultaneously —
/// the blow-up Table III shows for Giraph.
pub struct BspMaxClique {
    best: Mutex<Vec<VertexId>>,
}

impl BspMaxClique {
    /// Fresh program.
    pub fn new() -> Self {
        BspMaxClique { best: Mutex::new(Vec::new()) }
    }
}

impl Default for BspMaxClique {
    fn default() -> Self {
        Self::new()
    }
}

impl VertexProgram for BspMaxClique {
    type Message = (VertexId, Vec<VertexId>);
    type Output = Vec<VertexId>;

    fn compute(
        &self,
        v: VertexId,
        graph: &Graph,
        superstep: usize,
        messages: &[(VertexId, Vec<VertexId>)],
        ctx: &MessageCtx<'_, (VertexId, Vec<VertexId>)>,
    ) -> bool {
        match superstep {
            0 => {
                let gv: Vec<VertexId> = graph.neighbors(v).greater_than(v).to_vec();
                for u in graph.neighbors(v).iter() {
                    if u < v {
                        ctx.send(u, (v, gv.clone()));
                    }
                }
                // Stay active: an anchor no larger neighbor writes to
                // still answers (a 1-clique) in superstep 1.
                true
            }
            _ => {
                // Every candidate u ∈ Γ_>(v) sent its row Γ_>(u), in
                // whatever order the threads' sends were delivered.
                let ext = graph.neighbors(v).greater_than(v);
                let mut rows: Vec<_> =
                    messages.iter().map(|(u, row)| (*u, row.as_slice())).collect();
                rows.sort_unstable_by_key(|&(u, _)| u);
                let g = candidate_graph(ext, rows);
                let bound = self.best.lock().len();
                offer(&self.best, solve(&[v], &g, bound));
                false
            }
        }
    }

    fn message_bytes(msg: &(VertexId, Vec<VertexId>)) -> usize {
        28 + 4 * msg.1.len()
    }

    fn output(&self) -> Vec<VertexId> {
        self.best.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gthinker_graph::gen;

    #[test]
    fn bsp_triangle_count_matches_known_values() {
        let g = gen::complete(6); // C(6,3) = 20
        let out = run_bsp(&g, &BspTriangleCount::new(), &BspConfig::default());
        assert!(out.completed());
        assert_eq!(out.result.unwrap(), 20);
        assert!(out.peak_bytes > 0, "messages were materialized");
    }

    #[test]
    fn bsp_triangle_count_matches_random() {
        for seed in 0..3 {
            let g = gen::gnp(80, 0.1, seed);
            let expected = {
                // Independent serial count.
                let mut c = 0u64;
                for u in g.vertices() {
                    let gu = g.neighbors(u).greater_than(u);
                    for &v in gu {
                        let gv = g.neighbors(v).greater_than(v);
                        c += gthinker_graph::adj::count_intersect_sorted(gu, gv) as u64;
                    }
                }
                c
            };
            let out = run_bsp(&g, &BspTriangleCount::new(), &BspConfig::default());
            assert_eq!(out.result.unwrap(), expected, "seed {seed}");
        }
    }

    #[test]
    fn bsp_max_clique_finds_planted() {
        let base = gen::gnp(150, 0.04, 2);
        let (g, members) = gen::plant_clique(&base, 8, 3);
        let out = run_bsp(&g, &BspMaxClique::new(), &BspConfig::default());
        assert!(out.completed());
        assert_eq!(out.result.unwrap(), members);
    }

    #[test]
    fn bsp_max_clique_answers_an_edgeless_graph() {
        let g = Graph::with_vertices(4);
        let out = run_bsp(&g, &BspMaxClique::new(), &BspConfig::default());
        assert_eq!(out.result.unwrap().len(), 1, "isolated vertices are 1-cliques");
    }

    #[test]
    fn memory_budget_aborts_run() {
        let g = gen::complete(40); // heavy neighborhood exchange
        let cfg = BspConfig { threads: 2, memory_budget: 64, ..Default::default() };
        let out = run_bsp(&g, &BspTriangleCount::new(), &cfg);
        assert_eq!(out.status, RunStatus::MemoryBudgetExceeded);
        assert!(out.result.is_none());
        assert_eq!(out.status_label(), "OOM");
    }

    #[test]
    fn time_budget_aborts_run() {
        let g = gen::complete(40);
        let cfg = BspConfig { threads: 2, time_budget: Duration::ZERO, ..Default::default() };
        let out = run_bsp(&g, &BspMaxClique::new(), &cfg);
        assert!(out.result.is_none());
        assert_eq!(out.status_label(), "timeout");
    }
}
