//! The interaction check: what the per-layer probes say a job should
//! have cost, against what it did cost.
//!
//! `bench.model_cpu_s` = Σ (probe cost per operation × the traced run's
//! count of that operation); `bench.model_coverage` = model ÷ the CPU
//! time `wait4` measured. Coverage far below 1 means a layer nobody
//! probes is burning the CPU — "the parts must sum to the whole",
//! checked from outside the program.

use crate::workloads::{Layout, Miner, Workload};

/// The layers a model term is charged to, in report order.
pub const LAYERS: [&str; 5] = ["apps", "graph", "store", "task", "net"];

/// Modelled CPU seconds per layer (order of [`LAYERS`]), or `None` when
/// a metric the model needs is missing. `metric` looks a per-layer
/// metric of the same traced run up by name.
pub fn layer_seconds(w: &Workload, metric: &dyn Fn(&str) -> Option<f64>) -> Option<[f64; 5]> {
    let m = |name: &str| metric(name);
    let tasks = m("core.tasks")?;
    let hits = m("core.cache_hits")?;
    let misses = m("core.cache_misses")?;
    let tcp = matches!(w.layout, Layout::Tcp { .. });

    let kernel = match w.miner {
        Miner::Tc => "apps.tc_ns",
        Miner::Mc => "apps.mc_ns",
        Miner::Mcf => "apps.mcf_ns",
    };
    let apps = tasks * m(kernel)?;

    // Every spawn and every served pull reads one adjacency list.
    let reads = tasks + misses;
    let (graph_read, store_read) = if w.mapped {
        let decode = m("graph.gtc_adj_ns")?;
        (reads * decode, reads * (m("store.lazy_get_ns")? - decode).max(0.0))
    } else {
        (misses * m("graph.csr_adj_ns")?, reads * m("store.local_get_ns")?)
    };
    let to_local = match w.miner {
        Miner::Tc => 0.0,
        Miner::Mc | Miner::Mcf => tasks * m("graph.to_local_ns")?,
    };
    let graph = graph_read + to_local;

    let store = hits * m("store.hit_ns")? + misses * m("store.miss_ns")? + store_read;

    // A task parks in the pending table when it waits for a remote
    // vertex; at most one parked task per miss.
    let parked = tasks.min(misses);
    let spilled_mb = m("core.spill_bytes")? / 1e6;
    let spill_s = spilled_mb / m("task.spill_mb_s")? + spilled_mb / m("task.refill_mb_s")?;
    let task = tasks * m("task.queue_ns")? + parked * m("task.pending_ns")? + spill_s * 1e9;

    // The sim router hands `Message` values over in memory: no codec,
    // no frames.
    let net = if tcp {
        misses * (m("net.encode_ns")? + m("net.decode_ns")? + m("net.seal_ns")? + m("net.open_ns")?)
    } else {
        0.0
    };
    Some([apps, graph, store, task, net].map(|ns| ns / 1e9))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::find;

    fn probes(name: &str) -> Option<f64> {
        Some(match name {
            "core.tasks" => 1000.0,
            "core.cache_hits" => 5000.0,
            "core.cache_misses" => 400.0,
            "core.spill_bytes" => 2e6,
            "task.spill_mb_s" | "task.refill_mb_s" => 1000.0,
            "apps.tc_ns" => 4000.0,
            "apps.mc_ns" => 70_000.0,
            "graph.gtc_adj_ns" => 200.0,
            "store.lazy_get_ns" => 250.0,
            _ => 100.0,
        })
    }

    #[test]
    fn tc_over_tcp_charges_every_layer() {
        let [apps, graph, store, task, net] =
            layer_seconds(find("tc_pull_tcp").unwrap(), &probes).unwrap();
        assert_eq!(apps, 1000.0 * 4000.0 / 1e9);
        assert_eq!(graph, 400.0 * 100.0 / 1e9);
        assert_eq!(store, (5000.0 * 100.0 + 400.0 * 100.0 + 1400.0 * 100.0) / 1e9);
        assert_eq!(task, (1000.0 * 100.0 + 400.0 * 100.0 + 0.004 * 1e9) / 1e9);
        assert_eq!(net, 400.0 * 400.0 / 1e9);
    }

    #[test]
    fn mapped_storage_moves_reads_into_the_graph_layer() {
        let [_, graph, store, ..] = layer_seconds(find("tc_mapped_tcp").unwrap(), &probes).unwrap();
        assert_eq!(graph, 1400.0 * 200.0 / 1e9);
        assert_eq!(store, (5000.0 * 100.0 + 400.0 * 100.0 + 1400.0 * 50.0) / 1e9);
    }

    #[test]
    fn a_local_job_has_no_net_term_and_a_missing_probe_gives_no_model() {
        let [apps, graph, .., net] =
            layer_seconds(find("mc_compute_local").unwrap(), &probes).unwrap();
        assert_eq!(apps, 1000.0 * 70_000.0 / 1e9);
        assert_eq!(graph, (400.0 * 100.0 + 1000.0 * 100.0) / 1e9);
        assert_eq!(net, 0.0);
        let without = |name: &str| (name != "store.hit_ns").then(|| probes(name)).flatten();
        assert!(layer_seconds(find("tc_pull_tcp").unwrap(), &without).is_none());
    }
}
