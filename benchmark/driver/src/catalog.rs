//! The names, units and bounds of every metric the benchmark reports —
//! the same list `BENCHMARK.json` at the repository root declares (a
//! unit test holds the two together).

/// An end-to-end metric: name, unit, and the share of the parent's
/// median by which it may get worse before a change counts as a
/// regression. All are better lower.
///
/// The time bounds are what the 2-vCPU shared host the benchmark was
/// written on can resolve: ten 20-second runs of one build there spread
/// (IQR ÷ median) by 7–19% in `wall_s` and `cpu_s` on the two-process
/// workloads whatever statistic summarises a run, because the host
/// drifts between runs, not between jobs. A bound has to sit well clear
/// of that or every comparison is unresolved.
pub const END_TO_END: [(&str, &str, f64); 4] = [
    ("wall_s", "s", 0.25),
    ("cpu_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.10),
    ("setup_s", "s", 0.25),
];

/// Reported by a suite run beside [`END_TO_END`]; its bound is zero (any
/// failed repetition is a regression). A time-boxed run reports the
/// same thing as `attempted` and `failed`.
pub const FAILED_SHARE: (&str, &str, f64) = ("failed_share", "ratio", 0.0);

/// Per-layer metrics in report order: name, unit, and whether a higher
/// value is the better one.
pub const PER_LAYER: [(&str, &str, bool); 57] = [
    ("graph.load_bin_s", "s", false),
    ("graph.open_gtc_s", "s", false),
    ("graph.build_gtc_s", "s", false),
    ("graph.csr_adj_ns", "ns", false),
    ("graph.gtc_adj_ns", "ns", false),
    ("graph.gtc_bytes_per_edge", "B", false),
    ("graph.to_local_ns", "ns", false),
    ("store.hit_ns", "ns", false),
    ("store.miss_ns", "ns", false),
    ("store.hit_2t_ns", "ns", false),
    ("store.gc_evict_ns", "ns", false),
    ("store.local_get_ns", "ns", false),
    ("store.lazy_get_ns", "ns", false),
    ("task.queue_ns", "ns", false),
    ("task.pending_ns", "ns", false),
    ("task.encode_ns", "ns", false),
    ("task.decode_ns", "ns", false),
    ("task.bytes_per_task", "B", false),
    ("task.spill_mb_s", "MB/s", true),
    ("task.refill_mb_s", "MB/s", true),
    ("net.encode_ns", "ns", false),
    ("net.decode_ns", "ns", false),
    ("net.seal_ns", "ns", false),
    ("net.open_ns", "ns", false),
    ("net.bytes_per_pull", "B", false),
    ("net.tcp_rtt_us", "us", false),
    ("net.tcp_msgs_s", "1/s", true),
    ("net.sim_msgs_s", "1/s", true),
    ("apps.tc_ns", "ns", false),
    ("apps.mc_ns", "ns", false),
    ("apps.mcf_ns", "ns", false),
    ("core.job_s", "s", false),
    ("core.compute_s", "s", false),
    ("core.idle_s", "s", false),
    ("core.compute_share", "ratio", true),
    ("core.unattributed_share", "ratio", false),
    ("core.tasks", "count", false),
    ("core.cache_hits", "count", true),
    ("core.cache_misses", "count", false),
    ("core.net_bytes", "B", false),
    ("core.frames_per_writev", "ratio", true),
    ("core.pull_rtt_p50_us", "us", false),
    ("core.pull_rtt_p99_us", "us", false),
    ("core.steal_tasks", "count", false),
    ("core.spill_bytes", "B", false),
    ("core.parks", "count", false),
    ("core.floor_p75_ms", "ms", false),
    ("cli.load_exit_s", "s", false),
    ("cli.noop_ms", "ms", false),
    ("bench.trace_overhead_pct", "%", false),
    ("bench.model_cpu_s", "s", false),
    ("bench.model_coverage", "ratio", true),
    ("bench.model_share_apps", "ratio", false),
    ("bench.model_share_graph", "ratio", false),
    ("bench.model_share_store", "ratio", false),
    ("bench.model_share_task", "ratio", false),
    ("bench.model_share_net", "ratio", false),
];
