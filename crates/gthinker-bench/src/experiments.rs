//! The experiment table. An experiment is one row of [`ROWS`] plus its
//! body in `experiments/<name>.rs` (`pub fn run(scale: f64)`); `paper
//! <name>`, `paper --list`, `paper all` and the tests read the rows and
//! nothing else names an experiment.

/// One experiment of the evaluation.
pub struct Row {
    /// What `paper <name>` runs; also the module holding the body.
    pub name: &'static str,
    /// The paper item it reproduces, as `paper all` announces it.
    pub banner: &'static str,
    /// The dataset scale `paper all` runs it at — the one the tables of
    /// EXPERIMENTS.md were recorded with — and `paper <name>`'s default.
    pub scale: f64,
    /// The body, given the scale to run at.
    pub run: fn(f64),
}

// Declared by hand, not by the macro below: rustfmt and rust-analyzer
// find a file only through a `mod` item they can see. The test at the
// bottom holds the two lists, and the files on disk, together.
pub mod ablations;
pub mod bundling_effect;
pub mod fig2_crossover;
pub mod graph_storage;
pub mod kernel_crossover;
pub mod metrics_overhead;
pub mod net_throughput;
pub mod nscale_phases;
pub mod ordering_effect;
pub mod sched_cluster;
pub mod sched_tail;
pub mod table2_datasets;
pub mod table3_systems;
pub mod table4a_horizontal;
pub mod table4b_vertical;
pub mod table4c_single;
pub mod table5a_cache;
pub mod table5b_alpha;
pub mod table_single_machine;

macro_rules! rows {
    ($($name:ident @ $scale:literal: $banner:literal;)*) => {
        &[$(Row { name: stringify!($name), banner: $banner, scale: $scale, run: $name::run }),*]
    };
}

/// Every experiment, in the order `paper all` runs them.
pub const ROWS: &[Row] = rows! {
    table2_datasets @ 1.0: "Table II — datasets";
    table3_systems @ 0.2: "Table III — distributed systems comparison";
    table_single_machine @ 1.0: "§VI — single-machine systems (RStream-like, Nuri-like)";
    table4a_horizontal @ 0.35: "Table IV(a) — horizontal scalability";
    table4b_vertical @ 0.3: "Table IV(b) — vertical scalability";
    table4c_single @ 0.6: "Table IV(c) — single-machine scalability";
    table5a_cache @ 0.5: "Table V(a) — vertex cache capacity";
    table5b_alpha @ 0.5: "Table V(b) — GC overflow tolerance α";
    fig2_crossover @ 1.0: "Fig. 2 — IO vs CPU crossover";
    kernel_crossover @ 0.7: "Kernel selection — sorted-list vs bitset miners";
    ordering_effect @ 0.6: "§VI — vertex-ordering effect (Skitter anomaly)";
    bundling_effect @ 0.4: "Future work [38] — low-degree task bundling";
    nscale_phases @ 0.3: "§II — NScale construct-then-mine phases";
    ablations @ 0.35: "Design ablations";
    sched_tail @ 1.0: "Tail-latency scheduler — intra-worker stealing + parking";
    sched_cluster @ 1.0: "Cluster-wide stealing — straggler splitting ablations";
    metrics_overhead @ 1.0: "Observability — metrics & tracing overhead";
    net_throughput @ 1.0: "TCP data plane — loopback mesh throughput";
    graph_storage @ 1.0: "Compressed storage — ratio, decode cost, peak RSS";
};

#[cfg(test)]
mod tests {
    use super::ROWS;
    use std::collections::BTreeSet;

    /// The experiment names a document's commands run: the word after
    /// `gthinker-bench --release -- `, or after the `... -- ` that
    /// abbreviates it in a table.
    fn mentioned(doc: &str) -> BTreeSet<&str> {
        ["gthinker-bench --release -- ", "`... -- "]
            .iter()
            .flat_map(|marker| doc.match_indices(marker).map(|(i, _)| &doc[i + marker.len()..]))
            .map(|rest| {
                let end = rest.find(|c: char| c != '_' && !c.is_ascii_alphanumeric());
                &rest[..end.unwrap_or(rest.len())]
            })
            .filter(|name| !name.is_empty() && *name != "all")
            .collect()
    }

    #[test]
    fn rows_are_unique_and_one_per_file() {
        let names: BTreeSet<&str> = ROWS.iter().map(|r| r.name).collect();
        assert_eq!(names.len(), ROWS.len());
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/experiments");
        let files: BTreeSet<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path().file_stem().unwrap().to_str().unwrap().to_string())
            .collect();
        assert_eq!(files, names.iter().map(|n| n.to_string()).collect());
    }

    #[test]
    fn the_documents_name_the_rows_and_nothing_else() {
        let rows: BTreeSet<&str> = ROWS.iter().map(|r| r.name).collect();
        // DESIGN.md §4 is the index: every row, once at least.
        assert_eq!(mentioned(include_str!("../../../DESIGN.md")), rows, "DESIGN.md");
        let readme = mentioned(include_str!("../../../README.md"));
        let experiments = mentioned(include_str!("../../../EXPERIMENTS.md"));
        for (doc, names) in [("README.md", &readme), ("EXPERIMENTS.md", &experiments)] {
            let stray: Vec<&str> = names.difference(&rows).copied().collect();
            assert!(stray.is_empty(), "{doc} runs experiments that are no row: {stray:?}");
        }
        assert!(experiments.len() >= 14, "the markers no longer match EXPERIMENTS.md's commands");
    }
}
