//! `paper` — runs the experiments of [`gthinker_bench::experiments::ROWS`].

use gthinker_bench::experiments::ROWS;
use gthinker_bench::scale_arg;
use std::process::{Command, ExitCode};

const USAGE: &str = "\
usage: paper --list                 the experiments, their scale and what they reproduce
       paper <name> [--scale F]     one experiment (net_throughput also takes --smoke)
       paper all [--scale F]        every experiment, each in a process of its own,
                                    at its own scale unless F is given";

/// Runs every row as a child `paper <name> --scale F`: a fresh process
/// each, so the peak-RSS figures `graph_storage` reads off `VmHWM` are
/// its own and one failing experiment cannot take the others' output.
fn all(scale: Option<f64>) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let rule = "#".repeat(64);
    for row in ROWS {
        println!("\n{rule}\n## {}\n{rule}", row.banner);
        let scale = scale.unwrap_or(row.scale).to_string();
        let status = Command::new(&exe)
            .args([row.name, "--scale", &scale])
            .status()
            .map_err(|e| format!("{}: {e}", row.name))?;
        if !status.success() {
            return Err(format!("{}: {status}", row.name));
        }
    }
    println!("\nall harnesses completed");
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else { return Err(USAGE.to_string()) };
    let scale = scale_arg(&args[1..])?;
    match cmd.as_str() {
        "--list" => {
            for row in ROWS {
                println!("{:<21} {:<5} {}", row.name, row.scale, row.banner);
            }
            Ok(())
        }
        "all" => all(scale),
        name => {
            let row = ROWS
                .iter()
                .find(|r| r.name == name)
                .ok_or_else(|| format!("no experiment named {name}\n{USAGE}"))?;
            (row.run)(scale.unwrap_or(row.scale));
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
