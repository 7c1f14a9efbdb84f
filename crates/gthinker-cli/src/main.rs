//! The `gthinker` binary — see [`gthinker_cli::usage`].

use std::io::{ErrorKind, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let written = gthinker_cli::run(args).map_err(|e| e.to_string()).and_then(|output| {
        let mut stdout = std::io::stdout().lock();
        match writeln!(stdout, "{output}").and_then(|()| stdout.flush()) {
            // The reader went away (`gthinker help | head -1`): a
            // normal end, like any other filter in a pipeline.
            Err(e) if e.kind() == ErrorKind::BrokenPipe => Ok(()),
            result => result.map_err(|e| format!("write to stdout: {e}")),
        }
    });
    if let Err(e) = written {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
