//! What `gthinker` does when its stdout cannot take the output: a
//! reader that went away is a normal end, anything else is an error.

use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_gthinker");

/// `gthinker help | head -1` where `head` is already gone: the read end
/// of the pipe is closed before the child is even spawned, so its first
/// write hits the broken pipe — no race to lose.
#[test]
fn a_closed_stdout_is_a_normal_end() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(BIN)
        .arg("help")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn gthinker");
    assert!(out.status.success(), "exit status {:?}", out.status);
    assert!(out.stderr.is_empty(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

/// Every other write error still fails the command.
#[test]
fn a_full_stdout_is_an_error() {
    let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else {
        return; // no /dev/full on this platform
    };
    let out = Command::new(BIN)
        .arg("help")
        .stdout(full)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn gthinker");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("write to stdout"), "{err}");
}
