//! The `lc-serve` binary end to end: it reads its own "listening on"
//! line, discards whatever arrives on stdin without buffering it, and
//! drains and exits cleanly when stdin closes.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

/// Bytes piped into the server's stdin before it is closed.
const STDIN_BYTES: usize = 256 << 20;

/// Peak resident set size of process `pid` in kB (`VmHWM`).
#[cfg(target_os = "linux")]
fn peak_rss_kb(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap();
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[test]
fn stdin_is_drained_without_buffering_and_eof_shuts_down() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_lc-serve"))
        .args(["--addr", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lc-serve");

    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut first = String::new();
    stdout.read_line(&mut first).unwrap();
    assert!(first.contains("listening on"), "first line: {first:?}");

    let mut stdin = child.stdin.take().unwrap();
    let zeros = vec![0u8; 1 << 20];
    for _ in 0..STDIN_BYTES / zeros.len() {
        stdin.write_all(&zeros).unwrap();
    }

    // Read the peak before closing stdin, and assert on it only after
    // the server has exited, so a failing run leaves no process behind.
    #[cfg(target_os = "linux")]
    let peak_kb = peak_rss_kb(child.id());

    drop(stdin);
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "exit {:?}; stderr: {stderr}",
        out.status
    );
    assert!(stderr.contains("drained"), "stderr: {stderr}");
    #[cfg(target_os = "linux")]
    assert!(
        peak_kb < 64 * 1024,
        "lc-serve peaked at {peak_kb} kB after {STDIN_BYTES} bytes of stdin"
    );
}
