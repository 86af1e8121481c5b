//! `trace_report` ends quietly when its reader goes away.
//!
//! A summary of 2,000 `generation` events is far beyond a pipe's 64-KiB
//! buffer, so with the reading end closed the binary's writes fail with
//! a broken pipe whatever the timing. That must end the output, not
//! panic: `trace_report trace.jsonl | head` is how a long summary is read.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// A trace of `n` `generation` events, written under the test's tmp dir.
fn generation_trace(name: &str, n: usize) -> PathBuf {
    let mut text = String::new();
    for gen in 0..n {
        writeln!(
            text,
            "{{\"ev\":\"generation\",\"t_ms\":{gen}.5,\"gen\":{gen},\"cohort\":50,\
             \"cache_hits\":12,\"cache_misses\":38,\"feasible\":50,\"front\":9,\
             \"hv\":1234.5678,\"best_obj0\":12.25,\"best_obj1\":45678.5}}"
        )
        .unwrap();
    }
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("write the trace");
    path
}

#[test]
fn a_reader_that_closes_early_ends_the_summary_quietly() {
    let trace = generation_trace("trace_report_pipe_closed.jsonl", 2_000);
    let mut child = Command::new(env!("CARGO_BIN_EXE_trace_report"))
        .arg(&trace)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run trace_report");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for trace_report");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(out.status.success(), "{:?}, stderr: {stderr}", out.status);
}

#[test]
fn a_reader_that_stays_gets_the_whole_summary() {
    let trace = generation_trace("trace_report_pipe_open.jsonl", 2_000);
    let out = Command::new(env!("CARGO_BIN_EXE_trace_report"))
        .arg(&trace)
        .output()
        .expect("run trace_report");
    assert!(out.status.success(), "{:?}", out.status);
    let summary = String::from_utf8_lossy(&out.stdout);
    assert!(summary.contains("search convergence (2000 generations)"));
    let rows = summary
        .lines()
        .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
        .count();
    assert_eq!(rows, 2_000, "{summary:.300}");
}
