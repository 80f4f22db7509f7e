//! End-to-end test of `retimer serve` over the stdin/stdout NDJSON
//! protocol: submit real and garbage jobs, read the event stream,
//! close stdin (the portable drain signal), and check the exit code.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};

const BENCH_SOURCE: &str = "INPUT(G0)\nINPUT(G1)\nOUTPUT(G7)\nG3 = DFF(G6)\nG4 = AND(G0, G3)\nG5 = NOT(G1)\nG6 = OR(G4, G5)\nG7 = NAND(G6, G0)\n";

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cli-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `retimer serve` with the given cache dir, writes the request
/// lines, closes stdin, and returns (exit code, stdout lines).
fn run_serve(cache: &PathBuf, requests: &[String]) -> (i32, Vec<String>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_retimer"))
        .args(["serve", "--cache"])
        .arg(cache)
        .args(["--workers", "2", "--time-budget", "30"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("retimer serve starts");
    {
        let mut stdin = child.stdin.take().expect("stdin piped");
        for line in requests {
            writeln!(stdin, "{line}").expect("request written");
        }
        // Dropping stdin closes it: EOF is the drain signal.
    }
    let output = child.wait_with_output().expect("serve exits");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 protocol output");
    let lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    assert!(
        !lines.is_empty(),
        "no protocol output; stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    (output.status.code().unwrap_or(-1), lines)
}

fn line_with<'a>(lines: &'a [String], needle: &str) -> &'a str {
    lines
        .iter()
        .find(|l| l.contains(needle))
        .unwrap_or_else(|| panic!("no line containing `{needle}` in:\n{}", lines.join("\n")))
}

#[test]
fn serve_stdin_end_to_end() {
    let cache = tmpdir("e2e");
    let submit = format!(
        r#"{{"op":"submit","id":"cli-1","format":"bench","vectors":64,"frames":4,"source":{}}}"#,
        json_string(BENCH_SOURCE)
    );
    let garbage =
        r#"{"op":"submit","id":"cli-bad","format":"bench","source":"THIS IS NOT A NETLIST"}"#
            .to_string();
    let unknown = r#"{"op":"frobnicate"}"#.to_string();
    let (code, lines) = run_serve(&cache, &[submit, garbage, unknown]);

    assert_eq!(
        code,
        0,
        "clean drain must exit 0; output:\n{}",
        lines.join("\n")
    );
    assert!(
        lines[0].contains(r#""event":"ready""#),
        "first line is the ready banner: {}",
        lines[0]
    );
    line_with(&lines, r#""event":"accepted","id":"cli-1""#);

    // The real job completes with exit 0 and is not a cache hit on a
    // fresh cache directory.
    let done = line_with(&lines, r#""id":"cli-1","status":"done""#);
    assert!(done.contains(r#""exit":0"#), "clean solve exits 0: {done}");
    assert!(
        done.contains(r#""cached":false"#),
        "fresh cache cannot hit: {done}"
    );

    // The garbage job fails with the netlist exit code (2) and an error.
    let bad = line_with(&lines, r#""id":"cli-bad","status":"failed""#);
    assert!(bad.contains(r#""exit":2"#), "parse failure exits 2: {bad}");
    assert!(
        bad.contains(r#""error":"#),
        "failure carries the error: {bad}"
    );

    // Unknown ops get a protocol error, not a crash.
    line_with(&lines, r#""event":"error","context":"request""#);

    // EOF drains: the stream ends with the drained event.
    assert_eq!(
        lines.last().map(String::as_str),
        Some(r#"{"event":"drained"}"#),
        "stream must end with drained:\n{}",
        lines.join("\n")
    );
    let _ = std::fs::remove_dir_all(&cache);
}

/// A second daemon on the same cache directory serves a resubmission
/// from the result cache, and the `result` op returns the netlist.
#[test]
fn serve_cache_hit_across_daemon_restarts() {
    let cache = tmpdir("hit");
    let submit = |id: &str| {
        format!(
            r#"{{"op":"submit","id":"{id}","format":"bench","vectors":64,"frames":4,"source":{}}}"#,
            json_string(BENCH_SOURCE)
        )
    };

    let (code, lines) = run_serve(&cache, &[submit("first")]);
    assert_eq!(code, 0);
    let done = line_with(&lines, r#""id":"first","status":"done""#);
    assert!(done.contains(r#""cached":false"#), "{done}");

    // Same content + config under a new id and a new process: the
    // cache survives the restart and answers without re-solving.
    // `result` returns the cached netlist and report. The result op
    // races the async done event, so drain (EOF) first guarantees the
    // job is terminal only for the submit; query via a second process.
    let (code, lines) = run_serve(&cache, &[submit("second")]);
    assert_eq!(code, 0);
    let done = line_with(&lines, r#""id":"second","status":"done""#);
    assert!(
        done.contains(r#""cached":true"#),
        "restart must serve from cache: {done}"
    );
    let _ = std::fs::remove_dir_all(&cache);
}

/// A circuit whose SER is 0 before and after retiming (it has no
/// output), so its ΔSER compares 0 with 0.
const ZERO_SER_SOURCE: &str = "INPUT(a)\nq = DFF(a)\nx = NOT(q)\n";

/// A zero-SER job's sealed result parses back: `result` returns its
/// netlist, and a resubmission under a new id is served from the cache.
/// Driven one request at a time, because `result` does not wait for
/// the job.
#[test]
fn serve_returns_and_caches_a_zero_ser_result() {
    let cache = tmpdir("zero-ser");
    let mut child = Command::new(env!("CARGO_BIN_EXE_retimer"))
        .args(["serve", "--cache"])
        .arg(&cache)
        .args(["--workers", "1", "--time-budget", "30"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("retimer serve starts");
    let mut stdin = child.stdin.take().expect("stdin piped");
    let mut lines = BufReader::new(child.stdout.take().expect("stdout piped")).lines();
    let mut next_line_with = |needles: &[&str]| -> String {
        lines
            .by_ref()
            .map(|line| line.expect("utf-8 protocol output"))
            .find(|line| needles.iter().any(|n| line.contains(n)))
            .unwrap_or_else(|| panic!("stream ended before any of {needles:?}"))
    };
    let submit = |id: &str| {
        format!(
            r#"{{"op":"submit","id":"{id}","format":"bench","vectors":64,"frames":4,"source":{}}}"#,
            json_string(ZERO_SER_SOURCE)
        )
    };

    writeln!(stdin, "{}", submit("zero-1")).expect("request written");
    let done = next_line_with(&[r#""event":"done","id":"zero-1""#]);
    assert!(done.contains(r#""status":"done""#), "{done}");
    assert!(done.contains(r#""cached":false"#), "{done}");

    writeln!(stdin, r#"{{"op":"result","id":"zero-1"}}"#).expect("request written");
    let result = next_line_with(&[r#""event":"result""#, r#""context":"result""#]);
    assert!(
        result.contains(r#""event":"result","id":"zero-1""#),
        "{result}"
    );
    assert!(
        result.contains("DFF"),
        "the result carries the netlist: {result}"
    );

    writeln!(stdin, "{}", submit("zero-2")).expect("request written");
    let done = next_line_with(&[r#""event":"done","id":"zero-2""#]);
    assert!(done.contains(r#""status":"done""#), "{done}");
    assert!(
        done.contains(r#""cached":true"#),
        "a resubmission is served from the cache: {done}"
    );

    drop(stdin);
    assert_eq!(child.wait().expect("serve exits").code(), Some(0));
    let _ = std::fs::remove_dir_all(&cache);
}

/// Minimal JSON string encoder for building request lines.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
