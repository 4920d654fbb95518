//! `seedscan` output does not depend on the worker count: `--threads`
//! sets the grid fan-out, the generation workers and the scan shards at
//! once, and every one of them must leave stdout byte-identical.

use std::process::Command;

fn rq1_stdout(threads: &str) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_seedscan"))
        .args(["rq1", "--scale", "tiny", "--budget", "300", "--threads", threads])
        .output()
        .expect("run seedscan");
    assert!(out.status.success(), "--threads {threads}: {}", String::from_utf8_lossy(&out.stderr));
    assert!(!out.stdout.is_empty(), "--threads {threads} rendered nothing");
    out.stdout
}

#[test]
fn rq1_stdout_is_identical_at_any_thread_count() {
    let base = rq1_stdout("1");
    for threads in ["2", "4"] {
        assert!(rq1_stdout(threads) == base, "--threads {threads} changed stdout");
    }
}
