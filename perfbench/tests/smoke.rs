//! A tiny-world run of every workload, untraced and traced: every check
//! the benchmark makes (byte-compared responses, the ingest re-stream,
//! the report digest) must pass, and the result line must be well
//! formed.

use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["serve-zipf", "serve-point", "ingest-live", "study-report"];

fn result_line(workload: &str, trace: &str) -> String {
    let fixtures = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    let out = Command::new(env!("CARGO_BIN_EXE_tagdist-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .args(["--videos", "3000", "--report-videos", "2000", "--fixtures"])
        .arg(&fixtures)
        .output()
        .expect("the benchmark binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stderr}"
    );
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    stdout.lines().last().expect("a result line").to_owned()
}

#[test]
fn every_workload_passes_its_checks_untraced_and_traced() {
    for workload in WORKLOADS {
        for (trace, metric) in [("0", "\"setup_s\""), ("1", "\"bench.setup_residual_s\"")] {
            let result = result_line(workload, trace);
            assert!(
                result.starts_with("{\"correct\": true, "),
                "{workload}/{trace}: {result}"
            );
            assert!(
                result.contains("\"failed\": 0, "),
                "{workload}/{trace}: {result}"
            );
            assert!(result.contains(metric), "{workload}/{trace}: {result}");
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_tagdist-perfbench"))
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
        ])
        .output()
        .expect("the benchmark binary starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
