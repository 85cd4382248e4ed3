//! The benchmark's own tests, on tiny workloads: every metric
//! `BENCHMARK.json` names is printed with a unit, and a corrupted report
//! or reply makes the correctness gate fail the run.

use std::path::PathBuf;
use std::process::Command;

/// Tiny sizes: the workloads' names divided by this.
const DIVISOR: &str = "20";

struct Run {
    success: bool,
    result: String,
    stderr: String,
}

fn perfbench(workload: &str, trace: &str, extra: &[&str]) -> Run {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{trace}"));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", trace, "--divisor", DIVISOR])
        .args(extra)
        .current_dir(&dir)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&output.stdout).to_string();
    Run {
        success: output.status.success(),
        result: stdout.lines().last().unwrap_or_default().to_string(),
        stderr: String::from_utf8_lossy(&output.stderr).to_string(),
    }
}

/// The metric names of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("name ends")].to_string())
        .collect()
}

/// Checks the result line: correct, and exactly the declared metrics,
/// each with a numeric value and a unit.
fn assert_prints_every_metric(run: &Run, section: &str) {
    assert!(run.success, "run failed:\n{}", run.stderr);
    assert!(
        run.result.starts_with("{\"correct\": true,"),
        "{}",
        run.result
    );
    let names = declared(section);
    assert!(!names.is_empty());
    for name in &names {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = run
            .result
            .find(&key)
            .unwrap_or_else(|| panic!("{name} missing from {}", run.result));
        let rest = &run.result[at + key.len()..];
        let (value, rest) = rest.split_once(", \"unit\": \"").expect("value then unit");
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("{name} has value {value:?}"));
        assert!(!rest.starts_with('"'), "{name} has an empty unit");
    }
    assert_eq!(
        run.result.matches("\"unit\": ").count(),
        names.len(),
        "metrics other than the declared {section} ones: {}",
        run.result
    );
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for workload in ["study-dense", "study-sparse-chaos", "serve-zipf"] {
        assert_prints_every_metric(&perfbench(workload, "0", &[]), "end_to_end");
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    for workload in ["study-dense", "study-sparse-chaos", "serve-zipf"] {
        assert_prints_every_metric(&perfbench(workload, "1", &[]), "per_layer");
    }
}

fn assert_gate_fails(run: &Run, why: &str) {
    assert!(!run.success, "a corrupted run must exit non-zero");
    assert!(
        run.result.starts_with("{\"correct\": false,"),
        "{}",
        run.result
    );
    assert!(!run.result.contains("\"failed\": 0,"), "{}", run.result);
    assert!(run.stderr.contains(why), "{}", run.stderr);
}

#[test]
fn a_corrupted_report_fails_the_gate() {
    for trace in ["0", "1"] {
        let run = perfbench("study-dense", trace, &["--corrupt", "report"]);
        assert_gate_fails(&run, "naive baseline");
    }
}

#[test]
fn a_corrupted_reply_fails_the_gate() {
    let run = perfbench("serve-zipf", "0", &["--corrupt", "reply"]);
    assert_gate_fails(&run, "replies differ from the reference");
}
