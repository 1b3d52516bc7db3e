//! The benchmark's own end-to-end test: a workload run twice with the
//! same seed prints identical work counters and a well-formed result
//! line. The counters are not compared against a stored copy.

use std::process::Command;

use mc_json::Json;

/// `(counters line, result line)` of one short run.
fn run(workload: &str, seed: &str) -> (String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            seed,
            "--seconds",
            "0.1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark starts");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let counters = stdout
        .lines()
        .find(|l| l.starts_with("counters: "))
        .expect("a counters line")
        .to_string();
    let last = stdout.lines().last().expect("a result line");
    (
        counters,
        Json::parse(last).expect("the result line is JSON"),
    )
}

#[test]
fn work_counters_repeat_exactly() {
    let (a, result) = run("paper-repro", "11");
    let (b, _) = run("paper-repro", "11");
    assert_eq!(a, b);
    assert!(a.contains("\"memsim.engine.solver_invocations\":"), "{a}");
    assert!(!a.contains("\"memsim.engine.events\":0,"), "{a}");

    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
    let metrics = result.get("metrics").expect("metrics");
    for name in [
        "setup_s",
        "op_ms.p10",
        "op_ms.p99",
        "peak_rss_kb",
    ] {
        let v = metrics
            .get(name)
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert!(v.is_some_and(|v| v > 0.0), "{name}: {v:?}");
    }
}

#[test]
fn sched_counters_repeat_exactly() {
    let (a, result) = run("sched-fleet", "11");
    let (b, _) = run("sched-fleet", "11");
    assert_eq!(a, b);
    assert!(!a.contains("\"sched.simulations\":0,"), "{a}");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
}

#[test]
fn bad_flags_exit_with_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
