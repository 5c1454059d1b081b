//! `runner --help` / `-h` print the usage block and exit 0 instead of
//! launching the default (ref-scale, whole-suite) grid, a warm-up
//! longer than a workload fails before anything is prepared, and a
//! sampled run's telemetry sidecar carries its simulated throughput.

use std::process::Command;

#[test]
fn help_prints_the_module_doc_usage_and_exits_zero() {
    let doc = include_str!("../src/bin/runner.rs");
    for flag in ["--help", "-h"] {
        let out = Command::new(env!("CARGO_BIN_EXE_runner"))
            .arg(flag)
            .output()
            .expect("runner starts");
        assert!(out.status.success(), "runner {flag}: {:?}", out.status);
        let stdout = String::from_utf8(out.stdout).expect("utf-8 usage");
        let mut lines = stdout.lines();
        assert_eq!(
            lines.next(),
            Some("runner [--scale tiny|train|ref] [--threads N] [--warm N] [--window N]"),
            "runner {flag}"
        );
        // Every usage line is the module doc's, so the two cannot drift.
        for line in stdout.lines() {
            assert!(
                doc.contains(&format!("//! {line}\n")),
                "runner {flag}: usage line {line:?} is not in the module doc"
            );
        }
    }
}

/// `gobmk_like` at tiny scale is shorter than a 40k warm-up (the
/// Train/Ref default): the runner must refuse the grid up front instead
/// of measuring a zero-commit cell.
#[test]
fn warmup_past_the_program_end_exits_two_before_preparing() {
    let out = Command::new(env!("CARGO_BIN_EXE_runner"))
        .args([
            "--scale",
            "tiny",
            "--workloads",
            "gobmk_like",
            "--configs",
            "bl",
            "--warm",
            "40000",
        ])
        .output()
        .expect("runner starts");
    assert_eq!(out.status.code(), Some(2), "{:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("gobmk_like"), "stderr: {stderr}");
    assert!(stderr.contains("--warm 40000"), "stderr: {stderr}");
    assert!(
        !stderr.contains("workloads x"),
        "the grid must not start: {stderr}"
    );
}

/// `runner --sample` reports the aggregate simulated MIPS of its
/// measured intervals in the telemetry sidecar, as a plain grid does.
#[test]
fn sampled_sidecar_carries_aggregate_mips() {
    let dir = std::env::temp_dir().join(format!("r3dla-runner-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let sidecar = dir.join("sampled.telemetry.json");
    let out = Command::new(env!("CARGO_BIN_EXE_runner"))
        .args([
            "--scale",
            "tiny",
            "--workloads",
            "md5_like",
            "--configs",
            "bl",
            "--threads",
            "1",
            "--sample",
            "2:2000:functional",
            "--out",
        ])
        .arg(dir.join("sampled.json"))
        .env("R3DLA_TELEMETRY", &sidecar)
        .output()
        .expect("runner starts");
    let body = std::fs::read_to_string(&sidecar);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "{:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let body = body.expect("sidecar written");
    let mips = body
        .split("\"aggregate_mips\": ")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .expect("aggregate_mips field");
    assert!(
        mips.parse::<f64>().is_ok_and(|v| v > 0.0),
        "aggregate_mips {mips} in:\n{body}"
    );
}
