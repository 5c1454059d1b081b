//! `runner --help` / `-h` print the usage block and exit 0 instead of
//! launching the default (ref-scale, whole-suite) grid.

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
