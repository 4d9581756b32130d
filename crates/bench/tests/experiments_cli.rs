//! Exit status of the `experiments` binary: a target whose JSON cannot be
//! written fails the run, and a run that wrote everything succeeds.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh scratch directory under the system temp dir, unique per test.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("comet-experiments-cli-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `experiments --out <out> table1`; table 1 needs no simulation.
fn table1_into(out: &std::path::Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments")).arg("--out").arg(out).arg("table1").output().unwrap()
}

#[test]
fn an_output_directory_under_a_regular_file_fails_the_run() {
    let dir = scratch("unwritable");
    let file = dir.join("not-a-directory");
    std::fs::write(&file, b"").unwrap();
    let output = table1_into(&file.join("sub"));
    std::fs::remove_dir_all(&dir).unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "a run that wrote nothing must fail; stderr: {stderr}");
    assert!(stderr.contains("not-a-directory/sub/table1.json"), "the error names the path: {stderr}");
    assert!(!String::from_utf8_lossy(&output.stdout).contains("Done."));
}

#[test]
fn a_writable_output_directory_succeeds_and_holds_the_json() {
    let dir = scratch("writable");
    let output = table1_into(&dir.join("out"));
    let written = std::fs::read_to_string(dir.join("out/table1.json"));
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    assert!(written.unwrap().starts_with('['));
}
