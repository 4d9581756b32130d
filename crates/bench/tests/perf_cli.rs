//! Exit status and report of `perf --diff`, on small snapshot files written
//! here (no simulation runs) and on the committed `BENCH_*.json` snapshots,
//! and the flag combinations `perf` refuses before it runs anything.

use comet_bench::hotpath::{BasketResult, CellResult};
use serde::{Serialize, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh scratch directory under the system temp dir, unique per test.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("comet-perf-cli-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A two-cell basket (one benign, one attack cell) in which every cell and
/// the aggregate run at `accesses_per_sec`.
fn basket(scope: &str, accesses_per_sec: f64, checksums: [u64; 2]) -> BasketResult {
    let cell = |label: &str, checksum| CellResult {
        label: label.to_string(),
        channels: 1,
        mechanism: "CoMeT".to_string(),
        accesses: 1000,
        dram_cycles: 10_000,
        wall_s: 1000.0 / accesses_per_sec,
        accesses_per_sec,
        checksum,
    };
    let cells = vec![cell("429.mcf/ch1/CoMeT", checksums[0]), cell("429.mcf+attack/ch1/CoMeT", checksums[1])];
    BasketResult {
        scope: scope.to_string(),
        wall_s: 2000.0 / accesses_per_sec,
        accesses: 2000,
        accesses_per_sec,
        cells_per_sec: accesses_per_sec / 1000.0,
        cells,
    }
}

/// Writes a snapshot labelled `name` holding `sections` to `dir/name`.
fn write_snapshot(dir: &Path, name: &str, sections: &[(&str, BasketResult)]) -> PathBuf {
    let mut entries = vec![
        ("schema".to_string(), Value::Str("bench-perf/2".to_string())),
        ("label".to_string(), Value::Str(name.to_string())),
    ];
    entries.extend(sections.iter().map(|(section, basket)| (section.to_string(), basket.to_value())));
    let path = dir.join(name);
    std::fs::write(&path, serde_json::to_string_pretty(&Value::Map(entries)).unwrap() + "\n").unwrap();
    path
}

/// Runs `perf --diff OLD NEW` with `extra` arguments.
fn diff(old: &Path, new: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perf")).arg("--diff").arg(old).arg(new).args(extra).output().unwrap()
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn a_snapshot_against_itself_exits_0() {
    let dir = scratch("itself");
    let path = write_snapshot(&dir, "a.json", &[("smoke", basket("smoke", 1e6, [1, 2]))]);
    let output = diff(&path, &path, &[]);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(output.status.code(), Some(0), "stderr: {}", stderr(&output));
    assert!(
        stdout(&output).contains("| 429.mcf/ch1/CoMeT | 1000000 | 1000000 | 1.00x |"),
        "{}",
        stdout(&output)
    );
    assert!(stdout(&output).contains("- **smoke aggregate: 1.00x**"));
}

#[test]
fn a_changed_checksum_exits_1_and_names_the_cell() {
    let dir = scratch("drift");
    let old = write_snapshot(&dir, "old.json", &[("smoke", basket("smoke", 1e6, [1, 2]))]);
    let new = write_snapshot(&dir, "new.json", &[("smoke", basket("smoke", 1e6, [1, 3]))]);
    let output = diff(&old, &new, &[]);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(output.status.code(), Some(1));
    assert!(
        stdout(&output).contains("smoke checksums drifted for: 429.mcf+attack/ch1/CoMeT"),
        "{}",
        stdout(&output)
    );
    assert!(stderr(&output).contains("FAIL: 1 cell checksum(s) drifted"), "{}", stderr(&output));
}

#[test]
fn max_regress_gates_the_aggregate_throughput() {
    let dir = scratch("gate");
    let old = write_snapshot(&dir, "old.json", &[("smoke", basket("smoke", 1e6, [1, 2]))]);
    let slower = write_snapshot(&dir, "slower.json", &[("smoke", basket("smoke", 0.5e6, [1, 2]))]);
    let collapsed = write_snapshot(&dir, "collapsed.json", &[("smoke", basket("smoke", 0.2e6, [1, 2]))]);
    let ungated = diff(&old, &collapsed, &[]);
    let gated = diff(&old, &collapsed, &["--max-regress", "70"]);
    let within = diff(&old, &slower, &["--max-regress", "70"]);
    std::fs::remove_dir_all(&dir).unwrap();

    // A fall to 0.2x is only a finding; the gate makes it a failure.
    assert_eq!(ungated.status.code(), Some(0), "stderr: {}", stderr(&ungated));
    assert_eq!(gated.status.code(), Some(1));
    assert!(
        stdout(&gated).contains("- smoke gate: 200000 vs floor 300000 acc/s (max regression 70%): **FAIL**"),
        "{}",
        stdout(&gated)
    );
    assert!(
        stderr(&gated).contains("smoke throughput fell below the --max-regress floor"),
        "{}",
        stderr(&gated)
    );
    // The gate adds its bullet and changes nothing else in the report.
    let without_gate: String = stdout(&gated)
        .lines()
        .filter(|line| !line.starts_with("- smoke gate:"))
        .map(|line| line.to_string() + "\n")
        .collect();
    assert_eq!(without_gate, stdout(&ungated));

    // A fall to 0.5x is inside a 70 % bound.
    assert_eq!(within.status.code(), Some(0), "stderr: {}", stderr(&within));
    assert!(stdout(&within).contains("- smoke gate: 500000 vs floor 300000 acc/s (max regression 70%): ok"));
}

#[test]
fn snapshots_with_no_shared_section_exit_2() {
    let dir = scratch("disjoint");
    let smoke = write_snapshot(&dir, "smoke.json", &[("smoke", basket("smoke", 1e6, [1, 2]))]);
    let tracker = write_snapshot(&dir, "tracker.json", &[("tracker", basket("tracker", 1e7, [1, 2]))]);
    let output = diff(&smoke, &tracker, &[]);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(output.status.code(), Some(2));
    assert!(stderr(&output).contains("share no basket or suite section"), "{}", stderr(&output));
}

#[test]
fn each_committed_snapshot_against_itself_exits_0() {
    for name in ["BENCH_hotpath.json", "BENCH_tracker.json"] {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(name);
        let output = diff(&path, &path, &[]);
        assert_eq!(output.status.code(), Some(0), "{name}: {}", stderr(&output));
        assert!(!stdout(&output).contains("drifted"), "{name}: {}", stdout(&output));
    }
}

#[test]
fn tracker_refuses_the_basket_flags_with_exit_2() {
    for extra in [&["--cells", "smoke"][..], &["--suite"], &["--cells", "all", "--suite"]] {
        let output = Command::new(env!("CARGO_BIN_EXE_perf")).arg("--tracker").args(extra).output().unwrap();
        assert_eq!(output.status.code(), Some(2), "{extra:?}: {}", stdout(&output));
        assert!(
            stderr(&output).contains("--tracker runs the tracker suite alone; drop --cells and --suite"),
            "{extra:?}: {}",
            stderr(&output)
        );
        assert!(stdout(&output).is_empty(), "{extra:?} ran something: {}", stdout(&output));
    }
}
