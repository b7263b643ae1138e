//! The `exp` binary end to end: what `exp all --quick` leaves behind,
//! and the exit statuses CI relies on.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use uap_core::experiments::TABLE;

fn exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args)
        .output()
        .expect("exp binary runs")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uap_exp_cli_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The first key that appears twice in one object of a report. A report
/// is one `"key": value` leaf per line, its objects (`config`, `values`,
/// …) opened by a two-space-indented key.
fn duplicate_key(report: &str) -> Option<&str> {
    let mut seen = BTreeSet::new();
    let mut object = "";
    for line in report.lines() {
        let Some((key, _)) = line.split_once("\": ") else {
            continue;
        };
        if !key.starts_with("    ") {
            object = key;
        }
        if !seen.insert((object, key)) {
            return Some(key.trim_start());
        }
    }
    None
}

#[test]
fn quick_suite_writes_every_declared_artifact_with_unique_report_keys() {
    let out = scratch("all");
    let run = exp(&[
        "all",
        "--quick",
        "--seed",
        "42",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let twice = "  \"values\": {\n    \"k\": \"1\",\n    \"k\": \"2\"\n  }";
    assert_eq!(
        duplicate_key(twice),
        Some("\"k"),
        "the scan sees a duplicate"
    );
    let non_empty = |p: &Path| std::fs::metadata(p).map(|m| m.len() > 0).unwrap_or(false);
    let listed = String::from_utf8(exp(&["list", "--csvs"]).stdout).unwrap();
    let listed: Vec<&str> = listed.lines().collect();
    for e in &TABLE {
        for stem in e.csvs.iter().chain(e.dumps) {
            assert!(listed.contains(stem), "{stem} not in `exp list --csvs`");
            assert!(non_empty(&out.join(format!("{stem}.csv"))), "{stem}.csv");
        }
        let report = std::fs::read_to_string(out.join(format!("{}.report.json", e.name)))
            .unwrap_or_else(|err| panic!("{}: {err}", e.name));
        assert_eq!(duplicate_key(&report), None, "{}", e.name);
        // exp03, exp07, exp12 and exp18 repeat first cells within or
        // across their tables; every cell must still be in the report.
        let cells: usize = e
            .csvs
            .iter()
            .map(|stem| {
                let csv = std::fs::read_to_string(out.join(format!("{stem}.csv"))).unwrap();
                let t = uap_core::Table::from_csv(stem, &csv).unwrap();
                t.len() * (t.header().len() - 1)
            })
            .sum();
        let keyed = report.lines().filter(|l| {
            let key = l.trim_start();
            e.csvs
                .iter()
                .any(|stem| key.starts_with(&format!("\"{stem}/")))
        });
        assert_eq!(keyed.count(), cells, "{}: cells in report", e.name);
    }
    let declared: usize = TABLE.iter().map(|e| e.csvs.len() + e.dumps.len()).sum();
    assert_eq!(listed.len(), declared);
    let _ = std::fs::remove_dir_all(out);
}

#[test]
fn unwritable_out_exits_nonzero_naming_the_path() {
    let run = exp(&["exp02", "--quick", "--out", "/dev/null/x"]);
    assert_eq!(run.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        stderr.contains("/dev/null/x/exp02_cost_relations.csv"),
        "{stderr}"
    );
}

#[test]
fn a_trace_that_lost_events_fails_the_run() {
    // /dev/full accepts the open and refuses every write.
    if !Path::new("/dev/full").exists() {
        return;
    }
    let out = scratch("lost_trace");
    let run = exp(&[
        "exp04",
        "--quick",
        "--out",
        out.to_str().expect("utf-8 temp dir"),
        "--trace",
        "/dev/full",
    ]);
    assert_eq!(run.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&run.stderr);
    let lost: u64 = stderr
        .split_once("/dev/full: trace lost ")
        .and_then(|(_, rest)| rest.split_once(" event(s)"))
        .and_then(|(n, _)| n.parse().ok())
        .unwrap_or_else(|| panic!("no drop count in:\n{stderr}"));
    assert!(lost > 0);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(!stdout.contains("(trace written to"), "{stdout}");
    let _ = std::fs::remove_dir_all(out);
}

#[test]
fn unknown_id_exits_2_and_prints_the_table() {
    let run = exp(&["nope"]);
    assert_eq!(run.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&run.stdout);
    for e in &TABLE {
        assert!(
            stdout.contains(e.name),
            "{} missing from:\n{stdout}",
            e.name
        );
    }
    assert_eq!(exp(&[]).status.code(), Some(2));
    assert_eq!(exp(&["exp02", "--bogus"]).status.code(), Some(2));
    assert_eq!(
        exp(&["all", "--trace", "/tmp/t.jsonl"]).status.code(),
        Some(2)
    );
    assert_eq!(exp(&["list", "--bogus"]).status.code(), Some(2));
    assert_eq!(exp(&["doc", "--quick"]).status.code(), Some(2));
}

#[test]
fn help_prints_the_one_usage_wherever_it_is_asked() {
    let top = exp(&["--help"]);
    let row = exp(&["exp17", "--help"]);
    assert_eq!(top.status.code(), Some(0));
    assert_eq!(row.status.code(), Some(0));
    assert_eq!(top.stdout, row.stdout);
    let usage = String::from_utf8(top.stdout).unwrap();
    assert!(usage.starts_with("usage: exp <id>|all|list"), "{usage}");
    // A flag error ends in the same text.
    let bad = exp(&["exp02", "--seed", "x"]);
    assert_eq!(bad.status.code(), Some(2));
    let stderr = String::from_utf8(bad.stderr).unwrap();
    assert!(stderr.ends_with(&usage), "{stderr}");
}

/// No host-time figure is printed, so a run's stdout is a function of
/// its arguments; the report's `wall_secs` line is the only wall-clock
/// reading a run leaves anywhere.
#[test]
fn same_seed_runs_print_the_same_bytes() {
    let out = scratch("stdout");
    for (id, name) in [
        ("exp17", "exp17_fault_scale"),
        ("exp18", "exp18_congestion"),
    ] {
        let run = || {
            let done = exp(&[
                id,
                "--quick",
                "--seed",
                "42",
                "--out",
                out.to_str().unwrap(),
            ]);
            assert!(done.status.success(), "{id}");
            let report = std::fs::read_to_string(out.join(format!("{name}.report.json")));
            (String::from_utf8(done.stdout).unwrap(), report.unwrap())
        };
        let ((stdout_a, report_a), (stdout_b, report_b)) = (run(), run());
        assert_eq!(stdout_a, stdout_b, "{id}: stdout");
        assert!(!stdout_a.lines().any(|l| l.starts_with("PERF")), "{id}");
        assert_eq!(report_a.lines().count(), report_b.lines().count());
        for (a, b) in report_a.lines().zip(report_b.lines()) {
            assert!(a == b || a.trim_start().starts_with("\"wall_secs\""), "{a}");
        }
    }
    let _ = std::fs::remove_dir_all(out);
}
