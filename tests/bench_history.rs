//! The committed performance trajectory: every `BENCH_<n>.json` at the
//! repository root is a `benchmark all` results file (schema 1) that
//! names the commit it measured and passed every check it ran.
//!
//! The files are read with the benchmark package's own JSON reader, the
//! one `benchmark compare` reads them with, compiled in by path so the
//! root package gains no dependency on the standalone `benchmark/`.

#[cfg(test)]
#[expect(
    dead_code,
    reason = "the writer half of the benchmark's JSON module is unused here"
)]
#[path = "../benchmark/src/json.rs"]
mod json;

use json::Json;
use std::path::PathBuf;

#[test]
fn every_bench_file_parses_names_its_commit_and_failed_no_check() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<PathBuf> = std::fs::read_dir(&root)
        .expect("read the repository root")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no BENCH_*.json at the repository root");
    for path in files {
        let name = path.display();
        let text = std::fs::read_to_string(&path).expect("readable results file");
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            doc.get("schema").and_then(Json::as_f64),
            Some(1.0),
            "{name}"
        );
        let commit = doc
            .get("meta")
            .and_then(|m| m.get("commit"))
            .and_then(Json::as_str)
            .unwrap_or_default();
        assert!(
            commit.len() == 40 && commit.bytes().all(|b| b.is_ascii_hexdigit()),
            "{name}: commit {commit:?} is not a 40-hex id"
        );
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap_or_default();
        assert!(!workloads.is_empty(), "{name}: no workloads");
        for w in workloads {
            let id = w.get("workload").and_then(Json::as_str).unwrap_or("?");
            for block in ["checks", "traced_checks"] {
                let failed = w
                    .get(block)
                    .and_then(|c| c.get("failed"))
                    .and_then(Json::as_f64);
                assert_eq!(failed, Some(0.0), "{name}: {id} {block}.failed");
            }
        }
    }
}
