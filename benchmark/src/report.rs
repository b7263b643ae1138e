//! Printing detail documents, and `all`: every workload as child
//! processes of this binary, merged into `out/results.json`.

use crate::json::Json;
use crate::run::{detail_path, out_dir};
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn text<'a>(doc: &'a Json, key: &str) -> &'a str {
    doc.get(key).and_then(Json::as_str).unwrap_or("")
}

fn number(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// Prints one detail document: identity line, every metric by name with
/// its unit (median, min, max and n for end-to-end metrics), the checks.
pub fn print_detail(doc: &Json) {
    println!(
        "workload {} seed {} unit \"{}\" units {} sim_digest {}",
        text(doc, "workload"),
        number(doc, "seed"),
        text(doc, "unit"),
        number(doc, "units"),
        text(doc, "sim_digest"),
    );
    if let Some(metrics) = doc.get("end_to_end").and_then(Json::as_obj) {
        for (name, m) in metrics {
            println!(
                "  {:<14} {:<5} median {:<16} min {:<16} max {:<16} n {}",
                name,
                text(m, "unit"),
                number(m, "median"),
                number(m, "min"),
                number(m, "max"),
                number(m, "n"),
            );
        }
    }
    if let Some(metrics) = doc.get("per_layer").and_then(Json::as_obj) {
        for (name, m) in metrics {
            println!(
                "  {:<42} {:<6} {}",
                name,
                text(m, "unit"),
                number(m, "value")
            );
        }
    }
    if let Some(checks) = doc.get("checks") {
        println!(
            "  checks attempted {} failed {}",
            number(checks, "attempted"),
            number(checks, "failed")
        );
        for f in checks.get("failures").and_then(Json::as_arr).unwrap_or(&[]) {
            println!("  FAILED: {}", f.as_str().unwrap_or("?"));
        }
    }
}

/// Whether a detail document records a failed check.
pub fn has_failures(doc: &Json) -> bool {
    doc.get("checks").map(|c| number(c, "failed")) != Some(0.0)
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// What `all` runs.
pub struct AllOptions {
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// Seed handed to every child.
    pub seed: u64,
    /// Seconds each measured child measures for.
    pub seconds: f64,
    /// One-tenth scale, one iteration.
    pub smoke: bool,
}

/// Runs one child of this binary in contract mode and reads back the
/// detail file it wrote. The child is waited for before this returns.
fn child(opts: &AllOptions, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::null());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let path = detail_path(workload, trace);
    let _ = std::fs::remove_file(&path);
    let status = cmd
        .status()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("{workload} ({status}) left no {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs the workloads (measured child, then traced child, each in its
/// own process so `peak_rss_mb` is its own), prints every metric, and
/// writes `out/results.json`. Returns the results path and whether every
/// check held.
pub fn all(opts: &AllOptions) -> Result<(PathBuf, bool), String> {
    let mut merged = Vec::new();
    let mut clean = true;
    for workload in &opts.workloads {
        let measured = child(opts, workload, false)?;
        print_detail(&measured);
        let traced = child(opts, workload, true)?;
        println!("per-layer ledger of {workload} (traced run):");
        print_detail(&traced);
        println!();
        clean &= !has_failures(&measured) && !has_failures(&traced);
        let Json::Obj(mut doc) = measured else {
            return Err(format!("{workload}: detail file is not an object"));
        };
        doc.push((
            "per_layer".to_owned(),
            traced.get("per_layer").cloned().unwrap_or(Json::Null),
        ));
        doc.push((
            "traced_checks".to_owned(),
            traced.get("checks").cloned().unwrap_or(Json::Null),
        ));
        merged.push(Json::Obj(doc));
    }
    let meta = Json::obj([
        ("seed", Json::from(opts.seed)),
        ("seconds", Json::from(opts.seconds)),
        ("smoke", Json::from(opts.smoke)),
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, |p| p.get())),
        ),
        ("rustc", Json::from(tool_line("rustc", &["--version"]))),
        (
            "commit",
            Json::from(tool_line("git", &["rev-parse", "HEAD"])),
        ),
    ]);
    let results = Json::obj([
        ("schema", Json::from(1u64)),
        ("meta", meta),
        ("workloads", Json::Arr(merged)),
    ]);
    let path = out_dir().join("results.json");
    std::fs::write(&path, results.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((path, clean))
}
