//! The generated result tables of EXPERIMENTS.md.
//!
//! Each experiment's section holds one block
//!
//! ```text
//! <!-- exp:begin exp04 -->
//! …
//! <!-- exp:end -->
//! ```
//!
//! whose body [`rewrite`] replaces with a markdown rendering of that
//! row's result CSVs (its [`Experiment::csvs`]; raw dumps are not
//! rendered). Prose around the blocks is hand-written; numbers inside
//! them never are, and `ci/check.sh` fails when the committed file
//! differs from what `exp doc` writes.

use super::table::{self, Experiment, TABLE};
use crate::report::Table;
use std::io;
use std::path::Path;

const BEGIN: &str = "<!-- exp:begin ";
const END: &str = "<!-- exp:end -->";

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The body of `e`'s block: one captioned markdown table per CSV in
/// `dir`.
fn block(e: &Experiment, dir: &Path) -> io::Result<String> {
    let mut out = String::new();
    for stem in e.csvs {
        let path = dir.join(format!("{stem}.csv"));
        let csv = std::fs::read_to_string(&path)
            .map_err(|err| io::Error::new(err.kind(), format!("{}: {err}", path.display())))?;
        let t = Table::from_csv(stem, &csv)
            .map_err(|why| invalid(format!("{}: {why}", path.display())))?;
        out.push_str(&format!("\n`{stem}.csv`:\n\n{}", t.to_markdown()));
    }
    out.push('\n');
    Ok(out)
}

/// Returns `md` with the body of every `exp:begin <id>` … `exp:end` block
/// regenerated from the CSVs in `dir`. Fails on an unknown id, an
/// unclosed block, or a [`TABLE`] row with no block.
pub fn rewrite(md: &str, dir: &Path) -> io::Result<String> {
    let mut out = String::with_capacity(md.len());
    let mut seen = Vec::new();
    let mut lines = md.lines();
    while let Some(line) = lines.next() {
        out.push_str(line);
        out.push('\n');
        let Some(id) = line
            .strip_prefix(BEGIN)
            .and_then(|rest| rest.strip_suffix(" -->"))
        else {
            continue;
        };
        let e = table::find(id).ok_or_else(|| invalid(format!("block for unknown id {id:?}")))?;
        if !lines.any(|l| l == END) {
            return Err(invalid(format!("block {id} is never closed")));
        }
        out.push_str(&block(e, dir)?);
        out.push_str(END);
        out.push('\n');
        seen.push(id);
    }
    match TABLE.iter().find(|e| !seen.contains(&e.id)) {
        Some(e) => Err(invalid(format!("no block for {}", e.id))),
        None => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("uap_doc_test_{tag}"));
        for e in &TABLE {
            for stem in e.csvs {
                let mut t = Table::new("", &["k", stem]);
                t.row(&["a|b".into(), "1".into()]);
                t.write_csv(dir.join(format!("{stem}.csv"))).unwrap();
            }
        }
        dir
    }

    fn skeleton() -> String {
        TABLE
            .iter()
            .map(|e| {
                format!(
                    "## {}\n\nprose\n\n{BEGIN}{} -->\nstale\n{END}\n\n",
                    e.id, e.id
                )
            })
            .collect()
    }

    #[test]
    fn blocks_are_regenerated_and_prose_is_kept() {
        let dir = results_dir("ok");
        let once = rewrite(&skeleton(), &dir).unwrap();
        assert!(!once.contains("stale"));
        assert_eq!(once.matches("prose").count(), TABLE.len());
        assert!(once.contains("\n`exp11_long_hop.csv`:\n"), "{once}");
        assert!(once.contains("| k | exp03_accuracy |\n|---|---|\n| a\\|b | 1 |\n"));
        assert!(!once.contains("exp05_edges"), "dumps are not rendered");
        assert_eq!(rewrite(&once, &dir).unwrap(), once, "idempotent");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn broken_documents_are_refused() {
        let dir = results_dir("bad");
        let err = |md: &str| rewrite(md, &dir).unwrap_err().to_string();
        let ok = skeleton();
        assert!(err(&ok.replace("exp:begin exp07", "exp:begin exp77")).contains("exp77"));
        assert!(err(&ok.replacen(END, "", 18)).contains("never closed"));
        let without_first = ok.split_once("## exp02").unwrap().1;
        assert!(err(without_first).contains("no block for exp01"));
        assert!(rewrite(&ok, &dir.join("missing")).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }
}
