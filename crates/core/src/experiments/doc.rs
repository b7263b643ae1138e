//! The generated tables of EXPERIMENTS.md and docs/OBSERVABILITY.md.
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
//! rendered). OBSERVABILITY.md's `registry:trace-kinds` and
//! `registry:metrics` blocks are [`rewrite_registry`]'s, from
//! `uap_sim::trace::registry`. Prose around the blocks is hand-written;
//! the tables inside them never are, and `ci/check.sh` fails when a
//! committed file differs from what `exp doc` writes.

use super::table::{self, Experiment, TABLE};
use crate::report::Table;
use std::io;
use std::path::Path;
use uap_sim::trace::registry::{METRICS, TRACE_KINDS};

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

/// Returns `md` with the bodies of its `registry:trace-kinds` and
/// `registry:metrics` blocks regenerated from the declarations in
/// `uap_sim::trace::registry`. Fails on a missing or unclosed block.
pub fn rewrite_registry(md: &str) -> io::Result<String> {
    let mut kinds = Table::new("", &["component", "kind", "level", "description"]);
    for d in TRACE_KINDS {
        kinds.row(&[
            d.component().to_owned(),
            format!("`{}`", d.kind()),
            d.level().name().to_owned(),
            d.doc().to_owned(),
        ]);
    }
    let mut metrics = Table::new("", &["key", "kind", "description"]);
    for d in METRICS {
        metrics.row(&[
            format!("`{}`", d.key),
            d.kind.name().to_owned(),
            d.doc.to_owned(),
        ]);
    }
    let md = replace_block(md, "registry:trace-kinds", &kinds.to_markdown())?;
    replace_block(&md, "registry:metrics", &metrics.to_markdown())
}

/// Replaces the body between `<!-- <marker>:begin -->` and
/// `<!-- <marker>:end -->` with `body`.
fn replace_block(md: &str, marker: &str, body: &str) -> io::Result<String> {
    let begin = format!("<!-- {marker}:begin -->\n");
    let end = format!("<!-- {marker}:end -->");
    let (head, rest) = md
        .split_once(&begin)
        .ok_or_else(|| invalid(format!("no {marker} block")))?;
    let (_, tail) = rest
        .split_once(&end)
        .ok_or_else(|| invalid(format!("block {marker} is never closed")))?;
    Ok(format!("{head}{begin}{body}{end}{tail}"))
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

        // The registry tables are the declarations, one row each.
        let md = rewrite_registry(&registry_skeleton()).unwrap();
        assert!(!md.contains("stale"));
        assert!(md.starts_with("# prose\n<!-- registry:trace-kinds:begin -->\n"));
        assert!(md.ends_with("<!-- registry:metrics:end -->\ntail\n"));
        assert!(md.contains(
            "| component | kind | level | description |\n|---|---|---|---|\n\
             | net | `transfer` | debug | one accounted transfer (src, dst, bytes, category) |\n"
        ));
        assert!(md.contains("| `gnutella.joins` | counter | hosts that joined the overlay |\n"));
        let rows = TRACE_KINDS.len() + METRICS.len();
        assert_eq!(md.matches("\n| ").count(), rows + 2, "two headers");
        assert_eq!(rewrite_registry(&md).unwrap(), md, "idempotent");
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

        // The registry tables: a missing or unclosed block is refused,
        // and a stale row never survives a rewrite, so the committed file
        // differs from what `exp doc` writes.
        let err = |md: &str| rewrite_registry(md).unwrap_err().to_string();
        let md = registry_skeleton();
        let ok = rewrite_registry(&md).unwrap();
        let without = |m: &str| md.replace(&format!("<!-- {m}:begin -->\n"), "");
        assert!(err(&without("registry:metrics")).contains("no registry:metrics block"));
        assert!(err(&without("registry:trace-kinds")).contains("no registry:trace-kinds block"));
        let unclosed = md.replace("<!-- registry:metrics:end -->", "");
        assert!(err(&unclosed).contains("registry:metrics is never closed"));
        let stale = ok.replace("| net | `transfer` |", "| net | `xfer` |");
        assert_ne!(stale, ok);
        assert_eq!(rewrite_registry(&stale).unwrap(), ok);
    }

    fn registry_skeleton() -> String {
        let block = |m: &str| format!("<!-- {m}:begin -->\n| stale |\n<!-- {m}:end -->\n");
        format!(
            "# prose\n{}\nmore prose\n{}tail\n",
            block("registry:trace-kinds"),
            block("registry:metrics")
        )
    }
}
