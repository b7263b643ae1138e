//! Registry drift pass: emitted trace kinds / metric keys vs the
//! central declarations in `uap_sim::trace::registry` vs the tables in
//! `docs/OBSERVABILITY.md`.
//!
//! Three-way agreement is enforced:
//!
//! 1. every emission site in non-test code uses a declared
//!    `(component, kind)` at the declared level, and a declared metric
//!    key through the API matching its declared kind;
//! 2. every declared kind / key is actually emitted somewhere (dead
//!    declarations are drift too);
//! 3. the marker-delimited tables in `docs/OBSERVABILITY.md` match the
//!    declarations cell-for-cell.
//!
//! The declared side is `uap_sim::trace::registry`'s `pub const` tables,
//! read directly: xtask links `uap-sim`, so what this pass checks is what
//! the debug-build runtime checks see.

use std::path::Path;

use uap_sim::trace::registry::{MetricSpec, TraceKindSpec, COMPONENTS, METRICS, TRACE_KINDS};

use crate::analyze::parser::FnItem;

/// Runs the full pass against the workspace at `root`.
pub fn run(root: &Path, fns: &[FnItem]) -> Vec<String> {
    let mut out = check_emissions(COMPONENTS, TRACE_KINDS, METRICS, fns);
    out.extend(check_span_conventions(COMPONENTS, TRACE_KINDS));

    let docs_path = root.join("docs/OBSERVABILITY.md");
    match std::fs::read_to_string(&docs_path) {
        Ok(md) => out.extend(check_docs(TRACE_KINDS, METRICS, &md)),
        Err(_) => out.push(format!(
            "registry: cannot read {} for the docs drift check",
            docs_path.display()
        )),
    }
    out
}

/// True when `key` matches `decl_key` under the registry's pattern
/// semantics: exact match, identical pattern, or a concrete key under a
/// trailing-`*` pattern with a non-empty dynamic segment.
fn key_matches(decl_key: &str, key: &str) -> bool {
    if decl_key == key {
        return true;
    }
    if let Some(prefix) = decl_key.strip_suffix('*') {
        return key.len() > prefix.len() && key.starts_with(prefix);
    }
    false
}

/// Checks every emission site in non-test code against the declarations,
/// and every declaration against the emission sites.
pub fn check_emissions(
    components: &[&str],
    trace_kinds: &[TraceKindSpec],
    metrics: &[MetricSpec],
    fns: &[FnItem],
) -> Vec<String> {
    let mut out = Vec::new();
    let mut kind_emitted = vec![0usize; trace_kinds.len()];
    let mut metric_emitted = vec![0usize; metrics.len()];

    for f in fns.iter().filter(|f| !f.is_test) {
        for e in &f.trace_emits {
            let site = format!("{}:{}", f.file, e.line);
            let Some(component) = &e.component else {
                continue; // forwarder with variable args — not a schema site
            };
            if !components.contains(&component.as_str()) {
                out.push(format!(
                    "registry: {site}: trace component \"{component}\" is not in \
                     registry::COMPONENTS"
                ));
                continue;
            }
            let Some(kind) = &e.kind else {
                out.push(format!(
                    "registry: {site}: dynamic trace kind for component \"{component}\" — \
                     kinds must be string literals so the schema stays checkable"
                ));
                continue;
            };
            match trace_kinds
                .iter()
                .position(|d| d.component == component && d.kind == kind)
            {
                Some(di) => {
                    kind_emitted[di] += 1;
                    if let Some(level) = &e.level {
                        let declared = trace_kinds[di].level;
                        if level != declared {
                            out.push(format!(
                                "registry: {site}: trace {component}/{kind} emitted at level \
                                 \"{level}\" but declared \"{declared}\""
                            ));
                        }
                    }
                }
                None => out.push(format!(
                    "registry: {site}: trace kind {component}/{kind} is not declared in \
                     registry::TRACE_KINDS"
                )),
            }
        }

        for e in &f.metric_emits {
            let site = format!("{}:{}", f.file, e.line);
            match metrics.iter().position(|d| key_matches(d.key, &e.key)) {
                Some(di) => {
                    metric_emitted[di] += 1;
                    let declared = metrics[di].kind.name();
                    if declared != e.api.name() {
                        out.push(format!(
                            "registry: {site}: metric key \"{}\" written through the {} API \
                             but declared as a {declared}",
                            e.key,
                            e.api.name()
                        ));
                    }
                }
                None => out.push(format!(
                    "registry: {site}: metric key \"{}\" is not declared in \
                     registry::METRICS",
                    e.key
                )),
            }
        }
    }

    for (di, d) in trace_kinds.iter().enumerate() {
        if kind_emitted[di] == 0 {
            out.push(format!(
                "registry: trace kind {}/{} is declared but never emitted from non-test code",
                d.component, d.kind
            ));
        }
    }
    for (di, d) in metrics.iter().enumerate() {
        if metric_emitted[di] == 0 {
            out.push(format!(
                "registry: metric key \"{}\" is declared but never emitted from non-test code",
                d.key
            ));
        }
    }
    out
}

/// Checks the span-kind conventions of the causal-provenance layer (see
/// `docs/OBSERVABILITY.md` § Causal spans): a component that declares
/// `span.open` must also declare `span.close` (and vice versa), and the
/// pair must sit at the same level — an open the tooling can see whose
/// close is filtered away (or the reverse) makes every span of that
/// component read as unbalanced in `trace check`.
pub fn check_span_conventions(components: &[&str], trace_kinds: &[TraceKindSpec]) -> Vec<String> {
    let mut out = Vec::new();
    for c in components {
        let find = |kind: &str| {
            trace_kinds
                .iter()
                .find(|d| d.component == *c && d.kind == kind)
        };
        match (find("span.open"), find("span.close")) {
            (Some(open), Some(close)) => {
                if open.level != close.level {
                    out.push(format!(
                        "registry: component \"{c}\" declares span.open at level \
                         \"{}\" but span.close at \"{}\" — a level filter would \
                         retain one side of every span",
                        open.level, close.level
                    ));
                }
            }
            (Some(_), None) => out.push(format!(
                "registry: component \"{c}\" declares span.open without span.close — \
                 spans can never be balanced"
            )),
            (None, Some(_)) => out.push(format!(
                "registry: component \"{c}\" declares span.close without span.open — \
                 every close is an orphan"
            )),
            (None, None) => {}
        }
    }
    out
}

/// Checks the marker-delimited tables in `docs/OBSERVABILITY.md` against
/// the declarations, cell-for-cell in both directions.
pub fn check_docs(trace_kinds: &[TraceKindSpec], metrics: &[MetricSpec], md: &str) -> Vec<String> {
    let mut out = Vec::new();

    let trace_rows = table_rows(md, "registry:trace-kinds");
    let metric_rows = table_rows(md, "registry:metrics");
    match trace_rows {
        None => out.push(
            "registry: docs/OBSERVABILITY.md is missing the \
             <!-- registry:trace-kinds:begin/end --> table"
                .to_string(),
        ),
        Some(rows) => {
            let want: Vec<Vec<String>> = trace_kinds
                .iter()
                .map(|d| {
                    vec![
                        d.component.to_string(),
                        format!("`{}`", d.kind),
                        d.level.to_string(),
                        d.doc.to_string(),
                    ]
                })
                .collect();
            diff_rows(&mut out, "trace-kinds", &want, &rows);
        }
    }
    match metric_rows {
        None => out.push(
            "registry: docs/OBSERVABILITY.md is missing the \
             <!-- registry:metrics:begin/end --> table"
                .to_string(),
        ),
        Some(rows) => {
            let want: Vec<Vec<String>> = metrics
                .iter()
                .map(|d| {
                    vec![
                        format!("`{}`", d.key),
                        d.kind.name().to_string(),
                        d.doc.to_string(),
                    ]
                })
                .collect();
            diff_rows(&mut out, "metrics", &want, &rows);
        }
    }
    out
}

/// Extracts the body rows of the markdown table between
/// `<!-- <marker>:begin -->` and `<!-- <marker>:end -->`. Returns `None`
/// when the markers are absent.
fn table_rows(md: &str, marker: &str) -> Option<Vec<Vec<String>>> {
    let begin = format!("<!-- {marker}:begin -->");
    let end = format!("<!-- {marker}:end -->");
    let start = md.find(&begin)? + begin.len();
    let stop = md[start..].find(&end)? + start;
    let mut rows = Vec::new();
    for line in md[start..stop].lines() {
        let line = line.trim();
        if !line.starts_with('|') {
            continue;
        }
        let cells: Vec<String> = line
            .trim_matches('|')
            .split('|')
            .map(|c| c.trim().to_string())
            .collect();
        // Skip the header and the |---| separator rows.
        let is_sep = cells
            .iter()
            .all(|c| !c.is_empty() && c.chars().all(|ch| ch == '-' || ch == ':'));
        let is_header = cells
            .first()
            .is_some_and(|c| c == "component" || c == "key");
        if !is_sep && !is_header {
            rows.push(cells);
        }
    }
    Some(rows)
}

/// Reports rows present on one side but not the other.
fn diff_rows(out: &mut Vec<String>, what: &str, want: &[Vec<String>], got: &[Vec<String>]) {
    for row in want {
        if !got.contains(row) {
            out.push(format!(
                "registry: docs/OBSERVABILITY.md {what} table is missing the row for {}",
                row.join(" | ")
            ));
        }
    }
    for row in got {
        if !want.contains(row) {
            out.push(format!(
                "registry: docs/OBSERVABILITY.md {what} table has a stale row: {}",
                row.join(" | ")
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::lexer::lex;
    use crate::analyze::parser::parse_file;
    use uap_sim::trace::registry::MetricKind;

    const COMPONENTS: &[&str] = &["engine", "net"];

    fn trace_kinds() -> Vec<TraceKindSpec> {
        vec![TraceKindSpec {
            component: "net",
            kind: "transfer",
            level: "debug",
            doc: "a transfer",
        }]
    }

    const METRICS: &[MetricSpec] = &[
        MetricSpec {
            key: "net.bytes",
            kind: MetricKind::Counter,
            doc: "bytes",
        },
        MetricSpec {
            key: "engine.events.*",
            kind: MetricKind::Counter,
            doc: "per-kind",
        },
    ];

    fn check_emissions(fns: &[FnItem]) -> Vec<String> {
        super::check_emissions(COMPONENTS, &trace_kinds(), METRICS, fns)
    }

    fn fns_of(src: &str) -> Vec<FnItem> {
        parse_file("crates/net/src/x.rs", &lex(src), false, false)
    }

    #[test]
    fn unregistered_trace_kind_is_flagged() {
        let fns = fns_of(
            "fn f(ctx: &mut C) { ctx.trace(\"net\", TraceLevel::Debug, \"not_declared\", |f| {}); }\n",
        );
        let v = check_emissions(&fns);
        // (Plus never-emitted violations for the declared entries, which
        // this synthetic corpus legitimately doesn't emit.)
        let undeclared: Vec<&String> = v.iter().filter(|m| m.contains("is not declared")).collect();
        assert_eq!(undeclared.len(), 1, "{v:?}");
        assert!(
            undeclared[0].contains("net/not_declared"),
            "{}",
            undeclared[0]
        );
        assert!(
            undeclared[0].contains("crates/net/src/x.rs:1"),
            "{}",
            undeclared[0]
        );
    }

    #[test]
    fn declared_but_never_emitted_key_is_flagged() {
        // Emit the trace kind and one metric; the other declared metric
        // (net.bytes) never appears → exactly one violation.
        let fns = fns_of(
            "fn f(ctx: &mut C) {\n    ctx.trace(\"net\", TraceLevel::Debug, \"transfer\", |f| {});\n    ctx.metrics.incr(&format!(\"engine.events.{k}\"), 1);\n}\n",
        );
        let v = check_emissions(&fns);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("\"net.bytes\" is declared but never emitted"));
    }

    #[test]
    fn level_and_api_kind_mismatches_are_flagged() {
        let fns = fns_of(
            "fn f(ctx: &mut C) {\n    ctx.trace(\"net\", TraceLevel::Info, \"transfer\", |f| {});\n    ctx.metrics.record(\"net.bytes\", 1.0);\n    ctx.metrics.incr(\"engine.events.timer\", 1);\n}\n",
        );
        let v = check_emissions(&fns);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("emitted at level \"info\" but declared \"debug\""));
        assert!(v[1].contains("written through the histogram API but declared as a counter"));
    }

    #[test]
    fn test_code_emissions_are_ignored() {
        let fns = parse_file(
            "crates/net/src/x.rs",
            &lex("#[cfg(test)]\nmod tests {\n    fn t(ctx: &mut C) { ctx.trace(\"net\", TraceLevel::Debug, \"scratch\", |f| {}); }\n}\n"),
            false,
            false,
        );
        let v = check_emissions(&fns);
        // Only the never-emitted violations fire; the test emission of an
        // undeclared kind does not.
        assert!(v.iter().all(|m| m.contains("never emitted")), "{v:?}");
    }

    #[test]
    fn span_conventions_require_balanced_same_level_pairs() {
        let mut d = trace_kinds();
        let check_span_conventions =
            |d: &[TraceKindSpec]| super::check_span_conventions(COMPONENTS, d);
        assert!(check_span_conventions(&d).is_empty(), "no span kinds → ok");

        // A balanced pair at one level is fine.
        d.push(TraceKindSpec {
            component: "net",
            kind: "span.open",
            level: "debug",
            doc: "open",
        });
        d.push(TraceKindSpec {
            component: "net",
            kind: "span.close",
            level: "debug",
            doc: "close",
        });
        assert!(check_span_conventions(&d).is_empty());

        // Level mismatch between open and close is drift.
        d.last_mut().unwrap().level = "info";
        let v = check_span_conventions(&d);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("span.open at level \"debug\" but span.close at \"info\""));

        // An open with no close at all is drift too.
        d.pop();
        let v = check_span_conventions(&d);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("span.open without span.close"));

        // And a close with no open.
        d.last_mut().unwrap().kind = "span.close";
        let v = check_span_conventions(&d);
        assert!(v[0].contains("span.close without span.open"), "{v:?}");
    }

    #[test]
    fn docs_tables_in_sync_and_drifting() {
        let good = "\n<!-- registry:trace-kinds:begin -->\n\
| component | kind | level | description |\n\
|-----------|------|-------|-------------|\n\
| net | `transfer` | debug | a transfer |\n\
<!-- registry:trace-kinds:end -->\n\
<!-- registry:metrics:begin -->\n\
| key | kind | description |\n\
|-----|------|-------------|\n\
| `net.bytes` | counter | bytes |\n\
| `engine.events.*` | counter | per-kind |\n\
<!-- registry:metrics:end -->\n";
        let check_docs = |md: &str| super::check_docs(&trace_kinds(), METRICS, md);
        assert!(check_docs(good).is_empty());

        let stale = good.replace("| net | `transfer` | debug |", "| net | `xfer` | debug |");
        let v = check_docs(&stale);
        assert_eq!(v.len(), 2, "{v:?}"); // missing row + stale row
        assert!(v[0].contains("missing the row"));
        assert!(v[1].contains("stale row"));

        let v = check_docs("no markers at all");
        assert_eq!(v.len(), 2);
        assert!(v[0].contains("missing the <!-- registry:trace-kinds:begin/end --> table"));
    }
}
