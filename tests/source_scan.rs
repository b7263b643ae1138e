//! The static gate's source half: plain text scans over the workspace's
//! `.rs` files, with no lexer or parser.
//!
//! Clippy refuses the wall clock, ad-hoc threads, truncating casts and
//! slice indexing, and honours a reasoned `#[expect]` wherever it stands.
//! These scans pin where such an escape may stand, and check that the
//! trace / metrics registry declares nothing the code no longer writes.

use std::path::Path;
use underlay_p2p::sim::trace::registry::{METRICS, TRACE_KINDS};

/// The files where a `clippy::disallowed_{methods,types}` escape may
/// stand: the wall-clock boundary (`WallTimer::start`) and the two
/// parallel regions (`Routing::rows`, `parallel_map`), whose reasoned
/// `#[expect]`s state their merge discipline.
const AUDITED: [&str; 3] = [
    "crates/sim/src/trace.rs",
    "crates/net/src/routing.rs",
    "crates/core/src/experiments/sweep.rs",
];

/// The one crate-level escape: upstream `bytes` panics on a bad index
/// too, so its stand-in keeps `#![expect(clippy::indexing_slicing)]`.
const CRATE_LEVEL_EXEMPT: &str = "compat/bytes/src/lib.rs";

/// Where the trace kinds and metric keys are declared.
const REGISTRY: &str = "crates/sim/src/trace/registry.rs";

/// This file, whose planted inputs would otherwise trip its own scans.
const THIS_FILE: &str = "tests/source_scan.rs";

/// A source file: its workspace-relative path (`/`-separated) and text.
struct Source {
    path: String,
    text: String,
}

impl Source {
    fn new(path: &str, text: &str) -> Source {
        Source {
            path: path.to_owned(),
            text: text.to_owned(),
        }
    }

    /// `path:line` of byte offset `at`.
    fn site(&self, at: usize) -> String {
        let line = self.text.get(..at).unwrap_or("").matches('\n').count() + 1;
        format!("{}:{line}", self.path)
    }

    /// The text before the unit-test module: by the workspace's layout, a
    /// top-level `#[cfg(test)]` item ends a file's non-test code.
    fn non_test(&self) -> &str {
        if self.path.starts_with("tests/") || self.path.contains("/tests/") {
            return "";
        }
        self.text
            .split_once("\n#[cfg(test)]")
            .map_or(&self.text, |(code, _)| code)
    }
}

/// Every `.rs` file under the workspace's source roots, sorted by path.
fn workspace_sources() -> std::io::Result<Vec<Source>> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    let mut dirs: Vec<_> = ["src", "crates", "compat", "examples", "tests"]
        .iter()
        .map(|d| root.join(d))
        .collect();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy();
            let rel = rel.replace('\\', "/");
            if path.is_dir() {
                dirs.push(path);
            } else if rel.ends_with(".rs") && rel != THIS_FILE {
                out.push(Source::new(&rel, &std::fs::read_to_string(&path)?));
            }
        }
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

/// `path:line` of every escape outside its audited place: a
/// `clippy::disallowed_{methods,types}` outside [`AUDITED`], and any
/// crate- or module-level `#![allow(…)]` / `#![expect(…)]` outside
/// [`CRATE_LEVEL_EXEMPT`] (escapes are no broader than a `fn`).
fn stray_escapes(sources: &[Source]) -> Vec<String> {
    let mut stray = Vec::new();
    for s in sources {
        if !AUDITED.contains(&s.path.as_str()) {
            for lint in ["clippy::disallowed_methods", "clippy::disallowed_types"] {
                stray.extend(s.text.match_indices(lint).map(|(at, _)| s.site(at)));
            }
        }
        if s.path != CRATE_LEVEL_EXEMPT {
            for attr in ["#![allow(", "#![expect("] {
                stray.extend(s.text.match_indices(attr).map(|(at, _)| s.site(at)));
            }
        }
    }
    stray
}

/// Whether `text` contains `word` delimited by non-identifier characters.
fn mentions(text: &str, word: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(word).any(|(at, _)| {
        let before = text.get(..at).and_then(|t| t.chars().next_back());
        let after = text.get(at + word.len()..).and_then(|t| t.chars().next());
        !before.is_some_and(ident) && !after.is_some_and(ident)
    })
}

/// Every declared trace kind whose handle, and every declared metric key
/// whose string, no non-test source outside the registry names. A
/// handle is named after its kind (`net`/`fault.epoch` is
/// `NET_FAULT_EPOCH`); a `*` pattern key is named by its quoted prefix
/// (`"engine.events.`).
fn unreferenced(sources: &[Source]) -> Vec<String> {
    let registry = sources.iter().find(|s| s.path == REGISTRY);
    let code: Vec<&str> = sources
        .iter()
        .filter(|s| s.path != REGISTRY)
        .map(Source::non_test)
        .collect();
    let mut out = Vec::new();
    for k in TRACE_KINDS {
        let (component, kind) = (k.component(), k.kind());
        let handle = format!("{component}_{kind}")
            .to_uppercase()
            .replace('.', "_");
        if !registry.is_some_and(|r| r.text.contains(&format!("\n    {handle} = "))) {
            out.push(format!(
                "trace kind {component}/{kind} is not declared as {handle}"
            ));
        } else if !code.iter().any(|c| mentions(c, &handle)) {
            out.push(format!("trace kind {handle} is never emitted"));
        }
    }
    for m in METRICS {
        let quoted = match m.key.strip_suffix('*') {
            Some(prefix) => format!("\"{prefix}"),
            None => format!("\"{}\"", m.key),
        };
        if !code.iter().any(|c| c.contains(&quoted)) {
            out.push(format!("metric key {} is never written", m.key));
        }
    }
    out
}

#[test]
fn disallowed_escapes_sit_at_audited_boundaries() {
    let stray = stray_escapes(&workspace_sources().unwrap());
    assert!(
        stray.is_empty(),
        "escapes outside their boundaries: {stray:?}"
    );

    // Planted: a thread escape outside the two parallel regions, and a
    // crate-level cast escape in library code.
    let thread = "fn f() {}\n#[expect(clippy::disallowed_methods, reason = \"…\")]\nfn g() {}\n";
    let crate_wide = "//! A crate.\n\n#![expect(\n    clippy::cast_possible_truncation,\n    reason = \"…\"\n)]\n";
    let fn_level = "#[expect(clippy::cast_possible_truncation, reason = \"i < 2^16\")]\nfn f(i: usize) -> u16 { i as u16 }\n";
    let planted = [
        Source::new("crates/gnutella/src/sim.rs", thread),
        Source::new("crates/net/src/lib.rs", crate_wide),
        Source::new("crates/net/src/routing.rs", thread),
        Source::new("crates/net/src/host.rs", fn_level),
        Source::new(CRATE_LEVEL_EXEMPT, crate_wide),
    ];
    assert_eq!(
        stray_escapes(&planted),
        ["crates/gnutella/src/sim.rs:2", "crates/net/src/lib.rs:3"]
    );
}

#[test]
fn every_declared_kind_and_key_is_referenced() {
    let mut sources = workspace_sources().unwrap();
    let missing = unreferenced(&sources);
    assert!(missing.is_empty(), "registry drift: {missing:?}");

    // Planted: a declared kind and a declared key that nothing names any
    // more, and a key that only a test module writes.
    for s in sources.iter_mut().filter(|s| s.path != REGISTRY) {
        s.text = s.text.replace("GNUTELLA_ROLES", "GONE");
        s.text = s.text.replace("\"gnutella.joins\"", "\"gone\"");
        s.text = s.text.replace("\"gnutella.queries\"", "\"gone\"");
    }
    let test_only = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t(m: &mut M) { m.incr(\"gnutella.queries\", 1); }\n}\n";
    sources.push(Source::new("crates/gnutella/src/planted.rs", test_only));
    assert_eq!(
        unreferenced(&sources),
        [
            "trace kind GNUTELLA_ROLES is never emitted",
            "metric key gnutella.joins is never written",
            "metric key gnutella.queries is never written",
        ]
    );
}

#[test]
fn mentions_respects_identifier_boundaries() {
    assert!(mentions(
        "emit(registry::GNUTELLA_DOWNLOAD, ",
        "GNUTELLA_DOWNLOAD"
    ));
    assert!(!mentions(
        "registry::GNUTELLA_DOWNLOAD_RETRY",
        "GNUTELLA_DOWNLOAD"
    ));
    assert!(!mentions("X_GNUTELLA_DOWNLOAD", "GNUTELLA_DOWNLOAD"));
}
