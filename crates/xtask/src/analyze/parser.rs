//! Item extraction: `fn` items, impl blocks, and per-body sites.
//!
//! Consumes the token stream from [`crate::analyze::lexer`] and produces
//! one [`FnItem`] per function definition, carrying everything the
//! analysis passes need: outgoing call sites (for the call graph),
//! determinism sink tokens (`par` pass), panic sites (panic-reachability
//! pass), and trace/metrics emission sites with their literal arguments
//! (registry drift pass).
//!
//! The parser is deliberately approximate where Rust's grammar is
//! irrelevant to the analyses — bodies of nested `fn` items are
//! attributed to the enclosing function, turbofish-qualified calls are
//! ignored, and `#[cfg(test)]` regions come from the lexer's brace
//! matching. Every approximation widens (never narrows) what the passes
//! see.

use uap_sim::trace::registry::MetricKind;

use crate::analyze::lexer::{Lexed, Tok, TokKind};
use crate::boundaries::{in_threads_boundary, in_wallclock_boundary, ALLOC_RULE, CAST_RULE};

/// How a call site names its callee.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Callee {
    /// `foo(...)` — a free function call.
    Free(String),
    /// `.foo(...)` — a method call on some receiver.
    Method(String),
    /// `Qual::foo(...)` — a path-qualified call; `.0` is the segment
    /// directly before the name (type, module, or `Self`).
    Qualified(String, String),
    /// `foo!(...)` / `foo![...]` / `foo!{...}` — a macro invocation.
    /// Macros have no workspace `fn` target, but the allocation pass
    /// needs `vec!` / `format!` sites and the panic pass needs
    /// `panic!`-family sites recorded like any other call.
    Macro(String),
}

/// One outgoing call site inside a function body.
#[derive(Clone, Debug)]
pub struct Call {
    /// The callee reference.
    pub callee: Callee,
    /// 1-based line of the call.
    pub line: usize,
}

/// Classes of determinism sink the lint bans outside the audited
/// boundaries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SinkKind {
    /// Wall-clock reads: `Instant::now`, `SystemTime`.
    Wallclock,
    /// Ambient entropy: `thread_rng`, `rand::random`.
    Entropy,
    /// Thread spawning: `thread::spawn`, `thread::scope`.
    Thread,
}

impl SinkKind {
    /// The lint rule name whose `lint:allow` escape covers this sink.
    pub fn rule(self) -> &'static str {
        match self {
            SinkKind::Wallclock | SinkKind::Entropy => "wallclock",
            SinkKind::Thread => "threads",
        }
    }

    /// True when a sink of this class on `line` of `file` is covered by
    /// its `lint:allow` *and* `file` is the audited boundary that escape
    /// is honored in (see [`crate::boundaries`]).
    pub fn audited(self, file: &str, lexed: &Lexed, line: usize) -> bool {
        lexed.allowed(line, self.rule())
            && match self {
                SinkKind::Wallclock | SinkKind::Entropy => in_wallclock_boundary(file),
                SinkKind::Thread => in_threads_boundary(file),
            }
    }
}

/// The one sink-token table: every `::`-path the lint's `threads` /
/// `wallclock` rules and the `par` pass treat as a determinism sink.
/// A path matches by suffix (`std::thread::scope`, `foo::thread::scope`).
pub const SINKS: [(&str, SinkKind); 6] = [
    ("thread::scope", SinkKind::Thread),
    ("thread::spawn", SinkKind::Thread),
    ("Instant::now", SinkKind::Wallclock),
    ("SystemTime", SinkKind::Wallclock),
    ("thread_rng", SinkKind::Entropy),
    ("rand::random", SinkKind::Entropy),
];

/// One determinism sink token inside a function body.
#[derive(Clone, Debug)]
pub struct SinkSite {
    /// Which sink class the token belongs to.
    pub kind: SinkKind,
    /// The matched [`SINKS`] path (`"Instant::now"`, `"thread::scope"`, …).
    pub what: &'static str,
    /// 1-based line of the token.
    pub line: usize,
}

/// Classes of panic site the panic-reachability pass inventories.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PanicKind {
    /// `.unwrap()` / `.unwrap_err()`.
    Unwrap,
    /// `.expect(` / `.expect_err(`.
    Expect,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    PanicMacro,
    /// `x[i]` indexing / slicing expressions.
    Index,
}

impl PanicKind {
    /// Stable name: the baseline key, and the `lint:allow` name that
    /// marks a site of this kind documented.
    pub fn name(self) -> &'static str {
        match self {
            PanicKind::Unwrap => "unwrap",
            PanicKind::Expect => "expect",
            PanicKind::PanicMacro => "panic",
            PanicKind::Index => "index",
        }
    }
}

/// One potential-panic site inside a function body.
#[derive(Clone, Debug)]
pub struct PanicSite {
    /// Which panic class the site belongs to.
    pub kind: PanicKind,
    /// 1-based line of the site.
    pub line: usize,
    /// True when a `lint:allow(<kind>)` comment documents the invariant
    /// on the site's line or the line directly above.
    pub documented: bool,
}

/// Classes of allocation sink the allocation-discipline pass
/// inventories (see `docs/STATIC_ANALYSIS.md`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AllocKind {
    /// `vec![…]` / `Vec::new` / `VecDeque::new` / `*::with_capacity`
    /// inside a loop body — a fresh buffer per iteration.
    VecLoop,
    /// The same constructions outside a loop — a fresh buffer per call,
    /// which on a per-event hot path is just as costly.
    Vec,
    /// `Box::new` — a heap node per call.
    BoxAlloc,
    /// `.clone()` / `.to_vec()` — duplicating owned data.
    Clone,
    /// `.collect()` — materializing an iterator into a container.
    Collect,
    /// `format!` / `String::from` / `.to_string()` — string building.
    Str,
    /// Fresh `BTreeMap` / `BTreeSet` construction.
    Map,
}

impl AllocKind {
    /// Stable name used in the alloc pass's diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            AllocKind::VecLoop => "vec-loop",
            AllocKind::Vec => "vec",
            AllocKind::BoxAlloc => "box",
            AllocKind::Clone => "clone",
            AllocKind::Collect => "collect",
            AllocKind::Str => "string",
            AllocKind::Map => "map",
        }
    }
}

/// One allocation sink inside a function body.
#[derive(Clone, Debug)]
pub struct AllocSite {
    /// Which allocation class the site belongs to.
    pub kind: AllocKind,
    /// The matched construct (`"vec!"`, `".collect()"`, `"Box::new"`, …).
    pub what: String,
    /// 1-based line of the site.
    pub line: usize,
}

/// Integer target types an `as` cast can silently truncate into. 64-bit
/// targets (`u64`, `i64`, `usize`, `isize`) are excluded: they are
/// widening from every narrower source, and source types are invisible
/// to a token-level scan. Casting *to* one of these — `u64→u32` packing,
/// `usize→u32` indices, `f64→u32` rate math — is exactly the class that
/// turns into silent corruption at 1M-host scale.
pub const NARROW_INT_TARGETS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// One potentially-truncating `as` cast inside a function body.
#[derive(Clone, Debug)]
pub struct CastSite {
    /// The narrow target type (`"u32"`, `"u16"`, …).
    pub target: String,
    /// 1-based line of the `as` keyword.
    pub line: usize,
    /// True when a `lint:allow(cast)` comment documents the bound on the
    /// site's line or the line directly above (see
    /// [`crate::boundaries::CAST_RULE`]).
    pub documented: bool,
}

/// Classes of worker-side determinism hazard the parallel-region pass
/// inventories (see `docs/STATIC_ANALYSIS.md`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum HazardKind {
    /// Interior-mutability writes: `.set(` / `.borrow_mut(` /
    /// `static mut` — a worker mutating captured shared state races or
    /// depends on worker interleaving.
    CellWrite,
    /// Atomic read-modify-write: `.fetch_add(` and friends — the
    /// observed sequence depends on scheduling.
    Atomic,
    /// Lock acquisition: `.lock(` / `.try_lock(` — lock grant order is
    /// scheduler-dependent (shared `Vec` pushes under a lock merge in
    /// nondeterministic order).
    Lock,
    /// Channel receives: `.recv(` family — arrival order across workers
    /// is scheduler-dependent.
    Channel,
    /// RNG use: ambient entropy or a reachable `SimRng` method — worker
    /// interleaving would perturb the deterministic stream.
    Rng,
    /// Unordered float accumulation (`.sum::<f64>()` across
    /// worker-merged data) — float addition is not associative.
    FloatAccum,
}

impl HazardKind {
    /// Stable name, matched against
    /// [`crate::boundaries::ParallelRegion::audited_hazards`].
    pub fn name(self) -> &'static str {
        match self {
            HazardKind::CellWrite => "cell-write",
            HazardKind::Atomic => "atomic",
            HazardKind::Lock => "lock",
            HazardKind::Channel => "channel",
            HazardKind::Rng => "rng",
            HazardKind::FloatAccum => "float-accum",
        }
    }
}

/// One determinism-hazard site (inside a worker closure, or anywhere in
/// a function body for the reachability side of the parallel pass).
#[derive(Clone, Debug)]
pub struct HazardSite {
    /// Which hazard class the site belongs to.
    pub kind: HazardKind,
    /// The matched construct (`".set("`, `"static mut"`, …).
    pub what: String,
    /// 1-based line of the site.
    pub line: usize,
}

/// Recognizes a method name as an interior-mutability / merge-order
/// hazard. Deliberately conservative: names that collide with common
/// pure APIs in this workspace (`store` = the DHT store RPC, `replace` /
/// `swap` / `take` = std value shuffling) are left to the closure-level
/// heuristics rather than poisoning whole-function scans.
pub fn hazard_of_method(name: &str) -> Option<HazardKind> {
    match name {
        "set" | "borrow_mut" => Some(HazardKind::CellWrite),
        "fetch_add"
        | "fetch_sub"
        | "fetch_or"
        | "fetch_and"
        | "fetch_xor"
        | "compare_exchange"
        | "compare_exchange_weak" => Some(HazardKind::Atomic),
        "lock" | "try_lock" => Some(HazardKind::Lock),
        "recv" | "try_recv" | "recv_timeout" => Some(HazardKind::Channel),
        _ => None,
    }
}

/// One worker closure spawned inside a parallel region: the closure
/// argument of `s.spawn(...)` (or of a bare `thread::spawn(...)`).
#[derive(Clone, Debug)]
pub struct WorkerClosure {
    /// 1-based line of the `spawn` call.
    pub line: usize,
    /// Calls made lexically inside the closure (nested closures
    /// included) — the roots of the worker-reachability BFS.
    pub calls: Vec<Call>,
    /// Direct hazard sites inside the closure.
    pub hazards: Vec<HazardSite>,
}

/// One thread-spawn region inside a function body.
#[derive(Clone, Debug)]
pub struct SpawnSite {
    /// The spawner (`"thread::scope"` or `"thread::spawn"`).
    pub what: &'static str,
    /// 1-based line of the spawn construct.
    pub line: usize,
    /// The worker closures spawned within the region.
    pub workers: Vec<WorkerClosure>,
}

/// One trace event emission site (`Tracer::emit` / `Ctx::trace` shapes).
#[derive(Clone, Debug)]
pub struct TraceEmit {
    /// Component literal, `None` when passed as a variable (forwarders).
    pub component: Option<String>,
    /// Kind literal, `None` when dynamic.
    pub kind: Option<String>,
    /// Level name (`"info"`, …) when written as `TraceLevel::X`.
    pub level: Option<String>,
    /// 1-based line of the call.
    pub line: usize,
}

/// One metrics key emission site. Keys built with `format!` carry a
/// trailing-`*` pattern (each `{…}` segment replaced by `*`).
#[derive(Clone, Debug)]
pub struct MetricEmit {
    /// The literal key or `*`-pattern.
    pub key: String,
    /// Which API wrote it: `incr` / `set_counter` (counter), `record`
    /// (histogram) or `trace` (series).
    pub api: MetricKind,
    /// 1-based line of the call.
    pub line: usize,
}

/// One parsed function definition with everything the passes need.
#[derive(Clone, Debug, Default)]
pub struct FnItem {
    /// Simple name (`"handle"`).
    pub name: String,
    /// Enclosing impl type (`Some("GnutellaSim")`) or `None` for free fns.
    pub impl_type: Option<String>,
    /// Trait being implemented, when the impl is a trait impl.
    pub trait_name: Option<String>,
    /// Workspace-relative file label.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// True when defined under `#[cfg(test)]` or in a `tests/` file.
    pub is_test: bool,
    /// True when defined in binary (`main.rs` / `src/bin/`) code.
    pub is_bin: bool,
    /// True when the `fn` declaration carries a `lint:allow(alloc)`
    /// escape (audited setup / one-shot path — see
    /// [`crate::boundaries::ALLOC_RULE`]): the whole body is exempt from
    /// the allocation-discipline inventory.
    pub alloc_exempt: bool,
    /// Outgoing call sites.
    pub calls: Vec<Call>,
    /// Determinism sink tokens in the body.
    pub sinks: Vec<SinkSite>,
    /// Allocation sinks in the body.
    pub allocs: Vec<AllocSite>,
    /// Potential-panic sites in the body.
    pub panics: Vec<PanicSite>,
    /// Trace event emissions in the body.
    pub trace_emits: Vec<TraceEmit>,
    /// Metrics key emissions in the body.
    pub metric_emits: Vec<MetricEmit>,
    /// Potentially-truncating `as` casts in the body.
    pub casts: Vec<CastSite>,
    /// Determinism-hazard markers anywhere in the body (used by the
    /// parallel pass for functions *reachable from* worker closures).
    pub hazards: Vec<HazardSite>,
    /// Thread-spawn regions in the body.
    pub spawns: Vec<SpawnSite>,
}

impl FnItem {
    /// `Type::name` for methods, `name` for free functions.
    pub fn qualname(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Keywords that look like `ident (` but are not calls.
const NON_CALL_KEYWORDS: [&str; 12] = [
    "if", "while", "for", "match", "return", "loop", "fn", "move", "in", "let", "else", "unsafe",
];

/// Parses one lexed file into its function items.
///
/// `file` is the workspace-relative label (used for boundary membership
/// and diagnostics); `file_is_test` marks whole-file test code
/// (`tests/` integration dirs); `file_is_bin` marks binary crate code.
pub fn parse_file(file: &str, lexed: &Lexed, file_is_test: bool, file_is_bin: bool) -> Vec<FnItem> {
    let toks = &lexed.toks;
    let mut out = Vec::new();

    // Impl context stack: (type name, trait name, brace depth of body).
    let mut impls: Vec<(Option<String>, Option<String>, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut pending_impl: Option<(Option<String>, Option<String>)> = None;

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct if t.text == "{" => {
                depth += 1;
                if let Some((ty, tr)) = pending_impl.take() {
                    impls.push((ty, tr, depth));
                }
                i += 1;
            }
            TokKind::Punct if t.text == "}" => {
                if impls.last().is_some_and(|(_, _, d)| *d == depth) {
                    impls.pop();
                }
                depth = depth.saturating_sub(1);
                i += 1;
            }
            TokKind::Ident if t.text == "impl" => {
                let (ctx, next) = parse_impl_header(toks, i + 1);
                pending_impl = Some(ctx);
                i = next; // positioned at the body '{' (or wherever parsing stopped)
            }
            TokKind::Ident if t.text == "fn" => {
                let Some(name_tok) = toks.get(i + 1) else {
                    break;
                };
                if name_tok.kind != TokKind::Ident {
                    i += 1;
                    continue;
                }
                let decl_line = t.line;
                // Scan the signature for the body '{' or a ';' (no body).
                let mut j = i + 2;
                let mut pd = 0usize; // () and [] nesting
                let mut body_start = None;
                while j < toks.len() {
                    let tj = &toks[j];
                    if tj.is_punct('(') || tj.is_punct('[') {
                        pd += 1;
                    } else if tj.is_punct(')') || tj.is_punct(']') {
                        pd = pd.saturating_sub(1);
                    } else if pd == 0 && tj.is_punct('{') {
                        body_start = Some(j);
                        break;
                    } else if pd == 0 && tj.is_punct(';') {
                        break;
                    }
                    j += 1;
                }
                let Some(open) = body_start else {
                    i = j + 1;
                    continue;
                };
                // Find the matching close brace.
                let mut bd = 1usize;
                let mut k = open + 1;
                while k < toks.len() && bd > 0 {
                    if toks[k].is_punct('{') {
                        bd += 1;
                    } else if toks[k].is_punct('}') {
                        bd -= 1;
                    }
                    k += 1;
                }
                let body_end = k - 1; // index of the closing '}'
                let (impl_type, trait_name) = match impls.last() {
                    Some((ty, tr, _)) => (ty.clone(), tr.clone()),
                    None => (None, None),
                };
                let mut item = FnItem {
                    name: name_tok.text.clone(),
                    impl_type,
                    trait_name,
                    file: file.to_string(),
                    line: decl_line,
                    is_test: file_is_test || lexed.in_test[i],
                    is_bin: file_is_bin,
                    alloc_exempt: lexed.allowed(decl_line, ALLOC_RULE),
                    ..FnItem::default()
                };
                scan_body(lexed, open + 1, body_end, &mut item);
                scan_spawns(lexed, open + 1, body_end, &mut item);
                out.push(item);
                i = body_end + 1;
                // The body braces were consumed without going through the
                // depth tracker, so `depth` is unchanged — correct, since
                // we resumed after the matching close.
            }
            _ => i += 1,
        }
    }
    out
}

/// Parses an impl header starting right after the `impl` keyword.
/// Returns `((type, trait), index_of_body_brace)`.
fn parse_impl_header(toks: &[Tok], mut i: usize) -> ((Option<String>, Option<String>), usize) {
    // Skip a leading generics list `impl<...>`.
    if toks.get(i).is_some_and(|t| t.is_punct('<')) {
        i = skip_angles(toks, i);
    }
    let mut pre_for: Vec<String> = Vec::new(); // path idents at angle depth 0
    let mut post_for: Vec<String> = Vec::new();
    let mut after_for = false;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            break;
        }
        if t.is_punct('<') {
            i = skip_angles(toks, i);
            continue;
        }
        if t.is_ident("for") {
            after_for = true;
        } else if t.is_ident("where") {
            // Anything after `where` is bounds, not the subject path.
            while i < toks.len() && !toks[i].is_punct('{') {
                i += 1;
            }
            break;
        } else if t.kind == TokKind::Ident && !t.is_ident("dyn") && !t.is_ident("mut") {
            if after_for {
                post_for.push(t.text.clone());
            } else {
                pre_for.push(t.text.clone());
            }
        }
        i += 1;
    }
    let ctx = if after_for {
        (post_for.last().cloned(), pre_for.last().cloned())
    } else {
        (pre_for.last().cloned(), None)
    };
    (ctx, i)
}

/// Skips a balanced `<...>` group starting at the `<` at `i`; returns the
/// index just past the matching `>`. A `>` preceded by `-` (the `->`
/// arrow) does not close the group.
fn skip_angles(toks: &[Tok], mut i: usize) -> usize {
    let mut ad = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('<') {
            ad += 1;
        } else if t.is_punct('>') && !(i > 0 && toks[i - 1].is_punct('-')) {
            ad = ad.saturating_sub(1);
            if ad == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// Scans a function body (token range `[start, end)`) for call sites,
/// sinks, allocation sites, panic sites, and emission sites.
///
/// Loop bodies are tracked by brace depth so `Vec`-family construction
/// can be classified per-iteration vs per-call: a `for` / `while` /
/// `loop` keyword arms the *next* `{` as a loop-body open. A brace-
/// bearing expression between the keyword and the body (a closure in
/// the iterator chain) steals the armed flag — the approximation is
/// acceptable because such a closure runs once per iteration anyway.
fn scan_body(lexed: &Lexed, start: usize, end: usize, item: &mut FnItem) {
    let toks = &lexed.toks;
    let mut j = start;
    let mut depth = 0usize;
    let mut loop_depths: Vec<usize> = Vec::new();
    let mut pending_loop = false;
    while j < end {
        let t = &toks[j];

        if t.is_punct('{') {
            depth += 1;
            if pending_loop {
                loop_depths.push(depth);
                pending_loop = false;
            }
            j += 1;
            continue;
        }
        if t.is_punct('}') {
            if loop_depths.last() == Some(&depth) {
                loop_depths.pop();
            }
            depth = depth.saturating_sub(1);
            j += 1;
            continue;
        }
        let in_loop = !loop_depths.is_empty();

        // Indexing / slicing: `[` directly after an ident, `)` or `]`.
        if t.is_punct('[') && j > start {
            let prev = &toks[j - 1];
            if prev.kind == TokKind::Ident && !NON_CALL_KEYWORDS.contains(&prev.text.as_str())
                || prev.is_punct(')')
                || prev.is_punct(']')
            {
                item.panics.push(PanicSite {
                    kind: PanicKind::Index,
                    line: t.line,
                    documented: lexed.allowed(t.line, PanicKind::Index.name()),
                });
            }
            j += 1;
            continue;
        }

        if t.kind != TokKind::Ident {
            j += 1;
            continue;
        }

        if matches!(t.text.as_str(), "for" | "while" | "loop") {
            pending_loop = true;
            j += 1;
            continue;
        }

        // Truncating casts: `as` followed by a narrow integer type.
        if t.text == "as" {
            if let Some(n) = toks.get(j + 1) {
                if n.kind == TokKind::Ident && NARROW_INT_TARGETS.contains(&n.text.as_str()) {
                    item.casts.push(CastSite {
                        target: n.text.clone(),
                        line: t.line,
                        documented: lexed.allowed(t.line, CAST_RULE),
                    });
                }
            }
            j += 1;
            continue;
        }

        // `static mut` — interior mutability by definition.
        if t.text == "static" && toks.get(j + 1).is_some_and(|n| n.is_ident("mut")) {
            item.hazards.push(HazardSite {
                kind: HazardKind::CellWrite,
                what: "static mut".into(),
                line: t.line,
            });
            j += 2;
            continue;
        }

        // Determinism sinks.
        if let Some((what, kind)) = sink_at(toks, j) {
            item.sinks.push(SinkSite {
                kind,
                what,
                line: t.line,
            });
        }

        // Macro invocations: `name !` followed by a delimiter. Recorded
        // as call sites so the passes see them (the `!=` operator never
        // matches: its `!` is followed by `=`, not a delimiter).
        if toks.get(j + 1).is_some_and(|n| n.is_punct('!'))
            && toks
                .get(j + 2)
                .is_some_and(|d| d.is_punct('(') || d.is_punct('[') || d.is_punct('{'))
        {
            if matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            ) {
                item.panics.push(PanicSite {
                    kind: PanicKind::PanicMacro,
                    line: t.line,
                    documented: lexed.allowed(t.line, PanicKind::PanicMacro.name()),
                });
            }
            match t.text.as_str() {
                "vec" => item.allocs.push(AllocSite {
                    kind: if in_loop {
                        AllocKind::VecLoop
                    } else {
                        AllocKind::Vec
                    },
                    what: "vec!".into(),
                    line: t.line,
                }),
                "format" => item.allocs.push(AllocSite {
                    kind: AllocKind::Str,
                    what: "format!".into(),
                    line: t.line,
                }),
                _ => {}
            }
            item.calls.push(Call {
                callee: Callee::Macro(t.text.clone()),
                line: t.line,
            });
            // Skip the `!`; the delimiter is handled next iteration so
            // the depth tracker (and the macro's argument tokens) still
            // see it.
            j += 2;
            continue;
        }

        // Calls: `ident (`, optionally with a turbofish between the
        // name and the argument list: `ident ::<…> (`. Without the
        // turbofish skip, `.collect::<Vec<_>>()` never matched `ident (`
        // and collect-allocation sites written that way were invisible.
        let direct_call = toks.get(j + 1).is_some_and(|n| n.is_punct('('));
        let turbofish_call = !direct_call
            && after_turbofish(toks, j)
                .is_some_and(|k| toks.get(k).is_some_and(|n| n.is_punct('(')));
        if (direct_call || turbofish_call) && !NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            let callee = classify_callee(toks, j);

            // Panic-method sites ride on method calls.
            if matches!(callee, Callee::Method(_)) {
                let pk = match t.text.as_str() {
                    "unwrap" | "unwrap_err" => Some(PanicKind::Unwrap),
                    "expect" | "expect_err" => Some(PanicKind::Expect),
                    _ => None,
                };
                if let Some(pk) = pk {
                    item.panics.push(PanicSite {
                        kind: pk,
                        line: t.line,
                        documented: lexed.allowed(t.line, pk.name()),
                    });
                }
                if let Some(kind) = hazard_of_method(&t.text) {
                    item.hazards.push(HazardSite {
                        kind,
                        what: format!(".{}(", t.text),
                        line: t.line,
                    });
                }
            }

            if let Some((kind, what)) = alloc_of(&callee, in_loop) {
                item.allocs.push(AllocSite {
                    kind,
                    what,
                    line: t.line,
                });
            }

            // Emission sites (trace events and metrics keys).
            if matches!(callee, Callee::Method(_) | Callee::Qualified(..)) {
                scan_emission(lexed, j, t.line, &t.text, item);
            }

            item.calls.push(Call {
                callee,
                line: t.line,
            });
        }
        j += 1;
    }
}

/// Scans a function body (token range `[start, end)`) for thread-spawn
/// regions and their worker closures.
///
/// A region is `thread::scope(...)`, however qualified (workers = the
/// closure arguments of `.spawn(` calls inside the region), or a bare
/// `thread::spawn(...)` (worker = the whole argument list). Each worker range is re-scanned with [`scan_body`], so workers
/// get exactly the same call / hazard / sink extraction as whole
/// functions — including calls made from closures nested inside the
/// worker and captures dereferenced through method-call chains.
fn scan_spawns(lexed: &Lexed, start: usize, end: usize, item: &mut FnItem) {
    let toks = &lexed.toks;
    let mut j = start;
    while j < end {
        let t = &toks[j];
        let Some((what, SinkKind::Thread)) = sink_at(toks, j) else {
            j += 1;
            continue;
        };
        let open = j + 4; // after `thread : : <target>`
        if !toks.get(open).is_some_and(|t| t.is_punct('(')) {
            j += 4;
            continue;
        }
        let close = match_paren(toks, open, end);
        let mut workers = Vec::new();
        if what == "thread::spawn" {
            workers.push(scan_worker(lexed, open + 1, close, t.line));
        } else {
            // Every `.spawn(` method call inside the scope region.
            let mut k = open + 1;
            while k < close {
                if toks[k].is_ident("spawn")
                    && toks[k - 1].is_punct('.')
                    && toks.get(k + 1).is_some_and(|n| n.is_punct('('))
                {
                    let wclose = match_paren(toks, k + 1, close);
                    workers.push(scan_worker(lexed, k + 2, wclose, toks[k].line));
                    k = wclose;
                    continue;
                }
                k += 1;
            }
        }
        item.spawns.push(SpawnSite {
            what,
            line: t.line,
            workers,
        });
        // Keep scanning inside the region so nested spawn regions are
        // recorded as their own sites.
        j = open + 1;
    }
}

/// Extracts one worker closure from the spawn call's argument range:
/// runs [`scan_body`] on the range for calls and method-marker hazards,
/// then folds in the hazard classes only visible at closure level —
/// ambient entropy sinks (→ `rng`) and unordered float accumulation
/// (`.sum::<f64>()` → `float-accum`).
fn scan_worker(lexed: &Lexed, start: usize, end: usize, line: usize) -> WorkerClosure {
    let mut scratch = FnItem::default();
    scan_body(lexed, start, end, &mut scratch);
    let mut hazards = scratch.hazards;
    for s in &scratch.sinks {
        if s.kind == SinkKind::Entropy {
            hazards.push(HazardSite {
                kind: HazardKind::Rng,
                what: s.what.to_string(),
                line: s.line,
            });
        }
    }
    let toks = &lexed.toks;
    let mut k = start;
    while k < end {
        let t = &toks[k];
        if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "sum" | "product")
            && toks[k - 1].is_punct('.')
        {
            if let Some(after) = after_turbofish(toks, k) {
                if toks[k..after.min(end)]
                    .iter()
                    .any(|g| g.is_ident("f64") || g.is_ident("f32"))
                {
                    hazards.push(HazardSite {
                        kind: HazardKind::FloatAccum,
                        what: format!(".{}::<float>()", t.text),
                        line: t.line,
                    });
                }
            }
        }
        k += 1;
    }
    hazards.sort_by_key(|h| (h.line, h.kind));
    WorkerClosure {
        line,
        calls: scratch.calls,
        hazards,
    }
}

/// Index of the `)` matching the `(` at `open`, bounded by `end` (which
/// is returned when the range ends unbalanced).
fn match_paren(toks: &[Tok], open: usize, end: usize) -> usize {
    let mut depth = 1usize;
    let mut k = open + 1;
    while k < end {
        if toks[k].is_punct('(') {
            depth += 1;
        } else if toks[k].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
        k += 1;
    }
    end
}

/// Recognizes an allocation sink in a (non-macro) call site.
fn alloc_of(callee: &Callee, in_loop: bool) -> Option<(AllocKind, String)> {
    let vec_kind = || {
        if in_loop {
            AllocKind::VecLoop
        } else {
            AllocKind::Vec
        }
    };
    match callee {
        Callee::Method(name) => match name.as_str() {
            "clone" => Some((AllocKind::Clone, ".clone()".into())),
            "to_vec" => Some((AllocKind::Clone, ".to_vec()".into())),
            "to_string" => Some((AllocKind::Str, ".to_string()".into())),
            "collect" => Some((AllocKind::Collect, ".collect()".into())),
            _ => None,
        },
        Callee::Qualified(qual, name) => match (qual.as_str(), name.as_str()) {
            ("Box", "new") => Some((AllocKind::BoxAlloc, "Box::new".into())),
            ("String", "from") => Some((AllocKind::Str, "String::from".into())),
            ("Vec" | "VecDeque", "new") => Some((vec_kind(), format!("{qual}::new"))),
            (_, "with_capacity") => Some((vec_kind(), format!("{qual}::with_capacity"))),
            ("BTreeMap" | "BTreeSet", "new") => Some((AllocKind::Map, format!("{qual}::new"))),
            _ => None,
        },
        Callee::Free(_) | Callee::Macro(_) => None,
    }
}

/// Recognizes the [`SINKS`] path whose first segment is the token at `j`.
pub fn sink_at(toks: &[Tok], j: usize) -> Option<(&'static str, SinkKind)> {
    // Segment `n` of a path sits three tokens on: `seg : : seg`.
    let segment_at = |n: usize, seg: &str| {
        let k = j + 3 * n;
        toks.get(k).is_some_and(|t| t.is_ident(seg))
            && (n == 0 || (toks[k - 1].is_punct(':') && toks[k - 2].is_punct(':')))
    };
    SINKS.into_iter().find(|(path, _)| {
        path.split("::")
            .enumerate()
            .all(|(n, seg)| segment_at(n, seg))
    })
}

/// Index of the first token after a turbofish attached to the ident at
/// `j` (`ident :: < … >` with balanced angle brackets), or `None` when
/// there is no turbofish there.
fn after_turbofish(toks: &[Tok], j: usize) -> Option<usize> {
    if !(toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(j + 2).is_some_and(|t| t.is_punct(':'))
        && toks.get(j + 3).is_some_and(|t| t.is_punct('<')))
    {
        return None;
    }
    let mut depth = 1usize;
    let mut k = j + 4;
    while k < toks.len() && depth > 0 {
        if toks[k].is_punct('<') {
            depth += 1;
        } else if toks[k].is_punct('>') {
            depth -= 1;
        }
        k += 1;
    }
    (depth == 0).then_some(k)
}

/// Classifies the callee of the `ident (` call at `j`.
fn classify_callee(toks: &[Tok], j: usize) -> Callee {
    let name = toks[j].text.clone();
    if j > 0 && toks[j - 1].is_punct('.') {
        return Callee::Method(name);
    }
    if j >= 2 && toks[j - 1].is_punct(':') && toks[j - 2].is_punct(':') {
        let mut q = j.checked_sub(3);
        // Walk back over a turbofish on the path segment so
        // `Vec::<u8>::new(…)` still resolves its qualifier: from the
        // closing `>` find the matching `<`, then require `ident ::`
        // right before it.
        if let Some(mut k) = q {
            if toks[k].is_punct('>') {
                let mut depth = 1usize;
                while depth > 0 && k > 0 {
                    k -= 1;
                    if toks[k].is_punct('>') {
                        depth += 1;
                    } else if toks[k].is_punct('<') {
                        depth -= 1;
                    }
                }
                q = (depth == 0
                    && k >= 3
                    && toks[k - 1].is_punct(':')
                    && toks[k - 2].is_punct(':')
                    && toks[k - 3].kind == TokKind::Ident)
                    .then(|| k - 3);
            }
        }
        if let Some(qi) = q {
            if toks[qi].kind == TokKind::Ident {
                return Callee::Qualified(toks[qi].text.clone(), name);
            }
        }
        return Callee::Free(name);
    }
    Callee::Free(name)
}

/// Parses the argument list of an emission-API call and records trace /
/// metric emissions. `j` is the index of the method-name ident; the next
/// token is the opening `(`.
fn scan_emission(lexed: &Lexed, j: usize, line: usize, method: &str, item: &mut FnItem) {
    if !matches!(method, "emit" | "trace" | "incr" | "record" | "set_counter") {
        return;
    }
    let toks = &lexed.toks;
    let args = split_args(toks, j + 1);

    let single_str = |arg: &[usize]| -> Option<String> {
        // Exactly one Str token, allowing a leading `&`.
        let strs: Vec<&Tok> = arg.iter().map(|&k| &toks[k]).collect();
        let non_amp: Vec<&&Tok> = strs.iter().filter(|t| !t.is_punct('&')).collect();
        match non_amp.as_slice() {
            [t] if t.kind == TokKind::Str => Some(t.text.clone()),
            _ => None,
        }
    };
    let trace_level = |arg: &[usize]| -> Option<String> {
        // `TraceLevel :: Name` anywhere in the arg.
        arg.iter().enumerate().find_map(|(p, &k)| {
            if toks[k].is_ident("TraceLevel") {
                arg.get(p + 3).map(|&k3| toks[k3].text.to_ascii_lowercase())
            } else {
                None
            }
        })
    };
    let format_key = |arg: &[usize]| -> Option<String> {
        // `& format ! ( "literal with {holes}" … )` → `*`-pattern.
        let has_format = arg
            .windows(2)
            .any(|w| toks[w[0]].is_ident("format") && toks[w[1]].is_punct('!'));
        if !has_format {
            return None;
        }
        let lit = arg.iter().find(|&&k| toks[k].kind == TokKind::Str)?;
        Some(pattern_of(&toks[*lit].text))
    };

    match method {
        "emit" => {
            // Tracer::emit(t, component, level, kind, build)
            let level = if args.len() >= 5 {
                trace_level(&args[2])
            } else {
                None
            };
            if let Some(level) = level {
                item.trace_emits.push(TraceEmit {
                    component: single_str(&args[1]),
                    kind: single_str(&args[3]),
                    level: Some(level),
                    line,
                });
            }
        }
        "trace" => {
            if args.len() >= 4 {
                // Ctx::trace(component, level, kind, build)
                if let Some(level) = trace_level(&args[1]) {
                    item.trace_emits.push(TraceEmit {
                        component: single_str(&args[0]),
                        kind: single_str(&args[2]),
                        level: Some(level),
                        line,
                    });
                }
            } else if args.len() == 3 {
                // Metrics::trace(key, t, v)
                if let Some(key) = single_str(&args[0]) {
                    item.metric_emits.push(MetricEmit {
                        key,
                        api: MetricKind::Series,
                        line,
                    });
                }
            }
        }
        "incr" | "set_counter" | "record" => {
            let api = if method == "record" {
                MetricKind::Histogram
            } else {
                MetricKind::Counter
            };
            if let Some(key) = args
                .first()
                .and_then(|a| single_str(a).or_else(|| format_key(a)))
            {
                item.metric_emits.push(MetricEmit { key, api, line });
            }
        }
        _ => {}
    }
}

/// Splits the argument list of the call whose `(` is at `open` into
/// top-level argument token-index slices.
fn split_args(toks: &[Tok], open: usize) -> Vec<Vec<usize>> {
    let mut args: Vec<Vec<usize>> = Vec::new();
    let mut cur: Vec<usize> = Vec::new();
    let mut depth = 1usize;
    let mut k = open + 1;
    while k < toks.len() && depth > 0 {
        let t = &toks[k];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if depth == 1 && t.is_punct(',') {
            args.push(std::mem::take(&mut cur));
            k += 1;
            continue;
        }
        cur.push(k);
        k += 1;
    }
    if !cur.is_empty() {
        args.push(cur);
    }
    args
}

/// Replaces every `{…}` hole in a format literal with `*`.
fn pattern_of(lit: &str) -> String {
    let mut out = String::new();
    let mut in_hole = false;
    for c in lit.chars() {
        match c {
            '{' if !in_hole => {
                in_hole = true;
                out.push('*');
            }
            '}' if in_hole => in_hole = false,
            _ if in_hole => {}
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::lexer::lex;

    fn parse(src: &str) -> Vec<FnItem> {
        parse_file("crates/x/src/lib.rs", &lex(src), false, false)
    }

    #[test]
    fn free_method_and_qualified_calls() {
        let items = parse("fn a() { b(); x.c(); Foo::d(); mod1::e(); }\nfn b() {}\n");
        assert_eq!(items.len(), 2);
        let calls: Vec<&Callee> = items[0].calls.iter().map(|c| &c.callee).collect();
        assert_eq!(
            calls,
            vec![
                &Callee::Free("b".into()),
                &Callee::Method("c".into()),
                &Callee::Qualified("Foo".into(), "d".into()),
                &Callee::Qualified("mod1".into(), "e".into()),
            ]
        );
    }

    #[test]
    fn impl_blocks_qualify_methods_and_record_traits() {
        let src = "impl Foo { fn m(&self) {} }\nimpl World<Ev> for Bar { fn handle(&mut self) {} }\nimpl<'a, E> Ctx<'a, E> { fn now(&self) {} }\nimpl fmt::Display for Baz { fn fmt(&self) {} }\n";
        let items = parse(src);
        let sigs: Vec<(String, Option<&str>)> = items
            .iter()
            .map(|f| (f.qualname(), f.trait_name.as_deref()))
            .collect();
        assert_eq!(
            sigs,
            vec![
                ("Foo::m".to_string(), None),
                ("Bar::handle".to_string(), Some("World")),
                ("Ctx::now".to_string(), None),
                ("Baz::fmt".to_string(), Some("Display")),
            ]
        );
    }

    #[test]
    fn cfg_test_regions_mark_fns_and_close_properly() {
        let src = "fn lib_fn() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let items = parse(src);
        let flags: Vec<(&str, bool)> = items.iter().map(|f| (f.name.as_str(), f.is_test)).collect();
        assert_eq!(
            flags,
            vec![("lib_fn", false), ("t", true), ("after", false)]
        );
        // A `#[cfg(test)]` fn is itself the region; it must not leak
        // onto the next braced item.
        let src = "#[cfg(test)]\nfn helper() {}\nimpl X { fn m(&self) {} }\n";
        let flags: Vec<bool> = parse(src).iter().map(|f| f.is_test).collect();
        assert_eq!(flags, vec![true, false]);
    }

    #[test]
    fn sinks_are_detected_with_boundary_audit() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        let items = parse(src);
        assert_eq!(items[0].sinks.len(), 1);
        let sink = items[0].sinks[0].kind;
        assert_eq!(sink, SinkKind::Wallclock);
        assert!(!sink.audited("crates/sim/src/trace.rs", &lex(src), 1));
        // Inside the wallclock boundary file with an allow, it's audited.
        let src = "fn f() { let t = std::time::Instant::now(); // lint:allow(wallclock)\n }\n";
        assert!(sink.audited("crates/sim/src/trace.rs", &lex(src), 1));
        // Same allow outside the boundary file: not audited.
        assert!(!sink.audited("crates/net/src/host.rs", &lex(src), 1));
        // Threads sink.
        let src = "fn g() { std::thread::scope(|s| {}); }\n";
        let items = parse(src);
        assert_eq!(items[0].sinks[0].kind, SinkKind::Thread);
        assert_eq!(items[0].sinks[0].what, "thread::scope");
    }

    #[test]
    fn panic_sites_with_documentation_flags() {
        let src = "fn f(o: Option<u8>, v: &[u8]) -> u8 {\n    let a = o.unwrap();\n    let b = o.expect(\"set in new()\"); // lint:allow(expect)\n    if a > 9 { panic!(\"no\"); }\n    v[0] + b\n}\n";
        let items = parse(src);
        let sites: Vec<(PanicKind, bool)> = items[0]
            .panics
            .iter()
            .map(|p| (p.kind, p.documented))
            .collect();
        assert_eq!(
            sites,
            vec![
                (PanicKind::Unwrap, false),
                (PanicKind::Expect, true),
                (PanicKind::PanicMacro, false),
                (PanicKind::Index, false),
            ]
        );
    }

    #[test]
    fn vec_macro_and_attributes_are_not_index_sites() {
        let src = "#[derive(Debug)]\nstruct S;\nfn f() -> Vec<u8> { let x: [u8; 2] = [1, 2]; vec![x[0]] }\n";
        let items = parse(src);
        // Only x[0] counts: the array literal, the type, the attribute
        // and the vec! bracket do not.
        assert_eq!(items[0].panics.len(), 1);
        assert_eq!(items[0].panics[0].kind, PanicKind::Index);
    }

    #[test]
    fn macro_invocations_are_recorded_as_call_sites() {
        // Regression (the pre-alloc-pass parser skipped macro names
        // entirely): `vec![…]` / `format!(…)` must surface as Macro
        // call sites, on the right lines, without disturbing the
        // surrounding call stream.
        let src = "fn f() {\n    let v = vec![1, 2];\n    let s = format!(\"{v:?}\");\n    g(s);\n}\nfn g(_s: String) {}\n";
        let items = parse(src);
        let calls: Vec<(&Callee, usize)> =
            items[0].calls.iter().map(|c| (&c.callee, c.line)).collect();
        assert_eq!(
            calls,
            vec![
                (&Callee::Macro("vec".into()), 2),
                (&Callee::Macro("format".into()), 3),
                (&Callee::Free("g".into()), 4),
            ]
        );
        // `!=` is an operator, not a macro invocation.
        let items = parse("fn h(a: u8, b: u8) -> bool { a != b }\n");
        assert!(items[0].calls.is_empty(), "{:?}", items[0].calls);
    }

    #[test]
    fn panic_macros_nested_inside_other_macros_are_recorded() {
        // Macros-in-macros: the panic site inside the outer macro's
        // argument tokens must be inventoried, and both macro
        // invocations must appear as call sites.
        let src = "fn f(x: u8) { assert_custom!(x > 0, format!(\"bad {}\", panic!(\"no\"))); }\n";
        let items = parse(src);
        assert_eq!(items[0].panics.len(), 1);
        assert_eq!(items[0].panics[0].kind, PanicKind::PanicMacro);
        let macros: Vec<&str> = items[0]
            .calls
            .iter()
            .filter_map(|c| match &c.callee {
                Callee::Macro(m) => Some(m.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(macros, vec!["assert_custom", "format", "panic"]);
    }

    #[test]
    fn alloc_sites_are_classified_with_loop_awareness() {
        let src = "fn f(xs: &[u32]) {\n    let mut acc = Vec::new();\n    for x in xs {\n        let t = vec![*x];\n        let u: Vec<u32> = xs.iter().copied().collect();\n        let w = Vec::with_capacity(4);\n        acc.push(t.len() + u.len() + w.capacity());\n    }\n    let b = Box::new(acc);\n    let s = String::from(\"x\");\n    let s2 = s.to_string();\n    let c = xs.to_vec();\n    let d = c.clone();\n    let m = BTreeMap::new();\n    let fs = format!(\"{b:?}{s2}{d:?}{m:?}\");\n    drop(fs);\n}\n";
        let items = parse(src);
        let sites: Vec<(AllocKind, &str)> = items[0]
            .allocs
            .iter()
            .map(|a| (a.kind, a.what.as_str()))
            .collect();
        assert_eq!(
            sites,
            vec![
                (AllocKind::Vec, "Vec::new"),
                (AllocKind::VecLoop, "vec!"),
                (AllocKind::Collect, ".collect()"),
                (AllocKind::VecLoop, "Vec::with_capacity"),
                (AllocKind::BoxAlloc, "Box::new"),
                (AllocKind::Str, "String::from"),
                (AllocKind::Str, ".to_string()"),
                (AllocKind::Clone, ".to_vec()"),
                (AllocKind::Clone, ".clone()"),
                (AllocKind::Map, "BTreeMap::new"),
                (AllocKind::Str, "format!"),
            ]
        );
    }

    #[test]
    fn loop_body_tracking_closes_with_the_loop() {
        // After the loop's closing brace, Vec construction is per-call
        // again; `while` and bare `loop` arm the tracker too.
        let src = "fn f(n: usize) {\n    while n > 0 { let a = Vec::<u8>::new(); drop(a); }\n    loop { let b = vec![0u8]; break; }\n    let c: Vec<u8> = Vec::new();\n    drop(c);\n}\n";
        let items = parse(src);
        let kinds: Vec<AllocKind> = items[0].allocs.iter().map(|a| a.kind).collect();
        assert_eq!(
            kinds,
            vec![AllocKind::VecLoop, AllocKind::VecLoop, AllocKind::Vec]
        );
    }

    #[test]
    fn turbofish_calls_are_recognized() {
        // `.collect::<Vec<_>>()` and `Vec::<u8>::new()` are calls (and
        // allocation sites) despite the generics between name and `(`.
        let src = "fn f(xs: &[u8]) -> usize {\n    let v = xs.iter().copied().collect::<Vec<_>>();\n    let w = Vec::<u8>::new();\n    v.len() + w.len()\n}\n";
        let items = parse(src);
        assert!(items[0]
            .calls
            .iter()
            .any(|c| c.callee == Callee::Method("collect".into())));
        assert!(items[0]
            .calls
            .iter()
            .any(|c| c.callee == Callee::Qualified("Vec".into(), "new".into())));
        let kinds: Vec<AllocKind> = items[0].allocs.iter().map(|a| a.kind).collect();
        assert_eq!(kinds, vec![AllocKind::Collect, AllocKind::Vec]);
    }

    #[test]
    fn alloc_escape_on_fn_declaration_marks_the_item_exempt() {
        let src = "// lint:allow(alloc) — one-shot setup path\nfn setup() { let v = vec![1]; drop(v); }\nfn hot() { let v = vec![1]; drop(v); }\n";
        let items = parse(src);
        assert!(items[0].alloc_exempt);
        assert!(!items[1].alloc_exempt);
        // The sites are still *recorded* either way; exemption is
        // applied by the inventory, not the parser.
        assert_eq!(items[0].allocs.len(), 1);
    }

    #[test]
    fn trace_and_metric_emissions_are_extracted() {
        let src = r#"fn f(ctx: &mut C) {
            ctx.trace("gnutella", TraceLevel::Debug, "join", |f| { f.u64("host", 1); });
            ctx.tracer.emit(now, "net", TraceLevel::Info, "transfer", |f| {});
            ctx.metrics.incr("gnutella.joins", 1);
            ctx.metrics.record("x.h", 1.0);
            ctx.metrics.trace("engine.queue_depth", now, 1.0);
            metrics.incr(&format!("engine.events.{kind}"), n);
        }"#;
        let items = parse(src);
        let te: Vec<(Option<&str>, Option<&str>, Option<&str>)> = items[0]
            .trace_emits
            .iter()
            .map(|e| {
                (
                    e.component.as_deref(),
                    e.kind.as_deref(),
                    e.level.as_deref(),
                )
            })
            .collect();
        assert_eq!(
            te,
            vec![
                (Some("gnutella"), Some("join"), Some("debug")),
                (Some("net"), Some("transfer"), Some("info")),
            ]
        );
        let me: Vec<(&str, MetricKind)> = items[0]
            .metric_emits
            .iter()
            .map(|e| (e.key.as_str(), e.api))
            .collect();
        assert_eq!(
            me,
            vec![
                ("gnutella.joins", MetricKind::Counter),
                ("x.h", MetricKind::Histogram),
                ("engine.queue_depth", MetricKind::Series),
                ("engine.events.*", MetricKind::Counter),
            ]
        );
    }

    #[test]
    fn forwarders_with_variable_args_are_not_emissions() {
        // Ctx::trace forwarding to Tracer::emit passes variables: the
        // level arg carries no TraceLevel token, so nothing is recorded.
        let src = "fn trace(&mut self, c: &str, l: TL, k: &str) { self.tracer.emit(self.now, c, l, k, b); }\n";
        let items = parse(src);
        assert!(items[0].trace_emits.is_empty());
    }

    #[test]
    fn fn_without_body_is_skipped() {
        let src =
            "trait T { fn decl(&self); fn with_default(&self) { helper(); } }\nfn helper() {}\n";
        let items = parse(src);
        let names: Vec<&str> = items.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["with_default", "helper"]);
    }

    #[test]
    fn truncating_casts_are_recorded_with_documentation_flags() {
        let src = "fn f(x: u64, n: usize) -> u32 {\n    let a = x as u32;\n    let b = n as u16; // lint:allow(cast) — bound: n < 100 by construction\n    let c = x as usize;\n    let d = x as u64;\n    a + b as u32 + c as u32 + d as u32\n}\n";
        let items = parse(src);
        let sites: Vec<(&str, usize, bool)> = items[0]
            .casts
            .iter()
            .map(|c| (c.target.as_str(), c.line, c.documented))
            .collect();
        // `as usize` / `as u64` are widening-or-equal on this codebase's
        // index types and are not inventoried.
        assert_eq!(
            sites,
            vec![
                ("u32", 2, false),
                ("u16", 3, true),
                ("u32", 6, false),
                ("u32", 6, false),
                ("u32", 6, false),
            ]
        );
    }

    #[test]
    fn hazard_markers_are_recorded_per_function() {
        let src = "fn f(c: &Cell<u64>, m: &Mutex<Vec<u8>>) {\n    static mut SCRATCH: u64 = 0;\n    c.set(c.get() + 1);\n    m.lock().unwrap().push(1);\n    n.fetch_add(1, Ordering::Relaxed);\n}\nfn pure(s: &str) -> String { s.replace('x', \"y\") }\n";
        let items = parse(src);
        let sites: Vec<(HazardKind, &str)> = items[0]
            .hazards
            .iter()
            .map(|h| (h.kind, h.what.as_str()))
            .collect();
        assert_eq!(
            sites,
            vec![
                (HazardKind::CellWrite, "static mut"),
                (HazardKind::CellWrite, ".set("),
                (HazardKind::Lock, ".lock("),
                (HazardKind::Atomic, ".fetch_add("),
            ]
        );
        // `replace` collides with `str::replace` and is deliberately not
        // a whole-function marker.
        assert!(items[1].hazards.is_empty(), "{:?}", items[1].hazards);
    }

    #[test]
    fn scope_spawn_workers_are_extracted_with_calls_and_hazards() {
        // A scope region with two workers: a move closure calling
        // through `Self::`, and a closure writing a captured Cell.
        let src = "impl R {\n    fn build(&self, c: &Cell<u64>) {\n        std::thread::scope(|s| {\n            s.spawn(move || Self::chunk(1, 2));\n            s.spawn(|| c.set(c.get() + 1));\n        });\n    }\n}\n";
        let items = parse(src);
        assert_eq!(items[0].spawns.len(), 1);
        let sp = &items[0].spawns[0];
        assert_eq!(sp.what, "thread::scope");
        assert_eq!(sp.line, 3);
        assert_eq!(sp.workers.len(), 2);
        assert_eq!(sp.workers[0].line, 4);
        assert!(sp.workers[0]
            .calls
            .iter()
            .any(|c| c.callee == Callee::Qualified("Self".into(), "chunk".into())));
        assert!(sp.workers[0].hazards.is_empty());
        let hz: Vec<(HazardKind, usize)> = sp.workers[1]
            .hazards
            .iter()
            .map(|h| (h.kind, h.line))
            .collect();
        assert_eq!(hz, vec![(HazardKind::CellWrite, 5)]);
    }

    #[test]
    fn qualified_scope_and_bare_spawn_are_named_by_suffix() {
        let src = "fn a() { foo::thread::scope(|s| { s.spawn(|_| work()); }).unwrap(); }\nfn b() { std::thread::spawn(move || work()); }\nfn work() {}\n";
        let items = parse(src);
        assert_eq!(items[0].spawns[0].what, "thread::scope");
        assert_eq!(items[0].spawns[0].workers.len(), 1);
        assert_eq!(items[1].spawns[0].what, "thread::spawn");
        assert_eq!(items[1].spawns[0].workers.len(), 1);
        for f in &items[..2] {
            assert!(f.spawns[0].workers[0]
                .calls
                .iter()
                .any(|c| c.callee == Callee::Free("work".into())));
        }
    }

    #[test]
    fn nested_closures_and_method_chains_inside_workers_are_scanned() {
        // Calls made from a closure nested inside the worker, and a
        // hazard reached through a method-call chain on a capture, must
        // both be attributed to the worker.
        let src = "fn f(state: &S, xs: &[u8]) {\n    std::thread::scope(|s| {\n        s.spawn(move || {\n            let n = xs.iter().map(|x| helper(*x)).count();\n            state.cache().counters().set(n as u64);\n        });\n    });\n}\nfn helper(_x: u8) -> u8 { 0 }\n";
        let items = parse(src);
        let w = &items[0].spawns[0].workers[0];
        assert!(w
            .calls
            .iter()
            .any(|c| c.callee == Callee::Free("helper".into())));
        for m in ["cache", "counters", "set"] {
            assert!(
                w.calls.iter().any(|c| c.callee == Callee::Method(m.into())),
                "missing method call {m}"
            );
        }
        let hz: Vec<(HazardKind, &str)> = w
            .hazards
            .iter()
            .map(|h| (h.kind, h.what.as_str()))
            .collect();
        assert_eq!(hz, vec![(HazardKind::CellWrite, ".set(")]);
        // `as u64` widens; nothing lands in the cast inventory.
        assert!(items[0].casts.is_empty());
    }

    #[test]
    fn worker_rng_and_float_accum_hazards_are_flagged() {
        let src = "fn f(xs: &[f64], out: &Mutex<Vec<f64>>) {\n    std::thread::scope(|s| {\n        s.spawn(move || {\n            let r = thread_rng();\n            let t = xs.iter().copied().sum::<f64>();\n            out.lock().unwrap().push(t);\n        });\n    });\n}\n";
        let items = parse(src);
        let w = &items[0].spawns[0].workers[0];
        let hz: Vec<(HazardKind, &str)> = w
            .hazards
            .iter()
            .map(|h| (h.kind, h.what.as_str()))
            .collect();
        assert_eq!(
            hz,
            vec![
                (HazardKind::Rng, "thread_rng"),
                (HazardKind::FloatAccum, ".sum::<float>()"),
                (HazardKind::Lock, ".lock("),
            ]
        );
    }

    #[test]
    fn where_clause_and_return_generics_do_not_derail_body_detection() {
        let src = "fn f<T>(x: T) -> Result<Vec<T>, String> where T: Clone { g(); Ok(vec![]) }\nfn g() {}\n";
        let items = parse(src);
        assert_eq!(items.len(), 2);
        assert!(items[0]
            .calls
            .iter()
            .any(|c| c.callee == Callee::Free("g".into())));
    }
}
