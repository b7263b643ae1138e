//! Workspace call graph: name resolution, entry points, and shortest
//! witness chains.
//!
//! Resolution is approximate by design — it over-approximates the
//! possible callees of each call site so that reachability proofs stay
//! sound (a sink the analyzer misses would be a false negative; an
//! extra edge only costs a spurious-but-explainable witness chain):
//!
//! - `.m(...)` method calls resolve to *every* impl method named `m`
//!   in the workspace.
//! - `Qual::f(...)` resolves to methods of the impl type `Qual`
//!   (with `Self` mapped to the caller's own impl type); when `Qual`
//!   names no known type, to free functions defined in a file whose
//!   stem is `Qual` (module-style call), falling back to all free
//!   functions named `f`.
//! - `f(...)` free calls prefer free functions in the caller's own
//!   file, falling back to all free functions named `f`.
//!
//! Test functions are excluded from the graph entirely: they neither
//! resolve as callees nor act as callers.

use std::collections::{BTreeMap, HashMap, VecDeque};

use crate::analyze::parser::{AllocSite, Callee, FnItem};

/// The resolved workspace call graph over non-test functions.
pub struct Graph {
    /// All parsed functions (test fns included, but unresolved).
    pub fns: Vec<FnItem>,
    /// `edges[i]` = outgoing `(callee index, call line)` pairs of fn `i`.
    pub edges: Vec<Vec<(usize, usize)>>,
    /// Indices of the simulation entry points.
    pub entries: Vec<usize>,
    /// Total resolved call edges (for the closing summary line).
    pub edge_count: usize,
    /// Resolved targets of each worker closure's calls, keyed
    /// `(fn index, spawn index, worker index)`. Worker calls resolve
    /// with the *enclosing function* as caller context (`Self::` maps to
    /// its impl type, free calls prefer its file), so these are the BFS
    /// roots for worker-side reachability in the parallel pass.
    pub worker_edges: BTreeMap<(usize, usize, usize), Vec<(usize, usize)>>,
}

/// One hop of a witness chain: function index plus the line of the call
/// that led into it (`None` for the chain head).
#[derive(Clone, Debug)]
pub struct Hop {
    /// Index into `Graph::fns`.
    pub fn_idx: usize,
    /// Line of the call site in the *previous* hop's body.
    pub call_line: Option<usize>,
}

impl Graph {
    /// Builds the graph: resolves every call site of every non-test
    /// function and computes the entry-point set.
    pub fn build(fns: Vec<FnItem>) -> Graph {
        let mut by_method: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut by_free: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut by_qual: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
        let mut known_types: HashMap<&str, ()> = HashMap::new();

        for (i, f) in fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            match &f.impl_type {
                Some(ty) => {
                    by_method.entry(&f.name).or_default().push(i);
                    by_qual.entry((ty, &f.name)).or_default().push(i);
                    known_types.insert(ty, ());
                }
                None => by_free.entry(&f.name).or_default().push(i),
            }
        }

        let file_stem = |file: &str| -> String {
            file.rsplit('/')
                .next()
                .unwrap_or(file)
                .trim_end_matches(".rs")
                .to_string()
        };

        let resolve = |caller: &FnItem, callee: &Callee| -> Vec<usize> {
            match callee {
                Callee::Method(name) => by_method.get(name.as_str()).cloned().unwrap_or_default(),
                Callee::Qualified(qual, name) => {
                    let ty = if qual == "Self" {
                        caller.impl_type.as_deref().unwrap_or("Self")
                    } else {
                        qual.as_str()
                    };
                    if let Some(v) = by_qual.get(&(ty, name.as_str())) {
                        v.clone()
                    } else if known_types.contains_key(ty) {
                        // A known impl type without that method:
                        // std-ish or derived — no workspace target.
                        Vec::new()
                    } else {
                        // Module-style qualifier: prefer free fns in
                        // the file named after the module.
                        let all = by_free.get(name.as_str()).cloned().unwrap_or_default();
                        let in_module: Vec<usize> = all
                            .iter()
                            .copied()
                            .filter(|&t| file_stem(&fns[t].file) == *qual)
                            .collect();
                        if in_module.is_empty() {
                            all
                        } else {
                            in_module
                        }
                    }
                }
                Callee::Free(name) => {
                    let all = by_free.get(name.as_str()).cloned().unwrap_or_default();
                    let local: Vec<usize> = all
                        .iter()
                        .copied()
                        .filter(|&t| fns[t].file == caller.file)
                        .collect();
                    if local.is_empty() {
                        all
                    } else {
                        local
                    }
                }
                // Macros have no workspace `fn` body to resolve into;
                // their argument tokens were scanned in place, so the
                // call site exists purely for the sink passes.
                Callee::Macro(_) => Vec::new(),
            }
        };

        let mut edges: Vec<Vec<(usize, usize)>> = vec![Vec::new(); fns.len()];
        let mut edge_count = 0usize;
        let mut worker_edges: BTreeMap<(usize, usize, usize), Vec<(usize, usize)>> =
            BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            for call in &f.calls {
                for t in resolve(f, &call.callee) {
                    edges[i].push((t, call.line));
                    edge_count += 1;
                }
            }
            for (si, sp) in f.spawns.iter().enumerate() {
                for (wi, w) in sp.workers.iter().enumerate() {
                    let e = worker_edges.entry((i, si, wi)).or_default();
                    for call in &w.calls {
                        for t in resolve(f, &call.callee) {
                            e.push((t, call.line));
                        }
                    }
                }
            }
        }

        let entries = find_entries(&fns);
        Graph {
            fns,
            edges,
            entries,
            edge_count,
            worker_edges,
        }
    }

    /// BFS from the simulation entry set. See [`Graph::reach_from`].
    pub fn reach(&self) -> (Vec<usize>, Vec<Option<(usize, usize)>>) {
        self.reach_from(&self.entries)
    }

    /// BFS from an arbitrary start set. Returns `(dist, parent)` where
    /// `parent[i] = (predecessor fn index, call line)` on a shortest
    /// path; unreachable functions have `dist == usize::MAX`.
    pub fn reach_from(&self, starts: &[usize]) -> (Vec<usize>, Vec<Option<(usize, usize)>>) {
        let n = self.fns.len();
        let mut dist = vec![usize::MAX; n];
        let mut parent: Vec<Option<(usize, usize)>> = vec![None; n];
        let mut q = VecDeque::new();
        for &e in starts {
            if dist[e] == usize::MAX {
                dist[e] = 0;
                q.push_back(e);
            }
        }
        while let Some(u) = q.pop_front() {
            for &(v, line) in &self.edges[u] {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    parent[v] = Some((u, line));
                    q.push_back(v);
                }
            }
        }
        (dist, parent)
    }

    /// Reconstructs the shortest witness chain from an entry point down
    /// to `target`, using the parent pointers from [`Graph::reach`].
    pub fn witness(&self, parent: &[Option<(usize, usize)>], target: usize) -> Vec<Hop> {
        let mut chain = vec![Hop {
            fn_idx: target,
            call_line: None,
        }];
        let mut cur = target;
        #[expect(clippy::expect_used, reason = "the chain starts with the target hop")]
        while let Some((p, line)) = parent[cur] {
            chain.last_mut().expect("chain is never empty").call_line = Some(line);
            chain.push(Hop {
                fn_idx: p,
                call_line: None,
            });
            cur = p;
        }
        chain.reverse();
        chain
    }

    /// Renders a witness chain as one indented block, `file:line` per hop.
    pub fn render_witness(&self, chain: &[Hop], sink_desc: &str, sink_line: usize) -> String {
        let mut out = String::new();
        for (i, hop) in chain.iter().enumerate() {
            let f = &self.fns[hop.fn_idx];
            let arrow = if i == 0 { "  witness: " } else { "    -> " };
            let via = match chain.get(i.wrapping_sub(1)).filter(|_| i > 0) {
                Some(prev) => {
                    let pf = &self.fns[prev.fn_idx];
                    match prev.call_line {
                        Some(l) => format!("  [call at {}:{l}]", pf.file),
                        None => String::new(),
                    }
                }
                None => String::new(),
            };
            out.push_str(&format!(
                "{arrow}{} ({}:{}){via}\n",
                f.qualname(),
                f.file,
                f.line
            ));
        }
        let last = chain.last().map(|h| &self.fns[h.fn_idx]);
        if let Some(f) = last {
            out.push_str(&format!("    -> {sink_desc} @ {}:{sink_line}\n", f.file));
        }
        out
    }
}

/// Indices of the non-test functions that are the engine step loop
/// (`Simulator::run` / `run_until`), an overlay event handler (a `handle`
/// method of a `World` trait impl) — the core both entry sets share — or
/// one of `extra`.
fn entries_where(fns: &[FnItem], extra: impl Fn(&FnItem) -> bool) -> Vec<usize> {
    let step_loop = |f: &FnItem| {
        f.impl_type.as_deref() == Some("Simulator")
            && matches!(f.name.as_str(), "run" | "run_until")
    };
    let handler = |f: &FnItem| {
        f.impl_type.is_some() && f.trait_name.as_deref() == Some("World") && f.name == "handle"
    };
    (0..fns.len())
        .filter(|&i| {
            let f = &fns[i];
            !f.is_test && (step_loop(f) || handler(f) || extra(f))
        })
        .collect()
}

/// Computes the simulation entry-point set: the step loop and handlers
/// (see [`entries_where`]) plus
///
/// - every `Ctx` method (the API surface handlers call back into),
/// - free `run` / `run_traced` functions under
///   `crates/core/src/experiments/` (experiment drivers).
fn find_entries(fns: &[FnItem]) -> Vec<usize> {
    entries_where(fns, |f| match f.impl_type.as_deref() {
        Some(ty) => ty == "Ctx",
        None => {
            matches!(f.name.as_str(), "run" | "run_traced")
                && f.file.contains("crates/core/src/experiments/")
        }
    })
}

/// Computes the *hot-path* entry set of the allocation-discipline pass —
/// deliberately narrower than [`find_entries`]: only code that runs per
/// simulated event / per routing query, not one-shot experiment drivers
/// or build paths. The step loop and handlers plus
///
/// - `Routing::route` / `Routing::path_links` (per-query table reads),
/// - `Underlay::latency_us` / `rtt_us` (the queries every overlay
///   decision bottoms out in),
/// - the kademlia per-message handlers `DhtNetwork::rpc` /
///   `DhtNetwork::lookup`,
/// - the bittorrent swarm's per-round step (`Swarm::round`; its set-up
///   `Swarm::new` and tear-down `Swarm::finish` are one-shot).
pub fn find_hot_entries(fns: &[FnItem]) -> Vec<usize> {
    entries_where(fns, |f| {
        matches!(
            (f.impl_type.as_deref(), f.name.as_str()),
            (Some("Routing"), "route" | "path_links")
                | (Some("Underlay"), "latency_us" | "rtt_us")
                | (Some("DhtNetwork"), "rpc" | "lookup")
                | (Some("Swarm"), "round")
        )
    })
}

/// A pass's site inventory: `(file, qualname, key)` → the source line
/// of every site behind the key, in source order. The key is what the
/// pass groups by — the allocation kind or the cast's target type.
pub type Inventory = BTreeMap<(String, String, String), Vec<usize>>;

/// Builds the inventory of one pass over the non-test, non-bin functions
/// reachable per `dist` (from [`Graph::reach_from`]); `sites` lists a
/// function's `(key, line)` sites.
pub fn inventory(
    graph: &Graph,
    dist: &[usize],
    sites: impl Fn(&FnItem) -> Vec<(String, usize)>,
) -> Inventory {
    let mut inv = Inventory::new();
    for (i, f) in graph.fns.iter().enumerate() {
        if f.is_test || f.is_bin || dist[i] == usize::MAX {
            continue;
        }
        for (key, line) in sites(f) {
            inv.entry((f.file.clone(), f.qualname(), key))
                .or_default()
                .push(line);
        }
    }
    inv
}

/// Total sites behind an inventory's keys.
pub fn site_count(inv: &Inventory) -> usize {
    inv.values().map(Vec::len).sum()
}

/// Hot-path allocation sites of `f` keyed by kind; none when the `fn`
/// carries the `lint:allow(alloc)` one-shot-path escape.
pub fn alloc_sites(f: &FnItem) -> Vec<(String, usize)> {
    if f.alloc_exempt {
        return Vec::new();
    }
    let key = |a: &AllocSite| (a.kind.name().to_string(), a.line);
    f.allocs.iter().map(key).collect()
}

/// Truncating casts of `f` not documented with `lint:allow(cast)`, keyed
/// by target type.
pub fn cast_sites(f: &FnItem) -> Vec<(String, usize)> {
    let sites = f.casts.iter().filter(|c| !c.documented);
    sites.map(|c| (c.target.clone(), c.line)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::lexer::lex;
    use crate::analyze::parser::parse_file;

    fn graph_of(files: &[(&str, &str)]) -> Graph {
        let mut fns = Vec::new();
        for (label, src) in files {
            fns.extend(parse_file(label, &lex(src), false, false));
        }
        Graph::build(fns)
    }

    #[test]
    fn indirect_sink_reached_through_two_hops_with_witness() {
        let g = graph_of(&[
            (
                "crates/sim/src/engine.rs",
                "impl Simulator { fn run(&mut self) { helper(); } }\nfn helper() { leak(); }\n",
            ),
            (
                "crates/net/src/bad.rs",
                "fn leak() { let t = std::time::Instant::now(); }\n",
            ),
        ]);
        let (dist, parent) = g.reach();
        let leak = g
            .fns
            .iter()
            .position(|f| f.name == "leak")
            .expect("leak fn parsed");
        assert_ne!(dist[leak], usize::MAX, "leak must be reachable");
        let chain = g.witness(&parent, leak);
        let names: Vec<String> = chain.iter().map(|h| g.fns[h.fn_idx].qualname()).collect();
        assert_eq!(names, vec!["Simulator::run", "helper", "leak"]);
        let rendered = g.render_witness(&chain, "Instant::now", 1);
        assert!(rendered.contains("Simulator::run (crates/sim/src/engine.rs:1)"));
        assert!(rendered.contains("leak (crates/net/src/bad.rs:1)"));
        assert!(rendered.contains("Instant::now @ crates/net/src/bad.rs:1"));
    }

    #[test]
    fn world_handle_and_ctx_methods_are_entries() {
        let g = graph_of(&[(
            "crates/gnutella/src/sim.rs",
            "impl World<Ev> for G { fn handle(&mut self) {} }\nimpl Ctx<'_, E> { fn send(&mut self) {} }\nfn not_entry() {}\n",
        )]);
        let names: Vec<String> = g.entries.iter().map(|&i| g.fns[i].qualname()).collect();
        assert_eq!(names, vec!["G::handle", "Ctx::send"]);
    }

    #[test]
    fn test_fns_neither_call_nor_get_called() {
        let src = "impl Simulator { fn run(&mut self) {} }\n#[cfg(test)]\nmod tests {\n    fn t() { dangerous(); }\n}\nfn dangerous() {}\n";
        let g = graph_of(&[("crates/sim/src/engine.rs", src)]);
        let (dist, _) = g.reach();
        let d = g
            .fns
            .iter()
            .position(|f| f.name == "dangerous")
            .expect("parsed");
        assert_eq!(dist[d], usize::MAX, "only a test fn calls dangerous");
    }

    #[test]
    fn free_calls_prefer_same_file_targets() {
        let g = graph_of(&[
            (
                "crates/core/src/experiments/e01.rs",
                "pub fn run() { step(); }\nfn step() {}\n",
            ),
            (
                "crates/core/src/experiments/e02.rs",
                "fn step() { loop_forever(); }\nfn loop_forever() {}\n",
            ),
        ]);
        let (dist, _) = g.reach();
        let e02_step = g
            .fns
            .iter()
            .position(|f| f.name == "step" && f.file.contains("e02"))
            .expect("parsed");
        assert_eq!(
            dist[e02_step],
            usize::MAX,
            "e01::run must bind to its own file's step, not e02's"
        );
    }

    #[test]
    fn module_qualified_call_binds_to_file_stem() {
        let g = graph_of(&[
            (
                "crates/xtask/src/main.rs",
                "fn main() { trace_cmd::run(); }\n",
            ),
            ("crates/xtask/src/trace_cmd.rs", "pub fn run() {}\n"),
            ("crates/core/src/experiments/e03.rs", "pub fn run() {}\n"),
        ]);
        let main = g.fns.iter().position(|f| f.name == "main").expect("parsed");
        let targets: Vec<&str> = g.edges[main]
            .iter()
            .map(|&(t, _)| g.fns[t].file.as_str())
            .collect();
        assert_eq!(targets, vec!["crates/xtask/src/trace_cmd.rs"]);
    }

    #[test]
    fn trait_object_method_calls_resolve_to_every_impl() {
        // A call through `dyn Underlay` cannot be narrowed statically;
        // the over-approximation pins it to *every* impl method named
        // `latency_us`, keeping reachability sound for both impls.
        let g = graph_of(&[(
            "crates/net/src/underlay.rs",
            "impl Simulator { fn run(&mut self, u: &dyn Underlay) { u.latency_us(); } }\nimpl FlatUnderlay { fn latency_us(&self) -> u64 { 1 } }\nimpl GeoUnderlay { fn latency_us(&self) -> u64 { 2 } }\n",
        )]);
        let run = g.fns.iter().position(|f| f.name == "run").expect("parsed");
        let targets: Vec<String> = g.edges[run]
            .iter()
            .map(|&(t, _)| g.fns[t].qualname())
            .collect();
        assert_eq!(
            targets,
            vec!["FlatUnderlay::latency_us", "GeoUnderlay::latency_us"]
        );
    }

    #[test]
    fn generic_bound_method_calls_resolve_to_every_impl() {
        // `fn drive<W: World>(w: &mut W)` — the bound erases the concrete
        // type, so `w.step()` pins to all impl methods named `step`, and
        // reachability flows into each.
        let g = graph_of(&[(
            "crates/sim/src/engine.rs",
            "impl Simulator { fn run(&mut self) { drive(&mut self.w); } }\nfn drive<W: World>(w: &mut W) { w.step(); }\nimpl GnutellaWorld { fn step(&mut self) { let v = vec![1]; drop(v); } }\nimpl KadWorld { fn step(&mut self) {} }\n",
        )]);
        let (dist, _) = g.reach();
        for name in ["GnutellaWorld", "KadWorld"] {
            let i = g
                .fns
                .iter()
                .position(|f| f.impl_type.as_deref() == Some(name))
                .expect("parsed");
            assert_ne!(dist[i], usize::MAX, "{name}::step must be reachable");
        }
    }

    #[test]
    fn hot_entry_set_is_the_per_event_surface() {
        let g = graph_of(&[
            (
                "crates/sim/src/engine.rs",
                "impl Simulator { fn run(&mut self) {} fn new() -> Self { Simulator }\n}\n",
            ),
            (
                "crates/net/src/routing.rs",
                "impl Routing { fn route(&self) {} fn path_links(&self) {} fn build(&mut self) {} }\n",
            ),
            (
                "crates/net/src/underlay.rs",
                "impl Underlay { fn latency_us(&self) {} fn rtt_us(&self) {} fn from_topology() {} }\n",
            ),
            (
                "crates/kademlia/src/network.rs",
                "impl DhtNetwork { fn rpc(&mut self) {} fn lookup(&mut self) {} fn bootstrap(&mut self) {} }\n",
            ),
            (
                "crates/bittorrent/src/swarm.rs",
                "impl Swarm { fn new() {} fn round(&mut self) {} fn finish(self) {} }\npub fn run_swarm_with() {}\n",
            ),
            (
                "crates/gnutella/src/sim.rs",
                "impl World<Ev> for GnutellaSim { fn handle(&mut self) {} }\n",
            ),
        ]);
        let hot = find_hot_entries(&g.fns);
        let names: Vec<String> = hot.iter().map(|&i| g.fns[i].qualname()).collect();
        assert_eq!(
            names,
            vec![
                "Simulator::run",
                "Routing::route",
                "Routing::path_links",
                "Underlay::latency_us",
                "Underlay::rtt_us",
                "DhtNetwork::rpc",
                "DhtNetwork::lookup",
                "Swarm::round",
                "GnutellaSim::handle",
            ]
        );
    }

    #[test]
    fn alloc_inventory_skips_exempt_and_unreachable_fns() {
        let g = graph_of(&[(
            "crates/sim/src/engine.rs",
            "impl Simulator { fn run(&mut self) { hot_helper(); setup(); } }\nfn hot_helper() { let v = vec![1]; drop(v); }\n// lint:allow(alloc) — one-shot flush\nfn setup() { let s = format!(\"x\"); drop(s); }\nfn cold() { let b = Box::new(1u8); drop(b); }\n",
        )]);
        let hot = find_hot_entries(&g.fns);
        let (dist, _) = g.reach_from(&hot);
        let inv = inventory(&g, &dist, alloc_sites);
        let keys: Vec<String> = inv
            .keys()
            .map(|(f, q, k)| format!("{f}::{q} {k}"))
            .collect();
        // `setup` is reachable but exempt; `cold` allocates but is
        // unreachable from the hot entry set; only `hot_helper` counts.
        assert_eq!(keys, vec!["crates/sim/src/engine.rs::hot_helper vec"]);
    }

    #[test]
    fn worker_calls_resolve_with_enclosing_fn_context() {
        // `Self::chunk` inside a worker closure must pin to the
        // enclosing impl type, and a free call must prefer the enclosing
        // file — the same rules as ordinary call sites.
        let g = graph_of(&[
            (
                "crates/net/src/routing.rs",
                "impl Routing {\n    fn build(&self) {\n        std::thread::scope(|s| {\n            s.spawn(move || Self::chunk(0));\n            s.spawn(move || merge());\n        });\n    }\n    fn chunk(_lo: usize) {}\n}\nfn merge() {}\n",
            ),
            ("crates/net/src/other.rs", "fn merge() {}\n"),
        ]);
        let build = g
            .fns
            .iter()
            .position(|f| f.name == "build")
            .expect("parsed");
        let w0: Vec<String> = g.worker_edges[&(build, 0, 0)]
            .iter()
            .map(|&(t, _)| g.fns[t].qualname())
            .collect();
        assert_eq!(w0, vec!["Routing::chunk"]);
        let w1: Vec<&str> = g.worker_edges[&(build, 0, 1)]
            .iter()
            .map(|&(t, _)| g.fns[t].file.as_str())
            .collect();
        assert_eq!(w1, vec!["crates/net/src/routing.rs"]);
    }

    #[test]
    fn worker_method_chain_calls_pin_to_every_impl() {
        // A hazard hidden behind a method-call chain on a capture:
        // `state.cache().bump()` must resolve `bump` to the impl method
        // so the parallel pass can see its interior-mutability marker.
        let g = graph_of(&[(
            "crates/net/src/underlay.rs",
            "impl U {\n    fn go(&self, state: &S) {\n        std::thread::scope(|s| {\n            s.spawn(move || { state.cache().bump(); });\n        });\n    }\n}\nimpl RouteCache { fn bump(&self) { self.hits.set(self.hits.get() + 1); } }\n",
        )]);
        let go = g.fns.iter().position(|f| f.name == "go").expect("parsed");
        let targets: Vec<String> = g.worker_edges[&(go, 0, 0)]
            .iter()
            .map(|&(t, _)| g.fns[t].qualname())
            .collect();
        assert!(
            targets.contains(&"RouteCache::bump".to_string()),
            "{targets:?}"
        );
        let bump = g.fns.iter().position(|f| f.name == "bump").expect("parsed");
        assert!(!g.fns[bump].hazards.is_empty());
    }

    #[test]
    fn cast_inventory_counts_reachable_undocumented_sites() {
        let g = graph_of(&[(
            "crates/sim/src/engine.rs",
            "impl Simulator { fn run(&mut self, n: usize) {\n    let a = n as u32;\n    let c = (n as u8, n as u32);\n    let b = n as u16; // lint:allow(cast) — bound: n < 65536 structurally\n    drop((a, b, c));\n} }\nfn unreachable_helper(n: usize) -> u32 { n as u32 }\n",
        )]);
        let (dist, _) = g.reach();
        let inv = inventory(&g, &dist, cast_sites);
        let keys: Vec<String> = inv
            .iter()
            .map(|((f, q, t), lines)| format!("{f}::{q} {t} x{}", lines.len()))
            .collect();
        // One key per (fn, target), sorted, counting every site behind it.
        assert_eq!(
            keys,
            vec![
                "crates/sim/src/engine.rs::Simulator::run u32 x2",
                "crates/sim/src/engine.rs::Simulator::run u8 x1",
            ]
        );
    }
}
