//! The central registry of every trace event kind and metrics key.
//!
//! Every `(component, kind)` pair a [`crate::trace::Tracer`] may emit and
//! every [`crate::metrics::Metrics`] key the simulation writes is declared
//! here, exactly once, next to one line of documentation. Three consumers
//! keep the declaration honest:
//!
//! 1. **The static drift checker** (`cargo run -p xtask -- analyze`,
//!    registry pass) verifies that every kind/key *emitted* anywhere in
//!    the workspace is declared here, that every declared entry is still
//!    emitted somewhere, and that the registry tables in
//!    `docs/OBSERVABILITY.md` match this file row for row — so the code,
//!    this registry, and the documentation cannot drift apart silently.
//! 2. **Debug-build runtime checks**: [`crate::trace::Tracer::emit`]
//!    asserts (under `debug_assertions`) that any event from a registered
//!    component uses a declared kind, and the [`crate::metrics::Metrics`]
//!    write paths assert that any key under a registered namespace prefix
//!    is declared.
//! 3. **Humans**: the table in `docs/OBSERVABILITY.md` is generated from
//!    the same entries, so the schema readers see is the schema the
//!    analyzer proves.
//!
//! Adding instrumentation therefore takes three edits — the emission
//! site, an entry here, and a row in `docs/OBSERVABILITY.md` — and the
//! analyzer fails CI until all three agree.
//!
//! Keys containing a dynamic segment are declared with a trailing `*`
//! pattern (e.g. `engine.events.*` for the per-event-kind counters the
//! profiler mints from [`crate::engine::World::kind_of`] names).

/// One declared trace event kind.
#[derive(Clone, Copy, Debug)]
pub struct TraceKindSpec {
    /// Emitting component (`"engine"`, `"net"`, `"gnutella"`, …).
    pub component: &'static str,
    /// Event kind within the component (`"dispatch"`, `"flood.query"`, …).
    pub kind: &'static str,
    /// The [`crate::trace::TraceLevel`] the kind is emitted at
    /// (lower-case name: `"info"`, `"debug"`, `"trace"`).
    pub level: &'static str,
    /// One-line description (mirrored in `docs/OBSERVABILITY.md`).
    pub doc: &'static str,
}

/// What a metrics key stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone event count ([`crate::metrics::Metrics::incr`] /
    /// [`crate::metrics::Metrics::set_counter`]).
    Counter,
    /// Scalar sample distribution ([`crate::metrics::Metrics::record`]).
    Histogram,
    /// `(sim-time, value)` series ([`crate::metrics::Metrics::trace`]).
    Series,
}

impl MetricKind {
    /// Stable lower-case name used in the docs table.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Histogram => "histogram",
            MetricKind::Series => "series",
        }
    }
}

/// One declared metrics key (or trailing-`*` key pattern).
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    /// Full key (`"net.route_cache.hit"`) or prefix pattern
    /// (`"engine.events.*"`).
    pub key: &'static str,
    /// Storage shape of the key.
    pub kind: MetricKind,
    /// One-line description (mirrored in `docs/OBSERVABILITY.md`).
    pub doc: &'static str,
}

/// Every component that emits trace events or namespaces metrics keys.
///
/// The debug-build checks only fire for these names, so tests and
/// examples remain free to use scratch components (`"echo"`, …) without
/// registering them.
pub const COMPONENTS: &[&str] = &[
    "engine",
    "net",
    "gnutella",
    "kademlia",
    "bittorrent",
    "info",
    "experiment",
];

/// Every trace event kind the workspace emits.
pub const TRACE_KINDS: &[TraceKindSpec] = &[
    TraceKindSpec {
        component: "engine",
        kind: "dispatch",
        level: "trace",
        doc: "one event popped from the queue (kind, queue depth)",
    },
    TraceKindSpec {
        component: "net",
        kind: "transfer",
        level: "debug",
        doc: "one accounted transfer (src, dst, bytes, category)",
    },
    TraceKindSpec {
        component: "net",
        kind: "link.total",
        level: "debug",
        doc: "end-of-run per-link traffic total (link, bytes)",
    },
    TraceKindSpec {
        component: "net",
        kind: "flow.open",
        level: "debug",
        doc: "flow joined the max-min allocation set (flow id, src, dst)",
    },
    TraceKindSpec {
        component: "net",
        kind: "flow.close",
        level: "debug",
        doc: "flow left the max-min allocation set (flow id, bytes moved)",
    },
    TraceKindSpec {
        component: "net",
        kind: "fault.epoch",
        level: "info",
        doc: "fault epoch boundary applied (links down, latency factor, crashed hosts)",
    },
    TraceKindSpec {
        component: "net",
        kind: "routing.repair",
        level: "info",
        doc: "incremental routing repair at a fault epoch (changed links, dirty sources, full-rebuild fallback)",
    },
    TraceKindSpec {
        component: "gnutella",
        kind: "roles",
        level: "info",
        doc: "role census after ultrapeer promotion (hosts, ultrapeers, leaves)",
    },
    TraceKindSpec {
        component: "gnutella",
        kind: "run.end",
        level: "info",
        doc: "end-of-run summary (events, queries, downloads, msgs)",
    },
    TraceKindSpec {
        component: "gnutella",
        kind: "join",
        level: "debug",
        doc: "host joined the overlay (host, degree)",
    },
    TraceKindSpec {
        component: "gnutella",
        kind: "leave",
        level: "debug",
        doc: "host left the overlay (host)",
    },
    TraceKindSpec {
        component: "gnutella",
        kind: "connect",
        level: "trace",
        doc: "one neighbor edge chosen during join (from, to)",
    },
    TraceKindSpec {
        component: "gnutella",
        kind: "flood.ping",
        level: "debug",
        doc: "ping flood completed (origin, messages, pongs)",
    },
    TraceKindSpec {
        component: "gnutella",
        kind: "flood.query",
        level: "debug",
        doc: "query flood completed (origin, messages, hits)",
    },
    TraceKindSpec {
        component: "gnutella",
        kind: "download",
        level: "debug",
        doc: "download source selected (peer, source, intra-AS flag)",
    },
    TraceKindSpec {
        component: "gnutella",
        kind: "download.retry",
        level: "debug",
        doc: "download re-sourced to an alternate provider after a transfer failure",
    },
    TraceKindSpec {
        component: "gnutella",
        kind: "span.open",
        level: "debug",
        doc: "causal span opened: a query span covering flood, source selection and download",
    },
    TraceKindSpec {
        component: "gnutella",
        kind: "span.close",
        level: "debug",
        doc: "causal span closed (span_kind, hit flag, modeled duration)",
    },
    TraceKindSpec {
        component: "kademlia",
        kind: "lookup.start",
        level: "debug",
        doc: "iterative lookup started (origin, target)",
    },
    TraceKindSpec {
        component: "kademlia",
        kind: "lookup.hop",
        level: "debug",
        doc: "one lookup RPC hop (to, distance, rtt)",
    },
    TraceKindSpec {
        component: "kademlia",
        kind: "lookup.done",
        level: "debug",
        doc: "lookup finished (hops, rpcs, found)",
    },
    TraceKindSpec {
        component: "kademlia",
        kind: "rpc.retry",
        level: "debug",
        doc: "RPC retransmitted after a timeout with exponential backoff (attempt, wait)",
    },
    TraceKindSpec {
        component: "kademlia",
        kind: "span.open",
        level: "debug",
        doc: "causal span opened: a lookup span covering every hop, retransmit and backoff",
    },
    TraceKindSpec {
        component: "kademlia",
        kind: "span.close",
        level: "debug",
        doc: "causal span closed (span_kind, found flag, modeled duration)",
    },
    TraceKindSpec {
        component: "bittorrent",
        kind: "swarm.done",
        level: "info",
        doc: "swarm completed (rounds, done peers)",
    },
    TraceKindSpec {
        component: "bittorrent",
        kind: "round",
        level: "debug",
        doc: "choke-round summary (round, done, exchanged pieces)",
    },
    TraceKindSpec {
        component: "bittorrent",
        kind: "peer.done",
        level: "debug",
        doc: "one leecher finished all pieces (peer, round)",
    },
    TraceKindSpec {
        component: "bittorrent",
        kind: "unchoke",
        level: "trace",
        doc: "unchoke set chosen for one peer (peer, unchoked)",
    },
    TraceKindSpec {
        component: "bittorrent",
        kind: "piece",
        level: "trace",
        doc: "one piece transferred (from, to, piece, intra-AS flag)",
    },
    TraceKindSpec {
        component: "bittorrent",
        kind: "reannounce",
        level: "debug",
        doc: "tracker re-announce after dead-neighbor loss (peer, received)",
    },
    TraceKindSpec {
        component: "bittorrent",
        kind: "chunk.poisoned",
        level: "debug",
        doc: "received chunks failed hash verification; sender banned, pieces re-requested (peer, sender, chunks)",
    },
    TraceKindSpec {
        component: "bittorrent",
        kind: "chunk.reassign",
        level: "debug",
        doc: "partial-chunk credit from a crashed sender timed out at a fault epoch (peer, sender, lost bytes)",
    },
    TraceKindSpec {
        component: "bittorrent",
        kind: "span.open",
        level: "debug",
        doc: "causal span opened: a per-leecher span covering announce, piece exchange and completion",
    },
    TraceKindSpec {
        component: "bittorrent",
        kind: "span.close",
        level: "debug",
        doc: "causal span closed (span_kind, done flag)",
    },
    TraceKindSpec {
        component: "info",
        kind: "oracle.rank",
        level: "debug",
        doc: "ISP oracle ranking call (host, candidates)",
    },
    TraceKindSpec {
        component: "experiment",
        kind: "phase",
        level: "info",
        doc: "experiment phase marker separating per-configuration trace segments",
    },
];

/// Every metrics key (or trailing-`*` pattern) the workspace writes.
pub const METRICS: &[MetricSpec] = &[
    MetricSpec {
        key: "engine.events.*",
        kind: MetricKind::Counter,
        doc: "events handled per World::kind_of name (profiler)",
    },
    MetricSpec {
        key: "engine.queue_depth",
        kind: MetricKind::Series,
        doc: "event-queue depth sampled every queue_depth_every events",
    },
    MetricSpec {
        key: "engine.events_per_sec",
        kind: MetricKind::Series,
        doc: "events processed per simulated second",
    },
    MetricSpec {
        key: "net.route_cache.hit",
        kind: MetricKind::Counter,
        doc: "AS-pair route cache hits (exported at end of run)",
    },
    MetricSpec {
        key: "net.route_cache.miss",
        kind: MetricKind::Counter,
        doc: "AS-pair route cache misses (exported at end of run)",
    },
    MetricSpec {
        key: "net.route_cache.invalidations",
        kind: MetricKind::Counter,
        doc: "route-cache rebuilds after routing swaps (exported at end of run)",
    },
    MetricSpec {
        key: "net.flow.opened",
        kind: MetricKind::Counter,
        doc: "flows accepted by the max-min allocator (exported at end of run)",
    },
    MetricSpec {
        key: "net.flow.rejected",
        kind: MetricKind::Counter,
        doc: "flows rejected as unroutable under the active fault state (exported at end of run)",
    },
    MetricSpec {
        key: "net.fault.epochs",
        kind: MetricKind::Counter,
        doc: "fault epoch boundaries applied to the underlay",
    },
    MetricSpec {
        key: "net.routing.sources_recomputed",
        kind: MetricKind::Counter,
        doc: "sources whose routing rows fault-epoch repairs recomputed (exported at end of run)",
    },
    MetricSpec {
        key: "net.routing.sources_total",
        kind: MetricKind::Counter,
        doc: "sources a full rebuild would have recomputed per epoch, summed (exported at end of run)",
    },
    MetricSpec {
        key: "net.routing.repair_full_fallbacks",
        kind: MetricKind::Counter,
        doc: "fault epochs where majority-dirty repair fell back to a full rebuild (exported at end of run)",
    },
    MetricSpec {
        key: "gnutella.joins",
        kind: MetricKind::Counter,
        doc: "hosts that joined the overlay",
    },
    MetricSpec {
        key: "gnutella.leaves",
        kind: MetricKind::Counter,
        doc: "hosts that left the overlay",
    },
    MetricSpec {
        key: "gnutella.msg.ping",
        kind: MetricKind::Counter,
        doc: "PING messages flooded",
    },
    MetricSpec {
        key: "gnutella.msg.pong",
        kind: MetricKind::Counter,
        doc: "PONG replies routed back",
    },
    MetricSpec {
        key: "gnutella.msg.query",
        kind: MetricKind::Counter,
        doc: "QUERY messages flooded",
    },
    MetricSpec {
        key: "gnutella.msg.queryhit",
        kind: MetricKind::Counter,
        doc: "QUERYHIT replies routed back",
    },
    MetricSpec {
        key: "gnutella.queries",
        kind: MetricKind::Counter,
        doc: "queries issued",
    },
    MetricSpec {
        key: "gnutella.queries.success",
        kind: MetricKind::Counter,
        doc: "queries that found at least one provider",
    },
    MetricSpec {
        key: "gnutella.downloads",
        kind: MetricKind::Counter,
        doc: "downloads performed",
    },
    MetricSpec {
        key: "gnutella.downloads.intra_as",
        kind: MetricKind::Counter,
        doc: "downloads served from the same AS as the requester",
    },
    MetricSpec {
        key: "gnutella.downloads.retried",
        kind: MetricKind::Counter,
        doc: "downloads re-sourced to an alternate provider after a failure",
    },
    MetricSpec {
        key: "gnutella.downloads.failed",
        kind: MetricKind::Counter,
        doc: "downloads abandoned after exhausting every known provider",
    },
];

/// True when `component` is a registered component name.
pub fn is_registered_component(component: &str) -> bool {
    COMPONENTS.contains(&component)
}

/// True when `(component, kind)` is a declared trace event kind.
pub fn trace_kind_declared(component: &str, kind: &str) -> bool {
    TRACE_KINDS
        .iter()
        .any(|s| s.component == component && s.kind == kind)
}

/// True when `key` matches a declared metrics key: an exact entry, or a
/// trailing-`*` pattern entry whose prefix it extends (the dynamic
/// segment must be non-empty).
pub fn metric_key_declared(key: &str) -> bool {
    METRICS.iter().any(|s| match s.key.strip_suffix('*') {
        Some(prefix) => key.len() > prefix.len() && key.starts_with(prefix),
        None => s.key == key,
    })
}

/// True when `key` sits under a registered component namespace
/// (`"<component>."` prefix) — the debug-build metrics checks only apply
/// to these, so tests remain free to use scratch keys.
pub fn in_registered_namespace(key: &str) -> bool {
    COMPONENTS.iter().any(|c| {
        key.strip_prefix(c)
            .is_some_and(|rest| rest.starts_with('.'))
    })
}

/// Debug-build guard used by the metrics write paths: panics when a key
/// under a registered namespace is not declared in [`METRICS`].
#[cfg(debug_assertions)]
pub(crate) fn debug_check_metric_key(key: &str) {
    #[expect(
        clippy::panic,
        reason = "debug-only schema guard, mirrors the static registry pass"
    )]
    if in_registered_namespace(key) && !metric_key_declared(key) {
        panic!(
            "metrics key {key:?} is not declared in uap_sim::trace::registry::METRICS; \
             add a MetricSpec entry and a docs/OBSERVABILITY.md row (see docs/STATIC_ANALYSIS.md)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_tables_have_no_duplicates() {
        for (i, a) in TRACE_KINDS.iter().enumerate() {
            for b in &TRACE_KINDS[i + 1..] {
                assert!(
                    !(a.component == b.component && a.kind == b.kind),
                    "duplicate trace kind {}/{}",
                    a.component,
                    a.kind
                );
            }
        }
        for (i, a) in METRICS.iter().enumerate() {
            for b in &METRICS[i + 1..] {
                assert_ne!(a.key, b.key, "duplicate metric key {}", a.key);
            }
        }
    }

    #[test]
    fn every_declared_component_is_registered() {
        for s in TRACE_KINDS {
            assert!(
                is_registered_component(s.component),
                "trace kind {}/{} uses unregistered component",
                s.component,
                s.kind
            );
        }
        for s in METRICS {
            assert!(
                in_registered_namespace(s.key),
                "metric key {} is outside every registered namespace",
                s.key
            );
        }
    }

    #[test]
    fn declared_levels_parse() {
        for s in TRACE_KINDS {
            assert!(
                crate::trace::TraceLevel::parse(s.level)
                    .is_some_and(|l| l != crate::trace::TraceLevel::Off),
                "trace kind {}/{} has bad level {:?}",
                s.component,
                s.kind,
                s.level
            );
        }
    }

    #[test]
    fn lookup_helpers() {
        assert!(trace_kind_declared("net", "transfer"));
        assert!(!trace_kind_declared("net", "no.such.kind"));
        assert!(
            !trace_kind_declared("echo", "ping"),
            "scratch components are undeclared"
        );
        assert!(metric_key_declared("net.route_cache.hit"));
        assert!(metric_key_declared("engine.events.ping"), "pattern key");
        assert!(
            !metric_key_declared("engine.events."),
            "empty dynamic segment"
        );
        assert!(!metric_key_declared("net.route_cache.evictions"));
        assert!(in_registered_namespace("gnutella.msg.ping"));
        assert!(!in_registered_namespace("gnutellaX.msg"));
        assert!(!in_registered_namespace("ping"));
    }

    #[test]
    fn span_kinds_are_declared_in_balanced_pairs() {
        // The causal-span convention: a component declaring `span.open`
        // must declare `span.close` at the same level (and vice versa),
        // so the integrity checker can require balanced opens/closes.
        for s in TRACE_KINDS {
            let counterpart = match s.kind {
                "span.open" => "span.close",
                "span.close" => "span.open",
                _ => continue,
            };
            let paired = TRACE_KINDS
                .iter()
                .find(|o| o.component == s.component && o.kind == counterpart);
            let p = paired.unwrap_or_else(|| {
                panic!(
                    "{}/{} has no {} counterpart",
                    s.component, s.kind, counterpart
                )
            });
            assert_eq!(
                p.level, s.level,
                "{}: span.open/span.close levels must match",
                s.component
            );
        }
        assert!(trace_kind_declared("gnutella", "span.open"));
        assert!(trace_kind_declared("kademlia", "span.close"));
        assert!(trace_kind_declared("bittorrent", "span.open"));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not declared")]
    fn undeclared_key_in_registered_namespace_panics_in_debug() {
        debug_check_metric_key("net.route_cache.evictions");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn scratch_keys_are_exempt_from_the_debug_guard() {
        debug_check_metric_key("ping");
        debug_check_metric_key("msg.ping");
        debug_check_metric_key("engine.queue_depth");
    }
}
