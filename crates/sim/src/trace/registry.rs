//! The central registry of every trace event kind and metrics key.
//!
//! Every trace event kind is a `pub const` [`TraceKind`] handle, declared
//! once in the `trace_kinds!` table below with its level and one line of
//! documentation. Emission sites pass the handle to
//! [`crate::trace::Tracer::emit`] or [`crate::engine::Ctx::trace`], which
//! take the level from it. A `TraceKind`'s fields are private, so code
//! outside this crate can only name a declared handle: an undeclared kind,
//! or an emission at a level other than the declared one, does not
//! compile.
//!
//! Metrics keys stay strings ([`METRICS`]), because the benchmark package
//! writes its own keys through the same `&str` API. Under
//! `debug_assertions` the [`crate::metrics::Metrics`] write paths check
//! every key under a registered namespace prefix: it must be declared, and
//! the write must match its declared [`MetricKind`] (`incr` a counter,
//! `record` a histogram, `trace` a series).
//!
//! The reverse direction (every declared handle and key is referenced by
//! some non-test source) is a text scan in the root package's
//! `tests/source_scan.rs`. `exp doc` writes the registry tables of
//! `docs/OBSERVABILITY.md` from these declarations, and `ci/check.sh`
//! fails when the committed file differs. Adding instrumentation therefore
//! takes one handle or key here, then `exp doc`.
//!
//! Keys containing a dynamic segment are declared with a trailing `*`
//! pattern (e.g. `engine.events.*` for the per-event-kind counters the
//! profiler mints from [`crate::engine::World::kind_of`] names).

use crate::trace::TraceLevel;

/// One declared trace event kind: the handle an emission site passes to
/// [`crate::trace::Tracer::emit`]. Only this crate can construct one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceKind {
    component: &'static str,
    kind: &'static str,
    level: TraceLevel,
    doc: &'static str,
}

impl TraceKind {
    /// Emitting component (`"net"`, `"gnutella"`, `"kademlia"`, …).
    pub fn component(self) -> &'static str {
        self.component
    }

    /// Event kind within the component (`"transfer"`, `"flood.query"`, …).
    pub fn kind(self) -> &'static str {
        self.kind
    }

    /// The level the kind is emitted at.
    pub fn level(self) -> TraceLevel {
        self.level
    }

    /// One-line description (mirrored in `docs/OBSERVABILITY.md`).
    pub fn doc(self) -> &'static str {
        self.doc
    }

    /// An undeclared kind for this crate's own tests.
    #[cfg(test)]
    pub(crate) const fn scratch(
        component: &'static str,
        level: TraceLevel,
        kind: &'static str,
    ) -> TraceKind {
        TraceKind {
            component,
            kind,
            level,
            doc: "",
        }
    }
}

/// Declares each handle as a `pub const` documented by its description,
/// and [`TRACE_KINDS`] as all of them in declaration order.
macro_rules! trace_kinds {
    ($($name:ident = $component:literal / $kind:literal at $level:ident: $doc:literal;)*) => {
        $(
            #[doc = $doc]
            pub const $name: TraceKind = TraceKind {
                component: $component,
                kind: $kind,
                level: TraceLevel::$level,
                doc: $doc,
            };
        )*

        /// Every trace event kind the workspace emits, in declaration order.
        pub const TRACE_KINDS: &[TraceKind] = &[$($name),*];
    };
}

trace_kinds! {
    NET_TRANSFER = "net" / "transfer" at Debug:
        "one accounted transfer (src, dst, bytes, category)";
    NET_LINK_TOTAL = "net" / "link.total" at Debug:
        "end-of-run per-link traffic total (link, bytes)";
    NET_FLOW_OPEN = "net" / "flow.open" at Debug:
        "flow joined the max-min allocation set (flow id, src, dst)";
    NET_FLOW_CLOSE = "net" / "flow.close" at Debug:
        "flow left the max-min allocation set (flow id, bytes moved)";
    NET_FAULT_EPOCH = "net" / "fault.epoch" at Info:
        "fault epoch boundary applied (boundary index, links down, latency factor, crashed hosts)";
    NET_ROUTING_REPAIR = "net" / "routing.repair" at Info:
        "incremental routing repair at a fault epoch (boundary index, changed links, dirty sources, full-rebuild fallback)";
    GNUTELLA_ROLES = "gnutella" / "roles" at Info:
        "role census after ultrapeer promotion (hosts, ultrapeers, leaves)";
    GNUTELLA_RUN_END = "gnutella" / "run.end" at Info:
        "end-of-run summary (events, queries, downloads, msgs)";
    GNUTELLA_JOIN = "gnutella" / "join" at Debug:
        "host joined the overlay (host, degree)";
    GNUTELLA_LEAVE = "gnutella" / "leave" at Debug:
        "host left the overlay (host)";
    GNUTELLA_FLOOD_PING = "gnutella" / "flood.ping" at Debug:
        "ping flood completed (origin, messages, pongs)";
    GNUTELLA_FLOOD_QUERY = "gnutella" / "flood.query" at Debug:
        "query flood completed (origin, messages, hits)";
    GNUTELLA_DOWNLOAD = "gnutella" / "download" at Debug:
        "download source selected (peer, source, intra-AS flag)";
    GNUTELLA_DOWNLOAD_RETRY = "gnutella" / "download.retry" at Debug:
        "download re-sourced to an alternate provider after a transfer failure";
    GNUTELLA_SPAN_OPEN = "gnutella" / "span.open" at Debug:
        "causal span opened: a query span covering flood, source selection and download";
    GNUTELLA_SPAN_CLOSE = "gnutella" / "span.close" at Debug:
        "causal span closed (span_kind, hit flag, modeled duration)";
    KADEMLIA_LOOKUP_START = "kademlia" / "lookup.start" at Debug:
        "iterative lookup started (origin, target)";
    KADEMLIA_LOOKUP_HOP = "kademlia" / "lookup.hop" at Debug:
        "one lookup RPC hop (to, distance, rtt)";
    KADEMLIA_LOOKUP_DONE = "kademlia" / "lookup.done" at Debug:
        "lookup finished (hops, rpcs, found)";
    KADEMLIA_RPC_RETRY = "kademlia" / "rpc.retry" at Debug:
        "RPC retransmitted after a timeout with exponential backoff (attempt, wait)";
    KADEMLIA_SPAN_OPEN = "kademlia" / "span.open" at Debug:
        "causal span opened: a lookup span covering every hop, retransmit and backoff";
    KADEMLIA_SPAN_CLOSE = "kademlia" / "span.close" at Debug:
        "causal span closed (span_kind, found flag, modeled duration)";
    BITTORRENT_SWARM_DONE = "bittorrent" / "swarm.done" at Info:
        "swarm completed (rounds, done peers)";
    BITTORRENT_ROUND = "bittorrent" / "round" at Debug:
        "choke-round summary (round, done, exchanged pieces)";
    BITTORRENT_PEER_DONE = "bittorrent" / "peer.done" at Debug:
        "one leecher finished all pieces (peer, round)";
    BITTORRENT_REANNOUNCE = "bittorrent" / "reannounce" at Debug:
        "tracker re-announce after dead-neighbor loss (peer, received)";
    BITTORRENT_CHUNK_REASSIGN = "bittorrent" / "chunk.reassign" at Debug:
        "partial-chunk credit from a crashed sender timed out at a fault epoch (peer, sender, lost bytes)";
    BITTORRENT_SPAN_OPEN = "bittorrent" / "span.open" at Debug:
        "causal span opened: a per-leecher span covering announce, piece exchange and completion";
    BITTORRENT_SPAN_CLOSE = "bittorrent" / "span.close" at Debug:
        "causal span closed (span_kind, done flag)";
    INFO_ORACLE_RANK = "info" / "oracle.rank" at Debug:
        "ISP oracle ranking call (host, candidates)";
    EXPERIMENT_PHASE = "experiment" / "phase" at Info:
        "experiment phase marker separating per-configuration trace segments";
}

/// What a metrics key stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone event count ([`crate::metrics::Metrics::incr`]).
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
    /// Full key (`"gnutella.msg.ping"`) or prefix pattern
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
        key: "gnutella.joins",
        kind: MetricKind::Counter,
        doc: "hosts that joined the overlay",
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
];

/// The declaration `key` falls under: an exact entry, or a trailing-`*`
/// pattern entry whose prefix it extends (the dynamic segment must be
/// non-empty).
#[cfg(any(debug_assertions, test))]
fn declared_metric(key: &str) -> Option<&'static MetricSpec> {
    METRICS.iter().find(|s| match s.key.strip_suffix('*') {
        Some(prefix) => key.len() > prefix.len() && key.starts_with(prefix),
        None => s.key == key,
    })
}

/// True when `key` sits under a registered component namespace
/// (`"<component>."` prefix) — the debug-build metrics checks only apply
/// to these, so tests remain free to use scratch keys.
#[cfg(any(debug_assertions, test))]
fn in_registered_namespace(key: &str) -> bool {
    COMPONENTS.iter().any(|c| {
        key.strip_prefix(c)
            .is_some_and(|rest| rest.starts_with('.'))
    })
}

/// Debug-build guard used by the metrics write paths: panics when a key
/// under a registered namespace is not declared in [`METRICS`], or is
/// written through the API of another [`MetricKind`] than its declared one.
#[cfg(debug_assertions)]
#[expect(clippy::panic, reason = "debug-only schema guard")]
pub(crate) fn debug_check_metric_key(key: &str, api: MetricKind) {
    if !in_registered_namespace(key) {
        return;
    }
    match declared_metric(key) {
        None => panic!(
            "metrics key {key:?} is not declared in uap_sim::trace::registry::METRICS; \
             add a MetricSpec entry and run `exp doc`"
        ),
        Some(s) if s.kind != api => panic!(
            "metrics key {key:?} is declared as a {} but written as a {}",
            s.kind.name(),
            api.name()
        ),
        Some(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use crate::time::SimTime;

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
                COMPONENTS.contains(&s.component) && s.level != TraceLevel::Off,
                "trace kind {}/{} uses an unregistered component or level off",
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
    fn lookup_helpers() {
        assert!(declared_metric("gnutella.msg.ping").is_some());
        assert!(
            declared_metric("engine.events.ping").is_some(),
            "pattern key"
        );
        assert!(
            declared_metric("engine.events.").is_none(),
            "empty dynamic segment"
        );
        assert!(declared_metric("net.route_cache.evictions").is_none());
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
        for (open, close) in [
            (GNUTELLA_SPAN_OPEN, GNUTELLA_SPAN_CLOSE),
            (KADEMLIA_SPAN_OPEN, KADEMLIA_SPAN_CLOSE),
            (BITTORRENT_SPAN_OPEN, BITTORRENT_SPAN_CLOSE),
        ] {
            assert_eq!((open.kind, close.kind), ("span.open", "span.close"));
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not declared")]
    fn undeclared_key_in_registered_namespace_panics_in_debug() {
        Metrics::new().incr("net.route_cache.evictions", 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "declared as a counter but written as a histogram")]
    fn counter_key_recorded_as_a_histogram_panics_in_debug() {
        Metrics::new().record("gnutella.joins", 1.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "declared as a series but written as a counter")]
    fn series_key_set_as_a_counter_panics_in_debug() {
        Metrics::new().incr("engine.queue_depth", 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "declared as a counter but written as a series")]
    fn counter_key_traced_as_a_series_panics_in_debug() {
        Metrics::new().trace("engine.events.ping", SimTime::ZERO, 1.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn scratch_keys_are_exempt_from_the_debug_guard() {
        let mut m = Metrics::new();
        m.incr("ping", 1);
        m.record("msg.ping", 1.0);
        m.trace("engine.queue_depth", SimTime::ZERO, 1.0);
    }
}
