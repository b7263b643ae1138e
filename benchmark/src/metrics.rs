//! The metric registry: every name the benchmark may emit, with its unit
//! and direction. `BENCHMARK.json` at the repository root lists the same
//! names; a package test keeps the two in step.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

/// One end-to-end metric: what a user of the simulator sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before `compare` calls it a regression.
    pub bound: f64,
}

/// Host seconds in topology generation, `Underlay::build` and overlay
/// constructors, summed over arms; median over iterations.
pub const SETUP_S: &str = "setup_s";
/// Host seconds in everything after set-up, summed over arms; median.
pub const RUN_S: &str = "run_s";
/// The workload's exact unit count divided by `run_s`; median.
pub const UNITS_PER_S: &str = "units_per_s";
/// `VmHWM` of the workload's process when it finished measuring.
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

/// The end-to-end metrics, reported by every workload.
///
/// The bounds are sized from measurement, not taste: ten runs on ten
/// seeds in the 2-vCPU sandbox spread (interquartile range over median)
/// by 0.02-0.12 on the time metrics, 0.2 when a slow stretch of the host
/// lands in the set — a fixed spin loop alone spreads 0.05-0.17 there —
/// and by up to 0.07 on peak RSS, and the benchmark contract wants every
/// spread under a third of its bound. `README.md` has the table.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: RUN_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: UNITS_PER_S,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// One per-layer metric `(name, unit, direction)`. Every workload emits
/// every row; a layer a workload bypasses reads 0.
pub type PerLayer = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// The per-layer ledger, grouped by module.
pub const PER_LAYER: [PerLayer; 59] = [
    // net: generation, routing build, underlay assembly (set-up).
    ("net.gen.ns_per_link", "ns", Lower),
    ("net.routing.build_s", "s", Lower),
    ("net.routing.build_ns_per_pair", "ns", Lower),
    ("net.underlay.build_s", "s", Lower),
    // net: reads and ledger writes (run).
    ("net.underlay.latency_ns_per_query", "ns", Lower),
    ("net.underlay.route_cache_hit_share", "share", Higher),
    ("net.underlay.route_cache_refills", "count", Lower),
    ("net.underlay.route_cache_invalidations", "count", Lower),
    ("net.traffic.account_ns_per_call", "ns", Lower),
    // net: incremental repair at fault epochs.
    ("net.routing.repair_epochs", "count", Lower),
    ("net.routing.repair_ns_per_epoch", "ns", Lower),
    ("net.routing.repair_recomputed_share", "share", Lower),
    ("net.routing.repair_full_fallbacks", "count", Lower),
    // net: max-min flow allocation.
    ("net.flow.flows_per_round", "count", Lower),
    ("net.flow.cycle_ns_per_flow", "ns", Lower),
    ("net.flow.est_share", "share", Lower),
    // sim: engine loop, queue, metrics registry.
    ("sim.engine.events", "count", Lower),
    ("sim.engine.queue_depth_max", "count", Lower),
    ("sim.engine.overhead_ns_per_event", "ns", Lower),
    ("sim.engine.overhead_share", "share", Lower),
    ("sim.event.pushpop_ns", "ns", Lower),
    ("sim.metrics.incr_ns", "ns", Lower),
    ("sim.metrics.record_ns", "ns", Lower),
    // sim: the cost of looking.
    ("sim.trace.events", "count", Lower),
    ("sim.trace.ns_per_event", "ns", Lower),
    ("sim.trace.jsonl_mb", "MB", Lower),
    ("sim.trace.overhead_share.buffered", "share", Lower),
    ("sim.trace.overhead_share.streaming", "share", Lower),
    // gnutella and the oracle.
    ("gnutella.bootstrap_s", "s", Lower),
    ("gnutella.handler_s.ping_cycle", "s", Lower),
    ("gnutella.handler_s.query_cycle", "s", Lower),
    ("gnutella.handler_s.churn", "s", Lower),
    ("gnutella.handler_s.repair", "s", Lower),
    ("gnutella.handler_s.fault", "s", Lower),
    ("gnutella.msgs", "count", Lower),
    ("gnutella.ns_per_msg", "ns", Lower),
    ("gnutella.flood_ns_per_reached", "ns", Lower),
    ("gnutella.report_s", "s", Lower),
    ("info.oracle.queries", "count", Lower),
    ("info.oracle.rank_ns_per_entry", "ns", Lower),
    // kademlia.
    ("kademlia.bootstrap_s", "s", Lower),
    ("kademlia.bootstrap_ns_per_host", "ns", Lower),
    ("kademlia.lookup_ns_per_rpc", "ns", Lower),
    ("kademlia.rpcs_per_lookup", "count", Lower),
    ("kademlia.retransmit_share", "share", Lower),
    ("kademlia.exact_share", "share", Higher),
    // bittorrent.
    ("bittorrent.rounds", "count", Lower),
    ("bittorrent.ns_per_round", "ns", Lower),
    ("bittorrent.ns_per_piece", "ns", Lower),
    ("bittorrent.announce_ns", "ns", Lower),
    ("bittorrent.reannounces", "count", Lower),
    ("bittorrent.intra_as_share", "share", Higher),
    // Where the traced run spent its time: the bases of the overhead
    // shares, and the harness's own checking and probing.
    ("pass.plain.setup_s", "s", Lower),
    ("pass.plain.run_s", "s", Lower),
    ("pass.timed.run_s", "s", Lower),
    ("pass.buffered.run_s", "s", Lower),
    ("pass.streaming.run_s", "s", Lower),
    ("pass.check_s", "s", Lower),
    ("pass.probe_s", "s", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::NAMES;
    use std::collections::BTreeSet;

    fn word(better: Better) -> &'static str {
        match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Whether `name` is made only of letters, digits, `_`, `.` and `-`,
    /// starts with a letter or digit, and is at most 64 characters — the
    /// rule `BENCHMARK.json` names must meet.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_name_is_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(NAMES);
        for name in names {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "duplicate name {name:?}");
        }
        for bad in ["", ".x", "a b", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn bounds_are_within_the_contract() {
        for m in END_TO_END {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{} bound {}",
                m.name,
                m.bound
            );
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == SETUP_S)
            .expect("setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is the driver's view of this registry.
    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).expect("an array");
        let field = |v: &Json, key: &str| -> String {
            match v.get(key) {
                Some(Json::Str(s)) => s.clone(),
                Some(Json::Num(n)) => n.to_string(),
                other => panic!("{key}: {other:?}"),
            }
        };
        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, NAMES);
        for w in list("workloads") {
            let why = field(w, "why");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why too long: {why}"
            );
        }
        let e2e: Vec<(String, String, String, String)> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    field(m, "bound"),
                )
            })
            .collect();
        let want: Vec<(String, String, String, String)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    m.unit.to_owned(),
                    word(m.better).to_owned(),
                    m.bound.to_string(),
                )
            })
            .collect();
        assert_eq!(e2e, want);
        let layers: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let want: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.0.to_owned(), m.1.to_owned(), word(m.2).to_owned()))
            .collect();
        assert_eq!(layers, want);
        assert_eq!(
            doc.get("paths").map(Json::compact),
            Some("[\"benchmark\"]".to_owned())
        );
    }
}
