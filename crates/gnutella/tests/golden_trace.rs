//! Golden-trace determinism: two same-seed Gnutella runs must serialize
//! byte-identical JSONL trace files. This is a much finer check than
//! comparing end-of-run reports — any divergence in event order, field
//! order, or float formatting shows up as a byte difference, and
//! `xtask trace diff` can then localize the first diverging event.

use uap_gnutella::config::GnutellaConfig;
use uap_gnutella::selection::NeighborSelection;
use uap_gnutella::sim::run_experiment_with;
use uap_net::{NetParams, Underlay};
use uap_sim::{SimTime, TraceLevel, Tracer};

fn underlay(n_hosts: usize, seed: u64) -> Underlay {
    NetParams {
        tier1: 2,
        tier2_per_tier1: 2,
        tier3_per_tier2: 3,
        n_hosts,
        seed,
    }
    .build()
}

/// Runs a same-configuration experiment, returning the serialized trace,
/// the rendered run report, and the underlay route-cache counters.
fn run_once(seed: u64) -> (Vec<u8>, String, (u64, u64)) {
    let cfg = GnutellaConfig {
        selection: NeighborSelection::Random,
        duration: SimTime::from_mins(5),
        ..Default::default()
    };
    let mut tracer = Tracer::buffered(TraceLevel::Debug);
    let (report, world) = run_experiment_with(underlay(80, 3), cfg, seed, &mut tracer);
    let mut out = Vec::new();
    tracer.write_jsonl(&mut out).expect("in-memory write");
    (
        out,
        format!("{report:?}"),
        world.underlay.route_cache_stats(),
    )
}

fn trace_bytes(seed: u64) -> Vec<u8> {
    run_once(seed).0
}

#[test]
fn same_seed_runs_produce_byte_identical_trace_files() {
    let a = trace_bytes(42);
    let b = trace_bytes(42);
    assert!(!a.is_empty(), "a debug-level run must emit trace events");
    assert_eq!(a, b, "same-seed traces must be byte-identical");
}

#[test]
fn different_seeds_diverge() {
    assert_ne!(trace_bytes(42), trace_bytes(43));
}

#[test]
fn same_seed_runs_produce_identical_reports_and_cache_counters() {
    let (_, report_a, cache_a) = run_once(42);
    let (_, report_b, cache_b) = run_once(42);
    assert_eq!(
        report_a, report_b,
        "same-seed run reports must be identical"
    );
    assert_eq!(
        cache_a, cache_b,
        "route-cache hit/miss counters must be deterministic"
    );
    let (hits, _misses) = cache_a;
    assert!(hits > 0, "a 5-minute run must exercise the route cache");
}

#[test]
fn trace_lines_parse_and_cover_expected_components() {
    let bytes = trace_bytes(42);
    let text = String::from_utf8(bytes).expect("utf-8 trace");
    let mut components = std::collections::BTreeSet::new();
    for line in text.lines() {
        let ev = uap_sim::trace::parse_jsonl_line(line).expect("every line parses");
        components.insert(ev.component);
    }
    assert!(
        components.contains("gnutella"),
        "components: {components:?}"
    );
    assert!(components.contains("net"), "components: {components:?}");
}
