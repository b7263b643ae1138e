//! Routing hot-path microbench: queries/sec for the two underlay
//! queries every overlay decision bottoms out in — `latency_us` (oracle
//! ranking, proximity neighbor selection) and `path_links` (traffic
//! accounting, flow paths) — at three topology sizes, plus the all-pairs
//! routing-table build time.
//!
//! Emits `BENCH_routing.json` (schema in `docs/PERFORMANCE.md`) and one
//! `PERF size=<name> …` line per size for `ci/perf_smoke.sh` to parse.
//! The measured rates are the perf trajectory of the hot path; they are
//! intentionally not deterministic (see the `BENCH_*.json` contract in
//! the crate docs).

use std::hint::black_box;
use uap_bench::Cli;
use uap_core::report::artifact_line;
use uap_net::{AsId, HostId, NetParams, Routing};
use uap_sim::{SimRng, WallTimer};

/// One benchmark topology size.
struct SizeSpec {
    name: &'static str,
    tier1: usize,
    tier2_per_tier1: usize,
    tier3_per_tier2: usize,
    hosts: usize,
}

const SIZES: [SizeSpec; 3] = [
    SizeSpec {
        name: "small",
        tier1: 2,
        tier2_per_tier1: 2,
        tier3_per_tier2: 3,
        hosts: 400,
    },
    SizeSpec {
        name: "medium",
        tier1: 3,
        tier2_per_tier1: 4,
        tier3_per_tier2: 6,
        hosts: 1_500,
    },
    SizeSpec {
        name: "large",
        tier1: 4,
        tier2_per_tier1: 6,
        tier3_per_tier2: 8,
        hosts: 4_000,
    },
];

/// Per-size measurement results.
struct SizeResult {
    name: &'static str,
    ases: usize,
    links: usize,
    hosts: usize,
    routing_build_secs: f64,
    latency_qps: f64,
    path_qps: f64,
    cache_hits: u64,
    cache_misses: u64,
}

fn measure(spec: &SizeSpec, seed: u64, queries: usize) -> SizeResult {
    let u = NetParams {
        tier1: spec.tier1,
        tier2_per_tier1: spec.tier2_per_tier1,
        tier3_per_tier2: spec.tier3_per_tier2,
        n_hosts: spec.hosts,
        seed,
    }
    .build();
    let ases = u.n_ases();
    let links = u.graph.links.len();

    // Routing build time — the table-plus-index build `Underlay::build`
    // runs — averaged over a few rounds so small topologies aren't all
    // noise.
    let build_rounds = 5;
    let w = WallTimer::start();
    for _ in 0..build_rounds {
        black_box(Routing::compute_indexed(&u.graph, u.config.routing, None));
    }
    let routing_build_secs = w.elapsed_secs() / build_rounds as f64;

    // Deterministic query workload: random host pairs (and their AS pairs
    // for the path query), fixed up front so the timed loops do no RNG work.
    let mut rng = SimRng::new(seed);
    let n = u.n_hosts() as u64;
    let pairs: Vec<(HostId, HostId)> = (0..8_192)
        .map(|_| (HostId(rng.below(n) as u32), HostId(rng.below(n) as u32)))
        .collect();
    let as_pairs: Vec<(AsId, AsId)> = pairs
        .iter()
        .map(|&(a, b)| (u.hosts.as_of(a), u.hosts.as_of(b)))
        .collect();

    let w = WallTimer::start();
    let mut acc = 0u64;
    for i in 0..queries {
        let (a, b) = pairs[i & 8_191];
        acc = acc.wrapping_add(u.latency_us(a, b).unwrap_or(0));
    }
    black_box(acc);
    let latency_qps = queries as f64 / w.elapsed_secs();

    let w = WallTimer::start();
    let mut acc = 0u64;
    for i in 0..queries {
        let (a, b) = as_pairs[i & 8_191];
        acc = acc.wrapping_add(
            u.routing()
                .path_links(a, b)
                .map(|p| p.len() as u64)
                .unwrap_or(0),
        );
    }
    black_box(acc);
    let path_qps = queries as f64 / w.elapsed_secs();

    let (cache_hits, cache_misses) = u.route_cache_stats();
    SizeResult {
        name: spec.name,
        ases,
        links,
        hosts: spec.hosts,
        routing_build_secs,
        latency_qps,
        path_qps,
        cache_hits,
        cache_misses,
    }
}

fn main() {
    let cli = Cli::parse();
    let queries: usize = if cli.quick { 200_000 } else { 1_000_000 };
    let mut results = Vec::new();
    for spec in &SIZES {
        let r = measure(spec, cli.seed, queries);
        println!(
            "PERF size={} ases={} latency_qps={:.0} path_qps={:.0} build_secs={:.6}",
            r.name, r.ases, r.latency_qps, r.path_qps, r.routing_build_secs
        );
        results.push(r);
        if cli.quick && results.len() == 2 {
            break; // quick mode: skip the large topology
        }
    }

    let mut sizes_json = String::new();
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            sizes_json.push_str(",\n");
        }
        sizes_json.push_str(&format!(
            "    {{\n      \"name\": \"{}\",\n      \"ases\": {},\n      \"links\": {},\n      \
             \"hosts\": {},\n      \"routing_build_secs\": {:?},\n      \"latency_qps\": {:?},\n      \
             \"path_qps\": {:?},\n      \"cache_hits\": {},\n      \"cache_misses\": {}\n    }}",
            r.name,
            r.ases,
            r.links,
            r.hosts,
            r.routing_build_secs,
            r.latency_qps,
            r.path_qps,
            r.cache_hits,
            r.cache_misses
        ));
    }
    let json = format!(
        "{{\n  \"experiment\": \"bench_routing\",\n  \"seed\": {},\n  \"quick\": {},\n  \
         \"queries\": {},\n  \"sizes\": [\n{}\n  ]\n}}\n",
        cli.seed, cli.quick, queries, sizes_json
    );
    if let Err(e) = std::fs::create_dir_all(&cli.out) {
        eprintln!("warning: could not create {}: {e}", cli.out.display());
    }
    let path = cli.out.join("BENCH_routing.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("{}", artifact_line("bench", &path)),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
