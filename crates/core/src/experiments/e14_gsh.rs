//! E14 (extension) — the latency-aware structured overlay of §4:
//! Geographically Scoped Hashing after Leopard \[33\].
//!
//! Workload: every peer publishes and retrieves *regionally popular*
//! content (the locality-correlated interest of \[25\]\[18\]\[24\]). Compared:
//! a plain Kademlia DHT (content hashes are location-blind, so a lookup
//! for the file "next door" routes across the world) versus the scoped
//! DHT (zone-prefixed identifiers keep both the route and the replica set
//! in the requester's region).

use super::table::{ensure, Scale};
use crate::experiments::NetParams;
use crate::report::{f, pct, Table};
use uap_kademlia::{DhtConfig, DhtNetwork, Key, ProximityMode, ScopedDht};
use uap_net::HostId;
use uap_sim::{SimRng, Tracer};

/// Experiment parameters.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Underlay shape.
    pub net: NetParams,
    /// Regional content items per zone.
    pub items_per_zone: usize,
    /// Retrievals to measure.
    pub retrievals: usize,
}

impl Params {
    /// Small instance.
    pub fn quick(seed: u64) -> Params {
        Params {
            net: NetParams::quick(160, seed),
            items_per_zone: 5,
            retrievals: 120,
        }
    }

    /// Full instance.
    pub fn full(seed: u64) -> Params {
        Params {
            net: NetParams::full(seed),
            items_per_zone: 10,
            retrievals: 1_000,
        }
    }
}

/// Per-system measurements.
#[derive(Clone, Copy, Debug)]
pub struct SystemResult {
    /// Mean AS hops per lookup RPC.
    pub as_hops_per_rpc: f64,
    /// Mean retrieval latency in milliseconds.
    pub mean_latency_ms: f64,
    /// Retrieval success ratio.
    pub success: f64,
    /// Inter-AS share of RPCs.
    pub inter_as_share: f64,
}

/// Experiment output.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Plain DHT result.
    pub plain: SystemResult,
    /// Scoped (Leopard-style) result.
    pub scoped: SystemResult,
    /// Rendered table.
    pub table: Table,
}

const WORLD_KM: f64 = 5_000.0;

fn regional_name(zone: u8, i: usize) -> Vec<u8> {
    format!("regional-{zone}-{i}").into_bytes()
}

fn regional_names(zone: u8, items: usize) -> Vec<Vec<u8>> {
    (0..items).map(|i| regional_name(zone, i)).collect()
}

/// The `(host, zone)` of each retrieval: hosts `13·i mod n`, i = 0, 1, ….
fn retrievers(zones: &[u8]) -> impl Iterator<Item = (HostId, u8)> + '_ {
    let stride = zones.iter().enumerate().cycle().step_by(13);
    stride.map(|(k, &z)| (HostId::from_index(k), z))
}

fn run_plain(p: &Params) -> SystemResult {
    let mut rng = SimRng::new(p.net.seed ^ 0xE14);
    let mut dht = DhtNetwork::build(
        p.net.build(),
        DhtConfig {
            proximity: ProximityMode::None,
            ..Default::default()
        },
        &mut rng,
    );
    let n = dht.len();
    // Publish: each zone's items stored under plain (location-blind) keys
    // by a publisher from that zone.
    let zones: Vec<u8> = (0..n)
        .map(|i| {
            uap_kademlia::gsh::zone_of(&dht.underlay.host(HostId::from_index(i)).geo, WORLD_KM)
        })
        .collect();
    let mut seen_zones: Vec<u8> = zones.clone();
    seen_zones.sort_unstable();
    seen_zones.dedup();
    for &z in &seen_zones {
        #[expect(clippy::expect_used, reason = "z was drawn from this very list above")]
        let pi = zones.iter().position(|&x| x == z).expect("seen zone");
        let publisher = HostId::from_index(pi);
        for name in regional_names(z, p.items_per_zone) {
            let key = Key::hash_of(&name);
            dht.store(publisher, &key, 1, &mut rng);
        }
    }
    // Retrieve own-zone content.
    let mut hops = 0u64;
    let mut rpcs = 0u64;
    let mut inter = 0u64;
    let mut lat = 0.0;
    let mut ok = 0usize;
    for (i, (h, z)) in retrievers(&zones).take(p.retrievals).enumerate() {
        let key = Key::hash_of(&regional_name(z, i % p.items_per_zone));
        let (out, got) = dht.retrieve(h, &key, &mut rng);
        hops += out.as_hops_sum;
        rpcs += out.rpcs;
        inter += out.inter_as_rpcs;
        lat += out.latency_us as f64 / 1_000.0;
        if got.is_some() {
            ok += 1;
        }
    }
    SystemResult {
        as_hops_per_rpc: hops as f64 / rpcs.max(1) as f64,
        mean_latency_ms: lat / p.retrievals as f64,
        success: ok as f64 / p.retrievals as f64,
        inter_as_share: inter as f64 / rpcs.max(1) as f64,
    }
}

fn run_scoped(p: &Params) -> SystemResult {
    let mut rng = SimRng::new(p.net.seed ^ 0xE14);
    let mut dht = ScopedDht::build(
        p.net.build(),
        DhtConfig {
            proximity: ProximityMode::None,
            ..Default::default()
        },
        WORLD_KM,
        &mut rng,
    );
    let n = dht.dht.len();
    let zones: Vec<u8> = (0..n)
        .map(|i| dht.zone_of_host(HostId::from_index(i)))
        .collect();
    let mut seen_zones: Vec<u8> = zones.clone();
    seen_zones.sort_unstable();
    seen_zones.dedup();
    for &z in &seen_zones {
        #[expect(clippy::expect_used, reason = "z was drawn from this very list above")]
        let pi = zones.iter().position(|&x| x == z).expect("seen zone");
        let publisher = HostId::from_index(pi);
        for name in regional_names(z, p.items_per_zone) {
            dht.publish_regional(publisher, &name, 1, &mut rng);
        }
    }
    let mut hops = 0u64;
    let mut rpcs = 0u64;
    let mut inter = 0u64;
    let mut lat = 0.0;
    let mut ok = 0usize;
    for (i, (h, z)) in retrievers(&zones).take(p.retrievals).enumerate() {
        let name = regional_name(z, i % p.items_per_zone);
        let (out, got) = dht.retrieve_regional(h, &name, &mut rng);
        hops += out.as_hops_sum;
        rpcs += out.rpcs;
        inter += out.inter_as_rpcs;
        lat += out.latency_us as f64 / 1_000.0;
        if got.is_some() {
            ok += 1;
        }
    }
    SystemResult {
        as_hops_per_rpc: hops as f64 / rpcs.max(1) as f64,
        mean_latency_ms: lat / p.retrievals as f64,
        success: ok as f64 / p.retrievals as f64,
        inter_as_share: inter as f64 / rpcs.max(1) as f64,
    }
}

/// Runs the comparison.
pub fn run(p: &Params) -> Outcome {
    let plain = run_plain(p);
    let scoped = run_scoped(p);
    let mut table = Table::new(
        "E14 — geographically scoped hashing (Leopard [33]) vs plain DHT",
        &[
            "system",
            "AS-hops/RPC",
            "mean retrieval latency (ms)",
            "success",
            "inter-AS RPC share",
        ],
    );
    for (label, r) in [("plain kademlia", &plain), ("scoped (GSH)", &scoped)] {
        table.row(&[
            label.to_owned(),
            f(r.as_hops_per_rpc),
            f(r.mean_latency_ms),
            pct(r.success),
            pct(r.inter_as_share),
        ]);
    }
    Outcome {
        plain,
        scoped,
        table,
    }
}

/// The [`super::TABLE`] row's run.
pub fn experiment(scale: Scale, seed: u64, _: &mut Tracer) -> super::Outcome {
    let out = run(&scale.params(seed, Params::quick, Params::full));
    let claim = claim(&out);
    super::Outcome::of(vec![out.table], claim)
}

/// Leopard's locality claim: scoped hashing retrieves regional content
/// over fewer AS hops and in less time than a plain DHT, at the same
/// (near-total) success.
pub fn claim(out: &Outcome) -> Result<(), String> {
    let (plain, scoped) = (&out.plain, &out.scoped);
    ensure!(plain.success > 0.95, "plain success {}", plain.success);
    ensure!(scoped.success > 0.95, "scoped success {}", scoped.success);
    ensure!(
        scoped.as_hops_per_rpc < plain.as_hops_per_rpc,
        "AS-hops/RPC: scoped {} !< plain {}",
        scoped.as_hops_per_rpc,
        plain.as_hops_per_rpc
    );
    ensure!(
        scoped.mean_latency_ms < plain.mean_latency_ms,
        "retrieval latency: scoped {} !< plain {}",
        scoped.mean_latency_ms,
        plain.mean_latency_ms
    );
    Ok(())
}
