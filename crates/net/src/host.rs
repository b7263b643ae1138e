//! End hosts (peers) attached to the AS graph.
//!
//! Each host carries exactly the four kinds of underlay information the
//! paper's taxonomy is about: its **ISP** (the AS it attaches to), its
//! contribution to **latency** (the access link), its **geolocation**
//! (a point inside the ISP's service area) and its **peer resources**
//! (bandwidth, CPU, storage, expected online time).

use crate::asgraph::AsGraph;
use crate::geo::GeoPoint;
use crate::ids::{AsId, HostId};
use uap_sim::SimRng;

/// Access-link technology profile; determines bandwidth and first-hop
/// latency. The mix mirrors a 2008-era broadband population, which is what
/// the surveyed measurement studies saw.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessProfile {
    /// ADSL: fast down, slow up, moderate latency.
    Dsl,
    /// Cable: faster down, slow up.
    Cable,
    /// Fibre/ethernet: symmetric and fast.
    Fiber,
    /// University/enterprise LAN: very fast, very low latency.
    Campus,
}

impl AccessProfile {
    /// `(down_kbps, up_kbps, access_latency_us)` for this profile.
    pub fn parameters(self) -> (u32, u32, u64) {
        match self {
            AccessProfile::Dsl => (6_000, 640, 15_000),
            AccessProfile::Cable => (16_000, 1_500, 10_000),
            AccessProfile::Fiber => (50_000, 25_000, 3_000),
            AccessProfile::Campus => (100_000, 100_000, 1_000),
        }
    }

    /// Draws a profile from the default 2008-ish mix
    /// (50 % DSL, 30 % cable, 15 % fibre, 5 % campus).
    pub fn sample(rng: &mut SimRng) -> AccessProfile {
        let u = rng.f64();
        if u < 0.50 {
            AccessProfile::Dsl
        } else if u < 0.80 {
            AccessProfile::Cable
        } else if u < 0.95 {
            AccessProfile::Fiber
        } else {
            AccessProfile::Campus
        }
    }
}

/// One end host.
#[derive(Clone, Debug)]
pub struct Host {
    /// Identifier (index into [`HostPopulation::hosts`]).
    pub id: HostId,
    /// The AS (ISP) this host connects through — its *ISP-location*.
    pub asn: AsId,
    /// IPv4 address, allocated from the ISP's prefix.
    pub ip: u32,
    /// Exact geolocation (what a GPS receiver would report).
    pub geo: GeoPoint,
    /// Access profile.
    pub access: AccessProfile,
    /// First-hop latency in microseconds.
    pub access_latency_us: u64,
    /// Downstream bandwidth in kbit/s.
    pub down_kbps: u32,
    /// Upstream bandwidth in kbit/s.
    pub up_kbps: u32,
    /// Relative CPU capacity (1.0 = baseline desktop).
    pub cpu: f64,
    /// Shared storage in gigabytes.
    pub storage_gb: f64,
    /// Long-run fraction of time this host is online (used by
    /// resource-aware superpeer selection).
    pub online_fraction: f64,
}

impl Host {
    /// A scalar capacity score combining bandwidth, CPU and stability —
    /// the quantity a SkyEye-style resource directory ranks peers by.
    pub fn capacity_score(&self) -> f64 {
        let bw = (self.up_kbps as f64 / 1_000.0).sqrt();
        bw * self.cpu * self.online_fraction
    }
}

/// How hosts are spread over the ASes.
#[derive(Clone, Debug)]
pub enum AttachmentDist {
    /// Every AS equally likely.
    Uniform,
    /// Only Tier-3 (local) ASes, equally likely — the realistic choice for
    /// residential peers.
    LeafOnly,
    /// Explicit per-AS weights (need not be normalized).
    Weighted(Vec<f64>),
}

/// Population request.
#[derive(Clone, Debug)]
pub struct PopulationSpec {
    /// Number of hosts.
    pub n: usize,
    /// Attachment distribution over ASes.
    pub attachment: AttachmentDist,
}

impl PopulationSpec {
    /// `n` hosts attached to leaf ASes.
    pub fn leaf(n: usize) -> Self {
        PopulationSpec {
            n,
            attachment: AttachmentDist::LeafOnly,
        }
    }

    /// `n` hosts attached uniformly to all ASes.
    pub fn uniform(n: usize) -> Self {
        PopulationSpec {
            n,
            attachment: AttachmentDist::Uniform,
        }
    }
}

/// The set of hosts attached to an AS graph.
#[derive(Clone, Debug, Default)]
pub struct HostPopulation {
    /// All hosts, indexed by [`HostId`].
    pub hosts: Vec<Host>,
    by_as: Vec<Vec<HostId>>,
}

impl HostPopulation {
    /// Builds a population over `graph` according to `spec`.
    pub fn build(graph: &AsGraph, spec: &PopulationSpec, rng: &mut SimRng) -> HostPopulation {
        let weights: Vec<f64> = match &spec.attachment {
            AttachmentDist::Uniform => vec![1.0; graph.len()],
            AttachmentDist::LeafOnly => graph
                .nodes
                .iter()
                .map(|n| {
                    if n.tier == crate::asgraph::Tier::Tier3 {
                        1.0
                    } else {
                        0.0
                    }
                })
                .collect(),
            AttachmentDist::Weighted(w) => {
                assert_eq!(w.len(), graph.len(), "weight vector length mismatch");
                w.clone()
            }
        };
        // If LeafOnly found no Tier-3 AS (flat testlab graphs), fall back to
        // uniform so the testlab topologies still work.
        let weights = if weights.iter().all(|&w| w <= 0.0) {
            vec![1.0; graph.len()]
        } else {
            weights
        };
        let cdf: Vec<f64> = weights
            .iter()
            .scan(0.0, |acc, &w| {
                *acc += w;
                Some(*acc)
            })
            .collect();
        #[expect(
            clippy::expect_used,
            reason = "one weight per AS, and the graph is non-empty"
        )]
        let total = *cdf.last().expect("non-empty graph");

        let mut hosts = Vec::with_capacity(spec.n);
        let mut by_as = vec![Vec::new(); graph.len()];
        let mut per_as_seq = vec![0u32; graph.len()];
        for i in 0..spec.n {
            let u = rng.f64() * total;
            let as_idx = cdf.partition_point(|&c| c <= u).min(graph.len() - 1);
            let asn = AsId::from_index(as_idx);
            let node = &graph.nodes[as_idx];
            // Scatter inside the ISP's service disc.
            let theta = rng.f64_range(0.0, std::f64::consts::TAU);
            let rad = node.service_radius_km * rng.f64().sqrt();
            let geo = GeoPoint::new(
                node.geo_center.x_km + rad * theta.cos(),
                node.geo_center.y_km + rad * theta.sin(),
            );
            let access = AccessProfile::sample(rng);
            let (down, up, acc_lat) = access.parameters();
            // Jitter the profile a bit so hosts are not identical.
            let jitter = rng.f64_range(0.8, 1.2);
            let seq = per_as_seq[as_idx];
            per_as_seq[as_idx] += 1;
            let id = HostId::from_index(i);
            hosts.push(Host {
                id,
                asn,
                // Synthetic allocation: each AS owns the /16 `10.<as>.0.0`.
                // lint:allow(cast) — as_idx < graph.len() <= u16::MAX (AsId width); fits the /16 octets
                ip: (10u32 << 24) | ((as_idx as u32) << 16) | (seq & 0xFFFF),
                geo,
                access,
                access_latency_us: (acc_lat as f64 * jitter) as u64,
                // lint:allow(cast) — profile kbps <= ~1e6 and jitter <= 1.2, far under u32::MAX
                down_kbps: (down as f64 * jitter) as u32,
                // lint:allow(cast) — same bound as down_kbps
                up_kbps: (up as f64 * jitter) as u32,
                cpu: rng.f64_range(0.5, 4.0),
                storage_gb: rng.f64_range(1.0, 500.0),
                online_fraction: rng.f64_range(0.05, 1.0),
            });
            by_as[as_idx].push(id);
        }
        HostPopulation { hosts, by_as }
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// The host record.
    #[inline]
    pub fn host(&self, id: HostId) -> &Host {
        &self.hosts[id.idx()]
    }

    /// Hosts attached to `asn`.
    pub fn in_as(&self, asn: AsId) -> &[HostId] {
        &self.by_as[asn.idx()]
    }

    /// The AS a host attaches through.
    #[inline]
    pub fn as_of(&self, id: HostId) -> AsId {
        self.hosts[id.idx()].asn
    }

    /// Iterator over all host ids.
    pub fn ids(&self) -> impl Iterator<Item = HostId> {
        let n = HostId::from_index(self.hosts.len()).0;
        (0..n).map(HostId)
    }

    /// Moves a host to another AS (mobile peer support, §6): reassigns the
    /// attachment, allocates an IP from the new prefix, and places the
    /// host inside the new service area.
    pub fn migrate(&mut self, graph: &AsGraph, h: HostId, new_as: AsId, rng: &mut SimRng) {
        let old_as = self.hosts[h.idx()].asn;
        if old_as == new_as {
            return;
        }
        self.by_as[old_as.idx()].retain(|&x| x != h);
        let seq = HostId::from_index(self.by_as[new_as.idx()].len()).0;
        self.by_as[new_as.idx()].push(h);
        let node = &graph.nodes[new_as.idx()];
        let theta = rng.f64_range(0.0, std::f64::consts::TAU);
        let rad = node.service_radius_km * rng.f64().sqrt();
        let host = &mut self.hosts[h.idx()];
        host.asn = new_as;
        // lint:allow(cast) — idx() comes from a u16 AsId; fits the /16 octets
        host.ip = (10u32 << 24) | ((new_as.idx() as u32) << 16) | (seq & 0xFFFF);
        host.geo = GeoPoint::new(
            node.geo_center.x_km + rad * theta.cos(),
            node.geo_center.y_km + rad * theta.sin(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{TopologyKind, TopologySpec};

    fn graph() -> AsGraph {
        TopologySpec::new(TopologyKind::Hierarchical {
            tier1: 2,
            tier2_per_tier1: 2,
            tier3_per_tier2: 3,
            tier2_peering_prob: 0.0,
            tier3_peering_prob: 0.2,
        })
        .build(&mut SimRng::new(1))
    }

    #[test]
    fn leaf_only_attaches_to_tier3() {
        let g = graph();
        let pop = HostPopulation::build(&g, &PopulationSpec::leaf(500), &mut SimRng::new(2));
        assert_eq!(pop.len(), 500);
        for h in &pop.hosts {
            assert_eq!(g.nodes[h.asn.idx()].tier, crate::asgraph::Tier::Tier3);
        }
    }

    #[test]
    fn by_as_index_is_consistent() {
        let g = graph();
        let pop = HostPopulation::build(&g, &PopulationSpec::uniform(300), &mut SimRng::new(3));
        let mut counted = 0;
        for a in 0..g.len() {
            for &h in pop.in_as(AsId(a as u16)) {
                assert_eq!(pop.as_of(h), AsId(a as u16));
                counted += 1;
            }
        }
        assert_eq!(counted, 300);
    }

    #[test]
    fn ips_encode_the_as() {
        let g = graph();
        let pop = HostPopulation::build(&g, &PopulationSpec::leaf(100), &mut SimRng::new(4));
        for h in &pop.hosts {
            assert_eq!((h.ip >> 16) & 0xFF, h.asn.0 as u32);
            assert_eq!(h.ip >> 24, 10);
        }
    }

    #[test]
    fn hosts_lie_within_service_area() {
        let g = graph();
        let pop = HostPopulation::build(&g, &PopulationSpec::leaf(200), &mut SimRng::new(5));
        for h in &pop.hosts {
            let node = &g.nodes[h.asn.idx()];
            let d = h.geo.distance_km(&node.geo_center);
            assert!(d <= node.service_radius_km + 1e-9, "{d} > radius");
        }
    }

    #[test]
    fn weighted_attachment() {
        let g = graph();
        let mut w = vec![0.0; g.len()];
        w[g.len() - 1] = 1.0;
        let pop = HostPopulation::build(
            &g,
            &PopulationSpec {
                n: 50,
                attachment: AttachmentDist::Weighted(w),
            },
            &mut SimRng::new(6),
        );
        assert!(pop
            .hosts
            .iter()
            .all(|h| h.asn == AsId((g.len() - 1) as u16)));
    }

    #[test]
    fn capacity_score_orders_sensibly() {
        let g = graph();
        let pop = HostPopulation::build(&g, &PopulationSpec::leaf(2), &mut SimRng::new(7));
        let mut strong = pop.hosts[0].clone();
        strong.up_kbps = 100_000;
        strong.cpu = 4.0;
        strong.online_fraction = 1.0;
        let mut weak = pop.hosts[1].clone();
        weak.up_kbps = 640;
        weak.cpu = 0.5;
        weak.online_fraction = 0.1;
        assert!(strong.capacity_score() > 10.0 * weak.capacity_score());
    }

    #[test]
    fn population_build_is_deterministic() {
        let g = graph();
        let a = HostPopulation::build(&g, &PopulationSpec::leaf(100), &mut SimRng::new(9));
        let b = HostPopulation::build(&g, &PopulationSpec::leaf(100), &mut SimRng::new(9));
        for (x, y) in a.hosts.iter().zip(&b.hosts) {
            assert_eq!(x.asn, y.asn);
            assert_eq!(x.ip, y.ip);
            assert_eq!(x.up_kbps, y.up_kbps);
        }
    }
}
