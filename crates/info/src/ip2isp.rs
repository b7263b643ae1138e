//! IP-to-ISP mapping service (§3.1).
//!
//! "The ISP of a certain peer can be discovered simply by using its IP.
//! Since every ISP has a set of well-known IP addresses, mapping every peer
//! to an ISP is straightforward." The commercial services the paper cites
//! (\[13\]\[14\]\[15\]) are databases keyed by prefix; ours is built from the
//! synthetic prefixes the host population allocates, with a configurable
//! accuracy to model stale or mis-registered entries.

use crate::provider::IspLocator;
use std::collections::BTreeMap;
use uap_net::{AsId, HostId, Underlay};
use uap_sim::SimRng;

/// A prefix-keyed ISP lookup database.
pub struct Ip2IspService {
    /// /16 prefix (upper 16 bits of the IPv4 address) → AS.
    prefix_table: BTreeMap<u16, AsId>,
    /// Host IP cache so lookups don't need the underlay.
    host_ips: Vec<u32>,
    /// Probability a lookup returns the correct AS; misses return a
    /// deterministic wrong neighbor entry.
    accuracy: f64,
    n_ases: usize,
    queries: u64,
    rng: SimRng,
}

impl Ip2IspService {
    /// Builds the database from an underlay's allocated prefixes. `accuracy`
    /// of 1.0 models an authoritative registry; lower values model the
    /// "less accurate" public mapping databases.
    pub fn build(underlay: &Underlay, accuracy: f64, rng: SimRng) -> Ip2IspService {
        let mut prefix_table = BTreeMap::new();
        let mut host_ips = vec![0u32; underlay.n_hosts()];
        for h in underlay.hosts.ids() {
            let host = underlay.host(h);
            // lint:allow(cast) — the /16 prefix: ip >> 16 < 2^16
            prefix_table.insert((host.ip >> 16) as u16, host.asn);
            host_ips[h.idx()] = host.ip;
        }
        Ip2IspService {
            prefix_table,
            host_ips,
            accuracy: accuracy.clamp(0.0, 1.0),
            n_ases: underlay.n_ases(),
            queries: 0,
            rng,
        }
    }

    /// Looks up an arbitrary IP address.
    pub fn lookup_ip(&mut self, ip: u32) -> Option<AsId> {
        self.queries += 1;
        // lint:allow(cast) — the /16 prefix: ip >> 16 < 2^16
        let truth = self.prefix_table.get(&((ip >> 16) as u16)).copied()?;
        if self.accuracy >= 1.0 || self.rng.chance(self.accuracy) {
            Some(truth)
        } else {
            // A stale database points at some other AS.
            let skip = self.rng.below(self.n_ases.max(2) as u64 - 1) as usize;
            Some(AsId::from_index((truth.idx() + 1 + skip) % self.n_ases))
        }
    }
}

impl IspLocator for Ip2IspService {
    #[expect(clippy::expect_used, reason = "new() registers every host's prefix")]
    fn isp_of(&mut self, h: HostId) -> AsId {
        let ip = self.host_ips[h.idx()];
        self.lookup_ip(ip).expect("host prefixes are registered")
    }

    fn queries(&self) -> u64 {
        self.queries
    }

    fn name(&self) -> &'static str {
        "ip2isp-mapping"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uap_net::{PopulationSpec, TopologyKind, TopologySpec, Underlay, UnderlayConfig};

    fn underlay() -> Underlay {
        let mut rng = SimRng::new(1);
        let g = TopologySpec::new(TopologyKind::Hierarchical {
            tier1: 2,
            tier2_per_tier1: 2,
            tier3_per_tier2: 2,
            tier2_peering_prob: 0.0,
            tier3_peering_prob: 0.0,
        })
        .build(&mut rng);
        Underlay::build(
            g,
            &PopulationSpec::leaf(100),
            UnderlayConfig::default(),
            &mut rng,
        )
    }

    #[test]
    fn perfect_accuracy_returns_truth() {
        let u = underlay();
        let mut svc = Ip2IspService::build(&u, 1.0, SimRng::new(2));
        for h in u.hosts.ids() {
            assert_eq!(svc.isp_of(h), u.hosts.as_of(h));
        }
        assert_eq!(svc.queries(), 100);
    }

    #[test]
    fn degraded_accuracy_misclassifies_sometimes() {
        let u = underlay();
        let mut svc = Ip2IspService::build(&u, 0.7, SimRng::new(3));
        let wrong = u
            .hosts
            .ids()
            .filter(|&h| svc.isp_of(h) != u.hosts.as_of(h))
            .count();
        // ~30 of 100 expected; generous bounds.
        assert!((10..=50).contains(&wrong), "wrong = {wrong}");
        // Misses still return a valid AS id.
        let mut svc0 = Ip2IspService::build(&u, 0.0, SimRng::new(4));
        for h in u.hosts.ids() {
            assert!(svc0.isp_of(h).idx() < u.n_ases());
            assert_ne!(svc0.isp_of(h), u.hosts.as_of(h));
        }
    }

    #[test]
    fn unknown_prefix_is_none() {
        let u = underlay();
        let mut svc = Ip2IspService::build(&u, 1.0, SimRng::new(5));
        assert_eq!(svc.lookup_ip(0xC0A8_0001), None); // 192.168.0.1
    }
}
