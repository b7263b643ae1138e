//! Explicit latency measurement (§3.2).
//!
//! "Latency can be measured explicitly using a simple ping or traceroute
//! technique. This, however, incurs the network with much overhead." —
//! [`ExplicitPinger`] is that technique, with the overhead made visible:
//! every probe costs two messages (echo + reply), and an optional cache
//! models the sparing use the paper recommends.

use crate::provider::ProximityEstimator;
use std::collections::BTreeMap;
use uap_net::{HostId, Underlay};
use uap_sim::SimRng;

/// Direct RTT measurement against the underlay's ground truth (plus the
/// underlay's configured jitter).
pub struct ExplicitPinger<'a> {
    underlay: &'a Underlay,
    /// When true, each ordered pair is only measured once and then served
    /// from cache.
    pub cache_enabled: bool,
    cache: BTreeMap<(HostId, HostId), f64>,
    messages: u64,
    probes: u64,
}

impl<'a> ExplicitPinger<'a> {
    /// Creates a pinger; `cache_enabled` controls memoization.
    pub fn new(underlay: &'a Underlay, cache_enabled: bool) -> Self {
        ExplicitPinger {
            underlay,
            cache_enabled,
            cache: BTreeMap::new(),
            messages: 0,
            probes: 0,
        }
    }

    /// Measures the RTT between `a` and `b` in microseconds.
    pub fn rtt_us(&mut self, a: HostId, b: HostId, rng: &mut SimRng) -> f64 {
        let key = if a <= b { (a, b) } else { (b, a) };
        if self.cache_enabled {
            if let Some(&v) = self.cache.get(&key) {
                return v;
            }
        }
        self.probes += 1;
        self.messages += 2; // echo request + reply
        let rtt = self
            .underlay
            .measured_rtt_us(a, b, rng)
            .unwrap_or(u64::MAX / 2) as f64;
        if self.cache_enabled {
            self.cache.insert(key, rtt);
        }
        rtt
    }

    /// Number of actual probes sent (cache hits excluded).
    pub fn probes(&self) -> u64 {
        self.probes
    }
}

impl ProximityEstimator for ExplicitPinger<'_> {
    fn proximity(&mut self, a: HostId, b: HostId, rng: &mut SimRng) -> f64 {
        self.rtt_us(a, b, rng)
    }

    fn overhead_messages(&self) -> u64 {
        self.messages
    }

    fn name(&self) -> &'static str {
        "explicit-ping"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uap_net::{PopulationSpec, TopologyKind, TopologySpec, Underlay, UnderlayConfig};

    fn underlay(jitter: f64) -> Underlay {
        let mut rng = SimRng::new(21);
        let g = TopologySpec::new(TopologyKind::Mesh {
            n: 10,
            extra_edge_prob: 0.3,
        })
        .build(&mut rng);
        let cfg = UnderlayConfig {
            routing: uap_net::RoutingMode::ShortestPath,
            jitter,
            ..Default::default()
        };
        Underlay::build(g, &PopulationSpec::uniform(60), cfg, &mut rng)
    }

    #[test]
    fn measures_ground_truth_when_noiseless() {
        let u = underlay(0.0);
        let mut p = ExplicitPinger::new(&u, false);
        let mut rng = SimRng::new(22);
        let (a, b) = (HostId(0), HostId(30));
        assert_eq!(p.rtt_us(a, b, &mut rng), u.rtt_us(a, b).unwrap() as f64);
    }

    #[test]
    fn overhead_counts_two_messages_per_probe() {
        let u = underlay(0.0);
        let mut p = ExplicitPinger::new(&u, false);
        let mut rng = SimRng::new(23);
        for i in 1..=10 {
            p.rtt_us(HostId(0), HostId(i), &mut rng);
        }
        assert_eq!(p.probes(), 10);
        assert_eq!(p.overhead_messages(), 20);
    }

    #[test]
    fn cache_avoids_repeat_probes() {
        let u = underlay(0.2);
        let mut p = ExplicitPinger::new(&u, true);
        let mut rng = SimRng::new(24);
        let v1 = p.rtt_us(HostId(1), HostId(2), &mut rng);
        let v2 = p.rtt_us(HostId(2), HostId(1), &mut rng); // reversed pair
        assert_eq!(v1, v2);
        assert_eq!(p.probes(), 1);
        assert_eq!(p.overhead_messages(), 2);
    }

    #[test]
    fn ranking_prefers_closer_hosts() {
        let u = underlay(0.0);
        let mut p = ExplicitPinger::new(&u, false);
        let mut rng = SimRng::new(25);
        let from = HostId(0);
        let candidates: Vec<HostId> = (1..20).map(HostId).collect();
        let ranked = p.rank(from, &candidates, &mut rng);
        let rtts: Vec<u64> = ranked.iter().map(|&h| u.rtt_us(from, h).unwrap()).collect();
        for w in rtts.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }
}
