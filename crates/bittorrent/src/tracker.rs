//! The tracker and its peer-selection policies.
//!
//! The tracker is the one central component of a BitTorrent swarm and the
//! cheapest place to inject ISP-location awareness — which is exactly what
//! Bindal et al. \[3\] proposed (and what the paper's §6 notes can put the
//! ISP "in a delicate situation due to privacy issues" when the ISP itself
//! operates it).

use uap_net::{HostId, Underlay};
use uap_sim::SimRng;

/// How the tracker composes an announce response.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum TrackerPolicy {
    /// Uniform random subset of the swarm (vanilla tracker).
    Random,
    /// Biased neighbor selection: up to `internal` same-AS peers, the rest
    /// (`external`) random outsiders — Bindal et al. recommend keeping a
    /// few external connections so rare pieces can still enter the AS.
    Bns {
        /// Same-AS peers per response.
        internal: usize,
        /// Random external peers per response.
        external: usize,
    },
    /// Cost-aware: rank candidates by AS-hop distance (a proxy for transit
    /// cost) and return the cheapest, plus a couple of random entries for
    /// diversity.
    CostAware,
}

/// The tracker state: the swarm membership, plus reusable candidate
/// scratch so the per-announce path stays allocation-free (announces
/// fire from the swarm's per-round re-announce loops).
pub struct Tracker {
    policy: TrackerPolicy,
    announces: u64,
    pool: Vec<HostId>,
    scored: Vec<(u32, HostId)>,
}

impl Tracker {
    /// Creates a tracker with the given policy.
    pub fn new(policy: TrackerPolicy) -> Tracker {
        Tracker {
            policy,
            announces: 0,
            pool: Vec::new(),
            scored: Vec::new(),
        }
    }

    /// Announces served.
    pub fn announces(&self) -> u64 {
        self.announces
    }

    /// Composes a peer list of up to `want` members for `who`, drawn from
    /// `swarm` (which must not contain `who`); clears and fills `out` —
    /// the swarm reuses each peer's neighbor buffer across re-announces.
    pub fn announce_into(
        &mut self,
        underlay: &Underlay,
        who: HostId,
        swarm: &[HostId],
        want: usize,
        rng: &mut SimRng,
        out: &mut Vec<HostId>,
    ) {
        self.announces += 1;
        out.clear();
        let pool = &mut self.pool;
        pool.clear();
        pool.extend(swarm.iter().copied().filter(|&p| p != who));
        match self.policy {
            TrackerPolicy::Random => {
                rng.shuffle(pool);
                out.extend(pool.iter().copied().take(want));
            }
            TrackerPolicy::Bns { internal, external } => {
                rng.shuffle(pool);
                out.extend(
                    pool.iter()
                        .copied()
                        .filter(|&p| underlay.same_as(who, p))
                        .take(internal.min(want)),
                );
                let room = want.saturating_sub(out.len());
                out.extend(
                    pool.iter()
                        .copied()
                        .filter(|&p| !underlay.same_as(who, p))
                        .take(external.min(room)),
                );
                // Backfill with whatever remains if the response is short.
                if out.len() < want {
                    for &p in pool.iter() {
                        if out.len() >= want {
                            break;
                        }
                        if !out.contains(&p) {
                            out.push(p);
                        }
                    }
                }
            }
            TrackerPolicy::CostAware => {
                rng.shuffle(pool);
                let scored = &mut self.scored;
                scored.clear();
                scored.extend(
                    pool.iter()
                        .map(|&p| (underlay.as_hops(who, p).unwrap_or(u32::MAX), p)),
                );
                scored.sort_by_key(|&(h, _)| h);
                let cheap = want.saturating_sub(2);
                out.extend(scored.iter().take(cheap).map(|&(_, p)| p));
                // Two random entries for piece diversity.
                for &(_, p) in scored.iter().skip(cheap) {
                    if out.len() >= want {
                        break;
                    }
                    if rng.chance(0.3) {
                        out.push(p);
                    }
                }
                for &(_, p) in scored.iter().skip(cheap) {
                    if out.len() >= want {
                        break;
                    }
                    if !out.contains(&p) {
                        out.push(p);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uap_net::{PopulationSpec, TopologyKind, TopologySpec, Underlay, UnderlayConfig};

    fn underlay() -> Underlay {
        let mut rng = SimRng::new(91);
        let g = TopologySpec::new(TopologyKind::Hierarchical {
            tier1: 2,
            tier2_per_tier1: 2,
            tier3_per_tier2: 2,
            tier2_peering_prob: 0.2,
            tier3_peering_prob: 0.2,
        })
        .build(&mut rng);
        Underlay::build(
            g,
            &PopulationSpec::leaf(200),
            UnderlayConfig::default(),
            &mut rng,
        )
    }

    #[test]
    fn random_policy_returns_want_distinct_peers() {
        let u = underlay();
        let mut t = Tracker::new(TrackerPolicy::Random);
        let swarm: Vec<HostId> = u.hosts.ids().collect();
        let mut rng = SimRng::new(92);
        let mut got = Vec::new();
        t.announce_into(&u, HostId(0), &swarm, 30, &mut rng, &mut got);
        assert_eq!(got.len(), 30);
        let mut sorted = got.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 30);
        assert!(!got.contains(&HostId(0)));
        assert_eq!(t.announces(), 1);
    }

    #[test]
    fn bns_mostly_internal() {
        let u = underlay();
        let mut t = Tracker::new(TrackerPolicy::Bns {
            internal: 25,
            external: 5,
        });
        let swarm: Vec<HostId> = u.hosts.ids().collect();
        let mut rng = SimRng::new(93);
        let who = HostId(0);
        let mut got = Vec::new();
        t.announce_into(&u, who, &swarm, 30, &mut rng, &mut got);
        let internal = got.iter().filter(|&&p| u.same_as(who, p)).count();
        let avail = u.hosts.in_as(u.hosts.as_of(who)).len() - 1;
        assert_eq!(
            internal,
            avail.min(25),
            "internal {internal}, avail {avail}"
        );
        // External connections are present (piece diversity).
        assert!(got.len() > internal);
    }

    #[test]
    fn bns_backfills_when_as_is_small() {
        let u = underlay();
        let mut t = Tracker::new(TrackerPolicy::Bns {
            internal: 25,
            external: 5,
        });
        // Tiny swarm from one other AS: response still fills up.
        let who = HostId(0);
        let swarm: Vec<HostId> = u
            .hosts
            .ids()
            .filter(|&h| !u.same_as(who, h))
            .take(10)
            .collect();
        let mut rng = SimRng::new(94);
        let mut got = Vec::new();
        t.announce_into(&u, who, &swarm, 8, &mut rng, &mut got);
        assert_eq!(got.len(), 8);
    }

    #[test]
    fn cost_aware_prefers_low_hops() {
        let u = underlay();
        let mut t = Tracker::new(TrackerPolicy::CostAware);
        let swarm: Vec<HostId> = u.hosts.ids().collect();
        let mut rng = SimRng::new(95);
        let who = HostId(3);
        let mut got = Vec::new();
        t.announce_into(&u, who, &swarm, 20, &mut rng, &mut got);
        assert_eq!(got.len(), 20);
        let mean_hops: f64 = got
            .iter()
            .map(|&p| u.as_hops(who, p).unwrap() as f64)
            .sum::<f64>()
            / got.len() as f64;
        // Compare with a random response.
        let mut tr = Tracker::new(TrackerPolicy::Random);
        let mut rand = Vec::new();
        tr.announce_into(&u, who, &swarm, 20, &mut rng, &mut rand);
        let mean_rand: f64 = rand
            .iter()
            .map(|&p| u.as_hops(who, p).unwrap() as f64)
            .sum::<f64>()
            / rand.len() as f64;
        assert!(mean_hops < mean_rand, "{mean_hops} !< {mean_rand}");
    }

    #[test]
    fn small_swarm_never_panics() {
        let u = underlay();
        for policy in [
            TrackerPolicy::Random,
            TrackerPolicy::Bns {
                internal: 3,
                external: 2,
            },
            TrackerPolicy::CostAware,
        ] {
            let mut t = Tracker::new(policy);
            let mut rng = SimRng::new(96);
            let mut got = vec![HostId(7)];
            t.announce_into(&u, HostId(0), &[], 10, &mut rng, &mut got);
            assert!(got.is_empty());
            t.announce_into(&u, HostId(0), &[HostId(1)], 10, &mut rng, &mut got);
            assert_eq!(got, vec![HostId(1)]);
        }
    }
}
