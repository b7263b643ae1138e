//! Geographically Scoped Hashing — the latency-aware structured overlay
//! of §4, after Leopard (Yu, Lee, Zhang \[33\]).
//!
//! "Both content identifiers and latency information are processed
//! together using a special hashing function called Geographically Scoped
//! Hashing to produce the final peer and content identifiers."
//!
//! The scheme: the top `z` bits of every 160-bit identifier are a
//! **zone prefix** derived from position (here: a Z-order/Morton
//! interleaving of the planar coordinates, so nearby peers share long
//! prefixes), and the remaining bits are the usual hash. Peers take their
//! zone from their own location; content published *for a region* takes
//! that region's zone. Because Kademlia's XOR metric resolves the highest
//! differing bit first, routes for region-scoped keys converge inside the
//! region, and the replica set lands on regional nodes — lookups for
//! locally-consumed content never leave the neighbourhood.

use crate::id::Key;
use crate::network::{DhtConfig, DhtNetwork, LookupOutcome};
use uap_net::{GeoPoint, HostId, Underlay};
use uap_sim::SimRng;

/// Number of zone-prefix bits (a 2^(z/2) × 2^(z/2) grid).
pub const ZONE_BITS: usize = 8;

/// Computes the `ZONE_BITS`-bit Z-order zone of a position within the
/// world box `[0, world_km)²`.
pub fn zone_of(pos: &GeoPoint, world_km: f64) -> u8 {
    let half = ZONE_BITS / 2;
    let cells = 1u32 << half;
    // lint:allow(cast) — float → int saturates; the cell is capped at cells − 1 below
    let clamp = |v: f64| (v.max(0.0) / world_km * cells as f64) as u32;
    let cx = clamp(pos.x_km).min(cells - 1);
    let cy = clamp(pos.y_km).min(cells - 1);
    // Interleave the bits of (cx, cy), x first: nearby cells share
    // prefixes at every scale.
    let mut zone = 0u8;
    for bit in (0..half).rev() {
        zone = (zone << 1) | u8::from((cx >> bit) & 1 == 1);
        zone = (zone << 1) | u8::from((cy >> bit) & 1 == 1);
    }
    zone
}

/// Replaces the top `ZONE_BITS` of a key with a zone prefix.
pub fn scope_key(zone: u8, inner: &Key) -> Key {
    let mut b = inner.0;
    b[0] = zone;
    Key(b)
}

/// A geographically scoped DHT: a standard [`DhtNetwork`] whose node
/// identifiers carry zone prefixes.
pub struct ScopedDht {
    /// The underlying DHT.
    pub dht: DhtNetwork,
    world_km: f64,
}

impl ScopedDht {
    /// Builds the scoped DHT: node keys get their owner's zone prefix
    /// before the network is joined.
    pub fn build(underlay: Underlay, cfg: DhtConfig, world_km: f64, rng: &mut SimRng) -> ScopedDht {
        let zones: Vec<u8> = underlay
            .hosts
            .ids()
            .map(|h| zone_of(&underlay.host(h).geo, world_km))
            .collect();
        let dht =
            DhtNetwork::build_with_keys(underlay, cfg, rng, |i, key| scope_key(zones[i], &key));
        ScopedDht { dht, world_km }
    }

    /// The zone a host lives in.
    pub fn zone_of_host(&self, h: HostId) -> u8 {
        zone_of(&self.dht.underlay.host(h).geo, self.world_km)
    }

    /// The scoped key under which `name` is stored for `zone`.
    pub fn regional_key(&self, zone: u8, name: &[u8]) -> Key {
        scope_key(zone, &Key::hash_of(name))
    }

    /// Publishes regional content: stored under the publisher's own zone.
    pub fn publish_regional(
        &mut self,
        publisher: HostId,
        name: &[u8],
        value: u64,
        rng: &mut SimRng,
    ) -> (LookupOutcome, usize) {
        let key = self.regional_key(self.zone_of_host(publisher), name);
        self.dht.store(publisher, &key, value, rng)
    }

    /// Retrieves content scoped to the *requester's* zone (the
    /// locally-popular-content pattern Leopard optimizes).
    pub fn retrieve_regional(
        &mut self,
        requester: HostId,
        name: &[u8],
        rng: &mut SimRng,
    ) -> (LookupOutcome, Option<u64>) {
        let key = self.regional_key(self.zone_of_host(requester), name);
        self.dht.retrieve(requester, &key, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ProximityMode;
    use uap_net::NetParams;

    fn underlay(n: usize, seed: u64) -> Underlay {
        NetParams {
            tier1: 2,
            tier2_per_tier1: 2,
            tier3_per_tier2: 3,
            n_hosts: n,
            seed,
        }
        .build()
    }

    #[test]
    fn zorder_zones_respect_locality() {
        let world = 5_000.0;
        let a = zone_of(&GeoPoint::new(100.0, 100.0), world);
        let b = zone_of(&GeoPoint::new(150.0, 120.0), world);
        let far = zone_of(&GeoPoint::new(4_800.0, 4_900.0), world);
        assert_eq!(a, b, "nearby points share the zone");
        assert_ne!(a, far);
        // Out-of-range points clamp instead of wrapping.
        let clamped = zone_of(&GeoPoint::new(-10.0, 9_999.0), world);
        let corner = zone_of(&GeoPoint::new(0.0, 4_999.0), world);
        assert_eq!(clamped, corner);
    }

    #[test]
    fn scope_key_sets_exactly_the_prefix() {
        let inner = Key::hash_of(b"content");
        let scoped = scope_key(0xAB, &inner);
        assert_eq!(scoped.0[0], 0xAB);
        assert_eq!(&scoped.0[1..], &inner.0[1..]);
    }

    #[test]
    fn regional_content_round_trips() {
        let mut rng = SimRng::new(3);
        let mut dht = ScopedDht::build(underlay(128, 3), DhtConfig::default(), 5_000.0, &mut rng);
        // A publisher stores regional content; a same-zone requester finds
        // it under the same key.
        let publisher = HostId(0);
        let zone = dht.zone_of_host(publisher);
        let neighbor = dht
            .dht
            .underlay
            .hosts
            .ids()
            .find(|&h| h != publisher && dht.zone_of_host(h) == zone)
            .expect("fixture needs a zone mate");
        dht.publish_regional(publisher, b"local-news", 55, &mut rng);
        let (_, got) = dht.retrieve_regional(neighbor, b"local-news", &mut rng);
        assert_eq!(got, Some(55));
        // A far-zone requester asks under its own zone: misses.
        let far = dht
            .dht
            .underlay
            .hosts
            .ids()
            .find(|&h| dht.zone_of_host(h) != zone)
            .expect("fixture needs a far host");
        let (_, miss) = dht.retrieve_regional(far, b"local-news", &mut rng);
        assert_eq!(miss, None);
    }

    #[test]
    fn scoped_lookups_stay_more_local_than_plain() {
        // Regional lookups in the scoped DHT cross fewer AS hops per RPC
        // than the same workload on a plain DHT.
        let run = |scoped: bool| {
            let mut rng = SimRng::new(7);
            let cfg = DhtConfig {
                proximity: ProximityMode::None,
                ..Default::default()
            };
            let mut hops = 0u64;
            let mut rpcs = 0u64;
            if scoped {
                let mut dht = ScopedDht::build(underlay(192, 7), cfg, 5_000.0, &mut rng);
                for i in 0..60u32 {
                    let h = HostId(i % 192);
                    let key =
                        dht.regional_key(dht.zone_of_host(h), format!("c{}", i % 10).as_bytes());
                    let out = dht.dht.lookup(h, &key, &mut rng);
                    hops += out.as_hops_sum;
                    rpcs += out.rpcs;
                }
            } else {
                let mut dht = DhtNetwork::build(underlay(192, 7), cfg, &mut rng);
                for i in 0..60u32 {
                    let h = HostId(i % 192);
                    let key = Key::hash_of(format!("c{}", i % 10).as_bytes());
                    let out = dht.lookup(h, &key, &mut rng);
                    hops += out.as_hops_sum;
                    rpcs += out.rpcs;
                }
            }
            hops as f64 / rpcs.max(1) as f64
        };
        let plain = run(false);
        let scoped = run(true);
        assert!(
            scoped < plain,
            "scoped {scoped} AS-hops/RPC not below plain {plain}"
        );
    }
}
