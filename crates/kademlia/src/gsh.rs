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
use crate::network::{DhtConfig, DhtNetwork};
use uap_net::{GeoPoint, Underlay, WORLD_KM};
use uap_sim::SimRng;

/// Number of zone-prefix bits (a 2^(z/2) × 2^(z/2) grid).
pub const ZONE_BITS: usize = 8;

/// Computes the `ZONE_BITS`-bit Z-order zone of a position within the
/// world box `[0, WORLD_KM)²`.
pub fn zone_of(pos: &GeoPoint) -> u8 {
    let half = ZONE_BITS / 2;
    let cells = 1u32 << half;
    #[expect(
        clippy::cast_possible_truncation,
        reason = "float → int `as` saturates; the cell is capped at cells − 1 below"
    )]
    let clamp = |v: f64| (v.max(0.0) / WORLD_KM * cells as f64) as u32;
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

/// Builds a geographically scoped DHT: a standard [`DhtNetwork`] whose
/// node keys get their owner's zone prefix before the network is joined.
/// Content published for a region goes under [`scope_key`] of that
/// region's zone.
#[expect(clippy::indexing_slicing, reason = "i < n_hosts = zones.len()")]
pub fn scoped_dht(underlay: Underlay, cfg: DhtConfig, rng: &mut SimRng) -> DhtNetwork {
    let zones: Vec<u8> = underlay
        .hosts
        .ids()
        .map(|h| zone_of(&underlay.host(h).geo))
        .collect();
    DhtNetwork::build_with_keys(underlay, cfg, rng, |i, key| scope_key(zones[i], &key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ProximityMode;
    use uap_net::{HostId, NetParams};

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
        let a = zone_of(&GeoPoint::new(100.0, 100.0));
        let b = zone_of(&GeoPoint::new(150.0, 120.0));
        let far = zone_of(&GeoPoint::new(4_800.0, 4_900.0));
        assert_eq!(a, b, "nearby points share the zone");
        assert_ne!(a, far);
        // Out-of-range points clamp instead of wrapping.
        let clamped = zone_of(&GeoPoint::new(-10.0, 9_999.0));
        let corner = zone_of(&GeoPoint::new(0.0, 4_999.0));
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
        let mut dht = scoped_dht(underlay(128, 3), DhtConfig::default(), &mut rng);
        let zone_of_host = |dht: &DhtNetwork, h: HostId| zone_of(&dht.underlay.host(h).geo);
        let regional = |zone: u8| scope_key(zone, &Key::hash_of(b"local-news"));
        // A publisher stores regional content under its zone; a same-zone
        // requester finds it under its own zone's key.
        let publisher = HostId(0);
        let zone = zone_of_host(&dht, publisher);
        let hosts: Vec<HostId> = dht.underlay.hosts.ids().collect();
        let neighbor = *hosts
            .iter()
            .find(|&&h| h != publisher && zone_of_host(&dht, h) == zone)
            .expect("fixture needs a zone mate");
        dht.store(publisher, &regional(zone), 55, &mut rng);
        let (_, got) = dht.retrieve(neighbor, &regional(zone_of_host(&dht, neighbor)), &mut rng);
        assert_eq!(got, Some(55));
        // A far-zone requester asks under its own zone: misses.
        let far = *hosts
            .iter()
            .find(|&&h| zone_of_host(&dht, h) != zone)
            .expect("fixture needs a far host");
        let (_, miss) = dht.retrieve(far, &regional(zone_of_host(&dht, far)), &mut rng);
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
                let mut dht = scoped_dht(underlay(192, 7), cfg, &mut rng);
                for i in 0..60u32 {
                    let h = HostId(i % 192);
                    let zone = zone_of(&dht.underlay.host(h).geo);
                    let key = scope_key(zone, &Key::hash_of(format!("c{}", i % 10).as_bytes()));
                    let out = dht.lookup(h, &key, &mut rng);
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
