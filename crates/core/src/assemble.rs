//! Assembling a running system from an [`AwarenessProfile`].
//!
//! [`crate::framework`] makes profiles *checkable*; this module makes them
//! *runnable*: given a validated profile and an underlay, it instantiates
//! the matching collection service behind the uniform
//! [`ProximityEstimator`] / [`GeoLocator`] interfaces. This is the path
//! the binaries take to the "general architecture for underlay awareness"
//! the paper calls for: E12's overhead table builds its five proximity
//! rows here, one profile per row, and E8's geolocation probe places its
//! peers through [`build_geo_locator`]. Swapping techniques is a one-line
//! profile change; the overlay code never changes.

use crate::framework::{AwarenessProfile, CollectionTechnique};
use uap_info::provider::{GeoLocator, ProximityEstimator};
use uap_info::{
    ExplicitPinger, GeoService, GeoSource, IcsService, OnoEstimator, Oracle, SimulatedCdn,
    VivaldiService,
};
use uap_net::{HostId, Underlay};
use uap_sim::SimRng;

/// Vivaldi gossip rounds before the estimator is handed out.
pub const VIVALDI_ROUNDS: usize = 20;
/// RTT samples per node per Vivaldi round.
pub const VIVALDI_SAMPLES: usize = 2;
/// ICS beacons.
pub const ICS_BEACONS: usize = 8;
/// ICS dimensions.
const ICS_DIMS: usize = 4;
/// CDN replicas for Ono.
const CDN_REPLICAS: usize = 6;
/// CDN samples per peer for Ono.
pub const ONO_SAMPLES: usize = 30;

/// A proximity estimator wrapping the oracle so it fits the uniform
/// interface (the oracle natively ranks lists; as an estimator it scores a
/// pair by AS-hop distance, two messages per probe like a real oracle
/// round trip).
pub struct OracleEstimator<'a> {
    underlay: &'a Underlay,
    oracle: Oracle,
}

impl ProximityEstimator for OracleEstimator<'_> {
    fn proximity(&mut self, a: HostId, b: HostId, _rng: &mut SimRng) -> f64 {
        // One oracle query scoring a single candidate.
        self.oracle.best(self.underlay, a, &[b]);
        self.underlay.as_hops(a, b).unwrap_or(u32::MAX) as f64
    }

    fn overhead_messages(&self) -> u64 {
        2 * self.oracle.queries()
    }

    fn name(&self) -> &'static str {
        "isp-oracle"
    }
}

/// Instantiates the proximity estimator a profile's collection technique
/// prescribes. Returns `None` for techniques that do not produce pairwise
/// proximity (the geolocation family — use [`build_geo_locator`]; the
/// resource family — use `SkyEyeTree` directly; IP-to-ISP mapping, which
/// yields a peer's ISP identity, not a pairwise distance — use
/// `Ip2IspService`).
pub fn build_proximity_estimator<'a>(
    profile: &AwarenessProfile,
    underlay: &'a Underlay,
    rng: &mut SimRng,
) -> Option<Box<dyn ProximityEstimator + 'a>> {
    profile.validate().ok()?;
    Some(match profile.collection {
        CollectionTechnique::ExplicitMeasurement => Box::new(ExplicitPinger::new(underlay)),
        CollectionTechnique::VivaldiCoordinates => {
            let mut svc = VivaldiService::new(underlay.n_hosts());
            svc.converge(underlay, VIVALDI_ROUNDS, VIVALDI_SAMPLES, rng);
            Box::new(svc)
        }
        CollectionTechnique::LandmarkCoordinates => Box::new(IcsService::build(
            underlay,
            ICS_BEACONS.min(underlay.n_hosts()),
            ICS_DIMS,
            rng,
        )),
        CollectionTechnique::IspComponent => Box::new(OracleEstimator {
            underlay,
            oracle: Oracle::new(usize::MAX),
        }),
        CollectionTechnique::CdnInference => {
            let cdn = SimulatedCdn::deploy(underlay, CDN_REPLICAS);
            Box::new(OnoEstimator::new(underlay, cdn, ONO_SAMPLES))
        }
        CollectionTechnique::IpToIspMapping
        | CollectionTechnique::Gps
        | CollectionTechnique::IpToLocationMapping
        | CollectionTechnique::IspProvidedLocation
        | CollectionTechnique::InfoManagementOverlay => return None,
    })
}

/// Instantiates the geolocation service a profile prescribes, or `None`
/// for non-geolocation techniques.
pub fn build_geo_locator<'a>(
    profile: &AwarenessProfile,
    underlay: &'a Underlay,
) -> Option<Box<dyn GeoLocator + 'a>> {
    profile.validate().ok()?;
    let source = match profile.collection {
        CollectionTechnique::Gps => GeoSource::Gps,
        CollectionTechnique::IpToLocationMapping => GeoSource::IpMapping,
        CollectionTechnique::IspProvidedLocation => GeoSource::IspProvided,
        _ => return None,
    };
    Some(Box::new(GeoService::new(underlay, source)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::NetParams;
    use crate::framework::{taxonomy, InfoType, UsageStrategy};

    fn profile(collection: CollectionTechnique) -> AwarenessProfile {
        let (info, _) = taxonomy()
            .into_iter()
            .find(|&(_, c)| c == collection)
            .unwrap();
        AwarenessProfile::collecting(info, collection)
    }

    #[test]
    fn every_proximity_technique_assembles_and_ranks_sanely() {
        let underlay = NetParams::quick(100, 131).build();
        let techniques = [
            CollectionTechnique::ExplicitMeasurement,
            CollectionTechnique::VivaldiCoordinates,
            CollectionTechnique::LandmarkCoordinates,
            CollectionTechnique::IspComponent,
            CollectionTechnique::CdnInference,
        ];
        for technique in techniques {
            let mut rng = SimRng::new(132);
            let mut est = build_proximity_estimator(&profile(technique), &underlay, &mut rng)
                .unwrap_or_else(|| panic!("{technique:?} should assemble"));
            // Rank 20 candidates from host 0: the top-5 picks should have a
            // lower true mean RTT than the candidate population (every
            // technique carries *some* signal).
            let from = HostId(0);
            let candidates: Vec<HostId> = (1..60).map(HostId).collect();
            let ranked = est.rank(from, &candidates, &mut rng);
            assert_eq!(ranked.len(), candidates.len(), "{technique:?}");
            let rtt = |h: HostId| underlay.rtt_us(from, h).unwrap() as f64;
            let top: f64 = ranked[..5].iter().map(|&h| rtt(h)).sum::<f64>() / 5.0;
            let all: f64 =
                candidates.iter().map(|&h| rtt(h)).sum::<f64>() / candidates.len() as f64;
            assert!(
                top < all,
                "{technique:?}: top-5 mean RTT {top} not below population mean {all}"
            );
        }
    }

    #[test]
    fn geo_techniques_assemble_as_locators() {
        let underlay = NetParams::quick(50, 133).build();
        for technique in [
            CollectionTechnique::Gps,
            CollectionTechnique::IpToLocationMapping,
            CollectionTechnique::IspProvidedLocation,
        ] {
            let mut rng = SimRng::new(134);
            let mut loc = build_geo_locator(&profile(technique), &underlay)
                .unwrap_or_else(|| panic!("{technique:?} should assemble"));
            let p = loc.locate(HostId(3), &mut rng);
            assert!(p.x_km.is_finite() && p.y_km.is_finite());
        }
    }

    #[test]
    fn wrong_family_returns_none() {
        let underlay = NetParams::quick(50, 135).build();
        let mut rng = SimRng::new(136);
        for technique in [
            CollectionTechnique::Gps,
            CollectionTechnique::IpToIspMapping,
        ] {
            assert!(
                build_proximity_estimator(&profile(technique), &underlay, &mut rng).is_none(),
                "{technique:?}"
            );
        }
        assert!(
            build_geo_locator(&profile(CollectionTechnique::IspComponent), &underlay).is_none()
        );
    }

    #[test]
    fn invalid_profile_returns_none() {
        let underlay = NetParams::quick(50, 137).build();
        let mut rng = SimRng::new(138);
        let bad = AwarenessProfile {
            info: InfoType::Latency,
            collection: CollectionTechnique::Gps,
            usage: UsageStrategy::LatencyAwareOverlay,
        };
        assert!(build_proximity_estimator(&bad, &underlay, &mut rng).is_none());
    }
}
