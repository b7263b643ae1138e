//! Assembling a running system from an [`AwarenessProfile`].
//!
//! [`crate::framework`] makes profiles *checkable*; this module makes them
//! *runnable*: given a validated profile and an underlay, it instantiates
//! the matching collection service behind the uniform
//! [`ProximityEstimator`] / [`GeoLocator`] interfaces — the last missing
//! piece of the "general architecture for underlay awareness" the paper
//! calls for. Swapping techniques is a one-line profile change; the
//! overlay code never changes.

use crate::framework::{AwarenessProfile, CollectionTechnique};
use uap_coords::VivaldiConfig;
use uap_info::provider::{GeoLocator, ProximityEstimator};
use uap_info::{
    ExplicitPinger, GeoService, GeoSource, IcsService, OnoEstimator, Oracle, P4pEstimator,
    P4pService, PdistanceWeights, SimulatedCdn, VivaldiService,
};
use uap_net::{HostId, Underlay};
use uap_sim::SimRng;

/// ICS beacons.
const ICS_BEACONS: usize = 10;
/// ICS dimensions.
const ICS_DIMS: usize = 4;
/// CDN replicas for Ono.
const CDN_REPLICAS: usize = 6;
/// CDN samples per peer for Ono.
const ONO_SAMPLES: usize = 30;

/// Tunables for the assembled collectors.
#[derive(Clone, Copy, Debug)]
pub struct AssembleConfig {
    /// Vivaldi gossip rounds before the estimator is handed out.
    pub vivaldi_rounds: usize,
}

impl Default for AssembleConfig {
    fn default() -> Self {
        AssembleConfig { vivaldi_rounds: 30 }
    }
}

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
        let ranked = self.oracle.rank(self.underlay, a, &[b]);
        debug_assert_eq!(ranked.len(), 1);
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
/// resource family — use `SkyEyeTree` directly).
pub fn build_proximity_estimator<'a>(
    profile: &AwarenessProfile,
    underlay: &'a Underlay,
    cfg: &AssembleConfig,
    rng: &mut SimRng,
) -> Option<Box<dyn ProximityEstimator + 'a>> {
    profile.validate().ok()?;
    Some(match profile.collection {
        CollectionTechnique::ExplicitMeasurement => Box::new(ExplicitPinger::new(underlay, true)),
        CollectionTechnique::VivaldiCoordinates => {
            let mut svc = VivaldiService::new(underlay.n_hosts(), VivaldiConfig::default());
            svc.converge(underlay, cfg.vivaldi_rounds, 4, rng);
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
        CollectionTechnique::IpToIspMapping => {
            // IP mapping yields AS identity; as a pair estimator that is a
            // 0/1 locality signal via P4P-style zero/one distance.
            let svc = P4pService::build(
                underlay,
                PdistanceWeights {
                    peering: 1.0,
                    transit: 1.0, // hop count only — no provider cost data
                },
            );
            Box::new(P4pEstimator::new(underlay, svc))
        }
        CollectionTechnique::CdnInference => {
            let cdn = SimulatedCdn::deploy(underlay, CDN_REPLICAS);
            Box::new(OnoEstimator::new(underlay, cdn, ONO_SAMPLES))
        }
        CollectionTechnique::Gps
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
    use crate::framework::{InfoType, UsageStrategy};

    fn profile(collection: CollectionTechnique) -> AwarenessProfile {
        use CollectionTechnique as C;
        let (info, usage) = match collection {
            C::IpToIspMapping | C::IspComponent | C::CdnInference => (
                InfoType::IspLocation,
                UsageStrategy::BiasedNeighborSelection,
            ),
            C::ExplicitMeasurement | C::VivaldiCoordinates | C::LandmarkCoordinates => {
                (InfoType::Latency, UsageStrategy::LatencyAwareOverlay)
            }
            C::Gps | C::IpToLocationMapping | C::IspProvidedLocation => {
                (InfoType::Geolocation, UsageStrategy::GeoOverlay)
            }
            C::InfoManagementOverlay => {
                (InfoType::PeerResources, UsageStrategy::SuperpeerSelection)
            }
        };
        AwarenessProfile {
            info,
            collection,
            usage,
        }
    }

    #[test]
    fn every_proximity_technique_assembles_and_ranks_sanely() {
        let underlay = NetParams::quick(100, 131).build();
        let cfg = AssembleConfig { vivaldi_rounds: 25 };
        let techniques = [
            CollectionTechnique::ExplicitMeasurement,
            CollectionTechnique::VivaldiCoordinates,
            CollectionTechnique::LandmarkCoordinates,
            CollectionTechnique::IspComponent,
            CollectionTechnique::IpToIspMapping,
            CollectionTechnique::CdnInference,
        ];
        for technique in techniques {
            let mut rng = SimRng::new(132);
            let mut est = build_proximity_estimator(&profile(technique), &underlay, &cfg, &mut rng)
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
        assert!(build_proximity_estimator(
            &profile(CollectionTechnique::Gps),
            &underlay,
            &AssembleConfig::default(),
            &mut rng
        )
        .is_none());
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
        assert!(
            build_proximity_estimator(&bad, &underlay, &AssembleConfig::default(), &mut rng)
                .is_none()
        );
    }
}
