//! The general architecture: Figure 3's taxonomy as data.
//!
//! An [`AwarenessProfile`] names *what* underlay information a system
//! consumes ([`InfoType`]), *how* it is collected ([`CollectionTechnique`])
//! and *what for* ([`UsageStrategy`]). [`taxonomy`] enumerates the valid
//! (information, technique) pairs exactly as Figure 3 draws them, and
//! [`AwarenessProfile::validate`] rejects combinations the taxonomy does
//! not contain — the framework's structural guarantee.

use std::fmt;

/// The four kinds of underlay information (§2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum InfoType {
    /// Which ISP a peer connects through (§2.1).
    IspLocation,
    /// Pairwise packet delay (§2.2).
    Latency,
    /// Physical position (§2.4).
    Geolocation,
    /// Peer capabilities: bandwidth, CPU, storage, uptime (§2.3).
    PeerResources,
}

impl InfoType {
    /// All four, in the paper's order.
    pub const ALL: [InfoType; 4] = [
        InfoType::IspLocation,
        InfoType::Latency,
        InfoType::Geolocation,
        InfoType::PeerResources,
    ];
}

impl fmt::Display for InfoType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InfoType::IspLocation => "ISP-location",
            InfoType::Latency => "Latency",
            InfoType::Geolocation => "Geolocation",
            InfoType::PeerResources => "Peer Resources",
        };
        f.write_str(s)
    }
}

/// Collection techniques — the leaves of Figure 3.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CollectionTechnique {
    /// IP-to-ISP mapping services \[13\]\[14\]\[15\].
    IpToIspMapping,
    /// ISP component in the network (the oracle of \[1\], P4P \[29\]).
    IspComponent,
    /// CDN-provided information (Ono \[5\]).
    CdnInference,
    /// Explicit ping/traceroute measurements.
    ExplicitMeasurement,
    /// Decentralized coordinates (Vivaldi \[7\]).
    VivaldiCoordinates,
    /// Landmark/beacon coordinates (ICS \[20\], GNP-style).
    LandmarkCoordinates,
    /// Satellite positioning (GPS/Galileo/GLONASS \[12\]).
    Gps,
    /// IP-to-location mapping services.
    IpToLocationMapping,
    /// The ISP's customer records.
    IspProvidedLocation,
    /// Information management overlay (SkyEye.KOM \[11\]).
    InfoManagementOverlay,
}

impl fmt::Display for CollectionTechnique {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CollectionTechnique::IpToIspMapping => "IP-to-ISP mapping service",
            CollectionTechnique::IspComponent => "ISP component in network (oracle)",
            CollectionTechnique::CdnInference => "CDN-provided information",
            CollectionTechnique::ExplicitMeasurement => "explicit measurement (ping)",
            CollectionTechnique::VivaldiCoordinates => "prediction: Vivaldi coordinates",
            CollectionTechnique::LandmarkCoordinates => "prediction: landmark/ICS coordinates",
            CollectionTechnique::Gps => "GPS",
            CollectionTechnique::IpToLocationMapping => "IP-to-location mapping service",
            CollectionTechnique::IspProvidedLocation => "ISP-provided location",
            CollectionTechnique::InfoManagementOverlay => "information management overlay",
        };
        f.write_str(s)
    }
}

/// Usage strategies (§4).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UsageStrategy {
    /// Biased neighbor selection (BNS \[3\], oracle \[1\]).
    BiasedNeighborSelection,
    /// Source selection at file-exchange time (\[1\] §4).
    BiasedSourceSelection,
    /// Proximity-aware DHT routing (Kademlia PNS/PR \[17\]).
    ProximityRouting,
    /// Latency-aware overlay construction (Leopard \[33\], eCAN \[30\]).
    LatencyAwareOverlay,
    /// Geolocation-based overlay with location-constrained search
    /// (Globase.KOM \[19\], GeoPeer \[2\]).
    GeoOverlay,
    /// Resource-aware superpeer selection (SkyEye.KOM \[11\]).
    SuperpeerSelection,
    /// Cost-aware transfer scheduling (CAT \[32\]).
    CostAwareScheduling,
}

impl fmt::Display for UsageStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UsageStrategy::BiasedNeighborSelection => "biased neighbor selection",
            UsageStrategy::BiasedSourceSelection => "biased source selection",
            UsageStrategy::ProximityRouting => "proximity DHT routing",
            UsageStrategy::LatencyAwareOverlay => "latency-aware overlay",
            UsageStrategy::GeoOverlay => "geolocation overlay",
            UsageStrategy::SuperpeerSelection => "superpeer selection",
            UsageStrategy::CostAwareScheduling => "cost-aware scheduling",
        };
        f.write_str(s)
    }
}

/// The (information, technique) pairs of Figure 3.
pub fn taxonomy() -> Vec<(InfoType, CollectionTechnique)> {
    use CollectionTechnique as C;
    use InfoType as I;
    vec![
        (I::IspLocation, C::IpToIspMapping),
        (I::IspLocation, C::IspComponent),
        (I::IspLocation, C::CdnInference),
        (I::Latency, C::ExplicitMeasurement),
        (I::Latency, C::VivaldiCoordinates),
        (I::Latency, C::LandmarkCoordinates),
        (I::Geolocation, C::Gps),
        (I::Geolocation, C::IpToLocationMapping),
        (I::Geolocation, C::IspProvidedLocation),
        (I::PeerResources, C::InfoManagementOverlay),
    ]
}

/// The information each usage strategy consumes.
pub fn required_info(usage: UsageStrategy) -> InfoType {
    match usage {
        UsageStrategy::BiasedNeighborSelection
        | UsageStrategy::BiasedSourceSelection
        | UsageStrategy::ProximityRouting
        | UsageStrategy::CostAwareScheduling => InfoType::IspLocation,
        UsageStrategy::LatencyAwareOverlay => InfoType::Latency,
        UsageStrategy::GeoOverlay => InfoType::Geolocation,
        UsageStrategy::SuperpeerSelection => InfoType::PeerResources,
    }
}

/// A complete awareness configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AwarenessProfile {
    /// The information type in play.
    pub info: InfoType,
    /// How it is collected.
    pub collection: CollectionTechnique,
    /// What the overlay does with it.
    pub usage: UsageStrategy,
}

impl AwarenessProfile {
    /// `info` collected by `collection` and put to the first use §4 names
    /// for it: the profile a harness runs one collection technique under.
    pub fn collecting(info: InfoType, collection: CollectionTechnique) -> AwarenessProfile {
        let usage = match info {
            InfoType::IspLocation => UsageStrategy::BiasedNeighborSelection,
            InfoType::Latency => UsageStrategy::LatencyAwareOverlay,
            InfoType::Geolocation => UsageStrategy::GeoOverlay,
            InfoType::PeerResources => UsageStrategy::SuperpeerSelection,
        };
        AwarenessProfile {
            info,
            collection,
            usage,
        }
    }

    /// Checks the profile against the taxonomy: the collection technique
    /// must produce the declared information type, and the usage strategy
    /// must consume it.
    pub fn validate(&self) -> Result<(), String> {
        if !taxonomy().contains(&(self.info, self.collection)) {
            return Err(format!(
                "{} is not a collection technique for {}",
                self.collection, self.info
            ));
        }
        if required_info(self.usage) != self.info {
            return Err(format!(
                "{} consumes {}, not {}",
                self.usage,
                required_info(self.usage),
                self.info
            ));
        }
        Ok(())
    }

    /// The surveyed systems of the paper's Table 1, as valid profiles —
    /// the framework can express every row.
    pub fn surveyed_systems() -> Vec<(&'static str, AwarenessProfile)> {
        use CollectionTechnique as C;
        use InfoType as I;
        use UsageStrategy as U;
        vec![
            (
                "BNS (Bindal et al.)",
                AwarenessProfile {
                    info: I::IspLocation,
                    collection: C::IspComponent,
                    usage: U::BiasedNeighborSelection,
                },
            ),
            (
                "Oracle (Aggarwal et al.)",
                AwarenessProfile {
                    info: I::IspLocation,
                    collection: C::IspComponent,
                    usage: U::BiasedNeighborSelection,
                },
            ),
            (
                "Ono (Choffnes/Bustamante)",
                AwarenessProfile {
                    info: I::IspLocation,
                    collection: C::CdnInference,
                    usage: U::BiasedNeighborSelection,
                },
            ),
            (
                "CAT (Yamazaki et al.)",
                AwarenessProfile {
                    info: I::IspLocation,
                    collection: C::IpToIspMapping,
                    usage: U::CostAwareScheduling,
                },
            ),
            (
                "Proximity Kademlia (Kaune et al.)",
                AwarenessProfile {
                    info: I::IspLocation,
                    collection: C::IpToIspMapping,
                    usage: U::ProximityRouting,
                },
            ),
            (
                "Leopard (Yu et al.)",
                AwarenessProfile {
                    info: I::Latency,
                    collection: C::LandmarkCoordinates,
                    usage: U::LatencyAwareOverlay,
                },
            ),
            (
                "Landmark proximity (Ratnasamy et al.)",
                AwarenessProfile {
                    info: I::Latency,
                    collection: C::LandmarkCoordinates,
                    usage: U::LatencyAwareOverlay,
                },
            ),
            (
                "Globase.KOM (Kovacevic et al.)",
                AwarenessProfile {
                    info: I::Geolocation,
                    collection: C::Gps,
                    usage: U::GeoOverlay,
                },
            ),
            (
                "GeoPeer (Araujo/Rodrigues)",
                AwarenessProfile {
                    info: I::Geolocation,
                    collection: C::Gps,
                    usage: U::GeoOverlay,
                },
            ),
            (
                "SkyEye.KOM (Graffi et al.)",
                AwarenessProfile {
                    info: I::PeerResources,
                    collection: C::InfoManagementOverlay,
                    usage: U::SuperpeerSelection,
                },
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_matches_figure3_shape() {
        let t = taxonomy();
        assert_eq!(t.len(), 10);
        let isp = t
            .iter()
            .filter(|(i, _)| *i == InfoType::IspLocation)
            .count();
        let lat = t.iter().filter(|(i, _)| *i == InfoType::Latency).count();
        let geo = t
            .iter()
            .filter(|(i, _)| *i == InfoType::Geolocation)
            .count();
        let res = t
            .iter()
            .filter(|(i, _)| *i == InfoType::PeerResources)
            .count();
        assert_eq!((isp, lat, geo, res), (3, 3, 3, 1));
    }

    #[test]
    fn valid_profile_passes() {
        let p = AwarenessProfile {
            info: InfoType::Latency,
            collection: CollectionTechnique::VivaldiCoordinates,
            usage: UsageStrategy::LatencyAwareOverlay,
        };
        assert!(p.validate().is_ok());
    }

    #[test]
    fn mismatched_collection_fails() {
        let p = AwarenessProfile {
            info: InfoType::Latency,
            collection: CollectionTechnique::Gps,
            usage: UsageStrategy::LatencyAwareOverlay,
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn mismatched_usage_fails() {
        let p = AwarenessProfile {
            info: InfoType::Geolocation,
            collection: CollectionTechnique::Gps,
            usage: UsageStrategy::SuperpeerSelection,
        };
        let err = p.validate().unwrap_err();
        assert!(err.contains("consumes"), "{err}");
    }

    #[test]
    fn every_surveyed_system_is_expressible() {
        for (name, profile) in AwarenessProfile::surveyed_systems() {
            assert!(
                profile.validate().is_ok(),
                "{name}: {:?}",
                profile.validate()
            );
        }
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(InfoType::IspLocation.to_string(), "ISP-location");
        assert_eq!(
            CollectionTechnique::IspComponent.to_string(),
            "ISP component in network (oracle)"
        );
        assert_eq!(
            UsageStrategy::BiasedNeighborSelection.to_string(),
            "biased neighbor selection"
        );
    }
}
