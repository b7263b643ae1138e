//! Geolocation services (§3.3).
//!
//! Three sources, with very different accuracy, exactly as the paper
//! classifies them:
//!
//! * **GPS** — "inferring the geolocation from a satellite positioning
//!   system": the host's true position, with metre-scale noise;
//! * **IP-to-location mapping** — "less accurate and thus gives only a
//!   rough geographical area in which a peer is (most probably) located":
//!   we return a uniformly random point inside the ISP's service disc;
//! * **ISP-provided** — "each ISP knows the addresses and exact locations
//!   of all of its customers": exact, but the lookups are counted
//!   separately since they require ISP cooperation (a §6 challenge).

use crate::provider::GeoLocator;
use uap_net::{GeoPoint, HostId, Underlay};
use uap_sim::SimRng;

/// Which geolocation technique a [`GeoService`] models.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GeoSource {
    /// Satellite positioning at the host (GPS/Galileo/GLONASS).
    Gps,
    /// Commercial/free IP-to-location database.
    IpMapping,
    /// The ISP's customer records.
    IspProvided,
}

/// A geolocation provider over the simulated underlay.
pub struct GeoService<'a> {
    underlay: &'a Underlay,
    source: GeoSource,
    /// GPS standard error in kilometres (defaults to 10 m).
    pub gps_sigma_km: f64,
    queries: u64,
}

impl<'a> GeoService<'a> {
    /// Creates a service backed by the given source.
    pub fn new(underlay: &'a Underlay, source: GeoSource) -> Self {
        GeoService {
            underlay,
            source,
            gps_sigma_km: 0.01,
            queries: 0,
        }
    }

    /// The source this service models.
    pub fn source(&self) -> GeoSource {
        self.source
    }
}

impl GeoLocator for GeoService<'_> {
    #[expect(clippy::indexing_slicing, reason = "a host's AS is in its underlay")]
    fn locate(&mut self, h: HostId, rng: &mut SimRng) -> GeoPoint {
        self.queries += 1;
        let host = self.underlay.host(h);
        match self.source {
            GeoSource::IspProvided => host.geo,
            GeoSource::Gps => GeoPoint::new(
                host.geo.x_km + rng.normal(0.0, self.gps_sigma_km),
                host.geo.y_km + rng.normal(0.0, self.gps_sigma_km),
            ),
            GeoSource::IpMapping => {
                // Only the AS is known: report a random point in its
                // service area.
                let node = &self.underlay.graph.nodes[host.asn.idx()];
                let theta = rng.f64_range(0.0, std::f64::consts::TAU);
                let r = node.service_radius_km * rng.f64().sqrt();
                GeoPoint::new(
                    node.geo_center.x_km + r * theta.cos(),
                    node.geo_center.y_km + r * theta.sin(),
                )
            }
        }
    }

    fn queries(&self) -> u64 {
        self.queries
    }

    fn name(&self) -> &'static str {
        match self.source {
            GeoSource::Gps => "gps",
            GeoSource::IpMapping => "ip2location",
            GeoSource::IspProvided => "isp-provided",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uap_net::{PopulationSpec, TopologyKind, TopologySpec, Underlay, UnderlayConfig};

    fn underlay() -> Underlay {
        let mut rng = SimRng::new(31);
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
    fn isp_provided_is_exact() {
        let u = underlay();
        let mut svc = GeoService::new(&u, GeoSource::IspProvided);
        let mut rng = SimRng::new(32);
        for h in u.hosts.ids().take(20) {
            assert_eq!(svc.locate(h, &mut rng), u.host(h).geo);
        }
        assert_eq!(svc.queries(), 20);
    }

    #[test]
    fn gps_is_metre_accurate() {
        let u = underlay();
        let mut svc = GeoService::new(&u, GeoSource::Gps);
        let mut rng = SimRng::new(33);
        for h in u.hosts.ids().take(50) {
            let p = svc.locate(h, &mut rng);
            let err = p.distance_km(&u.host(h).geo);
            assert!(err < 0.1, "gps error {err} km");
        }
    }

    #[test]
    fn ip_mapping_stays_in_service_area_but_is_rough() {
        let u = underlay();
        let mut svc = GeoService::new(&u, GeoSource::IpMapping);
        let mut rng = SimRng::new(34);
        let mut total_err = 0.0;
        for h in u.hosts.ids() {
            let p = svc.locate(h, &mut rng);
            let node = &u.graph.nodes[u.host(h).asn.idx()];
            assert!(p.distance_km(&node.geo_center) <= node.service_radius_km + 1e-9);
            total_err += p.distance_km(&u.host(h).geo);
        }
        let mean_err = total_err / u.n_hosts() as f64;
        // Rough: tens of km, far beyond GPS error.
        assert!(
            mean_err > 1.0,
            "mean error {mean_err} km suspiciously small"
        );
    }

    #[test]
    fn names_distinguish_sources() {
        let u = underlay();
        assert_eq!(GeoService::new(&u, GeoSource::Gps).name(), "gps");
        assert_eq!(
            GeoService::new(&u, GeoSource::IpMapping).name(),
            "ip2location"
        );
        assert_eq!(
            GeoService::new(&u, GeoSource::IspProvided).name(),
            "isp-provided"
        );
    }
}
