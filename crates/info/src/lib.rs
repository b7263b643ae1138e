//! # uap-info — collection of underlay information
//!
//! Implements the paper's Figure 3 taxonomy, one module per leaf:
//!
//! | Underlay information | Technique | Module |
//! |---|---|---|
//! | ISP-location | IP-to-ISP mapping services | [`ip2isp`] |
//! | ISP-location | ISP component in network (oracle) | [`oracle`] |
//! | ISP-location | ISP component in network (P4P iTracker) | [`p4p`] |
//! | ISP-location | CDN-provided information (Ono) | [`cdn`] |
//! | Latency | Explicit measurements (ping) | [`ping`] |
//! | Latency | Prediction: Vivaldi | [`vivaldi_svc`] |
//! | Latency | Prediction: landmark/ICS | [`ics_svc`] |
//! | Geolocation | GPS | [`geoloc`] |
//! | Geolocation | IP-to-location mapping | [`geoloc`] |
//! | Geolocation | ISP-provided | [`geoloc`] |
//! | Peer resources | Information management overlay | [`skyeye`] |
//!
//! Every collector counts the messages it costs — the §5.4 open issue
//! ("a general study about the introduced overhead due to underlay
//! awareness") is experiment E12, and it needs honest accounting.
//!
//! The [`provider`] module defines the trait vocabulary the usage layer
//! (`uap-core`) consumes, decoupling *how* information is collected from
//! *how* the overlay uses it — the "general architecture for underlay
//! awareness" the paper calls for in its conclusions.

#![forbid(unsafe_code)]

pub mod cdn;
pub mod geoloc;
pub mod ics_svc;
pub mod ip2isp;
pub mod oracle;
pub mod p4p;
pub mod ping;
pub mod provider;
pub mod skyeye;
pub mod vivaldi_svc;

pub use cdn::{OnoEstimator, SimulatedCdn};
pub use geoloc::{GeoService, GeoSource};
pub use ics_svc::IcsService;
pub use ip2isp::Ip2IspService;
pub use oracle::Oracle;
pub use p4p::{P4pEstimator, P4pService};
pub use ping::ExplicitPinger;
pub use provider::{GeoLocator, IspLocator, ProximityEstimator, ResourceDirectory};
pub use skyeye::{ResourceReport, SkyEyeTree};
pub use vivaldi_svc::VivaldiService;
