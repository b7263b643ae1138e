//! # uap-net — the underlay network model
//!
//! The paper defines the *underlay* as "the substrate on which the overlay
//! resides", abstracting the physical, MAC, network and transport layers.
//! This crate is that substrate, simulated:
//!
//! * [`asgraph`] — an AS-level graph of ISPs with **transit** (customer →
//!   provider) and **peering** links, mirroring the Internet hierarchy of
//!   the paper's Figure 1;
//! * [`gen`] — topology generators: the four testlab topologies of the
//!   Aggarwal et al. study the paper reprints (ring, star, tree, random
//!   mesh) and a hierarchical local/transit-ISP Internet;
//! * [`routing`] — inter-domain routing, either plain shortest-path or
//!   **valley-free** (Gao export rules);
//! * [`host`] — end hosts with ISP attachment, IP address, geolocation and
//!   access-link resources;
//! * [`underlay`] — the façade overlays talk to: latency, AS hops, path
//!   lookup and per-category traffic accounting;
//! * [`traffic`] + [`cost`] — the transit-vs-peering **cost model** of the
//!   paper's Figure 2: transit billed per Mbps at the 95th percentile,
//!   peering at a flat fee;
//! * [`fault`] — the one fault model: time-scheduled campaigns
//!   ([`FaultPlan`]) of epoch-based link-down windows (explicit, random or
//!   transit-only), latency inflation and host crash/restart, applied
//!   through the event engine with route-cache invalidation; a one-epoch
//!   plan doubles as a static failure mask;
//! * [`flow`] — deterministic max-min fair bandwidth allocation
//!   (progressive filling) over per-host access links and shared inter-AS
//!   link capacities — the flow-level model behind BitTorrent rounds and
//!   Gnutella downloads;
//! * [`invariants`] — runtime checkers (valley-free routes, traffic
//!   conservation, cost non-negativity) wired in under `debug_assertions`.

#![forbid(unsafe_code)]

pub mod asgraph;
pub mod cost;
pub mod fault;
pub mod flow;
pub mod gen;
pub mod geo;
pub mod host;
pub mod ids;
pub mod invariants;
pub mod routing;
pub mod traffic;
pub mod underlay;

pub use asgraph::{AsGraph, AsLink, AsNode, LinkKind, Relationship, Tier};
pub use cost::{CostParams, IspBill};
pub use fault::{CompiledFaultPlan, FaultEpoch, FaultKind, FaultPlan, FaultState};
pub use flow::FlowAllocator;
pub use gen::{TopologyKind, TopologySpec, WORLD_KM};
pub use geo::GeoPoint;
pub use host::{AccessProfile, Host, HostPopulation, PopulationSpec};
pub use ids::{AsId, HostId};
pub use routing::{ReferenceRouting, RepairStats, Route, Routing, RoutingMode};
pub use traffic::{TrafficAccounting, TrafficCategory};
pub use underlay::{NetParams, Underlay, UnderlayConfig};
