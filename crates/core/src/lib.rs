//! # uap-core — the underlay-awareness framework
//!
//! The paper closes with: "Another open research issue is the development
//! of a general architecture for underlay awareness in which different
//! underlay information can be collected and used. Thus an underlay
//! awareness framework is the definitive next step in implementing
//! underlay awareness in the Internet." This crate is that framework,
//! assembled from the workspace's substrates:
//!
//! * [`framework`] — the taxonomy of Figure 3 as data, plus
//!   [`framework::AwarenessProfile`]s binding an *information type* to a
//!   *collection technique* and a *usage strategy*;
//! * [`assemble`] — profile-driven factories that instantiate the matching
//!   collection service behind the uniform provider traits; E12's overhead
//!   rows and E8's geolocation probe build their collectors through them;
//! * [`graphstats`] — overlay-graph structure metrics (the quantities
//!   behind the Figure 5/6 topology comparison);
//! * [`geo_overlay`] — a Globase.KOM-style \[19\] geolocation overlay (zone
//!   quadtree with supervisors) providing location-constrained search,
//!   the "new application areas" row of Table 2;
//! * [`experiments`] — one module per paper artifact plus extensions (E1–E18, see
//!   DESIGN.md's experiment index), each reproducing a table or figure, and
//!   [`experiments::TABLE`], the one list of them the `exp` binary, CI and
//!   the EXPERIMENTS.md generator read;
//! * [`impact`] — experiment E8: the measured impact matrix reproducing
//!   Table 2's `++ / + / o` entries;
//! * [`report`] — plain-text tables and CSV output shared by the
//!   experiments.

#![forbid(unsafe_code)]

pub mod assemble;
pub mod experiments;
pub mod framework;
pub mod geo_overlay;
pub mod graphstats;
pub mod impact;
pub mod report;

pub use assemble::{build_geo_locator, build_proximity_estimator};
pub use framework::{AwarenessProfile, CollectionTechnique, InfoType, UsageStrategy};
pub use geo_overlay::{GeoOverlay, GeoQueryOutcome};
pub use graphstats::OverlayStats;
pub use impact::{ImpactBand, ImpactMatrix};
pub use report::Table;
