//! # uap-gnutella — an unstructured overlay with pluggable neighbor selection
//!
//! The Gnutella-style substrate the paper's reprinted oracle study
//! (Aggarwal, Feldmann, Scheideler \[1\]) runs on: ping/pong host discovery,
//! TTL-limited query flooding with duplicate suppression, ultrapeer/leaf
//! roles, hostcaches, churn, and the HTTP-like file-exchange stage that
//! happens outside the Gnutella message flow.
//!
//! Underlay awareness enters in exactly the two places the study modified:
//!
//! 1. **Neighbor selection** ([`selection`]) — when a node joins (or
//!    repairs a lost connection) it can pick neighbors uniformly at random,
//!    or hand its hostcache to the ISP's oracle, which "ranks the list
//!    according to AS hops distance" (biased neighbor selection);
//! 2. **Source selection at file-exchange time** — when a query returns
//!    multiple `QueryHit`s, the downloader can pick a random provider or
//!    consult the oracle again.
//!
//! The crate exposes [`sim::GnutellaSim`] (event-driven, with churn) and
//! the [`sim::run_experiment_with`] entry point that produces the
//! [`report::GnutellaReport`] experiments E4–E7 consume.
//!
//! Why biased selection reduces *all four* message counts here — with no
//! hand-tuning: flooding with duplicate suppression emits one message per
//! edge incident to the reached ball. Oracle-biased overlays are strongly
//! clustered along AS boundaries, so a TTL-limited flood's ball expands
//! more slowly (neighbors' neighborhoods overlap), reaching fewer distinct
//! nodes and crossing fewer edges. Search success survives because user
//! interest — and therefore shared content — is locality-correlated, which
//! is the empirical premise the paper cites (\[25\]\[18\]\[24\]).

#![forbid(unsafe_code)]

pub mod config;
pub mod content;
mod hostcache;
pub mod overlay;
pub mod report;
pub mod selection;
pub mod sim;

pub use config::{GnutellaConfig, RoleAssignment, ShareScheme};
pub use content::{ContentModel, FileId};
pub use overlay::Overlay;
pub use report::GnutellaReport;
pub use selection::NeighborSelection;
pub use sim::{run_experiment_with, GnutellaSim};
