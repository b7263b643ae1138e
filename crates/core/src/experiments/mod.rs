//! Experiment harnesses — one module per paper artifact.
//!
//! | Module | Paper artifact | What it regenerates |
//! |---|---|---|
//! | [`e01_hierarchy`] | Figure 1 | hierarchical ISP topology census |
//! | [`e02_cost`] | Figure 2 | transit vs peering cost curves |
//! | [`e03_coordinates`] | Figure 4 + Examples 4/5 | ICS numbers + accuracy sweep |
//! | [`e04_messages`] | Table 1 | Gnutella message counts, unbiased vs oracle |
//! | [`e05_clustering`] | Figures 5/6 | overlay topology structure |
//! | [`e06_exchange`] | §4 percentages | intra-AS file-exchange share |
//! | [`e07_testlab`] | §5 testlab | 45-node runs on ring/star/tree/mesh |
//! | [`e09_kademlia`] | §4 \[17\] | proximity routing in Kademlia |
//! | [`e10_bittorrent`] | \[3\]\[32\] | swarm locality and ISP bills |
//! | [`e11_challenges`] | §6 | asymmetry, long-hop, mobility |
//! | [`e12_overhead`] | §5.4 | awareness overhead and churn robustness |
//! | [`e13_variance`] | (extension) | seed sensitivity of the headline effects |
//! | [`e14_gsh`] | §4 / Table 1 "Leopard" | geographically scoped hashing |
//! | [`e15_collection`] | (extension) | ISP-location collection techniques, quality vs overhead |
//! | [`e16_resilience`] | (extension) | fault-campaign degradation and recovery curves |
//! | [`e17_fault_scale`] | (extension) | incremental routing repair at fault epochs |
//! | [`e18_congestion`] | (extension) | swarms under max-min fair bandwidth sharing |
//!
//! (E8, the Table 2 impact matrix, lives in [`crate::impact`] because it
//! composes several of these.)
//!
//! Every harness takes a params struct with `quick()` (seconds, used in
//! tests and `--quick` runs) and `full()` (the figures quoted in
//! EXPERIMENTS.md) constructors, and returns [`crate::report::Table`]s
//! ready to print or dump as CSV. [`TABLE`] lists them all behind one
//! signature and one [`Outcome`] type, which carries the verdict of the
//! module's `claim` fn — the paper headline as a check on the harness's
//! typed results; it is what the `exp` binary, the CI scripts and [`doc`]
//! read.

pub mod doc;
pub mod e01_hierarchy;
pub mod e02_cost;
pub mod e03_coordinates;
pub mod e04_messages;
pub mod e05_clustering;
pub mod e06_exchange;
pub mod e07_testlab;
pub mod e09_kademlia;
pub mod e10_bittorrent;
pub mod e11_challenges;
pub mod e12_overhead;
pub mod e13_variance;
pub mod e14_gsh;
pub mod e15_collection;
pub mod e16_resilience;
pub mod e17_fault_scale;
pub mod e18_congestion;
pub mod sweep;
pub mod table;

pub use table::{Experiment, Outcome, Scale, TABLE};

/// The shared underlay shape of the overlay experiments (defined beside
/// [`uap_net::Underlay`], whose standard build it is).
pub use uap_net::NetParams;
