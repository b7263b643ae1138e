//! # uap-bittorrent — a swarm simulator with ISP-friendly tracker policies
//!
//! The content-distribution substrate for two surveyed usage techniques:
//!
//! * **Biased neighbor selection** (Bindal et al. \[3\], "Improving traffic
//!   locality in BitTorrent via biased neighbor selection"): the tracker
//!   answers an announce with `k` same-AS peers and only a few external
//!   ones, instead of a uniformly random subset;
//! * **Cost-aware BitTorrent** (CAT, Yamazaki et al. \[32\]): peers weight
//!   their unchoke decisions by the underlay cost of the connection.
//!
//! The swarm model is round-based fluid: every round each peer unchokes a
//! few neighbors (tit-for-tat plus an optimistic slot), divides its uplink
//! among them, and receivers accumulate the bytes into rarest-first piece
//! completions. Every flow is charged to the underlay traffic ledger, so
//! the Figure-2 cost model can price each policy's ISP bill.

#![forbid(unsafe_code)]

pub mod pieces;
pub mod swarm;
pub mod tracker;

pub use pieces::PieceSet;
pub use swarm::{run_swarm_with, SwarmConfig, SwarmReport, ROUND};
pub use tracker::TrackerPolicy;
