//! # uap-kademlia — a Kademlia DHT with proximity neighbor selection
//!
//! The structured-overlay substrate for the paper's §4 usage example
//! "Kaune et al. extend the routing algorithm of Kademlia to reduce
//! inter-AS traffic due to the distributed hash table-lookup algorithm"
//! (\[17\], *Embracing the Peer Next Door: Proximity in Kademlia*).
//!
//! Standard Kademlia: 160-bit keys, XOR metric, k-buckets, iterative
//! `FIND_NODE` lookups with α-way parallelism, `STORE`/`FIND_VALUE`.
//!
//! Underlay awareness adds two orthogonal switches ([`ProximityMode`]):
//!
//! * **PNS (proximity neighbor selection)** — when a k-bucket overflows,
//!   keep the underlay-closer contact instead of applying pure LRU. XOR
//!   correctness is untouched (any contact in the right bucket works), but
//!   routing tables fill with nearby peers.
//! * **PR (proximity routing)** — among the equally-useful next-hop
//!   candidates of a lookup round, query the underlay-closest first.
//!
//! Experiment E9 measures the resulting drop in inter-AS hops per lookup
//! at unchanged success rates and hop counts.

#![forbid(unsafe_code)]

pub mod gsh;
pub mod id;
pub mod kbucket;
pub mod network;

pub use id::Key;
pub use kbucket::{Contact, RoutingTable};
pub use network::{run_dht_with, DhtConfig, DhtNetwork, DhtOp, LookupOutcome, ProximityMode};
