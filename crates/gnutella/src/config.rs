//! Simulation configuration.

use crate::selection::NeighborSelection;
use uap_sim::{ChurnConfig, SimTime};

/// How ultrapeer/leaf roles are assigned.
#[derive(Clone, Debug, PartialEq)]
pub enum RoleAssignment {
    /// Everyone is an ultrapeer (a flat Gnutella 0.4 network).
    AllUltrapeers,
    /// The top fraction of hosts by capacity score become ultrapeers —
    /// resource-aware role assignment (§2.3).
    CapacityTopFraction(f64),
    /// Every `k`-th host is an ultrapeer (the testlab's fixed 1:2 pattern:
    /// `k = 3` gives one ultrapeer and two leaves per machine).
    EveryKth(usize),
}

/// Parameters of the content model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ContentParams {
    /// Catalogue size.
    pub n_files: usize,
    /// Zipf popularity exponent.
    pub zipf_s: f64,
    /// Regional-interest mixture weight in `[0, 1]`.
    pub locality: f64,
}

impl Default for ContentParams {
    fn default() -> Self {
        ContentParams {
            n_files: 1_000,
            zipf_s: 0.9,
            locality: 0.6,
        }
    }
}

/// How many files each peer shares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShareScheme {
    /// Everyone shares `shared_per_peer` files (the testlab's "uniform
    /// scheme": "each node shares 6 files each").
    Uniform,
    /// The testlab's "variable scheme": "each ultrapeer shares 12 files,
    /// half the leaf nodes share 6 files each, and the remaining leaf
    /// nodes share no content" — ultrapeers share `2 × shared_per_peer`,
    /// even-indexed leaves share `shared_per_peer`, odd-indexed leaves
    /// share nothing.
    Variable,
}

/// Full Gnutella experiment configuration: the values some experiment,
/// example or benchmark workload varies. Protocol constants nothing varies
/// (pong records per reply, ping and query intervals, the exchanged
/// file's size, the TCP window) sit beside their one reader in
/// [`crate::sim`]. Signalling cost is counted in messages; the only bytes
/// a run charges to the traffic ledger are download payload.
#[derive(Clone, Debug)]
pub struct GnutellaConfig {
    /// Neighbor selection policy (the experiment's independent variable).
    pub selection: NeighborSelection,
    /// Whether the downloader consults the oracle again when choosing
    /// among `QueryHit` providers (the second oracle call of \[1\], which
    /// lifted intra-AS file exchange from ~10 % to ~40 %).
    pub oracle_at_file_exchange: bool,
    /// Bandwidth-aware source selection (da Silva et al. \[6\]): pick the
    /// provider with the highest uplink among the QueryHits. Mutually
    /// exclusive with `oracle_at_file_exchange` (oracle wins if both set).
    pub bandwidth_aware_source: bool,
    /// Target ultrapeer↔ultrapeer degree.
    pub up_degree: usize,
    /// Leaf→ultrapeer attachment count.
    pub leaf_degree: usize,
    /// Role assignment.
    pub roles: RoleAssignment,
    /// TTL of discovery ping floods.
    pub ping_ttl: u32,
    /// TTL of query floods.
    pub query_ttl: u32,
    /// Files each peer shares (base count; see [`ShareScheme`]).
    pub shared_per_peer: usize,
    /// Distribution of share counts over roles.
    pub share_scheme: ShareScheme,
    /// Hostcache capacity per node.
    pub hostcache_size: usize,
    /// Churn model.
    pub churn: ChurnConfig,
    /// Simulated duration.
    pub duration: SimTime,
    /// Content model parameters.
    pub content: ContentParams,
    /// Download re-sourcing cap: how many *alternate* QueryHit providers a
    /// downloader tries after a transfer failure before abandoning the
    /// download (0 = give up on the first failure).
    pub download_retries: usize,
    /// Time-scheduled underlay fault campaign (`None` = fault-free run).
    pub faults: Option<uap_net::FaultPlan>,
}

impl Default for GnutellaConfig {
    fn default() -> Self {
        GnutellaConfig {
            selection: NeighborSelection::Random,
            oracle_at_file_exchange: false,
            bandwidth_aware_source: false,
            up_degree: 4,
            leaf_degree: 2,
            roles: RoleAssignment::AllUltrapeers,
            ping_ttl: 2,
            query_ttl: 4,
            shared_per_peer: 20,
            share_scheme: ShareScheme::Uniform,
            hostcache_size: 50,
            churn: ChurnConfig::none(),
            duration: SimTime::from_mins(30),
            content: ContentParams::default(),
            download_retries: 2,
            faults: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = GnutellaConfig::default();
        assert!(c.up_degree >= 2);
        assert!(c.query_ttl >= 1);
        assert!(c.hostcache_size > c.up_degree);
        assert!(c.churn.is_static());
        assert_eq!(c.selection, NeighborSelection::Random);
    }
}
