//! The information management overlay for peer resources (§3.4), after
//! SkyEye.KOM \[11\].
//!
//! "The most interesting solution for collecting peer resources is based on
//! an information management overlay. This overlay is used to generate
//! statistics on the P2P system, which enables resource-based peer search."
//!
//! [`SkyEyeTree`] arranges the member peers in a b-ary aggregation tree.
//! Each round, every node reports its [`ResourceReport`] to its parent;
//! inner nodes merge their children's **top-k** lists with their own and
//! forward the truncated result. The root ends up with the global top-k —
//! the "oracle view on structured P2P systems" of the SkyEye paper — at a
//! cost of one message per non-root member per round.

use crate::provider::ResourceDirectory;
use std::collections::BTreeMap;
use uap_net::{HostId, Underlay};

/// One peer's self-reported resources.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResourceReport {
    /// Reporting peer.
    pub host: HostId,
    /// Scalar capacity (see `Host::capacity_score`).
    pub capacity: f64,
    /// Upstream bandwidth in kbit/s.
    pub up_kbps: u32,
    /// Shared storage in GB.
    pub storage_gb: f64,
    /// Long-run online fraction.
    pub online_fraction: f64,
}

/// Aggregate statistics the root can answer from.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SystemStats {
    /// Number of online members aggregated.
    pub members: usize,
    /// Mean capacity.
    pub mean_capacity: f64,
    /// Total shared storage.
    pub total_storage_gb: f64,
}

/// The b-ary aggregation tree.
pub struct SkyEyeTree {
    branching: usize,
    k_cap: usize,
    members: Vec<HostId>,
    reports: BTreeMap<HostId, ResourceReport>,
    root_top: Vec<ResourceReport>,
    stats: SystemStats,
    messages: u64,
    rounds: u64,
}

impl SkyEyeTree {
    /// Builds the tree over `members` with the given branching factor,
    /// keeping `k_cap` entries per aggregated list. Reports are seeded from
    /// the underlay's host records (peers self-report honestly here;
    /// incentive questions are out of scope, as in the paper).
    pub fn build(
        underlay: &Underlay,
        members: Vec<HostId>,
        branching: usize,
        k_cap: usize,
    ) -> SkyEyeTree {
        assert!(branching >= 2, "branching factor must be at least 2");
        assert!(k_cap >= 1);
        let reports = members
            .iter()
            .map(|&h| {
                let host = underlay.host(h);
                (
                    h,
                    ResourceReport {
                        host: h,
                        capacity: host.capacity_score(),
                        up_kbps: host.up_kbps,
                        storage_gb: host.storage_gb,
                        online_fraction: host.online_fraction,
                    },
                )
            })
            .collect();
        SkyEyeTree {
            branching,
            k_cap,
            members,
            reports,
            root_top: Vec::new(),
            stats: SystemStats::default(),
            messages: 0,
            rounds: 0,
        }
    }

    /// Members currently in the tree.
    pub fn members(&self) -> &[HostId] {
        &self.members
    }

    /// Removes a departed peer (takes effect at the next aggregation
    /// round, as in the real protocol).
    pub fn remove_member(&mut self, h: HostId) {
        self.members.retain(|&m| m != h);
        self.reports.remove(&h);
    }

    /// Adds a joining peer.
    pub fn add_member(&mut self, underlay: &Underlay, h: HostId) {
        if self.reports.contains_key(&h) {
            return;
        }
        let host = underlay.host(h);
        self.reports.insert(
            h,
            ResourceReport {
                host: h,
                capacity: host.capacity_score(),
                up_kbps: host.up_kbps,
                storage_gb: host.storage_gb,
                online_fraction: host.online_fraction,
            },
        );
        self.members.push(h);
    }

    /// Runs one aggregation round: every non-root member sends one report
    /// message up the tree; inner nodes merge-and-truncate. Updates the
    /// root's top-k and system statistics.
    pub fn run_round(&mut self) {
        self.rounds += 1;
        if self.members.is_empty() {
            self.root_top.clear();
            self.stats = SystemStats::default();
            return;
        }
        self.messages += (self.members.len() - 1) as u64;
        let (top, count, cap_sum, storage_sum) = self.aggregate(0);
        self.root_top = top;
        self.stats = SystemStats {
            members: count,
            mean_capacity: if count > 0 {
                cap_sum / count as f64
            } else {
                0.0
            },
            total_storage_gb: storage_sum,
        };
    }

    /// Recursive bottom-up aggregation over the implicit b-ary tree laid
    /// out on the member array (children of slot `i` are `i*b + 1 ..=
    /// i*b + b`). Returns `(top list, member count, capacity sum, storage
    /// sum)` of the subtree.
    #[expect(clippy::indexing_slicing, reason = "idx < members.len(); all report")]
    fn aggregate(&self, idx: usize) -> (Vec<ResourceReport>, usize, f64, f64) {
        let me = self.reports[&self.members[idx]];
        let mut top = vec![me];
        let mut count = 1usize;
        let mut cap = me.capacity;
        let mut storage = me.storage_gb;
        for c in 1..=self.branching {
            let child = idx * self.branching + c;
            if child >= self.members.len() {
                break;
            }
            let (ct, cc, ccap, cst) = self.aggregate(child);
            top.extend(ct);
            count += cc;
            cap += ccap;
            storage += cst;
        }
        top.sort_by(|a, b| b.capacity.total_cmp(&a.capacity).then(a.host.cmp(&b.host)));
        top.truncate(self.k_cap);
        (top, count, cap, storage)
    }

    /// Aggregation rounds performed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Root-level system statistics from the last round.
    pub fn stats(&self) -> &SystemStats {
        &self.stats
    }
}

impl ResourceDirectory for SkyEyeTree {
    fn top_k(&self, k: usize) -> Vec<HostId> {
        self.root_top.iter().take(k).map(|r| r.host).collect()
    }

    fn capacity_of(&self, h: HostId) -> Option<f64> {
        self.reports.get(&h).map(|r| r.capacity)
    }

    fn overhead_messages(&self) -> u64 {
        self.messages
    }

    fn name(&self) -> &'static str {
        "skyeye-tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uap_net::{PopulationSpec, TopologyKind, TopologySpec, Underlay, UnderlayConfig};
    use uap_sim::SimRng;

    fn underlay() -> Underlay {
        let mut rng = SimRng::new(41);
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
            &PopulationSpec::leaf(64),
            UnderlayConfig::default(),
            &mut rng,
        )
    }

    #[test]
    fn root_finds_true_top_k() {
        let u = underlay();
        let members: Vec<HostId> = u.hosts.ids().collect();
        let mut tree = SkyEyeTree::build(&u, members.clone(), 4, 8);
        tree.run_round();
        let got = tree.top_k(8);
        // Ground truth.
        let mut truth: Vec<HostId> = members;
        truth.sort_by(|&a, &b| {
            u.host(b)
                .capacity_score()
                .partial_cmp(&u.host(a).capacity_score())
                .unwrap()
                .then(a.cmp(&b))
        });
        assert_eq!(got, truth[..8].to_vec());
    }

    #[test]
    fn message_cost_is_members_minus_one_per_round() {
        let u = underlay();
        let members: Vec<HostId> = u.hosts.ids().collect();
        let mut tree = SkyEyeTree::build(&u, members, 4, 4);
        tree.run_round();
        assert_eq!(tree.overhead_messages(), 63);
        tree.run_round();
        assert_eq!(tree.overhead_messages(), 126);
        assert_eq!(tree.rounds(), 2);
    }

    #[test]
    fn stats_cover_all_members() {
        let u = underlay();
        let members: Vec<HostId> = u.hosts.ids().collect();
        let mut tree = SkyEyeTree::build(&u, members, 3, 4);
        tree.run_round();
        assert_eq!(tree.stats().members, 64);
        assert!(tree.stats().mean_capacity > 0.0);
        assert!(tree.stats().total_storage_gb > 0.0);
    }

    #[test]
    fn churn_membership_updates() {
        let u = underlay();
        let members: Vec<HostId> = u.hosts.ids().take(10).collect();
        let mut tree = SkyEyeTree::build(&u, members, 2, 10);
        tree.run_round();
        let before = tree.top_k(10);
        assert_eq!(before.len(), 10);
        let leaver = before[0];
        tree.remove_member(leaver);
        tree.run_round();
        let after = tree.top_k(10);
        assert_eq!(after.len(), 9);
        assert!(!after.contains(&leaver));
        tree.add_member(&u, leaver);
        tree.run_round();
        assert!(tree.top_k(10).contains(&leaver));
        // Double-add is idempotent.
        tree.add_member(&u, leaver);
        assert_eq!(tree.members().len(), 10);
    }

    #[test]
    fn capacity_lookup() {
        let u = underlay();
        let members: Vec<HostId> = u.hosts.ids().take(5).collect();
        let tree = SkyEyeTree::build(&u, members, 2, 5);
        assert_eq!(
            tree.capacity_of(HostId(0)),
            Some(u.host(HostId(0)).capacity_score())
        );
        assert_eq!(tree.capacity_of(HostId(63)), None);
    }

    #[test]
    fn empty_tree_is_harmless() {
        let u = underlay();
        let mut tree = SkyEyeTree::build(&u, vec![], 2, 5);
        tree.run_round();
        assert!(tree.top_k(3).is_empty());
        assert_eq!(tree.overhead_messages(), 0);
        assert_eq!(tree.stats().members, 0);
    }

    #[test]
    fn truncation_limits_lists_not_stats() {
        let u = underlay();
        let members: Vec<HostId> = u.hosts.ids().collect();
        let mut tree = SkyEyeTree::build(&u, members, 2, 2);
        tree.run_round();
        // top_k beyond k_cap returns at most k_cap entries…
        assert_eq!(tree.top_k(10).len(), 2);
        // …but counts still cover everyone.
        assert_eq!(tree.stats().members, 64);
    }
}
