//! Helpers shared by the `uap-net` integration tests.

use uap_net::invariants::reference_max_min;
use uap_net::{HostId, Underlay};

/// Rates from [`reference_max_min`], the from-scratch fill, for `flows`
/// on `u`: the capacity vector in the allocator's documented layout
/// (host uplinks, host downlinks, AS links; bytes/second) and each flow's
/// resource span, rebuilt from the public model and sorted by id.
#[expect(
    clippy::cast_possible_truncation,
    reason = "resource ids follow the allocator's u32 layout"
)]
pub fn reference_rates(u: &Underlay, flows: &[(u64, HostId, HostId)]) -> Vec<(u64, f64)> {
    let n = u.n_hosts() as u32;
    let hosts = &u.hosts.hosts;
    let cap: Vec<f64> = (hosts.iter().map(|h| h.up_kbps as f64 * 1_000.0 / 8.0))
        .chain(hosts.iter().map(|h| h.down_kbps as f64 * 1_000.0 / 8.0))
        .chain(
            u.graph
                .links
                .iter()
                .map(|l| l.capacity_mbps * 1_000_000.0 / 8.0),
        )
        .collect();
    let mut sorted = flows.to_vec();
    sorted.sort_unstable_by_key(|&(id, _, _)| id);
    let (mut table, mut arena) = (Vec::new(), Vec::new());
    for &(id, s, d) in &sorted {
        let start = arena.len() as u32;
        arena.extend([s.0, n + d.0]);
        let (sa, da) = (u.hosts.as_of(s), u.hosts.as_of(d));
        if sa != da {
            #[expect(clippy::expect_used, reason = "the allocator accepted the flow")]
            let path = u.routing().path_links(sa, da).expect("routable");
            arena.extend(path.iter().map(|&li| 2 * n + li));
        }
        table.push((id, start, arena.len() as u32 - start));
    }
    let rates = reference_max_min(&cap, &table, &arena);
    sorted.iter().map(|&(id, _, _)| id).zip(rates).collect()
}
