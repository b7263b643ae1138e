//! Helpers shared by the `uap-net` integration tests.

use uap_net::invariants::reference_max_min;
use uap_net::{AsId, HostId, LinkKind, Underlay};
use uap_sim::SimTime;

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
            arena.extend(path.iter().map(|&li| 2 * n + u32::from(li)));
        }
        table.push((id, start, arena.len() as u32 - start));
    }
    let rates = reference_max_min(&cap, &table, &arena);
    sorted.iter().map(|&(id, _, _)| id).zip(rates).collect()
}

/// Width of a billing window in microseconds (five minutes).
const WINDOW_US: u64 = 300_000_000;

/// The traffic ledger summed independently of `TrafficAccounting`: each
/// transfer's links read from [`uap_net::Routing::path_links`], their
/// kinds and customers from the graph, and the billing samples kept per
/// AS as a map from window to bytes.
#[derive(Debug, Default)]
pub struct LedgerSum {
    /// Bytes `(intra, peering, transit)`, one count per crossed link.
    pub totals: (u64, u64, u64),
    /// Transfers summed (unroutable pairs are not transfers).
    pub transfers: u64,
    /// Bytes per link id.
    pub per_link: Vec<u64>,
    /// Per AS, the transit bytes it pays for, by billing window.
    samples: Vec<std::collections::BTreeMap<u64, u64>>,
}

impl LedgerSum {
    /// An empty sum over `u`'s links and ASes.
    pub fn new(u: &Underlay) -> LedgerSum {
        LedgerSum {
            per_link: vec![0; u.graph.links.len()],
            samples: vec![Default::default(); u.n_ases()],
            ..LedgerSum::default()
        }
    }

    /// Adds the transfer `Underlay::account_transfer(now, from, to,
    /// bytes)` records.
    #[expect(
        clippy::indexing_slicing,
        reason = "path links and customers are the graph's"
    )]
    pub fn add(&mut self, u: &Underlay, now: SimTime, from: HostId, to: HostId, bytes: u64) {
        let (sa, da) = (u.hosts.as_of(from), u.hosts.as_of(to));
        let Some(path) = u.routing().path_links(sa, da) else {
            return;
        };
        self.transfers += 1;
        if sa == da {
            self.totals.0 += bytes;
        }
        for &li in path {
            let link = &u.graph.links[li as usize];
            self.per_link[li as usize] += bytes;
            match link.kind {
                LinkKind::Peering => self.totals.1 += bytes,
                LinkKind::Transit => {
                    self.totals.2 += bytes;
                    let window = now.as_micros() / WINDOW_US;
                    *self.samples[link.b.idx()].entry(window).or_default() += bytes;
                }
            }
        }
    }

    /// `asn`'s nearest-rank 95th-percentile transit rate in Mbit/s over
    /// the windows of `horizon`, which must cover every transfer added.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "window counts of a test horizon; 0.95·len ≤ len"
    )]
    #[expect(
        clippy::indexing_slicing,
        reason = "asn is the graph's; windows < len, checked; rank in 1..=len"
    )]
    pub fn transit_p95_mbps(&self, asn: AsId, horizon: SimTime) -> f64 {
        let windows = horizon.as_micros().div_ceil(WINDOW_US);
        let mut rates = vec![0.0; windows as usize];
        for (&w, &bytes) in &self.samples[asn.idx()] {
            assert!(w < windows, "the horizon ends before window {w}");
            rates[w as usize] = bytes as f64 * 8.0 / 1e6 / 300.0;
        }
        rates.sort_by(f64::total_cmp);
        let rank = ((0.95 * rates.len() as f64).ceil() as usize).clamp(1, rates.len());
        rates[rank - 1]
    }
}
