//! `underlay_scale` — the `net` layer alone, at the largest topology.
//!
//! The overlays only ever read the underlay between rare fault epochs.
//! This workload uses the same layer in both regimes: a read-only phase
//! (latency queries and ledger writes), then fault epochs interleaved
//! with reads that pay the route-cache refills. A change that speeds
//! epochs but slows steady-state reads, or the reverse, shows here. It
//! is also the only workload with set-up and memory worth the name
//! (all-pairs tables for 1 055 ASes, 20 000 hosts).

use super::{build_underlay, routing_probe, NetCounters, Topo};
use crate::digest::Digest;
use crate::harness::{Checks, Env, IterOut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use uap_net::cost::{bill_all, total_transit_usd};
use uap_net::{CostParams, FaultState, HostId, LinkKind, PopulationSpec, Tier, Underlay};
use uap_sim::{SimRng, SimTime};

/// Sizing constants.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Underlay shape.
    pub topo: Topo,
    /// End hosts on the leaf ASes.
    pub hosts: usize,
    /// Fixed host pairs every phase reads over.
    pub pairs: usize,
    /// Read phase: sweeps of `latency_us` over the pairs.
    pub latency_sweeps: usize,
    /// Read phase: sweeps of `account_transfer` over the pairs.
    pub account_sweeps: usize,
    /// Write phase: alternating cut / heal epochs.
    pub epochs: usize,
    /// Write phase: `latency_us` reads after each epoch.
    pub reads_per_epoch: usize,
}

impl Params {
    /// The measured scale: 20 M latency reads, 5 M ledger writes, 64
    /// epochs with 200 k reads each.
    pub fn full() -> Params {
        Params {
            topo: Topo::LARGE,
            hosts: 20_000,
            pairs: 1 << 16,
            latency_sweeps: 305,
            account_sweeps: 76,
            epochs: 64,
            reads_per_epoch: 200_000,
        }
    }

    /// Roughly one tenth of the work.
    pub fn smoke() -> Params {
        Params {
            topo: Topo::SMOKE_LARGE,
            hosts: 5_000,
            pairs: 1 << 14,
            latency_sweeps: 300,
            account_sweeps: 75,
            epochs: 32,
            reads_per_epoch: 50_000,
        }
    }

    /// Seconds in a debug build: for the package's own tests.
    #[cfg(test)]
    pub fn tiny() -> Params {
        Params {
            topo: Topo::SMOKE_MID,
            hosts: 200,
            pairs: 256,
            latency_sweeps: 2,
            account_sweeps: 1,
            epochs: 6,
            reads_per_epoch: 300,
        }
    }
}

/// Peering links away from the Tier-1 core: losing one re-routes a
/// subtree, not the backbone (exp17's localized-fault rotation).
fn rotation_links(u: &Underlay) -> Vec<usize> {
    let peripheral = |i: &usize| {
        let l = &u.graph.links[*i];
        l.kind == LinkKind::Peering
            && u.graph.nodes[l.a.idx()].tier != Tier::Tier1
            && u.graph.nodes[l.b.idx()].tier != Tier::Tier1
    };
    let links: Vec<usize> = (0..u.graph.links.len()).filter(peripheral).collect();
    if links.is_empty() {
        (0..u.graph.links.len()).collect()
    } else {
        links
    }
}

/// The fault state of epoch `e`: even epochs cut one rotating link (two
/// every fourth step), odd epochs heal, and a latency-inflation window
/// covers the second half of every eight epochs.
fn epoch_state(e: usize, rotation: &[usize], n_links: usize) -> FaultState {
    let mut state = FaultState::clear();
    if e.is_multiple_of(2) {
        let step = e / 2;
        let mut mask = vec![false; n_links];
        mask[rotation[step % rotation.len()]] = true;
        if step % 4 == 3 {
            mask[rotation[(step + 1) % rotation.len()]] = true;
        }
        state.mask = Some(mask);
    }
    if e % 8 >= 4 {
        state.latency_factor = 1.5;
    }
    state
}

/// One `latency_us` read folded into a running checksum.
fn read_into(acc: u64, u: &Underlay, (a, b): (HostId, HostId)) -> u64 {
    acc.wrapping_mul(31)
        .wrapping_add(u.latency_us(a, b).unwrap_or(u64::MAX))
}

fn latency_sweep(u: &Underlay, pairs: &[(HostId, HostId)]) -> u64 {
    pairs
        .iter()
        .fold(0u64, |acc, &pair| read_into(acc, u, pair))
}

/// Set-up alone, product dropped: an extra `setup_s` sample.
pub fn setup_only(p: &Params, env: &mut Env) {
    build_underlay(&mut env.rec, p.topo, env.seed, |_| {
        PopulationSpec::leaf(p.hosts)
    });
}

/// Runs set-up, the read phase, the write-beside-read phase and billing.
pub fn iterate(p: &Params, env: &mut Env) -> IterOut {
    let mut u = build_underlay(&mut env.rec, p.topo, env.seed, |_| {
        PopulationSpec::leaf(p.hosts)
    });
    let mut rng = SimRng::new(env.seed ^ 0x5CA1E);
    let n = u.n_hosts();
    let pairs: Vec<(HostId, HostId)> = (0..p.pairs)
        .map(|_| {
            (
                HostId::from_index(rng.index(n)),
                HostId::from_index(rng.index(n)),
            )
        })
        .collect();
    let mut digest = Digest::new();
    let mut checks = Checks::default();

    // Reads.
    let pre_fault = latency_sweep(&u, &pairs);
    let read_sum = env.rec.run("net.underlay.latency_reads", || {
        (0..p.latency_sweeps).fold(0u64, |acc, _| acc ^ latency_sweep(&u, &pairs))
    });
    let mut now = SimTime::ZERO;
    env.rec.run("net.traffic.account", || {
        for _ in 0..p.account_sweeps {
            for &(a, b) in &pairs {
                now += SimTime::from_millis(1);
                u.account_transfer(now, a, b, 16 * 1024);
            }
        }
    });
    digest.label("reads").u64(pre_fault).u64(read_sum);

    // Writes beside reads.
    let rotation = rotation_links(&u);
    let n_links = u.graph.links.len();
    let mut cursor = 0usize;
    let mut write_sum = 0u64;
    for e in 0..=p.epochs {
        // One extra, fault-free epoch heals the last inflation window.
        let state = if e < p.epochs {
            epoch_state(e, &rotation, n_links)
        } else {
            FaultState::clear()
        };
        let stats = env
            .rec
            .run("net.routing.repair", || u.apply_fault_state(&state));
        digest
            .u64(stats.changed_links as u64)
            .u64(stats.dirty_sources as u64)
            .u64(u64::from(stats.full_rebuild));
        write_sum ^= env.rec.run("net.underlay.reads_after_repair", || {
            (0..p.reads_per_epoch).fold(0u64, |acc, _| {
                let pair = pairs[cursor % pairs.len()];
                cursor += 1;
                read_into(acc, &u, pair)
            })
        });
        let coherent = env.rec.span("check.route_cache_coherent", || {
            catch_unwind(AssertUnwindSafe(|| u.assert_route_cache_coherent())).is_ok()
        });
        checks.check(coherent, || {
            format!("route cache incoherent after epoch {e}")
        });
    }
    let post_heal = env
        .rec
        .span("check.post_heal_sweep", || latency_sweep(&u, &pairs));
    checks.check(post_heal == pre_fault, || {
        format!("post-heal latencies {post_heal:#x} differ from pre-fault {pre_fault:#x}")
    });
    digest.label("writes").u64(write_sum).u64(post_heal);

    // Billing.
    let bills = env.rec.run("net.cost.bill_all", || {
        bill_all(&u.graph, &u.traffic, &CostParams::default(), now)
    });
    let sane = bills
        .iter()
        .all(|b| b.transit_usd >= 0.0 && b.peering_usd >= 0.0 && b.total_usd().is_finite());
    checks.check(sane, || "a bill is negative or not finite".to_owned());
    let (intra, peering, transit) = u.traffic.totals();
    digest
        .label("ledger")
        .u64(intra)
        .u64(peering)
        .u64(transit)
        .u64(u.traffic.transfers())
        .f64(total_transit_usd(&bills));

    let mut net = NetCounters::default();
    net.absorb(&u);
    net.digest(&mut digest);

    let latency_reads = (p.latency_sweeps * p.pairs) as u64;
    let account_calls = (p.account_sweeps * p.pairs) as u64;
    let epoch_reads = ((p.epochs + 1) * p.reads_per_epoch) as u64;
    let units = latency_reads + account_calls + epoch_reads;

    let (rec, ledger) = (&env.rec, &mut env.ledger);
    net.write(rec, ledger);
    ledger.insert(
        "net.underlay.latency_ns_per_query",
        rec.secs("net.underlay.latency_reads") * 1e9 / latency_reads as f64,
    );
    ledger.insert(
        "net.traffic.account_ns_per_call",
        rec.secs("net.traffic.account") * 1e9 / account_calls as f64,
    );
    ledger.insert(
        "net.routing.repair_ns_per_epoch",
        rec.secs("net.routing.repair") * 1e9 / rec.count("net.routing.repair") as f64,
    );
    if env.probes {
        let probe_span = env.rec.enter("probe");
        routing_probe(&u, &mut env.ledger);
        env.rec.exit(probe_span);
    }
    IterOut {
        units,
        digest,
        checks,
    }
}
