//! Runtime invariant checkers for the underlay model.
//!
//! Complements the static determinism rules (clippy, see
//! `docs/DETERMINISM.md`): where clippy bans nondeterminism *sources*,
//! these checkers catch
//! *logic* corruption at the model's trust boundaries. Each checker
//! returns `Err(description)` rather than panicking so tests can assert
//! on the failure text; the call sites in [`crate::routing`], [`crate::flow`],
//! [`crate::traffic`] and [`crate::cost`] run them under
//! `debug_assertions` only, so release experiment sweeps pay nothing.
//!
//! Checkers:
//!
//! * [`check_valley_free`] — an AS path obeys the Gao export rules
//!   (§2.1 / Figure 1): climb customer→provider links, cross at most one
//!   peering link, then descend provider→customer links; no valleys, no
//!   AS revisited.
//! * [`check_traffic_conservation`] — the per-link byte ledger of
//!   [`crate::traffic::TrafficAccounting`] sums to its per-category
//!   totals: bytes are neither created nor destroyed by classification.
//! * [`check_cost_non_negative`] — no bill contains a negative or
//!   non-finite charge (the cost model is a sum of non-negative tariffs).
//! * [`check_flow_capacity`] / [`check_flow_conservation`] /
//!   [`check_flow_max_min`] — the max-min fair allocation produced by
//!   [`crate::flow::FlowAllocator`] never overloads a resource, its
//!   per-resource loads equal the sum of the crossing flows' rates, and
//!   every flow is bottlenecked at some saturated resource (the defining
//!   property of max-min fairness).
//! * [`check_flow_reference`] — the allocator's rates are bit-equal to
//!   [`reference_max_min`], the from-scratch fill its indexed one
//!   replaced.

use crate::asgraph::{AsGraph, LinkKind, Relationship};
use crate::cost::IspBill;
use crate::ids::AsId;
use crate::traffic::TrafficAccounting;

/// Validates that `path` (a sequence of ASes, as returned by
/// [`crate::routing::Routing::path_ases`]) is valley-free: the
/// relationship sequence matches `up* peer? down*`, every hop is a real
/// link, and no AS appears twice.
pub fn check_valley_free(graph: &AsGraph, path: &[AsId]) -> Result<(), String> {
    #[derive(PartialEq, Eq, Clone, Copy, Debug)]
    enum Phase {
        Climbing,
        Descending,
    }
    let mut phase = Phase::Climbing;
    for (i, (&x, &y)) in path.iter().zip(path.iter().skip(1)).enumerate() {
        let rel = graph
            .relationship(x, y)
            .ok_or_else(|| format!("hop {i}: {x} and {y} are not directly linked"))?;
        phase = match (phase, rel) {
            // Climbing: x buys transit from y (y is x's provider).
            (Phase::Climbing, Relationship::CustomerOf) => Phase::Climbing,
            // At most one peering crossing, only at the top of the climb.
            (Phase::Climbing, Relationship::PeerWith) => Phase::Descending,
            // Descending: x sells transit to y; allowed from either phase.
            (_, Relationship::ProviderOf) => Phase::Descending,
            (Phase::Descending, rel) => {
                return Err(format!(
                    "hop {i}: {x}->{y} is {rel:?} after the path started descending — a valley"
                ));
            }
        };
    }
    for (i, a) in path.iter().enumerate() {
        if path.iter().skip(i + 1).any(|b| b == a) {
            return Err(format!("AS {a} appears twice — routing loop"));
        }
    }
    Ok(())
}

/// Validates byte conservation in `traffic` against `graph`: the sum of
/// per-link bytes over peering links must equal the peering total, and
/// likewise for transit links. (Intra-AS bytes never touch a link.)
pub fn check_traffic_conservation(
    graph: &AsGraph,
    traffic: &TrafficAccounting,
) -> Result<(), String> {
    let (_, peering_total, transit_total) = traffic.totals();
    let mut peering_sum = 0u64;
    let mut transit_sum = 0u64;
    for (li, link) in graph.links.iter().enumerate() {
        #[expect(
            clippy::expect_used,
            reason = "explicit bound check: link indices are u32"
        )]
        let li = u32::try_from(li).expect("link index exceeds u32::MAX");
        let b = traffic.link_bytes(li);
        match link.kind {
            LinkKind::Peering => peering_sum += b,
            LinkKind::Transit => transit_sum += b,
        }
    }
    if peering_sum != peering_total {
        return Err(format!(
            "peering bytes not conserved: per-link sum {peering_sum} != total {peering_total}"
        ));
    }
    if transit_sum != transit_total {
        return Err(format!(
            "transit bytes not conserved: per-link sum {transit_sum} != total {transit_total}"
        ));
    }
    Ok(())
}

/// Validates that every bill is composed of finite, non-negative charges.
pub fn check_cost_non_negative(bills: &[IspBill]) -> Result<(), String> {
    for b in bills {
        for (what, v) in [
            ("transit_p95_mbps", b.transit_p95_mbps),
            ("transit_usd", b.transit_usd),
            ("peering_usd", b.peering_usd),
            ("total_usd", b.total_usd()),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{}: {what} = {v} (negative or non-finite)", b.asn));
            }
        }
    }
    Ok(())
}

/// Tolerance for float comparisons on flow rates/loads (bytes/second):
/// proportional slack plus one byte/second of absolute slack, matching
/// the saturation test inside the progressive-filling loop.
fn flow_eps(scale: f64) -> f64 {
    scale.abs() * 1e-9 + 1.0
}

/// Validates that no resource the current flow set touches is loaded
/// beyond its capacity. `cap` and `load` are the allocator's per-resource
/// arrays; `used` lists the resource indices the flow set crosses.
#[expect(clippy::indexing_slicing, reason = "used ids < cap.len() = load.len()")]
pub fn check_flow_capacity(cap: &[f64], load: &[f64], used: &[u32]) -> Result<(), String> {
    for &r in used {
        let r = r as usize;
        if !load[r].is_finite() || load[r] < 0.0 {
            return Err(format!("resource {r}: load {} is invalid", load[r]));
        }
        if load[r] > cap[r] + flow_eps(cap[r]) {
            return Err(format!(
                "resource {r}: load {} exceeds capacity {}",
                load[r], cap[r]
            ));
        }
    }
    Ok(())
}

/// Validates rate conservation: each resource's load equals the sum of
/// the rates of the flows crossing it (bytes/second are neither created
/// nor destroyed between the per-flow and per-resource views). `flows`
/// is the allocator's `(id, arena start, resource count)` table and
/// `arena` the concatenated resource spans; `rates` is parallel to
/// `flows`.
#[expect(clippy::indexing_slicing, reason = "spans in arena, ids < load.len()")]
pub fn check_flow_conservation(
    load: &[f64],
    rates: &[f64],
    flows: &[(u64, u32, u32)],
    arena: &[u32],
) -> Result<(), String> {
    let mut sums = vec![0.0f64; load.len()];
    for (fi, &(_, start, len)) in flows.iter().enumerate() {
        for &r in &arena[start as usize..(start + len) as usize] {
            sums[r as usize] += rates[fi];
        }
    }
    for (r, (&s, &l)) in sums.iter().zip(load).enumerate() {
        if (s - l).abs() > flow_eps(l.max(s)) {
            return Err(format!(
                "resource {r}: flow-rate sum {s} != recorded load {l}"
            ));
        }
    }
    Ok(())
}

/// Validates the max-min property: every flow crosses at least one
/// saturated resource (its bottleneck). A flow with headroom on every
/// resource it touches could be raised without hurting anyone, so the
/// allocation would not be max-min fair.
#[expect(clippy::indexing_slicing, reason = "spans in arena, ids < cap.len()")]
pub fn check_flow_max_min(
    cap: &[f64],
    load: &[f64],
    flows: &[(u64, u32, u32)],
    arena: &[u32],
) -> Result<(), String> {
    for &(id, start, len) in flows {
        let span = &arena[start as usize..(start + len) as usize];
        let bottlenecked = span.iter().any(|&r| {
            let r = r as usize;
            load[r] + flow_eps(cap[r]) >= cap[r]
        });
        if !bottlenecked {
            return Err(format!(
                "flow {id}: no saturated resource on its path — not max-min"
            ));
        }
    }
    Ok(())
}

/// The from-scratch progressive fill, kept as the differential reference
/// for [`crate::flow::FlowAllocator::allocate`] (as
/// [`crate::routing::ReferenceRouting`] is for the route table). Every
/// level scans every touched resource for the increment, adds it to every
/// unfrozen flow's rate, and rescans every unfrozen flow's span for a
/// saturated resource. `cap` is the allocator's capacity vector, `flows`
/// its `(id, arena start, resource count)` table and `arena` the
/// concatenated spans; the rates come back parallel to `flows`.
#[expect(clippy::indexing_slicing, reason = "spans in arena, ids < cap.len()")]
pub fn reference_max_min(cap: &[f64], flows: &[(u64, u32, u32)], arena: &[u32]) -> Vec<f64> {
    let span = |&(_, start, len): &(u64, u32, u32)| &arena[start as usize..(start + len) as usize];
    let mut load = vec![0.0f64; cap.len()];
    let mut users = vec![0u32; cap.len()];
    let mut used = Vec::new();
    for f in flows {
        for &r in span(f) {
            let r = r as usize;
            if users[r] == 0 {
                used.push(r);
            }
            users[r] += 1;
        }
    }
    let mut rates = vec![0.0f64; flows.len()];
    let mut frozen = vec![false; flows.len()];
    let mut unfrozen = flows.len();
    while unfrozen > 0 {
        let mut inc = f64::INFINITY;
        for &r in &used {
            if users[r] > 0 {
                let room = (cap[r] - load[r]).max(0.0) / users[r] as f64;
                if room < inc {
                    inc = room;
                }
            }
        }
        if inc > 0.0 && inc.is_finite() {
            for (rate, &f) in rates.iter_mut().zip(&frozen) {
                if !f {
                    *rate += inc;
                }
            }
            for &r in &used {
                if users[r] > 0 {
                    load[r] += inc * users[r] as f64;
                }
            }
        }
        let mut froze = false;
        for (fi, f) in flows.iter().enumerate() {
            let saturated = |&r: &u32| {
                let r = r as usize;
                load[r] + crate::flow::saturation_eps(cap[r]) >= cap[r]
            };
            if !frozen[fi] && span(f).iter().any(saturated) {
                frozen[fi] = true;
                froze = true;
                unfrozen -= 1;
                for &r in span(f) {
                    users[r as usize] -= 1;
                }
            }
        }
        if !froze {
            // Rounding hid the arg-min resource's saturation: every
            // unfrozen flow keeps its current rate.
            break;
        }
    }
    rates
}

/// Validates the allocation against [`reference_max_min`]: every rate
/// must be bit-equal (`to_bits`) to the reference fill's, since both add
/// the same increments in the same order.
pub fn check_flow_reference(
    cap: &[f64],
    flows: &[(u64, u32, u32)],
    arena: &[u32],
    rates: &[f64],
) -> Result<(), String> {
    let want = reference_max_min(cap, flows, arena);
    if want.len() != rates.len() {
        return Err(format!("{} rates for {} flows", rates.len(), want.len()));
    }
    for ((&(id, _, _), &got), &want) in flows.iter().zip(rates).zip(&want) {
        if got.to_bits() != want.to_bits() {
            return Err(format!("flow {id}: rate {got} != reference {want}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asgraph::Tier;
    use crate::cost::{bill_all, CostParams};
    use crate::geo::GeoPoint;
    use crate::routing::{Routing, RoutingMode};
    use uap_sim::SimTime;

    /// T1 over two T2s over two stubs each, stubs b/c peered.
    fn hierarchy() -> AsGraph {
        let mut g = AsGraph::new();
        let p = |x: f64| GeoPoint::new(x, 0.0);
        let t1 = g.add_as(Tier::Tier1, p(0.0), 100.0); // AS0
        let t2a = g.add_as(Tier::Tier2, p(-100.0), 50.0); // AS1
        let t2b = g.add_as(Tier::Tier2, p(100.0), 50.0); // AS2
        let a = g.add_as(Tier::Tier3, p(-150.0), 20.0); // AS3
        let b = g.add_as(Tier::Tier3, p(-50.0), 20.0); // AS4
        let c = g.add_as(Tier::Tier3, p(50.0), 20.0); // AS5
        g.add_transit(t1, t2a, 5_000, 40_000.0);
        g.add_transit(t1, t2b, 5_000, 40_000.0);
        g.add_transit(t2a, a, 2_000, 10_000.0);
        g.add_transit(t2a, b, 2_000, 10_000.0);
        g.add_transit(t2b, c, 2_000, 10_000.0);
        g.add_peering(b, c, 1_000, 1_000.0);
        g
    }

    #[test]
    fn computed_valley_free_paths_validate() {
        let g = hierarchy();
        let r = Routing::compute(&g, RoutingMode::ValleyFree);
        for src in 0..g.len() {
            for dst in 0..g.len() {
                if src == dst {
                    continue;
                }
                let path = r
                    .path_ases(&g, AsId::from_index(src), AsId::from_index(dst))
                    .unwrap();
                check_valley_free(&g, &path).unwrap_or_else(|e| panic!("path {path:?}: {e}"));
            }
        }
    }

    #[test]
    fn valley_is_rejected() {
        let g = hierarchy();
        // a -> t2a -> b -> c: descends t2a->b then crosses peering b~c.
        let valley = [AsId(3), AsId(1), AsId(4), AsId(5)];
        let err = check_valley_free(&g, &valley).unwrap_err();
        assert!(err.contains("valley"), "{err}");
        // Unlinked hop.
        let err = check_valley_free(&g, &[AsId(3), AsId(5)]).unwrap_err();
        assert!(err.contains("not directly linked"), "{err}");
        // Loop.
        let err = check_valley_free(&g, &[AsId(3), AsId(1), AsId(0), AsId(1)]).unwrap_err();
        assert!(err.contains("twice"), "{err}");
    }

    #[test]
    fn double_peering_is_a_valley() {
        let mut g = hierarchy();
        let d = g.add_as(Tier::Tier3, GeoPoint::new(80.0, 0.0), 20.0); // AS6
        g.add_peering(AsId(5), d, 1_000, 1_000.0);
        // b ~ c ~ d crosses two peering links.
        let err = check_valley_free(&g, &[AsId(4), AsId(5), AsId(6)]).unwrap_err();
        assert!(err.contains("valley"), "{err}");
    }

    #[test]
    fn traffic_ledger_conserves_bytes() {
        let g = hierarchy();
        let r = Routing::compute(&g, RoutingMode::ValleyFree);
        let mut t = TrafficAccounting::new(&g);
        let mut now = SimTime::ZERO;
        for src in 0..g.len() {
            for dst in 0..g.len() {
                if src == dst {
                    continue;
                }
                let path = r
                    .path_links(AsId::from_index(src), AsId::from_index(dst))
                    .unwrap();
                t.record(&g, now, AsId::from_index(src), path, 10_000);
                now += SimTime::from_secs(1);
            }
        }
        check_traffic_conservation(&g, &t).unwrap();
    }

    #[test]
    fn bills_validate_non_negative() {
        let g = hierarchy();
        let r = Routing::compute(&g, RoutingMode::ValleyFree);
        let mut t = TrafficAccounting::new(&g);
        let path = r.path_links(AsId(3), AsId(5)).unwrap();
        t.record(&g, SimTime::from_secs(30), AsId(3), path, 1 << 20);
        let bills = bill_all(&g, &t, &CostParams::default(), SimTime::from_hours(1));
        check_cost_non_negative(&bills).unwrap();
    }

    #[test]
    fn flow_checkers_accept_a_consistent_allocation() {
        // Two flows over three resources; flow 0 uses {0, 2}, flow 1 uses
        // {1, 2}. Resource 2 is the shared bottleneck.
        let cap = [10.0, 10.0, 8.0];
        let load = [4.0, 4.0, 8.0];
        let flows = [(0u64, 0u32, 2u32), (1, 2, 2)];
        let arena = [0u32, 2, 1, 2];
        let rates = [4.0, 4.0];
        check_flow_capacity(&cap, &load, &[0, 1, 2]).unwrap();
        check_flow_conservation(&load, &rates, &flows, &arena).unwrap();
        check_flow_max_min(&cap, &load, &flows, &arena).unwrap();
    }

    #[test]
    fn flow_checkers_catch_violations() {
        let cap = [10.0, 10.0, 8.0];
        let flows = [(0u64, 0u32, 2u32), (1, 2, 2)];
        let arena = [0u32, 2, 1, 2];
        // Overload.
        let err = check_flow_capacity(&cap, &[4.0, 4.0, 12.0], &[0, 1, 2]).unwrap_err();
        assert!(err.contains("exceeds capacity"), "{err}");
        // Non-finite load.
        assert!(check_flow_capacity(&cap, &[f64::NAN, 0.0, 0.0], &[0]).is_err());
        // Rates that do not sum to the recorded loads.
        let err =
            check_flow_conservation(&[4.0, 4.0, 8.0], &[4.0, 1.0], &flows, &arena).unwrap_err();
        assert!(err.contains("!= recorded load"), "{err}");
        // A flow with headroom everywhere it goes is not max-min.
        let err = check_flow_max_min(&cap, &[1.0, 1.0, 2.0], &flows, &arena).unwrap_err();
        assert!(err.contains("not max-min"), "{err}");
    }

    #[test]
    fn corrupt_bill_is_caught() {
        let g = hierarchy();
        let t = TrafficAccounting::new(&g);
        let mut bills = bill_all(&g, &t, &CostParams::default(), SimTime::from_hours(1));
        bills[0].transit_usd = -1.0;
        let err = check_cost_non_negative(&bills).unwrap_err();
        assert!(err.contains("transit_usd"), "{err}");
        bills[0].transit_usd = f64::NAN;
        assert!(check_cost_non_negative(&bills).is_err());
    }
}
