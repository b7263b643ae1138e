//! Kademlia on the engine keeps one clock with the fault campaign: its
//! events carry their operation's instant, the campaign's boundaries are
//! traced like the other overlays', and a retransmit inside the window
//! explains back to the `fault.epoch` that caused it.

use std::collections::BTreeMap;
use uap_bench::trace_cmd;
use uap_kademlia::{run_dht_with, DhtConfig, DhtNetwork, DhtOp, Key};
use uap_net::{FaultKind, FaultPlan, HostId, NetParams};
use uap_sim::{SimRng, SimTime, TraceEvent, TraceLevel, Tracer};

#[test]
fn driven_retransmits_explain_back_to_their_fault_epoch() {
    let underlay = NetParams {
        tier1: 2,
        tier2_per_tier1: 2,
        tier3_per_tier2: 3,
        n_hosts: 64,
        seed: 5,
    }
    .build();
    let mut rng = SimRng::new(5);
    let cfg = DhtConfig {
        rpc_retries: 2,
        ..Default::default()
    };
    let mut net = DhtNetwork::build(underlay, cfg, &mut rng);
    let (start, end) = (SimTime::from_secs(60), SimTime::from_secs(120));
    let plan = FaultPlan::new()
        .epoch(start, end, FaultKind::TransitDown { p: 0.7, salt: 3 })
        .epoch(
            start,
            end,
            FaultKind::HostCrash {
                hosts: (0..16).map(HostId).collect(),
            },
        );
    // A lookup every 10 s over [0, 170 s], from hosts the plan never crashes.
    let ops: Vec<(SimTime, DhtOp)> = (0..18u32)
        .map(|i| {
            let at = SimTime::from_secs(10 * u64::from(i));
            (
                at,
                DhtOp::Lookup(HostId(16 + i * 5 % 48), Key::random(&mut rng)),
            )
        })
        .collect();
    let mut tracer = Tracer::buffered(TraceLevel::Debug);
    run_dht_with(&mut net, &ops, &plan, &mut tracer);
    let jsonl = tracer.to_jsonl();
    let events = tracer.events();
    let of_kind =
        |kind: &str| -> Vec<&TraceEvent> { events.iter().filter(|e| e.kind == kind).collect() };

    // Every Kademlia event sits at its lookup's instant, not all at 0.
    let kad: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.component == "kademlia")
        .collect();
    assert!(kad.iter().any(|e| e.t > SimTime::ZERO), "all at t = 0");
    for e in &kad {
        assert!(
            ops.iter().any(|&(t, _)| t == e.t),
            "seq {} at {}",
            e.seq,
            e.t
        );
    }

    // The campaign's two boundaries, each a fault.epoch and its repair.
    let epochs = of_kind("fault.epoch");
    let repairs = of_kind("routing.repair");
    assert_eq!((epochs.len(), repairs.len()), (2, 2));
    assert_eq!([epochs[0].t, epochs[1].t], [start, end]);

    // Every retransmit inside the window explains back to its epoch.
    let by_seq: BTreeMap<u64, &TraceEvent> = events.iter().map(|e| (e.seq, e)).collect();
    let in_window: Vec<&TraceEvent> = of_kind("rpc.retry")
        .into_iter()
        .filter(|e| start <= e.t && e.t < end)
        .collect();
    assert!(!in_window.is_empty(), "the window forced no retransmit");
    for retry in in_window {
        let mut at = retry;
        while let Some(cs) = at.cause {
            at = by_seq[&cs];
        }
        assert_eq!(
            (at.component.as_str(), at.kind.as_str()),
            ("net", "fault.epoch"),
            "rpc.retry seq {} has root seq {}",
            retry.seq,
            at.seq
        );
    }

    let (_, verdict) = trace_cmd::check(&jsonl);
    verdict.expect("the trace passes exp trace check");
}
