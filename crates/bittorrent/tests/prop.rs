//! Property-based tests for piece bookkeeping and tracker responses.

use proptest::prelude::*;
use uap_bittorrent::tracker::Tracker;
use uap_bittorrent::{PieceSet, TrackerPolicy};
use uap_net::{HostId, PopulationSpec, TopologyKind, TopologySpec, Underlay, UnderlayConfig};
use uap_sim::SimRng;

fn underlay(seed: u64) -> Underlay {
    let mut rng = SimRng::new(seed);
    let g = TopologySpec::new(TopologyKind::Hierarchical {
        tier1: 2,
        tier2_per_tier1: 2,
        tier3_per_tier2: 2,
        tier2_peering_prob: 0.2,
        tier3_peering_prob: 0.2,
    })
    .build(&mut rng);
    Underlay::build(
        g,
        &PopulationSpec::leaf(60),
        UnderlayConfig::default(),
        &mut rng,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// PieceSet: insert sequences never lose pieces, counts stay exact,
    /// completion equals having all pieces.
    #[test]
    fn pieceset_never_loses_pieces(n in 1usize..300, inserts in prop::collection::vec(0usize..300, 0..400)) {
        let mut s = PieceSet::empty(n);
        let mut reference = std::collections::HashSet::new();
        for &i in inserts.iter().filter(|&&i| i < n) {
            s.insert(i);
            reference.insert(i);
        }
        prop_assert_eq!(s.len(), reference.len());
        for i in 0..n {
            prop_assert_eq!(s.contains(i), reference.contains(&i));
        }
        prop_assert_eq!(s.is_complete(), reference.len() == n);
        // missing_from(full) lists exactly the complement.
        let full = PieceSet::full(n);
        let missing: Vec<usize> = s.missing_from(&full).collect();
        prop_assert_eq!(missing.len(), n - reference.len());
    }

    /// Interest is exactly "other has something I lack".
    #[test]
    fn interest_matches_definition(n in 1usize..128, a in prop::collection::vec(any::<bool>(), 1..128), b in prop::collection::vec(any::<bool>(), 1..128)) {
        let n = n.min(a.len()).min(b.len());
        let mut sa = PieceSet::empty(n);
        let mut sb = PieceSet::empty(n);
        let mut expect = false;
        for i in 0..n {
            if a[i] {
                sa.insert(i);
            }
            if b[i] {
                sb.insert(i);
            }
            if b[i] && !a[i] {
                expect = true;
            }
        }
        prop_assert_eq!(sa.is_interested_in(&sb), expect);
    }

    /// Tracker responses: never include the requester, never exceed the
    /// requested size, never contain duplicates — under every policy.
    #[test]
    fn tracker_response_invariants(seed in any::<u64>(), want in 0usize..40, swarm_size in 0usize..60) {
        let u = underlay(11);
        let mut rng = SimRng::new(seed);
        let who = HostId(0);
        let swarm: Vec<HostId> = (1..=swarm_size as u32).map(HostId).collect();
        for policy in [
            TrackerPolicy::Random,
            TrackerPolicy::Bns { internal: 10, external: 5 },
            TrackerPolicy::CostAware,
        ] {
            let mut t = Tracker::new(policy);
            let mut got = Vec::new();
            t.announce_into(&u, who, &swarm, want, &mut rng, &mut got);
            prop_assert!(got.len() <= want);
            prop_assert!(got.len() <= swarm.len());
            prop_assert!(!got.contains(&who));
            let mut sorted = got.clone();
            sorted.sort();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), got.len(), "duplicates under {:?}", policy);
            // Response fills up when supply allows.
            prop_assert_eq!(got.len(), want.min(swarm.len()));
        }
    }
}
