//! Integration across overlay substrates sharing one underlay model:
//! the same network shape serves Gnutella, Kademlia and BitTorrent, and
//! the locality mechanisms agree in direction.

use underlay_p2p::bittorrent::{run_swarm, SwarmConfig, TrackerPolicy};
use underlay_p2p::gnutella::{run_experiment, GnutellaConfig, NeighborSelection};
use underlay_p2p::kademlia::{DhtConfig, DhtNetwork, Key, ProximityMode};
use underlay_p2p::net::{HostId, NetParams, Underlay};
use underlay_p2p::sim::{SimRng, SimTime};

fn build_underlay(seed: u64, n: usize) -> Underlay {
    NetParams {
        tier1: 2,
        tier2_per_tier1: 2,
        tier3_per_tier2: 3,
        n_hosts: n,
        seed,
    }
    .build()
}

/// The headline claim of the whole survey, across all three substrates:
/// underlay awareness raises traffic locality in each of them.
#[test]
fn locality_improves_in_every_substrate() {
    // Gnutella.
    // Full §4 pipeline: oracle at bootstrap AND at file-exchange time
    // (bootstrap-only biasing moves download locality very little when the
    // provider is still picked at random — exactly what E6 measures).
    let gn = |sel, oracle_exchange| {
        let cfg = GnutellaConfig {
            selection: sel,
            oracle_at_file_exchange: oracle_exchange,
            duration: SimTime::from_mins(8),
            ..Default::default()
        };
        let (_, world) = run_experiment(build_underlay(21, 180), cfg, 21);
        world.underlay.traffic.locality_fraction()
    };
    let g_rand = gn(NeighborSelection::Random, false);
    let g_oracle = gn(NeighborSelection::OracleBiased { list_size: 1000 }, true);
    assert!(
        g_oracle > g_rand,
        "gnutella locality {g_oracle} !> {g_rand}"
    );

    // Kademlia.
    let kd = |mode| {
        let mut rng = SimRng::new(22);
        let mut net = DhtNetwork::build(
            build_underlay(22, 128),
            DhtConfig {
                proximity: mode,
                ..Default::default()
            },
            &mut rng,
        );
        net.underlay.reset_traffic();
        for i in 0..40u32 {
            let k = Key::random(&mut rng);
            net.lookup(HostId(i % 128), &k, &mut rng);
        }
        net.underlay.traffic.locality_fraction()
    };
    let k_plain = kd(ProximityMode::None);
    let k_prox = kd(ProximityMode::PnsPr);
    assert!(k_prox > k_plain, "kademlia locality {k_prox} !> {k_plain}");

    // BitTorrent.
    let bt = |tracker| {
        let cfg = SwarmConfig {
            n_leechers: 60,
            n_seeds: 4,
            n_pieces: 32,
            tracker,
            ..Default::default()
        };
        let (report, _) = run_swarm(build_underlay(23, 100), cfg, 23);
        report.intra_as_fraction
    };
    let b_rand = bt(TrackerPolicy::Random);
    let b_bns = bt(TrackerPolicy::Bns {
        internal: 16,
        external: 4,
    });
    assert!(b_bns > b_rand, "bittorrent locality {b_bns} !> {b_rand}");
}

/// The DHT can serve as the rendezvous for the file-sharing overlay:
/// store Gnutella hostcache seeds under a well-known key and fetch them
/// from another node.
#[test]
fn dht_as_bootstrap_rendezvous() {
    let mut rng = SimRng::new(31);
    let mut net = DhtNetwork::build(build_underlay(31, 96), DhtConfig::default(), &mut rng);
    let key = Key::hash_of(b"gnutella-bootstrap-v1");
    let (_, written) = net.store(HostId(3), &key, 0xB007, &mut rng);
    assert!(written >= 4);
    for probe in [10u32, 50, 90] {
        let (_, got) = net.retrieve(HostId(probe), &key, &mut rng);
        assert_eq!(got, Some(0xB007), "probe from {probe}");
    }
}

/// Underlay traffic accounting composes across substrates: running two
/// different workloads on one underlay accumulates into one ledger.
#[test]
fn shared_ledger_accumulates() {
    let mut u = build_underlay(41, 80);
    let before = u.traffic.transfers();
    assert_eq!(before, 0);
    // Manual transfers standing in for two applications.
    let a = HostId(0);
    let b = HostId(40);
    u.account_transfer(SimTime::ZERO, a, b, 1_000);
    u.account_transfer(SimTime::from_secs(1), b, a, 2_000);
    assert_eq!(u.traffic.transfers(), 2);
    let (intra, peering, transit) = u.traffic.totals();
    assert!(intra + peering + transit >= 3_000);
}
