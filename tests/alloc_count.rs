//! Allocation counts over steady-state windows of the per-event paths.
//!
//! A counting `#[global_allocator]` over [`System`] counts every `alloc`
//! and `realloc` made on the calling thread, so tests running in parallel
//! do not see each other. Each window runs with tracing disabled, after a
//! warm-up that sizes every reused buffer, and checks a stated bound;
//! the comment at each bound names what remains.
//!
//! The window tests are release-only: a debug build runs the invariant
//! checkers (`RoutingTable::check_invariants` on every `observe`,
//! `check_flow_conservation` every swarm round), which allocate by
//! design. Run them with
//!
//! ```text
//! cargo test --release --test alloc_count
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use underlay_p2p::bittorrent::{run_swarm, SwarmConfig};
use underlay_p2p::gnutella::{GnutellaConfig, GnutellaSim, NeighborSelection};
use underlay_p2p::kademlia::{DhtConfig, DhtNetwork, Key};
use underlay_p2p::net::{AsId, FlowAllocator, HostId, NetParams, Underlay};
use underlay_p2p::sim::{SimRng, SimTime, Simulator};

/// [`System`], counting the allocations of the calling thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` contract is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns the allocations it made on this thread.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// The 18-AS hierarchy the windows share (2 tier-1, 4 tier-2, 12
/// tier-3 ASes).
fn underlay(n_hosts: usize) -> Underlay {
    NetParams {
        tier1: 2,
        tier2_per_tier1: 2,
        tier3_per_tier2: 3,
        n_hosts,
        seed: 42,
    }
    .build()
}

#[test]
fn a_box_inside_the_window_counts_exactly_once() {
    // The negative control: a zero below cannot come from an allocator
    // that was never installed or a counter on another thread.
    let (n, b) = allocs_in(|| black_box(Box::new(7u64)));
    assert_eq!(n, 1);
    assert_eq!(*b, 7);
    let (n, ()) = allocs_in(|| ());
    assert_eq!(n, 0);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug invariant checkers allocate; run with --release"
)]
fn underlay_and_routing_queries_allocate_nothing() {
    let u = underlay(300);
    let (hosts, ases) = (u.n_hosts(), u.n_ases());
    let routing = u.routing();
    let host = |i: usize| HostId::from_index(i % hosts);
    let asn = |i: usize| AsId::from_index(i % ases);
    let (n, ()) = allocs_in(|| {
        for i in 0..100_000 {
            black_box(u.latency_us(host(i), host(i * 7 + 3)));
            black_box(u.rtt_us(host(i * 3 + 1), host(i * 11)));
            black_box(routing.route(asn(i), asn(i / ases + 5)));
            black_box(routing.path_links(asn(i * 5), asn(i + 1)));
        }
    });
    // 400 000 table reads: nothing to allocate.
    assert_eq!(n, 0, "{n} allocations in 400 000 underlay/routing queries");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug invariant checkers allocate; run with --release"
)]
fn gnutella_minutes_10_to_30_allocate_only_retained_records() {
    let cfg = GnutellaConfig {
        selection: NeighborSelection::Random,
        duration: SimTime::from_mins(30),
        ..Default::default()
    };
    let mut sim = Simulator::new(42);
    let mut world = GnutellaSim::new(underlay(300), cfg, &mut sim);
    let warm = sim.run_until(&mut world, SimTime::from_mins(10));
    let (n, stats) = allocs_in(|| sim.run_until(&mut world, SimTime::from_mins(30)));
    let events = stats.events_processed - warm.events_processed;
    assert!(events > 5_000, "only {events} events in the window");
    // What remains is growth of retained records: `query_log`,
    // `download_log` and the traffic ledger's per-link billing buckets.
    assert!(n <= 32, "{n} allocations in {events} Gnutella events");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug invariant checkers allocate; run with --release"
)]
fn flow_allocator_cycles_allocate_nothing() {
    let u = underlay(400);
    let mut rng = SimRng::new(42);
    let pairs: Vec<(HostId, HostId)> = (0..2_000)
        .map(|_| {
            let s = rng.index(400);
            let d = (s + 1 + rng.index(399)) % 400;
            (HostId::from_index(s), HostId::from_index(d))
        })
        .collect();
    let mut a = FlowAllocator::new(&u);
    // Each cycle registers the same pairs under fresh ids, in alternating
    // order, so the sort, the census and the index all redo their work.
    let mut cycle = |c: u64| {
        a.begin();
        for (k, &(s, d)) in (0u64..).zip(&pairs) {
            let k = if c.is_multiple_of(2) { k } else { 1_999 - k };
            black_box(a.add_flow(c * 10_000 + k, s, d, &u));
        }
        a.allocate();
        black_box(a.rate_of(c * 10_000));
    };
    for c in 0..3 {
        cycle(c);
    }
    let (n, ()) = allocs_in(|| (3..23).for_each(&mut cycle));
    // 20 refills of a 2 000-flow set over buffers the warm-up sized.
    assert_eq!(n, 0, "{n} allocations in 20 allocator cycles");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug invariant checkers allocate; run with --release"
)]
fn swarm_rounds_11_to_20_allocate_only_new_credit_entries() {
    let cfg = |max_rounds| SwarmConfig {
        n_leechers: 200,
        n_seeds: 4,
        n_pieces: 512,
        max_rounds,
        ..Default::default()
    };
    let run = |rounds: u32| {
        let u = underlay(400);
        let (n, (report, _u)) = allocs_in(|| run_swarm(u, cfg(rounds), 42));
        assert_eq!(report.rounds, rounds);
        assert!(
            report.completed < report.leechers,
            "the swarm finished early"
        );
        n
    };
    let (ten, twenty) = (run(10), run(20));
    let n = twenty - ten;
    // What remains is retained state: 129 of the 130 measured are a
    // peer's sorted `credit` list growing when it first receives from a
    // new sender, and one is the per-round progress curve growing. The
    // bound is tight so that one allocation per round (10 more) fails.
    assert!(n <= 135, "{n} allocations in swarm rounds 11-20");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug invariant checkers allocate; run with --release"
)]
fn kademlia_lookups_allocate_their_result_and_new_contacts() {
    let mut rng = SimRng::new(42);
    let mut net = DhtNetwork::build(underlay(256), DhtConfig::default(), &mut rng);
    let lookups = |net: &mut DhtNetwork, rng: &mut SimRng| {
        for i in 0..1_000u32 {
            let target = Key::random(rng);
            black_box(net.lookup(HostId(i % 256), &target, rng));
        }
    };
    lookups(&mut net, &mut rng);
    let contacts = net.table_contacts();
    let (n, ()) = allocs_in(|| lookups(&mut net, &mut rng));
    let gained = (net.table_contacts() - contacts) as u64;
    // One per lookup is the `closest` vector it returns; a contact the
    // routing tables gain may grow its bucket and the used-bucket list.
    let bound = 1_000 + 2 * gained;
    assert!(
        n <= bound,
        "{n} allocations in 1 000 lookups (bound {bound}, {gained} contacts gained)"
    );
}
