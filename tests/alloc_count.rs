//! Allocation counts over steady-state windows of the per-event paths.
//!
//! A counting `#[global_allocator]` over [`System`] counts every `alloc`
//! and `realloc` made on the calling thread, so tests running in parallel
//! do not see each other. Each window runs after a warm-up that sizes
//! every reused buffer and checks a stated bound; the comment at each
//! bound names what remains. Every window runs with tracing disabled,
//! and the Gnutella and swarm windows run a second time streaming a
//! Debug trace to a file under the same bound: an emitted event
//! allocates nothing.
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

use underlay_p2p::bittorrent::{run_swarm_with, SwarmConfig};
use underlay_p2p::gnutella::{GnutellaConfig, GnutellaSim, NeighborSelection};
use underlay_p2p::kademlia::{DhtConfig, DhtNetwork, Key};
use underlay_p2p::net::{
    AsId, FaultKind, FaultPlan, FaultState, FlowAllocator, HostId, NetParams, Underlay,
};
use underlay_p2p::sim::{SimRng, SimTime, Simulator, TraceLevel, Tracer};

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
fn ledger_writes_inside_one_billing_window_allocate_nothing() {
    let mut u = underlay(300);
    let hosts = u.n_hosts();
    let host = |i: usize| HostId::from_index(i % hosts);
    let far = (0..hosts)
        .map(host)
        .find(|&h| u.hosts.as_of(h) != u.hosts.as_of(host(0)))
        .expect("an inter-AS pair");
    // The warm-up opens the first billing window's sample row.
    u.account_transfer(SimTime::ZERO, host(0), far, 1_000);
    let (n, ()) = allocs_in(|| {
        for i in 0..100_000 {
            // Within the first five minutes.
            let now = SimTime::from_millis(i as u64);
            black_box(u.account_transfer(now, host(i * 7 + 3), host(i * 13 + 1), 16 * 1024));
        }
    });
    let (intra, peering, transit) = u.traffic.totals();
    assert!(
        peering + transit > intra,
        "the window's transfers cross links"
    );
    // 100 000 ledger writes into a window that exists: nothing to
    // allocate.
    assert_eq!(n, 0, "{n} allocations in 100 000 ledger writes");
}

/// A trace file named after `window` in the temporary directory, removed
/// when it drops.
struct TraceFile(std::path::PathBuf);

impl TraceFile {
    fn new(window: &str) -> TraceFile {
        let name = format!("uap_alloc_{window}_{}.jsonl", std::process::id());
        TraceFile(std::env::temp_dir().join(name))
    }

    /// A tracer streaming every Debug event to the file, from its start.
    fn tracer(&self) -> std::io::Result<Tracer> {
        Tracer::streaming(&self.0, TraceLevel::Debug)
    }
}

impl Drop for TraceFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Allocations and engine events in Gnutella minutes 10–30 under `tracer`,
/// and the trace events emitted in that window.
fn gnutella_window(tracer: Tracer) -> (u64, u64, u64) {
    let cfg = GnutellaConfig {
        selection: NeighborSelection::Random,
        duration: SimTime::from_mins(30),
        ..Default::default()
    };
    let mut sim = Simulator::new(42);
    sim.set_tracer(tracer);
    let mut world = GnutellaSim::new(underlay(300), cfg, &mut sim);
    let warm = sim.run_until(&mut world, SimTime::from_mins(10));
    let traced = sim.tracer_mut().emitted();
    let (n, stats) = allocs_in(|| sim.run_until(&mut world, SimTime::from_mins(30)));
    let events = stats.events_processed - warm.events_processed;
    assert!(events > 5_000, "only {events} events in the window");
    let tracer = sim.tracer_mut();
    assert_eq!(tracer.flush().map(|()| tracer.dropped()).ok(), Some(0));
    (n, events, tracer.emitted() - traced)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug invariant checkers allocate; run with --release"
)]
fn gnutella_minutes_10_to_30_allocate_only_retained_records() {
    let (n, events, _) = gnutella_window(Tracer::disabled());
    // What remains is growth of retained records: `query_log`,
    // `download_log` and the traffic ledger's billing windows.
    assert!(n <= 32, "{n} allocations in {events} Gnutella events");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug invariant checkers allocate; run with --release"
)]
fn a_streamed_gnutella_window_allocates_what_an_untraced_one_does() {
    let file = TraceFile::new("gnutella");
    let (n, events, traced) = gnutella_window(file.tracer().expect("create the trace file"));
    assert!(traced > events, "only {traced} trace events in the window");
    // The untraced window's bound: each event is rendered into the
    // tracer's reused line and written through its file buffer.
    assert!(
        n <= 32,
        "{n} allocations in {events} Gnutella events streaming {traced} trace events"
    );
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
    let n = swarm_rounds_11_to_20(Tracer::disabled);
    // What remains is retained state: 129 of the 130 measured are a
    // peer's sorted `credit` list growing when it first receives from a
    // new sender, and one is the per-round progress curve growing. The
    // bound is tight so that one allocation per round (10 more) fails.
    // The piece-claim scratch is sized to the torrent up front, so it
    // never grows here.
    assert!(
        n <= 135,
        "{n} allocations in swarm rounds 11-20; expected only a peer's credit \
         list growing for a new sender and the progress curve growing"
    );
}

/// Allocations in swarm rounds 11–20: a 20-round run less a 10-round
/// one, each under a tracer `tracer` makes before the run starts.
fn swarm_rounds_11_to_20(mut tracer: impl FnMut() -> Tracer) -> u64 {
    let cfg = |max_rounds| SwarmConfig {
        n_leechers: 200,
        n_seeds: 4,
        n_pieces: 512,
        max_rounds,
        ..Default::default()
    };
    let mut run = |rounds: u32| {
        let u = underlay(400);
        let mut tracer = tracer();
        let (n, (report, _u)) = allocs_in(|| run_swarm_with(u, cfg(rounds), 42, &mut tracer));
        assert_eq!(report.rounds, rounds);
        assert!(
            report.completed < report.leechers,
            "the swarm finished early"
        );
        assert_eq!(tracer.flush().map(|()| tracer.dropped()).ok(), Some(0));
        n
    };
    let (ten, twenty) = (run(10), run(20));
    twenty - ten
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug invariant checkers allocate; run with --release"
)]
fn a_streamed_swarm_window_allocates_what_an_untraced_one_does() {
    let file = TraceFile::new("swarm");
    let n = swarm_rounds_11_to_20(|| file.tracer().expect("create the trace file"));
    // The file holds the 20-round run's trace.
    let traced = std::fs::read_to_string(&file.0).map_or(0, |t| t.lines().count());
    assert!(traced > 10_000, "only {traced} trace events in 20 rounds");
    // The untraced window's bound, as above.
    assert!(
        n <= 135,
        "{n} allocations in swarm rounds 11-20 streaming a Debug trace"
    );
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
    // One per lookup is the `closest` vector it returns; a contact a
    // routing table gains may grow that table's contact array and its
    // used-bucket list.
    let bound = 1_000 + 2 * gained;
    assert!(
        n <= bound,
        "{n} allocations in 1 000 lookups (bound {bound}, {gained} contacts gained)"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug invariant checkers allocate; run with --release"
)]
fn fault_boundaries_allocate_per_repair() {
    let mut u = underlay(300);
    // Four overlapping 10 s windows, one every 5 s.
    let kinds = [
        FaultKind::LinkDown { links: vec![0, 5] },
        FaultKind::RandomLinkDown { p: 0.1, salt: 7 },
        FaultKind::LatencyInflation { factor: 1.5 },
        FaultKind::TransitDown { p: 0.2, salt: 9 },
    ];
    let plan = (0..).zip(kinds).fold(FaultPlan::new(), |plan, (i, kind)| {
        plan.epoch(
            SimTime::from_secs(5 * i),
            SimTime::from_secs(5 * i + 10),
            kind,
        )
    });
    let plan = plan.compile(&u.graph, u.n_hosts());
    // One state per boundary; the last is the fault-free one, so the
    // cycle closes and every pass repeats the same repairs.
    let states: Vec<FaultState> = plan
        .boundaries()
        .iter()
        .map(|&t| plan.state_at(t))
        .collect();
    let cycle = |u: &mut Underlay| {
        states.iter().fold((0, 0), |(repairs, dirty), s| {
            let stats = u.apply_fault_state(s);
            let repaired = usize::from(stats.changed_links > 0);
            (repairs + repaired, dirty + stats.dirty_sources)
        })
    };
    let (_, (repairs, dirty)) = allocs_in(|| cycle(&mut u));
    cycle(&mut u);
    let (n, ()) = allocs_in(|| {
        for _ in 0..10 {
            cycle(&mut u);
        }
    });
    let (epochs, repairs, dirty) = (10 * states.len(), 10 * repairs, 10 * dirty);
    // What remains is the fork. The route table read its worker count
    // once at build, its repair index keeps the state graph and every worker's
    // sweep buffers, and each row's records are rewritten where they live.
    // A repair on several workers opens one
    // scope (its shared state, one allocation) and spawns all but one of
    // them: thread handle, result packet and boxed closure, plus two for
    // the output capture a spawned thread inherits under the test harness;
    // the calling thread takes the last range. On one worker there is no
    // fork. Measured with 2 workers: 300 = 50 repairs × 6 (200 under
    // `--nocapture`); with 1 worker, 0.
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
    let fork = if workers > 1 {
        1 + 5 * (workers - 1)
    } else {
        0
    };
    let bound = (repairs * fork) as u64;
    assert!(
        n <= bound,
        "{n} allocations in {epochs} fault boundaries, {repairs} of them repairs \
         of {dirty} rows on {workers} worker(s) (bound {bound})"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug invariant checkers allocate; run with --release"
)]
fn the_first_link_change_installs_the_repair_index() {
    let mut u = underlay(300);
    let mut cut = FaultState::clear();
    cut.mask = Some((0..u.graph.links.len()).map(|li| li == 0).collect());
    let (n, stats) = allocs_in(|| u.apply_fault_state(&cut));
    assert!(stats.changed_links == 1 && stats.dirty_sources > 0);
    // The build wrote route records only, so this boundary installs the
    // route table's repair index: its per-state hop counts, per-state
    // latencies and tree-link bitsets, three allocations. Then two
    // fork-joins: the install sweep over every source, and the repair
    // over the dirty ones. A fork over `k` sources on `w` workers spawns
    // `ceil(k / ceil(k / w)) − 1` threads: one allocation for the scope,
    // and per spawned thread its handle, result packet and boxed closure,
    // plus two for the output capture under the test harness (three a
    // thread under `--nocapture`). Measured with 2 workers: 3 + 6 + 6 =
    // 15; with 1 worker, 3. Every later boundary pays only its repair's
    // fork (`fault_boundaries_allocate_per_repair`).
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
    let spawned = |k: usize| match k.div_ceil(workers) {
        0 => 0,
        per => k.div_ceil(per) - 1,
    };
    let forks = |per_thread: usize| {
        [u.n_ases(), stats.dirty_sources]
            .map(|k| match spawned(k) {
                0 => 0,
                s => 1 + per_thread * s,
            })
            .iter()
            .sum::<usize>() as u64
    };
    let (low, high) = (3 + forks(3), 3 + forks(5));
    assert!(
        (low..=high).contains(&n),
        "{n} allocations at the first link change, {} dirty of {} sources on {workers} \
         worker(s) (expected {low}..={high})",
        stats.dirty_sources,
        u.n_ases()
    );
}
