//! A `World` wrapper that times `handle` per event kind.
//!
//! The engine's own profiler counts events per kind but keeps wall time
//! out of the deterministic registry, so the split "handler bodies versus
//! engine loop" has to be measured from outside: wrap the world, time
//! each dispatch, subtract the sum from `run_until`'s span.

use std::collections::BTreeMap;
use std::time::Instant;
use uap_sim::{Ctx, World};

/// Events handled and nanoseconds spent, for one event kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindTime {
    /// Events of this kind dispatched.
    pub events: u64,
    /// Nanoseconds inside `handle` for them.
    pub ns: u64,
}

/// Wraps a world; behaves identically, and keeps a per-kind time table.
pub struct Timed<W> {
    /// The wrapped world.
    pub inner: W,
    /// Handler time per [`World::kind_of`] name.
    pub by_kind: BTreeMap<&'static str, KindTime>,
}

impl<W> Timed<W> {
    /// Wraps `inner`.
    pub fn new(inner: W) -> Timed<W> {
        Timed {
            inner,
            by_kind: BTreeMap::new(),
        }
    }
}

impl<E, W: World<E>> World<E> for Timed<W> {
    fn handle(&mut self, event: E, ctx: &mut Ctx<'_, E>) {
        let kind = self.inner.kind_of(&event);
        let t = Instant::now();
        self.inner.handle(event, ctx);
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let slot = self.by_kind.entry(kind).or_default();
        slot.events += 1;
        slot.ns += ns;
    }

    fn kind_of(&self, event: &E) -> &'static str {
        self.inner.kind_of(event)
    }
}

/// Nanoseconds one `Instant::now()` + `elapsed()` pair costs here — the
/// wrapper's own per-event cost, subtracted from the engine overhead.
pub fn timer_pair_ns() -> f64 {
    crate::harness::ns_per_call(200_000, || {
        let t = Instant::now();
        std::hint::black_box(t.elapsed());
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use uap_sim::{SimTime, Simulator};

    enum Ev {
        Tick(u32),
        Tock,
    }

    #[derive(Default)]
    struct Clock {
        ticks: u64,
        sum: u64,
    }

    impl World<Ev> for Clock {
        fn handle(&mut self, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
            match ev {
                Ev::Tick(n) => {
                    self.ticks += 1;
                    self.sum = self.sum.wrapping_mul(31).wrapping_add(ctx.rng.below(1000));
                    ctx.metrics.incr("tick", 1);
                    if n < 200 {
                        let d = SimTime::from_micros(ctx.rng.range(1, 500));
                        ctx.schedule_in(d, Ev::Tick(n + 1));
                        if n % 10 == 0 {
                            ctx.schedule_in(d, Ev::Tock);
                        }
                    }
                }
                Ev::Tock => self.sum ^= ctx.now().as_micros(),
            }
        }

        fn kind_of(&self, ev: &Ev) -> &'static str {
            match ev {
                Ev::Tick(_) => "tick",
                Ev::Tock => "tock",
            }
        }
    }

    fn drive<W: World<Ev>>(world: &mut W) -> (u64, SimTime, u64) {
        let mut sim = Simulator::new(7);
        sim.schedule_at(SimTime::ZERO, Ev::Tick(0));
        let stats = sim.run(world);
        (
            stats.events_processed,
            stats.end_time,
            sim.metrics().counter("tick"),
        )
    }

    #[test]
    fn wrapped_run_is_identical_to_a_bare_run() {
        let mut bare = Clock::default();
        let bare_stats = drive(&mut bare);
        let mut timed = Timed::new(Clock::default());
        let timed_stats = drive(&mut timed);
        assert_eq!(bare_stats, timed_stats);
        assert_eq!((bare.ticks, bare.sum), (timed.inner.ticks, timed.inner.sum));
        let dispatched: u64 = timed.by_kind.values().map(|k| k.events).sum();
        assert_eq!(dispatched, timed_stats.0);
        assert_eq!(timed.by_kind["tick"].events, 201);
        assert_eq!(timed.by_kind["tock"].events, 20);
    }

    #[test]
    fn timer_pair_cost_is_small_and_positive() {
        let ns = timer_pair_ns();
        assert!(ns > 0.0 && ns < 100_000.0, "timer pair {ns} ns");
    }
}
