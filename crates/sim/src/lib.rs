//! # uap-sim — deterministic discrete-event simulation engine
//!
//! Foundation crate of the `underlay-p2p` workspace. Every experiment in the
//! reproduction of *Underlay Awareness in P2P Systems* (Abboud et al., IPDPS
//! 2009) runs on this engine.
//!
//! Design goals:
//!
//! * **Determinism.** A run is a pure function of its configuration and a
//!   single `u64` seed. The event queue breaks timestamp ties by insertion
//!   sequence number, and all randomness flows through [`SimRng`].
//! * **Protocol-agnostic.** The engine is generic over the event type; each
//!   overlay crate defines its own event enum and a [`World`] implementation.
//! * **Measurable.** A [`Metrics`] registry collects counters and time
//!   series that the experiment harnesses turn into the paper's tables.
//!
//! ```
//! use uap_sim::{Simulator, World, Ctx, SimTime};
//!
//! struct Counter(u64);
//! enum Ev { Tick }
//!
//! impl World<Ev> for Counter {
//!     fn handle(&mut self, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
//!         match ev {
//!             Ev::Tick => {
//!                 self.0 += 1;
//!                 if self.0 < 10 {
//!                     ctx.schedule_in(SimTime::from_millis(5), Ev::Tick);
//!                 }
//!             }
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::new(42);
//! sim.schedule_at(SimTime::ZERO, Ev::Tick);
//! let mut world = Counter(0);
//! sim.run(&mut world);
//! assert_eq!(world.0, 10);
//! assert_eq!(sim.now(), SimTime::from_millis(45));
//! ```

#![forbid(unsafe_code)]

pub mod churn;
pub mod engine;
pub mod event;
pub mod metrics;
pub mod rng;
pub mod runreport;
pub mod time;
pub mod trace;

pub use churn::{ChurnConfig, ChurnModel, SessionDist};
pub use engine::{Ctx, ProfileConfig, RunStats, Simulator, World};
pub use event::EventQueue;
pub use metrics::{Metrics, TimeSeries};
pub use rng::{SimRng, Zipf};
pub use runreport::RunReport;
pub use time::SimTime;
pub use trace::{Fields, Provenance, TraceEvent, TraceLevel, Tracer, Value, WallTimer};
