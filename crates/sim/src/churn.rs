//! Peer churn modeling.
//!
//! Peers in deployed P2P systems join and leave continuously. The survey's
//! open issues (§5.4) single out "robustness especially against churn" as an
//! under-studied aspect of underlay awareness, so every overlay experiment
//! can attach a churn process.
//!
//! The model alternates **online sessions** and **offline gaps**, each drawn
//! from a configurable distribution. Exponential sessions give classical
//! memoryless churn. Every peer starts online, at the beginning of its
//! first session.

use crate::rng::SimRng;
use crate::time::SimTime;

/// Distribution family for session and offline durations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SessionDist {
    /// Fixed duration (useful in tests).
    Fixed(f64),
    /// Exponential with the given mean (seconds).
    Exponential {
        /// Mean duration in seconds.
        mean_secs: f64,
    },
}

impl SessionDist {
    /// Draws a duration.
    pub fn sample(&self, rng: &mut SimRng) -> SimTime {
        let secs = match *self {
            SessionDist::Fixed(s) => s,
            SessionDist::Exponential { mean_secs } => rng.exp(mean_secs),
        };
        SimTime::from_secs_f64(secs)
    }
}

/// Churn configuration for a peer population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Online session length distribution.
    pub session: SessionDist,
    /// Offline gap length distribution.
    pub offline: SessionDist,
}

impl ChurnConfig {
    /// No churn: peers stay online forever.
    pub fn none() -> Self {
        ChurnConfig {
            session: SessionDist::Fixed(f64::INFINITY),
            offline: SessionDist::Fixed(0.0),
        }
    }

    /// Moderate file-sharing churn: exponential sessions with the given mean,
    /// offline gaps of half that mean.
    pub fn exponential(mean_session_secs: f64) -> Self {
        ChurnConfig {
            session: SessionDist::Exponential {
                mean_secs: mean_session_secs,
            },
            offline: SessionDist::Exponential {
                mean_secs: mean_session_secs / 2.0,
            },
        }
    }

    /// Whether this configuration ever takes a peer offline.
    pub fn is_static(&self) -> bool {
        matches!(self.session, SessionDist::Fixed(s) if s.is_infinite())
    }
}

/// Per-peer churn state machine.
///
/// The overlay simulation asks for the next transition and schedules a
/// `Leave`/`Rejoin` event at that time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnModel {
    /// Peer is online; value is the scheduled leave time ([`SimTime::MAX`]
    /// when the configuration is static).
    Online {
        /// When the current session ends.
        until: SimTime,
    },
    /// Peer is offline; value is the scheduled rejoin time.
    Offline {
        /// When the peer comes back.
        until: SimTime,
    },
}

impl ChurnModel {
    /// Initializes a peer's churn state at time zero: online, with its
    /// first session drawn.
    pub fn start(cfg: &ChurnConfig, rng: &mut SimRng) -> ChurnModel {
        ChurnModel::Online {
            until: Self::session_end(cfg, SimTime::ZERO, rng),
        }
    }

    fn session_end(cfg: &ChurnConfig, now: SimTime, rng: &mut SimRng) -> SimTime {
        if cfg.is_static() {
            SimTime::MAX
        } else {
            now.saturating_add(cfg.session.sample(rng))
        }
    }

    /// Advances to the next state at its transition time.
    pub fn transition(&mut self, cfg: &ChurnConfig, rng: &mut SimRng) {
        *self = match *self {
            ChurnModel::Online { until } => ChurnModel::Offline {
                until: until.saturating_add(cfg.offline.sample(rng)),
            },
            ChurnModel::Offline { until } => ChurnModel::Online {
                until: Self::session_end(cfg, until, rng),
            },
        };
    }

    /// Whether the peer is currently online.
    pub fn is_online(&self) -> bool {
        matches!(self, ChurnModel::Online { .. })
    }

    /// The time of the next transition.
    pub fn next_transition(&self) -> SimTime {
        match *self {
            ChurnModel::Online { until } | ChurnModel::Offline { until } => until,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_config_never_leaves() {
        let cfg = ChurnConfig::none();
        let mut rng = SimRng::new(1);
        let m = ChurnModel::start(&cfg, &mut rng);
        assert!(m.is_online());
        assert_eq!(m.next_transition(), SimTime::MAX);
    }

    #[test]
    fn alternates_states() {
        let cfg = ChurnConfig {
            session: SessionDist::Fixed(10.0),
            offline: SessionDist::Fixed(5.0),
        };
        let mut rng = SimRng::new(2);
        let mut m = ChurnModel::start(&cfg, &mut rng);
        assert!(m.is_online());
        assert_eq!(m.next_transition(), SimTime::from_secs(10));
        m.transition(&cfg, &mut rng);
        assert!(!m.is_online());
        assert_eq!(m.next_transition(), SimTime::from_secs(15));
        m.transition(&cfg, &mut rng);
        assert!(m.is_online());
        assert_eq!(m.next_transition(), SimTime::from_secs(25));
    }

    #[test]
    fn exponential_sessions_have_expected_mean() {
        let d = SessionDist::Exponential { mean_secs: 30.0 };
        let mut rng = SimRng::new(4);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| d.sample(&mut rng).as_secs_f64())
            .sum::<f64>()
            / n as f64;
        assert!((mean - 30.0).abs() < 1.0, "mean {mean}");
    }
}
