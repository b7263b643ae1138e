//! Experiment output.

use std::fmt;
use uap_net::HostId;

/// Everything the E4–E7 harnesses need from one Gnutella run.
#[derive(Clone, Debug, Default)]
pub struct GnutellaReport {
    /// Ping transmissions (the "Ping" row of Table 1).
    pub ping_msgs: u64,
    /// Pong transmissions.
    pub pong_msgs: u64,
    /// Query transmissions.
    pub query_msgs: u64,
    /// QueryHit transmissions.
    pub queryhit_msgs: u64,
    /// Queries issued by users.
    pub queries_issued: u64,
    /// Queries that returned at least one hit.
    pub queries_successful: u64,
    /// Completed downloads.
    pub downloads: u64,
    /// Downloads served from a same-AS provider.
    pub downloads_intra_as: u64,
    /// Mean time to first hit, milliseconds, over the timed queries: those
    /// with a hit whose path routes in the underlay when the query runs.
    pub mean_query_delay_ms: f64,
    /// Mean download duration, seconds.
    pub mean_download_secs: f64,
    /// Oracle queries spent on neighbor selection.
    pub oracle_queries: u64,
    /// RTT probe messages spent by latency-biased selection.
    pub probe_messages: u64,
    /// Final overlay edge snapshot.
    pub edges: Vec<(HostId, HostId)>,
    /// Fraction of *download* bytes that stayed intra-AS.
    pub download_locality: f64,
    /// Join events processed.
    pub joins: u64,
    /// Engine events processed.
    pub events: u64,
}

impl GnutellaReport {
    /// Total signalling messages (the sum Table 1 itemizes).
    pub fn total_msgs(&self) -> u64 {
        self.ping_msgs + self.pong_msgs + self.query_msgs + self.queryhit_msgs
    }

    /// Search success ratio.
    pub fn success_ratio(&self) -> f64 {
        if self.queries_issued == 0 {
            0.0
        } else {
            self.queries_successful as f64 / self.queries_issued as f64
        }
    }

    /// Intra-AS share of file exchanges (the §4 percentages).
    pub fn intra_as_exchange_pct(&self) -> f64 {
        if self.downloads == 0 {
            0.0
        } else {
            100.0 * self.downloads_intra_as as f64 / self.downloads as f64
        }
    }
}

impl fmt::Display for GnutellaReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "  Ping      {:>12}", self.ping_msgs)?;
        writeln!(f, "  Pong      {:>12}", self.pong_msgs)?;
        writeln!(f, "  Query     {:>12}", self.query_msgs)?;
        writeln!(f, "  QueryHit  {:>12}", self.queryhit_msgs)?;
        writeln!(
            f,
            "  search success {:.1}%  intra-AS exchange {:.2}%",
            100.0 * self.success_ratio(),
            self.intra_as_exchange_pct()
        )?;
        writeln!(
            f,
            "  mean first-hit delay {:.1} ms, mean download {:.1} s",
            self.mean_query_delay_ms, self.mean_download_secs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_ratios() {
        let r = GnutellaReport {
            ping_msgs: 10,
            pong_msgs: 20,
            query_msgs: 5,
            queryhit_msgs: 2,
            queries_issued: 10,
            queries_successful: 8,
            downloads: 4,
            downloads_intra_as: 1,
            ..Default::default()
        };
        assert_eq!(r.total_msgs(), 37);
        assert!((r.success_ratio() - 0.8).abs() < 1e-12);
        assert!((r.intra_as_exchange_pct() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_zero_not_nan() {
        let r = GnutellaReport::default();
        assert_eq!(r.success_ratio(), 0.0);
        assert_eq!(r.intra_as_exchange_pct(), 0.0);
        let s = r.to_string();
        assert!(s.contains("Ping"));
    }
}
