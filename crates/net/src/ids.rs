//! Typed identifiers for underlay entities.

use std::fmt;

/// An Autonomous System (ISP) identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct AsId(pub u16);

impl AsId {
    /// The AS id as a `usize` index.
    pub fn idx(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a dense `usize` index, checking the `u16` bound.
    ///
    /// Topology generators and sweeps iterate ASes by dense index; this
    /// is the single audited narrowing from that index to the id width,
    /// replacing scattered `as u16` truncations that would silently wrap
    /// past 65 535 ASes.
    #[expect(clippy::expect_used, reason = "the explicit bound check is the point")]
    pub fn from_index(i: usize) -> AsId {
        AsId(u16::try_from(i).expect("AS index exceeds u16::MAX"))
    }
}

impl fmt::Display for AsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// An end-host (peer) identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct HostId(pub u32);

impl HostId {
    /// The host id as a `usize` index.
    pub fn idx(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a dense `usize` index, checking the `u32` bound.
    ///
    /// Million-host populations are indexed by `usize`; this is the
    /// single audited narrowing to the id width — a wrap here would
    /// alias two distinct hosts, so the bound is checked, not assumed.
    #[expect(clippy::expect_used, reason = "the explicit bound check is the point")]
    pub fn from_index(i: usize) -> HostId {
        HostId(u32::try_from(i).expect("host index exceeds u32::MAX"))
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_idx() {
        assert_eq!(AsId(3).to_string(), "AS3");
        assert_eq!(AsId(3).idx(), 3);
        assert_eq!(HostId(42).to_string(), "h42");
        assert_eq!(HostId(42).idx(), 42);
    }

    #[test]
    fn from_index_round_trips() {
        assert_eq!(AsId::from_index(7), AsId(7));
        assert_eq!(AsId::from_index(u16::MAX as usize), AsId(u16::MAX));
        assert_eq!(HostId::from_index(1_000_000), HostId(1_000_000));
        assert_eq!(HostId::from_index(u32::MAX as usize), HostId(u32::MAX));
    }

    #[test]
    #[should_panic(expected = "AS index exceeds u16::MAX")]
    fn as_from_index_checks_the_bound() {
        let _ = AsId::from_index(u16::MAX as usize + 1);
    }

    #[test]
    #[should_panic(expected = "host index exceeds u32::MAX")]
    fn host_from_index_checks_the_bound() {
        let _ = HostId::from_index(u32::MAX as usize + 1);
    }
}
