//! Machine topology: how many host and NxP cores, and where migrated
//! calls land.
//!
//! The paper's NxPs are many-core devices (tens of wimpy cores on a
//! SmartNIC), and migration *throughput* under concurrency — not just
//! one-shot latency — is the number that matters at scale. A
//! [`Topology`] configures the [`crate::Machine`] as N host cores × M
//! NxP cores; [`NxpPlacement`] decides which NxP serves each fresh
//! host→NxP call.

use std::fmt;

/// Core counts for a [`crate::Machine`]: `host_cores` symmetric host
/// cores and `nxp_cores` NxP cores, each NxP behind its own PCIe
/// descriptor channel.
///
/// The fields are private so every topology goes through
/// [`Topology::new`]'s check: a machine with no host core or no NxP
/// cannot be built.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Topology {
    host_cores: usize,
    nxp_cores: usize,
}

impl Topology {
    /// A topology with `host_cores` × `nxp_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics when either count is zero.
    pub fn new(host_cores: usize, nxp_cores: usize) -> Self {
        assert!(host_cores >= 1, "at least one host core");
        assert!(nxp_cores >= 1, "at least one NxP core");
        Topology {
            host_cores,
            nxp_cores,
        }
    }

    /// The classic 1×1 pair the paper measures; the default.
    pub fn single() -> Self {
        Topology::new(1, 1)
    }

    /// Number of host cores (≥ 1).
    pub fn host_cores(&self) -> usize {
        self.host_cores
    }

    /// Number of NxP cores / descriptor channels (≥ 1).
    pub fn nxp_cores(&self) -> usize {
        self.nxp_cores
    }
}

impl Default for Topology {
    fn default() -> Self {
        Topology::single()
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.host_cores, self.nxp_cores)
    }
}

/// Which NxP a fresh host→NxP call migrates to. Return legs always
/// follow the thread back to the NxP that holds its continuation, so
/// placement only applies to calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum NxpPlacement {
    /// Calls cycle through the NxPs in index order. Deterministic and
    /// oblivious; the default.
    #[default]
    RoundRobin,
    /// Each call goes to the NxP whose clock is furthest behind (ties
    /// toward the lowest index) — the device that has done the least
    /// simulated work so far.
    LeastLoaded,
}

impl fmt::Display for NxpPlacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NxpPlacement::RoundRobin => write!(f, "round-robin"),
            NxpPlacement::LeastLoaded => write!(f, "least-loaded"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_single() {
        assert_eq!(Topology::default(), Topology::new(1, 1));
        assert_eq!(Topology::new(2, 4).to_string(), "2x4");
        assert_eq!(NxpPlacement::default(), NxpPlacement::RoundRobin);
        assert_eq!(NxpPlacement::LeastLoaded.to_string(), "least-loaded");
    }

    #[test]
    fn getters_read_back_the_counts() {
        let t = Topology::new(3, 5);
        assert_eq!((t.host_cores(), t.nxp_cores()), (3, 5));
    }

    #[test]
    #[should_panic(expected = "at least one host core")]
    fn zero_hosts_rejected() {
        let _ = Topology::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one NxP core")]
    fn zero_nxps_rejected() {
        let _ = Topology::new(1, 0);
    }
}
