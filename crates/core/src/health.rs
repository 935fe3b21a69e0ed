//! Per-NxP health tracking and the failover circuit breaker.
//!
//! The host cannot see a device die — it can only observe symptoms:
//! descriptors that never get picked up, retransmit budgets that
//! exhaust, a presence-detect bit that reads zero at a doorbell write.
//! The [`HealthMonitor`] turns those observations into a per-NxP
//! liveness verdict with circuit-breaker semantics:
//!
//! * **Closed** — healthy, in normal placement rotation.
//! * **Open** — declared dead. No new work is placed on it; in-flight
//!   descriptors are reaped and victims re-placed.
//! * **HalfOpen** — the device rejoined (presence detect came back).
//!   Exactly one probe migration is allowed through; success closes
//!   the breaker, failure re-opens it.
//!
//! The monitor is driven entirely by *observed* events on the
//! deterministic simulation timeline — never by peeking at the fault
//! schedule — so failover decisions replay bit-identically and the
//! detection latency (retry budget × back-off) is itself part of the
//! modelled cost.

use flick_sim::Picos;

/// Circuit-breaker state for one NxP.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: placement uses this NxP normally.
    #[default]
    Closed,
    /// Declared dead: excluded from placement until it rejoins.
    Open,
    /// Rejoined, unproven: one probe migration may be routed here.
    HalfOpen,
}

/// Health record for one NxP.
#[derive(Clone, Copy, Debug, Default)]
pub struct NxpHealth {
    /// Current breaker state.
    pub breaker: BreakerState,
    /// Consecutive delivery failures since the last successful
    /// descriptor/MSI activity.
    pub consecutive_failures: u32,
    /// Simulated time of the last observed sign of life (descriptor
    /// pickup or MSI).
    pub last_activity: Picos,
    /// How many times this NxP has been declared dead.
    pub deaths: u64,
    /// How many times its breaker closed again after a probe.
    pub recoveries: u64,
}

/// Heartbeat/liveness tracker for the NxP fleet.
#[derive(Clone, Debug)]
pub struct HealthMonitor {
    nxps: Vec<NxpHealth>,
}

impl HealthMonitor {
    /// A monitor for `nxps` devices, all initially healthy.
    pub fn new(nxps: usize) -> Self {
        HealthMonitor {
            nxps: vec![NxpHealth::default(); nxps],
        }
    }

    /// Number of tracked NxPs.
    pub fn len(&self) -> usize {
        self.nxps.len()
    }

    /// True when the monitor tracks no NxPs.
    pub fn is_empty(&self) -> bool {
        self.nxps.is_empty()
    }

    /// The health record of NxP `nxp`.
    pub fn health(&self, nxp: usize) -> &NxpHealth {
        &self.nxps[nxp]
    }

    /// Breaker state of NxP `nxp`.
    pub fn state(&self, nxp: usize) -> BreakerState {
        self.nxps[nxp].breaker
    }

    /// True when NxP `nxp` is declared dead.
    pub fn is_open(&self, nxp: usize) -> bool {
        self.nxps[nxp].breaker == BreakerState::Open
    }

    /// A sign of life from NxP `nxp` at time `at`: a descriptor pickup
    /// or MSI. Resets the failure streak; a successful round on a
    /// half-open breaker closes it (probe success).
    pub fn note_activity(&mut self, nxp: usize, at: Picos) {
        let h = &mut self.nxps[nxp];
        h.consecutive_failures = 0;
        h.last_activity = h.last_activity.max(at);
        if h.breaker == BreakerState::HalfOpen {
            h.breaker = BreakerState::Closed;
            h.recoveries += 1;
        }
    }

    /// A delivery failure toward NxP `nxp`; returns the updated streak.
    pub fn note_failure(&mut self, nxp: usize) -> u32 {
        let h = &mut self.nxps[nxp];
        h.consecutive_failures = h.consecutive_failures.saturating_add(1);
        h.consecutive_failures
    }

    /// Declares NxP `nxp` dead: breaker opens, placement stops routing
    /// work here. Idempotent.
    pub fn declare_dead(&mut self, nxp: usize) {
        let h = &mut self.nxps[nxp];
        if h.breaker != BreakerState::Open {
            h.breaker = BreakerState::Open;
            h.deaths += 1;
        }
    }

    /// Presence detect came back for a dead NxP: breaker goes
    /// half-open, admitting one probe. No-op unless currently open.
    pub fn rejoin(&mut self, nxp: usize) {
        let h = &mut self.nxps[nxp];
        if h.breaker == BreakerState::Open {
            h.breaker = BreakerState::HalfOpen;
            h.consecutive_failures = 0;
        }
    }

    /// NxP indices eligible for placement: breaker not open, in index
    /// order (deterministic).
    pub fn live(&self) -> impl Iterator<Item = usize> + '_ {
        self.nxps
            .iter()
            .enumerate()
            .filter(|(_, h)| h.breaker != BreakerState::Open)
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_lifecycle() {
        let mut hm = HealthMonitor::new(2);
        assert_eq!(hm.state(1), BreakerState::Closed);
        assert_eq!(hm.live().collect::<Vec<_>>(), vec![0, 1]);

        assert_eq!(hm.note_failure(1), 1);
        assert_eq!(hm.note_failure(1), 2);
        hm.declare_dead(1);
        assert!(hm.is_open(1));
        assert_eq!(hm.health(1).deaths, 1);
        assert_eq!(hm.live().collect::<Vec<_>>(), vec![0]);

        // Idempotent death.
        hm.declare_dead(1);
        assert_eq!(hm.health(1).deaths, 1);

        // Rejoin admits one probe; activity on the half-open breaker
        // closes it.
        hm.rejoin(1);
        assert_eq!(hm.state(1), BreakerState::HalfOpen);
        assert_eq!(hm.health(1).consecutive_failures, 0);
        assert_eq!(hm.live().count(), 2);
        hm.note_activity(1, Picos::from_micros(10));
        assert_eq!(hm.state(1), BreakerState::Closed);
        assert_eq!(hm.health(1).recoveries, 1);
    }

    #[test]
    fn rejoin_is_a_noop_when_not_dead() {
        let mut hm = HealthMonitor::new(1);
        hm.rejoin(0);
        assert_eq!(hm.state(0), BreakerState::Closed);
    }

    #[test]
    fn activity_resets_failure_streak() {
        let mut hm = HealthMonitor::new(1);
        hm.note_failure(0);
        hm.note_failure(0);
        hm.note_activity(0, Picos::from_nanos(5));
        assert_eq!(hm.health(0).consecutive_failures, 0);
        assert_eq!(hm.health(0).last_activity, Picos::from_nanos(5));
        // Out-of-order activity cannot move last_activity backwards.
        hm.note_activity(0, Picos::from_nanos(3));
        assert_eq!(hm.health(0).last_activity, Picos::from_nanos(5));
    }
}
