//! Structured invariant-violation reporting for checked mode.
//!
//! The checked-mode oracle audits the simulator's state after every event
//! in *release* builds. Unlike the debug-only `assert_consistent` path it
//! never panics: each broken invariant becomes a [`Violation`] carrying
//! enough context to reproduce and bisect (event sequence number, sim
//! time, the invariant class, a human-readable detail line, and a fleet
//! state digest), and the run's violations are rolled up into an
//! [`OracleSummary`] attached to the final report.

use dvmp_simcore::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The invariant classes the oracle audits (DESIGN.md §9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Invariant {
    /// Per-dimension occupancy: every PM's reservation sum equals its
    /// `used` vector and stays within capacity — including the in-flight
    /// migration double-reservations.
    Capacity,
    /// VM ↔ PM mapping: the fleet index, the per-PM reservation sets and
    /// the VM lifecycle states all describe the same assignment.
    Bijection,
    /// Event time never decreases.
    TimeMonotone,
    /// Request conservation: every arrival is queued, active or completed
    /// — nothing duplicated, nothing lost.
    Conservation,
    /// The energy meter's integral matches an independent re-integration
    /// of the fleet's power draw.
    EnergyIntegral,
    /// The live fleet diverged from the reference model replaying the
    /// same event stream.
    ReferenceDivergence,
    /// An overbooked PM's occupancy exceeded its *virtual* capacity
    /// (physical capacity × overbook ratio) — admission control let a
    /// reservation through that even the overbooked envelope forbids.
    VirtualCapacity,
    /// The SLA meter's saturation integral (saturated-PM · seconds)
    /// diverged from an independent re-integration of the fleet's
    /// physical-saturation step function.
    SlaConservation,
    /// The spare-server controller's incremental count of departures due
    /// within a control period diverged from a full scan of the active
    /// VMs' estimated remaining times.
    DepartureCount,
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Invariant::Capacity => "capacity",
            Invariant::Bijection => "bijection",
            Invariant::TimeMonotone => "time-monotone",
            Invariant::Conservation => "conservation",
            Invariant::EnergyIntegral => "energy-integral",
            Invariant::ReferenceDivergence => "reference-divergence",
            Invariant::VirtualCapacity => "virtual-capacity",
            Invariant::SlaConservation => "sla-conservation",
            Invariant::DepartureCount => "departure-count",
        };
        f.write_str(name)
    }
}

/// One broken invariant, observed after one event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// 1-based sequence number of the event after which the check failed.
    pub seq: u64,
    /// Simulation time of that event.
    pub time: SimTime,
    /// Which invariant class failed.
    pub invariant: Invariant,
    /// Human-readable detail (which PM/VM, expected vs found).
    pub detail: String,
    /// Fleet state digest at the failure (`Datacenter::state_digest`).
    pub state_digest: u64,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[event #{} @ {}] {}: {} (digest {:016x})",
            self.seq, self.time, self.invariant, self.detail, self.state_digest
        )
    }
}

/// Checked-mode roll-up attached to a [`RunReport`](crate::RunReport).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OracleSummary {
    /// Events audited (one audit per dispatched event, plus the final
    /// end-of-run audit).
    pub events_audited: u64,
    /// Violations retained, in discovery order (capped — see
    /// `dropped_violations`).
    pub violations: Vec<Violation>,
    /// Violations beyond the retention cap (counted, not stored, so a
    /// catastrophically broken run cannot exhaust memory).
    pub dropped_violations: u64,
    /// Flight-recorder capture taken at the first violation: the last N
    /// trace records (with sim time, event ordinal and phase) leading up
    /// to the failure. `None` on clean runs or when obs recording was off
    /// (checked mode arms it automatically).
    #[serde(default)]
    pub flight_dump: Option<dvmp_obs::FlightDump>,
}

impl OracleSummary {
    /// Total violations observed (retained + dropped).
    pub fn total_violations(&self) -> u64 {
        self.violations.len() as u64 + self.dropped_violations
    }

    /// `true` when the run passed every audit.
    pub fn is_clean(&self) -> bool {
        self.total_violations() == 0
    }

    /// Multi-line rendering for CLI output and logs.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "oracle: {} events audited, {} violation(s)",
            self.events_audited,
            self.total_violations()
        );
        for v in &self.violations {
            let _ = writeln!(out, "  {v}");
        }
        if self.dropped_violations > 0 {
            let _ = writeln!(out, "  ... and {} more (dropped)", self.dropped_violations);
        }
        if let Some(dump) = &self.flight_dump {
            out.push_str(&dump.render(16));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violation() -> Violation {
        Violation {
            seq: 17,
            time: SimTime::from_secs(3_600),
            invariant: Invariant::Capacity,
            detail: "pm3 used 9 cores of 8".to_owned(),
            state_digest: 0xdead_beef,
        }
    }

    #[test]
    fn summary_accounting() {
        let clean = OracleSummary {
            events_audited: 100,
            violations: vec![],
            dropped_violations: 0,
            flight_dump: None,
        };
        assert!(clean.is_clean());
        assert_eq!(clean.total_violations(), 0);

        let dirty = OracleSummary {
            events_audited: 100,
            violations: vec![violation()],
            dropped_violations: 5,
            flight_dump: None,
        };
        assert!(!dirty.is_clean());
        assert_eq!(dirty.total_violations(), 6);
        let text = dirty.render();
        assert!(text.contains("capacity"), "{text}");
        assert!(text.contains("5 more"), "{text}");
    }

    #[test]
    fn violation_serializes_round_trip() {
        let v = violation();
        let json = serde_json::to_string(&v).unwrap();
        let back: Violation = serde_json::from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn display_carries_the_essentials() {
        let s = violation().to_string();
        assert!(s.contains("#17"), "{s}");
        assert!(s.contains("capacity"), "{s}");
        assert!(s.contains("00000000deadbeef"), "{s}");
    }
}
