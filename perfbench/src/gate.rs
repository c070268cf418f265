//! The correctness gate every measured run passes through.
//!
//! A run is correct when its report is byte-identical to the checked
//! reference run's report (a run with the invariant oracle on and zero
//! violations), with the attachment-only sections left out, and — for
//! seed 42 — when its fingerprint equals the one pinned below.

use crate::workload::Workload;
use dvmp::prelude::RunReport;

/// The seed whose outputs are pinned.
pub const PINNED_SEED: u64 = 42;

/// The report serialized without the sections that legitimately differ
/// between a plain, a traced and a checked run of the same inputs:
/// `oracle`, `obs`, `timeseries` and `meta`.
pub fn canonical(report: &RunReport) -> String {
    let mut r = report.clone();
    r.oracle = None;
    r.obs = None;
    r.timeseries = None;
    r.meta = None;
    serde_json::to_string(&r).expect("a run report always serializes")
}

/// The headline outputs of one run: energy, migrations, arrivals and QoS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fingerprint {
    pub energy_kwh: f64,
    pub migrations: u64,
    pub arrivals: u64,
    pub waited_requests: u64,
    pub never_started: u64,
}

impl Fingerprint {
    pub fn of(report: &RunReport) -> Self {
        Fingerprint {
            energy_kwh: report.total_energy_kwh,
            migrations: report.total_migrations,
            arrivals: report.total_arrivals,
            waited_requests: report.qos.waited_requests,
            never_started: report.qos.never_started,
        }
    }

    /// Names of the fields where `self` differs from `expected`; energy
    /// must match to the bit, since runs are bit-deterministic.
    pub fn mismatches(&self, expected: &Fingerprint) -> Vec<&'static str> {
        let mut out = Vec::new();
        if self.energy_kwh.to_bits() != expected.energy_kwh.to_bits() {
            out.push("energy_kwh");
        }
        if self.migrations != expected.migrations {
            out.push("migrations");
        }
        if self.arrivals != expected.arrivals {
            out.push("arrivals");
        }
        if self.waited_requests != expected.waited_requests {
            out.push("waited_requests");
        }
        if self.never_started != expected.never_started {
            out.push("never_started");
        }
        out
    }
}

/// The pinned seed-42 outputs of each workload.
pub fn pinned(workload: Workload) -> Fingerprint {
    match workload {
        Workload::PaperWeek => Fingerprint {
            energy_kwh: 2849.5903333333335,
            migrations: 2565,
            arrivals: 4464,
            waited_requests: 18,
            never_started: 0,
        },
        Workload::Elastic1k => Fingerprint {
            energy_kwh: 2013.7506222222223,
            migrations: 1091,
            arrivals: 4945,
            waited_requests: 0,
            never_started: 0,
        },
        Workload::Scaled10k => Fingerprint {
            energy_kwh: 27391.579066666665,
            migrations: 4507,
            arrivals: 50068,
            waited_requests: 0,
            never_started: 0,
        },
        Workload::FirstFit50k => Fingerprint {
            energy_kwh: 172380.68535555556,
            migrations: 0,
            arrivals: 250171,
            waited_requests: 0,
            never_started: 0,
        },
    }
}

/// Why one run fails the gate, or `None` when it passes. `reference` is
/// the checked run's canonical report.
pub fn check_run(
    workload: Workload,
    seed: u64,
    report: &RunReport,
    reference: &str,
) -> Option<String> {
    if canonical(report) != reference {
        return Some("report differs from the checked reference run".into());
    }
    if seed == PINNED_SEED {
        let bad = Fingerprint::of(report).mismatches(&pinned(workload));
        if !bad.is_empty() {
            return Some(format!("seed-42 fingerprint mismatch: {}", bad.join(", ")));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvmp::prelude::{FirstFit, Scenario};

    fn day_report() -> RunReport {
        Scenario::paper(PINNED_SEED)
            .with_days(1)
            .run(Box::new(FirstFit))
    }

    #[test]
    fn fingerprint_rejects_one_perturbed_field() {
        let base = Fingerprint::of(&day_report());
        assert!(base.mismatches(&base).is_empty());
        let perturbed = [
            (
                Fingerprint {
                    energy_kwh: f64::from_bits(base.energy_kwh.to_bits() + 1),
                    ..base
                },
                "energy_kwh",
            ),
            (
                Fingerprint {
                    migrations: base.migrations + 1,
                    ..base
                },
                "migrations",
            ),
            (
                Fingerprint {
                    arrivals: base.arrivals - 1,
                    ..base
                },
                "arrivals",
            ),
            (
                Fingerprint {
                    waited_requests: base.waited_requests + 1,
                    ..base
                },
                "waited_requests",
            ),
            (
                Fingerprint {
                    never_started: base.never_started + 1,
                    ..base
                },
                "never_started",
            ),
        ];
        for (fp, field) in perturbed {
            assert_eq!(fp.mismatches(&base), vec![field]);
        }
    }

    #[test]
    fn canonical_ignores_attachments_but_not_outputs() {
        let report = day_report();
        let reference = canonical(&report);
        let mut with_meta = report.clone();
        with_meta.meta = None;
        assert_eq!(canonical(&with_meta), reference);

        let mut moved = report.clone();
        moved.hourly_active_servers[3] += 1e-9;
        assert_ne!(canonical(&moved), reference);
        assert!(check_run(Workload::PaperWeek, 7, &moved, &reference).is_some());
        assert!(check_run(Workload::PaperWeek, 7, &report, &reference).is_none());
    }

    #[test]
    fn seed_42_runs_must_also_match_the_pin() {
        // A report that agrees with its reference but not with the pin.
        let report = day_report();
        let reference = canonical(&report);
        let why = check_run(Workload::PaperWeek, PINNED_SEED, &report, &reference)
            .expect("a one-day report does not match the week's pin");
        assert!(why.contains("energy_kwh"), "{why}");
    }
}
