//! The benchmark's workloads: each is one simulated week, replayed as a
//! batch from a request stream generated up front from the seed.

use dvmp::prelude::{
    DynamicPlacement, FirstFit, LpcProfile, PlacementPolicy, Scenario, SyntheticGenerator,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table II fleet under its own scheme.
    PaperWeek,
    /// 1 000 PMs, 150/120 overbooking, moderate elasticity, dynamic.
    Elastic1k,
    /// 10 000 PMs, dynamic.
    Scaled10k,
    /// 50 000 PMs under first-fit: no planning at all.
    FirstFit50k,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperWeek,
        Workload::Elastic1k,
        Workload::Scaled10k,
        Workload::FirstFit50k,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperWeek => "paper-week",
            Workload::Elastic1k => "elastic-1k-week",
            Workload::Scaled10k => "scaled-10k-week",
            Workload::FirstFit50k => "firstfit-50k-week",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Builds the workload's inputs: fleet, request stream and, for the
    /// elastic week, the resize overlay.
    pub fn scenario(self, seed: u64) -> Scenario {
        match self {
            Workload::PaperWeek => Scenario::paper(seed),
            Workload::Elastic1k => Scenario::overbooked_elastic(1_000, seed),
            Workload::Scaled10k => Scenario::scaled(10_000, seed),
            Workload::FirstFit50k => Scenario::scaled(50_000, seed),
        }
    }

    pub fn policy(self) -> Box<dyn PlacementPolicy> {
        match self {
            Workload::FirstFit50k => Box::new(FirstFit),
            _ => Box::new(DynamicPlacement::paper_default()),
        }
    }

    /// Generates the scenario's synthetic trace and converts it to VM
    /// requests, as [`Workload::scenario`] does, and returns the request
    /// count. This isolates the workload layer's share of set-up; the
    /// caller checks the count against the scenario's.
    pub fn generate_requests(self, seed: u64) -> usize {
        let mut profile = LpcProfile::paper_calibrated();
        let pm_count = match self {
            Workload::PaperWeek => None,
            Workload::Elastic1k => Some(1_000),
            Workload::Scaled10k => Some(10_000),
            Workload::FirstFit50k => Some(50_000),
        };
        // Mirrors the arrival scaling of `Scenario::scaled`.
        if let Some(pms) = pm_count {
            for d in &mut profile.daily_arrivals {
                *d *= pms as f64 / 915.0;
            }
        }
        let trace = SyntheticGenerator::new(profile, seed).generate();
        trace.to_vm_requests(1).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("paper"), None);
    }

    #[test]
    fn generated_requests_match_the_scenario() {
        for w in [Workload::PaperWeek, Workload::Elastic1k] {
            assert_eq!(w.generate_requests(7), w.scenario(7).requests().len());
        }
    }
}
