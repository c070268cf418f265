//! Spans recorded from outside the program.
//!
//! The traced run hands the simulator a [`TimedPolicy`] that wraps the
//! real placement policy and records one [`Span`] per call into the
//! placement layer, as a child of the run's root span. Spans stay in
//! memory and are written out once, when the benchmark ends.

use dvmp::prelude::{Migration, PlacementPolicy, PlacementView, PmId, VmSpec};
use dvmp_cluster::FleetDelta;
use std::cell::RefCell;
use std::io::{self, Write};
use std::rc::Rc;
use std::time::Instant;

/// The boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// One simulated run: `Simulation::new` plus `run`.
    Run,
    /// `PlacementPolicy::place`.
    Place,
    /// `PlacementPolicy::plan_migrations`.
    Plan,
    /// `PlacementPolicy::note_fleet_delta`.
    Delta,
}

impl SpanName {
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Run => "run",
            SpanName::Place => "placement.place",
            SpanName::Plan => "placement.plan",
            SpanName::Delta => "placement.delta",
        }
    }
}

/// One timed interval. Spans of one run share `run`; `parent` is the id
/// of the span that caused this one (`None` for a run's root).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub run: u32,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: SpanName,
    pub start_ns: u64,
    pub end_ns: u64,
    /// What the call returned: 1 if `place` found a host (0 = queued),
    /// the number of migrations `plan_migrations` proposed, else 0.
    pub outcome: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span store of one benchmark process.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    /// `(run, root span id, root start)` of the run being recorded.
    open_run: Option<(u32, u32, u64)>,
    runs: u32,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            open_run: None,
            runs: 0,
        }
    }
}

impl SpanLog {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn next_id(&self) -> u32 {
        self.spans.len() as u32 + u32::from(self.open_run.is_some()) + 1
    }

    /// Opens the root span of a new run and returns the run's id.
    pub fn begin_run(&mut self) -> u32 {
        assert!(self.open_run.is_none(), "runs do not nest");
        self.runs += 1;
        let id = self.next_id();
        self.open_run = Some((self.runs, id, self.now_ns()));
        self.runs
    }

    /// Closes the open run's root span.
    pub fn end_run(&mut self) {
        let (run, id, start_ns) = self.open_run.take().expect("a run is open");
        let end_ns = self.now_ns();
        self.spans.push(Span {
            run,
            id,
            parent: None,
            name: SpanName::Run,
            start_ns,
            end_ns,
            outcome: 0,
        });
    }

    fn child(&mut self, name: SpanName, start_ns: u64, outcome: u64) {
        let end_ns = self.now_ns();
        let (run, parent, _) = self.open_run.expect("placement calls happen inside a run");
        let id = self.next_id();
        self.spans.push(Span {
            run,
            id,
            parent: Some(parent),
            name,
            start_ns,
            end_ns,
            outcome,
        });
    }

    /// Every span of `run`, the root included.
    pub fn run_spans(&self, run: u32) -> Vec<Span> {
        self.spans
            .iter()
            .filter(|s| s.run == run)
            .copied()
            .collect()
    }

    /// Writes every closed span as CSV.
    pub fn write_csv(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "run,id,parent,name,start_ns,end_ns,outcome")?;
        for s in &self.spans {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                out,
                "{},{},{},{},{},{},{}",
                s.run,
                s.id,
                parent,
                s.name.as_str(),
                s.start_ns,
                s.end_ns,
                s.outcome
            )?;
        }
        Ok(())
    }
}

/// A placement policy that times every call into the wrapped policy.
/// It forwards every method unchanged, so the run's report is the one
/// the wrapped policy alone would produce.
pub struct TimedPolicy {
    inner: Box<dyn PlacementPolicy>,
    log: Rc<RefCell<SpanLog>>,
}

impl TimedPolicy {
    pub fn new(inner: Box<dyn PlacementPolicy>, log: Rc<RefCell<SpanLog>>) -> Self {
        TimedPolicy { inner, log }
    }

    fn start(&self) -> u64 {
        self.log.borrow().now_ns()
    }
}

impl PlacementPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn place(&mut self, view: &PlacementView<'_>, vm: &VmSpec) -> Option<PmId> {
        let start = self.start();
        let host = self.inner.place(view, vm);
        let placed = u64::from(host.is_some());
        self.log.borrow_mut().child(SpanName::Place, start, placed);
        host
    }

    fn plan_migrations(&mut self, view: &PlacementView<'_>) -> Vec<Migration> {
        let start = self.start();
        let plan = self.inner.plan_migrations(view);
        let proposed = plan.len() as u64;
        self.log.borrow_mut().child(SpanName::Plan, start, proposed);
        plan
    }

    fn is_dynamic(&self) -> bool {
        self.inner.is_dynamic()
    }

    fn note_fleet_delta(&mut self, delta: FleetDelta) {
        let start = self.start();
        self.inner.note_fleet_delta(delta);
        self.log.borrow_mut().child(SpanName::Delta, start, 0);
    }
}

/// Nanoseconds of `parent` that none of `children` covers: a layer's self
/// time. Children are clipped to the parent and overlaps count once.
pub fn self_time_ns(parent: &Span, children: &[Span]) -> u64 {
    let mut covered: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    covered.sort_unstable();
    let mut busy = 0;
    let mut reach = parent.start_ns;
    for (s, e) in covered {
        let s = s.max(reach);
        if e > s {
            busy += e - s;
            reach = e;
        }
    }
    parent.duration_ns() - busy
}

/// Per-layer figures of one traced run, derived from its spans alone.
#[derive(Debug, Clone, Default)]
pub struct RunLayers {
    pub run_ns: u64,
    pub core_self_ns: u64,
    pub place_ns: Vec<u64>,
    pub plan_ns: Vec<u64>,
    pub delta_ns: Vec<u64>,
    /// `place` calls that returned `None` (the request queued).
    pub queued: u64,
    /// `plan_migrations` calls that proposed at least one migration.
    pub useful_plans: u64,
    pub migrations_proposed: u64,
}

impl RunLayers {
    /// Summarizes one run's spans (as returned by [`SpanLog::run_spans`]).
    pub fn from_spans(spans: &[Span]) -> Self {
        let root = spans
            .iter()
            .find(|s| s.parent.is_none())
            .expect("a run has a root span");
        let children: Vec<Span> = spans
            .iter()
            .filter(|s| s.parent == Some(root.id))
            .copied()
            .collect();
        let mut out = RunLayers {
            run_ns: root.duration_ns(),
            core_self_ns: self_time_ns(root, &children),
            ..RunLayers::default()
        };
        for c in &children {
            match c.name {
                SpanName::Place => {
                    out.place_ns.push(c.duration_ns());
                    out.queued += u64::from(c.outcome == 0);
                }
                SpanName::Plan => {
                    out.plan_ns.push(c.duration_ns());
                    out.useful_plans += u64::from(c.outcome > 0);
                    out.migrations_proposed += c.outcome;
                }
                SpanName::Delta => out.delta_ns.push(c.duration_ns()),
                SpanName::Run => unreachable!("runs do not nest"),
            }
        }
        out
    }

    /// Time spent inside the placement layer.
    pub fn placement_ns(&self) -> u64 {
        [&self.place_ns, &self.plan_ns, &self.delta_ns]
            .iter()
            .flat_map(|v| v.iter())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: SpanName, start: u64, end: u64) -> Span {
        Span {
            run: 1,
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            outcome: 0,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let root = span(1, None, SpanName::Run, 100, 1_100);
        let kids = [
            span(2, Some(1), SpanName::Place, 200, 300),
            span(3, Some(1), SpanName::Plan, 500, 800),
        ];
        assert_eq!(self_time_ns(&root, &kids), 1_000 - 100 - 300);
    }

    #[test]
    fn self_time_counts_overlaps_once_and_clips_to_the_parent() {
        let root = span(1, None, SpanName::Run, 100, 1_100);
        let kids = [
            span(2, Some(1), SpanName::Plan, 50, 250), // clipped to 100..250
            span(3, Some(1), SpanName::Place, 200, 400), // overlaps the first
            span(4, Some(1), SpanName::Delta, 300, 350), // inside the second
            span(5, Some(1), SpanName::Place, 1_000, 1_500), // clipped to ..1_100
            span(6, Some(1), SpanName::Place, 2_000, 2_100), // outside
        ];
        // Covered: 100..400 and 1_000..1_100 = 400 ns.
        assert_eq!(self_time_ns(&root, &kids), 1_000 - 400);
        assert_eq!(self_time_ns(&root, &[]), 1_000);
    }

    #[test]
    fn run_layers_account_for_the_whole_run_span() {
        let mut place_queued = span(3, Some(1), SpanName::Place, 400, 450);
        place_queued.outcome = 0;
        let mut placed = span(2, Some(1), SpanName::Place, 100, 200);
        placed.outcome = 1;
        let mut plan = span(4, Some(1), SpanName::Plan, 500, 900);
        plan.outcome = 3;
        let idle_plan = span(5, Some(1), SpanName::Plan, 950, 960);
        let spans = [
            placed,
            place_queued,
            plan,
            idle_plan,
            span(1, None, SpanName::Run, 0, 1_000),
        ];
        let l = RunLayers::from_spans(&spans);
        assert_eq!(l.run_ns, 1_000);
        assert_eq!(l.placement_ns(), 100 + 50 + 400 + 10);
        assert_eq!(l.placement_ns() + l.core_self_ns, l.run_ns);
        assert_eq!((l.queued, l.useful_plans, l.migrations_proposed), (1, 1, 3));
    }

    #[test]
    fn span_log_assigns_the_run_root_as_parent() {
        let mut log = SpanLog::default();
        let run = log.begin_run();
        let start = log.now_ns();
        log.child(SpanName::Place, start, 1);
        log.end_run();
        let spans = log.run_spans(run);
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == SpanName::Run).unwrap();
        let place = spans.iter().find(|s| s.name == SpanName::Place).unwrap();
        assert_eq!(place.parent, Some(root.id));
        assert_ne!(place.id, root.id);
        assert!(root.start_ns <= place.start_ns && place.end_ns <= root.end_ns);
        let mut csv = Vec::new();
        log.write_csv(&mut csv).unwrap();
        assert_eq!(String::from_utf8(csv).unwrap().lines().count(), 3);
    }
}
