//! # dvmp-obs — flight-recorder observability for the dvmp stack
//!
//! A structured tracing facade, lock-free flight-recorder ring, phase
//! profiler and live counter bank, shared by every crate in the workspace.
//! Nothing here ever influences simulation results: the instrumented
//! crates only *report* through this crate, and the whole layer is
//! zero-cost-when-disabled — every instrumentation site reduces to one
//! relaxed atomic load and a predictable branch (see DESIGN.md §10 for
//! the cost model).
//!
//! Three independent switches, all off by default:
//!
//! | switch | gates | enabled by |
//! |---|---|---|
//! | [`set_enabled`] | records + counters | `--obs-summary`, checked mode |
//! | [`set_profiling`] | phase span timers | `--obs-summary`, `perf_report` |
//! | [`set_span_capture`] | chrome-trace span log (implies profiling) | `--trace-out` |
//!
//! Emit with the [`event!`] and [`span!`] macros (or the typed `note_*`
//! helpers the workspace crates use), drain with [`drain_records`], and
//! capture a [`FlightDump`] on failure with [`capture_flight_dump`].
//!
//! All state is process-global. That is deliberate: the simulator core
//! stays signature-stable (no context threaded through `World::handle`),
//! and a crash dump can always see every thread's last records. The cost
//! is that counters are cumulative across runs in one process — consumers
//! wanting per-run numbers diff [`CounterSnapshot`]s.

mod counters;
mod dump;
mod profile;
mod record;
mod ring;
mod timeseries;

pub use counters::{counters, counters_snapshot, CounterSnapshot, Counters};
pub use dump::{capture_flight_dump, DumpHeader, DumpRecord, FlightDump};
pub use profile::{
    chrome_trace_json, phase_histograms, profile_report, span_guard, PhaseHistogram, PhaseProfile,
    ProfileReport, SpanGuard, PROFILE_BUCKETS,
};
pub use record::{Phase, Record, RecordKind, PHASE_COUNT};
pub use ring::{
    drain_records, records_emitted, ring_capacity, set_ring_capacity, DEFAULT_RING_CAPACITY,
};
pub use timeseries::{
    add_sampling_ns, lint_openmetrics, log2_bucket_quantile, sampling_ns, scrape_global,
    GlobalMetrics, MetricsSource, OpenMetricsEncoder, TierSeries, TimeSeriesReport,
    TimeSeriesStore, CONSOLIDATION, DEFAULT_TIER_CAPACITY, LATENCY_QUANTILES,
};

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static RECORDING: AtomicBool = AtomicBool::new(false);
static PROFILING: AtomicBool = AtomicBool::new(false);
static SPAN_CAPTURE: AtomicBool = AtomicBool::new(false);

/// Gauges mirrored from the engine at every dispatch so records emitted
/// anywhere in the stack carry the simulation's current position.
static SIM_TIME_S: AtomicU64 = AtomicU64::new(0);
static EVENT_ORDINAL: AtomicU64 = AtomicU64::new(0);

/// Is record/counter emission on? The single branch every disabled-path
/// instrumentation site pays.
#[inline(always)]
pub fn enabled() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Is the phase profiler on?
#[inline(always)]
pub fn profiling_enabled() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

/// Is full span capture (chrome trace) on?
#[inline(always)]
pub fn span_capture_enabled() -> bool {
    SPAN_CAPTURE.load(Ordering::Relaxed)
}

/// Turn record + counter emission on or off (process-global, sticky).
pub fn set_enabled(on: bool) {
    RECORDING.store(on, Ordering::SeqCst);
}

/// Turn the phase profiler on or off.
pub fn set_profiling(on: bool) {
    PROFILING.store(on, Ordering::SeqCst);
}

/// Turn chrome-trace span capture on or off. Enabling implies profiling
/// (spans must be timed to be captured); disabling leaves profiling as-is.
pub fn set_span_capture(on: bool) {
    if on {
        PROFILING.store(true, Ordering::SeqCst);
    }
    SPAN_CAPTURE.store(on, Ordering::SeqCst);
}

/// Current simulation time gauge (whole seconds).
#[inline]
pub fn sim_time_s() -> u64 {
    SIM_TIME_S.load(Ordering::Relaxed)
}

/// Current engine event ordinal gauge (1-based; 0 before the first event).
#[inline]
pub fn event_ordinal() -> u64 {
    EVENT_ORDINAL.load(Ordering::Relaxed)
}

/// Clear counters, ring contents, histograms and captured spans. Gauges
/// reset too; the global stamp keeps counting (monotone forever). Only
/// meaningful while emitters are quiescent — a test/bench affordance.
pub fn reset() {
    counters().reset();
    ring::reset();
    profile::reset();
    SIM_TIME_S.store(0, Ordering::SeqCst);
    EVENT_ORDINAL.store(0, Ordering::SeqCst);
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

/// Small dense id for the calling thread (assigned on first use; shared
/// by ring segments and captured spans).
pub(crate) fn thread_tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Write one record carrying the current gauges and thread phase. Callers
/// are expected to have checked [`enabled`] (the macros and `note_*`
/// helpers do); calling it unconditionally is allowed, just not free.
#[inline]
pub fn emit(kind: RecordKind, a: u64, b: u64) {
    ring::emit(
        kind,
        profile::current_phase(),
        SIM_TIME_S.load(Ordering::Relaxed),
        EVENT_ORDINAL.load(Ordering::Relaxed),
        a,
        b,
    );
}

/// Emit a structured trace record if recording is enabled.
///
/// ```
/// dvmp_obs::event!(dvmp_obs::RecordKind::Mark, 7u64, 9u64);
/// ```
#[macro_export]
macro_rules! event {
    ($kind:expr) => {
        $crate::event!($kind, 0u64, 0u64)
    };
    ($kind:expr, $a:expr) => {
        $crate::event!($kind, $a, 0u64)
    };
    ($kind:expr, $a:expr, $b:expr) => {
        if $crate::enabled() {
            $crate::emit($kind, $a as u64, $b as u64);
        }
    };
}

/// Open a phase span, timed until the returned guard drops. Binds to a
/// named local — `let _span = span!(...)` — because `let _ =` would drop
/// immediately.
///
/// ```
/// let _span = dvmp_obs::span!(dvmp_obs::Phase::MatrixBuild);
/// ```
#[macro_export]
macro_rules! span {
    ($phase:expr) => {
        $crate::span_guard($phase)
    };
}

// ---------------------------------------------------------------------------
// Typed wire points. Each is the one-line instrumentation call a workspace
// crate makes; each pays exactly one `enabled()` branch when off.
// ---------------------------------------------------------------------------

/// Engine hook at every event dispatch: refresh the (time, ordinal)
/// gauges, count, and lay down the dispatch record (`pending` = events
/// still queued).
#[inline]
pub fn note_dispatch(time_s: u64, ordinal: u64, pending: u64) {
    if !enabled() {
        return;
    }
    SIM_TIME_S.store(time_s, Ordering::Relaxed);
    EVENT_ORDINAL.store(ordinal, Ordering::Relaxed);
    counters().events_dispatched.fetch_add(1, Ordering::Relaxed);
    emit(RecordKind::EventDispatched, pending, 0);
}

/// Fleet mutation: VM placed.
#[inline]
pub fn note_vm_placed(vm: u64, pm: u64) {
    if enabled() {
        counters().vms_placed.fetch_add(1, Ordering::Relaxed);
        emit(RecordKind::VmPlaced, vm, pm);
    }
}

/// Fleet mutation: VM removed (`hosts` = PMs it was resident/reserved on).
#[inline]
pub fn note_vm_removed(vm: u64, hosts: u64) {
    if enabled() {
        counters().vms_removed.fetch_add(1, Ordering::Relaxed);
        emit(RecordKind::VmRemoved, vm, hosts);
    }
}

/// Fleet mutation: migration double-reservation opened.
#[inline]
pub fn note_migration_started(vm: u64, to_pm: u64) {
    if enabled() {
        counters()
            .migrations_started
            .fetch_add(1, Ordering::Relaxed);
        emit(RecordKind::MigrationStarted, vm, to_pm);
    }
}

/// Fleet mutation: migration committed, source reservation released.
#[inline]
pub fn note_migration_finished(vm: u64, from_pm: u64) {
    if enabled() {
        counters()
            .migrations_finished
            .fetch_add(1, Ordering::Relaxed);
        emit(RecordKind::MigrationFinished, vm, from_pm);
    }
}

/// Fleet mutation: VM reservation resized in place (vertical elasticity).
#[inline]
pub fn note_vm_resized(vm: u64, pm: u64) {
    if enabled() {
        counters().vms_resized.fetch_add(1, Ordering::Relaxed);
        emit(RecordKind::VmResized, vm, pm);
    }
}

/// Planned migration aborted by a PM failure while in flight.
#[inline]
pub fn note_migration_aborted(vm: u64) {
    if enabled() {
        counters()
            .migrations_aborted
            .fetch_add(1, Ordering::Relaxed);
        emit(RecordKind::MigrationAborted, vm, 0);
    }
}

/// Planned migration dropped by the pre-apply validity check.
#[inline]
pub fn note_migration_skipped(vm: u64) {
    if enabled() {
        counters()
            .migrations_skipped
            .fetch_add(1, Ordering::Relaxed);
        emit(RecordKind::MigrationSkipped, vm, 0);
    }
}

/// Fleet mutation: PM failed, displacing `displaced` VMs.
#[inline]
pub fn note_pm_failed(pm: u64, displaced: u64) {
    if enabled() {
        counters().pm_failures.fetch_add(1, Ordering::Relaxed);
        emit(RecordKind::PmFailed, pm, displaced);
    }
}

/// Fleet-delta journal drained and handed to the planner. `None` means
/// the journal had overflowed to "full" (planner must rebuild).
#[inline]
pub fn note_journal_drained(dirty: Option<(u64, u64)>) {
    if !enabled() {
        return;
    }
    let c = counters();
    c.journal_drains.fetch_add(1, Ordering::Relaxed);
    match dirty {
        Some((pms, vms)) => {
            c.journal_dirty_pms.fetch_add(pms, Ordering::Relaxed);
            c.journal_dirty_vms.fetch_add(vms, Ordering::Relaxed);
            c.journal_dirty_pms_gauge.store(pms, Ordering::Relaxed);
            emit(RecordKind::JournalDrained, pms, vms);
        }
        None => {
            c.journal_full_drains.fetch_add(1, Ordering::Relaxed);
            emit(RecordKind::JournalDrained, u64::MAX, u64::MAX);
        }
    }
}

/// Planning pass kernel choice: the incremental delta kernel patched
/// `dirty_rows`×`dirty_cols` of the persistent matrix (one warm-cache hit).
#[inline]
pub fn note_plan_kernel_delta(dirty_rows: u64, dirty_cols: u64) {
    if enabled() {
        let c = counters();
        c.plan_passes_delta.fetch_add(1, Ordering::Relaxed);
        c.matrix_cache_hits.fetch_add(1, Ordering::Relaxed);
        emit(RecordKind::PlanKernelDelta, dirty_rows, dirty_cols);
    }
}

/// Planning pass kernel choice: fresh full rebuild of a `rows`×`cols` matrix.
#[inline]
pub fn note_plan_kernel_fresh(rows: u64, cols: u64) {
    if enabled() {
        counters().plan_passes_fresh.fetch_add(1, Ordering::Relaxed);
        emit(RecordKind::PlanKernelFresh, rows, cols);
    }
}

/// Dirty-set size computed at delta-kernel entry.
#[inline]
pub fn note_plan_dirty_set(dirty_rows: u64, dirty_cols: u64) {
    if enabled() {
        emit(RecordKind::PlanDirtySet, dirty_rows, dirty_cols);
    }
}

/// Planning pass kernel choice: the class-compressed planner served the
/// whole pass (`rows`×`cols` in play, never materialized densely).
#[inline]
pub fn note_plan_kernel_compressed(rows: u64, cols: u64) {
    if enabled() {
        counters()
            .plan_passes_compressed
            .fetch_add(1, Ordering::Relaxed);
        emit(RecordKind::PlanKernelCompressed, rows, cols);
    }
}

/// Compressed journal patch applied: `rows` re-synced, `cols` exactly
/// refreshed.
#[inline]
pub fn note_compressed_patch(rows: u64, cols: u64) {
    if enabled() {
        let c = counters();
        c.compressed_patch_rows.fetch_add(rows, Ordering::Relaxed);
        c.compressed_patch_cols.fetch_add(cols, Ordering::Relaxed);
    }
}

/// A compressed patch's bound raises walked `cols` columns above the
/// migration threshold into the hot set.
#[inline]
pub fn note_compressed_raise(cols: u64) {
    if enabled() {
        counters()
            .compressed_raise_cols
            .fetch_add(cols, Ordering::Relaxed);
    }
}

/// A compressed pass's bound stages examined `cols` hot columns.
#[inline]
pub fn note_compressed_bound_scan(cols: u64) {
    if enabled() {
        counters()
            .compressed_bound_scan_cols
            .fetch_add(cols, Ordering::Relaxed);
    }
}

/// A compressed pass's bound scan found a genuine threshold exceeder and
/// entered Algorithm 1's round loop.
#[inline]
pub fn note_compressed_rounds_entered() {
    if enabled() {
        counters()
            .compressed_round_passes
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// The compressed planner poisoned itself (registry cap or structural
/// mismatch) and the dense kernel takes over; `sclasses`/`demands` are the
/// registry sizes at the moment of the trip.
#[inline]
pub fn note_compressed_poisoned(sclasses: u64, demands: u64) {
    if enabled() {
        counters()
            .compressed_poisons
            .fetch_add(1, Ordering::Relaxed);
        emit(RecordKind::CompressedPoisoned, sclasses, demands);
    }
}

/// Reason codes for [`note_plan_rebuild_fallback`].
pub const FALLBACK_DIRTY_FRACTION: u64 = 0;
pub const FALLBACK_SWEEP_REFUSED: u64 = 1;

/// A delta-eligible pass fell back to a fresh rebuild.
#[inline]
pub fn note_plan_rebuild_fallback(reason: u64) {
    if enabled() {
        counters()
            .plan_rebuild_fallbacks
            .fetch_add(1, Ordering::Relaxed);
        emit(RecordKind::PlanRebuildFallback, reason, 0);
    }
}

/// Spare-server controller decision.
#[inline]
pub fn note_spare_decision(n_arrival: u64, spare: u64) {
    if enabled() {
        let c = counters();
        c.spare_decisions.fetch_add(1, Ordering::Relaxed);
        c.spare_servers_gauge.store(spare, Ordering::Relaxed);
        emit(RecordKind::SpareDecision, n_arrival, spare);
    }
}

/// Checked-mode oracle flagged `count` violations at event `seq`.
#[inline]
pub fn note_oracle_violation(seq: u64, count: u64) {
    if enabled() {
        counters()
            .oracle_violations
            .fetch_add(count, Ordering::Relaxed);
        emit(RecordKind::OracleViolation, seq, count);
    }
}

// ---------------------------------------------------------------------------
// Run metadata: self-describing report stamps (seed and schema come from
// the callers; git sha and host threads are process facts cached here).
// ---------------------------------------------------------------------------

/// Short git commit sha of the working tree, for stamping reports and
/// bench-history entries. Resolution order: `DVMP_GIT_SHA` env override,
/// then `git rev-parse --short=12 HEAD`, else `"unknown"` (e.g. a tarball
/// build). Cached for the process lifetime.
pub fn git_sha() -> &'static str {
    static SHA: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    SHA.get_or_init(|| {
        if let Ok(sha) = std::env::var("DVMP_GIT_SHA") {
            let sha = sha.trim().to_string();
            if !sha.is_empty() {
                return sha;
            }
        }
        std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    })
}

/// Available host hardware threads (1 if undetectable).
pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Serializes tests (and downstream integration tests) that flip the
/// process-global switches or assert on ring/counter contents.
pub fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// Emit `n` marks from a brand-new thread so the test owns a fresh
    /// segment, and return that segment's tid (read back from the drain).
    fn emit_on_fresh_thread(n: u64, marker: u64) -> u64 {
        let handle = std::thread::spawn(move || {
            for i in 0..n {
                event!(RecordKind::Mark, marker, i);
            }
            thread_tid()
        });
        handle.join().expect("emitter thread panicked")
    }

    #[test]
    fn disabled_emission_is_dropped() {
        let _lock = test_lock();
        set_enabled(false);
        let tid = emit_on_fresh_thread(10, 0xD15A);
        let seen = drain_records().iter().filter(|r| r.tid == tid).count();
        assert_eq!(seen, 0, "disabled event! must not write the ring");
    }

    #[test]
    fn wrap_around_overwrites_oldest_first() {
        let _lock = test_lock();
        set_enabled(true);
        set_ring_capacity(64);
        let tid = emit_on_fresh_thread(100, 0xCAFE);
        set_ring_capacity(DEFAULT_RING_CAPACITY);
        set_enabled(false);

        let mine: Vec<Record> = drain_records()
            .into_iter()
            .filter(|r| r.tid == tid)
            .collect();
        assert_eq!(mine.len(), 64, "segment retains exactly its capacity");
        // The 36 oldest records (b = 0..36) were overwritten; survivors are
        // the last 64 in emission order.
        let bs: Vec<u64> = mine.iter().map(|r| r.b).collect();
        assert_eq!(
            bs,
            (36..100).collect::<Vec<u64>>(),
            "oldest-first overwrite"
        );
        assert!(
            mine.windows(2).all(|w| w[0].stamp < w[1].stamp),
            "stamps monotone"
        );
        assert!(mine
            .iter()
            .all(|r| r.kind == RecordKind::Mark && r.a == 0xCAFE));
    }

    #[test]
    fn multi_thread_drain_merges_deterministically() {
        let _lock = test_lock();
        set_enabled(true);
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 500;
        let barrier = std::sync::Arc::new(Barrier::new(THREADS as usize));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let barrier = std::sync::Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                for i in 0..PER_THREAD {
                    event!(RecordKind::Mark, 0xBEE5 + t, i);
                }
                thread_tid()
            }));
        }
        let tids: Vec<u64> = handles
            .into_iter()
            .map(|h| h.join().expect("emitter panicked"))
            .collect();
        set_enabled(false);

        let filter = |records: Vec<Record>| -> Vec<Record> {
            records
                .into_iter()
                .filter(|r| tids.contains(&r.tid))
                .collect()
        };
        let first = filter(drain_records());
        let second = filter(drain_records());
        assert_eq!(
            first, second,
            "drains with quiescent writers are repeatable"
        );

        assert_eq!(first.len(), (THREADS * PER_THREAD) as usize);
        // Global (stamp, tid) order is strictly increasing…
        assert!(first
            .windows(2)
            .all(|w| (w[0].stamp, w[0].tid) < (w[1].stamp, w[1].tid)));
        // …and within it every thread's records appear in emission order.
        for (t, tid) in tids.iter().enumerate() {
            let bs: Vec<u64> = first
                .iter()
                .filter(|r| r.tid == *tid)
                .map(|r| r.b)
                .collect();
            assert_eq!(
                bs,
                (0..PER_THREAD).collect::<Vec<u64>>(),
                "thread {t} order"
            );
        }
    }

    #[test]
    fn records_carry_gauges_and_phase() {
        let _lock = test_lock();
        set_enabled(true);
        set_profiling(true);
        note_dispatch(1234, 56, 7);
        let tid = {
            let _span = span!(Phase::PlanApply);
            event!(RecordKind::Mark, 1u64);
            thread_tid()
        };
        set_profiling(false);
        set_enabled(false);

        let mine: Vec<Record> = drain_records()
            .into_iter()
            .filter(|r| r.tid == tid && r.kind == RecordKind::Mark && r.a == 1)
            .collect();
        let last = mine.last().expect("mark recorded");
        assert_eq!(
            (last.time_s, last.ordinal),
            (1234, 56),
            "gauges from note_dispatch"
        );
        assert_eq!(last.phase, Phase::PlanApply, "innermost span phase");
        let profile = profile_report();
        assert!(
            profile
                .phases
                .iter()
                .any(|p| p.phase == "plan-apply" && p.count >= 1),
            "{profile:?}"
        );
    }

    #[test]
    fn flight_dump_captures_ring_tail() {
        let _lock = test_lock();
        set_enabled(true);
        let tid = emit_on_fresh_thread(8, 0xF00D);
        let dump = capture_flight_dump("capacity: injected", 42, 4200, 0xABCD);
        set_enabled(false);
        assert_eq!(dump.header.seq, 42);
        assert_eq!(dump.header.sim_time_s, 4200);
        assert_eq!(dump.header.captured as usize, dump.records.len());
        let mine: Vec<&DumpRecord> = dump.records.iter().filter(|r| r.tid == tid).collect();
        assert_eq!(mine.len(), 8);
        assert!(mine.iter().all(|r| r.kind == "mark" && r.a == 0xF00D));
        let text = dump.render(4);
        assert!(text.contains("event #42 @ 4200s"), "{text}");
    }

    #[test]
    fn span_capture_feeds_chrome_trace() {
        let _lock = test_lock();
        set_span_capture(true);
        assert!(profiling_enabled(), "span capture implies profiling");
        {
            let _span = span!(Phase::MatrixBuild);
        }
        set_span_capture(false);
        set_profiling(false);
        let json = chrome_trace_json();
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert!(json.contains("matrix-build"), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
    }
}
