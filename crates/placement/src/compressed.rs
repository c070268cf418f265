//! The class-compressed sparse planning kernel.
//!
//! The dense planner materializes an M×N probability matrix every pass —
//! inherently O(M·N) even with the incremental delta sweep, because a
//! single migration round touches two full rows. This module exploits the
//! structural redundancy `ClassTable` already proved: for a class-
//! conforming PM, a matrix entry is a function of
//! `(class constants, reliability, utilization level, column)` only, so
//! the M per-PM rows collapse into C per-*superclass* level tables
//! (C ≪ M). A superclass is the exact equality key under which two rows
//! are guaranteed bit-identical per column: capacity, creation/migration
//! overheads, relative power efficiency and reliability score. PMs that
//! diverge from their hardware class (e.g. a mutated reliability) simply
//! get their own superclass; nothing falls back as long as the registry
//! caps hold.
//!
//! ## Representation
//!
//! - Per (superclass `s`, registered demand `d`): level buckets — the set
//!   of active rows whose prospective occupancy `used + demand_d` is
//!   feasible and lands in Eq. 4 level `w`, as a `BTreeSet<row>` per level
//!   plus a non-empty bitmask. The best candidate of `s` for a column with
//!   demand `d` is the lowest row in the highest level (Eq. 5 is monotone
//!   in `w`, and adjacent levels differ by ≥ `1/w_max` relatively — far
//!   beyond one ulp — so the top level strictly dominates after rounding).
//! - Per row: the hosted-entry probability `H = p^rel·p^eff(used)` and a
//!   per-demand level cache, so a candidate probe costs one table load.
//! - Per column (one per migratable VM, kept sorted by `VmId` to match the
//!   dense planner's column order): its demand, host row, authoritative
//!   completion deadline, and `dbar` — the column's best normalized score
//!   `max_r d(r,c)` as of the epoch stamped beside it, which the lazy
//!   floor below turns into an **upper bound** at any later pass.
//!
//! ## Effective bounds, the lazy floor and the hot set
//!
//! `p^vir` decays monotonically as remaining time shrinks, so a column's
//! exact score computed at pass `t` upper-bounds its score at every later
//! pass — until the fleet moves under it. Every fleet mutation funnels
//! through the [`FleetDelta`] journal, and the patch path restores the
//! bound's validity for each kind of movement:
//!
//! - a dirty row re-syncs `H` and its level buckets, and every column it
//!   hosts is exactly refreshed (its denominator changed);
//! - dirty VMs are exactly refreshed (or dropped / stashed);
//! - when a `(s, d)` bucket gains *any insert* during a patch (a row
//!   arriving at a level it did not occupy before), every clean demand-`d`
//!   column's bound is raised to `p_cap / H(host)` with
//!   `p_cap = p^rel_s·level_eff_s[top]` — an upper bound on any score the
//!   bucket can now produce, since `p^vir·p^rel ≤ p^rel` and every
//!   candidate sits at or below the top.
//!
//! Inserts are the only candidate-side events that can raise a column's
//! exact score: removals shrink the candidate set, and a *membership*
//! change matters even when the top level is unchanged, because
//! [`CompressedPlanner::exact_best`] excludes the column's own host within
//! its superclass — a newcomer at an existing top turns a level that held
//! only the host into a real candidate. Re-syncs that leave a row at its
//! previous level are skipped entirely, so no-op churn does not mark
//! buckets. Removals leave bounds stale-high, which is merely conservative.
//!
//! The raise is applied lazily, so a patch costs O(dirty + log N) however
//! many columns share the demand:
//!
//! - Every patch (and rebuild) bumps an `epoch`; a column's `dbar` is its
//!   exact score as of the epoch stamped beside it.
//! - Each demand keeps a numerator *floor*: a suffix-max stack of
//!   `(epoch, p_cap)` raises, strictly decreasing in `p_cap`, so its size
//!   is bounded by the C·64 values `p_cap` can take. A column's
//!   **effective bound** is `max(dbar, floor_since(d, epoch) / H(host))`.
//!   `H(host)` of a clean column cannot have moved since its stamp (any
//!   re-sync of the host dirties the column), and division by a positive
//!   constant is monotone under rounding, so this equals the bound an
//!   eager per-column raise would have left, bit for bit.
//! - Each demand keeps an index of the rows hosting its columns, ordered
//!   by `H` (with a per-row column count, so a row is re-filed once when
//!   its `H` moves, not once per hosted column). `p_cap / H` is
//!   non-increasing in `H`, so the columns a raise lifts above
//!   `MIG_threshold` sit on a prefix of that index; the raise walks only
//!   the clean demand-`d` columns of that prefix.
//! - The **hot set** holds exactly the columns whose effective bound
//!   exceeds `MIG_threshold`: exact refreshes set or clear membership,
//!   raise walks add to it.
//!
//! A planning pass then reduces to: patch; if the hot set is empty, stop
//! (the common case, no column outside the dirty set visited); otherwise
//! exactly refresh the hot columns; only if a genuine exceeder survives
//! does the pass materialize per-column exact bests and run Algorithm 1's
//! round loop — whose winner scan, tie-breaks and repair heuristics mirror
//! the dense planner operation-for-operation, so the proposed migration
//! sequence is bit-identical. Debug builds check every pass that each
//! effective bound dominates its exact score and that hot-set membership
//! matches `effective bound > MIG_threshold`.
//!
//! The planner's own hypothetical row mutations (and any divergence from
//! the simulator skipping a proposed move, or the double-reservation
//! window of an in-flight migration) are reconciled by re-reading the
//! touched rows/VMs from the authoritative view at the next patch; bucket
//! tops that rise in that reconciliation raise bounds through the normal
//! trigger.
//!
//! ## Poisoning
//!
//! Structures the compressed form cannot represent — demand/superclass
//! registries past their caps, level counts past 63, capacity dimensions
//! that disagree with `min_vm` — permanently poison the planner;
//! [`DynamicPlacement`](crate::dynamic::DynamicPlacement) then routes
//! every subsequent pass to the dense kernel, which is the reference
//! definition of the output, so behavior is unchanged.

use crate::config::DynamicConfig;
use crate::factors::class_table::{self, ClassEntry};
use crate::factors::vir;
use crate::plan::{PlanPm, PlanState};
use crate::policy::{Migration, PlacementView};
use dvmp_cluster::pm::PmId;
use dvmp_cluster::power::relative_efficiencies;
use dvmp_cluster::resources::ResourceVector;
use dvmp_cluster::vm::{VmId, VmSpec, VmState};
use dvmp_cluster::FleetDelta;
use dvmp_simcore::SimTime;
use std::collections::{BTreeSet, HashMap};

/// Superclass registry cap; more distinct (capacity, overheads, eff, rel)
/// combinations than this poisons the planner (a fleet that heterogeneous
/// has little row redundancy to compress anyway).
pub const MAX_SUPERCLASSES: usize = 64;
/// Demand registry cap (also the stride of the per-row level cache).
pub const MAX_DEMANDS: usize = 64;
/// Highest representable Eq. 4 level (the non-empty masks are `u64`).
const MAX_LEVEL: u64 = 63;
/// `row_w` sentinel: infeasible / not bucketed.
const INFEASIBLE: u8 = u8::MAX;

/// Exact equality key under which two PM rows are column-wise
/// bit-identical.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SuperKey {
    capacity: ResourceVector,
    creation_secs: u64,
    migration_secs: u64,
    eff_bits: u64,
    rel_bits: u64,
}

/// One superclass: the shared [`ClassEntry`] constants plus the score
/// pieces that are uniform across its member rows.
#[derive(Debug, Clone)]
struct SuperClass {
    entry: ClassEntry,
    rel: f64,
    /// `false` when every non-host entry of the superclass is 0
    /// (`w_max == 0` or `eff ≤ 0`) — its rows are never candidates.
    usable: bool,
}

/// Level buckets for one (superclass, demand) pair.
#[derive(Debug, Clone, Default)]
struct Bucket {
    levels: Vec<BTreeSet<u32>>,
    mask: u64,
    /// A row was inserted during the current patch (bound-raise trigger).
    marked: bool,
}

impl Bucket {
    fn top(&self) -> Option<u8> {
        if self.mask == 0 {
            None
        } else {
            Some(63 - self.mask.leading_zeros() as u8)
        }
    }

    fn insert(&mut self, w: u8, row: u32) {
        let w = w as usize;
        if self.levels.len() <= w {
            self.levels.resize_with(w + 1, BTreeSet::new);
        }
        self.levels[w].insert(row);
        self.mask |= 1u64 << w;
    }

    fn remove(&mut self, w: u8, row: u32) {
        let w = w as usize;
        let set = &mut self.levels[w];
        set.remove(&row);
        if set.is_empty() {
            self.mask &= !(1u64 << w);
        }
    }
}

/// One matrix column: a migratable VM.
#[derive(Debug, Clone)]
struct Col {
    id: VmId,
    demand: u8,
    host: u32,
    /// Authoritative completion deadline (`now + estimated_remaining`),
    /// so remaining time at any later pass is `deadline − now`.
    deadline: SimTime,
    /// Exact `max_r d(r, c)` as of `epoch`; see the module docs.
    dbar: f64,
    /// Epoch at which `dbar` was last computed exactly (narrow: every
    /// column insert or removal moves the sorted `cols` tail).
    epoch: u32,
}

impl Col {
    fn new(id: VmId, demand: u8, host: u32, deadline: SimTime) -> Self {
        Col {
            id,
            demand,
            host,
            deadline,
            dbar: f64::INFINITY,
            epoch: 0,
        }
    }
}

/// Total-order key of a hosted-entry probability: the bits of a positive
/// `H` order like its value; `H ≤ 0` (every candidate scores ∞) sorts
/// first as key 0.
fn h_key(h: f64) -> u64 {
    if h > 0.0 {
        h.to_bits()
    } else {
        0
    }
}

/// The bound a raise with numerator `p_cap` puts on a column whose host
/// has hosted-entry probability `h`.
fn raised(p_cap: f64, h: f64) -> f64 {
    if h > 0.0 {
        p_cap / h
    } else {
        f64::INFINITY
    }
}

/// Per-row state (indexed by `PmId.0` in persistent mode, by plan row in
/// one-shot mode — both are ascending-id orders, preserving tie-breaks).
#[derive(Debug, Clone)]
struct Row {
    active: bool,
    sclass: u16,
    used: ResourceVector,
    /// Hosted-entry probability `p^rel·p^eff(used)` (the normalization
    /// denominator for columns hosted here).
    h: f64,
}

impl Default for Row {
    fn default() -> Self {
        Row {
            active: false,
            sclass: 0,
            used: ResourceVector::zero(1),
            h: 0.0,
        }
    }
}

/// Structural condition the compressed form cannot represent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Poison;

/// The persistent class-compressed planner. See the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct CompressedPlanner {
    poisoned: bool,
    /// `true` while the state mirrors the live fleet as of the last
    /// consumed journal drain. Any pass served by the dense kernel in
    /// between desyncs it (the journal continuity is broken).
    synced: bool,
    effs: Vec<f64>,
    sclasses: Vec<SuperClass>,
    sclass_lookup: HashMap<SuperKey, u16>,
    demands: Vec<ResourceVector>,
    demand_lookup: HashMap<ResourceVector, u8>,
    rows: Vec<Row>,
    row_ids: Vec<PmId>,
    /// Level cache, `rows.len() × MAX_DEMANDS`.
    row_w: Vec<u8>,
    host_vms: Vec<BTreeSet<VmId>>,
    active_rows: usize,
    /// `sclasses.len() × MAX_DEMANDS` level buckets.
    buckets: Vec<Bucket>,
    touched_buckets: Vec<u32>,
    snapshots_armed: bool,
    cols: Vec<Col>,
    /// Bumped by every patch and rebuild; stamps exact bounds and raises.
    epoch: u32,
    /// Per demand: the numerator floor, `(epoch, p_cap)` raises with
    /// `p_cap` strictly decreasing (see the module docs).
    floors: Vec<Vec<(u32, f64)>>,
    /// Per demand: the columns of that demand each row hosts.
    row_cols: Vec<Vec<u32>>,
    /// Per demand: the rows hosting a column of that demand, ordered by
    /// `(h_key(H), row)` — the columns' order by `H(host)`.
    by_h: Vec<BTreeSet<(u64, u32)>>,
    /// Columns whose effective bound exceeds `MIG_threshold`.
    hot: BTreeSet<VmId>,
    /// VMs seen mid-creation: re-examined once their ready time passes
    /// (the creation-done transition is not journaled — the datacenter's
    /// occupancy does not change at that instant).
    stash: BTreeSet<(SimTime, VmId)>,
    /// Rows / VMs this planner's own previous pass touched — re-read from
    /// the authoritative view at the next patch, exactly like the dense
    /// planner's snapshot touched-sets.
    self_dirty_pms: BTreeSet<PmId>,
    self_dirty_vms: BTreeSet<VmId>,
    // Round-loop scratch, reused across passes.
    rem: Vec<u64>,
    best: Vec<Option<(u32, f64)>>,
}

impl CompressedPlanner {
    pub(crate) fn new() -> Self {
        CompressedPlanner::default()
    }

    pub(crate) fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Registered superclasses — the compressed kernel's row dimension
    /// `C` (0 before the first compressed pass).
    pub(crate) fn superclass_count(&self) -> usize {
        self.sclasses.len()
    }

    /// Per-PM rows currently active (powered, mirrored fleet members).
    pub(crate) fn active_row_count(&self) -> usize {
        self.active_rows
    }

    /// Marks the mirrored state stale; the next compressed pass rebuilds
    /// from the view instead of patching.
    pub(crate) fn desync(&mut self) {
        self.synced = false;
    }

    fn poison(&mut self) {
        // The registries are left intact so the trip report (and the
        // accessors the bench rows read) can say what fragmented.
        dvmp_obs::note_compressed_poisoned(self.sclasses.len() as u64, self.demands.len() as u64);
        self.poisoned = true;
        self.synced = false;
        self.rows.clear();
        self.buckets.clear();
        self.cols.clear();
        self.host_vms.clear();
        self.stash.clear();
        self.floors.iter_mut().for_each(Vec::clear);
        self.row_cols.iter_mut().for_each(Vec::clear);
        self.by_h.iter_mut().for_each(BTreeSet::clear);
        self.hot.clear();
    }

    /// Occupied `(superclass, demand)` level buckets — how spread the
    /// compressed representation currently is (bench telemetry).
    pub(crate) fn occupied_buckets(&self) -> usize {
        self.buckets.iter().filter(|b| b.mask != 0).count()
    }

    // -------------------------------------------------------------------
    // Registries
    // -------------------------------------------------------------------

    fn register_sclass(
        &mut self,
        pm: &PlanPm,
        eff_c: f64,
        min_vm: &ResourceVector,
    ) -> Result<u16, Poison> {
        let key = SuperKey {
            capacity: pm.capacity,
            creation_secs: pm.creation_secs,
            migration_secs: pm.migration_secs,
            eff_bits: eff_c.to_bits(),
            rel_bits: pm.reliability.to_bits(),
        };
        if let Some(&s) = self.sclass_lookup.get(&key) {
            return Ok(s);
        }
        if self.sclasses.len() >= MAX_SUPERCLASSES || pm.capacity.k() != min_vm.k() {
            return Err(Poison);
        }
        let entry = ClassEntry::from_pm(pm, eff_c, min_vm);
        if entry.w_max > MAX_LEVEL {
            return Err(Poison);
        }
        let usable = entry.w_max >= 1 && entry.eff > 0.0;
        let s = self.sclasses.len() as u16;
        self.sclasses.push(SuperClass {
            entry,
            rel: pm.reliability,
            usable,
        });
        self.buckets
            .resize_with(self.sclasses.len() * MAX_DEMANDS, Bucket::default);
        self.sclass_lookup.insert(key, s);
        Ok(s)
    }

    /// Registers a demand vector, backfilling the level cache and buckets
    /// of every existing row for the new demand index. On large fleets the
    /// per-row level computation is sharded across the crossbeam pool
    /// (contiguous row ranges into disjoint scratch slices); the bucket
    /// inserts then replay serially in ascending row order, so the
    /// resulting state is bit-identical to the sequential backfill at any
    /// shard count.
    fn register_demand(&mut self, res: &ResourceVector, cfg: &DynamicConfig) -> Result<u8, Poison> {
        if let Some(&d) = self.demand_lookup.get(res) {
            return Ok(d);
        }
        if self.demands.len() >= MAX_DEMANDS || res.k() != cfg.min_vm.k() {
            return Err(Poison);
        }
        let d = self.demands.len() as u8;
        self.demands.push(*res);
        self.demand_lookup.insert(*res, d);
        self.floors.push(Vec::new());
        self.row_cols.push(vec![0; self.rows.len()]);
        self.by_h.push(BTreeSet::new());
        let m = self.rows.len();
        let shards = cfg.resolve_shards(m);
        if shards > 1 {
            let demand = self.demands[d as usize];
            let rows = &self.rows;
            let sclasses = &self.sclasses;
            let mut scratch = vec![INFEASIBLE; m];
            let chunk = m.div_ceil(shards);
            crossbeam::scope(|s| {
                for (i, out) in scratch.chunks_mut(chunk).enumerate() {
                    let lo = i * chunk;
                    s.spawn(move |_| {
                        for (j, w) in out.iter_mut().enumerate() {
                            let row = &rows[lo + j];
                            if !row.active {
                                continue;
                            }
                            let sc = &sclasses[row.sclass as usize];
                            if sc.usable && row.used.fits_with(&demand, &sc.entry.capacity) {
                                *w = class_table::class_level(&row.used.add(&demand), &sc.entry)
                                    as u8;
                            }
                        }
                    });
                }
            })
            .expect("backfill worker panicked");
            for (r, &w) in scratch.iter().enumerate() {
                if w != INFEASIBLE {
                    // Fresh demand index: the old level is always
                    // INFEASIBLE, so this is insert-only — exactly what
                    // `bucket_row_demand` would do.
                    let b_idx = self.rows[r].sclass as usize * MAX_DEMANDS + d as usize;
                    self.row_w[r * MAX_DEMANDS + d as usize] = w;
                    self.buckets[b_idx].insert(w, r as u32);
                    self.note_insert(b_idx);
                }
            }
        } else {
            for r in 0..m {
                if self.rows[r].active {
                    self.bucket_row_demand(r, d as usize);
                }
            }
        }
        Ok(d)
    }

    // -------------------------------------------------------------------
    // Row maintenance
    // -------------------------------------------------------------------

    /// Records an insert into bucket `b_idx` while a patch is running —
    /// the bound-raise trigger (removals never raise a column's score).
    fn note_insert(&mut self, b_idx: usize) {
        if !self.snapshots_armed {
            return;
        }
        let b = &mut self.buckets[b_idx];
        if !b.marked {
            b.marked = true;
            self.touched_buckets.push(b_idx as u32);
        }
    }

    /// Removes row `r` from every bucket it currently occupies.
    fn unbucket_row(&mut self, r: usize) {
        let s = self.rows[r].sclass as usize;
        for d in 0..self.demands.len() {
            let w = self.row_w[r * MAX_DEMANDS + d];
            if w != INFEASIBLE {
                self.buckets[s * MAX_DEMANDS + d].remove(w, r as u32);
                self.row_w[r * MAX_DEMANDS + d] = INFEASIBLE;
            }
        }
    }

    /// Recomputes the level cache + bucket membership of row `r` for
    /// demand `d` (row must be active; handles its old entry, skipping
    /// the whole exchange when the level is unchanged).
    fn bucket_row_demand(&mut self, r: usize, d: usize) {
        let row = &self.rows[r];
        let sc = &self.sclasses[row.sclass as usize];
        let demand = self.demands[d];
        let w = if sc.usable && row.used.fits_with(&demand, &sc.entry.capacity) {
            class_table::class_level(&row.used.add(&demand), &sc.entry) as u8
        } else {
            INFEASIBLE
        };
        let old = self.row_w[r * MAX_DEMANDS + d];
        if old == w {
            return;
        }
        let b_idx = row.sclass as usize * MAX_DEMANDS + d;
        if old != INFEASIBLE {
            self.buckets[b_idx].remove(old, r as u32);
        }
        self.row_w[r * MAX_DEMANDS + d] = w;
        if w != INFEASIBLE {
            self.buckets[b_idx].insert(w, r as u32);
            self.note_insert(b_idx);
        }
    }

    /// Hosted-entry probability: `1·[p^vir=1]·p^rel·p^eff(used)` — the
    /// exact dense multiply chain for the current-host cell.
    fn host_prob(sc: &SuperClass, used: &ResourceVector, cfg: &DynamicConfig) -> f64 {
        let base = if cfg.use_rel { sc.rel } else { 1.0 };
        base * class_table::class_eff_prospective(used, &sc.entry)
    }

    /// Re-derives row `r` entirely from authoritative per-PM fields.
    #[allow(clippy::too_many_arguments)]
    fn sync_row(
        &mut self,
        r: usize,
        active: bool,
        pm: &PlanPm,
        cfg: &DynamicConfig,
    ) -> Result<(), Poison> {
        if !active {
            if self.rows[r].active {
                self.unbucket_row(r);
                self.active_rows -= 1;
            }
            self.rows[r].active = false;
            self.set_h(r, 0.0);
            return Ok(());
        }
        let eff_c = *self.effs.get(pm.class_idx).ok_or(Poison)?;
        let s = self.register_sclass(pm, eff_c, &cfg.min_vm)?;
        if self.rows[r].active {
            if self.rows[r].sclass != s {
                // A row's PM identity is fixed, so this cannot happen; be
                // defensive anyway — the old sclass's buckets must drop it.
                self.unbucket_row(r);
            }
        } else {
            self.active_rows += 1;
        }
        let h = Self::host_prob(&self.sclasses[s as usize], &pm.used, cfg);
        let row = &mut self.rows[r];
        row.active = true;
        row.sclass = s;
        row.used = pm.used;
        self.set_h(r, h);
        for d in 0..self.demands.len() {
            self.bucket_row_demand(r, d);
        }
        Ok(())
    }

    /// Sets row `r`'s hosted-entry probability, re-filing the row in the
    /// `H` index of every demand it hosts.
    fn set_h(&mut self, r: usize, h: f64) {
        let (old, new) = (h_key(self.rows[r].h), h_key(h));
        self.rows[r].h = h;
        if old != new {
            for d in 0..self.demands.len() {
                if self.row_cols[d][r] > 0 {
                    self.by_h[d].remove(&(old, r as u32));
                    self.by_h[d].insert((new, r as u32));
                }
            }
        }
    }

    /// Counts a column of demand `d` onto host row `r`.
    fn attach(&mut self, r: usize, d: usize) {
        let n = &mut self.row_cols[d][r];
        *n += 1;
        if *n == 1 {
            self.by_h[d].insert((h_key(self.rows[r].h), r as u32));
        }
    }

    /// Takes a column of demand `d` off host row `r`.
    fn detach(&mut self, r: usize, d: usize) {
        let n = &mut self.row_cols[d][r];
        *n -= 1;
        if *n == 0 {
            self.by_h[d].remove(&(h_key(self.rows[r].h), r as u32));
        }
    }

    /// Refreshes a row after a hypothetical `used` mutation (active flag
    /// and superclass unchanged).
    fn refresh_row(&mut self, r: usize, cfg: &DynamicConfig) {
        let sc = &self.sclasses[self.rows[r].sclass as usize];
        let h = Self::host_prob(sc, &self.rows[r].used, cfg);
        self.set_h(r, h);
        for d in 0..self.demands.len() {
            self.bucket_row_demand(r, d);
        }
    }

    // -------------------------------------------------------------------
    // Column scoring
    // -------------------------------------------------------------------

    /// The cross-move factor product `p^vir·p^rel` shared by every row of
    /// superclass `s` for remaining time `rem` — the dense chain prefix
    /// before the per-row `p^eff` multiply, same operation order.
    fn mig_va(sc: &SuperClass, rem: u64, cfg: &DynamicConfig) -> f64 {
        let mut p = 1.0;
        if cfg.use_vir {
            p *= class_table::class_vir(&sc.entry, rem, cfg.overhead_mode);
        }
        if cfg.use_rel {
            p *= sc.rel;
        }
        p
    }

    /// The raw probability of row `row` for column `c` (0.0 when
    /// infeasible) — element-identical to the dense fast kernel's entry.
    fn probe_p(&self, row: usize, c: usize, rem: u64, cfg: &DynamicConfig) -> f64 {
        let r = &self.rows[row];
        if !r.active {
            return 0.0;
        }
        let w = self.row_w[row * MAX_DEMANDS + self.cols[c].demand as usize];
        if w == INFEASIBLE {
            return 0.0;
        }
        let sc = &self.sclasses[r.sclass as usize];
        let va = Self::mig_va(sc, rem, cfg);
        va * sc.entry.level_eff[w as usize]
    }

    /// The exact best move for column `c`: the same `(max d, lowest row)`
    /// the dense `best_move_for` scan finds, via the level buckets.
    fn exact_best(&self, c: usize, rem: u64, cfg: &DynamicConfig) -> Option<(u32, f64)> {
        let col = &self.cols[c];
        let host = col.host as usize;
        let d_idx = col.demand as usize;
        let h = self.rows[host].h;
        let host_sclass = self.rows[host].sclass;
        let mut best: Option<(u32, f64)> = None;
        for (s, sc) in self.sclasses.iter().enumerate() {
            if !sc.usable {
                continue;
            }
            let va = Self::mig_va(sc, rem, cfg);
            if va <= 0.0 {
                continue;
            }
            let b = &self.buckets[s * MAX_DEMANDS + d_idx];
            let exclude_host = s as u16 == host_sclass;
            if h > 0.0 {
                // Highest level with a non-host member strictly dominates
                // within the superclass (see module docs).
                let mut mask = b.mask;
                while mask != 0 {
                    let w = 63 - mask.leading_zeros() as usize;
                    let set = &b.levels[w];
                    let cand = if exclude_host {
                        let mut it = set.iter().copied();
                        match it.next() {
                            Some(r) if r as usize == host => it.next(),
                            first => first,
                        }
                    } else {
                        set.iter().next().copied()
                    };
                    if let Some(r) = cand {
                        let p = va * sc.entry.level_eff[w];
                        let d = p / h;
                        if d > 0.0 && best.map_or(true, |(br, bd)| d > bd || (d == bd && r < br)) {
                            best = Some((r, d));
                        }
                        break;
                    }
                    mask &= !(1u64 << w);
                }
            } else {
                // Zero current-host probability: every feasible candidate
                // scores ∞ and the dense scan keeps the lowest row.
                let mut mask = b.mask;
                let mut min_row: Option<u32> = None;
                while mask != 0 {
                    let w = mask.trailing_zeros() as usize;
                    if let Some(&r) = b.levels[w]
                        .iter()
                        .find(|&&r| !(exclude_host && r as usize == host))
                    {
                        min_row = Some(min_row.map_or(r, |m: u32| m.min(r)));
                    }
                    mask &= !(1u64 << w);
                }
                if let Some(r) = min_row {
                    if best.map_or(true, |(br, _)| r < br) {
                        best = Some((r, f64::INFINITY));
                    }
                }
            }
        }
        best
    }

    // -------------------------------------------------------------------
    // Sync / patch
    // -------------------------------------------------------------------

    fn ensure_synced(
        &mut self,
        view: &PlacementView<'_>,
        delta: Option<FleetDelta>,
        cfg: &DynamicConfig,
    ) -> bool {
        if self.poisoned {
            return false;
        }
        let full = !self.synced
            || view.dc.pms().len() != self.rows.len()
            || delta.as_ref().map_or(true, |d| d.is_full());
        let outcome = if full {
            self.rebuild_all(view, cfg)
        } else {
            self.patch(view, &delta.expect("non-full patch has a delta"), cfg)
        };
        match outcome {
            Ok(()) => {
                self.synced = true;
                true
            }
            Err(Poison) => {
                self.poison();
                false
            }
        }
    }

    fn rebuild_all(&mut self, view: &PlacementView<'_>, cfg: &DynamicConfig) -> Result<(), Poison> {
        self.effs.clear();
        self.effs.extend(
            relative_efficiencies(view.dc.classes(), &cfg.min_vm)
                .into_iter()
                .map(|e| crate::config::quantize_score(e, cfg.class_tolerance)),
        );
        let m = view.dc.pms().len();
        self.epoch += 1;
        self.floors.iter_mut().for_each(Vec::clear);
        for counts in &mut self.row_cols {
            counts.clear();
            counts.resize(m, 0);
        }
        self.by_h.iter_mut().for_each(BTreeSet::clear);
        self.hot.clear();
        for b in &mut self.buckets {
            b.levels.iter_mut().for_each(BTreeSet::clear);
            b.mask = 0;
            b.marked = false;
        }
        self.touched_buckets.clear();
        self.rows.clear();
        self.rows.resize_with(m, Row::default);
        self.row_ids.clear();
        self.row_ids.extend((0..m as u32).map(PmId));
        self.row_w.clear();
        self.row_w.resize(m * MAX_DEMANDS, INFEASIBLE);
        self.host_vms.clear();
        self.host_vms.resize_with(m, BTreeSet::new);
        self.active_rows = 0;
        self.cols.clear();
        self.stash.clear();
        self.self_dirty_pms.clear();
        self.self_dirty_vms.clear();
        self.snapshots_armed = false;
        for pm in view.dc.pms() {
            let r = pm.id.0 as usize;
            let plan_pm = Self::plan_pm_of(pm, cfg);
            self.sync_row(r, pm.is_available(), &plan_pm, cfg)?;
        }
        for vm in view.vms.values() {
            match vm.state {
                VmState::Running { pm } => {
                    let r = pm.0 as usize;
                    if self.rows.get(r).is_some_and(|row| row.active) {
                        let d = self.register_demand(vm.demand(), cfg)?;
                        let deadline = view.now + vm.estimated_remaining(view.now);
                        self.cols.push(Col::new(vm.spec.id, d, pm.0, deadline));
                        self.host_vms[r].insert(vm.spec.id);
                        self.attach(r, d as usize);
                    }
                }
                VmState::Creating { ready_at, .. } => {
                    self.stash.insert((ready_at, vm.spec.id));
                }
                _ => {}
            }
        }
        for c in 0..self.cols.len() {
            self.refresh_exact(c, view.now, cfg);
        }
        Ok(())
    }

    /// Mirrors [`PlanState::refill`]'s row construction exactly —
    /// including the `class_tolerance` quantizers, which is what keeps the
    /// persistent planner's superclass keys identical to the inputs the
    /// dense kernel would see for the same fleet.
    fn plan_pm_of(pm: &dvmp_cluster::pm::Pm, cfg: &DynamicConfig) -> PlanPm {
        use crate::config::{quantize_score, quantize_secs};
        let tol = cfg.class_tolerance;
        PlanPm {
            id: pm.id,
            class_idx: pm.class_idx,
            capacity: match cfg.capacity_basis {
                crate::config::CapacityBasis::Virtual => pm.virtual_capacity(),
                crate::config::CapacityBasis::Physical => *pm.capacity(),
            },
            used: *pm.used(),
            reliability: quantize_score(pm.reliability, tol),
            creation_secs: quantize_secs(pm.class.creation_time.as_secs(), tol),
            migration_secs: quantize_secs(pm.class.migration_time.as_secs(), tol),
        }
    }

    fn col_index(&self, vm: VmId) -> Result<usize, usize> {
        self.cols.binary_search_by_key(&vm, |c| c.id)
    }

    fn remove_col(&mut self, vm: VmId) {
        if let Ok(i) = self.col_index(vm) {
            let (host, d) = (self.cols[i].host as usize, self.cols[i].demand as usize);
            self.detach(host, d);
            self.hot.remove(&vm);
            self.host_vms[host].remove(&vm);
            self.cols.remove(i);
        }
    }

    /// Recomputes column `c`'s exact best at `now`, stamps it with the
    /// current epoch and sets its hot-set membership. Returns whether the
    /// column is hot.
    fn refresh_exact(&mut self, c: usize, now: SimTime, cfg: &DynamicConfig) -> bool {
        let rem = self.cols[c].deadline.saturating_since(now).as_secs();
        let d = self.exact_best(c, rem, cfg).map_or(0.0, |(_, d)| d);
        let col = &mut self.cols[c];
        col.dbar = d;
        col.epoch = self.epoch;
        let hot = d > cfg.mig_threshold;
        if hot {
            self.hot.insert(col.id);
        } else {
            self.hot.remove(&col.id);
        }
        hot
    }

    /// Applies a raise with numerator `p_cap` to every clean column of
    /// demand `d`: records it in the demand's floor and walks the clean
    /// demand-`d` columns on the rows of the `H` prefix whose raised bound
    /// clears `thr` into the hot set (`dirty` columns are refreshed
    /// exactly instead). Returns the number of columns walked.
    fn raise(&mut self, d: usize, p_cap: f64, thr: f64, dirty: &BTreeSet<VmId>) -> u64 {
        let floor = &mut self.floors[d];
        while floor.last().is_some_and(|&(_, q)| q <= p_cap) {
            floor.pop();
        }
        debug_assert!(floor.last().map_or(true, |&(e, _)| e < self.epoch));
        floor.push((self.epoch, p_cap));
        let mut walked = 0;
        let lifted = self.by_h[d]
            .iter()
            .take_while(|&&(key, _)| raised(p_cap, f64::from_bits(key)) > thr);
        for &(_, row) in lifted {
            for &vm in &self.host_vms[row as usize] {
                if dirty.contains(&vm) {
                    continue;
                }
                let c = self.col_index(vm).expect("hosted VMs are columns");
                if self.cols[c].demand as usize == d {
                    self.hot.insert(vm);
                    walked += 1;
                }
            }
        }
        walked
    }

    /// Column `c`'s effective bound: its exact score as of its epoch,
    /// lifted by every raise of its demand since then (module docs).
    /// Passes need only the hot set this bound implies, so release builds
    /// never evaluate it; the debug-build checks do, every pass.
    #[cfg(debug_assertions)]
    fn effective_bound(&self, c: usize) -> f64 {
        let col = &self.cols[c];
        let floor = &self.floors[col.demand as usize];
        let i = floor.partition_point(|&(e, _)| e <= col.epoch);
        match floor.get(i) {
            Some(&(_, p_cap)) => col.dbar.max(raised(p_cap, self.rows[col.host as usize].h)),
            None => col.dbar,
        }
    }

    fn patch(
        &mut self,
        view: &PlacementView<'_>,
        delta: &FleetDelta,
        cfg: &DynamicConfig,
    ) -> Result<(), Poison> {
        self.epoch += 1;
        self.snapshots_armed = true;
        let mut dirty_cols: BTreeSet<VmId> = BTreeSet::new();

        // Rows: journal dirt plus this planner's own previous-pass touches.
        let self_pms = std::mem::take(&mut self.self_dirty_pms);
        let mut dirty_rows = 0u64;
        for &id in delta.dirty_pms().iter().chain(self_pms.iter()) {
            let r = id.0 as usize;
            if r >= self.rows.len() {
                return Err(Poison);
            }
            let was_active = self.rows[r].active;
            if was_active {
                dirty_cols.extend(self.host_vms[r].iter().copied());
            }
            let pm = view.dc.pm(id);
            let plan_pm = Self::plan_pm_of(pm, cfg);
            self.sync_row(r, pm.is_available(), &plan_pm, cfg)?;
            dirty_rows += 1;
            if self.rows[r].active && !was_active {
                // Freshly available again: adopt whatever it already hosts.
                dirty_cols.extend(pm.hosted_vms());
            }
        }

        // Stash: creation deadlines that have passed.
        while let Some(&(t, vm)) = self.stash.iter().next() {
            if t > view.now {
                break;
            }
            self.stash.remove(&(t, vm));
            dirty_cols.insert(vm);
        }

        dirty_cols.extend(delta.dirty_vms().iter().copied());
        let self_vms = std::mem::take(&mut self.self_dirty_vms);
        dirty_cols.extend(self_vms);

        // Columns: re-read each dirty VM from the authoritative map.
        for &vm_id in &dirty_cols {
            match view.vms.get(&vm_id).map(|vm| (vm, vm.state)) {
                Some((vm, VmState::Running { pm })) => {
                    let r = pm.0 as usize;
                    if !self.rows.get(r).is_some_and(|row| row.active) {
                        self.remove_col(vm_id);
                        continue;
                    }
                    let d = self.register_demand(vm.demand(), cfg)?;
                    let deadline = view.now + vm.estimated_remaining(view.now);
                    match self.col_index(vm_id) {
                        Ok(i) => {
                            let old_host = self.cols[i].host as usize;
                            let old_d = self.cols[i].demand;
                            if old_host != r {
                                self.host_vms[old_host].remove(&vm_id);
                                self.host_vms[r].insert(vm_id);
                            }
                            if (old_host, old_d) != (r, d) {
                                self.detach(old_host, old_d as usize);
                                self.attach(r, d as usize);
                            }
                            let col = &mut self.cols[i];
                            col.demand = d;
                            col.host = pm.0;
                            col.deadline = deadline;
                        }
                        Err(i) => {
                            self.cols.insert(i, Col::new(vm_id, d, pm.0, deadline));
                            self.host_vms[r].insert(vm_id);
                            self.attach(r, d as usize);
                        }
                    }
                }
                Some((_, VmState::Creating { ready_at, .. })) => {
                    self.remove_col(vm_id);
                    self.stash.insert((ready_at, vm_id));
                }
                _ => self.remove_col(vm_id),
            }
        }

        // Bound-raise triggers: buckets that gained an insert can now score
        // higher for *any* demand-matching column (a newcomer can turn a
        // level that held only a column's own host into a real candidate,
        // so a top comparison alone would be unsound). One raise per
        // demand, at the largest numerator its touched buckets reach.
        self.snapshots_armed = false;
        let mut caps: Vec<(usize, f64)> = Vec::new();
        for &b_idx in &self.touched_buckets {
            let bucket = &mut self.buckets[b_idx as usize];
            bucket.marked = false;
            let Some(top) = bucket.top() else {
                continue;
            };
            let d = b_idx as usize % MAX_DEMANDS;
            let sc = &self.sclasses[b_idx as usize / MAX_DEMANDS];
            let rel_cap = if cfg.use_rel { sc.rel } else { 1.0 };
            let p_cap = rel_cap * sc.entry.level_eff[top as usize];
            match caps.iter_mut().find(|(cd, _)| *cd == d) {
                Some((_, cap)) => *cap = cap.max(p_cap),
                None => caps.push((d, p_cap)),
            }
        }
        self.touched_buckets.clear();
        let mut raise_cols = 0u64;
        for (d, p_cap) in caps {
            raise_cols += self.raise(d, p_cap, cfg.mig_threshold, &dirty_cols);
        }
        dvmp_obs::note_compressed_raise(raise_cols);

        // Exact refresh of every dirty column that survived as live.
        let mut refreshed = 0u64;
        for &vm_id in &dirty_cols {
            if let Ok(c) = self.col_index(vm_id) {
                self.refresh_exact(c, view.now, cfg);
                refreshed += 1;
            }
        }
        dvmp_obs::note_compressed_patch(dirty_rows, refreshed);
        Ok(())
    }

    /// Debug-build check of the bound invariants (module docs): every
    /// effective bound dominates its column's exact score, the hot set is
    /// exactly the columns whose effective bound exceeds the threshold,
    /// and the `H` index files exactly the (demand, host row) pairs that
    /// have columns, each under the row's current `H`.
    #[cfg(debug_assertions)]
    fn assert_bounds(&self, now: SimTime, cfg: &DynamicConfig) {
        let thr = cfg.mig_threshold;
        for c in 0..self.cols.len() {
            let col = &self.cols[c];
            let rem = col.deadline.saturating_since(now).as_secs();
            let exact = self.exact_best(c, rem, cfg).map_or(0.0, |(_, d)| d);
            let bound = self.effective_bound(c);
            debug_assert!(
                bound >= exact,
                "stale-low bound: vm {:?} host {} demand {} bound {} exact {} (t={})",
                col.id,
                col.host,
                col.demand,
                bound,
                exact,
                now.as_secs(),
            );
            debug_assert_eq!(
                self.hot.contains(&col.id),
                bound > thr,
                "hot-set membership of vm {:?} (bound {bound}, threshold {thr})",
                col.id,
            );
        }
        debug_assert!(
            self.hot.iter().all(|vm| self.col_index(*vm).is_ok()),
            "hot set names a dropped column"
        );
        let mut hosted: std::collections::BTreeMap<(u8, u32), u32> = Default::default();
        for col in &self.cols {
            *hosted.entry((col.demand, col.host)).or_default() += 1;
        }
        for (&(d, r), &n) in &hosted {
            debug_assert_eq!(
                self.row_cols[d as usize][r as usize], n,
                "row {r} demand {d} count"
            );
            debug_assert!(
                self.by_h[d as usize].contains(&(h_key(self.rows[r as usize].h), r)),
                "row {r} filed in demand {d}'s H index under its current H"
            );
        }
        debug_assert_eq!(
            self.by_h.iter().map(BTreeSet::len).sum::<usize>(),
            hosted.len()
        );
    }

    // -------------------------------------------------------------------
    // Planning passes
    // -------------------------------------------------------------------

    /// Runs a full planning pass against the live view. `None` = the
    /// planner (became) poisoned — caller must run the dense kernel.
    pub(crate) fn plan_migrations(
        &mut self,
        view: &PlacementView<'_>,
        delta: Option<FleetDelta>,
        cfg: &DynamicConfig,
    ) -> Option<(Vec<Migration>, bool)> {
        if !self.ensure_synced(view, delta, cfg) {
            return None;
        }
        if self.cols.is_empty() || self.active_rows < 2 {
            return Some((Vec::new(), false));
        }
        // Checked mode: in debug builds, prove the effective bounds
        // dominate the exact scores and the hot set is exactly the columns
        // whose effective bound clears the threshold, before trusting the
        // early-out on them.
        #[cfg(debug_assertions)]
        self.assert_bounds(view.now, cfg);
        // Stage 1: most passes end here, having visited no column outside
        // the patch's dirty set.
        if self.hot.is_empty() {
            return Some((Vec::new(), false));
        }
        // Stage 2: exact refresh of the hot columns at the current instant;
        // the ones still above the threshold stay hot.
        let hot = std::mem::take(&mut self.hot);
        let mut any = false;
        for &vm in &hot {
            let c = self.col_index(vm).expect("hot columns are live");
            any |= self.refresh_exact(c, view.now, cfg);
        }
        dvmp_obs::note_compressed_bound_scan(hot.len() as u64);
        if !any {
            return Some((Vec::new(), false));
        }
        // Stage 3: a genuine winner exists — run Algorithm 1's rounds.
        dvmp_obs::note_compressed_rounds_entered();
        let now = view.now;
        let rem_of = |cols: &[Col], c: usize| cols[c].deadline.saturating_since(now).as_secs();
        Some(self.run_rounds(cfg, rem_of, None))
    }

    /// Algorithm 1's migration rounds with the per-column best cache and
    /// its repair heuristics, mirrored from the dense planner. Returns the
    /// move batch and whether the round cap stopped it.
    fn run_rounds(
        &mut self,
        cfg: &DynamicConfig,
        rem_of: impl Fn(&[Col], usize) -> u64,
        mut plan: Option<&mut PlanState>,
    ) -> (Vec<Migration>, bool) {
        let n = self.cols.len();
        let mut rem = std::mem::take(&mut self.rem);
        let mut best = std::mem::take(&mut self.best);
        rem.clear();
        best.clear();
        for c in 0..n {
            rem.push(rem_of(&self.cols, c));
        }
        for (c, &r) in rem.iter().enumerate() {
            best.push(self.exact_best(c, r, cfg));
        }
        let mut moves = Vec::new();
        let mut capped = true;
        for _round in 0..cfg.mig_round {
            let mut winner: Option<(usize, u32, f64)> = None;
            for (c, entry) in best.iter().enumerate() {
                if let Some((row, d)) = *entry {
                    if d > cfg.mig_threshold && winner.map_or(true, |(_, _, wd)| d > wd) {
                        winner = Some((c, row, d));
                    }
                }
            }
            let Some((col, to, _d)) = winner else {
                capped = false;
                break;
            };
            let to = to as usize;
            let from = self.cols[col].host as usize;
            let res = self.demands[self.cols[col].demand as usize];
            if let Some(p) = plan.as_deref_mut() {
                let applied = p.apply_migration(col, to);
                debug_assert_eq!(applied, (from, to));
                self.rows[from].used = p.pms[from].used;
                self.rows[to].used = p.pms[to].used;
            } else {
                self.rows[from].used = self.rows[from].used.saturating_sub(&res);
                self.rows[to].used = self.rows[to].used.add(&res);
            }
            self.refresh_row(from, cfg);
            self.refresh_row(to, cfg);
            let mig_secs = self.sclasses[self.rows[to].sclass as usize]
                .entry
                .migration_secs;
            rem[col] = rem[col].saturating_sub(mig_secs);
            let vm_id = self.cols[col].id;
            self.cols[col].host = to as u32;
            self.host_vms[from].remove(&vm_id);
            self.host_vms[to].insert(vm_id);
            let d = self.cols[col].demand as usize;
            self.detach(from, d);
            self.attach(to, d);
            moves.push(Migration {
                vm: vm_id,
                from: self.row_ids[from],
                to: self.row_ids[to],
            });

            // Repair the per-column cache (mirrors the dense repair loop,
            // including its zero-entry skip).
            for c in 0..n {
                let host = self.cols[c].host as usize;
                let needs_rescan = c == col
                    || host == from
                    || host == to
                    || best[c].is_some_and(|(r, _)| r as usize == from || r as usize == to);
                if needs_rescan {
                    best[c] = self.exact_best(c, rem[c], cfg);
                } else {
                    for row in [from, to] {
                        if row == host {
                            continue;
                        }
                        let p = self.probe_p(row, c, rem[c], cfg);
                        if p <= 0.0 {
                            continue;
                        }
                        let h = self.rows[host].h;
                        let d = if h > 0.0 { p / h } else { f64::INFINITY };
                        if d > 0.0 && best[c].map_or(true, |(_, bd)| d > bd) {
                            best[c] = Some((row as u32, d));
                        }
                    }
                }
            }
        }
        // The exact bests become the carried bounds, and the pass's own
        // touches are re-read authoritatively next patch.
        self.hot.clear();
        for (col, b) in self.cols.iter_mut().zip(best.iter()) {
            col.dbar = b.map_or(0.0, |(_, d)| d);
            col.epoch = self.epoch;
            if col.dbar > cfg.mig_threshold {
                self.hot.insert(col.id);
            }
        }
        for m in &moves {
            self.self_dirty_pms.insert(m.from);
            self.self_dirty_pms.insert(m.to);
            self.self_dirty_vms.insert(m.vm);
        }
        self.rem = rem;
        self.best = best;
        (moves, capped)
    }

    /// New-arrival placement (the Section III-C column), with the dense
    /// planner's overhead-free fallback. `None` = poisoned.
    pub(crate) fn place(
        &mut self,
        view: &PlacementView<'_>,
        spec: &VmSpec,
        delta: Option<FleetDelta>,
        cfg: &DynamicConfig,
    ) -> Option<Option<PmId>> {
        if !self.ensure_synced(view, delta, cfg) {
            return None;
        }
        let d_idx = match self.register_demand(&spec.resources, cfg) {
            Ok(d) => d as usize,
            Err(Poison) => {
                self.poison();
                return None;
            }
        };
        let est = spec.estimated_runtime.as_secs();
        let pick = |with_vir: bool| -> Option<(u32, f64)> {
            let mut best: Option<(u32, f64)> = None;
            for (s, sc) in self.sclasses.iter().enumerate() {
                if !sc.usable {
                    continue;
                }
                let mut va = 1.0;
                if with_vir {
                    va *= vir::p_vir(
                        est,
                        sc.entry.creation_secs,
                        sc.entry.migration_secs,
                        false,
                        false,
                        cfg.overhead_mode,
                    );
                }
                if cfg.use_rel {
                    va *= sc.rel;
                }
                if va <= 0.0 {
                    continue;
                }
                let b = &self.buckets[s * MAX_DEMANDS + d_idx];
                let Some(w) = b.top() else { continue };
                let r = *b.levels[w as usize]
                    .iter()
                    .next()
                    .expect("non-empty top level");
                let p = va * sc.entry.level_eff[w as usize];
                if p > 0.0 && best.map_or(true, |(br, bp)| p > bp || (p == bp && r < br)) {
                    best = Some((r, p));
                }
            }
            best
        };
        let chosen = pick(cfg.use_vir).or_else(|| pick(false));
        Some(chosen.map(|(r, _)| self.row_ids[r as usize]))
    }
}

/// One-shot compressed planning over an explicit [`PlanState`] — the
/// `plan_on` entry point under an explicit `PlanKernel::Compressed`.
/// Returns `None` when the plan cannot be compressed (caller runs dense).
pub(crate) fn one_shot(
    cfg: &DynamicConfig,
    plan: &mut PlanState,
) -> Option<(Vec<Migration>, bool)> {
    let mut p = CompressedPlanner::new();
    p.effs = plan.effs.clone();
    let m = plan.pms.len();
    p.rows.resize_with(m, Row::default);
    p.row_ids.extend(plan.pms.iter().map(|pm| pm.id));
    p.row_w.resize(m * MAX_DEMANDS, INFEASIBLE);
    p.host_vms.resize_with(m, BTreeSet::new);
    for r in 0..m {
        let pm = plan.pms[r].clone();
        if p.sync_row(r, true, &pm, cfg).is_err() {
            p.poison();
            return None;
        }
    }
    for vm in &plan.vms {
        let Ok(d) = p.register_demand(&vm.resources, cfg) else {
            p.poison();
            return None;
        };
        p.cols
            .push(Col::new(vm.id, d, vm.host as u32, SimTime::ZERO));
        p.host_vms[vm.host].insert(vm.id);
        p.attach(vm.host, d as usize);
    }
    let rems: Vec<u64> = plan.vms.iter().map(|vm| vm.remaining_secs).collect();
    let rem_of = move |_cols: &[Col], c: usize| rems[c];
    Some(p.run_rounds(cfg, rem_of, Some(plan)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlanKernel;
    use crate::dynamic::DynamicPlacement;
    use crate::plan::PlanState;
    use crate::policy::testutil::*;
    use crate::policy::PlacementPolicy;
    use dvmp_cluster::datacenter::{Datacenter, FleetBuilder};
    use dvmp_cluster::pm::PmClass;
    use dvmp_cluster::vm::Vm;
    use std::collections::BTreeMap;

    fn cfg_with(kernel: PlanKernel) -> DynamicConfig {
        let mut cfg = DynamicConfig::default();
        cfg.plan_kernel = kernel;
        cfg
    }

    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// One datacenter + VM map + policy, driven through a scripted
    /// history. Two twins fed identical histories must agree on every
    /// policy decision.
    struct Twin {
        dc: Datacenter,
        vms: BTreeMap<VmId, Vm>,
        policy: DynamicPlacement,
    }

    impl Twin {
        fn new(kernel: PlanKernel) -> Self {
            let dc = FleetBuilder::new()
                .add_class(PmClass::paper_fast(), 6, 0.99)
                .add_class(PmClass::paper_slow(), 6, 0.95)
                .initially_on(true)
                .build();
            Twin {
                dc,
                vms: BTreeMap::new(),
                policy: DynamicPlacement::new(cfg_with(kernel)),
            }
        }

        fn view(&self, now: SimTime) -> PlacementView<'_> {
            PlacementView {
                dc: &self.dc,
                vms: &self.vms,
                now,
            }
        }

        fn drain(&mut self) {
            let delta = self.dc.take_fleet_delta();
            self.policy.note_fleet_delta(delta);
        }

        fn place(&mut self, spec: &VmSpec, now: SimTime) -> Option<PmId> {
            self.drain();
            let view = PlacementView {
                dc: &self.dc,
                vms: &self.vms,
                now,
            };
            self.policy.place(&view, spec)
        }

        fn plan(&mut self, now: SimTime) -> Vec<Migration> {
            self.drain();
            let view = PlacementView {
                dc: &self.dc,
                vms: &self.vms,
                now,
            };
            self.policy.plan_migrations(&view)
        }
    }

    /// Drives the dense and compressed policies through the same random
    /// arrival / departure / migration / failure history and asserts
    /// every placement and every migration batch is identical. Covers the
    /// persistent patch path (journal dirt, Creating stash, planner
    /// self-dirt, skipped moves) rather than single fresh passes.
    fn differential_history(seed: u64, steps: u32) {
        drive_history(
            seed,
            steps,
            Twin::new(PlanKernel::Dense),
            Twin::new(PlanKernel::Compressed),
        );
    }

    /// The scripted-history driver behind the differential tests: both
    /// twins see the same arrivals, departures, commits and failures and
    /// must agree on every placement and every migration batch.
    fn drive_history(seed: u64, steps: u32, mut dense: Twin, mut comp: Twin) {
        let mut rng = seed | 1;
        let mut next_vm = 1u32;
        let mut t = 0u64;
        let mut failures = 0;
        // In-flight migrations and pending creations, identical in both
        // twins by construction.
        let mut inflight: Vec<(VmId, PmId, PmId, SimTime)> = Vec::new();
        let mut creating: Vec<(VmId, PmId, SimTime)> = Vec::new();

        for _ in 0..steps {
            let now = SimTime::from_secs(t);
            // Commit due migrations and creations (CreationDone mutates
            // only the VM map — the unjournaled transition the stash
            // exists for).
            inflight.retain(|&(vm, from, to, done)| {
                if !dense.vms.contains_key(&vm) {
                    return false;
                }
                if done > now {
                    return true;
                }
                for twin in [&mut dense, &mut comp] {
                    twin.dc.finish_migration(vm, from).unwrap();
                    let v = twin.vms.get_mut(&vm).unwrap();
                    v.state = VmState::Running { pm: to };
                }
                false
            });
            creating.retain(|&(vm, pm, ready)| {
                if !dense.vms.contains_key(&vm) {
                    return false;
                }
                if ready > now {
                    return true;
                }
                for twin in [&mut dense, &mut comp] {
                    let v = twin.vms.get_mut(&vm).unwrap();
                    v.state = VmState::Running { pm };
                    v.started_at = Some(ready);
                }
                false
            });

            match xorshift(&mut rng) % 6 {
                0 | 1 => {
                    // Arrival: both policies must pick the same PM.
                    let mem = 256 << (xorshift(&mut rng) % 3);
                    let est = 400 + xorshift(&mut rng) % 200_000;
                    let spec = spec(next_vm, mem, est);
                    next_vm += 1;
                    let pa = dense.place(&spec, now);
                    let pb = comp.place(&spec, now);
                    assert_eq!(pa, pb, "seed {seed}: placement diverged at t={t}");
                    if let Some(pm) = pa {
                        let as_creating = xorshift(&mut rng) % 2 == 0;
                        let cre = dense.dc.pm(pm).class.creation_time;
                        for twin in [&mut dense, &mut comp] {
                            twin.dc.place(spec.id, pm, spec.resources).unwrap();
                            let mut vm = Vm::new(spec.clone());
                            if as_creating {
                                vm.state = VmState::Creating {
                                    pm,
                                    ready_at: now + cre,
                                };
                            } else {
                                vm.state = VmState::Running { pm };
                                vm.started_at = Some(now);
                            }
                            twin.vms.insert(spec.id, vm);
                        }
                        if as_creating {
                            creating.push((spec.id, pm, now + cre));
                        }
                    }
                }
                2 => {
                    // Departure of a random live VM.
                    let ids: Vec<VmId> = dense.vms.keys().copied().collect();
                    if !ids.is_empty() {
                        let vm = ids[(xorshift(&mut rng) % ids.len() as u64) as usize];
                        for twin in [&mut dense, &mut comp] {
                            twin.dc.remove_vm(vm);
                            twin.vms.remove(&vm);
                        }
                    }
                }
                3 | 4 => {
                    // Planning pass; apply a random subset of the agreed
                    // moves (the simulator skips moves too).
                    let ma = dense.plan(now);
                    let mb = comp.plan(now);
                    assert_eq!(ma, mb, "seed {seed}: plans diverged at t={t}");
                    for m in &ma {
                        if xorshift(&mut rng) % 4 == 0 {
                            continue; // skipped by the "simulator"
                        }
                        let res = dense.vms[&m.vm].spec.resources;
                        // Mirror the simulator's pre-apply validity check:
                        // earlier moves in the batch can use up the room the
                        // planner assumed this one would have.
                        if !matches!(
                            dense.vms[&m.vm].state,
                            VmState::Running { pm } if pm == m.from
                        ) || !dense.dc.pm(m.to).can_host(&res)
                        {
                            continue;
                        }
                        let mig = dense.dc.pm(m.to).class.migration_time;
                        for twin in [&mut dense, &mut comp] {
                            twin.dc.begin_migration(m.vm, m.to, res).unwrap();
                            let v = twin.vms.get_mut(&m.vm).unwrap();
                            v.state = VmState::Migrating {
                                from: m.from,
                                to: m.to,
                                done_at: now + mig,
                            };
                            v.overhead += mig;
                        }
                        inflight.push((m.vm, m.from, m.to, now + mig));
                    }
                }
                _ => {
                    // PM failure (bounded so the fleet survives the run).
                    if failures < 2 {
                        let candidates: Vec<PmId> = dense
                            .dc
                            .pms()
                            .iter()
                            .filter(|pm| pm.is_available())
                            .map(|pm| pm.id)
                            .collect();
                        if candidates.len() > 4 {
                            let pm =
                                candidates[(xorshift(&mut rng) % candidates.len() as u64) as usize];
                            failures += 1;
                            let displaced_a = dense.dc.fail_pm(pm);
                            let displaced_b = comp.dc.fail_pm(pm);
                            assert_eq!(displaced_a, displaced_b);
                            for vm in displaced_a {
                                dense.vms.remove(&vm);
                                comp.vms.remove(&vm);
                            }
                        }
                    }
                }
            }
            t += 30 + xorshift(&mut rng) % 400;
        }
        // A final full pass for good measure.
        let now = SimTime::from_secs(t);
        assert_eq!(dense.plan(now), comp.plan(now), "seed {seed}: final plan");
        assert!(
            !comp.policy.compressed_poisoned(),
            "seed {seed}: this history must stay compressible"
        );
        assert!(
            comp.policy.compressed_passes() > 0,
            "seed {seed}: the compressed kernel must actually run"
        );
    }

    #[test]
    fn bucket_insert_lifts_a_clean_column_into_the_hot_set() {
        // VM 1 runs alone on PM 6, a small slow machine, in an otherwise
        // empty fleet: no candidate reaches a higher utilization level, so
        // no move clears the threshold.
        let mut dense = Twin::new(PlanKernel::Dense);
        let mut comp = Twin::new(PlanKernel::Compressed);
        let cfg = cfg_with(PlanKernel::Compressed);
        let mut planner = CompressedPlanner::new();
        let t0 = SimTime::ZERO;
        for twin in [&mut dense, &mut comp] {
            install(
                &mut twin.dc,
                &mut twin.vms,
                spec(1, 512, 200_000),
                PmId(6),
                t0,
            );
        }
        let delta = comp.dc.take_fleet_delta();
        let (moves, _) = planner
            .plan_migrations(&comp.view(t0), Some(delta), &cfg)
            .expect("compressible");
        assert_eq!(moves, dense.plan(t0));
        assert!(moves.is_empty() && planner.hot.is_empty());
        let v = planner.col_index(VmId(1)).unwrap();
        assert!(planner.cols[v].dbar <= cfg.mig_threshold);

        // VM 2 lands on PM 7: that row enters the (slow, 512 MiB) bucket
        // one level up. The patch dirties PM 7 and VM 2 only, yet the
        // raise must lift VM 1's clean column above the threshold.
        let t1 = SimTime::from_secs(100);
        for twin in [&mut dense, &mut comp] {
            install(
                &mut twin.dc,
                &mut twin.vms,
                spec(2, 512, 200_000),
                PmId(7),
                t1,
            );
        }
        let delta = comp.dc.take_fleet_delta();
        assert!(!delta.dirty_vms().contains(&VmId(1)));
        assert!(planner.ensure_synced(&comp.view(t1), Some(delta), &cfg));
        let v = planner.col_index(VmId(1)).unwrap();
        assert!(
            planner.cols[v].epoch < planner.epoch,
            "VM 1 was not refreshed by the patch"
        );
        assert!(planner.cols[v].dbar <= cfg.mig_threshold);
        assert!(
            planner.hot.contains(&VmId(1)),
            "the raise walked the clean column into the hot set"
        );

        // The pass refreshes the hot set exactly (Stage 2) and proposes
        // the dense twin's batch.
        let delta = comp.dc.take_fleet_delta();
        let (moves, _) = planner
            .plan_migrations(&comp.view(t1), Some(delta), &cfg)
            .expect("compressible");
        let v = planner.col_index(VmId(1)).unwrap();
        assert_eq!(
            planner.cols[v].epoch, planner.epoch,
            "Stage 2 refreshed VM 1"
        );
        assert_eq!(moves, dense.plan(t1));
        assert!(!moves.is_empty(), "the two lone VMs consolidate");
    }

    #[test]
    fn compressed_matches_dense_over_random_histories() {
        for seed in [3, 7, 11, 23, 41, 97, 131, 257] {
            differential_history(seed, 120);
        }
    }

    /// A twin over a per-PM-jittered fleet: every reliability is nudged
    /// off its class value, so exact-equality superclassing would
    /// fragment toward one class per PM. With `class_tolerance` both
    /// kernels quantize through the same grid and the compressed planner
    /// keeps its two hardware superclasses.
    fn jittered_twin(kernel: PlanKernel, tolerance: f64) -> Twin {
        let mut dc = FleetBuilder::new()
            .add_class(PmClass::paper_fast(), 6, 0.99)
            .add_class(PmClass::paper_slow(), 6, 0.95)
            .initially_on(true)
            .build();
        for i in 0..dc.len() {
            // ±0.004 spread, well inside one 0.01-tolerance bucket.
            dc.pm_mut(PmId(i as u32)).reliability += 0.002 * ((i % 5) as f64 - 2.0);
        }
        let mut cfg = cfg_with(kernel);
        cfg.class_tolerance = tolerance;
        Twin {
            dc,
            vms: BTreeMap::new(),
            policy: DynamicPlacement::new(cfg),
        }
    }

    #[test]
    fn bucketed_compressed_matches_dense_on_jittered_fleets() {
        for seed in [5, 19, 73, 211] {
            let dense = jittered_twin(PlanKernel::Dense, 0.01);
            let comp = jittered_twin(PlanKernel::Compressed, 0.01);
            drive_history(seed, 100, dense, comp);
        }
    }

    #[test]
    fn tolerance_collapses_jittered_fleet_to_hardware_superclasses() {
        // Exact keys: every jittered reliability is its own superclass.
        let mut exact = jittered_twin(PlanKernel::Compressed, 0.0);
        let _ = exact.plan(SimTime::ZERO);
        assert!(!exact.policy.compressed_poisoned());
        assert_eq!(
            exact.policy.compressed_superclasses(),
            10,
            "5 distinct jittered reliabilities per hardware class"
        );
        // Bucketed keys: the jitter collapses back onto the two classes.
        let mut bucketed = jittered_twin(PlanKernel::Compressed, 0.01);
        let s = spec(1, 512, 50_000);
        if let Some(pm) = bucketed.place(&s, SimTime::ZERO) {
            bucketed.dc.place(s.id, pm, s.resources).unwrap();
            let mut vm = Vm::new(s);
            vm.state = VmState::Running { pm };
            vm.started_at = Some(SimTime::ZERO);
            bucketed.vms.insert(vm.spec.id, vm);
        }
        let _ = bucketed.plan(SimTime::ZERO);
        assert!(!bucketed.policy.compressed_poisoned());
        assert_eq!(bucketed.policy.compressed_superclasses(), 2);
        assert!(
            bucketed.policy.compressed_occupied_buckets() >= 1,
            "a registered demand occupies at least one level bucket"
        );
    }

    #[test]
    fn compressed_place_matches_dense_on_fresh_fleet() {
        // Ultra-short estimates exercise the without-vir fallback column.
        for est in [50, 500, 5_000, 50_000] {
            let mut dense = Twin::new(PlanKernel::Dense);
            let mut comp = Twin::new(PlanKernel::Compressed);
            let s = spec(1, 512, est);
            let now = SimTime::ZERO;
            assert_eq!(dense.place(&s, now), comp.place(&s, now), "est {est}");
        }
    }

    #[test]
    fn one_shot_matches_dense_on_class_divergent_plans() {
        // Hand-built plans whose PMs diverge from their hardware class
        // (mutated reliability): every divergent PM must land in its own
        // superclass and the move sequence must match the dense planner.
        let mut dc = small_fleet();
        let mut vms = BTreeMap::new();
        for (i, pm) in [0u32, 1, 2, 3, 2, 3].iter().enumerate() {
            install(
                &mut dc,
                &mut vms,
                spec(i as u32 + 1, 512, 150_000 + i as u64 * 1_000),
                PmId(*pm),
                SimTime::ZERO,
            );
        }
        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let cfg = DynamicConfig::default();
        let mut plan = PlanState::from_view(&view, &cfg.min_vm);
        // Diverge two PMs from their class rows.
        plan.pms[1].reliability = 0.42;
        plan.pms[3].reliability = 0.77;

        let mut plan_dense = plan.clone();
        let mut plan_comp = plan.clone();
        let mut dense = DynamicPlacement::new(cfg_with(PlanKernel::Dense));
        let mut comp = DynamicPlacement::new(cfg_with(PlanKernel::Compressed));
        let moves_dense = dense.plan_on(&mut plan_dense);
        let moves_comp = comp.plan_on(&mut plan_comp);
        assert_eq!(moves_dense, moves_comp);
        assert!(
            !moves_dense.is_empty(),
            "divergent fleet still consolidates"
        );
        assert_eq!(comp.compressed_passes(), 1, "one-shot kernel served it");
        for (a, b) in plan_dense.pms.iter().zip(plan_comp.pms.iter()) {
            assert_eq!(a.used, b.used, "identical end occupancy");
        }
    }

    #[test]
    fn tie_break_is_deterministic_across_build_kernels() {
        // Sequential dense, parallel dense and compressed builds must all
        // resolve ties identically (lowest eligible PM id).
        let build = || {
            let mut dc = small_fleet();
            let mut vms = BTreeMap::new();
            // Symmetric load: the two fast PMs (and the two slow PMs) are
            // bit-identical rows, so every candidate scan hits ties.
            for (i, pm) in [0u32, 1, 2, 3, 0, 1].iter().enumerate() {
                install(
                    &mut dc,
                    &mut vms,
                    spec(i as u32 + 1, 512, 180_000),
                    PmId(*pm),
                    SimTime::ZERO,
                );
            }
            (dc, vms)
        };
        let mut seq_cfg = cfg_with(PlanKernel::Dense);
        seq_cfg.par_rows_cutoff = usize::MAX;
        let mut par_cfg = cfg_with(PlanKernel::Dense);
        par_cfg.par_rows_cutoff = 1;
        let cfgs = [seq_cfg, par_cfg, cfg_with(PlanKernel::Compressed)];
        let mut all_moves = Vec::new();
        let mut all_places = Vec::new();
        for cfg in cfgs {
            let (dc, vms) = build();
            let view = PlacementView {
                dc: &dc,
                vms: &vms,
                now: SimTime::ZERO,
            };
            let mut policy = DynamicPlacement::new(cfg);
            all_moves.push(policy.plan_migrations(&view));
            all_places.push(policy.place(&view, &spec(99, 256, 120_000)));
        }
        assert_eq!(all_moves[0], all_moves[1], "sequential vs parallel");
        assert_eq!(all_moves[0], all_moves[2], "dense vs compressed");
        assert_eq!(all_places[0], all_places[1]);
        assert_eq!(all_places[0], all_places[2]);
    }

    #[test]
    fn poisoned_planner_falls_back_to_dense_and_still_matches() {
        // More distinct demand vectors than MAX_DEMANDS: the compressed
        // planner must poison itself and route everything to the dense
        // kernel, with no observable difference.
        let mut dense = Twin::new(PlanKernel::Dense);
        let mut comp = Twin::new(PlanKernel::Compressed);
        let mut t = 0u64;
        for i in 0..(MAX_DEMANDS as u32 + 6) {
            let now = SimTime::from_secs(t);
            let s = spec(i + 1, 256 + i as u64, 100_000);
            let pa = dense.place(&s, now);
            let pb = comp.place(&s, now);
            assert_eq!(pa, pb, "vm {i}");
            if let Some(pm) = pa {
                for twin in [&mut dense, &mut comp] {
                    install(&mut twin.dc, &mut twin.vms, s.clone(), pm, now);
                }
            }
            t += 100;
        }
        assert!(comp.policy.compressed_poisoned());
        let now = SimTime::from_secs(t);
        assert_eq!(dense.plan(now), comp.plan(now), "post-poison plans match");
    }

    #[test]
    fn auto_kernel_stays_dense_below_cutoff() {
        // Paper-scale fleets (≪ cutoff) must keep the dense reference
        // kernel under Auto — golden traces depend on it only in the sense
        // that both kernels are identical, but the counters make the
        // selection observable.
        let mut dc = small_fleet();
        let mut vms = BTreeMap::new();
        for (i, pm) in [0u32, 1, 2, 3].iter().enumerate() {
            install(
                &mut dc,
                &mut vms,
                spec(i as u32 + 1, 512, 200_000),
                PmId(*pm),
                SimTime::ZERO,
            );
        }
        let mut policy = DynamicPlacement::paper_default();
        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let moves = policy.plan_migrations(&view);
        assert!(!moves.is_empty());
        assert_eq!(policy.compressed_passes(), 0, "Auto stays dense at 4 PMs");
    }

    #[test]
    fn creation_stash_defers_and_adopts_columns() {
        // A VM mid-creation must not be planned; once its ready time
        // passes (an unjournaled transition), the stash must surface it.
        let mut dense = Twin::new(PlanKernel::Dense);
        let mut comp = Twin::new(PlanKernel::Compressed);
        // Fragment: two runners on separate PMs plus one creating.
        for (twin_no, twin) in [&mut dense, &mut comp].into_iter().enumerate() {
            for (i, pm) in [0u32, 2].iter().enumerate() {
                install(
                    &mut twin.dc,
                    &mut twin.vms,
                    spec(i as u32 + 1, 512, 200_000),
                    PmId(*pm),
                    SimTime::ZERO,
                );
            }
            twin.dc
                .place(VmId(3), PmId(3), ResourceVector::cpu_mem(1, 512))
                .unwrap();
            let mut vm = Vm::new(spec(3, 512, 200_000));
            vm.state = VmState::Creating {
                pm: PmId(3),
                ready_at: SimTime::from_secs(40),
            };
            twin.vms.insert(VmId(3), vm);
            let _ = twin_no;
        }
        let m0_dense = dense.plan(SimTime::from_secs(0));
        let m0_comp = comp.plan(SimTime::from_secs(0));
        assert_eq!(m0_dense, m0_comp, "creating VM excluded identically");
        // Promote (no journal traffic at all) and replan.
        for twin in [&mut dense, &mut comp] {
            let v = twin.vms.get_mut(&VmId(3)).unwrap();
            v.state = VmState::Running { pm: PmId(3) };
            v.started_at = Some(SimTime::from_secs(40));
        }
        let m1_dense = dense.plan(SimTime::from_secs(50));
        let m1_comp = comp.plan(SimTime::from_secs(50));
        assert_eq!(m1_dense, m1_comp, "stash surfaced the new column");
        assert!(
            m1_comp.iter().any(|m| m.vm == VmId(3)) || !m1_comp.is_empty(),
            "the promoted VM is plannable"
        );
    }
}
