//! # xdx-delta — versioned feeds and Dewey subtree diffs
//!
//! The paper's exchange model re-ships the full mapped fragment set on
//! every session. The realistic repeated-sync workload changes a
//! handful of `item` subtrees between sessions, so this crate adds the
//! two source-side pieces of delta exchange:
//!
//! * [`SnapshotStore`] — a monotonically versioned snapshot log per
//!   exchange route. After every successful session the committed
//!   target tables are recorded as the new head version; a later
//!   session planned against "target has version v" fetches snapshot
//!   `v` as its diff base. Retention is bounded: only the most recent
//!   snapshots are kept, and a session whose base fell out of the
//!   window falls back to a full re-ship.
//! * [`diff_snapshots`] — a subtree diff engine. Feeds are sorted in
//!   document order and their `NodeId` key columns are Dewey paths, so
//!   a subtree is a contiguous *prefix range* of rows and two versions
//!   of a table diff in one merge pass: equal subtrees are skipped,
//!   base-only subtrees become `DeleteSubtree` steps, head-only ones
//!   `InsertSubtree`, and changed ones a single `ReplaceSubtree` step
//!   carrying the head rows. The emitted [`DeltaPatch`] is exactly what
//!   [`xdx_relational::patch::apply_table_patch`] consumes, giving the
//!   round-trip invariant `apply(base, diff(base, head)) == head`.
//!
//! Any irregularity — unsorted rows, non-Dewey keys, schema drift
//! between versions — is an error, and errors mean "fall back to a full
//! re-ship", never a wrong patch.
//!
//! Beyond the snapshot window the store also keeps a *chain* of
//! per-step patches `v(i) → v(i+1)`, computed as each head is recorded
//! (while both versions are still in hand) and retained several times
//! longer than the snapshots themselves — a patch is orders of
//! magnitude smaller than the table set it describes. A base version
//! that aged out of the snapshot window can then be *reconstructed* by
//! composing the chain from its anchor ([`SnapshotStore::reconstruct`])
//! instead of falling straight back to a full re-ship.

#![forbid(unsafe_code)]

use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use xdx_relational::patch::key_column;
use xdx_relational::{
    apply_table_patch, Database, DeltaPatch, Dewey, Error, Feed, PatchStep, Result, RowSlice, Rows,
    StepKind, TablePatch, Value,
};
use xdx_sync::{lock, lock_or_repair};

/// One route's table set at one version. Feeds share their rows
/// ([`Rows`]): a table no step touched is one row set across every
/// version, the anchor and the targets that landed it.
pub type Snapshot = Arc<Vec<(String, Feed)>>;

/// Snapshots kept per route; older bases fall back to a full re-ship.
pub const DEFAULT_RETAIN: usize = 4;

/// Per-step patches kept per snapshot retained: the chain reaches
/// `DEFAULT_RETAIN × STEP_RETAIN_FACTOR` versions back, at patch-sized
/// cost.
pub const STEP_RETAIN_FACTOR: usize = 4;

#[derive(Debug, Default)]
struct SnapshotLog {
    head: u64,
    snapshots: VecDeque<(u64, Snapshot)>,
    /// Per-step patches keyed by their base version: entry `(v, p)`
    /// rewrites version `v` into `v + 1`. Contiguous by construction
    /// (a break clears the chain).
    steps: VecDeque<(u64, Arc<DeltaPatch>)>,
    /// The table set at the oldest retained step's base version — the
    /// starting point [`SnapshotStore::reconstruct`] composes from.
    /// Advanced by applying each step the retention window evicts.
    anchor: Option<(u64, Snapshot)>,
}

/// Thread-shared map from route key to its versioned snapshot log.
/// Version 0 means "never synced": the first successful session records
/// version 1.
///
/// One ownership rule: the store is never the last owner of a document
/// while it holds a lock. A table set a `record` lets go of (evicted
/// version, replaced anchor, the recorded set itself when an equal one
/// is kept in its place) is dropped after the route's lock is released,
/// by the caller's thread; the diff memo holds `Weak` handles only.
///
/// A route's log is the one structure in the workspace whose invariants
/// span statements under its lock (the anchor is taken before the
/// evicted step is applied; `head` moves with `snapshots`). A log a
/// panic poisoned is repaired by breaking its chain: only `head`
/// survives, so the route's versions keep rising and its next delta
/// round ships full.
#[derive(Debug)]
pub struct SnapshotStore {
    /// Locked only to find or insert a route's entry; each log has its
    /// own lock, so routes diff and compose side by side.
    logs: Mutex<HashMap<String, Arc<Mutex<SnapshotLog>>>>,
    /// Recent step diffs keyed by the identity of the two snapshots
    /// (plus the base version baked into the patch). Fan-out groups
    /// record the same shared table set under many routes whose heads
    /// advance in lockstep, so the same transition diffs once instead
    /// of once per subscriber, and every subscriber retains one set.
    diff_memo: Mutex<VecDeque<DiffMemo>>,
}

/// A memoized step diff. Keys and result are `Weak`: a live entry pins
/// the three addresses (they cannot be recycled into a false hit) but
/// never a row.
#[derive(Debug)]
struct DiffMemo {
    base: Weak<Vec<(String, Feed)>>,
    head: Weak<Vec<(String, Feed)>>,
    base_version: u64,
    patch: Arc<DeltaPatch>,
    /// What a log retains for `head`: see [`retained_head`].
    retained: Weak<Vec<(String, Feed)>>,
}

const DIFF_MEMO_CAP: usize = 8;

impl SnapshotStore {
    /// An empty store keeping the [`DEFAULT_RETAIN`] most recent
    /// snapshots per route (and `DEFAULT_RETAIN ×`
    /// [`STEP_RETAIN_FACTOR`] per-step patches).
    pub fn new() -> SnapshotStore {
        SnapshotStore {
            logs: Mutex::new(HashMap::new()),
            diff_memo: Mutex::new(VecDeque::new()),
        }
    }

    fn log(&self, route: &str) -> Option<Arc<Mutex<SnapshotLog>>> {
        lock(&self.logs).get(route).cloned()
    }

    /// `f` of a route's log, under its lock.
    fn read_log<R>(&self, route: &str, f: impl FnOnce(&SnapshotLog) -> R) -> Option<R> {
        let log = self.log(route)?;
        let mut released = Vec::new();
        // Not the tail expression: the guard drops here, before `released`.
        let read = f(&lock_log(&log, &mut released));
        Some(read)
    }

    /// Current head version of a route (0 when never synced).
    pub fn head(&self, route: &str) -> u64 {
        self.read_log(route, |l| l.head).unwrap_or(0)
    }

    /// The table set retained for `version`, if still in the window.
    pub fn snapshot(&self, route: &str, version: u64) -> Option<Snapshot> {
        self.read_log(route, |l| l.retained(version)).flatten()
    }

    /// Records a route's committed table set as the next version and
    /// returns it. The oldest snapshot beyond the retention window is
    /// dropped — but not before its outgoing per-step patch was chained,
    /// so [`reconstruct`](SnapshotStore::reconstruct) can still compose
    /// it. An undiffable transition (schema drift, irregular feeds)
    /// breaks the chain rather than risking a wrong composition.
    pub fn record(&self, route: &str, tables: Vec<(String, Feed)>) -> u64 {
        self.record_shared(route, Arc::new(tables))
    }

    /// [`record`](SnapshotStore::record), but the table set arrives
    /// already shared. A fan-out group commits byte-identical content on
    /// every lane: the group snapshots its tables once and each
    /// subscriber route records the same `Arc`, and the step diff
    /// between two shared snapshots is memoized by identity so the
    /// transition diffs once instead of once per subscriber.
    ///
    /// What the log retains is `tables` with every table the step found
    /// unchanged replaced by the previous version's (`retained_head`):
    /// read it back with [`snapshot`](SnapshotStore::snapshot).
    pub fn record_shared(&self, route: &str, tables: Snapshot) -> u64 {
        self.record_patched(route, tables, None)
    }

    /// [`record_shared`](SnapshotStore::record_shared) for a table set
    /// whose step is already known: a target that reached `tables` by
    /// applying `patch` to `base` hands both over, and when the route
    /// still ends where that patch starts — the log's newest snapshot
    /// *is* `base` (a racing record would have replaced it), at
    /// `patch.base_version`, and the patch spans exactly one version —
    /// the patch is chained as the step instead of diffing `tables`
    /// against `base` a second time. Any other `step` is ignored and the
    /// transition is diffed as `record_shared` diffs it; the log comes
    /// out the same either way, because the diff of a snapshot against
    /// what a patch made of it is that patch.
    pub fn record_patched(
        &self,
        route: &str,
        tables: Snapshot,
        step: Option<(Snapshot, Arc<DeltaPatch>)>,
    ) -> u64 {
        // Outlives the guard below: what the log lets go of dies here,
        // after the lock is released (and `tables` and `step` after
        // that).
        let mut released: Vec<Snapshot> = Vec::new();
        let log = Arc::clone(lock(&self.logs).entry(route.to_string()).or_default());
        let mut log = lock_log(&log, &mut released);
        let mut retained = Arc::clone(&tables);
        if let Some((prev_version, prev)) = log.snapshots.back().map(|(v, s)| (*v, Arc::clone(s))) {
            let known = step.as_ref().and_then(|(base, patch)| {
                (Arc::ptr_eq(base, &prev)
                    && patch.base_version == prev_version
                    && patch.head_version == prev_version + 1)
                    .then(|| (Arc::clone(patch), retained_head(&prev, &tables, patch)))
            });
            match known.map_or_else(|| self.step(&prev, &tables, prev_version), Ok) {
                Ok((patch, head)) => {
                    retained = head;
                    if log.steps.is_empty() {
                        log.anchor = Some((prev_version, prev));
                    }
                    log.steps.push_back((prev_version, patch));
                }
                Err(_) => {
                    log.steps.clear();
                    released.extend(log.anchor.take().map(|(_, s)| s));
                }
            }
        }
        log.head += 1;
        let head = log.head;
        log.snapshots.push_back((head, retained));
        while log.snapshots.len() > DEFAULT_RETAIN {
            released.extend(log.snapshots.pop_front().map(|(_, s)| s));
        }
        while log.steps.len() > DEFAULT_RETAIN * STEP_RETAIN_FACTOR {
            // Evicting the oldest step advances the anchor past it, so
            // the chain's reachable range slides instead of shrinking.
            let (base, patch) = log.steps.pop_front().expect("len checked");
            let advanced = log.anchor.take().and_then(|(av, atables)| {
                let next = (av == base)
                    .then(|| apply_patch_tables(&atables, &patch).ok())
                    .flatten();
                released.push(atables);
                next.map(|t| (base + 1, Arc::new(t)))
            });
            match advanced {
                Some(a) => log.anchor = Some(a),
                None => {
                    log.steps.clear();
                    break;
                }
            }
        }
        head
    }

    /// The step patch `prev → tables` and the table set to retain for
    /// `tables`, from the identity memo or computed and memoized.
    fn step(
        &self,
        prev: &Snapshot,
        tables: &Snapshot,
        base_version: u64,
    ) -> Result<(Arc<DeltaPatch>, Snapshot)> {
        let hit = lock(&self.diff_memo).iter().find_map(|m| {
            (m.base_version == base_version
                && std::ptr::eq(m.base.as_ptr(), Arc::as_ptr(prev))
                && std::ptr::eq(m.head.as_ptr(), Arc::as_ptr(tables)))
            .then(|| (Arc::clone(&m.patch), m.retained.upgrade()))
        });
        if let Some((patch, retained)) = hit {
            let retained = retained.unwrap_or_else(|| retained_head(prev, tables, &patch));
            return Ok((patch, retained));
        }
        let patch = Arc::new(diff_snapshots(
            prev,
            tables,
            base_version,
            base_version + 1,
        )?);
        let retained = retained_head(prev, tables, &patch);
        let mut memo = lock(&self.diff_memo);
        memo.push_back(DiffMemo {
            base: Arc::downgrade(prev),
            head: Arc::downgrade(tables),
            base_version,
            patch: Arc::clone(&patch),
            retained: Arc::downgrade(&retained),
        });
        if memo.len() > DIFF_MEMO_CAP {
            memo.pop_front();
        }
        Ok((patch, retained))
    }

    /// The table set at `version`, recovered any way the store can: the
    /// retained snapshot directly (`composed == false`), or — when the
    /// version aged out of the snapshot window — by composing the
    /// retained per-step patch chain from its anchor
    /// (`composed == true`). `None` when the version predates the chain
    /// too, or the chain was broken by an undiffable transition: the
    /// caller's full re-ship fallback.
    pub fn reconstruct(&self, route: &str, version: u64) -> Option<(Snapshot, bool)> {
        // The lock covers picking the anchor and the steps; composing
        // them (and freeing the intermediate sets) happens outside it.
        let (anchor, steps) = {
            let log = self.log(route)?;
            let mut released = Vec::new();
            let log = lock_log(&log, &mut released);
            if let Some(s) = log.retained(version) {
                return Some((s, false));
            }
            let (anchor_version, anchor) = log.anchor.as_ref()?;
            if version < *anchor_version || version > log.head {
                return None;
            }
            let step = |at| log.steps.iter().find(|(b, _)| *b == at);
            let steps: Option<Vec<_>> = (*anchor_version..version)
                .map(|at| step(at).map(|(_, p)| Arc::clone(p)))
                .collect();
            (Arc::clone(anchor), steps?)
        };
        let mut tables: Vec<(String, Feed)> = (*anchor).clone();
        for patch in steps {
            tables = apply_patch_tables(&tables, &patch).ok()?;
        }
        Some((Arc::new(tables), true))
    }

    /// Length of a route's per-step patch chain (diagnostics/tests).
    pub fn chained_steps(&self, route: &str) -> usize {
        self.read_log(route, |l| l.steps.len()).unwrap_or(0)
    }

    /// Number of routes with at least one recorded version.
    pub fn routes(&self) -> usize {
        lock(&self.logs).len()
    }
}

impl SnapshotLog {
    fn retained(&self, version: u64) -> Option<Snapshot> {
        let found = self.snapshots.iter().find(|(v, _)| *v == version);
        found.map(|(_, s)| Arc::clone(s))
    }

    /// Empties the log but for `head`, into `released`.
    fn break_chain(&mut self, released: &mut Vec<Snapshot>) {
        self.steps.clear();
        released.extend(self.anchor.take().map(|(_, s)| s));
        released.extend(self.snapshots.drain(..).map(|(_, s)| s));
    }
}

/// Locks a route's log. A log a panic poisoned breaks its chain first;
/// what it held goes to `released`, to drop after the lock.
fn lock_log<'a>(
    log: &'a Mutex<SnapshotLog>,
    released: &mut Vec<Snapshot>,
) -> MutexGuard<'a, SnapshotLog> {
    lock_or_repair(log, |log| log.break_chain(released))
}

/// What a log retains for `head`, recorded on top of `prev` by the step
/// `patch`: `head`'s table set with every table the step does not name
/// — found equal, row for row — taken from `prev`, so an unchanged
/// table is one row set however many versions carry it and `head`'s own
/// copy of it is the caller's to free.
fn retained_head(prev: &Snapshot, head: &Snapshot, patch: &DeltaPatch) -> Snapshot {
    let changed = |name: &String| patch.tables.iter().any(|t| &t.table == name);
    let keep = |(name, feed): &(String, Feed)| {
        let same = prev.iter().find(|(n, _)| n == name && !changed(name));
        (name.clone(), same.map_or(feed, |(_, f)| f).clone())
    };
    Arc::new(head.iter().map(keep).collect())
}

/// Applies a snapshot-level patch to a snapshot table set, returning
/// the rewritten set — the composition step
/// [`SnapshotStore::reconstruct`] folds over the chain. Only the tables
/// the patch names are rewritten; the rest share `base`'s rows. A table
/// the patch introduces starts from an empty feed of the payload's
/// schema; a table the patch empties stays present (and empty), matching
/// what [`xdx_relational::stage_patch`] leaves in a target database.
pub fn apply_patch_tables(
    base: &[(String, Feed)],
    patch: &DeltaPatch,
) -> Result<Vec<(String, Feed)>> {
    let mut out: Vec<(String, Feed)> = base.to_vec();
    for tp in &patch.tables {
        match out.iter_mut().find(|(n, _)| n == &tp.table) {
            Some((_, feed)) => *feed = apply_table_patch(feed, tp)?,
            None => {
                let empty = Feed::new(tp.payload.schema.clone());
                out.push((tp.table.clone(), apply_table_patch(&empty, tp)?));
            }
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

impl Default for SnapshotStore {
    fn default() -> Self {
        SnapshotStore::new()
    }
}

/// A database's committed tables as a snapshot table set, in sorted
/// name order, sharing each table's rows with the database.
pub fn db_tables(db: &Database) -> Vec<(String, Feed)> {
    db.table_names()
        .into_iter()
        .map(|name| {
            let feed = db.table(name).expect("listed table exists").data.clone();
            (name.to_string(), feed)
        })
        .collect()
}

fn diff_err(table: &str, detail: impl std::fmt::Display) -> Error {
    Error::SchemaMismatch {
        detail: format!("cannot diff table {table:?}: {detail}"),
    }
}

fn row_key<'a>(table: &str, rows: &'a Rows, r: usize, col: usize) -> Result<&'a Dewey> {
    rows.cell(r, col)
        .as_dewey()
        .ok_or_else(|| diff_err(table, "row key is not a Dewey id"))
}

/// Extent of the subtree group starting at `start`: the run of rows
/// before `end` whose key extends the first row's key.
fn group_end(table: &str, rows: &Rows, start: usize, end: usize, col: usize) -> Result<usize> {
    let key = row_key(table, rows, start, col)?;
    let mut next = start + 1;
    while next < end && key.is_prefix_of(row_key(table, rows, next, col)?) {
        next += 1;
    }
    Ok(next)
}

/// One table's diff as it is walked: the steps and the head rows they
/// carry, in document order.
struct TableDiff<'a> {
    table: &'a str,
    base: &'a Feed,
    head: &'a Feed,
    col: usize,
    steps: Vec<PatchStep>,
    payload: Vec<Vec<Value>>,
}

impl<'a> TableDiff<'a> {
    /// A diff of `base` and `head` (of one schema) keyed by `col`.
    fn new(table: &'a str, base: &'a Feed, head: &'a Feed, col: usize) -> TableDiff<'a> {
        TableDiff {
            table,
            base,
            head,
            col,
            steps: Vec::new(),
            payload: Vec::new(),
        }
    }

    fn push(&mut self, kind: StepKind, key: &Dewey, head_rows: RowSlice<'_>) {
        self.steps.push(PatchStep {
            kind,
            key: key.clone(),
            rows: head_rows.len() as u32,
        });
        head_rows.copy_to(&mut self.payload);
    }

    /// Walks base rows `b..b_end` against head rows `h..h_end` in one
    /// merge pass: equal subtrees are skipped, base-only ones deleted,
    /// head-only ones inserted and changed ones replaced.
    fn walk(&mut self, mut b: usize, b_end: usize, mut h: usize, h_end: usize) -> Result<()> {
        let (table, col) = (self.table, self.col);
        let (base, head) = (&self.base.rows, &self.head.rows);
        while b < b_end && h < h_end {
            let bk = row_key(table, base, b, col)?;
            let hk = row_key(table, head, h, col)?;
            if bk.is_prefix_of(hk) || hk.is_prefix_of(bk) {
                // Same subtree (possibly addressed at different depths when
                // the subtree root row itself appeared or vanished): consume
                // the shorter key's full range on both sides and compare.
                let key = if bk.depth() <= hk.depth() { bk } else { hk };
                let (bs, hs) = (b, h);
                while b < b_end && key.is_prefix_of(row_key(table, base, b, col)?) {
                    b += 1;
                }
                while h < h_end && key.is_prefix_of(row_key(table, head, h, col)?) {
                    h += 1;
                }
                if base.slice(bs..b) != head.slice(hs..h) {
                    self.push(StepKind::ReplaceSubtree, key, head.slice(hs..h));
                }
            } else if bk < hk {
                let end = group_end(table, base, b, b_end, col)?;
                self.push(StepKind::DeleteSubtree, bk, RowSlice::default());
                b = end;
            } else {
                let end = group_end(table, head, h, h_end, col)?;
                self.push(StepKind::InsertSubtree, hk, head.slice(h..end));
                h = end;
            }
        }
        while b < b_end {
            let key = row_key(table, base, b, col)?;
            let end = group_end(table, base, b, b_end, col)?;
            self.push(StepKind::DeleteSubtree, key, RowSlice::default());
            b = end;
        }
        while h < h_end {
            let key = row_key(table, head, h, col)?;
            let end = group_end(table, head, h, h_end, col)?;
            self.push(StepKind::InsertSubtree, key, head.slice(h..end));
            h = end;
        }
        Ok(())
    }

    /// The table's patch; `None` when the walk found nothing.
    fn finish(self) -> Option<TablePatch> {
        if self.steps.is_empty() {
            return None;
        }
        Some(TablePatch {
            table: self.table.to_string(),
            steps: self.steps,
            payload: Feed {
                schema: self.head.schema.clone(),
                rows: self.payload.into(),
            },
        })
    }
}

/// Diffs two versions of one table in a single merge pass, returning
/// `None` when they are equal. Both feeds must share a schema and,
/// unless equal, be sorted on the key column (document order) — both
/// hold for feeds the exchange pipeline produced.
pub fn diff_table(table: &str, base: &Feed, head: &Feed) -> Result<Option<TablePatch>> {
    if base.schema != head.schema {
        return Err(diff_err(table, "schema changed between versions"));
    }
    // Unchanged: the very row set the base holds, or — a re-shipped table,
    // decoded anew — an equal one, told in one early-exit pass instead
    // of two sortedness checks and the merge walk.
    if Rows::ptr_eq(&base.rows, &head.rows) || base.rows == head.rows {
        return Ok(None);
    }
    let col = key_column(head)?;
    if !base.is_sorted_by(&[col]) || !head.is_sorted_by(&[col]) {
        return Err(diff_err(table, "rows not in document order"));
    }
    let mut diff = TableDiff::new(table, base, head, col);
    diff.walk(0, base.len(), 0, head.len())?;
    Ok(diff.finish())
}

/// The rows of `rows` from `from` on under `prefix`: one contiguous run
/// of a key-sorted table, found by binary search on the key column `col`
/// and checked to be in document order.
fn rows_under(
    table: &str,
    rows: &Rows,
    col: usize,
    from: usize,
    prefix: &Dewey,
) -> Result<Range<usize>> {
    let partition = |mut lo: usize, before: &dyn Fn(&Dewey) -> bool| {
        let mut hi = rows.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if before(row_key(table, rows, mid, col)?) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok::<usize, Error>(lo)
    };
    let start = partition(from.min(rows.len()), &|key| key < prefix)?;
    let end = partition(start, &|key| prefix.is_prefix_of(key))?;
    if !rows.slice(start..end).is_sorted_by(&[col]) {
        return Err(diff_err(table, "rows not in document order"));
    }
    Ok(start..end)
}

/// Diffs `head` against `base` inside the Dewey ranges of `prefixes`
/// only (sorted, none under another): the patch [`diff_snapshots`] makes
/// of the two, step for step and row for row, when they are equal
/// outside those ranges — what a delta round's ranged head guarantees
/// (DESIGN §23). `head` may hold rows outside the ranges; none of them
/// is diffed. Both sets must hold the same tables, each in document
/// order: a head table is checked whole (a ranged head is small), a base
/// table only inside the ranges, which binary search finds, so it is
/// read nowhere else.
pub fn diff_ranges(
    base: &[(String, Feed)],
    head: &[(String, Feed)],
    prefixes: &[Dewey],
    base_version: u64,
    head_version: u64,
) -> Result<DeltaPatch> {
    if base.len() != head.len() {
        return Err(diff_err("*", "the table sets differ"));
    }
    let mut tables = Vec::new();
    for (name, head_feed) in head {
        let base_feed = base
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, f)| f)
            .ok_or_else(|| diff_err(name, "table not in the base"))?;
        if base_feed.schema != head_feed.schema {
            return Err(diff_err(name, "schema changed between versions"));
        }
        let col = key_column(head_feed)?;
        if !head_feed.is_sorted_by(&[col]) {
            return Err(diff_err(name, "rows not in document order"));
        }
        let mut diff = TableDiff::new(name, base_feed, head_feed, col);
        let (mut b, mut h) = (0..0, 0..0);
        for prefix in prefixes {
            b = rows_under(name, &base_feed.rows, col, b.end, prefix)?;
            h = rows_under(name, &head_feed.rows, col, h.end, prefix)?;
            diff.walk(b.start, b.end, h.start, h.end)?;
        }
        tables.extend(diff.finish());
    }
    Ok(DeltaPatch {
        base_version,
        head_version,
        tables,
    })
}

/// Diffs two snapshots of a route's table set into a versioned patch.
/// Unchanged tables contribute nothing; tables only at head are
/// insert-only patches from an empty base; tables gone at head become
/// delete-every-subtree patches.
pub fn diff_snapshots(
    base: &[(String, Feed)],
    head: &[(String, Feed)],
    base_version: u64,
    head_version: u64,
) -> Result<DeltaPatch> {
    let mut tables = Vec::new();
    let empty = |feed: &Feed| Feed::new(feed.schema.clone());
    for (name, head_feed) in head {
        let base_feed = base.iter().find(|(n, _)| n == name).map(|(_, f)| f);
        let diff = match base_feed {
            Some(b) => diff_table(name, b, head_feed)?,
            None => diff_table(name, &empty(head_feed), head_feed)?,
        };
        if let Some(t) = diff {
            tables.push(t);
        }
    }
    for (name, base_feed) in base {
        if head.iter().any(|(n, _)| n == name) {
            continue;
        }
        if let Some(t) = diff_table(name, base_feed, &empty(base_feed))? {
            tables.push(t);
        }
    }
    Ok(DeltaPatch {
        base_version,
        head_version,
        tables,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdx_relational::feed::fragment_feed_schema;
    use xdx_relational::{apply_table_patch, stage_patch, Value};

    fn item_feed(items: &[(u32, &str)]) -> Feed {
        let schema = fragment_feed_schema("item", &[("item".to_string(), true)]);
        let mut f = Feed::new(schema);
        for &(i, text) in items {
            f.push_row(vec![
                Value::Dewey(Dewey::from([1, 1, 1])),
                Value::Dewey(Dewey::from([1, 1, 1, i])),
                Value::Str(text.into()),
            ])
            .unwrap();
        }
        f
    }

    #[test]
    fn diff_emits_one_step_per_changed_subtree() {
        let base = item_feed(&[(1, "a"), (2, "b"), (3, "c"), (4, "d")]);
        let head = item_feed(&[(1, "a"), (2, "B!"), (4, "d"), (5, "e")]);
        let patch = diff_table("ITEM", &base, &head).unwrap().unwrap();
        let kinds: Vec<StepKind> = patch.steps.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                StepKind::ReplaceSubtree, // item 2 changed
                StepKind::DeleteSubtree,  // item 3 gone
                StepKind::InsertSubtree,  // item 5 new
            ]
        );
        assert_eq!(patch.payload.len(), 2, "head rows for items 2 and 5");
        // The invariant everything rests on: apply(base, diff) == head.
        assert_eq!(apply_table_patch(&base, &patch).unwrap(), head);
    }

    #[test]
    fn a_diff_inside_the_changed_ranges_is_the_whole_diff() {
        let base = item_feed(&[(1, "a"), (2, "b"), (3, "c"), (4, "d"), (5, "e")]);
        let head = item_feed(&[(1, "a"), (2, "B!"), (3, "c"), (4, "D!"), (5, "e")]);
        let whole = diff_snapshots(
            &[("ITEM".into(), base.clone())],
            &[("ITEM".into(), head.clone())],
            1,
            2,
        )
        .unwrap();
        // A ranged head holds the changed instances' rows alone.
        let mut ranged = head.clone();
        ranged.rows = head.rows.pick(vec![1, 3], vec![0, 1, 2]);
        let prefixes = [Dewey::from([1, 1, 1, 2]), Dewey::from([1, 1, 1, 4])];
        let base = [("ITEM".into(), base)];
        let patch = diff_ranges(&base, &[("ITEM".into(), ranged)], &prefixes, 1, 2).unwrap();
        assert_eq!(patch, whole);
        assert_eq!(patch.step_count(), 2);
        // A table the base lacks is not the ranged diff's to invent.
        let other = [("OTHER".into(), head)];
        assert!(diff_ranges(&base, &other, &prefixes, 1, 2).is_err());
    }

    #[test]
    fn identical_feeds_diff_to_nothing() {
        let f = item_feed(&[(1, "a"), (2, "b")]);
        assert!(diff_table("ITEM", &f, &f.clone()).unwrap().is_none());
        let d = diff_snapshots(&[("ITEM".into(), f.clone())], &[("ITEM".into(), f)], 3, 4).unwrap();
        assert!(d.tables.is_empty());
        assert_eq!((d.base_version, d.head_version), (3, 4));
    }

    #[test]
    fn nested_keys_diff_and_apply_as_prefix_ranges() {
        // A table whose rows sit at several depths: replacing the
        // shallow subtree consumes its descendants on both sides.
        let schema = fragment_feed_schema("n", &[("n".to_string(), true)]);
        let mk = |rows: &[(&[u32], &str)]| {
            let mut f = Feed::new(schema.clone());
            for &(key, text) in rows {
                f.push_row(vec![
                    Value::Dewey(Dewey::from([1])),
                    Value::Dewey(Dewey::from(key)),
                    Value::Str(text.into()),
                ])
                .unwrap();
            }
            f
        };
        let base = mk(&[(&[1, 1], "x"), (&[1, 2], "y"), (&[1, 2, 1], "y1")]);
        let head = mk(&[(&[1, 1], "x"), (&[1, 2], "y"), (&[1, 2, 1], "Y1!")]);
        let patch = diff_table("N", &base, &head).unwrap().unwrap();
        assert_eq!(patch.steps.len(), 1);
        assert_eq!(patch.steps[0].key, Dewey::from([1, 2]));
        assert_eq!(apply_table_patch(&base, &patch).unwrap(), head);
        // Subtree root vanishing at head still round-trips.
        let shrunk = mk(&[(&[1, 1], "x"), (&[1, 2, 1], "y1")]);
        let patch = diff_table("N", &base, &shrunk).unwrap().unwrap();
        assert_eq!(apply_table_patch(&base, &patch).unwrap(), shrunk);
    }

    #[test]
    fn snapshot_diff_covers_new_and_dropped_tables() {
        let a = item_feed(&[(1, "a")]);
        let b = item_feed(&[(2, "b")]);
        let base = vec![("A".to_string(), a.clone())];
        let head = vec![("B".to_string(), b)];
        let patch = diff_snapshots(&base, &head, 1, 2).unwrap();
        assert_eq!(patch.tables.len(), 2);
        let mut target = Database::new("t");
        assert_eq!(stage_patch(&base, &patch, &mut target).unwrap(), 1);
        target.commit_staged();
        assert_eq!(target.table("B").unwrap().len(), 1);
        assert_eq!(
            target.table("A").unwrap().len(),
            0,
            "dropped table emptied at head"
        );
    }

    #[test]
    fn diff_rejects_irregular_feeds() {
        let good = item_feed(&[(1, "a"), (2, "b")]);
        let mut unsorted = good.clone();
        unsorted.rows = good.rows.clone().into_iter().rev().collect();
        assert!(diff_table("ITEM", &good, &unsorted).is_err());
        let mut null_key = good.clone();
        null_key.rows.get_mut(0).unwrap()[1] = Value::Null;
        assert!(diff_table("ITEM", &null_key, &good).is_err());
        let other_schema = Feed::new(fragment_feed_schema("x", &[("x".to_string(), false)]));
        assert!(diff_table("ITEM", &good, &other_schema).is_err());
    }

    #[test]
    fn store_versions_monotonically_and_bounds_retention() {
        let store = SnapshotStore::new();
        assert_eq!(store.head("r"), 0);
        assert!(store.snapshot("r", 1).is_none());
        for v in 1..=6u64 {
            let tables = vec![("T".to_string(), item_feed(&[(v as u32, "x")]))];
            assert_eq!(store.record("r", tables), v);
        }
        assert_eq!(store.head("r"), 6);
        assert!(store.snapshot("r", 2).is_none(), "aged out of retention");
        let snap = store.snapshot("r", 6).unwrap();
        assert_eq!(
            *snap[0].1.rows.cell(0, 1),
            Value::Dewey(Dewey::from([1, 1, 1, 6]))
        );
        assert_eq!(store.routes(), 1);
        assert_eq!(store.head("other"), 0, "routes are independent");
    }

    #[test]
    fn aged_out_base_reconstructs_from_the_step_chain() {
        let store = SnapshotStore::new();
        let at = |v: u32| vec![("T".to_string(), item_feed(&[(v, "x"), (9, "tail")]))];
        for v in 1..=8u64 {
            store.record("r", at(v as u32));
        }
        // Versions 1–4 aged out of the snapshot window (only 5 to 8
        // are retained) …
        assert!(store.snapshot("r", 3).is_none());
        // … but the chain still reaches them.
        let (composed, was_composed) = store.reconstruct("r", 3).expect("chain covers v3");
        assert!(was_composed);
        assert_eq!(*composed, at(3));
        // A retained snapshot comes back directly, not composed.
        let (direct, was_composed) = store.reconstruct("r", 8).expect("head retained");
        assert!(!was_composed);
        assert_eq!(*direct, at(8));
        // Beyond both windows there is nothing to compose from.
        assert!(store.reconstruct("r", 99).is_none());
    }

    #[test]
    fn step_eviction_slides_the_anchor() {
        let store = SnapshotStore::new();
        let at = |v: u32| vec![("T".to_string(), item_feed(&[(v, "x")]))];
        for v in 1..=21u64 {
            store.record("r", at(v as u32));
        }
        assert_eq!(store.chained_steps("r"), 16, "chain bounded");
        // Steps 5→6 to 20→21 retained; the anchor slid to v5, and
        // versions 18–21 are retained as snapshots.
        let (composed, was_composed) = store.reconstruct("r", 17).expect("still chained");
        assert!(was_composed);
        assert_eq!(*composed, at(17));
        assert!(store.reconstruct("r", 4).is_none(), "evicted past reach");
    }

    #[test]
    fn undiffable_transition_breaks_the_chain() {
        let store = SnapshotStore::new();
        let sorted = vec![("T".to_string(), item_feed(&[(1, "a"), (2, "b")]))];
        let mut unsorted_feed = item_feed(&[(1, "a"), (2, "b")]);
        unsorted_feed.rows = unsorted_feed.rows.clone().into_iter().rev().collect();
        let unsorted = vec![("T".to_string(), unsorted_feed)];
        for _ in 1..=4 {
            store.record("r", sorted.clone());
        }
        assert_eq!(store.chained_steps("r"), 3);
        // v5 pushes v1 out of the snapshot window.
        store.record("r", unsorted);
        assert_eq!(store.chained_steps("r"), 0, "broken chain cleared");
        assert!(store.reconstruct("r", 1).is_none());
    }

    /// Per table, `snapshot`'s rows are the very row set `first` holds.
    fn shares_rows(snapshot: &[(String, Feed)], first: &[(String, Feed)]) -> bool {
        snapshot.len() == first.len()
            && snapshot
                .iter()
                .zip(first)
                .all(|((_, a), (_, b))| Rows::ptr_eq(&a.rows, &b.rows))
    }

    #[test]
    fn equal_reships_retain_the_first_row_set_and_nothing_else() {
        let store = SnapshotStore::new();
        let fresh = || {
            Arc::new(vec![
                ("A".to_string(), item_feed(&[(1, "a"), (2, "b")])),
                ("B".to_string(), item_feed(&[(3, "c")])),
            ])
        };
        let first = fresh();
        assert_eq!(store.record_shared("r", Arc::clone(&first)), 1);
        for v in 2..=20u64 {
            // Built anew, as a target decodes it: equal, never identical.
            let reship = fresh();
            let handle = Arc::downgrade(&reship);
            assert_eq!(store.record_shared("r", reship), v);
            assert!(
                handle.upgrade().is_none(),
                "v{v}: an equal re-ship is the caller's; the log keeps the rows it had"
            );
        }
        for v in 17..=20 {
            assert!(
                shares_rows(&store.snapshot("r", v).unwrap(), &first),
                "v{v}"
            );
        }
        assert!(store.snapshot("r", 16).is_none(), "window of four");
        let anchor_version = {
            let log = store.log("r").unwrap();
            let log = lock(&log);
            let (version, anchor) = log.anchor.as_ref().expect("chain intact");
            assert!(
                shares_rows(anchor, &first),
                "the anchor advanced without a copy"
            );
            *version
        };
        assert_eq!(anchor_version, 20 - 16, "sixteen steps behind the head");
        // A changed table is retained as recorded; its untouched sibling
        // is still the first row set.
        let changed = Arc::new(vec![
            ("A".to_string(), item_feed(&[(1, "a"), (2, "b")])),
            ("B".to_string(), item_feed(&[(3, "C!")])),
        ]);
        store.record_shared("r", Arc::clone(&changed));
        let head = store.snapshot("r", 21).unwrap();
        assert!(Rows::ptr_eq(&head[0].1.rows, &first[0].1.rows));
        assert!(Rows::ptr_eq(&head[1].1.rows, &changed[1].1.rows));
        for v in anchor_version + 1..=21 {
            let (tables, _) = store.reconstruct("r", v).expect("reachable");
            assert_eq!(
                *tables,
                if v == 21 {
                    (*changed).clone()
                } else {
                    (*first).clone()
                },
                "v{v}"
            );
        }
    }

    #[test]
    fn fanout_subscribers_retain_one_set_per_version() {
        let store = SnapshotStore::new();
        let round = |text: &str| Arc::new(vec![("T".to_string(), item_feed(&[(1, text)]))]);
        let subscribers = ["s0", "s1", "s2"];
        for (v, text) in [(1, "a"), (2, "a"), (3, "b")] {
            // The group snapshots once; every subscriber records the `Arc`.
            let group = round(text);
            for route in subscribers {
                assert_eq!(store.record_shared(route, Arc::clone(&group)), v);
            }
            let retained = store.snapshot("s0", v).unwrap();
            for route in subscribers {
                assert!(Arc::ptr_eq(&store.snapshot(route, v).unwrap(), &retained));
            }
            // The equal round is not what the logs kept.
            assert_eq!(Arc::ptr_eq(&retained, &group), v == 1);
            assert_eq!(*retained, *group);
        }
        assert_eq!(lock(&store.diff_memo).len(), 2, "one diff per transition");
    }

    /// The table set a target holds after `patch` took it from `base`:
    /// patched tables built anew, untouched ones sharing `base`'s rows.
    fn patched(base: &Snapshot, patch: &DeltaPatch) -> Snapshot {
        Arc::new(apply_patch_tables(base, patch).unwrap())
    }

    /// Three tables: `A` changes every version, `B` never, `C` every third.
    fn round(v: u64) -> Vec<(String, Feed)> {
        let c = if v.is_multiple_of(3) { "c!" } else { "c" };
        vec![
            ("A".to_string(), item_feed(&[(v as u32, "x"), (99, "tail")])),
            ("B".to_string(), item_feed(&[(1, "b")])),
            ("C".to_string(), item_feed(&[(1, c)])),
        ]
    }

    /// Per table of `version`, whether its rows are the previous
    /// version's very row set.
    fn kept_rows(store: &SnapshotStore, version: u64) -> Option<Vec<bool>> {
        let (now, before) = (
            store.snapshot("r", version)?,
            store.snapshot("r", version - 1)?,
        );
        let same = |(a, b): (&(String, Feed), &(String, Feed))| Rows::ptr_eq(&a.1.rows, &b.1.rows);
        Some(now.iter().zip(before.iter()).map(same).collect())
    }

    fn assert_same_log(stepped: &SnapshotStore, rediff: &SnapshotStore, head: u64) {
        assert_eq!(stepped.head("r"), head);
        assert_eq!(rediff.head("r"), head);
        assert_eq!(stepped.chained_steps("r"), rediff.chained_steps("r"));
        for v in 1..=head {
            let (a, b) = (stepped.reconstruct("r", v), rediff.reconstruct("r", v));
            assert_eq!(a, b, "v{v}");
            if let Some((tables, _)) = a {
                assert_eq!(*tables, round(v), "v{v}");
            }
            assert_eq!(kept_rows(stepped, v), kept_rows(rediff, v), "v{v}");
        }
    }

    #[test]
    fn a_handed_step_leaves_the_log_a_rediff_leaves() {
        let (stepped, rediff) = (SnapshotStore::new(), SnapshotStore::new());
        stepped.record("r", round(1));
        rediff.record("r", round(1));
        for v in 2..=20u64 {
            // A delta round: the patch is diffed against the retained
            // base, the target applies it, the settle records what the
            // target holds — one store told the step, one left to find it.
            for (store, told) in [(&stepped, true), (&rediff, false)] {
                let base = store.snapshot("r", v - 1).unwrap();
                let patch = diff_snapshots(&base, &round(v), v - 1, v).unwrap();
                let landed = patched(&base, &patch);
                let step = told.then(|| (base, Arc::new(patch)));
                assert_eq!(store.record_patched("r", landed, step), v);
            }
            assert_same_log(&stepped, &rediff, v);
            assert_eq!(kept_rows(&stepped, v), Some(vec![false, true, v % 3 == 2]));
        }
        assert_eq!(stepped.chained_steps("r"), 16, "chain bounded, anchor slid");
        assert!(
            lock(&stepped.diff_memo).is_empty(),
            "a handed step is not diffed"
        );
        assert_eq!(lock(&rediff.diff_memo).len(), DIFF_MEMO_CAP);
    }

    #[test]
    fn a_step_that_does_not_continue_the_log_is_ignored() {
        // Each handed step claims nothing changed, which is false: a
        // store that chained it would reconstruct the wrong tables.
        let nothing = |base_version, head_version| {
            Arc::new(DeltaPatch {
                base_version,
                head_version,
                tables: Vec::new(),
            })
        };
        type Lie = fn(&SnapshotStore, u64) -> (Snapshot, (u64, u64));
        let lies: [(&str, Lie); 4] = [
            ("a racing record advanced the route", |store, back| {
                let base = store.snapshot("r", back).unwrap();
                store.record("r", round(back + 1));
                (base, (back, back + 1))
            }),
            ("an equal base that is not the log's", |store, back| {
                let copy = (*store.snapshot("r", back).unwrap()).clone();
                (Arc::new(copy), (back, back + 1))
            }),
            ("the patch starts below the log's newest", |store, back| {
                (store.snapshot("r", back).unwrap(), (back - 1, back + 1))
            }),
            ("the patch spans two versions", |store, back| {
                (store.snapshot("r", back).unwrap(), (back, back + 2))
            }),
        ];
        for (why, lie) in lies {
            let (stepped, rediff) = (SnapshotStore::new(), SnapshotStore::new());
            // Past the snapshot window, so the logs compare composed
            // versions too.
            for v in 1..=5u64 {
                stepped.record("r", round(v));
                rediff.record("r", round(v));
            }
            let (base, (from, to)) = lie(&stepped, 5);
            let head = stepped.head("r") + 1;
            for v in 6..head {
                rediff.record("r", round(v));
            }
            let step = Some((base, nothing(from, to)));
            assert_eq!(
                stepped.record_patched("r", Arc::new(round(head)), step),
                head
            );
            rediff.record("r", round(head));
            assert_same_log(&stepped, &rediff, head);
            assert_eq!(stepped.chained_steps("r"), head as usize - 1, "{why}");
        }
    }

    #[test]
    fn two_routes_record_side_by_side() {
        let store = SnapshotStore::new();
        let at = |route: usize, v: u64| {
            let text = format!("route {route} v{v}");
            vec![(
                "T".to_string(),
                item_feed(&[(v as u32, &text), (99, "tail")]),
            )]
        };
        let versions = 20u64;
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for route in 0..2 {
                let (store, barrier, at) = (&store, &barrier, &at);
                scope.spawn(move || {
                    for v in 1..=versions {
                        // Both routes enter each version's record together.
                        barrier.wait();
                        assert_eq!(store.record(&format!("r{route}"), at(route, v)), v);
                    }
                });
            }
        });
        for route in 0..2 {
            let name = format!("r{route}");
            assert_eq!(store.head(&name), versions);
            let steps = DEFAULT_RETAIN * STEP_RETAIN_FACTOR;
            assert_eq!(store.chained_steps(&name), steps);
            let oldest = versions - steps as u64;
            assert!(store.reconstruct(&name, oldest - 1).is_none());
            for v in oldest..=versions {
                let (tables, composed) = store.reconstruct(&name, v).expect("reachable");
                assert_eq!(*tables, at(route, v), "{name} v{v}");
                assert_eq!(composed, v <= versions - DEFAULT_RETAIN as u64);
            }
        }
    }

    #[test]
    fn a_poisoned_log_breaks_its_chain_not_its_route() {
        let store = SnapshotStore::new();
        let at = |v: u32| vec![("T".to_string(), item_feed(&[(v, "x"), (9, "tail")]))];
        for v in 1..=2 {
            store.record("r", at(v));
            store.record("other", at(v));
        }
        let kept = Arc::downgrade(&store.snapshot("r", 2).unwrap());
        let log = store.log("r").unwrap();
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let mut held = lock(&log);
                // An anchor advance cut short: the anchor taken, its
                // step not yet applied.
                held.anchor.take();
                panic!("a panic while the route's log is locked");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(log.is_poisoned());
        assert_eq!(store.head("r"), 2, "the repair keeps the head");
        assert!(!log.is_poisoned());
        assert!(kept.upgrade().is_none(), "the repair let the sets go");
        for v in 1..=2 {
            assert!(store.reconstruct("r", v).is_none(), "pre-poison v{v}");
        }
        assert_eq!(store.record("r", at(3)), 3);
        assert_eq!(store.chained_steps("r"), 0, "v3 has no base to step from");
        assert_eq!(store.record("r", at(4)), 4);
        assert_eq!(store.chained_steps("r"), 1, "the route patches again");
        assert_eq!(*store.reconstruct("r", 3).unwrap().0, at(3));
        assert_eq!(store.record("other", at(3)), 3);
        assert_eq!(store.chained_steps("other"), 2);
        for v in 1..=3 {
            assert_eq!(
                *store.reconstruct("other", v).unwrap().0,
                at(v as u32),
                "v{v}"
            );
        }
    }

    #[test]
    fn apply_patch_tables_round_trips_table_set_changes() {
        let base = vec![("A".to_string(), item_feed(&[(1, "a")]))];
        let head = vec![("B".to_string(), item_feed(&[(2, "b")]))];
        let patch = diff_snapshots(&base, &head, 1, 2).unwrap();
        let applied = apply_patch_tables(&base, &patch).unwrap();
        assert_eq!(applied.len(), 2);
        assert!(applied[0].1.is_empty(), "dropped table emptied");
        assert_eq!(applied[1].1, head[0].1, "new table materialized");
    }

    #[test]
    fn db_tables_snapshots_committed_state() {
        let mut db = Database::new("s");
        db.load("B", item_feed(&[(2, "b")])).unwrap();
        db.load("A", item_feed(&[(1, "a")])).unwrap();
        db.load_staged("C", item_feed(&[(3, "c")])).unwrap();
        let tables = db_tables(&db);
        let names: Vec<&str> = tables.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["A", "B", "C"]);
        assert!(tables[2].1.is_empty(), "staged rows are not snapshotted");
    }
}
