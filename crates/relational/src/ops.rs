//! Physical operators over feeds: the engine-side implementations of the
//! paper's `Combine` and `Split` primitives.
//!
//! `Combine(f1, f2)` "modifies the input fragment f1 by combining its child
//! fragment f2 with it" (Def. 3.7) — relationally, an outer merge join of
//! the child feed's `PARENT` reference against the parent feed's id column
//! for the child's anchor element, followed by inlining of the child's
//! columns. `Split(f, f1..fn)` (Def. 3.8) "resembles projection" and
//! "introduces distinct ID and PARENT attributes in each projected
//! fragment" — a projection per output group plus duplicate elimination.

use crate::error::{Error, Result};
use crate::feed::{ColRole, Feed, FeedColumn, FeedSchema, Gather, ReadRows, Row, Rows};
use crate::stats::Counters;
use crate::value::Value;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::ops::Range;

/// Looks up the parent feed's join column for combining `child` into
/// `parent`: the `NodeId` column of the child root's anchor element.
fn join_columns(parent: &Feed, child: &Feed, anchor_element: &str) -> Result<(usize, usize)> {
    let pcol = parent
        .schema
        .col(anchor_element, ColRole::NodeId)
        .ok_or_else(|| Error::UnknownColumn {
            name: format!("{anchor_element}.ID in parent feed"),
        })?;
    let ccol = child
        .schema
        .parent_ref_col()
        .ok_or_else(|| Error::UnknownColumn {
            name: format!("{}.PARENT in child feed", child.schema.root_element),
        })?;
    Ok((pcol, ccol))
}

/// Output schema of a combine: parent columns, then child columns minus
/// the child root's `PARENT` (Def. 3.7: "Combine removes the ID and PARENT
/// attributes of f2" — we keep the child's id as a grouping column, which
/// the tagger and further combines need, but drop the now-redundant
/// parent reference). The parent's schema is extended in place.
fn combined_schema(parent: FeedSchema, child: &FeedSchema, child_parent_col: usize) -> FeedSchema {
    let mut columns = parent.columns;
    columns.reserve_exact(child.arity() - 1);
    for (i, c) in child.columns.iter().enumerate() {
        if i != child_parent_col {
            columns.push(c.clone());
        }
    }
    FeedSchema::new(parent.root_element, columns)
}

/// What a caller knows about one Combine's place in a chain of Combines
/// that the inputs alone do not say. Neither field can change a result:
/// the rows, their order and the [`Counters`] bill are the same for
/// every hint a caller may truthfully give.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainHint {
    /// Cells the output rows will hold where the chain ends: a row the
    /// Combine allocates is allocated with room for them, and a moved
    /// row is grown to them on its first move only, so the Combines
    /// after it append in place. A capacity, never a length: a width
    /// below the output arity (0 included) only costs a later regrow.
    pub width: usize,
    /// The parent feed is the output of a Combine on the same anchor
    /// element, so it is in key order on the join column by
    /// construction: its n−1 order check is skipped (and still billed).
    /// Wrong, it would yield wrong rows; debug builds assert it.
    pub parent_in_order: bool,
}

/// Where a Combine's output rows go, and the join keys its merge walk
/// reads on the way, both inputs in key order (positions `0..len` each).
/// [`emit_group`] says which rows a parent group and its child rows
/// make; a sink makes them: [`Moved`] as rows of their own, out of
/// inputs it owns, and [`Gathered`] as a view of inputs it may not move.
trait Sink {
    /// How many rows the parent and the child have.
    fn lens(&self) -> (usize, usize);
    /// The join key of the `i`-th parent row in key order.
    fn parent_key(&self, i: usize) -> &Value;
    /// The join key of the `i`-th child row in key order.
    fn child_key(&self, i: usize) -> &Value;
    /// Room for `rows` more output rows.
    fn reserve(&mut self, rows: usize);
    /// Parent row `p` is the skeleton of its group's child rows: told
    /// before the group's padded parent rows.
    fn skeleton(&mut self, p: usize);
    /// Emits parent row `p`, padded with `Null`s.
    fn pad(&mut self, p: usize);
    /// Emits child row `c` beside parent row `p`, or beside its skeleton
    /// when `skeleton`; `last` when no later row of the group reads it.
    fn attach(&mut self, p: usize, skeleton: bool, c: usize, last: bool);
}

/// Emits the combined rows for one parent group `pgroup` (all rows sharing
/// the join key) and its matching child rows `cgroup`, both given as
/// positions in key order.
///
/// Semantics follow materialized sorted feeds:
/// * no children → parent rows padded with `Null` (outer),
/// * a single parent row → classic inlining: one output row per child,
///   parent values repeated ("repeated elements due to inlining"),
/// * several parent rows (the parent group was already expanded by an
///   earlier repeated branch) → *outer-union alignment*: the parent rows
///   pass through padded, and each child row is emitted on a skeleton row
///   carrying only the parent's identifier columns. This avoids the
///   cartesian blow-up a naive join would produce across independent
///   repeated sibling branches — the reason single-query publishing loses
///   to optimized publishing in [6].
fn emit_group(out: &mut impl Sink, pgroup: Range<usize>, cgroup: Range<usize>) {
    let Some(last) = cgroup.clone().last() else {
        out.reserve(pgroup.len());
        pgroup.for_each(|p| out.pad(p));
        return;
    };
    let first = pgroup.start;
    if pgroup.len() == 1 {
        out.reserve(cgroup.len());
        cgroup.for_each(|c| out.attach(first, false, c, c == last));
        return;
    }
    // Outer-union alignment: skeleton = first parent row with value
    // columns blanked (identifiers stay for grouping/tagging).
    out.reserve(pgroup.len() + cgroup.len());
    out.skeleton(first);
    pgroup.for_each(|p| out.pad(p));
    cgroup.for_each(|c| out.attach(first, true, c, c == last));
}

/// The merge walk: the parent's rows in groups of one join key, each
/// with the child rows carrying that key, handed to [`emit_group`].
/// Smaller child keys are orphans, and a `Null` key joins nothing.
fn merge(out: &mut impl Sink, counters: &mut Counters) {
    let (plen, clen) = out.lens();
    let (mut pi, mut ci) = (0, 0);
    while pi < plen {
        let pgroup = pi;
        let key = out.parent_key(pgroup);
        pi += 1;
        while pi < plen {
            counters.comparisons += 1;
            if out.parent_key(pi) != key {
                break;
            }
            pi += 1;
        }
        while ci < clen {
            counters.comparisons += 1;
            if out.child_key(ci) >= key {
                break;
            }
            ci += 1;
        }
        let cgroup = ci;
        while !key.is_null() && ci < clen {
            counters.comparisons += 1;
            if out.child_key(ci) != key {
                break;
            }
            ci += 1;
        }
        emit_group(out, pgroup..pi, cgroup..ci);
    }
}

/// A Combine's output made of inputs whose rows no other handle shares,
/// each sorted in place: every input row is handed out once, moved. The
/// only copies made beyond that are the ones inlining duplicates by
/// definition: the parent row for all but its last child, and the
/// skeleton. Every row handed out has room for `width` cells, at least
/// the output's arity.
struct Moved<'s> {
    schema: &'s FeedSchema,
    parent: Vec<Vec<Value>>,
    child: Vec<Vec<Value>>,
    /// The join columns of the parent and the child.
    cols: (usize, usize),
    /// The child's arity, less its `PARENT` column.
    child_arity: usize,
    width: usize,
    skeleton: Vec<Value>,
    rows: Vec<Vec<Value>>,
}

impl Moved<'_> {
    /// Hands out parent row `p` with room for `width` cells: grown unless
    /// it already has them (as a row an earlier Combine of the chain
    /// sized does).
    fn take(&mut self, p: usize) -> Vec<Value> {
        let mut row = std::mem::take(&mut self.parent[p]);
        row.reserve_exact(self.width.saturating_sub(row.len()));
        row
    }
}

impl Sink for Moved<'_> {
    fn lens(&self) -> (usize, usize) {
        (self.parent.len(), self.child.len())
    }

    fn parent_key(&self, i: usize) -> &Value {
        &self.parent[i][self.cols.0]
    }

    fn child_key(&self, i: usize) -> &Value {
        &self.child[i][self.cols.1]
    }

    fn reserve(&mut self, rows: usize) {
        self.rows.reserve(rows);
    }

    fn skeleton(&mut self, p: usize) {
        let mut skeleton = Vec::with_capacity(self.width);
        let first = self.parent[p].iter().zip(&self.schema.columns);
        skeleton.extend(first.map(|(v, col)| match col.role {
            ColRole::Value => Value::Null,
            _ => v.clone(),
        }));
        self.skeleton = skeleton;
    }

    fn pad(&mut self, p: usize) {
        let mut row = self.take(p);
        row.resize(row.len() + self.child_arity, Value::Null);
        self.rows.push(row);
    }

    fn attach(&mut self, p: usize, skeleton: bool, c: usize, last: bool) {
        let mut row = match (skeleton, last) {
            (false, false) => with_room(&self.parent[p], self.width),
            (false, true) => self.take(p),
            (true, false) => with_room(&self.skeleton, self.width),
            (true, true) => std::mem::take(&mut self.skeleton),
        };
        let skip = self.cols.1;
        let cells = std::mem::take(&mut self.child[c]).into_iter().enumerate();
        row.extend(cells.filter(|&(i, _)| i != skip).map(|(_, v)| v));
        self.rows.push(row);
    }
}

/// A copy of `row` with room for `width` cells (at least its own).
fn with_room(row: &[Value], width: usize) -> Vec<Value> {
    let mut copy = Vec::with_capacity(width.max(row.len()));
    copy.extend_from_slice(row);
    copy
}

/// A Combine's output as a view of inputs it may not move — a set
/// another handle shares, or a view — read where their rows sit
/// ([`Gather`]): each output row records its parent row, its child row
/// or none, and whether it is a skeleton. No row is copied.
struct Gathered {
    view: Gather,
    /// Each input's row positions in key order; `None` when the input
    /// already is.
    order: (Option<Vec<usize>>, Option<Vec<usize>>),
    /// The join columns of the parent and the child.
    cols: (usize, usize),
}

/// The `i`-th position in key order.
fn at(order: &Option<Vec<usize>>, i: usize) -> usize {
    order.as_ref().map_or(i, |o| o[i])
}

impl Sink for Gathered {
    fn lens(&self) -> (usize, usize) {
        (self.view.parent().len(), self.view.child().len())
    }

    fn parent_key(&self, i: usize) -> &Value {
        self.view.parent().cell(at(&self.order.0, i), self.cols.0)
    }

    fn child_key(&self, i: usize) -> &Value {
        self.view.child().cell(at(&self.order.1, i), self.cols.1)
    }

    fn reserve(&mut self, _: usize) {}

    fn skeleton(&mut self, _: usize) {}

    fn pad(&mut self, p: usize) {
        self.view.push(at(&self.order.0, p), false, None);
    }

    fn attach(&mut self, p: usize, skeleton: bool, c: usize, _: bool) {
        let c = at(&self.order.1, c);
        self.view.push(at(&self.order.0, p), skeleton, Some(c));
    }
}

/// Whether `rows` are in key order on `col`. Dewey order is document
/// order, so scans, shred output and earlier Combines arrive sorted: one
/// pass checks, n−1 comparisons, billed also when `in_order` vouches for
/// the order and the pass is skipped.
fn in_key_order(rows: &Rows, col: usize, in_order: bool, counters: &mut Counters) -> bool {
    counters.comparisons += (rows.len() as u64).saturating_sub(1);
    let check = || rows.is_sorted_by(&[col]);
    debug_assert!(!in_order || check(), "a vouched-for input out of key order");
    in_order || check()
}

/// Rows an input held alone, sorted in place on `col` (stably, so equal
/// keys keep their arrival order) unless `sorted`.
fn sort_sole(
    mut rows: Vec<Vec<Value>>,
    col: usize,
    sorted: bool,
    counters: &mut Counters,
) -> Vec<Vec<Value>> {
    if !sorted {
        rows.sort_by(|a, b| {
            counters.comparisons += 1;
            a[col].cmp(&b[col])
        });
    }
    rows
}

/// A shared input's row positions in key order on `col` (stably), an
/// index to read it through; `None` when `sorted`.
fn key_order(rows: &Rows, col: usize, sorted: bool, counters: &mut Counters) -> Option<Vec<usize>> {
    (!sorted).then(|| {
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by(|&a, &b| {
            counters.comparisons += 1;
            rows.cell(a, col).cmp(rows.cell(b, col))
        });
        order
    })
}

/// Sort-merge implementation of `Combine`.
///
/// Left-outer semantics: parent rows with no matching child are padded
/// with `Null` (an optional/absent child). Orphan child rows (no parent)
/// are dropped. Each input is checked for sortedness on its join key and
/// sorted only if the check fails; the comparisons of the check, of any
/// sort and of the merge are charged to `counters`. When both inputs
/// hold their rows alone (dense sets no other handle shares), their rows
/// move into the output. Otherwise — a scanned table, a feed another
/// reader still holds, a view — the output is a view of
/// the inputs' rows, no row copied, and the other holders see theirs
/// unchanged. The per-group inlining/alignment semantics are
/// `emit_group`'s; what `chain` tells about the Combines around this one
/// shapes allocations and skips a check, never a row ([`ChainHint`]).
pub fn merge_combine(
    parent: Feed,
    child: Feed,
    anchor_element: &str,
    chain: ChainHint,
    counters: &mut Counters,
) -> Result<Feed> {
    let (pcol, ccol) = join_columns(&parent, &child, anchor_element)?;
    counters.rows_read += (parent.len() + child.len()) as u64;
    // Every parent row is emitted at least once: a 1:1 Combine fills
    // this without growing it.
    let capacity = parent.len();
    let (parent_arity, child_arity) = (parent.schema.arity(), child.schema.arity());
    let schema = combined_schema(parent.schema, &child.schema, ccol);
    let psorted = in_key_order(&parent.rows, pcol, chain.parent_in_order, counters);
    let csorted = in_key_order(&child.rows, ccol, false, counters);
    let rows = match (parent.rows.into_dense(), child.rows.into_dense()) {
        (Ok(prows), Ok(crows)) => {
            let mut out = Moved {
                schema: &schema,
                parent: sort_sole(prows, pcol, psorted, counters),
                child: sort_sole(crows, ccol, csorted, counters),
                cols: (pcol, ccol),
                child_arity: child_arity - 1,
                width: chain.width.max(schema.arity()),
                skeleton: Vec::new(),
                rows: Vec::with_capacity(capacity),
            };
            merge(&mut out, counters);
            out.rows.into()
        }
        (prows, crows) => {
            // A sole dense input among them sorts in place and is read
            // where it sits, as the other one is.
            let mut keyed = |rows, col, sorted| match rows {
                Ok(rows) => (sort_sole(rows, col, sorted, counters).into(), None),
                Err(rows) => {
                    let order = key_order(&rows, col, sorted, counters);
                    (rows, order)
                }
            };
            let (prows, porder) = keyed(prows, pcol, psorted);
            let (crows, corder) = keyed(crows, ccol, csorted);
            let mut out = Gathered {
                view: Gather::new(prows, crows, capacity),
                order: (porder, corder),
                cols: (pcol, ccol),
            };
            merge(&mut out, counters);
            let value = |c: usize| schema.columns[c].role == ColRole::Value;
            out.view.finish(parent_arity, (child_arity, ccol), value)
        }
    };
    counters.rows_out += rows.len() as u64;
    Ok(Feed { schema, rows })
}

/// Hash-join implementation of `Combine` (same semantics and output as
/// [`merge_combine`] over shared inputs: a view); provided for the
/// `ablation` binary's comparison of join strategies.
pub fn hash_combine(
    parent: &Feed,
    child: &Feed,
    anchor_element: &str,
    counters: &mut Counters,
) -> Result<Feed> {
    let (pcol, ccol) = join_columns(parent, child, anchor_element)?;
    counters.rows_read += (parent.len() + child.len()) as u64;

    let mut by_parent: HashMap<&Value, Vec<usize>> = HashMap::with_capacity(child.len());
    for i in 0..child.len() {
        by_parent
            .entry(child.rows.cell(i, ccol))
            .or_default()
            .push(i);
    }

    let schema = combined_schema(parent.schema.clone(), &child.schema, ccol);

    // Group parent rows by key (first-occurrence order) so the emit
    // semantics match the merge implementation exactly.
    let mut key_order: Vec<&Value> = Vec::new();
    let mut pgroups: HashMap<&Value, Vec<usize>> = HashMap::new();
    for i in 0..parent.len() {
        counters.hash_probes += 1;
        let key = parent.rows.cell(i, pcol);
        let entry = pgroups.entry(key).or_default();
        if entry.is_empty() {
            key_order.push(key);
        }
        entry.push(i);
    }
    // Both inputs permuted so each key's rows sit together, in the order
    // the groups are emitted.
    let (mut porder, mut corder) = (Vec::with_capacity(parent.len()), Vec::new());
    let mut groups = Vec::with_capacity(key_order.len());
    for key in key_order {
        let (pstart, cstart) = (porder.len(), corder.len());
        porder.extend_from_slice(&pgroups[key]);
        if !key.is_null() {
            corder.extend_from_slice(by_parent.get(key).map_or(&[][..], Vec::as_slice));
        }
        groups.push((pstart..porder.len(), cstart..corder.len()));
    }
    let mut out = Gathered {
        view: Gather::new(parent.rows.clone(), child.rows.clone(), parent.len()),
        order: (Some(porder), Some(corder)),
        cols: (pcol, ccol),
    };
    for (pgroup, cgroup) in groups {
        emit_group(&mut out, pgroup, cgroup);
    }
    let value = |c: usize| schema.columns[c].role == ColRole::Value;
    let rows = out
        .view
        .finish(parent.schema.arity(), (child.schema.arity(), ccol), value);
    counters.rows_out += rows.len() as u64;
    Ok(Feed { schema, rows })
}

/// Specification of one output group of a `Split`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitSpec {
    /// Root element of the projected fragment.
    pub root_element: String,
    /// Element (inside the input feed) whose instance id becomes the new
    /// fragment's `PARENT`; `None` re-uses the input feed's own `PARENT`
    /// column (the group containing the input's root).
    pub anchor_element: Option<String>,
    /// Elements to keep, pre-order, root first.
    pub elements: Vec<String>,
}

/// One output group of a `Split`, resolved against the input's schema.
struct Group {
    schema: FeedSchema,
    /// The input column of each output column, in order.
    cols: Vec<usize>,
    /// The input column of the group root's id: `Null` there is an absent
    /// optional subtree, no instance to emit.
    root: usize,
    /// The input's `NodeId` columns among `cols`: an instance's key.
    key: Vec<usize>,
}

impl Group {
    fn resolve(input: &FeedSchema, spec: &SplitSpec) -> Result<Group> {
        let parent_src = match &spec.anchor_element {
            Some(el) => input
                .col(el, ColRole::NodeId)
                .ok_or_else(|| Error::UnknownColumn {
                    name: format!("{el}.ID"),
                })?,
            None => input.parent_ref_col().ok_or_else(|| Error::UnknownColumn {
                name: format!("{}.PARENT", input.root_element),
            })?,
        };
        let mut cols = vec![parent_src];
        let mut columns = vec![FeedColumn::new(
            spec.root_element.clone(),
            ColRole::ParentRef,
        )];
        let mut key = Vec::new();
        let mut root = None;
        for el in &spec.elements {
            // A leaf inlined 1-1 with an ancestor may carry only a Value
            // column; the group root must have an id.
            let idc = input.col(el, ColRole::NodeId);
            let vc = input.col(el, ColRole::Value);
            if idc.is_none() && vc.is_none() {
                return Err(Error::UnknownColumn {
                    name: format!("{el} (no ID or value)"),
                });
            }
            if let Some(idc) = idc {
                if el == &spec.root_element {
                    root = Some(idc);
                }
                key.push(idc);
                cols.push(idc);
                columns.push(FeedColumn::new(el.clone(), ColRole::NodeId));
            }
            if let Some(vc) = vc {
                cols.push(vc);
                columns.push(FeedColumn::new(el.clone(), ColRole::Value));
            }
        }
        let root = root.ok_or_else(|| Error::UnknownColumn {
            name: format!("{}.ID (group root must be identified)", spec.root_element),
        })?;
        Ok(Group {
            schema: FeedSchema::new(spec.root_element.clone(), columns),
            cols,
            root,
            key,
        })
    }
}

/// The id cells that tell one instance of a `Split` group from another,
/// read where they sit in an input row.
#[derive(Clone, Copy)]
struct InstanceKey<'k, R> {
    row: R,
    cols: &'k [usize],
}

impl<'a, 'k, R: Row<'a>> InstanceKey<'k, R> {
    fn cells(self) -> impl Iterator<Item = &'a Value> + use<'a, 'k, R> {
        self.cols.iter().map(move |&c| self.row.cell(c))
    }
}

impl<'a, R: Row<'a>> PartialEq for InstanceKey<'_, R> {
    fn eq(&self, other: &Self) -> bool {
        self.cells().eq(other.cells())
    }
}

impl<'a, R: Row<'a>> Eq for InstanceKey<'_, R> {}

impl<'a, R: Row<'a>> Hash for InstanceKey<'_, R> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.cells().for_each(|cell| cell.hash(state));
    }
}

/// One group's instances as Split's pass meets them: the positions of
/// the rows that open one, and what tells whether a row does.
struct Instances<'k, R> {
    group: &'k Group,
    picks: Vec<usize>,
    /// The last row that had an instance.
    last: Option<R>,
    /// The row of the greatest instance picked.
    top: Option<R>,
    /// Every instance picked, once a row needed asking.
    seen: Option<HashSet<InstanceKey<'k, R>>>,
    /// Rows that had an instance.
    probes: u64,
}

impl<'a, 'k, R: Row<'a>> Instances<'k, R> {
    fn new(group: &'k Group) -> Self {
        Instances {
            group,
            picks: Vec::new(),
            last: None,
            top: None,
            seen: None,
            probes: 0,
        }
    }

    /// Picks row `i` (`r`, of the input `row`) when it opens an instance.
    /// A key equal to the last row's is a repeat, one above the greatest
    /// pick is new; only any other asks the set of picks, built on first
    /// need. Exact on any row order.
    fn offer(&mut self, i: usize, r: R, row: &impl Fn(usize) -> R) {
        if r.cell(self.group.root).is_null() {
            return;
        }
        self.probes += 1;
        let cols = self.group.key.as_slice();
        let key = InstanceKey { row: r, cols };
        if self
            .last
            .replace(r)
            .is_some_and(|last| InstanceKey { row: last, cols } == key)
        {
            return;
        }
        let above = |top: R| {
            key.cells()
                .cmp(InstanceKey { row: top, cols }.cells())
                .is_gt()
        };
        let new = match self.top {
            Some(top) if !above(top) => {
                let picks = &self.picks;
                let seen = self.seen.get_or_insert_with(|| {
                    picks
                        .iter()
                        .map(|&p| InstanceKey { row: row(p), cols })
                        .collect()
                });
                seen.insert(key)
            }
            _ => {
                self.top = Some(r);
                if let Some(seen) = &mut self.seen {
                    seen.insert(key);
                }
                true
            }
        };
        if new {
            self.picks.push(i);
        }
    }
}

/// Split's one pass over its input: per group, the positions of the
/// rows that open a new instance, billed as each group's own pass was.
struct SplitPass<'g, 'c> {
    groups: &'g [Group],
    counters: &'c mut Counters,
}

impl<'a> ReadRows<'a> for SplitPass<'_, '_> {
    type Out = Vec<Vec<usize>>;
    fn read<R: Row<'a>>(self, len: usize, row: impl Fn(usize) -> R) -> Vec<Vec<usize>> {
        let mut groups: Vec<Instances<'_, R>> = self.groups.iter().map(Instances::new).collect();
        for i in 0..len {
            let r = row(i);
            for group in &mut groups {
                group.offer(i, r, &row);
            }
        }
        for group in &groups {
            self.counters.rows_read += len as u64;
            self.counters.hash_probes += group.probes;
            self.counters.rows_out += group.picks.len() as u64;
        }
        groups.into_iter().map(|group| group.picks).collect()
    }
}

/// Projection implementation of `Split` (Def. 3.8): one output feed per
/// spec, with fresh `PARENT` references and duplicates eliminated (an
/// element instance inlined alongside a repeated sibling appears in many
/// input rows but must appear once per distinct instance combination in
/// the projected fragment).
///
/// One pass over the input serves every group. Each output is a view of
/// the input's rows ([`Rows::pick`]): the first row of each instance,
/// projected to the group's columns, copied by nobody until a reader
/// needs the rows owned. `counters` is billed as if each group had read
/// the whole input: its rows read, a probe per row with an instance, its
/// rows out.
pub fn split(feed: &Feed, specs: &[SplitSpec], counters: &mut Counters) -> Result<Vec<Feed>> {
    let groups = specs
        .iter()
        .map(|spec| Group::resolve(&feed.schema, spec))
        .collect::<Result<Vec<_>>>()?;
    let picks = feed.rows.slice(..).read(SplitPass {
        groups: &groups,
        counters,
    });
    Ok(groups
        .into_iter()
        .zip(picks)
        .map(|(group, picks)| Feed {
            schema: group.schema,
            rows: feed.rows.pick(picks, group.cols),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Dewey;
    use proptest::prelude::*;

    fn dv(path: &[u32]) -> Value {
        Value::Dewey(Dewey::from(path))
    }

    /// Customers feed: 2 customers under root [].
    fn customers() -> Feed {
        let schema = FeedSchema::new(
            "Customer",
            vec![
                FeedColumn::new("Customer", ColRole::ParentRef),
                FeedColumn::new("Customer", ColRole::NodeId),
                FeedColumn::new("CustName", ColRole::Value),
            ],
        );
        let mut f = Feed::new(schema);
        f.push_row(vec![dv(&[]), dv(&[1]), Value::Str("alice".into())])
            .unwrap();
        f.push_row(vec![dv(&[]), dv(&[2]), Value::Str("bob".into())])
            .unwrap();
        f
    }

    /// Orders feed: alice has orders 1.2 and 1.3, bob has none.
    fn orders() -> Feed {
        let schema = FeedSchema::new(
            "Order",
            vec![
                FeedColumn::new("Order", ColRole::ParentRef),
                FeedColumn::new("Order", ColRole::NodeId),
                FeedColumn::new("OrderKey", ColRole::Value),
            ],
        );
        let mut f = Feed::new(schema);
        f.push_row(vec![dv(&[1]), dv(&[1, 2]), Value::Str("o1".into())])
            .unwrap();
        f.push_row(vec![dv(&[1]), dv(&[1, 3]), Value::Str("o2".into())])
            .unwrap();
        f
    }

    // The clone-and-sort Combine `merge_combine` replaced, kept verbatim
    // (but for the row reserve `Rows` does not offer) as the oracle of
    // `merge_combine_matches_the_clone_and_sort_oracle`.
    fn oracle_emit_group(
        out: &mut Feed,
        parent_schema: &FeedSchema,
        pgroup: &[&Vec<Value>],
        cgroup: &[&Vec<Value>],
        ccol: usize,
        child_arity: usize,
    ) {
        let pad = |row: &Vec<Value>, out: &mut Feed| {
            let mut r = Vec::with_capacity(row.len() + child_arity);
            r.extend_from_slice(row);
            r.extend(std::iter::repeat_with(|| Value::Null).take(child_arity));
            out.rows.push(r);
        };
        if cgroup.is_empty() {
            for prow in pgroup {
                pad(prow, out);
            }
            return;
        }
        let attach = |base: &Vec<Value>, crow: &Vec<Value>, out: &mut Feed| {
            let mut r = Vec::with_capacity(base.len() + child_arity);
            r.extend_from_slice(base);
            for (i, v) in crow.iter().enumerate() {
                if i != ccol {
                    r.push(v.clone());
                }
            }
            out.rows.push(r);
        };
        if pgroup.len() == 1 {
            for crow in cgroup {
                attach(pgroup[0], crow, out);
            }
            return;
        }
        // Outer-union alignment: skeleton = first parent row with value
        // columns blanked (identifiers stay for grouping/tagging).
        for prow in pgroup {
            pad(prow, out);
        }
        let mut skeleton = pgroup[0].clone();
        for (i, col) in parent_schema.columns.iter().enumerate() {
            if col.role == ColRole::Value {
                skeleton[i] = Value::Null;
            }
        }
        for crow in cgroup {
            attach(&skeleton, crow, out);
        }
    }

    fn oracle_merge_combine(
        parent: &Feed,
        child: &Feed,
        anchor_element: &str,
        counters: &mut Counters,
    ) -> Result<Feed> {
        let (pcol, ccol) = join_columns(parent, child, anchor_element)?;
        counters.rows_read += (parent.len() + child.len()) as u64;

        let mut psorted = parent.clone();
        counters.comparisons += psorted.sort_by(&[pcol]);
        let mut csorted = child.clone();
        counters.comparisons += csorted.sort_by(&[ccol]);

        let out_schema = combined_schema(parent.schema.clone(), &child.schema, ccol);
        let mut out = Feed::new(out_schema);
        let child_arity = child.schema.arity() - 1;

        let psorted: Vec<Vec<Value>> = psorted.rows.into_iter().collect();
        let csorted: Vec<Vec<Value>> = csorted.rows.into_iter().collect();
        let mut ci = 0usize;
        let mut pi = 0usize;
        while pi < psorted.len() {
            let key = psorted[pi][pcol].clone();
            // Gather the parent group for this key.
            let mut pgroup: Vec<&Vec<Value>> = Vec::new();
            while pi < psorted.len() {
                counters.comparisons += 1;
                if psorted[pi][pcol] == key {
                    pgroup.push(&psorted[pi]);
                    pi += 1;
                } else {
                    break;
                }
            }
            // Advance child cursor past smaller keys (orphans dropped).
            while ci < csorted.len() {
                counters.comparisons += 1;
                if csorted[ci][ccol] < key {
                    ci += 1;
                } else {
                    break;
                }
            }
            let mut cgroup: Vec<&Vec<Value>> = Vec::new();
            if !key.is_null() {
                let mut cj = ci;
                while cj < csorted.len() {
                    counters.comparisons += 1;
                    if csorted[cj][ccol] == key {
                        cgroup.push(&csorted[cj]);
                        cj += 1;
                    } else {
                        break;
                    }
                }
            }
            oracle_emit_group(
                &mut out,
                &parent.schema,
                &pgroup,
                &cgroup,
                ccol,
                child_arity,
            );
        }
        counters.rows_out += out.len() as u64;
        Ok(out)
    }

    /// A parent/child pair drawn to hit every `emit_group` case: parent
    /// groups of one or several rows, 0/1/k children per key, `Null` join
    /// keys on both sides, orphan children, each side in key order or
    /// shuffled by a drawn rank.
    fn family_strategy() -> impl Strategy<Value = (Feed, Feed)> {
        let key = || (0u32..8).prop_map(|k| if k == 0 { Value::Null } else { dv(&[k]) });
        (
            proptest::collection::vec((key(), 1usize..4, any::<u32>()), 0..7),
            proptest::collection::vec((key(), any::<u32>()), 0..24),
            any::<bool>(),
            any::<bool>(),
        )
            .prop_map(|(parents, children, shuffle_parent, shuffle_child)| {
                let mut parent = customers();
                parent.rows = Rows::default();
                let mut ranks = Vec::new();
                for (i, (key, copies, rank)) in parents.into_iter().enumerate() {
                    // Keys 1..=5 can have parents; 6 and 7 only orphans.
                    let key = if key > dv(&[5]) { Value::Null } else { key };
                    for copy in 0..copies {
                        parent.rows.push(vec![
                            dv(&[]),
                            key.clone(),
                            Value::Str(format!("p{i}.{copy}").into()),
                        ]);
                        ranks.push((shuffle_parent, rank.wrapping_add(copy as u32)));
                    }
                }
                arrange(&mut parent, 1, &ranks);
                let mut child = orders();
                child.rows = Rows::default();
                let mut ranks = Vec::new();
                for (i, (key, rank)) in children.into_iter().enumerate() {
                    child.rows.push(vec![
                        key,
                        dv(&[9, i as u32]),
                        Value::Str(format!("c{i}").into()),
                    ]);
                    ranks.push((shuffle_child, rank));
                }
                arrange(&mut child, 0, &ranks);
                (parent, child)
            })
    }

    /// `feed` as a sole handle (over a fresh row set) or as a handle whose
    /// rows `feed` itself keeps sharing.
    fn handle(sole: bool, feed: &Feed) -> Feed {
        let rows = if sole {
            feed.rows.clone().into_iter().collect()
        } else {
            feed.rows.clone()
        };
        Feed {
            schema: feed.schema.clone(),
            rows,
        }
    }

    /// `feed` copied into rows of its own, whatever its layout.
    fn materialized(feed: &Feed) -> Feed {
        let mut copy = feed.clone();
        copy.rows.materialize();
        handle(true, &copy)
    }

    /// `feed`'s rows as a Split's output holds them: a view picking them,
    /// in order, out of a wider row set laid out in reverse.
    fn split_view(feed: &Feed) -> Feed {
        let arity = feed.schema.arity();
        let wide: Rows = feed
            .rows
            .clone()
            .into_iter()
            .rev()
            .map(|row| {
                let mut wide = vec![Value::Int(-1)];
                wide.extend(row);
                wide.push(Value::Str("wide".into()));
                wide
            })
            .collect();
        Feed {
            schema: feed.schema.clone(),
            rows: wide.pick((0..feed.len()).rev().collect(), (1..=arity).collect()),
        }
    }

    /// Children of the drawn child rows: row `i` has `i % 3` of them, in
    /// the child's own row order, so a shuffled child gives shuffled
    /// grandchildren.
    fn grandchildren(child: &Feed) -> Feed {
        let schema = FeedSchema::new(
            "Line",
            vec![
                FeedColumn::new("Line", ColRole::ParentRef),
                FeedColumn::new("Line", ColRole::NodeId),
                FeedColumn::new("LineKey", ColRole::Value),
            ],
        );
        let mut rows = Vec::new();
        for (i, row) in child.rows.clone().into_iter().enumerate() {
            for j in 0..i % 3 {
                let Value::Dewey(id) = &row[1] else {
                    unreachable!("child ids are Dewey ids")
                };
                let mut line = id.clone();
                line.push(j as u32);
                rows.push(vec![
                    row[1].clone(),
                    Value::Dewey(line),
                    Value::Str(format!("g{i}.{j}").into()),
                ]);
            }
        }
        Feed {
            schema,
            rows: rows.into(),
        }
    }

    /// `merge_combine` over `parent` and `child` as given (views, shared
    /// handles) against the oracle over copies of them: the same rows in
    /// the same order, read in place, materialised and encoded, and the
    /// oracle's `rows_read`/`rows_out`. The whole bill is the one shared
    /// dense copies get (an unsorted input that is not sole is sorted
    /// through an index either way), and sole copies move to the same
    /// rows. Returns the output as the inputs gave it.
    fn combines_like_the_oracle(
        parent: Feed,
        child: Feed,
        anchor: &str,
        chain: ChainHint,
    ) -> std::result::Result<Feed, TestCaseError> {
        let (p, c) = (materialized(&parent), materialized(&child));
        let mut billed = Counters::new();
        let want = oracle_merge_combine(&p, &c, anchor, &mut billed).unwrap();
        let (mut shared_bill, mut bill) = (Counters::new(), Counters::new());
        let shared = (handle(false, &p), handle(false, &c));
        let shared = merge_combine(shared.0, shared.1, anchor, chain, &mut shared_bill).unwrap();
        let moved = merge_combine(p, c, anchor, chain, &mut Counters::new()).unwrap();
        let got = merge_combine(parent, child, anchor, chain, &mut bill).unwrap();
        prop_assert_eq!(&moved, &want);
        prop_assert_eq!(&shared, &want);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(&materialized(&got), &want);
        prop_assert_eq!(text_frame(&got), text_frame(&want));
        prop_assert_eq!(bill, shared_bill);
        prop_assert_eq!(
            (bill.rows_read, bill.rows_out),
            (billed.rows_read, billed.rows_out)
        );
        Ok(got)
    }

    /// Orders `feed` by its rows' drawn ranks when they ask for a shuffle,
    /// by `col` (stably) otherwise.
    fn arrange(feed: &mut Feed, col: usize, ranks: &[(bool, u32)]) {
        if ranks.first().is_some_and(|&(shuffle, _)| shuffle) {
            let mut ranked: Vec<_> = ranks.iter().zip(std::mem::take(&mut feed.rows)).collect();
            ranked.sort_by_key(|&(&(_, rank), _)| rank);
            feed.rows = ranked.into_iter().map(|(_, row)| row).collect();
        } else {
            feed.sort_by(&[col]);
        }
    }

    // The hash-set `split` the one-pass one replaced, kept verbatim (but
    // for the key's name) as the oracle of
    // `split_matches_the_hash_set_oracle`: k passes, one set per group.
    #[derive(Clone, Copy)]
    struct OracleKey<'a> {
        row: &'a [Value],
        cols: &'a [usize],
    }

    impl OracleKey<'_> {
        fn cells(&self) -> impl Iterator<Item = &Value> {
            self.cols.iter().map(|&c| &self.row[c])
        }
    }

    impl PartialEq for OracleKey<'_> {
        fn eq(&self, other: &Self) -> bool {
            self.cells().eq(other.cells())
        }
    }

    impl Eq for OracleKey<'_> {}

    impl Hash for OracleKey<'_> {
        fn hash<H: Hasher>(&self, state: &mut H) {
            self.cells().for_each(|cell| cell.hash(state));
        }
    }

    fn oracle_split(
        feed: &Feed,
        specs: &[SplitSpec],
        counters: &mut Counters,
    ) -> Result<Vec<Feed>> {
        let mut outputs = Vec::with_capacity(specs.len());
        for spec in specs {
            counters.rows_read += feed.len() as u64;
            // Resolve input columns for this group.
            let parent_src =
                match &spec.anchor_element {
                    Some(el) => feed.schema.col(el, ColRole::NodeId).ok_or_else(|| {
                        Error::UnknownColumn {
                            name: format!("{el}.ID"),
                        }
                    })?,
                    None => feed
                        .schema
                        .parent_ref_col()
                        .ok_or_else(|| Error::UnknownColumn {
                            name: format!("{}.PARENT", feed.schema.root_element),
                        })?,
                };
            let mut src_cols = vec![parent_src];
            let mut columns = vec![FeedColumn::new(
                spec.root_element.clone(),
                ColRole::ParentRef,
            )];
            // The input's NodeId columns among them: an instance's key.
            let mut key_cols = Vec::new();
            let mut root_id_src = None;
            for el in &spec.elements {
                // A leaf inlined 1-1 with an ancestor may carry only a Value
                // column; the group root must have an id.
                let idc = feed.schema.col(el, ColRole::NodeId);
                let vc = feed.schema.col(el, ColRole::Value);
                if idc.is_none() && vc.is_none() {
                    return Err(Error::UnknownColumn {
                        name: format!("{el} (no ID or value)"),
                    });
                }
                if let Some(idc) = idc {
                    if el == &spec.root_element {
                        root_id_src = Some(idc);
                    }
                    key_cols.push(idc);
                    src_cols.push(idc);
                    columns.push(FeedColumn::new(el.clone(), ColRole::NodeId));
                }
                if let Some(vc) = vc {
                    src_cols.push(vc);
                    columns.push(FeedColumn::new(el.clone(), ColRole::Value));
                }
            }
            let root_id_src = root_id_src.ok_or_else(|| Error::UnknownColumn {
                name: format!("{}.ID (group root must be identified)", spec.root_element),
            })?;
            // The input cardinality bounds this group's output (dedup only
            // shrinks it); pre-sizing both containers keeps the projection
            // loop reallocation-free.
            let mut rows = Vec::with_capacity(feed.len());
            // Instances are told apart by their ids where they sit in the
            // input; only a row that introduces a new one is copied out. In
            // a sorted input the repeats of an instance mostly follow it, so
            // the row before is asked first; the set holds the first row of
            // each instance, for the repeats that do not.
            let input: Vec<Vec<Value>> = feed.rows.clone().into_iter().collect();
            let mut seen: HashSet<OracleKey<'_>> = HashSet::with_capacity(feed.len());
            let mut last: Option<OracleKey<'_>> = None;
            for row in &input {
                if row[root_id_src].is_null() {
                    continue; // absent optional subtree: no instance to emit
                }
                let key = OracleKey {
                    row,
                    cols: &key_cols,
                };
                counters.hash_probes += 1;
                let repeats_last = last.replace(key) == Some(key);
                if !repeats_last && seen.insert(key) {
                    rows.push(src_cols.iter().map(|&c| row[c].clone()).collect());
                }
            }
            counters.rows_out += rows.len() as u64;
            outputs.push(Feed {
                schema: FeedSchema::new(spec.root_element.clone(), columns),
                rows: rows.into(),
            });
        }
        Ok(outputs)
    }

    /// The Split input the oracle proptest draws: an `A` instance with a
    /// leaf `AN`, a repeated child `B` and its repeated child `C`, inlined
    /// into one feed the way Combine leaves them.
    fn nest_schema() -> FeedSchema {
        let col = |el: &str, role| FeedColumn::new(el, role);
        FeedSchema::new(
            "A",
            vec![
                col("A", ColRole::ParentRef),
                col("A", ColRole::NodeId),
                col("AN", ColRole::NodeId),
                col("AN", ColRole::Value),
                col("B", ColRole::NodeId),
                col("B", ColRole::Value),
                col("C", ColRole::NodeId),
                col("C", ColRole::Value),
            ],
        )
    }

    /// Groups over [`nest_schema`]: the input's own root, a child keyed by
    /// one id, a child keyed by two (`B` with `C` inlined) and a
    /// grandchild, whose roots are `Null` where the branch is absent.
    fn nest_specs() -> Vec<SplitSpec> {
        let spec = |root: &str, anchor: Option<&str>, elements: &[&str]| SplitSpec {
            root_element: root.into(),
            anchor_element: anchor.map(Into::into),
            elements: elements.iter().map(|&e| e.into()).collect(),
        };
        vec![
            spec("A", None, &["A", "AN"]),
            spec("B", Some("A"), &["B"]),
            spec("B", Some("A"), &["B", "C"]),
            spec("C", Some("B"), &["C"]),
        ]
    }

    /// The row of instance (`a`, `b`, `c`); 0 is an absent element. A
    /// skeleton row (outer-union alignment) blanks the value columns of
    /// `A` and `B`, as Combine's skeleton rows do.
    fn nest_row((a, b, c, skeleton): (u32, u32, u32, bool)) -> Vec<Value> {
        let id = |path: &[u32]| {
            if path.contains(&0) {
                Value::Null
            } else {
                dv(path)
            }
        };
        let text = |v: &Value, label: &str| match v {
            Value::Dewey(d) if !skeleton || label == "c" => {
                Value::Str(format!("{label}{d}").into())
            }
            _ => Value::Null,
        };
        let (a_id, b_id, c_id) = (id(&[a]), id(&[a, 2, b]), id(&[a, 2, b, 3, c]));
        vec![
            dv(&[]),
            a_id.clone(),
            id(&[a, 1]),
            text(&a_id, "a"),
            b_id.clone(),
            text(&b_id, "b"),
            c_id.clone(),
            text(&c_id, "c"),
        ]
    }

    /// A feed of [`nest_schema`] and whether its rows were shuffled. Rows
    /// repeat instances; `A` keys 1 and 2 are always present. In key
    /// order the skeleton rows revisit an instance right after it; a
    /// shuffled feed ends on a row of the greatest `A` and then a
    /// skeleton row revisiting the least, so its `A` group must ask the
    /// set.
    fn nest_strategy() -> impl Strategy<Value = (Feed, bool)> {
        let row = (0u32..5, 0u32..4, 0u32..3, any::<bool>(), any::<u32>());
        (proptest::collection::vec(row, 0..40), any::<bool>()).prop_map(|(drawn, shuffle)| {
            let mut rows: Vec<_> = drawn;
            rows.push((1, 1, 1, false, 0));
            rows.push((2, 0, 0, false, 1));
            if shuffle {
                rows.sort_by_key(|r| r.4);
            } else {
                rows.sort_by_key(|r| (r.0, r.1, r.2, r.3));
            }
            let mut rows: Vec<_> = rows.into_iter().map(|r| (r.0, r.1, r.2, r.3)).collect();
            if shuffle {
                let top = rows.iter().map(|r| r.0).max().unwrap();
                rows.push((top, 1, 0, false));
                rows.push((1, 0, 0, true));
            }
            let feed = Feed {
                schema: nest_schema(),
                rows: rows.into_iter().map(nest_row).collect(),
            };
            (feed, shuffle)
        })
    }

    /// Whether Split's pass built group `spec`'s set of picks on `feed`.
    fn asks_the_set(feed: &Feed, spec: &SplitSpec) -> bool {
        let group = Group::resolve(&feed.schema, spec).unwrap();
        let mut instances = Instances::new(&group);
        let owned: Vec<Vec<Value>> = feed.rows.clone().into_iter().collect();
        let rows: Vec<&[Value]> = owned.iter().map(Vec::as_slice).collect();
        for (i, &r) in rows.iter().enumerate() {
            instances.offer(i, r, &|p| rows[p]);
        }
        instances.seen.is_some()
    }

    /// `feed` as the text encoder writes it.
    fn text_frame(feed: &Feed) -> Vec<u8> {
        let mut out = Vec::new();
        crate::feed::append_wire(&mut out, &feed.schema, feed.rows.slice(..));
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Sole or shared, sorted or not, dense or a view: the same rows
        /// in the same order as the clone-and-sort implementation, the
        /// same `rows_read`/`rows_out` bill, and a shared input's other
        /// holder still sees its rows as they were.
        #[test]
        fn merge_combine_matches_the_clone_and_sort_oracle(family in family_strategy()) {
            let (parent, child) = family;
            let mut billed = Counters::new();
            let want = oracle_merge_combine(&parent, &child, "Customer", &mut billed).unwrap();
            let copy = |feed: &Feed| feed.rows.clone().into_iter().collect::<Rows>();
            let (parent_rows, child_rows) = (copy(&parent), copy(&child));
            for (sole_parent, sole_child) in [(false, false), (true, false), (false, true), (true, true)] {
                let mut c = Counters::new();
                let got = merge_combine(
                    handle(sole_parent, &parent),
                    handle(sole_child, &child),
                    "Customer",
                    ChainHint::default(),
                    &mut c,
                )
                .unwrap();
                prop_assert_eq!(&got, &want, "parent sole {}, child sole {}", sole_parent, sole_child);
                prop_assert_eq!((c.rows_read, c.rows_out), (billed.rows_read, billed.rows_out));
                prop_assert_eq!(&parent.rows, &parent_rows);
                prop_assert_eq!(&child.rows, &child_rows);
            }
            // Split views (a view of a view too) and Combine views as
            // inputs, and a chain of three Combines, each reading the
            // last one's view as its parent, with skeletons of skeletons.
            let shared = |feed: &Feed| handle(false, feed);
            let nested = split_view(&split_view(&child));
            combines_like_the_oracle(shared(&parent), nested, "Customer", ChainHint::default())?;
            let lines = grandchildren(&child);
            let child_view =
                combines_like_the_oracle(shared(&child), shared(&lines), "Order", ChainHint::default())?;
            let mut chained = split_view(&parent);
            let mut hint = ChainHint::default();
            for next in [split_view(&child), child_view, shared(&child)] {
                chained = combines_like_the_oracle(chained, next, "Customer", hint)?;
                hint.parent_in_order = true;
            }
            prop_assert_eq!(&parent.rows, &parent_rows);
            prop_assert_eq!(&child.rows, &child_rows);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Sorted or shuffled, with absent branches, two-id keys and
        /// skeleton rows revisiting an instance: the one-pass Split's
        /// views hold the oracle's rows in the oracle's order, bill the
        /// same `Counters`, and encode to the oracle's frame bytes; a Split
        /// of a view answers what a Split of its copy does; and a shuffled
        /// input asks the set.
        #[test]
        fn split_matches_the_hash_set_oracle(drawn in nest_strategy()) {
            let (feed, shuffled) = drawn;
            let specs = nest_specs();
            let (mut billed, mut c) = (Counters::new(), Counters::new());
            let want = oracle_split(&feed, &specs, &mut billed).unwrap();
            let got = split(&feed, &specs, &mut c).unwrap();
            prop_assert_eq!(c, billed);
            prop_assert_eq!(got.len(), want.len());
            for (view, want) in got.iter().zip(&want) {
                let mut copy = view.clone();
                copy.rows.materialize();
                prop_assert!(!Rows::ptr_eq(&copy.rows, &view.rows));
                prop_assert_eq!(&copy, want);
                prop_assert_eq!(view.len(), want.len());
                prop_assert_eq!(text_frame(view), text_frame(want));
                prop_assert_eq!(view.wire_size(), want.wire_size());
            }
            // `C` out of the `B`+`C` group's view: a view of a view.
            let inner = [nest_specs().remove(3)];
            let (mut billed, mut c) = (Counters::new(), Counters::new());
            let want = oracle_split(&want[2], &inner, &mut billed).unwrap();
            let got = split(&got[2], &inner, &mut c).unwrap();
            prop_assert_eq!(c, billed);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(text_frame(&got[0]), text_frame(&want[0]));
            if shuffled {
                prop_assert!(asks_the_set(&feed, &specs[0]));
            }
        }
    }

    #[test]
    fn merge_combine_inlines_children() {
        let mut c = Counters::new();
        let out = merge_combine(
            customers(),
            orders(),
            "Customer",
            ChainHint::default(),
            &mut c,
        )
        .unwrap();
        // alice x 2 orders + bob padded = 3 rows.
        assert_eq!(out.len(), 3);
        assert_eq!(out.schema.arity(), 5); // 3 parent + 2 child (PARENT dropped)
        assert_eq!(out.schema.root_element, "Customer");
        // bob's row is null-padded.
        let bob = out
            .rows
            .into_iter()
            .find(|r| r[2] == Value::Str("bob".into()))
            .unwrap();
        assert!(bob[3].is_null() && bob[4].is_null());
        assert!(c.comparisons > 0);
        assert_eq!(c.rows_out, 3);
    }

    #[test]
    fn hash_combine_agrees_with_merge() {
        let mut c1 = Counters::new();
        let mut c2 = Counters::new();
        let mut a = merge_combine(
            customers(),
            orders(),
            "Customer",
            ChainHint::default(),
            &mut c1,
        )
        .unwrap();
        let mut b = hash_combine(&customers(), &orders(), "Customer", &mut c2).unwrap();
        a.sort_by(&[1, 3]);
        b.sort_by(&[1, 3]);
        assert_eq!(a, b);
        assert!(c2.hash_probes > 0);
    }

    #[test]
    fn combine_missing_anchor_errors() {
        let mut c = Counters::new();
        assert!(
            merge_combine(customers(), orders(), "Nope", ChainHint::default(), &mut c).is_err()
        );
    }

    #[test]
    fn orphan_children_dropped() {
        let mut c = Counters::new();
        let mut orphans = orders();
        orphans.rows.get_mut(0).unwrap()[0] = dv(&[99]); // no customer 99
        let out = merge_combine(
            customers(),
            orphans,
            "Customer",
            ChainHint::default(),
            &mut c,
        )
        .unwrap();
        // alice keeps o2, bob padded; orphan o1 gone.
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn split_projects_and_dedups() {
        let mut c = Counters::new();
        let combined = merge_combine(
            customers(),
            orders(),
            "Customer",
            ChainHint::default(),
            &mut Counters::new(),
        )
        .unwrap();
        let outs = split(
            &combined,
            &[
                SplitSpec {
                    root_element: "Customer".into(),
                    anchor_element: None,
                    elements: vec!["Customer".into(), "CustName".into()],
                },
                SplitSpec {
                    root_element: "Order".into(),
                    anchor_element: Some("Customer".into()),
                    elements: vec!["Order".into(), "OrderKey".into()],
                },
            ],
            &mut c,
        )
        .unwrap();
        assert_eq!(outs.len(), 2);
        // Customers deduped back to 2 (alice appeared twice in the join).
        assert_eq!(outs[0].len(), 2);
        assert_eq!(outs[0].schema.arity(), 3); // PARENT + ID + CustName
                                               // Orders: 2, each with PARENT = customer id.
        assert_eq!(outs[1].len(), 2);
        assert_eq!(*outs[1].rows.cell(0, 0), dv(&[1]));
    }

    #[test]
    fn split_skips_null_instances() {
        let mut c = Counters::new();
        let combined = merge_combine(
            customers(),
            orders(),
            "Customer",
            ChainHint::default(),
            &mut Counters::new(),
        )
        .unwrap();
        let outs = split(
            &combined,
            &[SplitSpec {
                root_element: "Order".into(),
                anchor_element: Some("Customer".into()),
                elements: vec!["Order".into(), "OrderKey".into()],
            }],
            &mut c,
        )
        .unwrap();
        // bob's padded row contributes no order instance.
        assert_eq!(outs[0].len(), 2);
    }

    #[test]
    fn split_unknown_element_errors() {
        let mut c = Counters::new();
        let err = split(
            &customers(),
            &[SplitSpec {
                root_element: "X".into(),
                anchor_element: None,
                elements: vec!["X".into()],
            }],
            &mut c,
        );
        assert!(err.is_err());
    }

    #[test]
    fn combine_then_split_roundtrips() {
        // Split(Combine(parent, child)) must recover both inputs modulo order.
        let mut c = Counters::new();
        let combined = merge_combine(
            customers(),
            orders(),
            "Customer",
            ChainHint::default(),
            &mut c,
        )
        .unwrap();
        let outs = split(
            &combined,
            &[
                SplitSpec {
                    root_element: "Customer".into(),
                    anchor_element: None,
                    elements: vec!["Customer".into(), "CustName".into()],
                },
                SplitSpec {
                    root_element: "Order".into(),
                    anchor_element: Some("Customer".into()),
                    elements: vec!["Order".into(), "OrderKey".into()],
                },
            ],
            &mut c,
        )
        .unwrap();
        let mut got_customers = outs[0].clone();
        got_customers.sort_by(&[1]);
        assert_eq!(got_customers.rows, customers().rows);
        let mut got_orders = outs[1].clone();
        got_orders.sort_by(&[1]);
        assert_eq!(got_orders.rows, orders().rows);
    }
}
