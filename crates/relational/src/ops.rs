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
use crate::feed::{ColRole, Feed, FeedColumn, FeedSchema, ReadRows, Row, Rows};
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

/// One Combine input lined up for the merge: its rows in join-key
/// order, each handed to the output at most once. Which way is decided
/// by the input's [`Rows`] handle alone: rows another handle still
/// shares are read through it (and, if they arrived unsorted, permuted
/// by an index) and cloned out; rows the input held alone are sorted in
/// place and moved out.
enum Side {
    Shared {
        rows: Rows,
        /// Row positions in key order; `None` when `rows` already is.
        order: Option<Vec<usize>>,
    },
    Sole(Vec<Vec<Value>>),
}

impl Side {
    /// Lines `rows` up on `col`. Dewey order is document order, so scans,
    /// shred output and earlier Combines arrive sorted: one pass checks
    /// (n−1 comparisons, billed also when `in_order` vouches for the
    /// order and the pass is skipped), and only an input that fails is
    /// sorted — stably, so equal keys keep their arrival order either way.
    fn sorted_on(rows: Rows, col: usize, in_order: bool, counters: &mut Counters) -> Side {
        counters.comparisons += (rows.len() as u64).saturating_sub(1);
        let check = || (1..rows.len()).all(|i| rows[i - 1][col] <= rows[i][col]);
        debug_assert!(!in_order || check(), "a vouched-for input out of key order");
        let sorted = in_order || check();
        let mut by_key = |a: &Vec<Value>, b: &Vec<Value>| {
            counters.comparisons += 1;
            a[col].cmp(&b[col])
        };
        match rows.try_unwrap() {
            Ok(mut rows) => {
                if !sorted {
                    rows.sort_by(by_key);
                }
                Side::Sole(rows)
            }
            Err(rows) => {
                let order = (!sorted).then(|| {
                    let mut order: Vec<usize> = (0..rows.len()).collect();
                    order.sort_by(|&a, &b| by_key(&rows[a], &rows[b]));
                    order
                });
                Side::Shared { rows, order }
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            Side::Shared { rows, .. } => rows.len(),
            Side::Sole(rows) => rows.len(),
        }
    }

    /// The `i`-th row in key order.
    fn row(&self, i: usize) -> &[Value] {
        match self {
            Side::Shared { rows, order } => &rows[order.as_ref().map_or(i, |o| o[i])],
            Side::Sole(rows) => &rows[i],
        }
    }

    /// Hands out the `i`-th row with room for `width` cells: a shared
    /// row is copied at that capacity, a sole one grown to it unless it
    /// already has it (as a row an earlier Combine of the chain sized does).
    fn take(&mut self, i: usize, width: usize) -> Vec<Value> {
        match self {
            Side::Shared { .. } => with_room(self.row(i), width),
            Side::Sole(rows) => {
                let mut row = std::mem::take(&mut rows[i]);
                row.reserve_exact(width.saturating_sub(row.len()));
                row
            }
        }
    }

    /// Appends the `i`-th row's cells, all but column `skip`, to `out`.
    fn append(&mut self, i: usize, skip: usize, out: &mut Vec<Value>) {
        match self {
            Side::Shared { .. } => {
                let cells = self.row(i).iter().enumerate();
                out.extend(cells.filter(|&(c, _)| c != skip).map(|(_, v)| v.clone()));
            }
            Side::Sole(rows) => {
                let cells = std::mem::take(&mut rows[i]).into_iter().enumerate();
                out.extend(cells.filter(|&(c, _)| c != skip).map(|(_, v)| v));
            }
        }
    }
}

/// A copy of `row` with room for `width` cells (at least its own).
fn with_room(row: &[Value], width: usize) -> Vec<Value> {
    let mut copy = Vec::with_capacity(width.max(row.len()));
    copy.extend_from_slice(row);
    copy
}

/// Emits the combined rows for one parent group `pgroup` (all rows sharing
/// the join key) and its matching child rows `cgroup` (with `ccol`
/// projected away on output), both given as positions in key order.
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
///
/// Every input row is handed out once ([`Side::take`], [`Side::append`]);
/// the only copies made beyond that are the ones inlining duplicates by
/// definition: the parent row for all but its last child, and the
/// skeleton. Every row handed out has room for `width` cells, at least
/// the output's arity.
fn emit_group(
    (schema, out): (&FeedSchema, &mut Vec<Vec<Value>>),
    (parent, pgroup): (&mut Side, Range<usize>),
    (child, cgroup): (&mut Side, Range<usize>),
    ccol: usize,
    (child_arity, width): (usize, usize),
) {
    // The output's leading columns are the parent's.
    let pad = |parent: &mut Side, p: usize, out: &mut Vec<Vec<Value>>| {
        let mut row = parent.take(p, width);
        row.resize(row.len() + child_arity, Value::Null);
        out.push(row);
    };
    let Some(last) = cgroup.clone().last() else {
        out.reserve(pgroup.len());
        pgroup.for_each(|p| pad(parent, p, out));
        return;
    };
    let mut attach = |mut base: Vec<Value>, c: usize, out: &mut Vec<Vec<Value>>| {
        child.append(c, ccol, &mut base);
        out.push(base);
    };
    if pgroup.len() == 1 {
        out.reserve(cgroup.len());
        for c in cgroup.start..last {
            attach(with_room(parent.row(pgroup.start), width), c, out);
        }
        attach(parent.take(pgroup.start, width), last, out);
        return;
    }
    // Outer-union alignment: skeleton = first parent row with value
    // columns blanked (identifiers stay for grouping/tagging).
    out.reserve(pgroup.len() + cgroup.len());
    let mut skeleton = Vec::with_capacity(width);
    let first = parent.row(pgroup.start).iter().zip(&schema.columns);
    skeleton.extend(first.map(|(v, col)| match col.role {
        ColRole::Value => Value::Null,
        _ => v.clone(),
    }));
    pgroup.for_each(|p| pad(parent, p, out));
    for c in cgroup.start..last {
        attach(with_room(&skeleton, width), c, out);
    }
    attach(skeleton, last, out);
}

/// Sort-merge implementation of `Combine`.
///
/// Left-outer semantics: parent rows with no matching child are padded
/// with `Null` (an optional/absent child). Orphan child rows (no parent)
/// are dropped. Each input is checked for sortedness on its join key and
/// sorted only if the check fails; the comparisons of the check, of any
/// sort and of the merge are charged to `counters`. An input whose rows
/// no other handle shares has them moved into the output; one whose rows
/// are shared (a scanned table, a feed another reader still holds) has
/// them cloned, and the other holders see them unchanged. The
/// per-group inlining/alignment semantics are `emit_group`'s; what
/// `chain` tells about the Combines around this one shapes allocations
/// and skips a check, never a row ([`ChainHint`]).
pub fn merge_combine(
    parent: Feed,
    child: Feed,
    anchor_element: &str,
    chain: ChainHint,
    counters: &mut Counters,
) -> Result<Feed> {
    let (pcol, ccol) = join_columns(&parent, &child, anchor_element)?;
    counters.rows_read += (parent.len() + child.len()) as u64;
    let child_arity = child.schema.arity() - 1;
    let schema = combined_schema(parent.schema, &child.schema, ccol);
    let width = chain.width.max(schema.arity());
    // Every parent row is emitted at least once: a 1:1 Combine fills
    // this without growing it.
    let mut rows = Vec::with_capacity(parent.rows.len());
    let mut parent = Side::sorted_on(parent.rows, pcol, chain.parent_in_order, counters);
    let mut child = Side::sorted_on(child.rows, ccol, false, counters);

    let (mut pi, mut ci) = (0, 0);
    while pi < parent.len() {
        // The parent group of this key, then the child rows carrying it:
        // smaller child keys are orphans, and a Null key joins nothing.
        let pgroup = pi;
        let key = &parent.row(pgroup)[pcol];
        pi += 1;
        while pi < parent.len() {
            counters.comparisons += 1;
            if parent.row(pi)[pcol] != *key {
                break;
            }
            pi += 1;
        }
        while ci < child.len() {
            counters.comparisons += 1;
            if child.row(ci)[ccol] >= *key {
                break;
            }
            ci += 1;
        }
        let cgroup = ci;
        while !key.is_null() && ci < child.len() {
            counters.comparisons += 1;
            if child.row(ci)[ccol] != *key {
                break;
            }
            ci += 1;
        }
        emit_group(
            (&schema, &mut rows),
            (&mut parent, pgroup..pi),
            (&mut child, cgroup..ci),
            ccol,
            (child_arity, width),
        );
    }
    counters.rows_out += rows.len() as u64;
    let rows = rows.into();
    Ok(Feed { schema, rows })
}

/// Hash-join implementation of `Combine` (same semantics as
/// [`merge_combine`]); provided for the `ablation` binary's comparison
/// of join strategies.
pub fn hash_combine(
    parent: &Feed,
    child: &Feed,
    anchor_element: &str,
    counters: &mut Counters,
) -> Result<Feed> {
    let (pcol, ccol) = join_columns(parent, child, anchor_element)?;
    counters.rows_read += (parent.len() + child.len()) as u64;

    let mut by_parent: HashMap<&Value, Vec<usize>> = HashMap::with_capacity(child.len());
    for (i, row) in child.rows.iter().enumerate() {
        by_parent.entry(&row[ccol]).or_default().push(i);
    }

    let schema = combined_schema(parent.schema.clone(), &child.schema, ccol);
    let mut rows = Vec::new();
    let child_arity = child.schema.arity() - 1;

    // Group parent rows by key (first-occurrence order) so the emit
    // semantics match the merge implementation exactly.
    let mut key_order: Vec<&Value> = Vec::new();
    let mut pgroups: HashMap<&Value, Vec<usize>> = HashMap::new();
    for (i, prow) in parent.rows.iter().enumerate() {
        counters.hash_probes += 1;
        let entry = pgroups.entry(&prow[pcol]).or_default();
        if entry.is_empty() {
            key_order.push(&prow[pcol]);
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
    let mut pside = Side::Shared {
        rows: parent.rows.clone(),
        order: Some(porder),
    };
    let mut cside = Side::Shared {
        rows: child.rows.clone(),
        order: Some(corder),
    };
    for (pgroup, cgroup) in groups {
        emit_group(
            (&schema, &mut rows),
            (&mut pside, pgroup),
            (&mut cside, cgroup),
            ccol,
            (child_arity, schema.arity()),
        );
    }
    counters.rows_out += rows.len() as u64;
    let rows = rows.into();
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

        let mut ci = 0usize;
        let mut pi = 0usize;
        while pi < psorted.rows.len() {
            let key = psorted.rows[pi][pcol].clone();
            // Gather the parent group for this key.
            let mut pgroup: Vec<&Vec<Value>> = Vec::new();
            while pi < psorted.rows.len() {
                counters.comparisons += 1;
                if psorted.rows[pi][pcol] == key {
                    pgroup.push(&psorted.rows[pi]);
                    pi += 1;
                } else {
                    break;
                }
            }
            // Advance child cursor past smaller keys (orphans dropped).
            while ci < csorted.rows.len() {
                counters.comparisons += 1;
                if csorted.rows[ci][ccol] < key {
                    ci += 1;
                } else {
                    break;
                }
            }
            let mut cgroup: Vec<&Vec<Value>> = Vec::new();
            if !key.is_null() {
                let mut cj = ci;
                while cj < csorted.rows.len() {
                    counters.comparisons += 1;
                    if csorted.rows[cj][ccol] == key {
                        cgroup.push(&csorted.rows[cj]);
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
                            Value::Str(format!("p{i}.{copy}")),
                        ]);
                        ranks.push((shuffle_parent, rank.wrapping_add(copy as u32)));
                    }
                }
                arrange(&mut parent, 1, &ranks);
                let mut child = orders();
                child.rows = Rows::default();
                let mut ranks = Vec::new();
                for (i, (key, rank)) in children.into_iter().enumerate() {
                    child
                        .rows
                        .push(vec![key, dv(&[9, i as u32]), Value::Str(format!("c{i}"))]);
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
            feed.rows.iter().cloned().collect()
        } else {
            feed.rows.clone()
        };
        Feed {
            schema: feed.schema.clone(),
            rows,
        }
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
            let mut seen: HashSet<OracleKey<'_>> = HashSet::with_capacity(feed.len());
            let mut last: Option<OracleKey<'_>> = None;
            for row in &feed.rows {
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
            Value::Dewey(d) if !skeleton || label == "c" => Value::Str(format!("{label}{d}")),
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
        let rows: Vec<&[Value]> = feed.rows.iter().map(Vec::as_slice).collect();
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

        /// Sole or shared, sorted or not: the same rows in the same order
        /// as the clone-and-sort implementation, the same
        /// `rows_read`/`rows_out` bill, and a shared input's other holder
        /// still sees its rows as they were.
        #[test]
        fn merge_combine_matches_the_clone_and_sort_oracle(family in family_strategy()) {
            let (parent, child) = family;
            let mut billed = Counters::new();
            let want = oracle_merge_combine(&parent, &child, "Customer", &mut billed).unwrap();
            let copy = |feed: &Feed| feed.rows.iter().cloned().collect::<Rows>();
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
            .iter()
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
        assert_eq!(outs[1].rows[0][0], dv(&[1]));
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
