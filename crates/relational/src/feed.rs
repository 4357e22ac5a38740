//! Sorted feeds: the tabular representation of fragment instances.
//!
//! A *feed* is a relation describing instances of an XML-schema fragment:
//!
//! * one `NodeId` column per element of the fragment (a [`Dewey`] path
//!   identifying the element instance — `Null` when an optional element is
//!   absent),
//! * one `ParentRef` column on the fragment root (paper Def. 3.1: "the
//!   root of the fragment is assigned two attributes: ID and PARENT"),
//! * one `Value` column per text-carrying element.
//!
//! One row corresponds to one combination of nested element instances;
//! repeated descendants inlined into the same fragment produce repeated
//! parent values and `Null` padding — precisely the "NULL values and
//! repeated elements due to inlining" the paper's communication-cost
//! discussion mentions. Rows are kept in document order (Dewey order of the
//! fragment root, ties broken by deeper ids), which is what lets `Combine`
//! run as a merge join and the tagger emit documents in a single pass.

use crate::error::{Error, Result};
use crate::sum::word_sum;
use crate::value::{parse_dotted_into, Dewey, Value};
use std::fmt;
use std::io::Write;
use std::ops::{Bound, Index, RangeBounds};
use std::sync::{Arc, OnceLock, Weak};

/// The role a feed column plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColRole {
    /// Dewey identifier of an element instance (the fragment's `ID`
    /// attribute for the root element, grouping ids for inlined elements).
    NodeId,
    /// Dewey identifier of the *parent element instance* of the fragment
    /// root (the fragment's `PARENT` attribute).
    ParentRef,
    /// Leaf text value of an element.
    Value,
}

/// One column of a feed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FeedColumn {
    /// Element this column belongs to.
    pub element: String,
    /// What the column holds.
    pub role: ColRole,
}

impl FeedColumn {
    /// Creates a column.
    pub fn new(element: impl Into<String>, role: ColRole) -> Self {
        FeedColumn {
            element: element.into(),
            role,
        }
    }

    /// Human-readable column name (`Order.ID`, `Order.PARENT`, `CustName`).
    pub fn display_name(&self) -> String {
        match self.role {
            ColRole::NodeId => format!("{}.ID", self.element),
            ColRole::ParentRef => format!("{}.PARENT", self.element),
            ColRole::Value => self.element.clone(),
        }
    }
}

/// Schema of a feed: the fragment root plus the ordered column list.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FeedSchema {
    /// Root element of the fragment this feed represents.
    pub root_element: String,
    /// Columns in order. By convention: the root's `ParentRef`, then per
    /// element in fragment pre-order its `NodeId` and (if a leaf) `Value`.
    pub columns: Vec<FeedColumn>,
}

impl FeedSchema {
    /// Creates a schema.
    pub fn new(root_element: impl Into<String>, columns: Vec<FeedColumn>) -> Self {
        FeedSchema {
            root_element: root_element.into(),
            columns,
        }
    }

    /// Index of the column for (`element`, `role`).
    pub fn col(&self, element: &str, role: ColRole) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.element == element && c.role == role)
    }

    /// Index of the root element's `NodeId` column.
    pub fn root_id_col(&self) -> Option<usize> {
        self.col(&self.root_element, ColRole::NodeId)
    }

    /// Index of the root element's `ParentRef` column.
    pub fn parent_ref_col(&self) -> Option<usize> {
        self.col(&self.root_element, ColRole::ParentRef)
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Elements that have a `NodeId` column, in column order.
    pub fn elements(&self) -> Vec<&str> {
        self.columns
            .iter()
            .filter(|c| c.role == ColRole::NodeId)
            .map(|c| c.element.as_str())
            .collect()
    }
}

/// A feed's rows behind a copy-on-write handle, and the one place that
/// knows how they are laid out. `clone` shares the row set; reads go
/// through [`len`](Rows::len), [`cell`](Rows::cell) (a point read) and
/// [`slice`](Rows::slice) (a run, which [`RowSlice::read`] walks with a
/// [`ReadRows`] reader), and by-value `into_iter` moves the rows out;
/// every write ([`push`](Rows::push),
/// `extend`, [`absorb`](Rows::absorb), [`sort_by`](Rows::sort_by),
/// [`get_mut`](Rows::get_mut)) through a handle that is not the sole owner
/// copies the set first (`Arc::make_mut`), so no holder ever sees
/// another's edit. A loop that builds rows fills a plain `Vec` and wraps
/// it once (`into`), paying the ownership check per feed rather than per
/// row.
///
/// A row set is *dense* (rows of its own) or a *view*: rows whose cells
/// sit in the rows of other sets, with no row copied. [`Rows::pick`]
/// makes one of chosen rows of one set, each projected to chosen columns
/// (a `Split`); a `Combine` over rows it may not move makes one of parent
/// rows beside child rows or `Null`s. A view of a view reads the rows
/// that one reads. Every reader reads a view where its cells sit, and
/// none gets an owned row of it: `into_iter` and every write copy the
/// view's rows out once, and a write then lets go of the view's inputs
/// ([`materialize`](Rows::materialize)). Only indexing (`rows[r]`, kept
/// hidden for one caller outside the workspace) fills a view's cache of
/// copied rows.
#[derive(Debug, Clone)]
pub struct Rows(Layout);

#[derive(Debug, Clone)]
enum Layout {
    Dense(Arc<Vec<Vec<Value>>>),
    View(Arc<View>),
}

/// A view slot that reads no row: the set's columns read `Null` (a
/// `Null`-padded `Combine` row).
const ABSENT: usize = usize::MAX;

/// A view slot's flag on an outer-union skeleton: the set's value
/// columns read `Null`, its identifiers stay. No row position has it.
const BLANK: usize = 1 << (usize::BITS - 1);

/// What a view cell that no row holds reads.
static NULL: Value = Value::Null;

/// What a view holds ([`Rows::pick`], [`Gather`]).
#[derive(Debug)]
struct View {
    /// The row sets read, shared with the sets the view was made of.
    from: Vec<Arc<Vec<Vec<Value>>>>,
    /// `from.len()` slots per view row, one per set: the position of the
    /// row it reads there, [`BLANK`]-flagged on a skeleton, or
    /// [`ABSENT`]. A view of one set (a `Split` of a dense set, and its
    /// runs) has neither: each row is one row of the set, projected.
    slots: Vec<usize>,
    /// Per view column, the column of its set's rows it reads.
    cols: Vec<usize>,
    /// Per view column, its set in `from`, and whether a skeleton blanks
    /// it (a value column); empty on a view of one set.
    sets: Vec<(usize, bool)>,
    /// The view's rows copied out, once `Index` asked for one (the one
    /// reader that needs them owned).
    rows: OnceLock<Vec<Vec<Value>>>,
}

impl View {
    fn new(
        from: Vec<Arc<Vec<Vec<Value>>>>,
        slots: Vec<usize>,
        cols: Vec<usize>,
        sets: Vec<(usize, bool)>,
    ) -> View {
        debug_assert_eq!(from.len() == 1, sets.is_empty());
        View {
            from,
            slots,
            cols,
            sets,
            rows: OnceLock::new(),
        }
    }

    /// A view of one set: each row is one row of the set, projected.
    fn plain(&self) -> bool {
        self.sets.is_empty()
    }

    fn len(&self) -> usize {
        self.slots.len() / self.from.len()
    }

    /// Row `r`'s slots.
    fn slots_of(&self, r: usize) -> &[usize] {
        let n = self.from.len();
        &self.slots[r * n..][..n]
    }

    /// The cell in row `r`, column `c`.
    fn cell(&self, r: usize, c: usize) -> &Value {
        if self.plain() {
            return &self.from[0][self.slots[r]][self.cols[c]];
        }
        ViewRow {
            view: self,
            slots: self.slots_of(r),
        }
        .cell(c)
    }

    /// The view's rows, copied out of `from`: one exact-size row each.
    fn copy(&self) -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        RowSlice(SliceLayout::View(self, &self.slots)).copy_to(&mut rows);
        rows
    }
}

/// A row set's identity without its rows ([`Rows::downgrade`]).
#[derive(Debug)]
pub struct RowsId(WeakLayout);

#[derive(Debug)]
enum WeakLayout {
    Dense(Weak<Vec<Vec<Value>>>),
    View(Weak<View>),
}

/// A read-only run of consecutive rows of a [`Rows`]
/// ([`Rows::slice`]): a batch to encode, a subtree to compare, a tail to
/// copy, without copying it out first. [`read`](RowSlice::read) walks it
/// with a [`ReadRows`] reader, [`copy_to`](RowSlice::copy_to) and
/// [`to_rows`](RowSlice::to_rows) copy it, `==` and
/// [`first_difference`](RowSlice::first_difference) compare it, and
/// [`is_sorted_by`](RowSlice::is_sorted_by) checks its order: each reads
/// the cells where they sit, a run of a view too, and hands out no row.
#[derive(Debug, Clone, Copy)]
pub struct RowSlice<'a>(SliceLayout<'a>);

#[derive(Debug, Clone, Copy)]
enum SliceLayout<'a> {
    Dense(&'a [Vec<Value>]),
    /// A view, and the run's part of its slots.
    View(&'a View, &'a [usize]),
}

/// One row as a [`ReadRows`] reader sees it, wherever its cells sit: a
/// stored row (`&[Value]`) or a row of a view.
pub trait Row<'a>: Copy {
    /// The cell in column `c`.
    fn cell(self, c: usize) -> &'a Value;
    /// The cells in column order.
    fn cells(self) -> impl Iterator<Item = &'a Value>;
}

impl<'a> Row<'a> for &'a [Value] {
    fn cell(self, c: usize) -> &'a Value {
        &self[c]
    }

    fn cells(self) -> impl Iterator<Item = &'a Value> {
        self.iter()
    }
}

/// A row of a view of one set: the set's row it reads, and the columns
/// it keeps.
#[derive(Clone, Copy)]
struct PickedRow<'a> {
    cells: &'a [Value],
    cols: &'a [usize],
}

impl<'a> Row<'a> for PickedRow<'a> {
    fn cell(self, c: usize) -> &'a Value {
        &self.cells[self.cols[c]]
    }

    fn cells(self) -> impl Iterator<Item = &'a Value> {
        self.cols.iter().map(move |&c| &self.cells[c])
    }
}

/// A row of a view of several sets: its slots, one per set.
#[derive(Clone, Copy)]
struct ViewRow<'a> {
    view: &'a View,
    slots: &'a [usize],
}

impl<'a> Row<'a> for ViewRow<'a> {
    fn cell(self, c: usize) -> &'a Value {
        let (set, blank) = self.view.sets[c];
        let slot = self.slots[set];
        if slot & BLANK != 0 && (slot == ABSENT || blank) {
            return &NULL;
        }
        &self.view.from[set][slot & !BLANK][self.view.cols[c]]
    }

    fn cells(self) -> impl Iterator<Item = &'a Value> {
        (0..self.view.cols.len()).map(move |c| self.cell(c))
    }
}

/// Code that reads the rows of a [`RowSlice`] where they sit
/// ([`RowSlice::read`]). `read` is compiled once per row layout, so a
/// cell read costs what that layout's cell read costs: the layout is
/// asked once per [`RowSlice::read`] call, not per cell.
pub trait ReadRows<'a> {
    /// What the reading returns.
    type Out;
    /// Reads `len` rows; `row(i)` is row `i`, for `i < len`.
    fn read<R: Row<'a>>(self, len: usize, row: impl Fn(usize) -> R) -> Self::Out;
}

impl Rows {
    /// True when both handles share one row set.
    pub fn ptr_eq(a: &Rows, b: &Rows) -> bool {
        match (&a.0, &b.0) {
            (Layout::Dense(a), Layout::Dense(b)) => Arc::ptr_eq(a, b),
            (Layout::View(a), Layout::View(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// A view of this row set: the rows at `picks`, in that order, each
    /// projected to the columns `cols`, in that order. Copies no row: the
    /// view shares this set's rows (a view of a view, the rows that one
    /// reads) until a write copies its own rows out.
    pub fn pick(&self, picks: Vec<usize>, cols: Vec<usize>) -> Rows {
        let view = match &self.0 {
            Layout::Dense(from) => View::new(vec![Arc::clone(from)], picks, cols, Vec::new()),
            Layout::View(outer) => View::new(
                outer.from.clone(),
                picks
                    .iter()
                    .flat_map(|&p| outer.slots_of(p))
                    .copied()
                    .collect(),
                cols.iter().map(|&c| outer.cols[c]).collect(),
                match outer.plain() {
                    true => Vec::new(),
                    false => cols.iter().map(|&c| outer.sets[c]).collect(),
                },
            ),
        };
        Rows(Layout::View(Arc::new(view)))
    }

    /// Turns a view into rows of its own, copied once, and lets go of
    /// the view's inputs; leaves a dense row set as it is. What every
    /// write does first, and what a table's rows have had done: a table
    /// never holds a view.
    pub fn materialize(&mut self) {
        if let Layout::View(view) = &self.0 {
            self.0 = Layout::Dense(Arc::new(view.copy()));
        }
    }

    /// The rows to write, copied first when another handle shares them.
    fn make_mut(&mut self) -> &mut Vec<Vec<Value>> {
        self.materialize();
        match &mut self.0 {
            Layout::Dense(rows) => Arc::make_mut(rows),
            Layout::View(_) => unreachable!("materialized above"),
        }
    }

    /// The rows by value when this is the sole handle on a dense set;
    /// the handle back, untouched, when it is shared or a view. Copies
    /// nothing either way.
    pub(crate) fn into_dense(self) -> std::result::Result<Vec<Vec<Value>>, Rows> {
        match self.0 {
            Layout::Dense(rows) => Arc::try_unwrap(rows).map_err(|rows| Rows(Layout::Dense(rows))),
            Layout::View(view) => Err(Rows(Layout::View(view))),
        }
    }

    /// This row set's identity, held without its rows: the handle keeps
    /// the address from being reused but lets the rows go with their
    /// last [`Rows`]. An edit through a sole handle on a downgraded set
    /// moves it to a new address (`Arc::make_mut` leaves weak handles
    /// behind) and one through a shared handle copies it, so a set that
    /// still [`is`](Rows::is) an identity holds the rows it held then.
    pub fn downgrade(&self) -> RowsId {
        RowsId(match &self.0 {
            Layout::Dense(rows) => WeakLayout::Dense(Arc::downgrade(rows)),
            Layout::View(view) => WeakLayout::View(Arc::downgrade(view)),
        })
    }

    /// True when `id` is this row set's [`downgrade`](Rows::downgrade).
    pub fn is(&self, id: &RowsId) -> bool {
        match (&self.0, &id.0) {
            (Layout::Dense(rows), WeakLayout::Dense(id)) => {
                std::ptr::eq(Arc::as_ptr(rows), id.as_ptr())
            }
            (Layout::View(view), WeakLayout::View(id)) => {
                std::ptr::eq(Arc::as_ptr(view), id.as_ptr())
            }
            _ => false,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.0 {
            Layout::Dense(rows) => rows.len(),
            Layout::View(view) => view.len(),
        }
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cell in row `r`, column `c`, read where it sits. Panics when
    /// either is out of bounds, as indexing does.
    pub fn cell(&self, r: usize, c: usize) -> &Value {
        match &self.0 {
            Layout::Dense(rows) => &rows[r][c],
            Layout::View(view) => view.cell(r, c),
        }
    }

    /// True when the rows are in order on the columns `cols`
    /// (lexicographic), read where they sit.
    pub fn is_sorted_by(&self, cols: &[usize]) -> bool {
        self.slice(..).is_sorted_by(cols)
    }

    /// The rows in `range`, read in place. Panics when the range is out
    /// of bounds, as slicing does.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> RowSlice<'_> {
        let bounds = (range.start_bound().cloned(), range.end_bound().cloned());
        RowSlice(match &self.0 {
            Layout::Dense(rows) => SliceLayout::Dense(&rows[bounds]),
            Layout::View(view) => {
                let at = match bounds.0 {
                    Bound::Included(at) => at,
                    Bound::Excluded(at) => at + 1,
                    Bound::Unbounded => 0,
                };
                let end = match bounds.1 {
                    Bound::Included(end) => end + 1,
                    Bound::Excluded(end) => end,
                    Bound::Unbounded => view.len(),
                };
                let n = view.from.len();
                SliceLayout::View(view, &view.slots[at * n..end * n])
            }
        })
    }

    /// Appends a row.
    pub fn push(&mut self, row: Vec<Value>) {
        self.make_mut().push(row);
    }

    /// Row `i` to edit in place, if there is one.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut Vec<Value>> {
        self.make_mut().get_mut(i)
    }

    /// Sorts the rows by `cmp`, stably.
    pub fn sort_by(&mut self, cmp: impl FnMut(&Vec<Value>, &Vec<Value>) -> std::cmp::Ordering) {
        self.make_mut().sort_by(cmp);
    }

    /// Takes `more` in after the rows held. An empty handle adopts
    /// `more`'s row set as it is, still shared with its other holders.
    pub fn absorb(&mut self, more: Rows) {
        if self.is_empty() {
            *self = more;
        } else {
            self.extend(more);
        }
    }

    /// How many sets a row of this set reads: one row of its own, or a
    /// view's slots.
    fn sets(&self) -> usize {
        match &self.0 {
            Layout::Dense(_) => 1,
            Layout::View(view) => view.from.len(),
        }
    }
}

impl RowsId {
    /// True while some [`Rows`] still holds the row set.
    pub fn is_held(&self) -> bool {
        match &self.0 {
            WeakLayout::Dense(rows) => rows.strong_count() > 0,
            WeakLayout::View(view) => view.strong_count() > 0,
        }
    }
}

/// A view under construction, a row at a time, out of a parent and a
/// child row set: how a `Combine` over rows it may not move joins them
/// without copying one. Each view row reads one parent row — whole, or
/// on an outer-union skeleton only its identifiers — beside one child
/// row or `Null`s. A parent or child that is a view is read through:
/// the gathered view reads the rows that one reads.
#[derive(Debug)]
pub(crate) struct Gather {
    parent: Rows,
    child: Rows,
    slots: Vec<usize>,
}

impl Gather {
    /// A gathering from `parent` and `child`, with room for `rows` rows.
    pub(crate) fn new(parent: Rows, child: Rows, rows: usize) -> Gather {
        let width = parent.sets() + child.sets();
        Gather {
            parent,
            child,
            slots: Vec::with_capacity(rows * width),
        }
    }

    /// The parent rows, to read keys from.
    pub(crate) fn parent(&self) -> &Rows {
        &self.parent
    }

    /// The child rows, to read keys from.
    pub(crate) fn child(&self) -> &Rows {
        &self.child
    }

    /// Appends a view row: parent row `p` — its value columns `Null`
    /// when `skeleton` — beside child row `c`, or beside `Null`s.
    pub(crate) fn push(&mut self, p: usize, skeleton: bool, c: Option<usize>) {
        let blank = if skeleton { BLANK } else { 0 };
        match &self.parent.0 {
            Layout::Dense(_) => self.slots.push(p | blank),
            Layout::View(view) => self
                .slots
                .extend(view.slots_of(p).iter().map(|&s| s | blank)),
        }
        match (&self.child.0, c) {
            (Layout::Dense(_), Some(c)) => self.slots.push(c),
            (Layout::View(view), Some(c)) => self.slots.extend_from_slice(view.slots_of(c)),
            (_, None) => {
                let n = self.child.sets();
                self.slots.extend(std::iter::repeat_n(ABSENT, n));
            }
        }
    }

    /// The view: the parent's first `parent_arity` columns, then the
    /// child's `child_arity` columns but column `skip`. `value(c)` tells
    /// the view's value columns, which a skeleton row reads as `Null`.
    pub(crate) fn finish(
        self,
        parent_arity: usize,
        (child_arity, skip): (usize, usize),
        value: impl Fn(usize) -> bool,
    ) -> Rows {
        let (mut from, mut cols, mut sets) = (Vec::new(), Vec::new(), Vec::new());
        let mut read = |rows: Rows, keep: &mut dyn Iterator<Item = usize>| {
            let base = from.len();
            match rows.0 {
                Layout::Dense(set) => {
                    from.push(set);
                    for c in keep {
                        cols.push(c);
                        sets.push(base);
                    }
                }
                Layout::View(view) => {
                    from.extend(view.from.iter().cloned());
                    for c in keep {
                        cols.push(view.cols[c]);
                        sets.push(base + view.sets.get(c).map_or(0, |&(set, _)| set));
                    }
                }
            }
        };
        read(self.parent, &mut (0..parent_arity));
        read(self.child, &mut (0..child_arity).filter(|&c| c != skip));
        let sets = sets
            .into_iter()
            .enumerate()
            .map(|(c, set)| (set, value(c)))
            .collect();
        Rows(Layout::View(Arc::new(View::new(
            from, self.slots, cols, sets,
        ))))
    }
}

impl<'a> RowSlice<'a> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self.0 {
            SliceLayout::Dense(rows) => rows.len(),
            SliceLayout::View(view, slots) => slots.len() / view.from.len(),
        }
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs `reader` over the rows where they sit: each layout
    /// instantiates [`ReadRows::read`] once, and a view is read without
    /// being copied.
    pub fn read<W: ReadRows<'a>>(self, reader: W) -> W::Out {
        match self.0 {
            SliceLayout::Dense(rows) => reader.read(rows.len(), |i| rows[i].as_slice()),
            SliceLayout::View(view, slots) if view.plain() => {
                let (from, cols) = (view.from[0].as_slice(), view.cols.as_slice());
                reader.read(slots.len(), |i| PickedRow {
                    cells: &from[slots[i]],
                    cols,
                })
            }
            SliceLayout::View(view, slots) => {
                let n = view.from.len();
                reader.read(slots.len() / n, |i| ViewRow {
                    view,
                    slots: &slots[i * n..][..n],
                })
            }
        }
    }

    /// True when the run is in order on the columns `cols`
    /// (lexicographic), read where it sits.
    pub fn is_sorted_by(self, cols: &[usize]) -> bool {
        self.read(InOrder(cols))
    }

    /// The first position at which this run's row and `other`'s differ,
    /// both read where they sit; `None` when they agree over the shorter
    /// run's length.
    pub fn first_difference(self, other: RowSlice<'a>) -> Option<usize> {
        self.read(Differ(other))
    }

    /// Appends a copy of each row of the run to `out`, one exact-size
    /// row each, read where the cells sit.
    pub fn copy_to(self, out: &mut Vec<Vec<Value>>) {
        self.read(Copied(out));
    }

    /// The rows as a row set of their own: a dense run copied, a run of
    /// a view read again from the same rows (no row copied).
    pub fn to_rows(self) -> Rows {
        match self.0 {
            SliceLayout::Dense(rows) => rows.to_vec().into(),
            SliceLayout::View(view, slots) => Rows(Layout::View(Arc::new(View::new(
                view.from.clone(),
                slots.to_vec(),
                view.cols.clone(),
                view.sets.clone(),
            )))),
        }
    }
}

/// [`RowSlice::copy_to`]'s reader.
struct Copied<'o>(&'o mut Vec<Vec<Value>>);

impl<'a> ReadRows<'a> for Copied<'_> {
    type Out = ();
    fn read<R: Row<'a>>(self, len: usize, row: impl Fn(usize) -> R) {
        self.0.reserve(len);
        self.0
            .extend((0..len).map(|i| row(i).cells().cloned().collect()));
    }
}

/// [`Rows::is_sorted_by`]'s reader.
struct InOrder<'c>(&'c [usize]);

impl<'a> ReadRows<'a> for InOrder<'_> {
    type Out = bool;
    fn read<R: Row<'a>>(self, len: usize, row: impl Fn(usize) -> R) -> bool {
        (1..len).all(|i| {
            let (a, b) = (row(i - 1), row(i));
            self.0
                .iter()
                .map(|&c| a.cell(c).cmp(b.cell(c)))
                .find(|o| o.is_ne())
                .is_none_or(|o| o.is_lt())
        })
    }
}

/// [`RowSlice::first_difference`]'s reader, whatever either run's
/// layout: the first run read with this, the second with [`DifferWith`].
struct Differ<'a>(RowSlice<'a>);

impl<'a> ReadRows<'a> for Differ<'a> {
    type Out = Option<usize>;
    fn read<R: Row<'a>>(self, len: usize, row: impl Fn(usize) -> R) -> Option<usize> {
        self.0.read(DifferWith(len, row))
    }
}

/// [`Differ`]'s second reading: the first run's `.0` rows are `.1`.
struct DifferWith<F>(usize, F);

impl<'a, R: Row<'a>, F: Fn(usize) -> R> ReadRows<'a> for DifferWith<F> {
    type Out = Option<usize>;
    fn read<S: Row<'a>>(self, len: usize, row: impl Fn(usize) -> S) -> Option<usize> {
        (0..len.min(self.0)).position(|i| (self.1)(i).cells().ne(row(i).cells()))
    }
}

impl Default for Rows {
    fn default() -> Rows {
        Vec::new().into()
    }
}

/// Row for row; a dense set against a dense set asks `Arc`'s `==`, which
/// answers a shared set without reading it.
impl PartialEq for Rows {
    fn eq(&self, other: &Rows) -> bool {
        match (&self.0, &other.0) {
            (Layout::Dense(a), Layout::Dense(b)) => a == b,
            _ => Rows::ptr_eq(self, other) || self.slice(..) == other.slice(..),
        }
    }
}

impl Eq for Rows {}

impl Default for RowSlice<'_> {
    fn default() -> Self {
        RowSlice(SliceLayout::Dense(&[]))
    }
}

/// Row for row, whatever either side's layout, read where the cells sit.
impl PartialEq for RowSlice<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (self.0, other.0) {
            (SliceLayout::Dense(a), SliceLayout::Dense(b)) => a == b,
            _ => self.len() == other.len() && self.first_difference(*other).is_none(),
        }
    }
}

impl Eq for RowSlice<'_> {}

/// Row `i` as a `Vec`, for one caller outside the workspace: the perf
/// ledger's oracle check (`bench/src/workloads.rs:233`, `a.rows[r][ai]`),
/// always on a dense, sorted feed. No workspace code indexes a `Rows`; a
/// view asked copies its rows out into its cache once, the one reader
/// that fills it.
#[doc(hidden)]
impl Index<usize> for Rows {
    type Output = Vec<Value>;
    fn index(&self, i: usize) -> &Vec<Value> {
        match &self.0 {
            Layout::Dense(rows) => &rows[i],
            Layout::View(view) => &view.rows.get_or_init(|| view.copy())[i],
        }
    }
}

impl Extend<Vec<Value>> for Rows {
    fn extend<I: IntoIterator<Item = Vec<Value>>>(&mut self, rows: I) {
        self.make_mut().extend(rows);
    }
}

impl From<Vec<Vec<Value>>> for Rows {
    fn from(rows: Vec<Vec<Value>>) -> Rows {
        Rows(Layout::Dense(Arc::new(rows)))
    }
}

impl FromIterator<Vec<Value>> for Rows {
    fn from_iter<I: IntoIterator<Item = Vec<Value>>>(iter: I) -> Rows {
        Vec::from_iter(iter).into()
    }
}

impl IntoIterator for Rows {
    type Item = Vec<Value>;
    type IntoIter = std::vec::IntoIter<Vec<Value>>;
    /// Moves the rows out of a sole dense handle; copies them, once, out
    /// of a shared one or a view.
    fn into_iter(self) -> Self::IntoIter {
        match self.0 {
            Layout::Dense(rows) => Arc::unwrap_or_clone(rows),
            Layout::View(view) => view.copy(),
        }
        .into_iter()
    }
}

/// A materialized feed: schema plus rows.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Feed {
    /// Column layout.
    pub schema: FeedSchema,
    /// Rows; each has exactly `schema.arity()` values. Shared on `clone`,
    /// copied on the first write through a shared handle ([`Rows`]).
    pub rows: Rows,
}

impl Feed {
    /// An empty feed with the given schema.
    pub fn new(schema: FeedSchema) -> Self {
        Feed {
            schema,
            rows: Rows::default(),
        }
    }

    /// Appends a row, checking arity.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        self.rows.push(arity_checked(self.schema.arity(), row)?);
        Ok(())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Approximate size in bytes when shipped (the paper's `size()`
    /// function for communication cost). Counts cell payloads plus one
    /// separator per cell; headers are negligible and excluded.
    pub fn wire_size(&self) -> u64 {
        rows_wire_size(self.rows.slice(..))
    }

    /// Sorts rows by the given columns (lexicographic), returning the
    /// number of comparisons performed (for instrumentation). A feed
    /// already in order is left alone — its rows stay shared with whoever
    /// else holds them — for the n−1 comparisons the check took (what the
    /// sort spends on a sorted input too).
    pub fn sort_by(&mut self, cols: &[usize]) -> u64 {
        use std::cell::Cell;
        if self.is_sorted_by(cols) {
            return (self.len() as u64).saturating_sub(1);
        }
        let comparisons = Cell::new(0u64);
        self.rows.sort_by(|a, b| {
            comparisons.set(comparisons.get() + 1);
            for &c in cols {
                match a[c].cmp(&b[c]) {
                    std::cmp::Ordering::Equal => continue,
                    other => return other,
                }
            }
            std::cmp::Ordering::Equal
        });
        comparisons.get()
    }

    /// True when rows are sorted by the given columns
    /// ([`Rows::is_sorted_by`]).
    pub fn is_sorted_by(&self, cols: &[usize]) -> bool {
        self.rows.is_sorted_by(cols)
    }

    // ------------------------------------------------------------------
    // Wire format
    // ------------------------------------------------------------------

    /// Serializes to the shipping format; see [`append_wire`].
    pub fn to_wire(&self) -> String {
        let mut out = Vec::new();
        append_wire(&mut out, &self.schema, self.rows.slice(..));
        String::from_utf8(out).expect("the text encoder writes UTF-8")
    }

    /// Decodes the shipping format, verifying the integrity line when
    /// present (feeds produced by [`Feed::to_wire`] always carry one; a
    /// legacy feed on disk may not).
    ///
    /// The rows are read in one scan: the tag byte of a cell picks its
    /// kind, and the kind reads on to the tab or newline that ends it —
    /// ids digit by digit, a string to its tab, newline or escape.
    pub fn from_wire(text: &str) -> Result<Feed> {
        Feed::from_body(verified_body(text, false)?)
    }

    /// Decodes a received frame of the shipping format: like
    /// [`Feed::from_wire`], but the integrity line is required — a frame
    /// cut short before it would otherwise read as a shorter feed.
    pub fn from_sealed_wire(text: &str) -> Result<Feed> {
        Feed::from_body(verified_body(text, true)?)
    }

    /// Decodes a verified body: the header, then the rows.
    fn from_body(body: &str) -> Result<Feed> {
        let (schema, rows_text) = decode_header(body)?;
        // The components of the row's last id: the base of a `*` cell.
        let mut ids = Vec::new();
        let mut rows = Vec::new();
        if let Some(text) = rows_text {
            let mut at = 0;
            loop {
                rows.push(decode_row(text, &mut at, schema.arity(), &mut ids)?);
                if at == text.len() {
                    break;
                }
                // Past the newline that ended the row.
                at += 1;
            }
        }
        Ok(Feed {
            schema,
            rows: rows.into(),
        })
    }
}

/// `text` up to its integrity line, once the line verifies. The line
/// reads exactly as [`append_wire`] writes it — 16 lowercase hex digits
/// and a newline, one spelling per sum. Without one, all of `text` is
/// the body (a legacy feed), unless `sealed` requires the line.
fn verified_body(text: &str, sealed: bool) -> Result<&str> {
    // The integrity line starts at the beginning of a line; a literal
    // "#sum" inside a string cell is always mid-line (real tabs never
    // occur inside values).
    let sum_pos = text
        .rfind("\n#sum\t")
        .map(|p| p + 1)
        .or_else(|| text.starts_with("#sum\t").then_some(0));
    let Some(pos) = sum_pos else {
        if sealed {
            return Err(Error::decode("no #sum line: feed cut short"));
        }
        return Ok(text);
    };
    let body = &text[..pos];
    let expected = text[pos..]
        .strip_prefix("#sum\t")
        .and_then(|line| line.strip_suffix('\n'))
        .filter(|hex| {
            hex.len() == 16 && hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
        })
        .and_then(|hex| u64::from_str_radix(hex, 16).ok());
    match expected {
        Some(e) if e == word_sum(body.as_bytes()) => Ok(body),
        Some(_) => Err(Error::decode(
            "checksum mismatch: feed corrupted in transit",
        )),
        None => Err(Error::decode("malformed #sum line")),
    }
}

/// The schema a body's `#feed` and `#cols` lines declare, and the row
/// lines after them without the body's last newline — `None` when the
/// `#cols` line is the last line.
fn decode_header(text: &str) -> Result<(FeedSchema, Option<&str>)> {
    // Strip one '\n' only: `str::lines` would also strip a '\r' that
    // ends a string cell in the last column.
    let mut lines = text.strip_suffix('\n').unwrap_or(text).splitn(3, '\n');
    let header = lines.next().ok_or_else(|| Error::decode("empty input"))?;
    let root = header
        .strip_prefix("#feed\t")
        .ok_or_else(|| Error::decode("missing #feed header"))?;
    let cols_line = lines.next().ok_or_else(|| Error::decode("missing #cols"))?;
    let cols_body = cols_line
        .strip_prefix("#cols")
        .ok_or_else(|| Error::decode("missing #cols header"))?;
    let mut columns = Vec::new();
    for spec in cols_body.split('\t').skip(1) {
        let (el, role) = spec
            .rsplit_once(':')
            .ok_or_else(|| Error::decode(format!("bad column spec {spec:?}")))?;
        let role = match role {
            "n" => ColRole::NodeId,
            "p" => ColRole::ParentRef,
            "v" => ColRole::Value,
            other => return Err(Error::decode(format!("bad column role {other:?}"))),
        };
        columns.push(FeedColumn::new(el, role));
    }
    Ok((FeedSchema::new(root, columns), lines.next()))
}

/// Decodes the row line of `text` starting at `*at`, a row of a feed of
/// `arity` columns, and leaves `*at` on the newline that ends it (or the
/// end of `text`). A zero-arity row is an empty line; on any other feed
/// an empty line is one empty cell, and fails as one. `ids` holds the
/// components of the last id decoded in the row, which a `*` cell
/// extends in place.
fn decode_row(text: &str, at: &mut usize, arity: usize, ids: &mut Vec<u32>) -> Result<Vec<Value>> {
    let bytes = text.as_bytes();
    let mut row = Vec::with_capacity(arity);
    if arity == 0 && matches!(bytes.get(*at), None | Some(b'\n')) {
        return Ok(row);
    }
    // The end of the cell starting at `start`, and an error naming it.
    let cell_end = |start: usize| {
        bytes[start..]
            .iter()
            .position(|&b| b == b'\t' || b == b'\n')
            .map_or(bytes.len(), |n| start + n)
    };
    let bad = |what: &str, start: usize| {
        Error::decode(format!("{what} {:?}", &text[start..cell_end(start)]))
    };
    // Whether `ids` holds an id of this row yet.
    let mut has_base = false;
    loop {
        let start = *at;
        *at = match bytes.get(start) {
            Some(b'N') => {
                row.push(Value::Null);
                cell_end(start)
            }
            Some(b'I') => {
                let end = cell_end(start);
                let n = text[start + 1..end]
                    .parse::<i64>()
                    .map_err(|_| bad("bad int", start))?;
                row.push(Value::Int(n));
                end
            }
            Some(b'S') => {
                let (end, escaped) = string_end(bytes, start + 1);
                let raw = &text[start + 1..end];
                row.push(Value::Str(if escaped {
                    unescape(raw)?.into()
                } else {
                    raw.into()
                }));
                end
            }
            Some(b'D') => {
                ids.clear();
                let len = parse_dotted_into(&bytes[start + 1..], ids)
                    .ok_or_else(|| bad("bad dewey", start))?;
                row.push(Value::Dewey(Dewey::from(&ids[..])));
                has_base = true;
                start + 1 + len
            }
            Some(b'*') => {
                if !has_base {
                    return Err(Error::decode(format!(
                        "relative dewey {:?} with no predecessor",
                        &text[start..cell_end(start)]
                    )));
                }
                let len = parse_dotted_into(&bytes[start + 1..], ids)
                    .ok_or_else(|| bad("bad dewey suffix", start))?;
                row.push(Value::Dewey(Dewey::from(&ids[..])));
                start + 1 + len
            }
            _ => return Err(bad("bad cell", start)),
        };
        if bytes.get(*at) != Some(&b'\t') {
            return arity_checked(arity, row);
        }
        *at += 1;
    }
}

/// Where the text of a string cell that starts at `from` ends — at its
/// tab, its row's newline or the end of `bytes` — and whether it holds a
/// backslash (an escape) before that. One pass over the string.
fn string_end(bytes: &[u8], mut from: usize) -> (usize, bool) {
    let mut escaped = false;
    loop {
        let at = bytes[from..]
            .iter()
            .position(|b| matches!(b, b'\t' | b'\n' | b'\\'))
            .map_or(bytes.len(), |n| from + n);
        if bytes.get(at) != Some(&b'\\') {
            return (at, escaped);
        }
        escaped = true;
        from = at + 1;
    }
}

/// The text of a string cell with its escapes (`\t`, `\n`, `\\`) undone.
fn unescape(raw: &str) -> Result<String> {
    let mut s = String::with_capacity(raw.len());
    let mut it = raw.chars();
    while let Some(c) = it.next() {
        if c == '\\' {
            match it.next() {
                Some('t') => s.push('\t'),
                Some('n') => s.push('\n'),
                Some('\\') => s.push('\\'),
                other => return Err(Error::decode(format!("bad escape \\{other:?}"))),
            }
        } else {
            s.push(c);
        }
    }
    Ok(s)
}

/// `row`, if it has `arity` values.
fn arity_checked(arity: usize, row: Vec<Value>) -> Result<Vec<Value>> {
    if row.len() != arity {
        return Err(Error::ArityMismatch {
            expected: arity,
            got: row.len(),
        });
    }
    Ok(row)
}

fn rows_wire_size(rows: RowSlice<'_>) -> u64 {
    rows.read(WireSize)
}

/// [`rows_wire_size`]'s reader.
struct WireSize;

impl<'a> ReadRows<'a> for WireSize {
    type Out = u64;
    fn read<R: Row<'a>>(self, len: usize, row: impl Fn(usize) -> R) -> u64 {
        let cells = |r: R| r.cells().map(|v| v.wire_len() as u64 + 1).sum::<u64>();
        (0..len).map(|i| cells(row(i))).sum()
    }
}

/// Appends `rows` under `schema` to `out` in the shipping format: a
/// line-oriented text encoding with a typed prefix per cell (`N`ull,
/// `I`nt, `D`ewey, `S`tring) and backslash escapes for tab/newline/
/// backslash in strings. Takes the rows as a [`RowSlice`] so a batch of a
/// larger feed encodes without being copied out first, and writes where
/// the message ships from, so the frame is built once.
pub fn append_wire(out: &mut Vec<u8>, schema: &FeedSchema, rows: RowSlice<'_>) {
    let start = out.len();
    out.reserve(rows_wire_size(rows) as usize + 64);
    out.extend_from_slice(b"#feed\t");
    out.extend_from_slice(schema.root_element.as_bytes());
    out.extend_from_slice(b"\n#cols");
    for c in &schema.columns {
        out.push(b'\t');
        out.extend_from_slice(c.element.as_bytes());
        out.push(b':');
        out.push(match c.role {
            ColRole::NodeId => b'n',
            ColRole::ParentRef => b'p',
            ColRole::Value => b'v',
        });
    }
    out.push(b'\n');
    rows.read(TextRows(out));
    // Trailing integrity line: the word sum of everything above. A flipped
    // bit in transit becomes a decode error instead of silently
    // corrupt target data.
    let sum = word_sum(&out[start..]);
    writeln!(out, "#sum\t{sum:016x}").expect("writing to a Vec cannot fail");
}

/// [`append_wire`]'s row lines, one per row, written where the rows sit.
struct TextRows<'o>(&'o mut Vec<u8>);

impl<'a> ReadRows<'a> for TextRows<'_> {
    type Out = ();
    fn read<R: Row<'a>>(self, len: usize, row: impl Fn(usize) -> R) {
        let out = self.0;
        for r in 0..len {
            // Dewey ids within a row share long prefixes (a child's id
            // extends an ancestor's); encode each id relative to the
            // previous id in the row when it is an extension of it. This
            // keeps shipped fragments compact — the reason Table 3's
            // sorted feeds beat tagged XML on the wire.
            let mut prev: Option<&Dewey> = None;
            for (i, v) in row(r).cells().enumerate() {
                if i > 0 {
                    out.push(b'\t');
                }
                encode_value(v, prev, out);
                if let Value::Dewey(d) = v {
                    prev = Some(d);
                }
            }
            out.push(b'\n');
        }
    }
}

/// A handle on `feed`'s rows (as `String: From<&String>` copies one).
impl From<&Feed> for Feed {
    fn from(feed: &Feed) -> Feed {
        feed.clone()
    }
}

impl fmt::Display for Feed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = self
            .schema
            .columns
            .iter()
            .map(|c| c.display_name())
            .collect();
        writeln!(f, "[{}] {} rows", names.join(", "), self.rows.len())?;
        for r in 0..self.rows.len().min(20) {
            let cells: Vec<String> = (0..names.len())
                .map(|c| self.rows.cell(r, c).to_string())
                .collect();
            writeln!(f, "  {}", cells.join(" | "))?;
        }
        if self.rows.len() > 20 {
            writeln!(f, "  ... ({} more)", self.rows.len() - 20)?;
        }
        Ok(())
    }
}

/// Appends `n` in decimal.
fn push_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends `path` dotted.
fn push_dotted(out: &mut Vec<u8>, path: &[u32]) {
    for (i, c) in path.iter().enumerate() {
        if i > 0 {
            out.push(b'.');
        }
        push_decimal(out, u64::from(*c));
    }
}

fn encode_value(v: &Value, prev: Option<&Dewey>, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(b'N'),
        Value::Int(i) => {
            out.push(b'I');
            if *i < 0 {
                out.push(b'-');
            }
            push_decimal(out, i.unsigned_abs());
        }
        Value::Dewey(d) => {
            // `*suffix`: extend the previous Dewey in this row.
            match prev {
                Some(p) if p.is_prefix_of(d) && d.depth() > p.depth() => {
                    out.push(b'*');
                    push_dotted(out, &d.as_slice()[p.depth()..]);
                }
                _ => {
                    out.push(b'D');
                    push_dotted(out, d.as_slice());
                }
            }
        }
        Value::Str(s) => {
            out.push(b'S');
            // The escaped bytes are ASCII, so the runs between them are
            // whole characters.
            let bytes = s.as_bytes();
            let mut plain = 0;
            for (i, b) in bytes.iter().enumerate() {
                let escaped: &[u8] = match b {
                    b'\t' => b"\\t",
                    b'\n' => b"\\n",
                    b'\\' => b"\\\\",
                    _ => continue,
                };
                out.extend_from_slice(&bytes[plain..i]);
                out.extend_from_slice(escaped);
                plain = i + 1;
            }
            out.extend_from_slice(&bytes[plain..]);
        }
    }
}

/// Builds the conventional feed schema for a fragment: `ParentRef` of the
/// root, then per element (in the order given) a `NodeId` column and, when
/// flagged as a leaf, a `Value` column.
pub fn fragment_feed_schema(
    root_element: &str,
    elements: &[(String, bool)], // (name, has_text), pre-order, root first
) -> FeedSchema {
    let mut columns = Vec::with_capacity(1 + elements.len() * 2);
    columns.push(FeedColumn::new(root_element, ColRole::ParentRef));
    for (name, has_text) in elements {
        columns.push(FeedColumn::new(name.clone(), ColRole::NodeId));
        if *has_text {
            columns.push(FeedColumn::new(name.clone(), ColRole::Value));
        }
    }
    FeedSchema::new(root_element, columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_feed() -> Feed {
        let schema = fragment_feed_schema(
            "Order",
            &[
                ("Order".to_string(), false),
                ("ServiceName".to_string(), true),
            ],
        );
        let mut f = Feed::new(schema);
        f.push_row(vec![
            Value::Dewey(Dewey::from([1])),
            Value::Dewey(Dewey::from([1, 2])),
            Value::Dewey(Dewey::from([1, 2, 1])),
            Value::Str("local".into()),
        ])
        .unwrap();
        f.push_row(vec![
            Value::Dewey(Dewey::from([1])),
            Value::Dewey(Dewey::from([1, 3])),
            Value::Dewey(Dewey::from([1, 3, 1])),
            Value::Str("long\tdistance".into()),
        ])
        .unwrap();
        f
    }

    #[test]
    fn schema_layout() {
        let f = sample_feed();
        assert_eq!(f.schema.arity(), 4);
        assert_eq!(f.schema.parent_ref_col(), Some(0));
        assert_eq!(f.schema.root_id_col(), Some(1));
        assert_eq!(f.schema.col("ServiceName", ColRole::Value), Some(3));
        assert_eq!(f.schema.elements(), vec!["Order", "ServiceName"]);
        assert_eq!(f.schema.columns[1].display_name(), "Order.ID");
        assert_eq!(f.schema.columns[0].display_name(), "Order.PARENT");
        assert_eq!(f.schema.columns[3].display_name(), "ServiceName");
    }

    #[test]
    fn arity_enforced() {
        let mut f = sample_feed();
        assert!(f.push_row(vec![Value::Null]).is_err());
    }

    #[test]
    fn wire_roundtrip() {
        let f = sample_feed();
        let wire = f.to_wire();
        let back = Feed::from_wire(&wire).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn wire_roundtrip_with_specials() {
        let schema = FeedSchema::new("x", vec![FeedColumn::new("x", ColRole::Value)]);
        let mut f = Feed::new(schema);
        for s in [
            "tab\there",
            "line\nbreak",
            "back\\slash",
            "",
            "plain",
            "x\r",
            "cr\r\nlf",
        ] {
            f.push_row(vec![Value::Str(s.into())]).unwrap();
        }
        f.push_row(vec![Value::Null]).unwrap();
        f.push_row(vec![Value::Int(-42)]).unwrap();
        let back = Feed::from_wire(&f.to_wire()).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn wire_size_tracks_content() {
        let f = sample_feed();
        let small = f.wire_size();
        let mut bigger = f.clone();
        bigger
            .push_row(vec![
                Value::Dewey(Dewey::from([2])),
                Value::Dewey(Dewey::from([2, 1])),
                Value::Null,
                Value::Str("x".repeat(100).into()),
            ])
            .unwrap();
        assert!(bigger.wire_size() > small + 100);
    }

    #[test]
    fn sorting_and_sortedness() {
        let mut f = sample_feed();
        f.rows = f.rows.clone().into_iter().rev().collect();
        assert!(!f.is_sorted_by(&[1]));
        let cmps = f.sort_by(&[1]);
        assert!(cmps > 0);
        assert!(f.is_sorted_by(&[1]));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Feed::from_wire("").is_err());
        assert!(Feed::from_wire("#feed\tx\nnot-cols\n").is_err());
        assert!(Feed::from_wire("#feed\tx\n#cols\ty:q\n").is_err());
        let good_header = "#feed\tx\n#cols\tx:v\n";
        assert!(Feed::from_wire(&format!("{good_header}Z99\n")).is_err());
        assert!(Feed::from_wire(&format!("{good_header}Iabc\n")).is_err());
        assert!(Feed::from_wire(&format!("{good_header}D1..2\n")).is_err());
        assert!(Feed::from_wire(&format!("{good_header}S\\q\n")).is_err());
    }

    #[test]
    fn checksum_detects_corruption() {
        let f = sample_feed();
        let wire = f.to_wire();
        assert!(wire.contains("#sum\t"));
        // Flip one payload byte: decode must fail loudly.
        let mut corrupted = wire.clone().into_bytes();
        let idx = wire.find("local").unwrap();
        corrupted[idx] = b'X';
        let corrupted = String::from_utf8(corrupted).unwrap();
        let err = Feed::from_wire(&corrupted).unwrap_err();
        assert!(err.to_string().contains("corrupted"), "{err}");
        // Tampering with the sum itself is also caught.
        let bad_sum = wire.replace("#sum\t", "#sum\tffff");
        assert!(Feed::from_wire(&bad_sum).is_err());
    }

    #[test]
    fn checksum_optional_for_legacy_feeds() {
        let f = sample_feed();
        let wire = f.to_wire();
        let body = &wire[..wire.rfind("#sum\t").unwrap()];
        assert_eq!(Feed::from_wire(body).unwrap(), f);
    }

    #[test]
    fn sum_lookalike_in_values_is_not_a_checksum() {
        let schema = FeedSchema::new("x", vec![FeedColumn::new("x", ColRole::Value)]);
        let mut f = Feed::new(schema);
        f.push_row(vec![Value::Str("#sum".into())]).unwrap();
        f.push_row(vec![Value::Str("ends with #sum".into())])
            .unwrap();
        let back = Feed::from_wire(&f.to_wire()).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn zero_arity_rows_roundtrip_in_text() {
        let mut f = Feed::new(FeedSchema::new("x", Vec::new()));
        f.push_row(Vec::new()).unwrap();
        f.push_row(Vec::new()).unwrap();
        let wire = f.to_wire();
        assert!(wire.contains("#cols\n\n\n#sum\t"), "{wire:?}");
        assert_eq!(Feed::from_wire(&wire).unwrap(), f);
        // Elsewhere an empty line is one empty cell, as before.
        let empty_line = "#feed\tx\n#cols\tx:v\nN\n\n";
        assert_eq!(
            Feed::from_wire(empty_line),
            Err(Error::decode("bad cell \"\""))
        );
    }

    #[test]
    fn display_truncates() {
        let f = sample_feed();
        let text = format!("{f}");
        assert!(text.contains("2 rows"));
        assert!(text.contains("local"));
    }

    /// The row decoder `decode_row` replaced: each line split on tabs,
    /// each cell dispatched on its first char, each id split on dots,
    /// counted and parsed. The oracle of the differential proptest below.
    fn reference_rows<'a>(
        schema: FeedSchema,
        lines: impl Iterator<Item = &'a str>,
    ) -> Result<Feed> {
        let mut rows = Vec::new();
        for line in lines {
            let mut row: Vec<Value> = Vec::with_capacity(schema.arity());
            // Where in `row` the last id sits: the base of a `*` cell.
            let mut prev: Option<usize> = None;
            for cell in line.split('\t') {
                let v = reference_decode_value(cell, prev.and_then(|p| row[p].as_dewey()))?;
                if v.as_dewey().is_some() {
                    prev = Some(row.len());
                }
                row.push(v);
            }
            rows.push(arity_checked(schema.arity(), row)?);
        }
        Ok(Feed {
            schema,
            rows: rows.into(),
        })
    }

    /// `base` with the components of dotted text `s` appended.
    fn reference_extended(base: &Dewey, s: &str) -> Option<Dewey> {
        if s.is_empty() {
            return Some(base.clone());
        }
        let mut path = Vec::with_capacity(base.depth() + s.split('.').count());
        path.extend_from_slice(base.as_slice());
        for part in s.split('.') {
            path.push(part.parse().ok()?);
        }
        Some(Dewey::from(path))
    }

    fn reference_decode_value(cell: &str, prev: Option<&Dewey>) -> Result<Value> {
        let mut chars = cell.chars();
        match chars.next() {
            Some('N') => Ok(Value::Null),
            Some('I') => chars
                .as_str()
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| Error::decode(format!("bad int {cell:?}"))),
            Some('*') => {
                let base = prev.ok_or_else(|| {
                    Error::decode(format!("relative dewey {cell:?} with no predecessor"))
                })?;
                reference_extended(base, chars.as_str())
                    .map(Value::Dewey)
                    .ok_or_else(|| Error::decode(format!("bad dewey suffix {cell:?}")))
            }
            Some('D') => reference_extended(&Dewey::root(), chars.as_str())
                .map(Value::Dewey)
                .ok_or_else(|| Error::decode(format!("bad dewey {cell:?}"))),
            Some('S') => {
                let raw = chars.as_str();
                if !raw.contains('\\') {
                    return Ok(Value::Str(raw.into()));
                }
                let mut s = String::with_capacity(raw.len());
                let mut it = raw.chars();
                while let Some(c) = it.next() {
                    if c == '\\' {
                        match it.next() {
                            Some('t') => s.push('\t'),
                            Some('n') => s.push('\n'),
                            Some('\\') => s.push('\\'),
                            other => return Err(Error::decode(format!("bad escape \\{other:?}"))),
                        }
                    } else {
                        s.push(c);
                    }
                }
                Ok(Value::Str(s.into()))
            }
            _ => Err(Error::decode(format!("bad cell {cell:?}"))),
        }
    }

    /// What `Feed::from_wire` must answer on `text`: the reference's
    /// answer, but for the zero-arity fix. On a zero-arity feed an empty
    /// line is an empty row, where the reference read one empty cell.
    fn expected(text: &str) -> Result<Feed> {
        let (schema, rows_text) = decode_header(verified_body(text, false)?)?;
        let lines = rows_text.into_iter().flat_map(|rows| rows.split('\n'));
        if schema.arity() > 0 {
            return reference_rows(schema, lines);
        }
        let lines: Vec<&str> = lines.collect();
        if lines.iter().all(|line| line.is_empty()) {
            let rows = vec![Vec::new(); lines.len()];
            return Ok(Feed {
                schema,
                rows: rows.into(),
            });
        }
        // Any other line fails against arity 0, and the first such
        // line's error is the answer.
        reference_rows(schema, lines.into_iter().filter(|line| !line.is_empty()))
    }

    /// A cell drawn as (kind, int, components, text) becomes a value:
    /// null, an `i64` (edges likely), an id, an id extending the row's
    /// last one (a `*` cell on the wire), or a string with escapes.
    type CellDraw = (u8, i64, Vec<u32>, Vec<char>);

    fn cell_strategy() -> impl Strategy<Value = CellDraw> {
        let component = prop::sample::select(vec![0, 1, 2, 9, 10, 99, 1000, u32::MAX]);
        let text = prop::sample::select(vec![
            'a', 'Z', '0', '.', '*', '#', '\t', '\n', '\\', '\r', 't', 'n', 'é', '√', ' ',
        ]);
        (
            0u8..6,
            any::<i64>(),
            proptest::collection::vec(component, 0..=12),
            proptest::collection::vec(text, 0..10),
        )
    }

    fn build_feed(roles: Vec<u8>, rows: Vec<Vec<CellDraw>>) -> Feed {
        let columns = roles
            .iter()
            .enumerate()
            .map(|(i, role)| {
                let role = [ColRole::NodeId, ColRole::ParentRef, ColRole::Value][*role as usize];
                FeedColumn::new(format!("c{i}"), role)
            })
            .collect();
        let mut feed = Feed::new(FeedSchema::new("r", columns));
        for draws in rows {
            let mut row = Vec::new();
            let mut last: Option<Dewey> = None;
            for (kind, int, path, text) in draws.into_iter().take(roles.len()) {
                let v = match kind {
                    0 => Value::Null,
                    1 => Value::Int([i64::MIN, i64::MAX, 0, -1, int][int.rem_euclid(5) as usize]),
                    2 => Value::Dewey(Dewey::from(path)),
                    3 => {
                        let mut id = last.clone().unwrap_or_default();
                        path.into_iter().for_each(|c| id.push(c));
                        Value::Dewey(id)
                    }
                    _ => Value::Str(text.into_iter().collect::<String>().into()),
                };
                if let Value::Dewey(d) = &v {
                    last = Some(d.clone());
                }
                row.push(v);
            }
            row.resize(roles.len(), Value::Null);
            feed.push_row(row).unwrap();
        }
        feed
    }

    /// Applies `edits` to the row lines of `body` — (position, op, char):
    /// replace, insert or delete a char, chars drawn from the wire's own
    /// alphabet — and appends a recomputed `#sum` line, so every edit
    /// reaches the row decoder instead of failing the checksum.
    fn mutated(body: &str, edits: &[(usize, u8, char)]) -> String {
        let mut chars: Vec<char> = body.chars().collect();
        // Past the `#feed` and `#cols` lines, which both decoders share.
        let rows_start = chars
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == '\n')
            .nth(1)
            .map_or(chars.len(), |(i, _)| i + 1);
        for &(pos, op, c) in edits {
            let at = rows_start + pos % (chars.len() - rows_start + 1);
            match op {
                0 if at < chars.len() => chars[at] = c,
                1 if at < chars.len() => {
                    chars.remove(at);
                }
                _ => chars.insert(at, c),
            }
        }
        let mut body: String = chars.into_iter().collect();
        if !body.ends_with('\n') {
            body.push('\n');
        }
        let sum = word_sum(body.as_bytes());
        body + &format!("#sum\t{sum:016x}\n")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The one-scan decoder answers what the split-and-dispatch one
        /// did — the same feed or the same error — on feeds of any depth,
        /// escapes and `i64` edges, and on those feeds' bodies edited
        /// into malformed ones.
        #[test]
        fn decoder_agrees_with_the_reference(
            roles in proptest::collection::vec(0u8..3, 0..=5),
            rows in proptest::collection::vec(proptest::collection::vec(cell_strategy(), 5), 0..8),
            edits in proptest::collection::vec(
                proptest::collection::vec(
                    (
                        any::<usize>(),
                        0u8..3,
                        prop::sample::select(vec![
                            '0', '1', '9', '.', '+', '-', '*', 'D', 'I', 'S', 'N', '\t',
                            '\n', '\\', 't', 'n', 'x', 'é',
                        ]),
                    ),
                    1..4,
                ),
                8,
            ),
        ) {
            let feed = build_feed(roles, rows);
            let wire = feed.to_wire();
            prop_assert_eq!(Feed::from_wire(&wire), Ok(feed));
            prop_assert_eq!(Feed::from_wire(&wire), expected(&wire));
            let body = verified_body(&wire, false).unwrap();
            for edit in &edits {
                let text = mutated(body, edit);
                prop_assert_eq!(Feed::from_wire(&text), expected(&text), "on {:?}", text);
            }
        }
    }
}
