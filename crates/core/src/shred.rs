//! Shredding: parsing an XML document into fragment feeds (paper §5.1).
//!
//! The paper "implemented the SAX C API for expat" and "used a stack to
//! maintain paths when parsing and discarded the content of the stack as
//! soon as tuples were flushed". This module is the same design over our
//! own SAX driver, and the stack is the only walk: an element's rows are
//! settled when its end tag arrives, after its children's, so a document
//! as deep as the parser accepts shreds without recursion (DESIGN §26).
//!
//! * One slot per schema element, indexed by `NodeId`, says where its
//!   cells go: its fragment, its id and value columns there, and whether
//!   it roots the fragment. No cell looks up a column by hash.
//! * A closed element whose subtree makes one row keeps that row as
//!   loose cells on a reused stack; several rows are allocated once, at
//!   their fragment's arity, and move upward as their ancestors close.
//!   Each ancestor writes its cells into them; a string cell is allocated
//!   once per row it lands in.
//! * Text accumulates in one reused buffer: everything after an open
//!   element's offset is its text while it is the innermost element.
//! * When a fragment root closes, its rows get the `PARENT` reference and
//!   join the fragment's feed, and the stacks drop back to where the
//!   instance began.
//!
//! A document must nest its elements as the schema does: an element
//! under a parent the schema does not give it is refused.

use crate::error::{Error, Result};
use crate::fragment::Fragmentation;
use std::mem;
use xdx_relational::feed::ColRole;
use xdx_relational::{Dewey, Feed, FeedSchema, Value};
use xdx_xml::event::Attribute;
use xdx_xml::sax::{self, Handler};
use xdx_xml::{NodeId, SchemaTree};

/// Where one schema element's cells go.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    frag: usize,
    id_col: usize,
    /// `None` for an element without text.
    val_col: Option<usize>,
    /// The element roots its fragment: its instance flushes when it closes.
    root: bool,
}

/// An element between its start and end tags.
struct Open {
    elem: NodeId,
    slot: Slot,
    dewey: Dewey,
    children: u32,
    /// Its text is `text[text_at..]` while it is the innermost open
    /// element: a closed child's text is cut off again.
    text_at: usize,
    /// Where its closed children's results begin on the three stacks.
    cells_at: usize,
    rows_at: usize,
    kids_at: usize,
}

/// The rows a closed element's subtree makes, waiting for its parent to
/// close: one row still as loose cells (`cells[at..at + len]`), or
/// several rows already allocated (`rows[at..at + len]`).
#[derive(Debug, Clone, Copy)]
struct Kid {
    elem: NodeId,
    one_row: bool,
    at: usize,
    len: usize,
}

/// One fragment's feed under construction.
struct Out {
    schema: FeedSchema,
    parent_col: usize,
    rows: Vec<Vec<Value>>,
}

struct Shredder<'a> {
    schema: &'a SchemaTree,
    slots: Vec<Slot>,
    out: Vec<Out>,
    stack: Vec<Open>,
    text: String,
    /// Closed elements' results waiting for their parents: the loose
    /// cells `(column, value)` of one-row results, the allocated rows of
    /// several-row ones, and which element each result belongs to.
    cells: Vec<(usize, Value)>,
    rows: Vec<Vec<Value>>,
    kids: Vec<Kid>,
    /// Scratch of `expand`, kept for its capacity.
    order: Vec<(usize, usize)>,
    acc: Vec<std::ops::Range<usize>>,
    skeleton: Vec<usize>,
    rows_emitted: u64,
}

impl<'a> Shredder<'a> {
    fn new(schema: &'a SchemaTree, frag: &'a Fragmentation) -> Shredder<'a> {
        let mut slots = vec![Slot::default(); schema.len()];
        let mut out = Vec::with_capacity(frag.len());
        for (fi, f) in frag.fragments.iter().enumerate() {
            let fs = f.feed_schema(schema);
            for (ci, col) in fs.columns.iter().enumerate() {
                let elem = schema
                    .by_name(&col.element)
                    .expect("fragment schema element");
                let slot = &mut slots[elem.index()];
                match col.role {
                    ColRole::NodeId => {
                        *slot = Slot {
                            frag: fi,
                            id_col: ci,
                            val_col: None,
                            root: elem == f.root,
                        }
                    }
                    ColRole::Value => slot.val_col = Some(ci),
                    ColRole::ParentRef => {}
                }
            }
            out.push(Out {
                parent_col: fs
                    .parent_ref_col()
                    .expect("a fragment feed carries its root's PARENT"),
                schema: fs,
                rows: Vec::new(),
            });
        }
        Shredder {
            schema,
            slots,
            out,
            stack: Vec::new(),
            text: String::new(),
            cells: Vec::new(),
            rows: Vec::new(),
            kids: Vec::new(),
            order: Vec::new(),
            acc: Vec::new(),
            skeleton: Vec::new(),
            rows_emitted: 0,
        }
    }

    /// The element `name` opening inside `parent`, which must be one of
    /// the parent's schema children.
    fn child_named(&self, parent: NodeId, name: &str) -> xdx_xml::Result<NodeId> {
        let kids = &self.schema.node(parent).children;
        let child = kids.iter().find(|&&c| self.schema.name(c) == name);
        child.copied().ok_or_else(|| xdx_xml::Error::Schema {
            detail: format!(
                "element {name} is no schema child of {}",
                self.schema.name(parent)
            ),
        })
    }

    /// Settles the rows of the element that just closed, `open`, whose
    /// own cells are `cells[own_at..]` and whose children's results are
    /// `kids[open.kids_at..]`, applying what a sequence of `Combine`
    /// operations over the fragment's elements would materialise (see
    /// `emit_group` in `xdx-relational`):
    ///
    /// * children are grouped by element, in order of first appearance,
    ///   and each group's rows are its members' rows in document order;
    /// * a group arriving while the element's rows are still one row
    ///   *inlines*: that row's cells repeat on every row of the group;
    /// * a group arriving once they are several is aligned outer-union
    ///   style: its rows carry the identifiers of the first row (the
    ///   skeleton), with no values, and are appended.
    ///
    /// This equivalence is what makes publish&map and the optimized
    /// exchange land identical tables. Returns the element's result.
    fn expand(&mut self, open: &Open, own_at: usize) -> Kid {
        let kids_at = open.kids_at;
        let arity = self.out[open.slot.frag].schema.arity();
        // Children by (group, document order), a group keyed by where its
        // element first appears.
        let mut order = mem::take(&mut self.order);
        order.clear();
        let kids = &self.kids[kids_at..];
        for (i, k) in kids.iter().enumerate() {
            let group = kids[..i].iter().position(|p| p.elem == k.elem).unwrap_or(i);
            order.push((group, i));
        }
        if !order.is_sorted() {
            order.sort_unstable();
        }

        self.acc.clear();
        self.acc.push(own_at..self.cells.len());
        self.skeleton.clear();
        let out_at = self.rows.len();
        let mut first = None;
        for group in order.chunk_by(|a, b| a.0 == b.0) {
            let lead = self.kids[kids_at + group[0].1];
            if first.is_none() && group.len() == 1 && lead.one_row {
                // Inlines into a row that stays one row.
                self.acc.push(lead.at..lead.at + lead.len);
                continue;
            }
            let group_at = self.rows.len();
            for &(_, i) in group {
                let kid = self.kids[kids_at + i];
                if kid.one_row {
                    let row = row_of(arity, &mut self.cells[kid.at..kid.at + kid.len]);
                    self.rows.push(row);
                } else {
                    for r in kid.at..kid.at + kid.len {
                        let row = mem::take(&mut self.rows[r]);
                        self.rows.push(row);
                    }
                }
            }
            match first {
                None => {
                    // Inlines: the one row's cells repeat on every row of
                    // the group, cloned into all but the last, moved into
                    // that one.
                    let last = self.rows.len() - 1;
                    for range in &self.acc {
                        for (c, v) in &mut self.cells[range.clone()] {
                            for row in &mut self.rows[group_at..last] {
                                row[*c] = v.clone();
                            }
                            self.rows[last][*c] = mem::take(v);
                        }
                    }
                    let lead_row = &self.rows[group_at];
                    self.skeleton
                        .extend((0..arity).filter(|&c| matches!(lead_row[c], Value::Dewey(_))));
                    first = Some(group_at);
                }
                Some(first) => {
                    for r in group_at..self.rows.len() {
                        for &c in &self.skeleton {
                            let id = self.rows[first][c].clone();
                            self.rows[r][c] = id;
                        }
                    }
                }
            }
        }
        self.order = order;
        self.kids.truncate(kids_at);
        if first.is_none() {
            // Every group inlined one row: the element's row is every
            // cell on the stack above it.
            return Kid {
                elem: open.elem,
                one_row: true,
                at: open.cells_at,
                len: self.cells.len() - open.cells_at,
            };
        }
        // The children's rows moved up; what they left behind is empty.
        self.rows.drain(open.rows_at..out_at);
        self.cells.truncate(open.cells_at);
        Kid {
            elem: open.elem,
            one_row: false,
            at: open.rows_at,
            len: self.rows.len() - open.rows_at,
        }
    }

    /// Appends the rows of a fragment instance whose root just closed to
    /// its fragment's feed, each with the `PARENT` reference.
    fn flush(&mut self, open: &Open, inst: Kid, parent: Dewey) {
        let out = &mut self.out[open.slot.frag];
        let arity = out.schema.arity();
        if inst.one_row {
            let mut row = row_of(arity, &mut self.cells[inst.at..inst.at + inst.len]);
            row[out.parent_col] = Value::Dewey(parent);
            out.rows.push(row);
        } else {
            out.rows.extend(self.rows.drain(inst.at..).map(|mut row| {
                row[out.parent_col] = Value::Dewey(parent.clone());
                row
            }));
        }
        self.rows_emitted += if inst.one_row { 1 } else { inst.len as u64 };
        self.cells.truncate(open.cells_at);
        self.rows.truncate(open.rows_at);
    }
}

/// A row of `arity` holding `cells`, moved out of the stack.
fn row_of(arity: usize, cells: &mut [(usize, Value)]) -> Vec<Value> {
    let mut row = vec![Value::Null; arity];
    for (c, v) in cells {
        row[*c] = mem::take(v);
    }
    row
}

impl Handler for Shredder<'_> {
    fn start_element(&mut self, name: &str, _attributes: &[Attribute]) -> xdx_xml::Result<()> {
        let (elem, dewey) = match self.stack.last_mut() {
            Some(parent) => {
                parent.children += 1;
                let dewey = parent.dewey.child(parent.children);
                let parent = parent.elem;
                (self.child_named(parent, name)?, dewey)
            }
            None => {
                let elem = self
                    .schema
                    .by_name(name)
                    .filter(|e| self.slots[e.index()].root)
                    .ok_or_else(|| xdx_xml::Error::Schema {
                        detail: format!("document element {name} roots no fragment"),
                    })?;
                (elem, Dewey::root())
            }
        };
        self.stack.push(Open {
            elem,
            slot: self.slots[elem.index()],
            dewey,
            children: 0,
            text_at: self.text.len(),
            cells_at: self.cells.len(),
            rows_at: self.rows.len(),
            kids_at: self.kids.len(),
        });
        Ok(())
    }

    fn end_element(&mut self, _name: &str) -> xdx_xml::Result<()> {
        let mut open = self.stack.pop().expect("parser guarantees balance");
        let own_at = self.cells.len();
        let id = mem::take(&mut open.dewey);
        let parent = open.slot.root.then(|| match self.stack.last() {
            Some(p) => p.dewey.clone(),
            None => Dewey::root(),
        });
        self.cells.push((open.slot.id_col, Value::Dewey(id)));
        if let Some(vc) = open.slot.val_col {
            let text = self.text[open.text_at..].trim();
            if !text.is_empty() {
                self.cells.push((vc, Value::Str(text.into())));
            }
            self.text.truncate(open.text_at);
        }
        let result = self.expand(&open, own_at);
        match parent {
            Some(parent) => self.flush(&open, result, parent),
            None => self.kids.push(result),
        }
        Ok(())
    }

    fn characters(&mut self, text: &str) -> xdx_xml::Result<()> {
        if let Some(top) = self.stack.last() {
            if top.slot.val_col.is_some() {
                self.text.push_str(text);
            }
        }
        Ok(())
    }
}

/// Result of shredding a document.
#[derive(Debug)]
pub struct Shredded {
    /// One feed per fragment of the target fragmentation, by fragment
    /// order.
    pub feeds: Vec<Feed>,
    /// Total rows produced.
    pub rows: u64,
    /// Elements parsed.
    pub elements: u64,
}

/// Parses `xml` and shreds it into feeds for `frag` (publish&map Step 4).
pub fn shred(xml: &str, schema: &SchemaTree, frag: &Fragmentation) -> Result<Shredded> {
    let mut shredder = Shredder::new(schema, frag);
    let elements = sax::drive(xml, &mut shredder).map_err(|e| Error::Xml(e.to_string()))?;
    Ok(Shredded {
        rows: shredder.rows_emitted,
        feeds: shredder
            .out
            .into_iter()
            .map(|out| Feed {
                schema: out.schema,
                rows: out.rows.into(),
            })
            .collect(),
        elements,
    })
}
