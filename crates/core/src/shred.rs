//! Shredding: parsing an XML document into fragment feeds (paper §5.1).
//!
//! The paper "implemented the SAX C API for expat" and "used a stack to
//! maintain paths when parsing and discarded the content of the stack as
//! soon as tuples were flushed". This module is the same design over our
//! own SAX driver: a stack of open elements carrying Dewey positions; each
//! fragment-root element accumulates a small instance tree that is
//! expanded into feed rows and flushed the moment the element closes.

use crate::error::{Error, Result};
use crate::fragment::Fragmentation;
use std::collections::HashMap;
use xdx_relational::feed::ColRole;
use xdx_relational::{Dewey, Feed, FeedSchema, Value};
use xdx_xml::event::Attribute;
use xdx_xml::sax::{self, Handler};
use xdx_xml::{NodeId, SchemaTree};

/// A node of the in-flight instance tree of one open fragment instance.
#[derive(Debug)]
struct InstNode {
    elem: NodeId,
    dewey: Dewey,
    text: String,
    children: Vec<InstNode>,
}

struct OpenElem {
    elem: NodeId,
    dewey: Dewey,
    child_count: u32,
    /// Instance node being built (taken on close). `None` only while the
    /// node is parked in this slot pending children.
    inst: Option<InstNode>,
    is_fragment_root: bool,
}

struct Shredder<'a> {
    schema: &'a SchemaTree,
    frag: &'a Fragmentation,
    stack: Vec<OpenElem>,
    /// Per fragment: its feed's schema, and the rows shredded so far
    /// (wrapped into the feed once, when the document ends).
    schemas: Vec<FeedSchema>,
    rows: Vec<Vec<Vec<Value>>>,
    /// Per fragment: (element, role) → column index, precomputed.
    columns: Vec<HashMap<(NodeId, ColRole), usize>>,
    rows_emitted: u64,
}

impl<'a> Shredder<'a> {
    fn new(schema: &'a SchemaTree, frag: &'a Fragmentation) -> Shredder<'a> {
        let mut schemas = Vec::with_capacity(frag.len());
        let mut columns = Vec::with_capacity(frag.len());
        for f in &frag.fragments {
            let fs = f.feed_schema(schema);
            let mut map = HashMap::new();
            for (ci, col) in fs.columns.iter().enumerate() {
                let elem = schema
                    .by_name(&col.element)
                    .expect("fragment schema element");
                map.insert((elem, col.role), ci);
            }
            columns.push(map);
            schemas.push(fs);
        }
        Shredder {
            schema,
            frag,
            stack: Vec::new(),
            rows: vec![Vec::new(); schemas.len()],
            schemas,
            columns,
            rows_emitted: 0,
        }
    }

    /// Expands a finished fragment-instance tree into combination rows and
    /// appends them to the fragment's feed.
    fn flush(&mut self, frag_idx: usize, parent_dewey: Dewey, inst: InstNode) -> Result<()> {
        let schema = &self.schemas[frag_idx];
        let arity = schema.arity();
        let cols = &self.columns[frag_idx];
        let value_cols: Vec<usize> = schema
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.role == ColRole::Value)
            .map(|(i, _)| i)
            .collect();
        let mut template: Vec<Value> = vec![Value::Null; arity];
        let parent_col = schema
            .parent_ref_col()
            .ok_or_else(|| Error::Engine("fragment feed lacks PARENT".into()))?;
        template[parent_col] = Value::Dewey(parent_dewey);
        let mut rows = vec![template];
        expand(cols, &value_cols, &inst, &mut rows)?;
        // The PARENT reference survives both attachment modes: the inline
        // path merges the template (which carries it) into every branch
        // row, and the outer-union skeleton only blanks Value columns.
        debug_assert!(rows.iter().all(|r| !r[parent_col].is_null()));
        self.rows_emitted += rows.len() as u64;
        self.rows[frag_idx].extend(rows);
        Ok(())
    }
}

/// Expands `node` into `rows`, mirroring exactly what a sequence of
/// `Combine` operations over the fragment's elements would materialize
/// (see `emit_group` in `xdx-relational`):
///
/// * a child branch expanding a *single-row* accumulator inlines
///   (parent values repeated per child row),
/// * a child branch arriving at an *already expanded* accumulator is
///   aligned outer-union style: existing rows pass through, and the
///   branch's rows ride on a skeleton carrying the parent's identifiers
///   with value columns blanked.
///
/// This equivalence is what makes publish&map and the optimized exchange
/// land identical tables.
fn expand(
    cols: &HashMap<(NodeId, ColRole), usize>,
    value_cols: &[usize],
    node: &InstNode,
    rows: &mut Vec<Vec<Value>>,
) -> Result<()> {
    debug_assert_eq!(rows.len(), 1, "expand starts from a single template row");
    if let Some(&id_col) = cols.get(&(node.elem, ColRole::NodeId)) {
        rows[0][id_col] = Value::Dewey(node.dewey.clone());
    }
    if let Some(&val_col) = cols.get(&(node.elem, ColRole::Value)) {
        let trimmed = node.text.trim();
        if !trimmed.is_empty() {
            rows[0][val_col] = Value::Str(trimmed.to_string());
        }
    }
    // Group children by element, preserving document order inside groups.
    let mut groups: Vec<(NodeId, Vec<&InstNode>)> = Vec::new();
    for child in &node.children {
        match groups.iter_mut().find(|(e, _)| *e == child.elem) {
            Some((_, v)) => v.push(child),
            None => groups.push((child.elem, vec![child])),
        }
    }
    for (_, group) in groups {
        // Build the branch's rows independently, then attach.
        let mut branch_rows: Vec<Vec<Value>> = Vec::new();
        for inst in group {
            let mut sub = vec![vec![Value::Null; rows[0].len()]];
            expand(cols, value_cols, inst, &mut sub)?;
            branch_rows.extend(sub);
        }
        if branch_rows.is_empty() {
            continue;
        }
        let merge = |base: &[Value], branch: &Vec<Value>| -> Vec<Value> {
            base.iter()
                .zip(branch)
                .map(|(b, c)| if c.is_null() { b.clone() } else { c.clone() })
                .collect()
        };
        if rows.len() == 1 {
            // Inline: the single parent row repeats per branch row.
            let base = rows[0].clone();
            *rows = branch_rows.iter().map(|br| merge(&base, br)).collect();
        } else {
            // Outer-union alignment onto an already expanded accumulator.
            let mut skeleton = rows[0].clone();
            for &vc in value_cols {
                skeleton[vc] = Value::Null;
            }
            rows.extend(branch_rows.iter().map(|br| merge(&skeleton, br)));
        }
    }
    Ok(())
}

impl Handler for Shredder<'_> {
    fn start_element(&mut self, name: &str, _attributes: &[Attribute]) -> xdx_xml::Result<()> {
        let elem = self
            .schema
            .by_name(name)
            .ok_or_else(|| xdx_xml::Error::Schema {
                detail: format!("unknown element {name}"),
            })?;
        let dewey = match self.stack.last_mut() {
            Some(parent) => {
                parent.child_count += 1;
                parent.dewey.child(parent.child_count)
            }
            None => Dewey::root(),
        };
        let is_fragment_root = self.frag.fragments[self.frag.fragment_of(elem)].root == elem;
        self.stack.push(OpenElem {
            elem,
            dewey: dewey.clone(),
            child_count: 0,
            inst: Some(InstNode {
                elem,
                dewey,
                text: String::new(),
                children: Vec::new(),
            }),
            is_fragment_root,
        });
        Ok(())
    }

    fn end_element(&mut self, _name: &str) -> xdx_xml::Result<()> {
        let mut closed = self.stack.pop().expect("parser guarantees balance");
        let inst = closed.inst.take().expect("instance present until close");
        if closed.is_fragment_root {
            let frag_idx = self.frag.fragment_of(closed.elem);
            let parent_dewey = self
                .stack
                .last()
                .map(|p| p.dewey.clone())
                .unwrap_or_else(Dewey::root);
            self.flush(frag_idx, parent_dewey, inst)
                .map_err(|e| xdx_xml::Error::Schema {
                    detail: e.to_string(),
                })?;
        } else {
            // Belongs to the same fragment as its parent element: attach.
            let parent = self.stack.last_mut().expect("non-root element has parent");
            parent.inst.as_mut().expect("open").children.push(inst);
        }
        Ok(())
    }

    fn characters(&mut self, text: &str) -> xdx_xml::Result<()> {
        if let Some(top) = self.stack.last_mut() {
            top.inst.as_mut().expect("open").text.push_str(text);
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
    let feeds = shredder.schemas.into_iter().zip(shredder.rows);
    Ok(Shredded {
        rows: shredder.rows_emitted,
        feeds: feeds
            .map(|(schema, rows)| Feed {
                schema,
                rows: rows.into(),
            })
            .collect(),
        elements,
    })
}
