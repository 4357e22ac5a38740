//! XML publishing: combining stored fragments into a single sorted feed
//! and *tagging* it into a document (paper Section 5.1, following the
//! optimized-publishing approach of Fernández-Morishima-Suciu \[6\]).
//!
//! Publishing is the first half of publish&map. We reuse the exchange
//! machinery: publishing *is* a data transfer whose target fragmentation is
//! the whole document, executed entirely at the source — the paper makes
//! the same observation ("a data transfer program can express ...
//! publishing data into XML documents").

use crate::error::{Error, Result};
use crate::exec::{ExecOutcome, NodeLoop};
use crate::fragment::Fragmentation;
use crate::gen::Generator;
use crate::program::{Location, Op};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use xdx_relational::{ColRole, Database, Dewey, Feed};
use xdx_xml::{NodeId, SchemaTree, Writer};

/// Result of publishing.
#[derive(Debug)]
pub struct Published {
    /// The serialized document.
    pub xml: String,
    /// Time spent executing combine queries (publish&map Step 1).
    pub query_time: Duration,
    /// Time spent tagging (publish&map Step 2).
    pub tagging_time: Duration,
}

/// How the source assembles the document — the "large spectrum of
/// queries that can be used for publishing" of \[6\] (paper Section 5.1),
/// reduced to its two endpoints plus a cost-based pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PublishPlan {
    /// One fully-combined feed, then tag — "the other extreme alternative
    /// is to create the document through a single complex SQL query".
    SingleQuery,
    /// Ship every stored fragment feed straight to the tagger — "one may
    /// simply write a SQL query to obtain a sorted feed for each element
    /// ... these fragments are then merged and tagged".
    OuterUnion,
    /// Estimate both and run the cheaper one — the paper "picked the set
    /// of queries that minimize the overall processing and communication
    /// times for publishing".
    #[default]
    CostBased,
}

/// Publishes the full document from `db`, whose tables store `frag`,
/// using the default cost-based plan.
pub fn publish(schema: &SchemaTree, frag: &Fragmentation, db: &mut Database) -> Result<Published> {
    publish_with_plan(schema, frag, db, PublishPlan::CostBased)
}

/// Publishes with an explicit [`PublishPlan`].
pub fn publish_with_plan(
    schema: &SchemaTree,
    frag: &Fragmentation,
    db: &mut Database,
    plan: PublishPlan,
) -> Result<Published> {
    let plan = match plan {
        PublishPlan::CostBased => {
            // Cell-based estimate mirroring the exchange cost model:
            // combining pays ~4× per cell on progressively growing
            // intermediates; the tagger pays a hash insert per cell of the
            // raw feeds. With more than one fragment the outer union wins
            // unless fragments are so few that combine volume stays flat.
            if frag.len() > 1 {
                PublishPlan::OuterUnion
            } else {
                PublishPlan::SingleQuery
            }
        }
        explicit => explicit,
    };
    match plan {
        PublishPlan::SingleQuery | PublishPlan::CostBased => publish_single_query(schema, frag, db),
        PublishPlan::OuterUnion => publish_outer_union(schema, frag, db),
    }
}

/// Outer-union publishing: scan the stored feeds, tag them directly.
fn publish_outer_union(
    schema: &SchemaTree,
    frag: &Fragmentation,
    db: &mut Database,
) -> Result<Published> {
    let start = Instant::now();
    let mut feeds = Vec::with_capacity(frag.len());
    for f in &frag.fragments {
        feeds.push(db.scan(&f.name)?);
    }
    let query_time = start.elapsed();
    let start = Instant::now();
    let xml = tag_feeds(schema, &feeds)?;
    let tagging_time = start.elapsed();
    Ok(Published {
        xml,
        query_time,
        tagging_time,
    })
}

/// Single-query publishing: combine everything, then tag one feed.
fn publish_single_query(
    schema: &SchemaTree,
    frag: &Fragmentation,
    db: &mut Database,
) -> Result<Published> {
    let whole = Fragmentation::whole_document("whole", schema);
    let gen = Generator::new(schema, frag, &whole);
    // Publishing is a transfer executed entirely at the source.
    let mut program = gen.canonical()?;
    for node in &mut program.nodes {
        node.location = Location::Source;
    }
    if program.nodes.iter().any(|n| n.op == Op::Split) {
        return Err(Error::InvalidProgram {
            detail: "publishing should never split".into(),
        });
    }

    let start = Instant::now();
    let mut final_feed: Option<Feed> = None;
    let mut all = 0..program.nodes.len();
    let mut ops = NodeLoop::new(schema, frag, &program, Some(&*db), None, all.clone());
    let mut unreported = ExecOutcome::default();
    let ran = all.try_for_each(|i| {
        ops.run(i, &mut unreported, &mut |_, feed| {
            final_feed = Some(feed);
            Ok(())
        })
    });
    let work = ops.source_work;
    db.counters.merge(&work);
    ran?;
    let feed = final_feed.ok_or_else(|| Error::InvalidProgram {
        detail: "no final feed".into(),
    })?;
    let query_time = start.elapsed();

    let start = Instant::now();
    let xml = tag(schema, &feed)?;
    let tagging_time = start.elapsed();
    Ok(Published {
        xml,
        query_time,
        tagging_time,
    })
}

/// Incremental document assembler over one or more sorted feeds.
///
/// Instances are created in a first pass (any feed order), then attached
/// to their parents and serialized in a second — so the tagger accepts
/// either a single fully-combined feed (the classic merge-and-tag of
/// single-query publishing) or the raw per-fragment feeds (outer-union
/// publishing, where the tagger itself is the only "join").
pub struct Tagger<'a> {
    schema: &'a SchemaTree,
    arena: Vec<Inst>,
    index: HashMap<(NodeId, Dewey), usize>,
    /// (instance, parent element, parent instance dewey) pending
    /// attachment in `finish`.
    pending: Vec<(usize, NodeId, Dewey)>,
    size_hint: usize,
}

struct Inst {
    elem: NodeId,
    dewey: Dewey,
    text: Option<String>,
    children: Vec<usize>,
}

impl<'a> Tagger<'a> {
    /// An empty tagger.
    pub fn new(schema: &'a SchemaTree) -> Tagger<'a> {
        Tagger {
            schema,
            arena: Vec::new(),
            index: HashMap::new(),
            pending: Vec::new(),
            size_hint: 0,
        }
    }

    /// Ingests one feed: creates the element instances its rows describe.
    pub fn add_feed(&mut self, feed: &Feed) -> Result<()> {
        self.size_hint += feed.wire_size() as usize;
        // Map feed columns to schema elements once, in schema pre-order so
        // parents within a row are met first.
        struct ElemCols {
            elem: NodeId,
            id_col: usize,
            val_col: Option<usize>,
        }
        let mut elem_cols: Vec<ElemCols> = Vec::new();
        for (ci, col) in feed.schema.columns.iter().enumerate() {
            if col.role == ColRole::NodeId {
                let elem = self.schema.by_name(&col.element).ok_or_else(|| {
                    Error::Xml(format!("feed column {} not in schema", col.element))
                })?;
                let val_col = feed.schema.col(&col.element, ColRole::Value);
                elem_cols.push(ElemCols {
                    elem,
                    id_col: ci,
                    val_col,
                });
            }
        }
        let preorder: HashMap<NodeId, usize> = self
            .schema
            .subtree(self.schema.root())
            .into_iter()
            .enumerate()
            .map(|(i, e)| (e, i))
            .collect();
        elem_cols.sort_by_key(|c| preorder[&c.elem]);
        let parent_ref_col = feed.schema.parent_ref_col();
        let root_elem = self.schema.by_name(&feed.schema.root_element);

        for row in &feed.rows {
            for ec in &elem_cols {
                let Some(dewey) = row[ec.id_col].as_dewey() else {
                    continue;
                };
                let key = (ec.elem, dewey.clone());
                if let Some(&existing) = self.index.get(&key) {
                    // Outer-union alignment may deliver an instance's text
                    // on a different row than the one introducing its id.
                    if self.arena[existing].text.is_none() {
                        if let Some(vc) = ec.val_col {
                            if let Some(t) = row[vc].as_str() {
                                self.arena[existing].text = Some(t.to_string());
                            }
                        }
                    }
                    continue;
                }
                let idx = self.arena.len();
                self.arena.push(Inst {
                    elem: ec.elem,
                    dewey: dewey.clone(),
                    text: ec
                        .val_col
                        .and_then(|vc| row[vc].as_str().map(str::to_string)),
                    children: Vec::new(),
                });
                self.index.insert(key, idx);
                if let Some(parent_elem) = self.schema.node(ec.elem).parent {
                    // Parent instance id: the same row's column for the
                    // parent element, or — for the fragment root — the
                    // feed's PARENT reference.
                    let same_row = elem_cols
                        .iter()
                        .find(|c| c.elem == parent_elem)
                        .and_then(|pc| row[pc.id_col].as_dewey());
                    let via_parent_ref = (Some(ec.elem) == root_elem)
                        .then(|| parent_ref_col.and_then(|c| row[c].as_dewey()))
                        .flatten();
                    if let Some(pd) = same_row.or(via_parent_ref) {
                        self.pending.push((idx, parent_elem, pd.clone()));
                    }
                }
            }
        }
        Ok(())
    }

    /// Attaches every instance to its parent and serializes the document.
    pub fn finish(mut self) -> Result<String> {
        let mut roots: Vec<usize> = Vec::new();
        let mut attached = vec![false; self.arena.len()];
        for (idx, parent_elem, parent_dewey) in std::mem::take(&mut self.pending) {
            // A missing parent means the instance sits at the edge of the
            // tagged region and stays a root.
            if let Some(&pi) = self.index.get(&(parent_elem, parent_dewey)) {
                self.arena[pi].children.push(idx);
                attached[idx] = true;
            }
        }
        for (idx, inst) in self.arena.iter().enumerate() {
            let is_schema_root = self.schema.node(inst.elem).parent.is_none();
            if is_schema_root || !attached[idx] {
                roots.push(idx);
            }
        }

        let mut writer = Writer::with_capacity(self.size_hint + 1024);
        writer.xml_decl();
        fn emit(arena: &[Inst], schema: &SchemaTree, w: &mut Writer, idx: usize) {
            let inst = &arena[idx];
            w.start(schema.name(inst.elem));
            if let Some(t) = &inst.text {
                w.text(t);
            }
            let mut children = inst.children.clone();
            children.sort_by(|&a, &b| arena[a].dewey.cmp(&arena[b].dewey));
            for c in children {
                emit(arena, schema, w, c);
            }
            w.end();
        }
        roots.sort_by(|&a, &b| self.arena[a].dewey.cmp(&self.arena[b].dewey));
        for r in roots {
            emit(&self.arena, self.schema, &mut writer, r);
        }
        Ok(writer.finish())
    }
}

/// Tags a (fully combined) sorted feed into an XML document — the "merge
/// and tag" step of [5, 6] adapted to combination rows.
pub fn tag(schema: &SchemaTree, feed: &Feed) -> Result<String> {
    tag_feeds(schema, std::slice::from_ref(feed))
}

/// Tags a set of fragment feeds directly — outer-union publishing, where
/// no relational combine runs at all and the tagger's hash index performs
/// the only assembly work.
pub fn tag_feeds(schema: &SchemaTree, feeds: &[Feed]) -> Result<String> {
    let mut tagger = Tagger::new(schema);
    for feed in feeds {
        tagger.add_feed(feed)?;
    }
    tagger.finish()
}
