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
use std::time::{Duration, Instant};
use xdx_relational::feed::{ReadRows, Row};
use xdx_relational::{ColRole, Database, Dewey, Feed, FeedSchema};
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
            // intermediates; the tagger pays one sort entry per id cell
            // of the raw feeds, each feed an already sorted run. With more
            // than one fragment the outer union wins unless fragments are
            // so few that combine volume stays flat.
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

/// Document assembler over one or more feeds: the merge-and-tag step of
/// \[6\] with a sort in place of the merge.
///
/// [`add_feed`](Tagger::add_feed) collects one entry per (row, id column)
/// in any feed order: the instance's Dewey and element, its text as the
/// row carries it and its parent instance's Dewey, the last two borrowed
/// from the feed. [`finish`](Tagger::finish) sorts the entries stably by (Dewey,
/// element), which puts every parent before its subtree and merges the
/// feeds' already sorted runs, keeps the first non-NULL text among equal
/// keys (outer-union alignment may carry an instance's text on a later
/// row than the one introducing its id), and writes the document in one
/// pass with a stack of open instances. So the tagger accepts a single
/// fully combined feed (single-query publishing) and the raw
/// per-fragment feeds (outer-union publishing, where the tagger itself
/// is the only "join") alike.
///
/// An instance whose parent instance is not open when its turn comes —
/// its parent's feed was left out, or its ids contradict its parent's —
/// is refused with an error naming it, as is a second document root:
/// either would publish several top-level elements.
pub struct Tagger<'a> {
    schema: &'a SchemaTree,
    entries: Vec<Entry<'a>>,
    size_hint: usize,
}

/// One (row, id column) of a feed. The Dewey is a copy, held in place
/// for the sort to compare without reaching into the rows.
struct Entry<'a> {
    dewey: Dewey,
    elem: NodeId,
    text: Option<&'a str>,
    /// The parent instance's Dewey: the same row's id of the parent
    /// element or, for the feed's root element, its `PARENT` reference.
    parent: Option<&'a Dewey>,
}

/// [`Tagger::add_feed`]'s pass over the rows of a feed of schema `.1`:
/// the instances each row holds, one per id column.
struct Tag<'t, 'a>(&'t mut Tagger<'a>, &'t FeedSchema);

impl<'a> ReadRows<'a> for Tag<'_, 'a> {
    type Out = Result<()>;
    fn read<R: Row<'a>>(self, len: usize, row: impl Fn(usize) -> R) -> Result<()> {
        struct Col {
            elem: NodeId,
            id: usize,
            val: Option<usize>,
            parent: Option<usize>,
            parent_ref: Option<usize>,
            /// Bytes of its start and end tags.
            tags: usize,
        }
        let Tag(tagger, fs) = self;
        let mut cols = Vec::new();
        for (id, col) in fs.columns.iter().enumerate() {
            if col.role != ColRole::NodeId {
                continue;
            }
            let elem = tagger
                .schema
                .by_name(&col.element)
                .ok_or_else(|| Error::Xml(format!("feed column {} not in schema", col.element)))?;
            let parent = tagger.schema.node(elem).parent;
            cols.push(Col {
                elem,
                id,
                val: fs.col(&col.element, ColRole::Value),
                parent: parent.and_then(|p| fs.col(tagger.schema.name(p), ColRole::NodeId)),
                parent_ref: fs
                    .parent_ref_col()
                    .filter(|_| parent.is_some() && col.element == fs.root_element),
                tags: 2 * col.element.len() + 5,
            });
        }
        tagger.entries.reserve(len);
        for row in (0..len).map(row) {
            for col in &cols {
                let Some(dewey) = row.cell(col.id).as_dewey() else {
                    continue;
                };
                let text = col.val.and_then(|v| row.cell(v).as_str());
                let parent = col.parent.and_then(|c| row.cell(c).as_dewey());
                let parent = parent.or_else(|| col.parent_ref.and_then(|c| row.cell(c).as_dewey()));
                tagger.size_hint += col.tags + text.map_or(0, str::len);
                tagger.entries.push(Entry {
                    dewey: dewey.clone(),
                    elem: col.elem,
                    text,
                    parent,
                });
            }
        }
        Ok(())
    }
}

impl<'a> Tagger<'a> {
    /// An empty tagger.
    pub fn new(schema: &'a SchemaTree) -> Tagger<'a> {
        Tagger {
            schema,
            entries: Vec::new(),
            size_hint: 0,
        }
    }

    /// Collects the element instances `feed`'s rows describe.
    pub fn add_feed(&mut self, feed: &'a Feed) -> Result<()> {
        feed.rows.slice(..).read(Tag(self, &feed.schema))
    }

    /// Sorts the collected instances into document order and serializes
    /// them.
    pub fn finish(mut self) -> Result<String> {
        self.entries
            .sort_by(|a, b| a.dewey.cmp(&b.dewey).then(a.elem.cmp(&b.elem)));
        let schema = self.schema;
        let mut writer = Writer::with_capacity(self.size_hint + 1024);
        writer.xml_decl();
        let mut open: Vec<(NodeId, &Dewey)> = Vec::new();
        let mut rooted = false;
        let mut rest = &self.entries[..];
        while let Some(first) = rest.first() {
            let same = rest
                .iter()
                .take_while(|e| e.dewey == first.dewey && e.elem == first.elem)
                .count();
            let text = rest[..same].iter().find_map(|e| e.text);
            rest = &rest[same..];
            let refused = |why: &str| {
                let name = schema.name(first.elem);
                Error::Xml(format!("{name} at {:?}: {why}", first.dewey.as_slice()))
            };
            match schema.node(first.elem).parent {
                None => {
                    if rooted {
                        return Err(refused("a second document root"));
                    }
                    rooted = true;
                }
                Some(parent) => {
                    let Some(at) = first.parent else {
                        return Err(refused("its row names no parent instance"));
                    };
                    loop {
                        match open.last() {
                            Some(&(e, d)) if e == parent && d == at => break,
                            Some(_) => {
                                open.pop();
                                writer.end();
                            }
                            None => {
                                return Err(refused(&format!(
                                    "no parent instance {} at {:?}",
                                    schema.name(parent),
                                    at.as_slice()
                                )))
                            }
                        }
                    }
                }
            }
            writer.start(schema.name(first.elem));
            if let Some(t) = text {
                writer.text(t);
            }
            open.push((first.elem, &first.dewey));
        }
        for _ in open {
            writer.end();
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
/// no relational combine runs at all and the tagger's sort performs the
/// only assembly work.
pub fn tag_feeds(schema: &SchemaTree, feeds: &[Feed]) -> Result<String> {
    let mut tagger = Tagger::new(schema);
    for feed in feeds {
        tagger.add_feed(feed)?;
    }
    tagger.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::testutil::customer_schema;
    use crate::shred::shred;

    const DOC: &str = "<Customer><CustName>ACME</CustName>\
        <Order><Service><ServiceName>local</ServiceName>\
        <Line><TelNo>555-0101</TelNo><Switch><SwitchID>s1</SwitchID></Switch>\
        <Feature><FeatureID>f1</FeatureID></Feature></Line></Service></Order>\
        <Order><Service><ServiceName>long</ServiceName></Service></Order></Customer>";

    #[test]
    fn tagging_inverts_shredding_in_any_feed_order() {
        let schema = customer_schema();
        let mf = Fragmentation::most_fragmented("MF", &schema);
        let mut feeds = shred(DOC, &schema, &mf).unwrap().feeds;
        let published = tag_feeds(&schema, &feeds).unwrap();
        assert_eq!(published.split_once("?>").unwrap().1, DOC);
        feeds.reverse();
        assert_eq!(tag_feeds(&schema, &feeds).unwrap(), published);
    }

    #[test]
    fn an_instance_whose_parent_instance_is_absent_is_refused() {
        let schema = customer_schema();
        let mf = Fragmentation::most_fragmented("MF", &schema);
        let feeds = shred(DOC, &schema, &mf).unwrap().feeds;
        // Without the root fragment's feed, both orders and the name lose
        // their parent: a document of three top-level elements.
        let orphans = &feeds[1..];
        assert_eq!(
            tag_feeds(&schema, orphans).unwrap_err(),
            Error::Xml("CustName at [1]: no parent instance Customer at []".into())
        );
        // Without the services, each service name loses its parent.
        let service = mf.fragments.iter().position(|f| f.name == "SERVICE");
        let mut feeds = feeds;
        feeds.remove(service.unwrap());
        assert_eq!(
            tag_feeds(&schema, &feeds).unwrap_err(),
            Error::Xml("ServiceName at [2, 1, 1]: no parent instance Service at [2, 1]".into())
        );
    }
}
