//! Parameterized services: argument-driven subsetting of the exchanged
//! data (paper Section 3.2).
//!
//! "If the Web service takes arguments as input, we assume the source
//! system will filter the data accordingly and provide us with the
//! relevant pieces. For example, CustomerInfoService could take an
//! argument that specifies customers location based on their state."
//!
//! A [`Selection`] names an *anchor* element (the unit being subset — a
//! customer, an item), a predicate leaf inside the anchor's subtree, and a
//! value predicate. The source resolves the predicate once into the set of
//! qualifying anchor-instance ids ([`Selection::qualifying_ids`]); every
//! `Scan` then drops rows whose anchor-subtree cells do not belong to a
//! qualifying instance. Selectivity flows into the cost model ("the
//! selectivity of the combines affects the amount of data being shipped",
//! Section 4.1) via [`SchemaStats::scaled_under`].

use crate::cost::SchemaStats;
use crate::error::{Error, Result};
use crate::fragment::Fragmentation;
use std::collections::BTreeSet;
use xdx_relational::feed::{ReadRows, Row};
use xdx_relational::{ColRole, Database, Dewey, Feed, Value};
use xdx_xml::{NodeId, SchemaTree};

/// A predicate over a leaf value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValuePred {
    /// Exact string equality.
    Equals(String),
    /// Substring containment.
    Contains(String),
    /// Prefix match.
    StartsWith(String),
}

impl ValuePred {
    /// Evaluates the predicate on a cell.
    pub fn matches(&self, v: &Value) -> bool {
        let Some(s) = v.as_str() else { return false };
        match self {
            ValuePred::Equals(x) => s == x,
            ValuePred::Contains(x) => s.contains(x.as_str()),
            ValuePred::StartsWith(x) => s.starts_with(x.as_str()),
        }
    }
}

/// A service argument: subset the document to the anchor instances whose
/// predicate leaf matches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    /// The element whose instances are kept or dropped as units.
    pub anchor: NodeId,
    /// A text leaf inside the anchor's subtree carrying the tested value.
    pub predicate_element: NodeId,
    /// The predicate.
    pub predicate: ValuePred,
}

impl Selection {
    /// Builds a selection by element names.
    pub fn new(
        schema: &SchemaTree,
        anchor: &str,
        predicate_element: &str,
        predicate: ValuePred,
    ) -> Result<Selection> {
        let anchor = schema
            .by_name(anchor)
            .ok_or_else(|| Error::InvalidProgram {
                detail: format!("unknown anchor element {anchor}"),
            })?;
        let pe = schema
            .by_name(predicate_element)
            .ok_or_else(|| Error::InvalidProgram {
                detail: format!("unknown predicate element {predicate_element}"),
            })?;
        if !schema.is_ancestor_or_self(anchor, pe) {
            return Err(Error::InvalidProgram {
                detail: format!(
                    "predicate element {} is not inside the {} subtree",
                    schema.name(pe),
                    schema.name(anchor)
                ),
            });
        }
        Ok(Selection {
            anchor,
            predicate_element: pe,
            predicate,
        })
    }

    /// Resolves the predicate against the source: scans the fragment
    /// storing the predicate leaf and collects the Dewey ids of the
    /// qualifying anchor instances. This is the "source filters the data"
    /// step; it runs once per exchange.
    pub fn qualifying_ids(
        &self,
        schema: &SchemaTree,
        db: &Database,
        frag: &Fragmentation,
    ) -> Result<BTreeSet<Dewey>> {
        let owner = &frag.fragments[frag.fragment_of(self.predicate_element)];
        let table = db
            .table(&owner.name)
            .map_err(|e| Error::Engine(e.to_string()))?;
        let feed = &table.data;
        let pe_name = schema.name(self.predicate_element);
        let val_col = feed.schema.col(pe_name, ColRole::Value).ok_or_else(|| {
            Error::Engine(format!(
                "fragment {} has no value column for {pe_name}",
                owner.name
            ))
        })?;
        // The anchor instance id is the prefix of the leaf's id at the
        // anchor's depth; prefer the leaf's own id column, fall back to
        // any id column under the anchor.
        let id_col = feed
            .schema
            .col(pe_name, ColRole::NodeId)
            .or_else(|| {
                feed.schema.columns.iter().position(|c| {
                    c.role == ColRole::NodeId
                        && schema
                            .by_name(&c.element)
                            .is_some_and(|e| schema.is_ancestor_or_self(self.anchor, e))
                })
            })
            .ok_or_else(|| {
                Error::Engine(format!(
                    "fragment {} has no id under the anchor",
                    owner.name
                ))
            })?;
        let depth = schema.depth(self.anchor);
        let instances = feed.rows.slice(..).read(Instances(id_col, val_col, depth));
        let passed = instances
            .into_iter()
            .filter(|(_, _, v)| self.predicate.matches(v));
        Ok(passed.map(|(_, anchor, _)| anchor).collect())
    }

    /// Filters one scanned feed: rows whose anchor-subtree cells belong to
    /// a non-qualifying instance are dropped, and the rest are a view of
    /// `feed`'s ([`Rows::pick`](xdx_relational::Rows::pick)). Feeds with no
    /// element under the anchor pass through untouched (ancestors and
    /// unrelated branches are not subset).
    pub fn filter_feed(
        &self,
        schema: &SchemaTree,
        feed: &Feed,
        qualifying: &BTreeSet<Dewey>,
    ) -> Feed {
        let depth = schema.depth(self.anchor);
        // Columns whose element lies inside the anchor subtree.
        let cols: Vec<usize> = feed
            .schema
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                c.role != ColRole::Value
                    && schema
                        .by_name(&c.element)
                        .is_some_and(|e| schema.is_ancestor_or_self(self.anchor, e))
            })
            .map(|(i, _)| i)
            .collect();
        if cols.is_empty() {
            return feed.clone();
        }
        // Null (padded) or shallower-than-anchor ids don't veto.
        let mut vetoed = vec![false; feed.len()];
        for &c in &cols {
            for (r, anchor, _) in feed.rows.slice(..).read(Instances(c, c, depth)) {
                vetoed[r] |= !qualifying.contains(&anchor);
            }
        }
        let kept = (0..feed.len()).filter(|&r| !vetoed[r]).collect();
        Feed {
            schema: feed.schema.clone(),
            rows: feed.rows.pick(kept, (0..feed.schema.arity()).collect()),
        }
    }

    /// Fraction of anchor instances that qualify, for cost estimation.
    pub fn selectivity(&self, stats: &SchemaStats, qualifying: &BTreeSet<Dewey>) -> f64 {
        let total = stats.count(self.anchor).max(1) as f64;
        (qualifying.len() as f64 / total).min(1.0)
    }
}

impl SchemaStats {
    /// Returns statistics with every element under `anchor` scaled by
    /// `selectivity` — the document the target will actually receive.
    pub fn scaled_under(&self, anchor: NodeId, selectivity: f64) -> SchemaStats {
        let mut out = self.clone();
        for e in self.schema.subtree(anchor) {
            out.counts[e.index()] = (self.counts[e.index()] as f64 * selectivity).round() as u64;
            out.text_bytes[e.index()] =
                (self.text_bytes[e.index()] as f64 * selectivity).round() as u64;
        }
        out
    }
}

/// The instances of an element a feed's rows hold, at depth `.2`: per
/// row whose id in column `.0` is at least that deep, the row's position,
/// the id cut to that depth and the row's cell in column `.1`.
pub(crate) struct Instances(pub usize, pub usize, pub usize);

impl<'a> ReadRows<'a> for Instances {
    type Out = Vec<(usize, Dewey, &'a Value)>;
    fn read<R: Row<'a>>(self, len: usize, row: impl Fn(usize) -> R) -> Self::Out {
        let Instances(id, cell, depth) = self;
        let deep = |r: usize| row(r).cell(id).as_dewey().filter(|d| d.depth() >= depth);
        let cut = |r, d: &Dewey| (r, Dewey::from(&d.as_slice()[..depth]), row(r).cell(cell));
        (0..len).filter_map(|r| Some(cut(r, deep(r)?))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::testutil::customer_schema;
    use crate::shred::shred;
    use xdx_xml::Writer;

    fn doc() -> String {
        let mut w = Writer::new();
        w.start("Customer");
        w.text_element("CustName", "acme");
        for (i, svc) in ["local", "long-distance", "local"].iter().enumerate() {
            w.start("Order");
            w.start("Service");
            w.text_element("ServiceName", svc);
            w.start("Line");
            w.text_element("TelNo", &format!("555-000{i}"));
            w.start("Switch");
            w.text_element("SwitchID", "sw");
            w.end();
            w.end();
            w.end();
            w.end();
        }
        w.end();
        w.finish()
    }

    fn source() -> (xdx_xml::SchemaTree, Fragmentation, Database) {
        let schema = customer_schema();
        let mf = Fragmentation::most_fragmented("MF", &schema);
        let shredded = shred(&doc(), &schema, &mf).unwrap();
        let mut db = Database::new("s");
        for (f, feed) in mf.fragments.iter().zip(shredded.feeds) {
            db.load(&f.name, feed).unwrap();
        }
        (schema, mf, db)
    }

    #[test]
    fn resolves_qualifying_anchors() {
        let (schema, mf, db) = source();
        let sel = Selection::new(
            &schema,
            "Order",
            "ServiceName",
            ValuePred::Equals("local".into()),
        )
        .unwrap();
        let q = sel.qualifying_ids(&schema, &db, &mf).unwrap();
        assert_eq!(q.len(), 2); // orders 0 and 2
    }

    #[test]
    fn filters_feeds_under_anchor_only() {
        let (schema, mf, db) = source();
        let sel = Selection::new(
            &schema,
            "Order",
            "ServiceName",
            ValuePred::Equals("local".into()),
        )
        .unwrap();
        let q = sel.qualifying_ids(&schema, &db, &mf).unwrap();
        // TelNo rows live under Order: 2 of 3 survive.
        let telno = db.table("TELNO").unwrap().data.clone();
        assert_eq!(sel.filter_feed(&schema, &telno, &q).len(), 2);
        // Customer rows are above the anchor: untouched.
        let cust = db.table("CUSTOMER").unwrap().data.clone();
        assert_eq!(sel.filter_feed(&schema, &cust, &q).len(), 1);
    }

    #[test]
    fn predicate_variants() {
        assert!(ValuePred::Contains("dist".into()).matches(&Value::Str("long-distance".into())));
        assert!(ValuePred::StartsWith("long".into()).matches(&Value::Str("long-distance".into())));
        assert!(!ValuePred::Equals("x".into()).matches(&Value::Null));
    }

    #[test]
    fn invalid_selections_rejected() {
        let schema = customer_schema();
        assert!(
            Selection::new(&schema, "Nope", "CustName", ValuePred::Equals("x".into())).is_err()
        );
        // CustName is not inside the Order subtree.
        assert!(
            Selection::new(&schema, "Order", "CustName", ValuePred::Equals("x".into())).is_err()
        );
    }

    #[test]
    fn selectivity_and_scaling() {
        let (schema, mf, db) = source();
        let sel = Selection::new(
            &schema,
            "Order",
            "ServiceName",
            ValuePred::Equals("local".into()),
        )
        .unwrap();
        let q = sel.qualifying_ids(&schema, &db, &mf).unwrap();
        let stats = crate::cost::SchemaStats::probe(&schema, &db, &mf).unwrap();
        let s = sel.selectivity(&stats, &q);
        assert!((s - 2.0 / 3.0).abs() < 1e-9);
        let scaled = stats.scaled_under(sel.anchor, s);
        let order = schema.by_name("Order").unwrap();
        assert_eq!(scaled.count(order), 2);
        let cust = schema.by_name("Customer").unwrap();
        assert_eq!(scaled.count(cust), stats.count(cust)); // outside anchor
    }
}
