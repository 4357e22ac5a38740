//! Derived fragments: fragments defined as service-call results
//! (paper Section 1.1).
//!
//! "The lowest granularity of a fragment is a single element in the XML
//! Schema. However, a fragment could correspond to the result of a service
//! call. For instance, S could provide a fragment that defines a service,
//! `TotalMRCService`, standing for the total monthly recurring charges for
//! all lines ordered by a customer, without revealing how this fragment is
//! computed."
//!
//! A [`DerivedFragment`] synthesizes exactly that: one instance per
//! *anchor* element instance, carrying an aggregate computed over a leaf
//! in the anchor's subtree. The result is an ordinary feed (PARENT = the
//! anchor instance, ID = a synthesized child position), so it ships, loads
//! and registers like any stored fragment — the computation stays hidden
//! behind the service boundary, as the paper intends.

use crate::error::{Error, Result};
use crate::fragment::Fragmentation;
use crate::selection::Instances;
use std::collections::BTreeMap;
use xdx_relational::feed::{ColRole, FeedColumn, FeedSchema};
use xdx_relational::{Database, Dewey, Feed, Value};
use xdx_xml::{NodeId, SchemaTree};

/// Supported aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateKind {
    /// Number of leaf instances under the anchor.
    Count,
    /// Sum of numeric leaf values (non-numeric leaves are errors).
    Sum,
    /// Minimum numeric leaf value.
    Min,
    /// Maximum numeric leaf value.
    Max,
}

/// A fragment computed by the source instead of stored.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivedFragment {
    /// Name of the synthesized element (and of the resulting fragment).
    pub result_element: String,
    /// One result instance per instance of this element.
    pub anchor: NodeId,
    /// The leaf whose instances are aggregated (inside the anchor's
    /// subtree).
    pub over: NodeId,
    /// The aggregate.
    pub kind: AggregateKind,
}

impl DerivedFragment {
    /// Builds a derived fragment by element names.
    pub fn new(
        schema: &SchemaTree,
        result_element: impl Into<String>,
        anchor: &str,
        over: &str,
        kind: AggregateKind,
    ) -> Result<DerivedFragment> {
        let anchor_id = schema
            .by_name(anchor)
            .ok_or_else(|| Error::InvalidProgram {
                detail: format!("unknown anchor element {anchor}"),
            })?;
        let over_id = schema.by_name(over).ok_or_else(|| Error::InvalidProgram {
            detail: format!("unknown aggregated element {over}"),
        })?;
        if !schema.is_ancestor_or_self(anchor_id, over_id) {
            return Err(Error::InvalidProgram {
                detail: format!("{over} is not inside the {anchor} subtree"),
            });
        }
        Ok(DerivedFragment {
            result_element: result_element.into(),
            anchor: anchor_id,
            over: over_id,
            kind,
        })
    }

    /// The feed layout of the derived fragment.
    pub fn feed_schema(&self) -> FeedSchema {
        FeedSchema::new(
            self.result_element.clone(),
            vec![
                FeedColumn::new(self.result_element.clone(), ColRole::ParentRef),
                FeedColumn::new(self.result_element.clone(), ColRole::NodeId),
                FeedColumn::new(self.result_element.clone(), ColRole::Value),
            ],
        )
    }

    /// Computes the derived fragment against the source system: one row
    /// per anchor instance (anchors with no leaf instances yield `Count`
    /// 0 and `Null` for the other aggregates).
    pub fn compute(
        &self,
        schema: &SchemaTree,
        db: &Database,
        frag: &Fragmentation,
    ) -> Result<Feed> {
        let anchor_depth = schema.depth(self.anchor);
        // 1. All anchor instances, from the anchor's owning fragment.
        let anchor_frag = &frag.fragments[frag.fragment_of(self.anchor)];
        let anchor_table = db
            .table(&anchor_frag.name)
            .map_err(|e| Error::Engine(e.to_string()))?;
        let anchor_name = schema.name(self.anchor);
        let anchor_col = anchor_table
            .data
            .schema
            .col(anchor_name, ColRole::NodeId)
            .ok_or_else(|| Error::Engine(format!("no id column for {anchor_name}")))?;
        // Anchor ids are `anchor_depth` deep: each is its own group's key.
        let anchors = Instances(anchor_col, anchor_col, anchor_depth);
        let anchors = anchor_table.data.rows.slice(..).read(anchors);
        let mut groups: BTreeMap<Dewey, Vec<f64>> = anchors
            .into_iter()
            .map(|(_, d, _)| (d, Vec::new()))
            .collect();
        // 2. Aggregate the leaf's values into their anchor groups.
        let over_frag = &frag.fragments[frag.fragment_of(self.over)];
        let over_table = db
            .table(&over_frag.name)
            .map_err(|e| Error::Engine(e.to_string()))?;
        let over_name = schema.name(self.over);
        let over_id = over_table
            .data
            .schema
            .col(over_name, ColRole::NodeId)
            .ok_or_else(|| Error::Engine(format!("no id column for {over_name}")))?;
        let over_val = over_table
            .data
            .schema
            .col(over_name, ColRole::Value)
            .ok_or_else(|| Error::Engine(format!("{over_name} carries no value")))?;
        let leaves = Instances(over_id, over_val, anchor_depth);
        for (_, key, value) in over_table.data.rows.slice(..).read(leaves) {
            let Some(group) = groups.get_mut(&key) else {
                continue;
            };
            match self.kind {
                AggregateKind::Count => group.push(1.0),
                _ => {
                    let text = value.as_str().unwrap_or("");
                    let num: f64 = text.trim().parse().map_err(|_| {
                        Error::Engine(format!(
                            "{over_name} value {text:?} is not numeric (required by {:?})",
                            self.kind
                        ))
                    })?;
                    group.push(num);
                }
            }
        }
        // 3. Emit one row per anchor instance.
        let mut feed = Feed::new(self.feed_schema());
        for (anchor_dewey, values) in groups {
            let agg = match self.kind {
                AggregateKind::Count => Some(values.len() as f64),
                AggregateKind::Sum => Some(values.iter().sum()),
                AggregateKind::Min => values.iter().copied().reduce(f64::min),
                AggregateKind::Max => values.iter().copied().reduce(f64::max),
            };
            let value = match agg {
                None => Value::Null,
                Some(v) if v.fract() == 0.0 && v.abs() < 1e15 => Value::Int(v as i64),
                Some(v) => Value::Str(format!("{v}").into()),
            };
            // Synthesized position 0 never collides with real children
            // (document ordinals are 1-based).
            let id = anchor_dewey.child(0);
            feed.push_row(vec![Value::Dewey(anchor_dewey), Value::Dewey(id), value])?;
        }
        Ok(feed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::testutil::customer_schema;
    use crate::shred::shred;
    use xdx_xml::Writer;

    /// 2 customers; the first has 2 orders with 1 and 2 lines, the second
    /// has none. TelNo values are numeric so Sum/Min/Max work.
    fn setup() -> (xdx_xml::SchemaTree, Fragmentation, Database) {
        let schema = customer_schema();
        // The schema's root is Customer; emulate two customers by running
        // two documents into the same source (each shred call re-roots at
        // Dewey [], so shift the second with a wrapper load).
        let mut w = Writer::new();
        w.start("Customer");
        w.text_element("CustName", "acme");
        for (o, lines) in [(0usize, 1usize), (1, 2)] {
            w.start("Order");
            w.start("Service");
            w.text_element("ServiceName", &format!("svc{o}"));
            for l in 0..lines {
                w.start("Line");
                w.text_element("TelNo", &format!("{}", 100 * (o + 1) + l));
                w.start("Switch");
                w.text_element("SwitchID", "sw");
                w.end();
                w.end();
            }
            w.end();
            w.end();
        }
        w.end();
        let doc = w.finish();
        let mf = Fragmentation::most_fragmented("MF", &schema);
        let shredded = shred(&doc, &schema, &mf).unwrap();
        let mut db = Database::new("s");
        for (f, feed) in mf.fragments.iter().zip(shredded.feeds) {
            db.load(&f.name, feed).unwrap();
        }
        (schema, mf, db)
    }

    #[test]
    fn count_per_order() {
        let (schema, mf, db) = setup();
        let d = DerivedFragment::new(&schema, "LineCount", "Order", "TelNo", AggregateKind::Count)
            .unwrap();
        let feed = d.compute(&schema, &db, &mf).unwrap();
        assert_eq!(feed.len(), 2); // one row per order
        let counts: Vec<&Value> = (0..feed.len()).map(|r| feed.rows.cell(r, 2)).collect();
        assert_eq!(counts, vec![&Value::Int(1), &Value::Int(2)]);
    }

    #[test]
    fn sum_min_max_per_customer() {
        let (schema, mf, db) = setup();
        let total =
            DerivedFragment::new(&schema, "TotalMRC", "Customer", "TelNo", AggregateKind::Sum)
                .unwrap();
        let feed = total.compute(&schema, &db, &mf).unwrap();
        assert_eq!(feed.len(), 1);
        assert_eq!(*feed.rows.cell(0, 2), Value::Int(100 + 200 + 201));

        let min = DerivedFragment::new(&schema, "MinTel", "Customer", "TelNo", AggregateKind::Min)
            .unwrap();
        assert_eq!(
            *min.compute(&schema, &db, &mf).unwrap().rows.cell(0, 2),
            Value::Int(100)
        );
        let max = DerivedFragment::new(&schema, "MaxTel", "Customer", "TelNo", AggregateKind::Max)
            .unwrap();
        assert_eq!(
            *max.compute(&schema, &db, &mf).unwrap().rows.cell(0, 2),
            Value::Int(201)
        );
    }

    #[test]
    fn anchors_without_leaves_get_zero_or_null() {
        let (schema, mf, db) = setup();
        // Aggregate FeatureID counts per Line: no features exist at all.
        let d = DerivedFragment::new(
            &schema,
            "FeatCount",
            "Line",
            "FeatureID",
            AggregateKind::Count,
        )
        .unwrap();
        let feed = d.compute(&schema, &db, &mf).unwrap();
        assert_eq!(feed.len(), 3); // 3 lines
        assert!((0..feed.len()).all(|r| *feed.rows.cell(r, 2) == Value::Int(0)));
        let m = DerivedFragment::new(&schema, "FeatMin", "Line", "FeatureID", AggregateKind::Min)
            .unwrap();
        assert!(m
            .compute(&schema, &db, &mf)
            .unwrap()
            .rows
            .into_iter()
            .all(|r| r[2].is_null()));
    }

    #[test]
    fn non_numeric_sum_is_an_error() {
        let (schema, mf, db) = setup();
        let d = DerivedFragment::new(&schema, "Bad", "Customer", "CustName", AggregateKind::Sum)
            .unwrap();
        assert!(d.compute(&schema, &db, &mf).is_err());
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let schema = customer_schema();
        assert!(DerivedFragment::new(&schema, "X", "Nope", "TelNo", AggregateKind::Count).is_err());
        assert!(
            DerivedFragment::new(&schema, "X", "Order", "CustName", AggregateKind::Count).is_err()
        );
    }

    #[test]
    fn result_ids_hang_under_anchors() {
        let (schema, mf, db) = setup();
        let d =
            DerivedFragment::new(&schema, "LC", "Order", "TelNo", AggregateKind::Count).unwrap();
        let feed = d.compute(&schema, &db, &mf).unwrap();
        for row in feed.rows {
            let parent = row[0].as_dewey().unwrap();
            let id = row[1].as_dewey().unwrap();
            assert!(parent.is_prefix_of(id));
            assert_eq!(id.depth(), parent.depth() + 1);
        }
    }
}
