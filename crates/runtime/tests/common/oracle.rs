//! The one landing oracle of the runtime tests.
//!
//! The paper's invariant is that an optimized exchange lands exactly what
//! publish&map lands. Every runtime test states it with one of two
//! equalities:
//!
//! - [`lands_like_pm`] holds for any schema and fragmentation pair: the
//!   target holds publish&map's rows, up to row and column order, and
//!   re-publishing it yields the source document byte for byte. It is
//!   the claim of a test about *what* lands.
//! - [`wire_state`] equality with [`reference_target`] is the claim of a
//!   test about identity with a healthy run (faults, resume, patches,
//!   publish lanes): the same tables with the same columns, rows in the
//!   same order and the same sums as one `DataExchange::run` lands over
//!   a perfect link.

use std::collections::{BTreeMap, BTreeSet};
use xdx_core::publish::publish;
use xdx_core::{DataExchange, Fragmentation};
use xdx_net::{Link, NetworkProfile};
use xdx_relational::{Database, Value};
use xdx_xmark::load_source;
use xdx_xml::SchemaTree;

/// A database's canonical wire form: table names in sorted order, each
/// followed by its feed's wire serialization (schema, rows and sum).
/// Equal wire states are byte-identical databases.
pub fn wire_state(db: &Database) -> Vec<u8> {
    let mut out = Vec::new();
    for name in db.table_names() {
        out.extend_from_slice(name.as_bytes());
        out.push(0);
        out.extend_from_slice(db.table(name).unwrap().data.to_wire().as_bytes());
    }
    out
}

/// What one `DataExchange::run` of the XMark document `doc` lands,
/// `from` → `to`, over a perfect link: the healthy run fault, resume and
/// patch tests compare against.
pub fn reference_target(doc: &str, from: &Fragmentation, to: &Fragmentation) -> Database {
    let schema = xdx_xmark::schema();
    let mut source = load_source(doc, &schema, from).unwrap();
    let mut target = Database::new("reference");
    let mut link = Link::new(NetworkProfile::lan());
    let exchange = DataExchange::new(&schema, from.clone(), to.clone());
    exchange.run(&mut source, &mut target, &mut link).unwrap();
    target
}

/// Asserts that `target`, landed under `frag`, is what publish&map lands
/// for `doc`: the same tables and columns, every fragment instance with
/// the same cells, and a re-publish that yields `doc` byte for byte.
pub fn lands_like_pm(schema: &SchemaTree, frag: &Fragmentation, target: &Database, doc: &str) {
    // Publish&map ships the document whole and shreds it at the target.
    let pm = load_source(doc, schema, frag).expect("the document shreds under the fragmentation");
    assert_eq!(target.table_names(), pm.table_names(), "{}", frag.name);
    for table in pm.table_names() {
        let (got, want) = (instances(target, table), instances(&pm, table));
        assert_eq!(got.0, want.0, "{table}: columns");
        assert!(
            got.1 == want.1,
            "{table}: an instance holds other cells than publish&map lands"
        );
    }
    let republished = publish(schema, frag, &mut target.clone()).expect("the target publishes");
    let body = republished
        .xml
        .split_once("?>")
        .map_or("", |(_, body)| body);
    if body != doc {
        let at = body
            .bytes()
            .zip(doc.bytes())
            .take_while(|(a, b)| a == b)
            .count();
        let near = |s: &str| {
            s.get(at.saturating_sub(40)..(at + 40).min(s.len()))
                .map(str::to_owned)
        };
        panic!(
            "{}: the re-published document differs at byte {at}: {:?} where the source has {:?}",
            frag.name,
            near(body),
            near(doc)
        );
    }
}

/// A table's column names, sorted, and each fragment instance's cells:
/// per value of the root's id, the non-NULL cells its rows hold, keyed by
/// column name. Encodings of one document differ in column order, row
/// order and how an outer union pads and splits rows (Combine appends
/// child columns and may give each child its own row); they agree on
/// these.
type Instances = (Vec<String>, BTreeMap<Value, BTreeSet<(String, Value)>>);

fn instances(db: &Database, table: &str) -> Instances {
    let feed = &db.table(table).unwrap().data;
    let names: Vec<String> = feed
        .schema
        .columns
        .iter()
        .map(|c| c.display_name())
        .collect();
    let root = feed
        .schema
        .root_id_col()
        .expect("a fragment table keys its root");
    let mut cells = BTreeMap::<Value, BTreeSet<(String, Value)>>::new();
    for row in feed.rows.clone() {
        let instance = cells.entry(row[root].clone()).or_default();
        let named = names.iter().zip(&row).filter(|(_, v)| **v != Value::Null);
        instance.extend(named.map(|(n, v)| (n.clone(), v.clone())));
    }
    let mut names = names;
    names.sort();
    (names, cells)
}
