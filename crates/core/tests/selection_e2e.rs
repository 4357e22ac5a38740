//! End-to-end tests for parameterized exchanges: a service argument must
//! subset the transferred data exactly, shrink communication, and leave
//! the unselected branches intact.

use xdx_core::agency::DataExchange;
use xdx_core::selection::{Selection, ValuePred};
use xdx_core::shred::shred;
use xdx_core::Fragmentation;
use xdx_net::{Link, NetworkProfile};
use xdx_relational::Database;
use xdx_xml::{Occurs, SchemaTree, Writer};

fn schema() -> SchemaTree {
    let mut t = SchemaTree::new("Customer");
    let n = t.add_child(t.root(), "CustName", Occurs::One).unwrap();
    t.set_text(n);
    let order = t.add_child(t.root(), "Order", Occurs::Many).unwrap();
    let service = t.add_child(order, "Service", Occurs::One).unwrap();
    let sn = t.add_child(service, "ServiceName", Occurs::One).unwrap();
    t.set_text(sn);
    let line = t.add_child(service, "Line", Occurs::Many).unwrap();
    let tel = t.add_child(line, "TelNo", Occurs::One).unwrap();
    t.set_text(tel);
    t
}

fn doc(orders: usize) -> String {
    let mut w = Writer::new();
    w.start("Customer");
    w.text_element("CustName", "acme");
    for o in 0..orders {
        w.start("Order");
        w.start("Service");
        w.text_element("ServiceName", if o % 3 == 0 { "local" } else { "intl" });
        for l in 0..2 {
            w.start("Line");
            w.text_element("TelNo", &format!("555-{o:02}{l}"));
            w.end();
        }
        w.end();
        w.end();
    }
    w.end();
    w.finish()
}

fn load(schema: &SchemaTree, frag: &Fragmentation, xml: &str) -> Database {
    let shredded = shred(xml, schema, frag).unwrap();
    let mut db = Database::new("s");
    for (f, feed) in frag.fragments.iter().zip(shredded.feeds) {
        db.load(&f.name, feed).unwrap();
    }
    db
}

#[test]
fn selection_subsets_the_transfer() {
    let schema = schema();
    let mf = Fragmentation::most_fragmented("MF", &schema);
    let lf = Fragmentation::least_fragmented("LF", &schema);
    let xml = doc(9); // 3 "local", 6 "intl"

    let run = |selection: Option<Selection>| {
        let mut source = load(&schema, &mf, &xml);
        let mut target = Database::new("t");
        let mut link = Link::new(NetworkProfile::lan());
        let mut ex = DataExchange::new(&schema, mf.clone(), lf.clone());
        if let Some(s) = selection {
            ex = ex.with_selection(s);
        }
        let (report, _) = ex.run(&mut source, &mut target, &mut link).unwrap();
        (report, target)
    };

    let (full, full_target) = run(None);
    let sel = Selection::new(
        &schema,
        "Order",
        "ServiceName",
        ValuePred::Equals("local".into()),
    )
    .unwrap();
    let (subset, subset_target) = run(Some(sel));

    // 3 of 9 orders qualify: fewer rows, fewer bytes.
    assert!(subset.rows_loaded < full.rows_loaded);
    assert!(subset.bytes_shipped < full.bytes_shipped);
    let orders_frag = "ORDER_SERVICE_SERVICENAME";
    assert_eq!(subset_target.table(orders_frag).unwrap().len(), 3);
    assert_eq!(full_target.table(orders_frag).unwrap().len(), 9);
    // Lines follow their orders: 2 per qualifying order.
    assert_eq!(subset_target.table("LINE_TELNO").unwrap().len(), 6);
    // The customer itself (above the anchor) still transfers.
    assert_eq!(subset_target.table("CUSTOMER_CUSTNAME").unwrap().len(), 1);
}

#[test]
fn selected_exchange_republishes_the_filtered_document() {
    let schema = schema();
    let mf = Fragmentation::most_fragmented("MF", &schema);
    let lf = Fragmentation::least_fragmented("LF", &schema);
    let xml = doc(6);
    let mut source = load(&schema, &mf, &xml);
    let mut target = Database::new("t");
    let mut link = Link::new(NetworkProfile::lan());
    let sel = Selection::new(
        &schema,
        "Order",
        "ServiceName",
        ValuePred::Equals("local".into()),
    )
    .unwrap();
    DataExchange::new(&schema, mf.clone(), lf.clone())
        .with_selection(sel)
        .run(&mut source, &mut target, &mut link)
        .unwrap();
    let republished = xdx_core::publish::publish(&schema, &lf, &mut target).unwrap();
    // Only the "local" services remain in the republished document.
    assert_eq!(
        republished
            .xml
            .matches("<ServiceName>local</ServiceName>")
            .count(),
        2
    );
    assert_eq!(republished.xml.matches("intl").count(), 0);
    assert!(republished.xml.contains("acme"));
}

#[test]
fn empty_selection_still_transfers_ancestors() {
    let schema = schema();
    let mf = Fragmentation::most_fragmented("MF", &schema);
    let lf = Fragmentation::least_fragmented("LF", &schema);
    let xml = doc(4);
    let mut source = load(&schema, &mf, &xml);
    let mut target = Database::new("t");
    let mut link = Link::new(NetworkProfile::lan());
    let sel = Selection::new(
        &schema,
        "Order",
        "ServiceName",
        ValuePred::Equals("nope".into()),
    )
    .unwrap();
    let (report, _) = DataExchange::new(&schema, mf.clone(), lf.clone())
        .with_selection(sel)
        .run(&mut source, &mut target, &mut link)
        .unwrap();
    assert_eq!(target.table("ORDER_SERVICE_SERVICENAME").unwrap().len(), 0);
    assert_eq!(target.table("CUSTOMER_CUSTNAME").unwrap().len(), 1);
    assert!(report.rows_loaded >= 1);
}
