//! End-to-end integration tests: publish ↔ shred must be inverses, and the
//! optimized data exchange must land exactly the same data at the target
//! as publish&map — that equivalence is the paper's correctness premise
//! ("the underlying data is the same").

use xdx_core::agency::{DataExchange, Optimizer};
use xdx_core::pm::publish_and_map;
use xdx_core::publish::publish;
use xdx_core::shred::shred;
use xdx_core::Fragmentation;
use xdx_net::{Link, NetworkProfile};
use xdx_relational::Database;
use xdx_xml::{Occurs, SchemaTree, Writer};

/// The paper's Section 1.1 Customer schema.
fn customer_schema() -> SchemaTree {
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
    let switch = t.add_child(line, "Switch", Occurs::One).unwrap();
    let sid = t.add_child(switch, "SwitchID", Occurs::One).unwrap();
    t.set_text(sid);
    let feature = t.add_child(line, "Feature", Occurs::Many).unwrap();
    let fid = t.add_child(feature, "FeatureID", Occurs::One).unwrap();
    t.set_text(fid);
    t
}

/// A wrapper root is needed because the schema root `Customer` repeats in
/// spirit; we emit several documents' worth under one root by generating
/// one Customer doc per customer and exchanging them one at a time — or,
/// simpler, one document with a single customer forest is out of spec, so
/// we generate ONE customer with nested repetition.
fn customer_document(orders: usize, lines: usize, features: usize) -> String {
    let mut w = Writer::new();
    w.start("Customer");
    w.text_element("CustName", "ACME Corp");
    for o in 0..orders {
        w.start("Order");
        w.start("Service");
        w.text_element("ServiceName", &format!("service-{o}"));
        for l in 0..lines {
            w.start("Line");
            w.text_element("TelNo", &format!("973-555-{o:02}{l:02}"));
            w.start("Switch");
            w.text_element("SwitchID", &format!("sw-{o}-{l}"));
            w.end();
            for f in 0..features {
                w.start("Feature");
                w.text_element("FeatureID", &format!("feat-{f}"));
                w.end();
            }
            w.end();
        }
        w.end();
        w.end();
    }
    w.end();
    w.finish()
}

/// Shreds `xml` into `frag` feeds and loads them as the source database.
fn load_source(xml: &str, schema: &SchemaTree, frag: &Fragmentation) -> Database {
    let shredded = shred(xml, schema, frag).unwrap();
    let mut db = Database::new("source");
    for (f, feed) in frag.fragments.iter().zip(shredded.feeds) {
        db.load(&f.name, feed).unwrap();
    }
    db
}

#[test]
fn publish_inverts_shred() {
    let schema = customer_schema();
    let doc = customer_document(3, 2, 2);
    for frag in [
        Fragmentation::most_fragmented("MF", &schema),
        Fragmentation::least_fragmented("LF", &schema),
        Fragmentation::whole_document("W", &schema),
    ] {
        let mut db = load_source(&doc, &schema, &frag);
        let published = publish(&schema, &frag, &mut db).unwrap();
        // Published document: same body modulo the XML declaration.
        let body = published.xml.split_once("?>").unwrap().1;
        assert_eq!(body, doc, "fragmentation {}", frag.name);
    }
}

#[test]
fn shred_row_counts_match_structure() {
    let schema = customer_schema();
    let doc = customer_document(2, 3, 1);
    let mf = Fragmentation::most_fragmented("MF", &schema);
    let shredded = shred(&doc, &schema, &mf).unwrap();
    // Element counts: 1 customer, 1 custname, 2 orders, 2 services,
    // 2 servicenames, 6 lines, 6 telnos, 6 switches, 6 switchids,
    // 6 features, 6 featureids = 44.
    assert_eq!(shredded.elements, 44);
    let by_name = |n: &str| {
        mf.fragments
            .iter()
            .zip(&shredded.feeds)
            .find(|(f, _)| f.name == n)
            .map(|(_, feed)| feed.len())
            .unwrap()
    };
    assert_eq!(by_name("CUSTOMER"), 1);
    assert_eq!(by_name("ORDER"), 2);
    assert_eq!(by_name("LINE"), 6);
    assert_eq!(by_name("FEATURE"), 6);
}

#[test]
fn lf_shred_inlines_one_to_one() {
    let schema = customer_schema();
    let doc = customer_document(2, 2, 3);
    let lf = Fragmentation::least_fragmented("LF", &schema);
    let shredded = shred(&doc, &schema, &lf).unwrap();
    let feeds: std::collections::HashMap<&str, usize> = lf
        .fragments
        .iter()
        .zip(&shredded.feeds)
        .map(|(f, feed)| (f.name.as_str(), feed.len()))
        .collect();
    assert_eq!(feeds["CUSTOMER_CUSTNAME"], 1);
    assert_eq!(feeds["ORDER_SERVICE_SERVICENAME"], 2);
    assert_eq!(feeds["LINE_TELNO_SWITCH_SWITCHID"], 4);
    assert_eq!(feeds["FEATURE_FEATUREID"], 12);
}

/// Runs DE and PM over every scenario and checks the target databases are
/// identical (after canonical row sorting).
#[test]
fn de_and_pm_land_identical_data() {
    let schema = customer_schema();
    let doc = customer_document(3, 2, 2);
    let mf = Fragmentation::most_fragmented("MF", &schema);
    let lf = Fragmentation::least_fragmented("LF", &schema);
    for (src, tgt) in [(&mf, &lf), (&lf, &mf), (&mf, &mf), (&lf, &lf)] {
        // Publish&map.
        let mut pm_source = load_source(&doc, &schema, src);
        let mut pm_target = Database::new("pm-target");
        let mut link = Link::new(NetworkProfile::lan());
        let pm_report =
            publish_and_map(&schema, src, tgt, &mut pm_source, &mut pm_target, &mut link).unwrap();

        // Optimized exchange (greedy).
        let mut de_source = load_source(&doc, &schema, src);
        let mut de_target = Database::new("de-target");
        let mut de_link = Link::new(NetworkProfile::lan());
        let exchange = DataExchange::new(&schema, src.clone(), tgt.clone());
        let (de_report, _program) = exchange
            .run(&mut de_source, &mut de_target, &mut de_link)
            .unwrap();

        assert_eq!(
            pm_report.rows_loaded, de_report.rows_loaded,
            "{src:?}->{tgt:?} rows"
        );
        for frag in &tgt.fragments {
            let mut pm_rows = pm_target.table(&frag.name).unwrap().data.clone();
            let mut de_rows = de_target.table(&frag.name).unwrap().data.clone();
            let id = pm_rows.schema.root_id_col().unwrap();
            pm_rows.sort_by(&[id]);
            let id2 = de_rows.schema.root_id_col().unwrap();
            de_rows.sort_by(&[id2]);
            // Column orders can differ (combine appends child columns);
            // compare per-column multisets keyed by display name.
            assert_eq!(pm_rows.len(), de_rows.len(), "{} rows", frag.name);
            for (ci, col) in pm_rows.schema.columns.iter().enumerate() {
                let dci = de_rows
                    .schema
                    .columns
                    .iter()
                    .position(|c| c.display_name() == col.display_name())
                    .unwrap_or_else(|| panic!("{} missing {}", frag.name, col.display_name()));
                let a: Vec<_> = (0..pm_rows.len())
                    .map(|r| pm_rows.rows.cell(r, ci))
                    .collect();
                let b: Vec<_> = (0..de_rows.len())
                    .map(|r| de_rows.rows.cell(r, dci))
                    .collect();
                assert_eq!(a, b, "{} column {}", frag.name, col.display_name());
            }
        }
    }
}

#[test]
fn optimal_exchange_matches_greedy_data() {
    let schema = customer_schema();
    let doc = customer_document(2, 2, 1);
    let mf = Fragmentation::most_fragmented("MF", &schema);
    let lf = Fragmentation::least_fragmented("LF", &schema);

    let mut g_source = load_source(&doc, &schema, &mf);
    let mut g_target = Database::new("g");
    let mut g_link = Link::new(NetworkProfile::lan());
    let greedy_ex = DataExchange::new(&schema, mf.clone(), lf.clone());
    let (g_report, _) = greedy_ex
        .run(&mut g_source, &mut g_target, &mut g_link)
        .unwrap();

    let mut o_source = load_source(&doc, &schema, &mf);
    let mut o_target = Database::new("o");
    let mut o_link = Link::new(NetworkProfile::lan());
    let optimal_ex =
        DataExchange::new(&schema, mf.clone(), lf.clone()).with_optimizer(Optimizer::Optimal {
            ordering_cap: 10_000,
        });
    let (o_report, _) = optimal_ex
        .run(&mut o_source, &mut o_target, &mut o_link)
        .unwrap();

    assert_eq!(g_report.rows_loaded, o_report.rows_loaded);
    assert_eq!(g_target.total_rows(), o_target.total_rows());
}

#[test]
fn identity_exchange_ships_feeds_not_documents() {
    let schema = customer_schema();
    let doc = customer_document(4, 3, 2);
    let lf = Fragmentation::least_fragmented("LF", &schema);

    let mut de_source = load_source(&doc, &schema, &lf);
    let mut de_target = Database::new("de");
    let mut de_link = Link::new(NetworkProfile::lan());
    let (de_report, program) = DataExchange::new(&schema, lf.clone(), lf.clone())
        .run(&mut de_source, &mut de_target, &mut de_link)
        .unwrap();
    // LF→LF: pure Scan→Write, no combines or splits.
    assert_eq!(program.op_counts().1, 0);
    assert_eq!(program.op_counts().2, 0);

    let mut pm_source = load_source(&doc, &schema, &lf);
    let mut pm_target = Database::new("pm");
    let mut pm_link = Link::new(NetworkProfile::lan());
    let pm_report = publish_and_map(
        &schema,
        &lf,
        &lf,
        &mut pm_source,
        &mut pm_target,
        &mut pm_link,
    )
    .unwrap();

    // DE skips tagging and shredding entirely.
    assert_eq!(de_report.times.tagging.as_nanos(), 0);
    assert_eq!(de_report.times.shredding.as_nanos(), 0);
    assert!(pm_report.times.shredding.as_nanos() > 0);
}

#[test]
fn registry_defaults_to_whole_document() {
    use xdx_wsdl::{Registry, WsdlDefinition};
    let schema = customer_schema();
    let lf = Fragmentation::least_fragmented("LF", &schema);
    let wsdl = WsdlDefinition::single_service(
        "CustomerInfo",
        "http://customers.wsdl",
        schema.clone(),
        "CustomerInfoService",
        "http://customerinfo",
    );
    let mut registry = Registry::new();
    registry.register("sales", wsdl.clone(), Some(lf.to_decl(&schema)));
    registry.register("provisioning", wsdl, None);
    let ex =
        xdx_core::DataExchange::from_registry(&schema, &registry, "sales", "provisioning").unwrap();
    assert_eq!(ex.source_frag.len(), 4);
    assert_eq!(ex.target_frag.len(), 1); // defaulted to whole document
    assert!(xdx_core::DataExchange::from_registry(&schema, &registry, "sales", "nobody").is_err());
}
