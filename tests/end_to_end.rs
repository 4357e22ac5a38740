//! Workspace-level integration tests exercising the public facade the way
//! a downstream user would: register services, plan exchanges, run both
//! strategies, and check the paper's qualitative claims on real (small)
//! documents.

use xdx::core::cost::SystemProfile;
use xdx::core::pm::publish_and_map;
use xdx::core::{DataExchange, Location, Op, Optimizer};
use xdx::net::{Link, NetworkProfile};
use xdx::relational::Database;
use xdx::wsdl::{Registry, WsdlDefinition};

const DOC_BYTES: usize = 120_000;

fn workload() -> (
    xdx::xml::SchemaTree,
    xdx::core::Fragmentation,
    xdx::core::Fragmentation,
    String,
) {
    let schema = xdx::xmark::schema();
    let mf = xdx::xmark::mf(&schema);
    let lf = xdx::xmark::lf(&schema);
    let doc = xdx::xmark::generate(xdx::xmark::GenConfig::sized(DOC_BYTES));
    (schema, mf, lf, doc)
}

#[test]
fn de_ships_fewer_bytes_than_pm() {
    let (schema, mf, lf, doc) = workload();
    let mut de_source = xdx::xmark::load_source(&doc, &schema, &mf).unwrap();
    let mut de_target = Database::new("de");
    let mut de_link = Link::new(NetworkProfile::internet_2004());
    let (de, _) = DataExchange::new(&schema, mf.clone(), lf.clone())
        .run(&mut de_source, &mut de_target, &mut de_link)
        .unwrap();

    let mut pm_source = xdx::xmark::load_source(&doc, &schema, &mf).unwrap();
    let mut pm_target = Database::new("pm");
    let mut pm_link = Link::new(NetworkProfile::internet_2004());
    let pm = publish_and_map(
        &schema,
        &mf,
        &lf,
        &mut pm_source,
        &mut pm_target,
        &mut pm_link,
    )
    .unwrap();

    // Table 3's claim: fragment feeds beat tagged XML on the wire.
    assert!(
        de.bytes_shipped < pm.bytes_shipped,
        "DE shipped {} vs PM {}",
        de.bytes_shipped,
        pm.bytes_shipped
    );
    // And the data landing at the target is identical in volume.
    assert_eq!(de_target.total_rows(), pm_target.total_rows());
    // DE never tags or shreds.
    assert_eq!(de.times.tagging, std::time::Duration::ZERO);
    assert_eq!(de.times.shredding, std::time::Duration::ZERO);
    assert!(pm.times.shredding > std::time::Duration::ZERO);
}

/// Figure 9's accounting: an LF→MF exchange's report counts its probe
/// and plan (`planning`) and its feeds' encode and decode (`codec`),
/// publish&map has neither, and `total()` is every step's sum.
#[test]
fn de_reports_its_planning_and_codec() {
    let (schema, mf, lf, doc) = workload();
    let mut de_source = xdx::xmark::load_source(&doc, &schema, &lf).unwrap();
    let mut de_target = Database::new("de");
    let (de, _) = DataExchange::new(&schema, lf.clone(), mf.clone())
        .run(
            &mut de_source,
            &mut de_target,
            &mut Link::new(NetworkProfile::lan()),
        )
        .unwrap();
    let mut pm_source = xdx::xmark::load_source(&doc, &schema, &lf).unwrap();
    let pm = publish_and_map(
        &schema,
        &lf,
        &mf,
        &mut pm_source,
        &mut Database::new("pm"),
        &mut Link::new(NetworkProfile::lan()),
    )
    .unwrap();
    let zero = std::time::Duration::ZERO;
    assert!(de.times.planning > zero && de.times.codec > zero, "{de}");
    assert_eq!((pm.times.planning, pm.times.codec), (zero, zero));
    for t in [de.times, pm.times] {
        let steps = [
            t.planning,
            t.source_queries,
            t.tagging,
            t.codec,
            t.communication,
            t.target_queries,
            t.shredding,
            t.loading,
            t.indexing,
        ];
        assert_eq!(t.total(), steps.iter().sum());
        assert_eq!(
            t.total_excluding_load_index(),
            t.total() - t.loading - t.indexing
        );
    }
}

#[test]
fn full_wsdl_flow_from_registry() {
    let (schema, mf, lf, doc) = workload();
    let wsdl = WsdlDefinition::single_service(
        "AuctionInfo",
        "http://auctions.wsdl",
        schema.clone(),
        "AuctionInfoService",
        "http://auctioninfo",
    );
    // Round-trip the registrations through actual WSDL/fragmentation XML.
    let wsdl = WsdlDefinition::parse(&wsdl.to_xml()).unwrap();
    let mf_decl_xml = mf.to_decl(&schema).to_xml(&schema).unwrap();
    let lf_decl_xml = lf.to_decl(&schema).to_xml(&schema).unwrap();
    let mf_decl = xdx::wsdl::FragmentationDecl::parse(&mf_decl_xml).unwrap();
    let lf_decl = xdx::wsdl::FragmentationDecl::parse(&lf_decl_xml).unwrap();

    let mut registry = Registry::new();
    registry.register("auction-source", wsdl.clone(), Some(mf_decl));
    registry.register("auction-sink", wsdl, Some(lf_decl));

    let exchange =
        DataExchange::from_registry(&schema, &registry, "auction-source", "auction-sink").unwrap();
    assert_eq!(exchange.source_frag.len(), 24);
    assert_eq!(exchange.target_frag.len(), 3);

    let mut source = xdx::xmark::load_source(&doc, &schema, &mf).unwrap();
    let mut target = Database::new("sink");
    let mut link = Link::new(NetworkProfile::lan());
    let (report, _) = exchange.run(&mut source, &mut target, &mut link).unwrap();
    assert!(report.rows_loaded > 100);
    assert_eq!(target.table_names().len(), 3);
}

#[test]
fn dumb_client_never_receives_combines() {
    let (schema, mf, lf, doc) = workload();
    let mut source = xdx::xmark::load_source(&doc, &schema, &mf).unwrap();
    let mut target = Database::new("dumb");
    let mut link = Link::new(NetworkProfile::lan());
    let (_, program) = DataExchange::new(&schema, mf.clone(), lf.clone())
        .with_profiles(SystemProfile::with_speed(0.1), SystemProfile::dumb_client())
        .run(&mut source, &mut target, &mut link)
        .unwrap();
    // Even with a 10× slower source, the dumb client cannot combine.
    for n in &program.nodes {
        if matches!(n.op, Op::Combine { .. }) {
            assert_eq!(n.location, Location::Source);
        }
    }
}

#[test]
fn fast_target_attracts_work_and_shrinks_source_time() {
    let (schema, mf, lf, doc) = workload();
    let run = |target_profile: SystemProfile| {
        let mut source = xdx::xmark::load_source(&doc, &schema, &mf).unwrap();
        let mut target = Database::new("t");
        let mut link = Link::new(NetworkProfile::lan());
        DataExchange::new(&schema, mf.clone(), lf.clone())
            .with_profiles(SystemProfile::with_speed(1.0), target_profile)
            .run(&mut source, &mut target, &mut link)
            .unwrap()
    };
    let (_, fast_program) = run(SystemProfile::with_speed(10.0));
    let combines_at_target = fast_program
        .nodes
        .iter()
        .filter(|n| matches!(n.op, Op::Combine { .. }) && n.location == Location::Target)
        .count();
    assert_eq!(combines_at_target, fast_program.op_counts().1);
}

#[test]
fn optimal_and_greedy_agree_on_small_exchange() {
    let schema = xdx::xmark::schema();
    let lf = xdx::xmark::lf(&schema);
    let whole = xdx::core::Fragmentation::whole_document("whole", &schema);
    let doc = xdx::xmark::generate(xdx::xmark::GenConfig::sized(30_000));
    for optimizer in [Optimizer::Greedy, Optimizer::Optimal { ordering_cap: 200 }] {
        let mut source = xdx::xmark::load_source(&doc, &schema, &whole).unwrap();
        let mut target = Database::new("t");
        let mut link = Link::new(NetworkProfile::lan());
        let (report, program) = DataExchange::new(&schema, whole.clone(), lf.clone())
            .with_optimizer(optimizer)
            .run(&mut source, &mut target, &mut link)
            .unwrap();
        // whole → LF is a pure split: 1 scan, 1 split, 3 writes.
        assert_eq!(program.op_counts(), (1, 0, 1, 3));
        assert!(report.rows_loaded > 0);
    }
}

#[test]
fn soap_control_flow_works_over_the_link() {
    // The service invocation itself (not the bulk data) travels as SOAP.
    use xdx::net::http::{Request, Response};
    use xdx::net::SoapEnvelope;
    let call = SoapEnvelope::request("GetAuctionData", &[("region", "africa")]);
    let req = Request::soap_post(
        "/auctioninfo",
        "urn:GetAuctionData",
        call.to_xml().into_bytes(),
    );
    let mut link = Link::new(NetworkProfile::internet_2004());
    let wire = req.to_bytes();
    link.send("service call", &wire);
    let arrived = Request::parse(&wire).unwrap();
    let env = SoapEnvelope::parse(std::str::from_utf8(&arrived.body).unwrap()).unwrap();
    assert_eq!(env.body.name, "GetAuctionData");
    assert_eq!(env.body.child("region").unwrap().text(), "africa");
    let reply = Response::ok_xml(b"<ok/>".to_vec());
    link.send("service reply", &reply.to_bytes());
    assert_eq!(link.message_count(), 2);
}
