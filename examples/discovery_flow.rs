//! The discovery-agency flow of the paper's Figure 2 as actual SOAP
//! message exchange: both systems *register* their WSDL + fragmentation at
//! the agency over the wire (Step 1), then a requester asks the agency to
//! derive the mapping and an optimized data-transfer program (Steps 2–3).
//!
//! Run with: `cargo run --release --example discovery_flow`

use std::cell::RefCell;
use std::rc::Rc;
use xdx::core::agency::DataExchange;
use xdx::net::endpoint::{call, ServiceHost};
use xdx::net::{Link, NetworkProfile, SoapEnvelope, SoapFault};
use xdx::wsdl::{FragmentationDecl, Registry, WsdlDefinition};
use xdx::xml::Element;

fn main() {
    let schema = xdx::xmark::schema();
    let wsdl = WsdlDefinition::single_service(
        "AuctionInfo",
        "http://auctions.wsdl",
        schema.clone(),
        "AuctionInfoService",
        "http://auctioninfo",
    );

    // ---- The discovery agency, as a SOAP service. ----------------------
    let registry = Rc::new(RefCell::new(Registry::new()));
    let mut agency = ServiceHost::new();
    {
        let registry = Rc::clone(&registry);
        let wsdl = wsdl.clone();
        agency.route("urn:Register", move |req| {
            let system = req
                .body
                .child("system")
                .map(|e| e.text())
                .ok_or_else(|| SoapFault {
                    code: "Client".into(),
                    string: "missing <system>".into(),
                })?;
            let fragmentation = req
                .body
                .child("fragmentation")
                .map(|e| FragmentationDecl::parse(&e.to_xml()))
                .transpose()
                .map_err(|e| SoapFault {
                    code: "Client".into(),
                    string: format!("bad fragmentation: {e}"),
                })?;
            registry
                .borrow_mut()
                .register(&system, wsdl.clone(), fragmentation);
            Ok(SoapEnvelope::new(
                Element::new("RegisterResponse").with_text(system),
            ))
        });
    }
    {
        let registry = Rc::clone(&registry);
        let schema = schema.clone();
        agency.route("urn:PlanExchange", move |req| {
            let get = |name: &str| {
                req.body
                    .child(name)
                    .map(|e| e.text())
                    .ok_or_else(|| SoapFault {
                        code: "Client".into(),
                        string: format!("missing <{name}>"),
                    })
            };
            let (source, target) = (get("source")?, get("target")?);
            let registry = registry.borrow();
            let exchange = DataExchange::from_registry(&schema, &registry, &source, &target)
                .map_err(|e| SoapFault {
                    code: "Client".into(),
                    string: e.to_string(),
                })?;
            // Plan against synthetic statistics (the agency has no data of
            // its own; Step 3's probe would refine this).
            let stats = xdx::core::cost::SchemaStats::multiplicative(&schema, 4, 16);
            let model = xdx::core::cost::CostModel::fast_network(stats);
            let (program, cost) = exchange.plan(&model).map_err(|e| SoapFault {
                code: "Server".into(),
                string: e.to_string(),
            })?;
            Ok(SoapEnvelope::new(
                Element::new("PlanExchangeResponse")
                    .with_attr("estimated-cost", format!("{cost:.0}"))
                    .with_text(program.display(&schema).to_string()),
            ))
        });
    }

    // ---- Step 1: both systems register over the wire. ------------------
    let mut link = Link::new(NetworkProfile::internet_2004());
    let mf = xdx::xmark::mf(&schema);
    let lf = xdx::xmark::lf(&schema);
    for (system, frag) in [("auction-source", &mf), ("auction-sink", &lf)] {
        let decl_xml = frag.to_decl(&schema).to_xml(&schema).expect("renders");
        let decl_elem = xdx::xml::Document::parse(&decl_xml).expect("parses").root;
        let req = SoapEnvelope::new(
            Element::new("Register")
                .with_child(Element::new("system").with_text(system))
                .with_child(decl_elem),
        );
        let reply =
            call(&mut link, &mut agency, "/agency", "urn:Register", &req).expect("registers");
        println!("registered {} → {}", system, reply.body.text());
    }

    // ---- Steps 2–3: a requester asks for the exchange plan. ------------
    let req = SoapEnvelope::request(
        "PlanExchange",
        &[("source", "auction-source"), ("target", "auction-sink")],
    );
    let reply = call(&mut link, &mut agency, "/agency", "urn:PlanExchange", &req).expect("plans");
    println!(
        "\nagency returned a plan (estimated cost {}):\n{}",
        reply.body.attr("estimated-cost").unwrap_or("?"),
        reply.body.text()
    );

    // A bad request comes back as a proper SOAP fault.
    let bad = SoapEnvelope::request("PlanExchange", &[("source", "nobody")]);
    let fault = call(&mut link, &mut agency, "/agency", "urn:PlanExchange", &bad).unwrap_err();
    println!("fault for unknown system (as expected): {}", fault.string);
    println!(
        "\n{} messages crossed the simulated link in total",
        link.message_count()
    );
}
