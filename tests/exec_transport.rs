//! `execute_with_transport` is source phase → ship the cross ports in
//! consumer order → target phase. The sequences below were recorded from
//! the interleaved node loop it replaced (one loop running source and
//! target nodes in program order, shipping at the first target consumer):
//! the same shipment labels in the same order, the same serialization
//! count, the same rows in the same target tables.

use std::time::Duration;
use xdx::core::exec::{execute_with_transport, LoopbackTransport, Transport};
use xdx::core::{DataExchange, Fragmentation, Location, Op, Program, WireFormat};
use xdx::relational::Database;

/// A loopback that records the label of every shipment crossing it.
struct Recording {
    inner: LoopbackTransport,
    labels: Vec<String>,
}

impl Transport for Recording {
    fn ship(&mut self, label: &str, message: &[u8]) -> xdx::core::Result<(Duration, Vec<u8>)> {
        self.labels.push(label.to_string());
        self.inner.ship(label, message)
    }

    fn wire_format(&self) -> WireFormat {
        self.inner.wire_format()
    }
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of every table's name and XML-text wire form up to its `#sum`
/// line, in name order: the landed schema and rows, not the checksum
/// that seals them.
fn tables_digest(db: &Database) -> u64 {
    let mut state = Vec::new();
    for name in db.table_names() {
        state.extend_from_slice(name.as_bytes());
        state.push(0);
        let wire = db.table(name).unwrap().data.to_wire();
        let body = wire.rfind("\n#sum\t").map_or(wire.len(), |at| at + 1);
        state.extend_from_slice(&wire.as_bytes()[..body]);
    }
    fnv64(&state)
}

/// What one direction and placement must reproduce.
struct Golden {
    labels: &'static str,
    rows_loaded: u64,
    tables: u64,
}

/// Every operator but the scans at the target: one shipment per stored
/// source fragment, every Combine and Split on delivered feeds.
fn scans_only_at_source(mut program: Program) -> Program {
    for node in &mut program.nodes {
        node.location = match node.op {
            Op::Scan { .. } => Location::Source,
            _ => Location::Target,
        };
    }
    program
}

fn check(from: &Fragmentation, to: &Fragmentation, late: bool, format: WireFormat, want: &Golden) {
    let schema = xdx::xmark::schema();
    let doc = xdx::xmark::generate(xdx::xmark::GenConfig::sized(30_000));
    let exchange = DataExchange::new(&schema, from.clone(), to.clone()).with_wire_format(format);
    let mut source = xdx::xmark::load_source(&doc, &schema, from).unwrap();
    let (program, _) = exchange.plan(&exchange.probe(&source).unwrap()).unwrap();
    let program = if late {
        scans_only_at_source(program)
    } else {
        program
    };
    let mut target = Database::new("target");
    let mut transport = Recording {
        inner: LoopbackTransport::new(format),
        labels: Vec::new(),
    };
    let fresh = execute_with_transport(
        &schema,
        from,
        to,
        &program,
        &mut source,
        &mut target,
        &mut transport,
        None,
    )
    .unwrap();
    let labels = transport.labels.join("|");
    assert_eq!(labels, want.labels);
    assert_eq!(fresh.messages, transport.labels.len());
    assert_eq!(fresh.messages_serialized, fresh.messages);
    assert_eq!(fresh.rows_loaded, want.rows_loaded);
    assert_eq!(tables_digest(&target), want.tables);
}

const MF_ELEMENTS: &str = "SITE|REGIONS|CATEGORIES|CATGRAPH|PEOPLE|OPENAUCTIONS|CLOSEDAUCTIONS|\
    AFRICA|ASIA|AUSTRALIA|EUROPE|NAMERICA|SAMERICA|CATEGORY|CNAME|CDESCRIPTION|ITEM|LOCATION|\
    QUANTITY|INAME|PAYMENT|IDESCRIPTION|SHIPPING|MAILBOX";

#[test]
fn mf_to_lf_ships_and_lands_what_the_interleaved_loop_did() {
    let schema = xdx::xmark::schema();
    let (mf, lf) = (xdx::xmark::mf(&schema), xdx::xmark::lf(&schema));
    let (rows_loaded, tables) = (78, 0x34cf_7949_8d5b_dab9);
    // The planner combines the 1-1 pairs at the source and the rest at
    // the target.
    let planned = Golden {
        labels: "SITE_REGIONS|CATEGORIES|CATGRAPH|PEOPLE|OPENAUCTIONS|CLOSEDAUCTIONS|AFRICA|ASIA|\
            AUSTRALIA|EUROPE|NAMERICA|SAMERICA|CATEGORY_CNAME|CDESCRIPTION|ITEM_LOCATION|\
            QUANTITY|INAME|PAYMENT|IDESCRIPTION|SHIPPING|MAILBOX",
        rows_loaded,
        tables,
    };
    let late = Golden {
        labels: MF_ELEMENTS,
        rows_loaded,
        tables,
    };
    for format in [WireFormat::Xml, WireFormat::Columnar] {
        check(&mf, &lf, false, format, &planned);
        check(&mf, &lf, true, format, &late);
    }
}

#[test]
fn lf_to_mf_ships_and_lands_what_the_interleaved_loop_did() {
    let schema = xdx::xmark::schema();
    let (mf, lf) = (xdx::xmark::mf(&schema), xdx::xmark::lf(&schema));
    let (rows_loaded, tables) = (594, 0xf10c_16aa_a80a_7729);
    // The planner splits at the source: one shipment per MF table, in
    // the order the target writes consume them.
    let planned = Golden {
        labels: "SITE|REGIONS|CATEGORIES|CATGRAPH|PEOPLE|OPENAUCTIONS|CLOSEDAUCTIONS|CATEGORY|\
            CNAME|CDESCRIPTION|AFRICA|ASIA|AUSTRALIA|EUROPE|NAMERICA|SAMERICA|ITEM|LOCATION|\
            QUANTITY|INAME|PAYMENT|IDESCRIPTION|SHIPPING|MAILBOX",
        rows_loaded,
        tables,
    };
    let late = Golden {
        labels: "SITE_REGIONS_AFRICA_ASIA_AUSTRALIA_EUROPE_NAMERICA_SAMERICA_CATEGORIES_CATGRAPH_\
            PEOPLE_OPENAUCTIONS_CLOSEDAUCTIONS|CATEGORY_CNAME_CDESCRIPTION|\
            ITEM_LOCATION_QUANTITY_INAME_PAYMENT_IDESCRIPTION_SHIPPING_MAILBOX",
        rows_loaded,
        tables,
    };
    for format in [WireFormat::Xml, WireFormat::Columnar] {
        check(&lf, &mf, false, format, &planned);
        check(&lf, &mf, true, format, &late);
    }
}
