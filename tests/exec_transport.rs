//! `execute_with_transport` is source phase → ship the cross ports in
//! consumer order → target phase. The sequences below were recorded from
//! the interleaved node loop it replaced (one loop running source and
//! target nodes in program order, shipping at the first target consumer):
//! the same shipment labels in the same order, the same serialization
//! count, the same rows in the same target tables — from a fresh run and
//! from a transport replaying its checkpointed messages.

use std::collections::VecDeque;
use std::time::Duration;
use xdx::core::exec::{execute_with_transport, LoopbackTransport, Transport};
use xdx::core::{DataExchange, Fragmentation, Location, Op, Program, WireFormat};
use xdx::relational::Database;

/// A loopback that records what crosses it and replays checkpointed
/// messages (oldest first) before asking the executor to serialize.
struct Recording {
    inner: LoopbackTransport,
    labels: Vec<String>,
    messages: Vec<Vec<u8>>,
    checkpoint: VecDeque<Vec<u8>>,
}

impl Recording {
    fn new(format: WireFormat, checkpoint: Vec<Vec<u8>>) -> Recording {
        Recording {
            inner: LoopbackTransport::new(format),
            labels: Vec::new(),
            messages: Vec::new(),
            checkpoint: checkpoint.into(),
        }
    }
}

impl Transport for Recording {
    fn ship(&mut self, label: &str, message: &[u8]) -> xdx::core::Result<(Duration, Vec<u8>)> {
        self.labels.push(label.to_string());
        self.messages.push(message.to_vec());
        self.inner.ship(label, message)
    }

    fn checkpointed_message(&mut self, _label: &str) -> Option<Vec<u8>> {
        self.checkpoint.pop_front()
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

/// Digest of every table's name and XML-text wire form, in name order.
fn tables_digest(db: &Database) -> u64 {
    let mut state = Vec::new();
    for name in db.table_names() {
        state.extend_from_slice(name.as_bytes());
        state.push(0);
        state.extend_from_slice(db.table(name).unwrap().data.to_wire().as_bytes());
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
    let source = xdx::xmark::load_source(&doc, &schema, from).unwrap();
    let (program, _) = exchange.plan(&exchange.probe(&source).unwrap()).unwrap();
    let program = if late {
        scans_only_at_source(program)
    } else {
        program
    };
    let run = |checkpoint: Vec<Vec<u8>>| {
        let mut source = source.clone();
        let mut target = Database::new("target");
        let mut transport = Recording::new(format, checkpoint);
        let outcome = execute_with_transport(
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
        (outcome, target, transport)
    };

    let (fresh, target, transport) = run(Vec::new());
    let labels = transport.labels.join("|");
    assert_eq!(labels, want.labels);
    assert_eq!(fresh.messages, transport.labels.len());
    assert_eq!(fresh.messages_serialized, fresh.messages);
    assert_eq!(fresh.rows_loaded, want.rows_loaded);
    assert_eq!(tables_digest(&target), want.tables);

    // The same exchange off a full checkpoint: nothing is serialized,
    // the identical bytes cross in the identical order, the same tables
    // land.
    let (replayed, retarget, retransport) = run(transport.messages.clone());
    assert_eq!(replayed.messages_serialized, 0);
    assert_eq!(replayed.bytes_encoded, 0);
    assert_eq!(retransport.labels, transport.labels);
    assert_eq!(retransport.messages, transport.messages);
    assert_eq!(replayed.bytes_shipped, fresh.bytes_shipped);
    assert_eq!(tables_digest(&retarget), want.tables);

    // A checkpoint covering only the first shipment: the rest serialize.
    let (partial, retarget, _) = run(transport.messages[..1].to_vec());
    assert_eq!(partial.messages_serialized, fresh.messages - 1);
    assert_eq!(tables_digest(&retarget), want.tables);
}

const MF_ELEMENTS: &str = "SITE|REGIONS|CATEGORIES|CATGRAPH|PEOPLE|OPENAUCTIONS|CLOSEDAUCTIONS|\
    AFRICA|ASIA|AUSTRALIA|EUROPE|NAMERICA|SAMERICA|CATEGORY|CNAME|CDESCRIPTION|ITEM|LOCATION|\
    QUANTITY|INAME|PAYMENT|IDESCRIPTION|SHIPPING|MAILBOX";

#[test]
fn mf_to_lf_ships_and_lands_what_the_interleaved_loop_did() {
    let schema = xdx::xmark::schema();
    let (mf, lf) = (xdx::xmark::mf(&schema), xdx::xmark::lf(&schema));
    let (rows_loaded, tables) = (78, 0xa253_5b3c_367b_0bbd);
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
    let (rows_loaded, tables) = (594, 0x5c3c_842c_ce54_4b7b);
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
