//! Execution of placed data-transfer programs (Figure 2, Step 4: the
//! agency "assigns operations to the source and the target that generate
//! and execute code on their internal data structures").
//!
//! Operations run against real [`Database`] instances; a feed crossing a
//! cross-edge is serialized to its wire form, framed as an HTTP POST (the
//! SOAP-over-HTTP deployment of the paper's WSDL binding; bulk fragment
//! payloads ride as the POST body rather than being re-escaped into the
//! envelope), and shipped over the simulated [`Link`]. Wall-clock time is
//! attributed to the step taxonomy of [`crate::report::StepTimes`];
//! communication time is the link's simulated duration, so measurements
//! are reproducible regardless of host speed.

use crate::error::{Error, Result};
use crate::fragment::Fragmentation;
use crate::program::{Location, Op, OpNode, PortRef, Program};
use crate::report::StepTimes;
use crate::selection::Selection;
use std::borrow::Borrow;
use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::time::{Duration, Instant};
use xdx_codec::{decode_any, encode_in_format_into, WireFormat};
use xdx_net::http::{soap_post_bytes, RequestRef};
use xdx_net::Link;
use xdx_relational::ops::{merge_combine, split, ChainHint, SplitSpec};
use xdx_relational::Dewey as WireDewey;
use xdx_relational::{ColRole, Counters, Database, Feed};
use xdx_xml::{NodeId, SchemaTree};

/// How serialized cross-edge messages reach the target system.
///
/// [`execute`] historically shipped straight over a [`Link`]; the
/// runtime layer needs to interpose chunking, fault handling and retry
/// policies without re-implementing the executor, so the executor talks
/// to this seam instead. Implementations return the simulated transfer
/// duration plus the bytes as delivered at the far side (which the
/// executor then decodes, surfacing any damage as an explicit error).
pub trait Transport {
    /// Ships one message; returns (simulated duration, delivered bytes).
    /// An `Err` means delivery gave up entirely (e.g. a retry budget ran
    /// out) and aborts the exchange.
    fn ship(&mut self, label: &str, message: &[u8]) -> Result<(Duration, Vec<u8>)>;

    /// The wire encoding this transport negotiated for its link. The
    /// executor serializes cross-edge feeds in this format; receivers
    /// sniff the frame (columnar magic vs. `#feed` text), so a transport
    /// may switch formats between sessions without any handshake in the
    /// data stream itself. Defaults to XML text, the universal fallback.
    fn wire_format(&self) -> WireFormat {
        WireFormat::Xml
    }
}

/// The trivial transport: one message, one transmission, whatever
/// arrives arrives.
impl Transport for Link {
    fn ship(&mut self, label: &str, message: &[u8]) -> Result<(Duration, Vec<u8>)> {
        let (duration, delivered) = self.transmit(label, message);
        Ok((duration, delivered))
    }
}

/// A transport that never leaves the process: every message arrives
/// instantly and intact. The transport of the *reference* executor —
/// [`execute_with_transport`] over a loopback is the oracle tests and
/// the bench replay compare against — not of the runtime, whose delta
/// rounds compute their head with [`execute_in_place`] and ship nothing
/// to themselves.
#[derive(Debug, Default)]
pub struct LoopbackTransport {
    format: WireFormat,
}

impl LoopbackTransport {
    /// A loopback carrying frames in `format` (the format only affects
    /// encode accounting; the bytes never cross a real link).
    pub fn new(format: WireFormat) -> LoopbackTransport {
        LoopbackTransport { format }
    }
}

impl Transport for LoopbackTransport {
    fn ship(&mut self, _label: &str, message: &[u8]) -> Result<(Duration, Vec<u8>)> {
        Ok((Duration::ZERO, message.to_vec()))
    }

    fn wire_format(&self) -> WireFormat {
        self.format
    }
}

/// One timed operator execution, recorded for observability. The
/// runtime layer turns these into trace spans and per-operator
/// histograms and feeds them to cost-model calibration; core itself
/// stays decoupled from any telemetry sink.
#[derive(Debug, Clone)]
pub struct OpSample {
    /// Program node index; `program.nodes.len()` and above for the
    /// commit/index epilogue steps, which have no node.
    pub node: usize,
    /// Operator kind: `Scan`/`Combine`/`Split`/`Write`, plus the
    /// epilogue pseudo-ops `Commit` and `Index`.
    pub op: &'static str,
    pub location: Location,
    /// When the operator started (same clock as the caller's spans).
    pub started: Instant,
    pub wall: Duration,
}

/// Outcome of executing a program.
#[derive(Debug, Clone, Default)]
pub struct ExecOutcome {
    /// Step timings (source/target queries, communication, loading,
    /// indexing, and the codec where [`execute_with_transport`] encodes
    /// and decodes; tagging/shredding stay zero — they are publish&map
    /// steps — and planning is the caller's).
    pub times: StepTimes,
    /// Bytes shipped.
    pub bytes_shipped: u64,
    /// Messages shipped.
    pub messages: usize,
    /// Messages serialized from feeds in this run. A runtime that resumes
    /// a session ships its ledger's frames again without serializing
    /// them, so it can report fewer than `messages`.
    pub messages_serialized: usize,
    /// Feed bytes produced by the wire encoder (the POST body, before
    /// HTTP and chunk framing).
    pub bytes_encoded: u64,
    /// Wall nanoseconds spent encoding feeds for the wire.
    pub encode_ns: u64,
    /// Rows loaded at the target.
    pub rows_loaded: u64,
    /// Per-operator wall-time samples, in execution order, ending with
    /// the commit and index epilogue.
    pub op_samples: Vec<OpSample>,
}

/// Executes `program` between `source` and `target` over `link`.
///
/// The program must be fully placed and valid. Target tables are created
/// on first write; key indexes are rebuilt afterwards (the paper's final
/// "update indexes" step).
pub fn execute(
    schema: &SchemaTree,
    source_frag: &Fragmentation,
    target_frag: &Fragmentation,
    program: &Program,
    source: &mut Database,
    target: &mut Database,
    link: &mut Link,
) -> Result<ExecOutcome> {
    execute_with_transport(
        schema,
        source_frag,
        target_frag,
        program,
        source,
        target,
        link,
        None,
    )
}

/// [`execute`] over an arbitrary [`Transport`] — the integration point
/// for runtimes that chunk, retry or otherwise manage shipment
/// themselves — with an optional service argument: the source filters
/// every scanned feed to the qualifying anchor instances before any
/// further processing (paper §3.2: "the source system will filter the
/// data accordingly and provide us with the relevant pieces"). A [`Link`]
/// is the plain transport. Placed programs admit no target→source edge, so
/// the exchange is the source phase, then one shipment per cross port in
/// the order the target first consumes them, then the target phase over
/// what arrived. Nothing is staged at the target until every shipment
/// has landed, and a target phase that fails rolls its staged writes
/// back: the target's tables are never half-loaded.
#[allow(clippy::too_many_arguments)]
pub fn execute_with_transport(
    schema: &SchemaTree,
    source_frag: &Fragmentation,
    target_frag: &Fragmentation,
    program: &Program,
    source: &mut Database,
    target: &mut Database,
    transport: &mut dyn Transport,
    selection: Option<(&Selection, &BTreeSet<WireDewey>)>,
) -> Result<ExecOutcome> {
    let (mut phase, mut outcome) =
        execute_source_phase(schema, source_frag, target_frag, program, source, selection)?;
    let mut delivered = HashMap::with_capacity(phase.cross_ports.len());
    // One encode buffer for every shipment of this run: it grows to the
    // largest frame and stays there, so steady-state encoding allocates
    // only the message it hands to the transport.
    let mut encode_buf: Vec<u8> = Vec::new();
    for CrossPort { port, label } in &phase.cross_ports {
        let feed = phase.feeds.remove(port).ok_or_else(|| missing(*port))?;
        outcome.messages_serialized += 1;
        let start = Instant::now();
        let len = encode_in_format_into(&mut encode_buf, &feed, transport.wire_format());
        let encode = start.elapsed();
        outcome.encode_ns += encode.as_nanos() as u64;
        outcome.times.codec += encode;
        outcome.bytes_encoded += len as u64;
        let message = soap_post_bytes("/exchange", label, &encode_buf);
        drop(feed);
        let (duration, arrived) = transport.ship(label, &message)?;
        outcome.times.communication += duration;
        outcome.bytes_shipped += message.len() as u64;
        outcome.messages += 1;
        // The target decodes what actually arrived — link damage
        // surfaces here as an explicit error (HTTP length check or feed
        // checksum), never as silently corrupt data. The body is
        // sniffed, so a columnar sender and an XML sender land at the
        // same receiver code.
        let arrived = RequestRef::parse(&arrived).map_err(|e| Error::Engine(e.to_string()))?;
        let start = Instant::now();
        delivered.insert(*port, decode_any(arrived.body)?);
        outcome.times.codec += start.elapsed();
    }
    execute_target_phase(
        schema,
        source_frag,
        target_frag,
        program,
        target,
        delivered,
        &mut outcome,
    )?;
    Ok(outcome)
}

fn missing(port: PortRef) -> Error {
    Error::InvalidProgram {
        detail: format!("missing feed for port {port:?}"),
    }
}

/// The feeds one node loop has produced and not yet used up. A node is
/// handed the store's feed itself at the port's last use and a clone —
/// a handle on the same rows — while a later node of the loop still
/// reads the port. Nothing is copied here: an operator that needs rows
/// to itself moves them out of a sole handle and copies them out of a
/// shared one ([`xdx_relational::Rows`]).
pub(crate) struct FeedStore {
    feeds: HashMap<PortRef, Feed>,
    /// The last node of the loop to read each port.
    last_use: HashMap<PortRef, usize>,
}

impl FeedStore {
    fn new(program: &Program, nodes: impl Iterator<Item = usize>) -> FeedStore {
        // A port per node, about: sized once, not grown.
        let mut last_use = HashMap::with_capacity(program.nodes.len());
        for i in nodes {
            for port in &program.nodes[i].inputs {
                last_use.insert(*port, i);
            }
        }
        FeedStore {
            feeds: HashMap::with_capacity(program.nodes.len()),
            last_use,
        }
    }

    pub(crate) fn insert(&mut self, port: PortRef, feed: Feed) {
        self.feeds.insert(port, feed);
    }

    pub(crate) fn get(&self, port: PortRef) -> Result<&Feed> {
        self.feeds.get(&port).ok_or_else(|| missing(port))
    }

    /// Node `i`'s inputs in port order: moved out of the store where `i`
    /// is the port's last reader, cloned otherwise.
    fn inputs(&mut self, i: usize, ports: &[PortRef]) -> Result<Vec<Feed>> {
        let mut inputs = Vec::with_capacity(ports.len());
        for (k, port) in ports.iter().enumerate() {
            let last = self.last_use.get(port) == Some(&i) && !ports[k + 1..].contains(port);
            let feed = if last {
                self.feeds.remove(port)
            } else {
                self.feeds.get(port).cloned()
            };
            inputs.push(feed.ok_or_else(|| missing(*port))?);
        }
        Ok(inputs)
    }

    /// The feed on `port` for a reader outside the loop: moved out when
    /// no node of the loop reads it, cloned when one still does.
    fn release(&mut self, port: PortRef) -> Result<Feed> {
        if self.last_use.contains_key(&port) {
            return self.get(port).cloned();
        }
        self.feeds.remove(&port).ok_or_else(|| missing(port))
    }
}

/// The one operator loop. The source phase, the target phase, the
/// blocking executor built from the two, the in-place executor and
/// single-query publishing all run their nodes through
/// [`NodeLoop::run`], so operator semantics, input ownership and timing
/// cannot diverge between them. `Scan` yields a handle on the stored
/// table's rows (a selection filters them into a feed of its own); what a
/// `Write` does with its feed is the caller's.
pub(crate) struct NodeLoop<'a> {
    schema: &'a SchemaTree,
    source_frag: &'a Fragmentation,
    program: &'a Program,
    /// What each `Combine` node may know of its chain ([`chain_hints`]).
    chains: Vec<ChainHint>,
    /// What `Scan` reads; `None` on a side that stores nothing to scan.
    tables: Option<&'a Database>,
    selection: Option<(&'a Selection, &'a BTreeSet<WireDewey>)>,
    pub(crate) store: FeedStore,
    /// Work done so far by source-placed (and unplaced) nodes and by
    /// target-placed ones; the caller merges them into its databases.
    pub(crate) source_work: Counters,
    pub(crate) target_work: Counters,
}

impl<'a> NodeLoop<'a> {
    /// A loop that will run `nodes` (ascending) of `program`.
    pub(crate) fn new(
        schema: &'a SchemaTree,
        source_frag: &'a Fragmentation,
        program: &'a Program,
        tables: Option<&'a Database>,
        selection: Option<(&'a Selection, &'a BTreeSet<WireDewey>)>,
        nodes: impl Iterator<Item = usize>,
    ) -> NodeLoop<'a> {
        NodeLoop {
            schema,
            source_frag,
            program,
            chains: chain_hints(schema, program),
            tables,
            selection,
            store: FeedStore::new(program, nodes),
            source_work: Counters::new(),
            target_work: Counters::new(),
        }
    }

    /// Executes node `i`: resolves its inputs, runs and times the
    /// operator, files its output feeds and records the [`OpSample`]. A
    /// `Write` hands `(target fragment, feed)` to `write`.
    pub(crate) fn run(
        &mut self,
        i: usize,
        outcome: &mut ExecOutcome,
        write: &mut dyn FnMut(usize, Feed) -> Result<()>,
    ) -> Result<()> {
        let node = &self.program.nodes[i];
        let counters = match node.location {
            Location::Target => &mut self.target_work,
            _ => &mut self.source_work,
        };
        let start = Instant::now();
        let mut inputs = self.store.inputs(i, &node.inputs)?;
        let outputs = match &node.op {
            Op::Scan { fragment } => {
                let tables = self.tables.ok_or_else(|| Error::InvalidProgram {
                    detail: format!("node {i}: Scan on a side with no tables"),
                })?;
                let stored = &tables
                    .table(&self.source_frag.fragments[*fragment].name)?
                    .data;
                counters.rows_read += stored.len() as u64;
                counters.rows_out += stored.len() as u64;
                vec![match self.selection {
                    Some((sel, qualifying)) => sel.filter_feed(self.schema, stored, qualifying),
                    None => stored.clone(),
                }]
            }
            Op::Combine { anchor } => {
                let child = inputs.pop().expect("validated arity");
                let parent = inputs.pop().expect("validated arity");
                let anchor = self.schema.name(*anchor);
                vec![merge_combine(
                    parent,
                    child,
                    anchor,
                    self.chains[i],
                    counters,
                )?]
            }
            Op::Split => {
                let specs = split_specs(self.schema, self.program, node);
                split(&inputs[0], &specs, counters)?
            }
            Op::Write { fragment } => {
                // A view stays one: the table boundary copies it out
                // (`Table::stage_rows`), and `execute_in_place`'s head is
                // diffed where its rows sit.
                let feed = inputs.pop().expect("validated arity");
                outcome.rows_loaded += feed.len() as u64;
                write(*fragment, feed)?;
                Vec::new()
            }
        };
        drop(inputs);
        for (port, feed) in outputs.into_iter().enumerate() {
            self.store.insert(PortRef { node: i, port }, feed);
        }
        let wall = start.elapsed();
        match (&node.op, node.location) {
            (Op::Write { .. }, _) => outcome.times.loading += wall,
            (_, Location::Target) => outcome.times.target_queries += wall,
            _ => outcome.times.source_queries += wall,
        }
        outcome.op_samples.push(OpSample {
            node: i,
            op: node.op.kind(),
            location: node.location,
            started: start,
            wall,
        });
        Ok(())
    }
}

/// Per node of `program`, what its `Combine` may rely on beyond its
/// inputs (the default for every other node). A Combine's output whose
/// only reader is a Combine at the same location taking it as parent
/// is that Combine's parent row set, moved on: its rows are allocated
/// once, at the arity of the feed the chain of such Combines ends in.
/// The chain stops at a cross edge — a decoded batch is a fresh
/// allocation anyway — and at a port read twice, whose rows the next
/// Combine copies. And a Combine whose parent is the output of a
/// same-location Combine on the same anchor has its parent in key order
/// on the join column already: merge output is, by construction.
fn chain_hints(schema: &SchemaTree, program: &Program) -> Vec<ChainHint> {
    let nodes = &program.nodes;
    // How many inputs read each node's output, and a same-location
    // Combine that reads it as its parent.
    let mut readers = vec![0usize; nodes.len()];
    let mut extended_by: Vec<Option<usize>> = vec![None; nodes.len()];
    for (i, node) in nodes.iter().enumerate() {
        for (k, port) in node.inputs.iter().enumerate() {
            readers[port.node] += 1;
            if k == 0
                && matches!(node.op, Op::Combine { .. })
                && nodes[port.node].location == node.location
            {
                extended_by[port.node] = Some(i);
            }
        }
    }
    let arity = |node: &OpNode| {
        let region = &node.outputs[0];
        1 + region
            .elements
            .iter()
            .map(|&e| 1 + schema.node(e).has_text as usize)
            .sum::<usize>()
    };
    let mut hints = vec![ChainHint::default(); nodes.len()];
    // Consumers come after producers: a chain's end is hinted first.
    for (i, node) in nodes.iter().enumerate().rev() {
        let Op::Combine { anchor } = node.op else {
            continue;
        };
        let width = match extended_by[i] {
            Some(next) if readers[i] == 1 => hints[next].width,
            _ => arity(node),
        };
        let parent = &nodes[node.inputs[0].node];
        let parent_in_order =
            parent.location == node.location && parent.op == Op::Combine { anchor };
        hints[i] = ChainHint {
            width,
            parent_in_order,
        };
    }
    hints
}

/// The projection groups of a `Split` node: one per output region, with
/// the region's parent element as anchor unless the region keeps the
/// input's own root.
fn split_specs(schema: &SchemaTree, program: &Program, node: &OpNode) -> Vec<SplitSpec> {
    let input_root = program
        .port_region(node.inputs[0])
        .expect("validated program")
        .root;
    let name = |e| schema.name(e).to_string();
    node.outputs
        .iter()
        .map(|r| SplitSpec {
            root_element: name(r.root),
            anchor_element: (r.root != input_root)
                .then(|| schema.node(r.root).parent.map(name))
                .flatten(),
            elements: r.elements.iter().map(|&e| name(e)).collect(),
        })
        .collect()
}

/// One cross-edge port of a placed program: produced at the source,
/// consumed at the target, shipped as its own message (or batch stream).
#[derive(Debug, Clone)]
pub struct CrossPort {
    /// The producing port.
    pub port: PortRef,
    /// The region name used as the shipment label.
    pub label: String,
}

/// Everything the source side of a phase-split execution produced: the
/// feeds sitting on cross edges (exactly those — intermediate feeds were
/// consumed) and the cross-edge ports in deterministic first-consumer
/// order, which pipelined runtimes use as the shipment numbering across
/// runs and resumes.
#[derive(Debug)]
pub struct SourcePhase {
    /// Cross-edge feeds, keyed by producing port.
    pub feeds: HashMap<PortRef, Feed>,
    /// Cross-edge ports in the order the target first consumes them.
    pub cross_ports: Vec<CrossPort>,
}

/// Runs every *source*-located node of `program` — the CPU half of a
/// phase-split execution. Because placed programs admit no
/// target→source edges, any valid program splits cleanly into a source
/// phase, one ship-everything boundary, and a target phase: the seam an
/// event-driven runtime parks sessions at while frames are on the wire.
/// (The target fragmentation plays no part at the source; the parameter
/// keeps the three phase entry points uniform.)
pub fn execute_source_phase(
    schema: &SchemaTree,
    source_frag: &Fragmentation,
    _target_frag: &Fragmentation,
    program: &Program,
    source: &mut Database,
    selection: Option<(&Selection, &BTreeSet<WireDewey>)>,
) -> Result<(SourcePhase, ExecOutcome)> {
    let mut feeds = HashMap::new();
    let outcome = execute_source_phase_streaming(
        schema,
        source_frag,
        program,
        source,
        selection,
        &mut |port, feed| {
            feeds.insert(port, feed);
        },
    )?;
    let cross_ports = cross_ports_in_consumer_order(schema, program);
    Ok((SourcePhase { feeds, cross_ports }, outcome))
}

/// Cross-edge ports of a placed program in the order the target first
/// consumes them — the deterministic shipment numbering pipelined
/// runtimes and resumes share. Depends only on the program, so a
/// streaming caller can compute it before execution starts.
pub fn cross_ports_in_consumer_order(schema: &SchemaTree, program: &Program) -> Vec<CrossPort> {
    let mut cross_ports: Vec<CrossPort> = Vec::new();
    for (port, _) in program.cross_edges() {
        if !cross_ports.iter().any(|c| c.port == port) {
            cross_ports.push(CrossPort {
                port,
                label: program
                    .port_region(port)
                    .map(|r| r.name(schema))
                    .unwrap_or_default(),
            });
        }
    }
    cross_ports
}

/// [`execute_source_phase`] handing each cross-edge feed to
/// `on_cross_feed` the moment its producing node completes — while later
/// source nodes are still running, so a pipelined runtime can put the
/// first frames on the wire before the source phase returns. A cross
/// feed is final once produced. Its rows are the receiver's alone when
/// they are the output of a `Combine` or `Split` no later source node
/// reads, and shared otherwise — with the source table a `Scan` read,
/// or with the loop while a later source node still reads the port.
/// Ports arrive in production order, not consumer order.
pub fn execute_source_phase_streaming(
    schema: &SchemaTree,
    source_frag: &Fragmentation,
    program: &Program,
    source: &mut Database,
    selection: Option<(&Selection, &BTreeSet<WireDewey>)>,
    on_cross_feed: &mut dyn FnMut(PortRef, Feed),
) -> Result<ExecOutcome> {
    program.validate()?;
    program.validate_placement()?;
    let cross: Vec<PortRef> = program.cross_edges().into_iter().map(|(p, _)| p).collect();
    let at_source = |i: &usize| program.nodes[*i].location == Location::Source;
    let source_nodes = || (0..program.nodes.len()).filter(at_source);
    let mut outcome = ExecOutcome::default();
    let mut nodes = NodeLoop::new(
        schema,
        source_frag,
        program,
        Some(&*source),
        selection,
        source_nodes(),
    );
    let ran = source_nodes().try_for_each(|i| {
        nodes.run(i, &mut outcome, &mut |_, _| {
            unreachable!("validated placement")
        })?;
        for port in 0..program.nodes[i].outputs.len() {
            let port = PortRef { node: i, port };
            if cross.contains(&port) {
                on_cross_feed(port, nodes.store.release(port)?);
            }
        }
        Ok(())
    });
    let work = nodes.source_work;
    source.counters.merge(&work);
    ran.map(|()| outcome)
}

/// Runs every *target*-located node of `program` against feeds already
/// delivered across the cross edges, then commits the staged writes and
/// rebuilds the key indexes — the back half of a phase-split execution.
/// `delivered` is a port → feed map, given up (`HashMap<PortRef, Feed>`:
/// its feeds move in) or lent (`&HashMap<PortRef, Feed>`: the loop takes
/// a handle on each). Rows no other handle shares — a given-up map's,
/// unless another lane holds them too — are moved into a `Combine`'s
/// output or the table a `Write` stages, never copied; shared rows are
/// copied once, by the operator that has to own them. A failure anywhere
/// rolls the staged writes back, leaving the target exactly as it was.
pub fn execute_target_phase(
    schema: &SchemaTree,
    source_frag: &Fragmentation,
    target_frag: &Fragmentation,
    program: &Program,
    target: &mut Database,
    delivered: impl IntoIterator<Item = (impl Borrow<PortRef>, impl Into<Feed>)>,
    outcome: &mut ExecOutcome,
) -> Result<()> {
    let at_target = |i: &usize| program.nodes[*i].location == Location::Target;
    let target_nodes = || (0..program.nodes.len()).filter(at_target);
    let mut nodes = NodeLoop::new(schema, source_frag, program, None, None, target_nodes());
    for (port, feed) in delivered {
        nodes.store.insert(*port.borrow(), feed.into());
    }
    let ran = target_nodes().try_for_each(|i| {
        nodes.run(i, outcome, &mut |fragment, feed| {
            Ok(target.load_staged(&target_frag.fragments[fragment].name, feed)?)
        })
    });
    target.counters.merge(&nodes.target_work);
    if let Err(e) = ran {
        target.rollback_staged();
        return Err(e);
    }
    commit_and_index(program, target, outcome)
}

/// Runs the whole placed `program` where the rows sit and returns what
/// it writes: the table set the target would hold after the exchange
/// (what [`execute_with_transport`] over a [`LoopbackTransport`] leaves
/// in an empty target, table for table and row for row), in sorted name
/// order, without shipping, encoding, staging or indexing anything. One
/// node loop over every node: scans take handles on `source`'s rows, a
/// cross feed is handed from its producer to its consumer by value, and a
/// `Write` files its feed under the target fragment's table name. The
/// source did all of the work, so `source.counters` takes the bill of
/// both halves. This is how a delta round computes the head it diffs.
pub fn execute_in_place(
    schema: &SchemaTree,
    source_frag: &Fragmentation,
    target_frag: &Fragmentation,
    program: &Program,
    source: &mut Database,
) -> Result<(Vec<(String, Feed)>, ExecOutcome)> {
    program.validate()?;
    program.validate_placement()?;
    let all = || 0..program.nodes.len();
    let mut outcome = ExecOutcome::default();
    outcome.op_samples.reserve_exact(program.nodes.len());
    let mut tables: Vec<(String, Feed)> = Vec::with_capacity(target_frag.fragments.len());
    let mut nodes = NodeLoop::new(schema, source_frag, program, Some(&*source), None, all());
    let ran = all().try_for_each(|i| {
        nodes.run(i, &mut outcome, &mut |fragment, feed| {
            let name = &target_frag.fragments[fragment].name;
            // A table written twice holds both feeds' rows, as staging
            // them would have left it.
            match tables.iter_mut().find(|(n, _)| n == name) {
                None => tables.push((name.clone(), feed)),
                Some((_, table)) if table.schema.arity() == feed.schema.arity() => {
                    table.rows.absorb(feed.rows)
                }
                Some(_) => {
                    return Err(Error::Engine(format!(
                        "table {name} written twice, with feeds of different arity"
                    )))
                }
            }
            Ok(())
        })
    });
    let mut work = nodes.source_work;
    work.merge(&nodes.target_work);
    source.counters.merge(&work);
    ran?;
    tables.sort_by(|a, b| a.0.cmp(&b.0));
    Ok((tables, outcome))
}

/// A delta round's prefix map (DESIGN §23): per source fragment, the
/// Dewey depth at which a changed row's instance root is cut to the
/// prefix whose range holds every row the change can reach — the depth
/// of the root of the target fragment holding the source fragment's
/// root. Fragments are connected, so every target fragment with an
/// element under that root is rooted under it: a target row under the
/// prefix carries only values of nodes under it. A source row such a
/// target row is made of is under the prefix too, or a row of an
/// instance above it whose fragment reaches down into it; a ranged
/// source keeps both ([`PrefixMap::run_ranged`]).
#[derive(Debug, Clone)]
pub struct PrefixMap<'a> {
    schema: &'a SchemaTree,
    source_frag: &'a Fragmentation,
    /// Per source fragment: the root of the target fragment holding its
    /// root, where its changed instances are cut.
    cuts: Vec<NodeId>,
}

/// What changed between two versions of a source ([`PrefixMap::changed`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceChange {
    /// Rows whose values differ.
    pub rows: usize,
    /// The changed instances' prefixes, sorted, none under another.
    pub prefixes: Vec<WireDewey>,
    /// The element each prefix is an instance of: the root of a target
    /// fragment.
    cuts: Vec<NodeId>,
}

impl<'a> PrefixMap<'a> {
    /// The prefix map of an exchange from `source_frag` to `target_frag`.
    pub fn new(
        schema: &'a SchemaTree,
        source_frag: &'a Fragmentation,
        target_frag: &Fragmentation,
    ) -> PrefixMap<'a> {
        let cuts = source_frag
            .fragments
            .iter()
            .map(|f| target_frag.owner_fragment(f.root).root)
            .collect();
        PrefixMap {
            schema,
            source_frag,
            cuts,
        }
    }

    /// Compares `source` with the `previous` version of it, table by
    /// table and row by row (a table that still shares its rows is not
    /// read): the rows whose values changed and the prefixes of their
    /// instances. `None` when the two cannot be compared that way — a
    /// table missing or of another layout, a row count or an identifier
    /// that moved (an insert or a delete renumbers the siblings after it).
    pub fn changed(&self, source: &Database, previous: &Database) -> Option<SourceChange> {
        let mut cut_at: Vec<(WireDewey, NodeId)> = Vec::new();
        let mut rows = 0;
        for (f, &cut) in self.source_frag.fragments.iter().zip(&self.cuts) {
            let now = &source.table(&f.name).ok()?.data;
            let then = &previous.table(&f.name).ok()?.data;
            if xdx_relational::Rows::ptr_eq(&now.rows, &then.rows) {
                continue;
            }
            if now.schema != then.schema || now.len() != then.len() {
                return None;
            }
            let key = now.schema.root_id_col()?;
            let columns = &now.schema.columns;
            let depth = self.schema.depth(cut);
            let mut at = 0;
            while let Some(r) = now.rows.slice(at..).first_difference(then.rows.slice(at..)) {
                let r = at + r;
                at = r + 1;
                let ids_moved = (columns.iter().enumerate()).any(|(c, col)| {
                    col.role != ColRole::Value && now.rows.cell(r, c) != then.rows.cell(r, c)
                });
                if ids_moved {
                    return None;
                }
                rows += 1;
                let id = now.rows.cell(r, key).as_dewey()?.as_slice();
                let prefix = &id[..depth.min(id.len())];
                if cut_at.last().map(|(p, _)| p.as_slice()) != Some(prefix) {
                    cut_at.push((WireDewey::from(prefix), cut));
                }
            }
        }
        cut_at.sort_unstable();
        // Sorted, an instance's prefix comes before any under it.
        cut_at.dedup_by(|under, above| above.0.is_prefix_of(&under.0));
        let (prefixes, cuts) = cut_at.into_iter().unzip();
        Some(SourceChange {
            rows,
            prefixes,
            cuts,
        })
    }

    /// Runs `run` over `source` with each table cut to the rows a head
    /// ranged over `change`'s prefixes reads — its rows under a prefix,
    /// and in a table rooted above one the rows of the instance above it
    /// — and puts every table's rows back after, also when `run` fails or
    /// panics. A cut table is a view of its own rows ([`Rows::pick`]);
    /// nothing is copied, and what `run` bills stays on
    /// `source.counters`. Returns what `run` returned and the number of
    /// rows it was shown.
    ///
    /// [`Rows::pick`]: xdx_relational::Rows::pick
    pub fn run_ranged<T>(
        &self,
        source: &mut Database,
        change: &SourceChange,
        run: impl FnOnce(&mut Database) -> T,
    ) -> Result<(T, usize)> {
        let mut cut = Cut {
            source,
            fragments: self.source_frag,
            rows: Vec::with_capacity(self.cuts.len()),
        };
        let mut shown = 0;
        // One empty set serves every table the ranges miss.
        let none = xdx_relational::Rows::default();
        let mut aligned = Aligned::default();
        for f in &self.source_frag.fragments {
            let (table, _) = cut.source.table_mut(&f.name)?;
            let picks = self
                .ranged_rows(&table.data, f.root, change, &mut aligned)
                .map_err(|e| Error::Engine(format!("table {}: {e}", f.name)))?;
            shown += picks.len();
            let rows = match picks.is_empty() {
                true => none.clone(),
                false => {
                    let cols = (0..table.data.schema.arity()).collect();
                    table.data.rows.pick(picks, cols)
                }
            };
            cut.rows.push(std::mem::replace(&mut table.data.rows, rows));
        }
        Ok((run(cut.source), shown))
    }

    /// The positions of `feed`'s rows, a table of instances of `root`,
    /// that a head ranged over `change` reads, ascending: its rows under
    /// a prefix of an element above or at `root`, and the rows of the one
    /// instance above a prefix of an element under it. A prefix of any
    /// other element is none of its business, and is not looked up. The
    /// ranges under each prefix are tried first where `aligned` found them
    /// in the last table of as many rows, and kept there for the next.
    fn ranged_rows(
        &self,
        feed: &Feed,
        root: NodeId,
        change: &SourceChange,
        aligned: &mut Aligned,
    ) -> Result<Vec<usize>> {
        let key = feed
            .schema
            .root_id_col()
            .ok_or_else(|| Error::Engine("no root id to range by".to_string()))?;
        let depth = self.schema.depth(root);
        let mut picks = Vec::with_capacity(change.prefixes.len());
        let (mut from, mut last_above) = (0, None);
        let mut found: Option<Vec<Range<usize>>> = None;
        for (i, (prefix, &cut)) in change.prefixes.iter().zip(&change.cuts).enumerate() {
            let range = match prefix.as_slice().get(..depth) {
                // The table is rooted above the prefix: the rows of the one
                // instance of it above, once.
                Some(above) if depth < prefix.depth() => {
                    if last_above == Some(above) || !self.schema.is_ancestor_or_self(root, cut) {
                        continue;
                    }
                    last_above = Some(above);
                    key_range(&feed.rows, key, 0, |id| id.cmp(above))?
                }
                _ if !self.schema.is_ancestor_or_self(cut, root) => continue,
                _ => {
                    let order = |id: &[u32]| {
                        if id.starts_with(prefix.as_slice()) {
                            std::cmp::Ordering::Equal
                        } else {
                            id.cmp(prefix.as_slice())
                        }
                    };
                    let guess = aligned.guess(feed.len(), i);
                    let range = match guess.filter(|g| is_key_range(&feed.rows, key, g, order)) {
                        Some(guess) => guess,
                        None => key_range(&feed.rows, key, from, order)?,
                    };
                    let n = change.prefixes.len();
                    let found = found.get_or_insert_with(|| Vec::with_capacity(n));
                    found.resize(i, 0..0);
                    found.push(range.clone());
                    range
                }
            };
            from = from.max(range.end);
            picks.extend(range);
        }
        if let Some(ranges) = found {
            *aligned = Aligned {
                rows: feed.len(),
                ranges,
            };
        }
        picks.sort_unstable();
        picks.dedup();
        Ok(picks)
    }
}

/// The ranges the last table ranged under the prefixes held, by prefix,
/// and its row count: a table of one-to-one instances under the same
/// instances as that one (an MF table and its children's) holds them at
/// the same positions, which [`is_key_range`] confirms in a few reads.
#[derive(Debug, Default)]
struct Aligned {
    rows: usize,
    ranges: Vec<Range<usize>>,
}

impl Aligned {
    /// Where prefix `i`'s rows lay in the last table, if it had `rows`.
    fn guess(&self, rows: usize, i: usize) -> Option<Range<usize>> {
        (self.rows == rows).then(|| self.ranges.get(i).cloned())?
    }
}

/// A source whose first `rows.len()` tables, in fragment order, are cut
/// to ranges: dropping it puts their rows back.
struct Cut<'s> {
    source: &'s mut Database,
    fragments: &'s Fragmentation,
    rows: Vec<xdx_relational::Rows>,
}

impl Drop for Cut<'_> {
    fn drop(&mut self) {
        for (f, rows) in self.fragments.fragments.iter().zip(self.rows.drain(..)) {
            if let Ok((table, _)) = self.source.table_mut(&f.name) {
                table.data.rows = rows;
            }
        }
    }
}

/// True when `range` is exactly the run of `rows` whose key column
/// `col` compares `Equal` under `order`: the rows at its ends compare
/// `Equal` and the rows just outside it do not. Reads at most four rows.
fn is_key_range(
    rows: &xdx_relational::Rows,
    col: usize,
    range: &Range<usize>,
    order: impl Fn(&[u32]) -> std::cmp::Ordering,
) -> bool {
    let compare = |r: usize| {
        let id = rows.cell(r, col).as_dewey();
        id.map(|id| order(id.as_slice()))
    };
    use std::cmp::Ordering::{Equal, Greater, Less};
    let Range { start, end } = *range;
    end <= rows.len()
        && (start == 0 || compare(start - 1) == Some(Less))
        && (end == rows.len() || compare(end) == Some(Greater))
        && (start == end || (compare(start) == Some(Equal) && compare(end - 1) == Some(Equal)))
}

/// The rows of `rows` from `from` on whose key column `col` compares
/// `Equal` under `order` — one contiguous run of a key-sorted set —
/// found by binary search.
fn key_range(
    rows: &xdx_relational::Rows,
    col: usize,
    from: usize,
    order: impl Fn(&[u32]) -> std::cmp::Ordering,
) -> Result<Range<usize>> {
    let id = |r: usize| {
        rows.cell(r, col)
            .as_dewey()
            .map(WireDewey::as_slice)
            .ok_or_else(|| Error::Engine(format!("row {r}: key is not a Dewey id")))
    };
    let partition = |mut lo: usize, below: &dyn Fn(std::cmp::Ordering) -> bool| {
        let mut hi = rows.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if below(order(id(mid)?)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok::<usize, Error>(lo)
    };
    let start = partition(from.min(rows.len()), &|o| o.is_lt())?;
    let end = partition(start, &|o| o.is_le())?;
    Ok(start..end)
}

/// The commit + index epilogue shared by every execution path.
pub fn commit_and_index(
    program: &Program,
    target: &mut Database,
    outcome: &mut ExecOutcome,
) -> Result<()> {
    let start = Instant::now();
    target.commit_staged();
    let wall = start.elapsed();
    outcome.times.loading += wall;
    outcome.op_samples.push(OpSample {
        node: program.nodes.len(),
        op: "Commit",
        location: Location::Target,
        started: start,
        wall,
    });
    let start = Instant::now();
    target.build_all_key_indexes()?;
    let wall = start.elapsed();
    outcome.times.indexing += wall;
    outcome.op_samples.push(OpSample {
        node: program.nodes.len() + 1,
        op: "Index",
        location: Location::Target,
        started: start,
        wall,
    });
    Ok(())
}

/// The row ranges that split a feed of `rows` rows into batches of at
/// most `batch_rows`, in order. An empty feed yields one empty range, so
/// every cross port ships at least one frame. Deterministic: the same
/// length and batch size always produce the same ranges — resumed
/// sessions replay the identical shipment sequence.
pub fn batch_ranges(rows: usize, batch_rows: usize) -> impl Iterator<Item = Range<usize>> {
    let n = batch_rows.max(1);
    (0..rows.div_ceil(n).max(1)).map(move |b| b * n..rows.min((b + 1) * n))
}

/// Copies a Dewey-sorted feed out into one feed per [`batch_ranges`]
/// range; a batch of a view is a view of the same input
/// ([`RowSlice::to_rows`](xdx_relational::RowSlice::to_rows)). (A shipper
/// that owns the feed encodes each range in place.)
pub fn feed_batches(feed: &Feed, batch_rows: usize) -> Vec<Feed> {
    batch_ranges(feed.len(), batch_rows)
        .map(|rows| Feed {
            schema: feed.schema.clone(),
            rows: feed.rows.slice(rows).to_rows(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::testutil::{customer_schema, t_fragmentation};
    use crate::gen::Generator;
    use crate::program::Location;
    use xdx_net::NetworkProfile;
    use xdx_relational::{Dewey, Value};

    fn dv(path: &[u32]) -> Value {
        Value::Dewey(Dewey::from(path))
    }

    /// Loads a tiny MF-style source: one table per element of the customer
    /// schema, 2 customers × 2 orders each.
    fn setup_source(schema: &SchemaTree, mf: &Fragmentation) -> Database {
        let mut db = Database::new("source");
        let mut feeds: HashMap<String, Feed> = HashMap::new();
        for frag in &mf.fragments {
            feeds.insert(frag.name.clone(), Feed::new(frag.feed_schema(schema)));
        }
        let mut add = |elem: &str, parent: &[u32], id: &[u32], text: Option<&str>| {
            let frag_name = elem.to_uppercase();
            let feed = feeds.get_mut(&frag_name).unwrap();
            let mut row = vec![dv(parent), dv(id)];
            if feed.schema.arity() == 3 {
                row.push(text.map(|t| Value::Str(t.into())).unwrap_or(Value::Null));
            }
            feed.push_row(row).unwrap();
        };
        for c in 1..=2u32 {
            add("Customer", &[], &[c], None);
            add("CustName", &[c], &[c, 1], Some(&format!("cust{c}")));
            for o in 1..=2u32 {
                add("Order", &[c], &[c, o + 1], None);
                add("Service", &[c, o + 1], &[c, o + 1, 1], None);
                add(
                    "ServiceName",
                    &[c, o + 1, 1],
                    &[c, o + 1, 1, 1],
                    Some("local"),
                );
                add("Line", &[c, o + 1, 1], &[c, o + 1, 1, 2], None);
                add(
                    "TelNo",
                    &[c, o + 1, 1, 2],
                    &[c, o + 1, 1, 2, 1],
                    Some("555"),
                );
                add("Switch", &[c, o + 1, 1, 2], &[c, o + 1, 1, 2, 2], None);
                add(
                    "SwitchID",
                    &[c, o + 1, 1, 2, 2],
                    &[c, o + 1, 1, 2, 2, 1],
                    Some("sw1"),
                );
                add("Feature", &[c, o + 1, 1, 2], &[c, o + 1, 1, 2, 3], None);
                add(
                    "FeatureID",
                    &[c, o + 1, 1, 2, 3],
                    &[c, o + 1, 1, 2, 3, 1],
                    Some("cid"),
                );
            }
        }
        for (name, feed) in feeds {
            db.load(&name, feed).unwrap();
        }
        db
    }

    #[test]
    fn executes_mf_to_t_end_to_end() {
        let schema = customer_schema();
        let mf = Fragmentation::most_fragmented("MF", &schema);
        let t = t_fragmentation(&schema);
        let gen = Generator::new(&schema, &mf, &t);
        let mut program = gen.canonical().unwrap();
        for n in &mut program.nodes {
            n.location = match n.op {
                Op::Write { .. } => Location::Target,
                _ => Location::Source,
            };
        }
        let mut source = setup_source(&schema, &mf);
        let mut target = Database::new("target");
        let mut link = Link::new(NetworkProfile::lan());
        let outcome = execute(
            &schema,
            &mf,
            &t,
            &program,
            &mut source,
            &mut target,
            &mut link,
        )
        .unwrap();
        // 2 customers, 4 orders, 4 lines, 4 features.
        assert_eq!(target.table("Customer.xsd").unwrap().len(), 2);
        assert_eq!(target.table("Order_Service.xsd").unwrap().len(), 4);
        assert_eq!(target.table("Line_Switch.xsd").unwrap().len(), 4);
        assert_eq!(target.table("Feature.xsd").unwrap().len(), 4);
        assert_eq!(outcome.messages, 4); // one shipment per target fragment
        assert_eq!(outcome.messages_serialized, 4); // no checkpoint: all built here
        assert!(outcome.bytes_shipped > 0);
        assert!(outcome.times.communication.as_nanos() > 0);
        assert_eq!(outcome.rows_loaded, 14);
        // Indexes rebuilt on all 4 tables (ID + PARENT each).
        assert!(target.counters.index_inserts > 0);
    }

    #[test]
    fn combines_at_target_ship_smaller_pieces() {
        let schema = customer_schema();
        let mf = Fragmentation::most_fragmented("MF", &schema);
        let t = t_fragmentation(&schema);
        let gen = Generator::new(&schema, &mf, &t);

        let mut at_source = gen.canonical().unwrap();
        for n in &mut at_source.nodes {
            n.location = match n.op {
                Op::Write { .. } => Location::Target,
                _ => Location::Source,
            };
        }
        let mut at_target = gen.canonical().unwrap();
        for n in &mut at_target.nodes {
            n.location = match n.op {
                Op::Scan { .. } => Location::Source,
                _ => Location::Target,
            };
        }

        let run = |program: &Program| {
            let mut source = setup_source(&schema, &mf);
            let mut target = Database::new("target");
            let mut link = Link::new(NetworkProfile::lan());
            let out = execute(
                &schema,
                &mf,
                &t,
                program,
                &mut source,
                &mut target,
                &mut link,
            )
            .unwrap();
            (out, target.total_rows())
        };
        let (src_out, rows1) = run(&at_source);
        let (tgt_out, rows2) = run(&at_target);
        // Same data lands either way.
        assert_eq!(rows1, rows2);
        // Shipping all 11 element fragments costs more messages than the
        // 4 combined ones.
        assert_eq!(tgt_out.messages, schema.len());
        assert!(tgt_out.times.target_queries.as_nanos() > 0);
        assert_eq!(src_out.messages, 4);
    }

    #[test]
    fn identity_transfer_roundtrips_tables() {
        let schema = customer_schema();
        let mf = Fragmentation::most_fragmented("MF", &schema);
        let gen = Generator::new(&schema, &mf, &mf);
        let mut program = gen.canonical().unwrap();
        for n in &mut program.nodes {
            n.location = match n.op {
                Op::Write { .. } => Location::Target,
                _ => Location::Source,
            };
        }
        let mut source = setup_source(&schema, &mf);
        let mut target = Database::new("target");
        let mut link = Link::new(NetworkProfile::lan());
        execute(
            &schema,
            &mf,
            &mf,
            &program,
            &mut source,
            &mut target,
            &mut link,
        )
        .unwrap();
        for frag in &mf.fragments {
            let s = source.table(&frag.name).unwrap();
            let t = target.table(&frag.name).unwrap();
            assert_eq!(s.data.rows, t.data.rows, "fragment {}", frag.name);
        }
    }

    /// Transport that delivers faithfully for `good_ships` calls, then
    /// gives up — a session dying mid-exchange.
    struct DyingTransport {
        link: Link,
        good_ships: usize,
        ships: usize,
    }

    impl Transport for DyingTransport {
        fn ship(&mut self, label: &str, message: &[u8]) -> Result<(Duration, Vec<u8>)> {
            if self.ships >= self.good_ships {
                return Err(Error::Engine("link died".into()));
            }
            self.ships += 1;
            let (duration, delivered) = self.link.transmit(label, message);
            Ok((duration, delivered))
        }
    }

    #[test]
    fn failed_exchange_rolls_back_every_write() {
        let schema = customer_schema();
        let mf = Fragmentation::most_fragmented("MF", &schema);
        let t = t_fragmentation(&schema);
        let gen = Generator::new(&schema, &mf, &t);
        let mut program = gen.canonical().unwrap();
        for n in &mut program.nodes {
            n.location = match n.op {
                Op::Write { .. } => Location::Target,
                _ => Location::Source,
            };
        }
        let mut source = setup_source(&schema, &mf);
        let mut target = Database::new("target");
        // Two of four shipments land, then the transport dies: no Write
        // has run, and not one row may be staged or survive.
        let mut transport = DyingTransport {
            link: Link::new(NetworkProfile::lan()),
            good_ships: 2,
            ships: 0,
        };
        let err = execute_with_transport(
            &schema,
            &mf,
            &t,
            &program,
            &mut source,
            &mut target,
            &mut transport,
            None,
        );
        assert!(err.is_err());
        assert_eq!(target.total_rows(), 0, "no partial tables after rollback");
        assert!(target.table_names().is_empty(), "created tables dropped");
        assert_eq!(target.counters.rows_written, 0);
        // The same target can then host a clean retry end-to-end.
        let mut link = Link::new(NetworkProfile::lan());
        execute(
            &schema,
            &mf,
            &t,
            &program,
            &mut source,
            &mut target,
            &mut link,
        )
        .unwrap();
        assert_eq!(target.total_rows(), 14);
    }

    #[test]
    fn unplaced_program_rejected() {
        let schema = customer_schema();
        let mf = Fragmentation::most_fragmented("MF", &schema);
        let t = t_fragmentation(&schema);
        let gen = Generator::new(&schema, &mf, &t);
        let program = gen.canonical().unwrap(); // unassigned
        let mut source = setup_source(&schema, &mf);
        let mut target = Database::new("target");
        let mut link = Link::new(NetworkProfile::lan());
        assert!(execute(
            &schema,
            &mf,
            &t,
            &program,
            &mut source,
            &mut target,
            &mut link
        )
        .is_err());
    }
}
