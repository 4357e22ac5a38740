//! The by-hand replay behind the per-layer numbers.
//!
//! The traced run takes the inputs of the timed ops and walks them
//! through the layers' public functions, one call after the other on
//! one thread, with a span around each call. The chains follow what the
//! runtime does for the same request — probe, plan, source phase, one
//! frame per 1024-row batch, HTTP + chunk framing, the link, chunk
//! verification, decode, target phase, snapshot — so a layer's self
//! time here is its share of the op there. What the runtime adds on top
//! (queueing, lanes, ledger, settling, its own tracing) is the
//! difference to the measured op and is reported as
//! `runtime.overhead_us_per_session`.
//!
//! Span names are `<crate>.<call>`; `child::trace` maps them to metric
//! names.

use crate::spans::Recorder;
use crate::workloads::Shape;
use std::collections::HashMap;
use std::sync::Arc;
use xdx_codec::{decode_any, decode_patch, encode_in_format_into, encode_patch};
use xdx_core::exec::{execute_source_phase, execute_target_phase, execute_with_transport};
use xdx_core::program::{PortRef, Program};
use xdx_core::{feed_batches, DataExchange, ExecOutcome, LoopbackTransport, WireFormat};
use xdx_delta::{db_tables, diff_snapshots, Snapshot, SnapshotStore};
use xdx_net::http::Request;
use xdx_net::{frame_chunk_into, ChunkFrame, Link, NetworkProfile};
use xdx_relational::{stage_patch, Database, Feed};
use xdx_runtime::{RuntimeConfig, ShippingPolicy};
use xdx_xml::SchemaTree;

/// Root span of one replayed op; only spans under it count as the
/// layers' share of an op.
pub const ROOT: &str = "replay";
/// Root span of measurements taken next to a replay but not part of
/// the op (the XML parser alone).
pub const PROBE: &str = "probe";

/// Counts taken at the same boundaries as the spans, summed over the
/// replayed ops: the denominators of the per-layer numbers.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub ops: u64,
    /// Document bytes made current at targets (fanout: doc × lanes).
    pub doc_bytes: u64,
    /// Rows landed at targets.
    pub rows_loaded: u64,
    /// Feed-frame bytes out of the encoder and into the decoder.
    pub frame_bytes: u64,
    /// One op's feeds as XML text, for the columnar size ratio.
    pub text_bytes: u64,
    /// Message bytes through HTTP and chunk framing, both ways.
    pub framed_bytes: u64,
    /// Bytes handed to `Link::transmit`.
    pub wire_bytes: u64,
    pub chunks: u64,
    pub patch_bytes: u64,
    pub patch_steps: u64,
    /// Frame bytes a full ship of the patched rounds would have encoded.
    pub full_bytes: u64,
    /// Bytes through the XML parser alone.
    pub parsed_bytes: u64,
}

pub struct Replayer<'a> {
    schema: &'a SchemaTree,
    format: WireFormat,
    lanes: usize,
    policy: ShippingPolicy,
    batch_rows: usize,
    link: Link,
    store: SnapshotStore,
    encode_buf: Vec<u8>,
    frame_buf: Vec<u8>,
    pub counts: Counts,
}

struct NoHandler;
impl xdx_xml::sax::Handler for NoHandler {}

impl<'a> Replayer<'a> {
    pub fn new(schema: &'a SchemaTree, format: WireFormat, lanes: usize) -> Replayer<'a> {
        let config = RuntimeConfig::default();
        Replayer {
            schema,
            format,
            lanes,
            policy: config.shipping,
            batch_rows: config.batch_rows,
            link: Link::new(NetworkProfile::lan()).with_recording(false),
            store: SnapshotStore::new(),
            encode_buf: Vec::new(),
            frame_buf: Vec::new(),
            counts: Counts::default(),
        }
    }

    fn exchange_of(&self, shape: &Shape) -> DataExchange<'a> {
        DataExchange::new(
            self.schema,
            shape.source_frag.clone(),
            shape.target_frag.clone(),
        )
        .with_wire_format(self.format)
    }

    /// Optimizes the program as the runtime would for this fan-out.
    fn plan(
        &self,
        exchange: &DataExchange<'_>,
        model: &xdx_core::CostModel,
    ) -> Result<Program, String> {
        let planned = if self.lanes <= 1 {
            exchange.plan(model)
        } else {
            let gen = xdx_core::gen::Generator::new(
                self.schema,
                &exchange.source_frag,
                &exchange.target_frag,
            );
            xdx_core::greedy::greedy_program(&gen, model)
                .and_then(|p| xdx_core::ksite_greedy(self.schema, model, &p, self.lanes))
        };
        planned
            .map(|(program, _)| program)
            .map_err(|e| e.to_string())
    }

    /// Chunks `message`, frames, transmits and verifies every chunk on
    /// each lane, and returns the message as reassembled at the far end.
    fn ship(
        &mut self,
        rec: &mut Recorder,
        op: u64,
        seq: u64,
        label: &str,
        message: &[u8],
    ) -> Result<Vec<u8>, String> {
        let chunk_bytes = self.policy.chunk_bytes.max(1);
        let total = message.len().div_ceil(chunk_bytes).max(1);
        let mut assembled = Vec::new();
        for lane in 0..self.lanes {
            assembled.clear();
            for (index, chunk) in message.chunks(chunk_bytes).enumerate() {
                let (frame_buf, link) = (&mut self.frame_buf, &mut self.link);
                rec.span("net.frame", op, |_| {
                    frame_chunk_into(frame_buf, op, seq, index, total, chunk)
                });
                let (_, delivered) =
                    rec.span("net.transmit", op, |_| link.transmit(label, frame_buf));
                let frame = rec
                    .span("net.frame", op, |_| ChunkFrame::decode(&delivered))
                    .ok_or_else(|| format!("lane {lane}: chunk {index} of {label} damaged"))?;
                assembled.extend_from_slice(&frame.payload);
                self.counts.wire_bytes += frame_buf.len() as u64;
                self.counts.chunks += 1;
            }
            self.counts.framed_bytes += 2 * message.len() as u64;
        }
        Ok(assembled)
    }

    /// Files the executor's own operator samples as child spans, so the
    /// phase's self time is what the operators do not explain.
    fn file_ops(rec: &mut Recorder, op: u64, outcome: &ExecOutcome, from: usize) {
        for sample in &outcome.op_samples[from..] {
            let name = match sample.op {
                "Scan" => "core.scan",
                "Combine" => "core.combine",
                "Split" => "core.split",
                "Write" => "core.write",
                "Commit" => "relational.commit",
                "Index" => "relational.index",
                _ => "core.op",
            };
            rec.child(name, op, sample.started, sample.wall);
        }
    }

    /// One full exchange of `shape`, as `Runtime::submit` (one lane) or
    /// `Runtime::publish` (several) carries it out. Returns one target
    /// per lane.
    pub fn exchange(
        &mut self,
        rec: &mut Recorder,
        op: u64,
        shape: &Shape,
        doc_bytes: usize,
    ) -> Result<Vec<Database>, String> {
        let mut source = shape.source.clone();
        let exchange = self.exchange_of(shape);
        let (sf, tf) = (&shape.source_frag, &shape.target_frag);
        let first = self.counts.ops == 0;
        let targets = rec.span(ROOT, op, |rec| -> Result<Vec<Database>, String> {
            let model = rec
                .span("core.probe", op, |_| exchange.probe(&source))
                .map_err(|e| e.to_string())?;
            let program = rec.span("core.plan", op, |_| self.plan(&exchange, &model))?;
            let (phase, mut outcome) = rec
                .span("core.exec_source", op, |rec| {
                    let ran =
                        execute_source_phase(self.schema, sf, tf, &program, &mut source, None);
                    if let Ok((_, outcome)) = &ran {
                        Self::file_ops(rec, op, outcome, 0);
                    }
                    ran
                })
                .map_err(|e| e.to_string())?;

            // One frame per batch, in consumer order, as the pipelined
            // path numbers them.
            let mut delivered: HashMap<PortRef, Feed> = HashMap::new();
            let mut seq = 0u64;
            for port in &phase.cross_ports {
                let feed = phase
                    .feeds
                    .get(&port.port)
                    .ok_or_else(|| format!("no feed on cross port {:?}", port.port))?;
                for batch in feed_batches(feed, self.batch_rows) {
                    let (buf, format) = (&mut self.encode_buf, self.format);
                    let (encode, decode) = match format {
                        WireFormat::Xml => ("codec.xml.encode", "codec.xml.decode"),
                        WireFormat::Columnar => ("codec.columnar.encode", "codec.columnar.decode"),
                    };
                    let len = rec.span(encode, op, |_| encode_in_format_into(buf, &batch, format));
                    self.counts.frame_bytes += len as u64;
                    let message = rec.span("net.frame", op, |_| {
                        Request::soap_post("/exchange", &port.label, buf.clone()).to_bytes()
                    });
                    let arrived = self.ship(rec, op, seq, &port.label, &message)?;
                    let request = rec
                        .span("net.frame", op, |_| Request::parse(&arrived))
                        .map_err(|e| e.to_string())?;
                    let decoded = rec
                        .span(decode, op, |_| decode_any(&request.body))
                        .map_err(|e| e.to_string())?;
                    if first && format == WireFormat::Columnar {
                        // Untimed: the same batch as XML text, for the
                        // size ratio. The input repeats, so once is enough.
                        self.counts.text_bytes +=
                            encode_in_format_into(&mut Vec::new(), &batch, WireFormat::Xml) as u64;
                    }
                    match delivered.get_mut(&port.port) {
                        Some(feed) => feed.rows.extend(decoded.rows),
                        None => {
                            delivered.insert(port.port, decoded);
                        }
                    }
                    seq += 1;
                }
            }
            let mut targets = Vec::with_capacity(self.lanes);
            for lane in 0..self.lanes {
                let mut target = Database::new(format!("replay-{lane}"));
                rec.span("core.exec_target", op, |rec| {
                    let from = outcome.op_samples.len();
                    let ran = execute_target_phase(
                        self.schema,
                        sf,
                        tf,
                        &program,
                        &mut target,
                        &delivered,
                        &mut outcome,
                    );
                    Self::file_ops(rec, op, &outcome, from);
                    ran
                })
                .map_err(|e| e.to_string())?;
                targets.push(target);
            }
            // Every settled session records its tables as the next
            // snapshot of its route and fragmentation pair; a publish
            // group snapshots once and shares it.
            rec.span("delta.record", op, |_| {
                let tables: Snapshot = Arc::new(db_tables(&targets[0]));
                for lane in 0..self.lanes {
                    let route = format!("replay-{lane}:{}→{}", sf.name, tf.name);
                    self.store.record_shared(&route, Arc::clone(&tables));
                }
            });
            self.counts.rows_loaded += outcome.rows_loaded;
            Ok(targets)
        })?;
        self.counts.ops += 1;
        self.counts.doc_bytes += (doc_bytes * self.lanes) as u64;
        Ok(targets)
    }

    /// One publish&map of `shape`, step by step.
    pub fn pm(&mut self, rec: &mut Recorder, op: u64, shape: &Shape) -> Result<Database, String> {
        use xdx_core::{publish::publish, shred::shred};
        let mut source = shape.source.clone();
        let mut target = Database::new("replay");
        let (sf, tf) = (&shape.source_frag, &shape.target_frag);
        rec.span(ROOT, op, |rec| -> Result<(), String> {
            let published = rec
                .span("core.publish", op, |_| {
                    publish(self.schema, sf, &mut source)
                })
                .map_err(|e| e.to_string())?;
            self.counts.doc_bytes += published.xml.len() as u64;
            let message = rec.span("net.frame", op, |_| {
                Request::soap_post("/publish", "document", published.xml.into_bytes()).to_bytes()
            });
            rec.span("net.transmit", op, |_| {
                self.link.send("published document", &message)
            });
            self.counts.wire_bytes += message.len() as u64;
            self.counts.framed_bytes += 2 * message.len() as u64;
            let xml = rec.span("net.frame", op, |_| {
                Request::parse(&message)
                    .map_err(|e| e.to_string())
                    .and_then(|r| String::from_utf8(r.body).map_err(|e| e.to_string()))
            })?;
            let shredded = rec
                .span("core.shred", op, |_| shred(&xml, self.schema, tf))
                .map_err(|e| e.to_string())?;
            self.counts.rows_loaded += shredded.rows;
            rec.span("relational.load", op, |_| {
                tf.fragments
                    .iter()
                    .zip(shredded.feeds)
                    .try_for_each(|(frag, feed)| target.load(&frag.name, feed))
            })
            .map_err(|e| e.to_string())?;
            rec.span("relational.index", op, |_| target.build_all_key_indexes())
                .map_err(|e| e.to_string())?;
            Ok(())
        })?;
        self.counts.ops += 1;
        Ok(target)
    }

    /// The XML parser alone over `doc`, beside the replay: every
    /// workload's set-up parses its document, `pm_baseline` parses one
    /// per op.
    pub fn parse_probe(&mut self, rec: &mut Recorder, op: u64, doc: &str) -> Result<(), String> {
        rec.span(PROBE, op, |rec| {
            rec.span("xml.parse", op, |_| {
                xdx_xml::sax::drive(doc, &mut NoHandler)
            })
        })
        .map_err(|e| e.to_string())?;
        self.counts.parsed_bytes += doc.len() as u64;
        Ok(())
    }

    /// One resync round: `source` holds the churned document, `base`
    /// what the target holds at `base_version`. Follows the runtime's
    /// delta path — head feeds over a loopback, one-pass diff, Patch
    /// frame, transactional apply, snapshot — and returns the patched
    /// target with its tables, the next round's base.
    pub fn resync_round(
        &mut self,
        rec: &mut Recorder,
        op: u64,
        shape: &Shape,
        mut source: Database,
        doc_bytes: usize,
        (base, base_version): (&Snapshot, u64),
    ) -> Result<(Database, Snapshot), String> {
        let exchange = self.exchange_of(shape);
        let (sf, tf) = (&shape.source_frag, &shape.target_frag);
        let route = "replay-resync";
        let target = rec.span(ROOT, op, |rec| -> Result<Database, String> {
            let model = rec
                .span("core.probe", op, |_| exchange.probe(&source))
                .map_err(|e| e.to_string())?;
            let program = rec.span("core.plan", op, |_| self.plan(&exchange, &model))?;
            let mut head = Database::new("replay-head");
            let head_outcome = rec
                .span("delta.head_exec", op, |rec| {
                    let ran = execute_with_transport(
                        self.schema,
                        sf,
                        tf,
                        &program,
                        &mut source,
                        &mut head,
                        &mut LoopbackTransport::new(self.format),
                        None,
                    );
                    if let Ok(outcome) = &ran {
                        Self::file_ops(rec, op, outcome, 0);
                    }
                    ran
                })
                .map_err(|e| e.to_string())?;
            let patch = rec
                .span("delta.diff", op, |_| {
                    diff_snapshots(base, &db_tables(&head), base_version, base_version + 1)
                })
                .map_err(|e| e.to_string())?;
            let bytes = rec.span("codec.patch.encode", op, |_| {
                encode_patch(&patch, self.format)
            });
            let arrived = self.ship(rec, op, 0, "delta-patch", &bytes)?;
            let decoded = rec
                .span("codec.patch.decode", op, |_| decode_patch(&arrived))
                .map_err(|e| e.to_string())?;
            let mut target = Database::new("replay");
            let rows = rec
                .span("relational.stage_patch", op, |_| {
                    stage_patch(base, &decoded, &mut target).map(|_| target.commit_staged())
                })
                .map_err(|e| e.to_string())?;
            rec.span("relational.index", op, |_| target.build_all_key_indexes())
                .map_err(|e| e.to_string())?;
            rec.span("delta.record", op, |_| {
                self.store.record(route, db_tables(&target))
            });
            self.counts.rows_loaded += rows;
            self.counts.patch_bytes += bytes.len() as u64;
            self.counts.patch_steps += patch.step_count();
            self.counts.full_bytes += head_outcome.bytes_encoded;
            Ok(target)
        })?;
        self.counts.ops += 1;
        self.counts.doc_bytes += doc_bytes as u64;
        let tables = self
            .store
            .snapshot(route, self.store.head(route))
            .ok_or("the round's snapshot was not recorded")?;
        Ok((target, tables))
    }
}
