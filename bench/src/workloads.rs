//! The six workloads: what each one runs, the closed loop that drives
//! it, and the publish&map oracle every output is checked against.
//!
//! Load shape, all workloads: closed loop — a client holds its handle
//! and waits for the result before it sends the next request — from one
//! process, against `RuntimeConfig::default().with_workers(2)`: links
//! unpaced, LAN profile, no faults, tracing and flight recorder on as
//! shipped. Only the wire format changes, where a workload says so.
//! The source database of an op is a clone of a pre-shredded one, made
//! outside the op's timed interval.

use crate::ledger::RUN_SECONDS;
use crate::metrics::{self, median};
use crate::spans::Recorder;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use xdx_core::pm::publish_and_map;
use xdx_core::{Fragmentation, WireFormat};
use xdx_net::{Link, NetworkProfile};
use xdx_relational::Database;
use xdx_runtime::{
    ExchangeRequest, PublishRequest, Runtime, RuntimeConfig, SessionMetrics, SessionResult,
    SessionState,
};
use xdx_xmark::GenConfig;
use xdx_xml::SchemaTree;

/// Worker threads of the runtime under test. Fixed, not scaled with
/// `nproc`: the numbers were sized on a 2-core box and the ledger
/// records `nproc` next to them.
pub const WORKERS: usize = 2;
/// Share of `<idescription>` texts rewritten between resync rounds.
pub const CHURN_PCT: u32 = 5;
/// Blocks the timed ops are split into; throughput and CPU per MB are
/// the median block's.
pub const BLOCKS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Most fragmented (24 tables) to least fragmented (3): all `Combine`.
    MfToLf,
    /// Least fragmented to most fragmented: all `Split`.
    LfToMf,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Runtime::submit` → `wait`, one route per client, alternating
    /// over `directions` by op index.
    Exchange {
        directions: &'static [Direction],
        format: Option<WireFormat>,
    },
    /// One route; every round churns the document and declares the
    /// version the previous round left at the target.
    Resync,
    /// `Runtime::publish` to this many subscribers.
    Fanout { subscribers: usize },
    /// `publish_and_map` called directly; no runtime.
    Pm,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub doc_bytes: usize,
    pub clients: usize,
    /// Timed ops of a full run: the issue's counts × 0.6, sized on a
    /// 2-core box to about `RUN_SECONDS` each.
    pub ops: usize,
    /// Untimed ops that fill the plan cache and the allocator; the
    /// first exchange of a process runs 1.3–4× slower than steady state.
    pub warmup: usize,
}

const MB: usize = 1_000_000;

pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "bulk_combine",
        why: "2.5 MB MF->LF columnar: per-byte work dominates (Combine joins, columnar codec, 3-table load); per-session runtime cost is under 2% of an op",
        kind: Kind::Exchange {
            directions: &[Direction::MfToLf],
            format: Some(WireFormat::Columnar),
        },
        doc_bytes: 5 * MB / 2,
        clients: 2,
        ops: 72,
        warmup: 4,
    },
    Spec {
        name: "bulk_split",
        why: "2.5 MB LF->MF XML text: the same layers the other way (Split, text codec, 24 tables indexed); a gain for one direction or format that costs the other shows here",
        kind: Kind::Exchange {
            directions: &[Direction::LfToMf],
            format: Some(WireFormat::Xml),
        },
        doc_bytes: 5 * MB / 2,
        clients: 2,
        ops: 60,
        warmup: 4,
    },
    Spec {
        name: "fleet_small",
        why: "20 KB docs, alternating directions, default format: per-session work dominates (admission, fair queue, plan-cache hit, lanes, ledger, settle, rings); the one workload with a p99",
        kind: Kind::Exchange {
            directions: &[Direction::MfToLf, Direction::LfToMf],
            format: None,
        },
        doc_bytes: 20_000,
        clients: 2,
        ops: 4800,
        warmup: 200,
    },
    Spec {
        name: "resync_delta",
        why: "500 KB doc, 5% churn per round, with_base_version: the delta path (diff, Patch codec, stage_patch, snapshot retention) that bypasses bulk encode/decode",
        kind: Kind::Resync,
        doc_bytes: MB / 2,
        clients: 1,
        ops: 180,
        warmup: 5,
    },
    Spec {
        name: "fanout_publish",
        why: "1->4 publish of 500 KB MF->LF columnar: k-site plan, encode-once shared frames, decode-once, per-lane clone and settle; waits for the slowest of four lanes",
        kind: Kind::Fanout { subscribers: 4 },
        doc_bytes: MB / 2,
        clients: 1,
        ops: 180,
        warmup: 5,
    },
    Spec {
        name: "pm_baseline",
        why: "publish_and_map on 2.5 MB MF->LF, no runtime: XML writer and parser, publish tagging and shred do the work; the only workload where an XML-layer change shows end to end",
        kind: Kind::Pm,
        doc_bytes: 5 * MB / 2,
        clients: 1,
        ops: 90,
        warmup: 3,
    },
];

impl Spec {
    /// The timed ops of a run asked to measure for `seconds`: a fixed
    /// count, not a duration, so that counts repeat exactly — `ops`
    /// scaled from the `RUN_SECONDS` it was sized for.
    pub fn ops_for(&self, seconds: f64) -> usize {
        ((self.ops as f64 * seconds / RUN_SECONDS).round() as usize).max(1)
    }
}

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The share `share` of `ops`, at least one op: the traced run's phases.
pub fn share_of(ops: usize, share: f64) -> usize {
    ((ops as f64 * share) as usize).max(1)
}

/// One document shredded under one source fragmentation, with what
/// publish&map lands for it at the target.
pub struct Shape {
    pub source_frag: Fragmentation,
    pub target_frag: Fragmentation,
    pub source: Database,
    pub oracle: Oracle,
}

pub struct Oracle {
    pub target: Database,
    pub rows_loaded: u64,
}

/// Runs publish&map for `doc` and keeps its target.
pub fn oracle(
    schema: &SchemaTree,
    source_frag: &Fragmentation,
    target_frag: &Fragmentation,
    source: &Database,
) -> Oracle {
    let mut target = Database::new("oracle");
    let report = publish_and_map(
        schema,
        source_frag,
        target_frag,
        &mut source.clone(),
        &mut target,
        &mut Link::new(NetworkProfile::lan()).with_recording(false),
    )
    .expect("publish&map runs on a generated document");
    Oracle {
        target,
        rows_loaded: report.rows_loaded,
    }
}

/// True when `got` holds exactly the oracle's data: the same tables,
/// and per table the same rows under the same columns. Rows are put in
/// id order and columns matched by name first — Combine appends child
/// columns, so column order is not part of the contract.
pub fn same_data(got: &Database, want: &Database) -> Result<(), String> {
    if got.table_names() != want.table_names() {
        return Err(format!(
            "tables {:?}, oracle has {:?}",
            got.table_names(),
            want.table_names()
        ));
    }
    for name in want.table_names() {
        let sorted = |db: &Database| {
            let mut feed = db.table(name).expect("listed table").data.clone();
            if let Some(id) = feed.schema.root_id_col() {
                feed.sort_by(&[id]);
            }
            feed
        };
        let (a, b) = (sorted(got), sorted(want));
        if a.len() != b.len() {
            return Err(format!("{name}: {} rows, oracle {}", a.len(), b.len()));
        }
        for (bi, col) in b.schema.columns.iter().enumerate() {
            let ai = a
                .schema
                .columns
                .iter()
                .position(|c| c.display_name() == col.display_name())
                .ok_or_else(|| format!("{name}: column {} missing", col.display_name()))?;
            if let Some(row) = (0..b.len()).find(|&r| a.rows[r][ai] != b.rows[r][bi]) {
                return Err(format!(
                    "{name}.{} differs from the oracle at row {row}",
                    col.display_name()
                ));
            }
        }
    }
    Ok(())
}

/// The document of resync round `round`, from the one before it.
pub fn churned(prev: &str, seed: u64, round: u64) -> String {
    xdx_xmark::churn(
        prev,
        CHURN_PCT,
        seed.wrapping_mul(0x9E37_79B9).wrapping_add(round),
    )
}

/// Everything a workload generates from the seed before the runtime
/// starts. The program under test sees only these inputs.
pub struct Inputs {
    pub schema: SchemaTree,
    pub doc: String,
    pub shapes: Vec<Shape>,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let schema = xdx_xmark::schema();
        let doc = xdx_xmark::generate(GenConfig {
            target_bytes: spec.doc_bytes,
            seed,
        });
        let (mf, lf) = (xdx_xmark::mf(&schema), xdx_xmark::lf(&schema));
        let directions: &[Direction] = match spec.kind {
            Kind::Exchange { directions, .. } => directions,
            _ => &[Direction::MfToLf],
        };
        let shapes = directions
            .iter()
            .map(|d| {
                let (source_frag, target_frag) = match d {
                    Direction::MfToLf => (mf.clone(), lf.clone()),
                    Direction::LfToMf => (lf.clone(), mf.clone()),
                };
                let source = xdx_xmark::load_source(&doc, &schema, &source_frag)
                    .expect("generated document shreds");
                let oracle = oracle(&schema, &source_frag, &target_frag, &source);
                Shape {
                    source_frag,
                    target_frag,
                    source,
                    oracle,
                }
            })
            .collect();
        Inputs {
            schema,
            doc,
            shapes,
        }
    }
}

/// What one op did, as its client saw it.
pub struct OpDone {
    /// Submit → `wait()` return (pm: the call).
    pub wall: Duration,
    /// Document bytes made current at targets (fanout: doc × lanes).
    pub doc_bytes: u64,
    pub wire_bytes: u64,
    pub rows_loaded: u64,
    /// CPU the client thread itself spent inside `wall` (submitting; for
    /// pm the whole call).
    pub client_cpu_ns: u64,
    /// One per target (fanout: one per lane).
    pub targets: Vec<Database>,
    /// One per session (none for pm).
    pub sessions: Vec<SessionMetrics>,
}

/// A workload set up and warmed: the closed loop calls `op` from its
/// client threads.
pub trait Load: Sync {
    /// Runs op `index` on client `client`; `Err` names what failed.
    fn op(&self, index: usize, client: usize) -> Result<OpDone, String>;
    /// Checks the targets of op `index` against the oracle, table by table.
    fn verify(&self, index: usize, targets: &[Database]) -> Result<(), String>;
    fn runtime(&self) -> Option<&Runtime>;
    fn inputs(&self) -> &Inputs;
}

/// Runs the timed part of an op: its wall time, the CPU this thread
/// spent in it, and its result.
fn timed<R>(f: impl FnOnce() -> R) -> (Duration, u64, R) {
    let cpu = metrics::thread_cpu_ns();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed();
    (wall, metrics::thread_cpu_ns().saturating_sub(cpu), out)
}

/// The closed loop's unit: submit, hold the handle, wait.
fn submit_and_wait(runtime: &Runtime, request: ExchangeRequest) -> Result<SessionResult, String> {
    runtime
        .submit(request)
        .map(|handle| handle.wait())
        .map_err(|e| format!("refused at submit: {e}"))
}

fn done_session(
    result: SessionResult,
    oracle_rows: u64,
) -> Result<(Database, SessionMetrics), String> {
    if result.state != SessionState::Done {
        return Err(format!(
            "session ended {:?}: {}",
            result.state,
            result.diagnostic.unwrap_or_default()
        ));
    }
    if result.metrics.rows_loaded != oracle_rows {
        return Err(format!(
            "loaded {} rows, oracle {oracle_rows}",
            result.metrics.rows_loaded
        ));
    }
    let target = result.target.ok_or("Done session without a target")?;
    Ok((target, result.metrics))
}

struct ExchangeLoad {
    runtime: Runtime,
    inputs: Inputs,
}

impl Load for ExchangeLoad {
    fn op(&self, index: usize, client: usize) -> Result<OpDone, String> {
        let shape = &self.inputs.shapes[index % self.inputs.shapes.len()];
        let request = ExchangeRequest::new(
            format!("op-{index}"),
            shape.source.clone(),
            shape.source_frag.clone(),
            shape.target_frag.clone(),
        )
        .with_route(format!("src-{client}"), format!("dst-{client}"));
        let (wall, client_cpu_ns, result) = timed(|| submit_and_wait(&self.runtime, request));
        let (target, session) = done_session(result?, shape.oracle.rows_loaded)?;
        Ok(OpDone {
            wall,
            doc_bytes: self.inputs.doc.len() as u64,
            wire_bytes: session.bytes_shipped,
            rows_loaded: session.rows_loaded,
            client_cpu_ns,
            targets: vec![target],
            sessions: vec![session],
        })
    }

    fn verify(&self, index: usize, targets: &[Database]) -> Result<(), String> {
        let shape = &self.inputs.shapes[index % self.inputs.shapes.len()];
        same_data(&targets[0], &shape.oracle.target)
    }

    fn runtime(&self) -> Option<&Runtime> {
        Some(&self.runtime)
    }

    fn inputs(&self) -> &Inputs {
        &self.inputs
    }
}

struct ResyncLoad {
    runtime: Runtime,
    inputs: Inputs,
    seed: u64,
    /// The document the target holds and the round that produced it.
    /// One client, so the lock is never contended.
    state: Mutex<(String, u64)>,
}

impl ResyncLoad {
    fn head_version(&self) -> u64 {
        let shape = &self.inputs.shapes[0];
        self.runtime.feed_version(
            xdx_runtime::DEFAULT_SOURCE_ENDPOINT,
            xdx_runtime::DEFAULT_TARGET_ENDPOINT,
            &shape.source_frag.name,
            &shape.target_frag.name,
        )
    }
}

impl Load for ResyncLoad {
    fn op(&self, _index: usize, _client: usize) -> Result<OpDone, String> {
        let shape = &self.inputs.shapes[0];
        let mut state = self.state.lock().expect("resync client panicked");
        // The next round's document and source are made here, between
        // ops: holding every round's up front would put the harness's
        // memory, not the snapshot store's, into `peak_rss_mb`.
        let round = state.1 + 1;
        let doc = churned(&state.0, self.seed, round);
        let source = xdx_xmark::load_source(&doc, &self.inputs.schema, &shape.source_frag)
            .map_err(|e| format!("round {round} does not shred: {e}"))?;
        let request = ExchangeRequest::new(
            format!("round-{round}"),
            source,
            shape.source_frag.clone(),
            shape.target_frag.clone(),
        )
        .with_base_version(self.head_version());
        let (wall, client_cpu_ns, result) = timed(|| submit_and_wait(&self.runtime, request));
        let (target, session) = done_session(result?, shape.oracle.rows_loaded)?;
        if session.delta_patches_applied != 1 {
            return Err(format!(
                "round {round} shipped in full: {} chosen, {} fallbacks",
                session.delta_full_chosen, session.delta_full_fallbacks
            ));
        }
        let doc_bytes = doc.len() as u64;
        *state = (doc, round);
        Ok(OpDone {
            wall,
            doc_bytes,
            wire_bytes: session.bytes_shipped,
            rows_loaded: session.rows_loaded,
            client_cpu_ns,
            targets: vec![target],
            sessions: vec![session],
        })
    }

    /// Valid right after `op` returned: checks against publish&map of
    /// the document that round shipped.
    fn verify(&self, _index: usize, targets: &[Database]) -> Result<(), String> {
        let shape = &self.inputs.shapes[0];
        let state = self.state.lock().expect("resync client panicked");
        let source = xdx_xmark::load_source(&state.0, &self.inputs.schema, &shape.source_frag)
            .map_err(|e| e.to_string())?;
        let oracle = oracle(
            &self.inputs.schema,
            &shape.source_frag,
            &shape.target_frag,
            &source,
        );
        same_data(&targets[0], &oracle.target).map_err(|e| format!("round {}: {e}", state.1))
    }

    fn runtime(&self) -> Option<&Runtime> {
        Some(&self.runtime)
    }

    fn inputs(&self) -> &Inputs {
        &self.inputs
    }
}

struct FanoutLoad {
    runtime: Runtime,
    inputs: Inputs,
    subscribers: Vec<String>,
}

impl Load for FanoutLoad {
    fn op(&self, index: usize, _client: usize) -> Result<OpDone, String> {
        let shape = &self.inputs.shapes[0];
        let request = PublishRequest::new(
            format!("publish-{index}"),
            shape.source.clone(),
            shape.source_frag.clone(),
            shape.target_frag.clone(),
            self.subscribers.clone(),
        )
        .with_wire_format(WireFormat::Columnar);
        let (wall, client_cpu_ns, results) = timed(|| {
            self.runtime
                .publish(request)
                .map(|handle| handle.wait())
                .map_err(|e| format!("refused at publish: {e}"))
        });
        let mut done = OpDone {
            wall,
            doc_bytes: (self.inputs.doc.len() * self.subscribers.len()) as u64,
            wire_bytes: 0,
            rows_loaded: shape.oracle.rows_loaded,
            client_cpu_ns,
            targets: Vec::new(),
            sessions: Vec::new(),
        };
        for (lane, result) in results?.into_iter().enumerate() {
            let (target, session) = done_session(result, shape.oracle.rows_loaded)
                .map_err(|e| format!("lane {lane}: {e}"))?;
            done.wire_bytes += session.bytes_shipped;
            done.targets.push(target);
            done.sessions.push(session);
        }
        Ok(done)
    }

    fn verify(&self, _index: usize, targets: &[Database]) -> Result<(), String> {
        if targets.len() != self.subscribers.len() {
            return Err(format!(
                "{} of {} lanes",
                targets.len(),
                self.subscribers.len()
            ));
        }
        targets.iter().enumerate().try_for_each(|(lane, t)| {
            same_data(t, &self.inputs.shapes[0].oracle.target)
                .map_err(|e| format!("lane {lane}: {e}"))
        })
    }

    fn runtime(&self) -> Option<&Runtime> {
        Some(&self.runtime)
    }

    fn inputs(&self) -> &Inputs {
        &self.inputs
    }
}

struct PmLoad {
    inputs: Inputs,
}

impl Load for PmLoad {
    fn op(&self, _index: usize, _client: usize) -> Result<OpDone, String> {
        let shape = &self.inputs.shapes[0];
        let mut source = shape.source.clone();
        let mut target = Database::new("pm-target");
        let mut link = Link::new(NetworkProfile::lan()).with_recording(false);
        let (wall, client_cpu_ns, report) = timed(|| {
            publish_and_map(
                &self.inputs.schema,
                &shape.source_frag,
                &shape.target_frag,
                &mut source,
                &mut target,
                &mut link,
            )
        });
        let report = report.map_err(|e| e.to_string())?;
        if report.rows_loaded != shape.oracle.rows_loaded {
            return Err(format!(
                "loaded {} rows, oracle {}",
                report.rows_loaded, shape.oracle.rows_loaded
            ));
        }
        Ok(OpDone {
            wall,
            doc_bytes: self.inputs.doc.len() as u64,
            wire_bytes: report.bytes_shipped,
            rows_loaded: report.rows_loaded,
            client_cpu_ns,
            targets: vec![target],
            sessions: Vec::new(),
        })
    }

    fn verify(&self, _index: usize, targets: &[Database]) -> Result<(), String> {
        same_data(&targets[0], &self.inputs.shapes[0].oracle.target)
    }

    fn runtime(&self) -> Option<&Runtime> {
        None
    }

    fn inputs(&self) -> &Inputs {
        &self.inputs
    }
}

/// The configuration every runtime workload runs under. `observed`
/// off is the control arm of `trace.runtime_overhead_pct`.
pub fn runtime_config(spec: &Spec, observed: bool) -> RuntimeConfig {
    let config = RuntimeConfig::default()
        .with_workers(WORKERS)
        .with_tracing(observed)
        .with_flight_recorder(observed);
    match spec.kind {
        Kind::Exchange {
            format: Some(format),
            ..
        } => config.with_wire_format(format),
        Kind::Resync => config.with_wire_format(WireFormat::Columnar),
        _ => config,
    }
}

/// Generates the inputs, starts the runtime and runs the warm-up ops:
/// everything `setup_s` covers. Warm-up failures count like any other.
pub fn setup(spec: &Spec, seed: u64, observed: bool) -> Result<Box<dyn Load>, String> {
    let inputs = Inputs::generate(spec, seed);
    let start =
        |inputs: &Inputs| Runtime::start(inputs.schema.clone(), runtime_config(spec, observed));
    let load: Box<dyn Load> = match spec.kind {
        Kind::Exchange { .. } => Box::new(ExchangeLoad {
            runtime: start(&inputs),
            inputs,
        }),
        Kind::Resync => {
            let runtime = start(&inputs);
            // The full first ship every later round patches against.
            let shape = &inputs.shapes[0];
            let seed_ship = ExchangeRequest::new(
                "seed",
                shape.source.clone(),
                shape.source_frag.clone(),
                shape.target_frag.clone(),
            );
            submit_and_wait(&runtime, seed_ship)
                .and_then(|seeded| done_session(seeded, shape.oracle.rows_loaded))
                .map_err(|e| format!("seed ship: {e}"))?;
            let state = Mutex::new((inputs.doc.clone(), 0));
            Box::new(ResyncLoad {
                runtime,
                inputs,
                seed,
                state,
            })
        }
        Kind::Fanout { subscribers } => Box::new(FanoutLoad {
            runtime: start(&inputs),
            inputs,
            subscribers: (0..subscribers).map(|i| format!("sub-{i}")).collect(),
        }),
        Kind::Pm => Box::new(PmLoad { inputs }),
    };
    let warm = run_phase(load.as_ref(), spec.clients, spec.warmup, None);
    match warm.failures.first() {
        Some(failure) => Err(format!("warm-up {failure}")),
        None => Ok(load),
    }
}

/// One completed op of a phase.
pub struct OpRecord {
    pub index: usize,
    /// The block the op started in.
    pub block: usize,
    pub wall: Duration,
    /// CPU the client thread spent inside `wall`.
    pub client_cpu_ns: u64,
    pub doc_bytes: u64,
    pub wire_bytes: u64,
    pub rows_loaded: u64,
    pub sessions: Vec<SessionMetrics>,
}

/// What a closed-loop phase measured.
pub struct Phase {
    pub clients: usize,
    /// Completed ops in index order.
    pub records: Vec<OpRecord>,
    /// One line per failed op: refused, not `Done`, or off the oracle.
    pub failures: Vec<String>,
    /// On-CPU nanoseconds of the runtime's threads, read when the phase
    /// began, when each later block began, and when the phase ended.
    runtime_cpu_marks: Vec<u64>,
    /// One `op` span per op, when the phase was traced.
    pub spans: Option<Recorder>,
}

/// `(median, (max − min) / median)` of per-block values.
fn median_and_spread(values: &[f64]) -> (f64, f64) {
    let mid = median(values);
    let (lo, hi) = values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    (mid, if mid > 0.0 { (hi - lo) / mid } else { 0.0 })
}

impl Phase {
    pub fn attempted(&self) -> usize {
        self.records.len() + self.failures.len()
    }

    pub fn doc_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.doc_bytes).sum()
    }

    pub fn walls_ms(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| r.wall.as_secs_f64() * 1e3)
            .collect()
    }

    /// `f` over the ops of each block that completed any.
    fn per_block<'a>(&'a self, f: impl Fn(usize, &[&'a OpRecord]) -> f64) -> Vec<f64> {
        (0..BLOCKS)
            .filter_map(|block| {
                let ops: Vec<&OpRecord> =
                    self.records.iter().filter(|r| r.block == block).collect();
                (!ops.is_empty()).then(|| f(block, &ops))
            })
            .collect()
    }

    /// Document MB made current per second of timed wall, per block. A
    /// block's wall is its ops' timed intervals summed and divided by
    /// the client count, so input preparation between ops stays out.
    pub fn block_rates(&self) -> Vec<f64> {
        self.per_block(|_, ops| {
            let bytes: u64 = ops.iter().map(|r| r.doc_bytes).sum();
            let wall: f64 = ops.iter().map(|r| r.wall.as_secs_f64()).sum();
            bytes as f64 / 1e6 / (wall / self.clients as f64)
        })
    }

    /// The median block's MB/s, and (max − min) / median over the blocks.
    pub fn mb_per_s(&self) -> (f64, f64) {
        median_and_spread(&self.block_rates())
    }

    /// CPU milliseconds per document MB, the median block's: what the
    /// runtime's threads spent while the block ran plus what the
    /// clients spent inside its ops' timed intervals. Preparing inputs
    /// and checking targets is the harness's and stays out. A block,
    /// not the whole phase: a burst of interference that stalls one
    /// block must not set the value.
    pub fn cpu_ms_per_doc_mb(&self) -> f64 {
        let marks = &self.runtime_cpu_marks;
        median(&self.per_block(|block, ops| {
            // The last mark a block saw closes it: the next block's
            // start, or the phase's end.
            let end = marks[(block + 1).min(marks.len() - 1)];
            let runtime_ns = end.saturating_sub(marks[block.min(marks.len() - 1)]);
            let client_ns: u64 = ops.iter().map(|r| r.client_cpu_ns).sum();
            let bytes: u64 = ops.iter().map(|r| r.doc_bytes).sum();
            (runtime_ns + client_ns) as f64 / 1e6 / (bytes as f64 / 1e6)
        }))
    }
}

/// What one client thread brings back from a phase.
struct ClientRun {
    records: Vec<OpRecord>,
    failures: Vec<String>,
    spans: Option<Recorder>,
}

/// Drives `load` in a closed loop from `clients` threads for `ops`
/// ops, split into `BLOCKS` equal consecutive blocks. The first op and each client's last are checked
/// against the oracle table by table; every op is checked for state and
/// row count by the load itself. With `trace_epoch` set, each client
/// records one `op` span per op on that clock.
pub fn run_phase(
    load: &dyn Load,
    clients: usize,
    ops: usize,
    trace_epoch: Option<Instant>,
) -> Phase {
    let next = AtomicUsize::new(0);
    let cpu_marks = Mutex::new(vec![metrics::runtime_threads_cpu_ns()]);
    let per_client: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let (next, cpu_marks) = (&next, &cpu_marks);
                let run = move || {
                    let (mut records, mut failures) = (Vec::new(), Vec::new());
                    let mut spans = trace_epoch.map(Recorder::new);
                    let mut last: Option<(usize, Vec<Database>)> = None;
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= ops {
                            break;
                        }
                        let block = index * BLOCKS / ops;
                        {
                            // Whoever enters a block first marks its start.
                            let mut marks = cpu_marks.lock().expect("a client panicked");
                            while marks.len() <= block {
                                marks.push(metrics::runtime_threads_cpu_ns());
                            }
                        }
                        let outcome = match &mut spans {
                            Some(rec) => rec.span("op", index as u64, |_| load.op(index, client)),
                            None => load.op(index, client),
                        };
                        match outcome {
                            Ok(done) => {
                                let checked = if index == 0 {
                                    load.verify(index, &done.targets)
                                } else {
                                    Ok(())
                                };
                                match checked {
                                    Ok(()) => records.push(OpRecord {
                                        index,
                                        block,
                                        wall: done.wall,
                                        client_cpu_ns: done.client_cpu_ns,
                                        doc_bytes: done.doc_bytes,
                                        wire_bytes: done.wire_bytes,
                                        rows_loaded: done.rows_loaded,
                                        sessions: done.sessions,
                                    }),
                                    Err(e) => failures.push(format!("op {index}: {e}")),
                                }
                                last = Some((index, done.targets));
                            }
                            Err(e) => failures.push(format!("op {index}: {e}")),
                        }
                    }
                    if let Some((index, targets)) = last.filter(|(index, _)| *index != 0) {
                        if let Err(e) = load.verify(index, &targets) {
                            // The op was counted as completed; move it over.
                            records.retain(|r| r.index != index);
                            failures.push(format!("op {index}: {e}"));
                        }
                    }
                    ClientRun {
                        records,
                        failures,
                        spans,
                    }
                };
                // Named, so that the CPU marks can tell clients from
                // the runtime's threads.
                std::thread::Builder::new()
                    .name(metrics::CLIENT_THREAD.into())
                    .spawn_scoped(scope, run)
                    .expect("client thread starts")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut runtime_cpu_marks = cpu_marks.into_inner().expect("a client panicked");
    runtime_cpu_marks.push(metrics::runtime_threads_cpu_ns());
    let mut phase = Phase {
        clients,
        records: Vec::new(),
        failures: Vec::new(),
        runtime_cpu_marks,
        spans: trace_epoch.map(Recorder::new),
    };
    for run in per_client {
        phase.records.extend(run.records);
        phase.failures.extend(run.failures);
        if let (Some(all), Some(spans)) = (&mut phase.spans, run.spans) {
            all.absorb(spans);
        }
    }
    phase.records.sort_by_key(|r| r.index);
    phase.failures.sort();
    phase
}
