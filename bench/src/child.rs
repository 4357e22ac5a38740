//! One workload in one process: the untraced run that yields the
//! end-to-end metrics, and the traced run that yields the per-layer
//! ones. `run` and `trace` start one such child per workload, so
//! `peak_rss_mb` and `setup_s` belong to one workload and allocator
//! state does not leak between them; the benchmark driver starts the
//! same children directly.

use crate::json::Json;
use crate::metrics::{median, peak_rss_mb, tail, MetricDef, END_TO_END, PER_LAYER};
use crate::replay::{self, Replayer};
use crate::spans::Recorder;
use crate::workloads::{
    churned, oracle, run_phase, same_data, setup, share_of, Inputs, Kind, Load, Phase, Spec,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use xdx_core::WireFormat;
use xdx_delta::{db_tables, Snapshot};
use xdx_runtime::RuntimeStats;

/// What a child hands back: the driver's result object, and the
/// ledger's extra fields next to it.
pub struct Outcome {
    pub failures: Vec<String>,
    pub attempted: usize,
    /// Metric name → value, in table order.
    pub values: Vec<(&'static MetricDef, f64)>,
    /// Free-form context for the ledger, an object: sample counts,
    /// spread, the tail percentile.
    pub detail: Json,
}

impl Outcome {
    /// The one-line object the benchmark contract asks for.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.failures.is_empty())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failures.len() as f64)),
            (
                "metrics",
                Json::obj(self.values.iter().map(|(def, value)| {
                    (
                        def.name,
                        Json::obj([("value", Json::Num(*value)), ("unit", Json::str(def.unit))]),
                    )
                })),
            ),
        ])
    }

    pub fn detail_line(&self) -> Json {
        let mut detail = self.detail.clone();
        detail.set(
            "failures",
            Json::Arr(self.failures.iter().map(Json::str).collect()),
        );
        detail
    }
}

/// Failures the counters reveal after the loop: a retried chunk on a
/// healthy link, or a publish lane that fell off the shared frames.
fn counter_failures(stats: &RuntimeStats) -> Vec<String> {
    [
        ("chunks_retried", stats.chunks_retried),
        ("multicast_encode_fallback", stats.multicast_encode_fallback),
        ("delta_full_fallbacks", stats.delta_full_fallbacks),
        ("failed sessions", stats.failed),
    ]
    .iter()
    .filter(|(_, n)| *n > 0)
    .map(|(what, n)| format!("runtime counted {n} {what} on healthy links"))
    .collect()
}

/// Set-ups per untraced run; `setup_s` is their median. The benchmark
/// contract asks for several set-ups in a run, so that one slow start
/// does not set the value.
const SETUP_REPEATS: usize = 3;

/// The untraced run: set up, then measure one closed-loop phase of
/// `ops` ops.
pub fn measure(spec: &Spec, seed: u64, ops: usize) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut load: Option<Box<dyn Load>> = None;
    for _ in 0..SETUP_REPEATS {
        // Shut the previous runtime down first: two alive at once
        // would double the peak.
        drop(load.take());
        let began = Instant::now();
        load = Some(setup(spec, seed, true)?);
        setups.push(began.elapsed().as_secs_f64());
    }
    let load = load.expect("SETUP_REPEATS is at least 1");
    let phase = run_phase(load.as_ref(), spec.clients, ops, None);
    let mut failures = phase.failures.clone();
    if let Some(runtime) = load.runtime() {
        failures.extend(counter_failures(&runtime.stats()));
    }
    drop(load);
    if phase.records.is_empty() {
        failures.push("no op completed".into());
        return Ok(Outcome {
            failures,
            attempted: phase.attempted().max(1),
            values: Vec::new(),
            detail: Json::Obj(Vec::new()),
        });
    }

    let (mb_per_s, spread) = phase.mb_per_s();
    let wire: u64 = phase.records.iter().map(|r| r.wire_bytes).sum();
    let value_of = |name: &str| match name {
        "setup_s" => median(&setups),
        "exchange_mb_per_s" => mb_per_s,
        "latency_p50_ms" => median(&phase.walls_ms()),
        "cpu_ms_per_doc_mb" => phase.cpu_ms_per_doc_mb(),
        "wire_bytes_per_doc_byte" => wire as f64 / phase.doc_bytes() as f64,
        "peak_rss_mb" => peak_rss_mb(),
        other => unreachable!("no measurement for end-to-end metric {other}"),
    };
    Ok(Outcome {
        values: END_TO_END
            .iter()
            .map(|def| (def, value_of(def.name)))
            .collect(),
        detail: Json::obj([
            ("ops", Json::Num(phase.records.len() as f64)),
            ("exchange_mb_per_s.spread", Json::Num(spread)),
            (
                "exchange_mb_per_s.blocks",
                Json::Arr(phase.block_rates().into_iter().map(Json::Num).collect()),
            ),
            (
                "rows_loaded",
                Json::Num(phase.records.iter().map(|r| r.rows_loaded).sum::<u64>() as f64),
            ),
            (
                "setups_s",
                Json::Arr(setups.iter().map(|s| Json::Num(*s)).collect()),
            ),
        ]),
        failures,
        attempted: phase.attempted(),
    })
}

/// The by-hand replay of one traced run, resumable between slices.
struct Replay<'a> {
    spec: &'a Spec,
    seed: u64,
    inputs: &'a Inputs,
    replayer: Replayer<'a>,
    /// Resync replays its own chain of rounds from the seed document —
    /// the same documents the timed rounds shipped, in the same order:
    /// the last round's document, the tables it left, their version.
    resync: Option<(String, Snapshot, u64)>,
    /// Ops replayed so far.
    op: usize,
}

impl<'a> Replay<'a> {
    fn new(spec: &'a Spec, seed: u64, inputs: &'a Inputs) -> Result<Replay<'a>, String> {
        let (format, lanes) = match spec.kind {
            Kind::Exchange { format, .. } => (format.unwrap_or_default(), 1),
            Kind::Fanout { subscribers } => (WireFormat::Columnar, subscribers),
            Kind::Resync => (WireFormat::Columnar, 1),
            Kind::Pm => (WireFormat::Xml, 1),
        };
        let mut replayer = Replayer::new(&inputs.schema, format, lanes);
        let resync = match spec.kind {
            Kind::Resync => {
                // The full first ship, outside the measured spans.
                let mut unrecorded = Recorder::new(Instant::now());
                let seeded = replayer.exchange(&mut unrecorded, 0, &inputs.shapes[0], 0)?;
                replayer.counts = replay::Counts::default();
                Some((inputs.doc.clone(), Arc::new(db_tables(&seeded[0])), 1))
            }
            _ => None,
        };
        Ok(Replay {
            spec,
            seed,
            inputs,
            replayer,
            resync,
            op: 0,
        })
    }

    /// Replays `ops` further ops, checking every replayed target
    /// against the oracle.
    fn run(&mut self, ops: usize, rec: &mut Recorder) -> Result<(), String> {
        for _ in 0..ops {
            let (op, id) = (self.op, self.op as u64);
            let shape = &self.inputs.shapes[op % self.inputs.shapes.len()];
            let off_oracle = |e: String| format!("replayed op {op}: {e}");
            match self.spec.kind {
                Kind::Exchange { .. } | Kind::Fanout { .. } => {
                    let doc = &self.inputs.doc;
                    for target in self.replayer.exchange(rec, id, shape, doc.len())? {
                        same_data(&target, &shape.oracle.target).map_err(off_oracle)?;
                    }
                    self.replayer.parse_probe(rec, id, doc)?;
                }
                Kind::Pm => {
                    let target = self.replayer.pm(rec, id, shape)?;
                    same_data(&target, &shape.oracle.target).map_err(off_oracle)?;
                    self.replayer.parse_probe(rec, id, &self.inputs.doc)?;
                }
                Kind::Resync => {
                    let (doc, base, version) = self.resync.take().expect("set in new");
                    let doc = churned(&doc, self.seed, id + 1);
                    let source =
                        xdx_xmark::load_source(&doc, &self.inputs.schema, &shape.source_frag)
                            .map_err(|e| e.to_string())?;
                    let want = oracle(
                        &self.inputs.schema,
                        &shape.source_frag,
                        &shape.target_frag,
                        &source,
                    );
                    let (target, tables) = self.replayer.resync_round(
                        rec,
                        id,
                        shape,
                        source,
                        doc.len(),
                        (&base, version),
                    )?;
                    same_data(&target, &want.target).map_err(off_oracle)?;
                    self.replayer.parse_probe(rec, id, &doc)?;
                    self.resync = Some((doc, tables, version + 1));
                }
            }
            self.op += 1;
        }
        Ok(())
    }
}

fn sum_self(times: &BTreeMap<&'static str, (u64, u64)>, names: &[&str]) -> f64 {
    names
        .iter()
        .filter_map(|n| times.get(n))
        .map(|(ns, _)| *ns as f64)
        .sum()
}

/// `num / den`, or 0 where the workload never crosses that boundary.
fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        // An empty f64 sum is -0.0; adding 0.0 prints it as 0.
        num / den + 0.0
    } else {
        0.0
    }
}

fn pct_slower(base: f64, other: f64) -> f64 {
    per((base - other) * 100.0, base)
}

/// Document MB per second of timed wall over several phases together.
fn rate(phases: &[Phase]) -> f64 {
    let bytes: f64 = phases.iter().map(|p| p.doc_bytes() as f64).sum();
    let client_seconds: f64 = phases
        .iter()
        .map(|p| p.walls_ms().iter().sum::<f64>() / 1e3 / p.clients as f64)
        .sum();
    per(bytes / 1e6, client_seconds)
}

/// The traced run. Phases, as shares of `ops`, each in two
/// alternating slices so that the box's drift hits both sides alike:
/// the closed loop untraced and with a harness span per op (0.2 each) —
/// their difference is the tracing overhead; then one client alone
/// (0.2), the op wall the replay is compared with, and the by-hand
/// replay (0.3). For `fleet_small` the same loop then runs against a
/// runtime with tracing and flight recorder off (0.2).
pub fn trace(
    spec: &Spec,
    seed: u64,
    ops: usize,
    out_dir: &std::path::Path,
) -> Result<Outcome, String> {
    let load = setup(spec, seed, true)?;
    let load = load.as_ref();
    let epoch = Instant::now();
    let stats_before = load.runtime().map(|r| r.stats());
    let (mut untraced, mut traced, mut solo) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..2 {
        untraced.push(run_phase(load, spec.clients, share_of(ops, 0.1), None));
        traced.push(run_phase(
            load,
            spec.clients,
            share_of(ops, 0.1),
            Some(epoch),
        ));
    }
    let mut failures = Vec::new();
    let mut replay_rec = Recorder::new(epoch);
    let mut replay = Replay::new(spec, seed, load.inputs())?;
    for _ in 0..2 {
        solo.push(run_phase(load, 1, share_of(ops, 0.1), None));
        if let Err(e) = replay.run(share_of(ops, 0.15), &mut replay_rec) {
            failures.push(e);
            break;
        }
    }
    let counts = replay.replayer.counts.clone();
    let stats = load.runtime().map(|r| r.stats());
    let critical = load.runtime().map(|r| r.critical_path());
    failures.extend(stats.iter().flat_map(counter_failures));
    let doc_len = load.inputs().doc.len() as f64;

    // Control arm: the same loop against a runtime that records nothing.
    let unobserved = match spec.name {
        "fleet_small" => {
            let dark = setup(spec, seed, false)?;
            Some(run_phase(
                dark.as_ref(),
                spec.clients,
                share_of(ops, 0.2),
                None,
            ))
        }
        _ => None,
    };

    let mut attempted = counts.ops as usize;
    for phase in untraced
        .iter()
        .chain(&traced)
        .chain(&solo)
        .chain(&unobserved)
    {
        failures.extend(phase.failures.iter().cloned());
        attempted += phase.attempted();
    }
    let mut rec = Recorder::new(epoch);
    for phase in &mut traced {
        rec.absorb(phase.spans.take().expect("the phase was traced"));
    }

    let layers = replay_rec.self_time_under(replay::ROOT);
    let probes = replay_rec.self_time_under(replay::PROBE);
    let inclusive = |name: &str| replay_rec.durations(name).iter().sum::<u64>() as f64;
    let replayed = counts.ops as f64;
    let rows = counts.rows_loaded as f64;
    let both: Vec<&crate::workloads::OpRecord> = untraced
        .iter()
        .chain(&traced)
        .flat_map(|p| &p.records)
        .collect();
    let solo_walls: Vec<f64> = solo.iter().flat_map(Phase::walls_ms).collect();
    let solo_ms = median(&solo_walls);
    let sessions: Vec<&xdx_runtime::SessionMetrics> =
        both.iter().flat_map(|r| &r.sessions).collect();
    let walls: Vec<f64> = both.iter().map(|r| r.wall.as_secs_f64() * 1e3).collect();
    let plan_hit_share = per(
        sessions.iter().filter(|s| s.plan_cache_hit).count() as f64,
        sessions.len() as f64,
    );
    // The layers' share of one op: every span under the replay root
    // but the root's own self time, which is harness glue. `core.plan`
    // is timed on every replay as the cost of a cache miss; an op pays
    // it as often as the runtime's sessions missed.
    let replayed_ns_per_op = per(
        layers
            .iter()
            .filter(|(name, _)| **name != replay::ROOT)
            .map(|(name, (ns, _))| match *name {
                "core.plan" => *ns as f64 * (1.0 - plan_hit_share),
                _ => *ns as f64,
            })
            .sum(),
        replayed,
    );
    let (tail_pct, tail_ms) = tail(&walls);
    let delta = |field: fn(&RuntimeStats) -> u64| match (&stats_before, &stats) {
        (Some(before), Some(after)) => (field(after) - field(before)) as f64,
        _ => 0.0,
    };
    // The `RuntimeStats` deltas span the closed-loop and the one-client
    // phases alike, so what they are divided by must too.
    let counted = || untraced.iter().chain(&traced).chain(&solo);
    let counted_doc_bytes: f64 = counted().map(|p| p.doc_bytes() as f64).sum();
    let counted_messages: f64 = counted()
        .flat_map(|p| &p.records)
        .flat_map(|r| &r.sessions)
        .map(|s| s.messages as f64)
        .sum();
    let multicast_shared_share = per(delta(|s| s.multicast_encode_shared), counted_messages);
    if multicast_shared_share > 1.0 {
        failures.push(format!(
            "runtime.multicast_shared_share is {multicast_shared_share}: more shared frames than messages"
        ));
    }
    let stage_total = |stage: &str| -> f64 {
        let at = xdx_trace::STAGES
            .iter()
            .position(|s| *s == stage)
            .expect("known stage");
        critical
            .iter()
            .flat_map(|c| &c.routes)
            .map(|r| r.stage_ns[at] as f64)
            .sum()
    };
    let traced_sessions: f64 = critical
        .iter()
        .flat_map(|c| &c.routes)
        .map(|r| r.sessions as f64)
        .sum();
    let value_of = |name: &str| -> f64 {
        let self_of = |names: &[&str]| sum_self(&layers, names);
        match name {
            "xml.parse_ns_per_byte" => per(
                sum_self(&probes, &["xml.parse"]),
                counts.parsed_bytes as f64,
            ),
            "core.publish_ns_per_byte" => per(self_of(&["core.publish"]), counts.doc_bytes as f64),
            "core.shred_ns_per_byte" => per(self_of(&["core.shred"]), counts.doc_bytes as f64),
            "core.probe_us_per_session" => per(self_of(&["core.probe"]) / 1e3, replayed),
            "core.plan_us_cold" => per(self_of(&["core.plan"]) / 1e3, replayed),
            "core.exec_source_ns_per_row" => per(inclusive("core.exec_source"), rows),
            "core.exec_target_ns_per_row" => per(inclusive("core.exec_target"), rows),
            "core.scan_ns_per_row" => per(self_of(&["core.scan"]), rows),
            "core.combine_ns_per_row" => per(self_of(&["core.combine"]), rows),
            "core.split_ns_per_row" => per(self_of(&["core.split"]), rows),
            "core.write_ns_per_row" => per(self_of(&["core.write"]), rows),
            "relational.load_ns_per_row" => per(
                self_of(&["core.write", "relational.commit", "relational.load"]),
                rows,
            ),
            "relational.index_ns_per_row" => per(self_of(&["relational.index"]), rows),
            "relational.stage_patch_ns_per_step" => per(
                self_of(&["relational.stage_patch"]),
                counts.patch_steps as f64,
            ),
            // The span is named after the format that ran; the other
            // format's span does not exist and reads 0.
            "codec.columnar.encode_ns_per_byte"
            | "codec.xml.encode_ns_per_byte"
            | "codec.columnar.decode_ns_per_byte"
            | "codec.xml.decode_ns_per_byte" => per(
                self_of(&[name.trim_end_matches("_ns_per_byte")]),
                counts.frame_bytes as f64,
            ),
            "codec.columnar.bytes_per_xml_byte" => per(
                per(counts.frame_bytes as f64, replayed),
                counts.text_bytes as f64,
            ),
            "codec.patch.encode_ns_per_byte" => {
                per(self_of(&["codec.patch.encode"]), counts.patch_bytes as f64)
            }
            "codec.patch.decode_ns_per_byte" => {
                per(self_of(&["codec.patch.decode"]), counts.patch_bytes as f64)
            }
            "net.frame_ns_per_byte" => per(self_of(&["net.frame"]), counts.framed_bytes as f64),
            "net.transmit_ns_per_byte" => per(self_of(&["net.transmit"]), counts.wire_bytes as f64),
            "net.chunks_per_mb" => per(counts.chunks as f64, counts.doc_bytes as f64 / 1e6),
            "delta.diff_ns_per_row" => per(self_of(&["delta.diff"]), rows),
            "delta.record_ns_per_row" => per(self_of(&["delta.record"]), rows),
            "delta.patch_bytes_per_full_byte" => {
                per(counts.patch_bytes as f64, counts.full_bytes as f64)
            }
            "runtime.queue_wait_p50_us" => median(
                &sessions
                    .iter()
                    .map(|s| s.queue_wait.as_secs_f64() * 1e6)
                    .collect::<Vec<_>>(),
            ),
            "runtime.planning_p50_us" => median(
                &sessions
                    .iter()
                    .map(|s| s.planning.as_secs_f64() * 1e6)
                    .collect::<Vec<_>>(),
            ),
            "runtime.plan_cache_hit_share" => plan_hit_share,
            // No runtime under `pm_baseline`: nothing to attribute.
            "runtime.overhead_us_per_session" | "runtime.latency_tail_ms" if stats.is_none() => 0.0,
            "runtime.overhead_us_per_session" => solo_ms * 1e3 - replayed_ns_per_op / 1e3,
            "runtime.latency_tail_ms" => tail_ms,
            "runtime.messages_serialized_per_session" => {
                per(delta(|s| s.messages_serialized), delta(|s| s.completed))
            }
            "runtime.bytes_encoded_per_doc_byte" => {
                per(delta(|s| s.bytes_encoded), counted_doc_bytes)
            }
            "runtime.chunks_retried" => delta(|s| s.chunks_retried),
            "runtime.multicast_shared_share" => multicast_shared_share,
            "runtime.multicast_encode_fallback" => delta(|s| s.multicast_encode_fallback),
            "trace.coverage" => per(
                critical
                    .iter()
                    .flat_map(|c| &c.sessions)
                    .map(|s| s.coverage)
                    .sum(),
                critical.as_ref().map_or(0.0, |c| c.sessions.len() as f64),
            ),
            "trace.runtime_overhead_pct" => unobserved.as_ref().map_or(0.0, |dark| {
                pct_slower(rate(std::slice::from_ref(dark)), rate(&untraced))
            }),
            "bench.replay_coverage" => per(replayed_ns_per_op / 1e6, solo_ms),
            "bench.trace_overhead_pct" => pct_slower(rate(&untraced), rate(&traced)),
            stage if stage.starts_with("trace.stage_ns_per_byte.") => per(
                stage_total(stage.trim_start_matches("trace.stage_ns_per_byte.")),
                traced_sessions * doc_len,
            ),
            other => unreachable!("no measurement for per-layer metric {other}"),
        }
    };
    let values: Vec<(&'static MetricDef, f64)> = PER_LAYER
        .iter()
        .map(|def| (def, value_of(def.name)))
        .collect();

    let head_exec_ns_per_row = per(inclusive("delta.head_exec"), rows);
    rec.absorb(replay_rec);
    let trace_file = out_dir.join(format!("trace-{}.jsonl", spec.name));
    rec.write_jsonl(&trace_file)
        .map_err(|e| format!("cannot write {}: {e}", trace_file.display()))?;

    Ok(Outcome {
        values,
        detail: Json::obj([
            ("replayed_ops", Json::Num(replayed)),
            ("rows_loaded_per_op", Json::Num(per(rows, replayed))),
            (
                "delta.head_exec_ns_per_row",
                Json::Num(head_exec_ns_per_row),
            ),
            ("latency_samples", Json::Num(walls.len() as f64)),
            ("runtime.latency_tail_ms.percentile", Json::Num(tail_pct)),
            ("latency_p50_ms.closed_loop", Json::Num(median(&walls))),
            ("latency_p50_ms.one_client", Json::Num(solo_ms)),
            (
                "latency_p50_ms.one_client.samples",
                Json::Num(solo_walls.len() as f64),
            ),
            ("spans", Json::Num(rec.spans.len() as f64)),
            ("span_file", Json::str(trace_file.display().to_string())),
        ]),
        failures,
        attempted: attempted.max(1),
    })
}
