//! # xdx-core — fragmented XML data exchange
//!
//! The primary contribution of Amer-Yahia & Kotidis (ICDE 2004): a
//! middle-tier architecture in which the source and target of an XML data
//! exchange register *fragmentations* of the agreed-upon XML Schema, and a
//! discovery agency compiles and optimizes a distributed *data-transfer
//! program* between them instead of shipping whole published documents.
//!
//! Module map (paper section in parentheses):
//!
//! * [`fragment`] — fragments, fragmentations, validity (Defs. 3.1–3.4)
//! * [`mapping`] — source↔target mappings and overlap *pieces* (Def. 3.5)
//! * [`program`] — data-transfer DAGs over `Scan`/`Combine`/`Split`/`Write`
//!   (Defs. 3.6–3.10)
//! * [`gen`] — program generation: G0 → G1 → combine orderings (§4.2)
//! * [`advisor`] — cost-driven fragmentation design (the paper's future
//!   work: "derive the best fragmentation for a system")
//! * [`cost`] — the cost model, system profiles, statistics (§4.1)
//! * [`optimal`] — exhaustive cost-based placement, `Cost_Based_Optim` (§4.2)
//! * [`greedy`] — greedy ordering + placement heuristics (§4.3)
//! * [`ksite`] — the multicast wire term and 1→N entry points into the
//!   two placers above; fanout is a [`cost`] model input (§6 future work)
//! * [`exec`] — the runtime: executes a placed program against real stores
//!   over a simulated link (§5.2)
//! * [`selection`] — parameterized services: argument-driven subsetting
//!   with selectivity-aware costing (§3.2, §4.1)
//! * [`derived`] — fragments computed by service calls, e.g. the
//!   `TotalMRCService` of §1.1
//! * [`publish`] — merge-and-tag XML publishing from feeds (§5.1, after \[6\])
//! * [`shred`] — SAX shredding of documents into fragment feeds (§5.1)
//! * [`pm`] — the publish&map baseline pipeline (§5.1)
//! * [`agency`] — the discovery agency's optimized end-to-end exchange
//!   orchestrator (§5.2), i.e. Figure 2's steps 1–4
//! * [`report`] — step-by-step timing breakdowns shared by both pipelines

#![forbid(unsafe_code)]

pub mod advisor;
pub mod agency;
pub mod cost;
pub mod derived;
pub mod error;
pub mod exec;
pub mod fragment;
pub mod gen;
pub mod greedy;
pub mod ksite;
pub mod mapping;
pub mod optimal;
pub mod pm;
pub mod program;
pub mod publish;
pub mod report;
pub mod selection;
pub mod shred;

pub use agency::{DataExchange, Optimizer};
pub use cost::{full_ship_wins, CostModel, SchemaStats, SystemProfile, PATCH_STEP_FACTOR};
pub use error::{Error, Result};
pub use exec::{
    cross_ports_in_consumer_order, execute_source_phase, execute_source_phase_streaming,
    execute_target_phase, feed_batches, CrossPort, ExecOutcome, LoopbackTransport, OpSample,
    SourcePhase, Transport,
};
pub use fragment::{Fragment, Fragmentation};
pub use ksite::{ksite_greedy, ksite_optimal, multicast_bytes, MULTICAST_LEG_FACTOR};
pub use mapping::Mapping;
pub use program::{Location, Op, OpNode, Program};
pub use report::{ExchangeReport, StepTimes};
pub use xdx_codec::WireFormat;
