//! # xdx-relational — in-memory relational substrate
//!
//! The paper's experiments run between two MySQL back-ends; this crate is
//! the equivalent substrate: an instrumented, in-memory relational engine
//! providing exactly the operations whose costs the paper measures —
//! sequential scans, primary-key/foreign-key joins (the implementation of
//! `Combine`), projections with duplicate elimination (`Split`), bulk loads
//! (`Write`) and index builds.
//!
//! Central to everything is the [`feed::Feed`]: a *sorted feed* in the sense
//! of XPERANTO / Fernández-Morishima-Suciu — a relation whose columns carry
//! element identifiers (Dewey paths) and leaf values, one row per (combined)
//! fragment instance, sorted in document order. Fragment instances in
//! `xdx-core` are represented as feeds, stored tables are materialized
//! feeds, and the wire format of a shipped fragment is a serialized feed.
//!
//! All operators update [`stats::Counters`], the probe interface the
//! middleware uses for cost estimation (paper Section 4.1: "the middle-ware
//! probes underlying systems for collecting estimates").

#![forbid(unsafe_code)]

pub mod db;
pub mod error;
pub mod feed;
pub mod index;
pub mod ops;
pub mod patch;
pub mod stats;
pub mod storage;
pub mod sum;
pub mod table;
pub mod value;

pub use db::Database;
pub use error::{Error, Result};
pub use feed::{ColRole, Feed, FeedColumn, FeedSchema, RowSlice, Rows, RowsId};
pub use index::Index;
pub use patch::{apply_table_patch, stage_patch, DeltaPatch, PatchStep, StepKind, TablePatch};
pub use stats::Counters;
pub use sum::word_sum;
pub use table::Table;
pub use value::{Dewey, Text, Value};
