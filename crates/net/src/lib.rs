//! # xdx-net — simulated transport, HTTP framing and SOAP envelopes
//!
//! The paper ships data "through TCP connections over the Internet" between
//! two machines in different US states, with services deployed "using the
//! SOAP 1.1 protocol over HTTP". This crate substitutes a deterministic
//! model for that physical network:
//!
//! * [`channel`] — a [`channel::Link`] with a bandwidth/latency
//!   [`channel::NetworkProfile`] and one seeded [`channel::FaultProfile`];
//!   sending bytes yields an exact simulated transfer duration, what
//!   arrived, and a record for the communication-cost tables,
//! * [`http`] — minimal HTTP/1.1 request/response framing,
//! * [`soap`] — SOAP 1.1 envelopes wrapping service calls and payloads.
//!
//! Determinism matters: Table 3 of the paper compares communication times
//! across strategies, and the only thing that legitimately varies between
//! them is *how many bytes* each ships. The link model preserves exactly
//! that relationship.

#![forbid(unsafe_code)]

pub mod channel;
pub mod chunk;
pub mod endpoint;
pub mod http;
pub mod soap;

pub use channel::{BurstLoss, Delivery, FaultProfile, Link, NetworkProfile, TransferRecord};
pub use chunk::{frame_chunk, frame_chunk_into, ChunkFrame, ChunkView};
pub use endpoint::ServiceHost;
pub use soap::{SoapEnvelope, SoapFault};
