//! # xdx-wsdl — WSDL 1.1 subset, the fragmentation extension, and the
//! discovery agency's registry
//!
//! The paper's key interface idea: "WSDL needs to be extended with a notion
//! of fragmentation of the initial XML Schema". This crate provides:
//!
//! * [`model`] — the WSDL subset of Figure 1 (definitions, embedded XSD
//!   types, service/port/soap:address) with parse/serialize,
//! * [`fragmentation`] — the `<fragmentation>`/`<fragment>` extension
//!   elements of Section 3.1, rendered exactly like the paper's
//!   `T-fragmentation` example (nested element structure, ID/PARENT
//!   attribute declarations on each fragment root),
//! * [`registry`] — the discovery agency's store: systems register their
//!   WSDL descriptions and, optionally, their fragmentations (Step 1 of
//!   Figure 2); requesters look them up.
//!
//! Semantic interpretation of fragmentations (validity, mappings, program
//! generation) lives in `xdx-core`; this crate is deliberately syntax-only,
//! mirroring the paper's separation between the WSDL interface and the
//! middleware's optimizer.

#![forbid(unsafe_code)]

pub mod fragmentation;
pub mod model;
pub mod plumbing;
pub mod registry;

pub use fragmentation::{FragmentDecl, FragmentationDecl};
pub use model::{Port, Service, WsdlDefinition};
pub use plumbing::{Binding, Message, Operation, Plumbing, PortType};
pub use registry::{Registration, Registry};
