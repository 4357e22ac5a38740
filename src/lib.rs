//! # xdx — a web-services architecture for efficient XML data exchange
//!
//! A production-quality Rust reproduction of *Amer-Yahia & Kotidis, "A
//! Web-Services Architecture for Efficient XML Data Exchange" (ICDE
//! 2004)*: instead of publishing a full XML document at the source and
//! re-shredding it at the target (*publish&map*), the two systems register
//! **fragmentations** of the agreed-upon XML Schema through a WSDL
//! extension, and a middle-tier discovery agency compiles a cost-optimized
//! distributed **data-transfer program** over four primitive operations
//! (`Scan`, `Combine`, `Split`, `Write`).
//!
//! This facade crate re-exports the whole stack:
//!
//! * [`xml`] — XML parser/writer/DOM/DTD/schema-tree substrate
//! * [`relational`] — instrumented in-memory relational engine (feeds,
//!   joins, indexes, bulk loads)
//! * [`directory`] — LDAP-like directory store (the motivating example's
//!   provisioning target)
//! * [`net`] — simulated wide-area link, HTTP framing, SOAP envelopes
//! * [`wsdl`] — WSDL subset + the fragmentation extension + registry
//! * [`core`] — the paper's contribution: fragments, mappings, programs,
//!   cost model, optimal & greedy optimizers, executor, publish&map
//!   baseline
//! * [`xmark`] — the Figure-7 XMark workload generator
//! * [`sim`] — the Section-5.4 simulator
//! * [`runtime`] — multi-tenant exchange-session runtime: concurrent
//!   sessions, fault-tolerant chunked shipping, plan caching, metrics
//!
//! ## Quickstart
//!
//! ```
//! use xdx::core::DataExchange;
//! use xdx::net::{Link, NetworkProfile};
//! use xdx::relational::Database;
//!
//! // The agreed-upon schema and a generated document.
//! let schema = xdx::xmark::schema();
//! let doc = xdx::xmark::generate(xdx::xmark::GenConfig::sized(40_000));
//!
//! // The source stores MF (a table per element); the target wants LF.
//! let mf = xdx::xmark::mf(&schema);
//! let lf = xdx::xmark::lf(&schema);
//! let mut source = xdx::xmark::load_source(&doc, &schema, &mf).unwrap();
//! let mut target = Database::new("target");
//! let mut link = Link::new(NetworkProfile::internet_2004());
//!
//! // Plan + execute the optimized exchange.
//! let exchange = DataExchange::new(&schema, mf.clone(), lf.clone());
//! let (report, program) = exchange.run(&mut source, &mut target, &mut link).unwrap();
//! assert!(report.rows_loaded > 0);
//! assert!(program.op_counts().1 > 0); // combines ran
//! ```

#![forbid(unsafe_code)]

pub use xdx_core as core;
pub use xdx_directory as directory;
pub use xdx_net as net;
pub use xdx_relational as relational;
pub use xdx_runtime as runtime;
pub use xdx_sim as sim;
pub use xdx_wsdl as wsdl;
pub use xdx_xmark as xmark;
pub use xdx_xml as xml;
