//! # xdx-xml — XML substrate for the XML data-exchange stack
//!
//! A from-scratch, dependency-free XML toolkit providing exactly what the
//! data-exchange middleware of Amer-Yahia & Kotidis (ICDE 2004) needs:
//!
//! * [`escape`] — text/attribute escaping and unescaping,
//! * [`parser`] — a non-validating pull parser producing [`event::Event`]s,
//! * [`sax`] — a SAX-style push driver over the pull parser (used by the
//!   shredder in `xdx-core`, mirroring the paper's use of expat),
//! * [`writer`] — a streaming, optionally pretty-printing writer (used by
//!   the merge-and-tag publisher),
//! * [`dom`] — a lightweight owned document tree for tests, examples and
//!   the WSDL layer,
//! * [`dtd`] — a parser for the DTD subset of the paper's Figure 7,
//! * [`schema`] — the *schema tree* model: XML Schemas viewed as trees
//!   (paper Section 3.1), the foundation for fragments and fragmentations.
//!
//! The paper treats XML Schemas and DTDs interchangeably as element trees;
//! [`schema::SchemaTree`] is the common target both [`dtd`] and the
//! XSD-subset reader in [`schema`] convert into.

#![forbid(unsafe_code)]

pub mod dom;
pub mod dtd;
pub mod error;
pub mod escape;
pub mod event;
pub mod parser;
pub mod sax;
pub mod schema;
pub mod writer;

pub use dom::{Document, Element, Node};
pub use error::{Error, Result};
pub use event::Event;
pub use parser::{Parser, MAX_DEPTH};
pub use schema::{NodeId, Occurs, SchemaNode, SchemaTree};
pub use writer::Writer;
