//! Helpers shared by the runtime's integration tests. Each test binary
//! compiles its own copy and uses part of it.
#![allow(dead_code)]

pub mod oracle;
