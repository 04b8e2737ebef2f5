//! Shared helpers for the `ami-net` integration-test suite.
//!
//! Each test binary compiles this module separately and uses a
//! different subset, so unused-item lints are silenced here.
#![allow(dead_code)]

pub mod oracle;
pub mod schedule;
