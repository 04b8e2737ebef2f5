//! Shared helpers for the `ami-net` integration-test suite.
//!
//! Each test binary compiles this module separately and uses a
//! different subset, so unused-item lints are silenced here.
#![allow(dead_code)]

pub mod oracle;
pub mod schedule;

use ami_net::set_par_min_nodes_per_worker;

/// Overrides this thread's lossy nodes-per-worker floor until dropped,
/// then restores the previous value, so a failing assertion cannot
/// leak the override into later tests on the thread.
pub struct ParFloor(Option<usize>);

impl ParFloor {
    pub fn set(min: Option<usize>) -> Self {
        Self(set_par_min_nodes_per_worker(min))
    }
}

impl Drop for ParFloor {
    fn drop(&mut self) {
        set_par_min_nodes_per_worker(self.0);
    }
}
