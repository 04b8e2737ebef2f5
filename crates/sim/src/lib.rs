//! Deterministic discrete-event simulation kernel with energy accounting.
//!
//! Ambient-intelligence functions are realized by *networks* of devices,
//! so their evaluation needs an event-driven simulator. This kernel is
//! deliberately minimal and fully deterministic:
//!
//! * [`EventQueue`] — a time-ordered queue with FIFO tie-breaking by
//!   sequence number, so identical runs replay identically;
//! * [`EnergyMeter`] — per-device power-state tracking that integrates
//!   energy exactly between state changes and keeps a per-state
//!   breakdown, with states interned to [`StateId`]s so the hot path
//!   never touches a string;
//! * [`TraceSeries`] — a lightweight time-series recorder with summary
//!   statistics and an allocation-free summary-only mode;
//! * [`sim_rng`] — the sanctioned source of *sequential* randomness
//!   (a seeded [`rand::rngs::StdRng`]);
//! * [`rng`] — addressable *counter-based* randomness
//!   ([`rng::packet_rng`]) for kernels whose work items may execute in
//!   any order without changing results;
//! * [`runner`] — seed-partitioned parallel execution for independent
//!   work (replications, sweep grids) that is bit-exact with serial at
//!   any thread count (`AMBIENCE_THREADS` overrides the worker count);
//! * [`montecarlo`] — [`replicate`] runs a seeded experiment over the
//!   seed schedule of [`replication_seeds`] on the runner and
//!   [`summarize`]s the observable into a [`Summary`], the same at any
//!   worker count;
//! * [`obs`] — the observability layer: per-node energy ledgers,
//!   hierarchical packet counters and deterministic JSON run manifests,
//!   recorded through a zero-cost [`obs::Recorder`] hook;
//! * [`exact`] — exact stepping of serial f64 folds: `count` repeated
//!   adds in O(1) per binade crossed, bit-identical to the plain loop;
//! * [`fault`] — deterministic exogenous fault injection: explicit
//!   [`FaultSchedule`]s or seeded [`FaultModel`] draws (node death,
//!   outage/reboot, link outage, harvester brownout, capacity fade),
//!   parsed from the `AMBIENCE_FAULTS` spec by [`FaultSpec`].
//!
//! # Example
//!
//! ```
//! use ami_sim::EventQueue;
//! use ami_units::TimeSpan;
//!
//! let mut queue: EventQueue<&str> = EventQueue::new();
//! queue.schedule_in(TimeSpan::from_millis(2.0), "b");
//! queue.schedule_in(TimeSpan::from_millis(1.0), "a");
//! let (t, ev) = queue.pop().unwrap();
//! assert_eq!((ev, t.as_millis()), ("a", 1.0));
//! ```

#![forbid(unsafe_code)]

pub mod energy;
pub mod exact;
pub mod fault;
pub mod montecarlo;
pub mod obs;
pub mod queue;
pub mod rng;
pub mod runner;
pub mod trace;

pub use energy::{EnergyMeter, StateId};
pub use fault::{FaultEvent, FaultModel, FaultSchedule, FaultSpec, FAULTS_ENV};
pub use montecarlo::{replicate, replication_seeds, summarize, Summary};
pub use obs::{
    CounterTree, EnergyCategory, EnergyLedger, LedgerRecorder, NullRecorder, PacketCounters,
    Recorder, RunManifest, MANIFEST_ENV,
};
pub use queue::EventQueue;
pub use runner::{par_map_indexed, par_map_indexed_threads, thread_count};
pub use trace::TraceSeries;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The single sanctioned way to obtain randomness in simulations:
/// a seeded, portable [`StdRng`]. Two runs with the same seed produce
/// identical event streams.
pub fn sim_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn same_seed_same_stream() {
        let mut a = sim_rng(42);
        let mut b = sim_rng(42);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = sim_rng(1);
        let mut b = sim_rng(2);
        let same = (0..10)
            .filter(|_| a.random::<u64>() == b.random::<u64>())
            .count();
        assert!(same < 10);
    }
}
