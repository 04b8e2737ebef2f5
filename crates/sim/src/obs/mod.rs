//! Structured, deterministic observability for simulation runs.
//!
//! Three layers, cheapest first:
//!
//! 1. **Recording** — hot loops are generic over [`Recorder`]; the
//!    default [`NullRecorder`] monomorphizes to nothing, and
//!    [`LedgerRecorder`] fills pre-sized tables with plain arithmetic.
//!    Round kernels charge energy per event and commit each round's
//!    packet tally once ([`Recorder::packets`]).
//! 2. **Aggregation** — [`EnergyLedger`] attributes every joule to a
//!    `(node, category)` cell with *unclamped* residuals (overdraft is
//!    reported, never hidden), and [`PacketCounters`] tallies every
//!    offered packet into delivered / dropped-dead-hop /
//!    dropped-disconnected / dropped-fault. A lossy run's manifest
//!    reports channel losses as the remainder: offered less delivered
//!    less the drops.
//! 3. **Emission** — [`RunManifest`] renders config, seed, runner
//!    policy, ledger totals and the [`CounterTree`] as deterministic
//!    JSON ([`to_json`]): fixed field order, shortest-roundtrip floats,
//!    byte-identical at any `AMBIENCE_THREADS`.
//!
//! Experiment binaries emit manifests when [`MANIFEST_ENV`]
//! (`AMBIENCE_MANIFEST`) is set: `-` → stdout, a path → written there.

#![deny(missing_docs)]

mod counters;
mod json;
mod ledger;
mod manifest;
mod recorder;

pub use counters::{CounterTree, PacketCounters};
pub use json::{json_f64, to_json};
pub use ledger::{EnergyCategory, EnergyLedger};
pub use manifest::{RunManifest, MANIFEST_ENV};
pub use recorder::{LedgerRecorder, NullRecorder, Recorder};
