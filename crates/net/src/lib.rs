//! Networks of ambient nodes: topology, routing and lifetime simulation.
//!
//! "Ambient intelligent functions are realized by a *network* of these
//! devices" — this crate evaluates such networks of µW-class nodes
//! reporting to a mains-powered sink:
//!
//! * [`Topology`] — grid, uniform-random and star node layouts;
//! * [`RoutingStrategy`] — direct-to-sink versus minimum-energy multi-hop
//!   (Dijkstra on the first-order radio energy metric);
//! * [`GatherSession`] — round-based data gathering that charges
//!   every transmit, relay and idle-listening joule against each node's
//!   energy budget and reports delivered information, network lifetime
//!   and the energy cost per delivered bit (experiments F6/A3);
//! * [`LossySession`] — the same rounds over lossy links with
//!   stop-and-wait retransmission (experiment F13);
//! * the sessions are the one way to run a round. Both run on a
//!   crate-private round core that keeps the route cache warm across
//!   runs and resets the fault state per run; each run takes an exogenous
//!   [`ami_sim::fault::FaultSchedule`] (node death, outages, link
//!   outages, capacity fade; routing re-resolves around downed nodes
//!   and fault losses are attributed to the `dropped_fault` counter
//!   cause) and an [`ami_sim::obs`] recorder (an energy ledger and
//!   packet counters for per-category attribution and run manifests,
//!   or nothing at zero cost); [`simulate_gathering`] and
//!   [`simulate_lossy_gathering`] are one fault-free, unrecorded run on
//!   a fresh session;
//! * [`replicate_gathering_observed`] — one fresh gathering session
//!   per seeded topology under its seed's fault schedule, on the
//!   parallel runner, merged in seed order;
//! * every round runs on the calling thread, and only replicated
//!   studies use more than one worker. Gathering rounds run on the
//!   serial aggregated kernel ([`agg`]). A lossy round is one walk that
//!   offers its sources in heavy-path image order and folds their
//!   energy back in ascending id from one slot per position (the lossy
//!   kernel draws per-packet counter randomness via
//!   [`ami_sim::rng::packet_rng`], so walk order cannot change a draw);
//!   [`par_serial_fallback_count`] counts lossy session runs and
//!   [`par_engaged_count`] reads 0.
//!
//! # Example
//!
//! ```
//! use ami_net::{simulate_gathering, NetworkConfig, RoutingStrategy, Topology};
//! use ami_units::Length;
//!
//! let topo = Topology::grid(4, Length::from_meters(20.0));
//! let report = simulate_gathering(
//!     &topo, RoutingStrategy::MinimumEnergy, &NetworkConfig::sensor_default(), 100,
//! );
//! assert_eq!(report.delivered_packets, 100 * (topo.len() as u64 - 1));
//! ```

#![forbid(unsafe_code)]

pub mod agg;
pub mod aggregate;
pub mod cluster;
pub mod csr;
pub mod gather;
pub mod lossy;
pub mod replicate;
mod round;
pub mod routing;
pub mod topology;

pub use agg::{
    agg_engaged_count, agg_fallback_count, aggregated_rounds_enabled, reset_agg_counters,
    set_aggregated_rounds,
};
pub use aggregate::{analyze_aggregation, AggregationReport};
pub use cluster::{simulate_clustered, ClusterConfig, ClusterReport};
pub use csr::{CsrAdjacency, HopWeights};
pub use gather::{simulate_gathering, GatherSession, NetworkConfig, NetworkReport};
pub use lossy::{
    par_engaged_count, par_serial_fallback_count, simulate_lossy_gathering, LossyConfig,
    LossyReport, LossySession,
};
pub use replicate::{replicate_gathering_observed, summarize_reports};
pub use routing::{build_routes, RouteCache, RoutingStrategy};
pub use topology::{NodeId, Position, Topology};
