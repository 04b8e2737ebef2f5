//! The power–information graph: the keynote's central analytical device.
//!
//! Aarts & Roovers locate every ambient-intelligence technology on a plane
//! whose x-axis is the information rate a device handles and whose y-axis
//! is the power it burns doing so. Three observations structure the plane:
//!
//! 1. devices cluster into **three power classes** ([`PowerClass`]) —
//!    autonomous µW-nodes, personal mW-nodes and static W-nodes;
//! 2. at equal information rate, devices differ by orders of magnitude in
//!    **efficiency** (bits per joule) depending on how much of their work
//!    is communication, computation or interface ([`DeviceKind`]);
//! 3. a **Pareto frontier** ([`pareto_frontier`]) of best-efficiency
//!    devices bounds what silicon can do at each rate.
//!
//! # Example
//!
//! ```
//! use ami_power::{DeviceKind, DevicePoint, PowerClass, PowerInfoGraph};
//! use ami_units::{DataRate, Power};
//!
//! let mut graph = PowerInfoGraph::new();
//! graph.add(DevicePoint::new(
//!     "sensor node",
//!     DataRate::from_bits_per_second(200.0),
//!     Power::from_microwatts(80.0),
//!     DeviceKind::Communication,
//! ));
//! let pt = &graph.points()[0];
//! assert_eq!(pt.class(), PowerClass::MicroWatt);
//! ```

#![forbid(unsafe_code)]

pub mod class;
pub mod graph;
pub mod pareto;
pub mod portfolio;
pub mod scatter;

pub use class::PowerClass;
pub use graph::{DeviceKind, DevicePoint, PowerInfoGraph};
pub use pareto::pareto_frontier;
pub use portfolio::portfolio_2003;
pub use scatter::scatter_plot;
