//! Wireless-link models: the communication leg of the power–information
//! graph.
//!
//! The keynote's ambient functions are realized by *networks* of µW/mW/W
//! nodes, so the energy cost of moving a bit through the air is as central
//! as the cost of computing on it. This crate models that cost bottom-up:
//!
//! * [`pathloss`] — log-distance propagation and the dBm/watt bridge;
//! * [`modulation`] — BER versus Eb/N0 for the era's modulations;
//! * [`LinkBudget`] — closing a link: range, required transmit power;
//! * [`RadioEnergyModel`] — the first-order energy-per-bit model
//!   (`E_tx = e_elec + e_amp·dⁿ`, `E_rx = e_elec`) used throughout the
//!   sensor-network literature;
//! * [`Packet`] — framing overheads and airtime;
//! * [`mac`] — duty-cycled medium-access protocols (TDMA, CSMA,
//!   preamble sampling) with analytic average-power/latency models (T3).
//!
//! # Example
//!
//! ```
//! use ami_radio::{Packet, RadioEnergyModel};
//! use ami_units::{DataRate, Length};
//!
//! let radio = RadioEnergyModel::short_range_2003();
//! let pkt = Packet::sensor_report();
//! let e = radio.transmit_energy(pkt.total_bits(), Length::from_meters(10.0));
//! assert!(e.as_microjoules() < 50.0); // a 10 m sensor report is tens of µJ
//! ```

#![forbid(unsafe_code)]

pub mod contention;
pub mod energy_model;
pub mod link;
pub mod mac;
pub mod modulation;
pub mod packet;
pub mod pathloss;
pub mod reliability;

pub use contention::{
    collision_probability, pure_aloha_throughput, slotted_aloha_throughput, SharedChannel,
};
pub use energy_model::RadioEnergyModel;
pub use link::LinkBudget;
pub use mac::{
    CsmaMac, MacAnalysis, MacProtocol, PreambleSamplingMac, RadioPowerStates, TdmaMac, TrafficLoad,
};
pub use modulation::Modulation;
pub use packet::Packet;
pub use pathloss::PathLossModel;
pub use reliability::{analyze_reliability, FecScheme, ReliabilityReport, StopAndWaitArq};
