//! Energy sources and storage for Ambient Intelligence devices.
//!
//! The keynote's device taxonomy is, at heart, an *energy-source* taxonomy:
//!
//! * the **autonomous µW-node** lives on scavenged ambient energy
//!   ([`Harvester`]) buffered in a small store ([`Storage`]);
//! * the **personal mW-node** lives on a battery ([`Battery`]) that must
//!   last days-to-weeks;
//! * the **static W-node** is mains-powered ([`Mains`]) and limited by
//!   thermal budget instead.
//!
//! This crate models all three, plus the power-management unit
//! ([`Pmu`]) that sits between source and load, and day-scale
//! [`EnvironmentProfile`]s to drive harvesting simulations.
//!
//! # Example
//!
//! ```
//! use ami_energy::{Battery, BatteryModel, Chemistry};
//! use ami_units::Power;
//!
//! let cell = Battery::new(Chemistry::LiCoin, BatteryModel::Linear);
//! let life = cell.lifetime_under(Power::from_microwatts(100.0));
//! assert!(life.as_days() > 200.0); // a CR2032 holds ~0.7 Wh
//! ```

#![forbid(unsafe_code)]

pub mod battery;
pub mod budget;
pub mod environment;
pub mod harvester;
pub mod kibam;
pub mod pmu;
pub mod storage;

pub use battery::{Battery, BatteryModel, Chemistry};
pub use budget::{
    simulate_buffered_harvesting, simulate_buffered_harvesting_report, BufferTrace,
    SustainabilityReport,
};
pub use environment::{EnvironmentProfile, EnvironmentSample};
pub use harvester::{Harvester, Mains};
pub use kibam::KineticBattery;
pub use pmu::Pmu;
pub use storage::Storage;
