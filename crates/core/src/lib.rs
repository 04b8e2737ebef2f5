//! `ami-core` — the primary contribution: the Ambient Intelligence device
//! model and the keynote's three case studies, executable.
//!
//! Aarts & Roovers (DATE 2003) analyse the consequences of the Ambient
//! Intelligence vision for electronic devices by (1) mapping technologies
//! on a power–information graph, (2) deriving three device classes from
//! their power budgets — the autonomous **µW-node**, the personal
//! **mW-node** and the static **W-node** — and (3) walking through three
//! case studies of the IC design challenges each class faces. This crate
//! makes all three moves concrete:
//!
//! * [`AmbientDevice`] — a device as the keynote sees it: a power budget
//!   (composed from `ami-arch` components), an energy source, and an
//!   information rate; classified by [`PowerClass`](ami_power::PowerClass)
//!   and locatable on the [`PowerInfoGraph`](ami_power::PowerInfoGraph).
//! * [`class_table`] — the T1 device-class characteristics table, derived
//!   (not transcribed) from the models.
//! * [`case_studies`] — CS1 (energy-harvesting sensor node), CS2
//!   (battery-powered audio receiver), CS3 (mains media hub), each a
//!   parameterized, reproducible experiment.
//! * [`scenario`] — an assembled "ambient room" mixing all three classes.
//!
//! # Example
//!
//! ```
//! use ami_core::case_studies::cs1::{Cs1Config, run_cs1};
//!
//! let result = run_cs1(&Cs1Config::default());
//! // The default 4 cm² photovoltaic node is sustainable in an office.
//! assert!(result.sustainability.sustainable);
//! ```

#![forbid(unsafe_code)]

pub mod case_studies;
pub mod challenges;
pub mod class_table;
pub mod context;
pub mod design_space;
pub mod device;
pub mod scenario;

pub use challenges::{audit, Finding, Severity};
pub use class_table::{class_characteristics, ClassCharacteristics};
pub use context::{simulate_context_detection, ContextConfig, ContextReport};
pub use design_space::{cs1_frontier, explore_cs1, DesignCell};
pub use device::{AmbientDevice, EnergySource};
pub use scenario::{ambient_room, Scenario};
