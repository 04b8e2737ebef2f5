//! CMOS technology-node models for the Ambient Intelligence design space.
//!
//! The DATE 2003 keynote argues that all three ambient device classes —
//! µW autonomous, mW personal, W static — are "realized in Silicon IC
//! technologies", so every power number in the toolkit must be grounded in
//! a technology model. This crate provides:
//!
//! * [`TechnologyNode`] — circa-2003 process corners (250 nm … 65 nm) with
//!   supply, threshold, switched capacitance, leakage and density numbers;
//! * dynamic and subthreshold-leakage power models
//!   ([`TechnologyNode::dynamic_power`], [`TechnologyNode::leakage_power`]);
//! * voltage–frequency scaling via the alpha-power law
//!   ([`TechnologyNode::frequency_at`]), the physical basis for DVS;
//! * a scaling [`Roadmap`] to project one design across nodes; and
//! * the intrinsic computational efficiency bound ([`ice`]), the ceiling
//!   against which the ASIC/DSP/CPU flexibility gap is measured.
//!
//! # Example
//!
//! ```
//! use ami_tech::TechnologyNode;
//! use ami_units::Voltage;
//!
//! let n130 = TechnologyNode::n130();
//! // Halving Vdd quarters the dynamic energy per gate switch.
//! let e_full = n130.dynamic_energy_per_gate(n130.vdd_nominal());
//! let half = Voltage::new(n130.vdd_nominal().as_volts() / 2.0);
//! let e_half = n130.dynamic_energy_per_gate(half);
//! assert!((e_full.as_joules() / e_half.as_joules() - 4.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]

pub mod gating;
pub mod ice;
pub mod node;
pub mod scaling;
pub mod variation;

pub use gating::PowerGate;
pub use ice::{intrinsic_efficiency, intrinsic_energy_per_op, GATE_SWITCHES_PER_OP};
pub use node::{LeakageModel, TechnologyNode};
pub use scaling::{DesignPoint, Roadmap, ScalingStep};
pub use variation::{DieSample, VariationModel};
