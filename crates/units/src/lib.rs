//! Physical-quantity newtypes for the `ambience` toolkit.
//!
//! Every quantity that flows through the power–information analysis of the
//! Ambient Intelligence design space (Aarts & Roovers, DATE 2003) is a
//! dedicated newtype wrapping an `f64` in SI base units. The type system
//! then enforces dimensional correctness: `Power * TimeSpan` yields
//! [`Energy`], `Voltage * Current` yields [`Power`], dividing an [`Energy`]
//! by a [`DataVolume`] yields an [`EnergyPerBit`], and so on. Mixing
//! dimensions is a compile error, which is precisely the class of mistake a
//! power-budget tool must not make.
//!
//! # Example
//!
//! ```
//! use ami_units::{Power, TimeSpan, Energy};
//!
//! let radio = Power::from_milliwatts(21.0);
//! let burst = TimeSpan::from_millis(4.0);
//! let energy: Energy = radio * burst;
//! assert!((energy.as_microjoules() - 84.0).abs() < 1e-9);
//! assert_eq!(format!("{radio}"), "21 mW");
//! ```
//!
//! All constructors validate that the value is finite; see each type's
//! `new` for the panic conditions and `try_new` for the fallible variant.

#![forbid(unsafe_code)]

pub mod error;
pub mod si;

#[macro_use]
mod macros;

mod electrical;
mod environment;
mod geometry;
mod information;
mod power_energy;
mod ratio;
mod time;

pub use electrical::{Capacitance, Charge, Current, Resistance, Voltage};
pub use environment::{Illuminance, Temperature};
pub use error::QuantityError;
pub use geometry::{Area, Length};
pub use information::{ComputeRate, DataRate, DataVolume, OpCount};
pub use power_energy::{Energy, Power};
pub use ratio::{ComputeEfficiency, EnergyPerBit, EnergyPerOp, PowerDensity, Ratio};
pub use time::{Frequency, TimeSpan};
