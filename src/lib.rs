//! `ambience` — facade crate re-exporting the whole toolkit.
//!
//! See the workspace README and DESIGN.md for the architecture. Each
//! sub-crate is re-exported under a short module name:
//!
//! ```
//! use ambience::units::Power;
//!
//! let p = Power::from_milliwatts(3.0);
//! assert_eq!(p.as_microwatts(), 3000.0);
//! ```

#![forbid(unsafe_code)]

pub use ami_arch as arch;
pub use ami_core as core;
pub use ami_dvs as dvs;
pub use ami_energy as energy;
pub use ami_net as net;
pub use ami_power as power;
pub use ami_radio as radio;
pub use ami_sim as sim;
pub use ami_tech as tech;
pub use ami_units as units;
