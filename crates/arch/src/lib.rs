//! Architecture component models: the silicon building blocks of ambient
//! devices.
//!
//! The keynote's three case studies are SoC budgeting exercises. This crate
//! supplies the budgetable components:
//!
//! * [`Processor`] — compute engines across the flexibility–efficiency
//!   spectrum (hardwired ASIC → general-purpose CPU), grounded in the
//!   `ami-tech` intrinsic-efficiency bound;
//! * [`Memory`] — SRAM/DRAM/flash with per-access and static energy;
//! * [`Adc`]/[`Dac`] — data converters via the figure-of-merit law
//!   `P = FoM · 2^ENOB · f_s`;
//! * [`RfFrontEnd`] — analog radio front-ends with bias and startup costs;
//! * [`Display`] — the dominant interface load of personal devices;
//! * [`Soc`] — a composition of the above with a budget breakdown.
//! * [`Kernel`] — workload kernels (DCT, FIR, audio decode) that translate
//!   application rates into required MOPS.
//!
//! # Example
//!
//! ```
//! use ami_arch::{ArchitectureClass, Processor};
//! use ami_tech::TechnologyNode;
//!
//! let node = TechnologyNode::n130();
//! let asic = Processor::new("dct", ArchitectureClass::Asic, node.clone());
//! let cpu = Processor::new("risc", ArchitectureClass::Cpu, node);
//! // The flexibility gap: orders of magnitude in energy per operation.
//! let gap = cpu.energy_per_op_nominal().as_joules_per_op()
//!     / asic.energy_per_op_nominal().as_joules_per_op();
//! assert!(gap > 100.0);
//! ```

#![forbid(unsafe_code)]

pub mod converter;
pub mod display;
pub mod interconnect;
pub mod kernel;
pub mod memory;
pub mod processor;
pub mod rf;
pub mod soc;

pub use converter::{Adc, Dac};
pub use display::Display;
pub use interconnect::Interconnect;
pub use kernel::Kernel;
pub use memory::{Memory, MemoryKind};
pub use processor::{ArchitectureClass, Processor};
pub use rf::RfFrontEnd;
pub use soc::{BudgetLine, Soc, SocBuilder};
