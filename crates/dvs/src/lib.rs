//! Dynamic voltage scaling and power management for the personal (mW)
//! device class.
//!
//! The keynote's personal node runs signal-processing task sets on a
//! battery; its central IC-design lever is running *just fast enough*:
//! because dynamic energy scales with `V²` and achievable frequency only
//! ~linearly in `V`, any slack converted into lower supply voltage is a
//! quadratic energy win. This crate provides:
//!
//! * [`PeriodicTask`]/[`TaskSet`] — implicit-deadline periodic tasks
//!   measured in operations;
//! * [`DvsPolicy`] — the frequency-selection policies compared in F4
//!   (none, per-job worst-case stretch, utilization-static, clairvoyant);
//! * [`simulate_taskset`] — a job-accurate simulation on an
//!   `ami-arch` [`Processor`](ami_arch::Processor), reporting energy,
//!   deadline misses and average power;
//! * [`Dpm`] — timeout-based shutdown for the gaps DVS cannot fill.
//!
//! # Example
//!
//! ```
//! use ami_arch::{ArchitectureClass, Processor};
//! use ami_dvs::{DvsPolicy, PeriodicTask, TaskSet, simulate_taskset};
//! use ami_tech::TechnologyNode;
//! use ami_units::{OpCount, TimeSpan};
//!
//! let dsp = Processor::new("dsp", ArchitectureClass::Dsp, TechnologyNode::n130());
//! let tasks = TaskSet::new(vec![PeriodicTask::new(
//!     "audio", TimeSpan::from_millis(24.0), OpCount::from_mega_ops(0.5),
//! )]);
//! let none = simulate_taskset(&dsp, &tasks, DvsPolicy::None, TimeSpan::from_seconds(10.0), 7);
//! let dvs = simulate_taskset(&dsp, &tasks, DvsPolicy::WorstCaseStretch,
//!                            TimeSpan::from_seconds(10.0), 7);
//! assert!(dvs.total_energy < none.total_energy);
//! assert_eq!(dvs.deadline_misses, 0);
//! ```

#![forbid(unsafe_code)]

pub mod dpm;
pub mod levels;
pub mod policy;
pub mod simulate;
pub mod task;

pub use dpm::Dpm;
pub use levels::FrequencyLadder;
pub use policy::DvsPolicy;
pub use simulate::{simulate_taskset, simulate_taskset_with_levels, DvsReport};
pub use task::{PeriodicTask, TaskSet};
