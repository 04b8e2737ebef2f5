//! The ambience benchmark: three seeded workloads timed end to end,
//! and a traced mode that prices each layer from spans recorded around
//! the calls the benchmark makes into the program's public functions.
//!
//! * `megacity` — fresh-state gather and lossy rounds on warm sessions;
//! * `city_faulted` — one faulted city study through the scenario layer;
//! * `svc_mix` — a closed loop of two connections against `ami_svcd`.
//!
//! See `perfbench/README.md` for the metric definitions.

pub mod city;
pub mod gen;
pub mod megacity;
pub mod report;
pub mod stats;
pub mod svc;
pub mod trace;

use std::path::PathBuf;
use std::time::Duration;

/// What one benchmark run is asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window.
    pub window: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Repository root (scenario templates are read from here).
    pub root: PathBuf,
    /// The `ami_svcd` binary (for `svc_mix`).
    pub svcd: Option<PathBuf>,
}

/// The program's thread-local operation counters, read on this thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Full route builds.
    pub route_builds: u64,
    /// Incremental route repairs.
    pub route_repairs: u64,
    /// Gathering rounds committed by the aggregated kernel.
    pub agg_engaged: u64,
    /// Gathering rounds handed back to the hop walk.
    pub agg_fallback: u64,
    /// `_par` calls that engaged the region-parallel engine.
    pub par_engaged: u64,
    /// `_par` calls that fell back to the serial kernel.
    pub par_fallback: u64,
}

impl std::ops::Sub for Counters {
    type Output = Self;

    fn sub(self, earlier: Self) -> Self {
        Self {
            route_builds: self.route_builds - earlier.route_builds,
            route_repairs: self.route_repairs - earlier.route_repairs,
            agg_engaged: self.agg_engaged - earlier.agg_engaged,
            agg_fallback: self.agg_fallback - earlier.agg_fallback,
            par_engaged: self.par_engaged - earlier.par_engaged,
            par_fallback: self.par_fallback - earlier.par_fallback,
        }
    }
}

impl std::ops::AddAssign for Counters {
    fn add_assign(&mut self, more: Self) {
        self.route_builds += more.route_builds;
        self.route_repairs += more.route_repairs;
        self.agg_engaged += more.agg_engaged;
        self.agg_fallback += more.agg_fallback;
        self.par_engaged += more.par_engaged;
        self.par_fallback += more.par_fallback;
    }
}

impl Counters {
    /// The counters as this thread sees them now.
    pub fn read() -> Self {
        Self {
            route_builds: ami_net::routing::route_build_count(),
            route_repairs: ami_net::routing::route_repair_count(),
            agg_engaged: ami_net::agg_engaged_count(),
            agg_fallback: ami_net::agg_fallback_count(),
            par_engaged: ami_net::par_engaged_count(),
            par_fallback: ami_net::par_serial_fallback_count(),
        }
    }
}

/// Relative cost of tracing: median traced operation over median
/// untraced operation, minus one.
///
/// # Panics
///
/// Panics if either side has no samples.
pub fn overhead_share(traced: &[f64], untraced: &[f64]) -> f64 {
    let traced = stats::median(traced).expect("traced operations ran");
    let untraced = stats::median(untraced).expect("untraced operations ran");
    traced / untraced - 1.0
}
