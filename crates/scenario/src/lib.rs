//! Scenario-as-data: simulations described by checkable files, compiled
//! once, shared everywhere.
//!
//! The paper's ambient-intelligence vision is design-space exploration
//! over fleets of µW devices; serving that exploration means a query
//! must be *data*, not a recompiled binary. This crate is the engine:
//!
//! * [`spec`] — the [`ScenarioSpec`] format (strict JSON via the
//!   in-tree [`json`] reader, unknown fields rejected, semantic
//!   validation) and its canonical hash: two documents that differ only
//!   in key order or spelled-out defaults hash identically;
//! * [`compile`] — [`CompiledScenario::compile`] lowers a spec into an
//!   immutable `Arc`-shared artifact: concrete configs, parsed fault
//!   mix, pinned topology with warmed CSR adjacency, pre-compiled
//!   [`FaultTimeline`](ami_sim::fault::FaultTimeline) — then
//!   [`run_threads`](CompiledScenario::run_threads) executes it into a
//!   deterministic, thread-invariant
//!   [`RunManifest`](ami_sim::obs::RunManifest);
//! * [`cache`] — [`ScenarioCache`], the bounded LRU over canonical
//!   hashes with single-flight dedup of concurrent compiles.
//!
//! The `ami-svc` crate fronts this engine with a batching service; the
//! F3/F6/F13/F15 experiment binaries load their parameters from
//! checked-in `.scenario.json` files through [`ScenarioSpec::load`].
//!
//! # Example
//!
//! ```
//! use ami_scenario::{ScenarioCache, ScenarioSpec};
//!
//! let cache = ScenarioCache::new(8);
//! let spec = ScenarioSpec::from_json_str(r#"{
//!     "name": "hello-scenario",
//!     "rounds": 10,
//!     "topology": {"kind": "grid", "side": 3, "spacing_m": 30.0},
//!     "workload": {"kind": "gathering", "strategy": "minimum_energy"}
//! }"#).unwrap();
//! let (compiled, _hit) = cache.get_or_compile(&spec).unwrap();
//! let manifest = compiled.run_threads(1);
//! assert!(manifest.to_json().contains("\"scenario_hash\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod compile;
pub mod json;
pub mod spec;

pub use cache::{CacheStats, ScenarioCache};
pub use compile::CompiledScenario;
pub use json::{JsonError, JsonValue};
pub use spec::{
    NetworkParams, ScenarioError, ScenarioHash, ScenarioSpec, SweepAxis, TopologySpec,
    WorkloadSpec, DEFAULT_SEED,
};

/// Environment variable naming a scenario file that overrides a
/// binary's default checked-in spec (`AMBIENCE_SCENARIO`).
pub const SCENARIO_ENV: &str = "AMBIENCE_SCENARIO";

/// Loads the scenario for an experiment binary: the file named by
/// [`SCENARIO_ENV`] when set, otherwise `default_path` (resolved
/// relative to the workspace when not absolute).
///
/// # Errors
///
/// Propagates [`ScenarioError`] from [`ScenarioSpec::load`].
pub fn load_for_binary(default_path: &str) -> Result<ScenarioSpec, ScenarioError> {
    let path = std::env::var_os(SCENARIO_ENV)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| resolve_default(default_path));
    ScenarioSpec::load(path)
}

/// Resolves a checked-in scenario path against the compile-time
/// workspace layout, falling back to the path as given (for runs from
/// a different working directory, set `AMBIENCE_SCENARIO`).
fn resolve_default(default_path: &str) -> std::path::PathBuf {
    let direct = std::path::PathBuf::from(default_path);
    if direct.exists() {
        return direct;
    }
    // CARGO_MANIFEST_DIR of this crate is <workspace>/crates/scenario.
    let mut from_workspace = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    from_workspace.pop();
    from_workspace.pop();
    from_workspace.push(default_path);
    from_workspace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_default_prefers_existing_relative_path() {
        // The workspace Cargo.toml always exists relative to the crate.
        let resolved = resolve_default("Cargo.toml");
        assert!(resolved.exists());
    }
}
