//! Lowering a [`ScenarioSpec`] into an immutable, shareable artifact.
//!
//! [`CompiledScenario::compile`] does every piece of work that is the
//! same for all runs of a scenario exactly once, up front:
//!
//! * the numeric parameters become a concrete [`NetworkConfig`] (and a
//!   [`LossyConfig`] for lossy workloads);
//! * the fault grammar is parsed into a [`FaultSpec`];
//! * fixed layouts (and seed-pinned random ones on single-run specs)
//!   are built into a concrete [`Topology`] with its CSR adjacency
//!   warmed, so every run — and every batch-mate sharing the artifact —
//!   reuses the same `Arc`-shared neighbor structure instead of
//!   re-deriving it (the PR 6/7 caches, generalized);
//! * single-run fault schedules are drawn and pre-compiled into a
//!   [`FaultTimeline`].
//!
//! The result lives in an [`Arc`] and is immutable: concurrent service
//! requests can execute [`run_threads`](CompiledScenario::run_threads)
//! against one artifact without any locking, and the compile cache
//! ([`crate::cache`]) can hand the same `Arc` to every request whose
//! spec canonicalizes to the same hash.
//!
//! # Example
//!
//! ```
//! use ami_scenario::{CompiledScenario, ScenarioSpec};
//!
//! let spec = ScenarioSpec::from_json_str(r#"{
//!     "name": "doc-grid",
//!     "rounds": 5,
//!     "topology": {"kind": "grid", "side": 3, "spacing_m": 30.0},
//!     "workload": {"kind": "gathering", "strategy": "minimum_energy"}
//! }"#).unwrap();
//! let compiled = CompiledScenario::compile(&spec).unwrap();
//! assert_eq!(compiled.hash(), spec.hash());
//! assert_eq!(compiled.topology().unwrap().len(), 9);
//! let manifest = compiled.run_threads(1).to_json();
//! assert!(manifest.contains("\"experiment\": \"doc-grid\""));
//! ```

use crate::spec::{ScenarioError, ScenarioHash, ScenarioSpec, WorkloadSpec};
use ami_core::case_studies::cs1::{cs1_energy_ledger, sweep_check_interval, Cs1Config};
use ami_net::{
    replicate_gathering_observed, GatherSession, LossyConfig, LossySession, NetworkConfig, Topology,
};
use ami_radio::StopAndWaitArq;
use ami_sim::fault::{FaultSchedule, FaultSpec, FaultTimeline};
use ami_sim::obs::{CounterTree, LedgerRecorder, NullRecorder, RunManifest};
use ami_units::TimeSpan;
use std::sync::Arc;

/// An immutable, pre-lowered scenario: everything shareable between
/// runs, behind one [`Arc`]. See the [module docs](self).
#[derive(Debug)]
pub struct CompiledScenario {
    spec: ScenarioSpec,
    hash: ScenarioHash,
    canonical: String,
    network: NetworkConfig,
    lossy: Option<LossyConfig>,
    faults: Option<FaultSpec>,
    topology: Option<Topology>,
    schedule: Option<FaultSchedule>,
    timeline: Option<FaultTimeline>,
}

impl CompiledScenario {
    /// Validates `spec` and lowers it into a shared artifact.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Spec`] when validation fails; a spec that has
    /// already passed [`ScenarioSpec::validate`] always compiles.
    pub fn compile(spec: &ScenarioSpec) -> Result<Arc<Self>, ScenarioError> {
        spec.validate()?;
        Self::lower(spec, spec.canonical_json())
    }

    /// Lowers a validated `spec` whose canonical rendering the caller
    /// has already made (the compile cache keys and compares on it).
    pub(crate) fn lower(
        spec: &ScenarioSpec,
        canonical: String,
    ) -> Result<Arc<Self>, ScenarioError> {
        let hash = ScenarioHash::of(canonical.as_bytes());
        let network = spec.network.to_network_config();
        let faults = spec.fault_spec()?;
        let lossy = match spec.workload {
            WorkloadSpec::Lossy { ber, arq_attempts } => {
                let mut config = LossyConfig::bruised_channel();
                config.ber = ber;
                config.arq = StopAndWaitArq::new(arq_attempts);
                config.max_hop = network.max_hop;
                Some(config)
            }
            _ => None,
        };
        // A topology is pinned into the artifact whenever every run of
        // the scenario sees the same layout: fixed layouts always, and
        // seeded-random layouts when there is exactly one run. Seeded
        // replications rebuild per seed at run time instead.
        let topology = match &spec.topology {
            Some(layout) if !layout.is_seeded() || spec.replications == 1 => {
                let topo = layout.build(spec.seed);
                // Warm the Arc-shared CSR adjacency once; clones and
                // batch-mates reuse it.
                let _ = topo.csr_within(network.max_hop);
                Some(topo)
            }
            _ => None,
        };
        // Single-run scenarios also get their fault schedule drawn and
        // compiled here; replicated runs derive one per seed.
        let schedule = match (&topology, &faults) {
            (Some(topo), Some(fault_spec)) if spec.replications == 1 => {
                Some(fault_spec.schedule_for(spec.seed, topo.len(), spec.rounds))
            }
            _ => None,
        };
        let timeline = schedule
            .as_ref()
            .map(|s| FaultTimeline::compile(s, topology.as_ref().map_or(0, Topology::len)));
        Ok(Arc::new(Self {
            spec: spec.clone(),
            hash,
            canonical,
            network,
            lossy,
            faults,
            topology,
            schedule,
            timeline,
        }))
    }

    /// The validated spec this artifact was lowered from.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The canonical content hash (the compile-cache key).
    pub fn hash(&self) -> ScenarioHash {
        self.hash
    }

    /// The canonical JSON rendering of the spec.
    pub fn canonical_json(&self) -> &str {
        &self.canonical
    }

    /// The lowered network configuration.
    pub fn network_config(&self) -> &NetworkConfig {
        &self.network
    }

    /// The lowered lossy-link configuration (lossy workloads only).
    pub fn lossy_config(&self) -> Option<&LossyConfig> {
        self.lossy.as_ref()
    }

    /// The parsed fault mix, if the scenario has one.
    pub fn fault_spec(&self) -> Option<&FaultSpec> {
        self.faults.as_ref()
    }

    /// The pinned topology, for scenarios where every run shares one
    /// layout (its CSR adjacency is already warmed).
    pub fn topology(&self) -> Option<&Topology> {
        self.topology.as_ref()
    }

    /// The drawn fault schedule of a pinned single-run scenario.
    pub fn fault_schedule(&self) -> Option<&FaultSchedule> {
        self.schedule.as_ref()
    }

    /// The pre-compiled fault timeline of a pinned single-run scenario
    /// (clone it to advance; the artifact itself never mutates).
    pub fn fault_timeline(&self) -> Option<&FaultTimeline> {
        self.timeline.as_ref()
    }

    /// Executes the scenario on `threads` workers and returns its
    /// deterministic [`RunManifest`].
    ///
    /// The manifest embeds the canonical spec and hash, the runner
    /// policy stanza, and the workload's results (ledger, counters,
    /// headline figures). It is **byte-identical at any `threads`**:
    /// replications merge in seed order, single gathering runs execute
    /// on the serial aggregated kernel at every thread count, and the
    /// region-parallel lossy engine is bit-identical to the serial one
    /// (it engages only when [`ami_net::pdes`]'s nodes-per-worker floor
    /// says the run is big enough), so thread count is pure mechanism.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn run_threads(&self, threads: usize) -> RunManifest {
        assert!(threads > 0, "run on at least one worker thread");
        let manifest = RunManifest::new(&self.spec.name)
            .field("scenario_hash", &self.hash.to_string())
            .raw_field("scenario", self.canonical.clone())
            .runner();
        match &self.spec.workload {
            WorkloadSpec::Gathering { strategy } => {
                let strategy = *strategy;
                let rounds = self.spec.rounds;
                if self.spec.replications == 1 {
                    let topo = self
                        .topology
                        .as_ref()
                        .expect("validated gathering spec pins a topology");
                    let empty = FaultSchedule::empty();
                    let schedule = self.schedule.as_ref().unwrap_or(&empty);
                    let mut obs = LedgerRecorder::with_nodes(topo.len());
                    let report = GatherSession::new(topo, strategy, &self.network)
                        .run_faulted_with(rounds, schedule, &mut obs);
                    manifest
                        .field("delivered_packets", &report.delivered_packets)
                        .field("alive_nodes", &(report.alive_nodes as u64))
                        .field("first_death_round", &report.first_death_round)
                        .field("total_energy_j", &report.total_energy)
                        .ledger(&obs.ledger)
                        .counters(&obs.packets.tree())
                } else {
                    let layout = self
                        .spec
                        .topology
                        .as_ref()
                        .expect("validated gathering spec has a topology");
                    let replications = self.spec.replications as usize;
                    let base_seed = self.spec.seed;
                    let nodes = layout.node_count();
                    let (reports, obs) = replicate_gathering_observed(
                        threads,
                        replications,
                        base_seed,
                        |seed| layout.build(seed),
                        |seed| match &self.faults {
                            Some(fault_spec) => fault_spec.schedule_for(seed, nodes, rounds),
                            None => FaultSchedule::empty(),
                        },
                        strategy,
                        &self.network,
                        rounds,
                    );
                    let delivered: u64 = reports.iter().map(|r| r.delivered_packets).sum();
                    let alive: u64 = reports.iter().map(|r| r.alive_nodes as u64).sum();
                    manifest
                        .field("delivered_packets", &delivered)
                        .field("alive_nodes_total", &alive)
                        .ledger(&obs.ledger)
                        .counters(&obs.packets.tree())
                }
            }
            WorkloadSpec::Lossy { .. } => {
                let topo = self
                    .topology
                    .as_ref()
                    .expect("validated lossy spec pins a topology");
                let config = self
                    .lossy
                    .as_ref()
                    .expect("lossy workloads compile a LossyConfig");
                let empty = FaultSchedule::empty();
                let schedule = self.schedule.as_ref().unwrap_or(&empty);
                // The session decides by size whether the region engine
                // engages (it runs the serial loop below the
                // nodes-per-worker floor); either path is bit-identical —
                // the counter-RNG kernel's contract.
                let report = LossySession::new(topo, config).run_faulted_with(
                    self.spec.rounds,
                    self.spec.seed,
                    schedule,
                    threads,
                    &mut NullRecorder,
                );
                let counters = CounterTree::branch([
                    (
                        "packets",
                        CounterTree::branch([
                            ("offered", CounterTree::leaf(report.offered)),
                            ("delivered", CounterTree::leaf(report.delivered)),
                            (
                                "dropped",
                                CounterTree::branch([
                                    (
                                        "channel",
                                        CounterTree::leaf(
                                            report.offered
                                                - report.delivered
                                                - report.dropped_fault,
                                        ),
                                    ),
                                    ("fault", CounterTree::leaf(report.dropped_fault)),
                                ]),
                            ),
                        ]),
                    ),
                    ("transmissions", CounterTree::leaf(report.transmissions)),
                ]);
                manifest
                    .field("total_energy_j", &report.total_energy)
                    .field(
                        "energy_per_delivered_bit",
                        &report.energy_per_delivered_bit(&config.packet),
                    )
                    .counters(&counters)
            }
            WorkloadSpec::Cs1DutyCycle { ledger_days } => {
                let config = Cs1Config::default();
                let span = TimeSpan::from_days(*ledger_days);
                let ledger = cs1_energy_ledger(&config, span);
                let intervals: Vec<TimeSpan> = self
                    .spec
                    .axis("check_interval_s")
                    .expect("validated cs1 spec has a check_interval_s axis")
                    .iter()
                    .map(|&s| TimeSpan::from_seconds(s))
                    .collect();
                let rows = sweep_check_interval(&config, &intervals);
                let sustainable = rows.iter().filter(|(_, _, _, ok)| *ok).count() as u64;
                let counters = CounterTree::branch([(
                    "sweep",
                    CounterTree::branch([
                        ("intervals", CounterTree::leaf(rows.len() as u64)),
                        ("sustainable", CounterTree::leaf(sustainable)),
                    ]),
                )]);
                manifest
                    .field("span_days", &span.as_days())
                    .ledger(&ledger)
                    .counters(&counters)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TopologySpec;

    fn grid_spec(rounds: u64) -> ScenarioSpec {
        ScenarioSpec::from_json_str(&format!(
            r#"{{
                "name": "t-grid",
                "rounds": {rounds},
                "topology": {{"kind": "grid", "side": 3, "spacing_m": 30.0}},
                "workload": {{"kind": "gathering", "strategy": "minimum_energy"}}
            }}"#
        ))
        .unwrap()
    }

    #[test]
    fn compile_pins_fixed_topologies_and_hash() {
        let spec = grid_spec(5);
        let compiled = CompiledScenario::compile(&spec).unwrap();
        assert_eq!(compiled.hash(), spec.hash());
        assert_eq!(compiled.topology().unwrap().len(), 9);
        assert!(compiled.fault_schedule().is_none());
        assert_eq!(compiled.canonical_json(), spec.canonical_json());
    }

    #[test]
    fn seeded_replications_defer_topology() {
        let mut spec = grid_spec(5);
        spec.topology = Some(TopologySpec::Random {
            nodes: 10,
            field_m: 100.0,
        });
        spec.replications = 4;
        spec.validate().unwrap();
        let compiled = CompiledScenario::compile(&spec).unwrap();
        assert!(compiled.topology().is_none(), "per-seed layouts stay lazy");
        // But a single-run random layout is pinned (seed is fixed).
        spec.replications = 1;
        let single = CompiledScenario::compile(&spec).unwrap();
        assert_eq!(single.topology().unwrap().len(), 10);
    }

    #[test]
    fn faulted_single_run_precompiles_schedule_and_timeline() {
        let mut spec = grid_spec(20);
        spec.faults = Some("death=0.5".to_owned());
        let compiled = CompiledScenario::compile(&spec).unwrap();
        assert!(compiled.fault_spec().is_some());
        let schedule = compiled.fault_schedule().expect("schedule drawn");
        assert!(!schedule.is_empty());
        assert!(compiled.fault_timeline().is_some());
    }

    #[test]
    fn manifest_is_thread_invariant() {
        let spec = grid_spec(10);
        let compiled = CompiledScenario::compile(&spec).unwrap();
        let one = compiled.run_threads(1).to_json();
        let four = compiled.run_threads(4).to_json();
        assert_eq!(one, four);
        assert!(one.contains("\"scenario_hash\""));
        assert!(one.contains(&compiled.hash().to_string()));
    }

    #[test]
    fn only_lossy_runs_engage_the_region_engine() {
        // With the nodes-per-worker floor forced to zero, every
        // multi-worker lossy run engages the region engine, while
        // gathering runs stay on the serial aggregated kernel at any
        // worker count. The manifest is byte-identical either way.
        let floor = ami_net::set_par_min_nodes_per_worker(Some(0));
        let spec = |name: &str, side: u32, workload: &str| {
            ScenarioSpec::from_json_str(&format!(
                r#"{{
                    "name": "{name}",
                    "rounds": 20,
                    "topology": {{"kind": "grid", "side": {side}, "spacing_m": 30.0}},
                    "workload": {workload}
                }}"#
            ))
            .unwrap()
        };
        let gathering = r#"{"kind": "gathering", "strategy": "minimum_energy"}"#;
        let lossy = r#"{"kind": "lossy", "ber": 0.001, "arq_attempts": 4}"#;
        for (spec, engaged) in [
            (spec("t-gather", 23, gathering), 0),
            (spec("t-lossy", 3, lossy), 1),
        ] {
            let compiled = CompiledScenario::compile(&spec).unwrap();
            let before = ami_net::par_engaged_count();
            let one = compiled.run_threads(1).to_json();
            let four = compiled.run_threads(4).to_json();
            assert_eq!(
                ami_net::par_engaged_count() - before,
                engaged,
                "{}: region-engine engagements",
                spec.name
            );
            assert_eq!(one, four, "{}: thread-variant manifest", spec.name);
        }
        ami_net::set_par_min_nodes_per_worker(floor);
    }

    #[test]
    fn replicated_manifest_is_thread_invariant() {
        let mut spec = grid_spec(10);
        spec.topology = Some(TopologySpec::Random {
            nodes: 8,
            field_m: 80.0,
        });
        spec.replications = 3;
        spec.faults = Some("death=0.3".to_owned());
        let compiled = CompiledScenario::compile(&spec).unwrap();
        assert_eq!(
            compiled.run_threads(1).to_json(),
            compiled.run_threads(3).to_json()
        );
    }
}
