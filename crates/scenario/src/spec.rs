//! The scenario data model: what a simulation *is*, as checkable data.
//!
//! A [`ScenarioSpec`] captures everything the experiment binaries used
//! to hard-code — topology, device/network parameters, workload kind,
//! fault mix, sweep axes, replication plan — in a strict JSON format:
//!
//! * unknown fields are rejected everywhere (a typoed knob is an error,
//!   not a silently ignored default);
//! * duplicate keys, non-finite numbers and malformed documents are
//!   rejected by the [`json`](crate::json) reader;
//! * [`validate`](ScenarioSpec::validate) enforces the semantic rules
//!   (positive dimensions, parseable fault specs, workload/topology
//!   compatibility) before anything is compiled.
//!
//! Every spec has a **canonical form**
//! ([`canonical_json`](ScenarioSpec::canonical_json)): fixed field
//! order, defaults filled
//! in, shortest-roundtrip floats. Two files that differ only in key
//! order, whitespace or spelled-out defaults canonicalize to the same
//! bytes and therefore the same [`ScenarioHash`] — the key the compile
//! cache and the batch service deduplicate on.
//!
//! # Example
//!
//! ```
//! use ami_scenario::ScenarioSpec;
//!
//! let spec = ScenarioSpec::from_json_str(r#"{
//!     "name": "demo",
//!     "rounds": 50,
//!     "topology": {"kind": "grid", "side": 4, "spacing_m": 30.0},
//!     "workload": {"kind": "gathering", "strategy": "minimum_energy"}
//! }"#).unwrap();
//! // Key order and spelled-out defaults do not change the hash.
//! let reordered = ScenarioSpec::from_json_str(r#"{
//!     "workload": {"strategy": "minimum_energy", "kind": "gathering"},
//!     "topology": {"spacing_m": 30.0, "side": 4, "kind": "grid"},
//!     "seed": 2003,
//!     "rounds": 50,
//!     "name": "demo"
//! }"#).unwrap();
//! assert_eq!(spec.hash(), reordered.hash());
//! assert!(ScenarioSpec::from_json_str(r#"{"name": "x", "typo": 1}"#).is_err());
//! ```

use crate::json::{parse, JsonError, JsonValue};
use ami_net::{NetworkConfig, RoutingStrategy};
use ami_sim::fault::FaultSpec;
use ami_sim::obs::to_json;
use ami_units::{Energy, Length, Power, TimeSpan};
use serde::ser::{Serialize, SerializeStruct, Serializer};
use std::collections::HashSet;
use std::fmt;

/// Default base seed for scenarios that do not pin one (the repo-wide
/// experiment seed).
pub const DEFAULT_SEED: u64 = 2003;

/// Largest integer a scenario file can carry exactly (JSON numbers ride
/// through `f64`).
pub const MAX_EXACT_INT: u64 = 1 << 53;

/// Largest node count, sink included, that a scenario topology may
/// have: 2²⁰, so the repo's largest field (10⁶ nodes) fits, while a
/// spec cannot make a compile ask for gigabytes of node positions
/// (a grid of side 10⁵ is 10¹⁰ nodes) or overflow a capacity.
pub const MAX_NODES: usize = 1 << 20;

/// Anything that can go wrong loading, validating or compiling a spec.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The document is not well-formed JSON.
    Json(JsonError),
    /// The document is JSON but not a valid scenario.
    Spec(String),
    /// The scenario file could not be read.
    Io(String),
    /// The scenario cache cannot serve requests: a thread panicked while
    /// holding its lock, so its bookkeeping may be inconsistent.
    Unavailable(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Json(err) => write!(f, "invalid JSON: {err}"),
            ScenarioError::Spec(msg) => write!(f, "invalid scenario: {msg}"),
            ScenarioError::Io(msg) => write!(f, "cannot read scenario: {msg}"),
            ScenarioError::Unavailable(msg) => write!(f, "scenario cache unavailable: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<JsonError> for ScenarioError {
    fn from(err: JsonError) -> Self {
        ScenarioError::Json(err)
    }
}

fn spec_err<T>(msg: impl Into<String>) -> Result<T, ScenarioError> {
    Err(ScenarioError::Spec(msg.into()))
}

/// The node layout of a network scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// A `side × side` grid at fixed spacing, sink at a corner.
    Grid {
        /// Nodes per side.
        side: u32,
        /// Grid pitch in meters.
        spacing_m: f64,
    },
    /// `nodes` uniform-random positions in a square field, sink at the
    /// center, drawn deterministically from the run seed.
    Random {
        /// Node count (including the sink).
        nodes: u32,
        /// Field side in meters.
        field_m: f64,
    },
    /// `leaves` nodes on a circle around a central sink.
    Star {
        /// Leaf count (sink excluded).
        leaves: u32,
        /// Circle radius in meters.
        radius_m: f64,
    },
}

impl TopologySpec {
    /// The node count this layout produces (sink included).
    pub fn node_count(&self) -> usize {
        match self {
            TopologySpec::Grid { side, .. } => (*side as usize) * (*side as usize),
            TopologySpec::Random { nodes, .. } => *nodes as usize,
            TopologySpec::Star { leaves, .. } => *leaves as usize + 1,
        }
    }

    /// Builds the concrete topology for `seed` (only
    /// [`Random`](TopologySpec::Random) layouts actually consume it).
    pub fn build(&self, seed: u64) -> ami_net::Topology {
        match *self {
            TopologySpec::Grid { side, spacing_m } => {
                ami_net::Topology::grid(side as usize, Length::from_meters(spacing_m))
            }
            TopologySpec::Random { nodes, field_m } => {
                ami_net::Topology::random(nodes as usize, Length::from_meters(field_m), seed)
            }
            TopologySpec::Star { leaves, radius_m } => {
                ami_net::Topology::star(leaves as usize, Length::from_meters(radius_m))
            }
        }
    }

    /// Whether the layout depends on the run seed.
    pub fn is_seeded(&self) -> bool {
        matches!(self, TopologySpec::Random { .. })
    }
}

/// Numeric network/device parameters; defaults mirror
/// [`NetworkConfig::sensor_default`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkParams {
    /// Interval between reporting rounds, seconds.
    pub report_interval_s: f64,
    /// Baseline (MAC + sensing + leakage) power, microwatts.
    pub idle_power_uw: f64,
    /// Initial energy budget per sensor node, joules.
    pub node_energy_j: f64,
    /// Maximum hop length, meters.
    pub max_hop_m: f64,
}

impl Default for NetworkParams {
    fn default() -> Self {
        // Numerically equal to NetworkConfig::sensor_default(); pinned
        // by a unit test below so the two can never drift apart.
        Self {
            report_interval_s: 60.0,
            idle_power_uw: 20.0,
            node_energy_j: 50.0,
            max_hop_m: 45.0,
        }
    }
}

impl NetworkParams {
    /// Lowers the parameters onto the toolkit's [`NetworkConfig`] (2003
    /// short-range radio, sensor-report packets — the only device
    /// profile the format currently describes).
    pub fn to_network_config(&self) -> NetworkConfig {
        let mut config = NetworkConfig::sensor_default();
        config.report_interval = TimeSpan::from_seconds(self.report_interval_s);
        config.idle_power = Power::from_microwatts(self.idle_power_uw);
        config.node_energy = Energy::from_joules(self.node_energy_j);
        config.max_hop = Length::from_meters(self.max_hop_m);
        config
    }
}

/// What the scenario actually runs.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// Round-based data gathering ([`ami_net::GatherSession`];
    /// replicable over seeds with [`ami_net::replicate_gathering_observed`]).
    Gathering {
        /// Routing strategy.
        strategy: RoutingStrategy,
    },
    /// Gathering over lossy links with per-hop ARQ
    /// ([`ami_net::LossySession`]).
    Lossy {
        /// Channel bit error rate per hop.
        ber: f64,
        /// Stop-and-wait retransmission budget per hop.
        arq_attempts: u32,
    },
    /// The CS1 single-node duty-cycle study (harvest vs load across the
    /// MAC check interval; needs a `check_interval_s` sweep axis).
    Cs1DutyCycle {
        /// Span of the energy ledger, days.
        ledger_days: f64,
    },
}

impl WorkloadSpec {
    /// Short kind tag, as written in scenario files.
    pub fn kind(&self) -> &'static str {
        match self {
            WorkloadSpec::Gathering { .. } => "gathering",
            WorkloadSpec::Lossy { .. } => "lossy",
            WorkloadSpec::Cs1DutyCycle { .. } => "cs1_duty_cycle",
        }
    }
}

/// One named sweep axis: a list of numeric values an experiment
/// iterates over.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAxis {
    /// Axis name (`[a-z0-9_.-]`, unique within the spec).
    pub name: String,
    /// The values, in sweep order; all finite.
    pub values: Vec<f64>,
}

/// A complete scenario description. See the [module docs](self) for the
/// format contract and an example.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (`[a-z0-9_.-]`, 1–64 chars); becomes the manifest
    /// experiment tag.
    pub name: String,
    /// Base seed; replication `k` runs at `seed + k`.
    pub seed: u64,
    /// Rounds per run (network workloads; must be 0 for CS1).
    pub rounds: u64,
    /// Seeded replications (gathering only; 1 = a single run).
    pub replications: u32,
    /// Node layout (network workloads only).
    pub topology: Option<TopologySpec>,
    /// Device/network numeric parameters.
    pub network: NetworkParams,
    /// The workload to execute.
    pub workload: WorkloadSpec,
    /// Fault mix in the `AMBIENCE_FAULTS` grammar, if any.
    pub faults: Option<String>,
    /// Named sweep axes.
    pub sweeps: Vec<SweepAxis>,
}

impl ScenarioSpec {
    /// Parses and validates a scenario document.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Json`] on malformed JSON, [`ScenarioError::Spec`]
    /// on unknown fields, missing requirements or semantic violations.
    pub fn from_json_str(text: &str) -> Result<Self, ScenarioError> {
        let doc = parse(text)?;
        let spec = Self::from_value(&doc)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Reads and parses a `.scenario.json` file.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Io`] when the file cannot be read, otherwise as
    /// [`from_json_str`](Self::from_json_str).
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, ScenarioError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|err| ScenarioError::Io(format!("{}: {err}", path.display())))?;
        Self::from_json_str(&text).map_err(|err| match err {
            ScenarioError::Json(j) => {
                ScenarioError::Spec(format!("{}: invalid JSON: {j}", path.display()))
            }
            ScenarioError::Spec(msg) => ScenarioError::Spec(format!("{}: {msg}", path.display())),
            other => other,
        })
    }

    /// Builds and validates a spec from an already-parsed JSON value
    /// (the service layer decodes whole request frames and hands the
    /// `scenario` member here).
    ///
    /// # Errors
    ///
    /// As [`from_json_str`](Self::from_json_str), minus the JSON parse
    /// stage.
    pub fn from_json_value(doc: &JsonValue) -> Result<Self, ScenarioError> {
        let spec = Self::from_value(doc)?;
        spec.validate()?;
        Ok(spec)
    }

    fn from_value(doc: &JsonValue) -> Result<Self, ScenarioError> {
        let mut fields = Fields::new(doc, "scenario")?;
        let name = fields.required_str("name")?.to_owned();
        let seed = fields.u64_or("seed", DEFAULT_SEED)?;
        let rounds = fields.u64_or("rounds", 0)?;
        let replications = u32::try_from(fields.u64_or("replications", 1)?)
            .map_err(|_| ScenarioError::Spec("replications overflows u32".into()))?;
        let topology = match fields.take("topology") {
            Some(value) => Some(topology_from_value(value)?),
            None => None,
        };
        let network = match fields.take("network") {
            Some(value) => network_from_value(value)?,
            None => NetworkParams::default(),
        };
        let workload = workload_from_value(
            fields
                .take("workload")
                .ok_or_else(|| ScenarioError::Spec("missing required field `workload`".into()))?,
        )?;
        let faults = match fields.take("faults") {
            Some(value) => Some(
                value
                    .as_str()
                    .ok_or_else(|| {
                        ScenarioError::Spec(format!(
                            "`faults` must be a string, found {}",
                            value.type_name()
                        ))
                    })?
                    .to_owned(),
            ),
            None => None,
        };
        let sweeps = match fields.take("sweeps") {
            Some(value) => sweeps_from_value(value)?,
            None => Vec::new(),
        };
        fields.finish()?;
        Ok(Self {
            name,
            seed,
            rounds,
            replications,
            topology,
            network,
            workload,
            faults,
            sweeps,
        })
    }

    /// Checks every semantic rule of the format.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Spec`] naming the first violated rule.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        check_name(&self.name, "name")?;
        if self.seed > MAX_EXACT_INT {
            return spec_err("seed exceeds 2^53 (not exactly representable in JSON)");
        }
        if self.replications == 0 {
            return spec_err("replications must be >= 1");
        }
        if let Some(topology) = &self.topology {
            match *topology {
                TopologySpec::Grid { side, spacing_m } => {
                    if side < 2 {
                        return spec_err("grid side must be >= 2 (one sink plus sensors)");
                    }
                    check_positive(spacing_m, "topology.spacing_m")?;
                }
                TopologySpec::Random { nodes, field_m } => {
                    if nodes < 2 {
                        return spec_err("random topology needs >= 2 nodes");
                    }
                    check_positive(field_m, "topology.field_m")?;
                }
                TopologySpec::Star { leaves, radius_m } => {
                    if leaves < 1 {
                        return spec_err("star topology needs >= 1 leaf");
                    }
                    check_positive(radius_m, "topology.radius_m")?;
                }
            }
            let nodes = topology.node_count();
            if nodes > MAX_NODES {
                return spec_err(format!(
                    "topology has {nodes} nodes, above the limit of {MAX_NODES}"
                ));
            }
        }
        check_positive(self.network.report_interval_s, "network.report_interval_s")?;
        check_positive(self.network.idle_power_uw, "network.idle_power_uw")?;
        check_positive(self.network.node_energy_j, "network.node_energy_j")?;
        check_positive(self.network.max_hop_m, "network.max_hop_m")?;
        match &self.workload {
            WorkloadSpec::Gathering { .. } => {
                if self.topology.is_none() {
                    return spec_err("gathering workloads require a `topology`");
                }
                if self.rounds == 0 {
                    return spec_err("gathering workloads require `rounds` >= 1");
                }
            }
            WorkloadSpec::Lossy { ber, arq_attempts } => {
                if self.topology.is_none() {
                    return spec_err("lossy workloads require a `topology`");
                }
                if self.rounds == 0 {
                    return spec_err("lossy workloads require `rounds` >= 1");
                }
                // The lossy session's own range: a spec it would refuse
                // must fail here, not panic inside a run.
                if !(0.0..=0.5).contains(ber) {
                    return spec_err(format!("workload.ber must lie in [0, 0.5], got {ber}"));
                }
                if *arq_attempts == 0 {
                    return spec_err(format!(
                        "workload.arq_attempts must lie in [1, {}], got 0",
                        u32::MAX
                    ));
                }
                if self.replications > 1 {
                    return spec_err("lossy workloads are single-run (replications must be 1)");
                }
            }
            WorkloadSpec::Cs1DutyCycle { ledger_days } => {
                check_positive(*ledger_days, "workload.ledger_days")?;
                if self.topology.is_some() {
                    return spec_err("cs1_duty_cycle is a single-node study: no `topology`");
                }
                if self.rounds != 0 {
                    return spec_err(
                        "cs1_duty_cycle takes no `rounds` (time comes from ledger_days)",
                    );
                }
                if self.replications > 1 {
                    return spec_err("cs1_duty_cycle is deterministic: replications must be 1");
                }
                if self.axis("check_interval_s").is_none() {
                    return spec_err("cs1_duty_cycle requires a `check_interval_s` sweep axis");
                }
            }
        }
        if let Some(faults) = &self.faults {
            FaultSpec::parse(faults)
                .map_err(|err| ScenarioError::Spec(format!("invalid `faults` spec: {err}")))?;
        }
        let mut seen: HashSet<&str> = HashSet::with_capacity(self.sweeps.len());
        for axis in &self.sweeps {
            check_name(&axis.name, "sweep axis name")?;
            if !seen.insert(&axis.name) {
                return spec_err(format!("duplicate sweep axis {:?}", axis.name));
            }
            if axis.values.is_empty() {
                return spec_err(format!("sweep axis {:?} has no values", axis.name));
            }
            for &v in &axis.values {
                if !v.is_finite() {
                    return spec_err(format!("sweep axis {:?} has a non-finite value", axis.name));
                }
            }
        }
        Ok(())
    }

    /// The values of the named sweep axis, if present.
    pub fn axis(&self, name: &str) -> Option<&[f64]> {
        self.sweeps
            .iter()
            .find(|axis| axis.name == name)
            .map(|axis| axis.values.as_slice())
    }

    /// An integral sweep axis as `usize` values.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Spec`] when the axis is missing or any value is
    /// not a non-negative integer below 2^53.
    pub fn axis_usize(&self, name: &str) -> Result<Vec<usize>, ScenarioError> {
        let values = self
            .axis(name)
            .ok_or_else(|| ScenarioError::Spec(format!("missing sweep axis {name:?}")))?;
        values
            .iter()
            .map(|&v| {
                if v.fract() == 0.0 && (0.0..=MAX_EXACT_INT as f64).contains(&v) {
                    Ok(v as usize)
                } else {
                    spec_err(format!("sweep axis {name:?}: {v} is not a usize"))
                }
            })
            .collect()
    }

    /// The fault mix parsed into a [`FaultSpec`], if the scenario has
    /// one. Always succeeds on a validated spec.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Spec`] when the grammar does not parse.
    pub fn fault_spec(&self) -> Result<Option<FaultSpec>, ScenarioError> {
        match &self.faults {
            None => Ok(None),
            Some(text) => FaultSpec::parse(text)
                .map(Some)
                .map_err(|err| ScenarioError::Spec(format!("invalid `faults` spec: {err}"))),
        }
    }

    /// The canonical rendering: fixed field order, defaults filled,
    /// shortest-roundtrip floats. Parsing the canonical form yields a
    /// spec equal to `self`, and equal canonical bytes ⟺ equal hashes.
    pub fn canonical_json(&self) -> String {
        to_json(self)
    }

    /// The canonical content hash (FNV-1a 64 over
    /// [`canonical_json`](Self::canonical_json)).
    pub fn hash(&self) -> ScenarioHash {
        ScenarioHash::of(self.canonical_json().as_bytes())
    }
}

/// The canonical content hash of a spec: equal for any two documents
/// that canonicalize identically, whatever their key order or spelling
/// of defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ScenarioHash(pub u64);

impl ScenarioHash {
    /// FNV-1a 64 over `bytes`.
    pub fn of(bytes: &[u8]) -> Self {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self(hash)
    }
}

impl fmt::Display for ScenarioHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

fn check_name(name: &str, what: &str) -> Result<(), ScenarioError> {
    if name.is_empty() || name.len() > 64 {
        return spec_err(format!("{what} must be 1–64 characters"));
    }
    if !name
        .chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || matches!(c, '-' | '_' | '.'))
    {
        return spec_err(format!("{what} {name:?} may only contain [a-z0-9_.-]"));
    }
    Ok(())
}

fn check_positive(value: f64, what: &str) -> Result<(), ScenarioError> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        spec_err(format!(
            "{what} must be a positive finite number, got {value}"
        ))
    }
}

/// Tracks which members of an object have been consumed so the leftovers
/// can be rejected by name — the unknown-field guard every spec object
/// goes through.
struct Fields<'a> {
    members: &'a [(String, JsonValue)],
    taken: Vec<bool>,
    context: &'static str,
}

impl<'a> Fields<'a> {
    fn new(value: &'a JsonValue, context: &'static str) -> Result<Self, ScenarioError> {
        match value {
            JsonValue::Object(members) => Ok(Self {
                members,
                taken: vec![false; members.len()],
                context,
            }),
            other => spec_err(format!(
                "`{context}` must be an object, found {}",
                other.type_name()
            )),
        }
    }

    fn take(&mut self, key: &str) -> Option<&'a JsonValue> {
        for (i, (name, value)) in self.members.iter().enumerate() {
            if name == key {
                self.taken[i] = true;
                return Some(value);
            }
        }
        None
    }

    fn required_str(&mut self, key: &str) -> Result<&'a str, ScenarioError> {
        let value = self.take(key).ok_or_else(|| {
            ScenarioError::Spec(format!(
                "missing required field `{key}` in `{}`",
                self.context
            ))
        })?;
        value.as_str().ok_or_else(|| {
            ScenarioError::Spec(format!(
                "`{}.{key}` must be a string, found {}",
                self.context,
                value.type_name()
            ))
        })
    }

    fn f64_field(&mut self, key: &str) -> Result<Option<f64>, ScenarioError> {
        match self.take(key) {
            None => Ok(None),
            Some(value) => value.as_f64().map(Some).ok_or_else(|| {
                ScenarioError::Spec(format!(
                    "`{}.{key}` must be a number, found {}",
                    self.context,
                    value.type_name()
                ))
            }),
        }
    }

    fn required_f64(&mut self, key: &str) -> Result<f64, ScenarioError> {
        self.f64_field(key)?.ok_or_else(|| {
            ScenarioError::Spec(format!(
                "missing required field `{key}` in `{}`",
                self.context
            ))
        })
    }

    fn u64_or(&mut self, key: &str, default: u64) -> Result<u64, ScenarioError> {
        match self.f64_field(key)? {
            None => Ok(default),
            Some(v) => {
                if v.fract() == 0.0 && (0.0..=MAX_EXACT_INT as f64).contains(&v) {
                    Ok(v as u64)
                } else {
                    spec_err(format!(
                        "`{}.{key}` must be a non-negative integer <= 2^53, got {v}",
                        self.context
                    ))
                }
            }
        }
    }

    fn required_u64(&mut self, key: &str) -> Result<u64, ScenarioError> {
        if self.members.iter().all(|(name, _)| name != key) {
            return spec_err(format!(
                "missing required field `{key}` in `{}`",
                self.context
            ));
        }
        self.u64_or(key, 0)
    }

    fn finish(self) -> Result<(), ScenarioError> {
        let unknown: Vec<&str> = self
            .members
            .iter()
            .zip(&self.taken)
            .filter(|(_, &taken)| !taken)
            .map(|((name, _), _)| name.as_str())
            .collect();
        if unknown.is_empty() {
            Ok(())
        } else {
            spec_err(format!(
                "unknown field(s) in `{}`: {}",
                self.context,
                unknown.join(", ")
            ))
        }
    }
}

fn topology_from_value(value: &JsonValue) -> Result<TopologySpec, ScenarioError> {
    let mut fields = Fields::new(value, "topology")?;
    let kind = fields.required_str("kind")?;
    let spec = match kind {
        "grid" => TopologySpec::Grid {
            side: fields.required_u64("side")? as u32,
            spacing_m: fields.required_f64("spacing_m")?,
        },
        "random" => TopologySpec::Random {
            nodes: fields.required_u64("nodes")? as u32,
            field_m: fields.required_f64("field_m")?,
        },
        "star" => TopologySpec::Star {
            leaves: fields.required_u64("leaves")? as u32,
            radius_m: fields.required_f64("radius_m")?,
        },
        other => {
            return spec_err(format!(
                "unknown topology kind {other:?} (expected grid, random or star)"
            ))
        }
    };
    fields.finish()?;
    Ok(spec)
}

fn network_from_value(value: &JsonValue) -> Result<NetworkParams, ScenarioError> {
    let defaults = NetworkParams::default();
    let mut fields = Fields::new(value, "network")?;
    let params = NetworkParams {
        report_interval_s: fields
            .f64_field("report_interval_s")?
            .unwrap_or(defaults.report_interval_s),
        idle_power_uw: fields
            .f64_field("idle_power_uw")?
            .unwrap_or(defaults.idle_power_uw),
        node_energy_j: fields
            .f64_field("node_energy_j")?
            .unwrap_or(defaults.node_energy_j),
        max_hop_m: fields.f64_field("max_hop_m")?.unwrap_or(defaults.max_hop_m),
    };
    fields.finish()?;
    Ok(params)
}

fn workload_from_value(value: &JsonValue) -> Result<WorkloadSpec, ScenarioError> {
    let mut fields = Fields::new(value, "workload")?;
    let kind = fields.required_str("kind")?;
    let spec = match kind {
        "gathering" => {
            let strategy = match fields.required_str("strategy")? {
                "direct_to_sink" => RoutingStrategy::DirectToSink,
                "minimum_energy" => RoutingStrategy::MinimumEnergy,
                other => {
                    return spec_err(format!(
                        "unknown strategy {other:?} (expected direct_to_sink or minimum_energy)"
                    ))
                }
            };
            WorkloadSpec::Gathering { strategy }
        }
        "lossy" => {
            let ber = fields.required_f64("ber")?;
            let attempts = fields.required_u64("arq_attempts")?;
            let Ok(arq_attempts) = u32::try_from(attempts) else {
                return spec_err(format!(
                    "workload.arq_attempts must lie in [1, {}], got {attempts}",
                    u32::MAX
                ));
            };
            WorkloadSpec::Lossy { ber, arq_attempts }
        }
        "cs1_duty_cycle" => WorkloadSpec::Cs1DutyCycle {
            ledger_days: fields.required_f64("ledger_days")?,
        },
        other => {
            return spec_err(format!(
                "unknown workload kind {other:?} (expected gathering, lossy or cs1_duty_cycle)"
            ))
        }
    };
    fields.finish()?;
    Ok(spec)
}

fn sweeps_from_value(value: &JsonValue) -> Result<Vec<SweepAxis>, ScenarioError> {
    let JsonValue::Array(items) = value else {
        return spec_err(format!(
            "`sweeps` must be an array, found {}",
            value.type_name()
        ));
    };
    items
        .iter()
        .map(|item| {
            let mut fields = Fields::new(item, "sweeps[]")?;
            let name = fields.required_str("name")?.to_owned();
            let values_value = fields.take("values").ok_or_else(|| {
                ScenarioError::Spec(format!("sweep axis {name:?} is missing `values`"))
            })?;
            let JsonValue::Array(raw) = values_value else {
                return spec_err(format!(
                    "sweep axis {name:?}: `values` must be an array, found {}",
                    values_value.type_name()
                ));
            };
            let values = raw
                .iter()
                .map(|v| {
                    v.as_f64().ok_or_else(|| {
                        ScenarioError::Spec(format!(
                            "sweep axis {name:?}: values must be numbers, found {}",
                            v.type_name()
                        ))
                    })
                })
                .collect::<Result<Vec<f64>, _>>()?;
            fields.finish()?;
            Ok(SweepAxis { name, values })
        })
        .collect()
}

// ---- canonical serialization (the vendored serde data model) ----
//
// The derive stand-in only handles fieldless enums, so the spec types
// implement `Serialize` by hand. Field order here IS the canonical
// order; the round-trip test pins parse(canonical) == spec.

impl Serialize for TopologySpec {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("TopologySpec", 3)?;
        match self {
            TopologySpec::Grid { side, spacing_m } => {
                s.serialize_field("kind", "grid")?;
                s.serialize_field("side", side)?;
                s.serialize_field("spacing_m", spacing_m)?;
            }
            TopologySpec::Random { nodes, field_m } => {
                s.serialize_field("kind", "random")?;
                s.serialize_field("nodes", nodes)?;
                s.serialize_field("field_m", field_m)?;
            }
            TopologySpec::Star { leaves, radius_m } => {
                s.serialize_field("kind", "star")?;
                s.serialize_field("leaves", leaves)?;
                s.serialize_field("radius_m", radius_m)?;
            }
        }
        s.end()
    }
}

impl Serialize for NetworkParams {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("NetworkParams", 4)?;
        s.serialize_field("report_interval_s", &self.report_interval_s)?;
        s.serialize_field("idle_power_uw", &self.idle_power_uw)?;
        s.serialize_field("node_energy_j", &self.node_energy_j)?;
        s.serialize_field("max_hop_m", &self.max_hop_m)?;
        s.end()
    }
}

impl Serialize for WorkloadSpec {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("WorkloadSpec", 3)?;
        match self {
            WorkloadSpec::Gathering { strategy } => {
                s.serialize_field("kind", "gathering")?;
                s.serialize_field(
                    "strategy",
                    match strategy {
                        RoutingStrategy::DirectToSink => "direct_to_sink",
                        RoutingStrategy::MinimumEnergy => "minimum_energy",
                    },
                )?;
            }
            WorkloadSpec::Lossy { ber, arq_attempts } => {
                s.serialize_field("kind", "lossy")?;
                s.serialize_field("ber", ber)?;
                s.serialize_field("arq_attempts", arq_attempts)?;
            }
            WorkloadSpec::Cs1DutyCycle { ledger_days } => {
                s.serialize_field("kind", "cs1_duty_cycle")?;
                s.serialize_field("ledger_days", ledger_days)?;
            }
        }
        s.end()
    }
}

impl Serialize for SweepAxis {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("SweepAxis", 2)?;
        s.serialize_field("name", &self.name)?;
        s.serialize_field("values", &self.values)?;
        s.end()
    }
}

impl Serialize for ScenarioSpec {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("ScenarioSpec", 9)?;
        s.serialize_field("name", &self.name)?;
        s.serialize_field("seed", &self.seed)?;
        if self.rounds != 0 {
            s.serialize_field("rounds", &self.rounds)?;
        }
        s.serialize_field("replications", &self.replications)?;
        if let Some(topology) = &self.topology {
            s.serialize_field("topology", topology)?;
        }
        s.serialize_field("network", &self.network)?;
        s.serialize_field("workload", &self.workload)?;
        if let Some(faults) = &self.faults {
            s.serialize_field("faults", faults)?;
        }
        if !self.sweeps.is_empty() {
            s.serialize_field("sweeps", &self.sweeps)?;
        }
        s.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> &'static str {
        r#"{
            "name": "t",
            "rounds": 10,
            "topology": {"kind": "grid", "side": 3, "spacing_m": 30.0},
            "workload": {"kind": "gathering", "strategy": "minimum_energy"}
        }"#
    }

    #[test]
    fn defaults_fill_in() {
        let spec = ScenarioSpec::from_json_str(minimal()).unwrap();
        assert_eq!(spec.seed, DEFAULT_SEED);
        assert_eq!(spec.replications, 1);
        assert_eq!(spec.network, NetworkParams::default());
        assert!(spec.faults.is_none() && spec.sweeps.is_empty());
    }

    #[test]
    fn many_sweep_axes_validate_in_linear_time() {
        // The duplicate-name check used to scan every earlier axis:
        // 10⁵ one-value axes took 21.6 s in a release build.
        let mut spec = ScenarioSpec::from_json_str(minimal()).unwrap();
        spec.sweeps = (0..100_000)
            .map(|k| SweepAxis {
                name: format!("a{k}"),
                values: vec![1.0],
            })
            .collect();
        let started = std::time::Instant::now();
        assert!(spec.validate().is_ok());
        // A late duplicate is still the one named.
        spec.sweeps.push(SweepAxis {
            name: "a99998".into(),
            values: vec![2.0],
        });
        let err = spec.validate().unwrap_err().to_string();
        assert!(
            started.elapsed() < std::time::Duration::from_secs(2),
            "two validations of 10⁵ axes took {:?}",
            started.elapsed()
        );
        assert!(err.contains(r#"duplicate sweep axis "a99998""#), "{err}");
    }

    #[test]
    fn network_params_default_matches_sensor_default() {
        let from_params = NetworkParams::default().to_network_config();
        assert_eq!(from_params, NetworkConfig::sensor_default());
    }

    #[test]
    fn canonical_round_trips() {
        let spec = ScenarioSpec::from_json_str(minimal()).unwrap();
        let canonical = spec.canonical_json();
        let reparsed = ScenarioSpec::from_json_str(&canonical).unwrap();
        assert_eq!(spec, reparsed);
        assert_eq!(canonical, reparsed.canonical_json());
    }

    #[test]
    fn unknown_fields_rejected_at_every_level() {
        for (doc, what) in [
            (
                r#"{"name":"t","typo":1,"workload":{"kind":"cs1_duty_cycle","ledger_days":1},"sweeps":[{"name":"check_interval_s","values":[1]}]}"#,
                "top level",
            ),
            (
                r#"{"name":"t","rounds":1,"topology":{"kind":"grid","side":3,"spacing_m":30,"oops":1},"workload":{"kind":"gathering","strategy":"minimum_energy"}}"#,
                "topology",
            ),
            (
                r#"{"name":"t","rounds":1,"topology":{"kind":"grid","side":3,"spacing_m":30},"workload":{"kind":"gathering","strategy":"minimum_energy","x":2}}"#,
                "workload",
            ),
            (
                r#"{"name":"t","rounds":1,"network":{"warp":9},"topology":{"kind":"grid","side":3,"spacing_m":30},"workload":{"kind":"gathering","strategy":"minimum_energy"}}"#,
                "network",
            ),
        ] {
            let err = ScenarioSpec::from_json_str(doc).unwrap_err();
            assert!(
                matches!(&err, ScenarioError::Spec(msg) if msg.contains("unknown field")),
                "{what}: {err}"
            );
        }
    }

    #[test]
    fn semantic_rules_enforced() {
        // Gathering without topology.
        let err = ScenarioSpec::from_json_str(
            r#"{"name":"t","rounds":1,"workload":{"kind":"gathering","strategy":"minimum_energy"}}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("topology"), "{err}");
        // Bad fault grammar.
        let err = ScenarioSpec::from_json_str(
            r#"{"name":"t","rounds":1,"faults":"death=2.0","topology":{"kind":"grid","side":3,"spacing_m":30},"workload":{"kind":"gathering","strategy":"minimum_energy"}}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("faults"), "{err}");
        // Fault durations the generator cannot draw: compiling them
        // would panic inside the cache's claimed slot.
        for faults in ["outage=0.2:0", "link=0.3:-2", "outage=0.2:nan"] {
            let mut spec = ScenarioSpec::from_json_str(minimal()).unwrap();
            spec.faults = Some(faults.into());
            let err = spec.validate().unwrap_err();
            assert!(err.to_string().contains("duration"), "{faults}: {err}");
        }
        // Uppercase name.
        let err = ScenarioSpec::from_json_str(
            r#"{"name":"T","rounds":1,"topology":{"kind":"grid","side":3,"spacing_m":30},"workload":{"kind":"gathering","strategy":"minimum_energy"}}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("a-z"), "{err}");
    }

    /// A one-round lossy spec on a 3×3 grid with `ber` and
    /// `arq_attempts` spliced in as raw JSON.
    fn lossy(ber: &str, arq_attempts: &str) -> Result<ScenarioSpec, ScenarioError> {
        ScenarioSpec::from_json_str(&format!(
            r#"{{"name":"t","rounds":1,"topology":{{"kind":"grid","side":3,"spacing_m":30}},
                "workload":{{"kind":"lossy","ber":{ber},"arq_attempts":{arq_attempts}}}}}"#
        ))
    }

    #[test]
    fn lossy_ber_outside_the_session_range_is_rejected() {
        // The lossy session asserts BER in [0, 0.5]; a spec past it
        // must fail validation, before it is compiled, cached and run.
        for ber in ["0.5000001", "0.7", "1", "-0.1"] {
            let err = lossy(ber, "4").unwrap_err();
            assert!(err.to_string().contains("[0, 0.5]"), "{ber}: {err}");
        }
        for ber in ["0", "0.5"] {
            lossy(ber, "4").unwrap_or_else(|err| panic!("{ber}: {err}"));
        }
    }

    #[test]
    fn arq_attempts_past_u32_are_rejected_not_wrapped() {
        // A narrowing cast would turn 2^32 + 1 into one attempt, whose
        // canonical JSON would hash as the 1-attempt spec, and 2^32
        // into zero attempts.
        for arq_attempts in ["0", "4294967296", "4294967297"] {
            let err = lossy("0.001", arq_attempts).unwrap_err();
            assert!(
                err.to_string().contains("[1, 4294967295]"),
                "{arq_attempts}: {err}"
            );
        }
        let most = lossy("0.001", "4294967295").unwrap();
        assert!(matches!(
            most.workload,
            WorkloadSpec::Lossy {
                arq_attempts: u32::MAX,
                ..
            }
        ));
    }

    #[test]
    fn topology_sizes_are_bounded() {
        let sized = |topology| {
            let mut spec = ScenarioSpec::from_json_str(minimal()).unwrap();
            spec.topology = Some(topology);
            spec.validate()
        };
        let grid = |side| TopologySpec::Grid {
            side,
            spacing_m: 25.0,
        };
        let random = |nodes| TopologySpec::Random {
            nodes,
            field_m: 500.0,
        };
        let star = |leaves| TopologySpec::Star {
            leaves,
            radius_m: 30.0,
        };
        // 1024² = MAX_NODES: the largest grid that fits.
        assert!(sized(grid(1024)).is_ok());
        assert!(sized(random(1_000_000)).is_ok());
        assert!(sized(star(MAX_NODES as u32 - 1)).is_ok());
        // `u32::MAX` sides overflowed a capacity inside the compile.
        for too_big in [
            grid(1025),
            grid(100_000),
            grid(u32::MAX),
            random(MAX_NODES as u32 + 1),
            random(u32::MAX),
            star(MAX_NODES as u32),
        ] {
            let err = sized(too_big.clone()).unwrap_err();
            assert!(err.to_string().contains("limit"), "{too_big:?}: {err}");
        }
    }

    #[test]
    fn hash_is_stable_across_key_order_and_defaults() {
        let a = ScenarioSpec::from_json_str(minimal()).unwrap();
        let b = ScenarioSpec::from_json_str(
            r#"{
                "workload": {"strategy": "minimum_energy", "kind": "gathering"},
                "replications": 1,
                "seed": 2003,
                "topology": {"spacing_m": 30.0, "side": 3, "kind": "grid"},
                "rounds": 10,
                "name": "t",
                "network": {"node_energy_j": 50.0}
            }"#,
        )
        .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.hash(), b.hash());
        // And a real knob change moves the hash.
        let c = ScenarioSpec {
            rounds: 11,
            ..a.clone()
        };
        assert_ne!(a.hash(), c.hash());
    }

    #[test]
    fn axis_accessors() {
        let spec = ScenarioSpec::from_json_str(
            r#"{
                "name": "t",
                "workload": {"kind": "cs1_duty_cycle", "ledger_days": 3.0},
                "sweeps": [{"name": "check_interval_s", "values": [0.5, 1.0]}]
            }"#,
        )
        .unwrap();
        assert_eq!(spec.axis("check_interval_s"), Some(&[0.5, 1.0][..]));
        assert!(spec.axis("nope").is_none());
        assert!(
            spec.axis_usize("check_interval_s").is_err(),
            "0.5 not usize"
        );
    }
}
