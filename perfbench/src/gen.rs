//! Seeded input generators. The benchmark seed goes in; the program
//! under test only ever sees what comes out: a node field, two scenario
//! documents, or a stream of request frames.

use ami_net::Topology;
use ami_scenario::{ScenarioHash, ScenarioSpec};
use ami_units::Length;
use std::path::Path;

/// SplitMix64: a tiny, fully specified generator, so a seed means the
/// same inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` mixed with a stream tag, so the inputs of
    /// different workloads never share draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn between(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// A seed small enough to ride through a JSON number exactly.
    pub fn json_seed(&mut self) -> u64 {
        self.next_u64() >> 12
    }
}

const STREAM_MEGACITY: u64 = 1;
const STREAM_CITY: u64 = 2;
const STREAM_SVC: u64 = 3;

/// Nodes in the megacity field.
pub const MEGACITY_NODES: usize = 300_000;

/// Field side for `n` nodes at the constant density of
/// `expt_bench_snapshot`: 25·√n metres.
pub fn field_side_m(n: usize) -> f64 {
    25.0 * (n as f64).sqrt()
}

/// The megacity inputs: topology seed and lossy-channel seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MegacityInputs {
    /// Seed of the random node field.
    pub topology_seed: u64,
    /// Seed of the lossy rounds' channel draws.
    pub channel_seed: u64,
}

/// Draws the megacity inputs for `seed`.
pub fn megacity_inputs(seed: u64) -> MegacityInputs {
    let mut rng = Rng::new(seed, STREAM_MEGACITY);
    MegacityInputs {
        topology_seed: rng.json_seed(),
        channel_seed: rng.json_seed(),
    }
}

/// The megacity node field for `inputs`.
pub fn megacity_topology(inputs: &MegacityInputs) -> Topology {
    Topology::random(
        MEGACITY_NODES,
        Length::from_meters(field_side_m(MEGACITY_NODES)),
        inputs.topology_seed,
    )
}

/// Nodes in the faulted city field.
pub const CITY_NODES: usize = 100_000;
/// F15's fault mix.
pub const CITY_FAULTS: &str = "death=0.1,outage=0.2:10,link=0.1:8";
/// Rounds of each city spec.
pub const CITY_ROUNDS: u64 = 10;
/// Side of the tiny-budget district grid (10⁴ nodes, enough for the
/// region-parallel engine to engage on two threads).
pub const DISTRICT_SIDE: u32 = 100;
/// Node budget of the district: relays near its sink die within the
/// run and the energy-margin checks send rounds to the fallback path,
/// as in F6's tiny-budget sweep.
pub const DISTRICT_NODE_ENERGY_J: f64 = 0.2;

/// The scenario documents of one faulted city study, all under F15's
/// fault mix: gathering and lossy rounds on a 10⁵-node random field at
/// the default budget, and gathering on a tiny-budget 10⁴-node district
/// grid at the same density.
///
/// The big field keeps the default budget on purpose: with relays that
/// die, the round at which the sink is cut off (and the work stops)
/// depends on the drawn field, and the study's cost swung by a third
/// from seed to seed. A grid's layout is the same for every seed, so
/// the district exercises deaths and margin fallbacks at a steady cost.
pub fn city_documents(seed: u64) -> [String; 3] {
    let mut rng = Rng::new(seed, STREAM_CITY);
    let scenario_seed = rng.json_seed();
    let field = field_side_m(CITY_NODES);
    let random =
        format!(r#""topology": {{"kind": "random", "nodes": {CITY_NODES}, "field_m": {field}}}"#);
    let gathering = r#""workload": {"kind": "gathering", "strategy": "minimum_energy"}"#;
    let common =
        format!(r#""seed": {scenario_seed}, "rounds": {CITY_ROUNDS}, "faults": "{CITY_FAULTS}""#);
    [
        format!(r#"{{"name": "city-faulted-gather", {common}, {random}, {gathering}}}"#),
        format!(
            r#"{{"name": "city-faulted-lossy", {common}, {random},
  "workload": {{"kind": "lossy", "ber": 0.001, "arq_attempts": 4}}}}"#
        ),
        format!(
            r#"{{"name": "city-faulted-district", {common},
  "topology": {{"kind": "grid", "side": {DISTRICT_SIDE}, "spacing_m": 25.0}},
  "network": {{"node_energy_j": {DISTRICT_NODE_ENERGY_J}}}, {gathering}}}"#
        ),
    ]
}

/// The checked-in scenario files the service mix perturbs.
/// Variants take the popular ranks in this order, so the heaviest study
/// (F6, 32 replications) is the most requested one and the p99 round
/// trip falls inside its population on every seed.
pub const TEMPLATE_FILES: [&str; 4] = [
    "f6_network_scaling.scenario.json",
    "f15_city_scale.scenario.json",
    "f13_lossy_network.scenario.json",
    "f3_cs1_duty_cycle.scenario.json",
];

/// Where [`TEMPLATE_FILES`] live, relative to the repository root.
pub const TEMPLATE_DIR: &str = "crates/experiments/scenarios";

/// Loads the checked-in templates from `dir`.
///
/// # Errors
///
/// A message naming the file that is missing or invalid.
pub fn load_templates(dir: &Path) -> Result<Vec<ScenarioSpec>, String> {
    TEMPLATE_FILES
        .iter()
        .map(|file| ScenarioSpec::load(dir.join(file)).map_err(|err| err.to_string()))
        .collect()
}

// The service mix. Its stated targets are a shape only: skewed
// popularity over a hot set larger than the daemon's cache, a cold tail,
// about one frame in ten a batch, a few percent invalid, probes most of
// the requests. No measurement of real traffic backs the values below
// that are not one of those: they are assumptions, and every run prints
// them next to the cache hit share it measured.

/// Distinct specs in the popular set. Assumed: twice the daemon's
/// 64-entry cache, the stated target being only "larger than the cache".
pub const HOT_SET: usize = 128;
/// Zipf exponent of popularity over the hot set. Assumed.
pub const ZIPF_S: f64 = 0.9;
/// One spec in this many is a variant of a checked-in study; the rest
/// are interactive probes. Assumed (the stated target is that probes are
/// most of the requests). In the popular set the variants sit at fixed
/// popularity ranks (`rank % VARIANT_EVERY == 2`, templates in turn), so
/// every seed sends the heavy studies at the same rates.
pub const VARIANT_EVERY: usize = 7;
/// Share of specs that are interactive probes.
pub const PROBE_SHARE: f64 = 1.0 - 1.0 / VARIANT_EVERY as f64;
/// Share of frames that are batches (stated: about one in ten).
pub const BATCH_SHARE: f64 = 0.10;
/// Share of single frames carrying an invalid request (stated: a few
/// percent).
pub const INVALID_SHARE: f64 = 0.03;
/// Share of single frames carrying a spec that never repeats. Assumed.
pub const COLD_SHARE: f64 = 0.15;

/// The mix parameters as one line, marked as assumed where they are.
pub fn svc_mix_parameters() -> String {
    format!(
        "assumed: Zipf s={ZIPF_S} over a hot set of {HOT_SET} specs, \
         {COLD_SHARE} of single frames never-repeating, 1 study variant per \
         {VARIANT_EVERY} specs, batches of popular probes only; stated: \
         {BATCH_SHARE} of frames batches, {INVALID_SHARE} of single frames invalid"
    )
}

/// Which spec a request carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpecId {
    /// Popularity rank in the hot set.
    Hot(usize),
    /// Index among the stream's never-repeating specs.
    Cold(usize),
}

/// What the reply to one request must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A manifest for this spec.
    Manifest(SpecId),
    /// An error (the request is invalid).
    Error,
}

/// One request of a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request id the reply must echo.
    pub id: String,
    /// The expected reply.
    pub expect: Expect,
    /// True when an earlier request of the same batch carries the same
    /// spec (the service runs it once for both).
    pub batch_mate: bool,
}

/// One request frame: the wire payload plus what each reply must be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The JSON payload, sent as one length-prefixed frame.
    pub payload: String,
    /// True when the payload is an array of requests.
    pub batch: bool,
    /// The requests, in wire order.
    pub requests: Vec<Request>,
}

/// One spec of the popular set, rendered once.
#[derive(Debug, Clone)]
pub struct HotSpec {
    /// The spec.
    pub spec: ScenarioSpec,
    /// Its canonical document, as sent.
    pub doc: String,
    /// Its canonical hash.
    pub hash: ScenarioHash,
    /// The same spec with `rounds: 0` (invalid), when it has rounds.
    zero_rounds: Option<String>,
}

/// A spec that appears once in the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColdSpec {
    /// The document, as sent.
    pub doc: String,
    /// True for an interactive probe, false for a study variant.
    pub probe: bool,
}

/// The seeded service stream, made one frame at a time so that the
/// timed window, not a frame count, ends a run. The popular set is
/// rendered up front; afterwards a frame costs string formatting, plus
/// one spec render when it carries a never-repeating study variant
/// (about 2 % of frames). Cold specs are hashed only when checked.
#[derive(Debug, Clone)]
pub struct SvcGen {
    rng: Rng,
    templates: Vec<ScenarioSpec>,
    hot: Vec<HotSpec>,
    /// Cumulative Zipf weights over the hot set.
    cumulative: Vec<f64>,
    cold: Vec<ColdSpec>,
    frames: usize,
}

/// An interactive probe document: a 3×3 to 7×7 grid, 5–50 rounds,
/// gathering or lossy.
fn probe_doc(rng: &mut Rng, name: &str) -> String {
    let side = rng.between(3, 7);
    let rounds = rng.between(5, 50);
    let seed = rng.json_seed();
    let workload = if rng.unit() < 0.5 {
        r#"{"kind": "gathering", "strategy": "minimum_energy"}"#.to_owned()
    } else {
        let ber = [1e-4, 1e-3, 3e-3][rng.between(0, 2) as usize];
        let arq = rng.between(1, 8);
        format!(r#"{{"kind": "lossy", "ber": {ber}, "arq_attempts": {arq}}}"#)
    };
    format!(
        r#"{{"name": "{name}", "seed": {seed}, "rounds": {rounds},
  "topology": {{"kind": "grid", "side": {side}, "spacing_m": 30.0}},
  "workload": {workload}}}"#
    )
}

/// A variant of a checked-in study: new name and seed, rounds scaled by
/// 0.9–1.0 (the CS1 study has no rounds).
fn variant(rng: &mut Rng, template: &ScenarioSpec, name: &str) -> ScenarioSpec {
    let mut spec = template.clone();
    spec.name = format!("{}-{name}", spec.name);
    spec.seed = rng.json_seed();
    if spec.rounds > 0 {
        spec.rounds = ((spec.rounds as f64) * (0.9 + 0.1 * rng.unit())).ceil() as u64;
    }
    spec.validate().expect("perturbed templates stay valid");
    spec
}

/// Whether popularity rank `rank` holds a study variant.
fn is_variant_rank(rank: usize) -> bool {
    rank % VARIANT_EVERY == 2
}

fn request_json(id: &str, scenario: &str) -> String {
    format!(r#"{{"id": "{id}", "threads": 1, "scenario": {scenario}}}"#)
}

impl SvcGen {
    /// The generator for `seed` over the checked-in `templates`.
    pub fn new(seed: u64, templates: &[ScenarioSpec]) -> Self {
        let mut rng = Rng::new(seed, STREAM_SVC);
        let hot = (0..HOT_SET)
            .map(|rank| {
                let name = format!("hot{rank}");
                let spec = if is_variant_rank(rank) {
                    let template = &templates[(rank / VARIANT_EVERY) % templates.len()];
                    variant(&mut rng, template, &name)
                } else {
                    ScenarioSpec::from_json_str(&probe_doc(&mut rng, &format!("probe-{name}")))
                        .expect("generated probes are valid scenarios")
                };
                let zero_rounds = (spec.rounds > 0).then(|| {
                    let mut zero = spec.clone();
                    zero.rounds = 0;
                    zero.canonical_json()
                });
                HotSpec {
                    doc: spec.canonical_json(),
                    hash: spec.hash(),
                    spec,
                    zero_rounds,
                }
            })
            .collect();
        let mut total = 0.0;
        let cumulative = (0..HOT_SET)
            .map(|rank| {
                total += 1.0 / ((rank + 1) as f64).powf(ZIPF_S);
                total
            })
            .collect();
        Self {
            rng,
            templates: templates.to_vec(),
            hot,
            cumulative,
            cold: Vec::new(),
            frames: 0,
        }
    }

    /// The popular set, by rank.
    pub fn hot(&self) -> &[HotSpec] {
        &self.hot
    }

    /// The never-repeating specs made so far, in order.
    pub fn cold(&self) -> &[ColdSpec] {
        &self.cold
    }

    /// Frames made so far.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// The spec `id` names (a cold one is parsed from its document).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not made by this generator.
    pub fn spec(&self, id: SpecId) -> ScenarioSpec {
        match id {
            SpecId::Hot(rank) => self.hot[rank].spec.clone(),
            SpecId::Cold(k) => ScenarioSpec::from_json_str(&self.cold[k].doc)
                .expect("generated specs are valid scenarios"),
        }
    }

    fn pick_hot(&mut self) -> usize {
        let total = self.cumulative[HOT_SET - 1];
        let x = self.rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(HOT_SET - 1)
    }

    fn pick_probe(&mut self) -> usize {
        loop {
            let rank = self.pick_hot();
            if !is_variant_rank(rank) {
                break rank;
            }
        }
    }

    /// Makes a never-repeating spec; returns its id and document.
    fn cold_spec(&mut self, frame: usize) -> (SpecId, &str) {
        let name = format!("cold{frame}");
        let spec = if self.rng.between(0, VARIANT_EVERY as u64 - 1) == 0 {
            let t = self.rng.between(0, self.templates.len() as u64 - 1) as usize;
            let doc = variant(&mut self.rng, &self.templates[t], &name).canonical_json();
            ColdSpec { doc, probe: false }
        } else {
            let doc = probe_doc(&mut self.rng, &format!("probe-{name}"));
            ColdSpec { doc, probe: true }
        };
        self.cold.push(spec);
        let k = self.cold.len() - 1;
        (SpecId::Cold(k), &self.cold[k].doc)
    }

    /// Makes the next frame.
    pub fn next_frame(&mut self) -> Frame {
        let k = self.frames;
        self.frames += 1;
        let roll = self.rng.unit();
        if roll < BATCH_SHARE {
            // A probe sweep: 2–4 popular probes around one duplicated
            // spec. Studies travel alone, so the slowest frames are
            // single study runs and the p99 stays put across seeds.
            let lead = self.pick_probe();
            let mut members = vec![lead, lead];
            for _ in 0..self.rng.between(0, 2) {
                members.push(self.pick_probe());
            }
            // Shuffle so the duplicate is not always adjacent.
            for i in (1..members.len()).rev() {
                members.swap(i, self.rng.between(0, i as u64) as usize);
            }
            let mut requests = Vec::new();
            let mut parts = Vec::new();
            for (j, &m) in members.iter().enumerate() {
                let id = format!("f{k}.{j}");
                parts.push(request_json(&id, &self.hot[m].doc));
                requests.push(Request {
                    id,
                    expect: Expect::Manifest(SpecId::Hot(m)),
                    batch_mate: members[..j].contains(&m),
                });
            }
            return Frame {
                payload: format!("[{}]", parts.join(", ")),
                batch: true,
                requests,
            };
        }
        let id = format!("f{k}");
        let roll = (roll - BATCH_SHARE) / (1.0 - BATCH_SHARE);
        let (payload, expect) = if roll < INVALID_SHARE {
            let rank = self.pick_hot();
            let unknown_member = self.rng.unit() < 0.5;
            let hot = &self.hot[rank];
            let payload = match &hot.zero_rounds {
                Some(zero) if !unknown_member => request_json(&id, zero),
                _ => format!(
                    r#"{{"id": "{id}", "threads": 1, "speed": 11, "scenario": {}}}"#,
                    hot.doc
                ),
            };
            (payload, Expect::Error)
        } else if roll < INVALID_SHARE + COLD_SHARE {
            let (spec, doc) = self.cold_spec(k);
            (request_json(&id, doc), Expect::Manifest(spec))
        } else {
            let rank = self.pick_hot();
            let payload = request_json(&id, &self.hot[rank].doc);
            (payload, Expect::Manifest(SpecId::Hot(rank)))
        };
        Frame {
            payload,
            batch: false,
            requests: vec![Request {
                id,
                expect,
                batch_mate: false,
            }],
        }
    }
}

/// The first frames of a service stream, with the generator that made
/// them (it resolves their specs).
#[derive(Debug, Clone)]
pub struct Stream {
    /// The frames, in send order.
    pub frames: Vec<Frame>,
    /// The generator, positioned after the last frame.
    pub gen: SvcGen,
}

/// The first `frames` frames of the service stream for `seed`.
pub fn svc_stream(seed: u64, templates: &[ScenarioSpec], frames: usize) -> Stream {
    let mut gen = SvcGen::new(seed, templates);
    let frames = (0..frames).map(|_| gen.next_frame()).collect();
    Stream { frames, gen }
}

/// Shares of a stream's requests that carry the properties the serving
/// layers react to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamShares {
    /// Frames that are batches, over frames.
    pub batch_frames: f64,
    /// Batch-mates, over requests.
    pub batch_mates: f64,
    /// Invalid requests, over requests.
    pub invalid: f64,
    /// Requests carrying a never-repeating spec, over valid requests.
    pub cold: f64,
    /// Requests that are interactive probes, over valid requests.
    pub probes: f64,
}

impl Stream {
    /// The shares of the stream's frames.
    pub fn shares(&self) -> StreamShares {
        let (mut requests, mut mates, mut invalid, mut cold, mut probes) = (0, 0, 0, 0, 0);
        for request in self.frames.iter().flat_map(|f| &f.requests) {
            requests += 1;
            mates += u64::from(request.batch_mate);
            match request.expect {
                Expect::Error => invalid += 1,
                Expect::Manifest(SpecId::Hot(rank)) => {
                    probes += u64::from(!is_variant_rank(rank));
                }
                Expect::Manifest(SpecId::Cold(k)) => {
                    cold += 1;
                    probes += u64::from(self.gen.cold()[k].probe);
                }
            }
        }
        let valid = (requests - invalid).max(1) as f64;
        StreamShares {
            batch_frames: self.frames.iter().filter(|f| f.batch).count() as f64
                / self.frames.len().max(1) as f64,
            batch_mates: mates as f64 / requests.max(1) as f64,
            invalid: invalid as f64 / requests.max(1) as f64,
            cold: cold as f64 / valid,
            probes: probes as f64 / valid,
        }
    }
}
