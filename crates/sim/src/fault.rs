//! Deterministic exogenous fault injection for simulations.
//!
//! The keynote's ambient functions run on networks of unreliable,
//! scavenging devices: nodes die, reboot, lose links, harvesters brown
//! out and batteries fade. The energy-exhaustion model in `ami-net`
//! captures *endogenous* death only; this module layers **exogenous**
//! failures on top, without giving up the toolkit's determinism
//! contract:
//!
//! * a [`FaultSchedule`] is an explicit, validated event list — a pure
//!   value that two runs interpret identically;
//! * a [`FaultModel`] is a seeded stochastic generator whose
//!   [`schedule`](FaultModel::schedule) is a pure function of
//!   `(seed, nodes, rounds)`, drawn from per-node SplitMix64-decorrelated
//!   substreams — the same seed-partitioning discipline as the runner, so
//!   schedules are bit-exact at any `AMBIENCE_THREADS`;
//! * a [`FaultSpec`] is the operator surface: a compact string (the F13
//!   binary reads one from [`FAULTS_ENV`], i.e. `AMBIENCE_FAULTS`, and
//!   scenario files carry one) parsed into a model plus a seed-mixing
//!   rule, so runs can be faulted without recompiling.
//!
//! Consumers query the schedule per round ([`node_down`],
//! [`link_down`], [`harvest_scale`], [`capacity_factor`]) and attribute
//! fault-caused packet losses to the `dropped_fault` counter cause (see
//! [`crate::obs::PacketCounters`]). Round loops that would pay those
//! O(events) scans per query compile the schedule into a
//! [`FaultTimeline`] once and advance a monotone cursor instead — same
//! answers (pinned by tests), no scan and no hashing per query.
//!
//! [`node_down`]: FaultSchedule::node_down
//! [`link_down`]: FaultSchedule::link_down
//! [`harvest_scale`]: FaultSchedule::harvest_scale
//! [`capacity_factor`]: FaultSchedule::capacity_factor
//!
//! # Example
//!
//! ```
//! use ami_sim::fault::{FaultEvent, FaultSchedule};
//!
//! let schedule = FaultSchedule::new(vec![
//!     FaultEvent::NodeOutage { node: 3, from: 10, until: 20 },
//!     FaultEvent::NodeDeath { node: 5, round: 40 },
//! ]);
//! assert!(!schedule.node_down(3, 9));
//! assert!(schedule.node_down(3, 10));
//! assert!(!schedule.node_down(3, 20)); // rebooted
//! assert!(schedule.node_down(5, 40));
//! assert!(schedule.node_down(5, 10_000)); // death is permanent
//! ```

#![deny(missing_docs)]

use rand::rngs::StdRng;
use rand::RngExt;

/// Environment variable the F13 experiment binary reads for fault
/// injection: unset → no faults, otherwise a [`FaultSpec`] string such
/// as `death=0.1,outage=0.2:40`.
pub const FAULTS_ENV: &str = "AMBIENCE_FAULTS";

/// One exogenous failure. Rounds are half-open windows `[from, until)`;
/// a [`NodeDeath`](Self::NodeDeath) is permanent from its round on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// `node` powers off permanently at the start of `round`.
    NodeDeath {
        /// The failing node's raw id.
        node: usize,
        /// First round the node is down.
        round: u64,
    },
    /// `node` is down for rounds in `[from, until)`, then reboots with
    /// whatever energy budget it had left (a powered-off node spends
    /// nothing).
    NodeOutage {
        /// The failing node's raw id.
        node: usize,
        /// First round of the outage.
        from: u64,
        /// First round the node is back up.
        until: u64,
    },
    /// The (symmetric) link between `a` and `b` carries nothing for
    /// rounds in `[from, until)`.
    LinkOutage {
        /// One endpoint's raw id.
        a: usize,
        /// The other endpoint's raw id.
        b: usize,
        /// First round of the outage.
        from: u64,
        /// First round the link is back up.
        until: u64,
    },
    /// Every harvester's output is multiplied by `scale` (in `[0, 1]`)
    /// for rounds in `[from, until)`.
    Brownout {
        /// Output multiplier during the brownout.
        scale: f64,
        /// First round of the brownout.
        from: u64,
        /// First round harvest recovers.
        until: u64,
    },
    /// `node` starts the run with its energy capacity multiplied by
    /// `factor` (in `(0, 1]`) — an aged or cold battery.
    CapacityFade {
        /// The affected node's raw id.
        node: usize,
        /// Capacity multiplier, applied once at deployment.
        factor: f64,
    },
}

/// An explicit, validated list of [`FaultEvent`]s — the value every
/// fault-aware simulation entry point consumes.
///
/// Two runs handed equal schedules behave identically; a schedule is
/// plain data with no interior randomness or environment reads.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// The no-fault schedule: every query answers "healthy", and faulted
    /// simulation paths degenerate bit-exactly to their unfaulted
    /// originals.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds a schedule from events, validating each one.
    ///
    /// # Panics
    ///
    /// Panics when an outage window is empty (`from >= until`), a
    /// brownout scale falls outside `[0, 1]`, or a fade factor falls
    /// outside `(0, 1]` — a malformed fault plan is a configuration
    /// error that must fail loudly, not quietly misfire.
    pub fn new(events: Vec<FaultEvent>) -> Self {
        for event in &events {
            match *event {
                FaultEvent::NodeDeath { .. } => {}
                FaultEvent::NodeOutage { from, until, .. }
                | FaultEvent::LinkOutage { from, until, .. } => {
                    assert!(from < until, "empty outage window {from}..{until}");
                }
                FaultEvent::Brownout { scale, from, until } => {
                    assert!(from < until, "empty brownout window {from}..{until}");
                    assert!(
                        (0.0..=1.0).contains(&scale),
                        "brownout scale {scale} outside [0, 1]"
                    );
                }
                FaultEvent::CapacityFade { factor, .. } => {
                    assert!(
                        factor > 0.0 && factor <= 1.0,
                        "fade factor {factor} outside (0, 1]"
                    );
                }
            }
        }
        Self { events }
    }

    /// `true` when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The validated event list.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether `node` is powered off during `round` (dead or mid-outage).
    pub fn node_down(&self, node: usize, round: u64) -> bool {
        self.events.iter().any(|event| match *event {
            FaultEvent::NodeDeath { node: n, round: r } => n == node && round >= r,
            FaultEvent::NodeOutage {
                node: n,
                from,
                until,
            } => n == node && (from..until).contains(&round),
            _ => false,
        })
    }

    /// Whether the link between `x` and `y` (in either order) is down
    /// during `round`.
    pub fn link_down(&self, x: usize, y: usize, round: u64) -> bool {
        self.events.iter().any(|event| match *event {
            FaultEvent::LinkOutage { a, b, from, until } => {
                ((a, b) == (x, y) || (a, b) == (y, x)) && (from..until).contains(&round)
            }
            _ => false,
        })
    }

    /// Harvester output multiplier during `round`: the product of every
    /// active brownout's scale (1.0 when none are active).
    pub fn harvest_scale(&self, round: u64) -> f64 {
        self.events
            .iter()
            .filter_map(|event| match *event {
                FaultEvent::Brownout { scale, from, until } if (from..until).contains(&round) => {
                    Some(scale)
                }
                _ => None,
            })
            .product()
    }

    /// Deployment-time capacity multiplier for `node`: the product of
    /// its fade factors (1.0 when the node is unfaded).
    pub fn capacity_factor(&self, node: usize) -> f64 {
        self.events
            .iter()
            .filter_map(|event| match *event {
                FaultEvent::CapacityFade { node: n, factor } if n == node => Some(factor),
                _ => None,
            })
            .product()
    }

    /// All per-node [`capacity_factor`](Self::capacity_factor)s for a
    /// `nodes`-node run in one pass: factors multiply in event order, so
    /// each entry is bit-identical to the per-node query. Events naming
    /// nodes at or beyond `nodes` are ignored, matching the query's
    /// behaviour for in-range ids.
    pub fn capacity_factors(&self, nodes: usize) -> Vec<f64> {
        let mut factors = vec![1.0; nodes];
        for event in &self.events {
            if let FaultEvent::CapacityFade { node, factor } = *event {
                if node < nodes {
                    factors[node] *= factor;
                }
            }
        }
        factors
    }
}

/// A per-round cursor over a compiled [`FaultSchedule`]: the city-scale
/// replacement for the O(events) [`FaultSchedule::node_down`] /
/// [`FaultSchedule::link_down`] scans the simulators used to pay per
/// query.
///
/// [`compile`](Self::compile) flattens the schedule into round-sorted
/// up/down transitions; [`advance_to`](Self::advance_to) applies the
/// transitions due by a round (a monotone cursor, O(transitions) over a
/// whole run); the point queries then read counters. Counters make
/// overlapping windows additive, so the answers match the event scan
/// exactly — pinned by unit tests against the scan on arbitrary
/// schedules — and the whole structure allocates nothing after
/// `compile`.
///
/// Link state is laid out for the walkers' per-hop query, which almost
/// always answers "up": a model's link windows join uniformly drawn
/// peers, so hardly any lies on a route edge. Each deduplicated link
/// key owns one active-window counter; each node owns a CSR row of its
/// incident links sorted by peer, plus a count of its open incident
/// windows. [`link_down`](Self::link_down) reads that count for the
/// sender and, only when it is non-zero, searches the sender's row —
/// no hashing on any hop.
///
/// # Example
///
/// ```
/// use ami_sim::fault::{FaultEvent, FaultSchedule, FaultTimeline};
///
/// let schedule = FaultSchedule::new(vec![
///     FaultEvent::NodeOutage { node: 3, from: 2, until: 5 },
///     FaultEvent::LinkOutage { a: 6, b: 1, from: 4, until: 7 },
/// ]);
/// let mut timeline = FaultTimeline::compile(&schedule, 8);
/// timeline.advance_to(2);
/// assert!(timeline.node_down(3));
/// assert!(!timeline.link_down(1, 6));
/// timeline.advance_to(5);
/// assert!(!timeline.node_down(3)); // rebooted
/// assert!(timeline.link_down(1, 6) && timeline.link_down(6, 1));
/// ```
#[derive(Debug, Clone)]
pub struct FaultTimeline {
    /// Round-sorted node transitions: `(round, node, becomes_down)`.
    node_transitions: Vec<(u64, u32, bool)>,
    /// Round-sorted link transitions: `(round, link, becomes_down)`,
    /// where `link` indexes `links`.
    link_transitions: Vec<(u64, u32, bool)>,
    node_cursor: usize,
    link_cursor: usize,
    /// Active down-windows per node; down while > 0.
    node_active: Vec<u32>,
    /// The deduplicated link keys `(low, high)`, sorted.
    links: Vec<(u32, u32)>,
    /// Active down-windows per link key; down while > 0.
    link_active: Vec<u32>,
    /// CSR row starts (`nodes + 1` entries): node `n`'s incident links
    /// are `incident[incident_start[n]..incident_start[n + 1]]`.
    incident_start: Vec<u32>,
    /// `(peer, link)` per incident link, sorted by peer within a row.
    incident: Vec<(u32, u32)>,
    /// Open incident windows per node (a self-link's count twice).
    /// Empty, like `incident_start`, when no link window was compiled —
    /// the one check a link-fault-free round pays per hop.
    open_incident: Vec<u32>,
    /// Highest round advanced to, enforcing cursor monotonicity.
    advanced_to: u64,
}

impl FaultTimeline {
    /// Compiles `schedule` for a `nodes`-node run.
    ///
    /// Node and link events naming ids at or beyond `nodes` are dropped
    /// — the simulators never query them, and
    /// [`link_down`](Self::link_down) answers `false` for such ids.
    /// Deaths become a single down transition (permanent); outages pair
    /// a down transition at `from` with an up transition at `until`,
    /// matching the half-open windows of the event scan.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` exceeds `u32::MAX`.
    pub fn compile(schedule: &FaultSchedule, nodes: usize) -> Self {
        assert!(u32::try_from(nodes).is_ok(), "node ids must fit in u32");
        let id = |node: usize| node as u32;
        let mut node_transitions = Vec::new();
        let mut windows = Vec::new();
        for event in schedule.events() {
            match *event {
                FaultEvent::NodeDeath { node, round } if node < nodes => {
                    node_transitions.push((round, id(node), true));
                }
                FaultEvent::NodeOutage { node, from, until } if node < nodes => {
                    node_transitions.push((from, id(node), true));
                    node_transitions.push((until, id(node), false));
                }
                FaultEvent::LinkOutage { a, b, from, until } if a < nodes && b < nodes => {
                    windows.push(((id(a.min(b)), id(a.max(b))), from, until));
                }
                _ => {}
            }
        }
        node_transitions.sort_by_key(|&(round, ..)| round);

        // Sorting the windows by key lets one pass number the distinct
        // keys. Same-round transitions lose their event order, which is
        // harmless: a window's `from` precedes its `until`, so no
        // counter underflows whatever order they apply in.
        windows.sort_unstable_by_key(|&(key, ..)| key);
        let mut links: Vec<(u32, u32)> = Vec::new();
        let mut link_transitions = Vec::with_capacity(2 * windows.len());
        for &(key, from, until) in &windows {
            if links.last() != Some(&key) {
                links.push(key);
            }
            let link = (links.len() - 1) as u32;
            link_transitions.push((from, link, true));
            link_transitions.push((until, link, false));
        }
        link_transitions.sort_by_key(|&(round, ..)| round);

        // Each link appears in both endpoints' rows (once for a
        // self-link); sorting (node, peer, link) triples lays the rows
        // out contiguously, each sorted by peer.
        let mut rows: Vec<(u32, u32, u32)> = Vec::with_capacity(2 * links.len());
        for (link, &(low, high)) in links.iter().enumerate() {
            rows.push((low, high, link as u32));
            if low != high {
                rows.push((high, low, link as u32));
            }
        }
        rows.sort_unstable();
        let (incident_start, open_incident) = if links.is_empty() {
            (Vec::new(), Vec::new())
        } else {
            let mut start = vec![0u32; nodes + 1];
            for &(node, ..) in &rows {
                start[node as usize + 1] += 1;
            }
            for n in 0..nodes {
                start[n + 1] += start[n];
            }
            (start, vec![0; nodes])
        };
        Self {
            node_transitions,
            link_transitions,
            node_cursor: 0,
            link_cursor: 0,
            node_active: vec![0; nodes],
            link_active: vec![0; links.len()],
            links,
            incident_start,
            incident: rows.iter().map(|&(_, peer, link)| (peer, link)).collect(),
            open_incident,
            advanced_to: 0,
        }
    }

    /// Applies every transition due at or before `round`.
    ///
    /// # Panics
    ///
    /// Panics if `round` precedes an earlier `advance_to` call — the
    /// cursor only moves forward, like simulation time.
    pub fn advance_to(&mut self, round: u64) {
        assert!(
            round >= self.advanced_to,
            "fault timeline cannot rewind ({round} < {})",
            self.advanced_to
        );
        self.advanced_to = round;
        fn step(active: &mut u32, down: bool) {
            *active = if down { *active + 1 } else { *active - 1 };
        }
        while let Some(&(at, node, down)) = self.node_transitions.get(self.node_cursor) {
            if at > round {
                break;
            }
            step(&mut self.node_active[node as usize], down);
            self.node_cursor += 1;
        }
        while let Some(&(at, link, down)) = self.link_transitions.get(self.link_cursor) {
            if at > round {
                break;
            }
            let (low, high) = self.links[link as usize];
            step(&mut self.link_active[link as usize], down);
            step(&mut self.open_incident[low as usize], down);
            step(&mut self.open_incident[high as usize], down);
            self.link_cursor += 1;
        }
    }

    /// Whether `node` is down at the round last advanced to. O(1).
    pub fn node_down(&self, node: usize) -> bool {
        self.node_active[node] > 0
    }

    /// Whether the link between `x` and `y` (either order) is down at
    /// the round last advanced to; `false` when either id is at or
    /// beyond the compiled node count.
    ///
    /// One array read when `x` has no open link window; otherwise a
    /// binary search of `x`'s incident links.
    pub fn link_down(&self, x: usize, y: usize) -> bool {
        if matches!(self.open_incident.get(x), None | Some(0)) {
            return false;
        }
        let row =
            &self.incident[self.incident_start[x] as usize..self.incident_start[x + 1] as usize];
        row.binary_search_by_key(&y, |&(peer, _)| peer as usize)
            .is_ok_and(|k| self.link_active[row[k].1 as usize] > 0)
    }

    /// Whether the compiled schedule has any node or link windows at
    /// all; `false` lets round loops skip the per-round refresh.
    pub fn is_trivial(&self) -> bool {
        self.node_transitions.is_empty() && self.link_transitions.is_empty()
    }
}

/// A seeded stochastic fault generator: rates and durations from which
/// [`schedule`](Self::schedule) draws a concrete [`FaultSchedule`].
///
/// Determinism contract: `schedule(seed, nodes, rounds)` is a **pure
/// function** of its arguments. Each node owns a SplitMix64-decorrelated
/// RNG substream (the same discipline as `base_seed + k` replication
/// seeding), so one node's faults never perturb another's draws and the
/// generated schedule is identical at any worker-thread count.
///
/// # Example
///
/// ```
/// use ami_sim::fault::FaultModel;
///
/// let model = FaultModel {
///     death_rate: 0.5,
///     ..FaultModel::none()
/// };
/// let a = model.schedule(7, 20, 100);
/// let b = model.schedule(7, 20, 100);
/// assert_eq!(a, b); // pure in (seed, nodes, rounds)
/// assert!(!a.is_empty());
/// assert!(!a.node_down(0, 0)); // the sink is never faulted
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FaultModel {
    /// Probability that a sensor dies permanently at a uniform round.
    pub death_rate: f64,
    /// Probability that a sensor suffers one transient outage.
    pub outage_rate: f64,
    /// Duration of transient node outages, in rounds.
    pub outage_rounds: u64,
    /// Probability that a sensor's link to a uniformly drawn peer goes
    /// down for one window.
    pub link_outage_rate: f64,
    /// Duration of link outages, in rounds.
    pub link_outage_rounds: u64,
    /// Probability that a sensor deploys with a faded energy capacity.
    pub fade_rate: f64,
    /// Capacity multiplier applied to faded sensors.
    pub fade_factor: f64,
}

impl FaultModel {
    /// The all-zero model: `schedule` returns [`FaultSchedule::empty`].
    pub fn none() -> Self {
        Self {
            death_rate: 0.0,
            outage_rate: 0.0,
            outage_rounds: 1,
            link_outage_rate: 0.0,
            link_outage_rounds: 1,
            fade_rate: 0.0,
            fade_factor: 1.0,
        }
    }

    /// Draws a concrete schedule for a `nodes`-node, `rounds`-round run.
    ///
    /// Node 0 (the sink, mains-powered by convention) is never faulted.
    /// Outage windows are clamped to end by `rounds` at the earliest
    /// opportunity a full window fits.
    ///
    /// # Panics
    ///
    /// Panics if any rate is outside `[0, 1]`, the fade factor is
    /// outside `(0, 1]`, a nonzero outage rate has a zero duration, or
    /// `rounds` is zero.
    pub fn schedule(&self, seed: u64, nodes: usize, rounds: u64) -> FaultSchedule {
        for (label, rate) in [
            ("death_rate", self.death_rate),
            ("outage_rate", self.outage_rate),
            ("link_outage_rate", self.link_outage_rate),
            ("fade_rate", self.fade_rate),
        ] {
            assert!((0.0..=1.0).contains(&rate), "{label} {rate} outside [0, 1]");
        }
        assert!(
            self.fade_factor > 0.0 && self.fade_factor <= 1.0,
            "fade_factor {} outside (0, 1]",
            self.fade_factor
        );
        assert!(rounds > 0, "schedule at least one round");
        assert!(
            self.outage_rate == 0.0 || self.outage_rounds > 0,
            "outage_rounds must be positive when outage_rate is"
        );
        assert!(
            self.link_outage_rate == 0.0 || self.link_outage_rounds > 0,
            "link_outage_rounds must be positive when link_outage_rate is"
        );

        let mut events = Vec::new();
        for node in 1..nodes {
            // One decorrelated substream per node: faults on node i are
            // invariant under changes to any other node's draws.
            let mut rng = node_substream(seed, node);
            if rng.random_bool(self.death_rate) {
                let round = rng.random_range(0..rounds);
                events.push(FaultEvent::NodeDeath { node, round });
            }
            if rng.random_bool(self.outage_rate) {
                let span = self.outage_rounds.min(rounds);
                let from = rng.random_range(0..=(rounds - span));
                events.push(FaultEvent::NodeOutage {
                    node,
                    from,
                    until: from + span,
                });
            }
            if rng.random_bool(self.link_outage_rate) && nodes > 1 {
                let peer = draw_peer(&mut rng, node, nodes);
                let span = self.link_outage_rounds.min(rounds);
                let from = rng.random_range(0..=(rounds - span));
                events.push(FaultEvent::LinkOutage {
                    a: node,
                    b: peer,
                    from,
                    until: from + span,
                });
            }
            if rng.random_bool(self.fade_rate) {
                events.push(FaultEvent::CapacityFade {
                    node,
                    factor: self.fade_factor,
                });
            }
        }
        FaultSchedule::new(events)
    }
}

/// The per-node fault RNG: the run seed mixed with a SplitMix64-style
/// odd multiplier of the node id, so adjacent nodes get decorrelated
/// streams (the same trick the runner uses for `base_seed + k`).
fn node_substream(seed: u64, node: usize) -> StdRng {
    use rand::SeedableRng;
    let mixed = seed ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    StdRng::seed_from_u64(mixed)
}

/// A uniformly drawn peer id distinct from `node`.
fn draw_peer(rng: &mut StdRng, node: usize, nodes: usize) -> usize {
    let raw = rng.random_range(0..nodes - 1);
    if raw >= node {
        raw + 1
    } else {
        raw
    }
}

/// The operator-facing fault specification: a [`FaultModel`] plus a
/// seed-mixing term, parsed from the compact `AMBIENCE_FAULTS` string.
///
/// # Grammar
///
/// Comma-separated clauses, each `key=value` with colon-separated
/// sub-values; whitespace around clauses is ignored:
///
/// | clause | meaning |
/// |---|---|
/// | `death=RATE` | permanent node death probability |
/// | `outage=RATE:ROUNDS` | transient outage probability and duration |
/// | `link=RATE:ROUNDS` | link-outage probability and duration |
/// | `fade=RATE:FACTOR` | capacity-fade probability and multiplier |
/// | `seed=N` | XOR-mixed into the run seed for the fault stream |
///
/// # Example
///
/// ```
/// use ami_sim::fault::FaultSpec;
///
/// let spec = FaultSpec::parse("death=0.25, outage=0.5:10, seed=3").unwrap();
/// assert_eq!(spec.model.death_rate, 0.25);
/// assert_eq!(spec.model.outage_rounds, 10);
/// let schedule = spec.schedule_for(2003, 16, 200);
/// assert_eq!(schedule, spec.schedule_for(2003, 16, 200)); // pure
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// The stochastic generator the spec configures.
    pub model: FaultModel,
    /// XOR-mixed into the run seed, so one binary run can explore
    /// several fault draws over the same workload seed. 0 by default.
    pub seed: u64,
}

impl FaultSpec {
    /// Parses a spec string (see the type-level grammar).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending clause on unknown keys,
    /// malformed numbers, missing sub-values, out-of-range rates, or a
    /// duration that is not finite or is below one round while its rate
    /// is non-zero (a zero rate accepts any duration).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut model = FaultModel::none();
        let mut seed = 0u64;
        // Durations as written, checked once the rates are known: the
        // `u64` conversion would turn NaN, negative and sub-round values
        // into 0, which `FaultModel::schedule` rejects by panicking.
        let mut outage_duration = 1.0;
        let mut link_duration = 1.0;
        for clause in spec.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("clause {clause:?} is not key=value"))?;
            let mut parts = value.split(':');
            let mut next_f64 = |what: &str| -> Result<f64, String> {
                parts
                    .next()
                    .ok_or_else(|| format!("clause {clause:?} is missing its {what}"))?
                    .parse::<f64>()
                    .map_err(|_| format!("clause {clause:?} has a malformed {what}"))
            };
            match key.trim() {
                "death" => model.death_rate = next_f64("rate")?,
                "outage" => {
                    model.outage_rate = next_f64("rate")?;
                    outage_duration = next_f64("duration")?;
                    model.outage_rounds = outage_duration as u64;
                }
                "link" => {
                    model.link_outage_rate = next_f64("rate")?;
                    link_duration = next_f64("duration")?;
                    model.link_outage_rounds = link_duration as u64;
                }
                "fade" => {
                    model.fade_rate = next_f64("rate")?;
                    model.fade_factor = next_f64("factor")?;
                }
                "seed" => {
                    seed = value
                        .trim()
                        .parse::<u64>()
                        .map_err(|_| format!("clause {clause:?} has a malformed seed"))?;
                }
                other => return Err(format!("unknown fault clause key {other:?}")),
            }
        }
        for (label, rate) in [
            ("death", model.death_rate),
            ("outage", model.outage_rate),
            ("link", model.link_outage_rate),
            ("fade", model.fade_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("{label} rate {rate} outside [0, 1]"));
            }
        }
        for (label, rate, duration) in [
            ("outage", model.outage_rate, outage_duration),
            ("link", model.link_outage_rate, link_duration),
        ] {
            if rate != 0.0 && !(duration.is_finite() && duration >= 1.0) {
                return Err(format!(
                    "{label} duration {duration} must be a finite number of rounds >= 1"
                ));
            }
        }
        if !(model.fade_factor > 0.0 && model.fade_factor <= 1.0) {
            return Err(format!("fade factor {} outside (0, 1]", model.fade_factor));
        }
        Ok(Self { model, seed })
    }

    /// The concrete schedule for a run: the model drawn at
    /// `run_seed ^ self.seed`. Pure in its arguments.
    pub fn schedule_for(&self, run_seed: u64, nodes: usize, rounds: u64) -> FaultSchedule {
        self.model.schedule(run_seed ^ self.seed, nodes, rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_answers_healthy() {
        let schedule = FaultSchedule::empty();
        assert!(schedule.is_empty());
        assert!(!schedule.node_down(3, 0));
        assert!(!schedule.link_down(1, 2, 5));
        assert_eq!(schedule.harvest_scale(9), 1.0);
        assert_eq!(schedule.capacity_factor(4), 1.0);
    }

    #[test]
    fn death_is_permanent_and_outage_reboots() {
        let schedule = FaultSchedule::new(vec![
            FaultEvent::NodeDeath { node: 1, round: 5 },
            FaultEvent::NodeOutage {
                node: 2,
                from: 3,
                until: 6,
            },
        ]);
        assert!(!schedule.node_down(1, 4));
        assert!(schedule.node_down(1, 5));
        assert!(schedule.node_down(1, u64::MAX));
        assert!(!schedule.node_down(2, 2));
        assert!(schedule.node_down(2, 3));
        assert!(schedule.node_down(2, 5));
        assert!(!schedule.node_down(2, 6));
    }

    #[test]
    fn link_outage_is_symmetric_and_windowed() {
        let schedule = FaultSchedule::new(vec![FaultEvent::LinkOutage {
            a: 4,
            b: 7,
            from: 10,
            until: 12,
        }]);
        assert!(schedule.link_down(4, 7, 10));
        assert!(schedule.link_down(7, 4, 11));
        assert!(!schedule.link_down(4, 7, 12));
        assert!(!schedule.link_down(4, 6, 10));
    }

    #[test]
    fn brownouts_and_fades_compound_multiplicatively() {
        let schedule = FaultSchedule::new(vec![
            FaultEvent::Brownout {
                scale: 0.5,
                from: 0,
                until: 10,
            },
            FaultEvent::Brownout {
                scale: 0.4,
                from: 5,
                until: 10,
            },
            FaultEvent::CapacityFade {
                node: 2,
                factor: 0.8,
            },
            FaultEvent::CapacityFade {
                node: 2,
                factor: 0.5,
            },
        ]);
        assert_eq!(schedule.harvest_scale(3), 0.5);
        assert!((schedule.harvest_scale(7) - 0.2).abs() < 1e-15);
        assert_eq!(schedule.harvest_scale(10), 1.0);
        assert!((schedule.capacity_factor(2) - 0.4).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "empty outage window")]
    fn inverted_window_rejected() {
        let _ = FaultSchedule::new(vec![FaultEvent::NodeOutage {
            node: 1,
            from: 9,
            until: 9,
        }]);
    }

    #[test]
    #[should_panic(expected = "fade factor")]
    fn zero_fade_rejected() {
        let _ = FaultSchedule::new(vec![FaultEvent::CapacityFade {
            node: 1,
            factor: 0.0,
        }]);
    }

    #[test]
    fn model_is_pure_in_its_arguments() {
        let model = FaultModel {
            death_rate: 0.3,
            outage_rate: 0.4,
            outage_rounds: 12,
            link_outage_rate: 0.2,
            link_outage_rounds: 6,
            fade_rate: 0.5,
            fade_factor: 0.7,
        };
        assert_eq!(model.schedule(9, 30, 100), model.schedule(9, 30, 100));
        assert_ne!(model.schedule(9, 30, 100), model.schedule(10, 30, 100));
    }

    #[test]
    fn model_never_faults_the_sink_and_respects_bounds() {
        let model = FaultModel {
            death_rate: 1.0,
            outage_rate: 1.0,
            outage_rounds: 10,
            link_outage_rate: 1.0,
            link_outage_rounds: 5,
            fade_rate: 1.0,
            fade_factor: 0.5,
        };
        let rounds = 50;
        let schedule = model.schedule(1, 12, rounds);
        for round in 0..rounds {
            assert!(!schedule.node_down(0, round), "sink faulted at {round}");
        }
        for event in schedule.events() {
            match *event {
                FaultEvent::NodeDeath { node, round } => {
                    assert!(node >= 1 && round < rounds);
                }
                FaultEvent::NodeOutage { node, from, until } => {
                    assert!(node >= 1 && from < until && until <= rounds);
                }
                FaultEvent::LinkOutage { a, b, from, until } => {
                    assert!(a >= 1 && a != b && b < 12);
                    assert!(from < until && until <= rounds);
                }
                FaultEvent::CapacityFade { node, factor } => {
                    assert!(node >= 1 && factor == 0.5);
                }
                FaultEvent::Brownout { .. } => {
                    panic!("the model draws no brownouts");
                }
            }
        }
        // Every sensor drew every fault kind at rate 1.0.
        assert_eq!(schedule.events().len(), 4 * 11);
    }

    #[test]
    fn per_node_substreams_are_stable_under_node_count() {
        // Node 3's faults must not depend on how many other nodes exist:
        // that is what makes model-driven replication thread-invariant
        // and growable.
        let model = FaultModel {
            death_rate: 0.5,
            outage_rate: 0.5,
            outage_rounds: 8,
            ..FaultModel::none()
        };
        let small = model.schedule(42, 5, 100);
        let large = model.schedule(42, 50, 100);
        let on_node_3 = |s: &FaultSchedule| {
            s.events()
                .iter()
                .filter(|e| {
                    matches!(
                        e,
                        FaultEvent::NodeDeath { node: 3, .. }
                            | FaultEvent::NodeOutage { node: 3, .. }
                    )
                })
                .copied()
                .collect::<Vec<_>>()
        };
        assert_eq!(on_node_3(&small), on_node_3(&large));
    }

    /// Advances a compiled timeline round by round and checks every
    /// in-range node and (ordered) link query against the event scan;
    /// link queries naming an id at or beyond `nodes` must answer false.
    fn assert_timeline_matches_scan(
        schedule: &FaultSchedule,
        nodes: usize,
        rounds: u64,
        case: &str,
    ) {
        let mut timeline = FaultTimeline::compile(schedule, nodes);
        for round in 0..rounds {
            timeline.advance_to(round);
            for node in 0..nodes {
                assert_eq!(
                    timeline.node_down(node),
                    schedule.node_down(node, round),
                    "{case}: node {node} round {round}"
                );
            }
            for x in 0..nodes + 2 {
                for y in 0..nodes + 2 {
                    let want = x < nodes && y < nodes && schedule.link_down(x, y, round);
                    assert_eq!(
                        timeline.link_down(x, y),
                        want,
                        "{case}: link {x}-{y} round {round}"
                    );
                }
            }
        }
    }

    #[test]
    fn timeline_matches_the_event_scan_on_model_schedules() {
        // The compiled cursor must answer every (node, link, round)
        // query exactly like the O(events) scan it replaces, including
        // overlapping windows, deaths inside outages and reboots.
        let model = FaultModel {
            death_rate: 0.4,
            outage_rate: 0.6,
            outage_rounds: 7,
            link_outage_rate: 0.5,
            link_outage_rounds: 5,
            fade_rate: 0.0,
            fade_factor: 1.0,
        };
        let nodes = 14;
        let rounds = 60;
        for seed in 0..25u64 {
            let schedule = model.schedule(seed, nodes, rounds);
            assert_timeline_matches_scan(&schedule, nodes, rounds, &format!("seed {seed}"));
        }
    }

    #[test]
    fn timeline_links_match_the_event_scan_on_hand_built_cases() {
        let link = |a, b, from, until| FaultEvent::LinkOutage { a, b, from, until };
        let nodes = 10;
        let cases = [
            // Overlapping windows on one link, keyed in both orders.
            vec![link(2, 5, 1, 6), link(5, 2, 4, 9), link(2, 5, 8, 11)],
            // A self-link, beside a link of the same node.
            vec![link(3, 3, 2, 7), link(3, 4, 5, 9)],
            // One node with several links, opening and closing apart.
            vec![
                link(1, 0, 0, 4),
                link(1, 9, 2, 6),
                link(7, 1, 3, 5),
                link(1, 4, 5, 12),
                link(4, 1, 1, 3),
            ],
            // Endpoints at or beyond `nodes` answer false, and their
            // windows leave the in-range endpoint's state untouched.
            vec![
                link(2, 10, 0, 12),
                link(12, 6, 1, 5),
                link(11, 11, 0, 3),
                link(6, 2, 3, 4),
            ],
        ];
        for (k, events) in cases.into_iter().enumerate() {
            let schedule = FaultSchedule::new(events);
            assert_timeline_matches_scan(&schedule, nodes, 14, &format!("case {k}"));
        }
        // A schedule whose only link window is out of range compiles to
        // no link state at all.
        let outside = FaultSchedule::new(vec![link(2, 10, 0, 12)]);
        assert!(FaultTimeline::compile(&outside, nodes).is_trivial());
    }

    #[test]
    fn timeline_handles_overlapping_windows_and_skips_advances() {
        let schedule = FaultSchedule::new(vec![
            FaultEvent::NodeOutage {
                node: 2,
                from: 1,
                until: 6,
            },
            FaultEvent::NodeOutage {
                node: 2,
                from: 4,
                until: 9,
            },
            FaultEvent::NodeDeath { node: 3, round: 5 },
            FaultEvent::LinkOutage {
                a: 7,
                b: 1,
                from: 2,
                until: 4,
            },
        ]);
        let mut timeline = FaultTimeline::compile(&schedule, 10);
        assert!(!timeline.is_trivial());
        // Jump straight into the overlap: both windows activate at once.
        timeline.advance_to(5);
        assert!(timeline.node_down(2));
        assert!(timeline.node_down(3));
        assert!(!timeline.link_down(1, 7), "link window already closed");
        timeline.advance_to(6);
        assert!(timeline.node_down(2), "second window still open");
        timeline.advance_to(9);
        assert!(!timeline.node_down(2), "rebooted after the overlap");
        assert!(timeline.node_down(3), "death is permanent");
    }

    #[test]
    #[should_panic(expected = "cannot rewind")]
    fn timeline_rejects_rewinds() {
        let schedule = FaultSchedule::empty();
        let mut timeline = FaultTimeline::compile(&schedule, 4);
        timeline.advance_to(5);
        timeline.advance_to(3);
    }

    #[test]
    fn capacity_factors_match_the_per_node_query_bitwise() {
        let schedule = FaultSchedule::new(vec![
            FaultEvent::CapacityFade {
                node: 2,
                factor: 0.8,
            },
            FaultEvent::CapacityFade {
                node: 4,
                factor: 0.3,
            },
            FaultEvent::CapacityFade {
                node: 2,
                factor: 0.5,
            },
        ]);
        let factors = schedule.capacity_factors(6);
        for (node, factor) in factors.iter().enumerate() {
            assert_eq!(
                factor.to_bits(),
                schedule.capacity_factor(node).to_bits(),
                "node {node}"
            );
        }
    }

    #[test]
    fn spec_round_trips_the_grammar() {
        let spec =
            FaultSpec::parse(" death=0.1 , outage=0.2:40, link=0.05:12, fade=0.3:0.6, seed=11 ")
                .unwrap();
        assert_eq!(spec.model.death_rate, 0.1);
        assert_eq!(spec.model.outage_rate, 0.2);
        assert_eq!(spec.model.outage_rounds, 40);
        assert_eq!(spec.model.link_outage_rate, 0.05);
        assert_eq!(spec.model.link_outage_rounds, 12);
        assert_eq!(spec.model.fade_rate, 0.3);
        assert_eq!(spec.model.fade_factor, 0.6);
        assert_eq!(spec.seed, 11);
    }

    #[test]
    fn spec_rejects_malformed_clauses() {
        assert!(FaultSpec::parse("death").is_err());
        assert!(FaultSpec::parse("death=x").is_err());
        assert!(FaultSpec::parse("outage=0.1").is_err()); // missing duration
        assert!(FaultSpec::parse("death=1.5").is_err()); // rate out of range
        assert!(FaultSpec::parse("fade=0.5:0.0").is_err()); // factor out of range
        assert!(FaultSpec::parse("bogus=1").is_err());
    }

    #[test]
    fn spec_rejects_durations_the_generator_cannot_draw() {
        for bad in [
            "outage=0.2:0",
            "outage=0.2:0.5",
            "outage=0.2:nan",
            "outage=0.2:inf",
            "link=0.3:-2",
            "link=0.3:nan",
            "death=0.1,link=1:0",
        ] {
            let err = FaultSpec::parse(bad).expect_err(bad);
            assert!(err.contains("duration"), "{bad}: {err}");
        }
        // A zero rate draws nothing, so any duration stays valid; every
        // accepted spec then schedules without panicking.
        for good in ["outage=0:0", "link=0:nan", "outage=0.2:1", "link=0.3:2.5"] {
            let spec = FaultSpec::parse(good).expect(good);
            let _ = spec.schedule_for(7, 12, 20);
        }
        assert_eq!(
            FaultSpec::parse("link=0.3:2.5")
                .unwrap()
                .model
                .link_outage_rounds,
            2
        );
    }

    #[test]
    fn empty_spec_is_the_null_model() {
        let spec = FaultSpec::parse("").unwrap();
        assert_eq!(spec.model, FaultModel::none());
        assert!(spec.schedule_for(7, 20, 100).is_empty());
    }

    #[test]
    fn spec_seed_mixes_into_the_run_seed() {
        let a = FaultSpec::parse("death=0.5, seed=1").unwrap();
        let b = FaultSpec::parse("death=0.5, seed=2").unwrap();
        assert_ne!(a.schedule_for(7, 30, 100), b.schedule_for(7, 30, 100));
        // seed=0 (default) leaves the run seed untouched.
        let plain = FaultSpec::parse("death=0.5").unwrap();
        assert_eq!(
            plain.schedule_for(7, 30, 100),
            plain.model.schedule(7, 30, 100)
        );
    }
}
