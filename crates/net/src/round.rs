//! The round core both network sessions run on: the warm [`RouteCache`]
//! built for the session's route inputs and the per-run fault block,
//! with the start- and end-of-round phases the gathering and lossy
//! kernels share. Their run states (`GatherState`, `LossyState`) borrow
//! the core and add only their own budgets, constants and tallies.
//!
//! # The hop-fault mask
//!
//! Every fault answer a round kernel needs is fixed for the whole round:
//! whether the receiver of a hop is fault-down and whether the link to
//! it is down. So on faulted runs the start-of-round phase resolves
//! them once, after the route re-resolution, into one [`HopFault`] byte
//! per heavy-path image position (the fate of the hop from that
//! position to its parent), in one O(N) pass over the image. Both
//! kernels — gathering's aggregated passes (`agg`) and lossy's
//! `walk_packet`, the latter on every worker of a round — read
//! `mask[at]` beside `parent[at]`, a sequential byte along the heavy
//! path, instead of a random down flag and a timeline query per hop.
//! Fault-free runs neither fill nor read the mask ([`RoundCore::hop_faults`] is `None`),
//! and a session that never runs faulted never sizes it. The id-space
//! oracles (`GatherState::idle_and_send` and the tests' lossy reference
//! round) keep their per-hop timeline queries, so the differential
//! suites check the mask against an independent path.

use crate::routing::{RouteCache, RouteImage, RoutingStrategy, NO_HOP, SINK_POS};
use crate::topology::{NodeId, Topology};
use ami_radio::RadioEnergyModel;
use ami_sim::fault::{FaultSchedule, FaultTimeline};
use ami_units::{DataVolume, Length};

/// The fate of one hop this round, as the start-of-round phase resolves
/// it: the receiver is checked first, as the walks always have, so a
/// hop onto a fault-down node across a downed link is `ReceiverDown`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum HopFault {
    /// Nothing on the hop is faulted (and every hop of a routeless
    /// position or the sink, which no walk takes).
    Clear,
    /// The hop's receiver (never the sink) is fault-down this round.
    ReceiverDown,
    /// The link between two powered nodes is down this round.
    LinkDown,
}

/// Warm route cache and per-run fault state of one session. The cache
/// is built for the session's route inputs, which are fixed for its
/// life, so it stays warm across runs; [`start_run`](Self::start_run)
/// resets everything else, so each run is bit-identical to the same run
/// on a fresh core.
pub(crate) struct RoundCore<'a> {
    pub(crate) topology: &'a Topology,
    pub(crate) sink: NodeId,
    pub(crate) cache: RouteCache<'a>,
    pub(crate) faults_active: bool,
    pub(crate) timeline: FaultTimeline,
    /// Budget-alive flags (exogenous downs are *not* deaths). Gathering
    /// buries the budget-dead; the lossy model has no energy deaths, so
    /// its flags stay all true.
    pub(crate) alive: Vec<bool>,
    /// Fault-down state this round / last round (one-round routing lag).
    pub(crate) down_now: Vec<bool>,
    down_prev: Vec<bool>,
    /// The node set routing can see, rebuilt when `routes_dirty`.
    usable: Vec<bool>,
    /// This round's [`HopFault`] of each route image position, filled
    /// by [`begin_round`](Self::begin_round) on faulted runs only;
    /// empty until the session's first faulted run sizes it.
    hop_fault: Vec<HopFault>,
    /// Set by a death or a change of fault state: the usable set may
    /// have changed, so the next round re-resolves routes.
    pub(crate) routes_dirty: bool,
}

impl<'a> RoundCore<'a> {
    /// A core over `topology` routing with `strategy` (hops within
    /// `max_hop`, priced under `radio`, packets of `bits`); the first
    /// run's first round performs the route build.
    pub(crate) fn new(
        topology: &'a Topology,
        strategy: RoutingStrategy,
        radio: &RadioEnergyModel,
        max_hop: Length,
        bits: DataVolume,
    ) -> Self {
        let n = topology.len();
        Self {
            topology,
            sink: topology.sink(),
            cache: RouteCache::new(topology, strategy, radio, max_hop, bits),
            faults_active: false,
            // Replaced by every `start_run`; a zero-node timeline
            // allocates nothing.
            timeline: FaultTimeline::compile(&FaultSchedule::empty(), 0),
            alive: vec![true; n],
            down_now: vec![false; n],
            down_prev: vec![false; n],
            usable: vec![true; n],
            hop_fault: Vec::new(),
            routes_dirty: true,
        }
    }

    /// Resets the fault block for a run under `faults`: everyone alive
    /// and up, and routes dirty so the first round re-resolves them (a
    /// no-op on the warm cache when the usable set still matches).
    pub(crate) fn start_run(&mut self, faults: &FaultSchedule) {
        self.faults_active = !faults.is_empty();
        // The compiled timeline answers per-round down queries in O(1)
        // instead of scanning the event list; its cursor advances with
        // the round loop and allocates nothing.
        self.timeline = FaultTimeline::compile(faults, self.topology.len());
        if self.faults_active {
            // Sized once per session; later runs refill it in place.
            self.hop_fault.resize(self.topology.len(), HopFault::Clear);
        }
        self.alive.fill(true);
        self.down_now.fill(false);
        self.down_prev.fill(false);
        self.routes_dirty = true;
    }

    /// The start-of-round phase of both kernels: fault-state refresh;
    /// if dirty, route re-resolution over the usable set (which also
    /// re-lays the heavy-path image both kernels read); and on faulted
    /// runs the hop-fault mask over that image.
    pub(crate) fn begin_round(&mut self, round: u64) {
        if self.faults_active {
            self.timeline.advance_to(round);
            for (id, down) in self.down_now.iter_mut().enumerate() {
                *down = id != self.sink.0 && self.timeline.node_down(id);
            }
        }

        // Re-resolve routes when the usable set routing can see (one
        // round behind on faults) has changed — deaths, outage starts
        // noticed a round late, reboots rejoining.
        if self.routes_dirty {
            for (id, flag) in self.usable.iter_mut().enumerate() {
                *flag = id == self.sink.0 || (self.alive[id] && !self.down_prev[id]);
            }
            self.cache.ensure(&self.usable);
            self.routes_dirty = false;
        }

        if self.faults_active {
            self.fill_hop_faults();
        }
    }

    /// Resolves this round's fate of every image position's hop in one
    /// pass: receiver fault-down first, then the link. Positions
    /// without a next hop stay [`HopFault::Clear`]; no kernel reads them.
    fn fill_hop_faults(&mut self) {
        let RouteImage { parent, id, .. } = self.cache.image();
        let (down_now, timeline) = (&self.down_now[..], &self.timeline);
        for ((fault, &hop), &from) in self.hop_fault.iter_mut().zip(parent).zip(id) {
            *fault = if hop == NO_HOP {
                HopFault::Clear
            } else {
                let to = id[hop as usize] as usize;
                if hop != SINK_POS && down_now[to] {
                    HopFault::ReceiverDown
                } else if timeline.link_down(from as usize, to) {
                    HopFault::LinkDown
                } else {
                    HopFault::Clear
                }
            };
        }
    }

    /// This round's hop-fault mask, indexed by image position, or
    /// `None` on a fault-free run (whose kernels skip every fault check).
    pub(crate) fn hop_faults(&self) -> Option<&[HopFault]> {
        self.faults_active.then_some(&self.hop_fault[..])
    }

    /// The end-of-round phase of both kernels: a change of fault state
    /// marks routes dirty for the next round, and the down state ages by
    /// one round.
    pub(crate) fn end_round(&mut self) {
        if self.faults_active && self.down_now != self.down_prev {
            self.routes_dirty = true;
        }
        std::mem::swap(&mut self.down_prev, &mut self.down_now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::build_routes;
    use ami_radio::Packet;
    use ami_sim::fault::FaultEvent;
    use rand::RngExt;

    /// The fate the walks resolved per hop before the mask: receiver
    /// fault-down first, then the timeline's link query.
    fn per_hop_query(core: &RoundCore<'_>, from: NodeId, to: NodeId) -> HopFault {
        if to != core.sink && core.down_now[to.0] {
            HopFault::ReceiverDown
        } else if core.timeline.link_down(from.0, to.0) {
            HopFault::LinkDown
        } else {
            HopFault::Clear
        }
    }

    /// Asserts that every connected node's mask byte, at its image
    /// position, is the per-hop query of its hop this round.
    fn assert_mask_matches_queries(core: &RoundCore<'_>, round: u64) {
        let mask = core.hop_faults().expect("a faulted run fills the mask");
        let pos = &core.cache.image().pos;
        for v in core.topology.sensor_ids() {
            if !core.cache.is_connected(v) {
                continue;
            }
            let next = core.cache.next_hop(v).expect("connected nodes route");
            assert_eq!(
                mask[pos[v.0] as usize],
                per_hop_query(core, v, next),
                "round {round}: hop {v} -> {next}"
            );
        }
    }

    fn core_over<'a>(topo: &'a Topology, radio: &'a RadioEnergyModel) -> RoundCore<'a> {
        RoundCore::new(
            topo,
            RoutingStrategy::MinimumEnergy,
            radio,
            Length::from_meters(45.0),
            Packet::sensor_report().total_bits(),
        )
    }

    proptest::proptest! {
        /// Random fields under random schedules of node deaths, node
        /// outages and link outages — half of the latter on a round-0
        /// route, so downed links lie on walked hops — over many rounds
        /// of minimum-energy routing, whose later epochs are repairs:
        /// the mask always equals the per-hop query.
        #[test]
        fn hop_fault_mask_matches_the_per_hop_timeline_query(
            seed in 0u64..10_000,
            n in 3usize..80,
            fault_seed in 0u64..10_000,
            rounds in 1u64..25,
        ) {
            let topo = Topology::random(n, Length::from_meters(30.0 * (n as f64).sqrt()), seed);
            let radio = RadioEnergyModel::short_range_2003();
            let routes = build_routes(
                &topo,
                RoutingStrategy::MinimumEnergy,
                &radio,
                Length::from_meters(45.0),
            );
            let mut rng = ami_sim::sim_rng(fault_seed);
            let mut events = Vec::new();
            for _ in 0..rng.random_range(0..n) {
                let node = rng.random_range(1..n);
                let from = rng.random_range(0..rounds);
                let until = (from + rng.random_range(1..8u64)).min(rounds);
                events.push(match rng.random_range(0..4u8) {
                    0 => FaultEvent::NodeDeath { node, round: from },
                    1 => FaultEvent::NodeOutage { node, from, until },
                    pick => {
                        let b = match routes[node] {
                            Some(next) if pick == 2 => next.0,
                            _ => (node + rng.random_range(1..n)) % n,
                        };
                        FaultEvent::LinkOutage { a: node, b, from, until }
                    }
                });
            }
            let faults = FaultSchedule::new(events);
            let mut core = core_over(&topo, &radio);
            core.start_run(&faults);
            for round in 0..rounds {
                core.begin_round(round);
                if core.faults_active {
                    assert_mask_matches_queries(&core, round);
                } else {
                    proptest::prop_assert!(core.hop_faults().is_none());
                }
                core.end_round();
            }
        }
    }

    #[test]
    fn a_downed_receiver_takes_precedence_over_its_downed_link() {
        // A 3×3 grid at 30 m: node 2 reaches the sink through node 1.
        let topo = Topology::grid(3, Length::from_meters(30.0));
        let radio = RadioEnergyModel::short_range_2003();
        let mut core = core_over(&topo, &radio);
        let link = FaultEvent::LinkOutage {
            a: 2,
            b: 1,
            from: 0,
            until: 4,
        };
        let outage = FaultEvent::NodeOutage {
            node: 1,
            from: 2,
            until: 4,
        };
        core.start_run(&FaultSchedule::new(vec![link, outage]));
        // Routing sees node 1's outage one round late, so round 2 still
        // routes through it.
        let mut fates = Vec::new();
        for round in 0..3 {
            core.begin_round(round);
            assert_eq!(
                core.cache.next_hop(NodeId(2)),
                Some(NodeId(1)),
                "round {round}"
            );
            let at = core.cache.image().pos[2] as usize;
            fates.push(core.hop_faults().expect("faulted run")[at]);
            core.end_round();
        }
        use HopFault::{LinkDown, ReceiverDown};
        assert_eq!(fates, [LinkDown, LinkDown, ReceiverDown]);
    }
}
