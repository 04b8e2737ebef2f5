//! The round core both network sessions run on: route inputs, the warm
//! [`RouteCache`] and the per-run fault block, with the start- and
//! end-of-round phases the gathering and lossy kernels share. Their run
//! states (`GatherState`, `LossyState`) borrow the core and add only
//! their own budgets, constants and tallies.

use crate::routing::{RouteCache, RoutingStrategy};
use crate::topology::{NodeId, Topology};
use ami_radio::RadioEnergyModel;
use ami_sim::fault::{FaultSchedule, FaultTimeline};
use ami_units::{DataVolume, Length};

/// Route inputs, warm route cache and per-run fault state of one
/// session. The route inputs are fixed for the session's life, so the
/// cache stays warm across runs; [`start_run`](Self::start_run) resets
/// everything else, so each run is bit-identical to the same run on a
/// fresh core.
pub(crate) struct RoundCore<'a> {
    pub(crate) topology: &'a Topology,
    strategy: RoutingStrategy,
    radio: &'a RadioEnergyModel,
    pub(crate) max_hop: Length,
    /// Bits per packet, the volume the cached transmit costs price.
    bits: DataVolume,
    pub(crate) sink: NodeId,
    pub(crate) cache: RouteCache,
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
    /// Set by a death or a fault transition: the usable set may have
    /// changed, so the next round re-resolves routes.
    pub(crate) routes_dirty: bool,
}

impl<'a> RoundCore<'a> {
    /// A core over `topology` routing with `strategy`; the first run's
    /// first round performs the route build.
    pub(crate) fn new(
        topology: &'a Topology,
        strategy: RoutingStrategy,
        radio: &'a RadioEnergyModel,
        max_hop: Length,
        bits: DataVolume,
    ) -> Self {
        let n = topology.len();
        Self {
            topology,
            strategy,
            radio,
            max_hop,
            bits,
            sink: topology.sink(),
            cache: RouteCache::new(n),
            faults_active: false,
            // Replaced by every `start_run`; a zero-node timeline
            // allocates nothing.
            timeline: FaultTimeline::compile(&FaultSchedule::empty(), 0),
            alive: vec![true; n],
            down_now: vec![false; n],
            down_prev: vec![false; n],
            usable: vec![true; n],
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
        self.alive.fill(true);
        self.down_now.fill(false);
        self.down_prev.fill(false);
        self.routes_dirty = true;
    }

    /// The start-of-round phase of both kernels: fault-state refresh
    /// and, if dirty, route re-resolution over the usable set (which
    /// also re-lays the heavy-path image both kernels walk).
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
            self.cache.ensure(
                self.topology,
                self.strategy,
                self.radio,
                self.max_hop,
                self.bits,
                &self.usable,
            );
            self.routes_dirty = false;
        }
    }

    /// The end-of-round phase of both kernels: a fault transition marks
    /// routes dirty for the next round, and the down state ages by one
    /// round.
    pub(crate) fn end_round(&mut self) {
        if self.faults_active && self.down_now != self.down_prev {
            self.routes_dirty = true;
        }
        std::mem::swap(&mut self.down_prev, &mut self.down_now);
    }
}
