//! Lossy-link gathering: the round-based simulator with per-hop packet
//! loss and stop-and-wait retransmission.
//!
//! `gather` assumes perfect links; real ambient channels drop packets.
//! This module folds the `ami-radio` reliability stack into the network
//! simulation: every hop succeeds with the packet's delivery probability
//! at the configured channel BER, failures trigger ARQ retransmissions
//! (bounded), and all the retry energy is charged to the transmitting and
//! receiving nodes. Deterministic in a seed.
//!
//! [`LossySession`] is the one way to run these rounds;
//! [`simulate_lossy_gathering`] is the fault-free, unrecorded run on a
//! fresh session. [`LossySession::run_faulted_with`] layers an
//! [`ami_sim::fault::FaultSchedule`] on top: fault-downed relays and
//! downed links waste the sender's full ARQ budget and count the packet
//! as `dropped_fault`. Fault handling consumes **no randomness**, so a
//! faulted run's channel draws stay aligned with the unfaulted run at
//! the same seed on every packet a fault does not touch.
//!
//! # The counter-RNG discipline (why lossy rounds parallelize)
//!
//! Channel randomness is *addressable*, not sequential: every offered
//! packet owns an independent counter-based stream keyed by
//! `(seed, round, source)` ([`ami_sim::rng::packet_rng`]), and its ARQ
//! attempts consume that stream in walk order — attempt index within
//! the packet, never a position in some global sequence. A packet's
//! fate is therefore a pure function of round-constant state (the route
//! table, fault windows) and its own key, independent of when or where
//! any *other* packet executes. That is the property the region-parallel
//! engine in [`pdes`] exploits: sources execute region-parallel, and the
//! commit replays counters and energy in fixed ascending-id order —
//! bit-identical to this serial kernel at any thread count (no rollback
//! machinery is needed, because unlike the budgeted perfect-link kernel
//! there is no cross-packet coupling: links are lossy but energy is not
//! finite in this model).
//!
//! The float discipline backing that equality: each packet accumulates
//! its energy in a private subtotal, and subtotals fold into the run
//! total in source-ascending order; per-node ledger charges are
//! committed once per round per `(node, category)` from integer attempt
//! counts times the (round-constant) per-attempt cost.

use crate::pdes;
use crate::routing::{PackedRoutes, RouteCache, RoutingStrategy};
use crate::topology::{NodeId, Topology};
use ami_radio::{Packet, RadioEnergyModel, StopAndWaitArq};
use ami_sim::fault::{FaultSchedule, FaultTimeline};
use ami_sim::obs::{EnergyCategory, NullRecorder, Recorder};
use ami_sim::rng::packet_rng;
use ami_units::{DataVolume, Energy, EnergyPerBit, Length};
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// Parameters of a lossy gathering network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LossyConfig {
    /// Radio energy model.
    pub radio: RadioEnergyModel,
    /// Packet format.
    pub packet: Packet,
    /// Raw channel bit error rate applied to every hop.
    pub ber: f64,
    /// Retransmission budget per hop.
    pub arq: StopAndWaitArq,
    /// Maximum hop length.
    pub max_hop: Length,
}

impl LossyConfig {
    /// Sensor defaults on a bruised channel: BER 1e-3, 4-attempt ARQ.
    pub fn bruised_channel() -> Self {
        Self {
            radio: RadioEnergyModel::short_range_2003(),
            packet: Packet::sensor_report(),
            ber: 1e-3,
            arq: StopAndWaitArq::new(4),
            max_hop: Length::from_meters(45.0),
        }
    }
}

/// Outcome of a lossy gathering run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LossyReport {
    /// Packets offered (one per sensor per round).
    pub offered: u64,
    /// Packets that reached the sink end-to-end.
    pub delivered: u64,
    /// Total transmissions including retries.
    pub transmissions: u64,
    /// Total radio energy spent.
    pub total_energy: Energy,
    /// Packets lost to an injected fault (downed relay or link) rather
    /// than to channel noise. Always zero on unfaulted runs.
    pub dropped_fault: u64,
}

impl LossyReport {
    /// End-to-end delivery ratio.
    pub fn delivery_ratio(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.delivered as f64 / self.offered as f64
        }
    }

    /// Mean transmissions per offered packet (ARQ overhead measure).
    pub fn tx_per_packet(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.transmissions as f64 / self.offered as f64
        }
    }

    /// Mean energy cost per delivered payload bit for `packet`-format
    /// reports, or `None` when nothing got through (heavy loss with a
    /// small ARQ budget can starve the sink entirely).
    pub fn energy_per_delivered_bit(&self, packet: &Packet) -> Option<EnergyPerBit> {
        let bits = packet.payload().as_bits() * self.delivered as f64;
        if bits > 0.0 {
            Some(EnergyPerBit::new(self.total_energy.as_joules() / bits))
        } else {
            None
        }
    }
}

/// How one offered packet ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LossyFate {
    /// Reached the sink end-to-end.
    Delivered,
    /// Died on channel noise: some hop exhausted its ARQ budget.
    Channel,
    /// Lost to an injected fault (downed relay or downed link).
    Fault,
}

/// The round-constant inputs of a packet walk, shared by the serial
/// kernel and the region-parallel engine so both execute the *same*
/// code — the bit-exactness argument reduces to "same inputs, same
/// function, replayed folds".
pub(crate) struct LossyRoundCtx<'a> {
    pub sink: NodeId,
    pub seed: u64,
    /// Per-hop delivery probability at the configured BER.
    pub p_hop: f64,
    /// Receive energy per attempt (distance-independent).
    pub rx: f64,
    pub max_transmissions: u32,
    /// `max_transmissions` as the u64 the fault branches account with.
    pub attempts: u64,
    /// `max_transmissions` as the f64 the fault branches charge with.
    pub attempts_f: f64,
    /// Packed next-hop table (`u32::MAX` = routeless), flat-indexed by
    /// node id so the hop chase is two array loads, not a cache probe.
    pub parent: &'a [u32],
    /// Packed per-node transmit cost, same indexing.
    pub tx_costs: &'a [f64],
    pub timeline: &'a FaultTimeline,
    pub down_now: &'a [bool],
}

/// Walks one offered packet from `src` toward the sink, drawing every
/// channel attempt from the packet's own counter stream. Returns the
/// packet's fate and its private energy subtotal; per-node attempt
/// counts and the transmission tally are accumulated into the caller's
/// scratch. Pure in `(ctx, round, src)` — no draw depends on any other
/// packet, which is what lets callers execute walks in any order.
pub(crate) fn walk_packet(
    ctx: &LossyRoundCtx<'_>,
    round: u64,
    src: NodeId,
    tx_attempts: &mut [u64],
    rx_attempts: &mut [u64],
    transmissions: &mut u64,
) -> (LossyFate, f64) {
    let mut rng = packet_rng(ctx.seed, round, src.0 as u64);
    let mut pkt_energy = 0.0f64;
    let sink = ctx.sink.0 as u32;
    let mut from = src.0 as u32;
    loop {
        let fu = from as usize;
        let hop = ctx.parent[fu];
        debug_assert!(hop != u32::MAX, "connected route reaches the sink");
        let tx = ctx.tx_costs[fu];
        if hop != sink && ctx.down_now[hop as usize] {
            // Powered-off receiver: no ACK ever comes, so the sender
            // exhausts its ARQ budget; nothing listens on the far end.
            // No random draws — the packet's stream stays aligned with
            // the unfaulted run.
            *transmissions += ctx.attempts;
            tx_attempts[fu] += ctx.attempts;
            pkt_energy += ctx.attempts_f * tx;
            return (LossyFate::Fault, pkt_energy);
        }
        if ctx.timeline.link_down(fu, hop as usize) {
            // Downed link between two powered nodes: every attempt
            // costs the sender a transmit and the receiver a listen,
            // but nothing crosses.
            *transmissions += ctx.attempts;
            tx_attempts[fu] += ctx.attempts;
            rx_attempts[hop as usize] += ctx.attempts;
            pkt_energy += ctx.attempts_f * (tx + ctx.rx);
            return (LossyFate::Fault, pkt_energy);
        }
        let mut hop_ok = false;
        for _attempt in 0..ctx.max_transmissions {
            *transmissions += 1;
            tx_attempts[fu] += 1;
            // The receiver listens whether or not the packet survives
            // (it cannot know in advance).
            rx_attempts[hop as usize] += 1;
            pkt_energy += tx;
            pkt_energy += ctx.rx;
            if rng.random::<f64>() < ctx.p_hop {
                hop_ok = true;
                break;
            }
        }
        if !hop_ok {
            return (LossyFate::Channel, pkt_energy);
        }
        if hop == sink {
            return (LossyFate::Delivered, pkt_energy);
        }
        from = hop;
    }
}

/// Run state of the counter-RNG lossy kernel, shared between the serial
/// loop in [`LossySession::run_faulted_with`] and the region-parallel
/// engine in [`crate::pdes`] (which borrows the fields disjointly for
/// its worker phases).
pub(crate) struct LossyState<'a> {
    pub topology: &'a Topology,
    pub sink: NodeId,
    pub seed: u64,
    pub p_hop: f64,
    pub bits: DataVolume,
    pub rx: f64,
    pub radio: &'a RadioEnergyModel,
    pub max_hop: Length,
    pub max_transmissions: u32,
    pub attempts: u64,
    pub attempts_f: f64,
    pub faults_active: bool,
    pub timeline: FaultTimeline,
    pub down_now: Vec<bool>,
    pub down_prev: Vec<bool>,
    pub usable: Vec<bool>,
    pub cache: RouteCache,
    /// Flat next-hop/cost image of `cache`, refreshed when the cache
    /// epoch moves; the hop chase reads these, not the cache.
    pub packed: PackedRoutes,
    pub routes_dirty: bool,
    /// Per-node ARQ attempt counts this round (sender side), committed
    /// to the recorder once per round in ascending node order.
    pub tx_attempts: Vec<u64>,
    /// Per-node listen counts this round (receiver side).
    pub rx_attempts: Vec<u64>,
    pub offered: u64,
    pub delivered: u64,
    pub transmissions: u64,
    pub dropped_fault: u64,
    pub energy: f64,
}

impl<'a> LossyState<'a> {
    /// A fresh run state over `cache` and its packed image `packed`,
    /// which the state adopts as they are: a warm pair whose usable set
    /// still matches skips the first build and repack.
    pub fn new(
        topology: &'a Topology,
        config: &'a LossyConfig,
        seed: u64,
        faults: &FaultSchedule,
        cache: RouteCache,
        packed: PackedRoutes,
    ) -> Self {
        let n = topology.len();
        let bits = config.packet.total_bits();
        Self {
            topology,
            sink: topology.sink(),
            seed,
            p_hop: config.packet.delivery_probability(config.ber),
            bits,
            // Receive energy is distance-independent: one value serves
            // every hop.
            rx: config.radio.receive_energy(bits).as_joules(),
            radio: &config.radio,
            max_hop: config.max_hop,
            max_transmissions: config.arq.max_transmissions,
            attempts: u64::from(config.arq.max_transmissions),
            attempts_f: f64::from(config.arq.max_transmissions),
            faults_active: !faults.is_empty(),
            // Compiled down/link windows: O(1) per query instead of an
            // event scan, cursor advanced once per round.
            timeline: FaultTimeline::compile(faults, n),
            down_now: vec![false; n],
            down_prev: vec![false; n],
            usable: vec![true; n],
            cache,
            packed,
            routes_dirty: true,
            tx_attempts: vec![0; n],
            rx_attempts: vec![0; n],
            offered: 0,
            delivered: 0,
            transmissions: 0,
            dropped_fault: 0,
            energy: 0.0,
        }
    }

    /// Advances fault state and re-resolves routes when dirty. Routing
    /// sees fault state with a one-round lag, as in `gather` (no budget
    /// deaths here — links are lossy but energy is not finite in this
    /// model).
    pub fn begin_round(&mut self, round: u64) {
        if self.faults_active {
            self.timeline.advance_to(round);
            for (id, down) in self.down_now.iter_mut().enumerate() {
                *down = id != self.sink.0 && self.timeline.node_down(id);
            }
        }
        if self.routes_dirty {
            for (id, flag) in self.usable.iter_mut().enumerate() {
                *flag = id == self.sink.0 || !self.down_prev[id];
            }
            self.cache.ensure(
                self.topology,
                RoutingStrategy::MinimumEnergy,
                self.radio,
                self.max_hop,
                self.bits,
                &self.usable,
            );
            self.routes_dirty = false;
        }
        self.packed.ensure(&self.cache);
    }

    /// The serial round body: every live connected sensor offers one
    /// packet and walks it, ascending source id; the recorder sees the
    /// round's per-node charges afterwards via [`Self::commit_charges`].
    pub fn send_all<R: Recorder>(&mut self, round: u64, recorder: &mut R) {
        let Self {
            topology,
            sink,
            seed,
            p_hop,
            rx,
            max_transmissions,
            attempts,
            attempts_f,
            timeline,
            down_now,
            cache,
            packed,
            tx_attempts,
            rx_attempts,
            offered,
            delivered,
            transmissions,
            dropped_fault,
            energy,
            ..
        } = self;
        let ctx = LossyRoundCtx {
            sink: *sink,
            seed: *seed,
            p_hop: *p_hop,
            rx: *rx,
            max_transmissions: *max_transmissions,
            attempts: *attempts,
            attempts_f: *attempts_f,
            parent: &packed.parent,
            tx_costs: &packed.tx,
            timeline,
            down_now,
        };
        for id in topology.sensor_ids() {
            if ctx.down_now[id.0] {
                continue; // powered off: offers nothing
            }
            if !cache.is_connected(id) {
                continue;
            }
            *offered += 1;
            recorder.packet_offered();
            let (fate, pkt_energy) =
                walk_packet(&ctx, round, id, tx_attempts, rx_attempts, transmissions);
            *energy += pkt_energy;
            match fate {
                LossyFate::Delivered => {
                    *delivered += 1;
                    recorder.packet_delivered();
                }
                LossyFate::Fault => {
                    *dropped_fault += 1;
                    recorder.packet_dropped_fault();
                }
                // Channel losses are implicit in the counters
                // (offered − delivered − fault); they are not a
                // `dropped_*` recorder cause.
                LossyFate::Channel => {}
            }
        }
        self.commit_charges(recorder);
    }

    /// Commits the round's attempt counts to the recorder — one charge
    /// per `(node, category)` in ascending node order, integer count
    /// times the round-constant per-attempt cost — and clears them.
    /// The region-parallel engine merges its region counts into the
    /// state and commits through here too, so this is the one place the
    /// Tx-then-RxRelay charge order is written.
    pub fn commit_charges<R: Recorder>(&mut self, recorder: &mut R) {
        let tx_costs = self.cache.tx_costs();
        for (id, count) in self.tx_attempts.iter_mut().enumerate() {
            if *count > 0 {
                recorder.charge(id, EnergyCategory::Tx, *count as f64 * tx_costs[id]);
                *count = 0;
            }
        }
        for (id, count) in self.rx_attempts.iter_mut().enumerate() {
            if *count > 0 {
                recorder.charge(id, EnergyCategory::RxRelay, *count as f64 * self.rx);
                *count = 0;
            }
        }
    }

    /// Notices fault transitions (dirty routes next round) and rotates
    /// the down flags.
    pub fn end_round(&mut self, _round: u64) {
        if self.faults_active && self.down_now != self.down_prev {
            self.routes_dirty = true;
        }
        std::mem::swap(&mut self.down_prev, &mut self.down_now);
    }

    /// Final report.
    pub fn finish(&self) -> LossyReport {
        LossyReport {
            offered: self.offered,
            delivered: self.delivered,
            transmissions: self.transmissions,
            total_energy: Energy::from_joules(self.energy),
            dropped_fault: self.dropped_fault,
        }
    }
}

/// Runs `rounds` of fault-free minimum-energy gathering over lossy
/// links on a fresh [`LossySession`], deterministic in `seed`,
/// recording nothing.
///
/// # Panics
///
/// Panics if `rounds` is zero or the BER is outside `[0, 0.5]`.
pub fn simulate_lossy_gathering(
    topology: &Topology,
    config: &LossyConfig,
    rounds: u64,
    seed: u64,
) -> LossyReport {
    LossySession::new(topology, config).run(rounds, seed)
}

/// The lossy-run harness over one `(topology, config)` pair: the route
/// cache and its packed next-hop image persist across runs, so every
/// run after the first skips the Dijkstra build (the dominant fixed cost
/// at city scale) and measures marginal round work only. Each run
/// starts from a fresh run state and is bit-identical to the same run
/// on a fresh session.
pub struct LossySession<'a> {
    topology: &'a Topology,
    config: &'a LossyConfig,
    cache: RouteCache,
    packed: PackedRoutes,
}

impl<'a> LossySession<'a> {
    /// Creates a session; the first run performs the route build.
    pub fn new(topology: &'a Topology, config: &'a LossyConfig) -> Self {
        Self {
            topology,
            config,
            cache: RouteCache::new(topology.len()),
            packed: PackedRoutes::new(topology.len()),
        }
    }

    /// Runs `rounds` fault-free rounds from a fresh run state on the
    /// calling thread, recording nothing.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero or the BER is outside `[0, 0.5]`.
    pub fn run(&mut self, rounds: u64, seed: u64) -> LossyReport {
        self.run_faulted_with(rounds, seed, &FaultSchedule::empty(), 1, &mut NullRecorder)
    }

    /// Runs `rounds` rounds from a fresh run state under the exogenous
    /// `faults` schedule on up to `threads` workers, charging every
    /// event through `recorder`.
    ///
    /// Fault semantics mirror the gather simulator's (one-round routing
    /// lag, `dropped_fault` attribution) with one ARQ-specific twist: a
    /// sender facing a fault-downed receiver or a downed link gets no ACK
    /// on any attempt, so it burns its **entire retransmission budget**
    /// before giving up. A downed receiver spends nothing (it is powered
    /// off); a downed link charges both powered ends per attempt. Fault
    /// handling consumes no random draws, and packets own their streams,
    /// so every packet a fault does not touch sees channel draws
    /// identical to the unfaulted run at the same seed. The empty
    /// schedule is bit-exact with [`run`](Self::run).
    ///
    /// The recorder sees per-node `Tx`/`RxRelay` charges (ARQ attempt
    /// counts times the per-attempt cost, committed once per round per
    /// node) and the packet counters (`offered`, `delivered`,
    /// `dropped_fault`; channel losses are the remainder).
    /// [`NullRecorder`] monomorphizes the hooks away.
    ///
    /// The region-parallel engine ([`pdes`]) runs the rounds when the run
    /// covers its nodes-per-worker floor on more than one worker
    /// ([`pdes::par_engaged_count`]); every other run takes the serial
    /// loop on the calling thread ([`pdes::par_serial_fallback_count`]).
    /// Both are bit-identical, so `threads` never changes a result.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` or `threads` is zero, or the BER is outside
    /// `[0, 0.5]`.
    pub fn run_faulted_with<R: Recorder>(
        &mut self,
        rounds: u64,
        seed: u64,
        faults: &FaultSchedule,
        threads: usize,
        recorder: &mut R,
    ) -> LossyReport {
        assert!(threads > 0, "at least one worker thread");
        assert!(rounds > 0, "simulate at least one round");
        assert!(
            (0.0..=0.5).contains(&self.config.ber),
            "BER must lie in [0, 0.5]"
        );
        // The state adopts the session's warm cache and packed image;
        // `begin_round` no-ops both when the usable set still matches
        // what the cache was built over.
        let cache = std::mem::replace(&mut self.cache, RouteCache::new(0));
        let packed = std::mem::replace(&mut self.packed, PackedRoutes::new(0));
        let mut state = LossyState::new(self.topology, self.config, seed, faults, cache, packed);
        if pdes::engage(self.topology.len(), threads) {
            pdes::run_region_rounds(&mut state, rounds, threads, recorder);
        } else {
            for round in 0..rounds {
                state.begin_round(round);
                state.send_all(round, recorder);
                state.end_round(round);
            }
        }
        let report = state.finish();
        self.cache = state.cache;
        self.packed = state.packed;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{build_routes, route_to_sink};
    use ami_sim::obs::LedgerRecorder;

    /// One run on a fresh session under `faults`, on the calling thread.
    fn faulted_run(
        topo: &Topology,
        config: &LossyConfig,
        rounds: u64,
        seed: u64,
        faults: &FaultSchedule,
    ) -> LossyReport {
        LossySession::new(topo, config).run_faulted_with(rounds, seed, faults, 1, &mut NullRecorder)
    }

    /// [`faulted_run`] with a ledger attached.
    fn observed_run(
        topo: &Topology,
        config: &LossyConfig,
        rounds: u64,
        seed: u64,
        faults: &FaultSchedule,
    ) -> (LossyReport, LedgerRecorder) {
        let mut obs = LedgerRecorder::with_nodes(topo.len());
        let report =
            LossySession::new(topo, config).run_faulted_with(rounds, seed, faults, 1, &mut obs);
        (report, obs)
    }

    fn topo() -> Topology {
        Topology::grid(4, Length::from_meters(30.0))
    }

    #[test]
    fn perfect_channel_delivers_everything_without_retries() {
        let mut config = LossyConfig::bruised_channel();
        config.ber = 0.0;
        let report = simulate_lossy_gathering(&topo(), &config, 50, 1);
        assert_eq!(report.delivered, report.offered);
        assert!((report.tx_per_packet() - expected_hops(&topo(), &config)).abs() < 0.2);
    }

    #[test]
    fn per_bit_cost_is_none_when_nothing_gets_through() {
        let mut config = LossyConfig::bruised_channel();
        let report = simulate_lossy_gathering(&topo(), &config, 20, 7);
        let epb = report
            .energy_per_delivered_bit(&config.packet)
            .expect("bruised channel still delivers");
        let direct = report.total_energy.as_joules()
            / (config.packet.payload().as_bits() * report.delivered as f64);
        assert!((epb.as_joules_per_bit() - direct).abs() < 1e-18);

        // BER 0.5 with a single attempt: nothing survives a multi-bit
        // packet, so there is no per-bit cost to report.
        config.ber = 0.5;
        config.arq = StopAndWaitArq::new(1);
        let starved = simulate_lossy_gathering(&topo(), &config, 5, 7);
        assert_eq!(starved.delivered, 0);
        assert_eq!(starved.energy_per_delivered_bit(&config.packet), None);
    }

    /// Mean hops per packet on the routing tree (tx count lower bound).
    fn expected_hops(topology: &Topology, config: &LossyConfig) -> f64 {
        let table = build_routes(
            topology,
            RoutingStrategy::MinimumEnergy,
            &config.radio,
            config.max_hop,
        );
        let total: usize = topology
            .sensor_ids()
            .map(|id| route_to_sink(&table, topology, id).len())
            .sum();
        total as f64 / (topology.len() - 1) as f64
    }

    #[test]
    fn dirtier_channels_cost_more_and_deliver_less() {
        let mut clean = LossyConfig::bruised_channel();
        clean.ber = 1e-4;
        let mut dirty = LossyConfig::bruised_channel();
        dirty.ber = 1e-2;
        let a = simulate_lossy_gathering(&topo(), &clean, 100, 2);
        let b = simulate_lossy_gathering(&topo(), &dirty, 100, 2);
        assert!(a.delivery_ratio() > b.delivery_ratio());
        assert!(a.tx_per_packet() < b.tx_per_packet());
    }

    #[test]
    fn arq_buys_delivery_for_energy() {
        let mut no_retry = LossyConfig::bruised_channel();
        no_retry.ber = 5e-3;
        no_retry.arq = StopAndWaitArq::new(1);
        let mut retry = no_retry.clone();
        retry.arq = StopAndWaitArq::new(6);
        let a = simulate_lossy_gathering(&topo(), &no_retry, 200, 3);
        let b = simulate_lossy_gathering(&topo(), &retry, 200, 3);
        assert!(b.delivery_ratio() > a.delivery_ratio() + 0.05);
        assert!(b.total_energy > a.total_energy);
    }

    #[test]
    fn deterministic_in_seed() {
        let config = LossyConfig::bruised_channel();
        let a = simulate_lossy_gathering(&topo(), &config, 100, 9);
        let b = simulate_lossy_gathering(&topo(), &config, 100, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn delivery_matches_analytic_prediction_on_single_hop() {
        // A star where every leaf is one hop from the sink: measured
        // delivery must match ARQ theory within Monte-Carlo noise.
        let star = Topology::star(8, Length::from_meters(20.0));
        let mut config = LossyConfig::bruised_channel();
        config.ber = 3e-3;
        let p_hop = config.packet.delivery_probability(config.ber);
        let predicted = config.arq.delivery_probability(p_hop);
        let report = simulate_lossy_gathering(&star, &config, 2000, 4);
        let measured = report.delivery_ratio();
        assert!(
            (measured - predicted).abs() < 0.02,
            "measured {measured:.3} vs predicted {predicted:.3}"
        );
    }

    #[test]
    fn star_outcomes_match_the_per_packet_counter_prediction() {
        // The addressability contract, pinned end to end: on a
        // single-hop star, packet (round, leaf) delivers iff one of its
        // first `max_transmissions` draws from `packet_rng(seed, round,
        // leaf)` clears p_hop. Replaying that rule outside the kernel
        // must reproduce the report exactly — the kernel consumes no
        // other randomness and no other packet's draws.
        let star = Topology::star(6, Length::from_meters(20.0));
        let mut config = LossyConfig::bruised_channel();
        config.ber = 2e-3;
        let (rounds, seed) = (300u64, 13u64);
        let p_hop = config.packet.delivery_probability(config.ber);
        let report = simulate_lossy_gathering(&star, &config, rounds, seed);

        let mut predicted_delivered = 0u64;
        let mut predicted_tx = 0u64;
        for round in 0..rounds {
            for leaf in star.sensor_ids() {
                let mut rng = packet_rng(seed, round, leaf.0 as u64);
                for _ in 0..config.arq.max_transmissions {
                    predicted_tx += 1;
                    if rng.random::<f64>() < p_hop {
                        predicted_delivered += 1;
                        break;
                    }
                }
            }
        }
        assert_eq!(report.delivered, predicted_delivered);
        assert_eq!(report.transmissions, predicted_tx);
    }

    #[test]
    fn observed_run_carries_the_report_energy_in_the_ledger() {
        let config = LossyConfig::bruised_channel();
        let (report, obs) = observed_run(&topo(), &config, 60, 5, &FaultSchedule::empty());
        // Charges are committed per (node, round, category) while the
        // report folds per packet, so the totals agree to rounding, not
        // bitwise.
        let ledger_total = obs.ledger.total().as_joules();
        let report_total = report.total_energy.as_joules();
        assert!(
            (ledger_total - report_total).abs() <= 1e-9 * report_total.abs(),
            "ledger {ledger_total} vs report {report_total}"
        );
        assert_eq!(obs.packets.offered, report.offered);
        assert_eq!(obs.packets.delivered, report.delivered);
        assert_eq!(obs.packets.dropped_fault, report.dropped_fault);
    }

    #[test]
    #[should_panic(expected = "BER")]
    fn absurd_ber_rejected() {
        let mut config = LossyConfig::bruised_channel();
        config.ber = 0.9;
        let _ = simulate_lossy_gathering(&topo(), &config, 1, 0);
    }

    mod faulted {
        use super::*;
        use crate::topology::Position;
        use ami_sim::fault::{FaultEvent, FaultModel};

        #[test]
        fn empty_schedule_is_bit_exact_with_the_unfaulted_path() {
            let config = LossyConfig::bruised_channel();
            let plain = simulate_lossy_gathering(&topo(), &config, 100, 11);
            let faulted = faulted_run(&topo(), &config, 100, 11, &FaultSchedule::empty());
            assert_eq!(plain, faulted);
            assert_eq!(faulted.dropped_fault, 0);
        }

        #[test]
        fn faulted_runs_are_deterministic_in_seed() {
            let config = LossyConfig::bruised_channel();
            let model = FaultModel {
                death_rate: 0.2,
                outage_rate: 0.3,
                outage_rounds: 10,
                link_outage_rate: 0.2,
                link_outage_rounds: 8,
                fade_rate: 0.0,
                fade_factor: 1.0,
            };
            let faults = model.schedule(5, topo().len(), 80);
            let a = faulted_run(&topo(), &config, 80, 9, &faults);
            let b = faulted_run(&topo(), &config, 80, 9, &faults);
            assert_eq!(a, b);
            assert!(a.dropped_fault > 0, "the fault mix must cost packets");
            assert!(a.delivered > 0, "the network must degrade, not die");
        }

        #[test]
        fn untouched_packets_see_identical_draws_under_faults() {
            // Per-packet streams make fault alignment *exact*: on a
            // star, downing leaf 1's link must leave every other leaf's
            // outcome untouched, so delivered counts differ only by
            // leaf 1's own (unfaulted) deliveries during the outage
            // window — replayed here from its stream.
            let star = Topology::star(5, Length::from_meters(20.0));
            let mut config = LossyConfig::bruised_channel();
            config.ber = 5e-3;
            let (rounds, seed) = (200u64, 17u64);
            let p_hop = config.packet.delivery_probability(config.ber);
            let (from, until) = (40u64, 120u64);
            let faults = FaultSchedule::new(vec![FaultEvent::LinkOutage {
                a: 1,
                b: 0,
                from,
                until,
            }]);
            let plain = simulate_lossy_gathering(&star, &config, rounds, seed);
            let faulted = faulted_run(&star, &config, rounds, seed, &faults);
            let mut leaf1_lost = 0u64;
            for round in from..until {
                let mut rng = packet_rng(seed, round, 1);
                for _ in 0..config.arq.max_transmissions {
                    if rng.random::<f64>() < p_hop {
                        leaf1_lost += 1;
                        break;
                    }
                }
            }
            assert_eq!(faulted.offered, plain.offered);
            assert_eq!(faulted.dropped_fault, until - from);
            assert_eq!(faulted.delivered, plain.delivered - leaf1_lost);
        }

        #[test]
        fn downed_relay_burns_the_arq_budget_then_routing_re_resolves() {
            // Sink—1—2 line on a perfect channel: kill node 1 at round 1.
            // Node 2's round-1 packet spends all 4 attempts into the dead
            // relay (tx only, no listener) and drops as a fault; from
            // round 2 routing has noticed and node 2 has no route (not
            // even offered, matching the unfaulted disconnection rule).
            let line = Topology::new(vec![
                Position::new(0.0, 0.0),
                Position::new(40.0, 0.0),
                Position::new(80.0, 0.0),
            ]);
            let mut config = LossyConfig::bruised_channel();
            config.ber = 0.0;
            let faults = FaultSchedule::new(vec![FaultEvent::NodeDeath { node: 1, round: 1 }]);
            let report = faulted_run(&line, &config, 4, 3, &faults);
            // Round 0: both deliver (3 hops total). Round 1: node 2
            // faults out. Rounds 2–3: node 2 is routeless, nothing sent.
            assert_eq!(report.offered, 3);
            assert_eq!(report.delivered, 2);
            assert_eq!(report.dropped_fault, 1);
            let attempts = u64::from(config.arq.max_transmissions);
            assert_eq!(report.transmissions, 3 + attempts);
        }

        #[test]
        fn link_outage_charges_both_ends_per_attempt() {
            let pair = Topology::new(vec![Position::new(0.0, 0.0), Position::new(20.0, 0.0)]);
            let mut config = LossyConfig::bruised_channel();
            config.ber = 0.0;
            let faults = FaultSchedule::new(vec![FaultEvent::LinkOutage {
                a: 1,
                b: 0,
                from: 1,
                until: 2,
            }]);
            let report = faulted_run(&pair, &config, 3, 3, &faults);
            assert_eq!(report.offered, 3);
            assert_eq!(report.delivered, 2);
            assert_eq!(report.dropped_fault, 1);
            let bits = config.packet.total_bits();
            let tx = config
                .radio
                .transmit_energy(bits, Length::from_meters(20.0))
                .as_joules();
            let rx = config.radio.receive_energy(bits).as_joules();
            // Two clean single-attempt hops plus one full ARQ budget of
            // tx+rx attempts into the downed link.
            let attempts = config.arq.max_transmissions as f64;
            let expect = (2.0 + attempts) * (tx + rx);
            assert!((report.total_energy.as_joules() - expect).abs() < 1e-15);
            assert_eq!(
                report.transmissions,
                2 + u64::from(config.arq.max_transmissions)
            );
        }

        #[test]
        fn faulted_observed_ledger_attributes_both_ends_of_a_downed_link() {
            let pair = Topology::new(vec![Position::new(0.0, 0.0), Position::new(20.0, 0.0)]);
            let mut config = LossyConfig::bruised_channel();
            config.ber = 0.0;
            let faults = FaultSchedule::new(vec![FaultEvent::LinkOutage {
                a: 1,
                b: 0,
                from: 1,
                until: 2,
            }]);
            let (report, obs) = observed_run(&pair, &config, 3, 3, &faults);
            assert_eq!(report.dropped_fault, 1);
            assert_eq!(obs.packets.dropped_fault, 1);
            let bits = config.packet.total_bits();
            let tx = config
                .radio
                .transmit_energy(bits, Length::from_meters(20.0))
                .as_joules();
            let rx = config.radio.receive_energy(bits).as_joules();
            let attempts = config.arq.max_transmissions as f64;
            // Sender: one clean attempt per delivered round plus the
            // full budget into the outage. Sink: a listen for each.
            let want_tx = (2.0 + attempts) * tx;
            let want_rx = (2.0 + attempts) * rx;
            let got_tx = obs.ledger.category_total(EnergyCategory::Tx).as_joules();
            let got_rx = obs
                .ledger
                .category_total(EnergyCategory::RxRelay)
                .as_joules();
            assert!((got_tx - want_tx).abs() < 1e-15, "{got_tx} vs {want_tx}");
            assert!((got_rx - want_rx).abs() < 1e-15, "{got_rx} vs {want_rx}");
        }
    }
}
