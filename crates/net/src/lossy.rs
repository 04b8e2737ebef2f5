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
//! the same seed on every packet a fault does not touch. Routes and
//! fault state live in the session's round core, the one
//! [`crate::gather`] runs on too; this module adds the ARQ walk and its
//! tallies.
//!
//! # The counter-RNG discipline (why walk order is free)
//!
//! Channel randomness is *addressable*, not sequential: every offered
//! packet owns an independent counter-based stream keyed by
//! `(seed, round, source)` ([`ami_sim::rng::packet_rng`]), and its ARQ
//! attempts consume that stream in walk order — attempt index within
//! the packet, never a position in some global sequence. A packet's
//! fate is therefore a pure function of round-constant state (the route
//! table, fault windows) and its own key, independent of when any
//! *other* packet executes (links are lossy but energy is not finite in
//! this model, so packets never couple through a budget). That is what
//! lets a round walk its sources in image order rather than id order
//! and still commit exactly what one ascending-id walk would.
//!
//! The float discipline backing that equality: each packet accumulates
//! its energy in a private subtotal, written to its source's slot (one
//! per image position), and after the walk the slots fold into the run
//! total in source-ascending order; per-node ledger charges are
//! committed once per round per `(node, category)` from integer attempt
//! counts times the (round-constant) per-attempt cost. An attempt's
//! success is an exact integer compare of its raw draw
//! (`success_threshold`), equal to the float test
//! `random::<f64>() < p_hop` on every draw.
//!
//! # Walking the heavy-path image
//!
//! A packet walks the route cache's heavy-path image
//! (`crate::routing::RouteImage`), not from node id to node id: it starts at
//! its source's position and follows parent positions, which along a
//! heavy path are consecutive, so a route reads a few sequential runs
//! instead of one random node id per hop. Sources are offered in image
//! order too, so each packet starts next to where the previous one
//! started and walks into the route it just walked, on warm cache
//! lines. Each packet draws from its own stream, so every draw is the
//! id-order walk's, and the slot fold restores its energy order.
//! Attempt counts accumulate by position, and the round commit reads
//! them back through `pos` in ascending id. On faulted runs each hop
//! reads its fate from the round core's hop-fault mask, one byte per
//! position resolved at the start of the round (`crate::round`): a walk
//! makes no timeline query and reads no node id. Fault-free runs walk
//! an instance of the same walk that reads no mask.
//!
//! # One worker per round
//!
//! Every round is one walk on the calling thread: on the 2-vCPU hosts
//! measured, splitting a round's image positions over two workers did
//! not beat one image-order walk (DESIGN.md, "One lossy round loop").
//! [`par_serial_fallback_count`] counts lossy session runs, and
//! [`par_engaged_count`] reads 0.

use crate::round::{HopFault, RoundCore};
use crate::routing::{RouteImage, RoutingStrategy, NO_HOP, SINK_POS};
use crate::topology::Topology;
use ami_radio::{Packet, RadioEnergyModel, StopAndWaitArq};
use ami_sim::fault::FaultSchedule;
use ami_sim::obs::{EnergyCategory, NullRecorder, PacketCounters, Recorder};
use ami_sim::rng::packet_rng;
use ami_units::{Energy, EnergyPerBit, Length};
use rand::RngExt;
use serde::{Deserialize, Serialize};
use std::cell::Cell;

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
enum LossyFate {
    /// Reached the sink end-to-end.
    Delivered,
    /// Died on channel noise: some hop exhausted its ARQ budget.
    Channel,
    /// Lost to an injected fault (downed relay or downed link).
    Fault,
}

/// The per-run ARQ constants of the lossy kernel.
#[derive(Debug, Clone, Copy)]
struct ArqConstants {
    seed: u64,
    /// An attempt crosses its hop when the top 53 bits of its draw fall
    /// below this: the per-hop delivery probability at the configured
    /// BER as a [`success_threshold`].
    threshold: u64,
    /// Receive energy per attempt (distance-independent).
    rx: f64,
    max_transmissions: u32,
    /// `max_transmissions` as the u64 the fault branches account with.
    attempts: u64,
    /// `max_transmissions` as the f64 the fault branches charge with.
    attempts_f: f64,
}

/// The integer form of the channel test `rng.random::<f64>() < p`:
/// `ceil(p · 2^53)`, which an attempt's raw draw `u` clears when
/// `(u >> 11) < threshold`.
///
/// The float test draws `x = u >> 11`, an integer below 2^53, as
/// `x as f64 · 2^-53`. Both steps are exact: every integer below 2^53 is
/// a double, and scaling a double by a power of two moves only its
/// exponent (no result here leaves the normal range or zero). For the
/// same reason `p · 2^53` is exact for every `p` in `[0, 1]`, so
/// `x · 2^-53 < p` holds exactly when `x < p · 2^53`, and because `x` is
/// an integer, exactly when `x < ceil(p · 2^53)`. That ceiling is an
/// integer of at most 2^53, so it converts to `u64` exactly: `p = 1`
/// gives 2^53 (every draw crosses) and `p = 0` gives 0 (none does).
fn success_threshold(p: f64) -> u64 {
    debug_assert!((0.0..=1.0).contains(&p), "a probability, got {p}");
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// Whether the next attempt drawn from `rng` crosses its hop against
/// `threshold` ([`success_threshold`]).
#[inline(always)]
fn crosses(rng: &mut impl RngExt, threshold: u64) -> bool {
    rng.next_u64() >> 11 < threshold
}

/// The round-constant inputs of a packet walk: every packet of a round
/// reads the same ones, and only its own stream is its own.
struct LossyRoundCtx<'c> {
    arq: ArqConstants,
    /// The route cache's heavy-path image: the walk reads positions.
    image: &'c RouteImage,
    /// This round's hop-fault mask by image position; `None` on a
    /// fault-free run, whose walks read no mask.
    hop_faults: Option<&'c [HopFault]>,
    sink: usize,
    down_now: &'c [bool],
    connected: &'c [bool],
}

impl<'c> LossyRoundCtx<'c> {
    /// The context of the round `core` is in: its routes and fault
    /// state after [`RoundCore::begin_round`].
    fn new(core: &'c RoundCore<'_>, arq: ArqConstants) -> Self {
        Self {
            arq,
            image: core.cache.image(),
            hop_faults: core.hop_faults(),
            sink: core.sink.0,
            down_now: &core.down_now,
            connected: core.cache.connected_flags(),
        }
    }

    /// Whether `src` offers a packet this round: every sensor does
    /// unless it is powered off or routeless.
    fn offers(&self, src: usize) -> bool {
        src != self.sink && !self.down_now[src] && self.connected[src]
    }
}

/// Walks the packet offered at image position `at` toward the sink along
/// the heavy-path image, drawing every channel attempt from its source's
/// own counter stream. Returns the packet's fate, its
/// transmissions and its private energy subtotal; per-position attempt
/// counts accumulate into the caller's scratch. Pure in
/// `(ctx, round, at)` — no draw depends on any other packet, which is
/// what lets callers execute walks in any order.
///
/// One loop iteration is one ARQ attempt: count it at the sender and
/// the receiver, add `tx` then `rx` to the subtotal, then stay on the
/// hop for another try or move to the parent position. The outcome of
/// the packet's next draw is computed one attempt ahead, so the step
/// reads a value that is already there (the draw ahead of the packet's
/// last attempt is never read), and the step is a select, not a branch:
/// about one attempt in five fails, which a branch would mispredict.
/// The loop branches only to leave — on arrival, on an exhausted budget
/// and, on faulted runs (`FAULTED`), at the first attempt on a hop whose
/// [`HopFault`] in `mask` is not clear. A budget of zero makes no
/// attempt. The fault-free instance reads no mask.
#[inline(always)]
fn walk_packet<const FAULTED: bool>(
    ctx: &LossyRoundCtx<'_>,
    mask: &[HopFault],
    round: u64,
    mut at: usize,
    tx_attempts: &mut [u64],
    rx_attempts: &mut [u64],
) -> (LossyFate, u64, f64) {
    let arq = &ctx.arq;
    let RouteImage {
        parent,
        tx: tx_costs,
        id,
        ..
    } = ctx.image;
    let mut rng = packet_rng(arq.seed, round, u64::from(id[at]));
    let mut crossed = crosses(&mut rng, arq.threshold);
    let (mut sent, mut energy, mut left) = (0u64, 0.0f64, arq.max_transmissions);
    loop {
        let hop = parent[at];
        debug_assert!(hop != NO_HOP, "connected route reaches the sink");
        let (hop, tx) = (hop as usize, tx_costs[at]);
        // `&`, not `&&`: one rarely taken branch instead of one that
        // follows every attempt's outcome.
        if FAULTED && (left == arq.max_transmissions) & (mask[at] != HopFault::Clear) {
            // The hop's first attempt meets a fault: a sender facing one
            // gets no ACK, so it burns its whole ARQ budget. No random
            // draws — the packet's stream stays aligned with the
            // unfaulted run.
            tx_attempts[at] += arq.attempts;
            let energy = if mask[at] == HopFault::LinkDown {
                // Both powered ends pay every attempt, but nothing
                // crosses.
                rx_attempts[hop] += arq.attempts;
                energy + arq.attempts_f * (tx + arq.rx)
            } else {
                // Nothing listens on the powered-off receiver.
                energy + arq.attempts_f * tx
            };
            return (LossyFate::Fault, sent + arq.attempts, energy);
        }
        if left == 0 {
            return (LossyFate::Channel, sent, energy);
        }
        sent += 1;
        tx_attempts[at] += 1;
        // The receiver listens whether or not the packet survives (it
        // cannot know in advance).
        rx_attempts[hop] += 1;
        energy += tx;
        energy += arq.rx;
        let next = crosses(&mut rng, arq.threshold);
        (at, left) = if crossed {
            (hop, arq.max_transmissions)
        } else {
            (at, left - 1)
        };
        crossed = next;
        if at == SINK_POS as usize {
            return (LossyFate::Delivered, sent, energy);
        }
    }
}

/// The counts the lossy kernel accumulates: per-position attempt counts
/// for the round and packet tallies for the run.
struct LossyTally {
    /// ARQ attempt counts this round (sender side), indexed by image
    /// position, committed to the recorder once per round in ascending
    /// node id.
    tx_attempts: Vec<u64>,
    /// Listen counts this round (receiver side), indexed by position.
    rx_attempts: Vec<u64>,
    /// Offered, delivered and fault-dropped packets; channel losses are
    /// the remainder.
    packets: PacketCounters,
    transmissions: u64,
}

impl LossyTally {
    fn new(nodes: usize) -> Self {
        Self {
            tx_attempts: vec![0; nodes],
            rx_attempts: vec![0; nodes],
            packets: PacketCounters::new(),
            transmissions: 0,
        }
    }

    /// Walks the source at every image position in position order, each
    /// an offered packet or nothing, and returns the round's packet
    /// tally. Writes each position's packet energy subtotal, or `0.0`
    /// when its node offers nothing, into its slot.
    fn walk(&mut self, ctx: &LossyRoundCtx<'_>, round: u64, slots: &mut [f64]) -> PacketCounters {
        match ctx.hop_faults {
            None => self.walk_positions::<false>(ctx, &[], round, slots),
            Some(mask) => self.walk_positions::<true>(ctx, mask, round, slots),
        }
    }

    /// [`walk`](Self::walk), monomorphised on whether the round has a
    /// hop-fault mask.
    fn walk_positions<const FAULTED: bool>(
        &mut self,
        ctx: &LossyRoundCtx<'_>,
        mask: &[HopFault],
        round: u64,
        slots: &mut [f64],
    ) -> PacketCounters {
        let mut packets = PacketCounters::new();
        for ((at, &src), slot) in ctx.image.id.iter().enumerate().zip(slots) {
            if !ctx.offers(src as usize) {
                *slot = 0.0;
                continue;
            }
            packets.offered += 1;
            let (fate, sent, energy) = walk_packet::<FAULTED>(
                ctx,
                mask,
                round,
                at,
                &mut self.tx_attempts,
                &mut self.rx_attempts,
            );
            self.transmissions += sent;
            match fate {
                LossyFate::Delivered => packets.delivered += 1,
                LossyFate::Fault => packets.dropped_fault += 1,
                LossyFate::Channel => {}
            }
            *slot = energy;
        }
        packets
    }
}

/// Run state of the counter-RNG lossy kernel over the session's
/// [`RoundCore`]: the ARQ constants, the tallies and the energy fold.
/// Routing sees fault state with a one-round lag, as in `gather`; the
/// core's `alive` flags stay all true, because links are lossy but
/// energy is not finite in this model.
struct LossyState<'r, 'a> {
    core: &'r mut RoundCore<'a>,
    arq: ArqConstants,
    tally: LossyTally,
    /// Run-total energy, folded per packet in ascending source order.
    energy: f64,
}

impl<'r, 'a> LossyState<'r, 'a> {
    /// A fresh run state under `faults` over `core`, whose fault block
    /// it resets; the core's warm route cache skips the first build
    /// when the usable set still matches.
    fn new(
        core: &'r mut RoundCore<'a>,
        config: &LossyConfig,
        seed: u64,
        faults: &FaultSchedule,
    ) -> Self {
        core.start_run(faults);
        let n = core.topology.len();
        Self {
            core,
            arq: ArqConstants {
                seed,
                threshold: success_threshold(config.packet.delivery_probability(config.ber)),
                // Receive energy is distance-independent: one value
                // serves every hop.
                rx: config
                    .radio
                    .receive_energy(config.packet.total_bits())
                    .as_joules(),
                max_transmissions: config.arq.max_transmissions,
                attempts: u64::from(config.arq.max_transmissions),
                attempts_f: f64::from(config.arq.max_transmissions),
            },
            tally: LossyTally::new(n),
            energy: 0.0,
        }
    }

    /// Runs `rounds` rounds, each one walk over every image position on
    /// the calling thread.
    ///
    /// The walk offers the sources in image order and writes each
    /// packet's energy subtotal into its position's slot; the commit
    /// then replays the folds of one ascending-id walk exactly: the
    /// slots added to the run total in ascending source id, per-node
    /// ledger charges committed once per `(node, category)` from the
    /// (exact, integer) attempt counts, then the round's packet tally.
    /// A warm round allocates nothing.
    fn run_rounds<R: Recorder>(&mut self, rounds: u64, recorder: &mut R) {
        // Each offered packet's energy subtotal, one slot per image
        // position.
        let mut slots = vec![0.0f64; self.core.topology.len()];
        for round in 0..rounds {
            self.core.begin_round(round);
            let ctx = LossyRoundCtx::new(self.core, self.arq);
            let packets = self.tally.walk(&ctx, round, &mut slots);
            // The run-total energy fold in ascending source id, read back
            // through `pos`. Slots of unoffered sources are exactly 0.0,
            // and adding a zero subtotal (a zero ARQ budget spends
            // nothing) leaves the nonnegative total unchanged, so
            // skipping zeros replays the fold of every offered packet
            // bitwise.
            for &at in &self.core.cache.image().pos {
                let slot = slots[at as usize];
                if slot != 0.0 {
                    self.energy += slot;
                }
            }
            self.commit_charges(recorder);
            recorder.packets(&packets);
            self.tally.packets.merge(&packets);
            self.core.end_round();
        }
    }

    /// Commits the round's attempt counts to the recorder — one charge
    /// per `(node, category)` in ascending node id, read through the
    /// image's `pos`, integer count times the round-constant
    /// per-attempt cost — and clears them. This is the one place the
    /// Tx-then-RxRelay charge order is written.
    fn commit_charges<R: Recorder>(&mut self, recorder: &mut R) {
        let RouteImage { pos, tx, .. } = self.core.cache.image();
        let LossyTally {
            tx_attempts,
            rx_attempts,
            ..
        } = &mut self.tally;
        for (id, &at) in pos.iter().enumerate() {
            let count = tx_attempts[at as usize];
            if count > 0 {
                recorder.charge(id, EnergyCategory::Tx, count as f64 * tx[at as usize]);
            }
        }
        for (id, &at) in pos.iter().enumerate() {
            let count = rx_attempts[at as usize];
            if count > 0 {
                recorder.charge(id, EnergyCategory::RxRelay, count as f64 * self.arq.rx);
            }
        }
        tx_attempts.fill(0);
        rx_attempts.fill(0);
    }

    /// Final report.
    fn finish(&self) -> LossyReport {
        LossyReport {
            offered: self.tally.packets.offered,
            delivered: self.tally.packets.delivered,
            transmissions: self.tally.transmissions,
            total_energy: Energy::from_joules(self.energy),
            dropped_fault: self.tally.packets.dropped_fault,
        }
    }
}

thread_local! {
    /// Lossy session runs started on this thread.
    static LOSSY_RUNS: Cell<u64> = const { Cell::new(0) };
}

/// How many lossy session runs on this thread walked their rounds on
/// the calling thread: every run, since there is no other way to run
/// them.
pub fn par_serial_fallback_count() -> u64 {
    LOSSY_RUNS.with(Cell::get)
}

/// How many lossy session runs on this thread fanned their rounds out
/// to more than one worker: always 0, since every lossy round runs on
/// the calling thread. Kept, with [`par_serial_fallback_count`], for
/// callers that report both counts.
pub fn par_engaged_count() -> u64 {
    0
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

/// The lossy-run harness over one `(topology, config)` pair: its
/// round core keeps the route cache warm across runs, so every run
/// after the first skips the Dijkstra build (the dominant fixed cost at
/// city scale) and measures marginal round work only. Each run starts
/// from a fresh run state and is bit-identical to the same run on a
/// fresh session.
pub struct LossySession<'a> {
    core: RoundCore<'a>,
    config: &'a LossyConfig,
}

impl<'a> LossySession<'a> {
    /// Creates a session; the first run performs the route build.
    pub fn new(topology: &'a Topology, config: &'a LossyConfig) -> Self {
        Self {
            core: RoundCore::new(
                topology,
                RoutingStrategy::MinimumEnergy,
                &config.radio,
                config.max_hop,
                config.packet.total_bits(),
            ),
            config,
        }
    }

    /// Runs `rounds` fault-free rounds from a fresh run state,
    /// recording nothing.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero or the BER is outside `[0, 0.5]`.
    pub fn run(&mut self, rounds: u64, seed: u64) -> LossyReport {
        self.run_faulted_with(rounds, seed, &FaultSchedule::empty(), &mut NullRecorder)
    }

    /// Runs `rounds` rounds from a fresh run state under the exogenous
    /// `faults` schedule on the calling thread, charging every event
    /// through `recorder`.
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
    /// Every run counts one [`par_serial_fallback_count`].
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero or the BER is outside `[0, 0.5]`.
    pub fn run_faulted_with<R: Recorder>(
        &mut self,
        rounds: u64,
        seed: u64,
        faults: &FaultSchedule,
        recorder: &mut R,
    ) -> LossyReport {
        assert!(rounds > 0, "simulate at least one round");
        assert!(
            (0.0..=0.5).contains(&self.config.ber),
            "BER must lie in [0, 0.5]"
        );
        LOSSY_RUNS.with(|runs| runs.set(runs.get() + 1));
        let mut state = LossyState::new(&mut self.core, self.config, seed, faults);
        state.run_rounds(rounds, recorder);
        state.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{build_routes, route_to_sink};
    use ami_sim::obs::LedgerRecorder;
    use ami_sim::rng::CounterRng;

    /// One run on a fresh session under `faults`.
    fn faulted_run(
        topo: &Topology,
        config: &LossyConfig,
        rounds: u64,
        seed: u64,
        faults: &FaultSchedule,
    ) -> LossyReport {
        LossySession::new(topo, config).run_faulted_with(rounds, seed, faults, &mut NullRecorder)
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
            LossySession::new(topo, config).run_faulted_with(rounds, seed, faults, &mut obs);
        (report, obs)
    }

    fn topo() -> Topology {
        Topology::grid(4, Length::from_meters(30.0))
    }

    /// A generator whose every draw is one raw value: `random::<f64>()`
    /// through it is the float the channel test compares for that draw.
    struct RawDraw(u64);

    impl RngExt for RawDraw {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// Asserts that the integer success test at `p` agrees with
    /// `random::<f64>() < p` on the draw `u`, on the draws whose top 53
    /// bits sit either side of the threshold (with `u`'s low bits), and
    /// draw by draw along the counter stream keyed by `u`.
    fn assert_success_tests_agree(p: f64, u: u64) {
        let threshold = success_threshold(p);
        let top = (1u64 << 53) - 1;
        let edge = threshold.min(top);
        for x in [u >> 11, edge.saturating_sub(1), edge, (edge + 1).min(top)] {
            let raw = x << 11 | (u & 0x7ff);
            let float = RawDraw(raw).random::<f64>() < p;
            let integer = crosses(&mut RawDraw(raw), threshold);
            assert_eq!(integer, float, "p = {p:e}, draw {raw:#x}");
        }
        let (mut float, mut integer) = (CounterRng::new(u), CounterRng::new(u));
        for draw in 0..32 {
            let want = float.random::<f64>() < p;
            assert_eq!(
                crosses(&mut integer, threshold),
                want,
                "p = {p:e}, draw {draw}"
            );
        }
    }

    #[test]
    fn success_threshold_spans_never_to_always() {
        assert_eq!(success_threshold(0.0), 0);
        assert_eq!(success_threshold(1.0), 1 << 53);
        assert_eq!(success_threshold(0.5), 1 << 52);
        assert_eq!(success_threshold(f64::from_bits(1)), 1);
        for u in [0, 1 << 11, u64::MAX] {
            assert_success_tests_agree(1.0, u);
            assert_success_tests_agree(0.0, u);
        }
    }

    proptest::proptest! {
        /// The integer test is the float test: at grid probabilities
        /// `k · 2^-53` and their neighbours a double apart, at random
        /// doubles in `[0, 1]` (mostly tiny ones, when drawn by bit
        /// pattern) and at uniform ones, on random draws and the draws
        /// beside each threshold.
        #[test]
        fn integer_success_test_matches_the_float_draw(
            k in 0u64..=(1u64 << 53),
            p_bits in 0u64..=1.0f64.to_bits(),
            p_uniform in 0.0f64..=1.0,
            u in 0u64..u64::MAX,
        ) {
            let grid = k as f64 / (1u64 << 53) as f64;
            for p in [
                grid,
                grid.next_up().min(1.0),
                grid.next_down().max(0.0),
                f64::from_bits(p_bits),
                p_uniform,
            ] {
                assert_success_tests_agree(p, u);
            }
        }
    }

    #[test]
    fn a_lossy_sessions_route_cache_holds_no_subtree_ends() {
        // Only the gathering kernel reads `RouteImage::end`: a lossy
        // session's cache never sizes it, through builds and repairs.
        let n = 300;
        let topo = Topology::random(n, Length::from_meters(25.0 * (n as f64).sqrt()), 5);
        let config = LossyConfig::bruised_channel();
        let faults = ami_sim::fault::FaultSpec::parse("death=0.1,outage=0.2:10,link=0.1:8")
            .expect("fault mix parses")
            .schedule_for(5, n, 10);
        let mut session = LossySession::new(&topo, &config);
        session.run_faulted_with(10, 1, &faults, &mut NullRecorder);
        assert!(session.core.cache.repairs() > 0, "the mix must repair");
        assert_eq!(session.core.cache.image().end.capacity(), 0);
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
    fn every_run_counts_one_serial_run_and_no_fan_out() {
        let config = LossyConfig::bruised_channel();
        let topo = topo();
        let before = par_serial_fallback_count();
        let mut session = LossySession::new(&topo, &config);
        let _ = session.run(3, 1);
        let _ = session.run_faulted_with(3, 1, &FaultSchedule::empty(), &mut NullRecorder);
        let _ = simulate_lossy_gathering(&topo, &config, 3, 1);
        assert_eq!(par_serial_fallback_count(), before + 3);
        assert_eq!(par_engaged_count(), 0);
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
