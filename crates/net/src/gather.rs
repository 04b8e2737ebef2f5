//! Round-based data-gathering simulation and lifetime accounting.
//!
//! Every round, each live sensor node generates one report and forwards it
//! along the route table; every transmit, relay-receive and idle-listening
//! joule is charged against the node's finite energy budget. The sink is
//! mains-powered and never depletes. Nodes die when their budget runs out;
//! dead relays break the routes through them (deliveries stop — the
//! "hole around the sink" effect).
//!
//! Budget exhaustion takes effect **per hop**, not per round: a node whose
//! budget hits zero mid-round immediately stops sending and relaying (the
//! formal death flag and route rebuild still happen at the end-of-round
//! sweep). Residual budgets are reported *unclamped* — a node driven past
//! empty keeps its negative residual, and
//! [`NetworkReport::overdraft`] totals the overshoot instead of hiding it.
//!
//! [`GatherSession`] is the one way to run these rounds. Its
//! [`run_faulted_with`](GatherSession::run_faulted_with) takes an
//! exogenous [`ami_sim::fault::FaultSchedule`] and an
//! [`ami_sim::obs::Recorder`]: [`NullRecorder`] records nothing (zero
//! cost), [`ami_sim::obs::LedgerRecorder`] fills an energy ledger and
//! packet counters. [`simulate_gathering`] is the fault-free, unrecorded
//! run on a fresh session. Routes and fault state live in the session's
//! round core, the one [`crate::lossy`] runs on too; this module adds
//! the budgets and the charge phases.

use crate::agg::AggScratch;
use crate::round::RoundCore;
use crate::routing::{RouteImage, RoutingStrategy, NO_HOP};
use crate::topology::{NodeId, Topology};
use ami_radio::{Packet, RadioEnergyModel};
use ami_sim::fault::FaultSchedule;
use ami_sim::obs::{EnergyCategory, NullRecorder, PacketCounters, Recorder};
use ami_units::{DataVolume, Energy, EnergyPerBit, Length, Power, TimeSpan};
use serde::{Deserialize, Serialize};

/// Parameters of a gathering network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Radio energy model.
    pub radio: RadioEnergyModel,
    /// Report packet format.
    pub packet: Packet,
    /// Interval between reporting rounds.
    pub report_interval: TimeSpan,
    /// Baseline (MAC listening + sensing + leakage) power per node.
    pub idle_power: Power,
    /// Initial energy budget per sensor node.
    pub node_energy: Energy,
    /// Maximum hop length of the radio.
    pub max_hop: Length,
}

impl NetworkConfig {
    /// The µW-node default: 2003 short-range radio, sensor-report packets,
    /// 1-minute rounds, 20 µW baseline, a 50 J budget (half a small coin
    /// cell's worth dedicated to networking), 45 m hops.
    pub fn sensor_default() -> Self {
        Self {
            radio: RadioEnergyModel::short_range_2003(),
            packet: Packet::sensor_report(),
            report_interval: TimeSpan::from_minutes(1.0),
            idle_power: Power::from_microwatts(20.0),
            node_energy: Energy::from_joules(50.0),
            max_hop: Length::from_meters(45.0),
        }
    }
}

/// Outcome of a gathering simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkReport {
    /// Packets that reached the sink.
    pub delivered_packets: u64,
    /// Payload information delivered to the sink.
    pub delivered_volume: DataVolume,
    /// Total energy drawn from all sensor budgets.
    pub total_energy: Energy,
    /// Round index at which the first node died, if any.
    pub first_death_round: Option<u64>,
    /// Number of nodes still alive at the end.
    pub alive_nodes: usize,
    /// True residual energy per node (sink excluded, index = id − 1).
    /// Negative values mean the node was driven past empty.
    pub residual_energy: Vec<Energy>,
    /// Rounds simulated.
    pub rounds: u64,
}

impl NetworkReport {
    /// Mean energy cost per delivered payload bit, or `None` when the
    /// run delivered nothing (a dead or disconnected network has no
    /// per-bit cost, not an infinite one).
    pub fn energy_per_delivered_bit(&self) -> Option<EnergyPerBit> {
        if self.delivered_volume.as_bits() > 0.0 {
            Some(EnergyPerBit::new(
                self.total_energy.as_joules() / self.delivered_volume.as_bits(),
            ))
        } else {
            None
        }
    }

    /// Total energy drawn past empty, summed over overdrawn nodes.
    ///
    /// Bounded by one round's idle charge plus one packet's worth per
    /// node, since exhausted nodes stop transacting at the next hop.
    pub fn overdraft(&self) -> Energy {
        Energy::from_joules(
            self.residual_energy
                .iter()
                .map(|r| {
                    let j = r.as_joules();
                    if j < 0.0 {
                        -j
                    } else {
                        0.0
                    }
                })
                .sum(),
        )
    }

    /// Network lifetime (time to first death) given the round interval.
    pub fn lifetime(&self, interval: TimeSpan) -> Option<TimeSpan> {
        self.first_death_round
            .map(|r| TimeSpan::new(interval.as_seconds() * r as f64))
    }
}

/// Runs `rounds` fault-free reporting rounds of `topology` under
/// `strategy` on a fresh [`GatherSession`], recording nothing.
///
/// # Panics
///
/// Panics if `rounds` is zero.
pub fn simulate_gathering(
    topology: &Topology,
    strategy: RoutingStrategy,
    config: &NetworkConfig,
    rounds: u64,
) -> NetworkReport {
    GatherSession::new(topology, strategy, config).run(rounds)
}

/// How one packet's trip through the route table ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PacketFate {
    Delivered,
    DeadHop,
    Fault,
}

/// The per-run state of the gathering kernel over the session's
/// [`RoundCore`]: budgets, the spent and delivered tallies, and the
/// charge constants. [`GatherSession::run_faulted_with`] drives each
/// round as the core's [`begin_round`](RoundCore::begin_round), the
/// mid-round charges and [`end_round`](Self::end_round) (death sweep),
/// then [`finish`](Self::finish). The mid-round phase runs on the
/// aggregated kernel ([`crate::agg`]), which falls back to
/// [`idle_and_send`](Self::idle_and_send) — op for op the historical
/// implementation — on rounds its energy-margin checks reject; sharing
/// the state machine is what keeps the two bit-identical.
pub(crate) struct GatherState<'r, 'a> {
    pub(crate) core: &'r mut RoundCore<'a>,
    config: &'a NetworkConfig,
    /// Joules of idle listening per round per powered node.
    pub(crate) idle_per_round: f64,
    /// Joules to receive one packet (distance-independent).
    pub(crate) rx_per_hop: f64,
    /// Remaining budget per node, joules (unclamped).
    pub(crate) budget: Vec<f64>,
    pub(crate) delivered: u64,
    /// Total energy drawn from sensor budgets, folded in charge order.
    pub(crate) spent: f64,
    first_death: Option<u64>,
}

impl<'r, 'a> GatherState<'r, 'a> {
    /// A fresh run state under `faults` over `core`, whose fault block
    /// it resets; the core's warm route cache skips the first build
    /// when the usable set still matches.
    pub(crate) fn new(
        core: &'r mut RoundCore<'a>,
        config: &'a NetworkConfig,
        faults: &FaultSchedule,
    ) -> Self {
        core.start_run(faults);
        let n = core.topology.len();
        let sink = core.sink;
        let capacity = faults.capacity_factors(n);
        let budget: Vec<f64> = (0..n)
            .map(|id| {
                if id == sink.0 {
                    config.node_energy.as_joules()
                } else {
                    config.node_energy.as_joules() * capacity[id]
                }
            })
            .collect();
        Self {
            core,
            config,
            idle_per_round: (config.idle_power * config.report_interval).as_joules(),
            // Receive energy is distance-independent: one value serves
            // every hop.
            rx_per_hop: config
                .radio
                .receive_energy(config.packet.total_bits())
                .as_joules(),
            budget,
            delivered: 0,
            spent: 0.0,
            first_death: None,
        }
    }

    /// The serial mid-round phase: idle charges, then one report per
    /// live, funded, powered-on node, walked hop by hop with per-hop
    /// exhaustion checks. This is the pinned oracle the aggregated
    /// kernel must match bit for bit (and falls back to on rounds its
    /// energy-margin checks reject).
    pub(crate) fn idle_and_send<R: Recorder>(&mut self, recorder: &mut R) {
        let core = &*self.core;
        let (sink, timeline) = (core.sink, &core.timeline);
        let (alive, down_now) = (&core.alive[..], &core.down_now[..]);
        let connected = core.cache.connected_flags();
        let RouteImage {
            pos,
            parent,
            id: ids,
            tx,
            ..
        } = core.cache.image();
        let budget = &mut self.budget[..];
        let (idle, rx) = (self.idle_per_round, self.rx_per_hop);

        // Idle/listening cost for every live, powered-on sensor node.
        for id in core.topology.sensor_ids() {
            if alive[id.0] && !down_now[id.0] {
                budget[id.0] -= idle;
                self.spent += idle;
                recorder.charge(id.0, EnergyCategory::Idle, idle);
            }
        }

        // Each live, still-funded, powered-on node reports once. (The
        // idle charge above may have emptied a budget; such a node is
        // silent this round and will be buried by the sweep below.)
        let mut packets = PacketCounters::new();
        for src in core.topology.sensor_ids() {
            if !alive[src.0] || budget[src.0] <= 0.0 || down_now[src.0] {
                continue;
            }
            packets.offered += 1;
            if !connected[src.0] {
                packets.dropped_disconnected += 1;
                continue; // disconnected this round
            }
            // Charge the sender and every relay hop by hop, reading each
            // next hop and its transmit cost from the route image (the
            // connectivity check above guarantees the chain reaches the
            // sink) and every budget, death and fault by node id; abort
            // when a hop has died, run out mid-round, or gone down to a
            // fault.
            let (mut from, mut at) = (src, pos[src.0] as usize);
            let mut fate = PacketFate::Delivered;
            while from != sink {
                let next = parent[at];
                assert!(next != NO_HOP, "connected route reaches the sink");
                let hop = NodeId(ids[next as usize] as usize);
                let from_down = !alive[from.0] || budget[from.0] <= 0.0;
                let hop_down = hop != sink && (!alive[hop.0] || budget[hop.0] <= 0.0);
                if from_down || hop_down {
                    fate = PacketFate::DeadHop;
                    break;
                }
                let tx = tx[at];
                budget[from.0] -= tx;
                self.spent += tx;
                recorder.charge(from.0, EnergyCategory::Tx, tx);
                // A hop onto a fault-downed node or across a downed link
                // still costs the sender its transmission — it cannot
                // know in advance — but nothing arrives and the downed
                // receiver spends nothing.
                if (hop != sink && down_now[hop.0]) || timeline.link_down(from.0, hop.0) {
                    fate = PacketFate::Fault;
                    break;
                }
                if hop != sink {
                    budget[hop.0] -= rx;
                    self.spent += rx;
                    recorder.charge(hop.0, EnergyCategory::RxRelay, rx);
                }
                (from, at) = (hop, next as usize);
            }
            match fate {
                PacketFate::Delivered => packets.delivered += 1,
                PacketFate::DeadHop => packets.dropped_dead_hop += 1,
                PacketFate::Fault => packets.dropped_fault += 1,
            }
        }
        self.delivered += packets.delivered;
        recorder.packets(&packets);
    }

    /// End-of-round sweep: bury the budget-dead (marking the route
    /// epoch dirty), then the core's down-state aging.
    pub(crate) fn end_round(&mut self, round: u64) {
        // The route re-resolution at the top of the next round folds the
        // dead (and this round's fault-downs) in.
        let core = &mut *self.core;
        let alive = &mut core.alive[..];
        for id in core.topology.sensor_ids() {
            if alive[id.0] && self.budget[id.0] <= 0.0 {
                alive[id.0] = false;
                self.first_death.get_or_insert(round + 1);
                core.routes_dirty = true;
            }
        }
        core.end_round();
    }

    /// Residual recording and the final report.
    pub(crate) fn finish<R: Recorder>(&self, rounds: u64, recorder: &mut R) -> NetworkReport {
        let core = &*self.core;
        for id in core.topology.sensor_ids() {
            recorder.record_residual(id.0, self.budget[id.0]);
        }

        NetworkReport {
            delivered_packets: self.delivered,
            delivered_volume: DataVolume::from_bits(
                self.config.packet.payload().as_bits() * self.delivered as f64,
            ),
            total_energy: Energy::from_joules(self.spent),
            first_death_round: self.first_death,
            // A node down in the final round (dead or still mid-outage)
            // does not count as part of the surviving network. The
            // timeline already sits at `rounds - 1`, so this is a
            // counter read per node, not an event scan.
            alive_nodes: core
                .topology
                .sensor_ids()
                .filter(|id| core.alive[id.0] && !core.timeline.node_down(id.0))
                .count(),
            residual_energy: self
                .budget
                .iter()
                .skip(1)
                .map(|&j| Energy::from_joules(j))
                .collect(),
            rounds,
        }
    }
}

/// The gathering harness: its round core keeps routes warm across
/// runs, together with the aggregated kernel's per-round scratch (a
/// per-position column and the cells' finals).
///
/// Every gathering run goes through a session; [`simulate_gathering`]
/// is one run on a fresh one. A warm session pays the route build once
/// and then measures what city-scale studies actually repeat — marginal
/// rounds. Each run starts from a fresh network state and is
/// bit-identical to the same run on a fresh session: the only state a
/// run inherits is the route cache (its table, image and carried
/// transmit costs); every other buffer is reset at run start or
/// rewritten by each round, and reused.
pub struct GatherSession<'a> {
    core: RoundCore<'a>,
    config: &'a NetworkConfig,
    scratch: AggScratch,
}

impl<'a> GatherSession<'a> {
    /// Creates a session; the first run performs the route build.
    pub fn new(
        topology: &'a Topology,
        strategy: RoutingStrategy,
        config: &'a NetworkConfig,
    ) -> Self {
        let mut core = RoundCore::new(
            topology,
            strategy,
            &config.radio,
            config.max_hop,
            config.packet.total_bits(),
        );
        // The aggregated kernel scans subtrees by their image ranges.
        core.cache.keep_subtree_ends();
        Self {
            core,
            config,
            scratch: AggScratch::new(topology.len()),
        }
    }

    /// Runs `rounds` fault-free rounds from a fresh network state,
    /// recording nothing.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero.
    pub fn run(&mut self, rounds: u64) -> NetworkReport {
        self.run_faulted_with(rounds, &FaultSchedule::empty(), &mut NullRecorder)
    }

    /// Runs `rounds` reporting rounds from a fresh network state under
    /// the exogenous `faults` schedule, charging every joule to
    /// `recorder` and committing each round's packet tally to it once.
    ///
    /// Routes are re-resolved over the surviving nodes whenever a node
    /// dies. A node participates (sends, relays) only while its budget
    /// is positive: exhaustion stops it at the very next hop, so a
    /// depleted relay cannot keep forwarding traffic for free until the
    /// end-of-round death sweep. Packets that abort on an exhausted hop
    /// count as `dropped_dead_hop`; packets generated with no route to
    /// the sink count as `dropped_disconnected`.
    ///
    /// Fault semantics, chosen so the empty schedule degenerates
    /// bit-exactly to the unfaulted run:
    ///
    /// * a fault-downed node (death or mid-outage) is powered off: no idle
    ///   charge, no report, no relaying; its remaining budget survives a
    ///   transient outage;
    /// * routing observes fault state with a **one-round lag** — the network
    ///   cannot know a relay died until traffic through it fails — and then
    ///   re-resolves next hops over the usable nodes instead of panicking;
    /// * a packet that hits a freshly downed relay or a downed link burns
    ///   the sender's transmit energy (the sender cannot know), charges the
    ///   downed receiver nothing, and drops as `dropped_fault`;
    /// * capacity-fade events scale the node's *initial* budget;
    /// * budget exhaustion keeps its existing semantics: per-hop stop,
    ///   `dropped_dead_hop` attribution, and `first_death_round` counts
    ///   energy deaths only (exogenous faults are not "lifetime").
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero.
    pub fn run_faulted_with<R: Recorder>(
        &mut self,
        rounds: u64,
        faults: &FaultSchedule,
        recorder: &mut R,
    ) -> NetworkReport {
        assert!(rounds > 0, "simulate at least one round");
        let mut state = GatherState::new(&mut self.core, self.config, faults);
        // All scratch lives in the core, the state and the aggregation
        // scratch and is reused across rounds — the round loop stays
        // allocation-steady.
        for round in 0..rounds {
            state.core.begin_round(round);
            state.round_charges(&mut self.scratch, recorder);
            state.end_round(round);
        }
        state.finish(rounds, recorder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RouteCache;
    use crate::topology::Position;
    use ami_sim::obs::LedgerRecorder;

    /// One run on a fresh session under `faults`, with a ledger attached.
    fn observed_run(
        topo: &Topology,
        strategy: RoutingStrategy,
        config: &NetworkConfig,
        rounds: u64,
        faults: &FaultSchedule,
    ) -> (NetworkReport, LedgerRecorder) {
        let mut obs = LedgerRecorder::with_nodes(topo.len());
        let report =
            GatherSession::new(topo, strategy, config).run_faulted_with(rounds, faults, &mut obs);
        (report, obs)
    }

    // The historical compact-rebuild oracle and the test pinning masked
    // routing against it live in `tests/common/oracle.rs` +
    // `tests/differential.rs`, shared with the incremental-repair
    // differential layer.

    #[test]
    fn subset_routing_handles_the_everyone_dead_case() {
        let topo = Topology::grid(3, Length::from_meters(20.0));
        let config = NetworkConfig::sensor_default();
        let mut usable = vec![false; topo.len()];
        usable[0] = true;
        let mut cache = RouteCache::new(
            &topo,
            RoutingStrategy::MinimumEnergy,
            &config.radio,
            config.max_hop,
            config.packet.total_bits(),
        );
        cache.ensure(&usable);
        assert!(topo.ids().all(|id| cache.next_hop(id).is_none()));
    }

    fn small_grid() -> Topology {
        Topology::grid(3, Length::from_meters(20.0))
    }

    #[test]
    fn every_round_delivers_every_live_node() {
        let report = simulate_gathering(
            &small_grid(),
            RoutingStrategy::MinimumEnergy,
            &NetworkConfig::sensor_default(),
            50,
        );
        assert_eq!(report.delivered_packets, 50 * 8);
        assert_eq!(report.alive_nodes, 8);
        assert!(report.first_death_round.is_none());
    }

    #[test]
    fn multihop_beats_direct_on_spread_networks() {
        // 6x6 grid at 30 m: far corner is >210 m from the sink — way past
        // the 44.7 m crossover.
        let topo = Topology::grid(6, Length::from_meters(30.0));
        let config = NetworkConfig::sensor_default();
        let direct = simulate_gathering(&topo, RoutingStrategy::DirectToSink, &config, 100);
        let multi = simulate_gathering(&topo, RoutingStrategy::MinimumEnergy, &config, 100);
        assert_eq!(direct.delivered_packets, multi.delivered_packets);
        assert!(
            multi.total_energy < direct.total_energy,
            "multi-hop must spend less: {} vs {}",
            multi.total_energy,
            direct.total_energy
        );
    }

    #[test]
    fn direct_wins_on_tight_star() {
        // All leaves 10 m from the sink: relaying could only add cost.
        let topo = Topology::star(6, Length::from_meters(10.0));
        let config = NetworkConfig::sensor_default();
        let direct = simulate_gathering(&topo, RoutingStrategy::DirectToSink, &config, 100);
        let multi = simulate_gathering(&topo, RoutingStrategy::MinimumEnergy, &config, 100);
        assert!(direct.total_energy <= multi.total_energy * 1.000001);
    }

    #[test]
    fn nodes_die_and_network_degrades() {
        let mut config = NetworkConfig::sensor_default();
        config.node_energy = Energy::from_millijoules(40.0); // tiny budgets
        let topo = Topology::grid(4, Length::from_meters(30.0));
        let report = simulate_gathering(&topo, RoutingStrategy::MinimumEnergy, &config, 2000);
        assert!(report.first_death_round.is_some());
        assert!(report.alive_nodes < 15);
    }

    #[test]
    fn relays_die_first_under_multihop() {
        // The hole-around-the-sink effect: nodes adjacent to the sink relay
        // everyone's traffic and deplete fastest.
        let mut config = NetworkConfig::sensor_default();
        config.idle_power = Power::ZERO; // isolate relaying cost
        config.node_energy = Energy::from_joules(1.0);
        let topo = Topology::grid(5, Length::from_meters(30.0));
        let report = simulate_gathering(&topo, RoutingStrategy::MinimumEnergy, &config, 5000);
        // Node 1 (adjacent to corner sink) must end with less energy than
        // the far corner (node 24) which never relays.
        let near = report.residual_energy[0]; // id 1
        let far = report.residual_energy[23]; // id 24
        assert!(near < far, "sink-adjacent relay must deplete faster");
    }

    #[test]
    fn energy_per_delivered_bit_is_sane() {
        let report = simulate_gathering(
            &small_grid(),
            RoutingStrategy::MinimumEnergy,
            &NetworkConfig::sensor_default(),
            10,
        );
        let epb = report.energy_per_delivered_bit().expect("grid delivers");
        // Idle listening dominates at 1-minute rounds: µJ–mJ per bit.
        assert!(epb.as_joules_per_bit() > 1e-9);
        assert!(epb.as_joules_per_bit() < 1.0);
    }

    #[test]
    fn zero_delivery_has_no_per_bit_cost() {
        // Sink at the origin, one sensor far out of radio range: energy
        // is spent idling but nothing is ever delivered.
        let topo = Topology::new(vec![Position::new(0.0, 0.0), Position::new(500.0, 0.0)]);
        let report = simulate_gathering(
            &topo,
            RoutingStrategy::MinimumEnergy,
            &NetworkConfig::sensor_default(),
            5,
        );
        assert_eq!(report.delivered_packets, 0);
        assert!(report.total_energy.as_joules() > 0.0);
        assert_eq!(report.energy_per_delivered_bit(), None);
    }

    /// Sink—node1—node2 line, 40 m apart with 45 m hops, so node2 must
    /// relay through node1; idle power zero so only radio charges move
    /// budgets. Node1's budget covers exactly one transmit plus half a
    /// receive, making its exhaustion land mid-round.
    fn relay_line(radio_halves: f64) -> (Topology, NetworkConfig) {
        let topo = Topology::new(vec![
            Position::new(0.0, 0.0),
            Position::new(40.0, 0.0),
            Position::new(80.0, 0.0),
        ]);
        let mut config = NetworkConfig::sensor_default();
        config.idle_power = Power::ZERO;
        let bits = config.packet.total_bits();
        let tx = config
            .radio
            .transmit_energy(bits, Length::from_meters(40.0))
            .as_joules();
        let rx = config.radio.receive_energy(bits).as_joules();
        config.node_energy = Energy::from_joules(tx + rx * radio_halves);
        (topo, config)
    }

    #[test]
    fn exhausted_relay_stops_forwarding_mid_round() {
        // Round 1: node1 sends its own report (one tx), then receives
        // node2's packet, which drives it past empty mid-round. The
        // relay must stop *there* — before the zombie-relay fix, node1's
        // stale alive flag let node2's packet through, so round 1
        // delivered 2 packets instead of 1.
        let (topo, config) = relay_line(0.5);
        let (report, obs) = observed_run(
            &topo,
            RoutingStrategy::MinimumEnergy,
            &config,
            5,
            &FaultSchedule::empty(),
        );
        assert_eq!(report.delivered_packets, 1);
        assert_eq!(report.first_death_round, Some(1));
        assert_eq!(obs.packets.offered, 6); // node1 once, node2 every round
        assert_eq!(obs.packets.delivered, 1);
        assert_eq!(obs.packets.dropped_dead_hop, 1); // node2's round-1 packet
        assert_eq!(obs.packets.dropped_disconnected, 4); // node2, rounds 2-5
        assert!(obs.packets.is_conserved());
    }

    #[test]
    fn overdraft_is_reported_not_clamped() {
        let (topo, config) = relay_line(0.5);
        let (report, obs) = observed_run(
            &topo,
            RoutingStrategy::MinimumEnergy,
            &config,
            5,
            &FaultSchedule::empty(),
        );
        let rx = config
            .radio
            .receive_energy(config.packet.total_bits())
            .as_joules();
        // Node1 ends exactly half a receive-energy past empty: one tx
        // (own report) plus one full rx against a budget of tx + rx/2.
        let node1 = report.residual_energy[0].as_joules();
        assert!((node1 + rx / 2.0).abs() < 1e-15, "residual {node1}");
        assert!((report.overdraft().as_joules() - rx / 2.0).abs() < 1e-15);
        assert_eq!(
            report.overdraft().as_joules(),
            obs.ledger.overdraft().as_joules()
        );
    }

    #[test]
    fn observation_does_not_change_the_report() {
        let config = NetworkConfig::sensor_default();
        for strategy in [
            RoutingStrategy::DirectToSink,
            RoutingStrategy::MinimumEnergy,
        ] {
            let plain = simulate_gathering(&small_grid(), strategy, &config, 25);
            let (recorded, _) = observed_run(
                &small_grid(),
                strategy,
                &config,
                25,
                &FaultSchedule::empty(),
            );
            assert_eq!(plain, recorded);
        }
    }

    #[test]
    fn ledger_accounts_for_every_joule() {
        let mut config = NetworkConfig::sensor_default();
        config.node_energy = Energy::from_millijoules(40.0); // force deaths
        let topo = Topology::grid(4, Length::from_meters(30.0));
        let (report, obs) = observed_run(
            &topo,
            RoutingStrategy::MinimumEnergy,
            &config,
            2000,
            &FaultSchedule::empty(),
        );
        let total = report.total_energy.as_joules();
        // Ledger categories partition the report's total energy.
        assert!((obs.ledger.total().as_joules() - total).abs() <= 1e-9 * total);
        // Conservation: initial budgets − true residuals == spent.
        let initial = config.node_energy.as_joules() * (topo.len() - 1) as f64;
        let residual: f64 = report.residual_energy.iter().map(|e| e.as_joules()).sum();
        assert!((initial - residual - total).abs() <= 1e-9 * initial);
        assert!(obs.packets.is_conserved());
    }

    #[test]
    fn lifetime_converts_rounds() {
        let mut config = NetworkConfig::sensor_default();
        config.node_energy = Energy::from_millijoules(10.0);
        let report =
            simulate_gathering(&small_grid(), RoutingStrategy::DirectToSink, &config, 1000);
        let round = report.first_death_round.expect("must die");
        let lifetime = report.lifetime(config.report_interval).unwrap();
        assert!((lifetime.as_minutes() - round as f64).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_rejected() {
        let _ = simulate_gathering(
            &small_grid(),
            RoutingStrategy::DirectToSink,
            &NetworkConfig::sensor_default(),
            0,
        );
    }

    mod faulted {
        use super::*;
        use ami_sim::fault::{FaultEvent, FaultModel};

        #[test]
        fn empty_schedule_is_bit_exact_with_the_unfaulted_path() {
            let config = NetworkConfig::sensor_default();
            let topo = Topology::grid(4, Length::from_meters(30.0));
            for strategy in [
                RoutingStrategy::DirectToSink,
                RoutingStrategy::MinimumEnergy,
            ] {
                let plain = simulate_gathering(&topo, strategy, &config, 40);
                let (faulted, obs) =
                    observed_run(&topo, strategy, &config, 40, &FaultSchedule::empty());
                assert_eq!(plain, faulted);
                assert_eq!(obs.packets.dropped_fault, 0);
            }
        }

        #[test]
        fn heavy_death_faults_never_panic_and_attribute_every_loss() {
            // Kill relays aggressively on a multi-hop grid: the sim must
            // degrade (re-resolving routes), not collapse, and packet
            // accounting must stay conserved with fault losses visible.
            let config = NetworkConfig::sensor_default();
            let topo = Topology::grid(5, Length::from_meters(30.0));
            let model = FaultModel {
                death_rate: 0.4,
                outage_rate: 0.3,
                outage_rounds: 20,
                link_outage_rate: 0.2,
                link_outage_rounds: 15,
                fade_rate: 0.3,
                fade_factor: 0.6,
            };
            let faults = model.schedule(2003, topo.len(), 100);
            let (report, obs) =
                observed_run(&topo, RoutingStrategy::MinimumEnergy, &config, 100, &faults);
            assert!(obs.packets.is_conserved());
            assert!(obs.packets.dropped_fault > 0, "faults must cost packets");
            assert!(
                report.delivered_packets > 0,
                "the network must degrade, not die"
            );
            assert_eq!(report.delivered_packets, obs.packets.delivered);
            // The ledger still partitions the report's total energy.
            let total = report.total_energy.as_joules();
            assert!((obs.ledger.total().as_joules() - total).abs() <= 1e-9 * total);
        }

        #[test]
        fn relay_death_drops_as_fault_then_routing_re_resolves() {
            // Sink—1—2 line: node 2 must relay through node 1. Kill node
            // 1 at round 2: node 2's round-2 packet burns tx into the
            // dead relay (dropped_fault); from round 3 routing has
            // noticed and node 2 is disconnected.
            let topo = Topology::new(vec![
                Position::new(0.0, 0.0),
                Position::new(40.0, 0.0),
                Position::new(80.0, 0.0),
            ]);
            let mut config = NetworkConfig::sensor_default();
            config.idle_power = Power::ZERO;
            let faults = FaultSchedule::new(vec![FaultEvent::NodeDeath { node: 1, round: 2 }]);
            let (report, obs) =
                observed_run(&topo, RoutingStrategy::MinimumEnergy, &config, 6, &faults);
            // Rounds 0–1: both nodes deliver. Round 2: node 1 is off (no
            // offer), node 2 drops on the dead relay. Rounds 3–5: node 2
            // is disconnected.
            assert_eq!(obs.packets.offered, 4 + 1 + 3);
            assert_eq!(obs.packets.delivered, 4);
            assert_eq!(obs.packets.dropped_fault, 1);
            assert_eq!(obs.packets.dropped_disconnected, 3);
            assert!(obs.packets.is_conserved());
            assert_eq!(report.alive_nodes, 1);
            // Exogenous death is not an energy death.
            assert_eq!(report.first_death_round, None);
        }

        #[test]
        fn outage_powers_off_then_reboots_with_budget_intact() {
            // A single direct-to-sink node with an outage window: it
            // spends nothing while down and resumes reporting after.
            let topo = Topology::new(vec![Position::new(0.0, 0.0), Position::new(20.0, 0.0)]);
            let config = NetworkConfig::sensor_default();
            let faults = FaultSchedule::new(vec![FaultEvent::NodeOutage {
                node: 1,
                from: 2,
                until: 5,
            }]);
            let (report, obs) =
                observed_run(&topo, RoutingStrategy::DirectToSink, &config, 8, &faults);
            // Offered in rounds 0, 1, 5, 6, 7.
            assert_eq!(obs.packets.offered, 5);
            // Routing notices the reboot one round late: the round-5
            // report finds no route yet and drops as disconnected.
            assert_eq!(obs.packets.delivered, 4);
            assert_eq!(obs.packets.dropped_disconnected, 1);
            assert_eq!(report.alive_nodes, 1);
            // Exactly 5 rounds of idle + 4 transmissions were spent.
            let idle = (config.idle_power * config.report_interval).as_joules();
            let tx = config
                .radio
                .transmit_energy(config.packet.total_bits(), Length::from_meters(20.0))
                .as_joules();
            let expect = 5.0 * idle + 4.0 * tx;
            assert!((report.total_energy.as_joules() - expect).abs() < 1e-12);
        }

        #[test]
        fn link_outage_burns_tx_and_drops_as_fault() {
            let topo = Topology::new(vec![Position::new(0.0, 0.0), Position::new(20.0, 0.0)]);
            let mut config = NetworkConfig::sensor_default();
            config.idle_power = Power::ZERO;
            let faults = FaultSchedule::new(vec![FaultEvent::LinkOutage {
                a: 1,
                b: 0,
                from: 1,
                until: 3,
            }]);
            let (report, obs) =
                observed_run(&topo, RoutingStrategy::DirectToSink, &config, 4, &faults);
            // The node keeps transmitting into the dead link (it cannot
            // know): 4 tx spent, rounds 1 and 2 lost to the fault.
            assert_eq!(obs.packets.offered, 4);
            assert_eq!(obs.packets.delivered, 2);
            assert_eq!(obs.packets.dropped_fault, 2);
            let tx = config
                .radio
                .transmit_energy(config.packet.total_bits(), Length::from_meters(20.0))
                .as_joules();
            assert!((report.total_energy.as_joules() - 4.0 * tx).abs() < 1e-12);
        }

        #[test]
        fn capacity_fade_scales_the_initial_budget() {
            let topo = Topology::new(vec![Position::new(0.0, 0.0), Position::new(20.0, 0.0)]);
            let config = NetworkConfig::sensor_default();
            let faults = FaultSchedule::new(vec![FaultEvent::CapacityFade {
                node: 1,
                factor: 0.25,
            }]);
            let plain = simulate_gathering(&topo, RoutingStrategy::DirectToSink, &config, 3);
            let (faded, _) =
                observed_run(&topo, RoutingStrategy::DirectToSink, &config, 3, &faults);
            // Same spend, but the faded node starts 75% lower.
            assert_eq!(plain.total_energy, faded.total_energy);
            let lost = 0.75 * config.node_energy.as_joules();
            let gap = plain.residual_energy[0].as_joules() - faded.residual_energy[0].as_joules();
            assert!((gap - lost).abs() < 1e-9);
        }
    }
}
