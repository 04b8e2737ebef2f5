//! Property-based tests for topology, routing and gathering invariants.

use ami_net::routing::route_to_sink;
use ami_net::{
    build_routes, simulate_gathering, GatherSession, NetworkConfig, RoutingStrategy, Topology,
};
use ami_radio::RadioEnergyModel;
use ami_sim::fault::FaultSchedule;
use ami_sim::obs::LedgerRecorder;
use ami_units::{Energy, Length};
use proptest::prelude::*;

/// One receive-energy per delivered packet: the metric-vs-simulation
/// bookkeeping difference at the (mains-powered, uncharged) sink.
fn radio_rx_slack(config: &NetworkConfig, delivered: u64) -> f64 {
    config
        .radio
        .receive_energy(config.packet.total_bits())
        .as_joules()
        * delivered as f64
}

proptest! {
    /// Random topologies are deterministic in their seed.
    #[test]
    fn topology_deterministic(n in 2usize..50, seed in 0u64..1000) {
        let a = Topology::random(n, Length::from_meters(100.0), seed);
        let b = Topology::random(n, Length::from_meters(100.0), seed);
        prop_assert_eq!(a, b);
    }

    /// Distances are symmetric, non-negative, and satisfy the triangle
    /// inequality on random topologies.
    #[test]
    fn metric_axioms(n in 3usize..30, seed in 0u64..500) {
        let topo = Topology::random(n, Length::from_meters(100.0), seed);
        let ids: Vec<_> = topo.ids().collect();
        for &a in ids.iter().take(5) {
            for &b in ids.iter().take(5) {
                let dab = topo.distance(a, b);
                prop_assert!((dab.as_meters() - topo.distance(b, a).as_meters()).abs() < 1e-12);
                if a == b {
                    prop_assert_eq!(dab.as_meters(), 0.0);
                }
                for &c in ids.iter().take(5) {
                    let dac = topo.distance(a, c).as_meters();
                    let dcb = topo.distance(c, b).as_meters();
                    prop_assert!(dab.as_meters() <= dac + dcb + 1e-9);
                }
            }
        }
    }

    /// Every minimum-energy route terminates at the sink (or is empty),
    /// never revisits a node, and respects the hop range.
    #[test]
    fn route_invariants(n in 2usize..60, seed in 0u64..300, range_m in 20.0..80.0f64) {
        let topo = Topology::random(n, Length::from_meters(150.0), seed);
        let range = Length::from_meters(range_m);
        let radio = RadioEnergyModel::short_range_2003();
        let table = build_routes(&topo, RoutingStrategy::MinimumEnergy, &radio, range);
        for id in topo.sensor_ids() {
            let path = route_to_sink(&table, &topo, id);
            if path.is_empty() {
                continue;
            }
            prop_assert_eq!(*path.last().unwrap(), topo.sink());
            let mut seen = std::collections::HashSet::new();
            let mut current = id;
            seen.insert(current);
            for hop in &path {
                prop_assert!(topo.distance(current, *hop) <= range);
                prop_assert!(seen.insert(*hop), "cycle via {hop}");
                current = *hop;
            }
        }
    }

    /// Gathering accounting: delivered ≤ offered; every joule drawn from
    /// a budget lands in the ledger; initial energy minus true residuals
    /// equals total spent (conservation — residuals are unclamped, so
    /// this balances exactly even when nodes overdraw); every offered
    /// packet is delivered or counted dropped.
    #[test]
    fn gathering_accounting(
        n in 2usize..30,
        seed in 0u64..200,
        rounds in 1u64..100,
        budget_mj in 5.0..50_000.0f64,
    ) {
        let topo = Topology::random(n, Length::from_meters(80.0), seed);
        let mut config = NetworkConfig::sensor_default();
        config.node_energy = Energy::from_millijoules(budget_mj);
        let mut obs = LedgerRecorder::with_nodes(topo.len());
        let report = GatherSession::new(&topo, RoutingStrategy::MinimumEnergy, &config)
            .run_faulted_with(rounds, &FaultSchedule::empty(), &mut obs);
        prop_assert!(report.delivered_packets <= rounds * (n as u64 - 1));
        prop_assert!(report.total_energy.as_joules() > 0.0);
        prop_assert_eq!(report.rounds, rounds);

        // Residuals are true balances: bounded above by the initial
        // budget, unclamped below; the overdraft total matches them.
        let node_j = config.node_energy.as_joules();
        let mut overdraft = 0.0;
        for residual in &report.residual_energy {
            prop_assert!(residual.as_joules() <= node_j);
            overdraft += (-residual.as_joules()).max(0.0);
        }
        prop_assert!((report.overdraft().as_joules() - overdraft).abs() <= 1e-12);

        // Conservation: what the nodes started with, minus what they
        // still hold, is exactly what the run reports as spent.
        let initial = node_j * (n as f64 - 1.0);
        let residual: f64 = report.residual_energy.iter().map(|e| e.as_joules()).sum();
        prop_assert!((initial - residual - report.total_energy.as_joules()).abs()
            <= 1e-9 * initial);

        // The ledger partitions the same total, and the counter tree
        // loses no packets.
        let total = report.total_energy.as_joules();
        prop_assert!((obs.ledger.total().as_joules() - total).abs() <= 1e-9 * total);
        prop_assert!(obs.packets.is_conserved());
        prop_assert_eq!(obs.packets.delivered, report.delivered_packets);
        prop_assert!((obs.ledger.overdraft().as_joules() - overdraft).abs() <= 1e-12);
    }

    /// Dijkstra optimality: for every node whose direct hop to the sink is
    /// within radio range, the chosen route's metric cost never exceeds the
    /// single-hop metric. (Beyond range the comparison is ill-posed: the
    /// unconstrained direct strategy may "cheat" with an over-range blast.)
    #[test]
    fn min_energy_routing_is_metric_optimal(n in 3usize..40, seed in 0u64..150) {
        let topo = Topology::random(n, Length::from_meters(120.0), seed);
        let radio = RadioEnergyModel::short_range_2003();
        let range = Length::from_meters(45.0);
        let table = build_routes(&topo, RoutingStrategy::MinimumEnergy, &radio, range);
        for id in topo.sensor_ids() {
            let direct_d = topo.distance(id, topo.sink());
            if direct_d > range {
                continue;
            }
            let path = route_to_sink(&table, &topo, id);
            prop_assert!(!path.is_empty(), "in-range node must be connected");
            let mut cost = 0.0;
            let mut current = id;
            for hop in &path {
                cost += radio
                    .hop_energy_per_bit(topo.distance(current, *hop))
                    .as_joules_per_bit();
                current = *hop;
            }
            let direct_cost = radio.hop_energy_per_bit(direct_d).as_joules_per_bit();
            prop_assert!(
                cost <= direct_cost * (1.0 + 1e-9),
                "route {cost:.3e} beats direct {direct_cost:.3e}"
            );
        }
    }

    /// With unconstrained range and zero idle power, minimum-energy routing
    /// never spends more than direct-to-sink in the gathering simulation.
    #[test]
    fn min_energy_beats_direct_when_range_unconstrained(n in 3usize..25, seed in 0u64..100) {
        let topo = Topology::random(n, Length::from_meters(120.0), seed);
        let mut config = NetworkConfig::sensor_default();
        config.idle_power = ami_units::Power::ZERO;
        config.node_energy = Energy::from_joules(1000.0); // nobody dies
        config.max_hop = Length::from_meters(1e6); // every edge exists
        let direct = simulate_gathering(&topo, RoutingStrategy::DirectToSink, &config, 10);
        let multi = simulate_gathering(&topo, RoutingStrategy::MinimumEnergy, &config, 10);
        prop_assert_eq!(direct.delivered_packets, multi.delivered_packets);
        // The relayed path pays one un-modelled sink-rx per packet in the
        // metric but not in the simulation, so multi is conservatively
        // bounded by direct plus one rx per delivered packet.
        let slack = radio_rx_slack(&config, multi.delivered_packets);
        prop_assert!(
            multi.total_energy.as_joules()
                <= direct.total_energy.as_joules() + slack
        );
    }

    /// Grid radius equals the corner-to-corner distance.
    #[test]
    fn grid_radius(side in 2usize..10, spacing in 1.0..50.0f64) {
        let topo = Topology::grid(side, Length::from_meters(spacing));
        let expected = spacing * ((side - 1) as f64) * 2f64.sqrt();
        prop_assert!((topo.radius().as_meters() - expected).abs() < 1e-9);
    }

    /// Lossy gathering: delivered ≤ offered, transmissions bounded by the
    /// ARQ budget times hops, and energy strictly positive.
    #[test]
    fn lossy_accounting(side in 2usize..6, exp in 2.0..5.0f64, budget in 1u32..8, seed in 0u64..50) {
        let topo = Topology::grid(side, Length::from_meters(30.0));
        let mut config = ami_net::LossyConfig::bruised_channel();
        config.ber = 10f64.powf(-exp);
        config.arq = ami_radio::StopAndWaitArq::new(budget);
        let rounds = 20;
        let report = ami_net::simulate_lossy_gathering(&topo, &config, rounds, seed);
        prop_assert!(report.delivered <= report.offered);
        prop_assert!(report.offered <= rounds * (topo.len() as u64 - 1));
        // Per offered packet at most budget × longest-path transmissions.
        let max_hops = topo.len() as u64;
        prop_assert!(report.transmissions <= report.offered * u64::from(budget) * max_hops);
        prop_assert!(report.total_energy.as_joules() > 0.0);
    }

    /// Aggregation: sink volume never exceeds offered volume, and the
    /// report is deterministic (pure function).
    #[test]
    fn aggregation_bounds(side in 2usize..7, fusion in 0.0..1.0f64) {
        let topo = Topology::grid(side, Length::from_meters(30.0));
        let radio = RadioEnergyModel::short_range_2003();
        let report = ami_net::analyze_aggregation(
            &topo,
            &radio,
            Length::from_meters(45.0),
            ami_units::DataVolume::from_bytes(16.0),
            ami_units::DataVolume::from_bits(112.0),
            fusion,
        );
        prop_assert!(report.sink_volume.as_bits() <= report.offered_volume.as_bits() + 1e-6);
        prop_assert!(report.round_energy.as_joules() > 0.0);
        prop_assert_eq!(report.disconnected, 0);
    }
}
