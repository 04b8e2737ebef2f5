//! The usable-set epoch cache: cached routes must be indistinguishable
//! from routes rebuilt from scratch every round, under arbitrary fault
//! schedules — and healthy runs must pay for exactly one build.

mod common;

use ami_net::routing::{
    reset_route_build_count, reset_route_repair_count, route_build_count, route_repair_count,
    RouteCache,
};
use ami_net::{
    build_routes_over, simulate_gathering, simulate_lossy_gathering, GatherSession, LossyConfig,
    NetworkConfig, RoutingStrategy, Topology,
};
use ami_sim::fault::{FaultEvent, FaultModel, FaultSchedule};
use ami_sim::obs::NullRecorder;
use ami_units::Length;
use common::schedule::fault_schedule;
use proptest::prelude::*;

proptest! {
    /// Drive a [`RouteCache`] through the usable-set sequence of an
    /// arbitrary fault schedule (deaths, outage+reboot windows, link
    /// windows) with the simulators' one-round lag; after every round
    /// the cached table must equal a fresh scratch build over the same
    /// usable set, and the cache must never build or repair more than
    /// once per round. Schedules come from the shared
    /// [`common::schedule::fault_schedule`] strategy; events aimed at
    /// nodes beyond `n` are legal no-ops for an `n`-node run.
    #[test]
    fn epoch_cached_routes_match_fresh_builds(
        seed in 0u64..200,
        n in 5usize..40,
        rounds in 1u64..40,
        faults in fault_schedule(40, 40, 14),
    ) {
        let topo = Topology::random(n, Length::from_meters(130.0), seed);
        let config = NetworkConfig::sensor_default();
        let bits = config.packet.total_bits();
        let mut cache = RouteCache::new(n);
        let mut usable = vec![true; n];
        let mut down_prev = vec![false; n];
        for round in 0..rounds {
            for (id, flag) in usable.iter_mut().enumerate() {
                *flag = id == 0 || !down_prev[id];
            }
            cache.ensure(
                &topo,
                RoutingStrategy::MinimumEnergy,
                &config.radio,
                config.max_hop,
                bits,
                &usable,
            );
            let fresh = build_routes_over(
                &topo,
                RoutingStrategy::MinimumEnergy,
                &config.radio,
                config.max_hop,
                &usable,
            );
            prop_assert_eq!(cache.table(), fresh.as_slice(), "round {}", round);
            for (id, down) in down_prev.iter_mut().enumerate() {
                *down = id != 0 && faults.node_down(id, round);
            }
        }
        prop_assert!(
            cache.builds() + cache.repairs() <= rounds,
            "at most one build or repair per round"
        );
    }

    /// The faulted simulators never panic and stay packet-sane across
    /// arbitrary schedules now that routing runs off the epoch cache.
    #[test]
    fn faulted_simulation_survives_arbitrary_schedules(
        seed in 0u64..60,
        death in 0.0..0.5f64,
        outage in 0.0..0.5f64,
        link in 0.0..0.4f64,
    ) {
        let topo = Topology::random(25, Length::from_meters(110.0), seed);
        let model = FaultModel {
            death_rate: death,
            outage_rate: outage,
            outage_rounds: 8,
            link_outage_rate: link,
            link_outage_rounds: 6,
            fade_rate: 0.2,
            fade_factor: 0.7,
        };
        let rounds = 40;
        let faults = model.schedule(seed, topo.len(), rounds);
        let config = NetworkConfig::sensor_default();
        let report = GatherSession::new(&topo, RoutingStrategy::MinimumEnergy, &config).run_faulted_with(rounds, &faults, &mut NullRecorder);
        prop_assert!(report.delivered_packets <= rounds * (topo.len() as u64 - 1));
        prop_assert!(report.total_energy.as_joules() >= 0.0);
    }
}

#[test]
fn healthy_gather_run_builds_routes_exactly_once() {
    let topo = Topology::random(60, Length::from_meters(160.0), 9);
    let config = NetworkConfig::sensor_default();
    reset_route_build_count();
    let report = simulate_gathering(&topo, RoutingStrategy::MinimumEnergy, &config, 200);
    assert_eq!(
        route_build_count(),
        1,
        "a healthy run must pay for exactly one route build"
    );
    assert!(
        report.first_death_round.is_none(),
        "the run must stay healthy"
    );
}

#[test]
fn healthy_lossy_run_builds_routes_exactly_once() {
    let topo = Topology::random(40, Length::from_meters(130.0), 4);
    let config = LossyConfig::bruised_channel();
    reset_route_build_count();
    let _ = simulate_lossy_gathering(&topo, &config, 120, 7);
    assert_eq!(route_build_count(), 1);
}

#[test]
fn outage_costs_exactly_two_repairs_and_no_extra_builds() {
    // One outage window (rounds 3–5): routing notices the power-off one
    // round late (repair at round 4) and the reboot one round late
    // (repair at round 7). Only the round-0 build is full — both
    // transitions are incremental repairs.
    let topo = Topology::grid(4, Length::from_meters(25.0));
    let config = NetworkConfig::sensor_default();
    let faults = FaultSchedule::new(vec![FaultEvent::NodeOutage {
        node: 5,
        from: 3,
        until: 6,
    }]);
    reset_route_build_count();
    reset_route_repair_count();
    let _ = GatherSession::new(&topo, RoutingStrategy::MinimumEnergy, &config).run_faulted_with(
        10,
        &faults,
        &mut NullRecorder,
    );
    assert_eq!(route_build_count(), 1, "only the initial build may be full");
    assert_eq!(
        route_repair_count(),
        2,
        "power-off and reboot each cost one incremental repair"
    );
}

#[test]
fn reboot_landing_with_a_second_death_repairs_once() {
    // Counter-accounting regression for repair-while-dirty ordering: an
    // outage on node 5 ends (reboot, visible at round 5) in the same
    // diff as node 10's death (round 4, also visible at round 5). The
    // single repair must splice one node back in while carving the
    // other out — two repairs total for three transitions' worth of
    // events, and never a second full build.
    let topo = Topology::grid(4, Length::from_meters(25.0));
    let config = NetworkConfig::sensor_default();
    let faults = FaultSchedule::new(vec![
        FaultEvent::NodeOutage {
            node: 5,
            from: 1,
            until: 4,
        },
        FaultEvent::NodeDeath { node: 10, round: 4 },
    ]);
    reset_route_build_count();
    reset_route_repair_count();
    let report = GatherSession::new(&topo, RoutingStrategy::MinimumEnergy, &config)
        .run_faulted_with(10, &faults, &mut NullRecorder);
    assert_eq!(route_build_count(), 1, "round-0 build only");
    assert_eq!(
        route_repair_count(),
        2,
        "power-off at round 2; reboot + death folded into one repair at round 5"
    );
    assert!(report.delivered_packets > 0);
}
