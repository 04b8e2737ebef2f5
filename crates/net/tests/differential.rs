//! The differential-oracle layer pinning the city-scale fast paths to
//! their retired reference implementations:
//!
//! * spatial-grid CSR construction ≡ the all-pairs scan
//!   (`CsrAdjacency::build_scan`),
//! * heap Dijkstra ≡ the O(N²) linear-scan Dijkstra,
//! * masked routing ≡ the compact-subtopology rebuild,
//! * incremental route repair ≡ full rebuild per transition —
//!   tables, connectivity, transmit costs, whole-simulation reports,
//!   energy ledgers and rendered manifests, across random topologies ×
//!   random fault schedules, with failures delta-debugged down to a
//!   1-minimal schedule before reporting,
//! * **region-parallel lossy rounds ≡ the serial counter-RNG kernel** —
//!   the rollback-free lossy engine (`ami_net::pdes`) at 2 and 8
//!   threads must reproduce the serial ARQ run's report, ledger and
//!   rendered manifest across random fault schedules (the per-packet
//!   counter streams are what make this possible at all), again with
//!   ddmin minimization on failure.
//!
//! The lossy fixtures here sit far below the production
//! nodes-per-worker floor, so every parallel run force-engages the
//! region engine via `set_par_min_nodes_per_worker(Some(0))` — without
//! it the fallback would reduce these tests to serial ≡ serial.
//!
//! Everything here asserts *bit* equality (ids and float bits), not
//! approximate equality: the optimizations are only admissible because
//! they change nothing.

mod common;

use ami_net::routing::{
    reset_route_build_count, reset_route_repair_count, route_build_count, route_repair_count,
    set_route_repair_enabled, RouteCache,
};
use ami_net::{
    build_routes, build_routes_over, set_par_min_nodes_per_worker, CsrAdjacency, GatherSession,
    LossyConfig, LossyReport, LossySession, NetworkConfig, NetworkReport, NodeId, RoutingStrategy,
    Topology,
};
use ami_radio::RadioEnergyModel;
use ami_sim::fault::{FaultSchedule, FaultSpec};
use ami_sim::obs::{LedgerRecorder, NullRecorder, RunManifest};
use ami_units::{Energy, Length};
use common::oracle::{dijkstra_reference_scan, rebuild_over_usable};
use common::schedule::{fault_schedule, minimize_failing_schedule};
use proptest::prelude::*;

fn radio() -> RadioEnergyModel {
    RadioEnergyModel::short_range_2003()
}

/// Restores the thread-local repair toggle on drop, so a failing
/// assertion cannot leak oracle mode into later tests on the thread.
struct RepairMode(bool);

impl RepairMode {
    fn set(enabled: bool) -> Self {
        Self(set_route_repair_enabled(enabled))
    }
}

impl Drop for RepairMode {
    fn drop(&mut self) {
        set_route_repair_enabled(self.0);
    }
}

#[test]
fn grid_csr_build_matches_the_scan_oracle_bitwise() {
    // Random fields, an exact grid (equidistant ties), a degenerate
    // single-cell layout (all nodes coincident) — at tiny, typical and
    // effectively-unbounded ranges. `PartialEq` on `CsrAdjacency`
    // compares offsets, targets and raw distance floats.
    let mut layouts: Vec<Topology> = (0..6u64)
        .map(|seed| Topology::random(120, Length::from_meters(400.0), seed))
        .collect();
    layouts.push(Topology::grid(9, Length::from_meters(25.0)));
    layouts.push(Topology::new(vec![ami_net::Position::new(3.0, 4.0); 40]));
    for (k, topo) in layouts.iter().enumerate() {
        let positions: Vec<ami_net::Position> = topo.ids().map(|id| topo.position(id)).collect();
        for range_m in [0.5, 8.0, 25.0, 45.0, 120.0, 1e6] {
            let range = Length::from_meters(range_m);
            let grid = CsrAdjacency::build(&positions, range);
            let scan = CsrAdjacency::build_scan(&positions, range);
            assert_eq!(grid, scan, "layout {k} range {range_m}");
        }
    }
}

#[test]
fn heap_dijkstra_matches_the_reference_scan_exactly() {
    for seed in 0..20u64 {
        let topo = Topology::random(60, Length::from_meters(160.0), seed);
        for range_m in [30.0, 45.0, 70.0] {
            let range = Length::from_meters(range_m);
            let fast = build_routes(&topo, RoutingStrategy::MinimumEnergy, &radio(), range);
            let slow = dijkstra_reference_scan(&topo, &radio(), range);
            assert_eq!(fast, slow, "seed {seed} range {range_m}");
        }
    }
}

#[test]
fn masked_routing_matches_the_compact_rebuild_exactly() {
    // The id-order-preserving map between the compact topology and the
    // masked full topology must make the two approaches agree
    // bit-for-bit, whatever the usable mask.
    let config = NetworkConfig::sensor_default();
    for seed in 0..10u64 {
        let topo = Topology::random(40, Length::from_meters(130.0), seed);
        // A deterministic, seed-varied mask (sink always usable).
        let mut usable: Vec<bool> = (0..topo.len())
            .map(|id| id == 0 || !(id as u64).wrapping_mul(seed + 3).is_multiple_of(5))
            .collect();
        usable[0] = true;
        for strategy in [
            RoutingStrategy::DirectToSink,
            RoutingStrategy::MinimumEnergy,
        ] {
            let compact =
                rebuild_over_usable(&topo, strategy, &config.radio, config.max_hop, &usable);
            let masked = build_routes_over(&topo, strategy, &config.radio, config.max_hop, &usable);
            assert_eq!(masked, compact, "seed {seed} strategy {strategy}");
        }
    }
}

/// Drives a repair-enabled cache and an oracle (full-rebuild) cache
/// through `schedule`'s usable-set sequence with the simulators'
/// one-round lag, returning the first divergence as a message. Also
/// cross-checks both caches against a from-scratch `build_routes_over`
/// every round, so a bug shared by both cache paths cannot hide.
fn first_cache_divergence(
    topo: &Topology,
    schedule: &FaultSchedule,
    rounds: u64,
) -> Option<String> {
    let n = topo.len();
    let config = NetworkConfig::sensor_default();
    let bits = config.packet.total_bits();
    let mut repaired = RouteCache::new(n);
    let mut oracle = RouteCache::new(n);
    let mut usable = vec![true; n];
    let mut down_prev = vec![false; n];
    for round in 0..rounds {
        for (id, flag) in usable.iter_mut().enumerate() {
            *flag = id == 0 || !down_prev[id];
        }
        {
            let _mode = RepairMode::set(true);
            repaired.ensure(
                topo,
                RoutingStrategy::MinimumEnergy,
                &config.radio,
                config.max_hop,
                bits,
                &usable,
            );
        }
        {
            let _mode = RepairMode::set(false);
            oracle.ensure(
                topo,
                RoutingStrategy::MinimumEnergy,
                &config.radio,
                config.max_hop,
                bits,
                &usable,
            );
        }
        let fresh = build_routes_over(
            topo,
            RoutingStrategy::MinimumEnergy,
            &config.radio,
            config.max_hop,
            &usable,
        );
        if oracle.table() != fresh.as_slice() {
            return Some(format!("round {round}: oracle cache ≠ fresh build"));
        }
        for id in 0..n {
            let node = NodeId(id);
            if repaired.next_hop(node) != oracle.next_hop(node) {
                return Some(format!(
                    "round {round} node {id}: repaired next hop {:?} ≠ oracle {:?}",
                    repaired.next_hop(node),
                    oracle.next_hop(node)
                ));
            }
            if repaired.is_connected(node) != oracle.is_connected(node) {
                return Some(format!("round {round} node {id}: connectivity diverged"));
            }
            if repaired.tx_cost(node).to_bits() != oracle.tx_cost(node).to_bits() {
                return Some(format!("round {round} node {id}: tx cost bits diverged"));
            }
        }
        for (id, down) in down_prev.iter_mut().enumerate() {
            *down = id != 0 && schedule.node_down(id, round);
        }
    }
    // Both caches saw the same transitions; repairs replace builds
    // one-for-one.
    if repaired.builds() + repaired.repairs() != oracle.builds() {
        return Some(format!(
            "transition accounting diverged: {} builds + {} repairs ≠ {} oracle builds",
            repaired.builds(),
            repaired.repairs(),
            oracle.builds()
        ));
    }
    None
}

proptest! {
    /// Tentpole contract, table level: incremental repair must be
    /// bit-indistinguishable from a full rebuild on every round of every
    /// schedule. Failures are minimized to a 1-minimal schedule before
    /// panicking.
    #[test]
    fn incremental_repair_matches_full_rebuild_tables(
        seed in 0u64..120,
        schedule in fault_schedule(32, 30, 12),
    ) {
        let topo = Topology::random(32, Length::from_meters(120.0), seed);
        if let Some(message) = first_cache_divergence(&topo, &schedule, 30) {
            let minimized = minimize_failing_schedule(schedule.events(), |s| {
                first_cache_divergence(&topo, s, 30).is_some()
            });
            panic!(
                "repair ≠ rebuild (seed {seed}): {message}\nminimized schedule: {:?}",
                minimized.events()
            );
        }
    }
}

/// One faulted, observed gathering run with repair forced on or off,
/// plus its rendered manifest — the three artifacts the tentpole
/// promises are identical across the two paths.
fn observed_run(
    topo: &Topology,
    config: &NetworkConfig,
    schedule: &FaultSchedule,
    rounds: u64,
    repair: bool,
) -> (NetworkReport, LedgerRecorder, String) {
    let _mode = RepairMode::set(repair);
    let mut obs = LedgerRecorder::with_nodes(topo.len());
    let report = GatherSession::new(topo, RoutingStrategy::MinimumEnergy, config)
        .run_faulted_with(rounds, schedule, &mut obs);
    let manifest = RunManifest::new("differential")
        .field("rounds", &rounds)
        .field("report", &report)
        .ledger(&obs.ledger)
        .counters(&obs.packets.tree())
        .runner()
        .to_json();
    (report, obs, manifest)
}

proptest! {
    /// Tentpole contract, simulation level: a faulted gathering run —
    /// delivery counts, energy ledger, packet-counter tree, rendered
    /// manifest — is byte-identical whether transitions repair or
    /// rebuild. Endogenous budget deaths are provoked alongside the
    /// exogenous schedule so mixed usable-set diffs get exercised.
    #[test]
    fn faulted_gathering_is_identical_under_repair(
        seed in 0u64..40,
        schedule in fault_schedule(24, 25, 10),
    ) {
        let topo = Topology::random(24, Length::from_meters(110.0), seed);
        let mut config = NetworkConfig::sensor_default();
        // ~12 rounds of idle budget: energy deaths mid-run, on top of
        // the exogenous faults.
        config.node_energy = Energy::from_joules(0.015);
        let differs = |s: &FaultSchedule| {
            observed_run(&topo, &config, s, 25, true) != observed_run(&topo, &config, s, 25, false)
        };
        if differs(&schedule) {
            let minimized =
                minimize_failing_schedule(schedule.events(), |s| differs(s));
            let (report_r, _, manifest_r) = observed_run(&topo, &config, &minimized, 25, true);
            let (report_f, _, manifest_f) = observed_run(&topo, &config, &minimized, 25, false);
            panic!(
                "faulted run diverged under repair (seed {seed})\n\
                 minimized schedule: {:?}\nrepair report: {report_r:?}\n\
                 full report: {report_f:?}\nmanifests equal: {}",
                minimized.events(),
                manifest_r == manifest_f,
            );
        }
    }
}

/// One faulted, observed lossy/ARQ run at `threads` workers (1 = the
/// serial counter-RNG loop), plus its rendered manifest — the three
/// artifacts the lossy PDES contract pins.
fn lossy_observed_run(
    topo: &Topology,
    config: &LossyConfig,
    schedule: &FaultSchedule,
    rounds: u64,
    seed: u64,
    threads: usize,
) -> (LossyReport, LedgerRecorder, String) {
    let mut obs = LedgerRecorder::with_nodes(topo.len());
    let report =
        LossySession::new(topo, config).run_faulted_with(rounds, seed, schedule, threads, &mut obs);
    let manifest = RunManifest::new("differential-lossy")
        .field("rounds", &rounds)
        .field("report", &report)
        .ledger(&obs.ledger)
        .counters(&obs.packets.tree())
        .runner()
        .to_json();
    (report, obs, manifest)
}

proptest! {
    /// Lossy PDES contract: the rollback-free region-parallel ARQ
    /// engine at 2 and 8 threads is byte-identical to the serial
    /// counter-RNG kernel — report, ledger, rendered manifest — under
    /// random fault schedules (downed relays and links burning full
    /// ARQ budgets mid-route), with ddmin minimization on failure.
    #[test]
    fn region_parallel_lossy_rounds_match_the_serial_kernel(
        seed in 0u64..40,
        schedule in fault_schedule(24, 25, 10),
    ) {
        set_par_min_nodes_per_worker(Some(0));
        let topo = Topology::random(24, Length::from_meters(110.0), seed);
        let config = LossyConfig::bruised_channel();
        let diverges = |s: &FaultSchedule| {
            let serial = lossy_observed_run(&topo, &config, s, 25, seed, 1);
            [2usize, 8]
                .iter()
                .any(|&t| lossy_observed_run(&topo, &config, s, 25, seed, t) != serial)
        };
        if diverges(&schedule) {
            let minimized =
                minimize_failing_schedule(schedule.events(), |s| diverges(s));
            let serial = lossy_observed_run(&topo, &config, &minimized, 25, seed, 1);
            let par = lossy_observed_run(&topo, &config, &minimized, 25, seed, 8);
            panic!(
                "region-parallel lossy run diverged from serial (seed {seed})\n\
                 minimized schedule: {:?}\nserial report: {:?}\n\
                 parallel report: {:?}\nmanifests equal: {}",
                minimized.events(),
                serial.0,
                par.0,
                serial.2 == par.2,
            );
        }
    }
}

#[test]
fn region_parallel_lossy_matches_serial_at_n1600_under_the_bench_fault_mix() {
    // Acceptance-scale spot check for the lossy engine: one n=1600
    // faulted ARQ run, serial counter-RNG vs region-parallel at 2 and 8
    // threads, bit-identical reports, ledgers and manifests. (The
    // n=100k differential lives in `scale_smoke_lossy` behind
    // `--ignored`.)
    set_par_min_nodes_per_worker(Some(0));
    let n = 1600;
    let side = Length::from_meters(25.0 * (n as f64).sqrt());
    let spec = FaultSpec::parse("death=0.1,outage=0.2:10,link=0.1:8").expect("bench fault mix");
    let config = LossyConfig::bruised_channel();
    let topo = Topology::random(n, side, 2003);
    let faults = spec.schedule_for(2003, n, 30);
    let serial = lossy_observed_run(&topo, &config, &faults, 30, 2003, 1);
    assert!(
        serial.0.delivered > 0 && serial.0.delivered < serial.0.offered,
        "the bruised channel delivers imperfectly"
    );
    for threads in [2usize, 8] {
        let par = lossy_observed_run(&topo, &config, &faults, 30, 2003, threads);
        assert_eq!(par.0, serial.0, "report at {threads} threads");
        assert_eq!(par.1, serial.1, "ledger at {threads} threads");
        assert_eq!(par.2, serial.2, "manifest at {threads} threads");
    }
}

#[test]
fn faulted_replication_at_n1600_repairs_instead_of_rebuilding() {
    // Acceptance criterion: at n=1600 under the bench fault mix, every
    // replication performs exactly one full build (round 0) — all later
    // transitions are incremental repairs.
    let n = 1600;
    let side = Length::from_meters(25.0 * (n as f64).sqrt());
    let spec = FaultSpec::parse("death=0.1,outage=0.2:10,link=0.1:8").expect("bench fault mix");
    let config = NetworkConfig::sensor_default();
    let replications = 3u64;
    reset_route_build_count();
    reset_route_repair_count();
    let mut delivered = 0u64;
    for rep in 0..replications {
        let seed = 2003 + rep;
        let topo = Topology::random(n, side, seed);
        let faults = spec.schedule_for(seed, n, 30);
        let report = GatherSession::new(&topo, RoutingStrategy::MinimumEnergy, &config)
            .run_faulted_with(30, &faults, &mut NullRecorder);
        delivered += report.delivered_packets;
    }
    assert_eq!(
        route_build_count(),
        replications,
        "one full build per replication (round 0) and no more"
    );
    assert!(
        route_repair_count() >= replications,
        "fault transitions must be absorbed by repairs"
    );
    assert!(delivered > 0, "the faulted network still delivers");
}
