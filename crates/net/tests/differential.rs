//! The differential-oracle layer pinning the city-scale fast paths to
//! their retired reference implementations:
//!
//! * spatial-grid CSR construction ≡ the all-pairs scan
//!   (`CsrAdjacency::build_scan`, laid out in the same cell order), the
//!   cell-ordered graph read back through its order ≡ an all-pairs
//!   distance scan in id space, and the topology's cached per-edge hop
//!   weights ≡ the radio model priced per hop,
//! * heap Dijkstra ≡ the O(N²) linear-scan Dijkstra,
//! * masked routing ≡ the compact-subtopology rebuild,
//! * incremental route repair ≡ full rebuild per transition —
//!   tables, connectivity, transmit costs, whole-simulation reports,
//!   energy ledgers and rendered manifests, across random topologies ×
//!   random fault schedules, with failures delta-debugged down to a
//!   1-minimal schedule before reporting,
//! * **the lossy session ≡ an id-order reference round** built on the
//!   public API alone (`common::oracle::lossy_reference_run`): the
//!   session walks each round in heavy-path image order, the reference
//!   walks it by node id — across channels from BER 0 to 0.5 and ARQ
//!   budgets from 0 to 40 attempts, fault-free and faulted, again with
//!   ddmin minimization on failure.
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
    build_routes, CsrAdjacency, GatherSession, LossyConfig, LossyReport, LossySession,
    NetworkConfig, NetworkReport, NodeId, Position, RoutingStrategy, Topology,
};
use ami_radio::RadioEnergyModel;
use ami_sim::fault::{FaultSchedule, FaultSpec};
use ami_sim::obs::{LedgerRecorder, NullRecorder, RunManifest};
use ami_units::{Energy, Length};
use common::oracle::{dijkstra_reference_scan, lossy_reference_run, rebuild_over_usable};
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
    // single-cell layout (all nodes coincident, so every hop has zero
    // length) — at tiny, typical and effectively-unbounded ranges.
    // `PartialEq` on `CsrAdjacency` compares the order, offsets and
    // targets; the topology's weight column must hold, edge for edge
    // (rows read through the order), the radio model's price of that
    // hop, bit for bit.
    let mut layouts: Vec<Topology> = (0..6u64)
        .map(|seed| Topology::random(120, Length::from_meters(400.0), seed))
        .collect();
    layouts.push(Topology::grid(9, Length::from_meters(25.0)));
    layouts.push(Topology::new(vec![Position::new(3.0, 4.0); 40]));
    let radio = radio();
    for (k, topo) in layouts.iter().enumerate() {
        let positions: Vec<Position> = topo.ids().map(|id| topo.position(id)).collect();
        for range_m in [0.5, 8.0, 25.0, 45.0, 120.0, 1e6] {
            let range = Length::from_meters(range_m);
            let grid = CsrAdjacency::build(&positions, range);
            let scan = CsrAdjacency::build_scan(&positions, range);
            assert_eq!(grid, scan, "layout {k} range {range_m}");

            let weights = topo.hop_weights(range, &radio);
            let weights = weights.joules_per_bit();
            assert_eq!(
                weights.len(),
                scan.edge_count(),
                "layout {k} range {range_m}"
            );
            let order = scan.order();
            for (l, &u) in order.iter().enumerate() {
                let u = NodeId(u as usize);
                let row = scan.row(l);
                for (&m, &weight) in scan.targets()[row.clone()].iter().zip(&weights[row]) {
                    let v = NodeId(order[m as usize] as usize);
                    let priced = radio.hop_energy_per_bit(topo.distance(u, v));
                    assert_eq!(
                        weight.to_bits(),
                        priced.as_joules_per_bit().to_bits(),
                        "layout {k} range {range_m} hop {u}->{v}"
                    );
                }
            }
        }
    }
}

/// A field for the CSR property: `shape` 0 is uniform random at the
/// benchmarks' density, 1 all coincident, 2 collinear on a sloped
/// line, and 3 a one- or two-node field.
fn csr_field(shape: u8, n: usize, seed: u64) -> Vec<Position> {
    use rand::RngExt;
    let mut rng = ami_sim::sim_rng(seed);
    let side = 25.0 * (n as f64).sqrt();
    let mut point = || Position::new(rng.random_range(0.0..side), rng.random_range(0.0..side));
    match shape {
        0 => (0..n).map(|_| point()).collect(),
        1 => vec![Position::new(3.0, 4.0); n],
        2 => (0..n)
            .map(|_| {
                let x = point().x;
                Position::new(x, 0.5 * x)
            })
            .collect(),
        _ => (0..1 + n % 2).map(|_| point()).collect(),
    }
}

proptest! {
    /// The cell-ordered graph, read back in id space, is the all-pairs
    /// graph: its order is a permutation of the ids; each node's
    /// neighbour ids are exactly the nodes within range of it; each
    /// edge's cached weight is bitwise the radio's price of that hop;
    /// and the routes built on it are the reference scan Dijkstra's —
    /// over random, coincident, collinear, one- and two-node fields, at
    /// zero, tiny, typical and unbounded ranges.
    #[test]
    fn csr_graph_read_through_its_order_is_the_all_pairs_graph(
        seed in 0u64..10_000,
        n in 2usize..70,
        shape in 0u8..4,
        range_pick in 0usize..4,
    ) {
        let positions = csr_field(shape, n, seed);
        let range = Length::from_meters([0.0, 1e-9, 45.0, f64::MAX][range_pick]);
        let csr = CsrAdjacency::build(&positions, range);
        let order = csr.order();
        prop_assert_eq!(order.len(), positions.len());
        let mut seen = vec![false; positions.len()];
        for &id in order {
            prop_assert!(!seen[id as usize], "id {} placed twice", id);
            seen[id as usize] = true;
        }
        for (l, &u) in order.iter().enumerate() {
            let pu = positions[u as usize];
            let mut got: Vec<usize> = csr.targets()[csr.row(l)]
                .iter()
                .map(|&m| order[m as usize] as usize)
                .collect();
            got.sort_unstable();
            let want: Vec<usize> = (0..positions.len())
                .filter(|&v| v != u as usize && pu.distance_to(&positions[v]) <= range)
                .collect();
            prop_assert_eq!(got, want, "neighbours of {}", u);
        }
        if positions.len() < 2 {
            return; // no topology has fewer than two nodes
        }

        let topo = Topology::new(positions);
        prop_assert_eq!(&*topo.csr_within(range), &csr);
        let weights = topo.hop_weights(range, &radio());
        for (l, &u) in order.iter().enumerate() {
            let row = csr.row(l);
            for (&m, &weight) in csr.targets()[row.clone()].iter().zip(&weights.joules_per_bit()[row]) {
                let (u, v) = (NodeId(u as usize), NodeId(order[m as usize] as usize));
                let priced = radio().hop_energy_per_bit(topo.distance(u, v));
                prop_assert_eq!(weight.to_bits(), priced.as_joules_per_bit().to_bits(), "hop {}->{}", u, v);
            }
        }
        prop_assert_eq!(
            build_routes(&topo, RoutingStrategy::MinimumEnergy, &radio(), range),
            dijkstra_reference_scan(&topo, &radio(), range)
        );
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
            let mut cache = RouteCache::new(
                &topo,
                strategy,
                &config.radio,
                config.max_hop,
                config.packet.total_bits(),
            );
            cache.ensure(&usable);
            let masked: Vec<_> = topo.ids().map(|id| cache.next_hop(id)).collect();
            assert_eq!(masked, compact, "seed {seed} strategy {strategy}");
        }
    }
}

/// Drives a repair-enabled cache and an oracle (full-rebuild) cache
/// through `schedule`'s usable-set sequence with the simulators'
/// one-round lag, returning the first divergence as a message. Also
/// cross-checks both caches against the compact rebuild
/// (`rebuild_over_usable`) every round, so a bug shared by both cache
/// paths cannot hide.
fn first_cache_divergence(
    topo: &Topology,
    schedule: &FaultSchedule,
    rounds: u64,
) -> Option<String> {
    let n = topo.len();
    let config = NetworkConfig::sensor_default();
    let cache = || {
        RouteCache::new(
            topo,
            RoutingStrategy::MinimumEnergy,
            &config.radio,
            config.max_hop,
            config.packet.total_bits(),
        )
    };
    let (mut repaired, mut oracle) = (cache(), cache());
    let mut usable = vec![true; n];
    let mut down_prev = vec![false; n];
    for round in 0..rounds {
        for (id, flag) in usable.iter_mut().enumerate() {
            *flag = id == 0 || !down_prev[id];
        }
        {
            let _mode = RepairMode::set(true);
            repaired.ensure(&usable);
        }
        {
            let _mode = RepairMode::set(false);
            oracle.ensure(&usable);
        }
        let fresh = rebuild_over_usable(
            topo,
            RoutingStrategy::MinimumEnergy,
            &config.radio,
            config.max_hop,
            &usable,
        );
        if topo.ids().any(|id| oracle.next_hop(id) != fresh[id.0]) {
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

/// One faulted lossy/ARQ run on a fresh session, with a ledger.
fn lossy_observed_run(
    topo: &Topology,
    config: &LossyConfig,
    schedule: &FaultSchedule,
    rounds: u64,
    seed: u64,
) -> (LossyReport, LedgerRecorder) {
    let mut obs = LedgerRecorder::with_nodes(topo.len());
    let report = LossySession::new(topo, config).run_faulted_with(rounds, seed, schedule, &mut obs);
    (report, obs)
}

/// The channels the lossy reference differential draws from: BERs from
/// a clean channel to a hopeless one, and ARQ budgets from none (a
/// packet offered but never sent) to 40 attempts.
const DIFFERENTIAL_BERS: [f64; 5] = [0.0, 1e-4, 1e-3, 1e-2, 0.5];
const DIFFERENTIAL_BUDGETS: [u32; 5] = [0, 1, 4, 8, 40];

proptest! {
    /// The lossy walk pinned to something independent of it: the
    /// session must match the id-order reference round — report and
    /// ledger — on random fields under random channels, fault-free and
    /// under a random fault schedule, with ddmin minimization of a
    /// faulted failure. The budget is set through the public field, so
    /// it reaches zero, which `StopAndWaitArq::new` refuses; the
    /// reference keeps the float success test the walk's integer test
    /// replaces.
    #[test]
    fn lossy_session_matches_the_id_order_reference_round(
        seed in 0u64..40,
        schedule in fault_schedule(40, 25, 12),
        ber in 0usize..DIFFERENTIAL_BERS.len(),
        budget in 0usize..DIFFERENTIAL_BUDGETS.len(),
    ) {
        let topo = Topology::random(40, Length::from_meters(150.0), seed);
        let mut config = LossyConfig::bruised_channel();
        config.ber = DIFFERENTIAL_BERS[ber];
        config.arq.max_transmissions = DIFFERENTIAL_BUDGETS[budget];
        let channel = format!("BER {}, {} attempts", config.ber, config.arq.max_transmissions);
        let reference = |s: &FaultSchedule| {
            let mut obs = LedgerRecorder::with_nodes(topo.len());
            let report = lossy_reference_run(&topo, &config, 25, seed, s, &mut obs);
            (report, obs)
        };
        let diverges =
            |s: &FaultSchedule| lossy_observed_run(&topo, &config, s, 25, seed) != reference(s);
        let fault_free = FaultSchedule::empty();
        if diverges(&fault_free) {
            let (want, _) = reference(&fault_free);
            let (session, _) = lossy_observed_run(&topo, &config, &fault_free, 25, seed);
            panic!(
                "fault-free lossy session diverged from the id-order reference \
                 (seed {seed}, {channel})\nreference report: {want:?}\n\
                 session report: {session:?}",
            );
        }
        if diverges(&schedule) {
            let minimized =
                minimize_failing_schedule(schedule.events(), |s| diverges(s));
            let (want, _) = reference(&minimized);
            let (session, _) = lossy_observed_run(&topo, &config, &minimized, 25, seed);
            panic!(
                "lossy session diverged from the id-order reference (seed {seed}, {channel})\n\
                 minimized schedule: {:?}\nreference report: {want:?}\n\
                 session report: {session:?}",
                minimized.events(),
            );
        }
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
