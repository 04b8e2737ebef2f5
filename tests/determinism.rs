//! Whole-toolkit determinism: identical seeds must reproduce identical
//! results across every stochastic subsystem, because EXPERIMENTS.md's
//! numbers are only meaningful if `cargo run` regenerates them bit-exact.

use ambience::arch::{ArchitectureClass, Processor};
use ambience::core::case_studies::cs1::{run_cs1, Cs1Config};
use ambience::core::case_studies::cs2::sweep_battery_life_threads;
use ambience::core::design_space::{explore_cs1_threads, DesignCell};
use ambience::dvs::{simulate_taskset, DvsPolicy, TaskSet};
use ambience::net::replicate_gathering_observed;
use ambience::net::{
    simulate_clustered, simulate_gathering, ClusterConfig, NetworkConfig, RoutingStrategy, Topology,
};
use ambience::radio::RadioEnergyModel;
use ambience::sim::fault::{FaultSchedule, FaultSpec};
use ambience::sim::{replicate, replication_seeds, summarize};
use ambience::tech::{TechnologyNode, VariationModel};
use ambience::units::{Area, Energy, Frequency, Length, Power, Temperature, TimeSpan};

#[test]
fn gathering_simulation_is_bit_exact() {
    let topo = Topology::random(25, Length::from_meters(100.0), 99);
    let config = NetworkConfig::sensor_default();
    let a = simulate_gathering(&topo, RoutingStrategy::MinimumEnergy, &config, 200);
    let b = simulate_gathering(&topo, RoutingStrategy::MinimumEnergy, &config, 200);
    assert_eq!(a, b);
}

#[test]
fn clustered_simulation_is_bit_exact() {
    let topo = Topology::grid(4, Length::from_meters(30.0));
    let radio = RadioEnergyModel::short_range_2003();
    let a = simulate_clustered(
        &topo,
        &radio,
        &ClusterConfig::classic(),
        Energy::from_joules(1.0),
        500,
        11,
    );
    let b = simulate_clustered(
        &topo,
        &radio,
        &ClusterConfig::classic(),
        Energy::from_joules(1.0),
        500,
        11,
    );
    assert_eq!(a, b);
}

#[test]
fn dvs_simulation_is_bit_exact() {
    let dsp = Processor::new("dsp", ArchitectureClass::Dsp, TechnologyNode::n130());
    let tasks = TaskSet::personal_audio();
    let a = simulate_taskset(
        &dsp,
        &tasks,
        DvsPolicy::Clairvoyant,
        TimeSpan::from_seconds(3.0),
        5,
    );
    let b = simulate_taskset(
        &dsp,
        &tasks,
        DvsPolicy::Clairvoyant,
        TimeSpan::from_seconds(3.0),
        5,
    );
    assert_eq!(a, b);
}

#[test]
fn cs1_run_is_deterministic() {
    let a = run_cs1(&Cs1Config::default());
    let b = run_cs1(&Cs1Config::default());
    assert_eq!(a.sustainability, b.sustainability);
    assert_eq!(a.budget.total(), b.budget.total());
}

#[test]
fn variation_yield_is_deterministic() {
    let model = VariationModel::typical_2003();
    let node = TechnologyNode::n90();
    let y = |seed| {
        model.parametric_yield(
            &node,
            50e3,
            Temperature::ROOM,
            Frequency::from_gigahertz(1.05),
            Power::from_milliwatts(5.0),
            1000,
            seed,
        )
    };
    assert_eq!(y(3), y(3));
    assert_ne!(y(3), y(4));
}

#[test]
fn monte_carlo_replication_is_deterministic() {
    let run = || {
        replicate(1, 50, 123, |seed| {
            let topo = Topology::random(10, Length::from_meters(60.0), seed);
            topo.radius().as_meters()
        })
    };
    assert_eq!(run(), run());
}

/// The seeded random-topology radius observable shared by the parallel
/// bit-exactness tests: stochastic in the seed, cheap to evaluate.
fn radius_observable(seed: u64) -> f64 {
    Topology::random(10, Length::from_meters(60.0), seed)
        .radius()
        .as_meters()
}

#[test]
fn parallel_replication_is_bit_exact_with_serial() {
    // The tentpole contract: replicate at any worker count folds the
    // identical ordered sample vector, so the full Summary struct — mean,
    // std_dev, min, max, every last rounding — matches `==` the serial
    // fold over the seed schedule.
    let values: Vec<f64> = replication_seeds(64, 123)
        .into_iter()
        .map(radius_observable)
        .collect();
    let serial = summarize(&values);
    for threads in [1usize, 2, 8] {
        let parallel = replicate(threads, 64, 123, radius_observable);
        assert_eq!(serial, parallel, "threads = {threads}");
    }
}

#[test]
fn parallel_battery_life_sweep_is_bit_exact_with_serial() {
    // F4's node×policy sweep fans one cell per (node, policy) pair and
    // merges in node-major order, so the table the binary prints cannot
    // depend on the worker count.
    let nodes = [TechnologyNode::n130(), TechnologyNode::n90()];
    let policies = [DvsPolicy::None, DvsPolicy::Clairvoyant];
    let serial = sweep_battery_life_threads(1, &nodes, &policies);
    assert_eq!(serial.len(), 4, "node-major grid of 2x2 cells");
    for threads in [2usize, 8] {
        let parallel = sweep_battery_life_threads(threads, &nodes, &policies);
        assert_eq!(serial, parallel, "threads = {threads}");
    }
}

#[test]
fn parallel_design_space_is_bit_exact_with_serial() {
    let base = Cs1Config::default();
    let areas: Vec<Area> = [2.0, 8.0, 16.0]
        .iter()
        .map(|&cm2| Area::from_square_centimeters(cm2))
        .collect();
    let intervals: Vec<TimeSpan> = [0.25, 2.0, 8.0]
        .iter()
        .map(|&s| TimeSpan::from_seconds(s))
        .collect();
    let serial = explore_cs1_threads(1, &base, &areas, &intervals);
    let key = |c: &DesignCell| {
        (
            c.pv_area,
            c.check_interval,
            c.load,
            c.harvest,
            c.sustainable,
        )
    };
    for threads in [2usize, 8] {
        let parallel = explore_cs1_threads(threads, &base, &areas, &intervals);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(key(s), key(p), "threads = {threads}");
        }
    }
}

#[test]
fn parallel_gathering_replication_is_bit_exact_with_serial() {
    let config = NetworkConfig::sensor_default();
    let field = |seed| Topology::random(15, Length::from_meters(90.0), seed);
    let reports = |threads| {
        replicate_gathering_observed(
            threads,
            12,
            7,
            field,
            |_| FaultSchedule::empty(),
            RoutingStrategy::MinimumEnergy,
            &config,
            50,
        )
        .0
    };
    let serial = reports(1);
    for threads in [2usize, 8] {
        assert_eq!(serial, reports(threads), "threads = {threads}");
    }
}

#[test]
fn observed_replication_ledger_is_bit_exact_across_thread_counts() {
    // The observability contract: the merged energy ledger and packet
    // counters fold per-replication recorders in seed order, so every
    // charge cell, residual and counter matches `==` at any worker count.
    let config = NetworkConfig::sensor_default();
    let field = |seed| Topology::random(15, Length::from_meters(90.0), seed);
    let (serial_reports, serial_obs) = replicate_gathering_observed(
        1,
        12,
        7,
        field,
        |_| FaultSchedule::empty(),
        RoutingStrategy::MinimumEnergy,
        &config,
        50,
    );
    for threads in [2usize, 8] {
        let (reports, obs) = replicate_gathering_observed(
            threads,
            12,
            7,
            field,
            |_| FaultSchedule::empty(),
            RoutingStrategy::MinimumEnergy,
            &config,
            50,
        );
        assert_eq!(serial_reports, reports, "threads = {threads}");
        assert_eq!(serial_obs, obs, "threads = {threads}");
    }
}

#[test]
fn f6_manifest_is_byte_identical_across_thread_counts() {
    // Manifests must not leak the worker count: the runner stanza records
    // the merge *policy*, and the ledger merges in seed order, so the
    // rendered JSON is the same byte string at 1, 2 and 8 threads.
    let at_one = ami_experiments::manifests::f6_manifest_threads(1).to_json();
    for threads in [2usize, 8] {
        let json = ami_experiments::manifests::f6_manifest_threads(threads).to_json();
        assert_eq!(at_one, json, "threads = {threads}");
    }
}

#[test]
fn faulted_replication_is_bit_exact_across_thread_counts() {
    // Fault injection must not weaken the determinism contract: a
    // FaultSpec schedule is a pure function of each replication's seed,
    // so faulted reports and the merged ledger/counters match `==` at
    // any worker count.
    let config = NetworkConfig::sensor_default();
    let field = |seed| Topology::random(15, Length::from_meters(90.0), seed);
    let spec = FaultSpec::parse("death=0.2,outage=0.3:10,link=0.2:8,seed=9").unwrap();
    let faults = |seed| spec.schedule_for(seed, 15, 50);
    let (serial_reports, serial_obs) = replicate_gathering_observed(
        1,
        12,
        7,
        field,
        faults,
        RoutingStrategy::MinimumEnergy,
        &config,
        50,
    );
    assert!(
        serial_obs.packets.dropped_fault > 0,
        "the fault mix must actually bite for this test to mean anything"
    );
    assert!(serial_obs.packets.is_conserved());
    for threads in [2usize, 8] {
        let (reports, obs) = replicate_gathering_observed(
            threads,
            12,
            7,
            field,
            faults,
            RoutingStrategy::MinimumEnergy,
            &config,
            50,
        );
        assert_eq!(serial_reports, reports, "threads = {threads}");
        assert_eq!(serial_obs, obs, "threads = {threads}");
    }
}

#[test]
fn f6_faulted_manifest_is_byte_identical_across_thread_counts() {
    let at_one = ami_experiments::manifests::f6_faulted_manifest_threads(1).to_json();
    assert!(at_one.contains("\"experiment\": \"F6-faulted\""));
    assert!(at_one.contains("\"fault\":"));
    for threads in [2usize, 8] {
        let json = ami_experiments::manifests::f6_faulted_manifest_threads(threads).to_json();
        assert_eq!(at_one, json, "threads = {threads}");
    }
}
