//! The reproduction contract: every figure/table of EXPERIMENTS.md has its
//! headline *shape* asserted here, so `cargo test` guards the scientific
//! conclusions, not just the code.

use ambience::arch::{converter::FOM_2003, Adc, ArchitectureClass, Processor};
use ambience::core::case_studies::cs1::{run_cs1, sweep_check_interval, sweep_storage, Cs1Config};
use ambience::core::case_studies::cs2::{run_cs2, Cs2Config};
use ambience::core::case_studies::cs3::{best_format, Cs3Config};
use ambience::core::class_characteristics;
use ambience::dvs::DvsPolicy;
use ambience::energy::{Battery, BatteryModel, Chemistry};
use ambience::net::{simulate_gathering, NetworkConfig, RoutingStrategy, Topology};
use ambience::power::{portfolio_2003, PowerClass};
use ambience::radio::{
    CsmaMac, MacProtocol, PreambleSamplingMac, RadioPowerStates, TdmaMac, TrafficLoad,
};
use ambience::tech::{intrinsic_efficiency, DesignPoint, LeakageModel, Roadmap};
use ambience::units::{Capacitance, Energy, Frequency, Length, Power, Temperature, TimeSpan};

/// F1: the three classes are populated and decades apart.
#[test]
fn f1_classes_are_decades_apart() {
    let graph = portfolio_2003();
    let max_power = |class: PowerClass| {
        graph
            .in_class(class)
            .iter()
            .map(|p| p.power().as_watts())
            .fold(0.0, f64::max)
    };
    assert!(max_power(PowerClass::MicroWatt) < 1e-3);
    assert!(max_power(PowerClass::MilliWatt) < 1.0);
    assert!(max_power(PowerClass::Watt) >= 1.0);
}

/// T1: compute capability per class spans MOPS → 100 GOPS.
#[test]
fn t1_capability_ladder() {
    let rows = class_characteristics();
    assert!(rows[0].compute_capability.as_mops() >= 1.0);
    assert!(rows[2].compute_capability.as_gops() >= 100.0);
}

/// F2: ICE improves ≥8x across the roadmap; the CPU/ASIC gap stays 2–3
/// decades at every node.
#[test]
fn f2_scaling_and_flexibility_gap() {
    let roadmap = Roadmap::full_2003();
    let first = roadmap.nodes().first().unwrap();
    let last = roadmap.nodes().last().unwrap();
    let gain = intrinsic_efficiency(last, last.vdd_nominal()).as_ops_per_joule()
        / intrinsic_efficiency(first, first.vdd_nominal()).as_ops_per_joule();
    assert!(gain > 8.0, "roadmap ICE gain {gain:.1}");
    for node in roadmap.nodes() {
        let asic = Processor::new("a", ArchitectureClass::Asic, node.clone());
        let cpu = Processor::new("c", ArchitectureClass::Cpu, node.clone());
        let gap = cpu.energy_per_op_nominal().as_joules_per_op()
            / asic.energy_per_op_nominal().as_joules_per_op();
        assert!((100.0..=1000.0).contains(&gap), "{}: {gap:.0}", node.name());
    }
}

/// F3: the sustainable region exists and opens below ~1% effective duty.
#[test]
fn f3_sustainable_region() {
    let base = Cs1Config::default();
    let rows = sweep_check_interval(
        &base,
        &[
            TimeSpan::from_millis(20.0),
            TimeSpan::from_seconds(2.0),
            TimeSpan::from_seconds(8.0),
        ],
    );
    assert!(!rows[0].3 && rows[1].3 && rows[2].3);
    // The default operating point is µW-class with positive margin.
    let result = run_cs1(&base);
    assert!(result.budget.total().as_microwatts() < 100.0);
    assert!(result.mac.effective_duty < 0.01);
}

/// T2: the analog front-end dominates the CS2 budget at every node.
#[test]
fn t2_analog_floor() {
    for node in Roadmap::full_2003().nodes() {
        let result = run_cs2(&Cs2Config {
            node: node.clone(),
            ..Cs2Config::default()
        });
        assert_eq!(
            result.budget.dominant().unwrap().name,
            "RF tuner",
            "at {}",
            node.name()
        );
    }
}

/// F4: policy ordering none ≥ static ≥ stretch ≥ oracle on DSP energy,
/// and the 65 nm leakage pushback (DSP power rises again vs 130 nm).
#[test]
fn f4_dvs_ordering_and_leakage_pushback() {
    let at = |node, policy| {
        run_cs2(&Cs2Config {
            node,
            policy,
            ..Cs2Config::default()
        })
        .dsp
        .average_power()
        .as_watts()
    };
    use ambience::tech::TechnologyNode;
    let none = at(TechnologyNode::n130(), DvsPolicy::None);
    let stat = at(TechnologyNode::n130(), DvsPolicy::UtilizationStatic);
    let oracle = at(TechnologyNode::n130(), DvsPolicy::Clairvoyant);
    assert!(none > stat && stat >= oracle);
    let p130 = at(TechnologyNode::n130(), DvsPolicy::WorstCaseStretch);
    let p65 = at(TechnologyNode::n65(), DvsPolicy::WorstCaseStretch);
    assert!(
        p65 > p130,
        "65 nm leakage must push DSP power back up: {p65} vs {p130}"
    );
}

/// F5: ASIC sustains SD in the ceiling; CPU does not; a programmable
/// class crosses over in between.
#[test]
fn f5_crossover() {
    use ambience::arch::kernel::VideoFormat;
    let config = Cs3Config::default();
    assert_eq!(
        best_format(&config, ArchitectureClass::Asic),
        Some(VideoFormat::Sd)
    );
    assert_ne!(
        best_format(&config, ArchitectureClass::Cpu),
        Some(VideoFormat::Sd)
    );
    let dsp = best_format(&config, ArchitectureClass::Dsp);
    assert!(dsp.is_some() && dsp != Some(VideoFormat::Sd));
}

/// F6: multi-hop beats direct beyond the radio crossover and the saving
/// grows with network radius.
#[test]
fn f6_multihop_saving_grows() {
    let mut config = NetworkConfig::sensor_default();
    config.node_energy = Energy::from_joules(50.0);
    // Zero the (routing-independent) idle baseline to expose the
    // communication-energy difference the crossover is about.
    config.idle_power = Power::ZERO;
    let saving = |side: usize| {
        let topo = Topology::grid(side, Length::from_meters(30.0));
        let direct = simulate_gathering(&topo, RoutingStrategy::DirectToSink, &config, 200);
        let multi = simulate_gathering(&topo, RoutingStrategy::MinimumEnergy, &config, 200);
        direct.total_energy.as_joules() / multi.total_energy.as_joules()
    };
    let small = saving(3);
    let large = saving(6);
    assert!(
        large > small,
        "saving must grow with radius: {large:.2} vs {small:.2}"
    );
    assert!(large > 1.2);
}

/// T3: CSMA is milliwatts; duty-cycled MACs are 2+ orders below it.
#[test]
fn t3_mac_orders_of_magnitude() {
    let radio = RadioPowerStates::sensor_default();
    let traffic = TrafficLoad::periodic_report(TimeSpan::from_minutes(5.0));
    let csma = CsmaMac.analyze(&radio, &traffic).average_power;
    let tdma = TdmaMac::new(TimeSpan::from_seconds(1.0))
        .analyze(&radio, &traffic)
        .average_power;
    let lpl = PreambleSamplingMac::new(TimeSpan::from_seconds(1.0))
        .analyze(&radio, &traffic)
        .average_power;
    assert!(csma.as_milliwatts() > 10.0);
    assert!(csma.as_watts() / tdma.as_watts() > 100.0);
    assert!(csma.as_watts() / lpl.as_watts() > 100.0);
}

/// F7: the FoM law spans the nW→W range across the resolution/rate grid.
#[test]
fn f7_adc_spans_classes() {
    let sensor = Adc::new(12.0, Frequency::from_hertz(100.0), FOM_2003);
    let wlan = Adc::new(8.0, Frequency::from_megahertz(100.0), FOM_2003);
    assert_eq!(PowerClass::of(sensor.power()), PowerClass::MicroWatt);
    assert!(wlan.power().as_milliwatts() > 10.0);
}

/// A1: disabling leakage flips the scaled-node conclusion for ambient
/// (low-activity) workloads.
#[test]
fn a1_leakage_flips_conclusion() {
    let ambient = DesignPoint::new(
        500e3,
        0.005,
        Frequency::from_megahertz(2.0),
        Temperature::ROOM,
    );
    let with = Roadmap::full_2003().project(&ambient);
    let without = Roadmap::new(
        Roadmap::full_2003()
            .nodes()
            .iter()
            .cloned()
            .map(|n| n.with_leakage_model(LeakageModel::Off))
            .collect(),
    )
    .project(&ambient);
    // Without leakage, 65 nm is the best node; with it, it is the worst.
    let best_without = without
        .iter()
        .min_by(|a, b| a.total().total_cmp(&b.total()))
        .unwrap();
    let best_with = with
        .iter()
        .min_by(|a, b| a.total().total_cmp(&b.total()))
        .unwrap();
    assert_eq!(best_without.node, "65nm");
    assert_ne!(best_with.node, "65nm");
    assert!(with[4].leakage_fraction() > 0.5);
}

/// A2: battery models agree below the rated current, diverge above it.
#[test]
fn a2_battery_model_divergence() {
    let light = Power::from_milliwatts(30.0); // 20 mA on AA, below 50 mA rating
    let heavy = Power::from_watts(1.5); // 1 A, 20x the rating
    let life = |model, load| {
        Battery::new(Chemistry::AlkalineAa, model)
            .lifetime_under(load)
            .as_hours()
    };
    let light_spread = life(BatteryModel::Peukert, light) / life(BatteryModel::Linear, light);
    let heavy_spread = life(BatteryModel::Peukert, heavy) / life(BatteryModel::Linear, heavy);
    assert!(heavy_spread < 0.5, "Peukert must punish 1 A draws");
    assert!(
        light_spread > 0.9,
        "models should broadly agree at light loads (got {light_spread:.2})"
    );
}

/// A3: the outage curve has a knee — undersized buffers starve nightly,
/// adequately sized ones never do.
#[test]
fn a3_storage_knee() {
    let rows = sweep_storage(
        &Cs1Config::default(),
        &[
            Capacitance::from_millifarads(10.0),
            Capacitance::from_millifarads(2000.0),
        ],
    );
    assert!(rows[0].1 > 0.1);
    assert_eq!(rows[1].1, 0.0);
}

/// F15: the city-scale machinery — the spatial-grid CSR reproduces the
/// all-pairs scan bit for bit, and under the frozen churn mix every
/// transition after round 0 is an incremental repair whose run is
/// report-identical to the retired full-rebuild oracle.
#[test]
fn f15_city_scale_repairs_match_the_oracle() {
    use ambience::net::routing::{
        reset_route_build_count, reset_route_repair_count, route_build_count, route_repair_count,
        set_route_repair_enabled,
    };
    use ambience::net::{CsrAdjacency, GatherSession};
    use ambience::sim::fault::FaultSpec;
    use ambience::sim::obs::NullRecorder;

    let n = 400;
    let topo = Topology::random(n, Length::from_meters(25.0 * (n as f64).sqrt()), 2003);
    let config = NetworkConfig::sensor_default();

    let positions: Vec<_> = topo.ids().map(|id| topo.position(id)).collect();
    assert_eq!(
        CsrAdjacency::build(&positions, config.max_hop),
        CsrAdjacency::build_scan(&positions, config.max_hop),
        "grid CSR must equal the scan oracle"
    );

    let faults = FaultSpec::parse("death=0.1,outage=0.2:10,link=0.1:8")
        .unwrap()
        .schedule_for(2003, n, 30);
    let was_enabled = set_route_repair_enabled(false);
    let oracle = GatherSession::new(&topo, RoutingStrategy::MinimumEnergy, &config)
        .run_faulted_with(30, &faults, &mut NullRecorder);
    set_route_repair_enabled(true);
    reset_route_build_count();
    reset_route_repair_count();
    let repaired = GatherSession::new(&topo, RoutingStrategy::MinimumEnergy, &config)
        .run_faulted_with(30, &faults, &mut NullRecorder);
    set_route_repair_enabled(was_enabled);
    assert_eq!(repaired, oracle, "repairs must not change the physics");
    assert_eq!(route_build_count(), 1, "only the round-0 build is full");
    assert!(
        route_repair_count() > 0,
        "the churn mix must exercise repair"
    );
}
