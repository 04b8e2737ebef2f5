//! F6 — network scaling: delivered information, energy per bit and
//! lifetime versus node count; single-hop versus multi-hop crossover.
//!
//! Expected shape: on spread-out fields, multi-hop routing delivers the
//! same information for less energy; the advantage grows with field size
//! (nodes beyond the ~45 m radio crossover). Lifetime is bottlenecked by
//! the relays around the sink.

use ami_experiments::manifests::{emit_when_requested, f6_manifest};
use ami_experiments::{banner, print_table, section};
use ami_net::{
    replicate_gathering_observed, simulate_gathering, summarize_reports, NetworkConfig,
    RoutingStrategy, Topology,
};
use ami_scenario::TopologySpec;
use ami_sim::fault::{FaultSchedule, FaultSpec};
use ami_sim::obs::EnergyCategory;
use ami_sim::runner::thread_count;
use ami_units::{Energy, Length};

const SCENARIO: &str = "crates/experiments/scenarios/f6_network_scaling.scenario.json";

/// Pulls a single-valued axis out of the scenario.
fn scalar_axis(scenario: &ami_scenario::ScenarioSpec, name: &str) -> f64 {
    let values = scenario
        .axis(name)
        .unwrap_or_else(|| panic!("scenario is missing the {name} axis"));
    assert_eq!(values.len(), 1, "{name} must carry exactly one value");
    values[0]
}

fn main() {
    let scenario = ami_scenario::load_for_binary(SCENARIO).unwrap_or_else(|err| panic!("{err}"));
    let TopologySpec::Random { nodes, field_m } = *scenario
        .topology
        .as_ref()
        .expect("F6 scenario has a topology")
    else {
        panic!("F6 needs a random-field topology");
    };
    let fault_mix = scenario
        .faults
        .clone()
        .expect("F6 scenario carries a fault mix");

    banner("F6", "network scaling and the multi-hop crossover");
    println!("[runner: {} worker thread(s)]", thread_count());
    let config = scenario.network.to_network_config();
    let rounds = scenario.rounds;
    let base_seed = scenario.seed;
    let replications = scenario.replications as usize;

    section("grid networks of growing side (30 m spacing, 500 rounds)");
    let spacing = Length::from_meters(scalar_axis(&scenario, "grid_spacing_m"));
    let sides = scenario
        .axis_usize("grid_side")
        .expect("integral grid_side axis");
    let rows = ami_sim::runner::par_map_indexed(&sides, |_, &side| {
        let topo = Topology::grid(side, spacing);
        let direct = simulate_gathering(&topo, RoutingStrategy::DirectToSink, &config, rounds);
        let multi = simulate_gathering(&topo, RoutingStrategy::MinimumEnergy, &config, rounds);
        vec![
            format!("{}x{}", side, side),
            format!("{:.0}", topo.radius().as_meters()),
            format!("{:.2}", direct.total_energy.as_joules()),
            format!("{:.2}", multi.total_energy.as_joules()),
            format!(
                "{:.2}x",
                direct.total_energy.as_joules() / multi.total_energy.as_joules()
            ),
            format!("{}", multi.delivered_packets),
        ]
    });
    print_table(
        &[
            "grid",
            "radius (m)",
            "direct (J)",
            "multi-hop (J)",
            "saving",
            "delivered",
        ],
        &rows,
    );

    section("lifetime to first node death (tiny 0.5 J budgets, 1-min rounds)");
    let mut tiny = NetworkConfig::sensor_default();
    tiny.node_energy = Energy::from_joules(scalar_axis(&scenario, "tiny_node_energy_j"));
    let tiny_rounds = scalar_axis(&scenario, "tiny_rounds") as u64;
    let tiny_sides = scenario
        .axis_usize("tiny_grid_side")
        .expect("integral tiny_grid_side axis");
    let rows = ami_sim::runner::par_map_indexed(&tiny_sides, |_, &side| {
        let topo = Topology::grid(side, spacing);
        let direct = simulate_gathering(&topo, RoutingStrategy::DirectToSink, &tiny, tiny_rounds);
        let multi = simulate_gathering(&topo, RoutingStrategy::MinimumEnergy, &tiny, tiny_rounds);
        let show = |r: &ami_net::NetworkReport| {
            r.lifetime(tiny.report_interval)
                .map_or("(survives)".to_owned(), |t| {
                    format!("{:.1} h", t.as_hours())
                })
        };
        vec![format!("{}x{}", side, side), show(&direct), show(&multi)]
    });
    print_table(&["grid", "direct lifetime", "multi-hop lifetime"], &rows);

    section("random fields: multi-hop saving with 95% CI over 32 topologies");
    // A 400 m square (sink at center) puts most nodes well past the
    // ~45 m single-hop crossover, so the saving is visible.
    let field = Length::from_meters(field_m);
    let n_nodes = nodes as usize;
    let observe = |strategy| {
        replicate_gathering_observed(
            thread_count(),
            replications,
            base_seed,
            |seed| Topology::random(n_nodes, field, seed),
            |_| FaultSchedule::empty(),
            strategy,
            &config,
            rounds,
        )
    };
    let (direct, _) = observe(RoutingStrategy::DirectToSink);
    let (multi, obs) = observe(RoutingStrategy::MinimumEnergy);
    let direct_energy = summarize_reports(&direct, |r| r.total_energy.as_joules());
    let multi_energy = summarize_reports(&multi, |r| r.total_energy.as_joules());
    let savings: Vec<f64> = direct
        .iter()
        .zip(&multi)
        .map(|(d, m)| d.total_energy.as_joules() / m.total_energy.as_joules())
        .collect();
    let saving = ami_sim::summarize(&savings);
    println!(
        "direct    {:.2} +/- {:.2} J   multi-hop {:.2} +/- {:.2} J",
        direct_energy.mean,
        direct_energy.ci95_half_width(),
        multi_energy.mean,
        multi_energy.ci95_half_width()
    );
    println!(
        "saving    {:.2}x +/- {:.2}x  (range {:.2}x..{:.2}x, {} random 40-node fields)",
        saving.mean,
        saving.ci95_half_width(),
        saving.min,
        saving.max,
        saving.n
    );

    // Per-bit delivery cost through the Option API: fields whose sink is
    // cut off simply have no per-bit cost, rather than poisoning the mean.
    let per_bit: Vec<f64> = multi
        .iter()
        .filter_map(|r| r.energy_per_delivered_bit())
        .map(|e| e.as_joules_per_bit())
        .collect();
    println!(
        "per-bit   {:.1} uJ/bit mean over {} delivering fields ({} delivered nothing)",
        1e6 * per_bit.iter().sum::<f64>() / per_bit.len() as f64,
        per_bit.len(),
        multi.len() - per_bit.len()
    );

    section("multi-hop energy ledger (32 fields merged)");
    for category in EnergyCategory::ALL {
        println!(
            "{:>8}  {:>8.2} J  {:>5.1}%",
            category.label(),
            obs.ledger.category_total(category).as_joules(),
            100.0 * obs.ledger.fraction(category)
        );
    }
    println!(
        "packets: {} offered, {} delivered, {} dropped on dead hops, {} disconnected",
        obs.packets.offered,
        obs.packets.delivered,
        obs.packets.dropped_dead_hop,
        obs.packets.dropped_disconnected
    );

    section(&format!(
        "resilience: the same 32 fields under faults ({fault_mix})"
    ));
    // Each replication's seed derives both its topology and its fault
    // schedule, so the comparison is paired: same fields, with and
    // without exogenous churn.
    let spec = FaultSpec::parse(&fault_mix).expect("frozen spec parses");
    let (faulted, fobs) = replicate_gathering_observed(
        thread_count(),
        replications,
        base_seed,
        |seed| Topology::random(n_nodes, field, seed),
        |seed| spec.schedule_for(seed, n_nodes, rounds),
        RoutingStrategy::MinimumEnergy,
        &config,
        rounds,
    );
    let baseline_delivered = summarize_reports(&multi, |r| r.delivered_packets as f64);
    let faulted_delivered = summarize_reports(&faulted, |r| r.delivered_packets as f64);
    let faulted_energy = summarize_reports(&faulted, |r| r.total_energy.as_joules());
    let rows = vec![
        vec![
            "healthy".to_owned(),
            format!(
                "{:.0} +/- {:.0}",
                baseline_delivered.mean,
                baseline_delivered.ci95_half_width()
            ),
            format!(
                "{:.2} +/- {:.2}",
                multi_energy.mean,
                multi_energy.ci95_half_width()
            ),
            obs.packets.dropped_fault.to_string(),
        ],
        vec![
            "faulted".to_owned(),
            format!(
                "{:.0} +/- {:.0}",
                faulted_delivered.mean,
                faulted_delivered.ci95_half_width()
            ),
            format!(
                "{:.2} +/- {:.2}",
                faulted_energy.mean,
                faulted_energy.ci95_half_width()
            ),
            fobs.packets.dropped_fault.to_string(),
        ],
    ];
    print_table(
        &["fields", "delivered/field", "energy (J)", "fault drops"],
        &rows,
    );
    println!(
        "faulted packets: {} offered, {} delivered, {} dead-hop, {} disconnected, {} fault",
        fobs.packets.offered,
        fobs.packets.delivered,
        fobs.packets.dropped_dead_hop,
        fobs.packets.dropped_disconnected,
        fobs.packets.dropped_fault
    );

    section("reading");
    println!("multi-hop wins once the field radius passes the ~45 m radio");
    println!("crossover, and the advantage grows with scale; the relays next");
    println!("to the sink are the lifetime bottleneck (the energy hole).");
    println!("Under exogenous churn the delivered volume drops but the network");
    println!("keeps operating: rerouting contains each fault's blast radius.");

    emit_when_requested(f6_manifest);
}
