//! Shared row builders for the sweep-heavy experiment binaries.
//!
//! The hot sweeps of A6 (Monte-Carlo leakage spread, joint yield), F11
//! (grid-family clustering comparison) and F5 (per-class sustainable
//! formats) live here rather than inside their `src/bin/` mains, so
//! that (a) the binaries print exactly what the determinism suite
//! checks — `tests/table_determinism.rs` asserts every builder renders
//! byte-identical rows at 1, 2 and 8 worker threads — and (b) the
//! parallel fan-out is written once. Each builder merges its cells in
//! fixed grid order, so thread count can never reorder a table.

use ami_arch::ArchitectureClass;
use ami_core::case_studies::cs3::{best_format, Cs3Config};
use ami_net::{
    simulate_clustered, simulate_gathering, ClusterConfig, NetworkConfig, RoutingStrategy, Topology,
};
use ami_radio::RadioEnergyModel;
use ami_sim::{par_map_indexed_threads, replicate, sim_rng};
use ami_tech::{Roadmap, TechnologyNode, VariationModel};
use ami_units::{Energy, Frequency, Length, Power, Temperature};

/// A6, table 1: per-node leakage spread over 2000 Monte-Carlo dies
/// (σ(Vth) = 20 mV), replicated across `threads` workers with the seed
/// schedule (base 42) merged in seed order — bit-exact with the serial
/// loop at any worker count.
pub fn a6_leakage_spread_rows_threads(threads: usize) -> Vec<Vec<String>> {
    let model = VariationModel::typical_2003();
    let gates = 100e3;
    let temp = Temperature::ROOM;
    let mut rows = Vec::new();
    for node in Roadmap::full_2003().nodes() {
        let summary = replicate(threads, 2000, 42, |seed| {
            let mut rng = sim_rng(seed);
            model
                .sample_die(node, gates, temp, &mut rng)
                .leakage
                .as_watts()
        });
        rows.push(vec![
            node.name().to_owned(),
            format!("{:.3e}", summary.mean),
            format!("{:.3e}", summary.max),
            format!("{:.1}x", summary.max / summary.min.max(1e-30)),
            format!("{:.2}", summary.cv()),
        ]);
    }
    rows
}

/// A6, table 2: joint speed×power yield at 90 nm. The five constraint
/// pairs share one 4000-die population (`parametric_yield_many`), so
/// the dies are sampled once instead of once per row — bit-identical
/// yields, a fifth of the Monte-Carlo work.
pub fn a6_joint_yield_rows() -> Vec<Vec<String>> {
    let model = VariationModel::typical_2003();
    let node = TechnologyNode::n90();
    let pairs = [
        (0.9, 100.0),
        (1.0, 100.0),
        (1.05, 10.0),
        (1.1, 5.0),
        (1.15, 5.0),
    ];
    let constraints: Vec<(Frequency, Power)> = pairs
        .iter()
        .map(|&(f_ghz, p_mw)| {
            (
                Frequency::from_gigahertz(f_ghz),
                Power::from_milliwatts(p_mw),
            )
        })
        .collect();
    let yields =
        model.parametric_yield_many(&node, 100e3, Temperature::ROOM, &constraints, 4000, 7);
    pairs
        .iter()
        .zip(&yields)
        .map(|(&(f_ghz, p_mw), &y)| {
            vec![
                format!("{f_ghz:.2} GHz"),
                format!("{p_mw:.0} mW"),
                format!("{:.1}%", 100.0 * y),
            ]
        })
        .collect()
}

/// F11's grid family: each side length is one independent cell (its own
/// topologies and seeded cluster runs), fanned across `threads` workers
/// and merged back in side order.
pub fn f11_clustering_rows_threads(threads: usize) -> Vec<Vec<String>> {
    let sides = [4usize, 5, 6];
    par_map_indexed_threads(threads, &sides, |_, &side| {
        let radio = RadioEnergyModel::short_range_2003();
        let budget = Energy::from_joules(2.0);
        let rounds = 30_000;
        let topo = Topology::grid(side, Length::from_meters(30.0));

        let mut tree_config = NetworkConfig::sensor_default();
        tree_config.idle_power = Power::ZERO; // isolate radio energy
        tree_config.node_energy = budget;
        let tree = simulate_gathering(&topo, RoutingStrategy::MinimumEnergy, &tree_config, rounds);
        let clustered = simulate_clustered(
            &topo,
            &radio,
            &ClusterConfig::classic(),
            budget,
            rounds,
            2003,
        );

        // Balance is measured early, while everyone is still alive.
        let early_rounds = 2000;
        let tree_early = simulate_gathering(
            &topo,
            RoutingStrategy::MinimumEnergy,
            &tree_config,
            early_rounds,
        );
        let clustered_early = simulate_clustered(
            &topo,
            &radio,
            &ClusterConfig::classic(),
            budget,
            early_rounds,
            2003,
        );
        let cv_of = |residual: &[Energy]| {
            let v: Vec<f64> = residual.iter().map(|e| e.as_joules()).collect();
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            (v.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / v.len() as f64).sqrt()
                / mean.max(1e-12)
        };

        let fmt_death = |r: Option<u64>| r.map_or("-".to_owned(), |v| v.to_string());
        vec![
            format!("{side}x{side}"),
            fmt_death(tree.first_death_round),
            format!("{:.3}", cv_of(&tree_early.residual_energy)),
            fmt_death(clustered.first_death_round),
            format!("{:.3}", cv_of(&clustered_early.residual_energy)),
        ]
    })
}

/// F5's per-class sweep: the highest sustainable video format for every
/// architecture class of `config`, one class per cell, merged in class
/// order.
pub fn f5_best_format_lines_threads(threads: usize, config: &Cs3Config) -> Vec<String> {
    let classes = ArchitectureClass::all();
    par_map_indexed_threads(threads, &classes, |_, &class| {
        format!(
            "{:<5}  {}",
            class.to_string(),
            best_format(config, class).map_or("none".to_owned(), |f| f.to_string())
        )
    })
}
