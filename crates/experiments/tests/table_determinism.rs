//! The sweep-heavy experiment tables must not depend on the worker
//! count: every builder in `ami_experiments::tables` partitions its
//! work by seed or by grid cell and merges in fixed order, so the rows
//! it renders are byte-identical at 1, 2 and 8 threads — and identical
//! to the serial constructions the binaries used before the sweeps
//! were parallelised.

use ami_arch::ArchitectureClass;
use ami_core::case_studies::cs3::{best_format, Cs3Config};
use ami_experiments::tables::{
    a6_joint_yield_rows, a6_leakage_spread_rows_threads, f11_clustering_rows_threads,
    f5_best_format_lines_threads,
};
use ami_sim::{replication_seeds, sim_rng, summarize};
use ami_tech::{Roadmap, TechnologyNode, VariationModel};
use ami_units::{Frequency, Power, Temperature};

#[test]
fn a6_leakage_rows_are_thread_invariant_and_match_serial_replicate() {
    let one = a6_leakage_spread_rows_threads(1);
    let two = a6_leakage_spread_rows_threads(2);
    let eight = a6_leakage_spread_rows_threads(8);
    assert_eq!(one, two, "A6 leakage table differs between 1 and 2 threads");
    assert_eq!(
        one, eight,
        "A6 leakage table differs between 1 and 8 threads"
    );

    // The serial fold over the seed schedule, independent of the
    // runner.
    let model = VariationModel::typical_2003();
    let serial: Vec<Vec<String>> = Roadmap::full_2003()
        .nodes()
        .iter()
        .map(|node| {
            let leakage: Vec<f64> = replication_seeds(2000, 42)
                .into_iter()
                .map(|seed| {
                    let mut rng = sim_rng(seed);
                    model
                        .sample_die(node, 100e3, Temperature::ROOM, &mut rng)
                        .leakage
                        .as_watts()
                })
                .collect();
            let summary = summarize(&leakage);
            vec![
                node.name().to_owned(),
                format!("{:.3e}", summary.mean),
                format!("{:.3e}", summary.max),
                format!("{:.1}x", summary.max / summary.min.max(1e-30)),
                format!("{:.2}", summary.cv()),
            ]
        })
        .collect();
    assert_eq!(one, serial, "parallel A6 rows differ from the serial fold");
}

#[test]
fn a6_joint_yield_rows_match_solo_yield_calls() {
    let rows = a6_joint_yield_rows();
    // One solo parametric_yield call per constraint, each re-sampling
    // the same seed-7 population — the construction the shared-die
    // `parametric_yield_many` replaced.
    let model = VariationModel::typical_2003();
    let node = TechnologyNode::n90();
    let pairs = [
        (0.9, 100.0),
        (1.0, 100.0),
        (1.05, 10.0),
        (1.1, 5.0),
        (1.15, 5.0),
    ];
    let solo: Vec<Vec<String>> = pairs
        .iter()
        .map(|&(f_ghz, p_mw)| {
            let y = model.parametric_yield(
                &node,
                100e3,
                Temperature::ROOM,
                Frequency::from_gigahertz(f_ghz),
                Power::from_milliwatts(p_mw),
                4000,
                7,
            );
            vec![
                format!("{f_ghz:.2} GHz"),
                format!("{p_mw:.0} mW"),
                format!("{:.1}%", 100.0 * y),
            ]
        })
        .collect();
    assert_eq!(
        rows, solo,
        "shared-population yields differ from solo calls"
    );
}

#[test]
fn f11_clustering_rows_are_thread_invariant() {
    let one = f11_clustering_rows_threads(1);
    let two = f11_clustering_rows_threads(2);
    let eight = f11_clustering_rows_threads(8);
    assert_eq!(one, two, "F11 table differs between 1 and 2 threads");
    assert_eq!(one, eight, "F11 table differs between 1 and 8 threads");
    assert_eq!(one.len(), 3, "F11 covers the 4x4, 5x5 and 6x6 grids");
}

#[test]
fn f5_format_lines_are_thread_invariant_and_match_serial_loop() {
    let config = Cs3Config::default();
    let one = f5_best_format_lines_threads(1, &config);
    let two = f5_best_format_lines_threads(2, &config);
    let eight = f5_best_format_lines_threads(8, &config);
    assert_eq!(one, two, "F5 listing differs between 1 and 2 threads");
    assert_eq!(one, eight, "F5 listing differs between 1 and 8 threads");

    let serial: Vec<String> = ArchitectureClass::all()
        .iter()
        .map(|&class| {
            format!(
                "{:<5}  {}",
                class.to_string(),
                best_format(&config, class).map_or("none".to_owned(), |f| f.to_string())
            )
        })
        .collect();
    assert_eq!(one, serial, "parallel F5 lines differ from serial loop");
}
