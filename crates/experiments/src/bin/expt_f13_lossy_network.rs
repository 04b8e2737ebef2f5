//! F13 — gathering over lossy links: end-to-end delivery and energy
//! versus channel quality and ARQ budget, at network scale.
//!
//! Expected shape: multi-hop paths compound per-hop loss, so end-to-end
//! delivery collapses faster than the single-link analysis (F8) suggests;
//! ARQ restores it at an energy cost that grows with BER. The per-hop
//! analytic prediction matches the Monte-Carlo network on single-hop
//! stars (cross-validated in tests).
//!
//! The grid, seed, rounds, channel and sweep axes load from the
//! checked-in `scenarios/f13_lossy_network.scenario.json` through the
//! scenario engine (override with `AMBIENCE_SCENARIO`); the output is
//! byte-identical to the former hard-coded constants.

use ami_experiments::manifests::{emit_when_requested, f13_faulted_manifest_with, f13_manifest};
use ami_experiments::{banner, print_table, section};
use ami_net::{simulate_lossy_gathering, LossyConfig, LossyReport, LossySession};
use ami_radio::StopAndWaitArq;
use ami_scenario::ScenarioSpec;
use ami_sim::fault::{FaultModel, FaultSpec, FAULTS_ENV};
use ami_sim::obs::NullRecorder;
use std::env::VarError;

const SCENARIO: &str = "crates/experiments/scenarios/f13_lossy_network.scenario.json";

/// Pulls a single-valued axis out of the scenario.
fn scalar_axis(scenario: &ScenarioSpec, name: &str) -> f64 {
    let values = scenario
        .axis(name)
        .unwrap_or_else(|| panic!("scenario is missing the {name} axis"));
    assert_eq!(values.len(), 1, "{name} must carry exactly one value");
    values[0]
}

/// The per-delivered-bit column: `-` when nothing got through.
fn per_bit_cell(report: &LossyReport, config: &LossyConfig) -> String {
    report
        .energy_per_delivered_bit(&config.packet)
        .map_or("-".to_owned(), |e| {
            format!("{:.2}", 1e6 * e.as_joules_per_bit())
        })
}

fn main() {
    // With AMBIENCE_FAULTS set, the manifest pins the faulted run (CI
    // freezes the F13_FAULT_SPEC mix as a golden file); unset, it pins
    // the plain one. The spec is read and parsed before anything runs,
    // so a malformed or non-UTF-8 value fails the run even when no
    // manifest is requested.
    let fault_spec = match std::env::var(FAULTS_ENV) {
        Ok(spec) => {
            FaultSpec::parse(&spec).unwrap_or_else(|err| panic!("bad {FAULTS_ENV}: {err}"));
            Some(spec)
        }
        Err(VarError::NotPresent) => None,
        Err(VarError::NotUnicode(raw)) => panic!("bad {FAULTS_ENV}: not UTF-8: {raw:?}"),
    };
    let scenario = ami_scenario::load_for_binary(SCENARIO).unwrap_or_else(|err| panic!("{err}"));
    let compiled =
        ami_scenario::CompiledScenario::compile(&scenario).unwrap_or_else(|err| panic!("{err}"));
    let topo = compiled
        .topology()
        .expect("F13 scenario pins its grid")
        .clone();
    let rounds = scenario.rounds;
    let seed = scenario.seed;

    banner("F13", "lossy-link gathering: delivery vs BER and ARQ");
    println!(
        "[runner: {} worker thread(s)]",
        ami_sim::runner::thread_count()
    );

    section("5x5 grid, 4-attempt ARQ: channel quality sweep");
    let bers = scenario.axis("ber").expect("scenario carries a ber axis");
    let rows = ami_sim::runner::par_map_indexed(bers, |_, &ber| {
        let mut config = LossyConfig::bruised_channel();
        config.ber = ber;
        let report = simulate_lossy_gathering(&topo, &config, rounds, seed);
        vec![
            format!("{ber:.0e}"),
            format!("{:.1}%", 100.0 * report.delivery_ratio()),
            format!("{:.2}", report.tx_per_packet()),
            format!("{:.2}", report.total_energy.as_joules()),
            per_bit_cell(&report, &config),
        ]
    });
    print_table(
        &["BER", "delivered", "tx/packet", "energy (J)", "uJ/bit"],
        &rows,
    );

    section("BER 3e-3: how much ARQ is enough?");
    let arq_ber = scalar_axis(&scenario, "arq_sweep_ber");
    let budgets = scenario
        .axis_usize("arq_budget")
        .expect("integral arq_budget axis");
    let rows = ami_sim::runner::par_map_indexed(&budgets, |_, &budget| {
        let mut config = LossyConfig::bruised_channel();
        config.ber = arq_ber;
        config.arq = StopAndWaitArq::new(budget as u32);
        let report = simulate_lossy_gathering(&topo, &config, rounds, seed);
        vec![
            budget.to_string(),
            format!("{:.1}%", 100.0 * report.delivery_ratio()),
            format!("{:.2}", report.total_energy.as_joules()),
            per_bit_cell(&report, &config),
        ]
    });
    print_table(
        &["max tx per hop", "delivered", "energy (J)", "uJ/bit"],
        &rows,
    );

    section("resilience: exogenous node churn on the bruised channel");
    // Node death plus transient outages layered on the BER-1e-3 grid:
    // routing re-resolves around downed relays, so delivery degrades
    // with the churn instead of collapsing, and fault losses are
    // attributed separately from channel losses.
    let outage_rounds = scalar_axis(&scenario, "churn_outage_rounds") as u64;
    let churn = scenario
        .axis("churn_rate")
        .expect("scenario carries a churn_rate axis");
    let rows = ami_sim::runner::par_map_indexed(churn, |_, &rate| {
        let config = compiled
            .lossy_config()
            .expect("lossy scenarios compile a LossyConfig")
            .clone();
        let model = FaultModel {
            death_rate: rate,
            outage_rate: rate,
            outage_rounds,
            ..FaultModel::none()
        };
        let faults = model.schedule(seed, topo.len(), rounds);
        let report = LossySession::new(&topo, &config).run_faulted_with(
            rounds,
            seed,
            &faults,
            &mut NullRecorder,
        );
        vec![
            format!("{:.0}%", 100.0 * rate),
            report.offered.to_string(),
            format!("{:.1}%", 100.0 * report.delivery_ratio()),
            report.dropped_fault.to_string(),
            format!("{:.2}", report.total_energy.as_joules()),
            per_bit_cell(&report, &config),
        ]
    });
    print_table(
        &[
            "churn rate",
            "offered",
            "delivered",
            "fault drops",
            "energy (J)",
            "uJ/bit",
        ],
        &rows,
    );

    section("reading");
    println!("multi-hop compounds loss: what is 'fine' on one link fails the");
    println!("network. Per-hop ARQ restores delivery with energy that tracks");
    println!("the F8 expected-transmission curve — the link and network views");
    println!("of reliability agree. Under exogenous churn, rerouting keeps the");
    println!("network degrading gracefully; set AMBIENCE_FAULTS to rerun the");
    println!("manifest under any fault mix.");

    match fault_spec {
        Some(spec) => emit_when_requested(|| f13_faulted_manifest_with(&spec)),
        None => emit_when_requested(f13_manifest),
    }
}
