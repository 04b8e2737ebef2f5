//! Run manifests for the experiment harnesses.
//!
//! Each builder regenerates one experiment's headline computation and
//! pins it down as a deterministic JSON manifest: the configuration, the
//! seeds, the runner policy, the energy ledger and the counter tree.
//! Binaries emit them through [`emit_when_requested`], gated on the
//! `AMBIENCE_MANIFEST` environment variable (unset → skip the work
//! entirely, `-` → stdout, a path → written there), so the default
//! harness output is untouched.
//!
//! Manifests are byte-identical at any `AMBIENCE_THREADS` — replication
//! ledgers merge in seed order — which `tests/determinism.rs` enforces
//! and `golden/f3_manifest.json` and `golden/f6_manifest.json` freeze
//! for CI.

use ami_core::case_studies::cs1::{cs1_energy_ledger, sweep_check_interval, Cs1Config};
use ami_net::{
    replicate_gathering_observed, LossyConfig, LossySession, NetworkConfig, RoutingStrategy,
    Topology,
};
use ami_radio::{
    CsmaMac, MacAnalysis, MacProtocol, PreambleSamplingMac, RadioPowerStates, TdmaMac, TrafficLoad,
};
use ami_sim::fault::{FaultSchedule, FaultSpec};
use ami_sim::obs::{CounterTree, NullRecorder, RunManifest, MANIFEST_ENV};
use ami_units::{Energy, Length, TimeSpan};

/// The fault mix the F13 resilience study (and its golden manifest)
/// runs under: 12 % scheduled node deaths, 20 % transient outages of 40
/// rounds, 15 % link outages of 30 rounds. CI regenerates
/// `golden/f13_faulted_manifest.json` with `AMBIENCE_FAULTS` set to
/// exactly this string.
pub const F13_FAULT_SPEC: &str = "death=0.12,outage=0.2:40,link=0.15:30";

/// The fault mix of the F6 resilience columns: lighter node churn plus
/// capacity fade, over the replicated random fields.
pub const F6_FAULT_SPEC: &str = "death=0.08,outage=0.15:60,fade=0.25:0.5";

/// Builds and emits `build()`'s manifest if `AMBIENCE_MANIFEST` is set:
/// `-` sends it to stdout, any other value names the file to write.
/// When the variable is unset the builder never runs.
///
/// # Panics
///
/// Panics if the manifest file cannot be written.
pub fn emit_when_requested(build: impl FnOnce() -> RunManifest) {
    let Some(target) = std::env::var_os(MANIFEST_ENV) else {
        return;
    };
    let json = build().to_json();
    if target == "-" {
        print!("{json}");
    } else {
        std::fs::write(&target, &json)
            .unwrap_or_else(|err| panic!("cannot write manifest to {target:?}: {err}"));
        eprintln!("[manifest written to {}]", target.to_string_lossy());
    }
}

/// F3 (CS1 duty cycle): the default node's budget as a 3-day energy
/// ledger — the "radio checks take ~82 % of the budget" split — plus the
/// sustainability outcome of the check-interval sweep as counters.
pub fn f3_manifest() -> RunManifest {
    let config = Cs1Config::default();
    let span = TimeSpan::from_days(3.0);
    let ledger = cs1_energy_ledger(&config, span);
    let intervals: Vec<TimeSpan> = [0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
        .iter()
        .map(|&s| TimeSpan::from_seconds(s))
        .collect();
    let rows = sweep_check_interval(&config, &intervals);
    let sustainable = rows.iter().filter(|(_, _, _, ok)| *ok).count() as u64;
    let counters = CounterTree::branch([(
        "sweep",
        CounterTree::branch([
            ("intervals", CounterTree::leaf(rows.len() as u64)),
            ("sustainable", CounterTree::leaf(sustainable)),
        ]),
    )]);
    RunManifest::new("F3")
        .field("config", &config)
        .field("span_days", &span.as_days())
        .runner()
        .ledger(&ledger)
        .counters(&counters)
}

/// F6 (network scaling), random-field section: 32 seeded 40-node fields,
/// minimum-energy gathering, with the merged replication ledger and
/// packet counters. `threads` pins the worker count (the manifest is
/// bit-identical whatever you pass).
pub fn f6_manifest_threads(threads: usize) -> RunManifest {
    let mut config = NetworkConfig::sensor_default();
    config.node_energy = Energy::from_joules(20.0);
    let (replications, base_seed, rounds) = (32usize, 2003u64, 500u64);
    let nodes = 40usize;
    let field = Length::from_meters(400.0);
    let (reports, obs) = replicate_gathering_observed(
        threads,
        replications,
        base_seed,
        |seed| Topology::random(nodes, field, seed),
        |_| FaultSchedule::empty(),
        RoutingStrategy::MinimumEnergy,
        &config,
        rounds,
    );
    let delivered: u64 = reports.iter().map(|r| r.delivered_packets).sum();
    debug_assert_eq!(delivered, obs.packets.delivered);
    RunManifest::new("F6")
        .field("config", &config)
        .field("strategy", &RoutingStrategy::MinimumEnergy)
        .field("nodes", &(nodes as u64))
        .field("field_m", &field.as_meters())
        .field("replications", &(replications as u64))
        .field("base_seed", &base_seed)
        .field("rounds", &rounds)
        .runner()
        .ledger(&obs.ledger)
        .counters(&obs.packets.tree())
}

/// [`f6_manifest_threads`] at the ambient thread count.
pub fn f6_manifest() -> RunManifest {
    f6_manifest_threads(ami_sim::runner::thread_count())
}

/// F13 (lossy gathering): the bruised-channel grid run, with the packet
/// outcome as a counter tree and the per-delivered-bit energy through
/// the `Option` API (null when the channel starves the sink).
pub fn f13_manifest() -> RunManifest {
    let topo = Topology::grid(5, Length::from_meters(30.0));
    let config = LossyConfig::bruised_channel();
    let (rounds, seed) = (300u64, 2003u64);
    let report = ami_net::simulate_lossy_gathering(&topo, &config, rounds, seed);
    let counters = CounterTree::branch([
        (
            "packets",
            CounterTree::branch([
                ("offered", CounterTree::leaf(report.offered)),
                ("delivered", CounterTree::leaf(report.delivered)),
                (
                    "dropped",
                    CounterTree::leaf(report.offered - report.delivered),
                ),
            ]),
        ),
        ("transmissions", CounterTree::leaf(report.transmissions)),
    ]);
    RunManifest::new("F13")
        .field("config", &config)
        .field("grid_side", &5u64)
        .field("seed", &seed)
        .field("rounds", &rounds)
        .runner()
        .field("total_energy_j", &report.total_energy)
        .field(
            "energy_per_delivered_bit",
            &report.energy_per_delivered_bit(&config.packet),
        )
        .counters(&counters)
}

/// [`f13_manifest`]'s run under the fault mix in `spec` (an
/// `AMBIENCE_FAULTS` grammar string): the same bruised-channel grid with
/// a seeded [`FaultSpec`] schedule layered on, so the counters grow a
/// `dropped/fault` attribution next to the channel losses.
///
/// # Panics
///
/// Panics if `spec` does not parse.
pub fn f13_faulted_manifest_with(spec: &str) -> RunManifest {
    let spec = FaultSpec::parse(spec).unwrap_or_else(|err| panic!("invalid fault spec: {err}"));
    let topo = Topology::grid(5, Length::from_meters(30.0));
    let config = LossyConfig::bruised_channel();
    let (rounds, seed) = (300u64, 2003u64);
    let faults = spec.schedule_for(seed, topo.len(), rounds);
    let report = LossySession::new(&topo, &config).run_faulted_with(
        rounds,
        seed,
        &faults,
        &mut NullRecorder,
    );
    let channel_losses = report.offered - report.delivered - report.dropped_fault;
    let counters = CounterTree::branch([
        (
            "packets",
            CounterTree::branch([
                ("offered", CounterTree::leaf(report.offered)),
                ("delivered", CounterTree::leaf(report.delivered)),
                (
                    "dropped",
                    CounterTree::branch([
                        ("channel", CounterTree::leaf(channel_losses)),
                        ("fault", CounterTree::leaf(report.dropped_fault)),
                    ]),
                ),
            ]),
        ),
        (
            "fault_events",
            CounterTree::leaf(faults.events().len() as u64),
        ),
        ("transmissions", CounterTree::leaf(report.transmissions)),
    ]);
    RunManifest::new("F13-faulted")
        .field("config", &config)
        .field("grid_side", &5u64)
        .field("seed", &seed)
        .field("rounds", &rounds)
        .field("fault_model", &spec.model)
        .field("fault_seed", &spec.seed)
        .runner()
        .field("total_energy_j", &report.total_energy)
        .field(
            "energy_per_delivered_bit",
            &report.energy_per_delivered_bit(&config.packet),
        )
        .counters(&counters)
}

/// [`f13_faulted_manifest_with`] under the frozen [`F13_FAULT_SPEC`] mix
/// — the manifest CI diffs against `golden/f13_faulted_manifest.json`.
pub fn f13_faulted_manifest() -> RunManifest {
    f13_faulted_manifest_with(F13_FAULT_SPEC)
}

/// [`f6_manifest_threads`]'s random-field study under the
/// [`F6_FAULT_SPEC`] mix: each replication's seed derives both its
/// topology and its decorrelated fault schedule, and the merged ledger
/// and counters stay bit-identical at any `threads`.
pub fn f6_faulted_manifest_threads(threads: usize) -> RunManifest {
    let spec =
        FaultSpec::parse(F6_FAULT_SPEC).unwrap_or_else(|err| panic!("invalid fault spec: {err}"));
    let mut config = NetworkConfig::sensor_default();
    config.node_energy = Energy::from_joules(20.0);
    let (replications, base_seed, rounds) = (32usize, 2003u64, 500u64);
    let nodes = 40usize;
    let field = Length::from_meters(400.0);
    let (reports, obs) = replicate_gathering_observed(
        threads,
        replications,
        base_seed,
        |seed| Topology::random(nodes, field, seed),
        |seed| spec.schedule_for(seed, nodes, rounds),
        RoutingStrategy::MinimumEnergy,
        &config,
        rounds,
    );
    let delivered: u64 = reports.iter().map(|r| r.delivered_packets).sum();
    debug_assert_eq!(delivered, obs.packets.delivered);
    RunManifest::new("F6-faulted")
        .field("config", &config)
        .field("strategy", &RoutingStrategy::MinimumEnergy)
        .field("nodes", &(nodes as u64))
        .field("field_m", &field.as_meters())
        .field("replications", &(replications as u64))
        .field("base_seed", &base_seed)
        .field("rounds", &rounds)
        .field("fault_model", &spec.model)
        .field("fault_seed", &spec.seed)
        .runner()
        .ledger(&obs.ledger)
        .counters(&obs.packets.tree())
}

/// [`f6_faulted_manifest_threads`] at the ambient thread count.
pub fn f6_faulted_manifest() -> RunManifest {
    f6_faulted_manifest_threads(ami_sim::runner::thread_count())
}

/// T3 (MAC comparison): the analytic MAC table for both traffic regimes
/// — no simulation, but the same manifest contract as the sweeps.
pub fn t3_manifest() -> RunManifest {
    let radio = RadioPowerStates::sensor_default();
    let table = |traffic: &TrafficLoad| -> Vec<(String, MacAnalysis)> {
        vec![
            ("csma".to_owned(), CsmaMac.analyze(&radio, traffic)),
            (
                "tdma_1s".to_owned(),
                TdmaMac::new(TimeSpan::from_seconds(1.0)).analyze(&radio, traffic),
            ),
            (
                "lpl_500ms".to_owned(),
                PreambleSamplingMac::new(TimeSpan::from_millis(500.0)).analyze(&radio, traffic),
            ),
            (
                "lpl_2s".to_owned(),
                PreambleSamplingMac::new(TimeSpan::from_seconds(2.0)).analyze(&radio, traffic),
            ),
        ]
    };
    let light = table(&TrafficLoad::periodic_report(TimeSpan::from_minutes(5.0)));
    let chatty = table(&TrafficLoad::periodic_report(TimeSpan::from_seconds(10.0)));
    RunManifest::new("T3")
        .field("radio", &radio)
        .runner()
        .field("light_traffic", &light)
        .field("chatty_traffic", &chatty)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f3_manifest_carries_the_ledger_split() {
        let json = f3_manifest().to_json();
        assert!(json.contains("\"experiment\": \"F3\""));
        assert!(json.contains("\"idle\":"));
        assert!(json.contains("\"sweep\":{\"intervals\":9"));
    }

    #[test]
    fn f13_manifest_reports_per_bit_cost() {
        let json = f13_manifest().to_json();
        assert!(json.contains("\"experiment\": \"F13\""));
        assert!(json.contains("\"energy_per_delivered_bit\": "));
        assert!(json.contains("\"transmissions\":"));
    }

    #[test]
    fn t3_manifest_lists_both_regimes() {
        let json = t3_manifest().to_json();
        assert!(json.contains("\"light_traffic\": [[\"csma\","));
        assert!(json.contains("\"chatty_traffic\": "));
        assert!(json.contains("\"lpl_2s\""));
    }
}
