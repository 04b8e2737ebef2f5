//! The scenario-driven experiment binaries must reproduce their
//! pre-migration stdout byte for byte, and the checked-in
//! `.scenario.json` files must stay pinned to the frozen constants the
//! manifests in `ami_experiments::manifests` still hard-code. Together
//! these two directions prove the migration moved the *source* of the
//! numbers without moving the numbers.
//!
//! The full F6 and F15 runs take tens of seconds in a debug build, so
//! their golden checks are `#[ignore]`d here and run in release by CI
//! (`cargo test -p ami-experiments --release -- --ignored`).

use std::path::{Path, PathBuf};
use std::process::Command;

use ami_experiments::manifests::F6_FAULT_SPEC;
use ami_net::{LossyConfig, NetworkConfig};
use ami_scenario::{CompiledScenario, ScenarioSpec, TopologySpec, WorkloadSpec};
use ami_units::Energy;

fn crate_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn scenario_path(file: &str) -> PathBuf {
    crate_dir().join("scenarios").join(file)
}

fn load_scenario(file: &str) -> ScenarioSpec {
    ScenarioSpec::load(scenario_path(file)).expect("checked-in scenario loads")
}

/// Runs `exe` exactly as the golden capture did — one worker thread, no
/// manifest/fault/scenario overrides inherited from the test runner —
/// and compares its stdout byte for byte against `golden/<name>`.
fn assert_stdout_matches_golden(exe: &str, golden: &str) {
    let output = Command::new(exe)
        .env("AMBIENCE_THREADS", "1")
        .env_remove("AMBIENCE_FAULTS")
        .env_remove("AMBIENCE_MANIFEST")
        .env_remove("AMBIENCE_SCENARIO")
        .output()
        .expect("experiment binary runs");
    assert!(
        output.status.success(),
        "{exe} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let want =
        std::fs::read(crate_dir().join("golden").join(golden)).expect("golden stdout file exists");
    assert!(
        output.stdout == want,
        "{exe} stdout drifted from golden/{golden}; regenerate the golden \
         only if the drift is intended"
    );
}

#[test]
fn f3_stdout_matches_golden() {
    assert_stdout_matches_golden(
        env!("CARGO_BIN_EXE_expt_f3_cs1_duty_cycle"),
        "f3_cs1_duty_cycle.stdout.txt",
    );
}

#[test]
fn f13_stdout_matches_golden() {
    assert_stdout_matches_golden(
        env!("CARGO_BIN_EXE_expt_f13_lossy_network"),
        "f13_lossy_network.stdout.txt",
    );
}

#[test]
#[ignore = "tens of seconds in debug; CI runs it in release with --ignored"]
fn f6_stdout_matches_golden() {
    assert_stdout_matches_golden(
        env!("CARGO_BIN_EXE_expt_f6_network_scaling"),
        "f6_network_scaling.stdout.txt",
    );
}

#[test]
#[ignore = "tens of seconds in debug; CI runs it in release with --ignored"]
fn f15_stdout_matches_golden() {
    assert_stdout_matches_golden(
        env!("CARGO_BIN_EXE_expt_f15_city_scale"),
        "f15_city_scale.stdout.txt",
    );
}

/// Every checked-in scenario parses, validates and compiles; a file
/// that drifts out of grammar fails here before any binary runs it.
#[test]
fn all_checked_in_scenarios_validate_and_compile() {
    let dir = crate_dir().join("scenarios");
    let mut seen = 0usize;
    for entry in std::fs::read_dir(&dir).expect("scenarios/ exists") {
        let path = entry.expect("dir entry").path();
        if path.to_string_lossy().ends_with(".scenario.json") {
            let spec =
                ScenarioSpec::load(&path).unwrap_or_else(|err| panic!("{}: {err}", path.display()));
            CompiledScenario::compile(&spec)
                .unwrap_or_else(|err| panic!("{}: {err}", path.display()));
            seen += 1;
        }
    }
    assert_eq!(seen, 4, "F3, F6, F13 and F15 scenarios are checked in");
}

/// F3's scenario pins the same ledger span and check-interval sweep the
/// frozen `f3_manifest` hard-codes.
#[test]
fn f3_scenario_pins_the_manifest_constants() {
    let spec = load_scenario("f3_cs1_duty_cycle.scenario.json");
    let WorkloadSpec::Cs1DutyCycle { ledger_days } = spec.workload else {
        panic!("F3 is a cs1_duty_cycle scenario");
    };
    assert_eq!(ledger_days, 3.0, "f3_manifest ledgers 3 days");
    assert_eq!(
        spec.axis("check_interval_s").expect("sweep axis"),
        &[0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0],
        "f3_manifest sweeps these intervals"
    );
}

/// F6's scenario pins the same field, budget, seed and fault mix the
/// frozen `f6_manifest_threads` / `f6_faulted_manifest_threads`
/// hard-code.
#[test]
fn f6_scenario_pins_the_manifest_constants() {
    let spec = load_scenario("f6_network_scaling.scenario.json");
    assert_eq!(spec.seed, 2003);
    assert_eq!(spec.rounds, 500);
    assert_eq!(spec.replications, 32);
    assert_eq!(
        spec.topology,
        Some(TopologySpec::Random {
            nodes: 40,
            field_m: 400.0
        })
    );
    assert_eq!(spec.faults.as_deref(), Some(F6_FAULT_SPEC));
    let mut config = NetworkConfig::sensor_default();
    config.node_energy = Energy::from_joules(20.0);
    assert_eq!(spec.network.to_network_config(), config);
}

/// F13's scenario compiles to exactly the bruised channel the frozen
/// `f13_manifest` hard-codes, on the same 5x5/30 m grid, seed and span.
#[test]
fn f13_scenario_pins_the_manifest_constants() {
    let spec = load_scenario("f13_lossy_network.scenario.json");
    assert_eq!(spec.seed, 2003);
    assert_eq!(spec.rounds, 300);
    assert_eq!(
        spec.topology,
        Some(TopologySpec::Grid {
            side: 5,
            spacing_m: 30.0
        })
    );
    let compiled = CompiledScenario::compile(&spec).expect("F13 compiles");
    assert_eq!(
        compiled.lossy_config(),
        Some(&LossyConfig::bruised_channel()),
        "the scenario's channel is f13_manifest's bruised channel"
    );
}

/// The lossy `parallel_rounds` field is gone — the region engine alone
/// decides by size whether a lossy run goes parallel — so a spec that
/// still carries it is rejected by the unknown-field wall, by name.
/// The checked-in F13 scenario never carried it: its canonical form,
/// and hence its compile-cache hash, is unchanged.
#[test]
fn lossy_scenario_rejects_the_retired_parallel_rounds_field() {
    let base = load_scenario("f13_lossy_network.scenario.json");
    assert!(
        !base.canonical_json().contains("parallel_rounds"),
        "the checked-in F13 spec must stay knob-free (hash stability)"
    );
    assert_eq!(
        base.hash().to_string(),
        "2e8112c6c8a06c5b",
        "the F13 canonical form moved"
    );
    let err = ScenarioSpec::from_json_str(
        r#"{
            "name": "f13-knob",
            "seed": 2003,
            "rounds": 30,
            "topology": {"kind": "grid", "side": 5, "spacing_m": 30.0},
            "workload": {"kind": "lossy", "ber": 0.001, "arq_attempts": 4,
                         "parallel_rounds": true}
        }"#,
    )
    .expect_err("a retired field is an unknown field");
    let message = err.to_string();
    assert!(message.contains("unknown field"), "{message}");
    assert!(message.contains("parallel_rounds"), "{message}");
}

/// F15's scenario pins the bench-snapshot churn mix and the
/// constant-density field family the bench sweep uses.
#[test]
fn f15_scenario_pins_the_bench_constants() {
    let spec = load_scenario("f15_city_scale.scenario.json");
    assert_eq!(spec.seed, 2003);
    assert_eq!(spec.rounds, 30);
    assert_eq!(
        spec.faults.as_deref(),
        Some("death=0.1,outage=0.2:10,link=0.1:8"),
        "the bench-snapshot fault mix, frozen in expt_bench_snapshot"
    );
    assert_eq!(
        spec.axis_usize("nodes").expect("integral nodes axis"),
        vec![400, 1600, 4096]
    );
    assert_eq!(spec.axis("field_m_per_sqrt_n"), Some(&[25.0][..]));
    // The declared topology is the smallest sweep point, so the spec
    // stays self-consistent: 25·√400 = 500 m.
    assert_eq!(
        spec.topology,
        Some(TopologySpec::Random {
            nodes: 400,
            field_m: 500.0
        })
    );
}
