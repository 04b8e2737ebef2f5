//! Property tests for the scenario format: specs built by perturbing
//! the four checked-in scenarios survive their canonical rendering.
//! Every rendering is JSON that carries the name verbatim, whatever
//! characters it holds; a valid spec parses back equal, with the same
//! hash, and an invalid one is rejected by the spec rules, not by the
//! JSON reader.

use ami_net::RoutingStrategy;
use ami_scenario::json::{self, JsonValue};
use ami_scenario::spec::MAX_EXACT_INT;
use ami_scenario::{ScenarioError, ScenarioSpec, TopologySpec, WorkloadSpec};
use proptest::prelude::*;

const CHECKED_IN: [&str; 4] = [
    include_str!("../../experiments/scenarios/f3_cs1_duty_cycle.scenario.json"),
    include_str!("../../experiments/scenarios/f6_network_scaling.scenario.json"),
    include_str!("../../experiments/scenarios/f13_lossy_network.scenario.json"),
    include_str!("../../experiments/scenarios/f15_city_scale.scenario.json"),
];

/// Characters of the format's own name alphabet, `[a-z0-9_.-]`.
const NAME_CHARS: &[char] = &['a', 'm', 'z', '0', '7', '_', '.', '-'];

/// Characters the canonical JSON must escape or carry as multi-byte
/// UTF-8: quote, backslash, control characters, DEL, non-ASCII text, a
/// character outside the BMP and U+2028, plus letters the name rule
/// rejects.
const HOSTILE_CHARS: &[char] = &[
    '"', '\\', '\n', '\t', '\0', '\u{1f}', '\u{7f}', 'é', '中', '😀', '\u{2028}', 'A', ' ', 'a',
];

fn name_from(chars: &'static [char], len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    prop::collection::vec(0..chars.len(), len)
        .prop_map(move |picks| picks.into_iter().map(|i| chars[i]).collect())
}

fn name() -> impl Strategy<Value = String> {
    prop_oneof![
        name_from(NAME_CHARS, 1..65),
        name_from(HOSTILE_CHARS, 0..70)
    ]
}

fn topology() -> impl Strategy<Value = Option<TopologySpec>> {
    prop_oneof![
        Just(None),
        (0u32..1025, 0.0..100.0f64)
            .prop_map(|(side, spacing_m)| Some(TopologySpec::Grid { side, spacing_m })),
        (0u32..(1 << 21), 0.0..5e4f64)
            .prop_map(|(nodes, field_m)| Some(TopologySpec::Random { nodes, field_m })),
        (0u32..(1 << 21), 0.0..500.0f64)
            .prop_map(|(leaves, radius_m)| Some(TopologySpec::Star { leaves, radius_m })),
    ]
}

fn workload() -> impl Strategy<Value = WorkloadSpec> {
    prop_oneof![
        (0u8..2).prop_map(|direct| WorkloadSpec::Gathering {
            strategy: if direct == 1 {
                RoutingStrategy::DirectToSink
            } else {
                RoutingStrategy::MinimumEnergy
            },
        }),
        (0.0..1.0f64, 0u32..17)
            .prop_map(|(ber, arq_attempts)| WorkloadSpec::Lossy { ber, arq_attempts }),
        (0.0..10.0f64).prop_map(|ledger_days| WorkloadSpec::Cs1DutyCycle { ledger_days }),
    ]
}

/// `Some` of a draw from `strategy` half the time, else `None` (keep the
/// base scenario's field).
fn maybe<S: Strategy + 'static>(strategy: S) -> impl Strategy<Value = Option<S::Value>>
where
    S::Value: Clone + 'static,
{
    prop_oneof![Just(None), strategy.prop_map(Some)]
}

proptest! {
    #[test]
    fn perturbed_scenarios_round_trip_through_their_canonical_json(
        base in 0..CHECKED_IN.len(),
        name in maybe(name()),
        seed in maybe(0..=MAX_EXACT_INT),
        rounds in maybe(0..=MAX_EXACT_INT),
        topology in maybe(topology()),
        workload in maybe(workload()),
    ) {
        let mut spec = ScenarioSpec::from_json_str(CHECKED_IN[base]).expect("a checked-in scenario");
        if let Some(name) = name {
            spec.name = name;
        }
        if let Some(seed) = seed {
            spec.seed = seed;
        }
        if let Some(rounds) = rounds {
            spec.rounds = rounds;
        }
        if let Some(topology) = topology {
            spec.topology = topology;
        }
        if let Some(workload) = workload {
            spec.workload = workload;
        }

        let canonical = spec.canonical_json();
        let doc = json::parse(&canonical).expect("the canonical rendering is JSON");
        prop_assert_eq!(doc.get("name").and_then(JsonValue::as_str), Some(spec.name.as_str()));
        match spec.validate() {
            Ok(()) => {
                let reparsed = ScenarioSpec::from_json_str(&canonical).expect("a valid spec reparses");
                prop_assert_eq!(&reparsed, &spec);
                prop_assert_eq!(reparsed.hash(), spec.hash());
            }
            Err(_) => {
                let err = ScenarioSpec::from_json_str(&canonical).expect_err("an invalid spec");
                prop_assert!(matches!(err, ScenarioError::Spec(_)), "{err}");
            }
        }
    }
}
