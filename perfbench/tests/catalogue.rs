//! `BENCHMARK.json` and the metric catalogue the binary reports from
//! must name the same metrics, units and directions.

use ami_perfbench::report::{Better, END_TO_END, LAYERS};
use ami_scenario::json::{parse, JsonValue};

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn entries<'a>(doc: &'a JsonValue, key: &str) -> Vec<(&'a str, &'a str, &'a str)> {
    let Some(JsonValue::Array(items)) = doc.get(key) else {
        panic!("BENCHMARK.json has no `{key}` list");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k);
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn better(b: Better) -> &'static str {
    match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    }
}

#[test]
fn end_to_end_metrics_match_the_catalogue() {
    let doc = benchmark_json();
    let expected: Vec<_> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, better(m.better)))
        .collect();
    assert_eq!(entries(&doc, "end_to_end"), expected);
}

#[test]
fn per_layer_metrics_match_the_catalogue() {
    let doc = benchmark_json();
    let expected: Vec<_> = LAYERS
        .iter()
        .map(|m| (m.name, m.unit, better(m.better)))
        .collect();
    assert_eq!(entries(&doc, "per_layer"), expected);
}

#[test]
fn workloads_match_the_binary() {
    let doc = benchmark_json();
    let Some(JsonValue::Array(items)) = doc.get("workloads") else {
        panic!("BENCHMARK.json has no workloads");
    };
    let names: Vec<&str> = items
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
        .collect();
    assert_eq!(names, ["megacity", "city_faulted", "svc_mix"]);
}
