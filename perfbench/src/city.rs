//! `city_faulted`: one faulted city study through the scenario layer —
//! three specs (see [`city_documents`]) each compiled with
//! `CompiledScenario::compile` and run on two threads.

use crate::gen::{city_documents, CITY_NODES, CITY_ROUNDS};
use crate::report::Output;
use crate::stats::{cpus, median, peak_rss_mib, tail_mean, Digest};
use crate::trace::Tracer;
use crate::{overhead_share, Counters, RunConfig};
use ami_scenario::json::{parse, JsonValue};
use ami_scenario::{CompiledScenario, ScenarioSpec};
use ami_sim::fault::FaultTimeline;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups before every timed study (plus the one whose scenarios the
/// studies run); `setup_s` is the median of all of them.
pub const SETUPS_PER_STUDY: usize = 2;
/// Worker threads of the timed study.
pub const THREADS: usize = 2;
/// Timed studies run even when the window is shorter.
const MIN_STUDIES: usize = 2;
/// Specs per study, in [`city_documents`] order.
const SPECS: usize = 3;
/// The gathering specs of the study (the other one is lossy).
const GATHERING: [usize; 2] = [0, 2];

/// Parses and compiles every spec of the study.
fn compile_study(tracer: &mut Tracer, docs: &[String; SPECS]) -> [Arc<CompiledScenario>; SPECS] {
    docs.clone().map(|doc| {
        let spec = tracer
            .span("spec.parse", |_| ScenarioSpec::from_json_str(&doc))
            .expect("generated city specs are valid");
        tracer
            .span("compile.city", |_| CompiledScenario::compile(&spec))
            .expect("validated specs compile")
    })
}

/// Runs every spec on `threads` workers and renders its manifest;
/// returns the manifests and the seconds each spec took.
fn study(
    tracer: &mut Tracer,
    compiled: &[Arc<CompiledScenario>; SPECS],
    threads: usize,
    span: &'static str,
) -> ([String; SPECS], [f64; SPECS]) {
    let mut seconds = [0.0; SPECS];
    let manifests = std::array::from_fn(|k| {
        let started = Instant::now();
        let manifest = tracer.span(span, |_| compiled[k].run_threads(threads));
        let json = tracer.span("obs.render", |_| manifest.to_json());
        seconds[k] = started.elapsed().as_secs_f64();
        json
    });
    (manifests, seconds)
}

/// Reads `path` (dot-separated members) from a manifest as an integer.
fn manifest_u64(doc: &JsonValue, path: &str) -> Option<u64> {
    let mut value = doc;
    for key in path.split('.') {
        value = value.get(key)?;
    }
    value.as_f64().map(|v| v as u64)
}

/// Checks every manifest's packet counts: in a gathering manifest every
/// offered packet is delivered or dropped for a counted cause. A lossy
/// manifest's channel drops are derived (offered less delivered and
/// fault drops), so no sum can be checked there, only bounds; the guards
/// on it are the equality of every study with the first and the digest.
/// Nothing need be delivered: under F15's fault mix some seeds cut the
/// sink off for the whole run.
fn check_manifests(out: &mut Output, manifests: &[String; SPECS]) {
    for (k, manifest) in manifests.iter().enumerate() {
        let Ok(doc) = parse(manifest) else {
            out.fail(format!("city manifest {k} is not valid JSON"));
            continue;
        };
        let packets = |leaf: &str| manifest_u64(&doc, &format!("counters.packets.{leaf}"));
        let offered = packets("offered");
        let delivered = packets("delivered");
        let ok = if GATHERING.contains(&k) {
            let dropped: Option<u64> = ["dead_hop", "disconnected", "fault"]
                .iter()
                .map(|cause| packets(&format!("dropped.{cause}")))
                .sum();
            match (offered, delivered, dropped) {
                (Some(o), Some(d), Some(x)) => {
                    d + x == o && manifest_u64(&doc, "delivered_packets") == Some(d)
                }
                _ => false,
            }
        } else {
            match (offered, delivered, packets("dropped.fault")) {
                (Some(o), Some(d), Some(f)) => d + f <= o,
                _ => false,
            }
        };
        out.check(ok, || {
            format!("city manifest {k}: packet counts do not add up")
        });
    }
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> (Output, Tracer) {
    let mut out = Output::new("city_faulted", config.trace);
    let mut tracer = Tracer::new(config.trace);
    let docs = city_documents(config.seed);

    // The first set-up compiles the scenarios every study runs.
    let started = Instant::now();
    let compiled = compile_study(&mut tracer, &docs);
    let mut setups = vec![started.elapsed().as_secs_f64()];

    let before = Counters::read();
    let mut studies = Vec::new();
    let mut per_spec: [Vec<f64>; SPECS] = Default::default();
    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    let mut reference: Option<[String; SPECS]> = None;
    let window = Instant::now();
    while studies.len() < MIN_STUDIES || window.elapsed() < config.window {
        let k = studies.len();
        out.attempt(1);
        // In a traced run every other study goes untraced, which prices
        // the tracing itself.
        tracer.set_enabled(config.trace && k % 2 == 0);
        tracer.set_request(k as u64);
        // Fresh set-ups before every study, timed and dropped: set-ups
        // and studies sample the same stretch of the run, so a slow
        // spell of the host weighs on both alike.
        for _ in 0..SETUPS_PER_STUDY {
            let started = Instant::now();
            drop(compile_study(&mut tracer, &docs));
            setups.push(started.elapsed().as_secs_f64());
        }
        let started = Instant::now();
        let (manifests, seconds) = study(&mut tracer, &compiled, THREADS, "execute.city");
        let total = started.elapsed().as_secs_f64();
        studies.push(total);
        for (times, s) in per_spec.iter_mut().zip(seconds) {
            times.push(s);
        }
        if tracer.enabled() {
            traced.push(total);
        } else {
            untraced.push(total);
        }
        match &reference {
            None => {
                check_manifests(&mut out, &manifests);
                reference = Some(manifests);
            }
            Some(first) => out.check(first == &manifests, || {
                format!("city study {k} rendered different manifests than study 0")
            }),
        }
    }
    tracer.set_enabled(config.trace);
    let after = Counters::read();
    let reference = reference.expect("a study ran");
    let runs = studies.len() as u64;
    let rounds = SPECS as u64 * CITY_ROUNDS;
    // Routing runs on the calling thread even in the region-parallel
    // engines, so its counters are visible here; the aggregated kernel's
    // are not (the two-thread rounds run on the worker crew).
    let repairs = (after.route_repairs - before.route_repairs) as f64 / runs as f64;
    let builds = (after.route_builds - before.route_builds) as f64 / runs as f64;

    let setup_s = median(&setups).expect("set-up ran");
    let scenario_s = median(&studies).expect("studies ran");
    let mut digest = Digest::default();
    for manifest in &reference {
        digest.bytes(manifest.as_bytes());
    }
    out.note("seed", config.seed);
    out.note("cpus", cpus());
    out.note("threads", THREADS);
    out.note("connections", 0);
    out.note(
        "studies attempted",
        format!("{runs} ({SPECS} specs of {CITY_ROUNDS} rounds each)"),
    );
    for (k, times) in per_spec.iter().enumerate() {
        out.note(
            &format!("{} median", compiled[k].spec().name),
            format!("{} s", median(times).expect("studies ran")),
        );
    }
    out.note("repairs per round", repairs / rounds as f64);
    out.note(
        "agg.engaged_share",
        "unavailable (the two-thread rounds run on the worker crew)",
    );
    out.note("digest", digest.hex());
    out.named("setup_s", setup_s, "s");
    out.named("scenario_s", scenario_s, "s");
    let rss = peak_rss_mib("self").unwrap_or(0.0);
    out.named("peak_rss_mib", rss, "MiB");

    out.end_to_end("setup_s", setup_s);
    out.end_to_end("op_p50_ms", 1e3 * scenario_s);
    // A run holds only a handful of operations: its tail is the mean of
    // the slowest quarter.
    out.end_to_end(
        "op_tail_ms",
        1e3 * tail_mean(&studies, 0.75).expect("operations ran"),
    );
    out.end_to_end("ops_per_s", runs as f64 / studies.iter().sum::<f64>());
    out.end_to_end("peak_rss_mib", rss);

    if config.trace {
        // The fault layer, priced on the big field's own inputs.
        let field_spec = compiled[0].spec();
        let fault_spec = compiled[0].fault_spec().expect("the city study is faulted");
        let schedule = tracer.span("fault.schedule", |_| {
            fault_spec.schedule_for(field_spec.seed, CITY_NODES, field_spec.rounds)
        });
        tracer.span("fault.timeline", |_| {
            FaultTimeline::compile(&schedule, CITY_NODES)
        });
        let events = schedule.events().len();

        // The same study on one thread: every counter is on this thread,
        // and the manifests must match the two-thread ones byte for byte.
        let serial_before = Counters::read();
        let (serial, serial_seconds) = study(&mut tracer, &compiled, 1, "pdes.serial_run");
        let serial_after = Counters::read();
        out.check(serial == reference, || {
            "run_threads(1) manifests differ from run_threads(2)".to_owned()
        });
        let engaged = serial_after.agg_engaged - serial_before.agg_engaged;
        let fallback = serial_after.agg_fallback - serial_before.agg_fallback;
        let delivered = parse(&serial[0])
            .ok()
            .and_then(|d| manifest_u64(&d, "delivered_packets"))
            .unwrap_or(0);

        let med = |name: &str| median(&tracer.durations(name)).unwrap_or(0.0);
        // Each set-up and each study makes one span per spec.
        let per_study = |name: &str| {
            let sums: Vec<f64> = tracer
                .durations(name)
                .chunks(SPECS)
                .map(|c| c.iter().sum())
                .collect();
            median(&sums).unwrap_or(0.0)
        };
        let serial_s: f64 = serial_seconds.iter().sum();
        let execute_city_s = per_study("execute.city");
        out.layer("routing.builds", builds);
        out.layer("routing.repairs", repairs);
        out.layer("routing.repairs_per_round", repairs / rounds as f64);
        out.layer("gather.round_s", serial_seconds[0] / CITY_ROUNDS as f64);
        out.layer("gather.delivered", delivered as f64);
        out.layer("agg.engaged", engaged as f64);
        out.layer("agg.fallback", fallback as f64);
        out.layer(
            "agg.engaged_share",
            engaged as f64 / (engaged + fallback).max(1) as f64,
        );
        out.layer(
            "pdes.engaged",
            (after.par_engaged - before.par_engaged) as f64 / runs as f64,
        );
        out.layer(
            "pdes.serial_fallback",
            (after.par_fallback - before.par_fallback) as f64 / runs as f64,
        );
        out.layer("pdes.serial_run_s", serial_s);
        out.layer("pdes.speedup", serial_s / execute_city_s);
        out.layer("fault.schedule_s", med("fault.schedule"));
        out.layer("fault.timeline_s", med("fault.timeline"));
        out.layer("fault.events", events as f64);
        out.layer("spec.parse_us", 1e6 * med("spec.parse"));
        out.layer("compile.city_s", per_study("compile.city"));
        out.layer("execute.city_s", execute_city_s);
        out.layer("obs.render_us", 1e6 * med("obs.render"));
        out.layer(
            "obs.manifest_bytes",
            reference.iter().map(String::len).sum::<usize>() as f64 / SPECS as f64,
        );
        out.layer("trace.overhead_share", overhead_share(&traced, &untraced));
        out.note("pdes.speedup cpus", cpus());
    }
    (out, tracer)
}
