//! The generator's contract: a seed fixes every input byte for byte, and
//! another seed gives other inputs with the same target shares.

use ami_perfbench::gen::{
    city_documents, load_templates, megacity_inputs, megacity_topology, svc_stream, Expect, SpecId,
    Stream, BATCH_SHARE, COLD_SHARE, INVALID_SHARE, PROBE_SHARE, TEMPLATE_DIR,
};
use ami_scenario::ScenarioSpec;
use ami_sim::fault::FaultSchedule;
use std::path::Path;

const FRAMES: usize = 4000;

fn templates() -> Vec<ScenarioSpec> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    load_templates(&root.join(TEMPLATE_DIR)).expect("checked-in scenario templates load")
}

fn wire_bytes(stream: &Stream) -> Vec<u8> {
    stream
        .frames
        .iter()
        .flat_map(|f| f.payload.bytes().chain(std::iter::once(b'\n')))
        .collect()
}

fn topology_bytes(seed: u64) -> Vec<u8> {
    megacity_topology(&megacity_inputs(seed))
        .positions()
        .iter()
        .flat_map(|p| [p.x.to_bits().to_le_bytes(), p.y.to_bits().to_le_bytes()])
        .flatten()
        .collect()
}

fn city_schedule(seed: u64) -> FaultSchedule {
    let spec = ScenarioSpec::from_json_str(&city_documents(seed)[0]).expect("city spec is valid");
    let nodes = spec
        .topology
        .as_ref()
        .expect("city spec has a field")
        .node_count();
    spec.fault_spec()
        .expect("fault mix parses")
        .expect("city spec is faulted")
        .schedule_for(spec.seed, nodes, spec.rounds)
}

#[test]
fn a_seed_fixes_the_request_stream_byte_for_byte() {
    let templates = templates();
    let a = svc_stream(7, &templates, FRAMES);
    let b = svc_stream(7, &templates, FRAMES);
    assert_eq!(wire_bytes(&a), wire_bytes(&b));
    assert_eq!(a.frames, b.frames, "expected replies match too");
    assert_eq!(a.gen.cold(), b.gen.cold());
    // Made one frame at a time, a stream's prefix is the shorter stream.
    let short = svc_stream(7, &templates, FRAMES / 2);
    assert_eq!(short.frames[..], a.frames[..FRAMES / 2]);
}

#[test]
fn every_spec_in_the_stream_resolves_and_cold_ones_never_repeat() {
    let templates = templates();
    let stream = svc_stream(7, &templates, FRAMES);
    let mut cold_hashes = std::collections::BTreeSet::new();
    for request in stream.frames.iter().flat_map(|f| &f.requests) {
        if let Expect::Manifest(id) = request.expect {
            let spec = stream.gen.spec(id);
            if let SpecId::Cold(_) = id {
                assert!(cold_hashes.insert(spec.hash()), "{} repeats", spec.name);
            }
        }
    }
    let hot: Vec<_> = stream.gen.hot().iter().map(|h| h.hash).collect();
    assert!(cold_hashes.iter().all(|h| !hot.contains(h)));
}

#[test]
fn a_seed_fixes_the_topology_and_the_fault_schedule() {
    assert_eq!(topology_bytes(7), topology_bytes(7));
    assert_ne!(topology_bytes(7), topology_bytes(8));
    assert_eq!(city_documents(7), city_documents(7));
    assert_eq!(city_schedule(7), city_schedule(7));
    assert!(!city_schedule(7).is_empty());
    assert_ne!(city_schedule(7), city_schedule(8));
}

#[test]
fn another_seed_gives_another_stream_with_the_same_target_shares() {
    let templates = templates();
    let a = svc_stream(7, &templates, FRAMES);
    let b = svc_stream(8, &templates, FRAMES);
    assert_ne!(wire_bytes(&a), wire_bytes(&b));
    // A batch carries 2 + U{0,1,2} requests (3 on average), so a frame
    // carries 1 + 2·BATCH_SHARE requests on average, and invalid
    // requests ride single frames only.
    let invalid = INVALID_SHARE * (1.0 - BATCH_SHARE) / (1.0 + 2.0 * BATCH_SHARE);
    let valid = 1.0 + 2.0 * BATCH_SHARE - INVALID_SHARE * (1.0 - BATCH_SHARE);
    let cold = COLD_SHARE * (1.0 - BATCH_SHARE) / valid;
    for shares in [a.shares(), b.shares()] {
        assert!(
            (shares.batch_frames - BATCH_SHARE).abs() < 0.02,
            "{shares:?}"
        );
        assert!((shares.invalid - invalid).abs() < 0.01, "{shares:?}");
        assert!((shares.probes - PROBE_SHARE).abs() < 0.05, "{shares:?}");
        // Every batch duplicates one spec.
        assert!(shares.batch_mates >= 0.9 * BATCH_SHARE / (1.0 + 2.0 * BATCH_SHARE));
        assert!((shares.cold - cold).abs() < 0.02, "{shares:?}");
    }
    let (sa, sb) = (a.shares(), b.shares());
    assert!((sa.cold - sb.cold).abs() < 0.03, "{sa:?} vs {sb:?}");
    assert!(
        (sa.batch_mates - sb.batch_mates).abs() < 0.02,
        "{sa:?} vs {sb:?}"
    );
}
