//! Property tests for the service's input surfaces: the frame reader,
//! the request decoder and the JSON reader take any bytes and return
//! `Ok` or `Err` without panicking, and frames round-trip.

use ami_scenario::json;
use ami_svc::proto::{decode_requests, read_frame, write_frame};
use proptest::prelude::*;
use std::io::Cursor;

/// A request the decoder accepts; the edit property damages it.
const VALID: &[u8] = br#"{"id":"r1","threads":2,"scenario":{"name":"t","rounds":10,"topology":{"kind":"grid","side":3,"spacing_m":30.0},"workload":{"kind":"gathering","strategy":"minimum_energy"}}}"#;

/// Pieces of request frames, `|`-separated: JSON structure, the
/// request and scenario members, values of each type (in and out of
/// range), escapes, non-ASCII text and bytes that are not UTF-8, so
/// random sequences reach the decoder's checks and not only the JSON
/// reader's.
const TOKENS: &[u8] = b"{|}|[|]|:|,| |\"|\"id\"|\"threads\"|\"scenario\"|\"name\"|\"rounds\"|\
    \"topology\"|\"workload\"|\"kind\"|\"grid\"|\"side\"|\"spacing_m\"|\"gathering\"|\
    \"strategy\"|\"minimum_energy\"|\"lossy\"|\"ber\"|\"faults\"|\"death=0.1\"|0|1|-1|4|0.5|\
    4097|1e999|true|null|\\|\\u00e9|\\uD800|\xc3\xa9|\x00|\xff";

/// [`TOKENS`] split at its `|` separators.
fn tokens() -> Vec<&'static [u8]> {
    TOKENS.split(|&b| b == b'|').collect()
}

/// Sends `bytes` through every input surface: as a wire stream to
/// `read_frame` (frame after frame until it stops), as one frame's
/// payload through `write_frame` and back, and, when it is UTF-8, to
/// `decode_requests` and `json::parse`.
fn exercise(bytes: &[u8]) {
    let mut wire = Cursor::new(bytes);
    while let Ok(Some(_)) = read_frame(&mut wire) {}

    let mut framed = Vec::new();
    write_frame(&mut framed, bytes).expect("a small payload frames");
    let mut wire = Cursor::new(framed);
    let payload = read_frame(&mut wire).expect("a whole frame reads");
    assert_eq!(payload.as_deref(), Some(bytes));
    assert!(read_frame(&mut wire).expect("clean EOF").is_none());

    if let Ok(text) = std::str::from_utf8(bytes) {
        let _ = json::parse(text);
        let _ = decode_requests(text);
    }
}

#[test]
fn the_unedited_request_decodes() {
    let text = std::str::from_utf8(VALID).expect("UTF-8");
    let frame = decode_requests(text).expect("the reference request decodes");
    assert_eq!(frame.requests.len(), 1);
}

proptest! {
    #[test]
    fn arbitrary_bytes_return_ok_or_err(bytes in prop::collection::vec(0u8..=255, 0..512)) {
        exercise(&bytes);
    }

    #[test]
    fn token_sequences_return_ok_or_err(picks in prop::collection::vec(0..tokens().len(), 0..64)) {
        let tokens = tokens();
        let bytes: Vec<u8> = picks.iter().flat_map(|&t| tokens[t].iter().copied()).collect();
        exercise(&bytes);
    }

    /// Up to four edits of the valid request, each replacing, inserting
    /// or deleting one byte, or truncating the request there.
    #[test]
    fn edited_requests_return_ok_or_err(
        edits in prop::collection::vec((0..VALID.len(), 0u8..=255, 0u8..4), 0..5),
    ) {
        let mut bytes = VALID.to_vec();
        for (at, byte, op) in edits {
            let at = at.min(bytes.len().saturating_sub(1));
            match op {
                _ if bytes.is_empty() => bytes.push(byte),
                0 => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                2 => {
                    bytes.remove(at);
                }
                _ => bytes.truncate(at),
            }
        }
        exercise(&bytes);
    }

    #[test]
    fn frames_round_trip(
        payloads in prop::collection::vec(prop::collection::vec(0u8..=255, 0..4096), 1..4),
    ) {
        let mut wire = Vec::new();
        for payload in &payloads {
            write_frame(&mut wire, payload).expect("a small payload frames");
        }
        let mut wire = Cursor::new(wire);
        for payload in &payloads {
            let frame = read_frame(&mut wire).expect("a whole frame reads");
            prop_assert_eq!(frame.as_ref(), Some(payload));
        }
        prop_assert!(read_frame(&mut wire).expect("clean EOF").is_none());
    }
}
