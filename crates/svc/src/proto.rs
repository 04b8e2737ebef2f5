//! The wire protocol: length-prefixed JSON frames.
//!
//! Every message is a big-endian `u32` byte length followed by that
//! many bytes of UTF-8 JSON. A request frame is either one request
//! object or an array of them (a batch); the response frame mirrors the
//! shape. A request object is strict — unknown members are rejected:
//!
//! ```json
//! {"id": "r1", "threads": 4, "scenario": { ...ScenarioSpec... }}
//! ```
//!
//! A success response carries the deterministic manifest plus serving
//! metrics; a failure response carries `id` (when one was parsed) and
//! `error`:
//!
//! ```json
//! {"id": "r1", "scenario_hash": "…", "cache_hit": false,
//!  "compile_micros": 1234, "queue_depth": 1, "manifest": { … }}
//! ```
//!
//! # Example
//!
//! ```
//! use ami_svc::proto::{read_frame, write_frame};
//! use std::io::Cursor;
//!
//! let mut wire = Vec::new();
//! write_frame(&mut wire, br#"{"id":"r1"}"#).unwrap();
//! let mut reader = Cursor::new(wire);
//! let frame = read_frame(&mut reader).unwrap().unwrap();
//! assert_eq!(frame, br#"{"id":"r1"}"#);
//! assert!(read_frame(&mut reader).unwrap().is_none(), "clean EOF");
//! ```

use crate::{RunRequest, RunResponse};
use ami_scenario::json::{parse, JsonValue};
use ami_scenario::{ScenarioError, ScenarioSpec};
use ami_sim::obs::to_json;
use std::io::{self, Read, Write};

/// Largest accepted frame payload (16 MiB).
pub const MAX_FRAME: usize = 16 << 20;

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O errors; rejects payloads over [`MAX_FRAME`] with
/// [`io::ErrorKind::InvalidInput`].
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    writer.write_all(&(payload.len() as u32).to_be_bytes())?;
    writer.write_all(payload)?;
    writer.flush()
}

/// Reads one length-prefixed frame; `Ok(None)` on clean end-of-stream
/// (EOF exactly at a frame boundary). The payload buffer grows as its
/// bytes arrive — 64 KiB first, then doubling, never past the header's
/// length — so it holds at most 64 KiB or twice the bytes received,
/// whichever is larger, whatever length the header claims.
///
/// # Errors
///
/// Propagates I/O errors; rejects frames over [`MAX_FRAME`] with
/// [`io::ErrorKind::InvalidData`], and EOF mid-frame with
/// [`io::ErrorKind::UnexpectedEof`].
pub fn read_frame(reader: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < header.len() {
        let n = reader.read(&mut header[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "EOF inside a frame header",
            ));
        }
        got += n;
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut payload = Vec::new();
    while payload.len() < len {
        let start = payload.len();
        let grow = (len - start).min(start.max(64 << 10));
        payload.reserve_exact(grow);
        payload.resize(start + grow, 0);
        reader.read_exact(&mut payload[start..])?;
    }
    Ok(Some(payload))
}

/// A decoded request frame: the requests and whether the frame was an
/// array (batches answer with an array).
#[derive(Debug, Clone)]
pub struct RequestFrame {
    /// The decoded requests, in wire order.
    pub requests: Vec<RunRequest>,
    /// True when the frame was a JSON array.
    pub batch: bool,
}

/// Decodes a request frame (one object or an array of them).
///
/// # Errors
///
/// [`ScenarioError`] when the payload is not valid JSON, a request
/// carries unknown members, or a scenario fails validation.
pub fn decode_requests(payload: &str) -> Result<RequestFrame, ScenarioError> {
    let doc = parse(payload)?;
    match &doc {
        JsonValue::Array(items) => {
            if items.is_empty() {
                return Err(ScenarioError::Spec("empty request batch".into()));
            }
            let requests = items
                .iter()
                .map(decode_request)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(RequestFrame {
                requests,
                batch: true,
            })
        }
        _ => Ok(RequestFrame {
            requests: vec![decode_request(&doc)?],
            batch: false,
        }),
    }
}

fn decode_request(value: &JsonValue) -> Result<RunRequest, ScenarioError> {
    let JsonValue::Object(members) = value else {
        return Err(ScenarioError::Spec(format!(
            "request must be an object, found {}",
            value.type_name()
        )));
    };
    let mut id = None;
    let mut threads = None;
    let mut scenario = None;
    for (key, member) in members {
        match key.as_str() {
            "id" => {
                id = Some(
                    member
                        .as_str()
                        .ok_or_else(|| {
                            ScenarioError::Spec(format!(
                                "request `id` must be a string, found {}",
                                member.type_name()
                            ))
                        })?
                        .to_owned(),
                );
            }
            "threads" => {
                let v = member.as_f64().ok_or_else(|| {
                    ScenarioError::Spec(format!(
                        "request `threads` must be a number, found {}",
                        member.type_name()
                    ))
                })?;
                if v.fract() != 0.0 || !(1.0..=4096.0).contains(&v) {
                    return Err(ScenarioError::Spec(format!(
                        "request `threads` must be an integer in [1, 4096], got {v}"
                    )));
                }
                threads = Some(v as usize);
            }
            "scenario" => scenario = Some(ScenarioSpec::from_json_value(member)?),
            other => {
                return Err(ScenarioError::Spec(format!(
                    "unknown request member `{other}`"
                )))
            }
        }
    }
    let spec =
        scenario.ok_or_else(|| ScenarioError::Spec("request is missing `scenario`".into()))?;
    Ok(RunRequest {
        id: id.unwrap_or_default(),
        spec,
        threads,
    })
}

/// Renders one response (success or failure) as a JSON object.
pub fn encode_response(response: &Result<RunResponse, ScenarioError>, id: &str) -> String {
    match response {
        Ok(ok) => {
            let mut out = String::from("{\"id\":");
            out.push_str(&to_json(&ok.id));
            out.push_str(",\"scenario_hash\":");
            out.push_str(&to_json(&ok.scenario_hash));
            out.push_str(",\"cache_hit\":");
            out.push_str(if ok.cache_hit { "true" } else { "false" });
            out.push_str(",\"compile_micros\":");
            out.push_str(&ok.compile_micros.to_string());
            out.push_str(",\"queue_depth\":");
            out.push_str(&ok.queue_depth.to_string());
            out.push_str(",\"manifest\":");
            out.push_str(ok.manifest.trim_end());
            out.push('}');
            out
        }
        Err(err) => {
            let mut out = String::from("{\"id\":");
            out.push_str(&to_json(&id));
            out.push_str(",\"error\":");
            out.push_str(&to_json(&err.to_string()));
            out.push('}');
            out
        }
    }
}

/// Renders a batch of responses as a JSON array, in request order.
pub fn encode_responses(
    responses: &[Result<RunResponse, ScenarioError>],
    ids: &[String],
) -> String {
    let mut out = String::from("[");
    for (k, response) in responses.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push_str(&encode_response(response, ids.get(k).map_or("", |s| s)));
    }
    out.push(']');
    out
}

/// Renders a frame-level failure (unparseable request frame).
pub fn encode_frame_error(message: &str) -> String {
    format!("{{\"error\":{}}}", to_json(&message))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "name": "proto-test",
        "rounds": 5,
        "topology": {"kind": "grid", "side": 3, "spacing_m": 30.0},
        "workload": {"kind": "gathering", "strategy": "minimum_energy"}
    }"#;

    #[test]
    fn frame_roundtrip_and_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abc").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut reader = std::io::Cursor::new(wire);
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"abc");
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"");
        assert!(read_frame(&mut reader).unwrap().is_none());
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abcdef").unwrap();
        wire.truncate(wire.len() - 2);
        let mut reader = std::io::Cursor::new(wire);
        assert!(read_frame(&mut reader).is_err());
    }

    #[test]
    fn single_and_batch_requests_decode() {
        let single = format!(r#"{{"id": "r1", "threads": 2, "scenario": {SPEC}}}"#);
        let frame = decode_requests(&single).unwrap();
        assert!(!frame.batch);
        assert_eq!(frame.requests[0].id, "r1");
        assert_eq!(frame.requests[0].threads, Some(2));

        let batch =
            format!(r#"[{{"id": "a", "scenario": {SPEC}}}, {{"id": "b", "scenario": {SPEC}}}]"#);
        let frame = decode_requests(&batch).unwrap();
        assert!(frame.batch);
        assert_eq!(frame.requests.len(), 2);
    }

    #[test]
    fn unknown_request_members_rejected() {
        let bad = format!(r#"{{"id": "r1", "speed": 11, "scenario": {SPEC}}}"#);
        let err = decode_requests(&bad).unwrap_err();
        assert!(err.to_string().contains("speed"), "{err}");
    }

    #[test]
    fn responses_render_as_parseable_json() {
        let ok = Ok(RunResponse {
            id: "r1".into(),
            scenario_hash: "00ff".into(),
            cache_hit: true,
            compile_micros: 12,
            queue_depth: 1,
            manifest: "{\n  \"experiment\": \"x\"\n}\n".into(),
        });
        let rendered = encode_response(&ok, "r1");
        let doc = parse(&rendered).unwrap();
        assert_eq!(doc.get("cache_hit"), Some(&JsonValue::Bool(true)));
        assert!(doc.get("manifest").is_some());

        let err: Result<RunResponse, ScenarioError> =
            Err(ScenarioError::Spec("boom \"quoted\"".into()));
        let rendered = encode_response(&err, "r9");
        let doc = parse(&rendered).unwrap();
        assert_eq!(doc.get("id").and_then(|v| v.as_str()), Some("r9"));
        assert!(doc
            .get("error")
            .and_then(|v| v.as_str())
            .unwrap()
            .contains("boom"));
    }
}
