//! `svc_mix`: a closed loop of two connections against the shipped
//! `ami_svcd` daemon on loopback, over a seeded mix of probes, study
//! variants, batches and invalid requests.

use crate::gen::{
    load_templates, svc_mix_parameters, svc_stream, Expect, Frame, Request, SpecId, Stream, SvcGen,
    TEMPLATE_DIR,
};
use crate::report::Output;
use crate::stats::{cpus, mean, median, peak_rss_mib, percentile, tail_mean, Digest};
use crate::trace::Tracer;
use crate::{overhead_share, Counters, RunConfig};
use ami_scenario::{CompiledScenario, ScenarioCache, ScenarioHash, ScenarioSpec, WorkloadSpec};
use ami_svc::proto::{
    decode_requests, encode_frame_error, encode_response, encode_responses, read_frame,
};
use ami_svc::{RunResponse, Service};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Daemon start-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 101;

/// Client connections of the closed loop.
pub const CONNECTIONS: usize = 2;
/// Compiled scenarios the shipped daemon keeps (`ami_svcd`'s cache).
pub const DAEMON_CACHE: usize = 64;
/// The digest covers the distinct specs of this many leading frames.
pub const DIGEST_FRAMES: usize = 128;
/// The traced run replays at most this many leading answered frames
/// in-process (each pass takes about as long as the daemon took).
pub const REPLAY_FRAMES: usize = 4096;
/// A reply slower than this ends the connection as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

const SETUP_PROBE: &str = r#"{"id": "setup", "threads": 1, "scenario": {"name": "setup-probe", "rounds": 5,
  "topology": {"kind": "grid", "side": 3, "spacing_m": 30.0},
  "workload": {"kind": "gathering", "strategy": "minimum_energy"}}}"#;

/// A running `ami_svcd`, killed and reaped on drop.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    // Held open so the daemon never writes into a closed pipe.
    _stderr: BufReader<ChildStderr>,
}

impl Daemon {
    /// Starts the daemon on an OS-chosen loopback port and waits for
    /// its listening line.
    fn spawn(bin: &Path) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .env("AMBIENCE_SVC_ADDR", "127.0.0.1:0")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|err| format!("cannot start {}: {err}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let read = stderr.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("[ami-svcd listening on ")
            .and_then(|rest| rest.strip_suffix(']'))
            .and_then(|addr| addr.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Self {
                child,
                addr,
                _stderr: stderr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("ami_svcd did not report its address: {line:?}"))
            }
        }
    }

    fn peak_rss_mib(&self) -> Option<f64> {
        peak_rss_mib(&self.child.id().to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection: `TCP_NODELAY`, and every frame written as
/// one buffer, so the client adds no Nagle stall of its own.
struct Conn(TcpStream);

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Self(stream))
    }

    /// Sends one frame and reads the reply; returns it with the time
    /// from the write to the last byte read.
    fn call(&mut self, wire: &[u8]) -> io::Result<(Vec<u8>, f64)> {
        let started = Instant::now();
        self.0.write_all(wire)?;
        let reply = read_frame(&mut self.0)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed"))?;
        Ok((reply, started.elapsed().as_secs_f64()))
    }
}

/// A length-prefixed frame as one buffer.
fn wire(payload: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 4);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload.as_bytes());
    out
}

/// What one reply said about one request, captured as the reply
/// arrives by the benchmark's own scanner (no program code runs between
/// frames) and checked after the window.
#[derive(Debug, Clone, Default)]
struct Seen {
    /// The reply echoed the request id.
    id_echoed: bool,
    /// The `scenario_hash` it carried.
    hash: Option<u64>,
    /// It carried an `error`.
    error: bool,
    /// The daemon served it from its cache.
    cache_hit: bool,
    /// Its `queue_depth`.
    queue_depth: Option<f64>,
    /// Digest and length of its manifest, byte for byte as sent.
    manifest: Option<(u64, usize)>,
}

/// One frame sent in the closed loop.
struct Sent {
    frame: usize,
    requests: Vec<Request>,
    seconds: f64,
    /// One entry per request; `None` when the connection failed before
    /// a reply arrived.
    seen: Option<Vec<Seen>>,
}

/// The 64-bit FNV-1a digest of `bytes`.
fn digest_of(bytes: &[u8]) -> u64 {
    let mut d = Digest::default();
    d.bytes(bytes);
    d.value()
}

/// A JSON string literal's contents (the ids and hashes checked here
/// hold no escapes).
fn unquote(raw: &str) -> Option<&str> {
    raw.strip_prefix('"')?.strip_suffix('"')
}

/// Reads what the reply to `frame` says about each of its requests.
fn capture(reply: &[u8], frame: &Frame) -> Vec<Seen> {
    let text = std::str::from_utf8(reply).unwrap_or("");
    let objects = objects_at(text, if frame.batch { 2 } else { 1 });
    frame
        .requests
        .iter()
        .enumerate()
        .map(|(j, request)| {
            let Some(members) = objects.get(j) else {
                return Seen::default();
            };
            let get = |key: &str| members.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
            Seen {
                id_echoed: get("id").and_then(unquote) == Some(request.id.as_str()),
                hash: get("scenario_hash")
                    .and_then(unquote)
                    .and_then(|h| u64::from_str_radix(h, 16).ok()),
                error: get("error").is_some_and(|v| v.starts_with('"')),
                cache_hit: get("cache_hit") == Some("true"),
                queue_depth: get("queue_depth").and_then(|v| v.parse().ok()),
                manifest: get("manifest")
                    .filter(|m| m.starts_with('{'))
                    .map(|m| (digest_of(m.as_bytes()), m.len())),
            }
        })
        .collect()
}

/// Drives `connections` closed-loop clients, each sending the
/// generator's next frame as soon as its previous reply is in, until
/// `window` has passed; returns every frame sent, in frame order, and
/// the seconds from the start to the last reply.
fn closed_loop(
    addr: SocketAddr,
    gen: &Mutex<SvcGen>,
    connections: usize,
    window: Duration,
) -> (Vec<Sent>, f64) {
    let start = Instant::now();
    let per_client: Vec<(Vec<Sent>, f64)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..connections)
            .map(|_| {
                scope.spawn(|| {
                    let mut sent = Vec::new();
                    let Ok(mut conn) = Conn::open(addr) else {
                        return (sent, 0.0);
                    };
                    while start.elapsed() < window {
                        let (k, frame) = {
                            let mut gen = gen.lock().expect("no client panics holding it");
                            (gen.frames(), gen.next_frame())
                        };
                        let (seconds, seen) = match conn.call(&wire(&frame.payload)) {
                            Ok((reply, seconds)) => (seconds, Some(capture(&reply, &frame))),
                            Err(_) => (0.0, None),
                        };
                        let failed = seen.is_none();
                        sent.push(Sent {
                            frame: k,
                            requests: frame.requests,
                            seconds,
                            seen,
                        });
                        if failed {
                            break;
                        }
                    }
                    (sent, start.elapsed().as_secs_f64())
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = per_client.iter().map(|(_, end)| *end).fold(0.0, f64::max);
    let mut sent: Vec<Sent> = per_client.into_iter().flat_map(|(s, _)| s).collect();
    sent.sort_by_key(|s| s.frame);
    (sent, elapsed)
}

/// The members of every object at nesting `depth` of a reply (1 for a
/// single reply, 2 for the elements of a batch), as raw key and value
/// slices, in order: manifests stay byte for byte as sent.
fn objects_at(text: &str, depth: usize) -> Vec<Vec<(&str, &str)>> {
    let bytes = text.as_bytes();
    let mut objects: Vec<Vec<(&str, &str)>> = Vec::new();
    let mut level = 0usize;
    let mut in_object = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                let end = string_end(bytes, i);
                let rest = text[end..].trim_start();
                if let (true, true, Some(after)) =
                    (level == depth, in_object, rest.strip_prefix(':'))
                {
                    let start = text.len() - after.trim_start().len();
                    let stop = value_end(bytes, start);
                    let key = &text[i + 1..end - 1];
                    if let Some(members) = objects.last_mut() {
                        members.push((key, &text[start..stop]));
                    }
                    i = stop;
                    continue;
                }
                i = end;
                continue;
            }
            open @ (b'{' | b'[') => {
                level += 1;
                if level == depth {
                    in_object = open == b'{';
                    if in_object {
                        objects.push(Vec::new());
                    }
                }
            }
            b'}' | b']' => level = level.saturating_sub(1),
            _ => {}
        }
        i += 1;
    }
    objects
}

/// Index just past the string literal starting at `start`.
fn string_end(bytes: &[u8], start: usize) -> usize {
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    bytes.len()
}

/// Index just past the JSON value starting at `start`.
fn value_end(bytes: &[u8], start: usize) -> usize {
    match bytes.get(start) {
        Some(b'"') => string_end(bytes, start),
        Some(b'{' | b'[') => {
            let mut level = 0usize;
            let mut i = start;
            while i < bytes.len() {
                match bytes[i] {
                    b'"' => {
                        i = string_end(bytes, i);
                        continue;
                    }
                    b'{' | b'[' => level += 1,
                    b'}' | b']' => {
                        level -= 1;
                        if level == 0 {
                            return i + 1;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            bytes.len()
        }
        _ => bytes[start..]
            .iter()
            .position(|&b| matches!(b, b',' | b'}' | b']') || b.is_ascii_whitespace())
            .map_or(bytes.len(), |n| start + n),
    }
}

/// A manifest the daemon served for one spec.
#[derive(Debug)]
struct ServedManifest {
    hash: ScenarioHash,
    digest: u64,
    bytes: usize,
    requests: u64,
}

/// What the replies showed, beyond pass/fail.
#[derive(Debug, Default)]
struct Served {
    /// Requests whose frame got a reply.
    answered: u64,
    /// Valid requests that were not batch-mates.
    leaders: u64,
    /// Of those, the ones the daemon served from its cache.
    hits: u64,
    /// Batch-mates.
    batch_mates: u64,
    /// Invalid requests.
    invalid: u64,
    /// `queue_depth` of every success reply.
    queue_depths: Vec<f64>,
    /// The manifest served for each spec.
    manifests: BTreeMap<SpecId, ServedManifest>,
}

/// Checks every reply against the stream: ids and hashes echoed, equal
/// specs served byte-identical manifests, invalid requests got errors.
fn check_replies(out: &mut Output, gen: &SvcGen, sent: &[Sent]) -> Served {
    let mut served = Served::default();
    let mut hashes = BTreeMap::new();
    for s in sent {
        let n = s.requests.len() as u64;
        out.attempt(n);
        let Some(seen) = &s.seen else {
            for _ in 0..n {
                out.fail(format!("frame {} got no reply", s.frame));
            }
            continue;
        };
        served.answered += n;
        for (request, seen) in s.requests.iter().zip(seen) {
            let spec = match request.expect {
                Expect::Error => {
                    served.invalid += 1;
                    out.check(seen.error, || {
                        format!("invalid request {} was not refused", request.id)
                    });
                    continue;
                }
                Expect::Manifest(spec) => spec,
            };
            let hash = *hashes.entry(spec).or_insert_with(|| match spec {
                SpecId::Hot(rank) => gen.hot()[rank].hash,
                SpecId::Cold(_) => gen.spec(spec).hash(),
            });
            let manifest = seen
                .manifest
                .filter(|_| seen.id_echoed && seen.hash == Some(hash.0));
            let Some((digest, bytes)) = manifest else {
                out.fail(format!("request {} got a wrong reply", request.id));
                continue;
            };
            if let Some(depth) = seen.queue_depth {
                served.queue_depths.push(depth);
            }
            if request.batch_mate {
                served.batch_mates += 1;
            } else {
                served.leaders += 1;
                served.hits += u64::from(seen.cache_hit);
            }
            let entry = served.manifests.entry(spec).or_insert(ServedManifest {
                hash,
                digest,
                bytes,
                requests: 0,
            });
            if entry.digest == digest {
                entry.requests += 1;
            } else {
                out.fail(format!(
                    "request {} got a manifest that differs from an earlier one for {hash}",
                    request.id
                ));
            }
        }
    }
    served
}

/// The manifest an in-process, single-threaded run renders for `spec`,
/// as the daemon embeds it.
fn reference_manifest(spec: &ScenarioSpec) -> String {
    CompiledScenario::compile(spec)
        .expect("stream specs are valid")
        .run_threads(1)
        .to_json()
        .trim_end()
        .to_owned()
}

/// Checks every served manifest against an in-process run and returns
/// the digest of the in-process manifests of the specs in `leading`.
fn check_against_reference(
    out: &mut Output,
    gen: &SvcGen,
    served: &Served,
    leading: &Stream,
) -> String {
    let wanted: BTreeMap<ScenarioHash, ScenarioSpec> = leading
        .frames
        .iter()
        .flat_map(|f| &f.requests)
        .filter_map(|r| match r.expect {
            Expect::Manifest(id) => {
                let spec = leading.gen.spec(id);
                Some((spec.hash(), spec))
            }
            Expect::Error => None,
        })
        .collect();
    let mut references = BTreeMap::new();
    for (&id, m) in &served.manifests {
        let reference = reference_manifest(&gen.spec(id));
        if digest_of(reference.as_bytes()) != m.digest {
            for _ in 0..m.requests {
                out.fail(format!(
                    "the daemon's manifest for {} differs from an in-process run",
                    m.hash
                ));
            }
        }
        if wanted.contains_key(&m.hash) {
            references.insert(m.hash, reference);
        }
    }
    let mut digest = Digest::default();
    for (hash, spec) in &wanted {
        let manifest = references
            .remove(hash)
            .unwrap_or_else(|| reference_manifest(spec));
        digest.u64(hash.0);
        digest.bytes(manifest.as_bytes());
    }
    digest.hex()
}

/// Spawns the daemon, sends one small request and reads the reply: the
/// service's set-up time as a user sees it.
fn time_setup(bin: &Path) -> Result<f64, String> {
    let started = Instant::now();
    let daemon = Daemon::spawn(bin)?;
    let mut conn = Conn::open(daemon.addr).map_err(|err| format!("cannot connect: {err}"))?;
    let (reply, _) = conn
        .call(&wire(SETUP_PROBE))
        .map_err(|err| format!("set-up probe failed: {err}"))?;
    let seconds = started.elapsed().as_secs_f64();
    if !String::from_utf8_lossy(&reply).contains("\"manifest\"") {
        return Err("set-up probe got no manifest".to_owned());
    }
    Ok(seconds)
}

/// The span naming the execute layer of a spec's workload kind.
fn execute_span(spec: &ScenarioSpec) -> &'static str {
    match spec.workload {
        WorkloadSpec::Gathering { .. } if spec.replications > 1 => "execute.replicated",
        WorkloadSpec::Gathering { .. } => "execute.gathering",
        WorkloadSpec::Lossy { .. } => "execute.lossy",
        WorkloadSpec::Cs1DutyCycle { .. } => "execute.cs1",
    }
}

/// Replays frame `k` in-process through the layers in the order
/// `Service::execute` calls them, one span per layer call; returns the
/// seconds it took and the simulated rounds it executed.
fn replay_frame(
    tracer: &mut Tracer,
    stream: &Stream,
    docs: &BTreeMap<ScenarioHash, String>,
    k: usize,
    cache: &ScenarioCache,
) -> (f64, u64) {
    let mut rounds = 0;
    tracer.set_request(k as u64);
    let started = Instant::now();
    let payload = &stream.frames[k].payload;
    let decoded = tracer.span("proto.decode", |_| decode_requests(payload));
    let reply = match decoded {
        Err(err) => tracer.span("proto.encode", |_| encode_frame_error(&err.to_string())),
        Ok(frame) => {
            let mut responses: Vec<Result<RunResponse, _>> = Vec::new();
            let mut executed: Vec<(ScenarioHash, usize)> = Vec::new();
            for (j, request) in frame.requests.iter().enumerate() {
                let hash = tracer.span("spec.hash", |_| request.spec.hash());
                let parsed =
                    tracer.span("spec.parse", |_| ScenarioSpec::from_json_str(&docs[&hash]));
                black_box(parsed.expect("canonical documents parse"));
                if let Some(&(_, leader)) = executed.iter().find(|&&(h, _)| h == hash) {
                    let led: &Result<RunResponse, _> = &responses[leader];
                    let mut mate = led.clone().expect("batch leaders are valid");
                    mate.id = request.id.clone();
                    mate.cache_hit = true;
                    responses.push(Ok(mate));
                    continue;
                }
                let (compiled, hit) = tracer
                    .span("cache.get_or_compile", |_| {
                        cache.get_or_compile(&request.spec)
                    })
                    .expect("decoded specs are valid");
                tracer.rename_last(if hit { "cache.lookup" } else { "compile" });
                let spec = compiled.spec();
                rounds += spec.rounds * u64::from(spec.replications);
                let manifest = tracer.span(execute_span(spec), |_| compiled.run_threads(1));
                let json = tracer.span("obs.render", |_| manifest.to_json());
                executed.push((hash, j));
                responses.push(Ok(RunResponse {
                    id: request.id.clone(),
                    scenario_hash: hash.to_string(),
                    cache_hit: hit,
                    compile_micros: 0,
                    queue_depth: 1,
                    manifest: json,
                }));
            }
            let ids: Vec<String> = frame.requests.iter().map(|r| r.id.clone()).collect();
            tracer.span("proto.encode", |_| {
                if frame.batch {
                    encode_responses(&responses, &ids)
                } else {
                    encode_response(&responses[0], &ids[0])
                }
            })
        }
    };
    black_box(reply);
    (started.elapsed().as_secs_f64(), rounds)
}

/// Replays `frames` in-process through `Service::submit`/`submit_batch`
/// as the server's connection handler does; returns the seconds per
/// frame, the executions and the requests submitted.
fn replay_service(tracer: &mut Tracer, stream: &Stream, frames: &[usize]) -> (Vec<f64>, u64, u64) {
    let service = Service::new(DAEMON_CACHE);
    let mut seconds = Vec::with_capacity(frames.len());
    let mut submitted = 0;
    for &k in frames {
        tracer.set_request(k as u64);
        let started = Instant::now();
        let reply = match decode_requests(&stream.frames[k].payload) {
            Err(err) => encode_frame_error(&err.to_string()),
            Ok(frame) => {
                submitted += frame.requests.len() as u64;
                let ids: Vec<String> = frame.requests.iter().map(|r| r.id.clone()).collect();
                if frame.batch {
                    let responses =
                        tracer.span("svc.submit", |_| service.submit_batch(&frame.requests));
                    encode_responses(&responses, &ids)
                } else {
                    let response =
                        tracer.span("svc.submit", |_| service.submit(&frame.requests[0]));
                    encode_response(&response, &ids[0])
                }
            }
        };
        black_box(reply);
        seconds.push(started.elapsed().as_secs_f64());
    }
    let executions = service
        .metrics()
        .child("requests")
        .and_then(|r| r.child("executions"))
        .map_or(0, |e| e.total());
    (seconds, executions, submitted)
}

/// Runs the workload.
///
/// # Errors
///
/// A message when the daemon binary is missing or will not start, or
/// the scenario templates cannot be read.
pub fn run(config: &RunConfig) -> Result<(Output, Tracer), String> {
    let bin = config
        .svcd
        .as_deref()
        .ok_or("svc_mix needs --svcd <path to ami_svcd>")?;
    let templates = load_templates(&config.root.join(TEMPLATE_DIR))?;
    let gen = Mutex::new(SvcGen::new(config.seed, &templates));
    let mut out = Output::new("svc_mix", config.trace);
    let mut tracer = Tracer::new(config.trace);

    let setups = (0..SETUPS)
        .map(|_| time_setup(bin))
        .collect::<Result<Vec<f64>, String>>()?;

    let daemon = Daemon::spawn(bin)?;
    let (sent, elapsed) = closed_loop(daemon.addr, &gen, CONNECTIONS, config.window);
    let rss = daemon.peak_rss_mib().unwrap_or(0.0);
    drop(daemon);
    let gen = gen.into_inner().expect("the clients have ended");

    // Output checks, outside the timed window.
    let served = check_replies(&mut out, &gen, &sent);
    let leading = svc_stream(config.seed, &templates, DIGEST_FRAMES);
    let digest = check_against_reference(&mut out, &gen, &served, &leading);

    let latencies_ms: Vec<f64> = sent
        .iter()
        .filter(|s| s.seen.is_some())
        .map(|s| 1e3 * s.seconds)
        .collect();
    let requests: u64 = sent.iter().map(|s| s.requests.len() as u64).sum();
    let setup_s = median(&setups).expect("set-up ran");
    let p50 = median(&latencies_ms).unwrap_or(0.0);
    let p99 = percentile(&latencies_ms, 0.99).unwrap_or(0.0);
    // The slowest tenth of round trips: mostly single study runs, whose
    // execution sets the tail. The slowest 1 % alone moved by up to 45 %
    // with bursts of host CPU contention, and the delayed-ACK stall puts
    // round trips on 4 ms timer ticks, so the p99 itself jumps a whole
    // tick between runs; it is still printed as `svc_p99_ms`.
    let tail = tail_mean(&latencies_ms, 0.90).unwrap_or(0.0);
    let req_per_s = served.answered as f64 / elapsed;
    out.note("seed", config.seed);
    out.note("cpus", cpus());
    out.note(
        "threads",
        format!("{CONNECTIONS} client threads; the daemon runs one per connection"),
    );
    out.note("connections", CONNECTIONS);
    out.note("frames attempted", sent.len());
    out.note("requests attempted", requests);
    out.note("latency samples", latencies_ms.len());
    out.note("mix parameters", svc_mix_parameters());
    out.note(
        "cache hit share (measured)",
        served.hits as f64 / served.leaders.max(1) as f64,
    );
    out.note(
        "batch-mate share",
        served.batch_mates as f64 / requests.max(1) as f64,
    );
    out.note(
        "invalid share",
        served.invalid as f64 / requests.max(1) as f64,
    );
    out.note(
        "agg.engaged_share",
        "unavailable (rounds run inside ami_svcd)",
    );
    out.note(
        "repairs per round",
        "unavailable (rounds run inside ami_svcd)",
    );
    out.note("distinct specs served", served.manifests.len());
    out.note("digest", digest);
    out.named("setup_s", setup_s, "s");
    out.named("svc_p50_ms", p50, "ms");
    out.named("svc_p99_ms", p99, "ms");
    out.named("svc_req_per_s", req_per_s, "1/s");
    out.named("peak_rss_mib", rss, "MiB");

    out.end_to_end("setup_s", setup_s);
    out.end_to_end("op_p50_ms", p50);
    out.end_to_end("op_tail_ms", tail);
    out.end_to_end("ops_per_s", req_per_s);
    out.end_to_end("peak_rss_mib", rss);

    if config.trace {
        let answered: Vec<&Sent> = sent
            .iter()
            .filter(|s| s.seen.is_some())
            .take(REPLAY_FRAMES)
            .collect();
        let frames: Vec<usize> = answered.iter().map(|s| s.frame).collect();
        let stream = svc_stream(config.seed, &templates, frames.last().map_or(0, |&k| k + 1));
        let docs: BTreeMap<ScenarioHash, String> = frames
            .iter()
            .flat_map(|&k| &stream.frames[k].requests)
            .filter_map(|r| match r.expect {
                Expect::Manifest(id) => {
                    let spec = stream.gen.spec(id);
                    Some((spec.hash(), spec.canonical_json()))
                }
                Expect::Error => None,
            })
            .collect();
        // The same frames in-process through the layers, twice and
        // interleaved frame by frame, alternating which pass goes first
        // so drift hits both alike: untraced on one cache, traced on
        // another, both of the daemon's size.
        let untraced_cache = ScenarioCache::new(DAEMON_CACHE);
        let cache = ScenarioCache::new(DAEMON_CACHE);
        let (mut traced, mut untraced, mut rounds) = (Vec::new(), Vec::new(), 0);
        let before = Counters::read();
        for (i, &k) in frames.iter().enumerate() {
            for traced_pass in [i % 2 == 0, i % 2 == 1] {
                tracer.set_enabled(traced_pass);
                if traced_pass {
                    let (seconds, r) = replay_frame(&mut tracer, &stream, &docs, k, &cache);
                    traced.push(seconds);
                    rounds += r;
                } else {
                    let (seconds, _) =
                        replay_frame(&mut tracer, &stream, &docs, k, &untraced_cache);
                    untraced.push(seconds);
                }
            }
        }
        tracer.set_enabled(true);
        let after = Counters::read();
        let (inproc, executions, submitted) = replay_service(&mut tracer, &stream, &frames);

        let tcp: Vec<f64> = answered.iter().map(|s| s.seconds).collect();
        let overhead: Vec<f64> = tcp
            .iter()
            .zip(&inproc)
            .map(|(t, i)| 1e6 * (t - i))
            .collect();
        let stats = cache.stats();
        let us = |name: &str| 1e6 * median(&tracer.durations(name)).unwrap_or(0.0);
        let ms = |name: &str| 1e3 * median(&tracer.durations(name)).unwrap_or(0.0);
        // Both passes ran the same frames on caches in the same state, so
        // the counters moved by exactly twice one pass.
        let engaged = (after.agg_engaged - before.agg_engaged) / 2;
        let fallback = (after.agg_fallback - before.agg_fallback) / 2;
        let repairs = (after.route_repairs - before.route_repairs) / 2;
        out.layer(
            "routing.builds",
            ((after.route_builds - before.route_builds) / 2) as f64,
        );
        out.layer("routing.repairs", repairs as f64);
        out.layer(
            "routing.repairs_per_round",
            repairs as f64 / rounds.max(1) as f64,
        );
        out.layer("agg.engaged", engaged as f64);
        out.layer("agg.fallback", fallback as f64);
        out.layer(
            "agg.engaged_share",
            engaged as f64 / (engaged + fallback).max(1) as f64,
        );
        out.layer("spec.parse_us", us("spec.parse"));
        out.layer("spec.hash_us", us("spec.hash"));
        out.layer("cache.lookup_us", us("cache.lookup"));
        out.layer("cache.hits", stats.hits as f64);
        out.layer("cache.misses", stats.misses as f64);
        out.layer("cache.evictions", stats.evictions as f64);
        out.layer(
            "cache.hit_share",
            stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
        );
        out.layer("compile.us", us("compile"));
        out.layer("execute.gathering_ms", ms("execute.gathering"));
        out.layer("execute.replicated_ms", ms("execute.replicated"));
        out.layer("execute.lossy_ms", ms("execute.lossy"));
        out.layer("execute.cs1_ms", ms("execute.cs1"));
        out.layer("obs.render_us", us("obs.render"));
        out.layer(
            "obs.manifest_bytes",
            mean(
                &served
                    .manifests
                    .values()
                    .map(|m| m.bytes as f64)
                    .collect::<Vec<_>>(),
            )
            .unwrap_or(0.0),
        );
        out.layer("proto.decode_us", us("proto.decode"));
        out.layer("proto.encode_us", us("proto.encode"));
        out.layer("svc.submit_us", us("svc.submit"));
        out.layer("server.overhead_us", median(&overhead).unwrap_or(0.0));
        out.layer(
            "svc.executions_per_request",
            executions as f64 / submitted.max(1) as f64,
        );
        out.layer(
            "svc.queue_depth_mean",
            mean(&served.queue_depths).unwrap_or(0.0),
        );
        out.layer("trace.overhead_share", overhead_share(&traced, &untraced));
        out.note(
            "in-process frame median",
            format!("{} us", 1e6 * median(&inproc).unwrap_or(0.0)),
        );
    }
    Ok((out, tracer))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_are_raw_and_depth_aware() {
        let single =
            r#"{"id":"a","cache_hit": true,"manifest":{"x": "}", "manifest": {"y": [1]}}}"#;
        assert_eq!(
            objects_at(single, 1),
            vec![vec![
                ("id", r#""a""#),
                ("cache_hit", "true"),
                ("manifest", r#"{"x": "}", "manifest": {"y": [1]}}"#),
            ]]
        );
        let batch = r#"[{"id":"a","manifest":{"k":1}},{"error":"no"},{"queue_depth":2}]"#;
        assert_eq!(
            objects_at(batch, 2),
            vec![
                vec![("id", r#""a""#), ("manifest", r#"{"k":1}"#)],
                vec![("error", r#""no""#)],
                vec![("queue_depth", "2")],
            ]
        );
    }
}
