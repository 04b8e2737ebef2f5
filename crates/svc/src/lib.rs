//! The batch simulation service: design-space-exploration requests in,
//! deterministic run manifests out.
//!
//! `ami-svc` fronts the [`ami_scenario`] engine with the "millions of
//! users" serving architecture the paper's ambient-intelligence vision
//! implies: scenario queries are *data*, compilation is amortized
//! behind a canonical-hash cache with single-flight dedup, and batches
//! of requests that share a compiled scenario execute it **once**.
//!
//! * [`Service`] — the in-process API: [`submit`](Service::submit) one
//!   [`RunRequest`], or [`submit_batch`](Service::submit_batch) many
//!   (identical specs collapse to one compile *and* one execution,
//!   which is sound because manifests are deterministic and
//!   thread-invariant);
//! * [`proto`] — the length-prefixed JSON frame format;
//! * [`server`] — a TCP server speaking [`proto`] frames, one thread
//!   per connection, all sharing one [`Service`].
//!
//! Every response carries per-request metrics — cache hit/miss, compile
//! time, queue depth at admission — *outside* the manifest, so the
//! deterministic artifact stays byte-identical however it was served.
//!
//! # Example
//!
//! ```
//! use ami_scenario::ScenarioSpec;
//! use ami_svc::{RunRequest, Service};
//!
//! let service = Service::new(8);
//! let spec = ScenarioSpec::from_json_str(r#"{
//!     "name": "svc-doc",
//!     "rounds": 5,
//!     "topology": {"kind": "grid", "side": 3, "spacing_m": 30.0},
//!     "workload": {"kind": "gathering", "strategy": "minimum_energy"}
//! }"#).unwrap();
//! let first = service.submit(&RunRequest::new("r1", spec.clone())).unwrap();
//! let second = service.submit(&RunRequest::new("r2", spec)).unwrap();
//! assert!(!first.cache_hit && second.cache_hit);
//! assert_eq!(first.manifest, second.manifest);
//! assert_eq!(service.cache_stats().compiles, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod proto;
pub mod server;

use ami_scenario::{CacheStats, ScenarioCache, ScenarioError, ScenarioSpec};
use ami_sim::obs::CounterTree;
use ami_sim::runner::thread_count;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Environment variable naming the address the service daemon binds
/// (`AMBIENCE_SVC_ADDR`, default `127.0.0.1:9377`).
pub const SVC_ADDR_ENV: &str = "AMBIENCE_SVC_ADDR";

/// The default daemon bind address.
pub const DEFAULT_ADDR: &str = "127.0.0.1:9377";

/// One DSE request: a scenario plus how to run it.
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// Caller-chosen request id, echoed in the response.
    pub id: String,
    /// The scenario to execute.
    pub spec: ScenarioSpec,
    /// Worker threads for this run; `None` takes the service's default,
    /// read from `AMBIENCE_THREADS` when the service was built. Only a
    /// replicated gathering study runs on more than one; every other
    /// workload runs on the connection's thread whatever this says. A
    /// count above the default runs on the default, so one request
    /// cannot start more threads than the service has. Results are
    /// thread-invariant either way.
    pub threads: Option<usize>,
}

impl RunRequest {
    /// A request running `spec` at the ambient thread count.
    pub fn new(id: impl Into<String>, spec: ScenarioSpec) -> Self {
        Self {
            id: id.into(),
            spec,
            threads: None,
        }
    }
}

/// The service's answer to one request: the deterministic manifest plus
/// serving metrics that live outside it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResponse {
    /// The request id, echoed.
    pub id: String,
    /// Canonical scenario hash (16 hex digits).
    pub scenario_hash: String,
    /// True when the compiled artifact came from the cache (including
    /// batch-mates of a compiling request).
    pub cache_hit: bool,
    /// Wall-clock microseconds spent compiling, zero on a hit.
    pub compile_micros: u64,
    /// Requests in flight when this one was admitted (including it).
    pub queue_depth: u64,
    /// The rendered [`RunManifest`](ami_sim::obs::RunManifest) JSON —
    /// byte-identical for equal specs, whatever the serving path.
    pub manifest: String,
}

/// The long-lived batch service. Cheap to share behind an `Arc`; all
/// methods take `&self`.
#[derive(Debug)]
pub struct Service {
    cache: ScenarioCache,
    /// Workers for a request that names none: [`thread_count`], resolved
    /// once when the service is built.
    default_threads: usize,
    requests: AtomicU64,
    batches: AtomicU64,
    executions: AtomicU64,
    in_flight: AtomicU64,
}

impl Service {
    /// A service whose compile cache holds `cache_capacity` scenarios.
    /// The worker count for requests that name none is read from
    /// `AMBIENCE_THREADS` here, once, so a bad value fails the start-up
    /// instead of every such request.
    ///
    /// # Panics
    ///
    /// Panics if `cache_capacity` is zero, or if `AMBIENCE_THREADS` is
    /// set but not an integer >= 1.
    pub fn new(cache_capacity: usize) -> Self {
        Self {
            cache: ScenarioCache::new(cache_capacity),
            default_threads: thread_count(),
            requests: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            executions: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
        }
    }

    /// Executes one request.
    ///
    /// # Errors
    ///
    /// [`ScenarioError`] when the spec fails validation, or
    /// [`ScenarioError::Unavailable`] when the compile cache's lock was
    /// poisoned; nothing is cached or executed in either case.
    pub fn submit(&self, request: &RunRequest) -> Result<RunResponse, ScenarioError> {
        let admitted = InFlight::admit(&self.in_flight);
        self.execute(request, admitted.depth)
    }

    /// Executes a batch, collapsing requests with equal canonical JSON
    /// to **one compile and one execution**; every batch-mate gets the
    /// identical manifest. Responses come back in request order, each
    /// spec failing validation on its own.
    pub fn submit_batch(&self, requests: &[RunRequest]) -> Vec<Result<RunResponse, ScenarioError>> {
        self.batches.fetch_add(1, Ordering::Relaxed);
        let admitted = InFlight::admit(&self.in_flight);
        let depth = admitted.depth;
        let mut responses: Vec<Option<Result<RunResponse, ScenarioError>>> =
            (0..requests.len()).map(|_| None).collect();
        // (canonical JSON, index of the request that ran it): equal
        // hashes alone would not prove equal specs.
        let mut executed: Vec<(String, usize)> = Vec::new();
        for (k, request) in requests.iter().enumerate() {
            if request.spec.validate().is_err() {
                responses[k] = Some(self.execute(request, depth));
                continue;
            }
            let canonical = request.spec.canonical_json();
            if let Some(&(_, leader)) = executed.iter().find(|(c, _)| *c == canonical) {
                let led = responses[leader]
                    .as_ref()
                    .expect("leader executed before its batch-mates");
                // A validated leader fails only when the cache is
                // unavailable; its batch-mates share the error.
                responses[k] = Some(led.as_ref().map_err(Clone::clone).map(|led| RunResponse {
                    id: request.id.clone(),
                    cache_hit: true,
                    compile_micros: 0,
                    ..led.clone()
                }));
                continue;
            }
            responses[k] = Some(self.execute(request, depth));
            executed.push((canonical, k));
        }
        drop(admitted);
        responses
            .into_iter()
            .map(|slot| slot.expect("every batch slot is filled"))
            .collect()
    }

    fn execute(&self, request: &RunRequest, depth: u64) -> Result<RunResponse, ScenarioError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let (compiled, cache_hit) = self.cache.get_or_compile(&request.spec)?;
        let compile_micros = if cache_hit {
            0
        } else {
            started.elapsed().as_micros() as u64
        };
        let threads = self.threads_for(request);
        self.executions.fetch_add(1, Ordering::Relaxed);
        let manifest = compiled.run_threads(threads).to_json();
        Ok(RunResponse {
            id: request.id.clone(),
            scenario_hash: compiled.hash().to_string(),
            cache_hit,
            compile_micros,
            queue_depth: depth,
            manifest,
        })
    }

    /// The workers `request` runs on: the count it names, within
    /// `[1, default_threads]`, or the default when it names none.
    fn threads_for(&self, request: &RunRequest) -> usize {
        request
            .threads
            .unwrap_or(self.default_threads)
            .clamp(1, self.default_threads)
    }

    /// Compile-cache counters (hits, misses, compiles, evictions,
    /// single-flight waits).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The service counters as an [`ami_sim::obs`] counter tree, for
    /// embedding in monitoring manifests.
    pub fn metrics(&self) -> CounterTree {
        let cache = self.cache.stats();
        CounterTree::branch([
            (
                "requests",
                CounterTree::branch([
                    (
                        "total",
                        CounterTree::leaf(self.requests.load(Ordering::Relaxed)),
                    ),
                    (
                        "batches",
                        CounterTree::leaf(self.batches.load(Ordering::Relaxed)),
                    ),
                    (
                        "executions",
                        CounterTree::leaf(self.executions.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
            (
                "cache",
                CounterTree::branch([
                    ("compiles", CounterTree::leaf(cache.compiles)),
                    ("hits", CounterTree::leaf(cache.hits)),
                    ("misses", CounterTree::leaf(cache.misses)),
                    ("evictions", CounterTree::leaf(cache.evictions)),
                    ("coalesced", CounterTree::leaf(cache.coalesced)),
                ]),
            ),
        ])
    }
}

/// One admitted request (or batch) in the service's in-flight count:
/// raised on admission, lowered on drop, so a run that panics still
/// leaves the count where it found it.
struct InFlight<'a> {
    count: &'a AtomicU64,
    /// The in-flight count at admission, this request included.
    depth: u64,
}

impl<'a> InFlight<'a> {
    fn admit(count: &'a AtomicU64) -> Self {
        let depth = count.fetch_add(1, Ordering::SeqCst) + 1;
        Self { count, depth }
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.count.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn spec(rounds: u64) -> ScenarioSpec {
        ScenarioSpec::from_json_str(&format!(
            r#"{{
                "name": "svc-test",
                "rounds": {rounds},
                "topology": {{"kind": "grid", "side": 3, "spacing_m": 30.0}},
                "workload": {{"kind": "gathering", "strategy": "minimum_energy"}}
            }}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_requests_share_one_compile() {
        let service = Service::new(4);
        let a = service.submit(&RunRequest::new("a", spec(5))).unwrap();
        let b = service.submit(&RunRequest::new("b", spec(5))).unwrap();
        assert!(!a.cache_hit && b.cache_hit);
        assert_eq!(a.manifest, b.manifest);
        assert_eq!(a.scenario_hash, b.scenario_hash);
        assert_eq!(b.compile_micros, 0);
        assert_eq!(service.cache_stats().compiles, 1);
    }

    #[test]
    fn a_poisoned_cache_answers_with_errors_not_panics() {
        let service = Service::new(4);
        service.submit(&RunRequest::new("warm", spec(5))).unwrap();
        service.cache.poison();
        let err = service
            .submit(&RunRequest::new("r1", spec(5)))
            .expect_err("a poisoned cache cannot serve");
        assert!(matches!(err, ScenarioError::Unavailable(_)), "{err:?}");
        // Batch-mates of a failed leader share its error.
        let batch = service.submit_batch(&[
            RunRequest::new("b1", spec(6)),
            RunRequest::new("b2", spec(6)),
        ]);
        assert!(batch
            .iter()
            .all(|r| matches!(r, Err(ScenarioError::Unavailable(_)))));
        // The daemon's reply is an error frame.
        let reply = proto::encode_response(&Err(err), "r1");
        assert!(
            reply.contains("\"error\":\"scenario cache unavailable"),
            "{reply}"
        );
    }

    #[test]
    fn batch_collapses_duplicates_to_one_execution() {
        let service = Service::new(4);
        let requests = vec![
            RunRequest::new("r1", spec(5)),
            RunRequest::new("r2", spec(6)),
            RunRequest::new("r3", spec(5)),
        ];
        let responses = service.submit_batch(&requests);
        let ok: Vec<&RunResponse> = responses.iter().map(|r| r.as_ref().unwrap()).collect();
        assert_eq!(ok[0].manifest, ok[2].manifest);
        assert_ne!(ok[0].manifest, ok[1].manifest);
        assert!(ok[2].cache_hit, "batch-mate rides the leader's run");
        assert_eq!(ok[2].id, "r3");
        assert_eq!(service.cache_stats().compiles, 2);
        // Two distinct hashes → two executions, not three.
        assert_eq!(service.executions.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn invalid_specs_fail_individually_inside_a_batch() {
        let service = Service::new(4);
        let mut bad = spec(5);
        bad.rounds = 0;
        let responses = service.submit_batch(&[
            RunRequest::new("good", spec(5)),
            RunRequest::new("bad", bad),
        ]);
        assert!(responses[0].is_ok());
        assert!(responses[1].is_err());
    }

    #[test]
    fn undrawable_fault_durations_fail_every_submit() {
        // Were such a spec to pass validation, compile would panic
        // inside the cache's claimed in-flight slot, and an identical
        // second request would wait on that slot forever.
        let service = Service::new(4);
        let mut bad = spec(5);
        bad.faults = Some("outage=0.2:0".into());
        for id in ["first", "second"] {
            let err = service
                .submit(&RunRequest::new(id, bad.clone()))
                .unwrap_err();
            assert!(err.to_string().contains("duration"), "{id}: {err}");
        }
        assert_eq!(service.cache_stats().misses, 0);
    }

    #[test]
    fn a_panic_while_admitted_leaves_the_in_flight_count_unchanged() {
        let service = Service::new(4);
        let outer = InFlight::admit(&service.in_flight);
        assert_eq!(outer.depth, 1);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let inner = InFlight::admit(&service.in_flight);
            assert_eq!(inner.depth, 2);
            panic!("a run panicked");
        }));
        assert!(unwound.is_err());
        assert_eq!(service.in_flight.load(Ordering::SeqCst), 1);
        drop(outer);
        assert_eq!(service.in_flight.load(Ordering::SeqCst), 0);
        let next = service.submit(&RunRequest::new("next", spec(5))).unwrap();
        assert_eq!(next.queue_depth, 1);
    }

    #[test]
    fn a_request_runs_on_at_most_the_services_threads() {
        let service = Service {
            default_threads: 3,
            ..Service::new(4)
        };
        let mut request = RunRequest::new("r", spec(5));
        assert_eq!(service.threads_for(&request), 3);
        for (named, runs) in [(0, 1), (1, 1), (2, 2), (3, 3), (4, 3), (4096, 3)] {
            request.threads = Some(named);
            assert_eq!(service.threads_for(&request), runs, "{named} named");
        }
    }

    #[test]
    fn thread_choice_does_not_change_the_manifest() {
        // A request on the service's three default workers must render
        // what one worker does: a lossy run, which ignores the count,
        // and a replicated study, which splits its replications.
        let service = Service {
            default_threads: 3,
            ..Service::new(4)
        };
        for workload in [
            r#""topology": {"kind": "grid", "side": 4, "spacing_m": 30.0},
                "workload": {"kind": "lossy", "ber": 0.001, "arq_attempts": 4}"#,
            r#""replications": 3,
                "topology": {"kind": "random", "nodes": 8, "field_m": 80.0},
                "workload": {"kind": "gathering", "strategy": "minimum_energy"}"#,
        ] {
            let spec = ScenarioSpec::from_json_str(&format!(
                r#"{{"name": "svc-threads", "rounds": 8, {workload}}}"#
            ))
            .unwrap();
            let mut one = RunRequest::new("one", spec.clone());
            one.threads = Some(1);
            let default = RunRequest::new("default", spec);
            let a = service.submit(&one).unwrap();
            let b = service.submit(&default).unwrap();
            assert_eq!(a.manifest, b.manifest, "{workload}");
        }
    }
}
