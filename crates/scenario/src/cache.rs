//! The bounded compile cache: LRU over canonical hashes, with
//! single-flight deduplication of concurrent compilations.
//!
//! [`ScenarioCache::get_or_compile`] is the only way work enters the
//! engine. Requests whose specs canonicalize to the same
//! [`ScenarioHash`] share one
//! `Arc<CompiledScenario>`; when several arrive while that artifact is
//! still being compiled, exactly **one** thread compiles and the rest
//! block on a condvar until the slot flips from in-flight to ready
//! (single-flight). Ready entries are evicted least-recently-used once
//! the cache exceeds its capacity; in-flight slots are never evicted.
//!
//! Validation happens *before* a slot is claimed, so compilation inside
//! the cache cannot fail for spec reasons. A claimed slot always
//! resolves all the same: if the compile returns an error or unwinds,
//! the claim's guard removes the slot and wakes the waiters, which find
//! no entry and claim the compile themselves — nobody blocks on an
//! abandoned entry.
//!
//! Equal hashes only make equal specs likely (FNV-1a collisions are
//! cheap to construct), so every hit also compares the request's
//! canonical JSON with the artifact's. A spec whose hash collides with
//! a cached one is compiled and served without touching the cache.
//!
//! # Example
//!
//! ```
//! use ami_scenario::{ScenarioCache, ScenarioSpec};
//!
//! let cache = ScenarioCache::new(4);
//! let spec = ScenarioSpec::from_json_str(r#"{
//!     "name": "doc-cache",
//!     "rounds": 5,
//!     "topology": {"kind": "grid", "side": 3, "spacing_m": 30.0},
//!     "workload": {"kind": "gathering", "strategy": "minimum_energy"}
//! }"#).unwrap();
//! let (first, hit) = cache.get_or_compile(&spec).unwrap();
//! assert!(!hit);
//! let (second, hit) = cache.get_or_compile(&spec).unwrap();
//! assert!(hit);
//! assert!(std::sync::Arc::ptr_eq(&first, &second));
//! assert_eq!(cache.stats().compiles, 1);
//! ```

use crate::compile::CompiledScenario;
use crate::spec::{ScenarioError, ScenarioHash, ScenarioSpec};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Counters describing cache behavior since construction. Monotonic;
/// read them via [`ScenarioCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Specs actually compiled (cache misses that did the work).
    pub compiles: u64,
    /// Requests served from a ready entry.
    pub hits: u64,
    /// Requests not served from the cache: they found no entry and
    /// claimed the compile, or found another spec under their hash and
    /// compiled uncached.
    pub misses: u64,
    /// Ready entries evicted by the LRU bound.
    pub evictions: u64,
    /// Requests that waited on another thread's in-flight compile
    /// (the single-flight path).
    pub coalesced: u64,
}

enum Slot {
    /// Some thread is compiling; waiters block on the condvar.
    InFlight,
    /// The artifact, with its LRU stamp.
    Ready {
        artifact: Arc<CompiledScenario>,
        last_used: u64,
    },
}

struct CacheState {
    slots: HashMap<u64, Slot>,
    /// Logical clock for LRU stamps.
    tick: u64,
}

/// A bounded, thread-safe compile cache. See the [module docs](self).
pub struct ScenarioCache {
    capacity: usize,
    state: Mutex<CacheState>,
    ready: Condvar,
    compiles: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    coalesced: AtomicU64,
}

impl std::fmt::Debug for ScenarioCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ScenarioCache {
    /// A cache holding at most `capacity` ready artifacts.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a scenario cache needs capacity >= 1");
        Self {
            capacity,
            state: Mutex::new(CacheState {
                slots: HashMap::new(),
                tick: 0,
            }),
            ready: Condvar::new(),
            compiles: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns the compiled artifact for `spec` and whether it was a
    /// cache hit, compiling at most once per canonical hash however
    /// many threads ask concurrently. A hit is served only when the
    /// cached artifact's canonical JSON equals `spec`'s.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Spec`] when validation rejects the spec (before
    /// any slot is claimed); [`ScenarioError::Unavailable`] when a
    /// thread panicked while holding the cache's lock (a panicking
    /// compile does not: it runs outside the lock).
    pub fn get_or_compile(
        &self,
        spec: &ScenarioSpec,
    ) -> Result<(Arc<CompiledScenario>, bool), ScenarioError> {
        spec.validate()?;
        let canonical = spec.canonical_json();
        let hash = ScenarioHash::of(canonical.as_bytes()).0;
        self.get_or_compile_at(hash, spec, canonical, CompiledScenario::lower)
    }

    /// [`get_or_compile`](Self::get_or_compile) for a validated `spec`
    /// and its canonical JSON, under slot key `hash`, compiling with
    /// `compile` — unit tests force hashes to collide and compiles to
    /// fail.
    fn get_or_compile_at(
        &self,
        hash: u64,
        spec: &ScenarioSpec,
        canonical: String,
        compile: impl FnOnce(&ScenarioSpec, String) -> Result<Arc<CompiledScenario>, ScenarioError>,
    ) -> Result<(Arc<CompiledScenario>, bool), ScenarioError> {
        {
            enum Action {
                Hit(Arc<CompiledScenario>),
                Wait,
                Claim,
            }
            let mut state = self.state.lock().map_err(|_| poisoned())?;
            let mut waited = false;
            loop {
                let action = match state.slots.get(&hash) {
                    Some(Slot::Ready { artifact, .. }) => Action::Hit(artifact.clone()),
                    Some(Slot::InFlight) => Action::Wait,
                    None => Action::Claim,
                };
                match action {
                    Action::Hit(artifact) if artifact.canonical_json() != canonical => {
                        // Another spec owns this hash: compile this one
                        // outside the cache, leaving the slot alone.
                        drop(state);
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        let artifact = compile(spec, canonical)?;
                        self.compiles.fetch_add(1, Ordering::Relaxed);
                        return Ok((artifact, false));
                    }
                    Action::Hit(artifact) => {
                        state.tick += 1;
                        let tick = state.tick;
                        if let Some(Slot::Ready { last_used, .. }) = state.slots.get_mut(&hash) {
                            *last_used = tick;
                        }
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok((artifact, true));
                    }
                    Action::Wait => {
                        if !waited {
                            waited = true;
                            self.coalesced.fetch_add(1, Ordering::Relaxed);
                        }
                        state = self.ready.wait(state).map_err(|_| poisoned())?;
                    }
                    Action::Claim => {
                        state.slots.insert(hash, Slot::InFlight);
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                }
            }
        }
        // Compile outside the lock. The claim resolves the slot when it
        // drops: ready on success, removed if the compile returns an
        // error or unwinds.
        let mut claim = Claim {
            cache: self,
            hash,
            artifact: None,
        };
        let artifact = compile(spec, canonical)?;
        self.compiles.fetch_add(1, Ordering::Relaxed);
        claim.artifact = Some(artifact.clone());
        drop(claim);
        Ok((artifact, false))
    }

    /// Evicts least-recently-used ready entries until at most
    /// `capacity` remain; never evicts in-flight slots or `keep`.
    fn evict_over_capacity(&self, state: &mut CacheState, keep: u64) {
        loop {
            let ready_count = state
                .slots
                .values()
                .filter(|slot| matches!(slot, Slot::Ready { .. }))
                .count();
            if ready_count <= self.capacity {
                return;
            }
            let victim = state
                .slots
                .iter()
                .filter_map(|(&h, slot)| match slot {
                    Slot::Ready { last_used, .. } if h != keep => Some((h, *last_used)),
                    _ => None,
                })
                .min_by_key(|&(_, stamp)| stamp)
                .map(|(h, _)| h);
            match victim {
                Some(h) => {
                    state.slots.remove(&h);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                // Only `keep` and in-flight slots remain; capacity 1
                // with the fresh entry lands here.
                None => return,
            }
        }
    }

    /// A snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            compiles: self.compiles.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
        }
    }

    /// Number of ready artifacts currently held (read through a
    /// poisoned lock: counting cannot make its state worse).
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .slots
            .values()
            .filter(|slot| matches!(slot, Slot::Ready { .. }))
            .count()
    }

    /// True when no ready artifact is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Poisons the cache's lock the way a thread panicking inside the
    /// cache's bookkeeping would, so callers can test their handling of
    /// [`ScenarioError::Unavailable`] (feature `test-hooks`).
    #[cfg(any(test, feature = "test-hooks"))]
    pub fn poison(&self) {
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _guard = self.state.lock();
                panic!("poisoning the scenario cache");
            });
            assert!(holder.join().is_err(), "the lock holder panics");
        });
    }
}

/// The error a poisoned cache lock turns into.
fn poisoned() -> ScenarioError {
    ScenarioError::Unavailable("a thread panicked while holding the cache lock".into())
}

/// A claimed in-flight slot, resolved when the claim drops: to the
/// artifact once the compile has stored one, otherwise — an error
/// return or an unwind — by removing the slot. Either way the waiters
/// are woken.
struct Claim<'c> {
    cache: &'c ScenarioCache,
    hash: u64,
    artifact: Option<Arc<CompiledScenario>>,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let cache = self.cache;
        // Never panic here: this may run during an unwind.
        let mut state = cache.state.lock().unwrap_or_else(PoisonError::into_inner);
        match self.artifact.take() {
            Some(artifact) => {
                state.tick += 1;
                let last_used = state.tick;
                state.slots.insert(
                    self.hash,
                    Slot::Ready {
                        artifact,
                        last_used,
                    },
                );
                cache.evict_over_capacity(&mut state, self.hash);
            }
            None => {
                state.slots.remove(&self.hash);
            }
        }
        drop(state);
        cache.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    fn spec(name: &str, rounds: u64) -> ScenarioSpec {
        ScenarioSpec::from_json_str(&format!(
            r#"{{
                "name": "{name}",
                "rounds": {rounds},
                "topology": {{"kind": "grid", "side": 3, "spacing_m": 30.0}},
                "workload": {{"kind": "gathering", "strategy": "minimum_energy"}}
            }}"#
        ))
        .unwrap()
    }

    #[test]
    fn hit_returns_the_same_arc() {
        let cache = ScenarioCache::new(2);
        let (a, hit_a) = cache.get_or_compile(&spec("a", 5)).unwrap();
        let (b, hit_b) = cache.get_or_compile(&spec("a", 5)).unwrap();
        assert!(!hit_a && hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.compiles, stats.hits, stats.misses), (1, 1, 1));
    }

    #[test]
    fn invalid_specs_never_claim_a_slot() {
        let cache = ScenarioCache::new(2);
        let mut bad = spec("bad", 5);
        bad.rounds = 0;
        assert!(cache.get_or_compile(&bad).is_err());
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 0);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = ScenarioCache::new(2);
        cache.get_or_compile(&spec("a", 5)).unwrap();
        cache.get_or_compile(&spec("b", 5)).unwrap();
        // Touch `a` so `b` is the LRU victim.
        let (_, hit) = cache.get_or_compile(&spec("a", 5)).unwrap();
        assert!(hit);
        cache.get_or_compile(&spec("c", 5)).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        let (_, hit_a) = cache.get_or_compile(&spec("a", 5)).unwrap();
        assert!(hit_a, "a was kept");
        let (_, hit_b) = cache.get_or_compile(&spec("b", 5)).unwrap();
        assert!(!hit_b, "b was evicted and recompiled");
    }

    #[test]
    fn colliding_hashes_never_serve_another_specs_artifact() {
        let cache = ScenarioCache::new(4);
        let (a, b) = (spec("a", 5), spec("b", 5));
        let forced = |s: &ScenarioSpec| {
            cache.get_or_compile_at(7, s, s.canonical_json(), CompiledScenario::lower)
        };
        let (first, hit) = forced(&a).unwrap();
        assert!(!hit);
        // `b` lands on `a`'s slot: it must get its own artifact, uncached.
        let (other, hit) = forced(&b).unwrap();
        assert!(!hit);
        assert_eq!(other.canonical_json(), b.canonical_json());
        assert_eq!(other.hash(), b.hash());
        // `a` still owns the slot and still hits it.
        let (again, hit) = forced(&a).unwrap();
        assert!(hit && Arc::ptr_eq(&first, &again));
        let stats = cache.stats();
        assert_eq!((stats.compiles, stats.hits, stats.misses), (2, 1, 2));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_identical_requests_compile_once() {
        let cache = Arc::new(ScenarioCache::new(4));
        let shared = spec("conc", 40);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let shared = shared.clone();
                scope.spawn(move || {
                    let (artifact, _) = cache.get_or_compile(&shared).unwrap();
                    assert_eq!(artifact.hash(), shared.hash());
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.compiles, 1, "single-flight");
        assert_eq!(stats.misses, 1);
        // Every other thread is served the ready artifact, whether it
        // arrived before (coalesced wait) or after the compile landed.
        assert_eq!(stats.hits, 7);
    }

    #[test]
    fn a_poisoned_lock_is_an_error_not_a_panic() {
        let cache = ScenarioCache::new(2);
        cache.get_or_compile(&spec("before", 5)).unwrap();
        cache.poison();
        assert!(matches!(
            cache.get_or_compile(&spec("after", 5)),
            Err(ScenarioError::Unavailable(_))
        ));
        // A hit needs the lock too.
        assert!(matches!(
            cache.get_or_compile(&spec("before", 5)),
            Err(ScenarioError::Unavailable(_))
        ));
        // Invalid specs are still rejected before the lock is taken.
        let mut bad = spec("bad", 5);
        bad.rounds = 0;
        assert!(matches!(
            cache.get_or_compile(&bad),
            Err(ScenarioError::Spec(_))
        ));
        assert_eq!(cache.len(), 1, "len reads through the poison");
    }

    #[test]
    fn a_compile_error_releases_its_slot() {
        let cache = ScenarioCache::new(2);
        let s = spec("fails", 5);
        let injected =
            |_: &ScenarioSpec, _: String| -> Result<Arc<CompiledScenario>, ScenarioError> {
                Err(ScenarioError::Spec("injected compile failure".into()))
            };
        assert!(cache
            .get_or_compile_at(7, &s, s.canonical_json(), injected)
            .is_err());
        assert!(
            cache.state.lock().unwrap().slots.is_empty(),
            "no slot left in flight"
        );
        // The next request claims the slot afresh and compiles.
        let (artifact, hit) = cache
            .get_or_compile_at(7, &s, s.canonical_json(), CompiledScenario::lower)
            .unwrap();
        assert!(!hit);
        assert_eq!(artifact.canonical_json(), s.canonical_json());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_panicking_compile_releases_its_waiters() {
        let cache = Arc::new(ScenarioCache::new(2));
        let s = spec("panics", 5);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let failing = {
            let (cache, s) = (Arc::clone(&cache), s.clone());
            std::thread::spawn(move || {
                cache.get_or_compile_at(7, &s, s.canonical_json(), |_, _| {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    panic!("injected compile panic");
                })
            })
        };
        started_rx.recv().unwrap();

        // A second request for the same slot waits on the in-flight
        // compile. Its result comes back over a channel with a timeout,
        // so a stuck slot fails the test instead of hanging it.
        let (done_tx, done_rx) = mpsc::channel();
        let waiter = {
            let (cache, s) = (Arc::clone(&cache), s.clone());
            std::thread::spawn(move || {
                let result =
                    cache.get_or_compile_at(7, &s, s.canonical_json(), CompiledScenario::lower);
                done_tx.send(result.map(|(_, hit)| hit)).unwrap();
            })
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        while cache.stats().coalesced == 0 {
            assert!(Instant::now() < deadline, "the second request never waited");
            std::thread::yield_now();
        }

        release_tx.send(()).unwrap();
        assert!(failing.join().is_err(), "the injected compile panics");
        let hit = done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the waiter is released when the compile unwinds");
        waiter.join().expect("the waiter finished cleanly");
        assert!(!hit.unwrap(), "the waiter compiled the spec itself");
        assert_eq!(cache.stats().compiles, 1);
        assert_eq!(cache.len(), 1);
    }
}
