//! The lossy/ARQ round driver: chunk-parallel rounds, bit-identical at
//! any worker count.
//!
//! The seed-partitioned runner parallelizes *across* replications; a
//! single city-scale run still pinned one core. This module is the one
//! loop every [`LossySession`](crate::LossySession) round runs through.
//! It splits each round's sources, in the route cache's heavy-path
//! image order, into one equal contiguous chunk of image positions per
//! worker, walks the first on the calling thread and the others under
//! one [`std::thread::scope`] per round, and commits after the join in
//! a **fixed deterministic reduction order**: ascending node id, read
//! back through the image. A one-worker run walks each round as a
//! single chunk on the calling thread and opens no scope.
//!
//! [`LossySession::run_faulted_with`](crate::LossySession::run_faulted_with)
//! picks the worker count per run; the driver is crate-private over
//! the session's run state, so it has no entry point of its own. Every
//! chunk runs the same walk: it offers the source at each of its
//! positions in turn, so consecutive packets start on neighbouring
//! positions and reuse the route the previous packet just walked; it
//! counts attempts by image position into a tally of the run state's
//! own type, and writes each packet's energy subtotal into the packet's
//! slot, one per position. The first chunk walks into the state's
//! tally; the round commit absorbs every other chunk's into it. On
//! faulted runs the walks read the round core's hop-fault mask, which
//! `begin_round` fills on the calling thread before the fan-out, so the
//! workers share it read-only and query no fault timeline.
//!
//! Chunks are equal in positions, not in work: a lossy source costs its
//! route length times its ARQ attempts. The positions of a subtree are
//! contiguous, so a chunk's walks also touch the positions of their
//! ancestors, which lie before the chunk. One scoped spawn and join
//! costs 45–51 µs per round on a 2-vCPU KVM guest, about 30 µs more
//! than a persistent crew's two barrier crossings: about 0.1 % of a
//! two-worker fault-free round at 10⁵ nodes (35 ms), so a crew would
//! buy nothing measurable.
//!
//! # Why the result is bit-identical
//!
//! The driver needs no rollback machinery: the lossy model has no
//! energy budgets, so there is no cross-packet coupling and no margin
//! to check. Every packet draws
//! from its own counter stream ([`ami_sim::rng::packet_rng`]) and its
//! fate depends only on round-constant state, so chunk walks commute
//! and every round commits. The commit replays the folds of one walk in
//! ascending source id: after the join, one pass over the image's `pos`
//! adds each source's energy slot to the run total in ascending id, and
//! the ledger charges per `(node, category)` come from exactly merged
//! integer attempt counts, read back through `pos` the same way. The
//! differential suite pins every worker count at 1/2/5/8 threads across
//! random fault schedules against the one-worker run, and both against
//! an id-order reference round.
//!
//! # Why gathering runs stay serial
//!
//! The budgeted gathering kernel had a region-parallel engine too:
//! optimistic rounds validated after the fact by an energy margin, and
//! rolled back to the serial phase when a budget could hit zero
//! mid-round. It was deleted because it measured no faster than the
//! serial aggregated kernel ([`crate::agg`]). On a 2-vCPU Xeon KVM
//! guest, the faulted n = 10⁵ gathering runs of the `city_faulted`
//! benchmark took 1.23–1.33 s on two workers against 1.25 s serial,
//! while this lossy engine took 0.90–1.05 s against 1.58 s serial.
//! Gathering runs use the serial aggregated kernel at every thread
//! count.
//!
//! # When parallelism cannot pay
//!
//! The per-round spawn, the split and the join are pure overhead on
//! small runs, so every lossy session run first checks a cheap
//! nodes-per-worker floor ([`PAR_MIN_NODES_PER_WORKER`], overridable
//! per thread) and runs on one worker when the run is too small or has
//! one worker to begin with — bit-identical results either way,
//! observable only through
//! [`par_serial_fallback_count`]/[`par_engaged_count`].

use crate::lossy::{LossyRoundCtx, LossyState, LossyTally};
use ami_sim::obs::Recorder;
use std::cell::Cell;
use std::panic::resume_unwind;

/// Default floor on nodes-per-worker below which a lossy session run
/// walks each round as one chunk instead of fanning out: below it the
/// per-round spawn, split and join overhead outweighs the work.
/// Alternating serial and 2-worker session runs on a 2-vCPU KVM guest
/// had two workers lose at n = 10⁴ (0.86× fault-free, 0.96× faulted),
/// win fault-free runs and break even on faulted ones from 4×10⁴, and
/// win both at 10⁵; so two workers engage from 4×10⁴ nodes. Results are
/// bit-identical either way — the chunk split is invisible in every
/// fold — so the threshold is purely a performance heuristic.
pub const PAR_MIN_NODES_PER_WORKER: usize = 20_000;

thread_local! {
    static PAR_MIN_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    static PAR_FALLBACKS: Cell<u64> = const { Cell::new(0) };
    static PAR_ENGAGED: Cell<u64> = const { Cell::new(0) };
}

/// Overrides [`PAR_MIN_NODES_PER_WORKER`] on this thread (`Some(0)`
/// forces the parallel engine on, `None` restores the default).
/// Returns the previous override so callers can scope it. Benchmarks
/// force-engage so `_par` rows measure the engine, not the fallback.
pub fn set_par_min_nodes_per_worker(min: Option<usize>) -> Option<usize> {
    PAR_MIN_OVERRIDE.with(|cell| cell.replace(min))
}

/// The effective nodes-per-worker floor on this thread.
pub fn par_min_nodes_per_worker() -> usize {
    PAR_MIN_OVERRIDE
        .with(Cell::get)
        .unwrap_or(PAR_MIN_NODES_PER_WORKER)
}

/// How many lossy session runs on this thread ran on one worker: every
/// run the fan-out did not take, one-worker runs included.
pub fn par_serial_fallback_count() -> u64 {
    PAR_FALLBACKS.with(Cell::get)
}

/// How many lossy session runs on this thread fanned out to more than
/// one worker.
pub fn par_engaged_count() -> u64 {
    PAR_ENGAGED.with(Cell::get)
}

/// Zeroes both engagement counters on this thread.
pub fn reset_par_engagement_counters() {
    PAR_FALLBACKS.with(|cell| cell.set(0));
    PAR_ENGAGED.with(|cell| cell.set(0));
}

/// How many workers a lossy run over `n` nodes on `threads` workers
/// uses: all of them when there is more than one and enough nodes to
/// keep each busy between spawn and join, else 1. Counts the decision:
/// one engagement or one serial fallback per run.
pub(crate) fn engage(n: usize, threads: usize) -> usize {
    let pays = threads > 1 && n >= par_min_nodes_per_worker().saturating_mul(threads);
    let counter = if pays { &PAR_ENGAGED } else { &PAR_FALLBACKS };
    counter.with(|cell| cell.set(cell.get() + 1));
    if pays {
        threads
    } else {
        1
    }
}

/// Runs `rounds` rounds of `state` on `workers` workers — bit-identical
/// at any worker count.
///
/// No rollback machinery exists here, because none is needed: the lossy
/// model has no energy budgets, so a packet's fate depends only on
/// round-constant state (routes, fault windows) and its own counter
/// stream ([`ami_sim::rng::packet_rng`]) — never on another packet's
/// execution. Each round splits the heavy-path image's positions into
/// `workers` equal contiguous chunks (the last may be shorter, and
/// there are fewer chunks than workers when `workers` exceeds the node
/// count); each chunk walks the sources at its positions with
/// [`LossyTally::walk`], writing every position's energy subtotal (zero
/// when its node offers nothing) into its slot. The first chunk walks on
/// the calling thread into the state's own tally, every further chunk
/// on a scoped thread into a chunk-local tally (walks from any chunk can
/// land ARQ attempts on any position, so each tally spans every
/// position). The commit then replays the ascending-id folds exactly:
/// the energy slots added to the run total in ascending source id,
/// per-node ledger charges committed once per `(node, category)` from
/// the merged (exact, integer) attempt counts, packet tallies
/// bulk-committed. A one-chunk round opens no scope and absorbs
/// nothing, so a warm one-worker round allocates nothing.
///
/// The caller picks `workers` with [`engage`].
///
/// # Panics
///
/// Re-raises the payload of a chunk walk that panicked.
pub(crate) fn run_rounds<R: Recorder>(
    state: &mut LossyState<'_, '_>,
    rounds: u64,
    workers: usize,
    recorder: &mut R,
) {
    let n = state.core.topology.len();
    let chunk = n.div_ceil(workers);
    // Each offered packet's energy subtotal, one slot per image
    // position: the only f64s the chunks write.
    let mut slots = vec![0.0f64; n];
    let mut tallies: Vec<LossyTally> = (1..n.div_ceil(chunk)).map(|_| LossyTally::new(n)).collect();

    for round in 0..rounds {
        state.core.begin_round(round);
        let LossyState {
            core,
            arq,
            tally,
            energy,
        } = &mut *state;
        let (offered, delivered, faulted) = (tally.offered, tally.delivered, tally.dropped_fault);
        let ctx = LossyRoundCtx::new(core, *arq);
        let ctx = &ctx;
        let mut chunks = slots.chunks_mut(chunk);
        let first = chunks.next().expect("a field holds at least its sink");
        if tallies.is_empty() {
            tally.walk(ctx, round, 0, first);
        } else {
            std::thread::scope(|scope| {
                let others: Vec<_> = (chunk..)
                    .step_by(chunk)
                    .zip(chunks.zip(&mut tallies))
                    .map(|(start, (slots, tally))| {
                        // Draws come from each packet's own stream, so
                        // chunks cannot perturb one another.
                        scope.spawn(move || tally.walk(ctx, round, start, slots))
                    })
                    .collect();
                tally.walk(ctx, round, 0, first);
                for handle in others {
                    // Re-raise the worker's own payload on the caller;
                    // an unjoined panic would surface only as the
                    // scope's generic "a scoped thread panicked".
                    if let Err(payload) = handle.join() {
                        resume_unwind(payload);
                    }
                }
            });
        }
        // The run-total energy fold in ascending source id, read back
        // through `pos`. Slots of unoffered sources are exactly 0.0,
        // and adding a zero subtotal (a zero ARQ budget spends nothing)
        // leaves the nonnegative total unchanged, so skipping zeros
        // replays the fold of every offered packet bitwise.
        for &at in &core.cache.image().pos {
            let slot = slots[at as usize];
            if slot != 0.0 {
                *energy += slot;
            }
        }
        for later in &mut tallies {
            tally.absorb(later);
        }
        state.commit_charges(recorder);
        recorder.packets_offered(state.tally.offered - offered);
        recorder.packets_delivered(state.tally.delivered - delivered);
        recorder.packets_dropped_fault(state.tally.dropped_fault - faulted);
        state.core.end_round();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lossy::{simulate_lossy_gathering, LossyConfig, LossyReport, LossySession};
    use crate::topology::Topology;
    use ami_sim::fault::{FaultEvent, FaultModel, FaultSchedule};
    use ami_sim::obs::{LedgerRecorder, NullRecorder};
    use ami_units::Length;

    /// Overrides this thread's nodes-per-worker floor until dropped,
    /// then restores the previous value, so a failing assertion cannot
    /// leak the override into later tests on the thread.
    struct ParFloor(Option<usize>);

    impl ParFloor {
        fn set(min: Option<usize>) -> Self {
            Self(set_par_min_nodes_per_worker(min))
        }
    }

    impl Drop for ParFloor {
        fn drop(&mut self) {
            set_par_min_nodes_per_worker(self.0);
        }
    }

    /// Forces the fan-out on for this test thread until the guard
    /// drops: the fixtures here are far below the production
    /// nodes-per-worker floor, and the point is to exercise the
    /// chunk-parallel rounds, not the one-worker fallback.
    fn engage_engine() -> ParFloor {
        ParFloor::set(Some(0))
    }

    /// One unrecorded run on a fresh session on `threads` workers.
    fn run_on(
        topo: &Topology,
        config: &LossyConfig,
        rounds: u64,
        seed: u64,
        faults: &FaultSchedule,
        threads: usize,
    ) -> LossyReport {
        LossySession::new(topo, config).run_faulted_with(
            rounds,
            seed,
            faults,
            threads,
            &mut NullRecorder,
        )
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn lossy_zero_threads_rejected() {
        let topo = Topology::grid(3, Length::from_meters(20.0));
        let config = LossyConfig::bruised_channel();
        let _ = run_on(&topo, &config, 1, 2003, &FaultSchedule::empty(), 0);
    }

    mod lossy_par {
        use super::*;

        #[test]
        fn healthy_lossy_grid_matches_serial_at_every_thread_count() {
            let _floor = engage_engine();
            let topo = Topology::grid(6, Length::from_meters(30.0));
            let config = LossyConfig::bruised_channel();
            let serial = simulate_lossy_gathering(&topo, &config, 80, 2003);
            assert!(serial.delivered > 0 && serial.delivered < serial.offered);
            // 40 workers on 36 nodes: one-node chunks, and fewer chunks
            // than workers.
            for threads in [1, 2, 8, 40] {
                let par = run_on(&topo, &config, 80, 2003, &FaultSchedule::empty(), threads);
                assert_eq!(par, serial, "{threads} threads");
            }
        }

        #[test]
        fn faulted_lossy_observed_run_matches_serial_ledger_bitwise() {
            let _floor = engage_engine();
            let topo = Topology::grid(5, Length::from_meters(30.0));
            let config = LossyConfig::bruised_channel();
            let model = FaultModel {
                death_rate: 0.2,
                outage_rate: 0.3,
                outage_rounds: 10,
                link_outage_rate: 0.2,
                link_outage_rounds: 8,
                fade_rate: 0.0,
                fade_factor: 1.0,
            };
            let faults = model.schedule(5, topo.len(), 80);
            let observed = |threads| {
                let mut obs = LedgerRecorder::with_nodes(topo.len());
                let report = LossySession::new(&topo, &config)
                    .run_faulted_with(80, 9, &faults, threads, &mut obs);
                (report, obs)
            };
            let (serial_report, serial_obs) = observed(1);
            assert!(serial_report.dropped_fault > 0, "fixture must fault");
            for threads in [2, 8] {
                let (report, obs) = observed(threads);
                assert_eq!(report, serial_report, "{threads} threads");
                assert_eq!(obs, serial_obs, "{threads} threads");
            }
        }

        #[test]
        fn lossy_fault_schedule_matches_serial_report() {
            let _floor = engage_engine();
            let topo = Topology::grid(4, Length::from_meters(30.0));
            let config = LossyConfig::bruised_channel();
            let faults = FaultSchedule::new(vec![
                FaultEvent::NodeDeath { node: 5, round: 10 },
                FaultEvent::LinkOutage {
                    a: 3,
                    b: 0,
                    from: 4,
                    until: 20,
                },
            ]);
            let serial = run_on(&topo, &config, 40, 7, &faults, 1);
            for threads in [2, 8] {
                let par = run_on(&topo, &config, 40, 7, &faults, threads);
                assert_eq!(par, serial, "{threads} threads");
            }
        }
    }

    mod fallback {
        use super::*;

        #[test]
        fn small_runs_fall_back_to_serial_and_count_it() {
            // Default heuristic: a 16-node grid can never cover the
            // per-worker floor, so the session must walk each round as
            // one chunk — observable only through the counters, because
            // the results are bit-identical either way.
            let _floor = ParFloor::set(None);
            let topo = Topology::grid(4, Length::from_meters(30.0));
            let config = LossyConfig::bruised_channel();
            let serial = simulate_lossy_gathering(&topo, &config, 10, 3);
            reset_par_engagement_counters();
            let lossy = run_on(&topo, &config, 10, 3, &FaultSchedule::empty(), 8);
            assert_eq!(par_serial_fallback_count(), 1);
            assert_eq!(par_engaged_count(), 0);
            assert_eq!(lossy, serial);
        }

        #[test]
        fn one_worker_always_falls_back() {
            let _floor = ParFloor::set(Some(0));
            reset_par_engagement_counters();
            let topo = Topology::grid(3, Length::from_meters(30.0));
            let config = LossyConfig::bruised_channel();
            let _ = run_on(&topo, &config, 5, 1, &FaultSchedule::empty(), 1);
            assert_eq!(par_serial_fallback_count(), 1);
            assert_eq!(par_engaged_count(), 0);
        }

        #[test]
        fn override_engages_and_counts() {
            let _floor = ParFloor::set(Some(0));
            reset_par_engagement_counters();
            let topo = Topology::grid(3, Length::from_meters(30.0));
            let config = LossyConfig::bruised_channel();
            let _ = run_on(&topo, &config, 5, 1, &FaultSchedule::empty(), 2);
            assert_eq!(par_engaged_count(), 1);
            assert_eq!(par_serial_fallback_count(), 0);
            let restored = set_par_min_nodes_per_worker(None);
            assert_eq!(restored, Some(0));
            assert_eq!(par_min_nodes_per_worker(), PAR_MIN_NODES_PER_WORKER);
        }
    }
}
