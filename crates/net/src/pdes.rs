//! Conservative parallel discrete-event execution *inside* a single
//! lossy/ARQ run — region-partitioned rounds, bit-identical to the
//! serial counter-RNG kernel.
//!
//! The seed-partitioned runner parallelizes *across* replications; a
//! single city-scale run still pinned one core. This module partitions
//! the node id space into contiguous regions
//! ([`RegionPartition`], cut by the same
//! spatial grid the CSR construction buckets with), walks each round's
//! packets region-parallel on an [`ami_sim::runner::RoundPool`], and
//! commits at the round barrier in a **fixed deterministic reduction
//! order** — region id, then node id, which for contiguous id regions
//! is exactly ascending global node id, the order the serial kernel
//! charges in.
//!
//! [`LossySession::run_faulted_with`](crate::LossySession::run_faulted_with)
//! decides per run whether this engine or the serial loop runs the
//! rounds; the engine is a crate-private round driver over the
//! session's run state, so it has no entry point of its own.
//!
//! # Why the result is bit-identical
//!
//! The engine needs no rollback machinery: the lossy model has no
//! energy budgets, so there is no cross-packet coupling and no margin
//! to check. Every packet draws
//! from its own counter stream ([`ami_sim::rng::packet_rng`]) and its
//! fate depends only on round-constant state, so region walks commute
//! and every round commits. The commit replays the serial folds —
//! energy subtotals in ascending source order, ledger charges per
//! `(node, category)` from exactly-merged integer attempt counts. The
//! differential suite pins `par ≡ serial` at 1/2/8 threads across
//! random fault schedules.
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
//! Region setup, the split, and the round barrier are pure overhead on
//! small runs, so every lossy session run first checks a cheap
//! nodes-per-worker floor ([`PAR_MIN_NODES_PER_WORKER`], overridable
//! per thread) and runs the serial loop when the run is too small or
//! has one worker — bit-identical results either way, observable only
//! through [`par_serial_fallback_count`]/[`par_engaged_count`].

use crate::csr::RegionPartition;
use crate::lossy::{LossyFate, LossyRoundCtx, LossyState};
use crate::topology::{NodeId, Position};
use ami_sim::obs::Recorder;
use ami_sim::runner::RoundPool;
use std::cell::Cell;
use std::sync::Mutex;

/// Default floor on nodes-per-worker below which a lossy session run
/// takes the serial loop instead of spinning up regions: below
/// city scale the per-round barrier and split overhead outweigh the
/// work (BENCH_NET measured speedups under 1.0 even at n=10⁴ on small
/// hosts). Results are bit-identical either way — the engine exists
/// precisely because parallel ≡ serial — so the threshold is purely a
/// performance heuristic.
pub const PAR_MIN_NODES_PER_WORKER: usize = 4096;

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

/// How many lossy session runs on this thread took the serial loop:
/// every run the region engine did not take, one-worker runs included.
pub fn par_serial_fallback_count() -> u64 {
    PAR_FALLBACKS.with(Cell::get)
}

/// How many lossy session runs on this thread the region engine took.
pub fn par_engaged_count() -> u64 {
    PAR_ENGAGED.with(Cell::get)
}

/// Zeroes both engagement counters on this thread.
pub fn reset_par_engagement_counters() {
    PAR_FALLBACKS.with(|cell| cell.set(0));
    PAR_ENGAGED.with(|cell| cell.set(0));
}

/// Whether region setup can pay for itself: more than one worker and
/// enough nodes to keep each busy between barriers.
fn parallel_pays(n: usize, threads: usize) -> bool {
    threads > 1 && n >= par_min_nodes_per_worker().saturating_mul(threads)
}

/// Decides by [`parallel_pays`] whether a lossy run over `n` nodes on
/// `threads` workers takes the region engine, and counts the decision:
/// one engagement or one serial fallback per run.
pub(crate) fn engage(n: usize, threads: usize) -> bool {
    let pays = parallel_pays(n, threads);
    let counter = if pays { &PAR_ENGAGED } else { &PAR_FALLBACKS };
    counter.with(|cell| cell.set(cell.get() + 1));
    pays
}

/// Splits a per-node array into per-region mutable slices (the
/// partition is contiguous and ascending, so the split is a plain
/// sequence of `split_at_mut`s). Each slice is wrapped in a `Mutex`
/// purely to hand workers `&mut` access through a `Sync` job — one
/// uncontended lock per region per round.
fn split_regions<'b>(mut rest: &'b mut [f64], part: &RegionPartition) -> Vec<Mutex<&'b mut [f64]>> {
    let mut out = Vec::with_capacity(part.regions());
    let mut offset = 0usize;
    for r in 0..part.regions() {
        let range = part.range(r);
        let (head, tail) = rest.split_at_mut(range.end - offset);
        out.push(Mutex::new(head));
        rest = tail;
        offset = range.end;
    }
    out
}

/// Per-region scratch of the lossy engine. Walks from region `w` can
/// land ARQ attempts on *any* node (routes cross regions), so each
/// region keeps full-length attempt arrays; integer counts merge
/// exactly at commit.
struct LossyRegionScratch {
    tx_attempts: Vec<u64>,
    rx_attempts: Vec<u64>,
    offered: u64,
    delivered: u64,
    faulted: u64,
    transmissions: u64,
}

impl LossyRegionScratch {
    fn new(n: usize) -> Self {
        Self {
            tx_attempts: vec![0; n],
            rx_attempts: vec![0; n],
            offered: 0,
            delivered: 0,
            faulted: 0,
            transmissions: 0,
        }
    }

    /// Clears the round tallies. The attempt arrays are cleared during
    /// the commit merge, which touches every entry anyway.
    fn reset_tallies(&mut self) {
        self.offered = 0;
        self.delivered = 0;
        self.faulted = 0;
        self.transmissions = 0;
    }
}

/// Runs `rounds` rounds of `state` region-parallel on `threads`
/// workers — bit-identical to the serial loop at any thread count.
///
/// No rollback machinery exists here, because none is needed: the lossy
/// model has no energy budgets, so a packet's fate depends only on
/// round-constant state (routes, fault windows) and its own counter
/// stream ([`ami_sim::rng::packet_rng`]) — never on another packet's
/// execution. Each worker walks its region's sources with
/// [`walk_packet`](crate::lossy) — the same function the serial loop
/// runs — into region-local scratch; the commit then replays the serial
/// folds exactly: per-packet energy subtotals added in ascending source
/// id, per-node ledger charges committed once per `(node, category)`
/// from the merged (exact, integer) attempt counts, packet tallies
/// bulk-committed.
///
/// The caller decides engagement with [`engage`].
pub(crate) fn run_region_rounds<R: Recorder>(
    state: &mut LossyState<'_>,
    rounds: u64,
    threads: usize,
    recorder: &mut R,
) {
    let topology = state.topology;
    let n = topology.len();
    let positions: Vec<Position> = topology.ids().map(|id| topology.position(id)).collect();
    let part = RegionPartition::balanced(&positions, state.max_hop, threads);
    let sink_id = state.sink.0;
    // Per-source packet energy subtotals, one slot per node id; region
    // slices of this are the only f64s workers write.
    let mut pkt_energy = vec![0.0f64; n];
    let scratch: Vec<Mutex<LossyRegionScratch>> = (0..threads)
        .map(|_| Mutex::new(LossyRegionScratch::new(n)))
        .collect();

    RoundPool::scoped(threads, |pool| {
        for round in 0..rounds {
            state.begin_round(round);
            {
                let ctx = LossyRoundCtx {
                    sink: state.sink,
                    seed: state.seed,
                    p_hop: state.p_hop,
                    rx: state.rx,
                    max_transmissions: state.max_transmissions,
                    attempts: state.attempts,
                    attempts_f: state.attempts_f,
                    parent: &state.packed.parent,
                    tx_costs: &state.packed.tx,
                    timeline: &state.timeline,
                    down_now: &state.down_now,
                };
                let connected = state.cache.connected_flags();
                let slices = split_regions(&mut pkt_energy, &part);

                // The single parallel phase: walk every source in the
                // region. Draws come from each packet's own stream, so
                // regions cannot perturb one another.
                pool.run(&|w| {
                    let mut slice = slices[w].lock().expect("region energy slice");
                    let mut region = scratch[w].lock().expect("region scratch");
                    let region = &mut *region;
                    region.reset_tallies();
                    for (off, src) in part.range(w).enumerate() {
                        slice[off] = 0.0;
                        if src == sink_id || ctx.down_now[src] || !connected[src] {
                            continue;
                        }
                        region.offered += 1;
                        let (fate, energy) = crate::lossy::walk_packet(
                            &ctx,
                            round,
                            NodeId(src),
                            &mut region.tx_attempts,
                            &mut region.rx_attempts,
                            &mut region.transmissions,
                        );
                        slice[off] = energy;
                        match fate {
                            LossyFate::Delivered => region.delivered += 1,
                            LossyFate::Fault => region.faulted += 1,
                            LossyFate::Channel => {}
                        }
                    }
                });
            }
            commit_lossy_round(state, recorder, &scratch, &pkt_energy);
            state.end_round(round);
        }
    });
}

/// Folds a parallel lossy round into the run state by replaying the
/// serial folds: energy subtotals ascending source id, region attempt
/// counts merged into the state and charged by
/// [`LossyState::commit_charges`], packet tallies bulk-committed
/// region-ascending.
fn commit_lossy_round<R: Recorder>(
    state: &mut LossyState<'_>,
    recorder: &mut R,
    scratch: &[Mutex<LossyRegionScratch>],
    pkt_energy: &[f64],
) {
    let mut regions: Vec<_> = scratch
        .iter()
        .map(|region| region.lock().expect("region scratch"))
        .collect();

    // The run-total energy fold: the serial kernel adds each offered
    // packet's private subtotal in ascending source order. Slots of
    // unoffered sources are exactly 0.0 and an offered packet always
    // spends (it makes at least one attempt), so skipping zeros replays
    // the serial fold bitwise.
    for &slot in pkt_energy {
        if slot != 0.0 {
            state.energy += slot;
        }
    }

    // Integer attempt counts merge exactly, so the state's counts equal
    // the serial loop's and one commit writes the ledger charges.
    for region in regions.iter_mut() {
        for (total, count) in state.tx_attempts.iter_mut().zip(&mut region.tx_attempts) {
            *total += std::mem::take(count);
        }
        for (total, count) in state.rx_attempts.iter_mut().zip(&mut region.rx_attempts) {
            *total += std::mem::take(count);
        }
    }
    state.commit_charges(recorder);

    let mut offered = 0u64;
    let mut delivered = 0u64;
    let mut faulted = 0u64;
    let mut transmissions = 0u64;
    for region in regions.iter() {
        offered += region.offered;
        delivered += region.delivered;
        faulted += region.faulted;
        transmissions += region.transmissions;
    }
    recorder.packets_offered(offered);
    recorder.packets_delivered(delivered);
    recorder.packets_dropped_fault(faulted);
    state.offered += offered;
    state.delivered += delivered;
    state.dropped_fault += faulted;
    state.transmissions += transmissions;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lossy::{simulate_lossy_gathering, LossyConfig, LossyReport, LossySession};
    use crate::topology::Topology;
    use ami_sim::fault::{FaultEvent, FaultModel, FaultSchedule};
    use ami_sim::obs::{LedgerRecorder, NullRecorder};
    use ami_units::Length;

    /// Forces the region engine on for this test thread: the fixtures
    /// here are far below the production nodes-per-worker floor, and
    /// the point is to exercise the engine, not the fallback.
    fn engage_engine() {
        set_par_min_nodes_per_worker(Some(0));
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
            engage_engine();
            let topo = Topology::grid(6, Length::from_meters(30.0));
            let config = LossyConfig::bruised_channel();
            let serial = simulate_lossy_gathering(&topo, &config, 80, 2003);
            assert!(serial.delivered > 0 && serial.delivered < serial.offered);
            for threads in [1, 2, 8] {
                let par = run_on(&topo, &config, 80, 2003, &FaultSchedule::empty(), threads);
                assert_eq!(par, serial, "{threads} threads");
            }
        }

        #[test]
        fn faulted_lossy_observed_run_matches_serial_ledger_bitwise() {
            engage_engine();
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
            engage_engine();
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
            // per-worker floor, so the session must run the serial loop
            // — observable only through the counters, because the
            // results are bit-identical either way.
            set_par_min_nodes_per_worker(None);
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
            set_par_min_nodes_per_worker(Some(0));
            reset_par_engagement_counters();
            let topo = Topology::grid(3, Length::from_meters(30.0));
            let config = LossyConfig::bruised_channel();
            let _ = run_on(&topo, &config, 5, 1, &FaultSchedule::empty(), 1);
            assert_eq!(par_serial_fallback_count(), 1);
            assert_eq!(par_engaged_count(), 0);
        }

        #[test]
        fn override_engages_and_counts() {
            set_par_min_nodes_per_worker(Some(0));
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
