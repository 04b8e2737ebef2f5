//! Multi-seed replication of gathering simulations over random
//! topologies, on the parallel runner.
//!
//! A single random field says little: the keynote's network-level claims
//! (multi-hop savings, the energy hole, delivery under loss) need
//! confidence intervals over topology draws. This module runs one fresh
//! [`GatherSession`] per topology across `base_seed + k` topologies with
//! the seed schedule of `ami_sim::replicate`
//! ([`ami_sim::replication_seeds`]) — replication `k` always sees seed
//! `base_seed + k`, and reports come back in seed order, so the parallel
//! path is bit-exact with a serial loop at any worker count (enforced by
//! `tests/determinism.rs`).
//! [`replicate_gathering_observed`] runs each replication under its
//! seed's fault schedule and returns the reports with a merged energy
//! ledger.
//!
//! Each replication inherits the gather core's hot-path machinery
//! (CSR adjacency, epoch-cached routing, allocation-free rounds — see
//! DESIGN.md "Performance"): route tables rebuild only when a fault
//! or death changes the usable set, and since every replication draws
//! a fresh [`Topology`], the per-topology CSR is built once per
//! replication, never shared nor rebuilt across rounds. The
//! `faulted_replication` group of `expt_bench_snapshot` /
//! `BENCH_NET.json` tracks this path end-to-end.

use crate::gather::{GatherSession, NetworkConfig, NetworkReport};
use crate::routing::RoutingStrategy;
use crate::topology::Topology;
use ami_sim::fault::FaultSchedule;
use ami_sim::obs::LedgerRecorder;
use ami_sim::{replication_seeds, summarize, Summary};

/// Replicates a gathering study across seeded random topologies on
/// `threads` workers (1 = serial loop) under per-replication fault
/// schedules, with observation: returns one report per seed, in seed
/// order, plus one [`LedgerRecorder`] accumulated over all
/// replications. Callers without a reason to pin the worker count pass
/// [`ami_sim::runner::thread_count`].
///
/// `topology` builds the field for a given seed — typically
/// `|seed| Topology::random(n, field, seed)`, but any deterministic
/// seed-to-field map works (e.g. jittered grids). `faults` maps each
/// replication's seed to its [`FaultSchedule`] — typically
/// `|seed| spec.schedule_for(seed, nodes, rounds)` so every topology
/// draw gets a decorrelated but reproducible fault history, or
/// `|_| FaultSchedule::empty()` for a fault-free study. Like
/// `topology`, it must be a pure function of the seed: the runner may
/// call it from any worker.
///
/// Per-replication recorders are merged **in seed order** regardless of
/// which worker finished first, so the reports, the combined ledger and
/// the counters are bit-identical at any thread count.
///
/// # Panics
///
/// Panics if `threads`, `replications` or `rounds` is zero.
#[allow(clippy::too_many_arguments)]
pub fn replicate_gathering_observed(
    threads: usize,
    replications: usize,
    base_seed: u64,
    topology: impl Fn(u64) -> Topology + Sync,
    faults: impl Fn(u64) -> FaultSchedule + Sync,
    strategy: RoutingStrategy,
    config: &NetworkConfig,
    rounds: u64,
) -> (Vec<NetworkReport>, LedgerRecorder) {
    let seeds = replication_seeds(replications, base_seed);
    let observed = ami_sim::runner::par_map_indexed_threads(threads, &seeds, |_, &seed| {
        let topo = topology(seed);
        let mut recorder = LedgerRecorder::with_nodes(topo.len());
        let report = GatherSession::new(&topo, strategy, config).run_faulted_with(
            rounds,
            &faults(seed),
            &mut recorder,
        );
        (report, recorder)
    });
    // par_map returns results in seed order, so this serial fold is the
    // deterministic index-order merge.
    let mut merged = LedgerRecorder::with_nodes(0);
    let mut reports = Vec::with_capacity(observed.len());
    for (report, recorder) in observed {
        merged.merge(&recorder);
        reports.push(report);
    }
    (reports, merged)
}

/// Summarizes one scalar observable over replicated reports — the
/// confidence-interval companion to [`replicate_gathering_observed`].
///
/// # Example
///
/// ```
/// use ami_net::{replicate_gathering_observed, summarize_reports, NetworkConfig,
///     RoutingStrategy, Topology};
/// use ami_sim::fault::FaultSchedule;
/// use ami_units::Length;
///
/// let (reports, _) = replicate_gathering_observed(
///     ami_sim::runner::thread_count(), 8, 42,
///     |seed| Topology::random(12, Length::from_meters(80.0), seed),
///     |_| FaultSchedule::empty(),
///     RoutingStrategy::MinimumEnergy,
///     &NetworkConfig::sensor_default(),
///     20,
/// );
/// let delivered = summarize_reports(&reports, |r| r.delivered_packets as f64);
/// assert_eq!(delivered.n, 8);
/// assert!(delivered.mean > 0.0);
/// ```
///
/// # Panics
///
/// Panics if `reports` is empty or the observable is non-finite.
pub fn summarize_reports(
    reports: &[NetworkReport],
    observable: impl Fn(&NetworkReport) -> f64,
) -> Summary {
    let values: Vec<f64> = reports.iter().map(observable).collect();
    summarize(&values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gather::simulate_gathering;
    use ami_units::Length;

    fn field(seed: u64) -> Topology {
        Topology::random(10, Length::from_meters(70.0), seed)
    }

    /// The reports of a fault-free study over [`field`].
    fn fault_free_reports(
        threads: usize,
        replications: usize,
        base_seed: u64,
        strategy: RoutingStrategy,
        rounds: u64,
    ) -> Vec<NetworkReport> {
        replicate_gathering_observed(
            threads,
            replications,
            base_seed,
            field,
            |_| FaultSchedule::empty(),
            strategy,
            &NetworkConfig::sensor_default(),
            rounds,
        )
        .0
    }

    #[test]
    fn reports_come_back_in_seed_order() {
        let config = NetworkConfig::sensor_default();
        let replicated = fault_free_reports(
            ami_sim::runner::thread_count(),
            4,
            7,
            RoutingStrategy::MinimumEnergy,
            10,
        );
        for (k, report) in replicated.iter().enumerate() {
            let solo = simulate_gathering(
                &field(7 + k as u64),
                RoutingStrategy::MinimumEnergy,
                &config,
                10,
            );
            assert_eq!(*report, solo, "replication {k}");
        }
    }

    #[test]
    fn thread_count_does_not_change_reports() {
        let serial = fault_free_reports(1, 6, 99, RoutingStrategy::MinimumEnergy, 15);
        for threads in [2, 4, 8] {
            let parallel = fault_free_reports(threads, 6, 99, RoutingStrategy::MinimumEnergy, 15);
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn summary_matches_hand_fold() {
        let reports = fault_free_reports(
            ami_sim::runner::thread_count(),
            5,
            1,
            RoutingStrategy::DirectToSink,
            5,
        );
        let summary = summarize_reports(&reports, |r| r.delivered_packets as f64);
        let mean = reports
            .iter()
            .map(|r| r.delivered_packets as f64)
            .sum::<f64>()
            / reports.len() as f64;
        assert_eq!(summary.n, 5);
        assert!((summary.mean - mean).abs() < 1e-12);
    }

    #[test]
    fn observed_replication_merges_in_seed_order() {
        let config = NetworkConfig::sensor_default();
        let observed = |threads| {
            replicate_gathering_observed(
                threads,
                5,
                42,
                field,
                |_| FaultSchedule::empty(),
                RoutingStrategy::MinimumEnergy,
                &config,
                10,
            )
        };
        let (reports, merged) = observed(1);
        // Merged counters equal the sum over per-seed runs.
        let mut expect = LedgerRecorder::with_nodes(0);
        for k in 0..5u64 {
            let topo = field(42 + k);
            let mut solo = LedgerRecorder::with_nodes(topo.len());
            GatherSession::new(&topo, RoutingStrategy::MinimumEnergy, &config).run_faulted_with(
                10,
                &FaultSchedule::empty(),
                &mut solo,
            );
            expect.merge(&solo);
        }
        assert_eq!(merged, expect);
        assert_eq!(
            merged.packets.delivered,
            reports.iter().map(|r| r.delivered_packets).sum::<u64>()
        );

        // And the merge is bit-identical at any worker count.
        for threads in [2, 4, 8] {
            let (par_reports, par_merged) = observed(threads);
            assert_eq!(reports, par_reports, "threads = {threads}");
            assert_eq!(merged, par_merged, "threads = {threads}");
        }
    }

    #[test]
    fn faulted_replication_is_thread_invariant() {
        use ami_sim::fault::FaultModel;
        let config = NetworkConfig::sensor_default();
        let model = FaultModel {
            death_rate: 0.15,
            outage_rate: 0.2,
            outage_rounds: 5,
            link_outage_rate: 0.1,
            link_outage_rounds: 4,
            fade_rate: 0.2,
            fade_factor: 0.5,
        };
        let observed = |threads| {
            replicate_gathering_observed(
                threads,
                6,
                77,
                field,
                |seed| model.schedule(seed, 10, 12),
                RoutingStrategy::MinimumEnergy,
                &config,
                12,
            )
        };
        let (serial, serial_obs) = observed(1);
        assert!(serial_obs.packets.is_conserved());
        assert!(
            serial_obs.packets.dropped_fault > 0,
            "this fault mix must cost packets somewhere in 6 replications"
        );
        for threads in [2, 8] {
            let (parallel, parallel_obs) = observed(threads);
            assert_eq!(serial, parallel, "threads = {threads}");
            assert_eq!(serial_obs, parallel_obs, "threads = {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn zero_replications_rejected() {
        let _ = fault_free_reports(
            ami_sim::runner::thread_count(),
            0,
            0,
            RoutingStrategy::DirectToSink,
            1,
        );
    }
}
