//! The recorder contract of the round kernels: every round commits its
//! packet tally through exactly one `Recorder::packets` call, whether a
//! gathering round aggregated or fell back to the hop walk, and every
//! lossy round does the same. A counting recorder keeps each call's
//! tally; the tallies must sum to the report's counts and to what a
//! `LedgerRecorder` sees over the same run.

use ami_net::{
    agg_engaged_count, agg_fallback_count, reset_agg_counters, GatherSession, LossyConfig,
    LossyReport, LossySession, NetworkConfig, RoutingStrategy, Topology,
};
use ami_sim::fault::{FaultModel, FaultSchedule};
use ami_sim::obs::{EnergyCategory, LedgerRecorder, PacketCounters, Recorder};
use ami_units::{Energy, Length};

/// Keeps the tally of every `packets` call, in call order.
#[derive(Default)]
struct CountingRecorder {
    rounds: Vec<PacketCounters>,
}

impl CountingRecorder {
    fn total(&self) -> PacketCounters {
        let mut total = PacketCounters::new();
        for round in &self.rounds {
            total.merge(round);
        }
        total
    }
}

impl Recorder for CountingRecorder {
    fn charge(&mut self, _node: usize, _category: EnergyCategory, _joules: f64) {}
    fn packets(&mut self, round: &PacketCounters) {
        self.rounds.push(*round);
    }
    fn record_residual(&mut self, _node: usize, _joules: f64) {}
}

/// A heavy mix of node deaths, outages and link outages.
fn fault_mix(seed: u64, nodes: usize, rounds: u64) -> FaultSchedule {
    FaultModel {
        death_rate: 0.15,
        outage_rate: 0.4,
        outage_rounds: 3,
        link_outage_rate: 0.4,
        link_outage_rounds: 3,
        fade_rate: 0.0,
        fade_factor: 1.0,
    }
    .schedule(seed, nodes, rounds)
}

#[test]
fn gathering_commits_one_conserved_tally_per_round() {
    const ROUNDS: u64 = 20;
    // ~12 idle rounds of budget: relays die mid-run, so healthy early
    // rounds aggregate and death rounds fall back to the hop walk.
    let topo = Topology::random(64, Length::from_meters(180.0), 7);
    let mut config = NetworkConfig::sensor_default();
    config.node_energy = Energy::from_joules(0.015);
    let faults = fault_mix(7, topo.len(), ROUNDS);
    let mut session = GatherSession::new(&topo, RoutingStrategy::MinimumEnergy, &config);

    reset_agg_counters();
    let mut counting = CountingRecorder::default();
    let report = session.run_faulted_with(ROUNDS, &faults, &mut counting);
    assert!(agg_engaged_count() > 0, "some rounds must aggregate");
    assert!(agg_fallback_count() > 0, "some rounds must fall back");
    assert_eq!(
        counting.rounds.len() as u64,
        ROUNDS,
        "one packets call per round"
    );
    for (round, tally) in counting.rounds.iter().enumerate() {
        assert!(tally.is_conserved(), "round {round}: {tally:?}");
    }

    let total = counting.total();
    assert_eq!(total.delivered, report.delivered_packets);
    assert!(
        total.dropped_dead_hop > 0 && total.dropped_disconnected > 0 && total.dropped_fault > 0,
        "the run must drop packets in every bucket: {total:?}"
    );
    let mut ledger = LedgerRecorder::with_nodes(topo.len());
    let observed = session.run_faulted_with(ROUNDS, &faults, &mut ledger);
    assert_eq!(observed, report);
    assert_eq!(ledger.packets, total);
}

/// One faulted lossy run into a counting recorder, checked against the
/// report and a ledger over the same run.
fn lossy_tallies(config: &LossyConfig) -> (LossyReport, CountingRecorder) {
    const ROUNDS: u64 = 20;
    const SEED: u64 = 11;
    let topo = Topology::random(80, Length::from_meters(200.0), 5);
    let faults = fault_mix(5, topo.len(), ROUNDS);
    let mut session = LossySession::new(&topo, config);

    let mut counting = CountingRecorder::default();
    let report = session.run_faulted_with(ROUNDS, SEED, &faults, &mut counting);
    assert_eq!(
        counting.rounds.len() as u64,
        ROUNDS,
        "one packets call per round"
    );
    let total = counting.total();
    assert_eq!(
        (total.offered, total.delivered, total.dropped_fault),
        (report.offered, report.delivered, report.dropped_fault)
    );
    assert!(total.dropped_fault > 0, "the fault mix must cost packets");
    let mut ledger = LedgerRecorder::with_nodes(topo.len());
    let observed = session.run_faulted_with(ROUNDS, SEED, &faults, &mut ledger);
    assert_eq!(observed, report);
    assert_eq!(ledger.packets, total);
    (report, counting)
}

#[test]
fn lossy_rounds_commit_one_tally_per_round() {
    // On a lossless channel every offered packet is delivered or lost
    // to a fault, so every round's tally is conserved.
    let lossless = LossyConfig {
        ber: 0.0,
        ..LossyConfig::bruised_channel()
    };
    let (_, counting) = lossy_tallies(&lossless);
    for (round, tally) in counting.rounds.iter().enumerate() {
        assert!(tally.is_conserved(), "round {round}: {tally:?}");
    }

    // On a noisy channel the channel losses land in no bucket: they are
    // the remainder, never negative, and the lossy kernel has no dead
    // hops or routeless offers.
    let (report, counting) = lossy_tallies(&LossyConfig::bruised_channel());
    for (round, tally) in counting.rounds.iter().enumerate() {
        assert!(
            tally.delivered + tally.dropped() <= tally.offered,
            "round {round}: {tally:?}"
        );
        assert_eq!(
            (tally.dropped_dead_hop, tally.dropped_disconnected),
            (0, 0),
            "round {round}"
        );
    }
    assert!(
        report.delivered + report.dropped_fault < report.offered,
        "BER 1e-3 must lose packets to the channel"
    );
}
