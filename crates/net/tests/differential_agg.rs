//! Differential layer for the traffic-aggregation charge kernel:
//! aggregated rounds ≡ the per-packet hop walk, at report, ledger and
//! rendered-manifest level.
//!
//! The aggregated kernel replaces the serial round's per-packet budget
//! walk with a few linear passes over the route image that fold
//! charges in whole ulps between binade crossings, and is only
//! admissible because it changes *nothing*: the S1/S2 energy margins
//! prove, per round, that the serial kernel would have seen no
//! mid-round budget death, and every f64 fold ends where the serial
//! charge order does. These tests pin that contract the same way the repair layer
//! is pinned — random topologies × random fault schedules with budget
//! deaths provoked mid-run, bit equality on all artifacts, failures
//! delta-debugged to a 1-minimal schedule — plus targeted regressions
//! for the fallback machinery itself (death rounds must route through
//! the retained hop-walk oracle and be counted).
//!
//! Every run goes through a session, so the session contract is "a
//! warm session equals a fresh one": the last tests pin it for
//! hand-built schedules and for random sequences of session calls.

mod common;

use ami_net::{
    agg_engaged_count, agg_fallback_count, reset_agg_counters, set_aggregated_rounds,
    simulate_gathering, GatherSession, LossyConfig, LossyReport, LossySession, NetworkConfig,
    NetworkReport, RoutingStrategy, Topology,
};
use ami_sim::fault::{FaultEvent, FaultSchedule};
use ami_sim::obs::{LedgerRecorder, NullRecorder, RunManifest};
use ami_units::{Energy, Length, Power};
use common::schedule::{fault_schedule, minimize_failing_schedule};
use proptest::prelude::*;

/// Restores the thread-local aggregation toggle on drop, so a failing
/// assertion cannot leak kernel choice into later tests on the thread.
struct AggMode(bool);

impl AggMode {
    fn set(enabled: bool) -> Self {
        Self(set_aggregated_rounds(enabled))
    }
}

impl Drop for AggMode {
    fn drop(&mut self) {
        set_aggregated_rounds(self.0);
    }
}

/// One faulted gathering run on a fresh session, with a ledger.
fn fresh_observed(
    topo: &Topology,
    config: &NetworkConfig,
    schedule: &FaultSchedule,
    rounds: u64,
) -> (NetworkReport, LedgerRecorder) {
    let mut obs = LedgerRecorder::with_nodes(topo.len());
    let report = GatherSession::new(topo, RoutingStrategy::MinimumEnergy, config)
        .run_faulted_with(rounds, schedule, &mut obs);
    (report, obs)
}

/// One faulted, observed gathering run with the aggregated kernel
/// forced on or off, plus its rendered manifest — the three artifacts
/// the aggregation contract pins.
fn observed_run(
    topo: &Topology,
    config: &NetworkConfig,
    schedule: &FaultSchedule,
    rounds: u64,
    aggregated: bool,
) -> (NetworkReport, LedgerRecorder, String) {
    let _mode = AggMode::set(aggregated);
    let (report, obs) = fresh_observed(topo, config, schedule, rounds);
    let manifest = manifest_of(rounds, &report, &obs);
    (report, obs, manifest)
}

/// Renders the manifest artifact the aggregation contract pins.
fn manifest_of(rounds: u64, report: &NetworkReport, obs: &LedgerRecorder) -> String {
    RunManifest::new("differential-agg")
        .field("rounds", &rounds)
        .field("report", report)
        .ledger(&obs.ledger)
        .counters(&obs.packets.tree())
        .runner()
        .to_json()
}

proptest! {
    /// Tentpole contract: a faulted gathering run — delivery counts,
    /// energy ledger, packet-counter tree, rendered manifest — is
    /// byte-identical whether rounds aggregate or hop-walk. Budgets are
    /// cut to ~12 idle rounds so energy deaths arrive mid-run and the
    /// margin-check fallback path executes alongside clean rounds.
    #[test]
    fn aggregated_rounds_match_the_hop_walk_kernel(
        seed in 0u64..40,
        schedule in fault_schedule(24, 25, 10),
    ) {
        let topo = Topology::random(24, Length::from_meters(110.0), seed);
        let mut config = NetworkConfig::sensor_default();
        config.node_energy = Energy::from_joules(0.015);
        let differs = |s: &FaultSchedule| {
            observed_run(&topo, &config, s, 25, true) != observed_run(&topo, &config, s, 25, false)
        };
        if differs(&schedule) {
            let minimized =
                minimize_failing_schedule(schedule.events(), |s| differs(s));
            let (report_a, _, manifest_a) = observed_run(&topo, &config, &minimized, 25, true);
            let (report_w, _, manifest_w) = observed_run(&topo, &config, &minimized, 25, false);
            panic!(
                "aggregated run diverged from hop walk (seed {seed})\n\
                 minimized schedule: {:?}\naggregated report: {report_a:?}\n\
                 hop-walk report: {report_w:?}\nmanifests equal: {}",
                minimized.events(),
                manifest_a == manifest_w,
            );
        }
    }
}

proptest! {
    /// Budgets exactly on a power of two start every cell on a binade
    /// edge, where the closed form may not be used: round 0 steps each
    /// relay's charge sequence, its `[below, above]` split counted by a
    /// scan of its subtree. Budgets of 2⁻⁸–2⁻⁵ J last 3–25 idle rounds,
    /// so cells keep crossing into lower binades (and dying) in later
    /// rounds. The run must still be byte-identical to the hop walk.
    #[test]
    fn power_of_two_budgets_match_the_hop_walk_kernel(
        seed in 0u64..40,
        exponent in 5u32..9,
        schedule in fault_schedule(24, 25, 10),
    ) {
        let topo = Topology::random(24, Length::from_meters(110.0), seed);
        let mut config = NetworkConfig::sensor_default();
        config.node_energy = Energy::from_joules(0.5f64.powi(exponent as i32));
        let aggregated = observed_run(&topo, &config, &schedule, 25, true);
        let walked = observed_run(&topo, &config, &schedule, 25, false);
        prop_assert!(
            aggregated == walked,
            "power-of-two budget 2^-{exponent} J diverged (seed {seed}): schedule {:?}",
            schedule.events()
        );
    }
}

#[test]
fn power_of_two_budgets_on_a_deep_field_match_the_hop_walk() {
    // 400 nodes reach the sink over many hops, so the relays whose
    // budgets start on the 2⁻³ J binade edge have large subtrees to
    // scan, faulted ones included. A tenth of the default idle draw
    // leaves relaying as the main drain: relays keep crossing binades
    // (a subtree scan in about a quarter of the fault-free run's
    // aggregated rounds) until they die mid-run.
    let topo = Topology::random(400, Length::from_meters(500.0), 3);
    let mut config = NetworkConfig::sensor_default();
    config.node_energy = Energy::from_joules(0.125);
    config.idle_power = Power::from_microwatts(2.0);
    let faults = FaultSchedule::new(vec![
        FaultEvent::NodeOutage {
            node: 17,
            from: 2,
            until: 9,
        },
        FaultEvent::LinkOutage {
            a: 40,
            b: 41,
            from: 0,
            until: 40,
        },
        FaultEvent::NodeDeath {
            node: 250,
            round: 5,
        },
    ]);
    for schedule in [FaultSchedule::empty(), faults] {
        reset_agg_counters();
        let aggregated = observed_run(&topo, &config, &schedule, 120, true);
        assert!(agg_engaged_count() > 0, "the aggregated kernel must engage");
        let walked = observed_run(&topo, &config, &schedule, 120, false);
        assert!(aggregated == walked, "{:?}", schedule.events());
        assert!(
            aggregated.0.first_death_round.is_some(),
            "relays must drain through binades until they die"
        );
    }
}

#[test]
fn death_rounds_fall_back_to_the_hop_walk_and_are_counted() {
    // ~6 idle rounds of budget: relays die mid-run, so some rounds must
    // fail the S1/S2 margin and route through the retained oracle. The
    // engaged/fallback counters let CI and tests assert the fast path
    // actually ran, not just that results matched.
    let _mode = AggMode::set(true);
    let topo = Topology::random(64, Length::from_meters(180.0), 7);
    let mut config = NetworkConfig::sensor_default();
    config.node_energy = Energy::from_joules(0.008);
    reset_agg_counters();
    let agg = simulate_gathering(&topo, RoutingStrategy::MinimumEnergy, &config, 30);
    let engaged = agg_engaged_count();
    let fallbacks = agg_fallback_count();
    assert!(
        engaged > 0,
        "healthy early rounds must take the aggregated path"
    );
    assert!(
        fallbacks > 0,
        "budget-death rounds must fall back to the hop walk"
    );
    assert_eq!(
        engaged + fallbacks,
        30,
        "every round takes exactly one path"
    );
    assert!(
        agg.first_death_round.is_some(),
        "the scenario must actually exhaust a node"
    );

    let _off = AggMode::set(false);
    let oracle = simulate_gathering(&topo, RoutingStrategy::MinimumEnergy, &config, 30);
    assert_eq!(
        agg, oracle,
        "mixed engaged/fallback run must stay bit-exact"
    );
}

#[test]
fn mid_round_death_at_the_packet_boundary_is_exact() {
    // A 3-node chain (sink — relay — leaf) with the relay's budget
    // trimmed so it dies *during* a round, partway through the charge
    // sequence: the relay still pays for packets that transited before
    // exhaustion, and the S2 margin must catch the round (an
    // all-positive replay would misstate the post-death charges).
    // 40 m spacing under the 45 m default hop range: the leaf reaches
    // only the relay, so the chain is forced.
    let topo = Topology::new(vec![
        ami_net::Position::new(0.0, 0.0),
        ami_net::Position::new(40.0, 0.0),
        ami_net::Position::new(80.0, 0.0),
    ]);
    let config_probe = NetworkConfig::sensor_default();
    // Measure one healthy round's relay spend to place the death
    // mid-round: give the relay one full round plus half its round-2
    // outlay, so it crosses zero between two charge events of round 2.
    let _mode = AggMode::set(false);
    let (_, probe) = fresh_observed(&topo, &config_probe, &FaultSchedule::empty(), 1);
    let relay_round = probe.ledger.node_total(1).as_joules();
    assert!(relay_round > 0.0, "the relay must spend in a healthy round");

    let mut config = NetworkConfig::sensor_default();
    config.node_energy = Energy::from_joules(relay_round * 1.5);
    let _off = AggMode::set(false);
    let oracle = simulate_gathering(&topo, RoutingStrategy::MinimumEnergy, &config, 6);
    let _on = AggMode::set(true);
    reset_agg_counters();
    let agg = simulate_gathering(&topo, RoutingStrategy::MinimumEnergy, &config, 6);
    assert_eq!(agg, oracle, "mid-round death must be bit-exact");
    assert!(
        agg_fallback_count() > 0,
        "the death round must fail the margin check"
    );
    // `first_death_round` counts completed rounds: a mid-round-2 death
    // reports as 2.
    assert_eq!(
        oracle.first_death_round,
        Some(2),
        "death lands in round 2 by construction"
    );
}

#[test]
fn sessions_reuse_routes_without_changing_results() {
    // The session API amortizes the route build across runs; every run
    // must still be bit-identical to the one-shot entry point, and the
    // kernel must stay engaged (no fallbacks on a healthy network).
    let _mode = AggMode::set(true);
    let topo = Topology::random(400, Length::from_meters(500.0), 11);
    let config = NetworkConfig::sensor_default();
    let one_shot = simulate_gathering(&topo, RoutingStrategy::MinimumEnergy, &config, 8);
    let mut session = GatherSession::new(&topo, RoutingStrategy::MinimumEnergy, &config);
    reset_agg_counters();
    for trial in 0..3 {
        let run = session.run(8);
        assert_eq!(run, one_shot, "session trial {trial}");
    }
    assert_eq!(agg_engaged_count(), 24, "all session rounds aggregate");
    assert_eq!(agg_fallback_count(), 0, "healthy rounds never fall back");
}

#[test]
fn session_faulted_runs_match_the_one_shot_entry_point() {
    // A faulted run on a session warmed by a fault-free run must see
    // its own faults, although its warm routes came from the healthy
    // run. Link-only outages and a round-0 outage are the sharp cases:
    // neither changes the routes in the faulted rounds it covers
    // (routing sees faults one round late, and link faults never change
    // the usable set), so any state keyed on the routes alone would
    // carry the healthy run's fates into them.
    // The warm lossy session rides the same schedules: its route cache
    // carries over between runs too.
    let _mode = AggMode::set(true);
    // 40 m spacing under the 45 m default hop range forces the
    // sink — relay — leaf chain, so both faults sit on a used route.
    let topo = Topology::new(vec![
        ami_net::Position::new(0.0, 0.0),
        ami_net::Position::new(40.0, 0.0),
        ami_net::Position::new(80.0, 0.0),
    ]);
    let config = NetworkConfig::sensor_default();
    let lossy = LossyConfig::bruised_channel();
    let rounds = 6;
    let link_only = FaultSchedule::new(vec![FaultEvent::LinkOutage {
        a: 1,
        b: 2,
        from: 1,
        until: 4,
    }]);
    let round0_outage = FaultSchedule::new(vec![FaultEvent::NodeOutage {
        node: 1,
        from: 0,
        until: 3,
    }]);
    let clean = simulate_gathering(&topo, RoutingStrategy::MinimumEnergy, &config, rounds);
    let lossy_clean = LossySession::new(&topo, &lossy).run(rounds, 5);

    for (label, schedule) in [
        ("link-only", &link_only),
        ("round-0 outage", &round0_outage),
    ] {
        let mut session = GatherSession::new(&topo, RoutingStrategy::MinimumEnergy, &config);
        // Warm the session with a fault-free run on the same routes.
        assert_eq!(session.run(rounds), clean, "warm-up run ({label})");

        let mut obs = LedgerRecorder::with_nodes(topo.len());
        let report = session.run_faulted_with(rounds, schedule, &mut obs);
        let (one_report, one_obs) = fresh_observed(&topo, &config, schedule, rounds);
        assert_eq!(report, one_report, "faulted report ({label})");
        assert_eq!(obs, one_obs, "faulted ledger ({label})");
        assert_eq!(
            manifest_of(rounds, &report, &obs),
            manifest_of(rounds, &one_report, &one_obs),
            "faulted manifest ({label})"
        );

        // The faulted run's truncated walks must not leak into a later
        // fault-free run on the same session either.
        assert_eq!(session.run(rounds), clean, "post-fault run ({label})");

        let mut warm = LossySession::new(&topo, &lossy);
        assert_eq!(warm.run(rounds, 5), lossy_clean, "lossy warm-up ({label})");
        let faulted = |session: &mut LossySession<'_>| {
            let mut obs = LedgerRecorder::with_nodes(topo.len());
            let report = session.run_faulted_with(rounds, 5, schedule, &mut obs);
            (report, obs)
        };
        let fresh = faulted(&mut LossySession::new(&topo, &lossy));
        assert_eq!(faulted(&mut warm), fresh, "lossy ({label})");
        assert_eq!(
            warm.run(rounds, 5),
            lossy_clean,
            "lossy post-fault run ({label})"
        );
    }
}

/// Rounds, field size and channel seed of the session-sequence fixture.
const SEQ_ROUNDS: u64 = 25;
const SEQ_NODES: usize = 24;
const SEQ_CHANNEL_SEED: u64 = 9;

/// One call on a pair of sessions: a plain `run`, or `run_faulted_with`
/// under `schedule` with a [`LedgerRecorder`] or a [`NullRecorder`].
#[derive(Debug, Clone)]
enum SessionOp {
    Run,
    Faulted {
        schedule: FaultSchedule,
        ledger: bool,
    },
}

fn session_op() -> impl Strategy<Value = SessionOp> {
    prop_oneof![
        Just(SessionOp::Run),
        (fault_schedule(SEQ_NODES, SEQ_ROUNDS, 10), 0u8..2).prop_map(|(schedule, ledger)| {
            SessionOp::Faulted {
                schedule,
                ledger: ledger == 1,
            }
        }),
    ]
}

/// What one [`SessionOp`] returned from each session; the ledgers are
/// `None` when the call recorded nothing.
#[derive(Debug, PartialEq)]
struct Outcome {
    gather: NetworkReport,
    gather_ledger: Option<LedgerRecorder>,
    lossy: LossyReport,
    lossy_ledger: Option<LedgerRecorder>,
}

/// A gathering session routing with one strategy and a lossy session
/// over one field.
struct Sessions<'a> {
    gather: GatherSession<'a>,
    lossy: LossySession<'a>,
}

impl<'a> Sessions<'a> {
    fn new(
        topo: &'a Topology,
        strategy: RoutingStrategy,
        config: &'a NetworkConfig,
        lossy: &'a LossyConfig,
    ) -> Self {
        Self {
            gather: GatherSession::new(topo, strategy, config),
            lossy: LossySession::new(topo, lossy),
        }
    }

    fn call(&mut self, op: &SessionOp) -> Outcome {
        match op {
            SessionOp::Run => Outcome {
                gather: self.gather.run(SEQ_ROUNDS),
                gather_ledger: None,
                lossy: self.lossy.run(SEQ_ROUNDS, SEQ_CHANNEL_SEED),
                lossy_ledger: None,
            },
            SessionOp::Faulted {
                schedule,
                ledger: false,
            } => Outcome {
                gather: self
                    .gather
                    .run_faulted_with(SEQ_ROUNDS, schedule, &mut NullRecorder),
                gather_ledger: None,
                lossy: self.lossy.run_faulted_with(
                    SEQ_ROUNDS,
                    SEQ_CHANNEL_SEED,
                    schedule,
                    &mut NullRecorder,
                ),
                lossy_ledger: None,
            },
            SessionOp::Faulted {
                schedule,
                ledger: true,
            } => {
                let mut gather_obs = LedgerRecorder::with_nodes(SEQ_NODES);
                let mut lossy_obs = LedgerRecorder::with_nodes(SEQ_NODES);
                Outcome {
                    gather: self
                        .gather
                        .run_faulted_with(SEQ_ROUNDS, schedule, &mut gather_obs),
                    gather_ledger: Some(gather_obs),
                    lossy: self.lossy.run_faulted_with(
                        SEQ_ROUNDS,
                        SEQ_CHANNEL_SEED,
                        schedule,
                        &mut lossy_obs,
                    ),
                    lossy_ledger: Some(lossy_obs),
                }
            }
        }
    }
}

/// Index of the first call in `ops` whose outcome on one warm pair of
/// sessions differs from the same call on a fresh pair.
fn first_divergence(
    topo: &Topology,
    strategy: RoutingStrategy,
    config: &NetworkConfig,
    lossy: &LossyConfig,
    ops: &[SessionOp],
) -> Option<usize> {
    let mut warm = Sessions::new(topo, strategy, config, lossy);
    ops.iter()
        .position(|op| warm.call(op) != Sessions::new(topo, strategy, config, lossy).call(op))
}

proptest! {
    /// Session contract: a warm session driven through any sequence of
    /// `run` / `run_faulted_with` calls — random fault schedules, with
    /// or without a ledger — returns exactly what a fresh session
    /// returns for each call. With default budgets nothing dies, so the
    /// warm routes survive into the next call (where state keyed on the
    /// routes alone would leak); drained budgets (~12 idle rounds) add
    /// energy deaths that move them mid-run. The gathering session
    /// routes with either strategy: direct-to-sink epochs never repair,
    /// so every usable-set transition takes the full-build branch. A
    /// divergence is reported with the diverging call's schedule
    /// ddmin-minimized (earlier calls replayed unchanged).
    #[test]
    fn warm_sessions_match_fresh_sessions_over_random_call_sequences(
        seed in 0u64..40,
        drained in 0u8..2,
        direct in 0u8..2,
        ops in prop::collection::vec(session_op(), 1..7),
    ) {
        let strategy = if direct == 1 {
            RoutingStrategy::DirectToSink
        } else {
            RoutingStrategy::MinimumEnergy
        };
        let topo = Topology::random(SEQ_NODES, Length::from_meters(110.0), seed);
        let mut config = NetworkConfig::sensor_default();
        if drained == 1 {
            config.node_energy = Energy::from_joules(0.015);
        }
        let lossy = LossyConfig::bruised_channel();
        if let Some(k) = first_divergence(&topo, strategy, &config, &lossy, &ops) {
            let minimized = match &ops[k] {
                SessionOp::Run => None,
                SessionOp::Faulted { schedule, ledger } => {
                    Some(minimize_failing_schedule(schedule.events(), |s| {
                        let mut prefix = ops[..k].to_vec();
                        prefix.push(SessionOp::Faulted {
                            schedule: s.clone(),
                            ledger: *ledger,
                        });
                        first_divergence(&topo, strategy, &config, &lossy, &prefix).is_some()
                    }))
                }
            };
            panic!(
                "warm session diverged from a fresh one at call {k} (seed {seed}, {strategy})\n\
                 calls: {ops:?}\nminimized schedule of call {k}: {:?}",
                minimized.as_ref().map(FaultSchedule::events),
            );
        }
    }
}
