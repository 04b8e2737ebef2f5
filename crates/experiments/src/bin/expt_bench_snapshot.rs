//! Bench snapshot — the repository's per-kernel timer: a
//! machine-readable timing pass over the network-simulator and
//! simulation-kernel hot paths, for tracking the perf trajectory across
//! changes. (The end-to-end gate is the separate `perfbench/`
//! benchmark.) A full run takes a few minutes; `--quick` finishes in
//! seconds for the CI smoke. Each run writes two snapshots, and every
//! row and `speedup` in a snapshot comes from that one run. Both record
//! the run's `threads` (`AMBIENCE_THREADS`) and `cpus` (available
//! parallelism) next to `mode`.
//!
//! `BENCH_NET.json` (schema `ambience-bench-net/v1`) — one entry per
//! (workload, network size), keyed by commit-stable labels
//! (`gather_round/n400`, …) so successive snapshots diff cleanly:
//!
//! * `csr_build`    — one spatial-grid [`CsrAdjacency::build`] over the
//!   field's positions (op = build), the hop graph in cell order that
//!   every route build reads;
//! * `route_build`  — one minimum-energy route-table build (op = build),
//!   timed after an untimed warm-up build on the same topology. The
//!   warm-up builds the topology's cached CSR hop graph and prices its
//!   per-edge hop weights, so the row excludes both the graph build
//!   (`csr_build` times it) and the edge pricing;
//! * `gather_round` — a healthy gathering run (op = simulated round);
//! * `lossy_round`  — a lossy-link ARQ run (op = simulated round);
//! * `faulted_replication` — seeded replications under a fault mix on a
//!   single pinned worker (op = replication);
//! * `faulted_gather_round` / `faulted_lossy_round` — F15's churn mix
//!   on a city-scale field, gathering and lossy (op = simulated round);
//! * `observed_gather_round` — the faulted gathering runs observed into
//!   a fresh [`LedgerRecorder`] each, the shape of a city study's
//!   gathering spec (op = simulated round).
//!
//! Network sizes are N ∈ {25, 100, 400, 1600} uniform-random fields at
//! constant node density (field side 25·√N m, so ~10 neighbours in
//! radio range whatever the scale). `csr_build`, `route_build`,
//! `gather_round` and `lossy_round` additionally run at the city scales
//! N ∈ {10 000, 100 000} and at the megacity N = 1 000 000 (fewer
//! rounds per iteration), pinning the spatial-grid CSR build and the
//! aggregated round loop where quadratic scans would be unaffordable.
//! At the city scales and up, `gather_round` and `lossy_round` time
//! runs on a warm session ([`GatherSession`] / [`LossySession`]): the
//! warm-up iteration performs the route build and sizes the scratch,
//! so the timed iterations exclude the build (which `route_build`
//! prices separately). Each timed iteration is a new session run of 2
//! rounds (1 at the megacity). Every gathering round re-derives its
//! charges from its own routes, so a round costs about the same in a
//! 2-round run as in a longer one.
//! `lossy_round_par` repeats the city-scale lossy rounds the same way,
//! on a warm [`LossySession`] at `AMBIENCE_THREADS` workers, timed in
//! alternating iterations with the serial `lossy_round` row so both see
//! the same host noise, and carries `threads`/`cpus` fields plus a
//! `speedup` field (the `lossy_round` median over this row's median —
//! expect >1× on a multi-core box). The rows force the rollback-free
//! fan-out past the small-n floor — the snapshot times the engine, not
//! the dispatch heuristic — but a fan-out needs more than one worker:
//! at `threads` = 1 the session walks each round as one chunk, so the
//! row re-times the `lossy_round` run and `speedup` ≈ 1. When `cpus` is 1 a
//! multi-worker row times engine overhead on a single core, so
//! `speedup` is advisory and CI treats it that way. Gathering has no
//! parallel rows: its runs use the serial aggregated kernel at every
//! thread count.
//!
//! `faulted_gather_round`, `observed_gather_round` and
//! `faulted_lossy_round` run at the city scales only: each iteration is
//! a 10-round run on a warm serial session under one schedule drawn
//! from F15's fault mix for the field, so the rows price what faulted
//! rounds add — route repairs, image rebuilds, the hop-fault mask — on
//! top of the round kernels; the observed row adds the ledger (its
//! allocation included) and the recorder commit.
//!
//! Every row of both files reports its samples' mean, min, median and
//! p90 (`wall_ns_mean`, `wall_ns_min`, `wall_ns_median`, `wall_ns_p90`;
//! nearest-rank quantiles) and `ops_per_sec` from the mean.
//!
//! `BENCH_SIM.json` (schema `ambience-bench-sim/v1`) — the `ami-sim`
//! kernel and sweep layer:
//!
//! * `day_sim_cs1` — one full CS1 day simulation (op = simulated day);
//! * `state_meter_transition` — interned-id meter transitions
//!   (op = transition);
//! * `event_queue_churn` — steady-state pop/schedule churn on a
//!   1000-event population (op = pop+schedule);
//! * `mc_variation_2000` — A6's 2000-die Monte-Carlo leakage spread on
//!   the worker pool (op = die, honors `AMBIENCE_THREADS`);
//! * `design_space_grid` — F12's 6×7 area×interval feasibility grid on
//!   the worker pool (op = grid cell, honors `AMBIENCE_THREADS`).
//!
//! Flags / environment:
//!
//! * `--quick` (or `AMBIENCE_BENCH_QUICK=1`): two timed iterations per
//!   label instead of a 0.5 s budget — the CI smoke mode;
//! * `--diff PATH` (repeatable): after the run, compare it with the
//!   snapshot at `PATH` (the run of the same `schema`): one line per
//!   label with both medians and their ratio (run over snapshot),
//!   flagged `MOVED` when the medians differ by more than the larger
//!   `wall_ns_p90 − wall_ns_median` of the two rows, then the labels
//!   found on one side only. Report-only: flags never change the exit
//!   status. The file is read before the run, so it may be the snapshot
//!   the run then overwrites. A row's p90 − median is its spread within
//!   one run, and drift between runs on a shared host (10–40 % on a
//!   2-vCPU guest) exceeds it, so `MOVED` cannot tell a change from that
//!   drift; the report says so under its table. To compare two commits,
//!   alternate whole runs of both binaries and count a row as moved
//!   only when every pair moves it the same way (an unchanged row does
//!   so with probability 2^(1−k) over k pairs);
//! * `AMBIENCE_BENCH_OUT`: network snapshot path (default
//!   `BENCH_NET.json`, `-` = stdout only);
//! * `AMBIENCE_BENCH_SIM_OUT`: kernel snapshot path (default
//!   `BENCH_SIM.json`, `-` = stdout only).

use ami_core::case_studies::cs1::Cs1Config;
use ami_core::case_studies::cs1_trace::trace_one_day;
use ami_core::design_space::explore_cs1;
use ami_experiments::banner;
use ami_net::{
    build_routes, replicate_gathering_observed, set_par_min_nodes_per_worker, simulate_gathering,
    simulate_lossy_gathering, CsrAdjacency, GatherSession, LossyConfig, LossySession,
    NetworkConfig, RoutingStrategy, Topology,
};
use ami_scenario::json::{self, JsonValue};
use ami_sim::fault::{FaultSchedule, FaultSpec};
use ami_sim::obs::{LedgerRecorder, NullRecorder};
use ami_sim::{replicate, sim_rng, EnergyMeter, EventQueue};
use ami_tech::{TechnologyNode, VariationModel};
use ami_units::{Area, Length, Power, Temperature, TimeSpan};
use std::hint::black_box;
use std::time::Instant;

/// Network sizes of the snapshot sweep.
const SIZES: [usize; 4] = [25, 100, 400, 1600];
/// City-scale sizes: `csr_build`, `route_build`, `gather_round` and
/// `lossy_round`
/// (the faulted-replication workload stays at the classic sizes so the
/// snapshot keeps finishing in seconds). The `_par` rows stop at 100k —
/// the megacity row times the serial aggregated kernel.
const LARGE_SIZES: [usize; 2] = [10_000, 100_000];
/// The megacity size: `csr_build` and the serial `route_build` /
/// `gather_round` / `lossy_round` only, one round per iteration.
const MEGA_SIZE: usize = 1_000_000;
/// Rounds per gather / lossy iteration at the city scales — enough to
/// expose a per-round regression without drowning the snapshot in wall
/// clock.
const GATHER_ROUNDS_LARGE: u64 = 2;
const LOSSY_ROUNDS_LARGE: u64 = 2;
/// Rounds per iteration at the megacity scale (a single round is ~2 s).
const ROUNDS_MEGA: u64 = 1;
/// Rounds per gather / lossy iteration (kept small so route building is
/// a realistic share of the work, as in short replication studies).
const GATHER_ROUNDS: u64 = 10;
const LOSSY_ROUNDS: u64 = 10;
/// Faulted-replication workload: replications × rounds under this mix
/// (F15's churn mix, which the city-scale faulted rows use too).
const FAULT_REPS: usize = 3;
const FAULT_ROUNDS: u64 = 30;
const FAULT_MIX: &str = "death=0.1,outage=0.2:10,link=0.1:8";
/// Rounds per faulted city-scale iteration.
const FAULTED_ROUNDS_LARGE: u64 = 10;
/// Seed for every topology draw, replication base seed and lossy
/// channel stream, so two runs time exactly the same workload.
const SEED: u64 = 2003;

/// One measured row of the snapshot.
struct Entry {
    label: String,
    group: &'static str,
    n: usize,
    ops_per_iter: u64,
    iters: u64,
    wall_ns_mean: u128,
    wall_ns_min: u128,
    wall_ns_median: u128,
    wall_ns_p90: u128,
    ops_per_sec: f64,
    /// Serial median / this entry's median, for rows that re-run a
    /// serial workload on the intra-run parallel engine
    /// (`lossy_round_par`).
    speedup: Option<f64>,
    /// Worker threads the `_par` engine ran with (absent on serial rows).
    threads: Option<usize>,
    /// CPUs available to this process when the row was measured. A
    /// `speedup` recorded with `cpus: 1` times engine overhead, not
    /// parallelism — CI treats it as advisory.
    cpus: Option<usize>,
}

impl Entry {
    /// A row from the timed `samples` of a workload performing
    /// `ops_per_iter` logical operations per call.
    fn new(
        label: String,
        group: &'static str,
        n: usize,
        ops_per_iter: u64,
        mut samples: Vec<u128>,
    ) -> Self {
        samples.sort_unstable();
        let iters = samples.len() as u64;
        // Nearest rank: the smallest sample with at least `percent` %
        // of the samples at or below it.
        let quantile = |percent: usize| samples[(samples.len() * percent).div_ceil(100).max(1) - 1];
        let wall_ns_mean = samples.iter().sum::<u128>() / u128::from(iters);
        Entry {
            label,
            group,
            n,
            ops_per_iter,
            iters,
            wall_ns_mean,
            wall_ns_min: samples[0],
            wall_ns_median: quantile(50),
            wall_ns_p90: quantile(90),
            ops_per_sec: ops_per_iter as f64 * 1e9 / wall_ns_mean as f64,
            speedup: None,
            threads: None,
            cpus: None,
        }
    }
}

/// Times `works` in alternating iterations after one warm-up call each
/// (populating caches exactly like a long run would): either exactly two
/// timed calls of each (quick) or rounds until ~0.5 s of measurement
/// per workload (full). Alternating puts the same stretch of host noise
/// on every workload, so ratios between them hold. Returns each
/// workload's samples in nanoseconds.
fn sample(quick: bool, works: &mut [&mut dyn FnMut()]) -> Vec<Vec<u128>> {
    for work in works.iter_mut() {
        work();
    }
    let budget_ns = 500_000_000 * works.len() as u128;
    let (min_iters, max_iters) = if quick { (2, 2) } else { (3, 50) };
    let mut samples = vec![Vec::new(); works.len()];
    let mut elapsed: u128 = 0;
    let mut rounds = 0;
    while rounds < max_iters && (rounds < min_iters || elapsed < budget_ns) {
        for (work, out) in works.iter_mut().zip(&mut samples) {
            let start = Instant::now();
            work();
            let ns = start.elapsed().as_nanos();
            elapsed += ns;
            out.push(ns);
        }
        rounds += 1;
    }
    samples
}

/// Times `work` (which performs `ops_per_iter` logical operations per
/// call) on its own, as [`sample`] does.
fn measure(
    label: String,
    group: &'static str,
    n: usize,
    ops_per_iter: u64,
    quick: bool,
    mut work: impl FnMut(),
) -> Entry {
    let samples = sample(quick, &mut [&mut work]).remove(0);
    Entry::new(label, group, n, ops_per_iter, samples)
}

/// CPUs available to the process (the honesty context for `speedup`).
fn available_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Constant-density random field for `n` nodes.
fn field(n: usize) -> Topology {
    let side = Length::from_meters(25.0 * (n as f64).sqrt());
    Topology::random(n, side, SEED)
}

/// The `csr_build/n{n}` row: the spatial-grid hop graph built over the
/// positions of `topo` (a fresh field, so nothing is cached) at the
/// benchmark radio range.
fn csr_build_row(topo: &Topology, net_config: &NetworkConfig, quick: bool) -> Entry {
    let n = topo.len();
    measure(format!("csr_build/n{n}"), "csr_build", n, 1, quick, || {
        black_box(CsrAdjacency::build(
            black_box(topo.positions()),
            net_config.max_hop,
        ));
    })
}

fn run_net_snapshot(quick: bool) -> Vec<Entry> {
    let mut entries = Vec::new();
    let net_config = NetworkConfig::sensor_default();
    let lossy_config = LossyConfig::bruised_channel();
    let spec = FaultSpec::parse(FAULT_MIX).expect("frozen fault mix parses");

    for &n in &SIZES {
        let topo = field(n);
        entries.push(csr_build_row(&topo, &net_config, quick));
        entries.push(measure(
            format!("route_build/n{n}"),
            "route_build",
            n,
            1,
            quick,
            || {
                black_box(build_routes(
                    black_box(&topo),
                    RoutingStrategy::MinimumEnergy,
                    &net_config.radio,
                    net_config.max_hop,
                ));
            },
        ));
        entries.push(measure(
            format!("gather_round/n{n}"),
            "gather_round",
            n,
            GATHER_ROUNDS,
            quick,
            || {
                black_box(simulate_gathering(
                    black_box(&topo),
                    RoutingStrategy::MinimumEnergy,
                    &net_config,
                    GATHER_ROUNDS,
                ));
            },
        ));
        entries.push(measure(
            format!("lossy_round/n{n}"),
            "lossy_round",
            n,
            LOSSY_ROUNDS,
            quick,
            || {
                black_box(simulate_lossy_gathering(
                    black_box(&topo),
                    &lossy_config,
                    LOSSY_ROUNDS,
                    SEED,
                ));
            },
        ));
        let side = Length::from_meters(25.0 * (n as f64).sqrt());
        entries.push(measure(
            format!("faulted_replication/n{n}"),
            "faulted_replication",
            n,
            FAULT_REPS as u64,
            quick,
            || {
                black_box(replicate_gathering_observed(
                    1, // pinned worker: the snapshot times the simulator, not the pool
                    FAULT_REPS,
                    SEED,
                    |seed| Topology::random(n, side, seed),
                    |seed| spec.schedule_for(seed, n, FAULT_ROUNDS),
                    RoutingStrategy::MinimumEnergy,
                    &net_config,
                    FAULT_ROUNDS,
                ));
            },
        ));
    }

    // The city-scale `_par` rows must time the fan-out itself: at
    // n = 10 000 the nodes-per-worker floor would put an 8-worker run
    // back on one worker, turning `speedup`
    // into a measurement of the dispatch heuristic. Results are
    // bit-identical either way, so engagement is purely a timing
    // concern. (Thread-local: restored before returning.)
    let par_floor = set_par_min_nodes_per_worker(Some(0));
    for &n in &LARGE_SIZES {
        let topo = field(n);
        entries.push(csr_build_row(&topo, &net_config, quick));
        entries.push(measure(
            format!("route_build/n{n}"),
            "route_build",
            n,
            1,
            quick,
            || {
                black_box(build_routes(
                    black_box(&topo),
                    RoutingStrategy::MinimumEnergy,
                    &net_config.radio,
                    net_config.max_hop,
                ));
            },
        ));
        // Marginal rounds through the session API: the warm-up run
        // builds routes and sizes the aggregation scratch, so the timed
        // iterations price per-round work only (`route_build` above
        // prices the build).
        let mut session = GatherSession::new(&topo, RoutingStrategy::MinimumEnergy, &net_config);
        entries.push(measure(
            format!("gather_round/n{n}"),
            "gather_round",
            n,
            GATHER_ROUNDS_LARGE,
            quick,
            || {
                black_box(session.run(GATHER_ROUNDS_LARGE));
            },
        ));

        // The serial rounds and the same marginal rounds on `threads`
        // workers, each on a warm session, timed in alternating
        // iterations: `speedup` divides medians measured side by side.
        let threads = ami_sim::runner::thread_count();
        let mut lossy_session = LossySession::new(&topo, &lossy_config);
        let mut par_session = LossySession::new(&topo, &lossy_config);
        let [serial, par]: [Vec<u128>; 2] = sample(
            quick,
            &mut [
                &mut || {
                    black_box(lossy_session.run(LOSSY_ROUNDS_LARGE, SEED));
                },
                &mut || {
                    black_box(par_session.run_faulted_with(
                        LOSSY_ROUNDS_LARGE,
                        SEED,
                        &FaultSchedule::empty(),
                        threads,
                        &mut NullRecorder,
                    ));
                },
            ],
        )
        .try_into()
        .expect("one sample set per workload");
        let serial = Entry::new(
            format!("lossy_round/n{n}"),
            "lossy_round",
            n,
            LOSSY_ROUNDS_LARGE,
            serial,
        );
        let mut lossy_par = Entry::new(
            format!("lossy_round_par/n{n}"),
            "lossy_round_par",
            n,
            LOSSY_ROUNDS_LARGE,
            par,
        );
        lossy_par.speedup = Some(serial.wall_ns_median as f64 / lossy_par.wall_ns_median as f64);
        lossy_par.threads = Some(threads);
        lossy_par.cpus = Some(available_cpus());
        entries.push(serial);
        entries.push(lossy_par);

        // Faulted rounds on warm serial sessions: the warm-up run sizes
        // the fault scratch, and every timed run replays the same
        // schedule from a fresh run state.
        let faults = spec.schedule_for(SEED, n, FAULTED_ROUNDS_LARGE);
        let mut session = GatherSession::new(&topo, RoutingStrategy::MinimumEnergy, &net_config);
        entries.push(measure(
            format!("faulted_gather_round/n{n}"),
            "faulted_gather_round",
            n,
            FAULTED_ROUNDS_LARGE,
            quick,
            || {
                black_box(session.run_faulted_with(
                    FAULTED_ROUNDS_LARGE,
                    &faults,
                    &mut NullRecorder,
                ));
            },
        ));
        // The same faulted runs observed into a fresh ledger each: the
        // recorder commit of a city study, at one bulk charge per cell
        // and category.
        entries.push(measure(
            format!("observed_gather_round/n{n}"),
            "observed_gather_round",
            n,
            FAULTED_ROUNDS_LARGE,
            quick,
            || {
                let mut ledger = LedgerRecorder::with_nodes(n);
                black_box(session.run_faulted_with(FAULTED_ROUNDS_LARGE, &faults, &mut ledger));
                black_box(ledger);
            },
        ));
        let mut session = LossySession::new(&topo, &lossy_config);
        entries.push(measure(
            format!("faulted_lossy_round/n{n}"),
            "faulted_lossy_round",
            n,
            FAULTED_ROUNDS_LARGE,
            quick,
            || {
                black_box(session.run_faulted_with(
                    FAULTED_ROUNDS_LARGE,
                    SEED,
                    &faults,
                    1,
                    &mut NullRecorder,
                ));
            },
        ));
    }
    set_par_min_nodes_per_worker(par_floor);

    // The megacity: serial rows only, one round per iteration. The
    // session warm-up pays the route build (priced by `route_build`
    // below) so the round rows are pure marginal-round cost — the
    // tractability headline the aggregated kernel exists for.
    {
        let n = MEGA_SIZE;
        let topo = field(n);
        entries.push(csr_build_row(&topo, &net_config, quick));
        entries.push(measure(
            format!("route_build/n{n}"),
            "route_build",
            n,
            1,
            quick,
            || {
                black_box(build_routes(
                    black_box(&topo),
                    RoutingStrategy::MinimumEnergy,
                    &net_config.radio,
                    net_config.max_hop,
                ));
            },
        ));
        let mut session = GatherSession::new(&topo, RoutingStrategy::MinimumEnergy, &net_config);
        entries.push(measure(
            format!("gather_round/n{n}"),
            "gather_round",
            n,
            ROUNDS_MEGA,
            quick,
            || {
                black_box(session.run(ROUNDS_MEGA));
            },
        ));
        let mut lossy_session = LossySession::new(&topo, &lossy_config);
        entries.push(measure(
            format!("lossy_round/n{n}"),
            "lossy_round",
            n,
            ROUNDS_MEGA,
            quick,
            || {
                black_box(lossy_session.run(ROUNDS_MEGA, SEED));
            },
        ));
    }
    entries
}

/// The simulation-kernel and sweep-layer workloads (`BENCH_SIM.json`).
fn run_sim_snapshot(quick: bool) -> Vec<Entry> {
    let mut entries = Vec::new();
    let config = Cs1Config::default();

    entries.push(measure(
        "day_sim_cs1".to_owned(),
        "day_sim_cs1",
        1,
        1,
        quick,
        || {
            black_box(trace_one_day(black_box(&config)));
        },
    ));

    // The meter hot path as the day sim drives it: pre-interned ids,
    // rotating through four states.
    const TRANSITIONS: u64 = 100_000;
    entries.push(measure(
        "state_meter_transition".to_owned(),
        "state_meter_transition",
        TRANSITIONS as usize,
        TRANSITIONS,
        quick,
        || {
            let mut meter =
                EnergyMeter::new("baseline", Power::from_microwatts(2.0), TimeSpan::ZERO);
            let states = [
                meter.intern("baseline"),
                meter.intern("radio check"),
                meter.intern("radio tx"),
                meter.intern("radio startup"),
            ];
            for i in 0..TRANSITIONS {
                let id = states[(i % 4) as usize];
                meter.transition_id(
                    id,
                    Power::from_microwatts(5.0),
                    TimeSpan::from_seconds(i as f64),
                );
            }
            black_box(meter.transitions());
        },
    ));

    const CHURNS: u64 = 100_000;
    entries.push(measure(
        "event_queue_churn".to_owned(),
        "event_queue_churn",
        CHURNS as usize,
        CHURNS,
        quick,
        || {
            let mut queue: EventQueue<u64> = EventQueue::with_capacity(1000);
            for i in 0..1000u64 {
                queue.schedule_in(TimeSpan::from_seconds(i as f64), i);
            }
            for i in 0..CHURNS {
                let (_, e) = queue.pop().expect("queue stays populated");
                queue.schedule_in(TimeSpan::from_seconds(1000.0 + (e % 7) as f64), i);
            }
            black_box(queue.len());
        },
    ));

    // A6's leakage-spread Monte Carlo on the worker pool (the snapshot
    // honors AMBIENCE_THREADS, like the experiment binaries).
    let model = VariationModel::typical_2003();
    let node = TechnologyNode::n90();
    entries.push(measure(
        "mc_variation_2000".to_owned(),
        "mc_variation_2000",
        2000,
        2000,
        quick,
        || {
            let summary = replicate(ami_sim::runner::thread_count(), 2000, 42, |seed| {
                let mut rng = sim_rng(seed);
                model
                    .sample_die(&node, 100e3, Temperature::ROOM, &mut rng)
                    .leakage
                    .as_watts()
            });
            black_box(summary.mean);
        },
    ));

    // F12's area × check-interval feasibility grid on the worker pool.
    let areas: Vec<Area> = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
        .iter()
        .map(|&cm2| Area::from_square_centimeters(cm2))
        .collect();
    let intervals: Vec<TimeSpan> = [0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
        .iter()
        .map(|&s| TimeSpan::from_seconds(s))
        .collect();
    let cells = areas.len() * intervals.len();
    entries.push(measure(
        "design_space_grid".to_owned(),
        "design_space_grid",
        cells,
        cells as u64,
        quick,
        || {
            black_box(explore_cs1(black_box(&config), &areas, &intervals));
        },
    ));

    entries
}

/// The two snapshot schemas; a `--diff` file must carry one of them.
const NET_SCHEMA: &str = "ambience-bench-net/v1";
const SIM_SCHEMA: &str = "ambience-bench-sim/v1";

/// A row's median and noise band as `--diff` compares them: the noise
/// band is the row's `wall_ns_p90 − wall_ns_median`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Spread {
    median_ns: f64,
    noise_ns: f64,
}

impl Spread {
    fn new(median_ns: f64, p90_ns: f64) -> Self {
        Self {
            median_ns,
            noise_ns: p90_ns - median_ns,
        }
    }
}

/// Whether a label moved between two snapshots: its medians differ by
/// more than the larger noise band of its two rows.
fn moved(before: Spread, after: Spread) -> bool {
    (after.median_ns - before.median_ns).abs() > before.noise_ns.max(after.noise_ns)
}

/// A snapshot read back for `--diff`: its path, schema and rows.
struct Baseline {
    path: String,
    schema: String,
    rows: Vec<(String, Spread)>,
}

/// Reads a snapshot document of either schema: the schema and each
/// entry's label, median and p90.
fn parse_snapshot(text: &str) -> Result<(String, Vec<(String, Spread)>), String> {
    let doc = json::parse(text).map_err(|err| err.to_string())?;
    let schema = doc.get("schema").and_then(JsonValue::as_str);
    let Some(schema @ (NET_SCHEMA | SIM_SCHEMA)) = schema else {
        return Err(format!(
            "schema {schema:?} is neither {NET_SCHEMA} nor {SIM_SCHEMA}"
        ));
    };
    let Some(JsonValue::Array(entries)) = doc.get("entries") else {
        return Err("no \"entries\" array".to_owned());
    };
    let rows = entries
        .iter()
        .map(|entry| {
            let label = entry.get("label").and_then(JsonValue::as_str);
            let number = |key: &str| entry.get(key).and_then(JsonValue::as_f64);
            match (label, number("wall_ns_median"), number("wall_ns_p90")) {
                (Some(label), Some(median_ns), Some(p90_ns)) => {
                    Ok((label.to_owned(), Spread::new(median_ns, p90_ns)))
                }
                _ => Err(format!(
                    "an entry lacks a label, wall_ns_median or wall_ns_p90: {entry:?}"
                )),
            }
        })
        .collect::<Result<_, _>>()?;
    Ok((schema.to_owned(), rows))
}

/// The snapshots named by `--diff PATH` arguments, read before the run;
/// a missing path or a file that cannot be read or parsed ends the
/// program with status 2.
fn read_baselines(args: &[String]) -> Vec<Baseline> {
    let mut baselines = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg != "--diff" {
            continue;
        }
        let read = |path: &String| {
            let text = std::fs::read_to_string(path).map_err(|err| err.to_string());
            let (schema, rows) = text
                .and_then(|text| parse_snapshot(&text))
                .map_err(|err| format!("{path}: {err}"))?;
            Ok::<_, String>(Baseline {
                path: path.clone(),
                schema,
                rows,
            })
        };
        match args
            .next()
            .ok_or("needs a snapshot path".to_owned())
            .and_then(read)
        {
            Ok(baseline) => baselines.push(baseline),
            Err(err) => {
                eprintln!("--diff: {err}");
                std::process::exit(2);
            }
        }
    }
    baselines
}

/// A label with its row in the snapshot and in the run.
type DiffLine = (String, Option<Spread>, Option<Spread>);

/// One `--diff` line per label: the run's labels first in run order,
/// then those only the snapshot has.
fn diff_rows(snapshot: &[(String, Spread)], run: &[(String, Spread)]) -> Vec<DiffLine> {
    let find = |rows: &[(String, Spread)], label: &str| {
        rows.iter()
            .find(|(other, _)| other == label)
            .map(|&(_, spread)| spread)
    };
    let only_in_snapshot = snapshot
        .iter()
        .filter(|(label, _)| find(run, label).is_none())
        .map(|(label, before)| (label.clone(), Some(*before), None));
    run.iter()
        .map(|(label, after)| (label.clone(), find(snapshot, label), Some(*after)))
        .chain(only_in_snapshot)
        .collect()
}

/// Prints the `--diff` report of `entries` against `baseline`.
fn print_diff(baseline: &Baseline, entries: &[Entry]) {
    let run: Vec<(String, Spread)> = entries
        .iter()
        .map(|e| {
            let spread = Spread::new(e.wall_ns_median as f64, e.wall_ns_p90 as f64);
            (e.label.clone(), spread)
        })
        .collect();
    println!(
        "\n[diff against {} ({}): MOVED = medians differ by more than the larger p90 − median]",
        baseline.path, baseline.schema
    );
    println!(
        "{:<28} {:>16} {:>16} {:>8}",
        "label", "snapshot (µs)", "run (µs)", "ratio"
    );
    for (label, before, after) in diff_rows(&baseline.rows, &run) {
        match (before, after) {
            (Some(before), Some(after)) => println!(
                "{:<28} {:>16.1} {:>16.1} {:>8.3}{}",
                label,
                before.median_ns / 1e3,
                after.median_ns / 1e3,
                after.median_ns / before.median_ns,
                if moved(before, after) { "  MOVED" } else { "" }
            ),
            (None, _) => println!("{label:<28} only in this run"),
            (_, None) => println!("{label:<28} only in {}", baseline.path),
        }
    }
    println!(
        "[MOVED compares each row's within-run spread, so it cannot tell a change from \
         between-run host drift (10–40 % on a shared 2-vCPU host). To compare two commits, \
         alternate whole runs of both binaries and count a row as moved only when every \
         pair moves it the same way; an unchanged row does so one time in 4 over 3 pairs, \
         one time in 32 over 6.]"
    );
}

/// Renders a snapshot as deterministic, diff-stable JSON.
fn to_json(schema: &str, entries: &[Entry], quick: bool) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema\": \"{schema}\",\n"));
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    out.push_str(&format!(
        "  \"threads\": {},\n  \"cpus\": {},\n",
        ami_sim::runner::thread_count(),
        available_cpus()
    ));
    out.push_str("  \"entries\": [\n");
    for (idx, e) in entries.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"label\": \"{}\", ", e.label));
        out.push_str(&format!("\"group\": \"{}\", ", e.group));
        out.push_str(&format!("\"n\": {}, ", e.n));
        out.push_str(&format!("\"ops_per_iter\": {}, ", e.ops_per_iter));
        out.push_str(&format!("\"iters\": {}, ", e.iters));
        out.push_str(&format!("\"wall_ns_mean\": {}, ", e.wall_ns_mean));
        out.push_str(&format!("\"wall_ns_min\": {}, ", e.wall_ns_min));
        out.push_str(&format!("\"wall_ns_median\": {}, ", e.wall_ns_median));
        out.push_str(&format!("\"wall_ns_p90\": {}, ", e.wall_ns_p90));
        out.push_str(&format!("\"ops_per_sec\": {:.3}", e.ops_per_sec));
        if let Some(threads) = e.threads {
            out.push_str(&format!(", \"threads\": {threads}"));
        }
        if let Some(cpus) = e.cpus {
            out.push_str(&format!(", \"cpus\": {cpus}"));
        }
        if let Some(speedup) = e.speedup {
            out.push_str(&format!(", \"speedup\": {speedup:.3}"));
        }
        out.push_str(if idx + 1 == entries.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Prints one snapshot's table, writes (or streams) its JSON, and
/// prints its diff against every `baselines` snapshot of its `schema`.
fn emit(
    entries: &[Entry],
    schema: &str,
    quick: bool,
    out_env: &str,
    default_path: &str,
    baselines: &[Baseline],
) {
    println!();
    println!(
        "{:<28} {:>7} {:>5} {:>14} {:>14} {:>14} {:>14} {:>14}",
        "label", "n", "iters", "mean (µs)", "min (µs)", "median (µs)", "p90 (µs)", "ops/sec"
    );
    for e in entries {
        println!(
            "{:<28} {:>7} {:>5} {:>14.1} {:>14.1} {:>14.1} {:>14.1} {:>14.1}",
            e.label,
            e.n,
            e.iters,
            e.wall_ns_mean as f64 / 1e3,
            e.wall_ns_min as f64 / 1e3,
            e.wall_ns_median as f64 / 1e3,
            e.wall_ns_p90 as f64 / 1e3,
            e.ops_per_sec
        );
    }

    let json = to_json(schema, entries, quick);
    let target =
        std::env::var_os(out_env).unwrap_or_else(|| std::ffi::OsString::from(default_path));
    if target == "-" {
        print!("{json}");
    } else {
        std::fs::write(&target, &json)
            .unwrap_or_else(|err| panic!("cannot write snapshot to {target:?}: {err}"));
        println!("\n[snapshot written to {}]", target.to_string_lossy());
    }
    for baseline in baselines.iter().filter(|b| b.schema == schema) {
        print_diff(baseline, entries);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick")
        || std::env::var_os("AMBIENCE_BENCH_QUICK").is_some_and(|v| v == "1");
    let baselines = read_baselines(&args);
    banner(
        "BENCH",
        "network + simulation-kernel hot-path snapshot (machine-readable trajectory)",
    );
    println!("[mode: {}]", if quick { "quick" } else { "full" });
    println!(
        "[runner: {} worker thread(s)]",
        ami_sim::runner::thread_count()
    );

    let net = run_net_snapshot(quick);
    emit(
        &net,
        NET_SCHEMA,
        quick,
        "AMBIENCE_BENCH_OUT",
        "BENCH_NET.json",
        &baselines,
    );

    let sim = run_sim_snapshot(quick);
    emit(
        &sim,
        SIM_SCHEMA,
        quick,
        "AMBIENCE_BENCH_SIM_OUT",
        "BENCH_SIM.json",
        &baselines,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_label_moves_only_past_the_wider_noise_band() {
        // Noise bands 10 and 30: the wider one sets the bar.
        let before = Spread::new(100.0, 110.0);
        assert!(!moved(before, Spread::new(130.0, 160.0)));
        assert!(moved(before, Spread::new(131.0, 161.0)));
        assert!(!moved(before, Spread::new(70.0, 100.0)));
        assert!(moved(before, Spread::new(69.0, 99.0)));
        // Either side's band counts, and a noiseless pair flags any move.
        assert!(!moved(Spread::new(130.0, 160.0), Spread::new(100.0, 110.0)));
        assert!(moved(Spread::new(100.0, 100.0), Spread::new(101.0, 101.0)));
        assert!(!moved(Spread::new(100.0, 100.0), Spread::new(100.0, 100.0)));
    }

    #[test]
    fn diff_pairs_rows_by_label_and_lists_one_sided_labels() {
        let snapshot = r#"{"schema": "ambience-bench-net/v1", "mode": "full", "entries": [
            {"label": "a/n1", "wall_ns_median": 100, "wall_ns_p90": 110},
            {"label": "gone/n1", "wall_ns_median": 5, "wall_ns_p90": 6},
            {"label": "b/n1", "wall_ns_median": 200, "wall_ns_p90": 260}]}"#;
        let (schema, rows) = parse_snapshot(snapshot).expect("hand-made snapshot parses");
        assert_eq!(schema, NET_SCHEMA);
        let run = [
            ("b/n1".to_owned(), Spread::new(150.0, 155.0)),
            ("new/n1".to_owned(), Spread::new(1.0, 1.0)),
            ("a/n1".to_owned(), Spread::new(105.0, 108.0)),
        ];
        let (a, b) = (Spread::new(100.0, 110.0), Spread::new(200.0, 260.0));
        assert_eq!(
            diff_rows(&rows, &run),
            [
                ("b/n1".to_owned(), Some(b), Some(run[0].1)),
                ("new/n1".to_owned(), None, Some(run[1].1)),
                ("a/n1".to_owned(), Some(a), Some(run[2].1)),
                ("gone/n1".to_owned(), Some(Spread::new(5.0, 6.0)), None),
            ]
        );
        // b: |150 − 200| = 50 is inside the snapshot's band of 60; a: 5 < 10.
        assert!(!moved(b, run[0].1) && !moved(a, run[2].1));
    }

    #[test]
    fn malformed_snapshots_are_errors() {
        assert!(parse_snapshot("{").is_err());
        assert!(parse_snapshot(r#"{"entries": []}"#).is_err());
        assert!(parse_snapshot(r#"{"schema": "other/v1", "entries": []}"#).is_err());
        assert!(parse_snapshot(r#"{"schema": "ambience-bench-sim/v1"}"#).is_err());
        let no_p90 = r#"{"schema": "ambience-bench-sim/v1",
            "entries": [{"label": "a", "wall_ns_median": 1}]}"#;
        assert!(parse_snapshot(no_p90).is_err());
        assert!(parse_snapshot(r#"{"schema": "ambience-bench-sim/v1", "entries": []}"#).is_ok());
    }
}
