//! Bench snapshot — a fast, machine-readable timing pass over the
//! network-simulator and simulation-kernel hot paths, for tracking the
//! perf trajectory across PRs.
//!
//! Unlike the criterion benches (`cargo bench -p ami-bench`), this
//! binary is built to run in CI in seconds and emit two snapshots:
//!
//! `BENCH_NET.json` (schema `ambience-bench-net/v1`) — one entry per
//! (workload, network size), keyed by commit-stable labels
//! (`gather_round/n400`, …) so successive snapshots diff cleanly:
//!
//! * `route_build`  — one minimum-energy route-table build (op = build);
//! * `gather_round` — a healthy gathering run (op = simulated round);
//! * `lossy_round`  — a lossy-link ARQ run (op = simulated round);
//! * `faulted_replication` — seeded replications under a fault mix on a
//!   single pinned worker (op = replication).
//!
//! Network sizes are N ∈ {25, 100, 400, 1600} uniform-random fields at
//! constant node density (field side 25·√N m, so ~10 neighbours in
//! radio range whatever the scale). `route_build`, `gather_round` and
//! `lossy_round` additionally run at the city scales
//! N ∈ {10 000, 100 000} and at the megacity N = 1 000 000 (fewer
//! rounds per iteration), pinning the spatial-grid CSR build and the
//! aggregated round loop where quadratic scans would be unaffordable.
//! At the city scales and up, `gather_round` and `lossy_round` measure
//! **marginal rounds** through the session APIs ([`GatherSession`] /
//! [`LossySession`]): the warm-up iteration performs the route build
//! and sizes the scratch, so the timed iterations isolate per-round
//! kernel cost from the build (which `route_build` prices separately).
//! `lossy_round_par` repeats the city-scale lossy rounds the same way,
//! on a warm [`LossySession`] at `AMBIENCE_THREADS` workers, and carries
//! `threads`/`cpus` fields plus a `speedup` field (serial mean /
//! parallel mean — expect >1× on a multi-core box). The rows
//! force-engage the rollback-free region-parallel engine past the
//! small-n floor — the snapshot times the engine, not the dispatch
//! heuristic — but the engine needs more than one worker: at
//! `threads` = 1 the session runs the serial loop, so the row re-times
//! the `lossy_round` run and `speedup` ≈ 1. When `cpus` is 1 a
//! multi-worker row times engine overhead on a single core, so
//! `speedup` is advisory and CI treats it that way. Gathering has no
//! parallel rows: its runs use the serial aggregated kernel at every
//! thread count.
//!
//! `BENCH_SIM.json` (schema `ambience-bench-sim/v1`) — the `ami-sim`
//! kernel and sweep layer (labels mirrored by the `sim_hotpath`
//! criterion group in `ami-bench`):
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
    simulate_lossy_gathering, GatherSession, LossyConfig, LossySession, NetworkConfig,
    RoutingStrategy, Topology,
};
use ami_sim::fault::{FaultSchedule, FaultSpec};
use ami_sim::obs::NullRecorder;
use ami_sim::{replicate_par, sim_rng, EnergyMeter, EventQueue};
use ami_tech::{TechnologyNode, VariationModel};
use ami_units::{Area, Length, Power, Temperature, TimeSpan};
use std::hint::black_box;
use std::time::Instant;

/// Network sizes of the snapshot sweep.
const SIZES: [usize; 4] = [25, 100, 400, 1600];
/// City-scale sizes: `route_build`, `gather_round` and `lossy_round`
/// (the faulted-replication workload stays at the classic sizes so the
/// snapshot keeps finishing in seconds). The `_par` rows stop at 100k —
/// the megacity row times the serial aggregated kernel.
const LARGE_SIZES: [usize; 2] = [10_000, 100_000];
/// The megacity size: serial `route_build` / `gather_round` /
/// `lossy_round` only, one round per iteration.
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
/// Faulted-replication workload: replications × rounds under this mix.
const FAULT_REPS: usize = 3;
const FAULT_ROUNDS: u64 = 30;
const FAULT_MIX: &str = "death=0.1,outage=0.2:10,link=0.1:8";
/// Seed for every topology draw (matches `ami_bench::BENCH_SEED`).
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
    ops_per_sec: f64,
    /// Serial mean / this entry's mean, for rows that re-run a serial
    /// workload on the intra-run parallel engine (`lossy_round_par`).
    speedup: Option<f64>,
    /// Worker threads the `_par` engine ran with (absent on serial rows).
    threads: Option<usize>,
    /// CPUs available to this process when the row was measured. A
    /// `speedup` recorded with `cpus: 1` times engine overhead, not
    /// parallelism — CI treats it as advisory.
    cpus: Option<usize>,
}

/// Times `work` (which performs `ops_per_iter` logical operations per
/// call): one warm-up call, then either exactly two timed iterations
/// (quick) or iterations until ~0.5 s of measurement (full).
fn measure(
    label: String,
    group: &'static str,
    n: usize,
    ops_per_iter: u64,
    quick: bool,
    mut work: impl FnMut(),
) -> Entry {
    work(); // warm-up: populates caches exactly like a long run would
    let budget_ns: u128 = 500_000_000;
    let (min_iters, max_iters) = if quick { (2, 2) } else { (3, 50) };
    let mut samples: Vec<u128> = Vec::new();
    let mut elapsed: u128 = 0;
    while samples.len() < max_iters && (samples.len() < min_iters || elapsed < budget_ns) {
        let start = Instant::now();
        work();
        let ns = start.elapsed().as_nanos();
        elapsed += ns;
        samples.push(ns);
    }
    let iters = samples.len() as u64;
    let wall_ns_mean = elapsed / u128::from(iters);
    let wall_ns_min = samples.iter().copied().min().expect("at least one sample");
    let ops_per_sec = ops_per_iter as f64 * 1e9 / wall_ns_mean as f64;
    Entry {
        label,
        group,
        n,
        ops_per_iter,
        iters,
        wall_ns_mean,
        wall_ns_min,
        ops_per_sec,
        speedup: None,
        threads: None,
        cpus: None,
    }
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

fn run_net_snapshot(quick: bool) -> Vec<Entry> {
    let mut entries = Vec::new();
    let net_config = NetworkConfig::sensor_default();
    let lossy_config = LossyConfig::bruised_channel();
    let spec = FaultSpec::parse(FAULT_MIX).expect("frozen fault mix parses");

    for &n in &SIZES {
        let topo = field(n);
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

    // The city-scale `_par` rows must time the region-parallel engine
    // itself: at n = 10 000 the nodes-per-worker floor would route
    // an 8-worker run back to the serial kernel, turning `speedup`
    // into a measurement of the dispatch heuristic. Results are
    // bit-identical either way, so engagement is purely a timing
    // concern. (Thread-local: restored before returning.)
    let par_floor = set_par_min_nodes_per_worker(Some(0));
    for &n in &LARGE_SIZES {
        let topo = field(n);
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

        let mut lossy_session = LossySession::new(&topo, &lossy_config);
        entries.push(measure(
            format!("lossy_round/n{n}"),
            "lossy_round",
            n,
            LOSSY_ROUNDS_LARGE,
            quick,
            || {
                black_box(lossy_session.run(LOSSY_ROUNDS_LARGE, SEED));
            },
        ));
        let lossy_serial_mean = entries
            .last()
            .expect("serial lossy_round row was just pushed")
            .wall_ns_mean;
        // The same marginal rounds on `threads` workers: a warm session
        // too, so the row is divided by a like-for-like serial mean.
        let threads = ami_sim::runner::thread_count();
        let mut par_session = LossySession::new(&topo, &lossy_config);
        let mut lossy_par = measure(
            format!("lossy_round_par/n{n}"),
            "lossy_round_par",
            n,
            LOSSY_ROUNDS_LARGE,
            quick,
            || {
                black_box(par_session.run_faulted_with(
                    LOSSY_ROUNDS_LARGE,
                    SEED,
                    &FaultSchedule::empty(),
                    threads,
                    &mut NullRecorder,
                ));
            },
        );
        lossy_par.speedup = Some(lossy_serial_mean as f64 / lossy_par.wall_ns_mean as f64);
        lossy_par.threads = Some(threads);
        lossy_par.cpus = Some(available_cpus());
        entries.push(lossy_par);
    }
    set_par_min_nodes_per_worker(par_floor);

    // The megacity: serial rows only, one round per iteration. The
    // session warm-up pays the route build (priced by `route_build`
    // below) so the round rows are pure marginal-round cost — the
    // tractability headline the aggregated kernel exists for.
    {
        let n = MEGA_SIZE;
        let topo = field(n);
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
            let summary = replicate_par(2000, 42, |seed| {
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

/// Renders a snapshot as deterministic, diff-stable JSON.
fn to_json(schema: &str, entries: &[Entry], quick: bool) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema\": \"{schema}\",\n"));
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
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

/// Prints one snapshot's table and writes (or streams) its JSON.
fn emit(entries: &[Entry], schema: &str, quick: bool, out_env: &str, default_path: &str) {
    println!();
    println!(
        "{:<28} {:>6} {:>7} {:>14} {:>14} {:>14}",
        "label", "n", "iters", "mean (µs)", "min (µs)", "ops/sec"
    );
    for e in entries {
        println!(
            "{:<28} {:>6} {:>7} {:>14.1} {:>14.1} {:>14.1}",
            e.label,
            e.n,
            e.iters,
            e.wall_ns_mean as f64 / 1e3,
            e.wall_ns_min as f64 / 1e3,
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
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var_os("AMBIENCE_BENCH_QUICK").is_some_and(|v| v == "1");
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
        "ambience-bench-net/v1",
        quick,
        "AMBIENCE_BENCH_OUT",
        "BENCH_NET.json",
    );

    let sim = run_sim_snapshot(quick);
    emit(
        &sim,
        "ambience-bench-sim/v1",
        quick,
        "AMBIENCE_BENCH_SIM_OUT",
        "BENCH_SIM.json",
    );
}
