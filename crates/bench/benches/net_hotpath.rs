//! Network-simulator hot paths at the snapshot sizes N ∈ {25, 100, 400,
//! 1600}: route building, healthy gather rounds, lossy ARQ rounds, and
//! faulted replication. The groups mirror the labels of
//! `expt_bench_snapshot` / `BENCH_NET.json`, so criterion runs and the
//! machine-readable trajectory stay comparable.

use ami_bench::BENCH_SEED;
use ami_net::{
    build_routes, replicate_gathering_observed, set_par_min_nodes_per_worker, simulate_gathering,
    simulate_lossy_gathering, LossyConfig, LossySession, NetworkConfig, RoutingStrategy, Topology,
};
use ami_sim::fault::{FaultSchedule, FaultSpec};
use ami_sim::obs::NullRecorder;
use ami_units::Length;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// Snapshot sweep sizes (constant node density: field side 25·√N m).
const SIZES: [usize; 4] = [25, 100, 400, 1600];
const GATHER_ROUNDS: u64 = 10;
const LOSSY_ROUNDS: u64 = 10;
const FAULT_REPS: usize = 3;
const FAULT_ROUNDS: u64 = 30;
const FAULT_MIX: &str = "death=0.1,outage=0.2:10,link=0.1:8";

fn field(n: usize) -> Topology {
    let side = Length::from_meters(25.0 * (n as f64).sqrt());
    Topology::random(n, side, BENCH_SEED)
}

fn bench_route_build(c: &mut Criterion) {
    let config = NetworkConfig::sensor_default();
    let mut group = c.benchmark_group("route_build");
    for n in SIZES {
        let topo = field(n);
        group.bench_with_input(BenchmarkId::new("min_energy", n), &topo, |b, topo| {
            b.iter(|| {
                build_routes(
                    black_box(topo),
                    RoutingStrategy::MinimumEnergy,
                    &config.radio,
                    config.max_hop,
                )
            })
        });
    }
    group.finish();
}

fn bench_gather_round(c: &mut Criterion) {
    let config = NetworkConfig::sensor_default();
    let mut group = c.benchmark_group("gather_round");
    for n in SIZES {
        let topo = field(n);
        group.bench_with_input(
            BenchmarkId::new("healthy_10_rounds", n),
            &topo,
            |b, topo| {
                b.iter(|| {
                    simulate_gathering(
                        black_box(topo),
                        RoutingStrategy::MinimumEnergy,
                        &config,
                        GATHER_ROUNDS,
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_lossy_round(c: &mut Criterion) {
    let config = LossyConfig::bruised_channel();
    let mut group = c.benchmark_group("lossy_round");
    for n in SIZES {
        let topo = field(n);
        group.bench_with_input(BenchmarkId::new("arq_10_rounds", n), &topo, |b, topo| {
            b.iter(|| simulate_lossy_gathering(black_box(topo), &config, LOSSY_ROUNDS, BENCH_SEED))
        });
    }
    group.finish();
}

/// The rollback-free region-parallel lossy engine on the same ARQ
/// workload, one fresh session per iteration like the `lossy_round`
/// group — mirrors the snapshot's `lossy_round_par` city rows at
/// criterion scale. Worker counts are explicit: `t1` runs the serial
/// loop (the engine needs more than one worker), so it re-times the
/// `lossy_round` group through the session's dispatch; `t8` is the
/// parallel win on a multi-core box. The criterion sizes sit below the
/// engine's nodes-per-worker floor, so the group force-engages it — the
/// point is to time the engine, not the dispatch heuristic.
fn bench_lossy_round_par(c: &mut Criterion) {
    let config = LossyConfig::bruised_channel();
    let par_floor = set_par_min_nodes_per_worker(Some(0));
    let mut group = c.benchmark_group("lossy_round_par");
    for n in SIZES {
        let topo = field(n);
        for threads in [1usize, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("arq_10_rounds_t{threads}"), n),
                &topo,
                |b, topo| {
                    b.iter(|| {
                        LossySession::new(black_box(topo), &config).run_faulted_with(
                            LOSSY_ROUNDS,
                            BENCH_SEED,
                            &FaultSchedule::empty(),
                            threads,
                            &mut NullRecorder,
                        )
                    })
                },
            );
        }
    }
    group.finish();
    set_par_min_nodes_per_worker(par_floor);
}

fn bench_faulted_replication(c: &mut Criterion) {
    let config = NetworkConfig::sensor_default();
    let spec = FaultSpec::parse(FAULT_MIX).expect("frozen fault mix parses");
    let mut group = c.benchmark_group("faulted_replication");
    for n in SIZES {
        let side = Length::from_meters(25.0 * (n as f64).sqrt());
        group.bench_with_input(BenchmarkId::new("3x30_rounds", n), &n, |b, &n| {
            b.iter(|| {
                replicate_gathering_observed(
                    1, // pinned worker: time the simulator, not the pool
                    FAULT_REPS,
                    BENCH_SEED,
                    |seed| Topology::random(n, side, seed),
                    |seed| spec.schedule_for(seed, n, FAULT_ROUNDS),
                    RoutingStrategy::MinimumEnergy,
                    &config,
                    FAULT_ROUNDS,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_route_build,
    bench_gather_round,
    bench_lossy_round,
    bench_lossy_round_par,
    bench_faulted_replication
);
criterion_main!(benches);
