//! City-scale smoke test: n = 100 000 nodes end to end, bounded in both
//! wall clock and allocations. `#[ignore]`d by default because the
//! debug profile is far too slow at this size — CI runs it as
//! `cargo test --release -- --ignored scale_smoke`, and a debug
//! invocation that reaches it anyway skips with a note. (This binary
//! holds exactly one test so no concurrent test pollutes the allocation
//! counter.)

use ami_net::routing::{
    reset_route_build_count, reset_route_repair_count, route_build_count, route_repair_count,
};
use ami_net::{simulate_gathering, GatherSession, NetworkConfig, RoutingStrategy, Topology};
use ami_sim::fault::{FaultEvent, FaultSchedule};
use ami_sim::obs::NullRecorder;
use ami_units::Length;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the counter is a
// side-effect-only atomic.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Minimum allocation count of `work` over `attempts` runs. The
/// simulation allocates deterministically; the libtest harness's
/// waiting thread occasionally allocates mid-window, and that noise is
/// strictly additive, so the minimum is the true count. Two attempts
/// suffice here (the windows are seconds long, so a double hit on the
/// same workload is vanishingly rare, and the runs are too expensive to
/// repeat five times).
fn steady_allocations(attempts: usize, mut work: impl FnMut()) -> u64 {
    (0..attempts)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            work();
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .min()
        .expect("at least one attempt")
}

#[test]
#[ignore = "city-scale smoke: run with `cargo test --release -- --ignored scale_smoke`"]
fn scale_smoke_100k_nodes_route_repair_and_gather() {
    if cfg!(debug_assertions) {
        eprintln!("scale_smoke: skipped (needs the release profile; rerun with --release)");
        return;
    }
    const N: usize = 100_000;
    let wall = Instant::now();

    // The bench layout at city scale: constant density (25·√n metre
    // field side), sink at the centre.
    let side = Length::from_meters(25.0 * (N as f64).sqrt());
    let topo = Topology::random(N, side, 2003);
    let config = NetworkConfig::sensor_default();

    // Healthy pass: one full build, packets flow.
    reset_route_build_count();
    reset_route_repair_count();
    let report = simulate_gathering(&topo, RoutingStrategy::MinimumEnergy, &config, 3);
    assert_eq!(route_build_count(), 1, "healthy run: one build");
    assert!(report.delivered_packets > 0, "the city must deliver");

    // Faulted pass: every transition fires by round 5, so a 3x longer
    // run must allocate exactly as much as the short one — the steady
    // state loops (including the repaired route tables) are
    // allocation-free even at n = 100 000. (The long run stays under 19
    // rounds: at this relay load the first *budget* death lands
    // deterministically at round 21, and its repair may legitimately
    // grow the reused scratch.)
    let faults = FaultSchedule::new(vec![
        FaultEvent::NodeOutage {
            node: 17,
            from: 1,
            until: 3,
        },
        FaultEvent::NodeDeath {
            node: 999,
            round: 2,
        },
        FaultEvent::LinkOutage {
            a: 5,
            b: 55,
            from: 1,
            until: 3,
        },
    ]);
    reset_route_build_count();
    reset_route_repair_count();
    let short = steady_allocations(2, || {
        let _ = GatherSession::new(&topo, RoutingStrategy::MinimumEnergy, &config)
            .run_faulted_with(6, &faults, &mut NullRecorder);
    });
    let long = steady_allocations(2, || {
        let _ = GatherSession::new(&topo, RoutingStrategy::MinimumEnergy, &config)
            .run_faulted_with(18, &faults, &mut NullRecorder);
    });
    assert_eq!(
        short, long,
        "faulted rounds allocated at n=100k ({short} vs {long} allocations)"
    );
    assert!(short > 0, "the counter must actually be counting");
    assert_eq!(route_build_count(), 4, "one full build per faulted run");
    assert_eq!(
        route_repair_count(),
        12,
        "three transitions per run, each an incremental repair"
    );

    let elapsed = wall.elapsed();
    assert!(
        elapsed < Duration::from_secs(90),
        "scale smoke exceeded its wall-clock budget: {elapsed:?}"
    );
}
