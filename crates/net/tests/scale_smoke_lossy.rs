//! City-scale lossy/ARQ smoke test: n = 100 000 nodes on the bruised
//! channel, bounded in wall clock and allocations. `#[ignore]`d by
//! default because the debug profile is far too slow at this size — CI
//! runs it as `cargo test --release -- --ignored scale_smoke`, and a
//! debug invocation that reaches it anyway skips with a note. (This
//! binary holds exactly one test so no concurrent test pollutes the
//! allocation counter.)

use ami_net::{simulate_lossy_gathering, LossyConfig, LossySession, Topology};
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

/// Minimum allocation count of `work` over `attempts` runs (see
/// `scale_smoke.rs` — harness noise is strictly additive, so the
/// minimum is the true count).
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
fn scale_smoke_lossy_100k_nodes_arq() {
    if cfg!(debug_assertions) {
        eprintln!("scale_smoke_lossy: skipped (needs the release profile; rerun with --release)");
        return;
    }
    const N: usize = 100_000;
    let wall = Instant::now();

    // The bench layout at city scale: constant density (25·√n metre
    // field side), sink at the centre, bruised channel.
    let side = Length::from_meters(25.0 * (N as f64).sqrt());
    let topo = Topology::random(N, side, 2003);
    let config = LossyConfig::bruised_channel();

    // Healthy pass: the channel delivers imperfectly but the
    // city-scale run must not collapse.
    let report = simulate_lossy_gathering(&topo, &config, 2, 2003);
    assert!(report.delivered > 0, "the city must deliver");
    assert!(
        report.delivered < report.offered,
        "BER 1e-3 must cost packets at city scale"
    );

    // Allocation steadiness: after round 0's route build, extra rounds
    // reuse every buffer — a 3x longer run allocates exactly as much.
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
    let short = steady_allocations(2, || {
        let _ =
            LossySession::new(&topo, &config).run_faulted_with(6, 2003, &faults, &mut NullRecorder);
    });
    let long = steady_allocations(2, || {
        let _ = LossySession::new(&topo, &config).run_faulted_with(
            18,
            2003,
            &faults,
            &mut NullRecorder,
        );
    });
    assert_eq!(
        short, long,
        "faulted lossy rounds allocated at n=100k ({short} vs {long} allocations)"
    );
    assert!(short > 0, "the counter must actually be counting");

    let elapsed = wall.elapsed();
    assert!(
        elapsed < Duration::from_secs(90),
        "lossy scale smoke exceeded its wall-clock budget: {elapsed:?}"
    );
}
