//! Proof that the *faulted* round loops are allocation-free once every
//! scheduled transition has fired: a counting global allocator measures
//! whole simulations at two very different round counts over a schedule
//! whose last transition lands well inside the shorter run. Setup,
//! timeline compilation, the round-0 build and each repair allocate the
//! same amount in both runs, so any per-round allocation — including
//! one hidden in the incremental-repair steady state — shows up as a
//! count difference. (This binary holds exactly one test so no
//! concurrent *test* pollutes the counter; harness-thread noise is
//! filtered by measuring each workload as a minimum over several
//! attempts — see [`steady_allocations`].)

use ami_net::{GatherSession, LossyConfig, LossySession, NetworkConfig, RoutingStrategy, Topology};
use ami_sim::fault::{FaultEvent, FaultSchedule};
use ami_sim::obs::NullRecorder;
use ami_units::Length;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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
/// strictly additive, so the minimum is the true count and the equality
/// assertions below stay exact.
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

/// Deaths, an outage+reboot and a link window, all resolved by round 6:
/// both measured runs replay the identical transition (and repair)
/// sequence, then the longer one keeps looping with nothing left to
/// change.
fn early_schedule() -> FaultSchedule {
    FaultSchedule::new(vec![
        FaultEvent::NodeOutage {
            node: 7,
            from: 1,
            until: 4,
        },
        FaultEvent::NodeDeath { node: 11, round: 2 },
        FaultEvent::NodeDeath { node: 23, round: 4 },
        FaultEvent::LinkOutage {
            a: 3,
            b: 14,
            from: 1,
            until: 5,
        },
    ])
}

#[test]
fn faulted_round_loops_allocate_nothing_per_round() {
    let topo = Topology::grid(6, Length::from_meters(25.0));
    let config = NetworkConfig::sensor_default();
    let lossy = LossyConfig::bruised_channel();
    let faults = early_schedule();
    // Each run on a fresh session, like a one-shot study.
    let gather_run = |rounds| {
        GatherSession::new(&topo, RoutingStrategy::MinimumEnergy, &config).run_faulted_with(
            rounds,
            &faults,
            &mut NullRecorder,
        )
    };
    let lossy_run = |rounds| {
        LossySession::new(&topo, &lossy).run_faulted_with(rounds, 3, &faults, 1, &mut NullRecorder)
    };

    // Warm the topology's CSR cache so every measured run starts from
    // the same state (the cache builds once per topology, not per run).
    let _ = gather_run(1);
    let _ = lossy_run(1);

    let gather_short = steady_allocations(5, || {
        let _ = gather_run(10);
    });
    let gather_long = steady_allocations(5, || {
        let _ = gather_run(1000);
    });
    assert_eq!(
        gather_short, gather_long,
        "faulted gather round loop allocated ({gather_short} vs {gather_long} allocations)"
    );
    assert!(gather_short > 0, "the counter must actually be counting");

    let lossy_short = steady_allocations(5, || {
        let _ = lossy_run(10);
    });
    let lossy_long = steady_allocations(5, || {
        let _ = lossy_run(1000);
    });
    assert_eq!(
        lossy_short, lossy_long,
        "faulted lossy round loop allocated ({lossy_short} vs {lossy_long} allocations)"
    );
}
