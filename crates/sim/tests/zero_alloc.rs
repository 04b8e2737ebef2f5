//! Proof that the kernel hot paths are allocation-free at steady state:
//! a counting global allocator watches event-queue churn and
//! interned-id meter transitions. (This binary holds exactly one test
//! so no concurrent test pollutes the counter.)

use ami_sim::{EnergyMeter, EventQueue};
use ami_units::{Power, TimeSpan};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Counting is scoped to the measuring thread, so the libtest
    // harness's own background threads cannot leak allocations into a
    // measurement. Const-initialized, so reading it never allocates.
    static TRACKING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the counter is a
// side-effect-only atomic.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if TRACKING.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACKING.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations_during(work: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    TRACKING.with(|t| t.set(true));
    work();
    TRACKING.with(|t| t.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn kernel_hot_paths_allocate_nothing_at_steady_state() {
    // --- Event queue: pop/schedule churn recycles slab slots. ---
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..64u64 {
        queue.schedule_in(TimeSpan::from_seconds(i as f64), i);
    }
    // Warm: one churn pass settles heap/slab capacity at the high-water
    // mark (the population never grows past 64 below).
    for i in 0..256u64 {
        let (_, e) = queue.pop().expect("queue stays populated");
        queue.schedule_in(TimeSpan::from_seconds(64.0 + (e % 7) as f64), i);
    }
    let churn = allocations_during(|| {
        for i in 0..100_000u64 {
            let (_, e) = queue.pop().expect("queue stays populated");
            queue.schedule_in(TimeSpan::from_seconds(64.0 + (e % 7) as f64), i);
        }
    });
    assert_eq!(churn, 0, "event-queue churn allocated {churn} times");

    // --- Energy meter: pre-interned transitions are pure arithmetic. ---
    let mut meter = EnergyMeter::new("sleep", Power::from_microwatts(1.0), TimeSpan::ZERO);
    let states = [
        meter.intern("sleep"),
        meter.intern("sense"),
        meter.intern("radio tx"),
        meter.intern("radio rx"),
    ];
    let transitions = allocations_during(|| {
        for i in 1..100_000u64 {
            let id = states[(i % 4) as usize];
            meter.transition_id(
                id,
                Power::from_microwatts((i % 9) as f64),
                TimeSpan::from_seconds(i as f64),
            );
        }
    });
    assert_eq!(
        transitions, 0,
        "meter transitions allocated {transitions} times"
    );
    black_box(meter.total_energy(TimeSpan::from_seconds(100_000.0)));

    // The counter itself must be live, or the zeros above are vacuous.
    let control = allocations_during(|| {
        black_box(vec![0u8; 32]);
    });
    assert!(control > 0, "the counter must actually be counting");
}
